//! Quantile, spread and clock helpers shared by every workload.

use std::time::Instant;

/// The one place the benchmark reads the wall clock (the repo lint
/// forbids `Instant::now` outside sanctioned sites).
#[inline]
pub fn now() -> Instant {
    // lint: allow(clock) — the benchmark is a measuring instrument; this is its clock
    Instant::now()
}

/// Nanoseconds elapsed since `since`.
#[inline]
pub fn ns_since(since: Instant) -> u64 {
    now().duration_since(since).as_nanos() as u64
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of the slowest `share` of an ascending sample (at least one value).
///
/// The tail of an engine slice is a plateau of transactions that waited for
/// a GC pass, 1-2 % of them; a plain p99 sits on the plateau's edge and
/// reads 70 us or 1.4 ms depending on which side of 1 % that share fell.
/// The mean over the slowest 1 % moves smoothly with it.
pub fn slowest_mean(sorted: &[u64], share: f64) -> f64 {
    assert!(!sorted.is_empty(), "tail of an empty sample");
    let count = ((share * sorted.len() as f64).round() as usize).clamp(1, sorted.len());
    let tail = &sorted[sorted.len() - count..];
    tail.iter().sum::<u64>() as f64 / count as f64
}

/// Median of a float sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive values: the average that gives every
/// certifier of a workload the same say, whatever its absolute speed.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v.ln();
        n += 1;
    }
    (sum / n.max(1) as f64).exp()
}

/// Disagreement of two rounds of the same measurement: |a − b| ÷ mean.
pub fn round_spread(a: f64, b: f64) -> f64 {
    let mean = (a + b) / 2.0;
    if mean == 0.0 {
        0.0
    } else {
        (a - b).abs() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&sample, 0.5), 50);
        assert_eq!(quantile(&sample, 0.99), 99);
        assert_eq!(quantile(&sample, 1.0), 100);
        assert_eq!(quantile(&sample, 0.0), 1);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn the_tail_mean_moves_smoothly_where_p99_jumps() {
        // 10 000 operations of 10 us, of which `stalled` waited 1 500 us.
        let sample = |stalled: usize| {
            let mut v = vec![10u64; 10_000 - stalled];
            v.extend(std::iter::repeat_n(1_500, stalled));
            v
        };
        // p99 falls off the plateau between 1.01 % and 0.99 % stalled ...
        assert_eq!(quantile(&sample(101), 0.99), 1_500);
        assert_eq!(quantile(&sample(99), 0.99), 10);
        // ... the mean of the slowest 1 % barely notices.
        assert_eq!(slowest_mean(&sample(101), 0.01), 1_500.0);
        assert_eq!(slowest_mean(&sample(99), 0.01), 1_485.1);
        assert_eq!(slowest_mean(&[7], 0.01), 7.0);
    }

    #[test]
    fn geometric_mean_gives_every_value_the_same_say() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        // Doubling the slow one moves it as much as doubling the fast one.
        let base = geomean([3_000.0, 40_000.0]);
        assert!(
            (geomean([6_000.0, 40_000.0]) / base - geomean([3_000.0, 80_000.0]) / base).abs()
                < 1e-12
        );
    }

    #[test]
    fn median_and_spread_arithmetic() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(round_spread(90.0, 110.0), 0.2);
        assert_eq!(round_spread(5.0, 5.0), 0.0);
        assert_eq!(round_spread(0.0, 0.0), 0.0);
    }
}
