//! A mergeable log-linear histogram with interpolated quantiles.
//!
//! The engine's original latency histogram used pure power-of-two
//! buckets: bucket `i` holds `[2^(i-1), 2^i)`, and a quantile query
//! returns the bucket's *upper bound* — an overstatement of up to 2× at
//! the top of a bucket.  This histogram refines that in two ways:
//!
//! * **Log-linear buckets.**  Each power-of-two decade is split into
//!   `SUB` (16) linear sub-buckets, so the worst-case relative width
//!   of any bucket is 1/16 ≈ 6.25% instead of 2×.  Values below 16 get
//!   exact unit-width buckets.
//! * **Interpolated quantiles.**  [`HistogramSnapshot::quantile`]
//!   linearly interpolates the requested rank *within* its bucket
//!   (mid-rank convention), so reported quantiles are estimates of the
//!   statistic, not bucket edges, and are monotone in `q` by
//!   construction.
//!
//! Two flavors share the bucket layout: the concurrent [`Histogram`]
//! (atomic counters, merged into by many threads) and the plain
//! [`LocalHistogram`] (thread-local, no atomics — the hot-path store is
//! a plain integer increment, flushed wholesale into the shared
//! histogram at a batch boundary).

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per power-of-two decade.
pub(crate) const SUB: u64 = 16;
const SUB_BITS: u32 = 4;

/// Recorded values saturate here (2^32 − 1 µs ≈ 71 minutes — far beyond
/// anything a pipeline stage can legitimately take).
pub(crate) const CLAMP: u64 = (1 << 32) - 1;

/// Total bucket count for the clamped value domain.
pub(crate) const BUCKETS: usize = 464;

/// Flat bucket index for `value` (callers clamp to [`CLAMP`] first).
fn bucket_of(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = ((value >> shift) - SUB) as usize;
    ((shift as usize) + 1) * (SUB as usize) + sub
}

/// Inclusive-lower / exclusive-upper value bounds of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    let sub = SUB as usize;
    if i < sub {
        return (i as u64, i as u64 + 1);
    }
    let block = (i / sub) as u64;
    let offset = (i % sub) as u64;
    let shift = (block - 1) as u32;
    let lo = (SUB + offset) << shift;
    (lo, lo + (1u64 << shift))
}

/// Concurrent log-linear histogram: lock-free relaxed atomic counters.
///
/// `record` is wait-free (one `fetch_add` per counter touched); `merge`
/// folds a thread-local histogram in bucket-by-bucket.  Counter reads in
/// [`Histogram::snapshot`] are relaxed and unsynchronized with writers —
/// a snapshot taken mid-flight sees some prefix of each thread's
/// activity, which is the usual monitoring contract.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one value directly (used off the hot path; hot paths go
    /// through a [`LocalHistogram`] and `Histogram::merge`).
    pub fn record(&self, value: u64) {
        let v = value.min(CLAMP);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Folds a drained thread-local histogram into this one.
    pub(crate) fn merge(&self, local: &LocalHistogram) {
        if local.total == 0 {
            return;
        }
        for (i, &count) in local.buckets.iter().enumerate() {
            if count > 0 {
                self.buckets[i].fetch_add(count, Ordering::Relaxed);
            }
        }
        self.total.fetch_add(local.total, Ordering::Relaxed);
        self.sum.fetch_add(local.sum, Ordering::Relaxed);
    }

    /// Copies the counters out for quantile queries.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            total: self.total.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Thread-local histogram: plain integers, no atomics.
///
/// This is the hot-path sink — recording is an array increment — and it
/// is periodically drained into the shared [`Histogram`] (see the
/// recorder module for the flush policy).
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: Vec<u64>,
    total: u64,
    sum: u64,
}

impl LocalHistogram {
    /// An empty local histogram.
    pub fn new() -> Self {
        LocalHistogram {
            buckets: vec![0; BUCKETS],
            total: 0,
            sum: 0,
        }
    }

    /// Records one value — a plain (atomic-free) store.
    pub fn record(&mut self, value: u64) {
        let v = value.min(CLAMP);
        self.buckets[bucket_of(v)] += 1;
        self.total += 1;
        self.sum += v;
    }

    /// Number of recorded values since the last drain.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Resets all counters (after a merge).
    pub fn clear(&mut self) {
        if self.total == 0 {
            return;
        }
        for b in &mut self.buckets {
            *b = 0;
        }
        self.total = 0;
        self.sum = 0;
    }
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram::new()
    }
}

/// An owned copy of a histogram's counters, with quantile queries.
///
/// Snapshots subtract exactly ([`HistogramSnapshot::diff`]) — a window is
/// exact, not an approximation, because all histograms share one bucket
/// layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (what a disabled or untouched stage reports).
    pub fn empty() -> Self {
        HistogramSnapshot {
            counts: Vec::new(),
            total: 0,
            sum: 0,
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Mean of the recorded values, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.sum as f64 / self.total as f64)
        }
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`) with linear interpolation
    /// inside the bucket (mid-rank convention), or `None` if empty.
    ///
    /// Monotone in `q`: the target rank is nondecreasing in `q` and the
    /// interpolated position is nondecreasing in rank.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            cum += count;
            if cum >= target {
                let rank_in_bucket = target - (cum - count); // 1..=count
                let (lo, hi) = bucket_bounds(i);
                let fraction = (rank_in_bucket as f64 - 0.5) / count as f64;
                return Some(lo as f64 + (hi - lo) as f64 * fraction);
            }
        }
        // Unreachable when counts sum to total; be conservative if a
        // racy snapshot ever disagrees.
        None
    }

    /// The windowed delta `self − earlier`, where `earlier` is a prior
    /// snapshot of the *same* histogram (counters are monotone, so the
    /// per-bucket difference is exactly the window's recordings — this
    /// is what makes the timeline's windowed quantiles exact rather than
    /// approximations).  Subtraction saturates per bucket so a racy pair
    /// degrades to an undercount instead of wrapping; the total is
    /// recomputed from the bucket deltas so quantile ranks stay
    /// consistent with the counts.  Returns an empty snapshot when the
    /// window recorded nothing.
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        if self.total <= earlier.total || self.counts.is_empty() {
            return HistogramSnapshot::empty();
        }
        if earlier.counts.is_empty() {
            return self.clone();
        }
        let mut counts = vec![0u64; self.counts.len()];
        let mut total = 0u64;
        for (i, slot) in counts.iter_mut().enumerate() {
            let before = earlier.counts.get(i).copied().unwrap_or(0);
            *slot = self.counts[i].saturating_sub(before);
            total += *slot;
        }
        if total == 0 {
            return HistogramSnapshot::empty();
        }
        HistogramSnapshot {
            counts,
            total,
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..SUB {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v + 1));
        }
    }

    #[test]
    fn buckets_tile_the_domain_contiguously() {
        // Every bucket's upper bound is the next bucket's lower bound,
        // and every value maps into the bucket whose bounds contain it.
        for i in 0..BUCKETS - 1 {
            let (_, hi) = bucket_bounds(i);
            let (next_lo, _) = bucket_bounds(i + 1);
            assert_eq!(hi, next_lo, "gap between buckets {i} and {}", i + 1);
        }
        for v in [0, 1, 15, 16, 17, 31, 32, 33, 100, 1000, 4095, 4096, CLAMP] {
            let i = bucket_of(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(
                lo <= v && v < hi,
                "value {v} outside bucket {i} [{lo},{hi})"
            );
        }
        assert_eq!(bucket_of(CLAMP), BUCKETS - 1);
    }

    #[test]
    fn relative_bucket_width_is_bounded() {
        for i in SUB as usize..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(hi - lo <= lo / SUB + 1, "bucket {i} too wide: [{lo},{hi})");
        }
    }

    #[test]
    fn quantiles_interpolate_instead_of_overstating() {
        let h = Histogram::new();
        h.record(1000);
        let snap = h.snapshot();
        // 1000 lands in [992, 1024): the interpolated p99 is the bucket
        // midpoint 1008 — within 1% of the truth, where the old
        // power-of-two accessor would have said 1024 (2.4%) and, one
        // decade up, as much as 2×.
        let p99 = snap.quantile(0.99).unwrap();
        assert!((p99 - 1008.0).abs() < f64::EPSILON, "p99 = {p99}");
        assert!((p99 - 1000.0).abs() / 1000.0 < 0.0625);
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let h = Histogram::new();
        let mut x = 1u64;
        for _ in 0..1000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record(x >> 45); // values in [0, 2^19)
        }
        let snap = h.snapshot();
        let mut last = 0.0f64;
        for step in 1..=100 {
            let q = step as f64 / 100.0;
            let v = snap.quantile(q).unwrap();
            assert!(v >= last, "quantile({q}) = {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn empty_histograms_answer_none_not_zero() {
        let snap = Histogram::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.quantile(0.5), None);
        assert_eq!(snap.mean(), None);
        assert_eq!(HistogramSnapshot::empty().quantile(0.99), None);
    }

    #[test]
    fn saturation_lands_in_the_top_bucket() {
        let h = Histogram::new();
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1);
        let (lo, hi) = bucket_bounds(BUCKETS - 1);
        let v = snap.quantile(1.0).unwrap();
        assert!(v >= lo as f64 && v <= hi as f64);
    }

    #[test]
    fn local_merge_equals_direct_recording() {
        let shared = Histogram::new();
        let direct = Histogram::new();
        let mut local = LocalHistogram::new();
        for v in [0, 3, 16, 900, 77777, 1 << 30] {
            local.record(v);
            direct.record(v);
        }
        shared.merge(&local);
        local.clear();
        assert_eq!(local.total(), 0);
        shared.merge(&local); // merging an empty local is a no-op
        assert_eq!(shared.snapshot(), direct.snapshot());
    }

    #[test]
    fn snapshot_diff_recovers_the_window_exactly() {
        let h = Histogram::new();
        h.record(10);
        h.record(500);
        let earlier = h.snapshot();
        h.record(500);
        h.record(9000);
        let later = h.snapshot();

        // The diff must equal a histogram that saw only the window.
        let window_only = Histogram::new();
        window_only.record(500);
        window_only.record(9000);
        let window = later.diff(&earlier);
        assert_eq!(window, window_only.snapshot());
        assert_eq!(window.count(), 2);

        // Empty windows and empty earlier snapshots degrade cleanly.
        assert!(later.diff(&later).is_empty());
        assert_eq!(later.diff(&HistogramSnapshot::empty()), later);
        assert!(HistogramSnapshot::empty().diff(&earlier).is_empty());
    }
}
