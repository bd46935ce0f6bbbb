//! Zipfian entity selection (hot-spot access patterns).
//!
//! The acceptance-rate experiments sweep the skew parameter θ to show how
//! contention magnifies the gap between single-version and multiversion
//! schedulers: the hotter the hot spot, the more read-write conflicts, the
//! more a multiversion scheduler gains by serving old versions.

use rand::Rng;

/// A Zipfian distribution over `0..n` with skew parameter `theta`.
///
/// `theta = 0` is the uniform distribution; larger values concentrate mass
/// on the smallest indices.  Setup precomputes the normalised cumulative
/// weights in O(n); sampling inverts the CDF with a `partition_point`
/// binary search, so each draw is O(log n) — the engine load harness draws
/// one entity per step, millions of times per run, so this is a hot path.
#[derive(Debug, Clone)]
pub struct Zipfian {
    cumulative: Vec<f64>,
}

impl Zipfian {
    /// Creates a Zipfian distribution over `0..n` with skew `theta`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "empty support");
        assert!(theta >= 0.0, "negative skew");
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipfian { cumulative }
    }

    /// Number of items in the support.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// `true` if the support is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Samples an index in `0..n`: the first index whose cumulative weight
    /// exceeds a uniform draw (inverse CDF by binary search).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }

    /// The probability of index `i`.
    #[cfg(test)]
    pub(crate) fn probability(&self, i: usize) -> f64 {
        if i == 0 {
            self.cumulative[0]
        } else {
            self.cumulative[i] - self.cumulative[i - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_when_theta_is_zero() {
        let z = Zipfian::new(4, 0.0);
        for i in 0..4 {
            assert!((z.probability(i) - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn skew_concentrates_on_small_indices() {
        let z = Zipfian::new(10, 1.2);
        assert!(z.probability(0) > z.probability(1));
        assert!(z.probability(1) > z.probability(9));
        let total: f64 = (0..10).map(|i| z.probability(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn samples_are_in_range_and_biased() {
        let z = Zipfian::new(8, 0.99);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = [0usize; 8];
        for _ in 0..4000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts.iter().sum::<usize>() == 4000);
        assert!(counts[0] > counts[7], "hot key sampled more often");
    }

    #[test]
    fn sampling_is_deterministic_for_a_fixed_seed() {
        let z = Zipfian::new(32, 0.9);
        let draw = |seed: u64| -> Vec<usize> {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..256).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(draw(42), draw(42), "same seed, same stream");
        assert_ne!(draw(42), draw(43), "different seed, different stream");
    }

    #[test]
    fn empirical_frequencies_match_probabilities() {
        // Distribution sanity: with many draws, the empirical frequency of
        // every index stays within a loose absolute tolerance of its exact
        // probability (≫ 5σ for n = 20 000 draws, so deterministic given
        // the seeded stream).
        for &theta in &[0.0, 0.9, 1.4] {
            let n = 6;
            let z = Zipfian::new(n, theta);
            let mut rng = SmallRng::seed_from_u64(0xfeed);
            let draws = 20_000usize;
            let mut counts = vec![0usize; n];
            for _ in 0..draws {
                counts[z.sample(&mut rng)] += 1;
            }
            for (i, &count) in counts.iter().enumerate() {
                let empirical = count as f64 / draws as f64;
                let exact = z.probability(i);
                assert!(
                    (empirical - exact).abs() < 0.02,
                    "theta={theta} index={i}: empirical {empirical:.4} vs exact {exact:.4}"
                );
            }
        }
    }

    #[test]
    fn extreme_draws_hit_the_boundary_indices() {
        // partition_point must map u ≈ 0 to index 0 and u ≈ 1 to the last
        // index (the final cumulative weight is 1.0 up to rounding, so a
        // draw just below 1.0 must not fall off the end).
        let z = Zipfian::new(3, 1.0);
        assert_eq!(z.cumulative.partition_point(|&c| c <= 0.0).min(2), 0);
        assert_eq!(
            z.cumulative
                .partition_point(|&c| c <= 1.0 - 1e-12)
                .min(z.len() - 1),
            2
        );
    }

    #[test]
    #[should_panic(expected = "empty support")]
    fn empty_support_panics() {
        let _ = Zipfian::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "negative skew")]
    fn negative_skew_panics() {
        let _ = Zipfian::new(4, -0.5);
    }

    #[test]
    fn harmonic_boundary_theta_one_is_exact() {
        // θ = 1.0 is the harmonic series (weights 1/k): construction must
        // neither panic nor loop, the distribution must normalize, and the
        // weight ratios must be exactly harmonic: p(k-1)/p(k) = (k+1)/k.
        let n = 64;
        let z = Zipfian::new(n, 1.0);
        let total: f64 = (0..n).map(|i| z.probability(i)).sum();
        assert!((total - 1.0).abs() < 1e-9, "normalized, got {total}");
        for k in 1..8usize {
            let ratio = z.probability(k - 1) / z.probability(k);
            let exact = (k + 1) as f64 / k as f64;
            assert!(
                (ratio - exact).abs() < 1e-9,
                "p({})/p({k}) = {ratio}, want {exact}",
                k - 1
            );
        }
        // Sampling stays in range at the boundary.
        let mut rng = SmallRng::seed_from_u64(0x21f);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < n);
        }
    }

    #[test]
    fn len_reports_support_size() {
        let z = Zipfian::new(5, 0.5);
        assert_eq!(z.len(), 5);
        assert!(!z.is_empty());
    }
}
