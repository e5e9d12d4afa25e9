//! Zipfian item selection, following the algorithm YCSB uses (Gray et al.,
//! "Quickly Generating Billion-Record Synthetic Databases", SIGMOD 1994).
//!
//! The generator returns item **ranks**: rank 0 is the most popular item,
//! rank 1 the second most popular, and so on. The skew is controlled by the
//! zipfian constant θ (YCSB default 0.99).

use concord_sim::SimRng;

/// The zipfian constant YCSB uses by default.
pub const DEFAULT_ZIPFIAN_CONSTANT: f64 = 0.99;

/// Zipf-distributed rank generator over `[0, item_count)`.
#[derive(Debug, Clone)]
pub struct ZipfianGenerator {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    zeta2theta: f64,
    eta: f64,
    /// Number of items `zetan` was computed for (to support growth).
    count_for_zeta: u64,
}

impl ZipfianGenerator {
    /// Create a generator with the default zipfian constant 0.99.
    pub fn new(item_count: u64) -> Self {
        Self::with_constant(item_count, DEFAULT_ZIPFIAN_CONSTANT)
    }

    /// Create a generator with an explicit zipfian constant θ ∈ (0, 1)
    /// (every workload runs 0.99; the tests vary it).
    fn with_constant(item_count: u64, theta: f64) -> Self {
        assert!(item_count > 0, "item_count must be positive");
        assert!(
            theta > 0.0 && theta < 1.0,
            "zipfian constant must be in (0,1), got {theta}"
        );
        Self::with_zeta(item_count, theta, Self::zeta(item_count, theta))
    }

    /// [`ZipfianGenerator::with_constant`] given `zetan` = ζ(`item_count`,
    /// θ), for callers that know the sum without summing it.
    pub(super) fn with_zeta(item_count: u64, theta: f64, zetan: f64) -> Self {
        let zeta2theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / item_count as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        ZipfianGenerator {
            items: item_count,
            theta,
            alpha,
            zetan,
            zeta2theta,
            eta,
            count_for_zeta: item_count,
        }
    }

    /// The generalized harmonic number ζ(n, θ) = Σ_{i=1..n} 1/i^θ.
    ///
    /// For very large `n` (the scrambled-zipfian generator uses an internal
    /// item space of 10⁸) the sum is split into an exact prefix and an
    /// integral approximation of the tail, `∫ x^{-θ} dx`, whose relative
    /// error is far below anything observable in sampled frequencies.
    pub(super) fn zeta(n: u64, theta: f64) -> f64 {
        const EXACT_PREFIX: u64 = 1_000_000;
        let exact_n = n.min(EXACT_PREFIX);
        let mut sum = 0.0;
        for i in 1..=exact_n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        if n > exact_n {
            let a = exact_n as f64 + 0.5;
            let b = n as f64 + 0.5;
            sum += (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta);
        }
        sum
    }

    /// Incrementally extend ζ when the item space grows (avoids a full
    /// recomputation on every insert, exactly as YCSB does).
    fn extend_zeta(&mut self, new_count: u64) {
        if new_count <= self.count_for_zeta {
            return;
        }
        for i in (self.count_for_zeta + 1)..=new_count {
            self.zetan += 1.0 / (i as f64).powf(self.theta);
        }
        self.count_for_zeta = new_count;
        self.eta = (1.0 - (2.0 / new_count as f64).powf(1.0 - self.theta))
            / (1.0 - self.zeta2theta / self.zetan);
    }

    /// Number of items currently covered.
    pub fn item_count(&self) -> u64 {
        self.items
    }

    /// The zipfian constant θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Grow the item space to `item_count` items.
    pub fn set_item_count(&mut self, item_count: u64) {
        assert!(item_count >= self.items, "item space can only grow");
        self.items = item_count;
        self.extend_zeta(item_count);
    }

    /// Draw a rank for an explicit item count (used by [`LatestGenerator`]
    /// which re-targets the distribution at the newest item on every draw).
    ///
    /// [`LatestGenerator`]: super::LatestGenerator
    pub fn next_with_count(&mut self, rng: &mut SimRng, item_count: u64) -> u64 {
        assert!(item_count > 0);
        if item_count > self.count_for_zeta {
            self.items = item_count;
            self.extend_zeta(item_count);
        }
        let u = rng.next_f64();
        let uz = u * self.zetan;
        let v = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            (item_count as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        super::assert_dense("ZipfianGenerator", v.min(item_count - 1), item_count)
    }

    /// Draw the next rank.
    pub fn next(&mut self, rng: &mut SimRng) -> u64 {
        let items = self.items;
        self.next_with_count(rng, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frequencies(items: u64, draws: usize, seed: u64) -> Vec<usize> {
        let mut g = ZipfianGenerator::new(items);
        let mut rng = SimRng::new(seed);
        let mut counts = vec![0usize; items as usize];
        for _ in 0..draws {
            counts[g.next(&mut rng) as usize] += 1;
        }
        counts
    }

    #[test]
    fn values_in_range() {
        let mut g = ZipfianGenerator::new(1000);
        let mut rng = SimRng::new(1);
        for _ in 0..50_000 {
            assert!(g.next(&mut rng) < 1000);
        }
    }

    #[test]
    fn rank_zero_is_most_popular() {
        let counts = frequencies(100, 200_000, 2);
        let max = *counts.iter().max().unwrap();
        assert_eq!(counts[0], max, "rank 0 must be the hottest item");
        // Popularity should be (roughly) non-increasing over the first ranks.
        assert!(counts[0] > counts[5]);
        assert!(counts[1] > counts[20]);
    }

    #[test]
    fn skew_matches_zipf_ratio() {
        // For Zipf with θ, P(rank 1)/P(rank 2) = 2^θ.
        let counts = frequencies(1000, 1_000_000, 3);
        let ratio = counts[0] as f64 / counts[1] as f64;
        let expected = 2f64.powf(DEFAULT_ZIPFIAN_CONSTANT);
        assert!(
            (ratio - expected).abs() < 0.25,
            "ratio={ratio}, expected≈{expected}"
        );
    }

    #[test]
    fn higher_theta_is_more_skewed() {
        let mut mild = ZipfianGenerator::with_constant(1000, 0.5);
        let mut hot = ZipfianGenerator::with_constant(1000, 0.99);
        let mut rng1 = SimRng::new(4);
        let mut rng2 = SimRng::new(4);
        let n = 200_000;
        let mild_top = (0..n).filter(|_| mild.next(&mut rng1) == 0).count();
        let hot_top = (0..n).filter(|_| hot.next(&mut rng2) == 0).count();
        assert!(hot_top > mild_top * 2);
    }

    #[test]
    fn growth_extends_the_range() {
        let mut g = ZipfianGenerator::new(10);
        let mut rng = SimRng::new(5);
        g.set_item_count(1000);
        assert_eq!(g.item_count(), 1000);
        let seen_large = (0..100_000).any(|_| g.next(&mut rng) >= 10);
        assert!(seen_large, "growth must make new items reachable");
    }

    #[test]
    #[should_panic(expected = "grow")]
    fn shrinking_is_rejected() {
        let mut g = ZipfianGenerator::new(10);
        g.set_item_count(5);
    }

    #[test]
    fn key_density_contract_holds() {
        let mut g = ZipfianGenerator::with_constant(300, 0.7);
        let mut rng = SimRng::new(13);
        for _ in 0..50_000 {
            assert!(g.next(&mut rng) < 300);
        }
        g.set_item_count(5_000);
        for _ in 0..50_000 {
            assert!(g.next(&mut rng) < 5_000);
        }
    }

    #[test]
    fn deterministic_with_same_seed() {
        let mut a = ZipfianGenerator::new(500);
        let mut b = ZipfianGenerator::new(500);
        let mut r1 = SimRng::new(9);
        let mut r2 = SimRng::new(9);
        for _ in 0..1000 {
            assert_eq!(a.next(&mut r1), b.next(&mut r2));
        }
    }
}
