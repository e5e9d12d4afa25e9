//! Scrambled zipfian selection: zipfian popularity spread uniformly over the
//! key space by hashing the zipfian rank (YCSB's default request
//! distribution for workloads A and B).

use super::zipfian::{ZipfianGenerator, DEFAULT_ZIPFIAN_CONSTANT};
use crate::hashing::fnv1a_64;
use concord_sim::SimRng;

/// Like YCSB's `ScrambledZipfianGenerator`: draws a zipfian rank from a large
/// internal item space and hashes it into `[0, item_count)`, so the hot items
/// are scattered across the key space rather than clustered at low ids.
#[derive(Debug, Clone)]
pub struct ScrambledZipfianGenerator {
    items: u64,
    inner: ZipfianGenerator,
}

/// YCSB uses a fixed large internal item space so that the zeta constant can
/// be precomputed; we do the same (10 billion in YCSB; a smaller space keeps
/// construction instant while preserving the distribution shape over any
/// realistic record count).
const INTERNAL_ITEM_COUNT: u64 = 100_000_000;

/// The bits of ζ([`INTERNAL_ITEM_COUNT`], 0.99), the sum the inner
/// generator would otherwise compute on every construction: 10^6 `powf`
/// calls, the whole of a workload's set-up. A test recomputes it.
const INTERNAL_ZETA_BITS: u64 = 0x4034_cd8c_da43_9e6d;

impl ScrambledZipfianGenerator {
    /// Create a generator over `item_count` items with θ = 0.99.
    pub fn new(item_count: u64) -> Self {
        assert!(item_count > 0);
        let inner = if item_count <= INTERNAL_ITEM_COUNT {
            let zetan = f64::from_bits(INTERNAL_ZETA_BITS);
            ZipfianGenerator::with_zeta(INTERNAL_ITEM_COUNT, DEFAULT_ZIPFIAN_CONSTANT, zetan)
        } else {
            ZipfianGenerator::new(item_count)
        };
        ScrambledZipfianGenerator {
            items: item_count,
            inner,
        }
    }

    /// Number of items addressed.
    pub fn item_count(&self) -> u64 {
        self.items
    }

    /// Grow the addressed item space.
    pub fn set_item_count(&mut self, item_count: u64) {
        assert!(item_count > 0);
        self.items = item_count;
        if item_count > INTERNAL_ITEM_COUNT {
            self.inner.set_item_count(item_count);
        }
    }

    /// Draw the next item index.
    pub fn next(&mut self, rng: &mut SimRng) -> u64 {
        let rank = self.inner.next(rng);
        super::assert_dense(
            "ScrambledZipfianGenerator",
            fnv1a_64(rank) % self.items,
            self.items,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_internal_zeta_is_the_computed_sum() {
        let zetan = ZipfianGenerator::zeta(INTERNAL_ITEM_COUNT, DEFAULT_ZIPFIAN_CONSTANT);
        assert_eq!(zetan.to_bits(), INTERNAL_ZETA_BITS, "ζ = {zetan}");
    }

    #[test]
    fn item_counts_past_the_internal_space_compute_their_zeta() {
        let big = ScrambledZipfianGenerator::new(INTERNAL_ITEM_COUNT + 1);
        assert_eq!(big.inner.item_count(), INTERNAL_ITEM_COUNT + 1);
        let small = ScrambledZipfianGenerator::new(10);
        assert_eq!(small.inner.item_count(), INTERNAL_ITEM_COUNT);
    }

    #[test]
    fn values_in_range() {
        let mut g = ScrambledZipfianGenerator::new(1_000);
        let mut rng = SimRng::new(1);
        for _ in 0..50_000 {
            assert!(g.next(&mut rng) < 1_000);
        }
    }

    #[test]
    fn key_density_contract_holds() {
        // Including growth: scattered hot ranks must keep landing inside the
        // (possibly grown) dense key space.
        let mut g = ScrambledZipfianGenerator::new(77);
        let mut rng = SimRng::new(5);
        for _ in 0..30_000 {
            assert!(g.next(&mut rng) < 77);
        }
        g.set_item_count(1_234);
        for _ in 0..30_000 {
            assert!(g.next(&mut rng) < 1_234);
        }
    }

    #[test]
    fn hot_keys_are_scattered_not_clustered() {
        let mut g = ScrambledZipfianGenerator::new(10_000);
        let mut rng = SimRng::new(2);
        let mut counts = vec![0usize; 10_000];
        for _ in 0..500_000 {
            counts[g.next(&mut rng) as usize] += 1;
        }
        // Find the ten hottest keys; they should NOT all be in the low id
        // range (that is the whole point of scrambling).
        let mut idx: Vec<usize> = (0..counts.len()).collect();
        idx.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
        let top10 = &idx[..10];
        assert!(
            top10.iter().any(|&i| i > 1_000),
            "hot keys must be spread over the key space: {top10:?}"
        );
        // Still heavily skewed: the hottest key gets far more than the mean.
        let mean = 500_000.0 / 10_000.0;
        assert!(counts[idx[0]] as f64 > mean * 20.0);
    }

    #[test]
    fn skew_survives_scrambling() {
        let mut g = ScrambledZipfianGenerator::new(1_000);
        let mut rng = SimRng::new(3);
        let mut counts = vec![0usize; 1_000];
        let n = 300_000;
        for _ in 0..n {
            counts[g.next(&mut rng) as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top_10pct: usize = counts[..100].iter().sum();
        // Under a uniform distribution the top 10% of keys would absorb 10%
        // of accesses; the scrambled zipfian concentrates the hot ranks of a
        // 10⁸-item zipf onto these keys, so well over a quarter of all
        // accesses land there (the exact value depends on the internal item
        // space, ≈33% for 10⁸ items at θ = 0.99).
        assert!(
            top_10pct as f64 > 0.25 * n as f64,
            "top 10% of keys should absorb far more than a uniform share, got {}",
            top_10pct as f64 / n as f64
        );
    }

    #[test]
    fn growth_is_accepted() {
        let mut g = ScrambledZipfianGenerator::new(10);
        g.set_item_count(20);
        assert_eq!(g.item_count(), 20);
        let mut rng = SimRng::new(4);
        for _ in 0..1000 {
            assert!(g.next(&mut rng) < 20);
        }
    }
}
