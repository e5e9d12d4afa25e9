//! Uniform item selection.

use concord_sim::SimRng;

/// Selects every item in `[0, item_count)` with equal probability.
#[derive(Debug, Clone)]
pub struct UniformGenerator {
    item_count: u64,
}

impl UniformGenerator {
    /// Create a generator over `item_count` items (must be non-zero).
    pub fn new(item_count: u64) -> Self {
        assert!(item_count > 0, "item_count must be positive");
        UniformGenerator { item_count }
    }

    /// Grow the item space (new items become selectable immediately).
    pub fn set_item_count(&mut self, item_count: u64) {
        assert!(item_count > 0);
        self.item_count = item_count;
    }

    /// Draw the next item index.
    pub fn next(&mut self, rng: &mut SimRng) -> u64 {
        super::assert_dense(
            "UniformGenerator",
            rng.next_bounded(self.item_count),
            self.item_count,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_in_range() {
        let mut g = UniformGenerator::new(100);
        let mut rng = SimRng::new(1);
        for _ in 0..10_000 {
            assert!(g.next(&mut rng) < 100);
        }
    }

    #[test]
    fn roughly_uniform_frequencies() {
        let mut g = UniformGenerator::new(10);
        let mut rng = SimRng::new(2);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[g.next(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 1_000.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_items_rejected() {
        UniformGenerator::new(0);
    }

    #[test]
    fn key_density_contract_holds() {
        // Dense-id contract: every draw stays below the configured count,
        // including right after the space grows.
        let mut g = UniformGenerator::new(17);
        let mut rng = SimRng::new(9);
        for _ in 0..20_000 {
            assert!(g.next(&mut rng) < 17);
        }
        g.set_item_count(1_000);
        for _ in 0..20_000 {
            assert!(g.next(&mut rng) < 1_000);
        }
    }
}
