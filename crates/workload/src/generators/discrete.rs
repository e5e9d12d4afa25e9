//! Weighted discrete choice (YCSB's `DiscreteGenerator`), used to pick the
//! next operation type according to the workload's read/update/insert/scan
//! proportions.

use concord_sim::SimRng;

/// Chooses among labeled values with the given (not necessarily normalized)
/// weights.
#[derive(Debug, Clone)]
pub struct DiscreteGenerator<T: Clone> {
    values: Vec<(T, f64)>,
    total: f64,
}

impl<T: Clone> Default for DiscreteGenerator<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> DiscreteGenerator<T> {
    /// Create an empty generator; add choices with [`add`](Self::add).
    pub fn new() -> Self {
        DiscreteGenerator {
            values: Vec::new(),
            total: 0.0,
        }
    }

    /// Add `value` with relative `weight` (non-negative). Zero-weight entries
    /// are accepted but never selected.
    pub fn add(&mut self, value: T, weight: f64) -> &mut Self {
        assert!(weight >= 0.0, "weights must be non-negative");
        self.total += weight;
        self.values.push((value, weight));
        self
    }

    /// Number of registered choices.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no choices are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Draw the next value.
    ///
    /// # Panics
    /// Panics if no choice with positive weight was registered.
    pub fn next(&mut self, rng: &mut SimRng) -> T {
        assert!(
            self.total > 0.0,
            "DiscreteGenerator needs at least one positive weight"
        );
        let mut x = rng.next_f64() * self.total;
        for (value, weight) in &self.values {
            if x < *weight {
                return value.clone();
            }
            x -= weight;
        }
        // Floating-point edge: fall back to the last positively weighted entry.
        self.values
            .iter()
            .rev()
            .find(|(_, w)| *w > 0.0)
            .map(|(v, _)| v.clone())
            .expect("at least one positive weight")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportions_are_respected() {
        let mut g = DiscreteGenerator::new();
        g.add("read", 0.95).add("update", 0.05);
        let mut rng = SimRng::new(1);
        let n = 100_000;
        let reads = (0..n).filter(|_| g.next(&mut rng) == "read").count();
        let share = reads as f64 / n as f64;
        assert!((share - 0.95).abs() < 0.01, "read share={share}");
    }

    #[test]
    fn zero_weight_never_selected() {
        let mut g = DiscreteGenerator::new();
        g.add("never", 0.0).add("always", 1.0);
        let mut rng = SimRng::new(2);
        for _ in 0..10_000 {
            assert_eq!(g.next(&mut rng), "always");
        }
    }

    #[test]
    fn weights_need_not_be_normalized() {
        let mut g = DiscreteGenerator::new();
        g.add(1u8, 3.0).add(2u8, 1.0);
        let mut rng = SimRng::new(3);
        let n = 100_000;
        let ones = (0..n).filter(|_| g.next(&mut rng) == 1).count();
        assert!((ones as f64 / n as f64 - 0.75).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn empty_generator_panics_on_next() {
        let mut g: DiscreteGenerator<u8> = DiscreteGenerator::new();
        let mut rng = SimRng::new(5);
        g.next(&mut rng);
    }
}
