//! Hotspot selection: a fraction of the key space (the *hot set*) receives a
//! configurable fraction of the accesses (YCSB's `HotspotIntegerGenerator`).

use super::ItemGenerator;
use concord_sim::SimRng;

/// With probability `hot_opn_fraction` an item is drawn uniformly from the
/// first `hot_set_fraction` of the key space, otherwise uniformly from the
/// remaining cold set.
#[derive(Debug, Clone)]
pub struct HotspotGenerator {
    items: u64,
    hot_items: u64,
    hot_opn_fraction: f64,
    last: Option<u64>,
}

impl HotspotGenerator {
    /// Create a generator where `hot_set_fraction` of the items receive
    /// `hot_opn_fraction` of the operations.
    pub fn new(item_count: u64, hot_set_fraction: f64, hot_opn_fraction: f64) -> Self {
        assert!(item_count > 0);
        assert!((0.0..=1.0).contains(&hot_set_fraction));
        assert!((0.0..=1.0).contains(&hot_opn_fraction));
        let hot_items =
            ((item_count as f64 * hot_set_fraction).round() as u64).clamp(1, item_count);
        HotspotGenerator {
            items: item_count,
            hot_items,
            hot_opn_fraction,
            last: None,
        }
    }

    /// Total number of items.
    pub fn item_count(&self) -> u64 {
        self.items
    }
}

impl ItemGenerator for HotspotGenerator {
    fn next(&mut self, rng: &mut SimRng) -> u64 {
        let v = if rng.gen_bool(self.hot_opn_fraction) || self.hot_items == self.items {
            rng.next_bounded(self.hot_items)
        } else {
            self.hot_items + rng.next_bounded(self.items - self.hot_items)
        };
        let v = super::assert_dense("HotspotGenerator", v, self.items);
        self.last = Some(v);
        v
    }

    fn last(&self) -> Option<u64> {
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_in_range() {
        let mut g = HotspotGenerator::new(1000, 0.2, 0.8);
        let mut rng = SimRng::new(1);
        for _ in 0..10_000 {
            assert!(g.next(&mut rng) < 1000);
        }
    }

    #[test]
    fn key_density_contract_holds() {
        for (frac_hot, frac_opn) in [(0.1, 0.9), (0.5, 0.5), (1.0, 0.2)] {
            let mut g = HotspotGenerator::new(333, frac_hot, frac_opn);
            let mut rng = SimRng::new(17);
            for _ in 0..20_000 {
                assert!(g.next(&mut rng) < 333);
            }
        }
    }

    #[test]
    fn hot_set_receives_configured_share() {
        let mut g = HotspotGenerator::new(1000, 0.2, 0.8);
        let mut rng = SimRng::new(2);
        let n = 200_000;
        let hot_hits = (0..n).filter(|_| g.next(&mut rng) < 200).count();
        let share = hot_hits as f64 / n as f64;
        assert!((share - 0.8).abs() < 0.01, "hot share={share}");
    }

    #[test]
    fn degenerate_all_hot() {
        let mut g = HotspotGenerator::new(10, 1.0, 0.5);
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            assert!(g.next(&mut rng) < 10);
        }
    }
}
