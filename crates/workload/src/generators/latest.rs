//! "Latest" selection: the most recently inserted items are the most
//! popular (YCSB's `SkewedLatestGenerator`, used by workload D).

use super::zipfian::ZipfianGenerator;
use concord_sim::SimRng;

/// Draws a zipfian rank and subtracts it from the newest item id, so item
/// `newest` is the hottest, `newest - 1` the second hottest, and so on.
#[derive(Debug, Clone)]
pub struct LatestGenerator {
    newest: u64,
    zipf: ZipfianGenerator,
}

impl LatestGenerator {
    /// Create a generator where items `0..item_count` already exist.
    pub fn new(item_count: u64) -> Self {
        assert!(item_count > 0);
        LatestGenerator {
            newest: item_count - 1,
            zipf: ZipfianGenerator::new(item_count),
        }
    }

    /// Record that a new item was inserted (it becomes the hottest).
    pub fn record_insert(&mut self, item: u64) {
        if item > self.newest {
            self.newest = item;
        }
    }

    /// The current hottest (most recently inserted) item id.
    pub fn newest(&self) -> u64 {
        self.newest
    }

    /// Draw the next item index.
    pub fn next(&mut self, rng: &mut SimRng) -> u64 {
        let count = self.newest + 1;
        let rank = self.zipf.next_with_count(rng, count);
        super::assert_dense("LatestGenerator", self.newest - rank, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_in_range() {
        let mut g = LatestGenerator::new(1000);
        let mut rng = SimRng::new(1);
        for _ in 0..50_000 {
            assert!(g.next(&mut rng) < 1000);
        }
    }

    #[test]
    fn key_density_contract_holds() {
        let mut g = LatestGenerator::new(50);
        let mut rng = SimRng::new(11);
        for _ in 0..20_000 {
            assert!(g.next(&mut rng) < 50);
        }
        g.record_insert(50);
        g.record_insert(51);
        for _ in 0..20_000 {
            assert!(g.next(&mut rng) < 52);
        }
    }

    #[test]
    fn newest_items_are_hottest() {
        let mut g = LatestGenerator::new(1000);
        let mut rng = SimRng::new(2);
        let mut counts = vec![0usize; 1000];
        for _ in 0..300_000 {
            counts[g.next(&mut rng) as usize] += 1;
        }
        assert!(counts[999] > counts[500]);
        assert!(counts[999] > counts[0]);
        assert_eq!(
            counts
                .iter()
                .enumerate()
                .max_by_key(|(_, c)| **c)
                .unwrap()
                .0,
            999
        );
    }

    #[test]
    fn inserts_shift_the_hot_spot() {
        let mut g = LatestGenerator::new(100);
        let mut rng = SimRng::new(3);
        for i in 100..200 {
            g.record_insert(i);
        }
        assert_eq!(g.newest(), 199);
        let mut counts = vec![0usize; 200];
        for _ in 0..200_000 {
            counts[g.next(&mut rng) as usize] += 1;
        }
        assert_eq!(
            counts
                .iter()
                .enumerate()
                .max_by_key(|(_, c)| **c)
                .unwrap()
                .0,
            199,
            "hottest item must follow the insertion frontier"
        );
    }

    #[test]
    fn stale_insert_does_not_regress() {
        let mut g = LatestGenerator::new(50);
        g.record_insert(10); // older than the current newest
        assert_eq!(g.newest(), 49);
    }
}
