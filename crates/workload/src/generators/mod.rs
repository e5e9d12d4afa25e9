//! Key- and value-selection generators, modeled after YCSB's generator
//! package.
//!
//! Every generator produces `u64` item indices in `[0, item_count)` (or, for
//! [`DiscreteGenerator`], an arbitrary labeled choice). The distributions
//! implemented here are the ones YCSB ships and the paper's workloads use:
//!
//! | Generator | YCSB equivalent | Typical use |
//! |---|---|---|
//! | [`UniformGenerator`] | `UniformLongGenerator` | workload C-style uniform reads |
//! | [`ZipfianGenerator`] | `ZipfianGenerator` | skewed popularity (θ = 0.99) |
//! | [`ScrambledZipfianGenerator`] | `ScrambledZipfianGenerator` | skewed but spread over the key space (default for A/B) |
//! | [`LatestGenerator`] | `SkewedLatestGenerator` | workload D: most-recent records are hottest |
//! | [`HotspotGenerator`] | `HotspotIntegerGenerator` | x% of ops on y% of keys |
//! | [`ExponentialGenerator`] | `ExponentialGenerator` | workload E insert-order skew |
//! | [`SequentialGenerator`] | `SequentialGenerator` | data loading |
//! | [`CounterGenerator`] | `CounterGenerator` | insert key allocation |
//! | [`DiscreteGenerator`] | `DiscreteGenerator` | choosing the next operation type |
//!
//! ## The key-density contract
//!
//! Record ids are **dense**: every key generator yields ids strictly below
//! its configured item count, and inserts allocate the next contiguous id
//! (growing the count). The cluster's per-key state — the replica store and
//! the staleness oracle — is direct-indexed on that
//! contract (paged tables instead of hash maps), so a generator silently
//! escaping its range would quietly grow sparse tables instead of being a
//! distribution bug you can see. Every generator therefore **asserts** the
//! contract on each draw and panics loudly on violation ([`CounterGenerator`]
//! is exempt: it *allocates* new ids, which by construction extend the dense
//! space by one).

mod discrete;
mod exponential;
mod hotspot;
mod latest;
mod scrambled;
mod sequential;
mod uniform;
mod zipfian;

pub use discrete::DiscreteGenerator;
pub use exponential::ExponentialGenerator;
pub use hotspot::HotspotGenerator;
pub use latest::LatestGenerator;
pub use scrambled::ScrambledZipfianGenerator;
pub use sequential::{CounterGenerator, SequentialGenerator};
pub use uniform::UniformGenerator;
pub use zipfian::ZipfianGenerator;

use concord_sim::SimRng;

/// Enforce the key-density contract: a generated record id must lie in
/// `[0, item_count)`. Returns the id so call sites stay expression-shaped.
///
/// # Panics
/// Panics (loudly, with the offending generator named) when the id escapes
/// the dense key space — the direct-indexed per-key tables downstream would
/// otherwise silently grow sparse.
#[inline]
pub(crate) fn assert_dense(generator: &str, id: u64, item_count: u64) -> u64 {
    assert!(
        id < item_count,
        "{generator} violated the key-density contract: record id {id} is outside \
         [0, {item_count}) — dense record ids are what the direct-indexed replica \
         store and staleness oracle rely on"
    );
    id
}

/// A generator of item indices.
///
/// Generators are deliberately decoupled from the RNG so that a single
/// deterministic RNG stream can drive several generators (as YCSB does with
/// its thread-local `Random`).
pub trait ItemGenerator {
    /// Draw the next item index.
    fn next(&mut self, rng: &mut SimRng) -> u64;

    /// The most recently returned value, if any. Used by read-modify-write
    /// style compositions; mirrors YCSB's `lastValue()`.
    fn last(&self) -> Option<u64>;
}

/// The request-distribution choices exposed in workload configuration files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RequestDistribution {
    /// Every record equally likely.
    Uniform,
    /// Zipf-distributed popularity, scrambled across the key space.
    Zipfian,
    /// Most recently inserted records are the most popular.
    Latest,
    /// A hot set of records receives a configurable share of requests.
    Hotspot,
    /// Exponentially decaying popularity by record index.
    Exponential,
    /// Records accessed in sequential order (scans / loads).
    Sequential,
}

impl RequestDistribution {
    /// Instantiate the generator for `item_count` records.
    pub fn build(self, item_count: u64) -> Box<dyn ItemGenerator + Send> {
        match self {
            RequestDistribution::Uniform => Box::new(UniformGenerator::new(item_count)),
            RequestDistribution::Zipfian => Box::new(ScrambledZipfianGenerator::new(item_count)),
            RequestDistribution::Latest => Box::new(LatestGenerator::new(item_count)),
            RequestDistribution::Hotspot => Box::new(HotspotGenerator::new(item_count, 0.2, 0.8)),
            RequestDistribution::Exponential => {
                Box::new(ExponentialGenerator::percentile(item_count, 0.95, 0.8571))
            }
            RequestDistribution::Sequential => Box::new(SequentialGenerator::new(item_count)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_distribution_builds_all_variants() {
        let mut rng = SimRng::new(1);
        for dist in [
            RequestDistribution::Uniform,
            RequestDistribution::Zipfian,
            RequestDistribution::Latest,
            RequestDistribution::Hotspot,
            RequestDistribution::Exponential,
            RequestDistribution::Sequential,
        ] {
            let mut g = dist.build(1000);
            for _ in 0..200 {
                assert!(g.next(&mut rng) < 1000, "{dist:?} out of range");
            }
            assert!(g.last().is_some());
        }
    }
}
