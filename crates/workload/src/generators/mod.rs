//! Key- and value-selection generators, modeled after YCSB's generator
//! package.
//!
//! Every key generator produces `u64` item indices in `[0, item_count)`;
//! [`DiscreteGenerator`] makes an arbitrary labeled choice. These are the
//! YCSB generators the paper's workloads and the standard workloads A–F use;
//! the core workload's key chooser dispatches over the three
//! [`RequestDistribution`]s:
//!
//! | Generator | YCSB equivalent | Typical use |
//! |---|---|---|
//! | [`UniformGenerator`] | `UniformLongGenerator` | `Uniform` requests; scan lengths |
//! | [`ScrambledZipfianGenerator`] | `ScrambledZipfianGenerator` | `Zipfian` requests: skewed (θ = 0.99) but spread over the key space (A, B, C, E, F) |
//! | [`LatestGenerator`] | `SkewedLatestGenerator` | `Latest` requests: most-recent records are hottest (D) |
//! | [`ZipfianGenerator`] | `ZipfianGenerator` | the rank draw under the two above |
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

mod counter;
mod discrete;
mod latest;
mod scrambled;
mod uniform;
mod zipfian;

pub use counter::CounterGenerator;
pub use discrete::DiscreteGenerator;
pub use latest::LatestGenerator;
pub use scrambled::ScrambledZipfianGenerator;
pub use uniform::UniformGenerator;
pub use zipfian::ZipfianGenerator;

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

/// The request-distribution choices exposed in workload configuration files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RequestDistribution {
    /// Every record equally likely.
    Uniform,
    /// Zipf-distributed popularity, scrambled across the key space.
    Zipfian,
    /// Most recently inserted records are the most popular.
    Latest,
}
