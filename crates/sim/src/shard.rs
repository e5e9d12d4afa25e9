//! Synchronization metrics of the conservative-PDES sharded engine.
//!
//! The engine lives in `concord-cluster`: each shard owns a plain
//! [`EventQueue`](crate::EventQueue) lane, a lookahead window's shard
//! batches execute concurrently on the work-stealing pool, and cross-shard
//! effects are staged per shard and applied when the window closes, in
//! fixed shard order — every close also classifies the window's reads and
//! publishes its outputs. What lives here is the counter block the engine
//! reports, because it is substrate-level vocabulary: windows, staging,
//! violations and how parallel the window dispatch actually was.
//!
//! ## Determinism contract
//!
//! * `shards = 1` bypasses window bookkeeping entirely — the single lane
//!   is popped directly, so the one-shard engine's counters stay zero.
//! * For a fixed shard count `> 1`, every counter (and the simulation
//!   output it summarizes) is a pure function of the seed: handler batches
//!   touch only shard-owned state, and window closes run serially in shard
//!   order, so the worker-thread count never changes a value. Outputs
//!   differ *between* shard counts (per-shard RNG streams, window
//!   clamping), which is why golden digests are captured per shard count.

/// Counters describing how a sharded run synchronized, and how parallel it
/// was. All zeros for a serial (`shards = 1`) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardMetrics {
    /// Lookahead windows executed — the one close counter: every window
    /// closes exactly once. Each window anchors at the earliest pending key
    /// and extends by the lookahead bound.
    pub windows: u64,
    /// Cross-shard events staged in a per-shard outbox and delivered at a
    /// window barrier.
    pub staged: u64,
    /// Staged events whose timestamp fell *inside* the window being sealed
    /// (a lookahead violation): delivery was clamped to the window
    /// boundary. A nonzero count means the configured lookahead bound was
    /// optimistic for the traffic actually observed (a zero-infimum delay
    /// distribution).
    pub violations: u64,
    /// Windows in which at least two shards had non-empty handler batches —
    /// windows where the parallel dispatch had actual concurrency to
    /// exploit. Depends only on the shard count, never the thread count.
    pub parallel_batches: u64,
    /// Largest number of events any single shard handled inside one
    /// window — the granularity knob for judging dispatch overhead against
    /// useful work per batch.
    pub max_batch_len: u64,
    /// Windows whose start cursor jumped past quiet simulated time: the
    /// global next-event floor was beyond the previous window's boundary,
    /// so the engine fast-forwarded instead of marching barrier-by-barrier
    /// through empty windows.
    pub fast_forwards: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_zero() {
        let m = ShardMetrics::default();
        assert_eq!(
            (m.windows, m.staged, m.violations),
            (0, 0, 0),
            "serial runs must report untouched sync metrics"
        );
        assert_eq!(
            (m.parallel_batches, m.max_batch_len, m.fast_forwards),
            (0, 0, 0)
        );
    }
}
