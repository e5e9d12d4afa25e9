//! Cluster-wide metering.
//!
//! Everything the cost model (`concord-cost`) and the experiment reports need
//! is metered here: operation counts and latencies, ground-truth stale reads,
//! network bytes per link class (the paper's network-cost component), and
//! storage I/O (the paper's storage-cost component).

use crate::types::OpKind;
use concord_monitor::LatencyHistogram;
use concord_sim::{LinkClass, SimDuration};
use serde::{Deserialize, Serialize};

/// Streaming latency statistics: the log-bucketed histogram from
/// `concord-monitor` recorded in microseconds.
///
/// This replaced a 64 Ki-sample reservoir: memory is bounded by the fixed
/// bucket array regardless of run length, recording is O(1) with no RNG
/// draw, the mean is exact (integer microsecond sum), and quantiles read the
/// bucket counts directly instead of sorting a sample vector on every call
/// (≈3% bounded relative error, same as the monitor's reporting path).
/// When validating the streaming histogram's error bound matters more than
/// memory (fault-scenario tail latencies), the stats can additionally keep
/// every raw sample behind an opt-in flag ([`LatencyStats::with_exact`]):
/// [`LatencyStats::exact_quantile_ms`] then computes true order statistics
/// to compare against [`LatencyStats::quantile_ms`].
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    histogram: LatencyHistogram,
    /// Raw microsecond samples, kept only when exact recording is enabled.
    exact: Option<Vec<u64>>,
}

impl LatencyStats {
    /// Empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty statistics with the exact-sample recorder enabled: every
    /// recorded latency is additionally kept verbatim, so
    /// [`LatencyStats::exact_quantile_ms`] can compute true order
    /// statistics. Off by default — it costs 8 bytes per sample, which the
    /// streaming histogram exists to avoid.
    pub fn with_exact() -> Self {
        LatencyStats {
            histogram: LatencyHistogram::new(),
            exact: Some(Vec::new()),
        }
    }

    /// Enable the exact-sample recorder (samples recorded before the call
    /// are not recoverable; enable before the run starts).
    pub fn enable_exact(&mut self) {
        if self.exact.is_none() {
            self.exact = Some(Vec::new());
        }
    }

    /// Whether the exact-sample recorder is enabled.
    pub fn exact_enabled(&self) -> bool {
        self.exact.is_some()
    }

    /// Record a latency.
    pub fn record(&mut self, latency: SimDuration) {
        self.histogram.record(latency.as_micros());
        if let Some(samples) = &mut self.exact {
            samples.push(latency.as_micros());
        }
    }

    /// Number of recorded latencies.
    pub fn count(&self) -> u64 {
        self.histogram.count()
    }

    /// Mean latency in milliseconds (exact).
    pub fn mean_ms(&self) -> f64 {
        self.histogram.mean() / 1e3
    }

    /// Approximate `q`-quantile in milliseconds (`None` if empty).
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        self.histogram.quantile(q).map(|us| us as f64 / 1e3)
    }

    /// Largest recorded latency in milliseconds (exact).
    pub fn max_ms(&self) -> f64 {
        self.histogram.max().unwrap_or(0) as f64 / 1e3
    }

    /// Exact `q`-quantile in milliseconds from the raw samples (linear
    /// interpolation between closest ranks). Returns `None` if the
    /// exact-sample recorder is disabled or no samples were recorded —
    /// callers validating the histogram bound should treat `None` as a
    /// configuration error, not as "no difference". Sorts the samples on
    /// every call; query several quantiles through
    /// [`LatencyStats::exact_quantiles_ms`] to sort once.
    pub fn exact_quantile_ms(&self, q: f64) -> Option<f64> {
        self.exact_quantiles_ms(&[q]).map(|v| v[0])
    }

    /// Exact quantiles in milliseconds for every `q` in `qs`, sharing one
    /// sort of the raw samples (see [`LatencyStats::exact_quantile_ms`]).
    pub fn exact_quantiles_ms(&self, qs: &[f64]) -> Option<Vec<f64>> {
        let samples = self.exact.as_ref()?;
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = samples.iter().map(|&us| us as f64).collect();
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN in micros"));
        Some(
            qs.iter()
                .map(|&q| concord_sim::percentile_sorted(&sorted, q) / 1e3)
                .collect(),
        )
    }

    /// The underlying microsecond histogram.
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.histogram
    }

    /// Fold `other`'s samples into `self` — the parallel sharded engine's
    /// barrier aggregation (per-shard stats folded in fixed shard order).
    /// Histograms add bucket-wise; exact sample vectors concatenate in fold
    /// order, so the merged order statistics are a pure function of the
    /// shard count.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.histogram.merge(&other.histogram);
        if let Some(theirs) = &other.exact {
            self.exact
                .get_or_insert_with(Vec::new)
                .extend_from_slice(theirs);
        }
    }

    /// Number of raw samples held by the exact recorder (0 when disabled).
    pub fn exact_len(&self) -> usize {
        self.exact.as_ref().map_or(0, Vec::len)
    }

    /// Reserve room for `additional` raw samples ahead of a chain of
    /// [`LatencyStats::merge`] calls, so a multi-source fold grows the
    /// exact vector once instead of reallocating per source. A no-op when
    /// `additional` is zero (in particular it never materializes the
    /// recorder for all-histogram merges).
    pub fn reserve_exact_samples(&mut self, additional: usize) {
        if additional == 0 {
            return;
        }
        self.exact.get_or_insert_with(Vec::new).reserve(additional);
    }
}

/// Bytes transferred per network link class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficBytes {
    /// Same-node (loopback) bytes — free in every pricing model.
    pub local: u64,
    /// Bytes between nodes of the same datacenter.
    pub intra_dc: u64,
    /// Bytes between datacenters of the same region (billed inter-AZ on EC2).
    pub inter_dc: u64,
    /// Bytes between regions (billed as regional transfer / egress).
    pub inter_region: u64,
}

impl TrafficBytes {
    /// Add `bytes` on a link of class `class`.
    pub fn add(&mut self, class: LinkClass, bytes: u64) {
        match class {
            LinkClass::Local => self.local += bytes,
            LinkClass::IntraDc => self.intra_dc += bytes,
            LinkClass::InterDc => self.inter_dc += bytes,
            LinkClass::InterRegion => self.inter_region += bytes,
        }
    }

    /// Total bytes that crossed a datacenter boundary (inter-DC + inter-region).
    pub fn cross_dc_total(&self) -> u64 {
        self.inter_dc + self.inter_region
    }

    /// Total bytes over all link classes.
    pub fn total(&self) -> u64 {
        self.local + self.intra_dc + self.inter_dc + self.inter_region
    }

    /// Add `other`'s per-class byte counts into `self`.
    pub fn merge(&mut self, other: &TrafficBytes) {
        self.local += other.local;
        self.intra_dc += other.intra_dc;
        self.inter_dc += other.inter_dc;
        self.inter_region += other.inter_region;
    }
}

/// Aggregate metrics of a cluster run.
#[derive(Debug, Clone, Default)]
pub struct ClusterMetrics {
    /// Completed read operations.
    pub reads_completed: u64,
    /// Completed write operations.
    pub writes_completed: u64,
    /// Operations that timed out before meeting their consistency level.
    pub timeouts: u64,
    /// Ground-truth stale reads (mirrors the oracle's counter).
    pub stale_reads: u64,
    /// Read latencies.
    pub read_latency: LatencyStats,
    /// Write latencies.
    pub write_latency: LatencyStats,
    /// Time for writes to reach *all* replicas.
    pub propagation: LatencyStats,
    /// Network traffic per link class.
    pub traffic: TrafficBytes,
    /// Replica-level storage read operations.
    pub storage_read_ops: u64,
    /// Replica-level storage write operations.
    pub storage_write_ops: u64,
    /// Replica messages sent (requests + responses + propagation).
    pub messages: u64,
    /// Sum over reads of the number of replicas contacted.
    pub read_replicas_contacted: u64,
    /// Sum over writes of the number of replica acks awaited.
    pub write_acks_awaited: u64,
    /// Timed-out attempts that were re-issued (`retry_on_timeout` budget).
    pub retries: u64,
    /// Messages dropped in transit by a datacenter partition.
    pub messages_lost: u64,
    /// Hints queued by coordinators for down replicas (hinted handoff).
    pub hints_queued: u64,
    /// Hints replayed to their destination after it came back up.
    pub hints_replayed: u64,
    /// Hints dropped because the destination's hint queue was full (left
    /// for anti-entropy to catch).
    pub hints_dropped: u64,
    /// Per-page version summaries compared by anti-entropy sweeps and
    /// recovery migration.
    pub repair_pages_compared: u64,
    /// Records streamed between replicas to reconcile divergent pages
    /// (hint replays not included — those are counted in `hints_replayed`).
    pub repair_records_streamed: u64,
    /// Network bytes attributable to the repair plane (summaries, streamed
    /// records, hint replays), by link class. Also included in `traffic`,
    /// so the bill prices repair bytes like any other transfer; this meter
    /// breaks the repair share out.
    pub repair_traffic: TrafficBytes,
    /// Speculative duplicate read requests issued after `hedge_delay`
    /// (hedged reads; resilience layer).
    pub hedged_requests: u64,
    /// Reads whose completing response came from the hedge target — the
    /// cases where the speculative request actually cut the tail.
    pub hedge_wins: u64,
    /// Timed-out attempts re-issued after an exponential backoff delay
    /// (subset of `retries`; only counted when backoff is enabled).
    pub backoff_retries: u64,
    /// Per-node circuit breakers tripped open by consecutive timeout
    /// strikes (`ReplicaSelection::Dynamic` only).
    pub breaker_opens: u64,
    /// Network bytes attributable to hedged read requests, by link class.
    /// Also included in `traffic`, so the bill prices hedge bytes like any
    /// other transfer; this meter breaks the tail-tolerance share out.
    pub hedge_traffic: TrafficBytes,
}

impl ClusterMetrics {
    /// New empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed client operation.
    pub fn record_completion(&mut self, kind: OpKind, latency: SimDuration, stale: bool) {
        match kind {
            OpKind::Read => {
                self.reads_completed += 1;
                self.read_latency.record(latency);
                if stale {
                    self.stale_reads += 1;
                }
            }
            OpKind::Write => {
                self.writes_completed += 1;
                self.write_latency.record(latency);
            }
        }
    }

    /// Total completed operations.
    pub fn ops_completed(&self) -> u64 {
        self.reads_completed + self.writes_completed
    }

    /// Ground-truth stale-read rate.
    pub fn stale_read_rate(&self) -> f64 {
        if self.reads_completed == 0 {
            0.0
        } else {
            self.stale_reads as f64 / self.reads_completed as f64
        }
    }

    /// Throughput in operations per second over a run of length `makespan`.
    pub fn throughput(&self, makespan: SimDuration) -> f64 {
        let secs = makespan.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.ops_completed() as f64 / secs
        }
    }

    /// Mean number of replicas contacted per read.
    pub fn mean_read_fanout(&self) -> f64 {
        if self.reads_completed == 0 {
            0.0
        } else {
            self.read_replicas_contacted as f64 / self.reads_completed as f64
        }
    }

    /// Fold `other` into `self`: counters add, latency statistics merge
    /// (see [`LatencyStats::merge`]). The parallel sharded engine keeps one
    /// `ClusterMetrics` per shard plus one for the control plane and folds
    /// them in fixed order (shard 0..n, then control) whenever an aggregate
    /// view is requested, so the merged report is bit-stable at any
    /// worker-thread count.
    pub fn merge(&mut self, other: &ClusterMetrics) {
        self.reads_completed += other.reads_completed;
        self.writes_completed += other.writes_completed;
        self.timeouts += other.timeouts;
        self.stale_reads += other.stale_reads;
        self.read_latency.merge(&other.read_latency);
        self.write_latency.merge(&other.write_latency);
        self.propagation.merge(&other.propagation);
        self.traffic.merge(&other.traffic);
        self.storage_read_ops += other.storage_read_ops;
        self.storage_write_ops += other.storage_write_ops;
        self.messages += other.messages;
        self.read_replicas_contacted += other.read_replicas_contacted;
        self.write_acks_awaited += other.write_acks_awaited;
        self.retries += other.retries;
        self.messages_lost += other.messages_lost;
        self.hints_queued += other.hints_queued;
        self.hints_replayed += other.hints_replayed;
        self.hints_dropped += other.hints_dropped;
        self.repair_pages_compared += other.repair_pages_compared;
        self.repair_records_streamed += other.repair_records_streamed;
        self.repair_traffic.merge(&other.repair_traffic);
        self.hedged_requests += other.hedged_requests;
        self.hedge_wins += other.hedge_wins;
        self.backoff_retries += other.backoff_retries;
        self.breaker_opens += other.breaker_opens;
        self.hedge_traffic.merge(&other.hedge_traffic);
    }

    /// Merge a fixed-order chain of sinks with pre-sized sample buffers:
    /// each exact-sample vector reserves the total incoming length up
    /// front, so an S-shard fold does at most one allocation per latency
    /// sink instead of one per `(sink, source)` pair. The merge order —
    /// and therefore the merged order statistics — is exactly the order
    /// of `others`, identical to calling [`ClusterMetrics::merge`] in a
    /// loop.
    pub fn merge_many<'a>(&mut self, others: impl Iterator<Item = &'a ClusterMetrics> + Clone) {
        let (mut reads, mut writes, mut props) = (0usize, 0usize, 0usize);
        for o in others.clone() {
            reads += o.read_latency.exact_len();
            writes += o.write_latency.exact_len();
            props += o.propagation.exact_len();
        }
        self.read_latency.reserve_exact_samples(reads);
        self.write_latency.reserve_exact_samples(writes);
        self.propagation.reserve_exact_samples(props);
        for o in others {
            self.merge(o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_mean_and_quantiles() {
        let mut r = LatencyStats::new();
        for i in 1..=1000u64 {
            r.record(SimDuration::from_millis(i));
        }
        assert_eq!(r.count(), 1000);
        assert!((r.mean_ms() - 500.5).abs() < 1e-9);
        let p50 = r.quantile_ms(0.5).unwrap();
        assert!((p50 - 500.0).abs() < 20.0);
        assert_eq!(r.max_ms(), 1000.0);
    }

    #[test]
    fn reservoir_handles_more_than_capacity() {
        let mut r = LatencyStats::new();
        for i in 0..200_000u64 {
            r.record(SimDuration::from_micros(i % 1000));
        }
        assert_eq!(r.count(), 200_000);
        let p50 = r.quantile_ms(0.5).unwrap();
        assert!((p50 - 0.5).abs() < 0.05, "p50={p50}");
    }

    #[test]
    fn exact_recorder_is_opt_in_and_matches_order_statistics() {
        let mut plain = LatencyStats::new();
        plain.record(SimDuration::from_millis(5));
        assert!(!plain.exact_enabled());
        assert_eq!(plain.exact_quantile_ms(0.5), None);

        let mut exact = LatencyStats::with_exact();
        for i in 1..=1000u64 {
            exact.record(SimDuration::from_millis(i));
        }
        assert!(exact.exact_enabled());
        let p50 = exact.exact_quantile_ms(0.5).unwrap();
        assert!((p50 - 500.5).abs() < 1e-9, "true median, got {p50}");
        let p99 = exact.exact_quantile_ms(0.99).unwrap();
        assert!((p99 - 990.01).abs() < 1e-6, "true p99, got {p99}");
        // The histogram stays within its documented bound of the exact value.
        for q in [0.5, 0.9, 0.95, 0.99] {
            let approx = exact.quantile_ms(q).unwrap();
            let truth = exact.exact_quantile_ms(q).unwrap();
            assert!(
                (approx - truth).abs() <= truth * 0.03 + 1e-3,
                "q={q}: {approx} vs {truth}"
            );
        }
        // The batch form shares one sort and matches the single queries.
        let batch = exact.exact_quantiles_ms(&[0.5, 0.99]).unwrap();
        assert_eq!(batch[0], exact.exact_quantile_ms(0.5).unwrap());
        assert_eq!(batch[1], exact.exact_quantile_ms(0.99).unwrap());
        // Enabling later starts from the enable point.
        let mut late = LatencyStats::new();
        late.record(SimDuration::from_millis(1));
        late.enable_exact();
        late.record(SimDuration::from_millis(3));
        assert_eq!(late.exact_quantile_ms(1.0), Some(3.0));
        assert_eq!(late.count(), 2);
    }

    #[test]
    fn merge_many_matches_sequential_merges() {
        let sink = |seed: u64| {
            let mut m = ClusterMetrics::new();
            m.read_latency.enable_exact();
            for i in 0..50u64 {
                let stale = (seed + i).is_multiple_of(7);
                m.record_completion(
                    OpKind::Read,
                    SimDuration::from_micros(seed * 100 + i),
                    stale,
                );
                m.record_completion(
                    OpKind::Write,
                    SimDuration::from_micros(seed * 50 + i),
                    false,
                );
            }
            m.traffic.add(LinkClass::InterDc, seed * 10);
            m
        };
        let shards = [sink(1), sink(2), sink(3), sink(4)];

        let mut looped = shards[0].clone();
        for s in &shards[1..] {
            looped.merge(s);
        }
        let mut presized = shards[0].clone();
        presized.merge_many(shards[1..].iter());

        assert_eq!(presized.reads_completed, looped.reads_completed);
        assert_eq!(presized.stale_reads, looped.stale_reads);
        assert_eq!(presized.traffic, looped.traffic);
        assert_eq!(
            presized.read_latency.exact_len(),
            looped.read_latency.exact_len()
        );
        // Same merge order ⇒ identical order statistics, exact and binned.
        for q in [0.1, 0.5, 0.99, 1.0] {
            assert_eq!(
                presized.read_latency.exact_quantile_ms(q),
                looped.read_latency.exact_quantile_ms(q),
                "q={q}"
            );
            assert_eq!(
                presized.write_latency.quantile_ms(q),
                looped.write_latency.quantile_ms(q),
                "q={q}"
            );
        }
        // Reserving zero samples must not materialize a disabled recorder.
        let mut plain = LatencyStats::new();
        plain.reserve_exact_samples(0);
        assert!(!plain.exact_enabled());
    }

    #[test]
    fn traffic_accumulates_by_class() {
        let mut t = TrafficBytes::default();
        t.add(LinkClass::IntraDc, 100);
        t.add(LinkClass::InterDc, 50);
        t.add(LinkClass::InterRegion, 25);
        t.add(LinkClass::Local, 10);
        assert_eq!(t.total(), 185);
        assert_eq!(t.cross_dc_total(), 75);
        assert_eq!(t.intra_dc, 100);
    }

    #[test]
    fn completion_recording_updates_counters() {
        let mut m = ClusterMetrics::new();
        m.record_completion(OpKind::Read, SimDuration::from_millis(2), false);
        m.record_completion(OpKind::Read, SimDuration::from_millis(4), true);
        m.record_completion(OpKind::Write, SimDuration::from_millis(8), false);
        assert_eq!(m.ops_completed(), 3);
        assert_eq!(m.reads_completed, 2);
        assert_eq!(m.stale_reads, 1);
        assert!((m.stale_read_rate() - 0.5).abs() < 1e-12);
        assert!((m.read_latency.mean_ms() - 3.0).abs() < 1e-9);
        assert!((m.write_latency.mean_ms() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_uses_makespan() {
        let mut m = ClusterMetrics::new();
        for _ in 0..100 {
            m.record_completion(OpKind::Read, SimDuration::from_millis(1), false);
        }
        assert!((m.throughput(SimDuration::from_secs(10)) - 10.0).abs() < 1e-9);
        assert_eq!(m.throughput(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn fanout_mean() {
        let mut m = ClusterMetrics::new();
        m.reads_completed = 4;
        m.read_replicas_contacted = 10;
        assert!((m.mean_read_fanout() - 2.5).abs() < 1e-12);
    }
}
