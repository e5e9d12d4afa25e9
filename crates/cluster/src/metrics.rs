//! Cluster-wide metering.
//!
//! [`ClusterMetrics`] is the cluster's only meter sink: everything the cost
//! model (`concord-cost`) and the experiment reports count is counted here
//! and nowhere else — operation counts and latencies, ground-truth stale
//! reads and their depths (from the oracle's classification on each
//! [`CompletedOp`]), network bytes per link class (the paper's network-cost
//! component), and storage I/O (the paper's storage-cost component). The one
//! quantity it does not hold is the bytes stored, which only the replica
//! store can compute.

use crate::types::{CompletedOp, OpKind};
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
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    histogram: LatencyHistogram,
}

impl LatencyStats {
    /// Empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a latency.
    pub fn record(&mut self, latency: SimDuration) {
        self.histogram.record(latency.as_micros());
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

    /// The underlying microsecond histogram.
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.histogram
    }

    /// Add `other`'s samples into `self` (histograms add bucket-wise).
    pub fn merge(&mut self, other: &LatencyStats) {
        self.histogram.merge(&other.histogram);
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

    /// Total bytes over all link classes.
    pub fn total(&self) -> u64 {
        self.local + self.intra_dc + self.inter_dc + self.inter_region
    }

    /// Add `other`'s per-class byte counts into `self`. Destructures
    /// `other` exhaustively, so a new class cannot go unmerged.
    pub fn merge(&mut self, other: &TrafficBytes) {
        let TrafficBytes {
            local,
            intra_dc,
            inter_dc,
            inter_region,
        } = other;
        self.local += local;
        self.intra_dc += intra_dc;
        self.inter_dc += inter_dc;
        self.inter_region += inter_region;
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
    /// Completed reads the staleness oracle classified stale.
    pub stale_reads: u64,
    /// Sum over stale reads of how many acknowledged writes each lagged
    /// behind (see [`ClusterMetrics::mean_staleness_depth`]).
    pub staleness_depth_sum: u64,
    /// Read latencies.
    pub read_latency: LatencyStats,
    /// Write latencies.
    pub write_latency: LatencyStats,
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
    /// Key pages compared by anti-entropy sweeps and recovery migration
    /// (one summary message per page and direction).
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
    /// Fault transitions applied (`Cluster::inject` and scheduled faults
    /// that came due).
    pub faults_injected: u64,
}

impl ClusterMetrics {
    /// New empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed client operation: its kind and latency and, for a
    /// read, the oracle's classification carried on it.
    pub fn record_completion(&mut self, op: &CompletedOp) {
        match op.kind {
            OpKind::Read => {
                self.reads_completed += 1;
                self.read_latency.record(op.latency());
                if op.stale {
                    self.stale_reads += 1;
                    self.staleness_depth_sum += op.staleness_depth as u64;
                }
            }
            OpKind::Write => {
                self.writes_completed += 1;
                self.write_latency.record(op.latency());
            }
        }
    }

    /// Total completed operations.
    pub fn ops_completed(&self) -> u64 {
        self.reads_completed + self.writes_completed
    }

    /// Ground-truth stale-read rate: stale reads over *all* completed reads,
    /// timed-out ones (which are never classified) included.
    pub fn stale_read_rate(&self) -> f64 {
        if self.reads_completed == 0 {
            0.0
        } else {
            self.stale_reads as f64 / self.reads_completed as f64
        }
    }

    /// Mean number of acknowledged writes a stale read lagged behind,
    /// averaged over stale reads (0 if there were none).
    pub fn mean_staleness_depth(&self) -> f64 {
        if self.stale_reads == 0 {
            0.0
        } else {
            self.staleness_depth_sum as f64 / self.stale_reads as f64
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
    /// worker-thread count. Destructures `other` exhaustively, so a meter
    /// added without being folded here fails to compile instead of reading
    /// 0 on the sharded engine.
    pub fn merge(&mut self, other: &ClusterMetrics) {
        let ClusterMetrics {
            reads_completed,
            writes_completed,
            timeouts,
            stale_reads,
            staleness_depth_sum,
            read_latency,
            write_latency,
            traffic,
            storage_read_ops,
            storage_write_ops,
            messages,
            read_replicas_contacted,
            retries,
            messages_lost,
            hints_queued,
            hints_replayed,
            hints_dropped,
            repair_pages_compared,
            repair_records_streamed,
            repair_traffic,
            hedged_requests,
            hedge_wins,
            backoff_retries,
            breaker_opens,
            hedge_traffic,
            faults_injected,
        } = other;
        self.reads_completed += reads_completed;
        self.writes_completed += writes_completed;
        self.timeouts += timeouts;
        self.stale_reads += stale_reads;
        self.staleness_depth_sum += staleness_depth_sum;
        self.read_latency.merge(read_latency);
        self.write_latency.merge(write_latency);
        self.traffic.merge(traffic);
        self.storage_read_ops += storage_read_ops;
        self.storage_write_ops += storage_write_ops;
        self.messages += messages;
        self.read_replicas_contacted += read_replicas_contacted;
        self.retries += retries;
        self.messages_lost += messages_lost;
        self.hints_queued += hints_queued;
        self.hints_replayed += hints_replayed;
        self.hints_dropped += hints_dropped;
        self.repair_pages_compared += repair_pages_compared;
        self.repair_records_streamed += repair_records_streamed;
        self.repair_traffic.merge(repair_traffic);
        self.hedged_requests += hedged_requests;
        self.hedge_wins += hedge_wins;
        self.backoff_retries += backoff_retries;
        self.breaker_opens += breaker_opens;
        self.hedge_traffic.merge(hedge_traffic);
        self.faults_injected += faults_injected;
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
    fn traffic_accumulates_by_class() {
        let mut t = TrafficBytes::default();
        t.add(LinkClass::IntraDc, 100);
        t.add(LinkClass::InterDc, 50);
        t.add(LinkClass::InterRegion, 25);
        t.add(LinkClass::Local, 10);
        assert_eq!(t.total(), 185);
        assert_eq!(t.intra_dc, 100);
    }

    /// A completed operation of `kind` that took `ms` and lagged `depth`
    /// acknowledged writes behind (stale iff `depth > 0`).
    fn op(kind: OpKind, ms: u64, depth: u32) -> CompletedOp {
        use crate::types::{Key, OpId, OpStatus, Version};
        use concord_sim::SimTime;
        CompletedOp {
            id: OpId(1),
            kind,
            key: Key(1),
            issued_at: SimTime::ZERO,
            completed_at: SimTime::from_millis(ms),
            status: OpStatus::Ok,
            replicas_involved: 1,
            returned_version: Version(1),
            stale: depth > 0,
            staleness_depth: depth,
            records_returned: 1,
        }
    }

    #[test]
    fn completion_recording_updates_counters() {
        let mut m = ClusterMetrics::new();
        m.record_completion(&op(OpKind::Read, 2, 0));
        m.record_completion(&op(OpKind::Read, 4, 3));
        m.record_completion(&op(OpKind::Read, 6, 0));
        m.record_completion(&op(OpKind::Read, 8, 2));
        m.record_completion(&op(OpKind::Write, 8, 0));
        assert_eq!(m.ops_completed(), 5);
        assert_eq!(m.reads_completed, 4);
        assert_eq!((m.stale_reads, m.staleness_depth_sum), (2, 5));
        assert!((m.stale_read_rate() - 0.5).abs() < 1e-12);
        assert_eq!(m.mean_staleness_depth(), 2.5, "averaged over stale reads");
        assert!((m.read_latency.mean_ms() - 5.0).abs() < 1e-9);
        assert!((m.write_latency.mean_ms() - 8.0).abs() < 1e-9);
        assert_eq!(ClusterMetrics::new().mean_staleness_depth(), 0.0);
    }

    #[test]
    fn throughput_uses_makespan() {
        let mut m = ClusterMetrics::new();
        for _ in 0..100 {
            m.record_completion(&op(OpKind::Read, 1, 0));
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
