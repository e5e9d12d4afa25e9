//! Run reports: everything an experiment needs to print the paper's tables.

use concord_cost::{Bill, ResourceUsage};
use concord_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Latency summary statistics, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum observed.
    pub max: f64,
}

impl LatencySummary {
    /// Build from the cluster's streaming latency statistics.
    pub fn from_stats(stats: &concord_cluster::LatencyStats) -> Self {
        LatencySummary {
            mean: stats.mean_ms(),
            p50: stats.quantile_ms(0.50).unwrap_or(0.0),
            p95: stats.quantile_ms(0.95).unwrap_or(0.0),
            p99: stats.quantile_ms(0.99).unwrap_or(0.0),
            max: stats.max_ms(),
        }
    }
}

/// One consistency-level change applied by the adaptive runtime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LevelChange {
    /// When the change took effect (seconds of simulated time).
    pub at_secs: f64,
    /// Read-level replica count after the change.
    pub read_replicas: u32,
    /// Write-level replica count after the change.
    pub write_replicas: u32,
}

/// The complete result of one adaptive (or static) run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Name of the policy that drove the run.
    pub policy: String,
    /// Label of the scenario that drove the run (arrival mode + fault count,
    /// e.g. `closed(32)` or `poisson(5000/s)+3 faults`).
    pub scenario: String,
    /// Total client operations completed.
    pub total_ops: u64,
    /// Completed reads.
    pub reads: u64,
    /// Completed writes.
    pub writes: u64,
    /// Operations that timed out.
    pub timeouts: u64,
    /// Timed-out attempts that were re-issued (`retry_on_timeout` budget).
    pub retries: u64,
    /// Fault-script events applied during the run.
    pub faults_injected: u64,
    /// Messages lost in transit to datacenter partitions.
    pub messages_lost: u64,
    /// Simulated duration of the run.
    pub makespan: SimDuration,
    /// Operations per second of simulated time.
    pub throughput_ops_per_sec: f64,
    /// Read-latency summary.
    pub read_latency_ms: LatencySummary,
    /// Write-latency summary.
    pub write_latency_ms: LatencySummary,
    /// Ground-truth stale reads (classified by the oracle).
    pub stale_reads: u64,
    /// Ground-truth stale-read rate: stale reads over *all* completed
    /// reads, timed-out ones included. A timed-out read is never classified,
    /// so this is below the rate over classified reads whenever reads time
    /// out.
    pub stale_read_rate: f64,
    /// Mean number of acknowledged writes a stale read lagged behind,
    /// averaged over stale reads.
    pub mean_staleness_depth: f64,
    /// Mean number of replicas contacted per completed read, counting the
    /// replicas that retries and hedges contacted too.
    pub mean_read_replicas: f64,
    /// Number of adaptation steps the policy performed.
    pub adaptation_steps: u64,
    /// Hints queued for down replicas by the hinted-handoff repair plane
    /// (0 unless `ClusterConfig::repair` enables hints).
    #[serde(default)]
    pub hints_queued: u64,
    /// Queued hints replayed to their destination after it came back up.
    #[serde(default)]
    pub hints_replayed: u64,
    /// Hints dropped because a destination's queue was at capacity.
    #[serde(default)]
    pub hints_dropped: u64,
    /// Key pages compared by anti-entropy sweeps and recovery syncs.
    #[serde(default)]
    pub repair_pages_compared: u64,
    /// Records streamed between replicas by the repair plane.
    #[serde(default)]
    pub repair_records_streamed: u64,
    /// Repair-plane network bytes by link class (also included in
    /// `usage.traffic`, so the bill prices them; this is the breakdown).
    #[serde(default)]
    pub repair_traffic: concord_cluster::TrafficBytes,
    /// Speculative duplicate read requests issued by the hedging layer
    /// (0 unless `ClusterConfig::resilience` sets a hedge delay).
    #[serde(default)]
    pub hedged_requests: u64,
    /// Reads completed by their hedge's response — the tail-latency saves.
    #[serde(default)]
    pub hedge_wins: u64,
    /// Timed-out attempts re-issued after an exponential-backoff delay
    /// (subset of `retries`).
    #[serde(default)]
    pub backoff_retries: u64,
    /// Per-node circuit breakers tripped open by consecutive timeout
    /// strikes (`ReplicaSelection::Dynamic` only).
    #[serde(default)]
    pub breaker_opens: u64,
    /// Total network bytes of hedged read requests (also included in
    /// `usage.traffic`, so the bill prices tail tolerance like any other
    /// transfer; this breaks the share out).
    #[serde(default)]
    pub hedge_bytes: u64,
    /// Event-queue shards the run executed with (1 = unsharded engine).
    /// Each shard count is its own deterministic universe whose output is
    /// byte-identical at any worker-thread count; these counters only
    /// describe the engine's synchronization behaviour.
    #[serde(default)]
    pub shards: u64,
    /// Lookahead windows the sharded engine crossed (barrier flushes).
    #[serde(default)]
    pub shard_windows: u64,
    /// Cross-shard events staged in mailboxes and delivered at barriers.
    #[serde(default)]
    pub cross_shard_staged: u64,
    /// Cross-shard events whose sampled delay undercut the lookahead bound
    /// (still delivered exactly; nonzero means a truly concurrent engine
    /// would have needed a smaller window).
    #[serde(default)]
    pub lookahead_violations: u64,
    /// Lookahead windows in which at least two shards had events to run —
    /// the windows whose batches actually execute concurrently on the
    /// work-stealing pool (absent in reports from before the multi-core
    /// engine; deserialized as 0).
    #[serde(default)]
    pub parallel_batches: u64,
    /// Retired: always equal to `shard_windows`, since every window closes
    /// exactly once (classification and publication included). Kept only
    /// because `benchmark/` reads the field; goes with the next
    /// `benchmark` PR.
    #[serde(default)]
    pub barrier_folds: u64,
    /// Largest number of events any single shard ran within one window (an
    /// upper bound on per-window work imbalance).
    #[serde(default)]
    pub max_batch_len: u64,
    /// Retired: always 0, since no window close is skipped any more. Kept
    /// only because `benchmark/` reads the field; goes with the next
    /// `benchmark` PR.
    #[serde(default)]
    pub elided_barriers: u64,
    /// Windows whose start cursor jumped over quiet simulated time instead
    /// of marching barrier-by-barrier through it. Always 0 for `shards = 1`
    /// and for pre-PR-10 reports (deserialized as 0).
    #[serde(default)]
    pub fast_forwards: u64,
    /// Consistency-level changes over time.
    pub level_timeline: Vec<LevelChange>,
    /// Resources consumed (instances, storage, traffic).
    pub usage: ResourceUsage,
    /// The bill, when a pricing model was supplied.
    pub bill: Option<Bill>,
}

impl RunReport {
    /// Total bill in USD (0 when no pricing model was supplied).
    pub fn total_cost_usd(&self) -> f64 {
        self.bill.map(|b| b.total()).unwrap_or(0.0)
    }

    /// Fraction of reads that returned fresh data.
    pub fn fresh_read_fraction(&self) -> f64 {
        1.0 - self.stale_read_rate
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }
}

/// Render a set of reports as an aligned text table (one row per report),
/// the format the experiment binaries print.
pub fn render_table(title: &str, reports: &[RunReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    out.push_str(&format!(
        "{:<28} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10} {:>12}\n",
        "policy",
        "thr (ops/s)",
        "r-lat p50",
        "r-lat p95",
        "w-lat p95",
        "stale %",
        "fanout",
        "cost ($)"
    ));
    for r in reports {
        out.push_str(&format!(
            "{:<28} {:>12.1} {:>12.3} {:>12.3} {:>12.3} {:>10.2} {:>10.2} {:>12.4}\n",
            r.policy,
            r.throughput_ops_per_sec,
            r.read_latency_ms.p50,
            r.read_latency_ms.p95,
            r.write_latency_ms.p95,
            r.stale_read_rate * 100.0,
            r.mean_read_replicas,
            r.total_cost_usd(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_cluster::TrafficBytes;

    fn report(policy: &str, stale: f64, cost: f64) -> RunReport {
        RunReport {
            policy: policy.to_string(),
            scenario: "closed(32)".to_string(),
            total_ops: 1000,
            reads: 500,
            writes: 500,
            timeouts: 0,
            retries: 0,
            faults_injected: 0,
            messages_lost: 0,
            makespan: SimDuration::from_secs(10),
            throughput_ops_per_sec: 100.0,
            read_latency_ms: LatencySummary {
                mean: 1.0,
                p50: 0.9,
                p95: 2.0,
                p99: 3.0,
                max: 5.0,
            },
            write_latency_ms: LatencySummary::default(),
            stale_reads: (stale * 500.0) as u64,
            stale_read_rate: stale,
            mean_staleness_depth: 1.0,
            mean_read_replicas: 1.0,
            adaptation_steps: 3,
            hints_queued: 0,
            hints_replayed: 0,
            hints_dropped: 0,
            repair_pages_compared: 0,
            repair_records_streamed: 0,
            repair_traffic: TrafficBytes::default(),
            hedged_requests: 0,
            hedge_wins: 0,
            backoff_retries: 0,
            breaker_opens: 0,
            hedge_bytes: 0,
            shards: 1,
            shard_windows: 0,
            cross_shard_staged: 0,
            lookahead_violations: 0,
            parallel_batches: 0,
            barrier_folds: 0,
            elided_barriers: 0,
            fast_forwards: 0,
            max_batch_len: 0,
            level_timeline: vec![LevelChange {
                at_secs: 0.0,
                read_replicas: 1,
                write_replicas: 1,
            }],
            usage: ResourceUsage {
                vm_count: 4,
                runtime: SimDuration::from_secs(10),
                stored_bytes: 1_000,
                storage_io_ops: 10,
                traffic: TrafficBytes::default(),
            },
            bill: Some(Bill {
                instances_usd: cost,
                storage_usd: 0.0,
                network_usd: 0.0,
            }),
        }
    }

    #[test]
    fn cost_and_freshness_helpers() {
        let r = report("x", 0.2, 1.5);
        assert!((r.total_cost_usd() - 1.5).abs() < 1e-12);
        assert!((r.fresh_read_fraction() - 0.8).abs() < 1e-12);
        let mut no_bill = r.clone();
        no_bill.bill = None;
        assert_eq!(no_bill.total_cost_usd(), 0.0);
    }

    #[test]
    fn one_line_and_table_contain_key_numbers() {
        let reports = vec![
            report("static-eventual(ONE)", 0.3, 0.5),
            report("harmony", 0.05, 0.6),
        ];
        let table = render_table("EXP-A1", &reports);
        assert!(table.contains("EXP-A1"));
        assert!(table.contains("harmony"));
        assert!(table.contains("policy"));
        assert_eq!(table.lines().count(), 5, "title + header + 2 rows + blank");
    }

    #[test]
    fn report_serializes() {
        let r = report("quorum", 0.0, 2.0);
        let json = r.to_json();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn reports_without_repair_fields_still_deserialize() {
        // Reports serialized before the repair plane existed lack the
        // repair counters; they must load with everything zeroed.
        let r = report("quorum", 0.0, 2.0);
        let mut json = r.to_json();
        for field in [
            "hints_queued",
            "hints_replayed",
            "hints_dropped",
            "repair_pages_compared",
            "repair_records_streamed",
        ] {
            let start = json.find(&format!("\"{field}\"")).expect("field present");
            let end = start + json[start..].find(',').unwrap() + 1;
            json.replace_range(start..end, "");
        }
        let start = json.find("\"repair_traffic\"").expect("field present");
        let end = start + json[start..].find('}').unwrap() + 2; // past "},"
        json.replace_range(start..end, "");
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn reports_from_before_the_multicore_engine_still_deserialize() {
        // Reports serialized before handler batches ran in parallel lack the
        // pool counters; they must load with all three zeroed.
        let r = report("quorum", 0.0, 2.0);
        let mut json = r.to_json();
        for field in ["parallel_batches", "barrier_folds", "max_batch_len"] {
            let start = json.find(&format!("\"{field}\"")).expect("field present");
            let end = start + json[start..].find(',').unwrap() + 1;
            json.replace_range(start..end, "");
        }
        assert!(!json.contains("parallel_batches"));
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.parallel_batches, 0);
        assert_eq!(back.barrier_folds, 0);
        assert_eq!(back.max_batch_len, 0);
        assert_eq!(r, back);
    }

    #[test]
    fn reports_from_before_barrier_elision_still_deserialize() {
        // Reports serialized before PR 10 lack `elided_barriers` and
        // `fast_forwards`; they must load with both zeroed.
        let r = report("quorum", 0.0, 2.0);
        let mut json = r.to_json();
        for field in ["elided_barriers", "fast_forwards"] {
            let start = json.find(&format!("\"{field}\"")).expect("field present");
            let end = start + json[start..].find(',').unwrap() + 1;
            json.replace_range(start..end, "");
        }
        assert!(!json.contains("elided_barriers"));
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.elided_barriers, 0);
        assert_eq!(back.fast_forwards, 0);
        assert_eq!(r, back);
    }

    #[test]
    fn reports_from_before_the_resilience_layer_still_deserialize() {
        // Reports serialized before the tail-tolerance layer lack its
        // counters; they must load with everything zeroed.
        let r = report("quorum", 0.0, 2.0);
        let mut json = r.to_json();
        for field in [
            "hedged_requests",
            "hedge_wins",
            "backoff_retries",
            "breaker_opens",
            "hedge_bytes",
        ] {
            let start = json.find(&format!("\"{field}\"")).expect("field present");
            let end = start + json[start..].find(',').unwrap() + 1;
            json.replace_range(start..end, "");
        }
        assert!(!json.contains("hedged_requests"));
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.hedged_requests, 0);
        assert_eq!(back.hedge_bytes, 0);
        assert_eq!(r, back);
    }
}
