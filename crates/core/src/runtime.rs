//! The adaptive runtime: the **scenario driver** that connects a storage
//! cluster, a workload, the monitoring module and a consistency policy.
//!
//! Historically this was a closed-loop-only driver — "YCSB against Cassandra
//! with Harmony attached", the paper's evaluation setup. It now executes any
//! [`Scenario`]: the arrival mode decides whether clients form a closed loop
//! (each issues its next operation on completion) or an open loop (the whole
//! sorted arrival schedule is bulk-loaded up front through
//! `Cluster::submit_batch` and the event queue's O(1) bulk lane), and the
//! scenario's fault script is scheduled in the cluster, where it fires
//! between the policy's adaptation ticks. Every completed operation feeds
//! the monitor;
//! at every adaptation interval the policy is consulted and the cluster's
//! consistency levels are retuned — under faults, exactly like on a healthy
//! cluster.

use crate::policy::{ClusterProfile, ConsistencyPolicy, PolicyContext};
use crate::report::{LatencySummary, LevelChange, RunReport};
use crate::scenario::Scenario;
use concord_cluster::{BatchOp, Cluster, ClusterOutput, OpKind};
use concord_cost::{Bill, PricingModel, ResourceUsage};
use concord_monitor::{AccessMonitor, MonitorConfig};
use concord_sim::{SimDuration, SimRng, SimTime};
use concord_workload::{CoreWorkload, OperationType, WorkloadOp};

/// Configuration of an adaptive run.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Number of concurrent closed-loop clients (YCSB threads).
    pub clients: u32,
    /// Per-client pause between a completion and the next request.
    pub think_time: SimDuration,
    /// How often the policy is consulted (the adaptation interval).
    pub adaptation_interval: SimDuration,
    /// Monitor configuration (rate window, smoothing factors).
    pub monitor: MonitorConfig,
    /// Pricing model used to compute the run's bill (optional).
    pub pricing: Option<PricingModel>,
    /// Safety cap on processed outputs (guards against run-away loops).
    pub max_outputs: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            clients: 32,
            think_time: SimDuration::ZERO,
            adaptation_interval: SimDuration::from_secs(5),
            monitor: MonitorConfig::default(),
            pricing: Some(PricingModel::ec2_2013()),
            max_outputs: u64::MAX,
        }
    }
}

/// The adaptive runtime.
pub struct AdaptiveRuntime {
    config: RuntimeConfig,
    rng: SimRng,
}

impl AdaptiveRuntime {
    /// Create a runtime with the given configuration and RNG seed.
    pub fn new(config: RuntimeConfig, seed: u64) -> Self {
        assert!(config.clients >= 1, "at least one client is required");
        assert!(
            !config.adaptation_interval.is_zero(),
            "the adaptation interval must be positive"
        );
        AdaptiveRuntime {
            config,
            rng: SimRng::new(seed),
        }
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Map one workload operation to its cluster submission (open-loop
    /// batch entry or closed-loop request). Scans issue real range reads:
    /// every contacted replica reads `scan_length` consecutive records
    /// through the dense store, metered in storage reads and byte-weighted
    /// response traffic.
    fn batch_op(at: SimTime, op: &WorkloadOp) -> BatchOp {
        match op.op {
            OperationType::Read => BatchOp::read(at, op.key),
            OperationType::Scan => BatchOp::scan(at, op.key, op.scan_length),
            OperationType::Update | OperationType::Insert | OperationType::ReadModifyWrite => {
                BatchOp::write(at, op.key, op.value_size)
            }
        }
    }

    /// Drive `workload` against `cluster` under `policy` with the
    /// historical setup — a healthy closed loop of `config.clients` clients
    /// — until every operation has completed, and return the run report.
    ///
    /// This is a thin wrapper over [`AdaptiveRuntime::run_scenario`] with
    /// [`Scenario::closed_with_think`]; reports are byte-identical to the
    /// pre-scenario driver.
    pub fn run(
        &mut self,
        cluster: &mut Cluster,
        workload: &mut CoreWorkload,
        policy: &mut dyn ConsistencyPolicy,
    ) -> RunReport {
        let scenario = Scenario::closed_with_think(self.config.clients, self.config.think_time);
        self.run_scenario(cluster, workload, policy, &scenario)
    }

    /// Execute a [`Scenario`]: drive `workload` against `cluster` under
    /// `policy` with the scenario's arrival mode, interleaving its fault
    /// script with the policy's adaptation epochs, until every operation of
    /// the workload has completed. Returns the run report.
    ///
    /// * **Closed loop** — `scenario.arrival.concurrency()` clients are
    ///   primed; each issues its next operation when the previous completes
    ///   (plus the arrival's think time). `config.clients` is ignored in
    ///   favour of the scenario.
    /// * **Open loop** — the workload's whole timed schedule
    ///   (`CoreWorkload::timed_ops`) is bulk-loaded up front through
    ///   `Cluster::submit_batch`; completions never gate arrivals, so the
    ///   offered load stays fixed while faults and level changes move the
    ///   completion rate. Consistency levels still apply at *arrival* time
    ///   (the cluster resolves its default level when the operation reaches
    ///   its coordinator), so adaptation steps retune bulk-loaded
    ///   operations exactly like closed-loop ones.
    /// * **Faults** — each script entry is scheduled in the cluster
    ///   ([`Cluster::schedule_fault`]) at `start + at`, and the cluster
    ///   injects it when the simulation reaches it. Faults scripted past the
    ///   workload's completion never fire.
    ///
    /// The cluster should already be loaded with the workload's records
    /// (see [`Cluster::load_records`]). Fixed seed ⇒ identical report, for
    /// any arrival mode and fault script.
    pub fn run_scenario(
        &mut self,
        cluster: &mut Cluster,
        workload: &mut CoreWorkload,
        policy: &mut dyn ConsistencyPolicy,
        scenario: &Scenario,
    ) -> RunReport {
        scenario
            .validate(cluster.config())
            .unwrap_or_else(|e| panic!("invalid scenario: {e}"));
        let profile = ClusterProfile::from_cluster(cluster, workload.config().record_size());
        let mut monitor = AccessMonitor::new(self.config.monitor);
        let start = cluster.now();

        // Initial decision from a cold monitor, then the first tick.
        let mut adaptation_steps = 0u64;
        let mut level_timeline: Vec<LevelChange> = Vec::new();
        let initial = policy.decide(&PolicyContext {
            now: start,
            snapshot: monitor.snapshot(start),
            profile,
        });
        initial.apply(cluster);
        adaptation_steps += 1;
        level_timeline.push(LevelChange {
            at_secs: start.as_secs_f64(),
            read_replicas: cluster.config().required_acks(initial.read),
            write_replicas: cluster.config().required_acks(initial.write),
        });

        // Prime the arrivals. Closed loop: one outstanding operation per
        // client, staggered by a few microseconds to avoid an artificial
        // burst. Open loop: the whole sorted timed schedule is bulk-loaded
        // through the event queue's O(1) bulk lane up front.
        let total_ops = workload.config().operation_count;
        let mut submitted = 0u64;
        let closed_clients = scenario.arrival.concurrency();
        let think_time = scenario.arrival.think_time();
        match closed_clients {
            Some(clients) => {
                assert!(clients >= 1, "a closed-loop scenario needs clients");
                let initial_clients = (clients as u64).min(total_ops);
                for i in 0..initial_clients {
                    let op = workload.next_op(&mut self.rng);
                    cluster.submit(Self::batch_op(
                        start + SimDuration::from_micros(i * 13),
                        &op,
                    ));
                    submitted += 1;
                }
            }
            None => {
                let process = scenario.arrival;
                let rng = &mut self.rng;
                let timed = workload
                    .timed_ops(process, start, rng)
                    .map(|(at, op)| Self::batch_op(at, &op));
                submitted = cluster.submit_batch(timed) as u64;
            }
        }

        // The fault script fires inside the cluster, between events.
        for fault in &scenario.faults {
            cluster.schedule_fault(start + fault.at, fault.action);
        }

        let mut tick_id = 0u64;
        cluster.schedule_tick(start + self.config.adaptation_interval, tick_id);

        let mut completed = 0u64;
        let mut last_completion = start;
        let mut outputs = 0u64;
        while completed < submitted.max(1) && outputs < self.config.max_outputs {
            let Some(output) = cluster.advance() else {
                break;
            };
            outputs += 1;
            match output {
                ClusterOutput::Completed(op) => {
                    completed += 1;
                    last_completion = last_completion.max(op.completed_at);
                    // Completions arrive in time order of `completed_at`; use
                    // that timestamp for the rate windows (at steady state the
                    // completion rate equals the arrival rate).
                    match op.kind {
                        OpKind::Read => monitor.record_read(op.completed_at, op.latency()),
                        OpKind::Write => monitor.record_write(op.completed_at, op.latency()),
                    }
                    // Closed loop: this client immediately issues its next
                    // operation (after the optional think time).
                    if closed_clients.is_some() && submitted < total_ops && !workload.is_exhausted()
                    {
                        let next = workload.next_op(&mut self.rng);
                        cluster.submit(Self::batch_op(op.completed_at + think_time, &next));
                        submitted += 1;
                    }
                }
                ClusterOutput::Tick { at, .. } => {
                    // Feed the monitor with the propagation measurements the
                    // cluster collected since the last tick.
                    for sample in cluster.drain_propagation_samples() {
                        monitor.record_propagation(sample);
                    }
                    if policy.is_adaptive() {
                        let ctx = PolicyContext {
                            now: at,
                            snapshot: monitor.snapshot(at),
                            profile,
                        };
                        let decision = policy.decide(&ctx);
                        decision.apply(cluster);
                        adaptation_steps += 1;
                        let read_replicas = cluster.config().required_acks(decision.read);
                        let write_replicas = cluster.config().required_acks(decision.write);
                        if level_timeline.last().is_none_or(|last| {
                            last.read_replicas != read_replicas
                                || last.write_replicas != write_replicas
                        }) {
                            level_timeline.push(LevelChange {
                                at_secs: at.as_secs_f64(),
                                read_replicas,
                                write_replicas,
                            });
                        }
                    }
                    // Keep ticking while work remains.
                    if completed < total_ops {
                        tick_id += 1;
                        cluster.schedule_tick(at + self.config.adaptation_interval, tick_id);
                    }
                }
            }
        }

        // The run ends with its last completion. On more than one shard the
        // engine clock has already run to the end of the window that
        // produced it.
        let makespan = last_completion - start;
        let shard_metrics = cluster.shard_metrics();
        let metrics = cluster.metrics();
        let usage = ResourceUsage::from_cluster(cluster, makespan);
        let bill = self.config.pricing.map(|p| Bill::compute(&p, &usage));

        RunReport {
            policy: policy.name(),
            scenario: scenario.label(),
            total_ops: metrics.ops_completed(),
            reads: metrics.reads_completed,
            writes: metrics.writes_completed,
            timeouts: metrics.timeouts,
            retries: metrics.retries,
            faults_injected: metrics.faults_injected,
            messages_lost: metrics.messages_lost,
            makespan,
            throughput_ops_per_sec: metrics.throughput(makespan),
            read_latency_ms: LatencySummary::from_stats(&metrics.read_latency),
            write_latency_ms: LatencySummary::from_stats(&metrics.write_latency),
            stale_reads: metrics.stale_reads,
            stale_read_rate: metrics.stale_read_rate(),
            mean_staleness_depth: metrics.mean_staleness_depth(),
            mean_read_replicas: metrics.mean_read_fanout(),
            adaptation_steps,
            hints_queued: metrics.hints_queued,
            hints_replayed: metrics.hints_replayed,
            hints_dropped: metrics.hints_dropped,
            repair_pages_compared: metrics.repair_pages_compared,
            repair_records_streamed: metrics.repair_records_streamed,
            repair_traffic: metrics.repair_traffic,
            hedged_requests: metrics.hedged_requests,
            hedge_wins: metrics.hedge_wins,
            backoff_retries: metrics.backoff_retries,
            breaker_opens: metrics.breaker_opens,
            hedge_bytes: metrics.hedge_traffic.total(),
            shards: cluster.shards() as u64,
            shard_windows: shard_metrics.windows,
            cross_shard_staged: shard_metrics.staged,
            lookahead_violations: shard_metrics.violations,
            parallel_batches: shard_metrics.parallel_batches,
            barrier_folds: shard_metrics.windows,
            max_batch_len: shard_metrics.max_batch_len,
            elided_barriers: 0,
            fast_forwards: shard_metrics.fast_forwards,
            level_timeline,
            usage,
            bill,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harmony::HarmonyPolicy;
    use crate::policy::StaticPolicy;
    use crate::scenario::{FaultAction, FaultEvent};
    use concord_cluster::{ClusterConfig, ReplicationStrategy};
    use concord_sim::{NetworkModel, RegionId, Topology};
    use concord_workload::presets;

    /// A small two-site cluster and a scaled-down heavy read-update workload.
    fn setup(seed: u64) -> (Cluster, CoreWorkload) {
        setup_sharded(seed, 1)
    }

    /// [`setup`] on `shards` event lanes (one per site at 2).
    fn setup_sharded(seed: u64, shards: u32) -> (Cluster, CoreWorkload) {
        let mut cfg = ClusterConfig::lan_test(8, 5);
        cfg.topology = Topology::spread(8, &[("site-a", RegionId(0)), ("site-b", RegionId(0))]);
        cfg.network = NetworkModel::grid5000_like();
        cfg.strategy = ReplicationStrategy::NetworkTopology;
        cfg.shards = shards;
        let mut cluster = Cluster::new(cfg, seed);

        let mut wl_cfg = presets::paper_heavy_read_update(2_000, 6_000);
        wl_cfg.field_count = 1;
        wl_cfg.field_length = 256;
        let workload = CoreWorkload::new(wl_cfg.clone());
        cluster.load_records((0..wl_cfg.record_count).map(|k| (k, wl_cfg.record_size())));
        (cluster, workload)
    }

    fn quick_runtime(seed: u64) -> AdaptiveRuntime {
        AdaptiveRuntime::new(
            RuntimeConfig {
                clients: 16,
                // Short interval so even fast (level-ONE) runs see several
                // adaptation steps.
                adaptation_interval: SimDuration::from_millis(100),
                ..Default::default()
            },
            seed,
        )
    }

    #[test]
    fn static_run_completes_every_operation() {
        let (mut cluster, mut workload) = setup(1);
        let mut policy = StaticPolicy::eventual();
        let report = quick_runtime(1).run(&mut cluster, &mut workload, &mut policy);
        assert_eq!(report.total_ops, 6_000);
        assert_eq!(report.reads + report.writes, 6_000);
        assert!(report.throughput_ops_per_sec > 0.0);
        assert!(report.makespan > SimDuration::ZERO);
        assert!(report.read_latency_ms.p95 >= report.read_latency_ms.p50);
        assert!(report.bill.is_some());
        assert!(report.total_cost_usd() > 0.0);
        assert_eq!(report.policy, "static-eventual(ONE)");
    }

    #[test]
    fn eventual_is_faster_but_staler_than_strong() {
        let run_with = |mut policy: StaticPolicy, seed: u64| {
            let (mut cluster, mut workload) = setup(seed);
            quick_runtime(seed).run(&mut cluster, &mut workload, &mut policy)
        };
        let eventual = run_with(StaticPolicy::eventual(), 3);
        let strong = run_with(StaticPolicy::strong(), 3);
        assert!(
            eventual.throughput_ops_per_sec > strong.throughput_ops_per_sec,
            "eventual {} vs strong {}",
            eventual.throughput_ops_per_sec,
            strong.throughput_ops_per_sec
        );
        assert!(eventual.stale_read_rate > strong.stale_read_rate);
        assert_eq!(strong.stale_reads, 0, "read-ALL can never be stale");
        assert!(eventual.mean_read_replicas < strong.mean_read_replicas);
    }

    #[test]
    fn harmony_respects_its_tolerance_and_beats_strong_throughput() {
        let (mut cluster, mut workload) = setup(5);
        let mut harmony = HarmonyPolicy::with_tolerance(0.20);
        let harmony_report = quick_runtime(5).run(&mut cluster, &mut workload, &mut harmony);

        let (mut cluster2, mut workload2) = setup(5);
        let mut strong = StaticPolicy::strong();
        let strong_report = quick_runtime(5).run(&mut cluster2, &mut workload2, &mut strong);

        // The measured stale rate must stay at or below the tolerance
        // (small numerical slack for the finite run).
        assert!(
            harmony_report.stale_read_rate <= 0.20 + 0.03,
            "harmony stale rate {} exceeds tolerance",
            harmony_report.stale_read_rate
        );
        // And Harmony must not be slower than static strong consistency.
        assert!(
            harmony_report.throughput_ops_per_sec >= strong_report.throughput_ops_per_sec * 0.95,
            "harmony {} vs strong {}",
            harmony_report.throughput_ops_per_sec,
            strong_report.throughput_ops_per_sec
        );
        assert!(harmony_report.adaptation_steps > 1);
    }

    #[test]
    fn adaptive_runs_record_a_level_timeline() {
        let (mut cluster, mut workload) = setup(7);
        let mut harmony = HarmonyPolicy::with_tolerance(0.05);
        let report = quick_runtime(7).run(&mut cluster, &mut workload, &mut harmony);
        assert!(!report.level_timeline.is_empty());
        assert!(report
            .level_timeline
            .iter()
            .all(|c| (1..=5).contains(&c.read_replicas)));
        // The JSON round trip used by the experiment binaries works.
        let json = report.to_json();
        assert!(json.contains("level_timeline"));
    }

    #[test]
    fn think_time_slows_the_offered_load() {
        let run_with_think = |think: SimDuration| {
            let (mut cluster, mut workload) = setup(11);
            let mut rt = AdaptiveRuntime::new(
                RuntimeConfig {
                    clients: 8,
                    think_time: think,
                    adaptation_interval: SimDuration::from_millis(500),
                    ..Default::default()
                },
                11,
            );
            let mut policy = StaticPolicy::eventual();
            rt.run(&mut cluster, &mut workload, &mut policy)
                .throughput_ops_per_sec
        };
        let fast = run_with_think(SimDuration::ZERO);
        let slow = run_with_think(SimDuration::from_millis(5));
        assert!(fast > slow * 1.5, "fast={fast} slow={slow}");
    }

    #[test]
    fn closed_loop_scenario_matches_the_legacy_entry_point() {
        let (mut cluster_a, mut workload_a) = setup(21);
        let mut policy_a = StaticPolicy::quorum();
        let legacy = quick_runtime(21).run(&mut cluster_a, &mut workload_a, &mut policy_a);

        let (mut cluster_b, mut workload_b) = setup(21);
        let mut policy_b = StaticPolicy::quorum();
        let scenario = Scenario::closed(16); // quick_runtime uses 16 clients
        let scenic = quick_runtime(21).run_scenario(
            &mut cluster_b,
            &mut workload_b,
            &mut policy_b,
            &scenario,
        );
        assert_eq!(legacy, scenic, "the wrapper and the driver must agree");
        assert_eq!(legacy.scenario, "closed(16)");
    }

    #[test]
    fn open_loop_runs_complete_under_adaptive_policies() {
        let (mut cluster, mut workload) = setup(23);
        let mut harmony = HarmonyPolicy::with_tolerance(0.15);
        let scenario = Scenario::open_poisson(20_000.0);
        let report =
            quick_runtime(23).run_scenario(&mut cluster, &mut workload, &mut harmony, &scenario);
        assert_eq!(report.total_ops, 6_000);
        assert_eq!(report.scenario, "poisson(20000/s)");
        assert!(report.adaptation_steps > 1, "the policy must keep adapting");
        assert!(report.throughput_ops_per_sec > 0.0);
        assert_eq!(report.faults_injected, 0);
    }

    #[test]
    fn open_loop_offered_load_is_fixed_by_the_schedule() {
        // A closed loop's makespan stretches under a slow policy; an open
        // loop's arrival span is fixed by the schedule, so the makespan is
        // pinned near (last arrival + tail latency) for any policy.
        let run_open = |seed: u64, mut policy: StaticPolicy| {
            let (mut cluster, mut workload) = setup(seed);
            let scenario = Scenario::open_uniform(10_000.0);
            quick_runtime(seed).run_scenario(&mut cluster, &mut workload, &mut policy, &scenario)
        };
        let eventual = run_open(25, StaticPolicy::eventual());
        let strong = run_open(25, StaticPolicy::strong());
        // 6000 ops at 10k/s: arrivals span 0.6 s for both runs.
        let span = 0.6;
        for r in [&eventual, &strong] {
            let makespan = r.makespan.as_secs_f64();
            assert!(
                makespan >= span && makespan < span * 1.5,
                "open-loop makespan must track the schedule, got {makespan}"
            );
        }
        // Staleness still separates the levels under identical offered load.
        assert!(eventual.stale_read_rate > strong.stale_read_rate);
        assert_eq!(strong.stale_reads, 0);
    }

    #[test]
    fn sharded_makespan_ends_at_the_last_completion() {
        // The arrival schedule comes from the driver's stream, so it is the
        // same on any shard count: the run ends a tail latency after the
        // last arrival, not at the adaptation tick that follows it.
        let run_open = |shards: u32| {
            let (mut cluster, mut workload) = setup_sharded(25, shards);
            let mut policy = StaticPolicy::eventual();
            let scenario = Scenario::open_uniform(10_000.0);
            quick_runtime(25).run_scenario(&mut cluster, &mut workload, &mut policy, &scenario)
        };
        let (serial, sharded) = (run_open(1), run_open(2));
        assert_eq!(sharded.total_ops, 6_000);
        let gap_us = sharded
            .makespan
            .as_micros()
            .abs_diff(serial.makespan.as_micros());
        assert!(
            gap_us < 20_000,
            "2 shards end at {}, 1 shard at {}",
            sharded.makespan,
            serial.makespan
        );
        let interval_us = quick_runtime(25).config().adaptation_interval.as_micros();
        assert_ne!(
            sharded.makespan.as_micros() % interval_us,
            0,
            "the makespan is the last completion, not the tick after it"
        );
    }

    #[test]
    fn sharded_closed_loops_react_faster_than_the_adaptation_tick() {
        // Completions are published at every window close, so a closed-loop
        // client issues its next request a lookahead later at most — not at
        // the next adaptation tick, which would cap the run at exactly
        // `clients / adaptation_interval` operations per second.
        let (mut cluster, mut workload) = setup_sharded(25, 2);
        let mut policy = StaticPolicy::eventual();
        let mut runtime = quick_runtime(25);
        let clients = 16;
        let per_tick = clients as f64 / runtime.config().adaptation_interval.as_secs_f64();
        let scenario = Scenario::closed(clients);
        let report = runtime.run_scenario(&mut cluster, &mut workload, &mut policy, &scenario);
        assert_eq!(report.total_ops, 6_000);
        assert!(
            report.throughput_ops_per_sec > 3.0 * per_tick,
            "{} ops/s against {per_tick} ops/s per tick",
            report.throughput_ops_per_sec
        );
    }

    #[test]
    fn fault_scripts_fire_and_are_reported() {
        let (mut cluster, mut workload) = setup(27);
        let mut policy = StaticPolicy::eventual();
        // 6000 ops at 10k/s span 0.6 s; crash at 0.1 s, recover at 0.3 s,
        // partition the two sites in between.
        let scenario = Scenario::open_uniform(10_000.0).with_faults(vec![
            FaultEvent::at_secs(0.1, FaultAction::CrashNode(2)),
            FaultEvent::at_secs(0.2, FaultAction::PartitionDcs(0, 1)),
            FaultEvent::at_secs(0.3, FaultAction::RecoverNode(2)),
            FaultEvent::at_secs(0.4, FaultAction::HealDcs(0, 1)),
        ]);
        let report =
            quick_runtime(27).run_scenario(&mut cluster, &mut workload, &mut policy, &scenario);
        assert_eq!(report.faults_injected, 4, "every scripted fault fired");
        assert!(report.scenario.ends_with("+4 faults"));
        assert!(
            report.messages_lost > 0,
            "the partition must drop messages mid-run"
        );
        assert_eq!(report.total_ops, 6_000, "the run still completes");
        // The scripted pairs healed: the cluster ends healthy.
        assert!(!cluster.is_node_crashed(concord_sim::NodeId(2)));
        assert!(!cluster.dcs_partitioned(concord_sim::DcId(0), concord_sim::DcId(1)));
    }

    #[test]
    fn fault_scenarios_are_deterministic_per_seed() {
        let run = || {
            let (mut cluster, mut workload) = setup(31);
            let mut policy = HarmonyPolicy::with_tolerance(0.25);
            let scenario = Scenario::open_poisson(15_000.0).with_faults(vec![
                FaultEvent::at_secs(0.1, FaultAction::NodeDown(1)),
                FaultEvent::at_secs(
                    0.25,
                    FaultAction::DegradeLink(concord_sim::LinkClass::InterDc, 6.0),
                ),
                FaultEvent::at_secs(0.3, FaultAction::NodeUp(1)),
                FaultEvent::at_secs(
                    0.35,
                    FaultAction::RestoreLink(concord_sim::LinkClass::InterDc),
                ),
            ]);
            quick_runtime(31).run_scenario(&mut cluster, &mut workload, &mut policy, &scenario)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "fixed seed must reproduce the faulted run exactly");
        assert_eq!(a.faults_injected, 4);
    }

    #[test]
    fn ycsb_d_and_e_run_under_the_scenario_driver() {
        // Workload D (latest-distribution reads + inserts) and E (short
        // scans + inserts) both complete open-loop and closed-loop, with
        // deterministic per-seed reports. E's scans are real range reads:
        // each contacted replica reads the whole range through the dense
        // store (metered per record).
        for preset in [presets::ycsb_d(), presets::ycsb_e()] {
            let build = || {
                let mut cfg = ClusterConfig::lan_test(8, 3);
                cfg.topology =
                    Topology::spread(8, &[("site-a", RegionId(0)), ("site-b", RegionId(0))]);
                cfg.network = NetworkModel::grid5000_like();
                cfg.strategy = ReplicationStrategy::NetworkTopology;
                let mut cluster = Cluster::new(cfg, 43);
                let mut wl_cfg = presets::sized(preset.clone(), 1_000, 3_000);
                wl_cfg.field_count = 1;
                wl_cfg.field_length = 256;
                cluster.load_records((0..wl_cfg.record_count).map(|k| (k, wl_cfg.record_size())));
                (cluster, CoreWorkload::new(wl_cfg))
            };
            let run = |scenario: &Scenario| {
                let (mut cluster, mut workload) = build();
                let mut policy = HarmonyPolicy::with_tolerance(0.20);
                quick_runtime(43).run_scenario(&mut cluster, &mut workload, &mut policy, scenario)
            };
            let open = run(&Scenario::open_poisson(10_000.0));
            assert_eq!(open.total_ops, 3_000);
            assert!(open.reads > 0, "both mixes read");
            assert!(open.writes > 0, "inserts write");
            assert_eq!(
                open,
                run(&Scenario::open_poisson(10_000.0)),
                "deterministic"
            );
            let closed = run(&Scenario::closed(16));
            assert_eq!(closed.total_ops, 3_000);
        }
    }

    #[test]
    fn ordered_partitioner_runs_ycsb_e_under_the_scenario_driver() {
        // Workload E's short scans under contiguous key-range ownership:
        // the driver needs no special casing — placement mode is cluster
        // config — and runs stay deterministic per seed, open- and
        // closed-loop, exactly like hash-partitioned ones.
        let build = |partitioner: concord_cluster::Partitioner| {
            let mut cfg = ClusterConfig::lan_test(8, 3);
            cfg.topology = Topology::spread(8, &[("site-a", RegionId(0)), ("site-b", RegionId(0))]);
            cfg.network = NetworkModel::grid5000_like();
            cfg.strategy = ReplicationStrategy::NetworkTopology;
            cfg.partitioner = partitioner;
            let mut cluster = Cluster::new(cfg, 47);
            let mut wl_cfg = presets::sized(presets::ycsb_e(), 1_000, 3_000);
            wl_cfg.field_count = 1;
            wl_cfg.field_length = 256;
            cluster.load_records((0..wl_cfg.record_count).map(|k| (k, wl_cfg.record_size())));
            (cluster, CoreWorkload::new(wl_cfg))
        };
        let run = |partitioner, scenario: &Scenario| {
            let (mut cluster, mut workload) = build(partitioner);
            let mut policy = HarmonyPolicy::with_tolerance(0.20);
            quick_runtime(47).run_scenario(&mut cluster, &mut workload, &mut policy, scenario)
        };
        let ordered = concord_cluster::Partitioner::Ordered;
        let open = run(ordered, &Scenario::open_poisson(10_000.0));
        assert_eq!(open.total_ops, 3_000);
        assert!(open.reads > 0 && open.writes > 0);
        assert_eq!(
            open,
            run(ordered, &Scenario::open_poisson(10_000.0)),
            "ordered runs must be deterministic per seed"
        );
        let closed = run(ordered, &Scenario::closed(16));
        assert_eq!(closed.total_ops, 3_000);
        // The placement mode changes coverage and traffic, so the reports
        // must actually differ from hash ones (same seed, same scenario).
        let hash = run(
            concord_cluster::Partitioner::Hash,
            &Scenario::open_poisson(10_000.0),
        );
        assert_ne!(open, hash, "ordered placement must change the run");
    }

    #[test]
    fn repair_plane_surfaces_in_fault_reports_and_the_bill() {
        // The same faulted run with and without the repair plane: with it,
        // the report carries the hint/sweep counters and the repair bytes
        // land in the billable traffic (higher network cost).
        let run = |mode: concord_cluster::RepairMode| {
            let mut cfg = ClusterConfig::lan_test(8, 5);
            cfg.topology = Topology::spread(8, &[("site-a", RegionId(0)), ("site-b", RegionId(0))]);
            cfg.network = NetworkModel::grid5000_like();
            cfg.strategy = ReplicationStrategy::NetworkTopology;
            cfg.repair = concord_cluster::RepairConfig::with_mode(mode);
            let mut cluster = Cluster::new(cfg, 51);
            let mut wl_cfg = presets::paper_heavy_read_update(2_000, 6_000);
            wl_cfg.field_count = 1;
            wl_cfg.field_length = 256;
            let mut workload = CoreWorkload::new(wl_cfg.clone());
            cluster.load_records((0..wl_cfg.record_count).map(|k| (k, wl_cfg.record_size())));
            let mut policy = StaticPolicy::eventual();
            // 6000 ops at 10k/s span 0.6 s; a transient outage queues hints,
            // the crash/recover pair exercises the recovery migration.
            let scenario = Scenario::open_uniform(10_000.0).with_faults(vec![
                FaultEvent::at_secs(0.1, FaultAction::NodeDown(1)),
                FaultEvent::at_secs(0.2, FaultAction::NodeUp(1)),
                FaultEvent::at_secs(0.3, FaultAction::CrashNode(2)),
                FaultEvent::at_secs(0.45, FaultAction::RecoverNode(2)),
            ]);
            quick_runtime(51).run_scenario(&mut cluster, &mut workload, &mut policy, &scenario)
        };
        let off = run(concord_cluster::RepairMode::Off);
        assert_eq!(off.hints_queued, 0);
        assert_eq!(off.repair_pages_compared, 0);
        assert_eq!(off.repair_traffic.total(), 0);

        let full = run(concord_cluster::RepairMode::Full);
        assert!(full.hints_queued > 0, "the outage must queue hints");
        assert!(full.hints_replayed > 0, "recovery must replay them");
        assert!(full.repair_pages_compared > 0);
        assert!(full.repair_records_streamed > 0);
        assert!(full.repair_traffic.total() > 0);
        assert!(
            full.repair_traffic.intra_dc > 0,
            "a two-site cluster repairs over intra-DC links too"
        );
        assert!(
            full.usage.traffic.total() > off.usage.traffic.total(),
            "repair bytes must flow into the billable traffic"
        );
        let (off_bill, full_bill) = (off.bill.unwrap(), full.bill.unwrap());
        assert!(
            full_bill.network_usd > off_bill.network_usd,
            "repair traffic must show up in the bill ({} vs {})",
            full_bill.network_usd,
            off_bill.network_usd
        );
        // The whole point: the repaired run serves fewer stale reads.
        assert!(
            full.stale_reads <= off.stale_reads,
            "repair must not increase staleness ({} vs {})",
            full.stale_reads,
            off.stale_reads
        );
    }

    #[test]
    fn resilience_layer_surfaces_in_fault_reports_and_the_bill() {
        // The same gray-failure run with and without the resilience layer:
        // with it, the report carries the hedge/backoff/breaker counters and
        // the hedge duplicates land in the billable traffic (higher network
        // cost). With it off, every counter stays zero.
        let run = |resilience_on: bool| {
            let mut cfg = ClusterConfig::lan_test(8, 5);
            cfg.topology = Topology::spread(8, &[("site-a", RegionId(0)), ("site-b", RegionId(0))]);
            cfg.network = NetworkModel::grid5000_like();
            cfg.strategy = ReplicationStrategy::NetworkTopology;
            // Tight enough that reads stuck on the dead node time out and
            // re-issue (exercising backoff and the breaker strikes).
            cfg.op_timeout = SimDuration::from_millis(25);
            cfg.retry_on_timeout = 3;
            if resilience_on {
                cfg.resilience.hedge_delay = SimDuration::from_micros(500);
                cfg.resilience.backoff = true;
                cfg.read_selection = concord_cluster::ReplicaSelection::Dynamic;
            }
            let mut cluster = Cluster::new(cfg, 53);
            let mut wl_cfg = presets::paper_heavy_read_update(2_000, 6_000);
            wl_cfg.field_count = 1;
            wl_cfg.field_length = 256;
            let mut workload = CoreWorkload::new(wl_cfg.clone());
            cluster.load_records((0..wl_cfg.record_count).map(|k| (k, wl_cfg.record_size())));
            // Quorum reads are the pressure lever: a hedge adds only ONE
            // speculative replica, so a read whose contacted set holds both
            // the dead node and the saturated slow node cannot be rescued —
            // it genuinely times out, feeding backoff and breaker strikes,
            // while ordinary reads still hedge past the slow node. (At CL
            // ONE every read is hedge-rescuable and no counter past
            // hedge_wins would ever move.)
            let mut policy = StaticPolicy::quorum();
            // A gray failure (one node 20x slow) plus a transient hard
            // outage: the slow window feeds hedging, the outage feeds
            // timeouts, backoff retries and breaker strikes.
            let scenario = Scenario::open_uniform(10_000.0).with_faults(vec![
                FaultEvent::at_secs(0.1, FaultAction::SlowNode(1, 20.0)),
                FaultEvent::at_secs(0.2, FaultAction::NodeDown(2)),
                FaultEvent::at_secs(0.35, FaultAction::RestoreNode(1)),
                FaultEvent::at_secs(0.4, FaultAction::NodeUp(2)),
            ]);
            quick_runtime(53).run_scenario(&mut cluster, &mut workload, &mut policy, &scenario)
        };
        let off = run(false);
        assert_eq!(off.hedged_requests, 0);
        assert_eq!(off.hedge_wins, 0);
        assert_eq!(off.backoff_retries, 0);
        assert_eq!(off.breaker_opens, 0);
        assert_eq!(off.hedge_bytes, 0);

        let on = run(true);
        assert!(
            on.hedged_requests > 0,
            "the slow window must trigger hedges"
        );
        assert!(on.hedge_wins > 0, "hedges past a 20x-slow node must win");
        assert!(on.hedge_wins <= on.hedged_requests);
        assert!(on.hedge_bytes > 0, "hedge duplicates must be metered");
        assert!(on.backoff_retries > 0, "timed-out reads must back off");
        assert!(on.breaker_opens > 0, "the silent node must trip a breaker");
        assert!(
            on.usage.traffic.total() > off.usage.traffic.total(),
            "hedge bytes must flow into the billable traffic"
        );
        let (off_bill, on_bill) = (off.bill.unwrap(), on.bill.unwrap());
        assert!(
            on_bill.network_usd > off_bill.network_usd,
            "hedge traffic must show up in the bill ({} vs {})",
            on_bill.network_usd,
            off_bill.network_usd
        );
    }

    #[test]
    #[should_panic(expected = "invalid scenario: fault 0, crash(node99): no node 99 among 8")]
    fn a_bad_fault_script_is_rejected_before_anything_runs() {
        let (mut cluster, mut workload) = setup(3);
        let scenario = Scenario::closed(4).with_faults(vec![FaultEvent::at_secs(
            3_600.0,
            FaultAction::CrashNode(99),
        )]);
        quick_runtime(3).run_scenario(
            &mut cluster,
            &mut workload,
            &mut StaticPolicy::eventual(),
            &scenario,
        );
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_rejected() {
        AdaptiveRuntime::new(
            RuntimeConfig {
                clients: 0,
                ..Default::default()
            },
            1,
        );
    }
}
