//! Golden parallel-vs-sequential equivalence tests.
//!
//! The sweep's contract is that thread count is a pure performance knob: a
//! multi-seed sweep must produce **byte-identical** per-seed [`RunReport`]s
//! at 1, 2 and N threads. These tests pin that contract by comparing the
//! serialized reports (every field participates) across pool sizes, for
//! `Experiment::sweep`, `Experiment::compare` and the across-seed summaries
//! of `concord_bench::run_sweep`.

use concord::prelude::*;
use concord::PolicySpec;
use concord_bench::run_sweep;

fn small_experiment() -> Experiment {
    let platform = concord::platforms::grid5000_cost(0.15);
    let mut workload = presets::paper_heavy_read_update(1_000, 3_000);
    workload.field_count = 1;
    workload.field_length = 512;
    Experiment::new(platform, workload)
        .with_clients(16)
        .with_adaptation_interval(SimDuration::from_millis(200))
        .with_seed(2013)
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool construction cannot fail")
}

/// Run `experiment`'s `(policy × seed)` grid on a 1-thread pool and on 2, 4
/// and 8 threads, assert the serialized reports are identical, and return
/// the 1-thread ones.
fn thread_count_invariant_reports(
    experiment: &Experiment,
    specs: &[PolicySpec],
    seeds: &[u64],
) -> Vec<String> {
    let run = |threads| -> Vec<String> {
        pool(threads)
            .install(|| experiment.sweep(specs, seeds))
            .iter()
            .map(RunReport::to_json)
            .collect()
    };
    let baseline = run(1);
    assert_eq!(baseline.len(), specs.len() * seeds.len());
    for threads in [2, 4, 8] {
        assert_eq!(
            run(threads),
            baseline,
            "per-seed reports diverged at {threads} threads"
        );
    }
    baseline
}

#[test]
fn multi_seed_sweep_reports_are_byte_identical_across_thread_counts() {
    let seeds: Vec<u64> = (2013..2013 + 8).collect();
    thread_count_invariant_reports(
        &small_experiment(),
        &[
            PolicySpec::Eventual,
            PolicySpec::Quorum,
            PolicySpec::Harmony { tolerance: 0.2 },
        ],
        &seeds,
    );
}

#[test]
fn experiment_compare_matches_sequential_run_spec() {
    let exp = small_experiment();
    let specs = [PolicySpec::Eventual, PolicySpec::Strong, PolicySpec::Bismar];
    let sequential: Vec<RunReport> =
        pool(1).install(|| specs.iter().map(|s| exp.run_spec(s)).collect());
    let parallel = pool(4).install(|| exp.compare(&specs));
    assert_eq!(parallel, sequential);
}

#[test]
fn one_policy_over_many_seeds_is_thread_count_invariant() {
    let seeds: Vec<u64> = (1..=8).collect();
    let reports =
        thread_count_invariant_reports(&small_experiment(), &[PolicySpec::Quorum], &seeds);
    // Seeds shuffle the workload, so the reports differ from each other.
    assert_ne!(reports[0], reports[1]);
}

/// The fault scenario of the acceptance criteria: an open-loop offered load
/// with a crash/recover + partition/heal + degradation script.
fn fault_experiment() -> Experiment {
    let mut platform = concord::platforms::grid5000_cost(0.15);
    platform.cluster.op_timeout = SimDuration::from_millis(500);
    platform.cluster.retry_on_timeout = 1;
    let mut workload = presets::paper_heavy_read_update(1_000, 3_000);
    workload.field_count = 1;
    workload.field_length = 512;
    // 3000 ops at 10k/s span 0.3 s; the script hits the middle of the run.
    let scenario = Scenario::open_poisson(10_000.0).with_faults(vec![
        FaultEvent::at_secs(0.05, FaultAction::CrashNode(1)),
        FaultEvent::at_secs(0.10, FaultAction::PartitionDcs(0, 1)),
        FaultEvent::at_secs(0.18, FaultAction::HealDcs(0, 1)),
        FaultEvent::at_secs(0.20, FaultAction::RecoverNode(1)),
        FaultEvent::at_secs(
            0.22,
            FaultAction::DegradeLink(concord::sim::LinkClass::InterDc, 6.0),
        ),
    ]);
    Experiment::new(platform, workload)
        .with_adaptation_interval(SimDuration::from_millis(50))
        .with_seed(4099)
        .with_scenario(scenario)
}

#[test]
fn fault_scenario_reports_are_byte_identical_across_thread_counts() {
    let seeds: Vec<u64> = (4099..4099 + 6).collect();
    let reports = thread_count_invariant_reports(
        &fault_experiment(),
        &[
            PolicySpec::Eventual,
            PolicySpec::Quorum,
            PolicySpec::Harmony { tolerance: 0.2 },
        ],
        &seeds,
    );
    // The faults actually fired in every report.
    for json in &reports {
        assert!(json.contains("\"faults_injected\": 5"), "script must fire");
    }
}

#[test]
fn repair_enabled_fault_reports_are_byte_identical_across_thread_counts() {
    // The repair plane (hint replay timers, anti-entropy sweeps, recovery
    // migration) runs inside each point's own cluster, so it must be as
    // thread-count-invariant as everything else. Same fault script as
    // above, repair fully on, plus a transient down/up window so hinted
    // handoff has a destination that is down but still in the ring.
    let mut experiment = fault_experiment();
    experiment.platform.cluster.repair = RepairConfig::with_mode(RepairMode::Full);
    let scenario = experiment.scenario().with_faults(vec![
        FaultEvent::at_secs(0.05, FaultAction::CrashNode(1)),
        FaultEvent::at_secs(0.08, FaultAction::NodeDown(2)),
        FaultEvent::at_secs(0.14, FaultAction::NodeUp(2)),
        FaultEvent::at_secs(0.20, FaultAction::RecoverNode(1)),
    ]);
    let experiment = experiment.with_scenario(scenario);
    let seeds: Vec<u64> = (4099..4099 + 4).collect();
    let reports = thread_count_invariant_reports(
        &experiment,
        &[PolicySpec::Eventual, PolicySpec::Quorum],
        &seeds,
    );
    // The repair plane actually did work in every report: the down window
    // queued hints and the crash/recover legs streamed records.
    for json in &reports {
        assert!(!json.contains("\"hints_queued\": 0"), "hints must queue");
        assert!(
            !json.contains("\"repair_records_streamed\": 0"),
            "recovery must stream records"
        );
    }
}

#[test]
fn open_loop_adaptive_reports_are_byte_identical_across_thread_counts() {
    let experiment = small_experiment().with_arrival(ArrivalProcess::OpenLoopPoisson {
        ops_per_sec: 15_000.0,
    });
    let seeds: Vec<u64> = (2013..2013 + 8).collect();
    thread_count_invariant_reports(
        &experiment,
        &[PolicySpec::Eventual, PolicySpec::Harmony { tolerance: 0.2 }],
        &seeds,
    );
}

#[test]
fn sweep_summaries_are_thread_count_invariant() {
    let sweep = || {
        run_sweep(
            &small_experiment(),
            &[PolicySpec::Eventual],
            &[1, 2, 3, 4, 5, 6],
        )
    };
    let a = pool(1).install(sweep).summaries();
    let b = pool(6).install(sweep).summaries();
    // Mean and CI come from an ordered fold: bit-identical, not just close.
    assert_eq!(a[0].throughput, b[0].throughput);
    assert_eq!(a[0].stale_rate, b[0].stale_rate);
    assert_eq!(a[0].cost_usd, b[0].cost_usd);
}
