//! The four workloads: paper-shaped experiments built from the seed alone.
//!
//! Each is four points (policies) on one platform and one YCSB mix. Closed
//! and open describe the *simulated* arrival process; the host load is one
//! process running one point at a time. Sizes are chosen so that one pass
//! over the four points takes 2-3 s on a 2.1 GHz core.

use concord::prelude::*;
use concord::PolicySpec;
use concord_sim::LinkClass;

pub const NAMES: &[&str] = &[
    "harmony_closed_serial",
    "faults_open_planes",
    "bismar_scans_rf5",
    "sharded_open_one_thread",
];

/// Why each workload exists; `BENCHMARK.json` carries the same lines.
pub fn why(name: &str) -> &'static str {
    match name {
        "harmony_closed_serial" => "EXP-A1 closed loop, serial engine, planes off: heap lane, delay sampling, handlers, oracle, monitor and Harmony do the work; largest working set (750k records x RF 3)",
        "faults_open_planes" => "EXP-F open loop under a 10-fault script with repair, hedging, dynamic selection and backoff on: the only workload with timeouts, and the one the repair plane dominates",
        "bismar_scans_rf5" => "EXP-B2b closed loop with 10% range scans on the ordered partitioner at RF 5 with Bismar and the bill: small working set, so a point-read win that costs scans shows",
        "sharded_open_one_thread" => "the harmony platform on the 2-shard engine, open loop, windows run inline on one thread: window loop, staged outboxes and fold work only here (the traced run adds the 2-thread arm)",
        _ => panic!("unknown workload {name}"),
    }
}

/// One ablation arm of the traced run: its label and what it takes away.
pub type Ablation = (&'static str, fn(&mut Workload));

pub struct Workload {
    pub name: &'static str,
    /// Platform, YCSB mix, scenario and seed; every point shares them.
    pub experiment: Experiment,
    /// The points, in the order the paper's tables list them.
    pub specs: Vec<PolicySpec>,
    /// Worker threads of the pool the points run on, one point at a time.
    pub threads: usize,
    /// The traced run's ablation arms.
    pub ablations: &'static [Ablation],
    /// The traced run also times the four points as one
    /// `Experiment::compare` grid on two threads (two clusters in memory).
    pub sweep: bool,
}

impl Workload {
    /// The scripted faults every point must apply.
    pub fn scripted_faults(&self) -> u64 {
        self.experiment.scenario().faults.len() as u64
    }

    /// No fault script: every operation must complete and Harmony must hold
    /// its tolerance.
    pub fn healthy(&self) -> bool {
        self.scripted_faults() == 0
    }
}

fn ycsb_a(records: u64, ops: u64) -> WorkloadConfig {
    let mut mix = presets::paper_heavy_read_update(records, ops);
    mix.field_count = 1;
    mix.field_length = 1_000;
    mix
}

fn harmony_points() -> Vec<PolicySpec> {
    vec![
        PolicySpec::Eventual,
        PolicySpec::Strong,
        PolicySpec::Harmony { tolerance: 0.20 },
        PolicySpec::Harmony { tolerance: 0.40 },
    ]
}

/// Build a workload from its name and seed. `shrink` divides record and
/// operation counts (`--check` uses 20).
pub fn build(name: &str, seed: u64, shrink: u64) -> Option<Workload> {
    let size = |n: u64| (n / shrink).max(200);
    let workload = match name {
        "harmony_closed_serial" => Workload {
            name: NAMES[0],
            experiment: Experiment::new(
                platforms::grid5000_harmony(0.25),
                ycsb_a(size(750_000), size(150_000)),
            )
            .with_clients(32)
            .with_adaptation_interval(SimDuration::from_millis(100)),
            specs: harmony_points(),
            threads: 1,
            ablations: &[],
            sweep: true,
        },
        "faults_open_planes" => {
            let mut platform = platforms::grid5000_harmony(0.25);
            // Timeouts must fire inside the outage windows, and one retry
            // separates "slow" from "failed".
            platform.cluster.op_timeout = SimDuration::from_secs(1);
            platform.cluster.retry_on_timeout = 1;
            platform.cluster.repair = RepairConfig::with_mode(RepairMode::Full);
            platform.cluster.resilience.hedge_delay = SimDuration::from_millis(2);
            platform.cluster.resilience.backoff = true;
            platform.cluster.read_selection = ReplicaSelection::Dynamic;
            // The offered load spans 10 simulated seconds at any size; the
            // script hits fixed fractions of that span.
            let (ops, span_secs) = (size(75_000), 10.0);
            let at = |fraction: f64, action| FaultEvent::at_secs(span_secs * fraction, action);
            let scenario = Scenario::open_poisson(ops as f64 / span_secs).with_faults(vec![
                at(0.15, FaultAction::CrashNode(1)),
                at(0.25, FaultAction::NodeDown(2)),
                at(0.30, FaultAction::SlowNode(3, 10.0)),
                at(0.35, FaultAction::NodeUp(2)),
                at(0.40, FaultAction::RecoverNode(1)),
                at(0.50, FaultAction::PartitionDcs(0, 1)),
                at(0.60, FaultAction::RestoreNode(3)),
                at(0.70, FaultAction::HealDcs(0, 1)),
                at(0.80, FaultAction::DegradeLink(LinkClass::InterDc, 8.0)),
                at(0.95, FaultAction::RestoreLink(LinkClass::InterDc)),
            ]);
            Workload {
                name: NAMES[1],
                experiment: Experiment::new(platform, ycsb_a(size(60_000), ops))
                    .with_adaptation_interval(SimDuration::from_millis(100))
                    .with_scenario(scenario),
                specs: vec![
                    PolicySpec::Eventual,
                    PolicySpec::Quorum,
                    PolicySpec::Harmony { tolerance: 0.20 },
                    PolicySpec::Harmony { tolerance: 0.40 },
                ],
                threads: 1,
                ablations: &[
                    ("repair_off", |w| {
                        w.experiment.platform.cluster.repair = RepairConfig::off()
                    }),
                    ("planes_off", |w| {
                        let cfg = &mut w.experiment.platform.cluster;
                        cfg.repair = RepairConfig::off();
                        cfg.resilience = ResilienceConfig::off();
                        cfg.read_selection = ReplicaSelection::Closest;
                    }),
                ],
                sweep: false,
            }
        }
        "bismar_scans_rf5" => {
            let mut platform = platforms::grid5000_cost(0.25);
            platform.cluster.partitioner = Partitioner::Ordered;
            let mut mix = ycsb_a(size(250_000), size(150_000));
            mix.read_proportion = 0.45;
            mix.update_proportion = 0.45;
            mix.scan_proportion = 0.10;
            mix.max_scan_length = 100;
            Workload {
                name: NAMES[2],
                experiment: Experiment::new(platform, mix)
                    .with_clients(32)
                    .with_adaptation_interval(SimDuration::from_millis(250)),
                specs: vec![
                    PolicySpec::FixedReadReplicas(1),
                    PolicySpec::Quorum,
                    PolicySpec::Strong,
                    PolicySpec::Bismar,
                ],
                threads: 1,
                ablations: &[],
                sweep: false,
            }
        }
        "sharded_open_one_thread" => {
            let mut platform = platforms::grid5000_harmony(0.25);
            platform.cluster.shards = 2;
            Workload {
                name: NAMES[3],
                experiment: Experiment::new(platform, ycsb_a(size(250_000), size(150_000)))
                    .with_adaptation_interval(SimDuration::from_millis(100))
                    .with_arrival(ArrivalProcess::OpenLoopPoisson {
                        ops_per_sec: 15_000.0,
                    }),
                specs: harmony_points(),
                // Two threads on this sandbox's two shared vCPUs disagree with
                // themselves by more than any bound (README), so the timed
                // passes run the windows inline and the second thread is an
                // arm of the traced run.
                threads: 1,
                ablations: &[
                    ("threads2", |w| w.threads = 2),
                    ("shards1", |w| w.experiment.platform.cluster.shards = 1),
                ],
                sweep: false,
            }
        }
        _ => return None,
    };
    Some(Workload {
        experiment: workload.experiment.with_seed(seed),
        ..workload
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_builds_valid_inputs_from_the_seed() {
        for name in NAMES {
            let w = build(name, 7, 20).expect("a named workload");
            assert_eq!(w.name, *name);
            assert_eq!(w.experiment.seed, 7);
            assert_eq!(w.specs.len(), 4);
            w.experiment
                .platform
                .cluster
                .validate()
                .expect("valid cluster config");
            w.experiment.workload.validate().expect("valid YCSB mix");
            assert!(why(name).len() <= 200, "{name}");
            for (_, take_away) in w.ablations {
                let mut ablated = build(name, 7, 20).unwrap();
                take_away(&mut ablated);
                ablated
                    .experiment
                    .platform
                    .cluster
                    .validate()
                    .expect("valid ablation");
            }
        }
        assert!(build("nope", 7, 1).is_none());
        let faults = build("faults_open_planes", 7, 1).unwrap();
        assert_eq!(faults.scripted_faults(), 10);
        assert!(!faults.healthy());
        assert!(build("bismar_scans_rf5", 7, 1).unwrap().healthy());
    }
}
