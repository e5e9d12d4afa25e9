//! High-level experiment API: configure a platform, a workload and one or
//! more consistency policies, run them (in parallel on the rayon pool) and
//! collect comparable [`RunReport`]s.
//!
//! [`Experiment::sweep`] is the one parallel loop over experiment points: a
//! `(policy × seed)` grid whose every point owns its cluster and runtime and
//! derives all randomness from its seed. The pool recombines results in
//! input order, so a sweep returns byte-identical reports for any thread
//! count (`RAYON_NUM_THREADS`, a `ThreadPool::install` scope, or the machine
//! default). [`Experiment::compare`] is the one-seed grid.
//!
//! This is the entry point the examples, the integration tests, the
//! `concord-bench` experiment binaries and the benchmark harness all use.

use crate::platforms::Platform;
use concord_cluster::Cluster;
use concord_core::{
    AdaptiveRuntime, BismarConfig, BismarPolicy, ConsistencyPolicy, HarmonyPolicy, RunReport,
    RuntimeConfig, Scenario, StaticPolicy,
};
use concord_monitor::MonitorConfig;
use concord_sim::SimDuration;
use concord_workload::{ArrivalProcess, CoreWorkload, WorkloadConfig};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A serializable description of the policy to run (so experiment sweeps can
/// be constructed declaratively and executed in parallel).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// Static eventual consistency (ONE/ONE).
    Eventual,
    /// Static strong consistency (read ALL).
    Strong,
    /// Static quorum reads and writes.
    Quorum,
    /// A fixed number of read replicas with writes at ONE
    /// (used by the read-level sweeps; this is the knob Harmony tunes).
    FixedReadReplicas(u32),
    /// The same fixed level for both reads and writes (ONE/ONE, QUORUM/QUORUM,
    /// ALL/ALL, …) — the way the paper's cost experiments sweep Cassandra's
    /// per-operation consistency level.
    SymmetricLevel(u32),
    /// Harmony with the given tolerated stale-read rate.
    Harmony {
        /// Tolerated stale-read rate (fraction).
        tolerance: f64,
    },
    /// Bismar with its default configuration and the platform's pricing.
    Bismar,
}

impl PolicySpec {
    /// Instantiate the live policy for a platform.
    pub fn instantiate(&self, platform: &Platform) -> Box<dyn ConsistencyPolicy> {
        match self {
            PolicySpec::Eventual => Box::new(StaticPolicy::eventual()),
            PolicySpec::Strong => Box::new(StaticPolicy::strong()),
            PolicySpec::Quorum => Box::new(StaticPolicy::quorum()),
            PolicySpec::FixedReadReplicas(n) => Box::new(StaticPolicy::fixed(
                concord_cluster::ConsistencyLevel::from_replica_count(
                    *n,
                    platform.cluster.replication_factor,
                ),
                concord_cluster::ConsistencyLevel::One,
            )),
            PolicySpec::SymmetricLevel(n) => {
                let level = concord_cluster::ConsistencyLevel::from_replica_count(
                    *n,
                    platform.cluster.replication_factor,
                );
                Box::new(StaticPolicy::fixed(level, level))
            }
            PolicySpec::Harmony { tolerance } => {
                Box::new(HarmonyPolicy::with_tolerance(*tolerance))
            }
            PolicySpec::Bismar => Box::new(BismarPolicy::new(BismarConfig {
                pricing: platform.pricing,
            })),
        }
    }

    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            PolicySpec::Eventual => "eventual(ONE)".into(),
            PolicySpec::Strong => "strong(ALL)".into(),
            PolicySpec::Quorum => "quorum".into(),
            PolicySpec::FixedReadReplicas(n) => format!("read-level({n})"),
            PolicySpec::SymmetricLevel(n) => format!("level({n}/{n})"),
            PolicySpec::Harmony { tolerance } => format!("harmony({:.0}%)", tolerance * 100.0),
            PolicySpec::Bismar => "bismar".into(),
        }
    }
}

/// An experiment: one platform, one workload, several policies to compare.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The platform to deploy on.
    pub platform: Platform,
    /// The workload to run (each policy runs the same workload).
    pub workload: WorkloadConfig,
    /// Number of closed-loop clients.
    pub clients: u32,
    /// Adaptation interval for adaptive policies.
    pub adaptation_interval: SimDuration,
    /// RNG seed (the same seed is used for every policy, so runs differ only
    /// in the consistency decisions).
    pub seed: u64,
    /// The scenario every policy runs under (arrival mode + fault script).
    /// `None` means the historical healthy closed loop of `clients` clients;
    /// when set, the scenario's arrival mode wins over `clients`.
    pub scenario: Option<Scenario>,
}

impl Experiment {
    /// Create an experiment with sensible defaults (32 clients, 1 s
    /// adaptation interval, seed 42).
    pub fn new(platform: Platform, workload: WorkloadConfig) -> Self {
        Experiment {
            platform,
            workload,
            clients: 32,
            adaptation_interval: SimDuration::from_secs(1),
            seed: 42,
            scenario: None,
        }
    }

    /// Set the number of closed-loop clients.
    pub fn with_clients(mut self, clients: u32) -> Self {
        self.clients = clients;
        self
    }

    /// Set the adaptation interval.
    pub fn with_adaptation_interval(mut self, interval: SimDuration) -> Self {
        self.adaptation_interval = interval;
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the scenario (arrival mode + fault script) every policy runs
    /// under. The scenario's arrival mode takes precedence over
    /// [`Experiment::with_clients`].
    pub fn with_scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Override just the arrival mode, keeping any fault script already
    /// configured (creates a fault-free scenario if none is set).
    pub fn with_arrival(mut self, arrival: ArrivalProcess) -> Self {
        match &mut self.scenario {
            Some(s) => s.arrival = arrival,
            None => {
                self.scenario = Some(Scenario {
                    arrival,
                    faults: Vec::new(),
                })
            }
        }
        self
    }

    /// The scenario this experiment runs: the configured one, or the
    /// historical healthy closed loop of `clients` clients.
    pub fn scenario(&self) -> Scenario {
        self.scenario
            .clone()
            .unwrap_or_else(|| Scenario::closed(self.clients))
    }

    fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig {
            clients: self.clients,
            think_time: SimDuration::ZERO,
            adaptation_interval: self.adaptation_interval,
            monitor: MonitorConfig::default(),
            pricing: Some(self.platform.pricing),
            max_outputs: u64::MAX,
        }
    }

    /// Build a loaded cluster ready to serve the experiment's workload.
    pub fn build_cluster(&self) -> Cluster {
        let mut cluster = Cluster::new(self.platform.cluster.clone(), self.seed);
        let record_size = self.workload.record_size();
        cluster.load_records((0..self.workload.record_count).map(move |k| (k, record_size)));
        cluster
    }

    /// Run a single policy under the experiment's scenario and return its
    /// report. Every entry point funnels through here, so closed-loop,
    /// open-loop and fault-script runs all share one driver
    /// ([`AdaptiveRuntime::run_scenario`]).
    pub fn run_policy(&self, policy: &mut dyn ConsistencyPolicy) -> RunReport {
        let mut cluster = self.build_cluster();
        let mut workload = CoreWorkload::new(self.workload.clone());
        let mut runtime = AdaptiveRuntime::new(self.runtime_config(), self.seed);
        runtime.run_scenario(&mut cluster, &mut workload, policy, &self.scenario())
    }

    /// Run one policy specification.
    pub fn run_spec(&self, spec: &PolicySpec) -> RunReport {
        let mut policy = spec.instantiate(&self.platform);
        let mut report = self.run_policy(policy.as_mut());
        report.policy = spec.label();
        report
    }

    /// Run every `(spec, seed)` point **in parallel** (one pool task per
    /// point; each run owns its cluster, so there is no shared mutable
    /// state) and return the reports policy-major, seed-minor — byte-identical
    /// for any thread count.
    pub fn sweep(&self, specs: &[PolicySpec], seeds: &[u64]) -> Vec<RunReport> {
        let points: Vec<(&PolicySpec, u64)> = specs
            .iter()
            .flat_map(|spec| seeds.iter().map(move |&seed| (spec, seed)))
            .collect();
        points
            .into_par_iter()
            .map(|(spec, seed)| {
                Experiment {
                    seed,
                    ..self.clone()
                }
                .run_spec(spec)
            })
            .collect()
    }

    /// Run a set of policy specifications at the experiment's seed, in
    /// parallel, and return the reports in the same order.
    pub fn compare(&self, specs: &[PolicySpec]) -> Vec<RunReport> {
        self.sweep(specs, &[self.seed])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms;
    use concord_workload::presets;

    fn small_experiment() -> Experiment {
        let platform = platforms::grid5000_cost(0.15); // ~8 nodes, 2 sites, RF5
        let mut workload = presets::paper_heavy_read_update(1_500, 4_000);
        workload.field_count = 1;
        workload.field_length = 512;
        Experiment::new(platform, workload)
            .with_clients(16)
            .with_adaptation_interval(SimDuration::from_millis(200))
            .with_seed(7)
    }

    #[test]
    fn policy_specs_have_labels_and_instantiate() {
        let platform = platforms::laptop();
        for spec in [
            PolicySpec::Eventual,
            PolicySpec::Strong,
            PolicySpec::Quorum,
            PolicySpec::FixedReadReplicas(2),
            PolicySpec::SymmetricLevel(3),
            PolicySpec::Harmony { tolerance: 0.2 },
            PolicySpec::Bismar,
        ] {
            assert!(!spec.label().is_empty());
            let policy = spec.instantiate(&platform);
            assert!(!policy.name().is_empty());
        }
    }

    #[test]
    fn compare_runs_all_policies_on_the_same_workload() {
        let exp = small_experiment();
        let reports = exp.compare(&[
            PolicySpec::Eventual,
            PolicySpec::Strong,
            PolicySpec::Harmony { tolerance: 0.3 },
        ]);
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert_eq!(r.total_ops, 4_000, "{}", r.policy);
            assert!(r.throughput_ops_per_sec > 0.0);
            assert!(r.bill.is_some());
        }
        // Order matches the spec order and labels are applied.
        assert_eq!(reports[0].policy, "eventual(ONE)");
        assert_eq!(reports[1].policy, "strong(ALL)");
        assert!(reports[2].policy.starts_with("harmony"));
        // The headline shape: eventual is fastest and stalest.
        assert!(reports[0].throughput_ops_per_sec >= reports[1].throughput_ops_per_sec);
        assert!(reports[0].stale_read_rate >= reports[1].stale_read_rate);
    }

    #[test]
    fn identical_seeds_give_identical_reports() {
        let exp = small_experiment();
        let a = exp.run_spec(&PolicySpec::Quorum);
        let b = exp.run_spec(&PolicySpec::Quorum);
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_runs_every_point_policy_major_then_seed_minor() {
        let exp = small_experiment();
        let specs = [PolicySpec::Eventual, PolicySpec::Quorum];
        let reports = exp.sweep(&specs, &[1, 2, 3]);
        assert_eq!(reports.len(), 6);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.policy, specs[i / 3].label());
            assert_eq!(r.total_ops, 4_000);
        }
        // Point (quorum, seed 2) is the run of that policy at that seed.
        assert_eq!(
            reports[4],
            exp.clone().with_seed(2).run_spec(&PolicySpec::Quorum)
        );
        // Different seeds shuffle the workload.
        assert_ne!(reports[0], reports[1]);
    }
}
