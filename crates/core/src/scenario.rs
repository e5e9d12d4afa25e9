//! Scenarios: the unified description of *how a run drives the cluster*.
//!
//! The paper's evaluation drives every experiment with a closed loop of
//! YCSB threads against a healthy cluster. The trade-off the adaptive
//! policies manage, however, is defined under **offered load** (open-loop
//! arrivals at a fixed rate, regardless of completions) and **replica
//! divergence under stress** (crashed nodes, partitioned datacenters,
//! degraded links) — so a [`Scenario`] describes both knobs declaratively:
//!
//! * an **arrival mode** — a [`ArrivalProcess`]: closed-loop N clients
//!   (think time optional), or an open-loop Poisson / uniform schedule that
//!   is submitted up front through `Cluster::submit_batch` and waits as
//!   arrival events in the event queue's O(1) bulk lane, each operation
//!   taking op state only when it arrives;
//! * a **fault script** — a list of [`FaultEvent`]s, each a time offset from
//!   the run start plus a [`FaultAction`] (node crash/recover with ring
//!   reconfiguration, transient down/up, DC partition/heal, link-class
//!   degradation/restore, gray failure, whole-DC outage), which the
//!   scenario driver
//!   ([`AdaptiveRuntime::run_scenario`](crate::AdaptiveRuntime::run_scenario))
//!   schedules in the cluster next to the policy's adaptation epochs.
//!
//! Scenarios are plain serializable data, so `(arrival mode × topology ×
//! fault script × seed)` grids compose exactly like the policy × seed grids
//! of the sweep engine, with the same determinism contract: a run is a pure
//! function of the scenario and the seed. The *fault-script format* is the
//! JSON serialization of these types, and each action's is that of
//! `concord_cluster::FaultAction` (re-exported here), which also owns what
//! every action does and the one rule it must satisfy.
//!
//! ```
//! use concord_core::{FaultAction, FaultEvent, Scenario};
//! use concord_sim::SimDuration;
//!
//! let scenario = Scenario::open_poisson(5_000.0).with_faults(vec![
//!     FaultEvent::at_secs(2.0, FaultAction::CrashNode(3)),
//!     FaultEvent::at_secs(6.0, FaultAction::RecoverNode(3)),
//!     FaultEvent::at_secs(8.0, FaultAction::PartitionDcs(0, 1)),
//!     FaultEvent::at_secs(12.0, FaultAction::HealDcs(0, 1)),
//! ]);
//! assert_eq!(scenario.faults.len(), 4);
//! let json = serde_json::to_string(&scenario).unwrap();
//! let back: Scenario = serde_json::from_str(&json).unwrap();
//! assert_eq!(scenario, back);
//! ```

use concord_cluster::ClusterConfig;
pub use concord_cluster::FaultAction;
use concord_sim::SimDuration;
use concord_workload::ArrivalProcess;
use serde::{Deserialize, Serialize};

/// A scripted fault: an offset from the run start plus the action to apply.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault fires, relative to the start of the run.
    pub at: SimDuration,
    /// What happens.
    pub action: FaultAction,
}

impl FaultEvent {
    /// A fault at an offset given in (fractional) seconds.
    pub fn at_secs(secs: f64, action: FaultAction) -> Self {
        FaultEvent {
            at: SimDuration::from_secs_f64(secs),
            action,
        }
    }
}

/// A scenario: arrival mode plus fault script. See the module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// How client operations arrive (closed loop or open loop).
    pub arrival: ArrivalProcess,
    /// Timed fault script, sorted by offset (enforced by
    /// [`Scenario::with_faults`]). Faults scheduled past the end of the run
    /// never fire — the driver stops once the workload completes.
    pub faults: Vec<FaultEvent>,
}

impl Scenario {
    /// A healthy closed loop of `clients` zero-think-time clients — the
    /// paper's YCSB setup and the historical behaviour of
    /// [`AdaptiveRuntime::run`](crate::AdaptiveRuntime::run).
    pub fn closed(clients: u32) -> Self {
        Scenario {
            arrival: ArrivalProcess::closed(clients),
            faults: Vec::new(),
        }
    }

    /// A closed loop with a per-client think time.
    pub fn closed_with_think(clients: u32, think_time: SimDuration) -> Self {
        Scenario {
            arrival: ArrivalProcess::ClosedLoop {
                clients,
                think_time_us: think_time.as_micros(),
            },
            faults: Vec::new(),
        }
    }

    /// An open-loop Poisson arrival schedule at a fixed offered load.
    pub fn open_poisson(ops_per_sec: f64) -> Self {
        Scenario {
            arrival: ArrivalProcess::OpenLoopPoisson { ops_per_sec },
            faults: Vec::new(),
        }
    }

    /// An open-loop deterministic (uniform-gap) arrival schedule.
    pub fn open_uniform(ops_per_sec: f64) -> Self {
        Scenario {
            arrival: ArrivalProcess::OpenLoopUniform { ops_per_sec },
            faults: Vec::new(),
        }
    }

    /// Attach a fault script (sorted by offset; the sort is stable, so
    /// same-instant faults keep their script order).
    pub fn with_faults(mut self, mut faults: Vec<FaultEvent>) -> Self {
        faults.sort_by_key(|f| f.at);
        self.faults = faults;
        self
    }

    /// Check the scenario against the platform it is about to run on,
    /// before anything runs: scenarios are outside input (this type is
    /// `Deserialize`). The arrival process must pass
    /// [`ArrivalProcess::check`] (the error reads `arrival: <why>`), and
    /// every action of the fault script must pass [`FaultAction::check`]
    /// under `config` (the error names the first offending fault, as
    /// `fault N, <label>: <why>`).
    pub fn validate(&self, config: &ClusterConfig) -> Result<(), String> {
        self.arrival.check().map_err(|e| format!("arrival: {e}"))?;
        self.faults.iter().enumerate().try_for_each(|(i, fault)| {
            let action = &fault.action;
            action
                .check(config)
                .map_err(|e| format!("fault {i}, {}: {e}", action.label()))
        })
    }

    /// True when the arrival mode is a closed loop.
    pub fn is_closed_loop(&self) -> bool {
        self.arrival.concurrency().is_some()
    }

    /// Short label for banners and tables, e.g. `closed(32)` or
    /// `poisson(5000/s)+3 faults`.
    pub fn label(&self) -> String {
        let arrival = match self.arrival {
            ArrivalProcess::ClosedLoop {
                clients,
                think_time_us: 0,
            } => format!("closed({clients})"),
            ArrivalProcess::ClosedLoop {
                clients,
                think_time_us,
            } => format!("closed({clients},think={think_time_us}us)"),
            ArrivalProcess::OpenLoopPoisson { ops_per_sec } => {
                format!("poisson({ops_per_sec:.0}/s)")
            }
            ArrivalProcess::OpenLoopUniform { ops_per_sec } => {
                format!("uniform({ops_per_sec:.0}/s)")
            }
        };
        if self.faults.is_empty() {
            arrival
        } else {
            format!("{arrival}+{} faults", self.faults.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_cluster::Cluster;
    use concord_sim::{LinkClass, NodeId, SimTime};

    #[test]
    fn constructors_and_labels() {
        assert_eq!(Scenario::closed(32).label(), "closed(32)");
        assert_eq!(
            Scenario::closed_with_think(8, SimDuration::from_micros(500)).label(),
            "closed(8,think=500us)"
        );
        assert_eq!(Scenario::open_poisson(5000.0).label(), "poisson(5000/s)");
        assert!(Scenario::closed(4).is_closed_loop());
        assert!(!Scenario::open_uniform(100.0).is_closed_loop());
        let s = Scenario::open_uniform(100.0)
            .with_faults(vec![FaultEvent::at_secs(1.0, FaultAction::CrashNode(0))]);
        assert_eq!(s.label(), "uniform(100/s)+1 faults");
    }

    #[test]
    fn fault_scripts_sort_stably_by_offset() {
        let s = Scenario::closed(1).with_faults(vec![
            FaultEvent::at_secs(5.0, FaultAction::RecoverNode(1)),
            FaultEvent::at_secs(1.0, FaultAction::CrashNode(1)),
            FaultEvent::at_secs(5.0, FaultAction::PartitionDcs(0, 1)),
        ]);
        assert_eq!(s.faults[0].action, FaultAction::CrashNode(1));
        assert_eq!(s.faults[1].action, FaultAction::RecoverNode(1));
        assert_eq!(s.faults[2].action, FaultAction::PartitionDcs(0, 1));
    }

    #[test]
    fn actions_apply_to_a_live_cluster() {
        let mut cluster = Cluster::new(ClusterConfig::lan_test(4, 3), 1);
        cluster.inject(FaultAction::CrashNode(2));
        assert!(cluster.is_node_crashed(NodeId(2)));
        cluster.inject(FaultAction::RecoverNode(2));
        assert!(!cluster.is_node_crashed(NodeId(2)));
        cluster.inject(FaultAction::NodeDown(1));
        assert!(cluster.is_node_down(NodeId(1)));
        cluster.inject(FaultAction::NodeUp(1));
        assert!(!cluster.is_node_down(NodeId(1)));
        cluster.inject(FaultAction::DegradeLink(LinkClass::IntraDc, 4.0));
        cluster.inject(FaultAction::RestoreLink(LinkClass::IntraDc));
        cluster.inject(FaultAction::SlowNode(3, 10.0));
        assert_eq!(cluster.node_slow_factor(NodeId(3)), 10.0);
        cluster.inject(FaultAction::RestoreNode(3));
        assert_eq!(cluster.node_slow_factor(NodeId(3)), 1.0);
        // Single-DC topology: the whole cluster is DC 0.
        cluster.inject(FaultAction::DcDown(0));
        assert!(cluster.is_node_down(NodeId(0)));
        cluster.inject(FaultAction::DcUp(0));
        assert!(!cluster.is_node_down(NodeId(0)));
        assert_eq!(cluster.metrics().faults_injected, 10);
    }

    /// The validation error of a one-fault script on a 4-node, one-datacenter
    /// platform.
    fn rejection(action: FaultAction) -> String {
        Scenario::closed(1)
            .with_faults(vec![FaultEvent::at_secs(1.0, action)])
            .validate(&ClusterConfig::lan_test(4, 3))
            .expect_err("the script must be rejected")
    }

    #[test]
    fn a_script_naming_a_missing_node_is_rejected() {
        let why = rejection(FaultAction::CrashNode(99));
        assert!(why.contains("crash(node99)") && why.contains("no node 99 among 4"));
        assert!(rejection(FaultAction::NodeUp(4)).contains("no node 4"));
        assert!(rejection(FaultAction::SlowNode(7, 2.0)).contains("no node 7"));
    }

    #[test]
    fn a_script_naming_a_missing_datacenter_is_rejected() {
        // `PartitionDcs(0, 9)` used to be a silent no-op.
        assert!(rejection(FaultAction::PartitionDcs(0, 9)).contains("no datacenter 9 among 1"));
        assert!(rejection(FaultAction::DcDown(1)).contains("no datacenter 1"));
    }

    #[test]
    fn a_partition_of_a_datacenter_from_itself_is_rejected() {
        assert!(rejection(FaultAction::PartitionDcs(0, 0)).contains("from itself"));
        assert!(rejection(FaultAction::HealDcs(0, 0)).contains("from itself"));
    }

    #[test]
    fn a_degrade_factor_that_is_not_finite_and_positive_is_rejected() {
        for f in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let why = rejection(FaultAction::DegradeLink(LinkClass::InterDc, f));
            assert!(why.contains("degrade factor"), "{f}: {why}");
        }
    }

    #[test]
    fn a_slow_factor_below_one_is_rejected() {
        for f in [0.5, 0.0, f64::NAN] {
            let why = rejection(FaultAction::SlowNode(3, f));
            assert!(why.contains("slow factor"), "{f}: {why}");
        }
    }

    #[test]
    fn a_factor_past_a_million_is_rejected_before_the_run() {
        // Both used to pass and then panic with `simulated time overflow`
        // on the first delay they scaled.
        for action in [
            FaultAction::SlowNode(0, 1e300),
            FaultAction::DegradeLink(LinkClass::InterDc, 1e300),
        ] {
            let why = rejection(action);
            assert!(why.ends_with("exceeds the bound 1e6"), "{why}");
            let mut cluster = Cluster::new(ClusterConfig::lan_test(4, 3), 1);
            let inject = std::panic::AssertUnwindSafe(|| cluster.inject(action));
            let panic = std::panic::catch_unwind(inject).expect_err("inject must panic");
            let message = panic.downcast::<String>().expect("a formatted message");
            assert!(
                why.ends_with(message.trim_start_matches("fault ")),
                "{message}"
            );
        }
    }

    #[test]
    fn a_fault_on_a_sharded_platform_is_rejected_before_the_run() {
        // One reason from all three doors: the scenario, `inject` and
        // `schedule_fault`.
        let mut config = ClusterConfig::lan_test(4, 3);
        config.shards = 2;
        let action = FaultAction::NodeDown(1);
        let why = Scenario::closed(1)
            .with_faults(vec![FaultEvent::at_secs(1.0, action)])
            .validate(&config)
            .unwrap_err();
        let reason = "faults need the one-shard engine (this cluster runs 2 shards)";
        assert_eq!(why, format!("fault 0, down(node1): {reason}"));
        let mut cluster = Cluster::new(config, 1);
        for message in [
            panic_message(|| cluster.inject(action)),
            panic_message(|| cluster.schedule_fault(SimTime::ZERO, action)),
        ] {
            assert_eq!(message, format!("fault down(node1): {reason}"));
        }
    }

    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce()) -> String {
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        *panic
            .expect_err("the call must panic")
            .downcast::<String>()
            .expect("a formatted message")
    }

    /// The validation error of `scenario` on a healthy 4-node platform.
    fn arrival_rejection(scenario: Scenario) -> String {
        scenario
            .validate(&ClusterConfig::lan_test(4, 3))
            .expect_err("the arrival process must be rejected")
    }

    #[test]
    fn a_negative_or_non_finite_open_loop_rate_is_rejected() {
        // Each used to put every arrival at the start instant.
        for rate in [-5.0, f64::NAN, f64::INFINITY] {
            let why = format!("arrival: rate {rate} ops/s is not finite and positive");
            assert_eq!(arrival_rejection(Scenario::open_poisson(rate)), why);
            assert_eq!(arrival_rejection(Scenario::open_uniform(rate)), why);
        }
    }

    #[test]
    fn an_open_loop_rate_of_zero_is_rejected() {
        // It used to panic with `simulated time overflow` at the first
        // arrival.
        let why = "arrival: rate 0 ops/s is not finite and positive";
        assert_eq!(arrival_rejection(Scenario::open_poisson(0.0)), why);
        assert_eq!(arrival_rejection(Scenario::open_uniform(0.0)), why);
    }

    #[test]
    fn a_closed_loop_without_clients_is_rejected() {
        // It used to pass and trip the driver's own assert once the
        // cluster was built.
        assert_eq!(
            arrival_rejection(Scenario::closed(0)),
            "arrival: a closed loop needs at least one client"
        );
        let sound = Scenario::closed(1).validate(&ClusterConfig::lan_test(4, 3));
        assert_eq!(sound, Ok(()));
    }

    #[test]
    fn a_sound_script_validates_and_the_error_names_the_first_bad_fault() {
        let config = ClusterConfig::lan_test(4, 3);
        let mut script = Scenario::open_poisson(100.0).with_faults(vec![
            FaultEvent::at_secs(1.0, FaultAction::CrashNode(3)),
            FaultEvent::at_secs(2.0, FaultAction::SlowNode(0, 1.0)),
            FaultEvent::at_secs(3.0, FaultAction::DegradeLink(LinkClass::IntraDc, 0.5)),
            FaultEvent::at_secs(4.0, FaultAction::DcUp(0)),
        ]);
        assert_eq!(script.validate(&config), Ok(()));
        script.faults[2].action = FaultAction::RecoverNode(4);
        script.faults[3].action = FaultAction::DcUp(5);
        let why = script.validate(&config).unwrap_err();
        assert!(why.starts_with("fault 2, recover(node4)"), "{why}");
    }

    #[test]
    fn scenario_serde_round_trip() {
        let s = Scenario::open_poisson(2_500.0).with_faults(vec![
            FaultEvent::at_secs(1.5, FaultAction::CrashNode(3)),
            FaultEvent::at_secs(3.0, FaultAction::DegradeLink(LinkClass::InterDc, 8.0)),
            FaultEvent::at_secs(4.0, FaultAction::HealDcs(0, 1)),
        ]);
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn gray_failure_actions_round_trip_in_the_script_format() {
        // The PR 9 additions ride the same externally-tagged wire format as
        // every older action, so scripts mixing old and new variants
        // round-trip unchanged.
        let s = Scenario::open_poisson(1_000.0).with_faults(vec![
            FaultEvent::at_secs(1.0, FaultAction::SlowNode(2, 10.0)),
            FaultEvent::at_secs(2.0, FaultAction::DcDown(1)),
            FaultEvent::at_secs(3.0, FaultAction::DcUp(1)),
            FaultEvent::at_secs(4.0, FaultAction::RestoreNode(2)),
            FaultEvent::at_secs(5.0, FaultAction::CrashNode(0)),
        ]);
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        assert_eq!(s.faults[0].action.label(), "slow(node2,10x)");
        assert_eq!(s.faults[1].action.label(), "dc-down(dc1)");
        assert_eq!(s.faults[2].action.label(), "dc-up(dc1)");
        assert_eq!(s.faults[3].action.label(), "restore(node2)");
        // The explicit wire spelling of the new variants, pinned so future
        // refactors cannot silently change the script format.
        let wire: FaultAction = serde_json::from_str(r#"{"SlowNode": [2, 10.0]}"#).unwrap();
        assert_eq!(wire, FaultAction::SlowNode(2, 10.0));
        let wire: FaultAction = serde_json::from_str(r#"{"DcDown": 1}"#).unwrap();
        assert_eq!(wire, FaultAction::DcDown(1));
    }

    #[test]
    fn fault_scripts_written_before_the_repair_plane_still_load() {
        // A raw script in the wire format that predates the repair plane
        // (PR 6): the scenario schema carries no repair fields, so scripts
        // serialized back then must keep deserializing unchanged. This
        // literal is the pinned pre-PR-6 format — do not regenerate it from
        // the current serializer.
        let json = r#"{
            "arrival": {"OpenLoopPoisson": {"ops_per_sec": 2500.0}},
            "faults": [
                {"at": 1500000, "action": {"CrashNode": 3}},
                {"at": 3000000, "action": {"DegradeLink": ["InterDc", 8.0]}},
                {"at": 4000000, "action": {"HealDcs": [0, 1]}}
            ]
        }"#;
        let script: Scenario = serde_json::from_str(json).unwrap();
        let expected = Scenario::open_poisson(2_500.0).with_faults(vec![
            FaultEvent::at_secs(1.5, FaultAction::CrashNode(3)),
            FaultEvent::at_secs(3.0, FaultAction::DegradeLink(LinkClass::InterDc, 8.0)),
            FaultEvent::at_secs(4.0, FaultAction::HealDcs(0, 1)),
        ]);
        assert_eq!(script, expected);
        assert_eq!(script.label(), "poisson(2500/s)+3 faults");
    }
}
