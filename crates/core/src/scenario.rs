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
//!   is bulk-loaded through `Cluster::submit_batch` and the event queue's
//!   O(1) bulk lane;
//! * a **fault script** — a list of [`FaultEvent`]s, each a time offset from
//!   the run start plus a [`FaultAction`] (node crash/recover with ring
//!   reconfiguration, transient down/up, DC partition/heal, link-class
//!   degradation/restore), which the scenario driver
//!   ([`AdaptiveRuntime::run_scenario`](crate::AdaptiveRuntime::run_scenario))
//!   interleaves with the policy's adaptation epochs.
//!
//! Scenarios are plain serializable data (the *fault-script format* is the
//! JSON serialization of this module's types), so `(arrival mode × topology
//! × fault script × seed)` grids compose exactly like the policy × seed
//! grids of the sweep engine, with the same determinism contract: a run is
//! a pure function of the scenario and the seed.
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

use concord_cluster::{Cluster, ClusterConfig};
use concord_sim::{DcId, LinkClass, NodeId, SimDuration};
use concord_workload::ArrivalProcess;
use serde::{Deserialize, Serialize};

/// One fault-injection action, applied to the live cluster at its scripted
/// time. Node and datacenter ids are raw integers so scripts stay trivially
/// serializable and topology-independent to write.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Crash a node permanently: it goes down and its vnode tokens are
    /// withdrawn from the ring, so surviving nodes take over its ranges
    /// (`Cluster::crash_node`).
    CrashNode(u32),
    /// Recover a crashed node: it rejoins the ring at its original token
    /// positions; missed writes are repaired lazily by read repair.
    RecoverNode(u32),
    /// Transient outage: the node stops serving but keeps its ring tokens
    /// (`Cluster::set_node_down`) — requests routed to it are lost.
    NodeDown(u32),
    /// End of a transient outage.
    NodeUp(u32),
    /// Partition two datacenters: messages between their nodes are lost in
    /// transit until healed.
    PartitionDcs(u16, u16),
    /// Heal a datacenter partition.
    HealDcs(u16, u16),
    /// Degrade a link class: every delay sample on it is multiplied by the
    /// factor (e.g. 8.0 for a WAN brown-out).
    DegradeLink(LinkClass, f64),
    /// Restore a degraded link class to healthy latency.
    RestoreLink(LinkClass),
    /// Gray-fail a node: its storage service times and the responses it
    /// emits are multiplied by the factor (`Cluster::slow_node`). The node
    /// stays up and answers everything — just late, the failure mode crash
    /// detection misses.
    SlowNode(u32, f64),
    /// Restore a gray-failed node to healthy speed.
    RestoreNode(u32),
    /// Correlated whole-datacenter outage: every node in the DC goes
    /// transiently down at once (`Cluster::dc_down`).
    DcDown(u16),
    /// End of a whole-datacenter outage: every non-crashed node in the DC
    /// comes back up.
    DcUp(u16),
}

impl FaultAction {
    /// Apply this action to the cluster.
    pub fn apply(&self, cluster: &mut Cluster) {
        match *self {
            FaultAction::CrashNode(n) => cluster.crash_node(NodeId(n)),
            FaultAction::RecoverNode(n) => cluster.recover_node(NodeId(n)),
            FaultAction::NodeDown(n) => cluster.set_node_down(NodeId(n)),
            FaultAction::NodeUp(n) => cluster.set_node_up(NodeId(n)),
            FaultAction::PartitionDcs(a, b) => cluster.partition_dcs(DcId(a), DcId(b)),
            FaultAction::HealDcs(a, b) => cluster.heal_dcs(DcId(a), DcId(b)),
            FaultAction::DegradeLink(class, factor) => cluster.degrade_link(class, factor),
            FaultAction::RestoreLink(class) => cluster.restore_link(class),
            FaultAction::SlowNode(n, factor) => cluster.slow_node(NodeId(n), factor),
            FaultAction::RestoreNode(n) => cluster.restore_node(NodeId(n)),
            FaultAction::DcDown(dc) => cluster.dc_down(DcId(dc)),
            FaultAction::DcUp(dc) => cluster.dc_up(DcId(dc)),
        }
    }

    /// Whether this action can be applied to a platform of `nodes` nodes in
    /// `dcs` datacenters: node ids and datacenter ids must exist, a
    /// partition needs two distinct datacenters, a degrade factor must be
    /// finite and positive and a slow factor finite and at least 1.
    fn check(&self, nodes: usize, dcs: usize) -> Result<(), String> {
        fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
            ok.then_some(()).ok_or_else(why)
        }
        let node = |n: u32| {
            ensure((n as usize) < nodes, || {
                format!("no node {n} among {nodes}")
            })
        };
        let dc = |d: u16| {
            ensure((d as usize) < dcs, || {
                format!("no datacenter {d} among {dcs}")
            })
        };
        match *self {
            FaultAction::CrashNode(n)
            | FaultAction::RecoverNode(n)
            | FaultAction::NodeDown(n)
            | FaultAction::NodeUp(n)
            | FaultAction::RestoreNode(n) => node(n),
            FaultAction::SlowNode(n, f) => node(n).and_then(|()| {
                let sound = f.is_finite() && f >= 1.0;
                ensure(sound, || {
                    format!("slow factor {f} is not finite and at least 1")
                })
            }),
            FaultAction::PartitionDcs(a, b) | FaultAction::HealDcs(a, b) => {
                let distinct = || format!("datacenter {a} is not partitioned from itself");
                dc(a)
                    .and_then(|()| dc(b))
                    .and_then(|()| ensure(a != b, distinct))
            }
            FaultAction::DegradeLink(_, f) => {
                let sound = f.is_finite() && f > 0.0;
                ensure(sound, || {
                    format!("degrade factor {f} is not finite and positive")
                })
            }
            FaultAction::RestoreLink(_) => Ok(()),
            FaultAction::DcDown(d) | FaultAction::DcUp(d) => dc(d),
        }
    }

    /// Short label for logs and tables.
    pub fn label(&self) -> String {
        match *self {
            FaultAction::CrashNode(n) => format!("crash(node{n})"),
            FaultAction::RecoverNode(n) => format!("recover(node{n})"),
            FaultAction::NodeDown(n) => format!("down(node{n})"),
            FaultAction::NodeUp(n) => format!("up(node{n})"),
            FaultAction::PartitionDcs(a, b) => format!("partition(dc{a}|dc{b})"),
            FaultAction::HealDcs(a, b) => format!("heal(dc{a}|dc{b})"),
            FaultAction::DegradeLink(class, f) => format!("degrade({class},{f}x)"),
            FaultAction::RestoreLink(class) => format!("restore({class})"),
            FaultAction::SlowNode(n, f) => format!("slow(node{n},{f}x)"),
            FaultAction::RestoreNode(n) => format!("restore(node{n})"),
            FaultAction::DcDown(dc) => format!("dc-down(dc{dc})"),
            FaultAction::DcUp(dc) => format!("dc-up(dc{dc})"),
        }
    }
}

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

    /// Check the fault script against the platform it is about to run on.
    /// Scripts are outside input (this type is `Deserialize`), and a bad
    /// one would otherwise fail — or silently do nothing — only when its
    /// offset comes up, possibly minutes into a run: every node id and
    /// datacenter id must exist under `config`, a partition needs two
    /// distinct datacenters, a degrade factor must be finite and positive
    /// and a slow factor finite and at least 1. The error names the first
    /// offending fault.
    pub fn validate(&self, config: &ClusterConfig) -> Result<(), String> {
        let nodes = config.topology.node_count();
        let dcs = config.topology.dc_count();
        self.faults.iter().enumerate().try_for_each(|(i, fault)| {
            let action = &fault.action;
            action
                .check(nodes, dcs)
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
    use concord_cluster::ClusterConfig;

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
        FaultAction::CrashNode(2).apply(&mut cluster);
        assert!(cluster.is_node_crashed(NodeId(2)));
        FaultAction::RecoverNode(2).apply(&mut cluster);
        assert!(!cluster.is_node_crashed(NodeId(2)));
        FaultAction::NodeDown(1).apply(&mut cluster);
        assert!(cluster.is_node_down(NodeId(1)));
        FaultAction::NodeUp(1).apply(&mut cluster);
        assert!(!cluster.is_node_down(NodeId(1)));
        FaultAction::PartitionDcs(0, 0).apply(&mut cluster); // same DC: no-op
        assert!(!cluster.dcs_partitioned(DcId(0), DcId(0)));
        FaultAction::DegradeLink(LinkClass::IntraDc, 4.0).apply(&mut cluster);
        FaultAction::RestoreLink(LinkClass::IntraDc).apply(&mut cluster);
        FaultAction::SlowNode(3, 10.0).apply(&mut cluster);
        assert_eq!(cluster.node_slow_factor(NodeId(3)), 10.0);
        FaultAction::RestoreNode(3).apply(&mut cluster);
        assert_eq!(cluster.node_slow_factor(NodeId(3)), 1.0);
        // Single-DC topology: the whole cluster is DC 0.
        FaultAction::DcDown(0).apply(&mut cluster);
        assert!(cluster.is_node_down(NodeId(0)));
        FaultAction::DcUp(0).apply(&mut cluster);
        assert!(!cluster.is_node_down(NodeId(0)));
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
