//! Faults: the one type that describes them ([`FaultAction`]), its one
//! validity rule ([`FaultAction::check`]), the one mutator
//! ([`Cluster::inject`]), and the state they write — which nodes are down
//! or crashed, which datacenter pairs are partitioned, and the delay
//! multipliers of degraded links and gray-failed nodes.
//!
//! **State.** [`FaultState`] is part of the read-only [`ClusterShared`](super::ClusterShared)
//! snapshot. The message path only asks it questions — is this node down
//! ([`FaultState::is_down`]), does this link deliver
//! ([`FaultState::link_up`]), how does a sampled delay scale
//! ([`FaultState::scale_link`], [`FaultState::scale_node`]) — and only
//! [`Cluster::inject`] writes it, between events, where `&mut Cluster`
//! proves exclusivity. Both multipliers apply *after* sampling, so
//! injecting or lifting a fault never moves an RNG draw.
//!
//! **Events.** `Event::Fault`: [`Cluster::schedule_fault`] puts an action on
//! the control sink's lane, and the engine injects it when it pops the
//! event, at a serial point (`Cluster::dispatch_ctrl`). What a transition
//! schedules — sweeps, hint replays, recovery syncs — belongs to the repair
//! plane (`repair.rs`). Faults run on the one-shard engine only, so none of
//! this ever meets a lookahead window.

use super::{class_index, Cluster, Event};
use crate::config::ClusterConfig;
use crate::ring::Ring;
use concord_sim::{DcId, LinkClass, NodeId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The largest degrade or slow factor a fault may set: a million-fold
/// slowdown already turns a millisecond into a quarter hour, and a larger
/// one overflows simulated time on the first delay it scales.
const MAX_FACTOR: f64 = 1e6;

/// One fault transition. Node and datacenter ids are raw integers so fault
/// scripts stay trivially serializable and topology-independent to write;
/// [`FaultAction::check`] is what they must satisfy on a given platform.
///
/// Faults need the one-shard engine: on a cluster whose
/// [`ClusterConfig::effective_shards`] is above 1, `check` rejects every
/// action.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Crash a node permanently: it goes down **and** its vnode tokens are
    /// withdrawn from the ring, so its former ranges fall to the surviving
    /// nodes (what removing a Cassandra node does to ownership). Operations
    /// arriving after the crash target only surviving replicas; the
    /// effective replication factor is clamped to the survivor count. With
    /// anti-entropy, every survivor is synchronized for the ranges it just
    /// acquired instead of serving them from whatever is on disk.
    CrashNode(u32),
    /// Recover a crashed node: it rejoins the ring at its original token
    /// positions (tokens depend only on node and vnode ids) and comes back
    /// up. Without the repair plane, the writes it missed are repaired
    /// lazily by read repair; with it, queued hints replay and — under
    /// anti-entropy — a recovery sync streams the returned ranges back in.
    RecoverNode(u32),
    /// Transient outage: the node no longer applies writes nor answers
    /// reads, but keeps its ring tokens, so requests routed to it are lost.
    /// With hinted handoff, coordinators queue hints for it; with
    /// anti-entropy, the sweep cycle (re)starts.
    NodeDown(u32),
    /// End of a transient outage. Without the repair plane the node simply
    /// missed the writes of its outage; with hinted handoff its queued
    /// hints start replaying, and with anti-entropy the sweep cycle resumes
    /// to catch anything the hints missed.
    NodeUp(u32),
    /// Partition two datacenters: every message between their nodes is lost
    /// in transit (traffic is still accounted at the sender — the bytes left
    /// the NIC). In-flight replica work is unaffected; only deliveries after
    /// the partition starts are dropped.
    PartitionDcs(u16, u16),
    /// Heal a datacenter partition (nothing happens if the pair is not
    /// partitioned). Replicas that missed writes are repaired lazily by read
    /// repair and, with anti-entropy, by the sweep cycle, which resumes.
    HealDcs(u16, u16),
    /// Degrade a link class: every later delay sample on it is multiplied by
    /// the factor (e.g. 8.0 for a WAN brown-out). Read-replica selection
    /// keeps ranking by the healthy mean-latency table, like a snitch
    /// working from stale scores.
    DegradeLink(LinkClass, f64),
    /// Restore a degraded link class to healthy latency.
    RestoreLink(LinkClass),
    /// Gray-fail a node: every later storage service time on it and every
    /// response delay it emits is multiplied by the factor (10.0 models a
    /// node limping an order of magnitude slow). The node stays up and
    /// answers everything — just late, the failure mode crash detection
    /// misses.
    SlowNode(u32, f64),
    /// Restore a gray-failed node to healthy speed.
    RestoreNode(u32),
    /// Correlated whole-datacenter outage: every node of the DC goes
    /// transiently down at once (the ring keeps their tokens — a power or
    /// connectivity event, not decommissioning).
    DcDown(u16),
    /// End of a whole-datacenter outage: every node of the DC that is not
    /// crashed comes back up.
    DcUp(u16),
}

impl FaultAction {
    /// Whether this action can be applied to a cluster built from `config`:
    /// the cluster must run one shard, node ids and datacenter ids must
    /// exist, a partition needs two distinct datacenters, a degrade factor
    /// must be finite and positive and a slow factor at least 1 (a gray
    /// failure never speeds a node up), and neither factor may exceed a
    /// million. The error says which rule the action breaks.
    pub fn check(&self, config: &ClusterConfig) -> Result<(), String> {
        use FaultAction::*;
        let shards = config.effective_shards();
        if shards > 1 {
            return Err(format!(
                "faults need the one-shard engine (this cluster runs {shards} shards)"
            ));
        }
        let (nodes, dcs) = (config.topology.node_count(), config.topology.dc_count());
        let node = |n: u32| (n as usize >= nodes).then(|| format!("no node {n} among {nodes}"));
        let dc = |d: u16| (d as usize >= dcs).then(|| format!("no datacenter {d} among {dcs}"));
        let bounded = |name: &str, f: f64| {
            (f > MAX_FACTOR).then(|| format!("{name} factor {f} exceeds the bound {MAX_FACTOR:e}"))
        };
        let why = match *self {
            CrashNode(n) | RecoverNode(n) | NodeDown(n) | NodeUp(n) | RestoreNode(n) => node(n),
            SlowNode(n, f) => node(n)
                .or_else(|| {
                    let sound = f.is_finite() && f >= 1.0;
                    (!sound).then(|| format!("slow factor {f} is not finite and at least 1"))
                })
                .or_else(|| bounded("slow", f)),
            PartitionDcs(a, b) | HealDcs(a, b) => dc(a).or_else(|| dc(b)).or_else(|| {
                (a == b).then(|| format!("datacenter {a} is not partitioned from itself"))
            }),
            DegradeLink(_, f) => {
                let sound = f.is_finite() && f > 0.0;
                (!sound)
                    .then(|| format!("degrade factor {f} is not finite and positive"))
                    .or_else(|| bounded("degrade", f))
            }
            RestoreLink(_) => None,
            DcDown(d) | DcUp(d) => dc(d),
        };
        why.map_or(Ok(()), Err)
    }

    /// Short label for logs and tables.
    pub fn label(&self) -> String {
        use FaultAction::*;
        match *self {
            CrashNode(n) => format!("crash(node{n})"),
            RecoverNode(n) => format!("recover(node{n})"),
            NodeDown(n) => format!("down(node{n})"),
            NodeUp(n) => format!("up(node{n})"),
            PartitionDcs(a, b) => format!("partition(dc{a}|dc{b})"),
            HealDcs(a, b) => format!("heal(dc{a}|dc{b})"),
            DegradeLink(class, f) => format!("degrade({class},{f}x)"),
            RestoreLink(class) => format!("restore({class})"),
            SlowNode(n, f) => format!("slow(node{n},{f}x)"),
            RestoreNode(n) => format!("restore(node{n})"),
            DcDown(dc) => format!("dc-down(dc{dc})"),
            DcUp(dc) => format!("dc-up(dc{dc})"),
        }
    }
}

/// The injected faults currently in force (see the module docs).
#[derive(Default)]
pub(super) struct FaultState {
    /// Datacenter of every node (partition checks, whole-DC outages).
    node_dc: Vec<DcId>,
    /// Per-node down flags (transient outages; a crashed node is also down).
    down: Vec<bool>,
    /// Number of nodes currently marked down (fast path: pick a coordinator
    /// without materializing the up-node list).
    down_count: u32,
    /// Nodes permanently crashed (ring tokens withdrawn) as opposed to
    /// transiently down; a crashed node is also down.
    crashed: Vec<bool>,
    /// Currently partitioned datacenter pairs, normalized `(min, max)`.
    /// Messages between nodes of a partitioned pair are lost in transit.
    partitioned_dcs: Vec<(u16, u16)>,
    /// Per-link-class delay multiplier (1.0 = healthy), applied after
    /// sampling so the compiled samplers and their RNG draws are untouched.
    link_degradation: [f64; 4],
    /// True while any link class is degraded (fast-path guard).
    degradation_active: bool,
    /// Per-node gray-failure slowdown (1.0 = healthy): multiplies the
    /// node's storage service times and the delays of messages it sends,
    /// applied after sampling so the compiled samplers and their RNG draws
    /// are untouched (same contract as `link_degradation`).
    node_slow: Vec<f64>,
    /// True while any node is slowed (fast-path guard).
    slow_active: bool,
}

impl FaultState {
    /// A healthy cluster over the given node → datacenter map.
    pub(super) fn new(node_dc: Vec<DcId>) -> Self {
        let n = node_dc.len();
        FaultState {
            node_dc,
            down: vec![false; n],
            crashed: vec![false; n],
            link_degradation: [1.0; 4],
            node_slow: vec![1.0; n],
            ..Default::default()
        }
    }

    /// The index of `node` in the per-node tables.
    ///
    /// # Panics
    /// Panics, naming the node and the node count, when the cluster has no
    /// such node.
    fn slot(&self, node: NodeId) -> usize {
        let (idx, n) = (node.0 as usize, self.down.len());
        assert!(
            idx < n,
            "node {idx} is out of range: the cluster has {n} nodes"
        );
        idx
    }

    /// Whether `node` is currently down (transiently or crashed).
    #[inline]
    pub(super) fn is_down(&self, node: NodeId) -> bool {
        self.down[node.0 as usize]
    }

    /// Whether every node is up (fast path of the coordinator draw).
    pub(super) fn all_up(&self) -> bool {
        self.down_count == 0
    }

    /// Whether no node is down and no datacenter pair partitioned: the
    /// state in which a drained anti-entropy plane has converged.
    #[cfg(debug_assertions)]
    pub(super) fn none_down_or_partitioned(&self) -> bool {
        self.all_up() && self.partitioned_dcs.is_empty()
    }

    /// The canonical key of an unordered datacenter pair in
    /// [`FaultState::partitioned_dcs`].
    #[inline]
    fn dc_pair(a: u16, b: u16) -> (u16, u16) {
        (a.min(b), a.max(b))
    }

    /// Whether the link between two nodes is currently delivering messages.
    #[inline]
    pub(super) fn link_up(&self, from: NodeId, to: NodeId) -> bool {
        if self.partitioned_dcs.is_empty() {
            return true;
        }
        let (a, b) = (self.node_dc[from.0 as usize], self.node_dc[to.0 as usize]);
        !self.partitioned_dcs.contains(&Self::dc_pair(a.0, b.0))
    }

    /// Scale a delay sampled on a link of `class` by the class's
    /// degradation factor (1.0, the default, returns it unchanged).
    #[inline]
    pub(super) fn scale_link(&self, class: LinkClass, delay: SimDuration) -> SimDuration {
        let class = class_index(class);
        if self.degradation_active && self.link_degradation[class] != 1.0 {
            delay.mul_f64(self.link_degradation[class])
        } else {
            delay
        }
    }

    /// Scale a service time of `node`, or the delay of a response it emits,
    /// by its gray-failure slow factor (1.0, the default, returns it
    /// unchanged). Only service and *response* sends route through this — a
    /// slow node is late serving and answering, while requests fanned out
    /// *by* a slow coordinator travel at link speed (the gray failure is in
    /// the node's storage/service path, not the wire).
    #[inline]
    pub(super) fn scale_node(&self, node: NodeId, delay: SimDuration) -> SimDuration {
        let node = node.0 as usize;
        if self.slow_active && self.node_slow[node] != 1.0 {
            delay.mul_f64(self.node_slow[node])
        } else {
            delay
        }
    }
}

impl Cluster {
    /// Apply `action` to the cluster now (see [`FaultAction`] for what each
    /// transition does; re-applying one already in force changes nothing).
    /// Counted in [`ClusterMetrics::faults_injected`](crate::ClusterMetrics::faults_injected).
    ///
    /// # Panics
    /// Panics with `fault <label>: <why>` when [`FaultAction::check`]
    /// rejects `action` for this cluster.
    pub fn inject(&mut self, action: FaultAction) {
        self.assert_fault(&action);
        self.apply_fault(action);
    }

    /// Inject `action` when the simulation reaches `at`: the fault rides the
    /// control plane's lane like a tick, and the engine applies it at that
    /// serial point without returning to the caller.
    ///
    /// # Panics
    /// Panics like [`Cluster::inject`], before anything is scheduled.
    pub fn schedule_fault(&mut self, at: SimTime, action: FaultAction) {
        self.assert_fault(&action);
        self.ctrl_sink().lane.schedule_at(at, Event::Fault(action));
    }

    fn assert_fault(&self, action: &FaultAction) {
        if let Err(why) = action.check(&self.shared.config) {
            panic!("fault {}: {why}", action.label());
        }
    }

    /// Apply an action [`FaultAction::check`] accepted (`inject`, or a
    /// scheduled fault coming due).
    pub(super) fn apply_fault(&mut self, action: FaultAction) {
        use FaultAction::*;
        self.ctrl.metrics.faults_injected += 1;
        match action {
            NodeDown(n) => self.node_down(n as usize),
            NodeUp(n) => self.node_up(n as usize),
            CrashNode(n) if !self.shared.faults.crashed[n as usize] => {
                self.shared.faults.crashed[n as usize] = true;
                self.node_down(n as usize);
                self.rebuild_ring();
                // Recovery migration: the survivors just acquired the crashed
                // node's ranges (hash tokens or ordered slices) but hold only
                // what asynchronous propagation happened to deliver.
                for peer in 0..self.shared.node_count {
                    if !self.shared.faults.down[peer] {
                        self.schedule_repair_sync(NodeId(peer as u32));
                    }
                }
            }
            RecoverNode(n) if self.shared.faults.crashed[n as usize] => {
                self.shared.faults.crashed[n as usize] = false;
                self.node_up(n as usize);
                self.rebuild_ring();
                self.schedule_repair_sync(NodeId(n));
            }
            CrashNode(_) | RecoverNode(_) => {}
            PartitionDcs(a, b) => {
                let pair = FaultState::dc_pair(a, b);
                let partitioned = &mut self.shared.faults.partitioned_dcs;
                if !partitioned.contains(&pair) {
                    partitioned.push(pair);
                    // Messages are about to be lost: keep (or put) the sweep
                    // cycle running so same-side divergence is reconciled
                    // meanwhile.
                    self.resume_sweeps();
                }
            }
            HealDcs(a, b) => {
                let pair = FaultState::dc_pair(a, b);
                let partitioned = &mut self.shared.faults.partitioned_dcs;
                let had = partitioned.len();
                partitioned.retain(|&p| p != pair);
                if partitioned.len() != had {
                    self.resume_sweeps();
                }
            }
            DegradeLink(class, factor) => self.set_link_factor(class, factor),
            RestoreLink(class) => self.set_link_factor(class, 1.0),
            SlowNode(n, factor) => self.set_slow_factor(n as usize, factor),
            RestoreNode(n) => self.set_slow_factor(n as usize, 1.0),
            DcDown(dc) | DcUp(dc) => {
                for i in 0..self.shared.node_count {
                    let faults = &self.shared.faults;
                    if faults.node_dc[i] != DcId(dc) {
                        continue;
                    }
                    if matches!(action, DcDown(_)) {
                        self.node_down(i);
                    } else if !faults.crashed[i] {
                        // A node crashed on its own stays crashed.
                        self.node_up(i);
                    }
                }
            }
        }
    }

    /// Mark node `idx` down (nothing if it already is).
    fn node_down(&mut self, idx: usize) {
        let faults = &mut self.shared.faults;
        if !faults.down[idx] {
            faults.down[idx] = true;
            faults.down_count += 1;
            self.resume_sweeps();
        }
    }

    /// Bring node `idx` back up (nothing if it is up).
    fn node_up(&mut self, idx: usize) {
        let faults = &mut self.shared.faults;
        if faults.down[idx] {
            faults.down[idx] = false;
            faults.down_count -= 1;
            self.start_hint_replay(NodeId(idx as u32));
            self.resume_sweeps();
        }
    }

    /// Rebuild the ring over the nodes that are not crashed: with none, the
    /// load ring's exact placement.
    fn rebuild_ring(&mut self) {
        let shared = &mut self.shared;
        let crashed = &shared.faults.crashed;
        shared.on_load_ring = !crashed.contains(&true);
        shared.ring = Ring::excluding(
            &shared.config.topology,
            shared.config.replication_factor,
            shared.config.strategy,
            shared.config.vnodes,
            shared.config.partitioner,
            |n| crashed[n.0 as usize],
        );
        // Ownership moved: the repair plane's index of the old ring is
        // stale, and so is every settled key.
        self.ring_rebuilt();
    }

    fn set_link_factor(&mut self, class: LinkClass, factor: f64) {
        let faults = &mut self.shared.faults;
        faults.link_degradation[class_index(class)] = factor;
        faults.degradation_active = faults.link_degradation.iter().any(|&f| f != 1.0);
    }

    fn set_slow_factor(&mut self, idx: usize, factor: f64) {
        let faults = &mut self.shared.faults;
        faults.node_slow[idx] = factor;
        faults.slow_active = faults.node_slow.iter().any(|&f| f != 1.0);
    }

    /// Whether a node is currently down (transiently or crashed).
    ///
    /// # Panics
    /// Like the other fault queries, panics if the cluster has no such
    /// node.
    pub fn is_node_down(&self, node: NodeId) -> bool {
        self.shared.faults.down[self.shared.faults.slot(node)]
    }

    /// Whether a node is currently crashed (out of the ring).
    pub fn is_node_crashed(&self, node: NodeId) -> bool {
        self.shared.faults.crashed[self.shared.faults.slot(node)]
    }

    /// Whether a message between two datacenters would currently be dropped.
    pub fn dcs_partitioned(&self, a: DcId, b: DcId) -> bool {
        let pair = FaultState::dc_pair(a.0, b.0);
        self.shared.faults.partitioned_dcs.contains(&pair)
    }

    /// Current gray-failure slowdown factor of a node (1.0 = healthy).
    pub fn node_slow_factor(&self, node: NodeId) -> f64 {
        self.shared.faults.node_slow[self.shared.faults.slot(node)]
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::*;
    use super::super::BatchOp;
    use super::*;
    use crate::consistency::ConsistencyLevel;
    use crate::types::OpStatus;
    use concord_sim::SimTime;
    use FaultAction::*;

    /// A write of 100 bytes to `key` at `level`, arriving at `at`.
    fn write(key: u64, level: ConsistencyLevel, at: SimTime) -> BatchOp {
        BatchOp::write(at, key, 100).with_level(level)
    }

    #[test]
    fn down_replicas_cause_timeouts_for_all_level() {
        let mut cfg = ClusterConfig::lan_test(4, 3);
        cfg.op_timeout = SimDuration::from_millis(100);
        let mut c = Cluster::new(cfg, 5);
        c.load_records((0..10u64).map(|k| (k, 100)));
        // Take down one node; some keys will be unable to reach ALL.
        c.inject(NodeDown(1));
        for i in 0..50u64 {
            c.submit(write(i, ConsistencyLevel::All, SimTime::from_millis(i)));
        }
        let done = drain(&mut c);
        let timeouts = done
            .iter()
            .filter(|o| o.status == OpStatus::Timeout)
            .count();
        assert!(
            timeouts > 0,
            "ALL writes must time out when a replica is down"
        );
        assert_eq!(c.metrics().timeouts as usize, timeouts);
        // Timed-out writes whose reachable replicas all acknowledged must
        // release their op-slab slots (long runs stay compact).
        assert_eq!(c.inflight_ops(), 0, "timed-out writes must not leak slots");
        c.inject(NodeUp(1));
        assert!(!c.is_node_down(NodeId(1)));
        assert_eq!(c.metrics().faults_injected, 2);
    }

    #[test]
    fn mid_flight_node_failure_does_not_leak_op_state() {
        // A replica that goes down *after* a write targeted it never acks;
        // the write's slab slot must still be reclaimed.
        let mut cfg = ClusterConfig::lan_test(5, 3);
        cfg.op_timeout = SimDuration::from_millis(100);
        let mut c = Cluster::new(cfg, 31);
        c.load_records((0..10u64).map(|k| (k, 100)));
        let victim = c.replicas_of(3)[1];
        // Submit, then take the victim down before the replica messages
        // arrive (LAN delivery is ~0.3 ms; the fault fires first).
        c.submit(write(3, ConsistencyLevel::All, SimTime::ZERO));
        c.schedule_fault(SimTime::from_micros(50), NodeDown(victim.0));
        drain(&mut c);
        assert!(c.is_node_down(victim));
        assert_eq!(c.metrics().timeouts, 1, "the ALL write must time out");
        assert_eq!(
            c.inflight_ops(),
            0,
            "mid-flight failure must not leak the write's slab slot"
        );
    }

    #[test]
    fn crash_reconfigures_the_ring_and_recover_restores_it() {
        let mut c = cluster(5, 3);
        c.load_records((0..50u64).map(|k| (k, 100)));
        let before: Vec<Vec<NodeId>> = (0..50u64).map(|k| c.replicas_of(k)).collect();
        // Find a key replicated on node 1 and crash that node.
        let victim = NodeId(1);
        let affected: Vec<u64> = (0..50u64)
            .filter(|&k| before[k as usize].contains(&victim))
            .collect();
        assert!(!affected.is_empty());
        c.inject(CrashNode(1));
        assert!(c.is_node_crashed(victim));
        assert!(c.is_node_down(victim));
        for &k in &affected {
            let reps = c.replicas_of(k);
            assert_eq!(reps.len(), 3, "rf must be met by survivors");
            assert!(!reps.contains(&victim), "crashed node owns no ranges");
        }
        // Ops against affected keys at ALL now succeed on the survivors.
        for &k in affected.iter().take(5) {
            c.submit(write(k, ConsistencyLevel::All, c.now()));
        }
        let done = drain(&mut c);
        assert!(done.iter().all(|o| o.status == OpStatus::Ok));
        // Recovery restores the exact original placement (tokens are a pure
        // function of node and vnode ids).
        c.inject(RecoverNode(1));
        assert!(!c.is_node_crashed(victim));
        let after: Vec<Vec<NodeId>> = (0..50u64).map(|k| c.replicas_of(k)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn crashing_below_rf_clamps_the_effective_replica_count() {
        let mut c = cluster(4, 3);
        c.load_records((0..10u64).map(|k| (k, 100)));
        c.inject(CrashNode(0));
        c.inject(CrashNode(1));
        for k in 0..10u64 {
            let reps = c.replicas_of(k);
            assert_eq!(reps.len(), 2, "only two survivors remain");
        }
        c.inject(RecoverNode(0));
        c.inject(RecoverNode(1));
        assert!((0..10u64).all(|k| c.replicas_of(k).len() == 3));
    }

    #[test]
    fn partitioned_dcs_drop_messages_and_heal_restores_them() {
        let mut cfg = two_dc_config(6, 3);
        cfg.strategy = crate::ring::ReplicationStrategy::NetworkTopology;
        cfg.op_timeout = SimDuration::from_millis(100);
        let mut c = Cluster::new(cfg, 9);
        c.load_records((0..20u64).map(|k| (k, 100)));

        let (a, b) = (DcId(0), DcId(1));
        c.inject(PartitionDcs(0, 1));
        assert!(c.dcs_partitioned(a, b));
        // NetworkTopology placement spreads every key over both DCs, so ALL
        // writes cannot gather their acks across the partition.
        for i in 0..30u64 {
            c.submit(write(i % 20, ConsistencyLevel::All, c.now()));
        }
        let done = drain(&mut c);
        let timeouts = done
            .iter()
            .filter(|o| o.status == OpStatus::Timeout)
            .count();
        assert!(timeouts > 0, "cross-DC ALL writes must time out");
        assert!(c.metrics().messages_lost > 0);
        assert_eq!(c.inflight_ops(), 0, "partition must not leak op state");
        assert_eq!(c.inflight_write_payloads(), 0);

        c.inject(HealDcs(1, 0));
        assert!(!c.dcs_partitioned(a, b));
        let lost_before = c.metrics().messages_lost;
        for i in 0..10u64 {
            c.submit(write(i, ConsistencyLevel::All, c.now()));
        }
        let done = drain(&mut c);
        assert!(done.iter().all(|o| o.status == OpStatus::Ok));
        assert_eq!(
            c.metrics().messages_lost,
            lost_before,
            "healed link drops nothing"
        );
    }

    #[test]
    fn one_level_ops_survive_a_partition_within_their_dc() {
        let mut cfg = two_dc_config(6, 3);
        cfg.strategy = crate::ring::ReplicationStrategy::NetworkTopology;
        cfg.op_timeout = SimDuration::from_millis(100);
        let mut c = Cluster::new(cfg, 15);
        c.load_records((0..20u64).map(|k| (k, 100)));
        c.inject(PartitionDcs(0, 1));
        // Level ONE needs a single ack; some replica is always coordinator-side
        // often enough that most ops succeed.
        for i in 0..100u64 {
            c.submit(write(i % 20, ConsistencyLevel::One, c.now()));
        }
        let done = drain(&mut c);
        let ok = done.iter().filter(|o| o.status == OpStatus::Ok).count();
        assert!(ok > 0, "ONE writes should mostly survive a DC partition");
        assert_eq!(c.inflight_ops(), 0);
    }

    #[test]
    fn degraded_links_slow_cross_dc_operations() {
        let run = |factor: f64| {
            let mut cfg = ClusterConfig::lan_test(6, 5);
            cfg.topology = concord_sim::Topology::spread(
                6,
                &[
                    ("dc-a", concord_sim::RegionId(0)),
                    ("dc-b", concord_sim::RegionId(0)),
                ],
            );
            cfg.network = concord_sim::NetworkModel::grid5000_like();
            cfg.strategy = crate::ring::ReplicationStrategy::NetworkTopology;
            let mut c = Cluster::new(cfg, 19);
            c.load_records((0..10u64).map(|k| (k, 100)));
            if factor != 1.0 {
                c.inject(DegradeLink(LinkClass::InterDc, factor));
            }
            for i in 0..100u64 {
                c.submit(write(
                    i % 10,
                    ConsistencyLevel::All,
                    SimTime::from_millis(i),
                ));
            }
            drain(&mut c);
            c.metrics().write_latency.mean_ms()
        };
        let healthy = run(1.0);
        let degraded = run(8.0);
        assert!(
            degraded > healthy * 3.0,
            "8x inter-DC degradation must slow ALL writes ({healthy} -> {degraded} ms)"
        );
    }

    #[test]
    fn degradation_does_not_perturb_rng_draws() {
        // Degrading a class the run never uses leaves the simulation
        // byte-identical: the factor applies after sampling, so the RNG
        // stream is untouched.
        let run = |degrade_unused: bool| {
            let mut c = cluster(5, 3); // single DC: no inter-region traffic
            c.load_records((0..10u64).map(|k| (k, 100)));
            if degrade_unused {
                c.inject(DegradeLink(LinkClass::InterRegion, 50.0));
            }
            for i in 0..200u64 {
                c.submit_write_at(i % 10, 100, SimTime::from_millis(i));
            }
            drain(&mut c)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn slow_node_inflates_latency_and_restore_heals() {
        // Gray failure: a 10x-slowed replica drags ALL-level writes (every
        // write waits for the slow ack); restoring mid-run heals the tail.
        let run = |factor: f64| {
            let mut c = cluster(5, 3);
            c.load_records((0..10u64).map(|k| (k, 100)));
            if factor != 1.0 {
                c.inject(SlowNode(1, factor));
            }
            for i in 0..100u64 {
                c.submit(write(
                    i % 10,
                    ConsistencyLevel::All,
                    SimTime::from_millis(i),
                ));
            }
            drain(&mut c);
            c.metrics().write_latency.mean_ms()
        };
        let healthy = run(1.0);
        let slowed = run(10.0);
        assert!(
            slowed > healthy * 2.0,
            "a 10x slow replica must drag ALL writes ({healthy} -> {slowed} ms)"
        );
    }

    #[test]
    fn slow_node_toggling_does_not_perturb_rng_draws() {
        // The slow factor applies post-sampling: slowing a node and
        // restoring it before any traffic leaves the run byte-identical —
        // the RNG stream is untouched, exactly like a degraded link.
        let run = |toggle: bool| {
            let mut c = cluster(5, 3);
            c.load_records((0..10u64).map(|k| (k, 100)));
            if toggle {
                c.inject(SlowNode(2, 25.0));
                c.inject(RestoreNode(2));
                assert_eq!(c.node_slow_factor(NodeId(2)), 1.0);
            }
            for i in 0..200u64 {
                c.submit_write_at(i % 10, 100, SimTime::from_millis(i));
            }
            drain(&mut c)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn the_largest_factors_run_to_completion() {
        // A million-fold slow node or degraded link is the bound `check`
        // allows; the run still drains.
        for action in [SlowNode(0, 1e6), DegradeLink(LinkClass::IntraDc, 1e6)] {
            let mut c = cluster(4, 3);
            c.load_records((0..10u64).map(|k| (k, 100)));
            c.inject(action);
            for i in 0..50u64 {
                c.submit_read_at(i % 10, SimTime::from_millis(i));
            }
            assert_eq!(drain(&mut c).len(), 50, "{action:?}");
            assert_eq!(c.check_drained(), Ok(()), "{action:?}");
        }
    }

    #[test]
    fn dc_down_takes_the_whole_dc_and_dc_up_restores_it() {
        let mut cfg = two_dc_config(6, 3);
        cfg.strategy = crate::ring::ReplicationStrategy::NetworkTopology;
        let mut c = Cluster::new(cfg, 23);
        c.load_records((0..10u64).map(|k| (k, 100)));
        // `Topology::spread` deals nodes round-robin: dc-b owns 1, 3, 5.
        c.inject(DcDown(1));
        for n in [1, 3, 5] {
            assert!(c.is_node_down(NodeId(n)), "node {n} is in the downed DC");
        }
        for n in [0, 2, 4] {
            assert!(!c.is_node_down(NodeId(n)));
        }
        // ALL-level writes cannot gather cross-DC acks while dc-b is out.
        c.submit(write(3, ConsistencyLevel::All, c.now()));
        let done = drain(&mut c);
        assert!(done.iter().any(|o| o.status == OpStatus::Timeout));
        c.inject(DcUp(1));
        for n in [1, 3, 5] {
            assert!(!c.is_node_down(NodeId(n)), "DcUp must restore node {n}");
        }
        c.submit(write(3, ConsistencyLevel::All, c.now()));
        let done = drain(&mut c);
        assert!(done.iter().all(|o| o.status == OpStatus::Ok));
        assert_eq!(c.inflight_ops(), 0);
    }

    #[test]
    fn dc_up_leaves_crashed_nodes_down() {
        let cfg = two_dc_config(6, 3);
        let mut c = Cluster::new(cfg, 23);
        // Round-robin spread: dc-b owns nodes 1, 3, 5.
        c.inject(CrashNode(3));
        c.inject(DcDown(1));
        c.inject(DcUp(1));
        assert!(!c.is_node_down(NodeId(1)));
        assert!(
            c.is_node_down(NodeId(3)),
            "a crashed node needs recovery, not a DC restore"
        );
        assert!(!c.is_node_down(NodeId(5)));
    }

    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce()) -> String {
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        *panic
            .expect_err("the call must panic")
            .downcast::<String>()
            .expect("panics with a formatted message")
    }

    #[test]
    fn check_and_inject_reject_one_invalid_action_per_rule() {
        // One invalid action per rule on 5 nodes in one datacenter, with the
        // reason `Scenario::validate` prints after `fault N, <label>: `.
        let huge = 1e300;
        let table = [
            (CrashNode(5), "no node 5 among 5".to_string()),
            (DcDown(1), "no datacenter 1 among 1".to_string()),
            (
                PartitionDcs(0, 0),
                "datacenter 0 is not partitioned from itself".to_string(),
            ),
            (
                DegradeLink(LinkClass::InterDc, 0.0),
                "degrade factor 0 is not finite and positive".to_string(),
            ),
            (
                DegradeLink(LinkClass::InterDc, f64::NAN),
                "degrade factor NaN is not finite and positive".to_string(),
            ),
            (
                DegradeLink(LinkClass::InterDc, huge),
                format!("degrade factor {huge} exceeds the bound 1e6"),
            ),
            (
                SlowNode(0, 0.5),
                "slow factor 0.5 is not finite and at least 1".to_string(),
            ),
            (
                SlowNode(0, huge),
                format!("slow factor {huge} exceeds the bound 1e6"),
            ),
        ];
        let config = ClusterConfig::lan_test(5, 3);
        for (action, why) in table {
            assert_eq!(action.check(&config), Err(why.clone()));
            let mut c = Cluster::new(config.clone(), 42);
            let message = panic_message(|| c.inject(action));
            assert_eq!(message, format!("fault {}: {why}", action.label()));
            let message = panic_message(|| c.schedule_fault(SimTime::ZERO, action));
            assert_eq!(message, format!("fault {}: {why}", action.label()));
            // Nothing was applied and nothing was scheduled.
            assert_eq!(c.metrics().faults_injected, 0);
            drain(&mut c);
            assert_eq!(c.events_processed(), 0);
        }
        // The queries name a node the cluster does not have, too.
        let c = cluster(5, 3);
        let message = panic_message(|| {
            c.is_node_down(NodeId(5));
        });
        assert_eq!(message, "node 5 is out of range: the cluster has 5 nodes");
    }

    #[test]
    fn every_fault_needs_the_one_shard_engine() {
        // Even an action that is sound on one shard.
        let mut config = ClusterConfig::lan_test(5, 3);
        config.shards = 2;
        let why = "faults need the one-shard engine (this cluster runs 2 shards)";
        for action in [NodeDown(0), RestoreLink(LinkClass::InterDc)] {
            assert_eq!(action.check(&config), Err(why.to_string()));
        }
        // A shard count the node count clamps to 1 is the one-shard engine.
        config.topology = concord_sim::Topology::single_dc(1);
        config.replication_factor = 1;
        assert_eq!(config.effective_shards(), 1);
        assert_eq!(NodeDown(0).check(&config), Ok(()));
    }
}
