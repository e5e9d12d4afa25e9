//! Fault state: which nodes are down or crashed, which datacenter pairs are
//! partitioned, and the delay multipliers of degraded links and gray-failed
//! nodes.
//!
//! **State.** [`FaultState`] is part of the read-only [`ClusterShared`](super::ClusterShared)
//! snapshot. The message path only asks it questions — is this node down
//! ([`FaultState::is_down`]), does this link deliver
//! ([`FaultState::link_up`]), how does a sampled delay scale
//! ([`FaultState::scale_link`], [`FaultState::scale_node`]) — and only the
//! sixteen public fault methods of [`Cluster`] below write it, between
//! events, where `&mut Cluster` proves exclusivity. Both multipliers apply
//! *after* sampling, so injecting or lifting a fault never moves an RNG
//! draw.
//!
//! **Events.** None: a fault transition is a call from the driver. What a
//! transition schedules — sweeps, hint replays, recovery syncs — belongs to
//! the repair plane (`repair.rs`), and a changed degradation factor
//! re-derives the engine's lookahead (`engine.rs`).

use super::{class_index, Cluster};
use crate::ring::Ring;
use concord_sim::{DcId, LinkClass, NodeId, SimDuration};

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
    /// are untouched (same contract as `link_degradation`). Factors are
    /// ≥ 1.0, so the lookahead bound (a delay infimum) stays valid.
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
    /// such node: fault scripts are outside input.
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

    /// The canonical key of an unordered datacenter pair in
    /// [`FaultState::partitioned_dcs`].
    #[inline]
    fn dc_pair(a: DcId, b: DcId) -> (u16, u16) {
        (a.0.min(b.0), a.0.max(b.0))
    }

    /// Whether the link between two nodes is currently delivering messages.
    #[inline]
    pub(super) fn link_up(&self, from: NodeId, to: NodeId) -> bool {
        if self.partitioned_dcs.is_empty() {
            return true;
        }
        let pair = Self::dc_pair(self.node_dc[from.0 as usize], self.node_dc[to.0 as usize]);
        !self.partitioned_dcs.contains(&pair)
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

    /// The per-link-class degradation factors (the lookahead bound scales
    /// with them).
    pub(super) fn link_degradation(&self) -> &[f64; 4] {
        &self.link_degradation
    }
}

impl Cluster {
    /// Mark a node as down: it no longer applies writes nor answers reads.
    /// With hinted handoff enabled, coordinators start queueing hints for
    /// it; with anti-entropy enabled, the sweep cycle (re)starts so the
    /// divergence accumulating while it is down gets reconciled.
    ///
    /// # Panics
    /// Like every fault method that takes a node, panics if the cluster has
    /// no such node.
    pub fn set_node_down(&mut self, node: NodeId) {
        let faults = &mut self.shared.faults;
        let idx = faults.slot(node);
        if !faults.down[idx] {
            faults.down[idx] = true;
            faults.down_count += 1;
            self.resume_sweeps();
        }
    }

    /// Bring a node back up. Without the repair plane it simply missed the
    /// writes that happened while down (repaired lazily by read repair if
    /// enabled); with hinted handoff its queued hints start replaying, and
    /// with anti-entropy the sweep cycle resumes to catch anything the
    /// hints missed.
    pub fn set_node_up(&mut self, node: NodeId) {
        let faults = &mut self.shared.faults;
        let idx = faults.slot(node);
        if faults.down[idx] {
            faults.down[idx] = false;
            faults.down_count -= 1;
            self.start_hint_replay(node);
            self.resume_sweeps();
        }
    }

    /// Whether a node is currently down.
    pub fn is_node_down(&self, node: NodeId) -> bool {
        self.shared.faults.down[self.shared.faults.slot(node)]
    }

    /// Crash a node permanently: it goes down **and** its vnode tokens are
    /// withdrawn from the ring, so its former ranges fall to the surviving
    /// nodes (what removing a Cassandra node does to ownership). Operations
    /// arriving after the crash target only surviving replicas; the
    /// effective replication factor is clamped to the survivor count.
    ///
    /// Contrast with [`Cluster::set_node_down`], which models a transient
    /// outage and leaves the ring untouched.
    pub fn crash_node(&mut self, node: NodeId) {
        let idx = self.shared.faults.slot(node);
        if !self.shared.faults.crashed[idx] {
            self.shared.faults.crashed[idx] = true;
            self.set_node_down(node);
            self.rebuild_ring();
            // Recovery migration: the survivors just acquired the crashed
            // node's ranges (hash tokens or ordered slices) but hold only
            // what asynchronous propagation happened to deliver. Schedule a
            // synchronization of every survivor instead of silently serving
            // the acquired ranges from whatever is on disk.
            for peer in 0..self.shared.node_count {
                if !self.shared.faults.down[peer] {
                    self.schedule_repair_sync(NodeId(peer as u32));
                }
            }
        }
    }

    /// Recover a crashed node: it rejoins the ring at its original token
    /// positions (tokens depend only on node and vnode ids) and starts
    /// serving again. Without the repair plane, the writes it missed while
    /// crashed are repaired lazily by read repair; with it, queued hints
    /// replay immediately (via [`Cluster::set_node_up`]) and — under
    /// anti-entropy — a recovery sync streams the returned ranges back in
    /// from its peers before relying on sweeps for the long tail.
    pub fn recover_node(&mut self, node: NodeId) {
        let idx = self.shared.faults.slot(node);
        if self.shared.faults.crashed[idx] {
            self.shared.faults.crashed[idx] = false;
            self.set_node_up(node);
            self.rebuild_ring();
            self.schedule_repair_sync(node);
        }
    }

    /// Whether a node is currently crashed (out of the ring).
    pub fn is_node_crashed(&self, node: NodeId) -> bool {
        self.shared.faults.crashed[self.shared.faults.slot(node)]
    }

    fn rebuild_ring(&mut self) {
        let shared = &mut self.shared;
        let crashed = &shared.faults.crashed;
        shared.ring = Ring::excluding(
            &shared.config.topology,
            shared.config.replication_factor,
            shared.config.strategy,
            shared.config.vnodes,
            shared.config.partitioner,
            |n| crashed[n.0 as usize],
        );
        // Ownership moved: the repair plane's index of the old ring is stale.
        self.forget_ownership();
    }

    /// Partition two datacenters: every message between their nodes is lost
    /// in transit (traffic is still accounted at the sender — the bytes left
    /// the NIC). In-flight replica work is unaffected; only deliveries after
    /// the partition starts are dropped. Idempotent.
    pub fn partition_dcs(&mut self, a: DcId, b: DcId) {
        let pair = FaultState::dc_pair(a, b);
        let partitioned = &mut self.shared.faults.partitioned_dcs;
        if pair.0 != pair.1 && !partitioned.contains(&pair) {
            partitioned.push(pair);
            // Messages are about to be lost: keep (or put) the sweep cycle
            // running so same-side divergence is reconciled meanwhile.
            self.resume_sweeps();
        }
    }

    /// Heal a datacenter partition (no-op if the pair is not partitioned).
    /// Replicas that missed writes during the partition are repaired lazily
    /// by read repair — and, with anti-entropy enabled, by the sweep cycle,
    /// which resumes here to reconcile the divergence the partition built up.
    pub fn heal_dcs(&mut self, a: DcId, b: DcId) {
        let pair = FaultState::dc_pair(a, b);
        let partitioned = &mut self.shared.faults.partitioned_dcs;
        let had = partitioned.len();
        partitioned.retain(|&p| p != pair);
        if partitioned.len() != had {
            self.resume_sweeps();
        }
    }

    /// Whether a message between two datacenters would currently be dropped.
    pub fn dcs_partitioned(&self, a: DcId, b: DcId) -> bool {
        let pair = FaultState::dc_pair(a, b);
        self.shared.faults.partitioned_dcs.contains(&pair)
    }

    /// Degrade one link class: every subsequent delay sample on that class
    /// is multiplied by `factor` (e.g. 8.0 for a brown-out, 1.0 to restore).
    /// The sampler itself — and therefore the RNG draw sequence — is
    /// untouched, so enabling degradation never perturbs unrelated
    /// randomness. Note that read-replica selection keeps ranking by the
    /// healthy mean-latency table, like a snitch working from stale scores.
    ///
    /// # Panics
    /// Panics if `factor` is not finite and positive.
    pub fn degrade_link(&mut self, class: LinkClass, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "degradation factor must be finite and positive, got {factor}"
        );
        let faults = &mut self.shared.faults;
        faults.link_degradation[class_index(class)] = factor;
        faults.degradation_active = faults.link_degradation.iter().any(|&f| f != 1.0);
        // A speed-up factor shrinks the smallest cross-shard delay: the
        // lookahead window must shrink with it or staging decisions would be
        // recorded against a stale bound.
        self.refresh_lookahead();
    }

    /// Restore a degraded link class to its healthy latency.
    pub fn restore_link(&mut self, class: LinkClass) {
        self.degrade_link(class, 1.0);
    }

    /// Gray-fail a node: every subsequent storage service time on it and
    /// every response delay it emits is multiplied by `factor` (10.0
    /// models a node limping an order of magnitude slow; 1.0 restores).
    /// Like [`Cluster::degrade_link`], the multiplier applies **after**
    /// sampling, so the compiled samplers — and therefore the RNG draw
    /// sequence — are untouched: gray-failing a node never perturbs
    /// unrelated randomness. The node stays up: it answers everything,
    /// just late — exactly the failure mode crash detection misses.
    ///
    /// # Panics
    /// Panics if `factor` is not finite or is below 1.0 (slowdowns only
    /// lengthen delays; a sub-1 factor would undercut the conservative
    /// lookahead bound).
    pub fn slow_node(&mut self, node: NodeId, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "slow-node factor must be finite and at least 1.0, got {factor}"
        );
        let faults = &mut self.shared.faults;
        let idx = faults.slot(node);
        faults.node_slow[idx] = factor;
        faults.slow_active = faults.node_slow.iter().any(|&f| f != 1.0);
    }

    /// Restore a gray-failed node to its healthy speed.
    pub fn restore_node(&mut self, node: NodeId) {
        self.slow_node(node, 1.0);
    }

    /// Current gray-failure slowdown factor of a node (1.0 = healthy).
    pub fn node_slow_factor(&self, node: NodeId) -> f64 {
        self.shared.faults.node_slow[self.shared.faults.slot(node)]
    }

    /// Correlated whole-datacenter outage: transiently take down every node
    /// of `dc` (the ring keeps their tokens — this is a power/connectivity
    /// event, not decommissioning). Idempotent per node; pair with
    /// [`Cluster::dc_up`].
    pub fn dc_down(&mut self, dc: DcId) {
        for i in 0..self.shared.node_count {
            if self.shared.faults.node_dc[i] == dc {
                self.set_node_down(NodeId(i as u32));
            }
        }
    }

    /// End a whole-datacenter outage: bring every non-crashed node of `dc`
    /// back up (nodes crashed individually stay crashed).
    pub fn dc_up(&mut self, dc: DcId) {
        for i in 0..self.shared.node_count {
            if self.shared.faults.node_dc[i] == dc && !self.shared.faults.crashed[i] {
                self.set_node_up(NodeId(i as u32));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::*;
    use super::super::ClusterOutput;
    use super::*;
    use crate::config::ClusterConfig;
    use crate::consistency::ConsistencyLevel;
    use crate::types::OpStatus;
    use concord_sim::SimTime;

    #[test]
    fn down_replicas_cause_timeouts_for_all_level() {
        let mut cfg = ClusterConfig::lan_test(4, 3);
        cfg.op_timeout = SimDuration::from_millis(100);
        let mut c = Cluster::new(cfg, 5);
        c.load_records((0..10u64).map(|k| (k, 100)));
        // Take down one node; some keys will be unable to reach ALL.
        c.set_node_down(NodeId(1));
        for i in 0..50u64 {
            c.submit_write_with(i, 100, ConsistencyLevel::All, SimTime::from_millis(i));
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
        // Level ONE still succeeds.
        c.set_node_up(NodeId(1));
        assert!(!c.is_node_down(NodeId(1)));
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
        // arrive (LAN delivery is ~0.3 ms; the tick fires first).
        c.submit_write_with(3, 100, ConsistencyLevel::All, SimTime::ZERO);
        c.schedule_tick(SimTime::from_micros(50), 9);
        loop {
            match c.advance() {
                Some(ClusterOutput::Tick { id: 9, .. }) => {
                    c.set_node_down(victim);
                }
                Some(_) => {}
                None => break,
            }
        }
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
        c.crash_node(victim);
        assert!(c.is_node_crashed(victim));
        assert!(c.is_node_down(victim));
        for &k in &affected {
            let reps = c.replicas_of(k);
            assert_eq!(reps.len(), 3, "rf must be met by survivors");
            assert!(!reps.contains(&victim), "crashed node owns no ranges");
        }
        // Ops against affected keys at ALL now succeed on the survivors.
        for &k in affected.iter().take(5) {
            c.submit_write_with(k, 100, ConsistencyLevel::All, c.now());
        }
        let done = drain(&mut c);
        assert!(done.iter().all(|o| o.status == OpStatus::Ok));
        // Recovery restores the exact original placement (tokens are a pure
        // function of node and vnode ids).
        c.recover_node(victim);
        assert!(!c.is_node_crashed(victim));
        let after: Vec<Vec<NodeId>> = (0..50u64).map(|k| c.replicas_of(k)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn crashing_below_rf_clamps_the_effective_replica_count() {
        let mut c = cluster(4, 3);
        c.load_records((0..10u64).map(|k| (k, 100)));
        c.crash_node(NodeId(0));
        c.crash_node(NodeId(1));
        for k in 0..10u64 {
            let reps = c.replicas_of(k);
            assert_eq!(reps.len(), 2, "only two survivors remain");
        }
        c.recover_node(NodeId(0));
        c.recover_node(NodeId(1));
        assert!((0..10u64).all(|k| c.replicas_of(k).len() == 3));
    }

    #[test]
    fn partitioned_dcs_drop_messages_and_heal_restores_them() {
        let mut cfg = two_dc_config(6, 3);
        cfg.strategy = crate::ring::ReplicationStrategy::NetworkTopology;
        cfg.op_timeout = SimDuration::from_millis(100);
        let mut c = Cluster::new(cfg, 9);
        c.load_records((0..20u64).map(|k| (k, 100)));

        let (a, b) = (concord_sim::DcId(0), concord_sim::DcId(1));
        c.partition_dcs(a, b);
        assert!(c.dcs_partitioned(a, b));
        // NetworkTopology placement spreads every key over both DCs, so ALL
        // writes cannot gather their acks across the partition.
        for i in 0..30u64 {
            c.submit_write_with(i % 20, 100, ConsistencyLevel::All, c.now());
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

        c.heal_dcs(a, b);
        assert!(!c.dcs_partitioned(a, b));
        let lost_before = c.metrics().messages_lost;
        for i in 0..10u64 {
            c.submit_write_with(i, 100, ConsistencyLevel::All, c.now());
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
        c.partition_dcs(concord_sim::DcId(0), concord_sim::DcId(1));
        // Level ONE needs a single ack; some replica is always coordinator-side
        // often enough that most ops succeed.
        for i in 0..100u64 {
            c.submit_write_with(i % 20, 100, ConsistencyLevel::One, c.now());
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
                c.degrade_link(concord_sim::LinkClass::InterDc, factor);
            }
            for i in 0..100u64 {
                c.submit_write_with(i % 10, 100, ConsistencyLevel::All, SimTime::from_millis(i));
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
                c.degrade_link(concord_sim::LinkClass::InterRegion, 50.0);
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
                c.slow_node(NodeId(1), factor);
            }
            for i in 0..100u64 {
                c.submit_write_with(i % 10, 100, ConsistencyLevel::All, SimTime::from_millis(i));
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
        // the RNG stream is untouched, exactly like `degrade_link`.
        let run = |toggle: bool| {
            let mut c = cluster(5, 3);
            c.load_records((0..10u64).map(|k| (k, 100)));
            if toggle {
                c.slow_node(NodeId(2), 25.0);
                c.restore_node(NodeId(2));
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
    fn dc_down_takes_the_whole_dc_and_dc_up_restores_it() {
        let mut cfg = two_dc_config(6, 3);
        cfg.strategy = crate::ring::ReplicationStrategy::NetworkTopology;
        let mut c = Cluster::new(cfg, 23);
        c.load_records((0..10u64).map(|k| (k, 100)));
        // `Topology::spread` deals nodes round-robin: dc-b owns 1, 3, 5.
        let dc_b = concord_sim::DcId(1);
        c.dc_down(dc_b);
        for n in [1, 3, 5] {
            assert!(c.is_node_down(NodeId(n)), "node {n} is in the downed DC");
        }
        for n in [0, 2, 4] {
            assert!(!c.is_node_down(NodeId(n)));
        }
        // ALL-level writes cannot gather cross-DC acks while dc-b is out.
        c.submit_write_with(3, 100, ConsistencyLevel::All, c.now());
        let done = drain(&mut c);
        assert!(done.iter().any(|o| o.status == OpStatus::Timeout));
        c.dc_up(dc_b);
        for n in [1, 3, 5] {
            assert!(!c.is_node_down(NodeId(n)), "dc_up must restore node {n}");
        }
        c.submit_write_with(3, 100, ConsistencyLevel::All, c.now());
        let done = drain(&mut c);
        assert!(done.iter().all(|o| o.status == OpStatus::Ok));
        assert_eq!(c.inflight_ops(), 0);
    }

    #[test]
    fn dc_up_leaves_crashed_nodes_down() {
        let cfg = two_dc_config(6, 3);
        let mut c = Cluster::new(cfg, 23);
        // Round-robin spread: dc-b owns nodes 1, 3, 5.
        let dc_b = concord_sim::DcId(1);
        c.crash_node(NodeId(3));
        c.dc_down(dc_b);
        c.dc_up(dc_b);
        assert!(!c.is_node_down(NodeId(1)));
        assert!(
            c.is_node_down(NodeId(3)),
            "a crashed node needs recovery, not a DC restore"
        );
        assert!(!c.is_node_down(NodeId(5)));
    }

    #[test]
    fn fault_methods_reject_a_node_the_cluster_does_not_have() {
        // Fault scripts are outside input: a bad node id names itself and
        // the node count instead of an index out of bounds.
        type Fault = fn(&mut Cluster, NodeId);
        let faults: [Fault; 9] = [
            |c, n| c.set_node_down(n),
            |c, n| c.set_node_up(n),
            |c, n| c.crash_node(n),
            |c, n| c.recover_node(n),
            |c, n| c.slow_node(n, 2.0),
            |c, n| c.restore_node(n),
            |c, n| assert!(!c.is_node_down(n)),
            |c, n| assert!(!c.is_node_crashed(n)),
            |c, n| assert_eq!(c.node_slow_factor(n), 1.0),
        ];
        for fault in faults {
            let mut c = cluster(5, 3);
            let attempt = std::panic::AssertUnwindSafe(|| fault(&mut c, NodeId(5)));
            let message = *std::panic::catch_unwind(attempt)
                .expect_err("node 5 of 5 must be rejected")
                .downcast::<String>()
                .expect("assert! with arguments panics with a String");
            assert_eq!(message, "node 5 is out of range: the cluster has 5 nodes");
        }
    }
}
