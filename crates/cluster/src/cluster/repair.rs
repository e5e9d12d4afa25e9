//! The repair plane: hinted handoff, anti-entropy sweeps and recovery
//! migration.
//!
//! Off by default (`RepairMode::Off` adds zero events and zero RNG draws).
//! Hinted handoff queues the writes a down replica missed and replays them,
//! paced by a timer, when it returns. Anti-entropy walks node pairs
//! on a sweep cycle, and a recovery migration pulls a rejoined node's
//! ranges from every up peer; both compare the two nodes over every key
//! page up to the last loaded or written key (one summary message per page
//! and direction, metered) and diff each page. A diff `from → to` streams
//! each record `from` holds strictly newer than `to`, among the keys `to`
//! replicates, in ascending key order, as a background repair write; every
//! repair byte is metered per link class and billed.
//!
//! **Which keys a diff visits.** Those that `to` owns under the current
//! ring — a ring-derived ownership bitset per page, built lazily and
//! dropped on every ring rebuild — *and* that are in the store's
//! unsettled set, a bit per key. The set keeps one invariant: *a clear bit
//! means every current replica of the key holds a copy at least as new as
//! every copy of the key*, row entries and side-map copies alike, so no
//! diff streams it between any pair. Three rules keep it:
//!
//! 1. every install sets its key's bit (`ReplicaStore::account`);
//! 2. a ring rebuild sets every bit (`Cluster::ring_rebuilt`): a settled
//!    key's new replicas may lack its newest copy;
//! 3. a diff clears the bit of a key it visited and did not stream only
//!    after checking the invariant against the current ring (for a loaded
//!    key without a row while a crash is in force: every current replica
//!    is a load owner).
//!
//! So the stream, and every RNG draw it makes, is the walk over every key
//! `to` owns, minus keys that stream nothing. Debug builds'
//! `Cluster::check_drained` checks every clear bit against the invariant.
//! Diffs run on the one-shard engine only (repair starts on fault
//! transitions, and faults need one shard), whose one store holds both
//! nodes' copies.
//!
//! **Parking.** The sweep cycle parks after `pairs` consecutive steps that
//! streamed nothing — every node pair compared once since the last stream
//! or resume, wherever in the pair enumeration that began — so a drained
//! cluster with no fault in force has converged: every current replica of
//! every key holds its newest copy (debug builds' `check_drained` asserts
//! it).
//!
//! **State.** [`RepairState`] — the per-destination hint queues and their
//! replay flags, the sweep cycle's cursor and parking counter, and the
//! ownership index — lives in the control plane (`ControlState`) and is
//! touched only at serial points; the unsettled set lives in the stores.
//! The plane's meters go to the control plane's sink.
//!
//! **Events.** [`Event::HintReplay`], [`Event::AntiEntropy`] and
//! [`Event::RepairSync`]. They ride whatever lane [`Cluster::ctrl_sink`]
//! hands out, and repair messages draw their delays from the stream it
//! hands out; nothing here asks which engine that is. Fault transitions
//! (`faults.rs`) start the chains through [`Cluster::resume_sweeps`],
//! [`Cluster::start_hint_replay`] and [`Cluster::schedule_repair_sync`];
//! handlers queue hints through [`CtrlSink::enqueue_hint`].

use super::engine::CtrlSink;
use super::ops::{pack_node, WritePayload};
use super::{account_message, Cluster, ClusterShared, Event};
use crate::config::RepairConfig;
use crate::metrics::ClusterMetrics;
use crate::ring::Ring;
use crate::storage::PageOwners;
use crate::types::{Key, OpId, StoredValue, Version};
use concord_sim::{NodeId, SimTime};
use std::collections::VecDeque;

/// Sentinel op id carried by background repair payloads (hint replays and
/// anti-entropy streams). Repair writes never consult the op slab — the
/// replica-done and dead-task paths return before touching it — so the
/// sentinel only needs to be distinguishable in debug output.
const REPAIR_OP_ID: OpId = OpId(u64::MAX);

/// One queued hinted-handoff mutation: enough to re-issue the write to its
/// destination once the node is back (key, version, byte size — the payload
/// bytes themselves are not simulated, exactly like live writes).
#[derive(Debug, Clone, Copy)]
pub(super) struct Hint {
    /// Coordinator that queued the hint; the replay is metered on the
    /// `from → destination` link.
    pub(super) from: NodeId,
    pub(super) key: Key,
    pub(super) version: Version,
    pub(super) size: u32,
}

/// The repair plane's state (see the module docs).
#[derive(Default)]
pub(super) struct RepairState {
    /// Per-destination hinted-handoff queues, bounded by
    /// [`RepairConfig::HINT_CAPACITY_PER_NODE`].
    hints: Vec<VecDeque<Hint>>,
    /// Whether a `HintReplay` chain is currently scheduled per node (avoids
    /// double-scheduling when a node flaps up/down).
    hint_replay_active: Vec<bool>,
    /// Position in the node-pair enumeration of the sweep cycle.
    sweep_cursor: u64,
    /// Whether an `AntiEntropy` event is pending in the queue.
    sweep_active: bool,
    /// Sweep steps since the last one that streamed, the last recovery
    /// sync that streamed or the last resume; the cycle parks when it
    /// reaches the number of node pairs, and fault transitions resume it.
    sweep_silent: u64,
    /// The ownership index, by key page: bounds an anti-entropy diff to the
    /// keys the receiver replicates. A page is built from the ring on its
    /// first diff; every page is dropped when the ring is rebuilt.
    owned: Vec<Option<PageOwners>>,
    /// The load ring's ownership, by key page, for diffs while a crash is
    /// in force; never dropped.
    load_owned: Vec<Option<PageOwners>>,
    /// The records a page diff streams, collected before they are sent.
    streams: Vec<(Key, StoredValue)>,
}

impl RepairState {
    /// Empty queues for `nodes` destinations, the sweep cycle parked.
    pub(super) fn new(nodes: usize) -> Self {
        RepairState {
            hints: vec![VecDeque::new(); nodes],
            hint_replay_active: vec![false; nodes],
            ..Default::default()
        }
    }

    /// What a drained run leaves behind: no replay chain is flagged for a
    /// node whose queue is empty, and no anti-entropy chain is flagged
    /// active (either flag would block the next chain).
    pub(super) fn check_drained(&self) -> Result<(), String> {
        let stuck = |n: &usize| self.hint_replay_active[*n] && self.hints[*n].is_empty();
        if let Some(n) = (0..self.hints.len()).find(stuck) {
            return Err(format!("node {n}: hint replay flagged over an empty queue"));
        }
        match self.sweep_active {
            true => Err("anti-entropy flagged active over a drained queue".into()),
            false => Ok(()),
        }
    }
}

/// Meter one page-summary message `from → to`. It never becomes a
/// scheduled event: its bytes go to both the billable traffic meter and
/// the repair breakdown but no delay is sampled, so summary comparisons
/// cost network bytes and no RNG draws.
fn account_summary(shared: &ClusterShared, metrics: &mut ClusterMetrics, from: NodeId, to: NodeId) {
    let (class, total) = shared.wire(from, to, RepairConfig::SUMMARY_BYTES_PER_PAGE);
    metrics.traffic.add(class, total);
    metrics.repair_traffic.add(class, total);
    metrics.messages += 1;
}

impl CtrlSink<'_> {
    /// (Re)start the anti-entropy sweep cycle at simulated time `now`, its
    /// `AntiEntropy` chain riding this sink's lane, and count its silent
    /// steps from here. The cycle parks itself once every node pair was
    /// compared without streaming anything (so a drained queue terminates
    /// `run_to_completion`); fault transitions and dropped hints wake it up
    /// again. No-op unless the mode enables anti-entropy.
    fn resume_sweeps(&mut self, now: SimTime) {
        if !self.shared.config.repair.mode.anti_entropy_enabled() || self.shared.node_count < 2 {
            return;
        }
        let repair = &mut self.ctrl.repair;
        repair.sweep_silent = 0;
        if !repair.sweep_active {
            repair.sweep_active = true;
            let at = now + RepairConfig::ANTI_ENTROPY_INTERVAL;
            self.lane.schedule_timeout(at, Event::AntiEntropy);
        }
    }

    /// Queue a hinted-handoff mutation for the down replica `to`. The queue
    /// is bounded: an overflowing hint is dropped, metered, and left to
    /// anti-entropy (resumed here; a no-op unless the mode enables sweeps).
    pub(super) fn enqueue_hint(&mut self, now: SimTime, to: NodeId, hint: Hint) {
        let queue = &mut self.ctrl.repair.hints[to.0 as usize];
        if queue.len() >= RepairConfig::HINT_CAPACITY_PER_NODE {
            self.ctrl.metrics.hints_dropped += 1;
            self.resume_sweeps(now);
        } else {
            queue.push_back(hint);
            self.ctrl.metrics.hints_queued += 1;
        }
    }
}

/// Page `page` of an ownership index of `nodes` nodes, built from `ring`
/// if it is not yet.
fn indexed<'a>(
    index: &'a mut Vec<Option<PageOwners>>,
    page: usize,
    ring: &Ring,
    nodes: usize,
) -> &'a PageOwners {
    if page >= index.len() {
        index.resize_with(page + 1, || None);
    }
    index[page].get_or_insert_with(|| PageOwners::build(page, ring, nodes))
}

/// The `idx`-th unordered node pair `(i, j)`, `i < j`, in row-major
/// enumeration order.
fn unrank_pair(mut idx: u64, n: u64) -> (u64, u64) {
    let mut i = 0;
    loop {
        let row = n - 1 - i;
        if idx < row {
            return (i, i + 1 + idx);
        }
        idx -= row;
        i += 1;
    }
}

impl Cluster {
    /// Number of hints currently queued for `node` (tests and diagnostics).
    pub fn pending_hints(&self, node: NodeId) -> usize {
        self.ctrl.repair.hints[node.0 as usize].len()
    }

    /// The ring changed: drop the ownership index built from the old one,
    /// and put every key of every store in the unsettled set — a settled
    /// key's new replicas may lack its newest copy.
    pub(super) fn ring_rebuilt(&mut self) {
        self.ctrl.repair.owned.clear();
        for s in &mut self.shard_states {
            s.store.unsettle_all();
        }
    }

    /// Schedule a recovery migration of `node` at the current instant (a
    /// fault-driven control broadcast: it runs at a barrier edge, not as a
    /// cross-shard message). No-op unless the mode enables anti-entropy.
    pub(super) fn schedule_repair_sync(&mut self, node: NodeId) {
        if self.shared.config.repair.mode.anti_entropy_enabled() {
            let now = self.clock;
            self.ctrl_sink()
                .lane
                .schedule_at(now, Event::RepairSync { node });
        }
    }

    /// Send one background repair write to `to` (a replayed hint, or a
    /// streamed record in a hint's shape): metered as billable traffic and
    /// in the repair breakdown, with a sampled link delay, then scheduled
    /// straight into the destination shard's lane — this is a serial point,
    /// so nothing needs staging. Sweeps and syncs only pair nodes whose
    /// link is up, so the write that a partition can eat here is a hint
    /// replay.
    fn send_repair_write(&mut self, now: SimTime, to: NodeId, hint: Hint) {
        let (from, size) = (hint.from, hint.size);
        let k = self.ctrl_sink();
        let (class, total) = k.shared.wire(from, to, size);
        k.ctrl.metrics.repair_traffic.add(class, total);
        let delay = account_message(k.shared, k.rng, &mut k.ctrl.metrics, from, to, size);
        if !self.shared.faults.link_up(from, to) {
            // Lost in a partition like any other message; anti-entropy (if
            // enabled) reconciles the residue after the heal.
            self.ctrl.metrics.messages_lost += 1;
            return;
        }
        self.shard_states[self.shared.shard_of(to)].deliver_write(
            now + delay,
            to,
            WritePayload {
                op_id: REPAIR_OP_ID,
                key: hint.key,
                version: hint.version,
                size,
                repair: true,
                coordinator: pack_node(from),
            },
        );
    }

    /// Start (or restart) the paced hint replay chain to `node` after it
    /// came back up. No-op when hints are disabled, the queue is empty, or
    /// a chain is already scheduled.
    pub(super) fn start_hint_replay(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        let repair = &mut self.ctrl.repair;
        // (With hints disabled nothing is ever queued.)
        if repair.hints[idx].is_empty() || repair.hint_replay_active[idx] {
            return;
        }
        repair.hint_replay_active[idx] = true;
        let at = self.clock + RepairConfig::HINT_REPLAY_INTERVAL;
        self.ctrl_sink()
            .lane
            .schedule_timeout(at, Event::HintReplay { node });
    }

    /// Replay one queued hint to `node` as a background repair write and
    /// chain the next replay one interval later.
    pub(super) fn on_hint_replay(&mut self, now: SimTime, node: NodeId) {
        let idx = node.0 as usize;
        if self.shared.faults.is_down(node) {
            // The node flapped down again mid-replay: park the chain; the
            // next `NodeUp` restarts it with the remaining hints.
            self.ctrl.repair.hint_replay_active[idx] = false;
            return;
        }
        let Some(hint) = self.ctrl.repair.hints[idx].pop_front() else {
            self.ctrl.repair.hint_replay_active[idx] = false;
            return;
        };
        self.ctrl.metrics.hints_replayed += 1;
        self.send_repair_write(now, node, hint);
        if self.ctrl.repair.hints[idx].is_empty() {
            self.ctrl.repair.hint_replay_active[idx] = false;
        } else {
            self.ctrl_sink().lane.schedule_timeout(
                now + RepairConfig::HINT_REPLAY_INTERVAL,
                Event::HintReplay { node },
            );
        }
    }

    /// (Re)start the anti-entropy sweep cycle (see
    /// [`CtrlSink::resume_sweeps`]).
    pub(super) fn resume_sweeps(&mut self) {
        let now = self.clock;
        self.ctrl_sink().resume_sweeps(now);
    }

    /// One anti-entropy step: diff the next node pair both ways, and chain
    /// the next step unless every pair has now been compared without
    /// streaming anything (see the module docs).
    pub(super) fn on_anti_entropy(&mut self, now: SimTime) {
        // Only `CtrlSink::resume_sweeps` starts the chain, and only with
        // anti-entropy enabled on at least two nodes.
        let n = self.shared.node_count as u64;
        let pairs = n * (n - 1) / 2;
        let (a, b) = unrank_pair(self.ctrl.repair.sweep_cursor % pairs, n);
        self.ctrl.repair.sweep_cursor += 1;
        let (a, b) = (NodeId(a as u32), NodeId(b as u32));
        // Pairs with a down endpoint or a partitioned link are skipped (and
        // count as silent); the fault transition that restores them
        // resumes the cycle.
        let faults = &self.shared.faults;
        let up = !faults.is_down(a) && !faults.is_down(b) && faults.link_up(a, b);
        let silent = !up || self.sync_pages(now, a, b, true) == 0;
        let repair = &mut self.ctrl.repair;
        repair.sweep_silent = if silent { repair.sweep_silent + 1 } else { 0 };
        if repair.sweep_silent == pairs {
            repair.sweep_active = false;
            return;
        }
        self.ctrl_sink().lane.schedule_timeout(
            now + RepairConfig::ANTI_ENTROPY_INTERVAL,
            Event::AntiEntropy,
        );
    }

    /// Compare `from` and `to` over every key page of the store — metered
    /// as one summary message `from → to` per page, and one back when
    /// `both_ways` — and stream each page's diff `from → to` (and back).
    /// Returns the number of records streamed.
    fn sync_pages(&mut self, now: SimTime, from: NodeId, to: NodeId, both_ways: bool) -> u64 {
        let mut streamed = 0;
        for page in 0..self.store_of(from).key_pages() {
            self.ctrl.metrics.repair_pages_compared += 1;
            account_summary(&self.shared, &mut self.ctrl.metrics, from, to);
            if both_ways {
                account_summary(&self.shared, &mut self.ctrl.metrics, to, from);
            }
            streamed += self.stream_page_diff(now, from, to, page);
            if both_ways {
                streamed += self.stream_page_diff(now, to, from, page);
            }
        }
        streamed
    }

    /// Stream the records of `from`'s page that are strictly newer than
    /// `to`'s copy — and that `to` currently replicates — as background
    /// repair writes, in ascending key order. Returns the number of records
    /// streamed. The strictly-newer filter makes reconciliation monotone:
    /// re-comparing a converged page streams nothing, which is what lets
    /// the sweep cycle park.
    fn stream_page_diff(&mut self, now: SimTime, from: NodeId, to: NodeId, page: usize) -> u64 {
        let mut streams = std::mem::take(&mut self.ctrl.repair.streams);
        self.diff_page_into(from, to, page, &mut streams);
        for &(key, record) in &streams {
            let hint = Hint {
                from,
                key,
                version: record.version,
                size: record.size,
            };
            self.send_repair_write(now, to, hint);
        }
        let streamed = streams.len() as u64;
        self.ctrl.metrics.repair_records_streamed += streamed;
        self.ctrl.repair.streams = streams;
        streamed
    }

    /// Replace `out` with the records a diff `from → to` of key page `page`
    /// streams, in stream order, indexing the page's ownership first if
    /// this ring has not diffed it yet — and, while a crash is in force,
    /// its ownership under the load ring if no diff has needed it yet. The
    /// diff drops the keys it finds settled from the unsettled set (see
    /// the module docs).
    ///
    /// # Panics
    /// Panics on a cluster of more than one shard: diffs run where faults
    /// do, on the one-shard engine, whose one store holds both nodes'
    /// copies.
    fn diff_page_into(
        &mut self,
        from: NodeId,
        to: NodeId,
        page: usize,
        out: &mut Vec<(Key, StoredValue)>,
    ) {
        let [shard] = &mut self.shard_states[..] else {
            panic!("repair diffs run on the one-shard engine");
        };
        let (shared, repair) = (&self.shared, &mut self.ctrl.repair);
        let nodes = shared.node_count;
        let owned = indexed(&mut repair.owned, page, &shared.ring, nodes);
        let load_owned = (!shared.on_load_ring)
            .then(|| indexed(&mut repair.load_owned, page, &shared.load_ring, nodes));
        out.clear();
        shard
            .store
            .diff_page(from, to, page, owned, load_owned, out);
    }

    /// The records a repair diff `from → to` of key page `page` streams, in
    /// stream order (tests and diagnostics). Like every diff, it drops the
    /// keys it finds settled from the unsettled set.
    ///
    /// # Panics
    /// As the diffs of the repair plane, on a cluster of more than one
    /// shard.
    pub fn repair_page_diff(
        &mut self,
        from: NodeId,
        to: NodeId,
        page: usize,
    ) -> Vec<(Key, Version, u32)> {
        let mut out = Vec::new();
        self.diff_page_into(from, to, page, &mut out);
        out.into_iter()
            .map(|(key, record)| (key, record.version, record.size))
            .collect()
    }

    /// Recovery migration: synchronize `node` from every up peer — every
    /// key page compared (metered) and diffed in. Runs when a node rejoins
    /// the ring (pull the writes it missed) and on every survivor after a
    /// crash (pull the acquired ranges). Residual divergence — e.g. from
    /// peers that were themselves partitioned — is left to the sweep cycle,
    /// whose silent steps count afresh from a sync that streamed.
    pub(super) fn on_repair_sync(&mut self, now: SimTime, node: NodeId) {
        // (Scheduled only with anti-entropy enabled.)
        if self.shared.faults.is_down(node) {
            return;
        }
        for peer in 0..self.shared.node_count as u32 {
            let peer = NodeId(peer);
            let faults = &self.shared.faults;
            if peer != node
                && !faults.is_down(peer)
                && faults.link_up(peer, node)
                && self.sync_pages(now, peer, node, false) > 0
            {
                self.ctrl.repair.sweep_silent = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::*;
    use super::super::{BatchOp, ClusterOutput, FaultAction};
    use super::*;
    use crate::config::RepairMode;
    use crate::consistency::ConsistencyLevel;
    use crate::paged::PAGE_SLOTS;
    use concord_sim::SimDuration;

    #[test]
    fn hinted_handoff_replays_missed_writes_to_a_recovered_node() {
        let mut c = repair_cluster(5, 3, RepairMode::Hints, 29);
        c.load_records((0..10u64).map(|k| (k, 100)));
        let victim = c.replicas_of(3)[1];
        c.inject(FaultAction::NodeDown(victim.0));
        let before = c.stored(victim, 3).unwrap().version;
        // ONE writes succeed on the up replicas; the coordinator queues a
        // hint for the down one.
        for i in 0..5u64 {
            c.submit(
                BatchOp::write(SimTime::from_millis(i), 3, 100).with_level(ConsistencyLevel::One),
            );
        }
        drain(&mut c);
        assert_eq!(c.pending_hints(victim), 5);
        assert_eq!(c.metrics().hints_queued, 5);
        assert_eq!(c.metrics().hints_replayed, 0);
        assert_eq!(
            c.stored(victim, 3).unwrap().version,
            before,
            "a down node applies nothing"
        );

        c.inject(FaultAction::NodeUp(victim.0));
        drain(&mut c);
        assert_eq!(c.pending_hints(victim), 0);
        assert_eq!(c.metrics().hints_replayed, 5);
        assert_eq!(c.inflight_write_payloads(), 0, "repair payloads drain");
        let fresh = c.stored(c.replicas_of(3)[0], 3).unwrap().version;
        assert_eq!(
            c.stored(victim, 3).unwrap().version,
            fresh,
            "replayed hints bring the recovered node fully up to date"
        );
        assert!(
            c.metrics().repair_traffic.total() > 0,
            "hint replays are metered as repair bytes"
        );
        assert_eq!(
            c.metrics().repair_pages_compared,
            0,
            "mode=Hints runs no anti-entropy sweeps"
        );
    }

    #[test]
    fn hint_queues_are_bounded_and_overflow_is_metered() {
        let capacity = RepairConfig::HINT_CAPACITY_PER_NODE;
        let mut c = repair_cluster(5, 3, RepairMode::Hints, 31);
        c.load_records((0..10u64).map(|k| (k, 100)));
        let victim = c.replicas_of(3)[1];
        c.inject(FaultAction::NodeDown(victim.0));
        for i in 0..capacity as u64 + 7 {
            c.submit(
                BatchOp::write(SimTime::from_millis(i), 3, 100).with_level(ConsistencyLevel::One),
            );
        }
        drain(&mut c);
        assert_eq!(c.pending_hints(victim), capacity, "the queue is bounded");
        // Hints parked for a down node are not a leak; a replay chain
        // flagged over an empty queue is.
        assert_eq!(c.check_drained(), Ok(()));
        c.ctrl.repair.hint_replay_active[0] = true;
        let stuck = c.check_drained().unwrap_err();
        assert!(stuck.contains("node 0: hint replay flagged"), "{stuck}");
        assert_eq!(c.metrics().hints_queued, capacity as u64);
        assert_eq!(c.metrics().hints_dropped, 7);
    }

    #[test]
    fn anti_entropy_reconverges_diverged_replicas_and_parks() {
        let mut c = repair_cluster(5, 3, RepairMode::AntiEntropy, 37);
        c.load_records((0..20u64).map(|k| (k, 100)));
        let victim = c.replicas_of(7)[2];
        c.inject(FaultAction::NodeDown(victim.0));
        for i in 0..8u64 {
            c.submit(
                BatchOp::write(SimTime::from_millis(i), 7, 100).with_level(ConsistencyLevel::One),
            );
        }
        drain(&mut c);
        assert_eq!(
            c.metrics().hints_queued,
            0,
            "mode=AntiEntropy queues no hints"
        );
        c.inject(FaultAction::NodeUp(victim.0));
        // run_to_completion terminates because the sweep cycle parks after a
        // silent round — and by then the divergence must be gone.
        drain(&mut c);
        let fresh = c.stored(c.replicas_of(7)[0], 7).unwrap().version;
        assert_eq!(
            c.stored(victim, 7).unwrap().version,
            fresh,
            "sweeps stream the missed writes back"
        );
        assert!(c.metrics().repair_pages_compared > 0);
        assert!(c.metrics().repair_records_streamed > 0);
        assert!(c.metrics().repair_traffic.total() > 0);
        assert_eq!(c.inflight_write_payloads(), 0);

        // A further drain on the converged cluster streams nothing new.
        let streamed = c.metrics().repair_records_streamed;
        c.submit(BatchOp::read(c.now(), 7).with_level(ConsistencyLevel::One));
        drain(&mut c);
        assert_eq!(c.metrics().repair_records_streamed, streamed);
        // A parked cycle is no longer flagged active.
        assert_eq!(c.check_drained(), Ok(()));
        c.ctrl.repair.sweep_active = true;
        let stuck = c.check_drained().unwrap_err();
        assert_eq!(stuck, "anti-entropy flagged active over a drained queue");
    }

    #[test]
    fn a_heal_in_mid_round_parks_only_after_every_pair_was_compared() {
        // Four nodes over two datacenters (dc-b owns the odd ids): six
        // pairs a round, (0,1), (0,2), (0,3), (1,2), (1,3), (2,3).
        let mut cfg = two_dc_config(4, 2);
        cfg.repair = RepairConfig::with_mode(RepairMode::AntiEntropy);
        let mut c = Cluster::new(cfg, 43);
        c.load_records((0..200u64).map(|k| (k, 100)));
        // Writes to the keys of nodes 0 and 1 alone, across the partition:
        // only the first pair can repair them.
        let split: Vec<u64> = (0..200)
            .filter(|&k| {
                let mut replicas = c.replicas_of(k);
                replicas.sort();
                replicas == [NodeId(0), NodeId(1)]
            })
            .collect();
        assert!(!split.is_empty());
        c.inject(FaultAction::PartitionDcs(0, 1));
        for (i, &k) in split.iter().enumerate() {
            let at = SimTime::from_micros(10 + i as u64);
            c.submit(BatchOp::write(at, k, 100).with_level(ConsistencyLevel::One));
        }
        // The sweep steps every 20 ms from 20 ms on: (0,1), (0,2) and (0,3)
        // go by partitioned, and the heal comes before the fourth step.
        c.schedule_tick(SimTime::from_millis(70), 0);
        while !matches!(c.advance(), Some(ClusterOutput::Tick { .. })) {}
        assert_eq!(c.ctrl.repair.sweep_cursor, 3, "the heal lands mid-round");
        assert!(c.metrics().messages_lost > 0);
        c.inject(FaultAction::HealDcs(0, 1));
        drain(&mut c);
        assert_eq!(c.check_drained(), Ok(()));
        let nodes = || (0..4).map(NodeId);
        for (from, to) in nodes().flat_map(|a| nodes().map(move |b| (a, b))) {
            for page in 0..c.store_of(from).key_pages() {
                if from != to {
                    let diff = c.repair_page_diff(from, to, page);
                    assert_eq!(diff, [], "{from:?} -> {to:?}, page {page}");
                }
            }
        }
        for &k in &split {
            assert_eq!(c.stored(NodeId(0), k), c.stored(NodeId(1), k), "key {k}");
        }
    }

    #[test]
    fn recovery_migration_restores_a_crashed_nodes_data() {
        let mut c = repair_cluster(5, 3, RepairMode::Full, 41);
        c.load_records((0..30u64).map(|k| (k, 100)));
        let victim = NodeId(2);
        let affected: Vec<u64> = (0..30u64)
            .filter(|&k| c.replicas_of(k).contains(&victim))
            .collect();
        assert!(!affected.is_empty());
        c.inject(FaultAction::CrashNode(victim.0));
        // Fresh writes land only on the survivors while the node is out.
        for (i, &k) in affected.iter().enumerate() {
            c.submit(
                BatchOp::write(c.now() + SimDuration::from_millis(i as u64), k, 100)
                    .with_level(ConsistencyLevel::All),
            );
        }
        drain(&mut c);
        c.inject(FaultAction::RecoverNode(victim.0));
        drain(&mut c);
        for &k in &affected {
            let fresh = c.stored(c.replicas_of(k)[0], k).unwrap().version;
            assert_eq!(
                c.stored(victim, k).unwrap().version,
                fresh,
                "recovery migration must stream key {k} back to the rejoined node"
            );
        }
        assert!(c.metrics().repair_records_streamed >= affected.len() as u64);
        assert_eq!(c.inflight_write_payloads(), 0);
    }

    #[test]
    fn ownership_index_pages_are_exactly_sized_and_ascending() {
        let mut c = cluster(7, 3);
        c.repair_page_diff(NodeId(0), NodeId(1), 1);
        assert!(
            c.ctrl.repair.owned[0].is_none(),
            "pages are indexed on first diff"
        );
        let page = c.ctrl.repair.owned[1].as_ref().unwrap();
        for off in 0..PAGE_SLOTS {
            let key = PAGE_SLOTS as u64 + off as u64;
            let mut replicas = c.replicas_of(key);
            replicas.sort();
            let owners: Vec<_> = page.owners(off).collect();
            assert_eq!(
                owners, replicas,
                "key {key}: exactly its RF replicas, ascending"
            );
        }
    }

    #[test]
    fn unrank_pair_enumerates_every_unordered_pair() {
        let n = 6u64;
        let mut seen = std::collections::HashSet::new();
        for idx in 0..n * (n - 1) / 2 {
            let (i, j) = unrank_pair(idx, n);
            assert!(i < j && j < n, "({i},{j}) out of range");
            assert!(seen.insert((i, j)), "({i},{j}) enumerated twice");
        }
        assert_eq!(seen.len() as u64, n * (n - 1) / 2);
    }

    #[test]
    fn repair_off_adds_no_events_or_meters_under_faults() {
        // With repair off a faulty run is byte-identical to the pre-repair
        // code path: no hints, no sweeps, no repair traffic.
        let mut c = cluster(5, 3);
        c.load_records((0..10u64).map(|k| (k, 100)));
        c.inject(FaultAction::NodeDown(1));
        for i in 0..20u64 {
            c.submit(
                BatchOp::write(SimTime::from_millis(i), i % 10, 100)
                    .with_level(ConsistencyLevel::One),
            );
        }
        drain(&mut c);
        c.inject(FaultAction::NodeUp(1));
        drain(&mut c);
        let m = c.metrics();
        assert_eq!(m.hints_queued, 0);
        assert_eq!(m.hints_replayed, 0);
        assert_eq!(m.hints_dropped, 0);
        assert_eq!(m.repair_pages_compared, 0);
        assert_eq!(m.repair_records_streamed, 0);
        assert_eq!(m.repair_traffic.total(), 0);
    }
}
