//! The read / write / scan protocol: what a coordinator and its replicas do
//! with one client operation.
//!
//! **State.** Per shard, the in-flight operations ([`WriteState`] and
//! [`ReadState`] in the shard's op slab, under the [`OpState`] they share
//! with not-yet-arrived submissions), the interned write payloads
//! ([`PayloadSlab`]) and every node's service slots and task queue
//! ([`NodeRuntime`]) — all inside the `ShardState` a
//! handler holds exclusively.
//!
//! **Events.** [`Event::ClientArrive`], [`Event::ReplicaArrive`],
//! [`Event::ReplicaServiceDone`], [`Event::CoordinatorWriteAck`],
//! [`Event::CoordinatorReadResponse`] and [`Event::OpTimeout`], each handled
//! by one `ShardCtx` method below, written once for both engines: wherever
//! the one-shard and the windowed engine differ — allocating a version,
//! reaching the oracle or the hint queues, sampling propagation, re-issuing
//! a timed-out attempt, sending across a shard cut — the handler calls a
//! `ShardCtx` method of `engine.rs`, unconditionally. Fault state is asked
//! through `ClusterShared::faults`; the resilience layer hooks in from
//! `resilience.rs`.

use super::engine::ShardCtx;
use super::repair::Hint;
use super::{
    account_message, draw_coordinator, ClusterOutput, Event, NodeRuntime, OpState,
    ReplicaSelection, RetryCtx, ShardState, Submission,
};
use crate::consistency::ConsistencyLevel;
use crate::ring::{Partitioner, ORDERED_SLICE_BITS};
use crate::types::{CompletedOp, Key, OpId, OpKind, OpStatus, Version};
use concord_sim::{InlineVec, NodeId, SimDuration, SimTime};

/// Work items queued on a replica node.
///
/// A write fan-out sends the *same* mutation to every replica, so the write
/// payload is interned once in the owning shard's ref-counted payload slab
/// and the task carries only a 4-byte handle — RF in-flight copies of one
/// write cost one payload record, and the event queue moves 8 fewer bytes
/// per hop.
#[derive(Debug, Clone, Copy)]
pub(super) enum ReplicaTask {
    Write {
        /// Handle into the shard's [`PayloadSlab`]; released on
        /// consumption. Payload handles never cross shards: a remote write
        /// task travels as an `OutMsg::WriteTask` carrying the payload by
        /// value and is re-interned at its destination shard when the
        /// window closes.
        payload: PayloadId,
    },
    Read {
        op_id: OpId,
        key: Key,
        /// Whether this replica returns the full data or only a digest.
        data: bool,
        /// Number of consecutive records to read (1 for point reads; YCSB-E
        /// range scans read `len` adjacent slots of the dense store).
        /// 16-bit on the wire — `ClusterConfig::validate` caps scan
        /// lengths so the task stays within the 24-byte event budget.
        len: u16,
        /// Which segment of a multi-segment scan this request serves (0 for
        /// point reads and hash-partitioned scans; ordered-partitioner scans
        /// split at ownership boundaries and gather per segment).
        segment: u16,
        /// The coordinator awaiting the response, as a packed 16-bit node
        /// index (see [`pack_node`]). Carried on the task so a replica on a
        /// foreign shard can sample the response delay and meter the
        /// message on *its own* stream at service time instead of deferring
        /// the draw to the window close.
        coordinator: u16,
    },
}

/// Compress a [`NodeId`] to 16 bits for event-payload packing. Node counts
/// are capped at 65 536 by `ClusterConfig::validate`, so the cast is
/// lossless; the debug assert guards internal callers that bypass
/// validation.
#[inline]
pub(super) fn pack_node(node: NodeId) -> u16 {
    debug_assert!(node.0 <= u16::MAX as u32, "node id exceeds 16-bit packing");
    node.0 as u16
}

/// Index into a shard's interned write-payload slab.
pub(super) type PayloadId = u32;

/// The shared payload of one write fan-out (client write or read repair):
/// interned once per shard, referenced by up to RF [`ReplicaTask::Write`]
/// events on that shard.
#[derive(Debug, Clone, Copy)]
pub(super) struct WritePayload {
    pub(super) op_id: OpId,
    pub(super) key: Key,
    pub(super) version: Version,
    pub(super) size: u32,
    /// Background repair writes do not generate client-visible acks.
    pub(super) repair: bool,
    /// The coordinator awaiting the ack, as a packed 16-bit node index
    /// (see [`pack_node`] and [`ReplicaTask::Read`]'s `coordinator` —
    /// same sender-side-draw rationale; unused for `repair` payloads,
    /// which ack nobody).
    pub(super) coordinator: u16,
}

/// One slot of the write-payload slab: the payload plus its reference count
/// (live [`ReplicaTask::Write`] events pointing at it).
#[derive(Debug, Clone, Copy)]
struct PayloadSlot {
    refs: u32,
    payload: WritePayload,
}

#[derive(Debug)]
pub(super) struct WriteState {
    /// The submission this attempt serves, kept so a timed-out attempt can
    /// be re-issued when retries are configured.
    sub: Submission,
    /// What spans attempts: the client-visible submission time, the budget
    /// left and the id `submit_*` returned to the client. Retried attempts
    /// run under fresh slab ids (so straggler events of the old attempt
    /// miss on the generation check), but the completion is always reported
    /// under that one, keeping client-side correlation intact.
    retry: RetryCtx,
    version: Version,
    required_acks: u32,
    acks: u32,
    applied: u32,
    targeted: u32,
    completed: bool,
    /// Latest apply time reported by an ack (see
    /// [`Event::CoordinatorWriteAck::applied_at`]).
    max_applied_at: SimTime,
}

#[derive(Debug)]
pub(super) struct ReadState {
    /// What a re-issue needs of the submission, flat: a whole `Submission`
    /// would grow this state — the largest, so it sizes every op-slab slot —
    /// by 16 bytes for a `kind` the variant implies and a `size` reads lack.
    pub(super) key: Key,
    /// Consecutive records of the whole operation (1 = point read).
    pub(super) scan_len: u32,
    level: Option<ConsistencyLevel>,
    /// What spans attempts (see [`WriteState`]).
    retry: RetryCtx,
    pub(super) coordinator: NodeId,
    required: u32,
    /// Segments still short of `required` responses; the read completes
    /// when this reaches zero. 1 segment for point reads and hash scans;
    /// ordered scans carry one segment per ownership slice the range spans.
    pub(super) seg_pending: u32,
    /// Per-segment response counts, indexed by segment.
    seg_responses: InlineVec<u32>,
    /// Records accumulated from data responses (the scan's coverage).
    records: u32,
    best_version: Version,
    best_size: u32,
    min_version: Version,
    /// The freshness requirement captured at attempt start — one shard
    /// only. Otherwise the window close resolves it retroactively
    /// (`StalenessOracle::expected_version_at` as of `attempt_at`) and
    /// this stays [`Version::NONE`].
    expected_version: Version,
    /// When this attempt was issued (the retroactive-classification
    /// instant; `retry.issued_at` spans attempts, this one does not).
    pub(super) attempt_at: SimTime,
    /// The replicas this read contacted (for read repair). Inline up to 8
    /// nodes, so issuing a read does not allocate.
    pub(super) contacted: InlineVec<NodeId>,
    /// The replica a speculative hedge request was sent to (`None` until the
    /// hedge fires; at most one hedge per attempt). Used to attribute the
    /// winning response (`hedge_wins`) and to fold the hedge target into
    /// read repair like any contacted replica.
    pub(super) hedge: Option<NodeId>,
}

impl WriteState {
    /// Count one replica applying the write at `now`. Once the full replica
    /// set has — the ring always yields exactly RF distinct replicas, so the
    /// check needs no ring walk — returns the time since issue: the
    /// propagation time as an engine that sees every apply samples it
    /// ([`ShardCtx::sample_propagation_on_apply`]).
    fn note_applied(&mut self, now: SimTime, rf: u32) -> Option<SimDuration> {
        self.applied += 1;
        (self.applied == self.targeted && self.targeted == rf).then(|| now - self.retry.issued_at)
    }

    /// Count one ack from a replica that applied the write at `applied_at`.
    /// Once the full replica set has answered, returns the time from issue
    /// to the latest apply: the propagation time as an engine that sees
    /// only the acks samples it ([`ShardCtx::sample_propagation_on_ack`]).
    fn note_acked(&mut self, applied_at: SimTime, rf: u32) -> Option<SimDuration> {
        self.acks += 1;
        self.max_applied_at = self.max_applied_at.max(applied_at);
        (self.acks == self.targeted && self.targeted == rf)
            .then(|| self.max_applied_at - self.retry.issued_at)
    }

    /// The client-visible outcome of this write ending at `now` with
    /// `status`: an acknowledged write reports its version.
    fn completion(&self, now: SimTime, status: OpStatus) -> CompletedOp {
        let mut op = self.retry.outcome(OpKind::Write, self.sub.key, now, status);
        op.replicas_involved = self.required_acks;
        if status == OpStatus::Ok {
            op.returned_version = self.version;
        }
        op
    }
}

impl ReadState {
    /// The submission this attempt serves, for a re-issue.
    fn submission(&self) -> Submission {
        Submission {
            kind: OpKind::Read,
            key: self.key,
            size: 0,
            scan_len: self.scan_len,
            level: self.level,
        }
    }

    /// The client-visible outcome of this read ending at `now` with
    /// `status`, not yet classified: a completed read reports the newest
    /// version it reconciled, a timed-out one the records it had gathered
    /// by then.
    fn completion(&self, now: SimTime, status: OpStatus) -> CompletedOp {
        let mut op = self.retry.outcome(OpKind::Read, self.key, now, status);
        op.replicas_involved = self.required;
        op.records_returned = self.records;
        if status == OpStatus::Ok {
            op.returned_version = self.best_version;
        }
        op
    }
}

impl RetryCtx {
    /// The client-visible outcome of an attempt on `key` ending at `now`
    /// with `status`, before what the attempt gathered is filled in:
    /// reported under the submitted id and timed from the first attempt.
    fn outcome(&self, kind: OpKind, key: Key, now: SimTime, status: OpStatus) -> CompletedOp {
        CompletedOp {
            id: self.client_id,
            kind,
            key,
            issued_at: self.issued_at,
            completed_at: now,
            status,
            replicas_involved: 0,
            returned_version: Version::NONE,
            stale: false,
            staleness_depth: 0,
            records_returned: 0,
        }
    }
}

/// A shard's interned write-fan-out payloads, ref-counted by the events
/// that carry their [`PayloadId`]; slots recycle through the free list.
#[derive(Default)]
pub(super) struct PayloadSlab {
    slots: Vec<PayloadSlot>,
    free: Vec<PayloadId>,
    live: usize,
}

impl PayloadSlab {
    /// Intern a write-fan-out payload with zero references; callers bump the
    /// count with [`PayloadSlab::retain`] once per event they schedule and
    /// drop the slot again if nothing ended up referencing it.
    fn intern(&mut self, payload: WritePayload) -> PayloadId {
        self.live += 1;
        if let Some(id) = self.free.pop() {
            self.slots[id as usize] = PayloadSlot { refs: 0, payload };
            id
        } else {
            let id = PayloadId::try_from(self.slots.len())
                .expect("more than 2^32 in-flight write payloads");
            self.slots.push(PayloadSlot { refs: 0, payload });
            id
        }
    }

    #[inline]
    pub(super) fn retain(&mut self, id: PayloadId) {
        self.slots[id as usize].refs += 1;
    }

    /// The payload behind a live handle.
    pub(super) fn get(&self, id: PayloadId) -> &WritePayload {
        &self.slots[id as usize].payload
    }

    /// Read the payload and drop one reference; the slot is recycled when the
    /// last referencing event consumes it.
    #[inline]
    fn release(&mut self, id: PayloadId) -> WritePayload {
        let slot = &mut self.slots[id as usize];
        debug_assert!(slot.refs > 0, "payload released more often than retained");
        slot.refs -= 1;
        let payload = slot.payload;
        if slot.refs == 0 {
            self.free.push(id);
            self.live -= 1;
        }
        payload
    }

    /// Free an interned payload that ended up with no referencing events
    /// (every target replica was down or remote at fan-out time).
    fn discard_unreferenced(&mut self, id: PayloadId) {
        if self.slots[id as usize].refs == 0 {
            self.free.push(id);
            self.live -= 1;
        }
    }

    /// Payloads still referenced by in-flight replica tasks.
    pub(super) fn live(&self) -> usize {
        self.live
    }
}

impl ShardState {
    /// Put one write task for `node`, arriving at `at`, on this shard's
    /// lane, with `payload` interned for it alone: how a write that did not
    /// originate on this shard (a staged cross-shard task, a hint replay, a
    /// streamed repair record) enters it at a serial point.
    pub(super) fn deliver_write(&mut self, at: SimTime, node: NodeId, payload: WritePayload) {
        let payload = self.payloads.intern(payload);
        self.payloads.retain(payload);
        self.lane.schedule_at(
            at,
            Event::ReplicaArrive {
                node,
                task: ReplicaTask::Write { payload },
            },
        );
    }

    /// A write ack that can no longer arrive (its replica died or the
    /// partition ate the message): stop counting that replica as targeted,
    /// and reclaim the slab slot if the write was only waiting for it. Runs
    /// against the op's home shard.
    pub(super) fn abandon_ack(&mut self, op_id: OpId) {
        if let Some(OpState::Write(w)) = self.ops.get_mut(op_id) {
            w.targeted = w.targeted.saturating_sub(1);
            if w.completed && w.acks >= w.targeted {
                self.ops.remove(op_id);
            }
        }
    }

    /// Record a client-visible completion in this shard's meters and output
    /// stream.
    pub(super) fn publish(&mut self, op: CompletedOp) {
        self.metrics.record_completion(&op);
        self.outputs.push(ClusterOutput::Completed(op));
    }

    /// What a drained run leaves behind in a shard: no operation or payload
    /// in flight, every node idle with an empty queue.
    pub(super) fn check_drained(&self) -> Result<(), String> {
        let (shard, ops, payloads) = (self.shard, self.ops.len(), self.payloads.live);
        if ops + payloads > 0 {
            return Err(format!(
                "shard {shard}: {ops} ops and {payloads} write payloads still in flight"
            ));
        }
        let busy = |n: &NodeRuntime| n.active > 0 || !n.queue.is_empty();
        match self.nodes.iter().position(busy) {
            Some(n) => Err(format!("shard {shard}: node {n} still serving or queueing")),
            None => Ok(()),
        }
    }
}

impl ShardCtx<'_> {
    /// Account a message of `bytes` payload travelling `from → to` against
    /// this shard's RNG and meters.
    pub(super) fn account_message(&mut self, from: NodeId, to: NodeId, bytes: u32) -> SimDuration {
        let s = &mut *self.s;
        account_message(self.shared, &mut s.rng, &mut s.metrics, from, to, bytes)
    }

    /// Meter a request of `bytes` payload `from → to` and sample its delay;
    /// `None` when it cannot arrive — `to` is down, or a partition eats it
    /// in transit (metered as lost). Either way the bytes left the sender.
    fn request(&mut self, from: NodeId, to: NodeId, bytes: u32) -> Option<SimDuration> {
        let delay = self.account_message(from, to, bytes);
        if self.shared.faults.is_down(to) {
            return None;
        }
        if !self.shared.faults.link_up(from, to) {
            self.s.metrics.messages_lost += 1;
            return None;
        }
        Some(delay)
    }

    /// Send the read request `task` to the replica `node`, arriving at `at`.
    pub(super) fn send_read(&mut self, at: SimTime, node: NodeId, task: ReplicaTask) {
        let dest = self.shared.shard_of(node);
        self.send_event(dest, at, Event::ReplicaArrive { node, task });
    }

    pub(super) fn on_client_arrive(&mut self, now: SimTime, op_id: OpId) {
        let p = match self.s.ops.get(op_id) {
            Some(&OpState::Pending(p)) => p,
            _ => return,
        };
        let retry = p.retry.unwrap_or(RetryCtx {
            issued_at: now,
            retries_left: self.shared.config.retry_on_timeout,
            client_id: op_id,
        });
        let coordinator = match p.coordinator {
            Some(c) if self.shared.faults.is_down(c) => {
                // The pre-routed coordinator went down between routing and
                // arrival: re-route (fresh draw among the up nodes). No
                // retry budget is consumed — the client never reached a
                // coordinator — and no backoff applies (this is re-routing,
                // not a timed-out attempt).
                self.s.ops.remove(op_id);
                self.reroute(p.sub, retry, now, false);
                return;
            }
            Some(c) => c,
            // Nothing was routed at admission; draw now.
            None => draw_coordinator(self.shared, &mut self.s.rng, &mut self.s.up_scratch),
        };
        match p.sub.kind {
            OpKind::Write => self.start_write(now, op_id, p.sub, coordinator, retry),
            OpKind::Read => self.start_read(now, op_id, p.sub, coordinator, retry),
        }
    }

    /// Issue a write attempt. `retry` carries the client-visible submission
    /// time, the remaining budget and the id `submit_*` handed out, which
    /// differ from `now`/`op_id` for retried attempts so latency spans every
    /// attempt and completions keep the submitted id.
    fn start_write(
        &mut self,
        now: SimTime,
        op_id: OpId,
        sub: Submission,
        coordinator: NodeId,
        retry: RetryCtx,
    ) {
        let level = sub.level.unwrap_or(self.shared.config.write_level);
        let required_acks = self.shared.config.required_acks(level);
        let version = self.alloc_version(now, sub.key);
        let mut replicas = std::mem::take(&mut self.s.replica_scratch);
        self.shared.ring.replicas_into(sub.key, &mut replicas);
        let mut targeted = 0u32;

        // One interned payload serves the whole local fan-out: the scheduled
        // events each carry a 4-byte handle instead of a full mutation copy.
        let payload = self.s.payloads.intern(WritePayload {
            op_id,
            key: sub.key,
            version,
            size: sub.size,
            repair: false,
            coordinator: pack_node(coordinator),
        });
        for &replica in &replicas {
            let Some(delay) = self.request(coordinator, replica, sub.size) else {
                // The mutation is lost to this replica for now; for a down
                // one, with hinted handoff, the coordinator queues a bounded
                // hint to replay once the node is back up.
                let hints = self.shared.config.repair.mode.hints_enabled();
                if hints && self.shared.faults.is_down(replica) {
                    let hint = Hint {
                        from: coordinator,
                        key: sub.key,
                        version,
                        size: sub.size,
                    };
                    self.queue_hint(now, replica, hint);
                }
                continue;
            };
            targeted += 1;
            self.send_write(now + delay, replica, payload);
        }
        self.s.payloads.discard_unreferenced(payload);
        self.s.replica_scratch = replicas;

        if let Some(state) = self.s.ops.get_mut(op_id) {
            *state = OpState::Write(WriteState {
                sub,
                retry,
                version,
                required_acks,
                acks: 0,
                applied: 0,
                targeted,
                completed: false,
                max_applied_at: SimTime::ZERO,
            });
        }
        // One pending timer per in-flight op would dominate the heap; the
        // queue's sorted timeout lane keeps them out of it. The timer lives
        // on the op's home lane — where the state it fires against lives.
        self.s.lane.schedule_timeout(
            now + self.shared.config.op_timeout,
            Event::OpTimeout { op_id },
        );
    }

    /// Issue a read attempt (see [`ShardCtx::start_write`] for the retry
    /// parameters).
    ///
    /// Point reads and hash-partitioned scans contact `required` replicas of
    /// the key's placement, each reading the whole range (a hash-placed
    /// replica holds only the subset of the range it owns, so its response
    /// covers that subset — Cassandra's random-partitioner semantics).
    /// Ordered-partitioner scans are **coverage-faithful**: the range is
    /// split at ownership-slice boundaries and each segment fans out to the
    /// `required` replicas of *its* owners, so the data responses together
    /// return every record in the range, gathered across boundaries.
    fn start_read(
        &mut self,
        now: SimTime,
        op_id: OpId,
        sub: Submission,
        coordinator: NodeId,
        retry: RetryCtx,
    ) {
        let level = sub.level.unwrap_or(self.shared.config.read_level);
        let required = self.shared.config.required_acks(level);
        let expected_version = self.read_expectation(sub.key);
        // Ownership-boundary segmentation (ordered scans only; everything
        // else is a single segment covering the whole range).
        let scan_len = sub.scan_len.max(1);
        let split = self.shared.config.partitioner == Partitioner::Ordered && scan_len > 1;
        let end = sub.key.0.saturating_add(scan_len as u64);

        let mut replicas = std::mem::take(&mut self.s.replica_scratch);
        let mut contacted: InlineVec<NodeId> = InlineVec::new();
        let mut seg_responses: InlineVec<u32> = InlineVec::new();
        let mut segments = 0u32;
        let mut seg_start = sub.key.0;
        while seg_start < end || segments == 0 {
            let seg_len = if split {
                // Stop at the next ownership-slice boundary (aligned with
                // the paged tables' page size).
                let boundary = (seg_start | ((1u64 << ORDERED_SLICE_BITS) - 1)).saturating_add(1);
                (boundary.min(end) - seg_start) as u32
            } else {
                scan_len
            };
            let segment = u16::try_from(segments).expect("a scan spans at most 2^16 segments");
            self.shared
                .ring
                .replicas_into(Key(seg_start), &mut replicas);
            self.rank_read_replicas(now, coordinator, &mut replicas);
            replicas.truncate(required as usize);
            for (i, &replica) in replicas.iter().enumerate() {
                let bytes = self.shared.config.small_message_bytes;
                let Some(delay) = self.request(coordinator, replica, bytes) else {
                    continue;
                };
                let task = ReplicaTask::Read {
                    op_id,
                    key: Key(seg_start),
                    data: i == 0,
                    len: seg_len
                        .try_into()
                        .expect("validate() caps scan segments at 2^16 records"),
                    segment,
                    coordinator: pack_node(coordinator),
                };
                self.send_read(now + delay, replica, task);
            }
            self.s.metrics.read_replicas_contacted += replicas.len() as u64;
            contacted.extend_from_slice(&replicas);
            seg_responses.push(0);
            segments += 1;
            if !split {
                break;
            }
            // Cannot overflow: a split segment ends at or before `end`.
            seg_start += seg_len as u64;
        }

        self.s.replica_scratch = replicas;
        if let Some(state) = self.s.ops.get_mut(op_id) {
            *state = OpState::Read(ReadState {
                key: sub.key,
                scan_len: sub.scan_len,
                level: sub.level,
                retry,
                coordinator,
                required,
                seg_pending: segments,
                seg_responses,
                records: 0,
                best_version: Version::NONE,
                best_size: 0,
                min_version: Version(u64::MAX),
                expected_version,
                attempt_at: now,
                contacted,
                hedge: None,
            });
        }
        // Home-lane timer, same rationale as the write path.
        self.s.lane.schedule_timeout(
            now + self.shared.config.op_timeout,
            Event::OpTimeout { op_id },
        );
        // Hedged reads: arm one speculative trigger per point-read attempt
        // (scans have no single best unused replica to duplicate to). The
        // timer rides the home lane like the timeout — coordinator-homed
        // state, no cross-shard traffic. Off (the default) schedules
        // nothing, keeping resilience-off runs byte-identical.
        if scan_len == 1 && self.shared.config.resilience.hedging_enabled() {
            self.s.lane.schedule_timeout(
                now + self.shared.config.resilience.hedge_delay,
                Event::HedgeFire { op_id },
            );
        }
    }

    /// Order the replicas a read may contact, best first (the caller keeps
    /// as many as its level requires): shuffle (so equal ranks tie-break
    /// randomly, one RNG draw pattern per selection), then rank. Works in
    /// place on the caller's buffer — no allocation, no
    /// distribution-mean recomputation per comparison. `Closest` ranks by
    /// the precomputed coordinator→replica mean latency, `Dynamic` by
    /// observed health ([`ShardCtx::rank_by_health`]), `Random` not at all.
    fn rank_read_replicas(&mut self, now: SimTime, coordinator: NodeId, candidates: &mut [NodeId]) {
        self.s.rng.shuffle(candidates);
        match self.shared.config.read_selection {
            ReplicaSelection::Random => {}
            ReplicaSelection::Closest => {
                let row = self.shared.mean_lat_row(coordinator);
                candidates.sort_by(|a, b| {
                    let la = row[a.0 as usize];
                    let lb = row[b.0 as usize];
                    la.partial_cmp(&lb).expect("latencies are finite")
                });
            }
            ReplicaSelection::Dynamic => self.rank_by_health(now, coordinator, candidates),
        }
    }

    pub(super) fn on_replica_arrive(&mut self, now: SimTime, node: NodeId, task: ReplicaTask) {
        let idx = node.0 as usize;
        if self.shared.faults.is_down(node) {
            self.drop_dead_task(task);
            return;
        }
        if self.s.nodes[idx].active < self.shared.config.node_concurrency {
            self.s.nodes[idx].active += 1;
            self.start_service(now, node, task);
        } else {
            self.s.nodes[idx].queue.push_back(task);
        }
    }

    /// A replica task was dropped because its node is down. The write it
    /// belonged to will never receive this replica's ack, so stop counting
    /// the replica as targeted — otherwise the op's slab slot could wait
    /// forever for an ack that cannot arrive. Client-visible behaviour is
    /// unchanged (the ack was never coming); this only lets the state be
    /// reclaimed once the remaining live replicas have answered.
    fn drop_dead_task(&mut self, task: ReplicaTask) {
        let ReplicaTask::Write { payload } = task else {
            return;
        };
        // The task is consumed here: its payload reference dies with it.
        let p = self.s.payloads.release(payload);
        if p.repair {
            return;
        }
        self.abandon(p.op_id);
    }

    fn start_service(&mut self, now: SimTime, node: NodeId, task: ReplicaTask) {
        // `on_replica_done` touches the key's store row one service time
        // from now: start the miss here (`engine.rs`, "Memory latency").
        let (key, sampler) = match task {
            ReplicaTask::Write { payload } => (
                self.s.payloads.get(payload).key,
                &self.shared.storage_write_sampler,
            ),
            ReplicaTask::Read { key, .. } => (key, &self.shared.storage_read_sampler),
        };
        self.s.store.prefetch(key);
        // Gray failure: a slowed node serves every task `factor`× slower.
        // Applied post-sampling so the RNG stream is untouched — restoring
        // the node replays the exact healthy timeline (same contract as
        // `DegradeLink`).
        let service = sampler.sample(&mut self.s.rng);
        let service = self.shared.faults.scale_node(node, service);
        self.s
            .lane
            .schedule_at(now + service, Event::ReplicaServiceDone { node, task });
    }

    pub(super) fn on_replica_done(&mut self, now: SimTime, node: NodeId, task: ReplicaTask) {
        let idx = node.0 as usize;
        // Free the service slot and start the next queued task, if any.
        self.s.nodes[idx].active = self.s.nodes[idx].active.saturating_sub(1);
        if let Some(next) = self.s.nodes[idx].queue.pop_front() {
            self.s.nodes[idx].active += 1;
            self.start_service(now, node, next);
        }
        if self.shared.faults.is_down(node) {
            self.drop_dead_task(task);
            return;
        }

        // Serve the task. What goes back to the coordinator is a write ack
        // or a read response; the task carries the coordinator.
        let (op_id, coordinator, bytes, response) = match task {
            ReplicaTask::Write { payload } => {
                // Final consumption of this task's payload reference.
                let p = self.s.payloads.release(payload);
                self.s.store.apply_write_on(node, p.key, p.version, p.size);
                self.s.metrics.storage_write_ops += 1;
                if p.repair {
                    return; // background repair: no coordinator ack
                }
                let ack = Event::CoordinatorWriteAck {
                    op_id: p.op_id,
                    applied_at: now,
                };
                let bytes = self.shared.config.small_message_bytes;
                (p.op_id, p.coordinator, bytes, ack)
            }
            ReplicaTask::Read {
                op_id,
                key,
                data,
                len,
                segment,
                coordinator,
            } => {
                let len = len as u32;
                // Point reads probe one row; range scans stream `len`
                // adjacent rows of the dense store (each probed row is one
                // metered storage read) and respond with the range's byte
                // weight. Reconciliation keys off the anchor record.
                let (version, size, records) = if len <= 1 {
                    let value = self.s.store.read_on(node, key);
                    self.s.metrics.storage_read_ops += 1;
                    value
                        .map(|v| (v.version, v.size, 1))
                        .unwrap_or((Version::NONE, 0, 0))
                } else {
                    let range = self.s.store.read_range_on(node, key, len);
                    self.s.metrics.storage_read_ops += len as u64;
                    // The byte meter is u32: a response past 4 GiB panics in
                    // every build instead of silently clamping traffic.
                    let bytes = u32::try_from(range.bytes).unwrap_or_else(|_| {
                        panic!(
                            "range response of {} bytes overflows the u32 byte meter",
                            range.bytes
                        )
                    });
                    (
                        range.anchor.map(|v| v.version).unwrap_or(Version::NONE),
                        bytes,
                        range.records,
                    )
                };
                let response = Event::CoordinatorReadResponse {
                    op_id,
                    from: node,
                    version,
                    size,
                    // Digests answer with a checksum, not records: only the
                    // data response contributes coverage.
                    records: if data { records } else { 0 },
                    segment,
                };
                let bytes = if data {
                    size
                } else {
                    self.shared.config.small_message_bytes
                };
                (op_id, coordinator, bytes, response)
            }
        };
        // An op lives on its coordinator's shard (`Cluster::route_admission`).
        // One homed here is looked up first: if it is already freed (it
        // completed, or a timeout retry released the slot) the replica
        // sends nothing and draws nothing. A foreign op's state is
        // unreadable from here, so its response is sent regardless and dies
        // at the coordinator's generation check if the op is gone — drawing
        // unconditionally is both safe and deterministic.
        let is_ack = matches!(task, ReplicaTask::Write { .. });
        let coordinator = NodeId(coordinator as u32);
        let home = self.shared.shard_of(coordinator);
        debug_assert_eq!(home, self.shared.op_home(op_id));
        if home as u32 == self.s.shard {
            let rf = self.shared.ring.replication_factor();
            let applied = match self.s.ops.get_mut(op_id) {
                Some(OpState::Write(w)) if is_ack => w.note_applied(now, rf),
                Some(OpState::Read(_)) if !is_ack => None,
                _ => return,
            };
            if let Some(d) = applied {
                self.sample_propagation_on_apply(d);
            }
        }
        // The delay is sampled and the message metered on *this* shard's
        // stream at service time, wherever the op lives, so the window
        // close needs no RNG for response traffic.
        let delay = self.account_message(node, coordinator, bytes);
        let delay = self.shared.faults.scale_node(node, delay);
        if !self.shared.faults.link_up(node, coordinator) {
            // Lost in the partition. A read completes via other replicas or
            // times out; a write must stop expecting this ack, or its state
            // could never be reclaimed.
            self.s.metrics.messages_lost += 1;
            if is_ack {
                self.abandon(op_id);
            }
            return;
        }
        self.send_event(home, now + delay, response);
    }

    pub(super) fn on_write_ack(&mut self, now: SimTime, op_id: OpId, applied_at: SimTime) {
        let rf = self.shared.ring.replication_factor();
        let Some(OpState::Write(w)) = self.s.ops.get_mut(op_id) else {
            return;
        };
        let propagated = w.note_acked(applied_at, rf);
        let acked = (!w.completed && w.acks >= w.required_acks).then(|| {
            w.completed = true;
            w.completion(now, OpStatus::Ok)
        });
        // Keep the state until every targeted replica acked (for the
        // propagation sample), then drop it.
        let done = w.completed && w.acks >= w.targeted;
        if let Some(d) = propagated {
            self.sample_propagation_on_ack(d);
        }
        if let Some(completed) = acked {
            // The ack becomes ground truth for later reads.
            self.record_ack(completed.key, completed.returned_version, now);
            self.s.publish(completed);
        }
        if done {
            self.s.ops.remove(op_id);
        }
    }

    // The argument list mirrors the flat fields of
    // `Event::CoordinatorReadResponse`: bundling them into a struct would
    // re-introduce padding the 32-byte event layout deliberately avoids
    // (the enum tag lives in the flat variant's tail padding).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_read_response(
        &mut self,
        now: SimTime,
        op_id: OpId,
        from: NodeId,
        version: Version,
        size: u32,
        records: u32,
        segment: u16,
    ) {
        self.observe_response(now, op_id, from);
        let Some(OpState::Read(r)) = self.s.ops.get_mut(op_id) else {
            return;
        };
        // Validate the segment id before touching any state: a response
        // this read never issued must not inflate its coverage count.
        let Some(count) = r.seg_responses.get_mut(segment as usize) else {
            return;
        };
        *count += 1;
        r.records += records;
        // Reconciliation and staleness key off the range's *anchor*, which
        // only segment-0 replicas read; later segments of an ordered scan
        // answer for their own sub-range and contribute coverage only.
        if segment == 0 {
            if version > r.best_version {
                r.best_version = version;
                r.best_size = size;
            }
            r.min_version = r.min_version.min(version);
        }
        if *count == r.required {
            r.seg_pending -= 1;
        }
        if r.seg_pending == 0 {
            // Move the state out of the slab (frees the slot, invalidates any
            // straggler events carrying this id) — no clone of the contacted
            // list needed for the repair pass below.
            let Some(OpState::Read(r)) = self.s.ops.remove(op_id) else {
                unreachable!("state was just borrowed");
            };
            let key = r.key;
            let best = r.best_version;
            // The hedge "won" when the speculative duplicate's response is
            // the one that completes the read — the tail-latency save.
            if r.hedge == Some(from) {
                self.s.metrics.hedge_wins += 1;
            }
            // Scans skip read repair: their response size is the range's
            // byte weight, not one record's payload, so there is no single
            // mutation to push back (matching Cassandra, where range scans
            // do not trigger blocking read repair).
            let needs_repair =
                self.shared.config.read_repair && r.min_version < best && r.scan_len == 1;

            // Classification, metric and client output are the engine's;
            // read repair below is oracle-independent.
            let completed = r.completion(now, OpStatus::Ok);
            self.finish_read(completed, r.expected_version, r.attempt_at);

            if needs_repair {
                // Push the freshest version back to the contacted replicas
                // (one interned payload for the whole repair fan-out).
                let payload = self.s.payloads.intern(WritePayload {
                    op_id,
                    key,
                    version: best,
                    size: r.best_size,
                    repair: true,
                    // Repair writes ack nobody; carried for layout only.
                    coordinator: pack_node(r.coordinator),
                });
                for &replica in r.contacted.iter() {
                    if let Some(delay) = self.request(r.coordinator, replica, r.best_size) {
                        self.send_write(now + delay, replica, payload);
                    }
                }
                self.s.payloads.discard_unreferenced(payload);
            }
        }
    }

    pub(super) fn on_timeout(&mut self, now: SimTime, op_id: OpId) {
        self.strike_contacted(now, op_id);
        // Timeout-driven retries: an attempt with remaining budget is
        // re-issued (fresh coordinator, fresh replica fan-out) instead of
        // completing. `issued_at` is preserved, so the client-visible
        // latency spans every attempt, and each re-issue is accounted in
        // `metrics.retries`.
        let retry = match self.s.ops.get(op_id) {
            Some(OpState::Write(w)) if !w.completed => Some((w.sub, w.retry)),
            Some(OpState::Read(r)) => Some((r.submission(), r.retry)),
            _ => None,
        };
        if let Some((sub, mut retry)) = retry.filter(|(_, retry)| retry.retries_left > 0) {
            retry.retries_left -= 1;
            // Orphan the timed-out attempt: its slab slot is freed, so
            // straggler acks and responses miss on the generation check. The
            // retry runs under a fresh internal id but keeps reporting under
            // the id `submit_*` handed out.
            self.s.ops.remove(op_id);
            self.s.metrics.retries += 1;
            if self.shared.config.resilience.backoff {
                self.s.metrics.backoff_retries += 1;
            }
            self.reissue(now, sub, retry);
            return;
        }
        let (completed, free) = match self.s.ops.get_mut(op_id) {
            Some(OpState::Write(w)) => {
                let fresh = !w.completed;
                w.completed = true;
                // A write whose acks are all in (the common timeout case:
                // targeted < required because a replica was down at submit)
                // has no future event referencing this id — free the slot.
                // Otherwise the state survives the timeout: late acks still
                // feed the propagation sample and trigger removal in
                // on_write_ack.
                let free = w.acks >= w.targeted;
                (fresh.then(|| w.completion(now, OpStatus::Timeout)), free)
            }
            Some(OpState::Read(r)) => (Some(r.completion(now, OpStatus::Timeout)), true),
            _ => return,
        };
        if let Some(completed) = completed {
            self.s.metrics.timeouts += 1;
            self.s.publish(completed);
        }
        if free {
            self.s.ops.remove(op_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::*;
    use super::super::{BatchOp, Cluster, FaultAction};
    use super::*;
    use crate::config::ClusterConfig;
    use crate::consistency::ConsistencyLevel;

    #[test]
    fn scans_read_the_whole_range_and_weigh_response_traffic() {
        let mut c = cluster(5, 3);
        c.load_records((0..100u64).map(|k| (k, 1_000)));
        let reads_before = c.metrics().storage_read_ops;
        let traffic_before = c.metrics().traffic.total();
        c.submit(BatchOp::scan(SimTime::ZERO, 10, 20).with_level(ConsistencyLevel::One));
        let done = drain(&mut c);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].kind, OpKind::Read);
        assert_eq!(done[0].status, OpStatus::Ok);
        assert!(!done[0].stale, "a quiescent scan reads fresh data");
        let reads_after = c.metrics().storage_read_ops;
        assert_eq!(
            reads_after - reads_before,
            20,
            "a 20-record scan is metered as 20 storage reads"
        );
        // The data response carries the payload of every locally-present
        // record in the range. Hash partitioning scatters consecutive ids
        // over the ring, so one replica owns ~RF/N of them — still an order
        // of magnitude more response traffic than a point read's 1000 B.
        assert!(
            c.metrics().traffic.total() - traffic_before >= 10_000,
            "scan responses must be byte-weighted ({} bytes added)",
            c.metrics().traffic.total() - traffic_before
        );
    }

    #[test]
    fn scan_ranges_clamp_at_the_loaded_key_space() {
        let mut c = cluster(5, 3);
        c.load_records((0..50u64).map(|k| (k, 500)));
        let reads_before = c.metrics().storage_read_ops;
        // Anchor near the end: 10 of the 30 probed records exist.
        c.submit(BatchOp::scan(SimTime::ZERO, 40, 30).with_level(ConsistencyLevel::One));
        drain(&mut c);
        let reads_after = c.metrics().storage_read_ops;
        assert_eq!(reads_after - reads_before, 30, "absent slots still probe");
    }

    #[test]
    #[should_panic(expected = "range response of 6000000000 bytes overflows the u32 byte meter")]
    fn a_scan_response_past_4_gib_panics_in_every_build() {
        // Two 3 GB records: the data response of a scan over both does not
        // fit the meter, which used to clamp it to 4 GiB in release builds.
        let mut c = cluster(3, 3);
        c.load_records((0..2u64).map(|k| (k, 3_000_000_000)));
        c.submit(BatchOp::scan(SimTime::ZERO, 0, 2).with_level(ConsistencyLevel::One));
        drain(&mut c);
    }

    #[test]
    fn scans_observe_staleness_through_their_anchor() {
        // A scan anchored on a key whose freshest write has not propagated
        // to the contacted replica is classified stale, like a point read.
        let mut c = Cluster::new(geo_config(6, 5), 7);
        c.load_records((0..20u64).map(|k| (k, 100)));
        c.set_levels(ConsistencyLevel::One, ConsistencyLevel::One);
        let mut at = SimTime::ZERO;
        for i in 0..2_000u64 {
            at += SimDuration::from_micros(500);
            if i % 2 == 0 {
                c.submit_write_at((i / 2) % 20, 100, at);
            } else {
                c.submit_scan_at((i / 2) % 20, 5, at);
            }
        }
        let done = drain(&mut c);
        let stale = done.iter().filter(|o| o.stale).count();
        assert!(stale > 0, "weak scans under churn must observe staleness");
        assert_eq!(c.metrics().stale_reads, stale as u64);
    }

    #[test]
    fn scans_retry_with_their_full_range() {
        // A timed-out scan re-issues as a scan, not as a point read.
        let mut cfg = ClusterConfig::lan_test(4, 3);
        cfg.op_timeout = SimDuration::from_millis(50);
        cfg.retry_on_timeout = 2;
        let mut c = Cluster::new(cfg, 9);
        c.load_records((0..50u64).map(|k| (k, 100)));
        for n in 0..4 {
            c.inject(FaultAction::NodeDown(n));
        }
        let reads_before = c.metrics().storage_read_ops;
        c.submit(BatchOp::scan(SimTime::ZERO, 0, 10).with_level(ConsistencyLevel::One));
        for n in 0..4 {
            c.schedule_fault(SimTime::from_millis(60), FaultAction::NodeUp(n));
        }
        let done = drain(&mut c);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].status, OpStatus::Ok, "the retry must succeed");
        assert!(c.metrics().retries >= 1);
        let reads_after = c.metrics().storage_read_ops;
        assert_eq!(
            reads_after - reads_before,
            10,
            "the retried attempt reads the full 10-record range"
        );
    }

    #[test]
    fn read_repair_pushes_fresh_data_to_stale_replicas() {
        let mut cfg = ClusterConfig::lan_test(5, 3);
        cfg.read_repair = true;
        let mut c = Cluster::new(cfg, 17);
        c.load_records(std::iter::once((1u64, 100)));
        // Make one replica miss a write by taking it down, then bring it back
        // and read at ALL: the version mismatch triggers a repair write.
        let victim = c.replicas_of(1)[2];
        c.inject(FaultAction::NodeDown(victim.0));
        c.submit(BatchOp::write(SimTime::ZERO, 1, 100).with_level(ConsistencyLevel::One));
        drain(&mut c);
        c.inject(FaultAction::NodeUp(victim.0));
        let writes_before = c.metrics().storage_write_ops;
        c.submit(BatchOp::read(c.now(), 1).with_level(ConsistencyLevel::All));
        drain(&mut c);
        let writes_after = c.metrics().storage_write_ops;
        assert!(
            writes_after > writes_before,
            "expected repair writes after the read ({writes_before} → {writes_after})"
        );
        // The repaired replica now holds the freshest version.
        let fresh = c.stored(c.replicas_of(1)[0], 1).unwrap().version;
        assert_eq!(c.stored(victim, 1).unwrap().version, fresh);
    }

    #[test]
    fn interned_payload_keeps_events_small() {
        // The write fan-out's mutation lives once in the payload slab; the
        // per-event task is a handle. These bounds are what keep the event
        // queue's payload slab entries at 32 bytes.
        assert!(std::mem::size_of::<ReplicaTask>() <= 24);
        assert!(std::mem::size_of::<Event>() <= 32);
        assert_eq!(std::mem::size_of::<WritePayload>(), 32);
    }

    #[test]
    fn write_payload_slab_drains_after_runs() {
        // Fan-outs with acks, repairs, timeouts and down nodes all consume
        // their payload references; nothing may leak.
        let mut cfg = ClusterConfig::lan_test(6, 5);
        cfg.read_repair = true;
        cfg.op_timeout = SimDuration::from_millis(50);
        let mut c = Cluster::new(cfg, 23);
        c.load_records((0..20u64).map(|k| (k, 100)));
        c.inject(FaultAction::NodeDown(2));
        let mut at = SimTime::ZERO;
        for i in 0..600u64 {
            at += SimDuration::from_micros(300);
            match i % 3 {
                0 => c.submit(BatchOp::write(at, i % 20, 100).with_level(ConsistencyLevel::All)),
                1 => c.submit_write_at(i % 20, 100, at),
                _ => c.submit(BatchOp::read(at, i % 20).with_level(ConsistencyLevel::Quorum)),
            };
        }
        drain(&mut c);
        assert_eq!(c.inflight_write_payloads(), 0, "payload slab must drain");
        assert_eq!(c.inflight_ops(), 0);
    }

    #[test]
    fn fully_dead_fanout_discards_its_payload() {
        // Every replica of the key down at submit time: the interned payload
        // gains no references and must be reclaimed immediately.
        let mut c = cluster(3, 3);
        c.load_records((0..5u64).map(|k| (k, 100)));
        for n in 0..3 {
            c.inject(FaultAction::NodeDown(n));
        }
        c.submit_write_at(1, 100, SimTime::ZERO);
        drain(&mut c);
        assert_eq!(c.inflight_write_payloads(), 0);
    }

    #[test]
    fn timeout_retries_reissue_and_account() {
        // One node transiently down under ALL: without retries every write
        // times out; with retries each attempt is re-issued and accounted,
        // and ops still finish (as timeouts, once the budget is exhausted,
        // with latency spanning every attempt).
        let mut cfg = ClusterConfig::lan_test(4, 3);
        cfg.op_timeout = SimDuration::from_millis(50);
        cfg.retry_on_timeout = 2;
        let mut c = Cluster::new(cfg, 5);
        c.load_records((0..10u64).map(|k| (k, 100)));
        c.inject(FaultAction::NodeDown(1));
        let mut submitted_ids = Vec::new();
        for i in 0..30u64 {
            submitted_ids.push(
                c.submit(
                    BatchOp::write(SimTime::from_millis(i), i % 10, 100)
                        .with_level(ConsistencyLevel::All),
                ),
            );
        }
        let done = drain(&mut c);
        assert_eq!(done.len(), 30, "every op completes exactly once");
        // Retried attempts run under fresh internal ids, but completions
        // report the id submit_* handed out — client correlation holds.
        let mut completed_ids: Vec<OpId> = done.iter().map(|o| o.id).collect();
        completed_ids.sort();
        submitted_ids.sort();
        assert_eq!(completed_ids, submitted_ids);
        let timeouts: Vec<_> = done
            .iter()
            .filter(|o| o.status == OpStatus::Timeout)
            .collect();
        assert!(!timeouts.is_empty());
        assert!(c.metrics().retries > 0, "retries must be accounted");
        // A timed-out op burned its full budget: latency >= 3 * op_timeout.
        for o in &timeouts {
            assert!(
                o.latency() >= SimDuration::from_millis(150),
                "latency must span all attempts, got {:?}",
                o.latency()
            );
        }
        assert_eq!(c.inflight_ops(), 0, "retried ops must not leak state");
        assert_eq!(c.inflight_write_payloads(), 0);
    }

    #[test]
    fn retries_rescue_ops_when_the_fault_heals_in_time() {
        // Node down at submit, back up before the retry: the retry succeeds.
        let mut cfg = ClusterConfig::lan_test(4, 3);
        cfg.op_timeout = SimDuration::from_millis(50);
        cfg.retry_on_timeout = 3;
        let mut c = Cluster::new(cfg, 7);
        c.load_records((0..10u64).map(|k| (k, 100)));
        let victim = c.replicas_of(3)[0];
        c.inject(FaultAction::NodeDown(victim.0));
        c.submit(BatchOp::write(SimTime::ZERO, 3, 100).with_level(ConsistencyLevel::All));
        // Recover the node after the first timeout fires.
        c.schedule_fault(SimTime::from_millis(60), FaultAction::NodeUp(victim.0));
        let done = drain(&mut c);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].status, OpStatus::Ok, "the retry must succeed");
        assert!(c.metrics().retries >= 1);
        assert!(
            done[0].latency() >= SimDuration::from_millis(50),
            "latency includes the failed first attempt"
        );
    }

    #[test]
    fn scans_never_trigger_read_repair() {
        // The read-repair contract: only point reads (`scan_len == 1`)
        // repair. A divergence-observing range scan at ALL must leave the
        // stale replica untouched, while the equivalent point read fixes it.
        let mut cfg = ClusterConfig::lan_test(5, 3);
        cfg.read_repair = true;
        let mut c = Cluster::new(cfg, 17);
        c.load_records((0..10u64).map(|k| (k, 100)));
        let victim = c.replicas_of(1)[2];
        c.inject(FaultAction::NodeDown(victim.0));
        c.submit(BatchOp::write(SimTime::ZERO, 1, 100).with_level(ConsistencyLevel::One));
        drain(&mut c);
        c.inject(FaultAction::NodeUp(victim.0));
        let stale_version = c.stored(victim, 1).unwrap().version;

        let writes_before = c.metrics().storage_write_ops;
        c.submit(BatchOp::scan(c.now(), 1, 4).with_level(ConsistencyLevel::All));
        let done = drain(&mut c);
        assert_eq!(done[0].status, OpStatus::Ok);
        let writes_after = c.metrics().storage_write_ops;
        assert_eq!(
            writes_after, writes_before,
            "a range scan must never issue repair writes"
        );
        assert_eq!(
            c.stored(victim, 1).unwrap().version,
            stale_version,
            "the stale replica stays stale after the scan"
        );

        // The point read at the same level does repair it.
        c.submit(BatchOp::read(c.now(), 1).with_level(ConsistencyLevel::All));
        drain(&mut c);
        let writes_repaired = c.metrics().storage_write_ops;
        assert!(writes_repaired > writes_before);
        assert!(c.stored(victim, 1).unwrap().version > stale_version);
    }
}
