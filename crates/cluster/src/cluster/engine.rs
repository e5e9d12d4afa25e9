//! The two engines: how events are popped, where control-plane state is
//! reached from a handler, and how effects cross a shard cut.
//!
//! **State.** Per shard, the [`Staging`] area (outboxes and window counters)
//! and the [`VersionClock`]; of [`Cluster`], the control plane's own lane and
//! RNG stream, the lookahead bound (fixed when the cluster is built), the
//! synchronization counters and the last window boundary. It also owns
//! the two types through which every handler runs: [`ShardCtx`], a shard's
//! view of the cluster during event execution, and [`CtrlSink`], the
//! control plane as a serial-point action borrows it.
//!
//! **Events.** This module pops every event. Client and replica events go to
//! the handlers of `ops.rs` and `resilience.rs` through [`ShardCtx::handle`];
//! ticks, scheduled faults and the repair plane's events run through
//! [`Cluster::dispatch_ctrl`].
//!
//! **The fork.** Which engine runs is known here and nowhere else:
//! [`ShardCtx::ctrl`](ShardCtx) and [`Cluster::serial`] are private to this
//! module. Everything else — message accounting, fan-out, service, acks and
//! responses, completion, the repair and resilience planes — is written
//! once, and calls the methods of the two impl blocks headed *Where the
//! engines differ* below, unconditionally. Each holds both arms, and its
//! docs say what one shard does and what more than one do.
//!
//! Faults and timeout retries need the one-shard engine:
//! [`FaultAction::check`](super::FaultAction::check) rejects every fault on
//! more than one shard and `ClusterConfig::validate` rejects a retry budget
//! there. What only a fault or a retry reaches — queueing a hint for a down
//! replica ([`ShardCtx::queue_hint`]) and re-issuing a timed-out attempt
//! ([`ShardCtx::reissue`]) — therefore has one arm, in the block headed
//! *One shard only*, and asserts the rule that guarantees it.
//!
//! ## Parallel sharded execution
//! With `shards > 1` the cluster runs as a conservative parallel DES: every
//! shard owns a contiguous group of nodes (whole datacenters where possible)
//! and carries its **own** event lane, RNG stream, op slab, metric sinks and
//! payload slab. Each operation is routed at submission: its coordinator is
//! drawn from the control stream and the op homes on the coordinator's
//! shard, so every message it exchanges travels a real coordinator↔replica
//! link — cross-shard exactly when it crosses the shard cut. The simulation
//! advances in lookahead windows: each runs from the earliest shard event
//! to one lookahead past it, the lookahead being the delay infimum over the
//! link classes that cross a shard cut. Within a window each shard drains
//! its lane independently — the batches execute in parallel on the
//! work-stealing pool — while cross-shard effects are staged per shard.
//! Quiet simulated time costs nothing: the next window starts at the next
//! event, wherever that is.
//!
//! Every window closes the same way, serially and in fixed shard order
//! (0, 1, …): staged data-plane messages (events, write tasks) enter the
//! destination lanes, the window's write acks are recorded in the oracle,
//! its completed reads are classified and its outputs are published sorted
//! by time. The run's
//! output is therefore a pure function of `(seed, shard count)` at **any**
//! worker-thread count. A driver sees completions at window boundaries: a
//! closed loop can react to one only after the window that produced it has
//! closed, up to one lookahead after it happened.
//!
//! Two pieces of cross-op state are centralized rather than sharded. Write
//! versions are timestamp-packed (`µs << 24 | seq << 8 | shard`) so
//! last-writer-wins order follows simulated time no matter which shard
//! coordinates a key's writes. The staleness oracle lives on the control
//! plane and is touched only at serial points: windows stage write acks
//! (with their ack times) and completed reads to the close, where each read
//! is classified against the ack history *as of its own issue instant*
//! ([`StalenessOracle::expected_version_at`](super::StalenessOracle::expected_version_at)).
//! The classification is exact
//! — identical to a serial execution of the same event trace — because an
//! ack is recorded at the close of its own window, no later than the close
//! that classifies any read issued after it, and acks of the same window
//! with later times are filtered by timestamp.
//!
//! ## Two determinism universes
//! Output is a pure function of `(seed, shard count)`: byte-identical across
//! 1, 2, 4, 8, … worker threads for every shard count, because handlers
//! running inside a window touch nothing but the read-only [`ClusterShared`]
//! snapshot and their own [`ShardState`] — enforced by the borrow checker,
//! not by convention. Across shard counts it differs, and one shard differs
//! in kind: it is the engine every golden digest older than sharding was
//! captured on, one lane and one RNG stream with every event a serial point,
//! and it stays byte-identical to them.
//!
//! ## Memory latency
//! Per-key state is direct-indexed, so an access is an index entry and a row
//! (`paged.rs`) — and over a data set larger than the cache, probed at
//! scrambled keys, each can be a cache miss where every other step of an
//! event is a few nanoseconds. Two tables are touched per key. A key's
//! **store row** (one slot per replica, so a replica's copy sits in the
//! row's one or two cache lines) is read or written by `on_replica_done`;
//! the **oracle slot** is read by `start_read` (the expectation, one
//! shard), written by `on_write_ack` (one shard) and otherwise read and
//! written at the window close. A loaded key that was never written has
//! no row, and its index entry is all a reader needs. The key is known
//! events before each access, so the rule is: *the handlers that schedule
//! the touching event prefetch it, the index entry first and the row once
//! the entry has arrived* — cache hints, never an early load of a line that
//! may miss, which would stall that handler just the same — and the misses
//! overlap the events in between. The sites:
//!
//! * `ShardCtx::start_write` and `ShardCtx::start_read` hint the key's
//!   store index entry, a network delay before the replicas serve it (the
//!   window close that delivers a task across a shard cut hints it in the
//!   destination shard's store); `ShardCtx::start_service` then hints the
//!   row in the serving node's shard store — both lines when the row
//!   straddles one (a write's key comes from its interned payload): the
//!   row is needed one service time later, and tasks that waited in a
//!   node's queue start service through the same function.
//! * `Cluster::submit` hints the oracle index entry for the `ClientArrive`
//!   it schedules — the event carries the submission, key included, and
//!   the op takes its slab slot only when it fires — and one-shard
//!   [`ShardCtx::alloc_version`] hints the slot for the satisfying ack, at
//!   least three events after `start_write`.
//! * [`Cluster::close_window`] makes two passes of hints over a shard's
//!   staged acks — entries, then slots — before recording them, and two
//!   over its completed reads before classifying them, so the misses of one
//!   batch overlap each other.
//!
//! `submit_batch` has none: its arrivals lie a whole schedule ahead, and a
//! line hinted that early is evicted before use. A hint changes no state the
//! simulation can observe — no event, draw, meter or allocation.
use super::ops::{pack_node, PayloadId, ReplicaTask, WritePayload};
use super::repair::Hint;
use super::resilience::backoff_delay;
use super::{
    class_index, draw_coordinator, Cluster, ClusterOutput, ClusterShared, ControlState, Event,
    OpState, PendingOp, RetryCtx, ShardState, Submission,
};
use crate::config::ClusterConfig;
use crate::types::{CompletedOp, Key, Version};
use concord_sim::events::{pack, unpack_time};
use concord_sim::{EventQueue, LinkClass, NodeId, SimDuration, SimRng, SimTime, Topology};

/// A cross-shard *data-plane* message staged during a window into the
/// sender's per-destination outbox arena and delivered — in sender-shard
/// order, then per-destination staging order — when the window closes.
/// Delivery is pure lane insertion (plus payload interning): the next
/// window's bound is computed from the destination lanes' next-event
/// floors. Everything is carried by value — staged entries reference no
/// slab of the shard that produced them.
pub(super) enum OutMsg {
    /// Deliver an event to the destination shard's lane verbatim.
    Event { at: SimTime, ev: Event },
    /// Deliver a replica write task: the payload travels by value and is
    /// interned (refs = 1) in the destination shard's slab on delivery.
    WriteTask {
        at: SimTime,
        node: NodeId,
        payload: WritePayload,
    },
}

/// What a shard stages during a window for the close to deliver, and its
/// counters for the window. Empty between windows — and always with one
/// shard, where nothing is ever staged. Only this module reads or writes
/// it: a handler stages through [`ShardCtx`].
#[derive(Default)]
pub(super) struct Staging {
    /// Data-plane outbox arenas, one per destination shard, drained (and
    /// their allocations reused) at every window close.
    outbox_dest: Vec<Vec<OutMsg>>,
    /// Oracle acks produced this window `(key, version, ack_time)`: writes
    /// that satisfied their consistency level. The close records them in
    /// the central oracle before it classifies any read.
    outbox_acks: Vec<(Key, Version, SimTime)>,
    /// Reads completed this window `(op, issue_at)`. Their stale/fresh
    /// classification needs the oracle's serialized ack history, so the
    /// close classifies, counts and publishes them.
    outbox_dones: Vec<(CompletedOp, SimTime)>,
    /// Cross-shard messages staged this window (counter feed for
    /// [`ShardMetrics::staged`](concord_sim::ShardMetrics::staged)); reset at the close.
    window_staged: u64,
    /// Staged messages whose timestamp undercut the window boundary and
    /// were clamped to it
    /// ([`ShardMetrics::violations`](concord_sim::ShardMetrics::violations)); reset at the
    /// close.
    window_violations: u64,
    /// Events this shard popped in the current window (the close derives
    /// `parallel_batches` / `max_batch_len` from these).
    window_popped: u64,
}

impl Staging {
    /// Empty outboxes towards each of `shards` destinations.
    pub(super) fn new(shards: usize) -> Self {
        Staging {
            outbox_dest: (0..shards).map(|_| Vec::new()).collect(),
            ..Default::default()
        }
    }

    /// What a drained run leaves behind: nothing staged and undelivered.
    pub(super) fn check_drained(&self, shard: u32) -> Result<(), String> {
        let empty = self.outbox_dest.iter().all(Vec::is_empty)
            && self.outbox_acks.is_empty()
            && self.outbox_dones.is_empty();
        if empty {
            Ok(())
        } else {
            Err(format!(
                "shard {shard}: staged effects were never delivered"
            ))
        }
    }
}

/// A shard's write-version allocator: both engines' schemes (see
/// [`ShardCtx::alloc_version`]).
#[derive(Default)]
pub(super) struct VersionClock {
    /// The one-shard engine's counter: the pre-sharding global `1, 2, 3, …`
    /// stream.
    next: u64,
    /// Microsecond of the most recent timestamp-packed allocation, and the
    /// tie-break sequence within it.
    last_us: u64,
    seq: u32,
}

impl VersionClock {
    /// The next version of the global `1, 2, 3, …` counter (one shard owns
    /// the whole stream).
    fn next_serial(&mut self) -> Version {
        self.next += 1;
        Version(self.next)
    }

    /// A timestamp-packed version for a write `shard` coordinates at `now`:
    /// `(µs+1) << 24 | seq << 8 | shard`, the simulator's analogue of
    /// Cassandra's client-timestamp LWW ordering. Per-key version order
    /// follows simulated time no matter which shard coordinates each
    /// write — a per-shard counter would let a busy shard's old write
    /// shadow a quieter shard's newer one. `seq` restarts every
    /// microsecond and breaks same-instant ties deterministically (its 16
    /// bits hold 2^16−1 allocations per µs per shard, far past any real
    /// event density); the `µs+1` bias keeps every runtime version above
    /// the preload floor (see [`Cluster::load_records`]). `shard` fits its
    /// 8 bits because `ClusterConfig::validate` caps the shard count at
    /// 256.
    ///
    /// # Panics
    /// Panics when the time or the tie-break sequence outgrows its bits:
    /// either would hand out a version twice.
    fn at(&mut self, now: SimTime, shard: u32) -> Version {
        let us = now.as_micros() + 1;
        assert!(us < 1 << 40, "simulated time overflows the version layout");
        if us != self.last_us {
            self.last_us = us;
            self.seq = 0;
        }
        self.seq += 1;
        assert!(
            self.seq <= u16::MAX as u32,
            "shard {shard} allocated more than 65535 write versions in one microsecond",
        );
        Version((us << 24) | ((self.seq as u64) << 8) | shard as u64)
    }
}

/// The control plane as a serial-point action borrows it (see
/// [`Cluster::ctrl_sink`]): its state, plus the lane its events ride and the
/// RNG stream its messages draw their delays from.
pub(super) struct CtrlSink<'a> {
    pub(super) shared: &'a ClusterShared,
    pub(super) ctrl: &'a mut ControlState,
    pub(super) lane: &'a mut EventQueue<Event>,
    pub(super) rng: &'a mut SimRng,
}

/// One shard's view of the cluster during event execution: the immutable
/// shared plane, the shard's own mutable state, and — with one shard only —
/// the control plane. Handlers can touch nothing else, which is what makes
/// the parallel windows data-race-free *and* schedule-independent: the
/// borrow checker proves a handler's writes stay inside its own
/// [`ShardState`], and everything cross-shard goes through the outbox.
///
///
/// `ctrl` doubles as the universe switch: `Some` on the one-shard engine,
/// where every event is a serial point and control-plane state is reachable
/// inline, `None` inside a window, where its effects are staged for the
/// close. It is private: only the methods under *Where the engines differ*
/// look at it.
pub(super) struct ShardCtx<'a> {
    pub(super) shared: &'a ClusterShared,
    pub(super) s: &'a mut ShardState,
    ctrl: Option<&'a mut ControlState>,
    /// End of the window being executed: staged cross-shard times are
    /// clamped here *at staging time* (a clamp means the lookahead bound
    /// was optimistic for the traffic observed — counted as a violation).
    /// Unused with one shard (nothing is ever staged).
    boundary: SimTime,
}

// ----------------------------------------------------------------------
// Where the engines differ — `Cluster`
// ----------------------------------------------------------------------

impl Cluster {
    /// Whether this cluster runs the one-shard engine.
    #[inline]
    fn serial(&self) -> bool {
        self.shard_states.len() == 1
    }

    /// **The RNG stream of shard `k`.** *One shard:* the lane IS the
    /// pre-sharding engine, so it keeps the master stream. *More than one:*
    /// true shard streams, split off the master seed per shard.
    pub(super) fn shard_rng(seed: u64, shards: usize, k: usize) -> SimRng {
        if shards == 1 {
            SimRng::new(seed)
        } else {
            SimRng::shard_stream(seed, k as u64)
        }
    }

    /// **The event loop.** *One shard:* pops the one lane; control events
    /// interleave with client traffic in `time‖seq` order. *More than one:*
    /// lookahead windows; control events run between windows and win
    /// instant ties.
    pub(super) fn advance_inner(&mut self) -> Option<ClusterOutput> {
        loop {
            if let Some(out) = self.outputs.pop_front() {
                return Some(out);
            }
            let stepped = if self.serial() {
                self.step_serial()
            } else {
                self.step_window()
            };
            if !stepped {
                return None;
            }
        }
    }

    /// **Submission routing**: the home shard of a new operation and its
    /// coordinator, packed for the arrival to carry (see
    /// [`ShardCtx::arrival_coordinator`]). *One shard:* every op homes on
    /// shard 0 and its coordinator is drawn at arrival, from the one
    /// stream; the packed node is 0 and unread. *More than one:* the
    /// coordinator is drawn now from the control stream —
    /// admission is a serial point, so the draw order is a pure function of
    /// the driver's call sequence — and the attempt homes on the
    /// coordinator's shard: every message it exchanges then travels a real
    /// coordinator↔replica link, so a cross-shard delivery is exactly a
    /// delivery across the shard cut and can never undershoot the lookahead
    /// bound.
    pub(super) fn route_admission(&mut self) -> (usize, u16) {
        if self.serial() {
            return (0, 0);
        }
        let coordinator =
            draw_coordinator(&self.shared, &mut self.control_rng, &mut self.home_scratch);
        (self.shared.shard_of(coordinator), pack_node(coordinator))
    }

    /// **The preload version** of one bulk-loaded record. *One shard:* the
    /// global counter of [`ShardCtx::alloc_version`]. *More than one:* every
    /// preload shares the floor `Version(1)` — last-writer-wins only
    /// compares versions of the *same* key, each key is preloaded once, and
    /// every runtime version is timestamp-packed (≥ 2^24), so the baseline
    /// always loses to the first real write.
    pub(super) fn preload_version(&mut self) -> Version {
        if self.serial() {
            self.shard_states[0].versions.next_serial()
        } else {
            Version(1)
        }
    }

    /// **The control sink**: the control plane together with the lane its
    /// events ride and the RNG stream its repair messages draw from. *One
    /// shard:* shard 0's — control events interleave with client traffic on
    /// the one lane and share the one stream, as they did before sharding
    /// existed. *More than one:* the control plane's own. Every
    /// control-plane handler and every fault transition goes through here.
    pub(super) fn ctrl_sink(&mut self) -> CtrlSink<'_> {
        let (lane, rng) = match &mut self.shard_states[..] {
            [only] => (&mut only.lane, &mut only.rng),
            _ => (&mut self.control_lane, &mut self.control_rng),
        };
        CtrlSink {
            shared: &self.shared,
            ctrl: &mut self.ctrl,
            lane,
            rng,
        }
    }
}

// ----------------------------------------------------------------------
// Where the engines differ — `ShardCtx`
// ----------------------------------------------------------------------

impl ShardCtx<'_> {
    /// **The coordinator of a first attempt** arriving now, `routed` being
    /// what [`Cluster::route_admission`] packed into its arrival. *One
    /// shard:* drawn now from the one stream, over the nodes up now.
    /// *More than one:* `routed`, drawn at admission (no node is ever down
    /// there).
    pub(super) fn arrival_coordinator(&mut self, routed: u16) -> NodeId {
        match self.ctrl {
            Some(_) => draw_coordinator(self.shared, &mut self.s.rng, &mut self.s.up_scratch),
            None => NodeId(routed as u32),
        }
    }

    /// **Version allocation** for a write of `key` starting at `now`. *One
    /// shard:* the global counter `1, 2, 3, …`; the satisfying ack records
    /// into the key's oracle slot inline, so it is prefetched here. *More
    /// than one:* timestamp-packed `µs‖seq‖shard`, so last-writer-wins
    /// order follows simulated time no matter which shard coordinates a
    /// key's writes.
    pub(super) fn alloc_version(&mut self, now: SimTime, key: Key) -> Version {
        match self.ctrl.as_deref() {
            Some(ctrl) => {
                ctrl.oracle.prefetch_slot(key);
                self.s.versions.next_serial()
            }
            None => self.s.versions.at(now, self.s.shard),
        }
    }

    /// **The read expectation** of an attempt on `key` starting now. *One
    /// shard:* captured from the oracle. *More than one:* the oracle is
    /// untouchable inside a window; the close resolves the expectation
    /// retroactively, as of the attempt's start (see
    /// [`ShardCtx::finish_read`]), and this is [`Version::NONE`].
    pub(super) fn read_expectation(&self, key: Key) -> Version {
        match self.ctrl.as_deref() {
            Some(ctrl) => ctrl.oracle.expected_version(key),
            None => Version::NONE,
        }
    }

    /// **The oracle ack** of a write that satisfied its level at `now`: it
    /// becomes ground truth for later reads. *One shard:* recorded inline.
    /// *More than one:* staged to the window close (the central oracle is
    /// frozen while windows run) with its true ack time, which retroactive
    /// classification queries filter by.
    pub(super) fn record_ack(&mut self, key: Key, version: Version, now: SimTime) {
        match self.ctrl.as_deref_mut() {
            Some(ctrl) => ctrl.oracle.record_ack(key, version, now),
            None => {
                self.s.staging.window_staged += 1;
                self.s.staging.outbox_acks.push((key, version, now));
            }
        }
    }

    /// **Read classification** of a read `op` that gathered its responses:
    /// `expected` is what [`ShardCtx::read_expectation`] returned when the
    /// attempt started, `at`. *One shard:* classified against the central
    /// oracle inline, then published. *More than one:* the classification
    /// needs the serialized ack history, so the completion (classification,
    /// metric, client output) finishes at the window close.
    pub(super) fn finish_read(&mut self, mut op: CompletedOp, expected: Version, at: SimTime) {
        match self.ctrl.as_deref() {
            Some(ctrl) => {
                let class = ctrl
                    .oracle
                    .classify_read(op.key, expected, op.returned_version);
                op.stale = class.stale;
                op.staleness_depth = class.depth;
                self.s.publish(op);
            }
            None => {
                self.s.staging.window_staged += 1;
                self.s.staging.outbox_dones.push((op, at));
            }
        }
    }

    /// **The propagation sample**, offered when the last replica of a full
    /// replica set applied a write. *One shard:* taken — every replica's
    /// apply is visible to the op's shard. *More than one:* ignored;
    /// replica-side op state is unreadable across shards, see
    /// [`ShardCtx::sample_propagation_on_ack`].
    pub(super) fn sample_propagation_on_apply(&mut self, d: SimDuration) {
        if self.ctrl.is_some() {
            self.s.propagation.push(d);
        }
    }

    /// **The propagation sample**, offered when the last ack of a full
    /// replica set arrived, derived from the acks' apply times. *One shard:*
    /// ignored, see [`ShardCtx::sample_propagation_on_apply`]. *More than
    /// one:* taken.
    pub(super) fn sample_propagation_on_ack(&mut self, d: SimDuration) {
        if self.ctrl.is_none() {
            self.s.propagation.push(d);
        }
    }
}

// ----------------------------------------------------------------------
// One shard only: what faults and retries reach
// ----------------------------------------------------------------------

impl ShardCtx<'_> {
    /// Queue a hint for the down replica `to`, inline: hint queues are
    /// control-plane state, which a handler reaches on the one-shard
    /// engine alone.
    ///
    /// # Panics
    /// Panics on more than one shard, where no replica is ever down.
    pub(super) fn queue_hint(&mut self, now: SimTime, to: NodeId, hint: Hint) {
        let ctrl = self.ctrl.as_deref_mut().expect(
            "a down replica means a fault, and FaultAction::check keeps faults on one shard",
        );
        // The one shard's own lane and stream: `Cluster::ctrl_sink`.
        let (lane, rng) = (&mut self.s.lane, &mut self.s.rng);
        let shared = self.shared;
        CtrlSink {
            shared,
            ctrl,
            lane,
            rng,
        }
        .enqueue_hint(now, to, hint)
    }

    /// Re-issue an attempt whose slot was just freed by its timeout, as a
    /// pending op in a fresh slot: it re-arrives here and draws its fresh
    /// coordinator when it does — now, or after an exponentially growing,
    /// jittered backoff drawn from the one stream (one draw per backed-off
    /// retry, zero when the feature is off).
    ///
    /// # Panics
    /// Panics on more than one shard, where the retry budget is zero.
    pub(super) fn reissue(&mut self, now: SimTime, sub: Submission, retry: RetryCtx) {
        assert!(
            self.ctrl.is_some(),
            "ClusterConfig::validate keeps timeout retries on one shard"
        );
        let op_id = self
            .s
            .ops
            .insert(OpState::Pending(PendingOp { sub, retry }));
        if self.shared.config.resilience.backoff {
            let delay = backoff_delay(&self.shared.config, retry.retries_left, &mut self.s.rng);
            self.s
                .lane
                .schedule_timeout(now + delay, Event::RetryArrive { op_id });
        } else {
            self.on_retry_arrive(now, op_id);
        }
    }
}

// ----------------------------------------------------------------------
// Staging: how a handler's effects leave its shard
// ----------------------------------------------------------------------

impl ShardCtx<'_> {
    fn handle(&mut self, now: SimTime, event: Event) {
        match event {
            Event::ClientArrive {
                sub,
                ticket,
                coordinator,
            } => self.on_client_arrive(now, sub, ticket, coordinator),
            Event::RetryArrive { op_id } => self.on_retry_arrive(now, op_id),
            Event::ReplicaArrive { node, task } => self.on_replica_arrive(now, node, task),
            Event::ReplicaServiceDone { node, task } => self.on_replica_done(now, node, task),
            Event::CoordinatorWriteAck { op_id, applied_at } => {
                self.on_write_ack(now, op_id, applied_at)
            }
            Event::CoordinatorReadResponse {
                op_id,
                from,
                version,
                size,
                records,
                segment,
            } => self.on_read_response(now, op_id, from, version, size, records, segment),
            Event::OpTimeout { op_id } => self.on_timeout(now, op_id),
            Event::HedgeFire { op_id } => self.on_hedge_fire(now, op_id),
            Event::Tick { .. }
            | Event::Fault(_)
            | Event::HintReplay { .. }
            | Event::AntiEntropy
            | Event::RepairSync { .. } => unreachable!("control events run on the control lane"),
        }
    }

    /// Clamp a staged delivery time into the next window and count the
    /// staging. A violation means a cross-shard effect would land inside
    /// the window that produced it — the lookahead bound was too optimistic
    /// (a link whose delay infimum is zero sampled below the 1 µs minimal
    /// window). The effect is deferred to the window boundary instead,
    /// deterministic at any thread count, and counted so runs can audit how
    /// conservative the bound really was.
    #[inline]
    fn stage_time(&mut self, at: SimTime) -> SimTime {
        self.s.staging.window_staged += 1;
        if at < self.boundary {
            self.s.staging.window_violations += 1;
            self.boundary
        } else {
            at
        }
    }

    /// Schedule an event on `dest`'s lane: directly when it is this shard's
    /// own lane, staged into the per-destination outbox arena otherwise.
    pub(super) fn send_event(&mut self, dest: usize, at: SimTime, ev: Event) {
        if dest as u32 == self.s.shard {
            self.s.lane.schedule_at(at, ev);
        } else {
            let at = self.stage_time(at);
            self.s.staging.outbox_dest[dest].push(OutMsg::Event { at, ev });
        }
    }

    /// Send the interned write `payload` to `replica`, arriving at `at`: one
    /// more reference to the handle on this shard's lane, or the payload by
    /// value through the outbox (handles never cross shards).
    pub(super) fn send_write(&mut self, at: SimTime, replica: NodeId, payload: PayloadId) {
        let dest = self.shared.shard_of(replica);
        if dest as u32 == self.s.shard {
            self.s.payloads.retain(payload);
            self.s.lane.schedule_at(
                at,
                Event::ReplicaArrive {
                    node: replica,
                    task: ReplicaTask::Write { payload },
                },
            );
        } else {
            let at = self.stage_time(at);
            self.s.staging.outbox_dest[dest].push(OutMsg::WriteTask {
                at,
                node: replica,
                payload: *self.s.payloads.get(payload),
            });
        }
    }
}

// ----------------------------------------------------------------------
// The event loops, the window close and the lookahead
// ----------------------------------------------------------------------

impl Cluster {
    /// Assign every node to an event-lane shard. [`Topology::spread`] deals
    /// datacenters round-robin over node ids, so nodes are ordered by
    /// (datacenter, id) first and the ordered list is cut into `shards`
    /// contiguous groups — each shard then holds whole datacenters (or a
    /// contiguous slice of one), keeping intra-DC traffic shard-local.
    pub(super) fn build_shard_map(topology: &Topology, shards: usize) -> Vec<u16> {
        let n = topology.node_count();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&i| (topology.dc_of(NodeId(i)).0, i));
        let mut map = vec![0u16; n];
        for (pos, &node) in order.iter().enumerate() {
            map[node as usize] = (pos * shards / n) as u16;
        }
        map
    }

    /// The conservative lookahead bound, fixed for the cluster's life: the
    /// infimum of the link delay over the classes that connect nodes of
    /// different shards (`node_shard`, with `link_class` the row-major
    /// class of every node pair). A zero infimum (e.g. an exponential
    /// cross-shard link) degrades to the engine's minimal 1 µs window
    /// rather than disabling sharding. When *no* class crosses — a single
    /// shard, where no message ever crosses a boundary — any window works,
    /// and the bound falls back to the configured operation timeout: the
    /// coarsest horizon the simulation itself schedules at. No fault
    /// scales it: faults need the one-shard engine.
    pub(super) fn lookahead_bound(
        config: &ClusterConfig,
        node_shard: &[u16],
        link_class: &[LinkClass],
    ) -> SimDuration {
        let n = node_shard.len();
        let mut crosses = [false; 4];
        for from in 0..n {
            for to in 0..n {
                if node_shard[from] != node_shard[to] {
                    crosses[class_index(link_class[from * n + to])] = true;
                }
            }
        }
        let network = &config.network;
        let dists = [
            &network.local,
            &network.intra_dc,
            &network.inter_dc,
            &network.inter_region,
        ];
        let mut min_ms = f64::INFINITY;
        for c in 0..4 {
            if crosses[c] {
                min_ms = min_ms.min(dists[c].min_ms());
            }
        }
        if min_ms.is_finite() {
            SimDuration::from_micros((min_ms * 1_000.0).floor() as u64)
        } else {
            config.op_timeout
        }
    }

    /// Advance the one-shard engine by one event: one lane, one RNG stream,
    /// every handler inline and every event a serial point — no windows,
    /// nothing staged. Returns `false` when nothing is left.
    fn step_serial(&mut self) -> bool {
        let Some((now, event)) = self.shard_states[0].lane.pop() else {
            return false;
        };
        self.clock = now;
        if !self.dispatch_ctrl(now, &event) {
            let mut ctx = ShardCtx {
                shared: &self.shared,
                s: &mut self.shard_states[0],
                ctrl: Some(&mut self.ctrl),
                // Nothing is staged, so there is no boundary to clamp to.
                boundary: SimTime::ZERO,
            };
            ctx.handle(now, event);
            // Completions enter the output queue the moment their event
            // produced them (most events produce none).
            let produced = &mut self.shard_states[0].outputs;
            if !produced.is_empty() {
                self.outputs.extend(produced.drain(..));
            }
        }
        true
    }

    /// Run `event` if it belongs to the control plane; returns whether it
    /// did (a client or replica event is left to its shard's handlers).
    #[inline]
    fn dispatch_ctrl(&mut self, now: SimTime, event: &Event) -> bool {
        match *event {
            Event::Tick { id } => self.outputs.push_back(ClusterOutput::Tick { id, at: now }),
            Event::Fault(action) => self.apply_fault(action),
            Event::HintReplay { node } => self.on_hint_replay(now, node),
            Event::AntiEntropy => self.on_anti_entropy(now),
            Event::RepairSync { node } => self.on_repair_sync(now, node),
            _ => return false,
        }
        true
    }

    /// Advance the parallel engine by one step: either run one due control
    /// event at a barrier edge, or execute one lookahead window (parallel
    /// shard batches, then the serial close). Returns `false` when nothing
    /// is left.
    fn step_window(&mut self) -> bool {
        let shard_min = self
            .shard_states
            .iter()
            .filter_map(|s| s.lane.peek_key_packed())
            .min();
        let ctrl_min = self.control_lane.peek_key_packed();
        let Some(next_key) = shard_min.into_iter().chain(ctrl_min).min() else {
            return false;
        };
        let floor = unpack_time(next_key);
        // Control events run at barrier edges, serially, and win instant
        // ties against shard events: no shard event at the control event's
        // instant may execute first (its handlers could observe state the
        // control event is about to change). Every completion before that
        // instant was published by the close of its own window, so a tick
        // follows all of them.
        let ctrl_due =
            ctrl_min.is_some_and(|c| shard_min.is_none_or(|s| unpack_time(c) <= unpack_time(s)));
        if ctrl_due {
            let (now, event) = self
                .control_lane
                .pop()
                .expect("control lane was just peeked");
            self.clock = self.clock.max(now);
            assert!(
                self.dispatch_ctrl(now, &event),
                "client/replica events never enter the control lane"
            );
            return true;
        }
        // One lookahead window: [floor, end) in packed-key space, where
        // `floor` is now the earliest shard event and `end` lies one
        // lookahead past it — a message is sent at or after that event and
        // takes at least the bound to cross a shard cut, so no shard can
        // affect another inside the window. The window never reaches the
        // next control event's instant; a zero bound (cross-shard link with
        // a zero delay infimum) degrades to a minimal 1 µs window.
        if self.sync.windows > 0 && floor > self.last_boundary {
            // The global floor jumped past quiet simulated time instead of
            // marching barrier-by-barrier through it.
            self.sync.fast_forwards += 1;
        }
        let min_window = SimDuration::from_micros(1);
        let mut end_key = pack(floor + self.lookahead.max(min_window), 0);
        if let Some(c) = ctrl_min {
            end_key = end_key.min(pack(unpack_time(c), 0));
        }
        let boundary = unpack_time(end_key);
        let shared = &self.shared;
        rayon::par_for_each_mut(&mut self.shard_states, |_, s| {
            let mut ctx = ShardCtx {
                shared,
                s,
                ctrl: None,
                boundary,
            };
            let mut popped = 0u64;
            while let Some((t, event)) = ctx.s.lane.pop_before_key(end_key) {
                ctx.handle(t, event);
                popped += 1;
            }
            ctx.s.staging.window_popped = popped;
        });
        self.close_window(boundary);
        true
    }

    /// The serial barrier at the end of every window, in fixed shard order
    /// throughout: advance the clock and the synchronization counters,
    /// deliver every shard's data-plane outbox arenas into the destination
    /// lanes (the next window's bound is computed from those lanes'
    /// floors), record the window's acks in the oracle, classify its
    /// completed reads — against an ack
    /// history that is complete up to the boundary, because every ack
    /// before a read's issue instant closed in this window or an earlier
    /// one — and publish its outputs sorted by time.
    fn close_window(&mut self, boundary: SimTime) {
        let mut batches = 0;
        for s in &mut self.shard_states {
            self.clock = self.clock.max(s.lane.now());
            let staging = &mut s.staging;
            if staging.window_popped > 0 {
                batches += 1;
            }
            self.sync.max_batch_len = self.sync.max_batch_len.max(staging.window_popped);
            self.sync.staged += std::mem::take(&mut staging.window_staged);
            self.sync.violations += std::mem::take(&mut staging.window_violations);
        }
        self.sync.windows += 1;
        if batches >= 2 {
            self.sync.parallel_batches += 1;
        }
        let nshards = self.shard_states.len();
        for i in 0..nshards {
            // Deliver this sender's arenas in destination order, one batch
            // per destination shard; allocations are handed back for the
            // next window (the arena towards itself stays empty: a shard
            // schedules its own events directly). Staged times were already
            // clamped to the window boundary at staging time, so delivery is
            // pure insertion.
            for dest in 0..nshards {
                let mut msgs = std::mem::take(&mut self.shard_states[i].staging.outbox_dest[dest]);
                for msg in msgs.drain(..) {
                    let dest = &mut self.shard_states[dest];
                    match msg {
                        OutMsg::Event { at, ev } => {
                            if let Event::ReplicaArrive {
                                task: ReplicaTask::Read { key, .. },
                                ..
                            } = ev
                            {
                                dest.store.prefetch_entry(key);
                            }
                            dest.lane.schedule_at(at, ev);
                        }
                        OutMsg::WriteTask { at, node, payload } => {
                            dest.store.prefetch_entry(payload.key);
                            dest.deliver_write(at, node, payload);
                        }
                    }
                }
                self.shard_states[i].staging.outbox_dest[dest] = msgs;
            }
        }
        self.last_boundary = boundary;
        // Every ack goes in before any read is classified: a read may have
        // been issued after an ack another shard produced in this window.
        let published = self.outputs.len();
        for i in 0..nshards {
            let s = &mut self.shard_states[i];
            for &(key, ..) in &s.staging.outbox_acks {
                self.ctrl.oracle.prefetch_entry(key);
            }
            for &(key, ..) in &s.staging.outbox_acks {
                self.ctrl.oracle.prefetch_slot(key);
            }
            for (key, version, at) in s.staging.outbox_acks.drain(..) {
                self.ctrl.oracle.record_ack(key, version, at);
            }
            self.outputs.extend(s.outputs.drain(..));
            self.propagation_samples.append(&mut s.propagation);
        }
        for s in &mut self.shard_states {
            for (op, _) in &s.staging.outbox_dones {
                self.ctrl.oracle.prefetch_entry(op.key);
            }
            for (op, _) in &s.staging.outbox_dones {
                self.ctrl.oracle.prefetch_slot(op.key);
            }
            for (mut op, issue_at) in s.staging.outbox_dones.drain(..) {
                let class =
                    self.ctrl
                        .oracle
                        .classify_read_at(op.key, issue_at, op.returned_version);
                op.stale = class.stale;
                op.staleness_depth = class.depth;
                s.metrics.record_completion(&op);
                self.outputs.push_back(ClusterOutput::Completed(op));
            }
        }
        // Stable by-time sort over the shard-ordered concatenation: outputs
        // interleave across shards by simulated time, with gathering order
        // breaking ties deterministically.
        self.outputs.make_contiguous()[published..].sort_by_key(|out| match out {
            ClusterOutput::Completed(op) => op.completed_at,
            ClusterOutput::Tick { at, .. } => *at,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::*;
    use super::super::BatchOp;
    use super::*;
    use crate::consistency::ConsistencyLevel;
    use crate::types::{OpId, OpKind};

    /// Satellite (PR 10): the lookahead fallback for shard cuts that no
    /// message ever crosses derives from the configured operation timeout,
    /// not the pre-PR-10 hard-coded 1 s constant.
    #[test]
    fn lookahead_fallback_derives_from_op_timeout() {
        // Single shard: no cross-shard link class exists anywhere, so the
        // bound is pure fallback.
        let mut cfg = ClusterConfig::lan_test(5, 3);
        cfg.shards = 1;
        cfg.op_timeout = SimDuration::from_millis(250);
        let c = Cluster::new(cfg, 42);
        assert_eq!(
            c.lookahead(),
            SimDuration::from_millis(250),
            "single-shard bound must fall back to the configured op timeout"
        );

        // Single DC, two shards: the cut crosses intra-DC links, so the
        // bound is the intra-DC delay floor (300 µs for the LAN model) and
        // the fallback must NOT leak in even though some classes are absent.
        let mut cfg = ClusterConfig::lan_test(6, 3);
        cfg.shards = 2;
        cfg.op_timeout = SimDuration::from_millis(250);
        let c = Cluster::new(cfg, 42);
        assert_eq!(
            c.lookahead(),
            SimDuration::from_micros(300),
            "single-DC cut must use the intra-DC delay floor, not the fallback"
        );
    }

    #[test]
    fn a_replica_answers_a_freed_op_only_across_the_shard_cut() {
        // The one ack/response branch of `on_replica_done`: a replica on the
        // op's home shard looks the op up and, finding it freed, sends
        // nothing and draws nothing; a replica on another shard cannot look,
        // so it meters and sends its response, which dies at the
        // coordinator's generation check.
        for shards in [1u32, 2] {
            let mut cfg = ClusterConfig::lan_test(4, 3);
            cfg.shards = shards;
            let mut c = Cluster::new(cfg, 9);
            c.load_records((0..10u64).map(|k| (k, 100)));
            // An op homed on shard 0 and already freed.
            let ops = &mut c.shard_states[0].ops;
            let freed = ops.insert(OpState::Pending(PendingOp {
                sub: Submission {
                    kind: OpKind::Read,
                    key: Key(3),
                    len: 1,
                    level: None,
                },
                retry: RetryCtx {
                    issued_at: SimTime::ZERO,
                    retries_left: 0,
                    client_id: OpId(1),
                },
            }));
            ops.remove(freed);
            let task = ReplicaTask::Read {
                op_id: freed,
                key: Key(3),
                data: true,
                len: 1,
                segment: 0,
                coordinator: 0,
                load_owner: true,
            };
            for node in 0..4u32 {
                let home = c.shared.shard_of(NodeId(node));
                let messages = c.metrics().messages;
                let mut undrawn = c.shard_states[home].rng.clone();
                ShardCtx {
                    shared: &c.shared,
                    s: &mut c.shard_states[home],
                    ctrl: (shards == 1).then_some(&mut c.ctrl),
                    boundary: SimTime::ZERO,
                }
                .on_replica_done(SimTime::ZERO, NodeId(node), task);
                let sent = c.metrics().messages - messages;
                let drew =
                    c.shard_states[home].rng.next_bounded(1 << 60) != undrawn.next_bounded(1 << 60);
                if home == 0 {
                    assert_eq!((sent, drew), (0, false), "{shards} shards, node {node}");
                } else {
                    assert_eq!((sent, drew), (1, true), "{shards} shards, node {node}");
                }
            }
            let foreign = (0..4)
                .filter(|&n| c.shared.shard_of(NodeId(n)) != 0)
                .count();
            assert_eq!(foreign, if shards == 1 { 0 } else { 2 });
            assert_eq!(
                c.shard_states.last().unwrap().staging.outbox_dest[0].len(),
                foreign
            );
            let staged = c.check_drained();
            assert_eq!(staged.is_err(), foreign > 0, "{staged:?}");
            // A live read drives the engine: the staged responses are
            // delivered at the first window close, miss on the generation
            // check and leave nothing behind.
            let events = c.events_processed();
            c.submit(BatchOp::read(SimTime::ZERO, 3).with_level(ConsistencyLevel::One));
            assert_eq!(drain(&mut c).len(), 1);
            assert_eq!(c.events_processed() - events, 5 + foreign as u64);
            assert_eq!(c.inflight_ops(), 0);
            assert_eq!(c.check_drained(), Ok(()));
        }
    }

    #[test]
    #[should_panic(expected = "more than 65535 write versions in one microsecond")]
    fn version_tie_break_overflow_is_rejected() {
        let mut c = cluster(2, 1);
        for _ in 0..=u16::MAX {
            c.shard_states[0].versions.at(SimTime::from_micros(7), 0);
        }
    }
}
