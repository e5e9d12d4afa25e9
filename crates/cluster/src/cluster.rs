//! The geo-replicated storage cluster simulator.
//!
//! This is the substitute for the paper's Apache Cassandra deployments: a
//! discrete-event simulation of a cluster of storage nodes spread over
//! datacenters, with a consistent-hash ring, per-operation tunable
//! consistency levels, asynchronous replica propagation, optional read
//! repair, node failures, and full metering (latency, staleness ground truth,
//! network traffic per link class, storage I/O).
//!
//! ## Write path
//! A client write arrives at a uniformly chosen coordinator, which forwards
//! the mutation to **all** replicas of the key (as Cassandra does). The write
//! is acknowledged to the client as soon as the number of replica acks
//! required by the *write consistency level* have arrived; propagation to the
//! remaining replicas continues asynchronously — that asynchronous window is
//! exactly the staleness window of the paper's Figure 1.
//!
//! ## Read path
//! A client read contacts the number of replicas required by the *read
//! consistency level* (data request to the closest, digest requests to the
//! others, like Cassandra), reconciles by newest version and returns to the
//! client. The staleness oracle classifies the result against the newest
//! version acknowledged before the read was issued.
//!
//! ## Repair plane
//! Off by default (`RepairMode::Off` adds zero events and zero RNG draws).
//! Hinted handoff queues the writes a down replica missed and replays them,
//! paced by a timer, when it returns. Anti-entropy walks node pairs
//! on a sweep cycle, and a recovery migration pulls a rejoined node's
//! ranges from every up peer; both compare the stores' per-page digests
//! (metered per page and direction) and diff each page whose digests
//! differ. Under hash placement that is every compared page — two nodes
//! replicate different subsets of a key page — so the diff itself has to
//! be cheap: a diff `from → to` walks only the slots `to` replicates,
//! through a ring-derived ownership index built lazily per page and
//! dropped on every ring rebuild, reads both stores' page slices in place,
//! and streams each record `from` holds strictly newer, in ascending key
//! order, as a background repair write. Every repair byte is metered per
//! link class and billed.
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
//! its staged control-plane effects are applied (drawing any randomness
//! from a dedicated control-plane RNG stream), its completed reads are
//! classified and its outputs are published sorted by time. The run's
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
//! ([`StalenessOracle::expected_version_at`]). The classification is exact
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
//! and it stays byte-identical to them. Everything else — message
//! accounting, fan-out, service, acks and responses, completion, the repair
//! and resilience planes — is written once and runs in both. The table is
//! the complete list of where the code tests for one shard
//! (`ShardCtx::ctrl` is `Some` exactly then) and what differs there:
//!
//! | where | one shard | more than one |
//! |---|---|---|
//! | `Cluster::advance_inner` (event loop) | pops the one lane; control events interleave with client traffic in `time‖seq` order | lookahead windows; control events run between windows and win instant ties |
//! | `Cluster::admit` (submission routing) | every op homes on shard 0; the coordinator is drawn at arrival from the one stream | the coordinator is drawn at admission from the control stream and the op homes on its shard |
//! | `Cluster::load_records` (preload version) | the global counter of the version-allocation row | the shared floor `Version(1)` |
//! | `Cluster::ctrl_sink` (control sink) | control timers ride shard 0's lane and repair delays draw from its stream | the control plane's own lane and stream |
//! | `ShardCtx::queue_hint` (hint queueing) | queued inline | staged to the window close |
//! | `ShardCtx::start_write` (version allocation) | global counter `1, 2, 3, …`; prefetches the key's oracle slot for the inline ack | timestamp-packed `µs‖seq‖shard` |
//! | `ShardCtx::start_read` (read expectation) | captured from the oracle at attempt start | resolved at the window close, as of the attempt's start |
//! | `ShardCtx::on_replica_done` / `on_write_ack` (propagation sample) | taken when the last replica applies | taken when the last ack arrives, from the acks' apply times |
//! | `ShardCtx::on_write_ack` (oracle ack) | recorded inline | staged to the window close with its ack time |
//! | `ShardCtx::on_read_response` (read classification) | classified inline | classified at the window close |
//! | `ShardCtx::on_timeout` (timeout re-issue) | re-arrives on the one lane (after the backoff, drawn from the one stream) | re-routed through the window close (coordinator and backoff drawn from the control stream) |
//!
//! ## Memory latency
//! Per-key state is direct-indexed, so an access is one load — and over a
//! data set far larger than the cache (21 nodes × 750 000 slots × 16 B of
//! store slots on the benchmark's headline run, probed at scrambled keys)
//! that load is a cache miss behind a TLB miss, ~150 ns where every other
//! step of an event is a few. Two tables are touched per key. A replica's
//! **store slot** is read or written by `on_replica_done`; the **oracle
//! slot** is read by `start_read` (the expectation, one shard), written by
//! `on_write_ack` (one shard) and otherwise read and written at the window
//! close. In each case the key is known at least one event earlier, so the
//! rule is: *the handler that schedules the touching event prefetches the
//! slot* — a cache hint, never an early load, which would stall that
//! handler just the same — and the miss overlaps the events in between.
//! Five sites:
//!
//! * `ShardCtx::start_service` hints the task's key in the serving node's
//!   store (a write's key comes from its interned payload): the slot is
//!   needed one service time later, and tasks that waited in a node's
//!   queue start service through the same function.
//! * `Cluster::submit` hints the oracle slot for the `ClientArrive` it
//!   schedules, and one-shard `ShardCtx::start_write` hints it for the
//!   satisfying ack, at least three events later.
//! * `Cluster::close_window` makes one pass of hints over a shard's staged
//!   acks before recording them and one over its completed reads before
//!   classifying them, so the misses of one batch overlap each other.
//!
//! `submit_batch` has none: its arrivals lie a whole schedule ahead, and a
//! line hinted that early is evicted before use. Neither does a cross-shard
//! send: the message lands a window later, and start of service on the
//! destination shard covers it. A hint changes no state the simulation can
//! observe — no event, draw, meter or allocation.

use crate::config::{ClusterConfig, RepairConfig, ResilienceConfig};
use crate::consistency::ConsistencyLevel;
use crate::metrics::ClusterMetrics;
use crate::oracle::{OracleStats, StalenessOracle};
use crate::paged::{PAGE_BITS, PAGE_SLOTS};
use crate::ring::{Partitioner, Ring, ORDERED_SLICE_BITS};
use crate::slab::OpSlab;
use crate::storage::ReplicaStore;
use crate::types::{CompletedOp, Key, OpId, OpKind, OpStatus, Version};
use concord_monitor::Ewma;
use concord_sim::events::{pack, unpack_time};
use concord_sim::{
    CompiledDelay, DcId, EventQueue, InlineVec, LinkClass, NetworkModel, NodeId, ShardMetrics,
    SimDuration, SimRng, SimTime, Topology,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// How a coordinator picks which replicas a read contacts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplicaSelection {
    /// Contact the replicas with the lowest expected latency from the
    /// coordinator (Cassandra's snitch behaviour). Default.
    #[default]
    Closest,
    /// Contact replicas chosen uniformly at random.
    Random,
    /// Health-aware selection: rank replicas by their expected round trip
    /// plus an EWMA of the observed latency **excess** over it (so near and
    /// far coordinators feed one comparable per-node signal), with a
    /// per-node circuit breaker (closed/open/half-open) steering reads away
    /// from slow or flapping replicas. Tuned by
    /// [`ResilienceConfig`](crate::config::ResilienceConfig).
    Dynamic,
}

impl ReplicaSelection {
    /// Parse a CLI name (`closest`, `random`, `dynamic`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "closest" => Some(ReplicaSelection::Closest),
            "random" => Some(ReplicaSelection::Random),
            "dynamic" => Some(ReplicaSelection::Dynamic),
            _ => None,
        }
    }

    /// Short label for banners and tables.
    pub fn label(&self) -> &'static str {
        match self {
            ReplicaSelection::Closest => "closest",
            ReplicaSelection::Random => "random",
            ReplicaSelection::Dynamic => "dynamic",
        }
    }
}

/// Output of [`Cluster::advance`]: either a finished client operation or a
/// tick marker previously scheduled with [`Cluster::schedule_tick`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterOutput {
    /// A client operation completed.
    Completed(CompletedOp),
    /// A scheduled tick fired (used by adaptive runtimes to wake up).
    Tick {
        /// The id passed to `schedule_tick`.
        id: u64,
        /// The simulated time of the tick.
        at: SimTime,
    },
}

/// Work items queued on a replica node.
///
/// A write fan-out sends the *same* mutation to every replica, so the write
/// payload is interned once in the owning shard's ref-counted payload slab
/// and the task carries only a 4-byte handle — RF in-flight copies of one
/// write cost one payload record, and the event queue moves 8 fewer bytes
/// per hop.
#[derive(Debug, Clone, Copy)]
enum ReplicaTask {
    Write {
        /// Handle into [`ShardState::write_payloads`]; released on
        /// consumption. Payload handles never cross shards: a remote write
        /// task travels as an [`OutMsg::WriteTask`] carrying the payload by
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
        /// 16-bit on the wire — [`ClusterConfig::validate`] caps scan
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
/// are capped at 65 536 by [`ClusterConfig::validate`], so the cast is
/// lossless; the debug assert guards internal callers that bypass
/// validation.
#[inline]
fn pack_node(node: NodeId) -> u16 {
    debug_assert!(node.0 <= u16::MAX as u32, "node id exceeds 16-bit packing");
    node.0 as u16
}

/// Index into a shard's interned write-payload slab.
type PayloadId = u32;

/// The shared payload of one write fan-out (client write or read repair):
/// interned once per shard, referenced by up to RF [`ReplicaTask::Write`]
/// events on that shard.
#[derive(Debug, Clone, Copy)]
struct WritePayload {
    op_id: OpId,
    key: Key,
    version: Version,
    size: u32,
    /// Background repair writes do not generate client-visible acks.
    repair: bool,
    /// The coordinator awaiting the ack, as a packed 16-bit node index
    /// (see [`pack_node`] and [`ReplicaTask::Read`]'s `coordinator` —
    /// same sender-side-draw rationale; unused for `repair` payloads,
    /// which ack nobody).
    coordinator: u16,
}

/// One slot of the write-payload slab: the payload plus its reference count
/// (live [`ReplicaTask::Write`] events pointing at it).
#[derive(Debug, Clone, Copy)]
struct PayloadSlot {
    refs: u32,
    payload: WritePayload,
}

/// Internal DES events.
#[derive(Debug, Clone)]
enum Event {
    ClientArrive {
        op_id: OpId,
    },
    ReplicaArrive {
        node: NodeId,
        task: ReplicaTask,
    },
    ReplicaServiceDone {
        node: NodeId,
        task: ReplicaTask,
    },
    CoordinatorWriteAck {
        op_id: OpId,
        from: NodeId,
        /// When the acking replica applied the write: with more than one
        /// shard the full-propagation sample is the max applied time over
        /// all acks (replica-side op state is unreadable across shards).
        applied_at: SimTime,
    },
    CoordinatorReadResponse {
        op_id: OpId,
        from: NodeId,
        version: Version,
        size: u32,
        /// Records in the response payload (data requests only; digests
        /// report 0 so coverage is never double-counted).
        records: u32,
        /// The scan segment this response answers (see [`ReplicaTask::Read`]).
        segment: u16,
    },
    OpTimeout {
        op_id: OpId,
    },
    /// Hedged-read trigger: if the read is still pending and has not hedged
    /// yet, issue one speculative digest request to the best unused replica.
    /// Scheduled only when [`ResilienceConfig::hedging_enabled`]
    /// (crate::config::ResilienceConfig) — a stale trigger (the read already
    /// completed or retried under a fresh id) misses the slab generation
    /// check and is a no-op.
    HedgeFire {
        op_id: OpId,
    },
    Tick {
        id: u64,
    },
    /// Replay the next queued hint to a node that came back up (hinted
    /// handoff; paced by a timer).
    HintReplay {
        node: NodeId,
    },
    /// One anti-entropy step: compare the per-page version summaries of the
    /// next node pair in the sweep cycle and stream divergent pages.
    AntiEntropy,
    /// Recovery migration: synchronize `node` from its up peers (page
    /// summaries compared, divergent pages streamed in). Scheduled when a
    /// node rejoins the ring or when survivors acquire a crashed node's
    /// ranges.
    RepairSync {
        node: NodeId,
    },
}

/// Sentinel op id carried by background repair payloads (hint replays and
/// anti-entropy streams). Repair writes never consult the op slab — the
/// replica-done and dead-task paths return before touching it — so the
/// sentinel only needs to be distinguishable in debug output.
const REPAIR_OP_ID: OpId = OpId(u64::MAX);

/// One queued hinted-handoff mutation: enough to re-issue the write to its
/// destination once the node is back (key, version, byte size — the payload
/// bytes themselves are not simulated, exactly like live writes).
#[derive(Debug, Clone, Copy)]
struct Hint {
    /// Coordinator that queued the hint; the replay is metered on the
    /// `from → destination` link.
    from: NodeId,
    key: Key,
    version: Version,
    size: u32,
}

/// A client operation waiting to start (scheduled arrival).
#[derive(Debug, Clone, Copy)]
struct Submission {
    kind: OpKind,
    key: Key,
    size: u32,
    /// Consecutive records a read touches (1 = point read, >1 = range scan).
    scan_len: u32,
    level: Option<ConsistencyLevel>,
}

/// One operation of a pre-sorted open-loop batch (see
/// [`Cluster::submit_batch`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchOp {
    /// Arrival time (non-decreasing across the batch).
    pub at: SimTime,
    /// Read or write.
    pub kind: OpKind,
    /// The record the operation targets (the range anchor for scans).
    pub key: u64,
    /// Payload bytes (writes; 0 for reads).
    pub size: u32,
    /// Consecutive records a read touches (1 = point read; a YCSB-E scan
    /// reads `scan_len` adjacent records starting at `key`). Ignored for
    /// writes.
    pub scan_len: u32,
    /// Explicit consistency level, or `None` for the cluster default.
    pub level: Option<ConsistencyLevel>,
}

impl BatchOp {
    /// A read at the cluster's default level.
    pub fn read(at: SimTime, key: u64) -> Self {
        BatchOp {
            at,
            kind: OpKind::Read,
            key,
            size: 0,
            scan_len: 1,
            level: None,
        }
    }

    /// A range scan of `scan_len` consecutive records starting at `key`, at
    /// the cluster's default read level.
    pub fn scan(at: SimTime, key: u64, scan_len: u32) -> Self {
        BatchOp {
            at,
            kind: OpKind::Read,
            key,
            size: 0,
            scan_len: scan_len.max(1),
            level: None,
        }
    }

    /// A write of `size` bytes at the cluster's default level.
    pub fn write(at: SimTime, key: u64, size: u32) -> Self {
        BatchOp {
            at,
            kind: OpKind::Write,
            key,
            size,
            scan_len: 1,
            level: None,
        }
    }
}

#[derive(Debug)]
struct WriteState {
    key: Key,
    version: Version,
    issued_at: SimTime,
    required_acks: u32,
    acks: u32,
    applied: u32,
    targeted: u32,
    completed: bool,
    level_used: u32,
    /// Payload size and explicit level of the submission, kept so a timed-out
    /// attempt can be re-issued when retries are configured.
    size: u32,
    level: Option<ConsistencyLevel>,
    retries_left: u32,
    /// The id `submit_*` returned to the client. Retried attempts run under
    /// fresh slab ids (so straggler events of the old attempt miss on the
    /// generation check), but the completion is always reported under this
    /// one, keeping client-side correlation intact.
    client_id: OpId,
    /// Latest apply time reported by an ack (more than one shard only; see
    /// [`Event::CoordinatorWriteAck::applied_at`]).
    max_applied_at: SimTime,
}

#[derive(Debug)]
struct ReadState {
    key: Key,
    coordinator: NodeId,
    issued_at: SimTime,
    required: u32,
    /// Consecutive records of the whole operation (1 = point read).
    scan_len: u32,
    /// Segments still short of `required` responses; the read completes
    /// when this reaches zero. 1 segment for point reads and hash scans;
    /// ordered scans carry one segment per ownership slice the range spans.
    seg_pending: u32,
    /// Per-segment response counts, indexed by segment.
    seg_responses: InlineVec<u32>,
    /// Records accumulated from data responses (the scan's coverage).
    records: u32,
    best_version: Version,
    best_size: u32,
    min_version: Version,
    /// The freshness requirement captured at attempt start — one shard
    /// only. Otherwise the window close resolves it retroactively
    /// ([`StalenessOracle::expected_version_at`] as of `attempt_at`) and
    /// this stays [`Version::NONE`].
    expected_version: Version,
    /// When this attempt was issued (the retroactive-classification
    /// instant; `issued_at` spans attempts, this one does not).
    attempt_at: SimTime,
    /// The replicas this read contacted (for read repair). Inline up to 8
    /// nodes, so issuing a read does not allocate.
    contacted: InlineVec<NodeId>,
    /// Explicit level of the submission (for timeout-driven retries).
    level: Option<ConsistencyLevel>,
    retries_left: u32,
    /// The id `submit_*` returned to the client (see
    /// [`WriteState::client_id`]).
    client_id: OpId,
    /// The replica a speculative hedge request was sent to (`None` until the
    /// hedge fires; at most one hedge per attempt). Used to attribute the
    /// winning response (`hedge_wins`) and to fold the hedge target into
    /// read repair like any contacted replica.
    hedge: Option<NodeId>,
}

impl WriteState {
    /// The client-visible outcome of this write ending at `now` with
    /// `status`: an acknowledged write reports its version, a timed-out one
    /// none.
    fn completion(&self, now: SimTime, status: OpStatus) -> CompletedOp {
        CompletedOp {
            id: self.client_id,
            kind: OpKind::Write,
            key: self.key,
            issued_at: self.issued_at,
            completed_at: now,
            status,
            replicas_involved: self.level_used,
            returned_version: match status {
                OpStatus::Ok => self.version,
                _ => Version::NONE,
            },
            stale: false,
            staleness_depth: 0,
            records_returned: 0,
        }
    }
}

impl ReadState {
    /// The client-visible outcome of this read ending at `now` with
    /// `status`, not yet classified: a completed read reports the newest
    /// version it reconciled, a timed-out one none (and the records it had
    /// gathered by then).
    fn completion(&self, now: SimTime, status: OpStatus) -> CompletedOp {
        CompletedOp {
            id: self.client_id,
            kind: OpKind::Read,
            key: self.key,
            issued_at: self.issued_at,
            completed_at: now,
            status,
            replicas_involved: self.required,
            returned_version: match status {
                OpStatus::Ok => self.best_version,
                _ => Version::NONE,
            },
            stale: false,
            staleness_depth: 0,
            records_returned: self.records,
        }
    }
}

/// Retry context carried across attempts: the client-visible submission
/// time, the remaining retry budget and the id `submit_*` handed out (a
/// retried attempt runs under a fresh slab id but reports under this one).
#[derive(Debug, Clone, Copy)]
struct RetryCtx {
    issued_at: SimTime,
    retries_left: u32,
    client_id: OpId,
}

/// A client operation waiting to start on its home shard.
#[derive(Debug, Clone, Copy)]
struct PendingOp {
    sub: Submission,
    /// The coordinator this attempt was routed to at admission or at a
    /// resubmission; `None` with one shard, where it is drawn at
    /// arrival (see [`Cluster::admit`]).
    coordinator: Option<NodeId>,
    /// `None` for first attempts (issued at arrival, under their own id,
    /// with the configured budget).
    retry: Option<RetryCtx>,
}

/// Lifecycle state of one in-flight operation, stored in the owning shard's
/// op slab: a submitted-but-not-arrived operation, then a write or read in
/// progress. An op lives on the shard that drew its id (slab slots are
/// strided by shard), so `op_id mod shards` recovers the owner from the id
/// alone — that is how acks and responses route home.
#[derive(Debug)]
enum OpState {
    Pending(PendingOp),
    Write(WriteState),
    Read(ReadState),
}

#[derive(Debug, Default)]
struct NodeRuntime {
    active: u32,
    queue: VecDeque<ReplicaTask>,
}

/// One key page of the repair plane's ring-derived ownership index: the
/// ascending in-page slot offsets each node replicates under the current
/// ring, in CSR form. A page diff `from → to` visits only `to`'s list —
/// about `4096 × RF / nodes` slots under hash placement, all or none under
/// [`Partitioner::Ordered`] — instead of scanning the page and asking the
/// ring about every record. Both vectors are allocated once at their final
/// size: growing per-node lists by `push` fragmented the heap enough to
/// move the benchmark's peak RSS by 19 %.
#[derive(Debug)]
struct OwnedPage {
    /// Node `n`'s offsets are `slots[starts[n]..starts[n + 1]]`.
    starts: Vec<u32>,
    /// In-page slot offsets, ascending within each node's range.
    slots: Vec<u16>,
}

impl OwnedPage {
    /// Index key page `page`: one pass over its placements to count each
    /// node's slots, one to fill them in ascending order.
    fn build(page: usize, ring: &Ring, nodes: usize, members: &mut Vec<NodeId>) -> Self {
        let base = (page as u64) << PAGE_BITS;
        let mut starts = vec![0u32; nodes + 1];
        for off in 0..PAGE_SLOTS as u64 {
            ring.replicas_into(Key(base + off), members);
            for node in members.iter() {
                starts[node.0 as usize + 1] += 1;
            }
        }
        for n in 0..nodes {
            starts[n + 1] += starts[n];
        }
        let mut slots = vec![0u16; starts[nodes] as usize];
        let mut fill = starts.clone();
        for off in 0..PAGE_SLOTS as u64 {
            ring.replicas_into(Key(base + off), members);
            for node in members.iter() {
                let at = &mut fill[node.0 as usize];
                slots[*at as usize] = off as u16;
                *at += 1;
            }
        }
        OwnedPage { starts, slots }
    }

    /// The ascending slot offsets `node` replicates.
    fn of(&self, node: NodeId) -> &[u16] {
        let n = node.0 as usize;
        &self.slots[self.starts[n] as usize..self.starts[n + 1] as usize]
    }
}

/// Dense index of a [`LinkClass`] into the sampler table.
#[inline]
const fn class_index(class: LinkClass) -> usize {
    match class {
        LinkClass::Local => 0,
        LinkClass::IntraDc => 1,
        LinkClass::InterDc => 2,
        LinkClass::InterRegion => 3,
    }
}

/// Everything a window handler reads but never writes: topology, ring,
/// compiled samplers, fault flags. `Sync`, shared by reference with every
/// shard during a parallel window; mutated only between windows (fault
/// injection, level changes, ring rebuilds) where `&mut Cluster` proves
/// exclusivity.
struct ClusterShared {
    config: ClusterConfig,
    ring: Ring,
    /// Datacenter of every node (partition checks on the message path).
    node_dc: Vec<DcId>,
    /// Precomputed mean one-way latency in ms for every (from, to) node
    /// pair, row-major: `mean_lat[from * n + to]`. Replica selection ranks
    /// candidates through this table instead of recomputing distribution
    /// means per comparison.
    mean_lat: Vec<f64>,
    /// Precomputed link class per (from, to) node pair, row-major — avoids
    /// re-deriving datacenter/region membership on every message.
    link_class: Vec<LinkClass>,
    /// Compiled per-link-class delay samplers, indexed by [`class_index`].
    link_samplers: [CompiledDelay; 4],
    /// Compiled storage service-time samplers.
    storage_read_sampler: CompiledDelay,
    storage_write_sampler: CompiledDelay,
    node_count: usize,
    /// Event-lane shard of every node: datacenters are kept contiguous
    /// (nodes ordered by (dc, id), then cut into `shards` equal groups), so
    /// intra-DC traffic stays shard-local and the lookahead bound is set by
    /// the slower cross-DC links. Static for the cluster's life — crashes
    /// withdraw ring tokens but never move a node between shards.
    node_shard: Vec<u16>,
    /// Shard count (`node_shard` image size), denominator of op-home routing.
    nshards: u32,
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
    read_level: ConsistencyLevel,
    write_level: ConsistencyLevel,
    selection: ReplicaSelection,
}

impl ClusterShared {
    /// The event-lane shard a node's events execute on.
    #[inline]
    fn shard_of(&self, node: NodeId) -> usize {
        self.node_shard[node.0 as usize] as usize
    }

    /// The canonical key of an unordered datacenter pair in
    /// [`ClusterShared::partitioned_dcs`].
    #[inline]
    fn dc_pair(a: DcId, b: DcId) -> (u16, u16) {
        (a.0.min(b.0), a.0.max(b.0))
    }

    /// Whether the link between two nodes is currently delivering messages.
    #[inline]
    fn link_up(&self, from: NodeId, to: NodeId) -> bool {
        if self.partitioned_dcs.is_empty() {
            return true;
        }
        let pair = Self::dc_pair(self.node_dc[from.0 as usize], self.node_dc[to.0 as usize]);
        !self.partitioned_dcs.contains(&pair)
    }
}

/// A cross-shard *data-plane* message staged during a window into the
/// sender's per-destination outbox arena and delivered — in sender-shard
/// order, then per-destination staging order — when the window closes.
/// Delivery is pure lane insertion (plus payload interning): the next
/// window's bound is computed from the destination lanes' next-event
/// floors. Everything is carried by value — staged entries reference no
/// slab of the shard that produced them.
enum OutMsg {
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

/// A cross-shard *control-plane* effect staged during a window. Unlike
/// [`OutMsg`] these need serialized access to [`ControlState`] (hint
/// queues, the control RNG, coordinator re-draws); the close of the window
/// that staged them applies them, in shard order then staging order.
enum CtrlStaged {
    /// An ack owned by another shard can never arrive (dead replica /
    /// partition-dropped task): decrement its targeted count at the close.
    Abandon { op_id: OpId },
    /// Queue a hinted-handoff mutation for `to` (hint queues are
    /// control-plane state).
    Hint { to: NodeId, hint: Hint },
    /// Re-route an attempt whose coordinator is unreachable (timeout retry,
    /// or the pre-routed coordinator went down before the arrival fired):
    /// the close draws a fresh coordinator from the control stream, homes
    /// the attempt on that shard and restarts it at the window boundary —
    /// or, with `backoff` set, after an exponential backoff (jitter drawn
    /// from the control stream) measured from the staging time `at`,
    /// whichever is later.
    Resubmit {
        sub: Submission,
        retry: RetryCtx,
        /// When the attempt was staged (the backoff baseline).
        at: SimTime,
        /// Whether this re-issue waits out the configured retry backoff.
        backoff: bool,
    },
}

/// Circuit-breaker state of one replica as seen by coordinators of one
/// shard (part of [`NodeHealth`]; [`ReplicaSelection::Dynamic`] only).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Breaker {
    /// Healthy: the replica is ranked by its latency EWMA.
    Closed,
    /// Tripped after `BREAKER_FAILURES` consecutive timeout strikes: the
    /// replica is ranked last until the cooldown expires.
    Open { until: SimTime },
    /// Cooldown expired: one probe read is allowed through; a response
    /// closes the breaker, another strike reopens it.
    HalfOpen,
}

/// Coordinator-side health bookkeeping for one replica, maintained per
/// shard (coordinator-homed: a shard only observes responses to reads it
/// coordinates, so the state needs no cross-shard synchronization). Only
/// read or written when the cluster's selection is
/// [`ReplicaSelection::Dynamic`] — otherwise it stays untouched, adding
/// zero RNG draws and zero events.
#[derive(Debug, Clone, Copy)]
struct NodeHealth {
    /// EWMA of the observed latency **excess** over the expected round trip
    /// to the replica, in microseconds. Subtracting the static distance
    /// before averaging keeps observations from near and far coordinators
    /// comparable — a node-global mean of raw response latencies would let
    /// remote observers poison a replica's score for its neighbours.
    ewma: Ewma,
    /// Consecutive timeout strikes since the last response.
    failures: u32,
    breaker: Breaker,
}

impl NodeHealth {
    fn new() -> Self {
        NodeHealth {
            ewma: Ewma::new(ResilienceConfig::HEALTH_ALPHA),
            failures: 0,
            breaker: Breaker::Closed,
        }
    }

    /// The [`ReplicaSelection::Dynamic`] rank key (lower is better) of this
    /// replica for a coordinator `mean_lat_ms` away: the distance prior
    /// (expected round trip, ms → µs) plus the observed excess, so an
    /// unmeasured node ranks purely by distance, exactly like `Closest`. An
    /// open breaker ranks behind every healthy candidate but stays
    /// eligible as the choice of last resort.
    fn score(&self, mean_lat_ms: f64) -> f64 {
        let base = 2.0 * mean_lat_ms * 1_000.0 + self.ewma.value_or(0.0);
        if matches!(self.breaker, Breaker::Open { .. }) {
            base + 1e12
        } else {
            base
        }
    }
}

/// Everything one shard owns exclusively: its event lane, RNG stream, op
/// slab, metric sinks, payload slab and the node runtimes / replica stores
/// of the nodes mapped to it. `Send`; handed to the work-stealing pool by
/// `&mut` during a window.
struct ShardState {
    shard: u32,
    lane: EventQueue<Event>,
    rng: SimRng,
    /// In-flight operation state owned by this shard, addressed by
    /// generation-checked OpId. Slots are strided by shard (slot ≡ shard
    /// mod nshards) so ownership is recoverable from the id.
    ops: OpSlab<OpState>,
    metrics: ClusterMetrics,
    /// Serial-engine version counter: the pre-sharding global `1, 2, 3, …`
    /// stream. The parallel engine allocates timestamp-packed versions
    /// instead (see [`ShardState::alloc_version_at`]) so last-writer-wins
    /// order follows simulated time no matter which shard coordinates a
    /// key's writes.
    next_version: u64,
    /// Microsecond of the most recent parallel version allocation, and the
    /// tie-break sequence within it.
    version_last_us: u64,
    version_seq: u32,
    /// Full-length per-node tables; only the slots of nodes mapped to this
    /// shard are ever populated (foreign slots stay empty and meter zero).
    stores: Vec<ReplicaStore>,
    nodes: Vec<NodeRuntime>,
    /// Interned write-fan-out payloads, ref-counted by the events that carry
    /// their [`PayloadId`]; slots recycle through `payload_free`.
    write_payloads: Vec<PayloadSlot>,
    payload_free: Vec<PayloadId>,
    payload_live: usize,
    /// Scratch buffer for replica lists; reused across operations.
    replica_scratch: Vec<NodeId>,
    /// Scratch buffer for the up-node list when nodes are down.
    up_scratch: Vec<NodeId>,
    /// Outputs produced this window, drained at the window close (serial
    /// mode: drained after every event, preserving the pre-sharding order).
    outputs: Vec<ClusterOutput>,
    /// Full-propagation samples produced this window, drained at the close.
    propagation: Vec<SimDuration>,
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
    /// Control-plane effects recorded this window, applied at the close
    /// (see [`CtrlStaged`]).
    outbox_ctrl: Vec<CtrlStaged>,
    /// Cross-shard messages staged this window (counter feed for
    /// [`ShardMetrics::staged`]); reset at the close.
    window_staged: u64,
    /// Staged messages whose timestamp undercut the window boundary and
    /// were clamped to it ([`ShardMetrics::violations`]); reset at the
    /// close.
    window_violations: u64,
    /// Events this shard popped in the current window (the close derives
    /// `parallel_batches` / `max_batch_len` from these).
    window_popped: u64,
    /// Per-replica health as observed by this shard's coordinators (EWMA +
    /// circuit breaker; [`ReplicaSelection::Dynamic`] only, untouched
    /// otherwise).
    health: Vec<NodeHealth>,
}

/// Control-plane state: the repair plane (hint queues, sweep cursor), its
/// meters and the staleness oracle. Touched only at serial points — barrier
/// edges, between-window calls and the one-shard engine's inline handlers —
/// never inside a parallel window.
struct ControlState {
    /// Control-plane meters (hint and repair counters, repair traffic);
    /// merged into reports after the shard sinks. Counters only, so the
    /// merged report does not depend on which sink a count went to.
    metrics: ClusterMetrics,
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
    /// Whether the current sweep round streamed any records.
    sweep_streamed: bool,
    /// Consecutive sweep rounds that streamed nothing; the cycle parks
    /// after one fully idle round and is resumed by fault transitions.
    sweep_idle_rounds: u32,
    /// The ownership index, by key page: bounds an anti-entropy diff to the
    /// slots the receiver replicates. A page is built from the ring on its
    /// first diff; every page is dropped when the ring is rebuilt.
    owned: Vec<Option<OwnedPage>>,
    /// Scratch for the placement lookups that build [`ControlState::owned`].
    repair_member_scratch: Vec<NodeId>,
    /// The ground-truth staleness oracle. One central instance, mutated
    /// only at serial points: preloads before the run, acks and read
    /// classifications inline on the one-shard engine and at window
    /// closes otherwise.
    oracle: StalenessOracle,
}

/// The control plane as a serial-point action borrows it (see
/// [`Cluster::ctrl_sink`]): its state, plus the lane its events ride and the
/// RNG stream its messages draw their delays from.
struct CtrlSink<'a> {
    shared: &'a ClusterShared,
    ctrl: &'a mut ControlState,
    lane: &'a mut EventQueue<Event>,
    rng: &'a mut SimRng,
}

/// The cluster simulator. See the module docs for the simulated protocol
/// and for the parallel sharded execution model.
pub struct Cluster {
    shared: ClusterShared,
    shard_states: Vec<ShardState>,
    ctrl: ControlState,
    /// The control plane's own event lane (ticks and repair events) and RNG
    /// stream (index `nshards` of the master seed, so it never collides
    /// with a shard stream). Idle with one shard, where the control plane
    /// shares shard 0's (see [`Cluster::ctrl_sink`]).
    control_lane: EventQueue<Event>,
    control_rng: SimRng,
    /// The conservative lookahead bound: the link-delay infimum over
    /// `cross_classes` under the current degradation factors. A window runs
    /// from the earliest shard event to that instant plus this bound.
    lookahead: SimDuration,
    /// Which link classes (indexed by [`class_index`]) connect nodes of
    /// different shards; `refresh_lookahead` recomputes the bound from them
    /// when a degradation factor changes.
    cross_classes: [bool; 4],
    /// Time of the last processed event (serial) / high-water mark over the
    /// shard lanes (parallel).
    clock: SimTime,
    outputs: VecDeque<ClusterOutput>,
    propagation_samples: Vec<SimDuration>,
    /// Scratch for bulk-load placement lookups and up-node coordinator draws
    /// at serial points (submission, resubmission).
    home_scratch: Vec<NodeId>,
    /// Synchronization counters of the sharded engine (all zero with one
    /// shard: the serial path never crosses a window barrier).
    sync: ShardMetrics,
    /// Boundary of the most recently closed window: a next window that
    /// starts past it fast-forwarded over quiet simulated time.
    last_boundary: SimTime,
    /// High-water mark of `submit_batch` arrival times across all shards
    /// (the per-lane FIFO asserts only per-lane order; the sorted-stream
    /// contract is global).
    bulk_tail: SimTime,
}

/// Account a message of `bytes` payload travelling `from → to` against the
/// given RNG/metric sink (a shard's inside a window, the control plane's at
/// a serial point) and return its sampled link delay.
fn account_message(
    shared: &ClusterShared,
    rng: &mut SimRng,
    metrics: &mut ClusterMetrics,
    from: NodeId,
    to: NodeId,
    bytes: u32,
) -> SimDuration {
    let class = shared.link_class[from.0 as usize * shared.node_count + to.0 as usize];
    let total = bytes as u64 + shared.config.message_overhead_bytes as u64;
    metrics.traffic.add(class, total);
    metrics.messages += 1;
    let delay = shared.link_samplers[class_index(class)].sample(rng);
    if shared.degradation_active {
        let factor = shared.link_degradation[class_index(class)];
        if factor != 1.0 {
            return SimDuration::from_micros((delay.as_micros() as f64 * factor).round() as u64);
        }
    }
    delay
}

/// Apply `node`'s gray-failure slow factor to a response delay it emits.
/// Post-sampling like `degrade_link`, so the RNG stream is untouched; a
/// factor of 1.0 (the default) returns the delay unchanged. Only *response*
/// sends route through this — a slow node is late serving and answering,
/// while requests fanned out *by* a slow coordinator travel at link speed
/// (the gray failure is in the node's storage/service path, not the wire).
fn slow_response(shared: &ClusterShared, node: NodeId, delay: SimDuration) -> SimDuration {
    if shared.slow_active {
        let factor = shared.node_slow[node.0 as usize];
        if factor != 1.0 {
            return SimDuration::from_micros((delay.as_micros() as f64 * factor).round() as u64);
        }
    }
    delay
}

/// Meter one page-summary message `from → to`. It never becomes a
/// scheduled event: its bytes go to both the billable traffic meter and
/// the repair breakdown but no delay is sampled, so summary comparisons
/// cost network bytes and no RNG draws.
fn account_summary(shared: &ClusterShared, metrics: &mut ClusterMetrics, from: NodeId, to: NodeId) {
    let class = shared.link_class[from.0 as usize * shared.node_count + to.0 as usize];
    let total =
        RepairConfig::SUMMARY_BYTES_PER_PAGE as u64 + shared.config.message_overhead_bytes as u64;
    metrics.traffic.add(class, total);
    metrics.repair_traffic.add(class, total);
    metrics.messages += 1;
}

/// Account a repair message that does travel (hint replay, streamed
/// record): billable traffic + repair breakdown + a sampled link delay.
fn account_repair_message(
    shared: &ClusterShared,
    rng: &mut SimRng,
    metrics: &mut ClusterMetrics,
    from: NodeId,
    to: NodeId,
    bytes: u32,
) -> SimDuration {
    let class = shared.link_class[from.0 as usize * shared.node_count + to.0 as usize];
    metrics.repair_traffic.add(
        class,
        bytes as u64 + shared.config.message_overhead_bytes as u64,
    );
    account_message(shared, rng, metrics, from, to, bytes)
}

/// Account a speculative hedge request `from → to`: billable traffic + the
/// hedge breakdown + a sampled link delay. Like repair traffic, hedge bytes
/// also land in the plain `traffic` meter, so the bill prices tail-tolerance
/// traffic like any other transfer while `hedge_traffic` breaks the share
/// out.
fn account_hedge_message(
    shared: &ClusterShared,
    rng: &mut SimRng,
    metrics: &mut ClusterMetrics,
    from: NodeId,
    to: NodeId,
    bytes: u32,
) -> SimDuration {
    let class = shared.link_class[from.0 as usize * shared.node_count + to.0 as usize];
    metrics.hedge_traffic.add(
        class,
        bytes as u64 + shared.config.message_overhead_bytes as u64,
    );
    account_message(shared, rng, metrics, from, to, bytes)
}

/// Exponential retry backoff with deterministic RNG-drawn jitter: the
/// nominal delay doubles per consumed retry (`base`, `2·base`, `4·base`, …)
/// up to the cap, then a full-jitter-style multiplier in `[0.5, 1.5)` is
/// drawn from the given stream (the shard's on the one-shard engine, the
/// control plane's at a resubmission). The draw happens on every
/// backoff retry and only then — backoff off means zero extra draws.
fn backoff_delay(retry_budget: u32, retries_left: u32, rng: &mut SimRng) -> SimDuration {
    let base = ResilienceConfig::BACKOFF_BASE.as_micros();
    let cap = ResilienceConfig::BACKOFF_CAP.as_micros();
    // First re-issue has consumed 1 retry → exponent 0 → nominal = base.
    let consumed = retry_budget.saturating_sub(retries_left).max(1);
    let exp = (consumed - 1).min(20);
    let nominal = base.saturating_mul(1u64 << exp).min(cap);
    let jitter = 0.5 + rng.next_f64();
    SimDuration::from_micros(((nominal as f64 * jitter).round() as u64).max(1))
}

/// A write ack that can no longer arrive (its replica died or the
/// partition ate the message): stop counting that replica as targeted,
/// and reclaim the slab slot if the write was only waiting for it. Runs
/// against the op's home shard.
fn abandon_in(s: &mut ShardState, op_id: OpId) {
    if let Some(OpState::Write(w)) = s.ops.get_mut(op_id) {
        w.targeted = w.targeted.saturating_sub(1);
        if w.completed && w.acks >= w.targeted {
            s.ops.remove(op_id);
        }
    }
}

/// (Re)start the anti-entropy sweep cycle at simulated time `now`, its
/// `AntiEntropy` chain riding the control plane's `lane`. The cycle parks
/// itself after a full round of node pairs that streamed nothing (so a
/// drained queue terminates `run_to_completion`); fault transitions and
/// dropped hints wake it up again. No-op unless the mode enables
/// anti-entropy.
fn resume_sweeps_parts(
    shared: &ClusterShared,
    ctrl: &mut ControlState,
    lane: &mut EventQueue<Event>,
    now: SimTime,
) {
    if !shared.config.repair.mode.anti_entropy_enabled() || shared.node_count < 2 {
        return;
    }
    ctrl.sweep_idle_rounds = 0;
    if !ctrl.sweep_active {
        ctrl.sweep_active = true;
        lane.schedule_timeout(
            now + RepairConfig::ANTI_ENTROPY_INTERVAL,
            Event::AntiEntropy,
        );
    }
}

/// Queue a hinted-handoff mutation for the down replica `to`. The queue is
/// bounded: an overflowing hint is dropped, metered, and left to
/// anti-entropy (resumed here on `lane`; a no-op unless the mode enables
/// sweeps).
fn enqueue_hint(
    shared: &ClusterShared,
    ctrl: &mut ControlState,
    lane: &mut EventQueue<Event>,
    now: SimTime,
    to: NodeId,
    hint: Hint,
) {
    let queue = &mut ctrl.hints[to.0 as usize];
    if queue.len() >= RepairConfig::HINT_CAPACITY_PER_NODE {
        ctrl.metrics.hints_dropped += 1;
        resume_sweeps_parts(shared, ctrl, lane, now);
    } else {
        queue.push_back(hint);
        ctrl.metrics.hints_queued += 1;
    }
}

/// Draw a coordinator uniformly over the currently-up nodes: clients
/// connect to a random live node (YCSB spreads connections round-robin;
/// with many clients the effect is uniform). `up` is scratch for the
/// up-node list.
fn draw_coordinator(shared: &ClusterShared, rng: &mut SimRng, up: &mut Vec<NodeId>) -> NodeId {
    if shared.down_count == 0 {
        // Fast path: every node is up, so the up-node list is the
        // identity — draw the index directly (same RNG consumption).
        return NodeId(rng.index(shared.node_count) as u32);
    }
    up.clear();
    up.extend(
        shared
            .config
            .topology
            .nodes()
            .filter(|n| !shared.down[n.0 as usize]),
    );
    if up.is_empty() {
        NodeId(0)
    } else {
        up[rng.index(up.len())]
    }
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

impl ShardState {
    /// Allocate the next serial-engine write version: the pre-sharding
    /// global `1, 2, 3, …` counter (one shard owns the whole stream).
    fn alloc_version_serial(&mut self) -> Version {
        self.next_version += 1;
        Version(self.next_version)
    }

    /// Allocate a parallel-engine write version: timestamp-packed as
    /// `(µs+1) << 24 | seq << 8 | shard`, the simulator's analogue of
    /// Cassandra's client-timestamp LWW ordering. Per-key version order
    /// follows simulated time no matter which shard coordinates each
    /// write — a per-shard counter would let a busy shard's old write
    /// shadow a quieter shard's newer one. `seq` restarts every
    /// microsecond and breaks same-instant ties deterministically (its 16
    /// bits hold 2^16−1 allocations per µs per shard, far past any real
    /// event density); the `µs+1` bias keeps every runtime version above
    /// the preload floor (see [`Cluster::load_records`]). `shard` fits its
    /// 8 bits because [`ClusterConfig::validate`] caps the shard count at
    /// 256.
    ///
    /// # Panics
    /// Panics when the time or the tie-break sequence outgrows its bits:
    /// either would hand out a version twice.
    fn alloc_version_at(&mut self, now: SimTime) -> Version {
        let us = now.as_micros() + 1;
        assert!(us < 1 << 40, "simulated time overflows the version layout");
        if us != self.version_last_us {
            self.version_last_us = us;
            self.version_seq = 0;
        }
        self.version_seq += 1;
        assert!(
            self.version_seq <= u16::MAX as u32,
            "shard {} allocated more than 65535 write versions in one microsecond",
            self.shard
        );
        Version((us << 24) | ((self.version_seq as u64) << 8) | self.shard as u64)
    }

    /// Intern a write-fan-out payload with zero references; callers bump the
    /// count with [`ShardState::retain_payload`] once per event they schedule
    /// and drop the slot again if nothing ended up referencing it.
    fn intern_payload(&mut self, payload: WritePayload) -> PayloadId {
        self.payload_live += 1;
        if let Some(id) = self.payload_free.pop() {
            self.write_payloads[id as usize] = PayloadSlot { refs: 0, payload };
            id
        } else {
            let id = PayloadId::try_from(self.write_payloads.len())
                .expect("more than 2^32 in-flight write payloads");
            self.write_payloads.push(PayloadSlot { refs: 0, payload });
            id
        }
    }

    #[inline]
    fn retain_payload(&mut self, id: PayloadId) {
        self.write_payloads[id as usize].refs += 1;
    }

    /// Read the payload and drop one reference; the slot is recycled when the
    /// last referencing event consumes it.
    #[inline]
    fn release_payload(&mut self, id: PayloadId) -> WritePayload {
        let slot = &mut self.write_payloads[id as usize];
        debug_assert!(slot.refs > 0, "payload released more often than retained");
        slot.refs -= 1;
        let payload = slot.payload;
        if slot.refs == 0 {
            self.payload_free.push(id);
            self.payload_live -= 1;
        }
        payload
    }

    /// Free an interned payload that ended up with no referencing events
    /// (every target replica was down or remote at fan-out time).
    fn discard_unreferenced_payload(&mut self, id: PayloadId) {
        let slot = &self.write_payloads[id as usize];
        if slot.refs == 0 {
            self.payload_free.push(id);
            self.payload_live -= 1;
        }
    }

    /// Put one write task for `node`, arriving at `at`, on this shard's
    /// lane, with `payload` interned for it alone: how a write that did not
    /// originate on this shard (a staged cross-shard task, a hint replay, a
    /// streamed repair record) enters it at a serial point.
    fn deliver_write(&mut self, at: SimTime, node: NodeId, payload: WritePayload) {
        let payload = self.intern_payload(payload);
        self.retain_payload(payload);
        self.lane.schedule_at(
            at,
            Event::ReplicaArrive {
                node,
                task: ReplicaTask::Write { payload },
            },
        );
    }
}

impl Cluster {
    /// Build a cluster from its configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(config: ClusterConfig, seed: u64) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid cluster config: {e}"));
        let ring = Ring::new(
            &config.topology,
            config.replication_factor,
            config.strategy,
            config.vnodes,
            config.partitioner,
        );
        let n = config.topology.node_count();
        let read_level = config.read_level;
        let write_level = config.write_level;
        // Precompute the coordinator→replica latency ranking and link-class
        // tables once; the network model and topology are immutable for the
        // cluster's life.
        let mut mean_lat = Vec::with_capacity(n * n);
        let mut link_class = Vec::with_capacity(n * n);
        for from in config.topology.nodes() {
            for to in config.topology.nodes() {
                mean_lat.push(config.network.mean_ms(&config.topology, from, to));
                link_class.push(config.topology.link_class(from, to));
            }
        }
        let link_samplers = [
            config.network.local.compiled(),
            config.network.intra_dc.compiled(),
            config.network.inter_dc.compiled(),
            config.network.inter_region.compiled(),
        ];
        let storage_read_sampler = config.storage_read_latency.compiled();
        let storage_write_sampler = config.storage_write_latency.compiled();
        let shards = config.effective_shards();
        let node_shard = Self::build_shard_map(&config.topology, shards);
        let mut cross_classes = [false; 4];
        for from in 0..n {
            for to in 0..n {
                if node_shard[from] != node_shard[to] {
                    cross_classes[class_index(link_class[from * n + to])] = true;
                }
            }
        }
        let lookahead = Self::lookahead_bound(
            &config.network,
            &cross_classes,
            &[1.0; 4],
            config.op_timeout,
        );
        let effective_rf = ring.replication_factor() as usize;
        let node_dc: Vec<DcId> = config
            .topology
            .nodes()
            .map(|x| config.topology.dc_of(x))
            .collect();
        let shard_states = (0..shards)
            .map(|k| ShardState {
                shard: k as u32,
                lane: EventQueue::new(),
                // With one shard the lane IS the pre-sharding engine, so it
                // keeps the master stream; true shard streams are split off
                // the master seed per shard.
                rng: if shards == 1 {
                    SimRng::new(seed)
                } else {
                    SimRng::shard_stream(seed, k as u64)
                },
                ops: OpSlab::with_stride(shards as u32, k as u32),
                metrics: ClusterMetrics::new(),
                next_version: 0,
                version_last_us: 0,
                version_seq: 0,
                // Page summaries cost two mixes per installed write; only
                // maintain them when an anti-entropy sweep could ever
                // compare them.
                stores: (0..n)
                    .map(|_| {
                        if config.repair.mode.anti_entropy_enabled() {
                            ReplicaStore::with_summaries()
                        } else {
                            ReplicaStore::new()
                        }
                    })
                    .collect(),
                nodes: (0..n).map(|_| NodeRuntime::default()).collect(),
                write_payloads: Vec::new(),
                payload_free: Vec::new(),
                payload_live: 0,
                replica_scratch: Vec::with_capacity(config.replication_factor as usize),
                up_scratch: Vec::with_capacity(n),
                outputs: Vec::new(),
                propagation: Vec::new(),
                outbox_dest: (0..shards).map(|_| Vec::new()).collect(),
                outbox_acks: Vec::new(),
                outbox_dones: Vec::new(),
                outbox_ctrl: Vec::new(),
                window_staged: 0,
                window_violations: 0,
                window_popped: 0,
                health: vec![NodeHealth::new(); n],
            })
            .collect();
        let ctrl = ControlState {
            metrics: ClusterMetrics::new(),
            hints: (0..n).map(|_| VecDeque::new()).collect(),
            hint_replay_active: vec![false; n],
            sweep_cursor: 0,
            sweep_active: false,
            sweep_streamed: false,
            sweep_idle_rounds: 0,
            owned: Vec::new(),
            repair_member_scratch: Vec::new(),
            oracle: StalenessOracle::new(),
        };
        Cluster {
            shared: ClusterShared {
                ring,
                node_dc,
                mean_lat,
                link_class,
                link_samplers,
                storage_read_sampler,
                storage_write_sampler,
                node_count: n,
                node_shard,
                nshards: shards as u32,
                down: vec![false; n],
                down_count: 0,
                crashed: vec![false; n],
                partitioned_dcs: Vec::new(),
                link_degradation: [1.0; 4],
                degradation_active: false,
                node_slow: vec![1.0; n],
                slow_active: false,
                read_level,
                write_level,
                selection: config.read_selection,
                config,
            },
            shard_states,
            ctrl,
            control_lane: EventQueue::new(),
            control_rng: SimRng::shard_stream(seed, shards as u64),
            lookahead,
            cross_classes,
            clock: SimTime::ZERO,
            outputs: VecDeque::new(),
            propagation_samples: Vec::new(),
            home_scratch: Vec::with_capacity(effective_rf.max(1)),
            sync: ShardMetrics::default(),
            last_boundary: SimTime::ZERO,
            bulk_tail: SimTime::ZERO,
        }
    }

    /// Assign every node to an event-lane shard. [`Topology::spread`] deals
    /// datacenters round-robin over node ids, so nodes are ordered by
    /// (datacenter, id) first and the ordered list is cut into `shards`
    /// contiguous groups — each shard then holds whole datacenters (or a
    /// contiguous slice of one), keeping intra-DC traffic shard-local.
    fn build_shard_map(topology: &Topology, shards: usize) -> Vec<u16> {
        let n = topology.node_count();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&i| (topology.dc_of(NodeId(i)).0, i));
        let mut map = vec![0u16; n];
        for (pos, &node) in order.iter().enumerate() {
            map[node as usize] = (pos * shards / n) as u16;
        }
        map
    }

    /// The conservative lookahead bound for one set of link classes: the
    /// infimum of the link delay over the classes present, scaled by the
    /// current degradation factors (a factor below 1 shrinks delays, so the
    /// window must shrink with it). A zero infimum (e.g. an exponential
    /// cross-shard link) degrades to the engine's minimal 1 µs window
    /// rather than disabling sharding. When *no* class is present — a
    /// single shard, where no message ever crosses a boundary — any window
    /// works, and the bound falls back to `fallback` (the configured
    /// operation timeout: the coarsest horizon the simulation itself
    /// schedules at, rather than the arbitrary 1 s constant used before
    /// PR 10).
    fn lookahead_bound(
        network: &NetworkModel,
        cross: &[bool; 4],
        degradation: &[f64; 4],
        fallback: SimDuration,
    ) -> SimDuration {
        let dists = [
            &network.local,
            &network.intra_dc,
            &network.inter_dc,
            &network.inter_region,
        ];
        let mut min_ms = f64::INFINITY;
        for c in 0..4 {
            if cross[c] {
                min_ms = min_ms.min(dists[c].min_ms() * degradation[c]);
            }
        }
        if !min_ms.is_finite() {
            return fallback;
        }
        SimDuration::from_micros((min_ms * 1_000.0).floor() as u64)
    }

    /// Re-derive the lookahead bound from the current degradation factors
    /// (takes effect at the next window).
    fn refresh_lookahead(&mut self) {
        self.lookahead = Self::lookahead_bound(
            &self.shared.config.network,
            &self.cross_classes,
            &self.shared.link_degradation,
            self.shared.config.op_timeout,
        );
    }

    /// Whether this cluster runs the one-shard engine (see the module docs'
    /// table of what that changes).
    #[inline]
    fn serial(&self) -> bool {
        self.shard_states.len() == 1
    }

    /// Borrow the control plane together with the lane its events ride and
    /// the RNG stream its repair messages draw from: shard 0's with one
    /// shard — control events interleave with client traffic on the one
    /// lane and share the one stream, as they did before sharding existed —
    /// and the control plane's own otherwise. Every control-plane handler
    /// and every fault transition goes through here, so this is the one
    /// place that choice is made.
    fn ctrl_sink(&mut self) -> CtrlSink<'_> {
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

    /// Number of event-lane shards this cluster runs with.
    pub fn shards(&self) -> usize {
        self.shard_states.len()
    }

    /// Synchronization counters of the sharded engine (lookahead windows
    /// crossed, parallel handler batches, cross-shard events staged, bound
    /// violations). All zero with one shard.
    pub fn shard_metrics(&self) -> ShardMetrics {
        self.sync
    }

    /// The current conservative lookahead bound: every window runs from the
    /// earliest shard event to that instant plus this bound.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.shared.config
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Total number of simulation events processed so far (the denominator of
    /// the hot-path throughput benchmarks).
    pub fn events_processed(&self) -> u64 {
        self.shard_states
            .iter()
            .map(|s| s.lane.processed())
            .sum::<u64>()
            + self.control_lane.processed()
    }

    /// Number of operations whose state is still held in the op slabs
    /// (submitted-but-unfinished work, for leak diagnostics and tests).
    pub fn inflight_ops(&self) -> usize {
        self.shard_states.iter().map(|s| s.ops.len()).sum()
    }

    /// Number of interned write payloads still referenced by in-flight
    /// replica tasks (leak diagnostics and tests; 0 once a run drains).
    pub fn inflight_write_payloads(&self) -> usize {
        self.shard_states.iter().map(|s| s.payload_live).sum()
    }

    /// Current default read consistency level.
    pub fn read_level(&self) -> ConsistencyLevel {
        self.shared.read_level
    }

    /// Current default write consistency level.
    pub fn write_level(&self) -> ConsistencyLevel {
        self.shared.write_level
    }

    /// Change the default consistency levels (takes effect for operations
    /// that *arrive* after the change — exactly how Harmony retunes a live
    /// cluster).
    pub fn set_levels(&mut self, read: ConsistencyLevel, write: ConsistencyLevel) {
        self.shared.read_level = read;
        self.shared.write_level = write;
    }

    /// How read replicas are selected.
    pub fn set_replica_selection(&mut self, selection: ReplicaSelection) {
        self.shared.selection = selection;
    }

    /// Ground-truth staleness totals. One central oracle serves both
    /// engines: the serial engine classifies a read inline, the parallel
    /// engine at the close of the window that completed it — so the
    /// counters always cover exactly the reads already published.
    pub fn oracle(&self) -> OracleStats {
        self.ctrl.oracle.stats()
    }

    /// Aggregate metrics of the run so far: the per-shard sinks merged in
    /// shard order, then the control-plane sink. Latency samples live in the
    /// shard sinks only; the control plane's sink holds integer counters,
    /// which add exactly, so with one shard the merged report is the one a
    /// single sink would have produced.
    pub fn metrics(&self) -> ClusterMetrics {
        let mut merged = self.shard_states[0].metrics.clone();
        for s in &self.shard_states[1..] {
            merged.merge(&s.metrics);
        }
        merged.merge(&self.ctrl.metrics);
        merged
    }

    /// Total payload bytes currently stored across all replicas.
    pub fn total_bytes_stored(&self) -> u64 {
        self.shard_states
            .iter()
            .flat_map(|s| s.stores.iter())
            .map(|s| s.bytes_stored())
            .sum()
    }

    /// Per-node storage read/write operation counts (for the cost model).
    pub fn storage_op_totals(&self) -> (u64, u64) {
        let mut reads = 0;
        let mut writes = 0;
        for s in &self.shard_states {
            reads += s.stores.iter().map(|s| s.read_ops()).sum::<u64>();
            writes += s.stores.iter().map(|s| s.write_ops()).sum::<u64>();
        }
        (reads, writes)
    }

    /// Access a node's local store (read-only, for tests and tools). Routes
    /// to the owning shard's table; foreign slots exist but stay empty.
    pub fn store(&self, node: NodeId) -> &ReplicaStore {
        &self.shard_states[self.shared.shard_of(node)].stores[node.0 as usize]
    }

    /// The replica nodes responsible for a key (primary first).
    pub fn replicas_of(&self, key: u64) -> Vec<NodeId> {
        self.shared.ring.replicas(Key(key))
    }

    /// Take all full-propagation duration samples recorded since the last
    /// call (feeds the Harmony monitor's `Tp` estimate).
    pub fn drain_propagation_samples(&mut self) -> Vec<SimDuration> {
        let mut out = std::mem::take(&mut self.propagation_samples);
        for s in &mut self.shard_states {
            out.append(&mut s.propagation);
        }
        out
    }

    /// Number of hints currently queued for `node` (tests and diagnostics).
    pub fn pending_hints(&self, node: NodeId) -> usize {
        self.ctrl.hints[node.0 as usize].len()
    }

    /// Mark a node as down: it no longer applies writes nor answers reads.
    /// With hinted handoff enabled, coordinators start queueing hints for
    /// it; with anti-entropy enabled, the sweep cycle (re)starts so the
    /// divergence accumulating while it is down gets reconciled.
    pub fn set_node_down(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        if !self.shared.down[idx] {
            self.shared.down[idx] = true;
            self.shared.down_count += 1;
            self.resume_sweeps();
        }
    }

    /// Bring a node back up. Without the repair plane it simply missed the
    /// writes that happened while down (repaired lazily by read repair if
    /// enabled); with hinted handoff its queued hints start replaying, and
    /// with anti-entropy the sweep cycle resumes to catch anything the
    /// hints missed.
    pub fn set_node_up(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        if self.shared.down[idx] {
            self.shared.down[idx] = false;
            self.shared.down_count -= 1;
            self.start_hint_replay(node);
            self.resume_sweeps();
        }
    }

    /// Whether a node is currently down.
    pub fn is_node_down(&self, node: NodeId) -> bool {
        self.shared.down[node.0 as usize]
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Crash a node permanently: it goes down **and** its vnode tokens are
    /// withdrawn from the ring, so its former ranges fall to the surviving
    /// nodes (what removing a Cassandra node does to ownership). Operations
    /// arriving after the crash target only surviving replicas; the
    /// effective replication factor is clamped to the survivor count.
    ///
    /// Contrast with [`Cluster::set_node_down`], which models a transient
    /// outage and leaves the ring untouched.
    pub fn crash_node(&mut self, node: NodeId) {
        if !self.shared.crashed[node.0 as usize] {
            self.shared.crashed[node.0 as usize] = true;
            self.set_node_down(node);
            self.rebuild_ring();
            // Recovery migration: the survivors just acquired the crashed
            // node's ranges (hash tokens or ordered slices) but hold only
            // what asynchronous propagation happened to deliver. Schedule a
            // synchronization of every survivor instead of silently serving
            // the acquired ranges from whatever is on disk.
            if self.shared.config.repair.mode.anti_entropy_enabled() {
                let now = self.clock;
                for peer in 0..self.shared.node_count {
                    if !self.shared.down[peer] {
                        // Fault-driven control broadcast: runs at a barrier
                        // edge, not as a cross-shard message.
                        self.ctrl_sink().lane.schedule_at(
                            now,
                            Event::RepairSync {
                                node: NodeId(peer as u32),
                            },
                        );
                    }
                }
            }
        }
    }

    /// Recover a crashed node: it rejoins the ring at its original token
    /// positions (tokens depend only on node and vnode ids) and starts
    /// serving again. Without the repair plane, the writes it missed while
    /// crashed are repaired lazily by read repair; with it, queued hints
    /// replay immediately (via [`Cluster::set_node_up`]) and — under
    /// anti-entropy — a [`Event::RepairSync`] streams the returned ranges
    /// back in from its peers before relying on sweeps for the long tail.
    pub fn recover_node(&mut self, node: NodeId) {
        if self.shared.crashed[node.0 as usize] {
            self.shared.crashed[node.0 as usize] = false;
            self.set_node_up(node);
            self.rebuild_ring();
            if self.shared.config.repair.mode.anti_entropy_enabled() {
                let now = self.clock;
                self.ctrl_sink()
                    .lane
                    .schedule_at(now, Event::RepairSync { node });
            }
        }
    }

    /// Whether a node is currently crashed (out of the ring).
    pub fn is_node_crashed(&self, node: NodeId) -> bool {
        self.shared.crashed[node.0 as usize]
    }

    fn rebuild_ring(&mut self) {
        let crashed = std::mem::take(&mut self.shared.crashed);
        self.shared.ring = Ring::excluding(
            &self.shared.config.topology,
            self.shared.config.replication_factor,
            self.shared.config.strategy,
            self.shared.config.vnodes,
            self.shared.config.partitioner,
            |n| crashed[n.0 as usize],
        );
        self.shared.crashed = crashed;
        // Ownership moved: the index built from the old ring is stale.
        self.ctrl.owned.clear();
    }

    /// Partition two datacenters: every message between their nodes is lost
    /// in transit (traffic is still accounted at the sender — the bytes left
    /// the NIC). In-flight replica work is unaffected; only deliveries after
    /// the partition starts are dropped. Idempotent.
    pub fn partition_dcs(&mut self, a: DcId, b: DcId) {
        let pair = ClusterShared::dc_pair(a, b);
        if pair.0 != pair.1 && !self.shared.partitioned_dcs.contains(&pair) {
            self.shared.partitioned_dcs.push(pair);
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
        let pair = ClusterShared::dc_pair(a, b);
        let had = self.shared.partitioned_dcs.len();
        self.shared.partitioned_dcs.retain(|&p| p != pair);
        if self.shared.partitioned_dcs.len() != had {
            self.resume_sweeps();
        }
    }

    /// Whether a message between two datacenters would currently be dropped.
    pub fn dcs_partitioned(&self, a: DcId, b: DcId) -> bool {
        self.shared
            .partitioned_dcs
            .contains(&ClusterShared::dc_pair(a, b))
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
        self.shared.link_degradation[class_index(class)] = factor;
        self.shared.degradation_active = self.shared.link_degradation.iter().any(|&f| f != 1.0);
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
        self.shared.node_slow[node.0 as usize] = factor;
        self.shared.slow_active = self.shared.node_slow.iter().any(|&f| f != 1.0);
    }

    /// Restore a gray-failed node to its healthy speed.
    pub fn restore_node(&mut self, node: NodeId) {
        self.slow_node(node, 1.0);
    }

    /// Current gray-failure slowdown factor of a node (1.0 = healthy).
    pub fn node_slow_factor(&self, node: NodeId) -> f64 {
        self.shared.node_slow[node.0 as usize]
    }

    /// Correlated whole-datacenter outage: transiently take down every node
    /// of `dc` (the ring keeps their tokens — this is a power/connectivity
    /// event, not decommissioning). Idempotent per node; pair with
    /// [`Cluster::dc_up`].
    pub fn dc_down(&mut self, dc: DcId) {
        for i in 0..self.shared.node_count {
            if self.shared.node_dc[i] == dc {
                self.set_node_down(NodeId(i as u32));
            }
        }
    }

    /// End a whole-datacenter outage: bring every non-crashed node of `dc`
    /// back up (nodes crashed individually stay crashed).
    pub fn dc_up(&mut self, dc: DcId) {
        for i in 0..self.shared.node_count {
            if self.shared.node_dc[i] == dc && !self.shared.crashed[i] {
                self.set_node_up(NodeId(i as u32));
            }
        }
    }

    /// Bulk-load records before the measured run (no events, no I/O
    /// accounting): every replica of each key receives the key's baseline
    /// version.
    pub fn load_records(&mut self, records: impl Iterator<Item = (u64, u32)>) {
        let serial = self.serial();
        let mut replicas = std::mem::take(&mut self.home_scratch);
        for (key, size) in records {
            let key = Key(key);
            // Serial: the pre-sharding global version counter. Parallel:
            // every preload shares the floor `Version(1)` — last-writer-wins
            // only compares versions of the *same* key, each key is preloaded
            // once, and every runtime version is timestamp-packed (≥ 2^24),
            // so the baseline always loses to the first real write.
            let version = if serial {
                self.shard_states[0].alloc_version_serial()
            } else {
                Version(1)
            };
            self.shared.ring.replicas_into(key, &mut replicas);
            for &node in &replicas {
                let dest = self.shared.shard_of(node);
                self.shard_states[dest].stores[node.0 as usize].preload(key, version, size);
            }
            self.ctrl.oracle.preload(key, version);
        }
        self.home_scratch = replicas;
    }

    /// Submit a read arriving at time `at` using the default read level.
    pub fn submit_read_at(&mut self, key: u64, at: SimTime) -> OpId {
        self.submit(OpKind::Read, key, 0, 1, None, at)
    }

    /// Submit a read with an explicit consistency level.
    pub fn submit_read_with(&mut self, key: u64, level: ConsistencyLevel, at: SimTime) -> OpId {
        self.submit(OpKind::Read, key, 0, 1, Some(level), at)
    }

    /// Submit a range scan of `scan_len` consecutive records starting at
    /// `key` (the YCSB-E operation), at the default read level. Every
    /// contacted replica reads the whole range through its dense store —
    /// `scan_len` storage reads each — and the data replica's response
    /// carries the payload bytes of the records it holds, so scans are
    /// metered faithfully in both storage I/O and network traffic.
    /// Reconciliation and the staleness classification key off the range's
    /// anchor record. Coverage depends on the configured [`Partitioner`]:
    /// hash partitioning scatters consecutive record ids across the ring
    /// (as with Cassandra's random partitioner), so a replica returns the
    /// subset of the range it owns; under the ordered partitioner the scan
    /// is split at ownership-slice boundaries and gathered from each
    /// segment's owners, so the data responses together cover the full
    /// contiguous range ([`CompletedOp::records_returned`]).
    ///
    /// # Panics
    /// Under the ordered partitioner, panics if the range would span more
    /// than 2^16 ownership slices (`scan_len` > 65535 × 4096 — far past any
    /// YCSB scan bound).
    pub fn submit_scan_at(&mut self, key: u64, scan_len: u32, at: SimTime) -> OpId {
        self.submit(OpKind::Read, key, 0, scan_len.max(1), None, at)
    }

    /// Submit a range scan with an explicit consistency level (see
    /// [`Cluster::submit_scan_at`]).
    pub fn submit_scan_with(
        &mut self,
        key: u64,
        scan_len: u32,
        level: ConsistencyLevel,
        at: SimTime,
    ) -> OpId {
        self.submit(OpKind::Read, key, 0, scan_len.max(1), Some(level), at)
    }

    /// Submit a write of `size` bytes arriving at time `at` using the default
    /// write level.
    pub fn submit_write_at(&mut self, key: u64, size: u32, at: SimTime) -> OpId {
        self.submit(OpKind::Write, key, size, 1, None, at)
    }

    /// Submit a write with an explicit consistency level.
    pub fn submit_write_with(
        &mut self,
        key: u64,
        size: u32,
        level: ConsistencyLevel,
        at: SimTime,
    ) -> OpId {
        self.submit(OpKind::Write, key, size, 1, Some(level), at)
    }

    /// Reject scans the engine cannot represent: segment ids are 16-bit, so
    /// an ordered-partitioner range may span at most 2^16 ownership slices,
    /// and a hash-partitioned scan travels as a *single* segment whose
    /// record count rides the task's 16-bit `len` field. Checked at
    /// submission (fail fast, partitioner-dependent contract documented on
    /// [`Cluster::submit_scan_at`]) rather than panicking mid-simulation.
    #[inline]
    fn assert_scan_segmentable(&self, scan_len: u32) {
        const MAX_ORDERED_SCAN: u64 = (u16::MAX as u64) << ORDERED_SLICE_BITS;
        if self.shared.config.partitioner == Partitioner::Ordered {
            assert!(
                scan_len as u64 <= MAX_ORDERED_SCAN,
                "ordered-partitioner scans span at most 2^16 ownership slices \
                 (scan_len {scan_len} > {MAX_ORDERED_SCAN})"
            );
        } else {
            assert!(
                scan_len <= u16::MAX as u32,
                "hash-partitioned scans read at most 2^16 records in one segment \
                 (scan_len {scan_len} > {})",
                u16::MAX
            );
        }
    }

    fn submit(
        &mut self,
        kind: OpKind,
        key: u64,
        size: u32,
        scan_len: u32,
        level: Option<ConsistencyLevel>,
        at: SimTime,
    ) -> OpId {
        // The arrival scheduled here reads the key's oracle slot.
        self.ctrl.oracle.prefetch(Key(key));
        let (lane, op_id) = self.admit(kind, key, size, scan_len, level);
        lane.schedule_at(at, Event::ClientArrive { op_id });
        op_id
    }

    /// Admit one submission: check it, route it to its home shard and park
    /// it there as a pending op; the caller schedules the arrival on the
    /// returned home lane. With one shard the coordinator is drawn at
    /// arrival, from the one stream. Otherwise it is drawn here from the
    /// control stream — admission is a serial point, so the draw order is a
    /// pure function of the driver's call sequence — and the attempt homes
    /// on the coordinator's shard: every message it exchanges then travels
    /// a real coordinator↔replica link, so a cross-shard delivery is exactly
    /// a delivery across the shard cut and can never undershoot the
    /// lookahead bound.
    fn admit(
        &mut self,
        kind: OpKind,
        key: u64,
        size: u32,
        scan_len: u32,
        level: Option<ConsistencyLevel>,
    ) -> (&mut EventQueue<Event>, OpId) {
        self.assert_scan_segmentable(scan_len);
        let coordinator = (!self.serial())
            .then(|| draw_coordinator(&self.shared, &mut self.control_rng, &mut self.home_scratch));
        let home = coordinator.map_or(0, |c| self.shared.shard_of(c));
        let s = &mut self.shard_states[home];
        let op_id = s.ops.insert(OpState::Pending(PendingOp {
            sub: Submission {
                kind,
                key: Key(key),
                size,
                scan_len,
                level,
            },
            coordinator,
            retry: None,
        }));
        (&mut s.lane, op_id)
    }

    /// Bulk-submit a pre-sorted open-loop arrival stream.
    ///
    /// Open-loop workloads know their whole arrival timeline up front (the
    /// schedule comes from a sorted arrival-time iterator, e.g.
    /// `CoreWorkload::timed_ops`). Instead of paying one heap push per
    /// operation, this routes every `ClientArrive` through the event queue's
    /// O(1) bulk FIFO lane — the heap then only carries the simulation's
    /// *reactive* events (replica messages, acks), exactly like the timeout
    /// lane keeps per-op timeouts out of it.
    ///
    /// Delivery is byte-identical to calling [`Cluster::submit_read_at`] /
    /// [`Cluster::submit_write_at`] in the same order: both paths draw
    /// sequence numbers from the same counter, so every event fires at the
    /// same virtual instant in the same relative order.
    ///
    /// Returns the number of operations submitted.
    ///
    /// # Panics
    /// Panics if arrival times are not non-decreasing (the sorted-stream
    /// contract is asserted, never silently repaired). The contract is
    /// global: each shard lane would only assert its own subsequence, so
    /// the cluster checks the whole stream before routing.
    pub fn submit_batch(&mut self, ops: impl IntoIterator<Item = BatchOp>) -> usize {
        let mut submitted = 0usize;
        for op in ops {
            assert!(
                op.at >= self.bulk_tail,
                "arrival at {}us precedes the batch tail ({}us); \
                 bulk loads require a sorted arrival stream",
                op.at.as_micros(),
                self.bulk_tail.as_micros()
            );
            self.bulk_tail = op.at;
            let (lane, op_id) = self.admit(op.kind, op.key, op.size, op.scan_len.max(1), op.level);
            lane.bulk_push_sorted(op.at, Event::ClientArrive { op_id });
            submitted += 1;
        }
        submitted
    }

    /// Schedule a tick: [`Cluster::advance`] will return
    /// [`ClusterOutput::Tick`] when the simulation reaches `at`.
    pub fn schedule_tick(&mut self, at: SimTime, id: u64) {
        // Ticks are external control events with no home node; they ride
        // the control plane's lane.
        self.ctrl_sink().lane.schedule_at(at, Event::Tick { id });
    }

    /// Process events until something reportable happens (an operation
    /// completes or a tick fires). Returns `None` when no events remain.
    pub fn advance(&mut self) -> Option<ClusterOutput> {
        self.advance_inner(None)
    }

    /// Like [`Cluster::advance`], but only processes events firing at or
    /// before `deadline`; returns `None` once the next pending event (if
    /// any) lies beyond it. Lets open-loop drivers interleave windowed
    /// [`Cluster::submit_batch`] loads with draining, without the clock
    /// running ahead of the next window's arrivals.
    pub fn advance_before(&mut self, deadline: SimTime) -> Option<ClusterOutput> {
        self.advance_inner(Some(deadline))
    }

    fn advance_inner(&mut self, deadline: Option<SimTime>) -> Option<ClusterOutput> {
        loop {
            if let Some(out) = self.outputs.pop_front() {
                return Some(out);
            }
            let stepped = if self.serial() {
                self.step_serial(deadline)
            } else {
                self.step_window(deadline)
            };
            if !stepped {
                return None;
            }
        }
    }

    /// Advance the one-shard engine by one event: one lane, one RNG stream,
    /// every handler inline and every event a serial point — no windows,
    /// nothing staged. Returns `false` when nothing is left at or before
    /// `deadline`.
    fn step_serial(&mut self, deadline: Option<SimTime>) -> bool {
        let lane = &mut self.shard_states[0].lane;
        let Some((now, event)) = lane.pop_before(deadline.unwrap_or(SimTime::MAX)) else {
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
            // produced them.
            self.outputs.extend(self.shard_states[0].outputs.drain(..));
        }
        true
    }

    /// Run `event` if it belongs to the control plane; returns whether it
    /// did (a client or replica event is left to its shard's handlers).
    #[inline]
    fn dispatch_ctrl(&mut self, now: SimTime, event: &Event) -> bool {
        match *event {
            Event::Tick { id } => self.outputs.push_back(ClusterOutput::Tick { id, at: now }),
            Event::HintReplay { node } => self.on_hint_replay(now, node),
            Event::AntiEntropy => self.on_anti_entropy(now),
            Event::RepairSync { node } => self.on_repair_sync(now, node),
            _ => return false,
        }
        true
    }

    /// Drain every event up to `deadline` (inclusive), returning the
    /// completed operations. Ticks are discarded.
    pub fn run_until(&mut self, deadline: SimTime) -> Vec<CompletedOp> {
        let mut done = Vec::new();
        while let Some(out) = self.advance_before(deadline) {
            if let ClusterOutput::Completed(op) = out {
                done.push(op);
            }
        }
        done
    }

    /// Drain the simulation completely (bounded by `max_events`), returning
    /// every completed operation. Ticks are discarded.
    pub fn run_to_completion(&mut self, max_events: u64) -> Vec<CompletedOp> {
        let mut done = Vec::new();
        let mut events = 0u64;
        while events < max_events {
            match self.advance() {
                Some(ClusterOutput::Completed(op)) => done.push(op),
                Some(ClusterOutput::Tick { .. }) => {}
                None => break,
            }
            events += 1;
        }
        done
    }

    // ------------------------------------------------------------------
    // Parallel window machinery
    // ------------------------------------------------------------------

    /// Advance the parallel engine by one step: either run one due control
    /// event at a barrier edge, or execute one lookahead window (parallel
    /// shard batches, then the serial close). Returns `false` when nothing
    /// is left or the next event lies beyond `deadline`.
    fn step_window(&mut self, deadline: Option<SimTime>) -> bool {
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
        if deadline.is_some_and(|d| floor > d) {
            return false;
        }
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
            if now > self.clock {
                self.clock = now;
            }
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
        // next control event's instant and never crosses the caller's
        // deadline; a zero bound (cross-shard link with a zero delay
        // infimum) degrades to a minimal 1 µs window.
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
        if let Some(d) = deadline {
            end_key = end_key.min(pack(d + SimDuration::from_micros(1), 0));
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
            ctx.s.window_popped = popped;
        });
        self.close_window(boundary);
        true
    }

    /// The serial barrier at the end of every window, in fixed shard order
    /// throughout: advance the clock and the synchronization counters,
    /// deliver every shard's data-plane outbox arenas into the destination
    /// lanes (the next window's bound is computed from those lanes'
    /// floors), record the window's acks in the oracle, apply its staged
    /// control-plane effects, classify its completed reads — against an ack
    /// history that is complete up to the boundary, because every ack
    /// before a read's issue instant closed in this window or an earlier
    /// one — and publish its outputs sorted by time.
    fn close_window(&mut self, boundary: SimTime) {
        for s in &self.shard_states {
            let t = s.lane.now();
            if t > self.clock {
                self.clock = t;
            }
        }
        self.sync.windows += 1;
        let batches = self
            .shard_states
            .iter()
            .filter(|s| s.window_popped > 0)
            .count();
        if batches >= 2 {
            self.sync.parallel_batches += 1;
        }
        let longest = self
            .shard_states
            .iter()
            .map(|s| s.window_popped)
            .max()
            .unwrap_or(0);
        if longest > self.sync.max_batch_len {
            self.sync.max_batch_len = longest;
        }
        let nshards = self.shard_states.len();
        for i in 0..nshards {
            self.sync.staged += self.shard_states[i].window_staged;
            self.sync.violations += self.shard_states[i].window_violations;
            self.shard_states[i].window_staged = 0;
            self.shard_states[i].window_violations = 0;
            // Deliver this sender's arenas in destination order, one batch
            // per destination shard; allocations are handed back for the
            // next window. Staged times were already clamped to the window
            // boundary at staging time, so delivery is pure insertion.
            for dest in 0..nshards {
                if dest == i {
                    debug_assert!(self.shard_states[i].outbox_dest[dest].is_empty());
                    continue;
                }
                let mut msgs = std::mem::take(&mut self.shard_states[i].outbox_dest[dest]);
                for msg in msgs.drain(..) {
                    match msg {
                        OutMsg::Event { at, ev } => {
                            self.shard_states[dest].lane.schedule_at(at, ev);
                        }
                        OutMsg::WriteTask { at, node, payload } => {
                            self.shard_states[dest].deliver_write(at, node, payload);
                        }
                    }
                }
                self.shard_states[i].outbox_dest[dest] = msgs;
            }
        }
        self.last_boundary = boundary;
        // Every ack goes in before any read is classified: a read may have
        // been issued after an ack another shard produced in this window.
        // Control-plane effects never consult the oracle.
        let published = self.outputs.len();
        for i in 0..nshards {
            let s = &mut self.shard_states[i];
            for &(key, ..) in &s.outbox_acks {
                self.ctrl.oracle.prefetch(key);
            }
            for (key, version, at) in s.outbox_acks.drain(..) {
                self.ctrl.oracle.record_ack(key, version, at);
            }
            self.outputs.extend(s.outputs.drain(..));
            self.propagation_samples.append(&mut s.propagation);
            let mut staged = std::mem::take(&mut s.outbox_ctrl);
            for entry in staged.drain(..) {
                self.apply_ctrl_staged(entry, boundary);
            }
            // Hand the (empty) allocation back for the next window.
            self.shard_states[i].outbox_ctrl = staged;
        }
        for s in &mut self.shard_states {
            for (op, _) in &s.outbox_dones {
                self.ctrl.oracle.prefetch(op.key);
            }
            for (mut op, issue_at) in s.outbox_dones.drain(..) {
                let class =
                    self.ctrl
                        .oracle
                        .classify_read_at(op.key, issue_at, op.returned_version);
                op.stale = class.stale;
                op.staleness_depth = class.depth;
                s.metrics
                    .record_completion(OpKind::Read, op.latency(), class.stale);
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

    /// Apply one staged control-plane effect at the close of the window
    /// ending at `boundary` (see [`CtrlStaged`]).
    fn apply_ctrl_staged(&mut self, staged: CtrlStaged, boundary: SimTime) {
        match staged {
            CtrlStaged::Abandon { op_id } => {
                let home = (op_id.0 as u32 % self.shared.nshards) as usize;
                abandon_in(&mut self.shard_states[home], op_id);
            }
            CtrlStaged::Hint { to, hint } => {
                let now = self.clock;
                let k = self.ctrl_sink();
                enqueue_hint(k.shared, k.ctrl, k.lane, now, to, hint);
            }
            CtrlStaged::Resubmit {
                sub,
                retry,
                at,
                backoff,
            } => {
                // Fresh attempt routing at a serial point: draw a new
                // coordinator among the currently-up nodes, home the
                // attempt on its shard and restart it at the boundary (the
                // next window's opening edge — a deliberate defer, not a
                // lookahead violation). With backoff, the restart instead
                // waits out the exponential delay measured from the staging
                // time, floored at the boundary; the jitter draw comes from
                // the control stream, the same stream the coordinator draw
                // uses, so the close stays a pure function of (seed, shards).
                let coordinator =
                    draw_coordinator(&self.shared, &mut self.control_rng, &mut self.home_scratch);
                let when = if backoff {
                    let delay = backoff_delay(
                        self.shared.config.retry_on_timeout,
                        retry.retries_left,
                        &mut self.control_rng,
                    );
                    (at + delay).max(boundary)
                } else {
                    boundary
                };
                let s = &mut self.shard_states[self.shared.shard_of(coordinator)];
                let op_id = s.ops.insert(OpState::Pending(PendingOp {
                    sub,
                    coordinator: Some(coordinator),
                    retry: Some(retry),
                }));
                s.lane.schedule_timeout(when, Event::ClientArrive { op_id });
            }
        }
    }

    // ------------------------------------------------------------------
    // Control-plane handlers (hint replay, anti-entropy, recovery sync)
    //
    // These run at serial points only, because they touch cluster-wide
    // state (hint queues, sweep cursor, every node's store). Their meters
    // go to the control plane's sink; their timers and delay draws go
    // through `ctrl_sink`.
    // ------------------------------------------------------------------

    /// Send one background repair write `from → to` (a hint replay or a
    /// streamed record): metered as repair traffic with a sampled link
    /// delay, then scheduled straight into the destination shard's lane —
    /// this is a serial point, so nothing needs staging. Sweeps and syncs
    /// only pair nodes whose link is up, so the write that a partition can
    /// eat here is a hint replay.
    fn send_repair_write(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        key: Key,
        version: Version,
        size: u32,
    ) {
        let k = self.ctrl_sink();
        let delay = account_repair_message(k.shared, k.rng, &mut k.ctrl.metrics, from, to, size);
        if !self.shared.link_up(from, to) {
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
                key,
                version,
                size,
                repair: true,
                coordinator: pack_node(from),
            },
        );
    }

    /// Start (or restart) the paced hint replay chain to `node` after it
    /// came back up. No-op when hints are disabled, the queue is empty, or
    /// a chain is already scheduled.
    fn start_hint_replay(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        if !self.shared.config.repair.mode.hints_enabled()
            || self.ctrl.hints[idx].is_empty()
            || self.ctrl.hint_replay_active[idx]
        {
            return;
        }
        self.ctrl.hint_replay_active[idx] = true;
        let at = self.clock + RepairConfig::HINT_REPLAY_INTERVAL;
        self.ctrl_sink()
            .lane
            .schedule_timeout(at, Event::HintReplay { node });
    }

    /// Replay one queued hint to `node` as a background repair write and
    /// chain the next replay one interval later.
    fn on_hint_replay(&mut self, now: SimTime, node: NodeId) {
        let idx = node.0 as usize;
        if self.shared.down[idx] {
            // The node flapped down again mid-replay: park the chain; the
            // next set_node_up restarts it with the remaining hints.
            self.ctrl.hint_replay_active[idx] = false;
            return;
        }
        let Some(hint) = self.ctrl.hints[idx].pop_front() else {
            self.ctrl.hint_replay_active[idx] = false;
            return;
        };
        self.ctrl.metrics.hints_replayed += 1;
        self.send_repair_write(now, hint.from, node, hint.key, hint.version, hint.size);
        if self.ctrl.hints[idx].is_empty() {
            self.ctrl.hint_replay_active[idx] = false;
        } else {
            self.ctrl_sink().lane.schedule_timeout(
                now + RepairConfig::HINT_REPLAY_INTERVAL,
                Event::HintReplay { node },
            );
        }
    }

    /// (Re)start the anti-entropy sweep cycle (see [`resume_sweeps_parts`]).
    fn resume_sweeps(&mut self) {
        let now = self.clock;
        let k = self.ctrl_sink();
        resume_sweeps_parts(k.shared, k.ctrl, k.lane, now);
    }

    /// One anti-entropy step: compare the next node pair's page summaries,
    /// stream divergent pages both ways, and chain the next step unless a
    /// full round went by without streaming anything.
    fn on_anti_entropy(&mut self, now: SimTime) {
        if !self.shared.config.repair.mode.anti_entropy_enabled() || self.shared.node_count < 2 {
            self.ctrl.sweep_active = false;
            return;
        }
        let n = self.shared.node_count as u64;
        let pairs = n * (n - 1) / 2;
        let (a, b) = unrank_pair(self.ctrl.sweep_cursor % pairs, n);
        self.ctrl.sweep_cursor += 1;
        let (a, b) = (NodeId(a as u32), NodeId(b as u32));
        // Pairs with a down endpoint or a partitioned link are skipped (and
        // count as idle); the fault transition that restores them resumes
        // the cycle.
        if !self.shared.down[a.0 as usize]
            && !self.shared.down[b.0 as usize]
            && self.shared.link_up(a, b)
        {
            let streamed = self.sweep_pair(now, a, b);
            if streamed > 0 {
                self.ctrl.sweep_streamed = true;
            }
        }
        if self.ctrl.sweep_cursor.is_multiple_of(pairs) {
            // Round boundary: either work happened (keep going) or the
            // round was silent (count it toward parking).
            if self.ctrl.sweep_streamed {
                self.ctrl.sweep_idle_rounds = 0;
            } else {
                self.ctrl.sweep_idle_rounds += 1;
            }
            self.ctrl.sweep_streamed = false;
        }
        if self.ctrl.sweep_idle_rounds > 0 {
            self.ctrl.sweep_active = false;
            return;
        }
        self.ctrl_sink().lane.schedule_timeout(
            now + RepairConfig::ANTI_ENTROPY_INTERVAL,
            Event::AntiEntropy,
        );
    }

    /// Compare every page summary of a node pair (metered as network bytes
    /// both ways) and stream divergent pages in both directions. Returns the
    /// number of records streamed.
    fn sweep_pair(&mut self, now: SimTime, a: NodeId, b: NodeId) -> u64 {
        let pages = self
            .store(a)
            .summary_pages()
            .max(self.store(b).summary_pages());
        let mut streamed = 0u64;
        for page in 0..pages {
            self.ctrl.metrics.repair_pages_compared += 1;
            // One summary message each way per compared page.
            account_summary(&self.shared, &mut self.ctrl.metrics, a, b);
            account_summary(&self.shared, &mut self.ctrl.metrics, b, a);
            if self.store(a).page_digest(page) != self.store(b).page_digest(page) {
                streamed += self.stream_page_diff(now, a, b, page);
                streamed += self.stream_page_diff(now, b, a, page);
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
        self.ensure_owned(page);
        let mut cursor = 0;
        let mut streamed = 0u64;
        while let Some((next, key, version, size)) = self.next_divergent(from, to, page, cursor) {
            cursor = next;
            self.send_repair_write(now, from, to, key, version, size);
            streamed += 1;
        }
        self.ctrl.metrics.repair_records_streamed += streamed;
        streamed
    }

    /// Index `page`'s ownership if this ring epoch has not diffed it yet.
    fn ensure_owned(&mut self, page: usize) {
        let ctrl = &mut self.ctrl;
        if page >= ctrl.owned.len() {
            ctrl.owned.resize_with(page + 1, || None);
        }
        if ctrl.owned[page].is_none() {
            ctrl.owned[page] = Some(OwnedPage::build(
                page,
                &self.shared.ring,
                self.shared.node_count,
                &mut ctrl.repair_member_scratch,
            ));
        }
    }

    /// The first record at or after position `cursor` of `to`'s ownership
    /// list for `page` that `from` holds strictly newer than `to`, with the
    /// position to resume from. Membership gate: only slots `to` currently
    /// replicates are visited, so divergent data never moves to a node that
    /// happens to share the page but no longer owns the record. Both
    /// stores' page slices are read in place; scheduling a stream mutates
    /// neither, so resuming mid-list sees the same pages.
    fn next_divergent(
        &self,
        from: NodeId,
        to: NodeId,
        page: usize,
        cursor: usize,
    ) -> Option<(usize, Key, Version, u32)> {
        let src = self.store(from).page_slots(page)?;
        let dst = self.store(to).page_slots(page);
        let owned = self.ctrl.owned[page]
            .as_ref()
            .expect("a page's ownership is indexed before it is diffed")
            .of(to);
        let base = (page as u64) << PAGE_BITS;
        (cursor..owned.len()).find_map(|i| {
            let off = owned[i] as usize;
            let held = dst.map_or(Version::NONE, |slots| slots[off].version);
            let record = &src[off];
            (record.version > held)
                .then(|| (i + 1, Key(base + off as u64), record.version, record.size))
        })
    }

    /// The records a repair diff `from → to` of key page `page` streams, in
    /// stream order (tests and diagnostics).
    pub fn repair_page_diff(
        &mut self,
        from: NodeId,
        to: NodeId,
        page: usize,
    ) -> Vec<(Key, Version, u32)> {
        self.ensure_owned(page);
        let mut cursor = 0;
        std::iter::from_fn(|| {
            let (next, key, version, size) = self.next_divergent(from, to, page, cursor)?;
            cursor = next;
            Some((key, version, size))
        })
        .collect()
    }

    /// Recovery migration: synchronize `node` from every up peer — page
    /// summaries compared (metered) and divergent pages streamed in. Runs
    /// when a node rejoins the ring (pull the writes it missed) and on every
    /// survivor after a crash (pull the acquired ranges). Residual
    /// divergence — e.g. from peers that were themselves partitioned — is
    /// left to the sweep cycle.
    fn on_repair_sync(&mut self, now: SimTime, node: NodeId) {
        if !self.shared.config.repair.mode.anti_entropy_enabled()
            || self.shared.down[node.0 as usize]
        {
            return;
        }
        let mut streamed = 0u64;
        for peer in 0..self.shared.node_count {
            let peer_id = NodeId(peer as u32);
            if peer_id == node || self.shared.down[peer] || !self.shared.link_up(peer_id, node) {
                continue;
            }
            let pages = self
                .store(peer_id)
                .summary_pages()
                .max(self.store(node).summary_pages());
            for page in 0..pages {
                self.ctrl.metrics.repair_pages_compared += 1;
                account_summary(&self.shared, &mut self.ctrl.metrics, peer_id, node);
                if self.store(peer_id).page_digest(page) != self.store(node).page_digest(page) {
                    streamed += self.stream_page_diff(now, peer_id, node, page);
                }
            }
        }
        if streamed > 0 {
            self.ctrl.sweep_streamed = true;
        }
    }
}

/// One shard's view of the cluster during event execution: the immutable
/// shared plane, the shard's own mutable state, and — with one shard only —
/// the control plane. Handlers can touch nothing else, which is what makes
/// the parallel windows data-race-free *and* schedule-independent: the
/// borrow checker proves a handler's writes stay inside its own
/// [`ShardState`], and everything cross-shard goes through the outbox.
///
/// `ctrl` doubles as the universe switch: `Some` on the one-shard engine,
/// where every event is a serial point and control-plane state is reachable
/// inline, `None` inside a window, where its effects are staged for the
/// close. The module docs' table lists the seven handlers that look at it.
struct ShardCtx<'a> {
    shared: &'a ClusterShared,
    s: &'a mut ShardState,
    ctrl: Option<&'a mut ControlState>,
    /// End of the window being executed: staged cross-shard times are
    /// clamped here *at staging time* (a clamp means the lookahead bound
    /// was optimistic for the traffic observed — counted as a violation).
    /// Unused with one shard (nothing is ever staged).
    boundary: SimTime,
}

impl ShardCtx<'_> {
    fn handle(&mut self, now: SimTime, event: Event) {
        match event {
            Event::ClientArrive { op_id } => self.on_client_arrive(now, op_id),
            Event::ReplicaArrive { node, task } => self.on_replica_arrive(now, node, task),
            Event::ReplicaServiceDone { node, task } => self.on_replica_done(now, node, task),
            Event::CoordinatorWriteAck {
                op_id,
                from,
                applied_at,
            } => self.on_write_ack(now, op_id, from, applied_at),
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
            // Ticks normally ride the control lane; tolerate one here for
            // totality (it joins the output stream like a completion).
            Event::Tick { id } => self.s.outputs.push(ClusterOutput::Tick { id, at: now }),
            Event::HintReplay { .. } | Event::AntiEntropy | Event::RepairSync { .. } => {
                unreachable!("repair-plane events run on the control lane")
            }
        }
    }

    /// The home shard of an operation, recovered from the id alone (slab
    /// slots are strided by shard).
    #[inline]
    fn op_home(&self, op_id: OpId) -> u32 {
        op_id.0 as u32 % self.shared.nshards
    }

    /// Account a message of `bytes` payload travelling `from → to` against
    /// this shard's RNG and meters.
    fn account_message(&mut self, from: NodeId, to: NodeId, bytes: u32) -> SimDuration {
        account_message(
            self.shared,
            &mut self.s.rng,
            &mut self.s.metrics,
            from,
            to,
            bytes,
        )
    }

    /// Clamp a staged delivery time into the next window and count the
    /// staging. A violation means a cross-shard effect would land inside
    /// the window that produced it — the lookahead bound was too optimistic
    /// (degradation shrank a link mid-window, or a zero-infimum
    /// distribution sampled below the bound). The effect is deferred to the
    /// window boundary instead, deterministic at any thread count, and
    /// counted so runs can audit how conservative the bound really was.
    #[inline]
    fn stage_time(&mut self, at: SimTime) -> SimTime {
        self.s.window_staged += 1;
        if at < self.boundary {
            self.s.window_violations += 1;
            self.boundary
        } else {
            at
        }
    }

    /// Schedule an event on `dest`'s lane: directly when it is this shard's
    /// own lane, staged into the per-destination outbox arena otherwise.
    fn send_event(&mut self, dest: usize, at: SimTime, ev: Event) {
        if dest as u32 == self.s.shard {
            self.s.lane.schedule_at(at, ev);
        } else {
            let at = self.stage_time(at);
            self.s.outbox_dest[dest].push(OutMsg::Event { at, ev });
        }
    }

    /// Stop expecting an ack for `op_id` (dead replica or partition-dropped
    /// message): inline when the op lives here, staged otherwise.
    fn abandon(&mut self, op_id: OpId) {
        if self.op_home(op_id) == self.s.shard {
            abandon_in(self.s, op_id);
        } else {
            self.s.window_staged += 1;
            self.s.outbox_ctrl.push(CtrlStaged::Abandon { op_id });
        }
    }

    /// Send the interned write `payload` to `replica`, arriving at `at`: one
    /// more reference to the handle on this shard's lane, or the payload by
    /// value through the outbox (handles never cross shards).
    fn send_write(&mut self, at: SimTime, replica: NodeId, payload: PayloadId) {
        let dest = self.shared.shard_of(replica);
        if dest as u32 == self.s.shard {
            self.s.retain_payload(payload);
            self.s.lane.schedule_at(
                at,
                Event::ReplicaArrive {
                    node: replica,
                    task: ReplicaTask::Write { payload },
                },
            );
        } else {
            let at = self.stage_time(at);
            self.s.outbox_dest[dest].push(OutMsg::WriteTask {
                at,
                node: replica,
                payload: self.s.write_payloads[payload as usize].payload,
            });
        }
    }

    /// Queue a hinted-handoff mutation for the down replica `to`. Hint
    /// queues are control-plane state: reachable inline on the one-shard
    /// engine, staged to the close from a window.
    fn queue_hint(&mut self, now: SimTime, to: NodeId, hint: Hint) {
        match self.ctrl.as_deref_mut() {
            Some(ctrl) => enqueue_hint(self.shared, ctrl, &mut self.s.lane, now, to, hint),
            None => {
                self.s.window_staged += 1;
                self.s.outbox_ctrl.push(CtrlStaged::Hint { to, hint });
            }
        }
    }

    fn on_client_arrive(&mut self, now: SimTime, op_id: OpId) {
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
            Some(c) if self.shared.down[c.0 as usize] => {
                // The pre-routed coordinator went down between routing and
                // arrival: re-route through the close (fresh draw among the
                // up nodes). No retry budget is consumed — the client never
                // reached a coordinator — and no backoff applies (this is
                // re-routing, not a timed-out attempt).
                self.s.ops.remove(op_id);
                self.s.window_staged += 1;
                self.s.outbox_ctrl.push(CtrlStaged::Resubmit {
                    sub: p.sub,
                    retry,
                    at: now,
                    backoff: false,
                });
                return;
            }
            Some(c) => c,
            // One shard: nothing was routed at admission; draw now.
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
        let level = sub.level.unwrap_or(self.shared.write_level);
        let required_acks = self.shared.config.required_acks(level);
        let version = match self.ctrl.as_deref() {
            Some(ctrl) => {
                // The satisfying ack records into this slot inline.
                ctrl.oracle.prefetch(sub.key);
                self.s.alloc_version_serial()
            }
            None => self.s.alloc_version_at(now),
        };
        let mut replicas = std::mem::take(&mut self.s.replica_scratch);
        self.shared.ring.replicas_into(sub.key, &mut replicas);
        let mut targeted = 0u32;

        // One interned payload serves the whole local fan-out: the scheduled
        // events each carry a 4-byte handle instead of a full mutation copy.
        let payload = self.s.intern_payload(WritePayload {
            op_id,
            key: sub.key,
            version,
            size: sub.size,
            repair: false,
            coordinator: pack_node(coordinator),
        });
        for &replica in &replicas {
            let delay = self.account_message(coordinator, replica, sub.size);
            if self.shared.down[replica.0 as usize] {
                // The mutation is lost to this replica for now; with hinted
                // handoff the coordinator queues a bounded hint to replay
                // once the node is back up.
                if self.shared.config.repair.mode.hints_enabled() {
                    let hint = Hint {
                        from: coordinator,
                        key: sub.key,
                        version,
                        size: sub.size,
                    };
                    self.queue_hint(now, replica, hint);
                }
                continue;
            }
            if !self.shared.link_up(coordinator, replica) {
                // Lost in transit across a partitioned DC pair.
                self.s.metrics.messages_lost += 1;
                continue;
            }
            targeted += 1;
            self.send_write(now + delay, replica, payload);
        }
        self.s.discard_unreferenced_payload(payload);
        self.s.replica_scratch = replicas;

        self.s.metrics.write_acks_awaited += required_acks as u64;
        if let Some(state) = self.s.ops.get_mut(op_id) {
            *state = OpState::Write(WriteState {
                key: sub.key,
                version,
                issued_at: retry.issued_at,
                required_acks,
                acks: 0,
                applied: 0,
                targeted,
                completed: false,
                level_used: required_acks,
                size: sub.size,
                level: sub.level,
                retries_left: retry.retries_left,
                client_id: retry.client_id,
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
        let level = sub.level.unwrap_or(self.shared.read_level);
        let required = self.shared.config.required_acks(level);
        // One shard: capture the freshness expectation inline. Otherwise
        // the oracle is untouchable inside a window; the window close
        // resolves the expectation retroactively as of `now` (stored in
        // `attempt_at` below).
        let expected_version = match self.ctrl.as_deref() {
            Some(ctrl) => ctrl.oracle.expected_version(sub.key),
            None => Version::NONE,
        };
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
            self.select_read_replicas(now, coordinator, &mut replicas, required as usize);
            for (i, &replica) in replicas.iter().enumerate() {
                let delay = self.account_message(
                    coordinator,
                    replica,
                    self.shared.config.small_message_bytes,
                );
                if self.shared.down[replica.0 as usize] {
                    continue;
                }
                if !self.shared.link_up(coordinator, replica) {
                    self.s.metrics.messages_lost += 1;
                    continue;
                }
                let dest = self.shared.shard_of(replica);
                self.send_event(
                    dest,
                    now + delay,
                    Event::ReplicaArrive {
                        node: replica,
                        task: ReplicaTask::Read {
                            op_id,
                            key: Key(seg_start),
                            data: i == 0,
                            len: seg_len
                                .try_into()
                                .expect("validate() caps scan segments at 2^16 records"),
                            segment,
                            coordinator: pack_node(coordinator),
                        },
                    },
                );
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
                coordinator,
                issued_at: retry.issued_at,
                required,
                scan_len: sub.scan_len,
                seg_pending: segments,
                seg_responses,
                records: 0,
                best_version: Version::NONE,
                best_size: 0,
                min_version: Version(u64::MAX),
                expected_version,
                attempt_at: now,
                contacted,
                level: sub.level,
                retries_left: retry.retries_left,
                client_id: retry.client_id,
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

    /// Fire a hedged read: if the attempt is still pending and has not
    /// hedged, send one speculative **digest** request to the best replica
    /// the read has not contacted yet (digest, so coverage and records are
    /// never double-counted). Ranking is deterministic — health score under
    /// [`ReplicaSelection::Dynamic`], the mean-latency table otherwise —
    /// with node id breaking ties; no RNG is drawn for the choice. The
    /// request's bytes land in `hedge_traffic` (and the billable `traffic`)
    /// via [`account_hedge_message`]. A losing hedge response is reaped by
    /// the slab generation check exactly like any straggler: the winning
    /// response removes the op's slot, so there is no double completion and
    /// no leak.
    fn on_hedge_fire(&mut self, now: SimTime, op_id: OpId) {
        let (coordinator, key, contacted) = match self.s.ops.get(op_id) {
            Some(OpState::Read(r)) if r.hedge.is_none() && r.seg_pending > 0 && r.scan_len <= 1 => {
                (r.coordinator, r.key, r.contacted.clone())
            }
            _ => return,
        };
        let mut replicas = std::mem::take(&mut self.s.replica_scratch);
        self.shared.ring.replicas_into(key, &mut replicas);
        let dynamic = self.shared.selection == ReplicaSelection::Dynamic;
        let row = &self.shared.mean_lat[coordinator.0 as usize * self.shared.node_count..]
            [..self.shared.node_count];
        let mut best: Option<(f64, NodeId)> = None;
        for &replica in &replicas {
            if contacted.iter().any(|&c| c == replica)
                || self.shared.down[replica.0 as usize]
                || !self.shared.link_up(coordinator, replica)
            {
                continue;
            }
            let score = if dynamic {
                self.s.health[replica.0 as usize].score(row[replica.0 as usize])
            } else {
                row[replica.0 as usize]
            };
            let better = match best {
                None => true,
                Some((bs, bn)) => score < bs || (score == bs && replica.0 < bn.0),
            };
            if better {
                best = Some((score, replica));
            }
        }
        self.s.replica_scratch = replicas;
        let Some((_, target)) = best else {
            return; // every replica is contacted, down or unreachable
        };
        self.s.metrics.hedged_requests += 1;
        let delay = account_hedge_message(
            self.shared,
            &mut self.s.rng,
            &mut self.s.metrics,
            coordinator,
            target,
            self.shared.config.small_message_bytes,
        );
        let dest = self.shared.shard_of(target);
        self.send_event(
            dest,
            now + delay,
            Event::ReplicaArrive {
                node: target,
                task: ReplicaTask::Read {
                    op_id,
                    key,
                    data: false,
                    len: 1,
                    segment: 0,
                    coordinator: pack_node(coordinator),
                },
            },
        );
        if let Some(OpState::Read(r)) = self.s.ops.get_mut(op_id) {
            r.hedge = Some(target);
            // The hedge target is a contacted replica from here on: its
            // response counts toward the quorum and read repair covers it.
            r.contacted.push(target);
            self.s.metrics.read_replicas_contacted += 1;
        }
    }

    /// Pick which replicas a read contacts: shuffle (random tie-break), rank
    /// by the precomputed coordinator→replica mean latency, truncate. Works
    /// in place on the caller's buffer — no allocation, no distribution-mean
    /// recomputation per comparison.
    ///
    /// Under [`ReplicaSelection::Dynamic`] the rank key is the
    /// coordinator-side EWMA of observed response latency instead of the
    /// static table (the table seeds nodes that have not answered yet), and
    /// a node whose circuit breaker is open is ranked behind every healthy
    /// candidate. An open breaker whose cooldown has elapsed transitions to
    /// half-open here — the next read that still picks it is the timed
    /// probe: one success closes the breaker, one timeout re-opens it.
    fn select_read_replicas(
        &mut self,
        now: SimTime,
        coordinator: NodeId,
        candidates: &mut Vec<NodeId>,
        count: usize,
    ) {
        let count = count.min(candidates.len());
        match self.shared.selection {
            ReplicaSelection::Random => {
                self.s.rng.shuffle(candidates);
            }
            ReplicaSelection::Closest => {
                // Shuffle first so equal-latency replicas are tie-broken
                // randomly, then order by expected latency from the coordinator.
                self.s.rng.shuffle(candidates);
                let row = &self.shared.mean_lat[coordinator.0 as usize * self.shared.node_count..]
                    [..self.shared.node_count];
                candidates.sort_by(|a, b| {
                    let la = row[a.0 as usize];
                    let lb = row[b.0 as usize];
                    la.partial_cmp(&lb).expect("latencies are finite")
                });
            }
            ReplicaSelection::Dynamic => {
                // Same shuffle-then-rank shape as `Closest` (equal scores
                // tie-break randomly, one RNG draw pattern per selection).
                self.s.rng.shuffle(candidates);
                let s = &mut *self.s;
                for &n in candidates.iter() {
                    let h = &mut s.health[n.0 as usize];
                    if let Breaker::Open { until } = h.breaker {
                        if until <= now {
                            h.breaker = Breaker::HalfOpen;
                        }
                    }
                }
                let row = &self.shared.mean_lat[coordinator.0 as usize * self.shared.node_count..]
                    [..self.shared.node_count];
                let score = |n: NodeId| s.health[n.0 as usize].score(row[n.0 as usize]);
                candidates.sort_by(|a, b| {
                    score(*a)
                        .partial_cmp(&score(*b))
                        .expect("health scores are finite")
                });
            }
        }
        candidates.truncate(count);
    }

    fn on_replica_arrive(&mut self, now: SimTime, node: NodeId, task: ReplicaTask) {
        let idx = node.0 as usize;
        if self.shared.down[idx] {
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
        let p = self.s.release_payload(payload);
        if p.repair {
            return;
        }
        self.abandon(p.op_id);
    }

    fn start_service(&mut self, now: SimTime, node: NodeId, task: ReplicaTask) {
        // `on_replica_done` touches the key's store slot one service time
        // from now: start the miss here (the module docs' "Memory latency").
        let (key, sampler) = match task {
            ReplicaTask::Write { payload } => (
                self.s.write_payloads[payload as usize].payload.key,
                &self.shared.storage_write_sampler,
            ),
            ReplicaTask::Read { key, .. } => (key, &self.shared.storage_read_sampler),
        };
        self.s.stores[node.0 as usize].prefetch(key);
        let mut service = sampler.sample(&mut self.s.rng);
        // Gray failure: a slowed node serves every task `factor`× slower.
        // Applied post-sampling so the RNG stream is untouched — restoring
        // the node replays the exact healthy timeline (same contract as
        // `degrade_link`).
        if self.shared.slow_active {
            let factor = self.shared.node_slow[node.0 as usize];
            if factor != 1.0 {
                service =
                    SimDuration::from_micros((service.as_micros() as f64 * factor).round() as u64);
            }
        }
        self.s
            .lane
            .schedule_at(now + service, Event::ReplicaServiceDone { node, task });
    }

    fn on_replica_done(&mut self, now: SimTime, node: NodeId, task: ReplicaTask) {
        let idx = node.0 as usize;
        // Free the service slot and start the next queued task, if any.
        self.s.nodes[idx].active = self.s.nodes[idx].active.saturating_sub(1);
        if let Some(next) = self.s.nodes[idx].queue.pop_front() {
            self.s.nodes[idx].active += 1;
            self.start_service(now, node, next);
        }
        if self.shared.down[idx] {
            self.drop_dead_task(task);
            return;
        }

        // Serve the task. What goes back to the coordinator is a write ack
        // or a read response; the task carries the coordinator.
        let (op_id, coordinator, bytes, response) = match task {
            ReplicaTask::Write { payload } => {
                // Final consumption of this task's payload reference.
                let p = self.s.release_payload(payload);
                self.s.stores[idx].apply_write(p.key, p.version, p.size, now);
                self.s.metrics.storage_write_ops += 1;
                if p.repair {
                    return; // background repair: no coordinator ack
                }
                let ack = Event::CoordinatorWriteAck {
                    op_id: p.op_id,
                    from: node,
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
                // Point reads probe one slot; range scans stream `len`
                // adjacent slots of the dense store (each probed slot is one
                // metered storage read) and respond with the range's byte
                // weight. Reconciliation keys off the anchor record.
                let (version, size, records) = if len <= 1 {
                    let value = self.s.stores[idx].read(key);
                    self.s.metrics.storage_read_ops += 1;
                    value
                        .map(|v| (v.version, v.size, 1))
                        .unwrap_or((Version::NONE, 0, 0))
                } else {
                    let range = self.s.stores[idx].read_range(key, len);
                    self.s.metrics.storage_read_ops += len as u64;
                    // The byte meter is u32; a range would need a >4 GiB
                    // response to saturate it, which the dense-key contract
                    // (record sizes are u32, scan lengths bounded) rules
                    // out — assert instead of silently clamping traffic.
                    debug_assert!(
                        range.bytes <= u32::MAX as u64,
                        "range response of {} bytes overflows the u32 byte meter",
                        range.bytes
                    );
                    (
                        range.anchor.map(|v| v.version).unwrap_or(Version::NONE),
                        u32::try_from(range.bytes).unwrap_or(u32::MAX),
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
        // An op lives on its coordinator's shard (see `Cluster::admit`). One
        // homed here is looked up first: if it is already freed (it
        // completed, or a timeout retry released the slot) the replica
        // sends nothing and draws nothing. A foreign op's state is
        // unreadable from here, so its response is sent regardless and dies
        // at the coordinator's generation check if the op is gone — drawing
        // unconditionally is both safe and deterministic.
        let is_ack = matches!(task, ReplicaTask::Write { .. });
        let coordinator = NodeId(coordinator as u32);
        let home = self.shared.shard_of(coordinator);
        debug_assert_eq!(home as u32, self.op_home(op_id));
        if home as u32 == self.s.shard {
            let s = &mut *self.s;
            match s.ops.get_mut(op_id) {
                Some(OpState::Write(w)) if is_ack => {
                    if self.ctrl.is_some() {
                        // One shard: every replica's apply is visible here,
                        // so the full-propagation sample is taken at apply
                        // time (at ack time otherwise, see `on_write_ack`).
                        // The ring always yields exactly RF distinct
                        // replicas, so the check needs no ring walk.
                        w.applied += 1;
                        let rf = self.shared.ring.replication_factor();
                        if w.applied == w.targeted && w.targeted == rf {
                            let d = now - w.issued_at;
                            s.metrics.propagation.record(d);
                            s.propagation.push(d);
                        }
                    }
                }
                Some(OpState::Read(_)) if !is_ack => {}
                _ => return,
            }
        }
        // The delay is sampled and the message metered on *this* shard's
        // stream at service time, wherever the op lives, so the window
        // close needs no RNG for response traffic.
        let delay = slow_response(
            self.shared,
            node,
            self.account_message(node, coordinator, bytes),
        );
        if !self.shared.link_up(node, coordinator) {
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

    fn on_write_ack(&mut self, now: SimTime, op_id: OpId, _from: NodeId, applied_at: SimTime) {
        let serial = self.ctrl.is_some();
        let rf = self.shared.ring.replication_factor();
        let s = &mut *self.s;
        let Some(OpState::Write(w)) = s.ops.get_mut(op_id) else {
            return;
        };
        w.acks += 1;
        if !serial {
            // More than one shard: the propagation sample is derived from
            // the acks themselves — the latest reported apply time once
            // every targeted replica (the full RF) has answered. One shard
            // samples at apply time instead (see on_replica_done) and never
            // touches `max_applied_at`.
            if applied_at > w.max_applied_at {
                w.max_applied_at = applied_at;
            }
            if w.acks == w.targeted && w.targeted == rf {
                let d = w.max_applied_at - w.issued_at;
                s.metrics.propagation.record(d);
                s.propagation.push(d);
            }
        }
        if !w.completed && w.acks >= w.required_acks {
            w.completed = true;
            let completed = w.completion(now, OpStatus::Ok);
            // The ack becomes ground truth for later reads: inline with one
            // shard, staged to the close from a window (the central oracle
            // is frozen while windows run) with its true ack time, which
            // retroactive classification queries filter by.
            match self.ctrl.as_deref_mut() {
                Some(ctrl) => ctrl.oracle.record_ack(w.key, w.version, now),
                None => {
                    s.window_staged += 1;
                    s.outbox_acks.push((w.key, w.version, now));
                }
            }
            s.metrics
                .record_completion(OpKind::Write, completed.latency(), false);
            s.outputs.push(ClusterOutput::Completed(completed));
        }
        // Keep the state until every targeted replica acked (for the
        // propagation sample), then drop it.
        if w.completed && w.acks >= w.targeted {
            s.ops.remove(op_id);
        }
    }

    // The argument list mirrors the flat fields of
    // `Event::CoordinatorReadResponse`: bundling them into a struct would
    // re-introduce padding the 32-byte event layout deliberately avoids
    // (the enum tag lives in the flat variant's tail padding).
    #[allow(clippy::too_many_arguments)]
    fn on_read_response(
        &mut self,
        now: SimTime,
        op_id: OpId,
        from: NodeId,
        version: Version,
        size: u32,
        records: u32,
        segment: u16,
    ) {
        // Health feed (Dynamic selection only, so Closest/Random runs touch
        // no health state and stay byte-identical): every response that
        // passes the generation check updates the responder's latency EWMA
        // and closes its breaker — a response is proof the node serves again.
        if self.shared.selection == ReplicaSelection::Dynamic {
            if let Some(OpState::Read(r)) = self.s.ops.get(op_id) {
                // A hedge response is timed from the hedge fire
                // (`attempt_at + hedge_delay`), not the attempt start, so
                // the hedge target is not charged for the wait on the
                // primary replica.
                let base = if r.hedge == Some(from) {
                    r.attempt_at + self.shared.config.resilience.hedge_delay
                } else {
                    r.attempt_at
                };
                // Distance-normalize before averaging: subtract the
                // expected round trip (ms → µs) so the EWMA measures excess
                // (queueing, gray slowness) and observations from near and
                // far coordinators feed one comparable per-node signal.
                let expected = 2.0
                    * self.shared.mean_lat
                        [r.coordinator.0 as usize * self.shared.node_count + from.0 as usize]
                    * 1_000.0;
                let excess = ((now - base).as_micros() as f64 - expected).max(0.0);
                let h = &mut self.s.health[from.0 as usize];
                h.ewma.observe(excess);
                h.failures = 0;
                h.breaker = Breaker::Closed;
            }
        }
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

            let mut completed = r.completion(now, OpStatus::Ok);
            // One shard: classify against (and count in) the central oracle
            // inline. Otherwise the classification needs the serialized ack
            // history, so the completion (classification, metric, client
            // output) finishes at the close — read repair below is
            // oracle-independent and stays in-window.
            match self.ctrl.as_deref_mut() {
                Some(ctrl) => {
                    let class = ctrl.oracle.classify_read(key, r.expected_version, best);
                    completed.stale = class.stale;
                    completed.staleness_depth = class.depth;
                    self.s.metrics.record_completion(
                        OpKind::Read,
                        completed.latency(),
                        class.stale,
                    );
                    self.s.outputs.push(ClusterOutput::Completed(completed));
                }
                None => {
                    self.s.window_staged += 1;
                    self.s.outbox_dones.push((completed, r.attempt_at));
                }
            }

            if needs_repair {
                // Push the freshest version back to the contacted replicas
                // (one interned payload for the whole repair fan-out).
                let payload = self.s.intern_payload(WritePayload {
                    op_id,
                    key,
                    version: best,
                    size: r.best_size,
                    repair: true,
                    // Repair writes ack nobody; carried for layout only.
                    coordinator: pack_node(r.coordinator),
                });
                for &replica in r.contacted.iter() {
                    let delay = self.account_message(r.coordinator, replica, r.best_size);
                    if self.shared.down[replica.0 as usize] {
                        continue;
                    }
                    if !self.shared.link_up(r.coordinator, replica) {
                        self.s.metrics.messages_lost += 1;
                        continue;
                    }
                    self.send_write(now + delay, replica, payload);
                }
                self.s.discard_unreferenced_payload(payload);
            }
        }
    }

    fn on_timeout(&mut self, now: SimTime, op_id: OpId) {
        // Breaker strikes (Dynamic selection only): a read attempt timing
        // out is a failure strike against every replica it contacted —
        // `BREAKER_FAILURES` consecutive strikes open a node's breaker for
        // `BREAKER_COOLDOWN`, steering subsequent reads away until the
        // half-open probe succeeds. A node that does answer has its strike
        // count reset on every response, so only persistently silent
        // replicas accumulate to the threshold. Writes are excluded: a
        // write timeout implicates the consistency level, not a single
        // replica.
        if self.shared.selection == ReplicaSelection::Dynamic {
            let s = &mut *self.s;
            if let Some(OpState::Read(r)) = s.ops.get(op_id) {
                for &n in r.contacted.iter() {
                    let h = &mut s.health[n.0 as usize];
                    h.failures += 1;
                    if h.failures >= ResilienceConfig::BREAKER_FAILURES
                        && matches!(h.breaker, Breaker::Closed | Breaker::HalfOpen)
                    {
                        h.breaker = Breaker::Open {
                            until: now + ResilienceConfig::BREAKER_COOLDOWN,
                        };
                        s.metrics.breaker_opens += 1;
                    }
                }
            }
        }
        // Timeout-driven retries: an attempt with remaining budget is
        // re-issued (fresh coordinator, fresh replica fan-out) instead of
        // completing. `issued_at` is preserved, so the client-visible
        // latency spans every attempt, and each re-issue is accounted in
        // `metrics.retries`.
        let retry = match self.s.ops.get(op_id) {
            Some(OpState::Write(w)) if !w.completed && w.retries_left > 0 => Some((
                Submission {
                    kind: OpKind::Write,
                    key: w.key,
                    size: w.size,
                    scan_len: 1,
                    level: w.level,
                },
                RetryCtx {
                    issued_at: w.issued_at,
                    retries_left: w.retries_left - 1,
                    client_id: w.client_id,
                },
            )),
            Some(OpState::Read(r)) if r.retries_left > 0 => Some((
                Submission {
                    kind: OpKind::Read,
                    key: r.key,
                    size: 0,
                    scan_len: r.scan_len,
                    level: r.level,
                },
                RetryCtx {
                    issued_at: r.issued_at,
                    retries_left: r.retries_left - 1,
                    client_id: r.client_id,
                },
            )),
            _ => None,
        };
        if let Some((sub, retry)) = retry {
            // Orphan the timed-out attempt: its slab slot is freed, so
            // straggler acks and responses miss on the generation check. The
            // retry runs under a fresh internal id but keeps reporting under
            // the id `submit_*` handed out.
            self.s.ops.remove(op_id);
            self.s.metrics.retries += 1;
            let backoff = self.shared.config.resilience.backoff;
            if backoff {
                self.s.metrics.backoff_retries += 1;
            }
            if self.ctrl.is_none() {
                // More than one shard: the fresh coordinator may live on
                // any of them, so the attempt re-routes through the close —
                // drawn from the control stream and re-homed on the
                // coordinator's shard, like a brand-new submission, after
                // the backoff if there is one.
                self.s.window_staged += 1;
                self.s.outbox_ctrl.push(CtrlStaged::Resubmit {
                    sub,
                    retry,
                    at: now,
                    backoff,
                });
                return;
            }
            // One shard: the attempt re-arrives here, and draws its fresh
            // coordinator when it does — now, or after an exponentially
            // growing, jittered delay drawn from the one stream (one draw
            // per backed-off retry, zero when the feature is off).
            let new_id = self.s.ops.insert(OpState::Pending(PendingOp {
                sub,
                coordinator: None,
                retry: Some(retry),
            }));
            if backoff {
                let delay = backoff_delay(
                    self.shared.config.retry_on_timeout,
                    retry.retries_left,
                    &mut self.s.rng,
                );
                self.s
                    .lane
                    .schedule_timeout(now + delay, Event::ClientArrive { op_id: new_id });
            } else {
                self.on_client_arrive(now, new_id);
            }
            return;
        }
        match self.s.ops.get_mut(op_id) {
            Some(OpState::Write(w)) => {
                if !w.completed {
                    w.completed = true;
                    self.s.metrics.timeouts += 1;
                    let completed = w.completion(now, OpStatus::Timeout);
                    self.s
                        .metrics
                        .record_completion(OpKind::Write, completed.latency(), false);
                    self.s.outputs.push(ClusterOutput::Completed(completed));
                }
                // A write whose acks are all in (the common timeout case:
                // targeted < required because a replica was down at submit)
                // has no future event referencing this id — free the slot.
                // Otherwise the state survives the timeout: late acks still
                // feed the propagation sample and trigger removal in
                // on_write_ack. (A targeted replica that went down
                // mid-flight never acks, so that rare slot is only
                // reclaimed here if its acks completed first.)
                if w.acks >= w.targeted {
                    self.s.ops.remove(op_id);
                }
            }
            Some(OpState::Read(r)) => {
                self.s.metrics.timeouts += 1;
                let completed = r.completion(now, OpStatus::Timeout);
                self.s
                    .metrics
                    .record_completion(OpKind::Read, completed.latency(), false);
                self.s.outputs.push(ClusterOutput::Completed(completed));
                self.s.ops.remove(op_id);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, RepairMode};

    fn cluster(nodes: usize, rf: u32) -> Cluster {
        Cluster::new(ClusterConfig::lan_test(nodes, rf), 42)
    }

    fn drain(c: &mut Cluster) -> Vec<CompletedOp> {
        c.run_to_completion(10_000_000)
    }

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
    fn single_write_then_read_returns_fresh_value() {
        let mut c = cluster(5, 3);
        c.submit_write_with(7, 100, ConsistencyLevel::All, SimTime::ZERO);
        let done = drain(&mut c);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].kind, OpKind::Write);
        assert_eq!(done[0].status, OpStatus::Ok);

        c.submit_read_with(7, ConsistencyLevel::One, c.now());
        let done = drain(&mut c);
        assert_eq!(done.len(), 1);
        let read = done[0];
        assert_eq!(read.kind, OpKind::Read);
        assert!(!read.stale, "after full propagation the read must be fresh");
        assert!(read.returned_version.exists());
    }

    #[test]
    fn load_records_populates_all_replicas() {
        let mut c = cluster(4, 3);
        c.load_records((0..100u64).map(|k| (k, 1000)));
        assert_eq!(c.total_bytes_stored(), 100 * 1000 * 3);
        // A read for any record returns data even at level ONE.
        c.submit_read_with(55, ConsistencyLevel::One, SimTime::ZERO);
        let done = drain(&mut c);
        assert!(done[0].returned_version.exists());
        assert!(!done[0].stale);
    }

    #[test]
    fn a_write_past_the_key_space_panics_and_a_read_there_touches_nothing() {
        // A read of the farthest key probes and prefetches without
        // allocating: it completes, absent, at every replica.
        let mut c = cluster(4, 3);
        c.load_records((0..100u64).map(|k| (k, 100)));
        c.submit_read_with(u64::MAX, ConsistencyLevel::All, SimTime::ZERO);
        let done = drain(&mut c);
        assert_eq!(done[0].status, OpStatus::Ok);
        assert!(!done[0].returned_version.exists());
        assert_eq!(c.ctrl.oracle.key_count(), 100);
        assert_eq!(c.total_bytes_stored(), 100 * 100 * 3);
        // A write there used to size the page-pointer vector by the key and
        // abort the process on the failed allocation; now it unwinds.
        let far_write = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.submit_write_at(1 << 60, 10, SimTime::ZERO);
            c.run_to_completion(1_000)
        }));
        let message = *far_write
            .expect_err("a write to key 2^60 must panic")
            .downcast::<String>()
            .expect("assert! with arguments panics with a String");
        assert!(
            message.contains(&format!("slot {}", 1u64 << 60))
                && message.contains("key-density contract"),
            "{message}"
        );
    }

    #[test]
    fn bulk_load_spills_no_oracle_history() {
        let mut c = cluster(4, 3);
        c.load_records((0..10_000u64).map(|k| (k, 100)));
        assert_eq!(c.ctrl.oracle.key_count(), 10_000);
        assert_eq!(c.ctrl.oracle.spilled_histories(), 0, "load is slot-only");
        c.submit_read_at(55, SimTime::ZERO);
        c.submit_read_at(56, SimTime::ZERO);
        drain(&mut c);
        assert_eq!(c.ctrl.oracle.spilled_histories(), 0, "reads spill nothing");
        c.submit_write_at(55, 100, SimTime::from_millis(50));
        c.submit_write_at(55, 100, SimTime::from_millis(60));
        drain(&mut c);
        assert_eq!(
            c.ctrl.oracle.spilled_histories(),
            1,
            "one history per acknowledged-to key, not per write"
        );
    }

    #[test]
    fn quorum_reads_after_quorum_writes_are_never_stale() {
        let mut c = cluster(5, 5);
        c.load_records((0..50u64).map(|k| (k, 100)));
        c.set_levels(ConsistencyLevel::Quorum, ConsistencyLevel::Quorum);
        // Interleave writes and reads on the same hot keys (each read follows
        // a write to the same key 200 µs earlier).
        let mut at = SimTime::ZERO;
        for i in 0..500u64 {
            at += SimDuration::from_micros(200);
            if i % 2 == 0 {
                c.submit_write_at((i / 2) % 10, 100, at);
            } else {
                c.submit_read_at((i / 2) % 10, at);
            }
        }
        let done = drain(&mut c);
        let stale = done.iter().filter(|o| o.stale).count();
        assert_eq!(stale, 0, "R+W>N must never return stale reads");
        assert_eq!(c.metrics().timeouts, 0);
    }

    /// A two-site deployment (like the paper's Grid'5000 setup): intra-site
    /// propagation is sub-millisecond while cross-site propagation takes
    /// ~12 ms, which is where the staleness window of Figure 1 comes from.
    fn geo_config(nodes: usize, rf: u32) -> ClusterConfig {
        let mut cfg = ClusterConfig::lan_test(nodes, rf);
        cfg.topology = concord_sim::Topology::spread(
            nodes,
            &[
                ("site-rennes", concord_sim::RegionId(0)),
                ("site-sophia", concord_sim::RegionId(0)),
            ],
        );
        cfg.network = concord_sim::NetworkModel::grid5000_like();
        cfg.strategy = crate::ring::ReplicationStrategy::NetworkTopology;
        cfg
    }

    fn geo_churn(c: &mut Cluster, ops: u64, keys: u64, gap: SimDuration) {
        // Alternate write → read on the same key so every read lands shortly
        // after a write to that key (inside the propagation window).
        let mut at = SimTime::ZERO;
        for i in 0..ops {
            at += gap;
            if i % 2 == 0 {
                c.submit_write_at((i / 2) % keys, 100, at);
            } else {
                c.submit_read_at((i / 2) % keys, at);
            }
        }
    }

    #[test]
    fn weak_reads_under_write_pressure_observe_staleness() {
        let mut c = Cluster::new(geo_config(6, 5), 7);
        c.load_records((0..20u64).map(|k| (k, 100)));
        c.set_levels(ConsistencyLevel::One, ConsistencyLevel::One);
        geo_churn(&mut c, 2000, 20, SimDuration::from_micros(500));
        let done = drain(&mut c);
        let reads: Vec<_> = done.iter().filter(|o| o.kind == OpKind::Read).collect();
        let stale = reads.iter().filter(|o| o.stale).count();
        assert!(
            stale > 0,
            "eventual consistency under heavy writes must show stale reads"
        );
        assert_eq!(c.oracle().stale_reads(), stale as u64);
        assert!(c.metrics().stale_read_rate() > 0.0);
    }

    #[test]
    fn stronger_read_levels_reduce_staleness() {
        let run = |level: ConsistencyLevel| {
            let mut c = Cluster::new(geo_config(6, 5), 11);
            c.load_records((0..20u64).map(|k| (k, 100)));
            c.set_levels(level, ConsistencyLevel::One);
            geo_churn(&mut c, 3000, 20, SimDuration::from_micros(400));
            drain(&mut c);
            c.metrics().stale_read_rate()
        };
        let one = run(ConsistencyLevel::One);
        let all = run(ConsistencyLevel::All);
        assert!(one > all, "ONE ({one}) must be staler than ALL ({all})");
        assert_eq!(all, 0.0, "reading every replica can never be stale");
    }

    #[test]
    fn write_latency_grows_with_level() {
        let run = |level: ConsistencyLevel| {
            let mut cfg = ClusterConfig::lan_test(6, 5);
            cfg.network = concord_sim::NetworkModel::ec2_like();
            let mut c = Cluster::new(cfg, 13);
            c.load_records((0..10u64).map(|k| (k, 100)));
            c.set_levels(ConsistencyLevel::One, level);
            let mut at = SimTime::ZERO;
            for i in 0..500u64 {
                at += SimDuration::from_millis(1);
                c.submit_write_at(i % 10, 100, at);
            }
            drain(&mut c);
            c.metrics().write_latency.mean_ms()
        };
        let one = run(ConsistencyLevel::One);
        let all = run(ConsistencyLevel::All);
        assert!(
            all > one,
            "waiting for every replica ({all} ms) must cost more than ONE ({one} ms)"
        );
    }

    #[test]
    fn read_fanout_tracks_level() {
        let mut c = cluster(6, 5);
        c.load_records((0..10u64).map(|k| (k, 100)));
        c.set_levels(ConsistencyLevel::Quorum, ConsistencyLevel::One);
        for i in 0..100u64 {
            c.submit_read_at(i % 10, SimTime::from_millis(i));
        }
        drain(&mut c);
        assert!((c.metrics().mean_read_fanout() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn scans_read_the_whole_range_and_weigh_response_traffic() {
        let mut c = cluster(5, 3);
        c.load_records((0..100u64).map(|k| (k, 1_000)));
        let (reads_before, _) = c.storage_op_totals();
        let traffic_before = c.metrics().traffic.total();
        c.submit_scan_with(10, 20, ConsistencyLevel::One, SimTime::ZERO);
        let done = drain(&mut c);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].kind, OpKind::Read);
        assert_eq!(done[0].status, OpStatus::Ok);
        assert!(!done[0].stale, "a quiescent scan reads fresh data");
        let (reads_after, _) = c.storage_op_totals();
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
        let (reads_before, _) = c.storage_op_totals();
        // Anchor near the end: 10 of the 30 probed records exist.
        c.submit_scan_with(40, 30, ConsistencyLevel::One, SimTime::ZERO);
        drain(&mut c);
        let (reads_after, _) = c.storage_op_totals();
        assert_eq!(reads_after - reads_before, 30, "absent slots still probe");
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
        assert_eq!(c.oracle().stale_reads(), stale as u64);
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
            c.set_node_down(NodeId(n));
        }
        let (reads_before, _) = c.storage_op_totals();
        c.submit_scan_with(0, 10, ConsistencyLevel::One, SimTime::ZERO);
        c.schedule_tick(SimTime::from_millis(60), 1);
        let mut done = Vec::new();
        while let Some(out) = c.advance() {
            match out {
                ClusterOutput::Tick { id: 1, .. } => {
                    for n in 0..4 {
                        c.set_node_up(NodeId(n));
                    }
                }
                ClusterOutput::Completed(op) => done.push(op),
                ClusterOutput::Tick { .. } => {}
            }
        }
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].status, OpStatus::Ok, "the retry must succeed");
        assert!(c.metrics().retries >= 1);
        let (reads_after, _) = c.storage_op_totals();
        assert_eq!(
            reads_after - reads_before,
            10,
            "the retried attempt reads the full 10-record range"
        );
    }

    #[test]
    fn traffic_is_accounted_per_link_class() {
        let mut cfg = ClusterConfig::lan_test(6, 3);
        cfg.topology = concord_sim::Topology::spread(
            6,
            &[
                ("dc-a", concord_sim::RegionId(0)),
                ("dc-b", concord_sim::RegionId(0)),
            ],
        );
        cfg.strategy = crate::ring::ReplicationStrategy::NetworkTopology;
        let mut c = Cluster::new(cfg, 3);
        c.load_records((0..10u64).map(|k| (k, 1000)));
        for i in 0..50u64 {
            c.submit_write_with(i % 10, 1000, ConsistencyLevel::All, SimTime::from_millis(i));
        }
        drain(&mut c);
        let t = c.metrics().traffic;
        assert!(t.total() > 0);
        assert!(
            t.inter_dc > 0,
            "replicating across two DCs must produce inter-DC traffic"
        );
    }

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
                    size: 0,
                    scan_len: 1,
                    level: None,
                },
                coordinator: None,
                retry: None,
            }));
            ops.remove(freed);
            let task = ReplicaTask::Read {
                op_id: freed,
                key: Key(3),
                data: true,
                len: 1,
                segment: 0,
                coordinator: 0,
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
            assert_eq!(c.shard_states.last().unwrap().outbox_dest[0].len(), foreign);
            // A live read drives the engine: the staged responses are
            // delivered at the first window close, miss on the generation
            // check and leave nothing behind.
            let events = c.events_processed();
            c.submit_read_with(3, ConsistencyLevel::One, SimTime::ZERO);
            assert_eq!(drain(&mut c).len(), 1);
            assert_eq!(c.events_processed() - events, 5 + foreign as u64);
            assert_eq!(c.inflight_ops(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "more than 65535 write versions in one microsecond")]
    fn version_tie_break_overflow_is_rejected() {
        let mut c = cluster(2, 1);
        for _ in 0..=u16::MAX {
            c.shard_states[0].alloc_version_at(SimTime::from_micros(7));
        }
    }

    #[test]
    fn ticks_interleave_with_completions() {
        let mut c = cluster(4, 3);
        c.load_records((0..5u64).map(|k| (k, 100)));
        c.schedule_tick(SimTime::from_millis(50), 1);
        c.submit_read_with(1, ConsistencyLevel::One, SimTime::from_millis(10));
        c.submit_read_with(2, ConsistencyLevel::One, SimTime::from_millis(100));
        let mut ticks = 0;
        let mut completions = 0;
        while let Some(out) = c.advance() {
            match out {
                ClusterOutput::Tick { id, at } => {
                    ticks += 1;
                    assert_eq!(id, 1);
                    assert_eq!(at, SimTime::from_millis(50));
                }
                ClusterOutput::Completed(_) => completions += 1,
            }
        }
        assert_eq!(ticks, 1);
        assert_eq!(completions, 2);
    }

    #[test]
    fn propagation_samples_are_produced() {
        let mut c = cluster(5, 3);
        c.load_records((0..5u64).map(|k| (k, 100)));
        for i in 0..20u64 {
            c.submit_write_with(i % 5, 100, ConsistencyLevel::One, SimTime::from_millis(i));
        }
        drain(&mut c);
        let samples = c.drain_propagation_samples();
        assert_eq!(samples.len(), 20);
        assert!(samples.iter().all(|d| !d.is_zero()));
        assert!(c.drain_propagation_samples().is_empty(), "drained");
    }

    #[test]
    fn changing_levels_affects_subsequent_ops_only() {
        // The level in effect when an operation *arrives* at the coordinator
        // is what counts — exactly how Harmony retunes a live cluster.
        let mut c = cluster(5, 5);
        c.load_records((0..5u64).map(|k| (k, 100)));
        c.set_levels(ConsistencyLevel::One, ConsistencyLevel::One);
        c.submit_read_at(1, SimTime::from_millis(1));
        let first = drain(&mut c);
        c.set_levels(ConsistencyLevel::All, ConsistencyLevel::One);
        c.submit_read_at(1, c.now());
        let second = drain(&mut c);
        assert_eq!(first[0].replicas_involved, 1);
        assert_eq!(second[0].replicas_involved, 5);
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
        c.set_node_down(victim);
        c.submit_write_with(1, 100, ConsistencyLevel::One, SimTime::ZERO);
        drain(&mut c);
        c.set_node_up(victim);
        let (_, writes_before) = c.storage_op_totals();
        c.submit_read_with(1, ConsistencyLevel::All, c.now());
        drain(&mut c);
        let (_, writes_after) = c.storage_op_totals();
        assert!(
            writes_after > writes_before,
            "expected repair writes after the read ({writes_before} → {writes_after})"
        );
        // The repaired replica now holds the freshest version.
        let fresh = c.store(c.replicas_of(1)[0]).peek(Key(1)).unwrap().version;
        assert_eq!(c.store(victim).peek(Key(1)).unwrap().version, fresh);
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
        c.set_node_down(NodeId(2));
        let mut at = SimTime::ZERO;
        for i in 0..600u64 {
            at += SimDuration::from_micros(300);
            match i % 3 {
                0 => c.submit_write_with(i % 20, 100, ConsistencyLevel::All, at),
                1 => c.submit_write_at(i % 20, 100, at),
                _ => c.submit_read_with(i % 20, ConsistencyLevel::Quorum, at),
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
            c.set_node_down(NodeId(n));
        }
        c.submit_write_at(1, 100, SimTime::ZERO);
        drain(&mut c);
        assert_eq!(c.inflight_write_payloads(), 0);
    }

    #[test]
    fn submit_batch_is_byte_identical_to_loop_submission() {
        let ops: Vec<BatchOp> = (0..400u64)
            .map(|i| {
                let at = SimTime::from_micros(i * 250);
                if i % 2 == 0 {
                    BatchOp::write(at, i % 10, 100)
                } else {
                    BatchOp::read(at, i % 10)
                }
            })
            .collect();

        let mut via_loop = cluster(6, 5);
        via_loop.load_records((0..10u64).map(|k| (k, 100)));
        for op in &ops {
            match op.kind {
                OpKind::Write => via_loop.submit_write_at(op.key, op.size, op.at),
                OpKind::Read => via_loop.submit_read_at(op.key, op.at),
            };
        }
        let loop_done = drain(&mut via_loop);

        let mut via_batch = cluster(6, 5);
        via_batch.load_records((0..10u64).map(|k| (k, 100)));
        assert_eq!(via_batch.submit_batch(ops.iter().copied()), 400);
        let batch_done = drain(&mut via_batch);

        // Same completions in the same order with the same ids, timestamps,
        // versions and staleness — the bulk lane changes the data structure,
        // not the simulation.
        assert_eq!(loop_done, batch_done);
        assert_eq!(via_loop.events_processed(), via_batch.events_processed());
        assert_eq!(via_loop.now(), via_batch.now());
    }

    #[test]
    #[should_panic(expected = "sorted arrival stream")]
    fn submit_batch_rejects_unsorted_arrivals() {
        let mut c = cluster(4, 3);
        c.load_records((0..5u64).map(|k| (k, 100)));
        c.submit_batch([
            BatchOp::read(SimTime::from_millis(10), 1),
            BatchOp::read(SimTime::from_millis(5), 2),
        ]);
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
        let mut cfg = ClusterConfig::lan_test(6, 3);
        cfg.topology = concord_sim::Topology::spread(
            6,
            &[
                ("dc-a", concord_sim::RegionId(0)),
                ("dc-b", concord_sim::RegionId(0)),
            ],
        );
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
        let mut cfg = ClusterConfig::lan_test(6, 3);
        cfg.topology = concord_sim::Topology::spread(
            6,
            &[
                ("dc-a", concord_sim::RegionId(0)),
                ("dc-b", concord_sim::RegionId(0)),
            ],
        );
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
    fn resilience_off_runs_are_byte_identical_to_the_seed_path() {
        // The whole resilience layer off (the default) must add zero events
        // and zero RNG draws even under gray faults: only service/response
        // delays of the slowed node change, nothing else in the stream.
        let run = |resilience_off_twice: bool| {
            let cfg = ClusterConfig::lan_test(5, 3);
            assert!(!cfg.resilience.hedging_enabled());
            assert!(!cfg.resilience.backoff);
            // Construct-drop a second identical config to prove the literal
            // has no hidden state; the run itself is what must be stable.
            if resilience_off_twice {
                let _ = ClusterConfig::lan_test(5, 3);
            }
            let mut c = Cluster::new(cfg, 11);
            c.load_records((0..10u64).map(|k| (k, 100)));
            c.slow_node(NodeId(0), 4.0);
            for i in 0..100u64 {
                c.submit_read_at(i % 10, SimTime::from_millis(i));
            }
            drain(&mut c)
        };
        let a = run(false);
        let b = run(true);
        assert_eq!(a, b);
    }

    #[test]
    fn dc_down_takes_the_whole_dc_and_dc_up_restores_it() {
        let mut cfg = ClusterConfig::lan_test(6, 3);
        cfg.topology = concord_sim::Topology::spread(
            6,
            &[
                ("dc-a", concord_sim::RegionId(0)),
                ("dc-b", concord_sim::RegionId(0)),
            ],
        );
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
        let mut cfg = ClusterConfig::lan_test(6, 3);
        cfg.topology = concord_sim::Topology::spread(
            6,
            &[
                ("dc-a", concord_sim::RegionId(0)),
                ("dc-b", concord_sim::RegionId(0)),
            ],
        );
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
    fn hedged_reads_complete_once_and_do_not_leak() {
        // Hedge aggressively (the timer fires long before any response can
        // arrive): every point read sends one speculative duplicate, yet
        // each op completes exactly once and the slab fully drains — the
        // losing response is reaped by the generation check.
        let mut cfg = ClusterConfig::lan_test(5, 3);
        cfg.resilience.hedge_delay = SimDuration::from_micros(50);
        let mut c = Cluster::new(cfg, 31);
        c.load_records((0..10u64).map(|k| (k, 100)));
        let mut submitted = Vec::new();
        for i in 0..200u64 {
            submitted.push(c.submit_read_at(i % 10, SimTime::from_millis(i)));
        }
        let done = drain(&mut c);
        assert_eq!(done.len(), 200, "every read completes exactly once");
        let mut completed: Vec<OpId> = done.iter().map(|o| o.id).collect();
        completed.sort();
        submitted.sort();
        assert_eq!(completed, submitted);
        let m = c.metrics();
        assert!(
            m.hedged_requests >= 150,
            "an aggressive hedge_delay must hedge nearly every read, got {}",
            m.hedged_requests
        );
        assert!(m.hedge_wins <= m.hedged_requests);
        assert!(
            m.hedge_traffic.total() > 0,
            "hedge bytes must be metered separately"
        );
        assert!(
            m.traffic.total() >= m.hedge_traffic.total(),
            "hedge bytes are part of the billable total"
        );
        assert_eq!(c.inflight_ops(), 0, "hedged ops must not leak slab slots");
        assert_eq!(c.inflight_write_payloads(), 0);
    }

    #[test]
    fn hedging_survives_a_crash_during_the_hedge_window() {
        // The hedge target (or the original replica) dies while both
        // requests are in flight: completions stay exactly-once and nothing
        // leaks. Exercises the straggler-reap path under faults.
        let mut cfg = ClusterConfig::lan_test(5, 3);
        cfg.resilience.hedge_delay = SimDuration::from_micros(50);
        cfg.op_timeout = SimDuration::from_millis(50);
        let mut c = Cluster::new(cfg, 37);
        c.load_records((0..10u64).map(|k| (k, 100)));
        let mut submitted = Vec::new();
        for i in 0..100u64 {
            submitted.push(c.submit_read_at(i % 10, SimTime::from_micros(i * 20)));
        }
        // Take a replica down mid-flight, then bring it back.
        c.schedule_tick(SimTime::from_micros(300), 1);
        c.schedule_tick(SimTime::from_millis(5), 2);
        let mut done = Vec::new();
        while let Some(out) = c.advance() {
            match out {
                ClusterOutput::Tick { id: 1, .. } => c.set_node_down(NodeId(1)),
                ClusterOutput::Tick { id: 2, .. } => c.set_node_up(NodeId(1)),
                ClusterOutput::Completed(op) => done.push(op),
                ClusterOutput::Tick { .. } => {}
            }
        }
        assert_eq!(done.len(), 100, "every read completes exactly once");
        let mut completed: Vec<OpId> = done.iter().map(|o| o.id).collect();
        completed.sort();
        submitted.sort();
        assert_eq!(completed, submitted);
        assert_eq!(c.inflight_ops(), 0, "crash-during-hedge must not leak");
        assert_eq!(c.inflight_write_payloads(), 0);
    }

    #[test]
    fn backoff_spaces_retries_and_accounts_them() {
        // Same transient fault, backoff off vs on: both complete every op,
        // but backoff stretches the retry schedule (latency of exhausted
        // ops grows by the summed delays) and counts each backed-off
        // re-issue.
        let run = |backoff: bool| {
            let mut cfg = ClusterConfig::lan_test(4, 3);
            cfg.op_timeout = SimDuration::from_millis(50);
            cfg.retry_on_timeout = 2;
            cfg.resilience.backoff = backoff;
            let mut c = Cluster::new(cfg, 5);
            c.load_records((0..10u64).map(|k| (k, 100)));
            c.set_node_down(NodeId(1));
            for i in 0..30u64 {
                c.submit_write_with(i % 10, 100, ConsistencyLevel::All, SimTime::from_millis(i));
            }
            let done = drain(&mut c);
            assert_eq!(done.len(), 30, "every op completes exactly once");
            assert_eq!(c.inflight_ops(), 0);
            let max_latency = done.iter().map(|o| o.latency()).max().unwrap();
            (
                c.metrics().retries,
                c.metrics().backoff_retries,
                max_latency,
            )
        };
        let (retries_off, backoff_off, latency_off) = run(false);
        let (retries_on, backoff_on, latency_on) = run(true);
        assert!(retries_off > 0 && retries_on > 0);
        assert_eq!(backoff_off, 0, "backoff counter must stay 0 when off");
        assert_eq!(
            backoff_on, retries_on,
            "with backoff on, every re-issue is a backed-off re-issue"
        );
        // An exhausted op waited out two backoffs, nominally `base` and
        // `2·base`, each jittered by a factor in [0.5, 1.5).
        let base = ResilienceConfig::BACKOFF_BASE.as_micros();
        let stretch = (latency_on - latency_off).as_micros();
        assert!(
            (3 * base / 2..9 * base / 2 + 2).contains(&stretch),
            "backoff must stretch the retry schedule by 1.5-4.5x its base \
             ({latency_off:?} -> {latency_on:?})"
        );
    }

    #[test]
    fn dynamic_selection_steers_reads_away_from_a_slow_replica() {
        // One replica 50x slow. Closest (static table; LAN peers are
        // equidistant, so the shuffle picks the slow node ~rf^-1 of the
        // time) keeps paying the gray tax; Dynamic learns the slow node's
        // observed latency and routes around it.
        let run = |selection: ReplicaSelection| {
            let mut cfg = ClusterConfig::lan_test(5, 3);
            cfg.read_selection = selection;
            let mut c = Cluster::new(cfg, 43);
            c.load_records((0..4u64).map(|k| (k, 100)));
            let victim = c.replicas_of(0)[0];
            c.slow_node(victim, 50.0);
            for i in 0..400u64 {
                c.submit_read_at(0, SimTime::from_millis(i));
            }
            let done = drain(&mut c);
            assert!(done.iter().all(|o| o.status == OpStatus::Ok));
            c.metrics().read_latency.mean_ms()
        };
        let closest = run(ReplicaSelection::Closest);
        let dynamic = run(ReplicaSelection::Dynamic);
        assert!(
            dynamic < closest * 0.5,
            "dynamic selection must dodge the slow replica \
             (closest {closest} ms vs dynamic {dynamic} ms)"
        );
    }

    #[test]
    fn breaker_opens_on_silent_replicas_and_reads_recover() {
        // A down replica never answers: every timed-out attempt strikes it,
        // the breaker opens (and is counted), and subsequent reads rank the
        // node last so they stop wasting attempts on it.
        let mut cfg = ClusterConfig::lan_test(4, 3);
        cfg.read_selection = ReplicaSelection::Dynamic;
        cfg.op_timeout = SimDuration::from_millis(20);
        cfg.retry_on_timeout = 3;
        let mut c = Cluster::new(cfg, 47);
        c.load_records((0..10u64).map(|k| (k, 100)));
        let victim = c.replicas_of(0)[0];
        c.set_node_down(victim);
        for i in 0..60u64 {
            c.submit_read_at(0, SimTime::from_millis(i * 30));
        }
        let done = drain(&mut c);
        assert_eq!(done.len(), 60);
        assert!(
            c.metrics().breaker_opens >= 1,
            "consecutive timeout strikes must trip the breaker"
        );
        let ok = done.iter().filter(|o| o.status == OpStatus::Ok).count();
        assert!(
            ok > 50,
            "with the breaker open, reads route to live replicas ({ok}/60 ok)"
        );
        assert_eq!(c.inflight_ops(), 0);
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
        c.set_node_down(NodeId(1));
        let mut submitted_ids = Vec::new();
        for i in 0..30u64 {
            submitted_ids.push(c.submit_write_with(
                i % 10,
                100,
                ConsistencyLevel::All,
                SimTime::from_millis(i),
            ));
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
        c.set_node_down(victim);
        c.submit_write_with(3, 100, ConsistencyLevel::All, SimTime::ZERO);
        // Recover the node after the first timeout fires.
        c.schedule_tick(SimTime::from_millis(60), 1);
        let mut done = Vec::new();
        while let Some(out) = c.advance() {
            match out {
                ClusterOutput::Tick { id: 1, .. } => c.set_node_up(victim),
                ClusterOutput::Completed(op) => done.push(op),
                ClusterOutput::Tick { .. } => {}
            }
        }
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].status, OpStatus::Ok, "the retry must succeed");
        assert!(c.metrics().retries >= 1);
        assert!(
            done[0].latency() >= SimDuration::from_millis(50),
            "latency includes the failed first attempt"
        );
    }

    #[test]
    fn exact_percentiles_validate_the_histogram_bound() {
        let mut cfg = ClusterConfig::lan_test(6, 5);
        cfg.network = concord_sim::NetworkModel::ec2_like();
        let mut c = Cluster::new(cfg, 23);
        c.load_records((0..20u64).map(|k| (k, 100)));
        for i in 0..500u64 {
            if i % 2 == 0 {
                c.submit_write_with(
                    i % 20,
                    100,
                    ConsistencyLevel::Quorum,
                    SimTime::from_millis(i),
                );
            } else {
                c.submit_read_with(i % 20, ConsistencyLevel::Quorum, SimTime::from_millis(i));
            }
        }
        let done = drain(&mut c);
        let m = c.metrics();
        for (kind, stats) in [
            (OpKind::Read, &m.read_latency),
            (OpKind::Write, &m.write_latency),
        ] {
            // True order statistics (linear interpolation between closest
            // ranks) of the latencies the run reported.
            let mut sorted: Vec<f64> = done
                .iter()
                .filter(|op| op.kind == kind)
                .map(|op| op.latency().as_micros() as f64 / 1e3)
                .collect();
            sorted.sort_by(f64::total_cmp);
            assert_eq!(sorted.len() as u64, stats.count());
            for q in [0.5, 0.95, 0.99] {
                let rank = q * (sorted.len() - 1) as f64;
                let (lo, hi) = (sorted[rank.floor() as usize], sorted[rank.ceil() as usize]);
                let exact = lo + (hi - lo) * rank.fract();
                let approx = stats.quantile_ms(q).expect("histogram has samples");
                assert!(
                    (approx - exact).abs() <= exact * 0.03 + 1e-3,
                    "q={q}: histogram {approx} vs exact {exact} exceeds the 3% bound"
                );
            }
        }
    }

    #[test]
    fn metrics_counts_are_consistent() {
        let mut c = cluster(5, 3);
        c.load_records((0..10u64).map(|k| (k, 100)));
        for i in 0..200u64 {
            if i % 4 == 0 {
                c.submit_write_at(i % 10, 100, SimTime::from_millis(i));
            } else {
                c.submit_read_at(i % 10, SimTime::from_millis(i));
            }
        }
        let done = drain(&mut c);
        assert_eq!(done.len(), 200);
        assert_eq!(c.metrics().ops_completed(), 200);
        assert_eq!(c.metrics().reads_completed, 150);
        assert_eq!(c.metrics().writes_completed, 50);
        assert!(c.metrics().read_latency.count() == 150);
        assert!(c.metrics().throughput(c.now() - SimTime::ZERO) > 0.0);
    }

    // ------------------------------------------------------------------
    // Repair plane
    // ------------------------------------------------------------------

    fn repair_cluster(nodes: usize, rf: u32, mode: RepairMode, seed: u64) -> Cluster {
        let mut cfg = ClusterConfig::lan_test(nodes, rf);
        cfg.repair = RepairConfig::with_mode(mode);
        Cluster::new(cfg, seed)
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
        c.set_node_down(victim);
        c.submit_write_with(1, 100, ConsistencyLevel::One, SimTime::ZERO);
        drain(&mut c);
        c.set_node_up(victim);
        let stale_version = c.store(victim).peek(Key(1)).unwrap().version;

        let (_, writes_before) = c.storage_op_totals();
        c.submit_scan_with(1, 4, ConsistencyLevel::All, c.now());
        let done = drain(&mut c);
        assert_eq!(done[0].status, OpStatus::Ok);
        let (_, writes_after) = c.storage_op_totals();
        assert_eq!(
            writes_after, writes_before,
            "a range scan must never issue repair writes"
        );
        assert_eq!(
            c.store(victim).peek(Key(1)).unwrap().version,
            stale_version,
            "the stale replica stays stale after the scan"
        );

        // The point read at the same level does repair it.
        c.submit_read_with(1, ConsistencyLevel::All, c.now());
        drain(&mut c);
        let (_, writes_repaired) = c.storage_op_totals();
        assert!(writes_repaired > writes_before);
        assert!(c.store(victim).peek(Key(1)).unwrap().version > stale_version);
    }

    #[test]
    fn hinted_handoff_replays_missed_writes_to_a_recovered_node() {
        let mut c = repair_cluster(5, 3, RepairMode::Hints, 29);
        c.load_records((0..10u64).map(|k| (k, 100)));
        let victim = c.replicas_of(3)[1];
        c.set_node_down(victim);
        let before = c.store(victim).peek(Key(3)).unwrap().version;
        // ONE writes succeed on the up replicas; the coordinator queues a
        // hint for the down one.
        for i in 0..5u64 {
            c.submit_write_with(3, 100, ConsistencyLevel::One, SimTime::from_millis(i));
        }
        drain(&mut c);
        assert_eq!(c.pending_hints(victim), 5);
        assert_eq!(c.metrics().hints_queued, 5);
        assert_eq!(c.metrics().hints_replayed, 0);
        assert_eq!(
            c.store(victim).peek(Key(3)).unwrap().version,
            before,
            "a down node applies nothing"
        );

        c.set_node_up(victim);
        drain(&mut c);
        assert_eq!(c.pending_hints(victim), 0);
        assert_eq!(c.metrics().hints_replayed, 5);
        assert_eq!(c.inflight_write_payloads(), 0, "repair payloads drain");
        let fresh = c.store(c.replicas_of(3)[0]).peek(Key(3)).unwrap().version;
        assert_eq!(
            c.store(victim).peek(Key(3)).unwrap().version,
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
        c.set_node_down(victim);
        for i in 0..capacity as u64 + 7 {
            c.submit_write_with(3, 100, ConsistencyLevel::One, SimTime::from_millis(i));
        }
        drain(&mut c);
        assert_eq!(c.pending_hints(victim), capacity, "the queue is bounded");
        assert_eq!(c.metrics().hints_queued, capacity as u64);
        assert_eq!(c.metrics().hints_dropped, 7);
    }

    #[test]
    fn anti_entropy_reconverges_diverged_replicas_and_parks() {
        let mut c = repair_cluster(5, 3, RepairMode::AntiEntropy, 37);
        c.load_records((0..20u64).map(|k| (k, 100)));
        let victim = c.replicas_of(7)[2];
        c.set_node_down(victim);
        for i in 0..8u64 {
            c.submit_write_with(7, 100, ConsistencyLevel::One, SimTime::from_millis(i));
        }
        drain(&mut c);
        assert_eq!(
            c.metrics().hints_queued,
            0,
            "mode=AntiEntropy queues no hints"
        );
        c.set_node_up(victim);
        // run_to_completion terminates because the sweep cycle parks after a
        // silent round — and by then the divergence must be gone.
        drain(&mut c);
        let fresh = c.store(c.replicas_of(7)[0]).peek(Key(7)).unwrap().version;
        assert_eq!(
            c.store(victim).peek(Key(7)).unwrap().version,
            fresh,
            "sweeps stream the missed writes back"
        );
        assert!(c.metrics().repair_pages_compared > 0);
        assert!(c.metrics().repair_records_streamed > 0);
        assert!(c.metrics().repair_traffic.total() > 0);
        assert_eq!(c.inflight_write_payloads(), 0);

        // A further drain on the converged cluster streams nothing new.
        let streamed = c.metrics().repair_records_streamed;
        c.submit_read_with(7, ConsistencyLevel::One, c.now());
        drain(&mut c);
        assert_eq!(c.metrics().repair_records_streamed, streamed);
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
        c.crash_node(victim);
        // Fresh writes land only on the survivors while the node is out.
        for (i, &k) in affected.iter().enumerate() {
            c.submit_write_with(
                k,
                100,
                ConsistencyLevel::All,
                c.now() + SimDuration::from_millis(i as u64),
            );
        }
        drain(&mut c);
        c.recover_node(victim);
        drain(&mut c);
        for &k in &affected {
            let fresh = c.store(c.replicas_of(k)[0]).peek(Key(k)).unwrap().version;
            assert_eq!(
                c.store(victim).peek(Key(k)).unwrap().version,
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
        c.ensure_owned(1);
        assert!(c.ctrl.owned[0].is_none(), "pages are indexed on first diff");
        let page = c.ctrl.owned[1].as_ref().unwrap();
        // Exact allocation: growing these by `push` fragments the heap.
        assert_eq!(page.slots.capacity(), page.slots.len());
        assert_eq!(page.starts.capacity(), page.starts.len());
        assert_eq!(page.slots.len(), PAGE_SLOTS * 3, "every slot has RF owners");
        for n in 0..7 {
            let owned = page.of(NodeId(n));
            assert!(owned.windows(2).all(|w| w[0] < w[1]), "ascending offsets");
            for &off in owned {
                let key = PAGE_SLOTS as u64 + off as u64;
                assert!(c.replicas_of(key).contains(&NodeId(n)));
            }
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
        c.set_node_down(NodeId(1));
        for i in 0..20u64 {
            c.submit_write_with(i % 10, 100, ConsistencyLevel::One, SimTime::from_millis(i));
        }
        drain(&mut c);
        c.set_node_up(NodeId(1));
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
