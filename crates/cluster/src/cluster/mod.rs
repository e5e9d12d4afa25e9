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
//!
//! ## Where things live
//! [`Cluster`] is a composition: the read-only `ClusterShared` snapshot
//! (configuration, ring, compiled samplers, fault state), one `ShardState`
//! per event lane and the `ControlState` of the control plane. This file
//! keeps the public types, construction, accessors and submission; each
//! private submodule opens with the state it owns and the events it
//! handles:
//!
//! | module | owns | handles |
//! |---|---|---|
//! | `ops.rs` | in-flight op state, the write-payload slab, node service queues | client arrival, replica arrival / service, write acks, read responses, timeouts |
//! | `faults.rs` | `FaultAction` and its one rule, `FaultState`: down / crashed nodes, partitions, link and node slow-downs | a scheduled fault (`Event::Fault`); `Cluster::inject` is the one mutator |
//! | `repair.rs` | hint queues, the sweep cursor, the ownership index (off by default: zero events, zero draws) | hint replay, anti-entropy, recovery sync |
//! | `resilience.rs` | per-replica health and circuit breakers | the hedge trigger; hooks in selection, responses and timeouts |
//! | `engine.rs` | staged outboxes, version clocks, the lookahead | pops every event: the one-shard loop, lookahead windows and their close |
//!
//! With `shards > 1` the cluster runs as a conservative parallel DES in
//! lookahead windows, and one shard is the serial engine every golden
//! digest older than sharding was captured on. Which of the two runs is
//! known to `engine.rs` alone — the field and the method that tell are
//! private to it — and everything the engines do differently is a method
//! of the two impl blocks there headed *Where the engines differ*, whose
//! docs say what one shard does and what more than one do. The module docs
//! of `engine.rs` also describe the execution model, the two determinism
//! universes and where the per-key cache prefetches sit.

mod engine;
mod faults;
mod ops;
mod repair;
mod resilience;

use self::engine::{Staging, VersionClock};
pub use self::faults::FaultAction;
use self::faults::FaultState;
use self::ops::{PayloadSlab, ReadState, ReplicaTask, WriteState};
use self::repair::RepairState;
use self::resilience::NodeHealth;
use crate::config::ClusterConfig;
use crate::consistency::ConsistencyLevel;
use crate::metrics::{ClusterMetrics, TrafficBytes};
use crate::oracle::StalenessOracle;
use crate::ring::{Partitioner, Ring, ORDERED_SLICE_BITS};
use crate::slab::OpSlab;
use crate::storage::ReplicaStore;
use crate::types::{CompletedOp, Key, OpId, OpKind, StoredValue, Version};
use concord_sim::{
    CompiledDelay, EventQueue, LinkClass, NodeId, ShardMetrics, SimDuration, SimRng, SimTime,
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
        use ReplicaSelection::*;
        [Closest, Random, Dynamic]
            .into_iter()
            .find(|s| s.label() == name)
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
    /// Scheduled only when
    /// [`ResilienceConfig::hedging_enabled`](crate::config::ResilienceConfig::hedging_enabled)
    /// — a stale trigger (the read already
    /// completed or retried under a fresh id) misses the slab generation
    /// check and is a no-op.
    HedgeFire {
        op_id: OpId,
    },
    Tick {
        id: u64,
    },
    /// A fault scheduled with [`Cluster::schedule_fault`], injected when it
    /// comes due.
    Fault(FaultAction),
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
        Self::scan(at, key, 1)
    }

    /// A range scan of `scan_len` consecutive records starting at `key`, at
    /// the cluster's default read level.
    pub fn scan(at: SimTime, key: u64, scan_len: u32) -> Self {
        Self::new(at, OpKind::Read, key, 0, scan_len.max(1))
    }

    /// A write of `size` bytes at the cluster's default level.
    pub fn write(at: SimTime, key: u64, size: u32) -> Self {
        Self::new(at, OpKind::Write, key, size, 1)
    }

    /// An operation at the cluster's default level.
    fn new(at: SimTime, kind: OpKind, key: u64, size: u32, scan_len: u32) -> Self {
        let level = None;
        BatchOp {
            at,
            kind,
            key,
            size,
            scan_len,
            level,
        }
    }

    /// The same operation at an explicit consistency level.
    pub fn with_level(mut self, level: ConsistencyLevel) -> Self {
        self.level = Some(level);
        self
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
/// compiled samplers, fault state. `Sync`, shared by reference with every
/// shard during a parallel window; mutated only between windows (fault
/// injection, level changes, ring rebuilds) where `&mut Cluster` proves
/// exclusivity.
struct ClusterShared {
    config: ClusterConfig,
    ring: Ring,
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
    /// The injected faults currently in force (`faults.rs`).
    faults: FaultState,
}

impl ClusterShared {
    /// The event-lane shard a node's events execute on.
    #[inline]
    fn shard_of(&self, node: NodeId) -> usize {
        self.node_shard[node.0 as usize] as usize
    }

    /// The home shard of an operation, recovered from the id alone (slab
    /// slots are strided by shard).
    #[inline]
    fn op_home(&self, op_id: OpId) -> usize {
        (op_id.0 as u32 % self.nshards) as usize
    }

    /// The link class `from → to` and the bytes a message with `bytes` of
    /// payload puts on it (the payload plus the per-message overhead).
    #[inline]
    fn wire(&self, from: NodeId, to: NodeId, bytes: u32) -> (LinkClass, u64) {
        let class = self.link_class[from.0 as usize * self.node_count + to.0 as usize];
        (
            class,
            bytes as u64 + self.config.message_overhead_bytes as u64,
        )
    }

    /// Row `coordinator` of the mean-latency table: the expected one-way
    /// latency in ms from it to every node.
    #[inline]
    fn mean_lat_row(&self, coordinator: NodeId) -> &[f64] {
        &self.mean_lat[coordinator.0 as usize * self.node_count..][..self.node_count]
    }
}

/// Everything one shard owns exclusively: its event lane, RNG stream, op
/// slab, metric sinks, payload slab, and the node runtimes and replica
/// store of the nodes mapped to it. `Send`; handed to the work-stealing
/// pool by `&mut` during a window.
struct ShardState {
    shard: u32,
    lane: EventQueue<Event>,
    rng: SimRng,
    /// In-flight operation state owned by this shard, addressed by
    /// generation-checked OpId. Slots are strided by shard (slot ≡ shard
    /// mod nshards) so ownership is recoverable from the id.
    ops: OpSlab<OpState>,
    metrics: ClusterMetrics,
    /// Write-version allocation (`engine.rs`: the two engines' schemes).
    versions: VersionClock,
    /// The copies held by the nodes mapped to this shard: one row of
    /// replication-factor slots per key, tagged by holder (`storage.rs`).
    store: ReplicaStore,
    nodes: Vec<NodeRuntime>,
    /// Interned write-fan-out payloads (`ops.rs`).
    payloads: PayloadSlab,
    /// Scratch buffer for replica lists; reused across operations.
    replica_scratch: Vec<NodeId>,
    /// Scratch buffer for the up-node list when nodes are down.
    up_scratch: Vec<NodeId>,
    /// Outputs produced this window, drained at the window close (one
    /// shard: drained after every event, preserving the pre-sharding order).
    outputs: Vec<ClusterOutput>,
    /// Full-propagation samples produced this window, drained at the close.
    propagation: Vec<SimDuration>,
    /// Cross-shard effects staged this window (`engine.rs`).
    staging: Staging,
    /// Per-replica health as observed by this shard's coordinators
    /// (`resilience.rs`; [`ReplicaSelection::Dynamic`] only, untouched
    /// otherwise).
    health: Vec<NodeHealth>,
}

/// Control-plane state: the repair plane, the control plane's meters and
/// the staleness oracle. Touched only at serial points — barrier edges,
/// between-window calls and the one-shard engine's inline handlers — never
/// inside a parallel window.
struct ControlState {
    /// Control-plane meters (hint and repair counters, repair traffic);
    /// merged into reports after the shard sinks. Counters only, so the
    /// merged report does not depend on which sink a count went to.
    metrics: ClusterMetrics,
    /// Hint queues, sweep cursor and ownership index (`repair.rs`).
    repair: RepairState,
    /// The ground-truth staleness oracle. One central instance, mutated
    /// only at serial points: preloads before the run, acks and read
    /// classifications inline on the one-shard engine and at window
    /// closes otherwise.
    oracle: StalenessOracle,
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
    /// shares shard 0's (see `Cluster::ctrl_sink`).
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
    /// Client operations admitted so far (`Cluster::admit`; a retried
    /// attempt is not a new admission). A drained run has completed every
    /// one exactly once (`Cluster::check_drained`).
    admitted: u64,
}

/// Account a message of `bytes` payload travelling `from → to` against the
/// given RNG/metric sink (a shard's inside a window, the control plane's at
/// a serial point) and return its sampled link delay, scaled by the class's
/// degradation factor.
fn account_message(
    shared: &ClusterShared,
    rng: &mut SimRng,
    metrics: &mut ClusterMetrics,
    from: NodeId,
    to: NodeId,
    bytes: u32,
) -> SimDuration {
    let (class, total) = shared.wire(from, to, bytes);
    metrics.traffic.add(class, total);
    metrics.messages += 1;
    let delay = shared.link_samplers[class_index(class)].sample(rng);
    shared.faults.scale_link(class, delay)
}

/// Draw a coordinator uniformly over the currently-up nodes: clients
/// connect to a random live node (YCSB spreads connections round-robin;
/// with many clients the effect is uniform). `up` is scratch for the
/// up-node list.
fn draw_coordinator(shared: &ClusterShared, rng: &mut SimRng, up: &mut Vec<NodeId>) -> NodeId {
    if shared.faults.all_up() {
        // Fast path: every node is up, so the up-node list is the
        // identity — draw the index directly (same RNG consumption).
        return NodeId(rng.index(shared.node_count) as u32);
    }
    up.clear();
    let nodes = shared.config.topology.nodes();
    up.extend(nodes.filter(|&n| !shared.faults.is_down(n)));
    if up.is_empty() {
        NodeId(0)
    } else {
        up[rng.index(up.len())]
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
        // (Allocations below keep the order they always had: on the
        // benchmark's smallest workload a reordering alone moved the heap's
        // peak by 11 %.)
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
        let effective_rf = ring.replication_factor() as usize;
        let node_dc = config.topology.nodes().map(|x| config.topology.dc_of(x));
        let node_dc = node_dc.collect();
        let shard_states = (0..shards)
            .map(|k| ShardState {
                shard: k as u32,
                lane: EventQueue::new(),
                rng: Self::shard_rng(seed, shards, k),
                ops: OpSlab::with_stride(shards as u32, k as u32),
                metrics: ClusterMetrics::new(),
                versions: VersionClock::default(),
                // Page summaries cost two mixes per installed write; only
                // maintain them when an anti-entropy sweep could ever
                // compare them.
                store: ReplicaStore::with_rows(
                    effective_rf.max(1),
                    config.repair.mode.anti_entropy_enabled(),
                ),
                nodes: (0..n).map(|_| NodeRuntime::default()).collect(),
                payloads: PayloadSlab::default(),
                replica_scratch: Vec::with_capacity(config.replication_factor as usize),
                up_scratch: Vec::with_capacity(n),
                outputs: Vec::new(),
                propagation: Vec::new(),
                staging: Staging::new(shards),
                health: vec![NodeHealth::new(); n],
            })
            .collect();
        let ctrl = ControlState {
            metrics: ClusterMetrics::new(),
            repair: RepairState::new(n),
            oracle: StalenessOracle::new(),
        };
        let mut cluster = Cluster {
            shared: ClusterShared {
                ring,
                mean_lat,
                link_class,
                link_samplers,
                storage_read_sampler,
                storage_write_sampler,
                node_count: n,
                node_shard,
                nshards: shards as u32,
                faults: FaultState::new(node_dc),
                config,
            },
            shard_states,
            ctrl,
            control_lane: EventQueue::new(),
            control_rng: SimRng::shard_stream(seed, shards as u64),
            lookahead: SimDuration::ZERO,
            cross_classes,
            clock: SimTime::ZERO,
            outputs: VecDeque::new(),
            propagation_samples: Vec::new(),
            home_scratch: Vec::with_capacity(effective_rf.max(1)),
            sync: ShardMetrics::default(),
            last_boundary: SimTime::ZERO,
            bulk_tail: SimTime::ZERO,
            admitted: 0,
        };
        cluster.refresh_lookahead();
        cluster
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

    /// The cluster's configuration, with the consistency levels and the
    /// replica selection in force now.
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
        self.shard_states.iter().map(|s| s.payloads.live()).sum()
    }

    /// Current default read consistency level.
    pub fn read_level(&self) -> ConsistencyLevel {
        self.shared.config.read_level
    }

    /// Current default write consistency level.
    pub fn write_level(&self) -> ConsistencyLevel {
        self.shared.config.write_level
    }

    /// Change the default consistency levels (takes effect for operations
    /// that *arrive* after the change — exactly how Harmony retunes a live
    /// cluster).
    pub fn set_levels(&mut self, read: ConsistencyLevel, write: ConsistencyLevel) {
        self.shared.config.read_level = read;
        self.shared.config.write_level = write;
    }

    /// How read replicas are selected.
    pub fn set_replica_selection(&mut self, selection: ReplicaSelection) {
        self.shared.config.read_selection = selection;
    }

    /// Aggregate metrics of the run so far — every count the cluster keeps
    /// except the bytes stored ([`Cluster::total_bytes_stored`]): the
    /// per-shard sinks merged in shard order, then the control-plane sink.
    /// Latency samples live in the
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

    /// Total payload bytes currently stored across all replicas (the one
    /// quantity the replica stores count themselves).
    pub fn total_bytes_stored(&self) -> u64 {
        self.shard_states
            .iter()
            .map(|s| s.store.bytes_stored())
            .sum()
    }

    /// The store holding `node`'s copies: its shard's.
    fn store_of(&self, node: NodeId) -> &ReplicaStore {
        &self.shard_states[self.shared.shard_of(node)].store
    }

    /// `node`'s copy of record `key`, if it holds one (not storage I/O; for
    /// tests and tools).
    pub fn stored(&self, node: NodeId, key: u64) -> Option<StoredValue> {
        self.store_of(node).read_on(node, Key(key))
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

    /// Bulk-load records before the measured run (no events, no I/O
    /// accounting): every replica of each key receives the key's baseline
    /// version.
    pub fn load_records(&mut self, records: impl Iterator<Item = (u64, u32)>) {
        let mut replicas = std::mem::take(&mut self.home_scratch);
        for (key, size) in records {
            let key = Key(key);
            let version = self.preload_version();
            self.shared.ring.replicas_into(key, &mut replicas);
            for &node in &replicas {
                let dest = self.shared.shard_of(node);
                self.shard_states[dest]
                    .store
                    .preload_on(node, key, version, size);
            }
            self.ctrl.oracle.preload(key, version);
        }
        self.home_scratch = replicas;
    }

    /// Submit one client operation (see [`BatchOp`]: its arrival time, kind,
    /// key, size, scan length and, optionally, an explicit consistency
    /// level) and return the id its completion will carry.
    ///
    /// A range scan (`scan_len` > 1, the YCSB-E operation) makes every
    /// contacted replica read the whole range through its dense store —
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
    /// Panics if a scan spans more than 2^16 records under hash
    /// partitioning, or more than 2^16 ownership slices (`scan_len` >
    /// 65535 × 4096) under the ordered partitioner.
    pub fn submit(&mut self, op: BatchOp) -> OpId {
        // The arrival scheduled here reads the key's oracle slot.
        self.ctrl.oracle.prefetch(Key(op.key));
        let (lane, op_id) = self.admit(&op);
        lane.schedule_at(op.at, Event::ClientArrive { op_id });
        op_id
    }

    /// `submit(BatchOp::read(at, key))`, kept for callers that replay
    /// workload operations one call per kind (the benchmark's floors).
    pub fn submit_read_at(&mut self, key: u64, at: SimTime) -> OpId {
        self.submit(BatchOp::read(at, key))
    }

    /// `submit(BatchOp::scan(at, key, scan_len))`, kept like
    /// [`Cluster::submit_read_at`].
    pub fn submit_scan_at(&mut self, key: u64, scan_len: u32, at: SimTime) -> OpId {
        self.submit(BatchOp::scan(at, key, scan_len))
    }

    /// `submit(BatchOp::write(at, key, size))`, kept like
    /// [`Cluster::submit_read_at`].
    pub fn submit_write_at(&mut self, key: u64, size: u32, at: SimTime) -> OpId {
        self.submit(BatchOp::write(at, key, size))
    }

    /// Reject scans the engine cannot represent: segment ids are 16-bit, so
    /// an ordered-partitioner range may span at most 2^16 ownership slices,
    /// and a hash-partitioned scan travels as a *single* segment whose
    /// record count rides the task's 16-bit `len` field. Checked at
    /// submission (fail fast, partitioner-dependent contract documented on
    /// [`Cluster::submit`]) rather than panicking mid-simulation.
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

    /// Admit one submission: check it, route it to its home shard (see
    /// `Cluster::route_admission`) and park it there as a pending op; the
    /// caller schedules the arrival on the returned home lane.
    fn admit(&mut self, op: &BatchOp) -> (&mut EventQueue<Event>, OpId) {
        let scan_len = op.scan_len.max(1);
        self.assert_scan_segmentable(scan_len);
        self.admitted += 1;
        let (home, coordinator) = self.route_admission();
        let s = &mut self.shard_states[home];
        let op_id = s.ops.insert(OpState::Pending(PendingOp {
            sub: Submission {
                kind: op.kind,
                key: Key(op.key),
                size: op.size,
                scan_len,
                level: op.level,
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
    /// Delivery is byte-identical to calling [`Cluster::submit`] on each
    /// operation in the same order: both paths draw sequence numbers from
    /// the same counter, so every event fires at the same virtual instant
    /// in the same relative order.
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
            let (lane, op_id) = self.admit(&op);
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

    /// Check what must hold once a run has drained (`run_to_completion`
    /// returned with nothing left to pop): every op slab and payload slab
    /// is empty and every node idle, nothing staged is undelivered, no hint
    /// replay is flagged over an empty queue, every admitted operation
    /// completed exactly once (counting timeouts), and the repair and hedge
    /// traffic breakdowns are shares of the billable traffic on every link
    /// class. Returns the first violation found as a message.
    pub fn check_drained(&self) -> Result<(), String> {
        for s in &self.shard_states {
            s.check_drained()?;
            s.staging.check_drained(s.shard)?;
        }
        self.ctrl.repair.check_drained()?;
        let m = self.metrics();
        if m.ops_completed() != self.admitted {
            let (admitted, completed) = (self.admitted, m.ops_completed());
            return Err(format!("{admitted} ops admitted, {completed} completed"));
        }
        let classes = |t: TrafficBytes| [t.local, t.intra_dc, t.inter_dc, t.inter_region];
        for (name, part) in [("repair", m.repair_traffic), ("hedge", m.hedge_traffic)] {
            if classes(part)
                .iter()
                .zip(classes(m.traffic))
                .any(|(p, t)| *p > t)
            {
                return Err(format!("{name} {part:?} exceeds {:?}", m.traffic));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod fixtures {
    //! What the unit tests of this module and its submodules share.
    use super::*;
    use crate::config::{RepairConfig, RepairMode};

    pub(super) fn cluster(nodes: usize, rf: u32) -> Cluster {
        Cluster::new(ClusterConfig::lan_test(nodes, rf), 42)
    }

    pub(super) fn drain(c: &mut Cluster) -> Vec<CompletedOp> {
        c.run_to_completion(10_000_000)
    }

    /// Two datacenters of one region, nodes dealt round-robin (dc-b owns the
    /// odd ids), on the LAN model.
    pub(super) fn two_dc_config(nodes: usize, rf: u32) -> ClusterConfig {
        let mut cfg = ClusterConfig::lan_test(nodes, rf);
        cfg.topology = concord_sim::Topology::spread(
            nodes,
            &[
                ("dc-a", concord_sim::RegionId(0)),
                ("dc-b", concord_sim::RegionId(0)),
            ],
        );
        cfg
    }

    /// A two-site deployment (like the paper's Grid'5000 setup): intra-site
    /// propagation is sub-millisecond while cross-site propagation takes
    /// ~12 ms, which is where the staleness window of Figure 1 comes from.
    pub(super) fn geo_config(nodes: usize, rf: u32) -> ClusterConfig {
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

    pub(super) fn geo_churn(c: &mut Cluster, ops: u64, keys: u64, gap: SimDuration) {
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

    pub(super) fn repair_cluster(nodes: usize, rf: u32, mode: RepairMode, seed: u64) -> Cluster {
        let mut cfg = ClusterConfig::lan_test(nodes, rf);
        cfg.repair = RepairConfig::with_mode(mode);
        Cluster::new(cfg, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::*;
    use crate::config::RepairMode;
    use crate::paged::PAGE_SLOTS;
    use crate::types::OpStatus;

    #[test]
    fn load_records_populates_all_replicas() {
        let mut c = cluster(4, 3);
        c.load_records((0..100u64).map(|k| (k, 1000)));
        assert_eq!(c.total_bytes_stored(), 100 * 1000 * 3);
        // A read for any record returns data even at level ONE.
        c.submit(BatchOp::read(SimTime::ZERO, 55).with_level(ConsistencyLevel::One));
        let done = drain(&mut c);
        assert!(done[0].returned_version.exists());
        assert!(!done[0].stale);
    }

    #[test]
    fn the_store_is_one_row_of_rf_slots_per_key() {
        // The benchmark platform's shape: 21 nodes at RF 3. The loaded keys
        // fill ceil(N / 4096) pages of 4096 rows × 3 slots — a table per
        // node over every key would be 21 × as many pages of 4096 slots.
        let mut c = cluster(21, 3);
        let records = 10_000u64;
        c.load_records((0..records).map(|k| (k, 100)));
        let pages = records.div_ceil(PAGE_SLOTS as u64) as usize;
        let store = &c.shard_states[0].store;
        assert_eq!(store.allocation(), (pages, PAGE_SLOTS * 3));
        assert_eq!(store.key_count() as u64, records * 3);
        assert_eq!(store.side_copies(), 0, "every replica has a row entry");
        for key in [0, 4_095, 4_096, records - 1] {
            for node in c.replicas_of(key) {
                assert_eq!(c.stored(node, key).unwrap().size, 100);
            }
        }
    }

    #[test]
    fn a_stand_in_keeps_its_copy_outside_the_full_row() {
        let mut c = repair_cluster(5, 3, RepairMode::Full, 43);
        c.load_records((0..10u64).map(|k| (k, 100)));
        let key = 4;
        let owners = c.replicas_of(key);
        let victim = owners[1];
        c.inject(FaultAction::CrashNode(victim.0));
        let stand_in = c.replicas_of(key).into_iter().find(|n| !owners.contains(n));
        let stand_in = stand_in.expect("the ring hands the key to a stand-in");
        c.submit(BatchOp::write(c.now(), key, 100).with_level(ConsistencyLevel::All));
        assert_eq!(drain(&mut c)[0].status, OpStatus::Ok);
        let fresh = c.stored(owners[0], key).unwrap().version;
        // The crashed node keeps its row entry, so the row is full and the
        // stand-in's copy is an out-of-row one.
        assert!(c.stored(victim, key).unwrap().version < fresh);
        assert_eq!(c.stored(stand_in, key).unwrap().version, fresh);
        assert!(c.shard_states[0].store.side_copies() > 0);
        c.inject(FaultAction::RecoverNode(victim.0));
        drain(&mut c);
        assert_eq!(c.check_drained(), Ok(()));
        assert_eq!(
            c.stored(victim, key).unwrap().version,
            fresh,
            "migrated back"
        );
        assert_eq!(c.stored(stand_in, key).unwrap().version, fresh, "kept");
    }

    #[test]
    fn a_write_past_the_key_space_panics_and_a_read_there_touches_nothing() {
        // A read of the farthest key probes and prefetches without
        // allocating: it completes, absent, at every replica.
        let mut c = cluster(4, 3);
        c.load_records((0..100u64).map(|k| (k, 100)));
        c.submit(BatchOp::read(SimTime::ZERO, u64::MAX).with_level(ConsistencyLevel::All));
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
        assert_eq!(c.metrics().stale_reads, stale as u64);
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
    fn traffic_is_accounted_per_link_class() {
        let mut cfg = two_dc_config(6, 3);
        cfg.strategy = crate::ring::ReplicationStrategy::NetworkTopology;
        let mut c = Cluster::new(cfg, 3);
        c.load_records((0..10u64).map(|k| (k, 1000)));
        for i in 0..50u64 {
            c.submit(
                BatchOp::write(SimTime::from_millis(i), i % 10, 1000)
                    .with_level(ConsistencyLevel::All),
            );
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
    fn config_reports_the_settings_in_force() {
        let mut c = cluster(5, 3);
        c.set_levels(ConsistencyLevel::Quorum, ConsistencyLevel::All);
        c.set_replica_selection(ReplicaSelection::Dynamic);
        let cfg = c.config();
        assert_eq!(cfg.read_level, c.read_level());
        assert_eq!(cfg.write_level, c.write_level());
        assert_eq!(
            (cfg.read_level, cfg.write_level),
            (ConsistencyLevel::Quorum, ConsistencyLevel::All)
        );
        assert_eq!(cfg.read_selection, ReplicaSelection::Dynamic);
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
    fn exact_percentiles_validate_the_histogram_bound() {
        let mut cfg = ClusterConfig::lan_test(6, 5);
        cfg.network = concord_sim::NetworkModel::ec2_like();
        let mut c = Cluster::new(cfg, 23);
        c.load_records((0..20u64).map(|k| (k, 100)));
        for i in 0..500u64 {
            if i % 2 == 0 {
                c.submit(
                    BatchOp::write(SimTime::from_millis(i), i % 20, 100)
                        .with_level(ConsistencyLevel::Quorum),
                );
            } else {
                c.submit(
                    BatchOp::read(SimTime::from_millis(i), i % 20)
                        .with_level(ConsistencyLevel::Quorum),
                );
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

    #[test]
    fn single_write_then_read_returns_fresh_value() {
        let mut c = cluster(5, 3);
        c.submit(BatchOp::write(SimTime::ZERO, 7, 100).with_level(ConsistencyLevel::All));
        let done = drain(&mut c);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].kind, OpKind::Write);
        assert_eq!(done[0].status, OpStatus::Ok);

        c.submit(BatchOp::read(c.now(), 7).with_level(ConsistencyLevel::One));
        let done = drain(&mut c);
        assert_eq!(done.len(), 1);
        let read = done[0];
        assert_eq!(read.kind, OpKind::Read);
        assert!(!read.stale, "after full propagation the read must be fresh");
        assert!(read.returned_version.exists());
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
    fn propagation_samples_are_produced() {
        let mut c = cluster(5, 3);
        c.load_records((0..5u64).map(|k| (k, 100)));
        for i in 0..20u64 {
            c.submit(
                BatchOp::write(SimTime::from_millis(i), i % 5, 100)
                    .with_level(ConsistencyLevel::One),
            );
        }
        drain(&mut c);
        let samples = c.drain_propagation_samples();
        assert_eq!(samples.len(), 20);
        assert!(samples.iter().all(|d| !d.is_zero()));
        assert!(c.drain_propagation_samples().is_empty(), "drained");
    }

    #[test]
    fn ticks_interleave_with_completions() {
        let mut c = cluster(4, 3);
        c.load_records((0..5u64).map(|k| (k, 100)));
        c.schedule_tick(SimTime::from_millis(50), 1);
        c.submit(BatchOp::read(SimTime::from_millis(10), 1).with_level(ConsistencyLevel::One));
        c.submit(BatchOp::read(SimTime::from_millis(100), 2).with_level(ConsistencyLevel::One));
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
    fn check_drained_names_what_a_run_left_behind() {
        let mut c = cluster(5, 3);
        c.load_records((0..10u64).map(|k| (k, 100)));
        assert_eq!(c.check_drained(), Ok(()), "nothing was submitted yet");
        c.submit_write_at(3, 100, SimTime::ZERO);
        c.submit_read_at(3, SimTime::ZERO);
        // Stop mid-flight: ops parked, then a fan-out on the wire.
        let parked = c.check_drained().unwrap_err();
        assert!(
            parked.contains("shard 0: 2 ops and 0 write payloads"),
            "{parked}"
        );
        assert!(c.run_until(SimTime::from_micros(100)).is_empty());
        let busy = c.check_drained().unwrap_err();
        assert!(busy.contains("2 ops and 1 write payloads"), "{busy}");
        assert_eq!(drain(&mut c).len(), 2);
        assert_eq!(c.check_drained(), Ok(()));
        // Every admitted op completes exactly once.
        c.admitted += 1;
        let lost = c.check_drained().unwrap_err();
        assert_eq!(lost, "3 ops admitted, 2 completed");
        c.admitted -= 1;
        // A plane's breakdown meter may never exceed the billable traffic.
        c.ctrl.metrics.hedge_traffic.add(LinkClass::InterRegion, 1);
        let excess = c.check_drained().unwrap_err();
        assert!(excess.starts_with("hedge TrafficBytes"), "{excess}");
    }
}
