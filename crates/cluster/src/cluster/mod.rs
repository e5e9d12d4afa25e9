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
//! | `engine.rs` | data-plane outboxes, staged oracle acks and reads, version clocks, the lookahead (fixed at build) | pops every event: the one-shard loop, lookahead windows and their close |
//!
//! With `shards > 1` the cluster runs as a conservative parallel DES in
//! lookahead windows, and one shard is the serial engine every golden
//! digest older than sharding was captured on. Which of the two runs is
//! known to `engine.rs` alone — the field and the method that tell are
//! private to it — and everything the engines do differently is a method
//! of the two impl blocks there headed *Where the engines differ*, whose
//! docs say what one shard does and what more than one do. Faults and
//! timeout retries need the one shard ([`FaultAction::check`] and
//! `ClusterConfig::validate` say so before anything runs), so what only
//! they reach has one arm. The module docs of `engine.rs` also describe the
//! execution model, the two determinism universes and where the per-key
//! cache prefetches sit.

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
use crate::paged::LoadRun;
use crate::ring::{Partitioner, Ring, ORDERED_SLICE_BITS};
use crate::slab::OpSlab;
use crate::storage::ReplicaStore;
use crate::types::{CompletedOp, Key, OpId, OpKind, StoredValue, Version};
use concord_sim::{
    CompiledDelay, EventQueue, LinkClass, NodeId, ShardMetrics, SimDuration, SimRng, SimTime,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

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
    /// A client operation reaching its coordinator. The event carries the
    /// submission itself: the operation enters its home shard's op slab
    /// only now, so an open-loop schedule waits in the bulk lane and the
    /// slab holds the attempts in flight alone.
    ClientArrive {
        sub: Submission,
        /// The client ticket (`Cluster::admit`): the id `submit` returned.
        ticket: u32,
        /// The coordinator routed at admission, packed (see
        /// [`ShardCtx::arrival_coordinator`](engine::ShardCtx::arrival_coordinator)).
        coordinator: u16,
    },
    /// A timed-out attempt re-arriving after its backoff (one shard only):
    /// its [`PendingOp`] waits in the slab under `op_id`.
    RetryArrive {
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
    /// One anti-entropy step: diff every key page of the next node pair in
    /// the sweep cycle both ways and stream what differs.
    AntiEntropy,
    /// Recovery migration: synchronize `node` from its up peers (every key
    /// page compared and diffed in). Scheduled when a node rejoins the ring
    /// or when survivors acquire a crashed node's ranges.
    RepairSync {
        node: NodeId,
    },
}

/// What a client submitted: everything an attempt of the operation needs.
#[derive(Debug, Clone, Copy)]
struct Submission {
    kind: OpKind,
    key: Key,
    /// Payload bytes of a write; consecutive records a read touches (1 = a
    /// point read, more = a range scan).
    len: u32,
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
/// time, the remaining retry budget and the client ticket `submit_*`
/// handed out (every attempt runs under a slab id of its own but reports
/// under this one).
#[derive(Debug, Clone, Copy)]
struct RetryCtx {
    issued_at: SimTime,
    retries_left: u32,
    client_id: OpId,
}

/// An attempt that has a slab slot but has not started: a timed-out
/// attempt waiting out its backoff ([`Event::RetryArrive`], one shard
/// only), or an arriving one for the instant before its write or read
/// state replaces it.
#[derive(Debug, Clone, Copy)]
struct PendingOp {
    sub: Submission,
    retry: RetryCtx,
}

/// Lifecycle state of one attempt in flight, stored in the owning shard's
/// op slab from its arrival to its completion: a pending attempt, then a
/// write or read in progress. A submission that has not arrived has no
/// slab state — its [`Event::ClientArrive`] carries it. An attempt lives on
/// its coordinator's shard, which drew its slab id (slab slots are strided
/// by shard, so ids are unique across shards); acks and responses route
/// home through the coordinator they carry.
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
    /// The ring every node is in: the one the bulk load placed its records
    /// by (see [`Cluster::load_records`]), shared with the stores.
    load_ring: Arc<Ring>,
    /// Whether `ring` is `load_ring` — no crash is in force, so a current
    /// replica of a key holds its implicit copy (the store's load-ring
    /// rule). Set with every ring rebuild.
    on_load_ring: bool,
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
    /// The injected faults currently in force (`faults.rs`).
    faults: FaultState,
}

impl ClusterShared {
    /// The event-lane shard a node's events execute on.
    #[inline]
    fn shard_of(&self, node: NodeId) -> usize {
        self.node_shard[node.0 as usize] as usize
    }

    /// The link class `from → to` and the bytes a message with `bytes` of
    /// payload puts on it (the payload plus the per-message overhead).
    #[inline]
    fn wire(&self, from: NodeId, to: NodeId, bytes: u32) -> (LinkClass, u64) {
        let class = self.link_class[from.0 as usize * self.node_count + to.0 as usize];
        (
            class,
            bytes as u64 + ClusterConfig::MESSAGE_OVERHEAD_BYTES as u64,
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
    /// The state of the attempts in flight on this shard, addressed by
    /// generation-checked OpId. Slots are strided by shard (slot ≡ shard
    /// mod shards), so no two shards hand out the same id.
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
    /// only at serial points: the load before the run, acks and read
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
    /// stream (index `shards` of the master seed, so it never collides
    /// with a shard stream; it draws the coordinators of admissions). Idle
    /// with one shard, where the control plane shares shard 0's (see
    /// `Cluster::ctrl_sink`).
    control_lane: EventQueue<Event>,
    control_rng: SimRng,
    /// The conservative lookahead bound: the link-delay infimum over the
    /// link classes that cross a shard cut (`Cluster::lookahead_bound`). A
    /// window runs from the earliest shard event to that instant plus this
    /// bound.
    lookahead: SimDuration,
    /// Time of the last processed event (serial) / high-water mark over the
    /// shard lanes (parallel).
    clock: SimTime,
    outputs: VecDeque<ClusterOutput>,
    propagation_samples: Vec<SimDuration>,
    /// Scratch for the coordinator draws of admissions (serial points).
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
    /// attempt is not a new admission), which is also the ticket of the
    /// latest. A drained run has completed every one exactly once
    /// (`Cluster::check_drained`).
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
        let lookahead = Self::lookahead_bound(&config, &node_shard, &link_class);
        let effective_rf = ring.replication_factor() as usize;
        let load_ring = Arc::new(ring.clone());
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
                // The unsettled set costs a bit set per installed write;
                // only maintain it when an anti-entropy diff could ever
                // read it.
                store: ReplicaStore::placed(
                    Arc::clone(&load_ring),
                    match shards {
                        1 => Vec::new(),
                        _ => node_shard.iter().map(|&s| s as usize == k).collect(),
                    },
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
        Cluster {
            shared: ClusterShared {
                ring,
                load_ring,
                on_load_ring: true,
                mean_lat,
                link_class,
                link_samplers,
                storage_read_sampler,
                storage_write_sampler,
                node_count: n,
                node_shard,
                faults: FaultState::new(node_dc),
                config,
            },
            shard_states,
            ctrl,
            control_lane: EventQueue::new(),
            control_rng: SimRng::shard_stream(seed, shards as u64),
            lookahead,
            clock: SimTime::ZERO,
            outputs: VecDeque::new(),
            propagation_samples: Vec::new(),
            home_scratch: Vec::with_capacity(effective_rf.max(1)),
            sync: ShardMetrics::default(),
            last_boundary: SimTime::ZERO,
            bulk_tail: SimTime::ZERO,
            admitted: 0,
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

    /// The conservative lookahead bound: every window runs from the
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

    /// Number of attempts whose state is held in the op slabs: arrived and
    /// unfinished work, or a retry waiting out its backoff (leak
    /// diagnostics and tests). A submission that has not arrived yet holds
    /// none.
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
    /// tests and tools). A loaded key without a row asks the load ring.
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
    /// version, and the oracle takes it as acknowledged at time zero.
    ///
    /// **The contract** is YCSB's load phase: one call, with the keys `k0,
    /// k0 + 1, …` in that order, all of one size, on a cluster that holds
    /// no record yet — no store row, no key the oracle has seen — and while
    /// no crash is in force. An empty stream loads nothing.
    ///
    /// The load is implicit: it hands every store and the oracle one
    /// `LoadRun` (first key, count, first version, version step, size),
    /// and writes no row — the stores count the copies (by arithmetic on
    /// one shard) and the oracle the keys. Key `k` is at version `1 + (k −
    /// k0)·step` on a fresh cluster: step 1 on one shard, where the version
    /// clock then starts past the run, and 0 on more shards. Until its
    /// first write, a loaded key is held at its load version by exactly its
    /// owners under the ring every node is in (the *load ring*), and every
    /// reader of the stores and the oracle answers from the run (see the
    /// `storage` and `oracle` module docs, which list them).
    ///
    /// # Panics
    /// Panics with `bulk-load contract` on a record that breaks the
    /// contract — a gap, a repeated or descending key, a size change — and
    /// on a second load or a crash in force; and if a key's row would lie
    /// past the stores' 2^32-slot space (the key-density contract).
    pub fn load_records(&mut self, records: impl Iterator<Item = (u64, u32)>) {
        assert!(
            self.shared.on_load_ring
                && self.ctrl.oracle.key_count() == 0
                && self.shard_states.iter().all(|s| s.store.rows() == 0),
            "bulk-load contract: one load, into a cluster that holds no record \
             yet, while no crash is in force"
        );
        let mut records = records.peekable();
        let Some(&(first, size)) = records.peek() else {
            return;
        };
        // The keys ascend one by one: checking the first and the last
        // checks them all.
        self.assert_in_space(first);
        let mut count = 0;
        for (key, bytes) in records {
            assert!(
                key == first + count && bytes == size,
                "bulk-load contract: the keys {first}, {first} + 1, … of {size} B \
                 each, but record {count} is key {key} of {bytes} B"
            );
            count += 1;
        }
        self.assert_in_space(first + count - 1);
        let (first_version, step) = self.load_versions(count);
        let run = LoadRun {
            first,
            count,
            first_version,
            step,
            size,
        };
        for s in &mut self.shard_states {
            s.store.load(run);
        }
        self.ctrl.oracle.load(run);
    }

    /// Assert that `key`'s store row fits the stores' slot space (see
    /// `RowTable::assert_in_space`).
    fn assert_in_space(&self, key: u64) {
        self.shard_states[0].store.assert_in_space(Key(key));
    }

    /// Submit one client operation (see [`BatchOp`]: its arrival time, kind,
    /// key, size, scan length and, optionally, an explicit consistency
    /// level) and return the id its completion will carry: the client
    /// ticket, `1, 2, 3, …` in submission order. The operation waits as
    /// its arrival event and takes op-slab state only when it arrives.
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
        // The arrival scheduled here reads the key's oracle entry.
        self.ctrl.oracle.prefetch_entry(Key(op.key));
        let (lane, id, arrival) = self.admit(&op);
        lane.schedule_at(op.at, arrival);
        id
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

    /// Admit one submission: check it, give it the next client ticket and
    /// route it to its home shard (see `Cluster::route_admission`). Returns
    /// the home lane, the ticket as the client's id and the arrival event
    /// that carries the submission, for the caller to schedule; nothing
    /// enters an op slab before the arrival fires.
    ///
    /// # Panics
    /// Panics past 2^32 − 1 admissions, where the ticket outgrows its
    /// 32 bits.
    fn admit(&mut self, op: &BatchOp) -> (&mut EventQueue<Event>, OpId, Event) {
        let scan_len = op.scan_len.max(1);
        self.assert_scan_segmentable(scan_len);
        self.admitted += 1;
        let ticket = u32::try_from(self.admitted).expect("more than 2^32 - 1 client operations");
        let (home, coordinator) = self.route_admission();
        let sub = Submission {
            kind: op.kind,
            key: Key(op.key),
            len: match op.kind {
                OpKind::Write => op.size,
                OpKind::Read => scan_len,
            },
            level: op.level,
        };
        let arrival = Event::ClientArrive {
            sub,
            ticket,
            coordinator,
        };
        let lane = &mut self.shard_states[home].lane;
        (lane, OpId(ticket as u64), arrival)
    }

    /// Bulk-submit a pre-sorted open-loop arrival stream.
    ///
    /// Open-loop workloads know their whole arrival timeline up front (the
    /// schedule comes from a sorted arrival-time iterator, e.g.
    /// `CoreWorkload::timed_ops`). Instead of paying one heap push per
    /// operation, this routes every `ClientArrive` through the event queue's
    /// O(1) bulk FIFO lane — the near lane and the heap then only carry the
    /// simulation's *reactive* events (replica messages, acks), exactly like
    /// the timeout lane keeps per-op timeouts out of them. The schedule
    /// waits there as arrival events (48 B each, the submission inside);
    /// the op slabs hold only the operations that have arrived and not
    /// finished. Each lane is sized once from the batch's `size_hint`.
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
        let ops = ops.into_iter();
        // Which lane an arrival takes is drawn per op on more than one
        // shard, so each lane makes room for the whole batch: capacity
        // never touched is never resident.
        for shard in &mut self.shard_states {
            shard.lane.reserve_bulk(ops.size_hint().0);
        }
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
            let (lane, _, arrival) = self.admit(&op);
            lane.bulk_push_sorted(op.at, arrival);
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
        self.advance_inner()
    }

    /// Drain the simulation completely, returning every completed
    /// operation, or stop after `max_outputs` outputs of
    /// [`Cluster::advance`] — completions and ticks, not events. Ticks are
    /// discarded.
    pub fn run_to_completion(&mut self, max_outputs: u64) -> Vec<CompletedOp> {
        let mut done = Vec::new();
        let mut outputs = 0u64;
        while outputs < max_outputs {
            match self.advance() {
                Some(ClusterOutput::Completed(op)) => done.push(op),
                Some(ClusterOutput::Tick { .. }) => {}
                None => break,
            }
            outputs += 1;
        }
        done
    }

    /// Check what must hold once a run has drained (`run_to_completion`
    /// returned with nothing left to pop): every op slab and payload slab
    /// is empty and every node idle, nothing staged is undelivered, no hint
    /// replay is flagged over an empty queue, every admitted operation
    /// completed exactly once (counting timeouts), and the repair and hedge
    /// traffic breakdowns are shares of the billable traffic on every link
    /// class. Builds with debug assertions also recount every store's
    /// copies and bytes — the rows, the side map and the implicit copies
    /// of the loaded keys without a row — against its counters, check
    /// every key its unsettled set holds settled against the current ring
    /// (the repair plane's invariant, `repair.rs`), and — with anti-entropy
    /// on, no node down and no datacenter pair partitioned — check that
    /// every key has converged: every current replica holds its newest
    /// copy. Returns the first violation found as a message.
    pub fn check_drained(&self) -> Result<(), String> {
        #[cfg(debug_assertions)]
        let converged = self.shared.config.repair.mode.anti_entropy_enabled()
            && self.shared.faults.none_down_or_partitioned();
        for s in &self.shard_states {
            s.check_drained()?;
            s.staging.check_drained(s.shard)?;
            #[cfg(debug_assertions)]
            s.store
                .check_counters()
                .and_then(|()| s.store.check_settled(&self.shared.ring, converged))
                .map_err(|e| format!("shard {}: {e}", s.shard))?;
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
    use crate::types::OpStatus;

    impl Cluster {
        /// The bulk load as it was before loads became implicit: every
        /// replica's row and the oracle's slot spelled out per record (the
        /// reference of the implicit load's differential tests).
        fn load_spelled_out(&mut self, records: impl Iterator<Item = (u64, u32)>) {
            for (key, size) in records {
                let (key, version) = (Key(key), Version(self.load_versions(1).0));
                for node in self.shared.ring.replicas(key) {
                    let dest = self.shared.shard_of(node);
                    self.shard_states[dest]
                        .store
                        .preload_on(node, key, version, size);
                }
                self.ctrl.oracle.preload(key, version);
            }
        }
    }

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
        // The benchmark platform's shape: 21 nodes at RF 3. The load writes
        // no row; a written key gets one row of 3 slots — a table per node
        // over every key would hold 21 × as many.
        let mut c = cluster(21, 3);
        let records = 10_000u64;
        c.load_records((0..records).map(|k| (k, 100)));
        assert_eq!(c.shard_states[0].store.rows(), 0);
        for key in [0, 4_095, 4_096, records - 1] {
            c.submit(BatchOp::write(c.now(), key, 50).with_level(ConsistencyLevel::All));
        }
        drain(&mut c);
        let store = &c.shard_states[0].store;
        assert_eq!(store.rows(), 4, "one row per written key");
        assert_eq!(store.key_count() as u64, records * 3);
        assert_eq!(store.side_copies(), 0, "every replica has a row entry");
        for key in [0, 4_095, 4_096, records - 1] {
            let row = store.row_of(Key(key)).expect("written keys have a row");
            assert_eq!(row.len(), 3);
            for (node, entry) in c.replicas_of(key).into_iter().zip(row) {
                assert_eq!(entry.0, node, "entries in ring order");
                assert_eq!(c.stored(node, key).unwrap().size, 50);
            }
        }
        assert_eq!(c.stored(c.replicas_of(7)[2], 7).unwrap().size, 100);
        assert_eq!(c.check_drained(), Ok(()));
    }

    #[test]
    fn a_million_loaded_records_touch_no_row() {
        let mut c = cluster(21, 3);
        let records = 1_000_000u64;
        c.load_records((0..records).map(|k| (k, 1_000)));
        let store = &c.shard_states[0].store;
        assert_eq!((store.rows(), c.ctrl.oracle.rows()), (0, 0));
        assert_eq!(store.key_count() as u64, 3 * records);
        assert_eq!(c.total_bytes_stored(), 3 * records * 1_000);
        assert_eq!(c.ctrl.oracle.key_count() as u64, records);
        let key = 654_321;
        c.submit(BatchOp::write(SimTime::ZERO, key, 10).with_level(ConsistencyLevel::One));
        drain(&mut c);
        let store = &c.shard_states[0].store;
        assert_eq!(store.rows(), 1, "one write materializes one row");
        let row = store.row_of(Key(key)).unwrap();
        let holders: Vec<_> = row.iter().map(|&(node, _)| node).collect();
        assert_eq!(holders, c.replicas_of(key), "RF entries in ring order");
        assert!(row.iter().all(|&(_, v)| v.exists()));
        assert_eq!(c.ctrl.oracle.rows(), 1);
        assert_eq!(c.total_bytes_stored(), 3 * records * 1_000 - 3 * 990);
    }

    #[test]
    fn load_records_refuses_all_but_one_contiguous_run_of_one_size() {
        use FaultAction::CrashNode;
        fn run(keys: std::ops::Range<u64>) -> Vec<(u64, u32)> {
            keys.map(|k| (k, 100)).collect()
        }
        /// What the case is, its records, and what runs before the load.
        type Case = (&'static str, Vec<(u64, u32)>, fn(&mut Cluster));
        let cases: [Case; 6] = [
            ("a gap", [run(3..6), run(7..9)].concat(), |_| {}),
            ("a repeated key", [run(0..5), run(4..5)].concat(), |_| {}),
            ("a descending key", [run(5..9), run(2..3)].concat(), |_| {}),
            ("a size change", vec![(0, 100), (1, 100), (2, 200)], |_| {}),
            ("a second load", run(0..5), |c| {
                c.load_records(run(5..9).into_iter())
            }),
            ("a crash in force", run(0..5), |c| c.inject(CrashNode(1))),
        ];
        for (case, records, before) in cases {
            let load = std::panic::catch_unwind(move || {
                let mut c = cluster(5, 3);
                before(&mut c);
                c.load_records(records.into_iter());
            });
            let payload = load.expect_err(case);
            let message = match payload.downcast_ref::<String>() {
                Some(message) => message,
                None => payload.downcast_ref::<&str>().copied().unwrap_or(""),
            };
            assert!(message.contains("bulk-load contract"), "{case}: {message}");
        }
        let mut c = cluster(5, 3);
        c.load_records(std::iter::empty());
        assert_eq!((c.total_bytes_stored(), c.ctrl.oracle.key_count()), (0, 0));
        c.load_records(run(3..6).into_iter());
        assert_eq!(c.total_bytes_stored(), 3 * 3 * 100, "an empty load is none");
    }

    #[test]
    #[should_panic(expected = "key-density contract")]
    fn a_load_past_the_slot_space_panics_at_load() {
        let mut c = cluster(4, 3);
        // The last key whose row of 3 slots fits the 2^32-slot space.
        let last = crate::paged::SLOT_SPACE / 3 - 1;
        c.load_records((last - 1..=last + 1).map(|k| (k, 10)));
    }

    #[test]
    fn every_preload_of_a_sharded_cluster_is_version_1() {
        let mut cfg = two_dc_config(6, 3);
        cfg.shards = 2;
        let mut c = Cluster::new(cfg, 5);
        assert_eq!(c.shards(), 2);
        c.load_records((0..100u64).map(|k| (k, 100)));
        for key in 0..100 {
            for node in c.replicas_of(key) {
                assert_eq!(c.stored(node, key).unwrap().version, Version(1));
            }
            assert_eq!(c.ctrl.oracle.expected_version(Key(key)), Version(1));
        }
        let rows: usize = c.shard_states.iter().map(|s| s.store.rows()).sum();
        assert_eq!(rows, 0);
        assert_eq!(c.total_bytes_stored(), 100 * 100 * 3);
    }

    #[test]
    fn scans_over_untouched_rows_weigh_the_loaded_bytes() {
        let mut cfg = ClusterConfig::lan_test(5, 3);
        cfg.partitioner = Partitioner::Ordered;
        let mut c = Cluster::new(cfg, 3);
        c.load_records((0..10_000u64).map(|k| (k, 100)));
        c.submit(BatchOp::scan(SimTime::ZERO, 4_000, 200).with_level(ConsistencyLevel::One));
        let done = drain(&mut c);
        assert_eq!(
            done[0].records_returned, 200,
            "the whole range, across a slice"
        );
        assert!(c.metrics().traffic.total() >= 200 * 100);
        assert_eq!(
            c.shard_states[0].store.rows(),
            0,
            "reads materialize nothing"
        );
    }

    /// Everything a run publishes or leaves behind that the way its
    /// records were loaded could move: the published ops, every node's copy
    /// of every key, the bytes stored, the meters, every store's key pages
    /// and the events processed.
    fn fingerprint(c: &Cluster, done: &[CompletedOp], keys: u64) -> Vec<String> {
        let mut seen: Vec<_> = done.iter().map(|op| format!("{op:?}")).collect();
        seen.push(format!("{:?}", c.metrics()));
        seen.push(format!("{} bytes", c.total_bytes_stored()));
        seen.push(format!("{} events", c.events_processed()));
        for s in &c.shard_states {
            seen.push(format!("{} key pages", s.store.key_pages()));
        }
        for node in c.shared.config.topology.nodes() {
            seen.extend((0..keys).map(|k| format!("{node:?} key {k}: {:?}", c.stored(node, k))));
        }
        seen
    }

    /// Load one record stream implicitly and spelled out into two clusters
    /// of `cfg`, run the same random operations on both — and, on one
    /// shard, the same random fault script, in which crashes and recoveries
    /// overlap the anti-entropy sweeps and the recovery migrations — and
    /// assert they publish and hold the same.
    fn implicit_matches_spelled_out(cfg: ClusterConfig, seed: u64) {
        use FaultAction::*;
        let records = 3 * crate::paged::PAGE_SLOTS as u64 + 300;
        let keys = records + 40;
        // The 40 keys past the load are written, never loaded.
        let load = || (0..records).map(|k| (k, 100));
        let mut implicit = Cluster::new(cfg.clone(), seed);
        implicit.load_records(load());
        let mut spelled = Cluster::new(cfg.clone(), seed);
        spelled.load_spelled_out(load());
        let mut rng = SimRng::new(seed);
        let span_us = 2_000_000;
        let level = |rng: &mut SimRng| {
            [
                ConsistencyLevel::One,
                ConsistencyLevel::Quorum,
                ConsistencyLevel::All,
            ][rng.index(3)]
        };
        let mut ops: Vec<BatchOp> = (0..2_500)
            .map(|_| {
                let (at, key) = (
                    SimTime::from_micros(rng.next_bounded(span_us)),
                    rng.next_bounded(keys),
                );
                let op = match rng.index(10) {
                    0..=3 => BatchOp::write(at, key, 20 + rng.next_bounded(300) as u32),
                    4..=8 => BatchOp::read(at, key),
                    _ => BatchOp::scan(at, key, 2 + rng.next_bounded(40) as u32),
                };
                op.with_level(level(&mut rng))
            })
            .collect();
        ops.sort_by_key(|op| op.at);
        let nodes = cfg.topology.node_count() as u32;
        let mut script = Vec::new();
        if cfg.effective_shards() == 1 {
            for _ in 0..8 {
                let at = SimTime::from_micros(rng.next_bounded(span_us));
                let n = rng.index(nodes as usize) as u32;
                let action = match rng.index(8) {
                    0..=2 => CrashNode(n),
                    3 | 4 => RecoverNode(n),
                    5 => NodeDown(n),
                    6 => NodeUp(n),
                    _ => PartitionDcs(0, 1),
                };
                script.push((at, action));
            }
            let end = SimTime::from_micros(span_us + 500_000);
            script.push((end, HealDcs(0, 1)));
            script.extend((0..nodes).flat_map(|n| [(end, RecoverNode(n)), (end, NodeUp(n))]));
        }
        let mut fingerprints = Vec::new();
        for c in [&mut implicit, &mut spelled] {
            c.submit_batch(ops.iter().copied());
            for &(at, action) in &script {
                c.schedule_fault(at, action);
            }
            let done = drain(c);
            assert_eq!(c.check_drained(), Ok(()));
            fingerprints.push(fingerprint(c, &done, keys));
        }
        let (a, b) = (&fingerprints[0], &fingerprints[1]);
        let first = a.iter().zip(b).position(|(x, y)| x != y);
        assert_eq!(first.map(|i| (&a[i], &b[i])), None, "{cfg:?}, seed {seed}");
        assert_eq!(a.len(), b.len());
        let rows: usize = implicit.shard_states.iter().map(|s| s.store.rows()).sum();
        let spelled_rows: usize = spelled.shard_states.iter().map(|s| s.store.rows()).sum();
        // Repair streams to stand-ins write rows too: under the ordered
        // partitioner at RF 5 of 7 nodes a crash reaches every key.
        assert!(rows <= spelled_rows, "{rows} rows against {spelled_rows}");
    }

    #[test]
    fn the_implicit_load_matches_the_spelled_out_load_under_faults() {
        for partitioner in [Partitioner::Hash, Partitioner::Ordered] {
            for rf in [3, 5] {
                for mode in [RepairMode::Off, RepairMode::Full] {
                    for seed in [1, 2] {
                        let mut cfg = two_dc_config(7, rf);
                        cfg.partitioner = partitioner;
                        cfg.repair = crate::config::RepairConfig::with_mode(mode);
                        implicit_matches_spelled_out(cfg, seed);
                    }
                }
            }
        }
    }

    #[test]
    fn the_implicit_load_matches_the_spelled_out_load_on_two_shards() {
        for partitioner in [Partitioner::Hash, Partitioner::Ordered] {
            for mode in [RepairMode::Off, RepairMode::Full] {
                let mut cfg = two_dc_config(8, 3);
                cfg.shards = 2;
                cfg.partitioner = partitioner;
                cfg.repair = crate::config::RepairConfig::with_mode(mode);
                implicit_matches_spelled_out(cfg, 3);
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
    fn a_batch_holds_only_its_in_flight_operations() {
        // An open-loop schedule waits in the bulk lane as its arrival
        // events; an operation takes op-slab state only when it arrives, so
        // the slab holds the few operations in flight, never the schedule.
        let mut c = cluster(5, 3);
        c.load_records((0..100u64).map(|k| (k, 100)));
        let ops = (0..20_000u64).map(|i| {
            let at = SimTime::from_millis(i);
            match i % 2 {
                0 => BatchOp::write(at, i % 100, 100),
                _ => BatchOp::read(at, i % 100),
            }
        });
        assert_eq!(c.submit_batch(ops), 20_000);
        assert_eq!(c.inflight_ops(), 0, "nothing has arrived yet");
        let (mut completed, mut most) = (0, 0);
        while let Some(out) = c.advance() {
            completed += matches!(out, ClusterOutput::Completed(_)) as usize;
            most = most.max(c.inflight_ops());
        }
        assert_eq!(completed, 20_000);
        // An op lasts about a LAN round trip plus a storage access, well
        // under the 1 ms between arrivals (3 at most here).
        assert!(most <= 8, "{most} ops held at once");
        assert_eq!(c.check_drained(), Ok(()));
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
        // Stop before the arrivals (no slab state yet, but two ops owed),
        // then mid-flight: both ops in the slab, a fan-out on the wire.
        let owed = c.check_drained().unwrap_err();
        assert_eq!(owed, "2 ops admitted, 0 completed");
        c.schedule_tick(SimTime::from_micros(100), 0);
        assert!(matches!(
            c.advance(),
            Some(ClusterOutput::Tick { id: 0, .. })
        ));
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
