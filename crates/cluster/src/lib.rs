//! # concord-cluster — geo-replicated quorum key-value store simulator
//!
//! The paper evaluates Harmony and Bismar on Apache Cassandra clusters
//! deployed on Amazon EC2 and Grid'5000. This crate is the from-scratch
//! substitute substrate: a discrete-event simulation of a Cassandra-like
//! storage cluster with
//!
//! * a pluggable [`Partitioner`] — consistent-hash token ring with virtual
//!   nodes (Cassandra's random partitioner) or contiguous key-range
//!   ownership (ordered partitioner, coverage-faithful range scans) — with
//!   `SimpleStrategy` / `NetworkTopologyStrategy` replica placement
//!   ([`Ring`]),
//! * one generic paged direct-index table of fixed-width rows
//!   ([`PagedTable`]) backing the dense per-key state: the staleness
//!   oracle, and the replica stores, whose row per key holds one slot per
//!   replica,
//! * per-operation tunable consistency levels ONE / TWO / THREE / QUORUM /
//!   LOCAL_QUORUM / EACH_QUORUM / ALL / EXACT(n) ([`ConsistencyLevel`]),
//! * coordinator-based write and read paths with asynchronous propagation to
//!   the replicas not required by the consistency level — the source of the
//!   staleness window the paper's Figure 1 describes ([`Cluster`]),
//! * last-write-wins versioned replica storage ([`ReplicaStore`]), sized
//!   records × RF, with incrementally maintained per-node, per-page version
//!   summaries; it counts only the bytes it stores,
//! * optional read repair and fault injection ([`FaultAction`]: node
//!   outages and crashes, partitions, degraded links, gray failures),
//! * an opt-in background repair plane ([`RepairConfig`]): hinted handoff,
//!   anti-entropy sweeps over the page summaries, and recovery migration
//!   that streams acquired/returned ranges instead of instantly serving
//!   them,
//! * a ground-truth staleness oracle ([`StalenessOracle`]) that classifies
//!   each read, and counts nothing, so measured stale rates can be compared
//!   against Harmony's estimates,
//! * one meter sink, [`ClusterMetrics`], for everything the reports and the
//!   cost model count: latency, stale reads and their depths, network
//!   traffic per link class and storage I/O.
//!
//! ```
//! use concord_cluster::{BatchOp, Cluster, ClusterConfig, ConsistencyLevel};
//! use concord_sim::SimTime;
//!
//! let mut cluster = Cluster::new(ClusterConfig::lan_test(5, 3), 42);
//! cluster.load_records((0..100u64).map(|k| (k, 1_000)));
//! cluster.submit(BatchOp::write(SimTime::ZERO, 7, 1_000).with_level(ConsistencyLevel::Quorum));
//! cluster.submit(BatchOp::read(SimTime::from_millis(5), 7).with_level(ConsistencyLevel::One));
//! let completed = cluster.run_to_completion(1_000_000);
//! assert_eq!(completed.len(), 2);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cluster;
pub mod config;
pub mod consistency;
pub mod metrics;
pub mod oracle;
pub mod paged;
pub mod ring;
pub mod slab;
pub mod storage;
pub mod types;

pub use cluster::{BatchOp, Cluster, ClusterOutput, FaultAction, ReplicaSelection};
pub use config::{ClusterConfig, RepairConfig, RepairMode, ResilienceConfig};
pub use consistency::ConsistencyLevel;
pub use metrics::{ClusterMetrics, LatencyStats, TrafficBytes};
pub use oracle::StalenessOracle;
pub use paged::PagedTable;
pub use ring::{Partitioner, ReplicationStrategy, Ring, ORDERED_SLICE_KEYS};
pub use slab::OpSlab;
pub use storage::ReplicaStore;
pub use types::{CompletedOp, Key, OpId, OpKind, OpStatus, StoredValue, Version};
