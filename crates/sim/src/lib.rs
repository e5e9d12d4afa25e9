//! # concord-sim — deterministic discrete-event simulation substrate
//!
//! This crate provides the simulation substrate on which the Concord
//! geo-replicated storage simulator (`concord-cluster`) and the adaptive
//! consistency controllers (`concord-core`) run:
//!
//! * [`SimTime`] / [`SimDuration`] — a virtual clock with microsecond
//!   resolution;
//! * [`EventQueue`] — a deterministic calendar queue (a bucketed near lane
//!   for the next 65.5 ms, a heap past it and two sorted FIFO lanes, under
//!   one monotonic sequence counter for FIFO tie-breaking);
//! * [`ShardMetrics`] — synchronization counters of the conservative-PDES
//!   sharded engine (`concord-cluster`): per-shard lanes advance in
//!   lookahead windows bounded by the minimum cross-shard link delay,
//!   handler batches execute in parallel on the work-stealing pool, and
//!   cross-shard events are staged per shard and delivered when the window
//!   closes, in fixed shard order, so output is a pure function of
//!   `(seed, shards)` at any worker-thread count;
//! * [`SimRng`] — a fast, splittable, seedable PRNG so every experiment is
//!   exactly reproducible;
//! * [`DelayDistribution`] — serializable latency models (constant,
//!   exponential, shifted-exponential WAN, log-normal), each sampled through
//!   the [`CompiledDelay`] it compiles to;
//! * [`Topology`] / [`NetworkModel`] — node placement into datacenters and
//!   regions plus per-link-class latency distributions (EC2-like and
//!   Grid'5000-like presets).
//!
//! The paper's experiments ran on Amazon EC2 and Grid'5000; this crate is the
//! substitute testbed: a virtual-time cluster whose WAN behaviour is
//! parameterized by the same quantities that drive the paper's trade-offs
//! (propagation latency between replicas, intra- vs. inter-datacenter paths).
//!
//! ## Example
//!
//! ```
//! use concord_sim::{EventQueue, SimDuration, SimTime, SimRng, NetworkModel, Topology, RegionId, NodeId};
//!
//! // A two-availability-zone topology like the paper's EC2 deployment.
//! let topo = Topology::spread(6, &[("us-east-1a", RegionId(0)), ("us-east-1b", RegionId(0))]);
//! let net = NetworkModel::ec2_like();
//! let mut rng = SimRng::new(42);
//!
//! // Schedule a message between two replicas and run the event loop.
//! let mut queue: EventQueue<&str> = EventQueue::new();
//! let link = net.for_class(topo.link_class(NodeId(0), NodeId(1))).compiled();
//! let delay = link.sample(&mut rng);
//! queue.schedule_in(delay, "replica-update");
//! let (arrival, event) = queue.pop().unwrap();
//! assert_eq!(event, "replica-update");
//! assert!(arrival > SimTime::ZERO && arrival < SimTime::ZERO + SimDuration::from_secs(1));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod distributions;
pub mod events;
pub mod inline;
pub mod rng;
pub mod shard;
pub mod time;
pub mod topology;

pub use distributions::{CompiledDelay, DelayDistribution};
pub use events::EventQueue;
pub use inline::InlineVec;
pub use rng::SimRng;
pub use shard::ShardMetrics;
pub use time::{SimDuration, SimTime};
pub use topology::{Datacenter, DcId, LinkClass, NetworkModel, NodeId, RegionId, Topology};
