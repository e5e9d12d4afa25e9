//! # concord-workload — YCSB-like workload generation
//!
//! The paper drives Apache Cassandra with the Yahoo! Cloud Serving Benchmark
//! (YCSB). This crate is the from-scratch substitute: it reproduces the
//! YCSB key-selection generators its workloads use (uniform, scrambled
//! zipfian and latest requests over a zipfian rank draw, a counter for
//! inserts), its core-workload operation mix machinery, the standard
//! workloads A–F, and the paper's heavy read-update workloads, plus
//! access-trace synthesis for the behavior-modeling contribution.
//!
//! ## Quick example
//!
//! ```
//! use concord_workload::{CoreWorkload, presets};
//! use concord_sim::SimRng;
//!
//! // The paper's heavy read-update workload, scaled down 1000×.
//! let cfg = presets::harmony_ec2_workload(0.001);
//! let mut workload = CoreWorkload::new(cfg);
//! let mut rng = SimRng::new(42);
//! let op = workload.next_op(&mut rng);
//! assert!(op.key < workload.record_count());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod arrival;
pub mod core_workload;
pub mod generators;
pub mod hashing;
pub mod presets;
pub mod trace;

pub use arrival::ArrivalProcess;
pub use core_workload::{CoreWorkload, OperationType, TimedOps, WorkloadConfig, WorkloadOp};
pub use generators::RequestDistribution;
pub use trace::{SyntheticTraceBuilder, Trace, TraceOp, TracePhase};
