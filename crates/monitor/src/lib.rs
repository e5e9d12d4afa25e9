//! # concord-monitor — runtime monitoring of the storage system
//!
//! Harmony (§III-A of the paper) consists of two modules: a *monitoring
//! module* that collects read rates, write rates and network latencies from
//! the storage system, and an *adaptive consistency module* that turns those
//! measurements into a consistency level. This crate implements the
//! monitoring half:
//!
//! * [`SlidingWindowRate`] — read/write arrival-rate estimation (λr, λw);
//! * [`Ewma`] — smoothing of the propagation and first-write delays (and of
//!   the cluster's per-replica health latencies);
//! * [`LatencyHistogram`] — log-bucketed latency percentiles (the cluster's
//!   run metrics);
//! * [`AccessMonitor`] / [`MonitorSnapshot`] — the aggregate monitor fed by
//!   the cluster and consumed by the adaptive policies in `concord-core`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod ewma;
pub mod histogram;
pub mod registry;
pub mod window;

pub use ewma::Ewma;
pub use histogram::LatencyHistogram;
pub use registry::{AccessMonitor, MonitorConfig, MonitorSnapshot};
pub use window::SlidingWindowRate;
