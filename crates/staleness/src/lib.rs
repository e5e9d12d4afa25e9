//! # concord-staleness — probabilistic stale-read estimation
//!
//! This crate implements the estimation model at the heart of Harmony
//! (§III-A of the paper): *"Harmony embraces an estimation model based on
//! probabilistic computations"* of the situation shown in the paper's
//! Figure 1 — a read may be stale if it starts while the last write is still
//! propagating to the other replicas.
//!
//! The propagation delay `Tp` to each replica is a
//! `concord_sim::DelayDistribution` — the same description the cluster
//! simulator draws its link and storage delays from. Two estimators share the
//! [`StaleReadEstimator`] interface, and a solver inverts them:
//!
//! * [`AnalyticEstimator`] — closed forms for constant and exponential
//!   delays, Simpson quadrature over the delay's survival function for the
//!   shifted-exponential and log-normal ones. This is what Harmony and Bismar
//!   evaluate at runtime, from the monitor's λr, λw and `T`, one constant
//!   `Tp` and writes at ONE.
//! * [`MonteCarloEstimator`] — a direct simulation of the Figure-1 situation,
//!   drawing each replica's delay through the delay's compiled sampler; used
//!   to validate the analytic model (and parallelized with rayon).
//! * [`LevelSolver`] — the inverse problem: the minimal number of replicas a
//!   read must involve to keep the estimated stale-read rate under the
//!   application's tolerance.
//!
//! ```
//! use concord_staleness::{AnalyticEstimator, LevelSolver, StaleReadEstimator, StalenessParams};
//!
//! // 5 replicas, reads at 1000/s, writes at 100/s, ~40 ms propagation.
//! let params = StalenessParams::basic(5, 1, 1, 1000.0, 100.0, 0.5, 40.0);
//! let estimate = AnalyticEstimator::new().estimate(&params);
//! assert!(estimate.stale_read_probability > 0.0);
//!
//! // How many replicas must a read involve to keep staleness under 5%?
//! let solution = LevelSolver::new().solve(&params, 0.05);
//! assert!(solution.read_level >= 1);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod analytic;
pub mod montecarlo;
pub mod params;
pub mod solver;

pub use analytic::{AnalyticEstimator, StaleReadEstimator, StalenessEstimate};
pub use montecarlo::MonteCarloEstimator;
pub use params::StalenessParams;
pub use solver::{LevelSolution, LevelSolver};
