//! # concord-cost — cloud pricing, bill decomposition and the
//! consistency-cost efficiency metric
//!
//! The Bismar contribution (§III-B of the paper) studies the monetary cost of
//! consistency in the cloud. This crate provides its building blocks:
//!
//! * [`PricingModel`] — unit prices for VM instances, storage
//!   (capacity + I/O) and network transfer, with 2013-era EC2 presets;
//! * [`ResourceUsage`] / [`Bill`] — the paper's three-part decomposition of
//!   the total bill (instances, storage, network), computed from the
//!   cluster simulator's meters;
//! * [`consistency_cost_efficiency`] — the paper's new metric:
//!   consistency delivered per unit of relative cost, used by the Bismar
//!   controller in `concord-core` to pick the most efficient level at
//!   runtime.

//!
//! As an extension (the paper's §V future-work direction on power
//! consumption), [`energy`] provides a linear server-power model so the
//! energy footprint of each consistency level can be compared alongside its
//! monetary bill.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bill;
pub mod efficiency;
pub mod energy;
pub mod pricing;

pub use bill::{Bill, ResourceUsage};
pub use efficiency::{consistency_cost_efficiency, most_efficient, EfficiencySample};
pub use energy::{energy_of_run, estimate_utilization, EnergyReport, PowerModel};
pub use pricing::PricingModel;
