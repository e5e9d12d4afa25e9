//! # Concord — self-adaptive, cost-efficient consistency management for
//! geo-replicated cloud storage
//!
//! Concord is a from-scratch Rust reproduction of
//! *"Self-Adaptive Cost-Efficient Consistency Management in the Cloud"*
//! (H.-E. Chihoub, IEEE IPDPS 2013 PhD Forum) and of the systems it builds
//! on: the **Harmony** self-adaptive consistency controller, the **Bismar**
//! cost-efficient controller, and the **application behavior modeling**
//! pipeline — together with every substrate the paper's evaluation needs
//! (a Cassandra-like geo-replicated storage simulator, a YCSB-like workload
//! generator, monitoring, a probabilistic staleness model, and a cloud cost
//! model).
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | [`sim`] (`concord-sim`) | discrete-event engine, virtual time, RNG, topologies, latency models |
//! | [`cluster`] (`concord-cluster`) | Cassandra-like replicated KV store with tunable consistency |
//! | [`workload`] (`concord-workload`) | YCSB-like workload generation and traces |
//! | [`monitor`] (`concord-monitor`) | rate / latency / propagation monitoring |
//! | [`staleness`] (`concord-staleness`) | probabilistic stale-read estimation (Harmony's model) |
//! | [`cost`] (`concord-cost`) | pricing, bill decomposition, consistency-cost efficiency |
//! | [`core`] (`concord-core`) | Harmony, Bismar, behavior modeling, adaptive runtime |
//! | this crate | platform presets, the [`Experiment`] API and the prelude |
//!
//! ## Quickstart
//!
//! ```
//! use concord::prelude::*;
//!
//! // A scaled-down version of the paper's Grid'5000 cost platform.
//! let platform = concord::platforms::grid5000_cost(0.15);
//! let mut workload = concord_workload::presets::paper_heavy_read_update(1_000, 2_000);
//! workload.field_count = 1;
//! workload.field_length = 512;
//!
//! let experiment = Experiment::new(platform, workload).with_clients(8);
//! let reports = experiment.compare(&[
//!     PolicySpec::Eventual,
//!     PolicySpec::Harmony { tolerance: 0.2 },
//! ]);
//! assert_eq!(reports.len(), 2);
//! println!("{}", concord_core::render_table("quickstart", &reports));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod experiment;
pub mod platforms;

pub use experiment::{Experiment, PolicySpec};
pub use platforms::Platform;

pub use concord_cluster as cluster;
pub use concord_core as core;
pub use concord_cost as cost;
pub use concord_monitor as monitor;
pub use concord_sim as sim;
pub use concord_staleness as staleness;
pub use concord_workload as workload;

/// Convenient glob import for examples and downstream users.
pub mod prelude {
    pub use crate::experiment::{Experiment, PolicySpec};
    pub use crate::platforms::{self, Platform};
    pub use concord_cluster::{
        Cluster, ClusterConfig, ConsistencyLevel, Partitioner, RepairConfig, RepairMode,
        ReplicaSelection, ResilienceConfig,
    };
    pub use concord_core::{
        render_table, AdaptiveRuntime, BehaviorDrivenPolicy, BehaviorModelBuilder, BismarPolicy,
        ConsistencyPolicy, FaultAction, FaultEvent, HarmonyPolicy, RuleSet, RunReport,
        RuntimeConfig, Scenario, StaticPolicy,
    };
    pub use concord_cost::{Bill, PricingModel};
    pub use concord_sim::{SimDuration, SimRng, SimTime};
    pub use concord_workload::{presets, ArrivalProcess, CoreWorkload, WorkloadConfig};
}
