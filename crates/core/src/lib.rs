//! # concord-core — self-adaptive, cost-efficient consistency management
//!
//! This crate implements the paper's three contributions on top of the
//! Concord substrates (`concord-cluster`, `concord-workload`,
//! `concord-monitor`, `concord-staleness`, `concord-cost`):
//!
//! * **Harmony** ([`HarmonyPolicy`]) — automated self-adaptive consistency:
//!   estimates the stale-read rate from monitored read/write rates and
//!   replica propagation latency, and involves the minimum number of
//!   replicas that keeps the estimate under the application's tolerance
//!   (§III-A).
//! * **Bismar** ([`BismarPolicy`]) — cost-efficient consistency: evaluates
//!   the consistency-cost efficiency of every level from the monitored state
//!   and a cloud pricing model, and always selects the most efficient level
//!   (§III-B).
//! * **Behavior modeling** ([`behavior`]) — offline trace analysis (per-period
//!   features, k-means state discovery, rule-based policy assignment) plus a
//!   runtime state classifier ([`BehaviorDrivenPolicy`]) for
//!   application-specific consistency (§III-C).
//!
//! The [`AdaptiveRuntime`] is the **scenario driver** that closes the loop:
//! it executes a [`Scenario`] — closed-loop clients *or* a bulk-loaded
//! open-loop arrival schedule, plus a timed fault script (node
//! crash/recover, DC partition/heal, link degradation) — against the
//! simulated cluster, feeds the monitor, consults the configured
//! [`ConsistencyPolicy`] at every adaptation interval and produces a
//! [`RunReport`] with the throughput / latency / staleness / cost figures
//! the paper's evaluation reports.
//!
//! ```
//! use concord_core::{AdaptiveRuntime, HarmonyPolicy, RuntimeConfig};
//! use concord_cluster::{Cluster, ClusterConfig};
//! use concord_workload::{presets, CoreWorkload};
//!
//! let mut cluster = Cluster::new(ClusterConfig::lan_test(5, 3), 42);
//! let cfg = presets::paper_heavy_read_update(500, 1_000);
//! cluster.load_records((0..cfg.record_count).map(|k| (k, cfg.record_size())));
//! let mut workload = CoreWorkload::new(cfg);
//!
//! let mut policy = HarmonyPolicy::with_tolerance(0.10);
//! let mut runtime = AdaptiveRuntime::new(RuntimeConfig::default(), 42);
//! let report = runtime.run(&mut cluster, &mut workload, &mut policy);
//! assert_eq!(report.total_ops, 1_000);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod behavior;
pub mod bismar;
pub mod harmony;
pub mod policy;
pub mod report;
pub mod runtime;
pub mod scenario;

pub use behavior::{
    BehaviorDrivenPolicy, BehaviorModel, BehaviorModelBuilder, PolicyKind, PolicyRule,
    RuleCondition, RuleSet,
};
pub use bismar::{BismarConfig, BismarDecision, BismarEvaluation, BismarPolicy};
pub use harmony::{HarmonyConfig, HarmonyDecision, HarmonyPolicy};
pub use policy::{
    ClusterProfile, ConsistencyPolicy, GeographicPolicy, LevelDecision, PolicyContext, StaticPolicy,
};
pub use report::{render_table, LatencySummary, LevelChange, RunReport};
pub use runtime::{AdaptiveRuntime, RuntimeConfig};
pub use scenario::{FaultAction, FaultEvent, Scenario};
