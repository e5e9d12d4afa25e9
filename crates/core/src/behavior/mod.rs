//! Customized consistency by application behavior modeling (§III-C).
//!
//! The third contribution of the paper: an **offline** modeling process that
//! learns an application's consistency requirements from its access traces,
//! and a **runtime** classifier that recognizes the application's current
//! state and applies the consistency policy associated with it.
//!
//! Pipeline:
//!
//! ```text
//! access trace ──windows──▶ per-period metrics (features)
//!              ──k-means──▶ application states
//!              ──rules────▶ state → policy assignment        (offline)
//! live metrics ──nearest centroid──▶ current state → policy  (runtime)
//! ```
//!
//! See [`BehaviorModelBuilder`] for the offline side and
//! [`BehaviorDrivenPolicy`]
//! for the runtime side.

pub mod driven;
pub mod features;
pub mod kmeans;
pub mod model;
pub mod rules;

pub use driven::BehaviorDrivenPolicy;
pub use features::{extract_timeline, period_features, PeriodFeatures};
pub use kmeans::{kmeans, select_k, silhouette, KMeansFit};
pub use model::{ApplicationState, BehaviorModel, BehaviorModelBuilder};
pub use rules::{PolicyKind, PolicyRule, RuleCondition, RuleSet};
