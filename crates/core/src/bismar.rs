//! Bismar: cost-efficient adaptive consistency (§III-B of the paper).
//!
//! Bismar *"relies on a relative computation of the expected cost and
//! probabilistic estimation of consistency in the cloud. At runtime, the
//! consistency level with the highest consistency-cost efficiency value is
//! always chosen."*
//!
//! At every adaptation step Bismar evaluates, for every candidate read level
//! `ONE … ALL`:
//!
//! 1. the **consistency** the level would deliver — the probabilistic
//!    stale-read estimate of `concord-staleness` driven by the live monitor
//!    snapshot (the same model Harmony uses);
//! 2. the **expected relative cost** of running the workload at that level,
//!    decomposed like the paper's bill into
//!    * an *instance* component — in a closed loop, the time (and therefore
//!      instance-hours) needed to finish the workload is proportional to the
//!      mean operation latency, which grows when a read must wait for
//!      replicas in a remote datacenter;
//!    * a *network* component — contacting more replicas sends more
//!      cross-datacenter traffic;
//!    * a *storage* component — every contacted replica performs a storage
//!      I/O request;
//! 3. the consistency-cost efficiency `consistency / relative cost`
//!    (see `concord-cost`), picking the level with the highest value.

use crate::policy::{ClusterProfile, ConsistencyPolicy, LevelDecision, PolicyContext};
use concord_cluster::ConsistencyLevel;
use concord_cost::{consistency_cost_efficiency, most_efficient, EfficiencySample, PricingModel};
use concord_staleness::{AnalyticEstimator, StaleReadEstimator};
use serde::{Deserialize, Serialize};

/// Configuration of the Bismar controller: the prices it weighs.
///
/// The write level, the floor on the propagation time and the stale-rate cap
/// are constants, not settings: the staleness model writes at ONE and floors
/// `Tp` at 0.1 ms (`PolicyContext::staleness_params` owns both, for the
/// reasons given there), and the cap is
/// `BismarPolicy::STALE_RATE_CAP`. Configs written while the three were
/// fields still load; the retired fields are ignored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BismarConfig {
    /// Pricing model used for the relative cost computation (2013 EC2 by
    /// default).
    pub pricing: PricingModel,
}

/// The per-level evaluation Bismar performs at one adaptation step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BismarEvaluation {
    /// Replicas involved in reads at this level.
    pub read_replicas: u32,
    /// Estimated stale-read rate.
    pub estimated_stale_rate: f64,
    /// Estimated cost per operation in USD (only the *relative* values across
    /// levels matter for the decision).
    pub cost_per_op_usd: f64,
    /// The consistency-cost efficiency sample.
    pub efficiency: EfficiencySample,
}

/// One Bismar decision, kept for reporting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BismarDecision {
    /// The chosen number of read replicas.
    pub read_replicas: u32,
    /// The evaluations of every candidate level.
    pub evaluations: Vec<BismarEvaluation>,
}

/// The Bismar cost-efficient consistency controller.
#[derive(Debug, Clone)]
pub struct BismarPolicy {
    config: BismarConfig,
    estimator: AnalyticEstimator,
    last_decision: Option<BismarDecision>,
}

impl BismarPolicy {
    /// Cap on the estimated stale-read rate: levels above it are excluded
    /// even if their efficiency is the highest, unless no level qualifies.
    /// The paper observes that the efficient levels keep staleness below
    /// ~20 %.
    pub(crate) const STALE_RATE_CAP: f64 = 0.20;

    /// Create a Bismar controller.
    pub fn new(config: BismarConfig) -> Self {
        BismarPolicy {
            config,
            estimator: AnalyticEstimator::new(),
            last_decision: None,
        }
    }

    /// Bismar with default (2013 EC2) pricing.
    pub fn with_default_pricing() -> Self {
        Self::new(BismarConfig::default())
    }

    /// The controller's configuration.
    pub fn config(&self) -> &BismarConfig {
        &self.config
    }

    /// The most recent decision.
    pub fn last_decision(&self) -> Option<&BismarDecision> {
        self.last_decision.as_ref()
    }

    /// Expected client-observed latency of an operation whose coordinator
    /// must gather `level` replica responses, in milliseconds.
    ///
    /// With `NetworkTopologyStrategy`, the first `replicas_in_local_dc`
    /// responses can come from the coordinator's own datacenter (one
    /// intra-DC round trip); any further response has to cross to another
    /// datacenter (one inter-DC round trip).
    fn expected_latency_ms(profile: &ClusterProfile, level: u32) -> f64 {
        let local = profile.replicas_in_local_dc.max(1);
        let rtt_local = 2.0 * profile.intra_dc_latency_ms + profile.storage_service_ms;
        let rtt_remote = 2.0 * profile.inter_dc_latency_ms + profile.storage_service_ms;
        if level <= local {
            rtt_local
        } else {
            // The slowest required response comes from a remote DC.
            rtt_remote
        }
    }

    /// Expected monetary cost of one operation at the given read level.
    fn expected_cost_per_op(&self, ctx: &PolicyContext, level: u32) -> f64 {
        let profile = &ctx.profile;
        let pricing = &self.config.pricing;
        let snapshot = &ctx.snapshot;

        let total_rate = (snapshot.read_rate + snapshot.write_rate).max(1.0);
        let read_share = (snapshot.read_rate / total_rate).clamp(0.0, 1.0);
        let write_share = 1.0 - read_share;

        // --- Instance component -------------------------------------------
        // In a closed loop the workload's makespan scales with the mean
        // operation latency, so instance-hours per operation do too.
        let read_latency_ms = Self::expected_latency_ms(profile, level);
        let write_latency_ms = Self::expected_latency_ms(
            profile,
            PolicyContext::WRITE_LEVEL.required_acks(profile.replication_factor, profile.dc_count),
        );
        let mean_latency_ms = read_share * read_latency_ms + write_share * write_latency_ms;
        // Cost of keeping the whole fleet up for one mean-latency interval,
        // amortized over the operations in flight (≈ one per node-concurrency
        // slot; the constant cancels in the relative comparison).
        let fleet_usd_per_ms = profile.node_count as f64 * pricing.instance_hour_usd / 3_600_000.0;
        let instance_cost = fleet_usd_per_ms * mean_latency_ms;

        // --- Network component ---------------------------------------------
        // Reads contact `level` replicas: requests beyond the local DC cross
        // the DC boundary, and one full-data response comes back.
        let record_gb = profile.record_size_bytes as f64 / 1e9;
        let local = profile.replicas_in_local_dc as f64;
        let remote_contacts = (level as f64 - local).max(0.0);
        let read_cross_gb = remote_contacts * record_gb;
        // Writes always go to every replica; the remote-DC share is constant
        // across read levels but still part of the per-op cost.
        let remote_replicas = (profile.replication_factor as f64 - local).max(0.0);
        let write_cross_gb = remote_replicas * record_gb;
        let network_cost = (read_share * read_cross_gb + write_share * write_cross_gb)
            * pricing.transfer_inter_dc_gb_usd;

        // --- Storage component ----------------------------------------------
        let read_ios = level as f64;
        let write_ios = profile.replication_factor as f64;
        let storage_cost = (read_share * read_ios + write_share * write_ios) / 1e6
            * pricing.storage_io_million_usd;

        instance_cost + network_cost + storage_cost
    }

    /// Evaluate every candidate level under the current conditions.
    pub fn evaluate_levels(&self, ctx: &PolicyContext) -> Vec<BismarEvaluation> {
        let rf = ctx.profile.replication_factor;
        let reference_cost = self.expected_cost_per_op(ctx, rf);
        (1..=rf)
            .map(|level| {
                let stale = self
                    .estimator
                    .estimate(&ctx.staleness_params(level))
                    .stale_read_probability;
                let cost = self.expected_cost_per_op(ctx, level);
                BismarEvaluation {
                    read_replicas: level,
                    estimated_stale_rate: stale,
                    cost_per_op_usd: cost,
                    efficiency: consistency_cost_efficiency(stale, cost, reference_cost),
                }
            })
            .collect()
    }
}

impl ConsistencyPolicy for BismarPolicy {
    fn name(&self) -> String {
        format!("bismar(cap={:.0}%)", Self::STALE_RATE_CAP * 100.0)
    }

    fn decide(&mut self, ctx: &PolicyContext) -> LevelDecision {
        let evaluations = self.evaluate_levels(ctx);
        // Exclude levels above the staleness cap, unless none qualifies.
        let eligible: Vec<&BismarEvaluation> = {
            let ok: Vec<&BismarEvaluation> = evaluations
                .iter()
                .filter(|e| e.estimated_stale_rate <= Self::STALE_RATE_CAP)
                .collect();
            if ok.is_empty() {
                evaluations.iter().collect()
            } else {
                ok
            }
        };
        let samples: Vec<EfficiencySample> = eligible.iter().map(|e| e.efficiency).collect();
        let best_idx = most_efficient(&samples).unwrap_or(0);
        let read_replicas = eligible[best_idx].read_replicas;

        self.last_decision = Some(BismarDecision {
            read_replicas,
            evaluations: evaluations.clone(),
        });

        LevelDecision {
            read: ConsistencyLevel::from_replica_count(
                read_replicas,
                ctx.profile.replication_factor,
            ),
            write: PolicyContext::WRITE_LEVEL,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::tests::test_context;

    #[test]
    fn quiet_workload_picks_cheap_weak_level() {
        let mut b = BismarPolicy::with_default_pricing();
        // Almost no writes: ONE is fresh *and* cheap, so it must win.
        let d = b.decide(&test_context(2_000.0, 1.0, 2.0));
        assert_eq!(d.read, ConsistencyLevel::One);
        let dec = b.last_decision().unwrap();
        assert_eq!(dec.read_replicas, 1);
        assert!(dec.evaluations[0].estimated_stale_rate < 0.05);
    }

    #[test]
    fn heavy_writes_push_bismar_to_stronger_levels() {
        let mut b = BismarPolicy::with_default_pricing();
        let d = b.decide(&test_context(4_000.0, 2_000.0, 40.0));
        let dec = b.last_decision().unwrap();
        assert!(
            dec.read_replicas > 1,
            "61%-stale ONE must not be selected: {:?}",
            dec.evaluations
        );
        assert_ne!(d.read, ConsistencyLevel::One);
    }

    #[test]
    fn stale_rate_cap_excludes_very_stale_levels() {
        let cap = BismarPolicy::STALE_RATE_CAP;
        let ctx = test_context(4_000.0, 2_000.0, 40.0);
        let mut b = BismarPolicy::with_default_pricing();
        let evaluations = b.evaluate_levels(&ctx);
        // Sanity: uncapped, the most efficient level is well above the cap
        // under this load (a local-DC read level, cheap but stale).
        let samples: Vec<EfficiencySample> = evaluations.iter().map(|e| e.efficiency).collect();
        let uncapped = &evaluations[most_efficient(&samples).unwrap()];
        assert!(uncapped.estimated_stale_rate > cap, "{evaluations:?}");
        b.decide(&ctx);
        let chosen = b.last_decision().unwrap().read_replicas;
        let chosen_eval = &evaluations[(chosen - 1) as usize];
        assert!(chosen_eval.estimated_stale_rate <= cap, "{evaluations:?}");
        assert_eq!(b.name(), "bismar(cap=20%)");
    }

    #[test]
    fn costs_increase_with_the_read_level() {
        let b = BismarPolicy::with_default_pricing();
        let ctx = test_context(2_000.0, 200.0, 20.0);
        let evals = b.evaluate_levels(&ctx);
        assert_eq!(evals.len(), 5);
        for pair in evals.windows(2) {
            assert!(
                pair[1].cost_per_op_usd >= pair[0].cost_per_op_usd,
                "cost must not decrease with the level: {evals:?}"
            );
        }
        // And staleness decreases with the level.
        for pair in evals.windows(2) {
            assert!(pair[1].estimated_stale_rate <= pair[0].estimated_stale_rate + 1e-12);
        }
    }

    #[test]
    fn efficiency_peaks_at_levels_with_low_staleness() {
        // The paper: "the most efficient consistency levels are the ones that
        // provide a staleness rate smaller than 20%". Under a moderate
        // read-update load the efficiency optimum lands on a level that is
        // both cheaper than ALL and still mostly fresh.
        let b = BismarPolicy::with_default_pricing();
        let ctx = test_context(3_000.0, 50.0, 10.0);
        let evals = b.evaluate_levels(&ctx);
        let best = evals
            .iter()
            .max_by(|a, b| {
                a.efficiency
                    .efficiency
                    .partial_cmp(&b.efficiency.efficiency)
                    .unwrap()
            })
            .unwrap();
        assert!(
            best.estimated_stale_rate < 0.20,
            "most efficient level had {:.0}% staleness",
            best.estimated_stale_rate * 100.0
        );
    }

    #[test]
    fn decisions_are_recorded() {
        let mut b = BismarPolicy::with_default_pricing();
        assert!(b.last_decision().is_none());
        b.decide(&test_context(1_000.0, 100.0, 10.0));
        b.decide(&test_context(1_000.0, 100.0, 10.0));
        assert_eq!(b.last_decision().unwrap().evaluations.len(), 5);
        assert!(b.name().contains("bismar"));
    }

    #[test]
    fn expected_latency_jumps_when_leaving_the_local_dc() {
        let ctx = test_context(1_000.0, 100.0, 10.0);
        let local = BismarPolicy::expected_latency_ms(&ctx.profile, 1);
        let still_local = BismarPolicy::expected_latency_ms(&ctx.profile, 3);
        let remote = BismarPolicy::expected_latency_ms(&ctx.profile, 4);
        assert_eq!(local, still_local);
        assert!(
            remote > local * 3.0,
            "crossing the DC boundary must cost WAN latency"
        );
    }
}
