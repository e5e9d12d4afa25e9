//! Harmony: automated self-adaptive consistency (§III-A of the paper).
//!
//! Harmony *"monitors the storage system and data accesses in order to
//! estimate the stale reads rate in the system. Accordingly, it scales
//! up/down the consistency level to preserve a stale rate tolerated by the
//! application. Meanwhile, performance and availability are favored as long
//! as the application requirements are not violated."*
//!
//! The controller is the paper's "adaptive consistency module": at every
//! adaptation step it
//!
//! 1. reads the monitor snapshot (read rate λr, write rate λw, time to write
//!    the first replica `T`, total propagation time `Tp`),
//! 2. estimates the stale-read rate at consistency level ONE using the
//!    probabilistic model of `concord-staleness`,
//! 3. if the estimate is within the application's tolerated stale-read rate,
//!    selects the basic level ONE (best performance/availability);
//!    otherwise computes the **smallest** number of involved replicas that
//!    brings the estimate back under the tolerance.

use crate::policy::{ConsistencyPolicy, LevelDecision, PolicyContext};
use concord_cluster::ConsistencyLevel;
use concord_staleness::{LevelSolver, StalenessParams};
use serde::{Deserialize, Serialize};

/// Configuration of the Harmony controller: the application's tolerance.
///
/// The write level and the floor on the propagation time are constants of
/// the staleness model, not settings (`PolicyContext::staleness_params` owns
/// both): the paper's Cassandra runs write at ONE and tune only reads, and
/// the 0.1 ms floor on `Tp` keeps a cold monitor (no propagation sample yet)
/// from making Harmony overly optimistic. Configs written while the two were
/// fields still load; the retired fields are ignored.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HarmonyConfig {
    /// The application's tolerated stale-read rate (fraction of reads, e.g.
    /// 0.2 for the paper's "20%" Grid'5000 experiment).
    pub tolerated_stale_rate: f64,
}

impl Default for HarmonyConfig {
    fn default() -> Self {
        HarmonyConfig::with_tolerance(0.05)
    }
}

impl HarmonyConfig {
    /// A Harmony configuration with the given tolerated stale-read rate.
    pub fn with_tolerance(tolerated_stale_rate: f64) -> Self {
        HarmonyConfig {
            tolerated_stale_rate,
        }
    }
}

/// One decision made by Harmony, kept for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HarmonyDecision {
    /// The number of replicas reads will involve.
    pub read_replicas: u32,
    /// The estimated stale-read rate at that level.
    pub estimated_stale_rate: f64,
    /// The estimated stale-read rate if level ONE had been kept.
    pub estimated_stale_rate_at_one: f64,
}

/// The Harmony adaptive consistency controller.
#[derive(Debug, Clone)]
pub struct HarmonyPolicy {
    config: HarmonyConfig,
    solver: LevelSolver,
    decisions: Vec<HarmonyDecision>,
}

impl HarmonyPolicy {
    /// Create a Harmony controller.
    pub fn new(config: HarmonyConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.tolerated_stale_rate),
            "tolerated stale rate must be a fraction"
        );
        HarmonyPolicy {
            config,
            solver: LevelSolver::new(),
            decisions: Vec::new(),
        }
    }

    /// Shorthand: Harmony with a tolerated stale-read rate.
    pub fn with_tolerance(tolerated_stale_rate: f64) -> Self {
        Self::new(HarmonyConfig::with_tolerance(tolerated_stale_rate))
    }

    /// The controller's configuration.
    pub fn config(&self) -> &HarmonyConfig {
        &self.config
    }

    /// The most recent decision (if any).
    pub fn last_decision(&self) -> Option<HarmonyDecision> {
        self.decisions.last().copied()
    }

    /// Every decision made so far (one per adaptation step).
    pub fn decisions(&self) -> &[HarmonyDecision] {
        &self.decisions
    }

    /// Build the staleness-model parameters of reading one replica from a
    /// monitor snapshot (the builder the controllers share, on
    /// `PolicyContext`): writes at ONE, and the monitored propagation time
    /// above its floor as the paper's single constant `Tp` (Figure 1).
    pub fn staleness_params(&self, ctx: &PolicyContext) -> StalenessParams {
        ctx.staleness_params(1)
    }
}

impl ConsistencyPolicy for HarmonyPolicy {
    fn name(&self) -> String {
        format!(
            "harmony(tolerance={:.0}%)",
            self.config.tolerated_stale_rate * 100.0
        )
    }

    fn decide(&mut self, ctx: &PolicyContext) -> LevelDecision {
        // Cold start: before the monitor has observed any traffic there is no
        // basis for an estimate, so Harmony starts from a conservative quorum
        // read level and relaxes as soon as measurements arrive (performance
        // is favoured only once it is known not to violate the requirement).
        if ctx.snapshot.total_reads == 0 && ctx.snapshot.total_writes == 0 {
            let quorum = ctx.profile.replication_factor / 2 + 1;
            let decision = HarmonyDecision {
                read_replicas: quorum,
                estimated_stale_rate: 0.0,
                estimated_stale_rate_at_one: 0.0,
            };
            self.decisions.push(decision);
            return LevelDecision {
                read: ConsistencyLevel::from_replica_count(quorum, ctx.profile.replication_factor),
                write: PolicyContext::WRITE_LEVEL,
            };
        }
        let params = self.staleness_params(ctx);
        let estimates = self.solver.estimate_all_levels(&params);
        let solution = self.solver.solve(&params, self.config.tolerated_stale_rate);
        let decision = HarmonyDecision {
            read_replicas: solution.read_level,
            estimated_stale_rate: solution.estimated_stale_rate,
            estimated_stale_rate_at_one: estimates.first().copied().unwrap_or(0.0),
        };
        self.decisions.push(decision);

        let read = if solution.read_level == 1 {
            ConsistencyLevel::One
        } else {
            ConsistencyLevel::from_replica_count(
                solution.read_level,
                ctx.profile.replication_factor,
            )
        };
        LevelDecision {
            read,
            write: PolicyContext::WRITE_LEVEL,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::tests::test_context;

    #[test]
    fn light_write_load_keeps_level_one() {
        // Few writes, fast propagation → even a tight tolerance allows ONE.
        let mut h = HarmonyPolicy::with_tolerance(0.10);
        let ctx = test_context(1_000.0, 2.0, 2.0);
        let d = h.decide(&ctx);
        assert_eq!(d.read, ConsistencyLevel::One);
        assert_eq!(d.write, ConsistencyLevel::One);
        let dec = h.last_decision().unwrap();
        assert!(dec.estimated_stale_rate <= 0.10);
        assert_eq!(dec.read_replicas, 1);
    }

    #[test]
    fn heavy_writes_scale_the_level_up() {
        let mut h = HarmonyPolicy::with_tolerance(0.05);
        // 2000 writes/s with 40 ms propagation: almost every read would be stale at ONE.
        let ctx = test_context(4_000.0, 2_000.0, 40.0);
        let d = h.decide(&ctx);
        let dec = h.last_decision().unwrap();
        assert!(
            dec.read_replicas > 1,
            "expected more than one replica, got {dec:?}"
        );
        assert!(dec.estimated_stale_rate_at_one > 0.5);
        assert_ne!(d.read, ConsistencyLevel::One);
    }

    #[test]
    fn looser_tolerance_never_needs_more_replicas() {
        let ctx = test_context(4_000.0, 800.0, 30.0);
        let mut strict = HarmonyPolicy::with_tolerance(0.05);
        let mut loose = HarmonyPolicy::with_tolerance(0.40);
        strict.decide(&ctx);
        loose.decide(&ctx);
        assert!(
            loose.last_decision().unwrap().read_replicas
                <= strict.last_decision().unwrap().read_replicas
        );
    }

    #[test]
    fn decisions_adapt_to_changing_conditions() {
        let mut h = HarmonyPolicy::with_tolerance(0.10);
        // Quiet phase → ONE.
        let quiet = h.decide(&test_context(500.0, 5.0, 5.0));
        // Burst of writes → stronger.
        let busy = h.decide(&test_context(4_000.0, 2_000.0, 50.0));
        // Back to quiet → ONE again (Harmony scales *down* too).
        let calm = h.decide(&test_context(500.0, 5.0, 5.0));
        assert_eq!(quiet.read, ConsistencyLevel::One);
        assert_ne!(busy.read, ConsistencyLevel::One);
        assert_eq!(calm.read, ConsistencyLevel::One);
        assert_eq!(h.decisions().len(), 3);
    }

    #[test]
    fn cold_monitor_starts_conservatively() {
        let mut h = HarmonyPolicy::with_tolerance(0.01);
        let ctx = test_context(0.0, 0.0, 0.0);
        let d = h.decide(&ctx);
        // No measurements yet → quorum reads until the monitor warms up.
        assert_eq!(d.read, ConsistencyLevel::Quorum);
        assert_eq!(h.last_decision().unwrap().read_replicas, 3);
    }

    #[test]
    fn name_mentions_the_tolerance() {
        assert_eq!(
            HarmonyPolicy::with_tolerance(0.4).name(),
            "harmony(tolerance=40%)"
        );
    }

    #[test]
    fn zero_tolerance_reads_strongly() {
        let mut h = HarmonyPolicy::with_tolerance(0.0);
        let ctx = test_context(1_000.0, 500.0, 30.0);
        let d = h.decide(&ctx);
        // With RF 5 and writes at ONE, only reading every replica guarantees
        // zero staleness under the model.
        assert_eq!(d.read, ConsistencyLevel::All);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn invalid_tolerance_rejected() {
        HarmonyPolicy::with_tolerance(1.5);
    }

    #[test]
    fn retired_config_fields_still_load() {
        // Configs written before a knob was deleted keep loading: the
        // retired field is ignored and everything else reads back as written.
        fn with_retired<T: Serialize>(config: &T, fields: &str) -> String {
            let json = serde_json::to_string(config).unwrap();
            format!("{{{fields},{}", &json[1..])
        }
        let harmony = HarmonyConfig::with_tolerance(0.3);
        let json = with_retired(
            &harmony,
            r#""deterministic_propagation":false,"write_level":"Quorum","min_propagation_ms":5.0"#,
        );
        assert_eq!(
            serde_json::from_str::<HarmonyConfig>(&json).unwrap(),
            harmony
        );

        let bismar = crate::BismarConfig::default();
        let json = with_retired(
            &bismar,
            r#""write_level":"One","stale_rate_cap":0.05,"min_propagation_ms":0.1"#,
        );
        assert_eq!(
            serde_json::from_str::<crate::BismarConfig>(&json).unwrap(),
            bismar
        );

        let workload = concord_workload::presets::ycsb_a();
        let json = with_retired(
            &workload,
            r#""zipfian_constant":0.5,"hotspot_data_fraction":0.1,"hotspot_opn_fraction":0.9"#,
        );
        let loaded: concord_workload::WorkloadConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(loaded, workload);

        let monitor = concord_monitor::MonitorConfig::default();
        let json = with_retired(&monitor, r#""latency_alpha":0.5"#);
        let loaded: concord_monitor::MonitorConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(loaded, monitor);
    }
}
