//! The consistency-policy framework.
//!
//! A [`ConsistencyPolicy`] is a pull-based controller: the adaptive runtime
//! invokes [`ConsistencyPolicy::decide`] every adaptation interval with a
//! [`PolicyContext`] (the monitor snapshot plus a static description of the
//! cluster) and applies the returned [`LevelDecision`] to the live cluster.
//! Static levels, Harmony, Bismar, the geographic policy and the
//! behavior-model-driven policy all implement this trait, so experiments and
//! downstream users can swap them freely.

use concord_cluster::{Cluster, ConsistencyLevel};
use concord_monitor::MonitorSnapshot;
use concord_sim::{DelayDistribution, SimTime};
use concord_staleness::StalenessParams;
use serde::{Deserialize, Serialize};

/// Static facts about the deployed cluster that policies may use.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterProfile {
    /// Replication factor.
    pub replication_factor: u32,
    /// Number of datacenters.
    pub dc_count: u32,
    /// Replicas of a key located in the coordinator's datacenter
    /// (⌈RF / DCs⌉ under `NetworkTopologyStrategy`).
    pub replicas_in_local_dc: u32,
    /// Mean one-way intra-datacenter latency in milliseconds.
    pub intra_dc_latency_ms: f64,
    /// Mean one-way inter-datacenter latency in milliseconds.
    pub inter_dc_latency_ms: f64,
    /// Total number of storage nodes (VM instances).
    pub node_count: u32,
    /// Mean record payload size in bytes.
    pub record_size_bytes: u32,
    /// Mean replica-local storage service time in milliseconds.
    pub storage_service_ms: f64,
}

impl ClusterProfile {
    /// Extract the profile of a live cluster. `record_size_bytes` comes from
    /// the workload configuration (the cluster does not know it a priori).
    pub fn from_cluster(cluster: &Cluster, record_size_bytes: u32) -> Self {
        let cfg = cluster.config();
        let rf = cfg.replication_factor;
        let dc_count = cfg.dc_count().max(1);
        let node_count = cfg.topology.node_count();
        // The link classes' mean delays: one datacenter has no inter-DC
        // link, and one node talks only to itself.
        let mut intra = cfg.network.intra_dc.mean_ms();
        let mut inter = cfg.network.inter_dc.mean_ms();
        if dc_count == 1 {
            inter = intra;
        }
        if node_count < 2 {
            intra = cfg.network.local.mean_ms();
            inter = intra;
        }
        ClusterProfile {
            replication_factor: rf,
            dc_count,
            replicas_in_local_dc: rf.div_ceil(dc_count),
            intra_dc_latency_ms: intra,
            inter_dc_latency_ms: inter,
            node_count: node_count as u32,
            record_size_bytes,
            storage_service_ms: (cfg.storage_read_latency.mean_ms()
                + cfg.storage_write_latency.mean_ms())
                / 2.0,
        }
    }
}

/// Everything a policy sees when making a decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyContext {
    /// The time of the decision.
    pub now: SimTime,
    /// The most recent monitoring snapshot.
    pub snapshot: MonitorSnapshot,
    /// Static description of the cluster.
    pub profile: ClusterProfile,
}

impl PolicyContext {
    /// The write level the staleness model assumes, and the one Harmony and
    /// Bismar keep while they tune reads: the paper's Cassandra runs write
    /// at ONE and tune only the read level.
    pub(crate) const WRITE_LEVEL: ConsistencyLevel = ConsistencyLevel::One;

    /// Floor on the monitored propagation time `Tp`, in ms: a cold monitor
    /// has no propagation sample yet, and a zero `Tp` would leave no
    /// staleness window and make the estimate falsely optimistic.
    pub(crate) const MIN_PROPAGATION_MS: f64 = 0.1;

    /// The staleness-model inputs Harmony and Bismar estimate from — the
    /// paper's Figure 1 quantities: the snapshot's read and write rates, the
    /// replication factor, `read_level` replicas read, writes at
    /// [`WRITE_LEVEL`](Self::WRITE_LEVEL), and the monitored propagation time
    /// as one constant delay `Tp`, floored at
    /// [`MIN_PROPAGATION_MS`](Self::MIN_PROPAGATION_MS) and capping the
    /// first-write time `T`.
    pub(crate) fn staleness_params(&self, read_level: u32) -> StalenessParams {
        let profile = &self.profile;
        let prop_ms = self
            .snapshot
            .propagation_time_ms
            .max(Self::MIN_PROPAGATION_MS);
        StalenessParams {
            n_replicas: profile.replication_factor,
            read_level,
            write_level: Self::WRITE_LEVEL
                .required_acks(profile.replication_factor, profile.dc_count),
            read_rate: self.snapshot.read_rate,
            write_rate: self.snapshot.write_rate,
            first_write_ms: self.snapshot.first_write_time_ms.max(0.0).min(prop_ms),
            propagation: DelayDistribution::Constant { ms: prop_ms },
        }
    }
}

/// The levels a policy wants the cluster to use from now on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelDecision {
    /// Read consistency level.
    pub read: ConsistencyLevel,
    /// Write consistency level.
    pub write: ConsistencyLevel,
}

impl LevelDecision {
    /// Eventual consistency: both reads and writes involve a single replica.
    pub fn eventual() -> Self {
        LevelDecision {
            read: ConsistencyLevel::One,
            write: ConsistencyLevel::One,
        }
    }

    /// Strong consistency through read-all (the static "strong" baseline the
    /// paper compares Harmony against in Cassandra: CL = ALL for reads).
    pub fn strong_read_all() -> Self {
        LevelDecision {
            read: ConsistencyLevel::All,
            write: ConsistencyLevel::One,
        }
    }

    /// Strong consistency through overlapping quorums.
    pub fn quorum() -> Self {
        LevelDecision {
            read: ConsistencyLevel::Quorum,
            write: ConsistencyLevel::Quorum,
        }
    }

    /// Apply the decision to a cluster.
    pub fn apply(self, cluster: &mut Cluster) {
        cluster.set_levels(self.read, self.write);
    }
}

/// A runtime-adjustable consistency policy.
pub trait ConsistencyPolicy: Send {
    /// Short human-readable name (used in reports and tables).
    fn name(&self) -> String;

    /// Decide the consistency levels to use from `ctx.now` on.
    fn decide(&mut self, ctx: &PolicyContext) -> LevelDecision;

    /// Whether the policy ever changes its decision (static policies return
    /// `false` so the runtime can skip needless re-application).
    fn is_adaptive(&self) -> bool {
        true
    }
}

/// A fixed-level policy (the paper's static baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticPolicy {
    decision: LevelDecision,
    label: &'static str,
}

impl StaticPolicy {
    /// Static eventual consistency (Cassandra level ONE).
    pub fn eventual() -> Self {
        StaticPolicy {
            decision: LevelDecision::eventual(),
            label: "static-eventual(ONE)",
        }
    }

    /// Static strong consistency via read-ALL.
    pub fn strong() -> Self {
        StaticPolicy {
            decision: LevelDecision::strong_read_all(),
            label: "static-strong(ALL)",
        }
    }

    /// Static strong consistency via quorum reads and writes.
    pub fn quorum() -> Self {
        StaticPolicy {
            decision: LevelDecision::quorum(),
            label: "static-quorum",
        }
    }

    /// An arbitrary fixed pair of levels.
    pub fn fixed(read: ConsistencyLevel, write: ConsistencyLevel) -> Self {
        StaticPolicy {
            decision: LevelDecision { read, write },
            label: "static-fixed",
        }
    }

    /// The decision this policy always returns.
    pub fn decision(&self) -> LevelDecision {
        self.decision
    }
}

impl ConsistencyPolicy for StaticPolicy {
    fn name(&self) -> String {
        if self.label == "static-fixed" {
            format!("static({}/{})", self.decision.read, self.decision.write)
        } else {
            self.label.to_string()
        }
    }

    fn decide(&mut self, _ctx: &PolicyContext) -> LevelDecision {
        self.decision
    }

    fn is_adaptive(&self) -> bool {
        false
    }
}

/// A DC-aware static policy: keeps both reads and writes inside the local
/// datacenter quorum, trading cross-DC freshness for WAN-free latencies.
/// This is one of the "geographical policies" the behavior-modeling
/// contribution can associate with application states.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeographicPolicy;

impl ConsistencyPolicy for GeographicPolicy {
    fn name(&self) -> String {
        "geographic(LOCAL_QUORUM)".to_string()
    }

    fn decide(&mut self, _ctx: &PolicyContext) -> LevelDecision {
        LevelDecision {
            read: ConsistencyLevel::LocalQuorum,
            write: ConsistencyLevel::LocalQuorum,
        }
    }

    fn is_adaptive(&self) -> bool {
        false
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use concord_cluster::ClusterConfig;
    use concord_monitor::AccessMonitor;

    pub(crate) fn test_context(read_rate: f64, write_rate: f64, prop_ms: f64) -> PolicyContext {
        let mut monitor = AccessMonitor::default();
        let snapshot = {
            let mut s = monitor.snapshot(SimTime::from_secs(1));
            s.read_rate = read_rate;
            s.write_rate = write_rate;
            s.propagation_time_ms = prop_ms;
            s.first_write_time_ms = 1.0;
            // Pretend the monitor has been observing this traffic for 10 s so
            // policies do not take their cold-start path.
            s.total_reads = (read_rate * 10.0) as u64;
            s.total_writes = (write_rate * 10.0) as u64;
            s
        };
        PolicyContext {
            now: SimTime::from_secs(1),
            snapshot,
            profile: ClusterProfile {
                replication_factor: 5,
                dc_count: 2,
                replicas_in_local_dc: 3,
                intra_dc_latency_ms: 0.5,
                inter_dc_latency_ms: 12.0,
                node_count: 18,
                record_size_bytes: 1_000,
                storage_service_ms: 0.3,
            },
        }
    }

    #[test]
    fn static_policies_never_change() {
        let ctx_a = test_context(100.0, 10.0, 10.0);
        let ctx_b = test_context(10_000.0, 5_000.0, 200.0);
        let mut p = StaticPolicy::eventual();
        assert_eq!(p.decide(&ctx_a), p.decide(&ctx_b));
        assert!(!p.is_adaptive());
        assert_eq!(p.decide(&ctx_a), LevelDecision::eventual());

        let mut strong = StaticPolicy::strong();
        assert_eq!(strong.decide(&ctx_a).read, ConsistencyLevel::All);
        let mut quorum = StaticPolicy::quorum();
        assert_eq!(quorum.decide(&ctx_a), LevelDecision::quorum());
    }

    #[test]
    fn policy_names_are_descriptive() {
        assert!(StaticPolicy::eventual().name().contains("eventual"));
        assert!(StaticPolicy::strong().name().contains("strong"));
        assert!(
            StaticPolicy::fixed(ConsistencyLevel::Two, ConsistencyLevel::One)
                .name()
                .contains("TWO")
        );
        assert!(GeographicPolicy.name().contains("LOCAL_QUORUM"));
    }

    #[test]
    fn geographic_policy_uses_local_quorum() {
        let mut p = GeographicPolicy;
        let d = p.decide(&test_context(10.0, 10.0, 5.0));
        assert_eq!(d.read, ConsistencyLevel::LocalQuorum);
        assert_eq!(d.write, ConsistencyLevel::LocalQuorum);
    }

    #[test]
    fn decision_applies_to_cluster() {
        let mut cluster = Cluster::new(ClusterConfig::lan_test(5, 3), 1);
        LevelDecision::quorum().apply(&mut cluster);
        assert_eq!(cluster.read_level(), ConsistencyLevel::Quorum);
        assert_eq!(cluster.write_level(), ConsistencyLevel::Quorum);
    }

    #[test]
    fn profile_from_cluster_reads_config() {
        let cluster = Cluster::new(ClusterConfig::lan_test(6, 3), 1);
        let profile = ClusterProfile::from_cluster(&cluster, 1_000);
        assert_eq!(profile.replication_factor, 3);
        assert_eq!(profile.node_count, 6);
        assert_eq!(profile.dc_count, 1);
        assert_eq!(profile.replicas_in_local_dc, 3);
        assert_eq!(profile.record_size_bytes, 1_000);
        assert!(profile.intra_dc_latency_ms > 0.0);
        assert!(profile.storage_service_ms > 0.0);
    }
}
