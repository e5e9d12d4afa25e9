//! Cross-crate property-based tests (proptest): invariants of the consistency
//! machinery that must hold for *any* workload mix, key distribution,
//! consistency level, cluster shape or monitored state.

use concord_cluster::{Cluster, ClusterConfig, ConsistencyLevel};
use concord_core::{ConsistencyPolicy, HarmonyPolicy};
use concord_sim::{RegionId, SimDuration, SimTime, Topology};
use concord_staleness::{AnalyticEstimator, LevelSolver, StaleReadEstimator, StalenessParams};
use proptest::prelude::*;

fn two_site_cluster(nodes: usize, rf: u32, seed: u64) -> Cluster {
    let mut cfg = ClusterConfig::lan_test(nodes, rf);
    cfg.topology = Topology::spread(nodes, &[("a", RegionId(0)), ("b", RegionId(0))]);
    cfg.network = concord_sim::NetworkModel::grid5000_like();
    cfg.strategy = concord_cluster::ReplicationStrategy::NetworkTopology;
    Cluster::new(cfg, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any interleaving of writes and reads over any keys, quorum reads
    /// combined with quorum writes (R + W > N) never return stale data.
    #[test]
    fn quorum_reads_are_never_stale(
        seed in 0u64..1_000,
        keys in 1u64..20,
        ops in 50u64..400,
        gap_us in 50u64..5_000,
    ) {
        let mut cluster = two_site_cluster(6, 5, seed);
        cluster.load_records((0..keys).map(|k| (k, 256)));
        cluster.set_levels(ConsistencyLevel::Quorum, ConsistencyLevel::Quorum);
        let mut at = SimTime::ZERO;
        for i in 0..ops {
            at += SimDuration::from_micros(gap_us);
            if i % 2 == 0 {
                cluster.submit_write_at(i % keys, 256, at);
            } else {
                cluster.submit_read_at(i % keys, at);
            }
        }
        cluster.run_to_completion(10_000_000);
        prop_assert_eq!(cluster.metrics().stale_reads, 0);
        prop_assert_eq!(cluster.metrics().timeouts, 0);
    }

    /// Reading every replica (ALL) is never stale either, no matter how weak
    /// the writes are.
    #[test]
    fn read_all_is_never_stale(
        seed in 0u64..1_000,
        keys in 1u64..10,
        ops in 50u64..300,
    ) {
        let mut cluster = two_site_cluster(6, 3, seed);
        cluster.load_records((0..keys).map(|k| (k, 128)));
        cluster.set_levels(ConsistencyLevel::All, ConsistencyLevel::One);
        let mut at = SimTime::ZERO;
        for i in 0..ops {
            at += SimDuration::from_micros(300);
            if i % 3 == 0 {
                cluster.submit_write_at(i % keys, 128, at);
            } else {
                cluster.submit_read_at(i % keys, at);
            }
        }
        cluster.run_to_completion(10_000_000);
        prop_assert_eq!(cluster.metrics().stale_reads, 0);
    }

    /// The analytic stale-read estimate is a probability, decreases (weakly)
    /// in the read level and increases (weakly) in the write rate.
    #[test]
    fn estimator_monotonicity(
        rf in 2u32..8,
        write_rate in 0.0f64..5_000.0,
        read_rate in 1.0f64..5_000.0,
        first_ms in 0.0f64..5.0,
        prop_ms in 0.0f64..200.0,
    ) {
        let est = AnalyticEstimator::new();
        let mut last = f64::INFINITY;
        for r in 1..=rf {
            let params = StalenessParams::basic(rf, r, 1, read_rate, write_rate, first_ms, prop_ms);
            let p = est.estimate(&params).stale_read_probability;
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!(p <= last + 1e-9, "level {r}: {p} > {last}");
            last = p;
        }
        // Doubling the write rate never decreases the estimate at level ONE.
        let base = StalenessParams::basic(rf, 1, 1, read_rate, write_rate, first_ms, prop_ms);
        let double = StalenessParams::basic(rf, 1, 1, read_rate, write_rate * 2.0, first_ms, prop_ms);
        prop_assert!(
            est.estimate(&double).stale_read_probability + 1e-9
                >= est.estimate(&base).stale_read_probability
        );
    }

    /// The level solver always returns a feasible, minimal level.
    #[test]
    fn solver_returns_minimal_feasible_level(
        rf in 2u32..8,
        write_rate in 0.0f64..3_000.0,
        prop_ms in 0.0f64..150.0,
        tolerance in 0.0f64..1.0,
    ) {
        let params = StalenessParams::basic(rf, 1, 1, 1_000.0, write_rate, 0.5, prop_ms);
        let solver = LevelSolver::new();
        let solution = solver.solve(&params, tolerance);
        prop_assert!(solution.read_level >= 1 && solution.read_level <= rf);
        let estimates = solver.estimate_all_levels(&params);
        // Every level below the chosen one must violate the tolerance.
        for level in 1..solution.read_level {
            prop_assert!(estimates[(level - 1) as usize] > tolerance);
        }
        // The chosen level satisfies it, unless even reading everything fails
        // (impossible under the model, but keep the guard symmetrical).
        prop_assert!(
            solution.estimated_stale_rate <= tolerance || solution.read_level == rf
        );
    }

    /// Harmony's decision is always a valid level and never exceeds the
    /// replication factor, whatever the monitor reports.
    #[test]
    fn harmony_decisions_are_always_valid(
        read_rate in 0.0f64..50_000.0,
        write_rate in 0.0f64..50_000.0,
        prop_ms in 0.0f64..500.0,
        tolerance in 0.0f64..1.0,
    ) {
        let mut harmony = HarmonyPolicy::with_tolerance(tolerance);
        let mut monitor = concord_monitor::AccessMonitor::default();
        let mut snapshot = monitor.snapshot(SimTime::from_secs(1));
        snapshot.read_rate = read_rate;
        snapshot.write_rate = write_rate;
        snapshot.propagation_time_ms = prop_ms;
        snapshot.first_write_time_ms = 0.5;
        snapshot.total_reads = 1 + read_rate as u64;
        snapshot.total_writes = 1 + write_rate as u64;
        let ctx = concord_core::PolicyContext {
            now: SimTime::from_secs(1),
            snapshot,
            profile: concord_core::ClusterProfile {
                replication_factor: 5,
                dc_count: 2,
                replicas_in_local_dc: 3,
                intra_dc_latency_ms: 0.5,
                inter_dc_latency_ms: 12.0,
                node_count: 10,
                record_size_bytes: 1_000,
                storage_service_ms: 0.3,
            },
        };
        let decision = harmony.decide(&ctx);
        let acks = decision.read.required_acks(5, 2);
        prop_assert!((1..=5).contains(&acks));
        let dec = harmony.last_decision().unwrap();
        prop_assert!(dec.estimated_stale_rate <= tolerance + 1e-9 || dec.read_replicas == 5);
    }

    /// Replica placement: for any key — under either partitioner — the
    /// replica set has exactly RF distinct nodes and is spread over both
    /// datacenters when RF ≥ 2 under NetworkTopologyStrategy.
    #[test]
    fn replica_placement_invariants(key in any::<u64>(), rf in 2u32..6) {
        let topo = Topology::spread(8, &[("a", RegionId(0)), ("b", RegionId(0))]);
        for partitioner in [
            concord_cluster::Partitioner::Hash,
            concord_cluster::Partitioner::Ordered,
        ] {
            let ring = concord_cluster::Ring::new(
                &topo,
                rf,
                concord_cluster::ReplicationStrategy::NetworkTopology,
                16,
                partitioner,
            );
            let replicas = ring.replicas(concord_cluster::Key(key));
            prop_assert_eq!(replicas.len(), rf as usize);
            let mut unique = replicas.clone();
            unique.sort();
            unique.dedup();
            prop_assert_eq!(unique.len(), rf as usize);
            let dc_a = replicas.iter().filter(|n| topo.dc_of(**n) == concord_sim::DcId(0)).count();
            prop_assert!(dc_a >= 1 && dc_a < rf as usize, "replicas must span both DCs");
        }
    }
}
