//! Every lookahead window closes once, and the close is exact.
//!
//! The sharded engine ends each window by delivering the staged cross-shard
//! messages, recording the window's write acks in the oracle, classifying
//! its completed reads and publishing its outputs. This suite pins what that
//! buys:
//!
//! * **The stale flag is ground truth.** A read is stale exactly when it
//!   returned a version older than the newest one among its key's writes
//!   acknowledged strictly before the read was issued. The check recomputes
//!   that from the output stream alone — the acknowledged writes' completion
//!   times and versions — for *every* read of the golden weak-consistency
//!   run at 1, 2 and 4 shards, and as a property over random seeds, shard
//!   counts, key counts and arrival gaps. Hot keys matter: the oracle keeps
//!   a bounded ack history per key, so a close that let acks pile up over
//!   many windows would classify reads against a history that had already
//!   lost their entries.
//! * **Counters**: a run with a long idle gap fast-forwards across it, and
//!   a serial (`shards = 1`) run never touches the window counters.

use concord_cluster::{
    BatchOp, Cluster, ClusterConfig, ConsistencyLevel, Key, OpKind, OpStatus, ReplicationStrategy,
    Version,
};
use concord_sim::{NetworkModel, RegionId, SimDuration, SimTime, Topology};
use proptest::prelude::*;
use std::collections::HashMap;

/// The cluster of `golden_geo_weak_consistency_run`: 6 nodes over 2 sites,
/// RF 5, read repair on (DC-aligned shard cut at `shards = 2`).
fn geo_cluster(seed: u64, shards: u32) -> Cluster {
    let mut cfg = ClusterConfig::lan_test(6, 5);
    cfg.topology = Topology::spread(
        6,
        &[("site-rennes", RegionId(0)), ("site-sophia", RegionId(0))],
    );
    cfg.network = NetworkModel::grid5000_like();
    cfg.strategy = ReplicationStrategy::NetworkTopology;
    cfg.read_repair = true;
    cfg.shards = shards;
    Cluster::new(cfg, seed)
}

/// Load `keys` records, then alternate write → read over them at level ONE,
/// one operation every `gap` — the Figure-1 situation.
fn weak_churn(c: &mut Cluster, ops: u64, keys: u64, gap: SimDuration) {
    c.load_records((0..keys).map(|k| (k, 200)));
    c.set_levels(ConsistencyLevel::One, ConsistencyLevel::One);
    let mut at = SimTime::ZERO;
    for i in 0..ops {
        at += gap;
        if i % 2 == 0 {
            c.submit_write_at((i / 2) % keys, 200, at);
        } else {
            c.submit_read_at((i / 2) % keys, at);
        }
    }
}

/// Drain the run and check every read's stale flag against the definition,
/// recomputed from the output stream alone; returns `(reads, stale reads)`.
/// The preloaded version needs no entry: every replica holds it, so no read
/// returns less.
fn check_stale_flags(c: &mut Cluster) -> (u64, u64) {
    let done = c.run_to_completion(u64::MAX);
    assert_eq!(c.check_drained(), Ok(()));
    let mut acked: HashMap<Key, Vec<(SimTime, Version)>> = HashMap::new();
    for op in done.iter().filter(|op| op.kind == OpKind::Write) {
        assert_eq!(op.status, OpStatus::Ok, "a healthy run times nothing out");
        acked
            .entry(op.key)
            .or_default()
            .push((op.completed_at, op.returned_version));
    }
    let (mut reads, mut stale) = (0u64, 0u64);
    for op in done.iter().filter(|op| op.kind == OpKind::Read) {
        assert_eq!(op.status, OpStatus::Ok, "a healthy run times nothing out");
        let newest = acked
            .get(&op.key)
            .into_iter()
            .flatten()
            .filter(|&&(acked_at, _)| acked_at < op.issued_at)
            .map(|&(_, version)| version)
            .max()
            .unwrap_or(Version::NONE);
        assert_eq!(
            op.stale,
            op.returned_version < newest,
            "{} shards: read of {} issued at {}us returned {:?}, newest acknowledged before it {:?}",
            c.shards(),
            op.key,
            op.issued_at.as_micros(),
            op.returned_version,
            newest
        );
        reads += 1;
        stale += op.stale as u64;
    }
    assert_eq!(
        c.metrics().stale_reads,
        stale,
        "the meters count exactly the reads the oracle flagged"
    );
    (reads, stale)
}

/// The golden weak run (2 000 writes + 2 000 reads over 20 keys, one every
/// 500 µs): the stale flag of every read is exact under every engine mode.
#[test]
fn every_stale_flag_of_the_golden_weak_run_is_exact() {
    for shards in [1u32, 2, 4] {
        let mut c = geo_cluster(7, shards);
        weak_churn(&mut c, 4_000, 20, SimDuration::from_micros(500));
        let (reads, stale) = check_stale_flags(&mut c);
        assert_eq!(reads, 2_000);
        assert!(
            stale > 0,
            "{shards} shards: level ONE must observe staleness"
        );
    }
}

proptest! {
    /// The same property on a healthy sharded cluster for any seed, shard
    /// count, key count (down to one hot key) and arrival gap. The oracle
    /// retains the last 64 acks of a key, so the domain stops where one key
    /// could collect that many between a read's issue and the close that
    /// classifies it: a key is written at most every 800 µs, about 15 times
    /// per 12 ms window of the two-site cut.
    #[test]
    fn stale_flags_are_exact_on_the_sharded_engine(
        seed in 0u64..u64::MAX,
        four_shards in any::<bool>(),
        keys in 1u64..40,
        gap_us in 40u64..1_200,
    ) {
        let gap_us = gap_us.max(400 / keys + 1);
        let mut c = geo_cluster(seed, if four_shards { 4 } else { 2 });
        weak_churn(&mut c, 1_200, keys, SimDuration::from_micros(gap_us));
        // Output does not depend on the worker-thread count
        // (`sharded_determinism.rs`); one thread spares a spawn per window.
        let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let (reads, _) = pool.install(|| check_stale_flags(&mut c));
        prop_assert_eq!(reads, 600);
    }
}

/// Two bursts separated by a long idle gap: the engine must jump across the
/// gap instead of marching barrier-by-barrier through empty simulated time.
#[test]
fn quiet_periods_fast_forward() {
    let mut cfg = ClusterConfig::lan_test(6, 3);
    cfg.shards = 2;
    let mut c = Cluster::new(cfg, 7);
    c.load_records((0..32u64).map(|k| (k, 120)));
    let burst = |start_us: u64| {
        (0..400u64).map(move |i| {
            let t = SimTime::from_micros(start_us + i * 250);
            if i % 2 == 0 {
                BatchOp::write(t, i % 32, 120)
            } else {
                BatchOp::read(t, i % 32)
            }
        })
    };
    // Two bursts, 5 simulated seconds of silence in between.
    c.submit_batch(burst(0).chain(burst(5_000_000)).collect::<Vec<_>>());
    assert_eq!(c.run_to_completion(u64::MAX).len(), 800);
    assert_eq!(c.check_drained(), Ok(()));
    let m = c.shard_metrics();
    assert!(m.windows > 0);
    assert!(
        m.fast_forwards > 0,
        "the idle gap must be crossed by a cursor jump, not barrier-by-barrier"
    );
}

/// The serial engine never windows: its counters must be exactly zero.
#[test]
fn serial_runs_report_zero_window_counters() {
    let mut cfg = ClusterConfig::lan_test(5, 3);
    cfg.shards = 1;
    let mut c = Cluster::new(cfg, 7);
    c.load_records((0..16u64).map(|k| (k, 120)));
    let mut at = SimTime::ZERO;
    for i in 0..500u64 {
        at += SimDuration::from_micros(300);
        if i % 2 == 0 {
            c.submit_write_at(i % 16, 120, at);
        } else {
            c.submit_read_at(i % 16, at);
        }
    }
    assert_eq!(c.run_to_completion(u64::MAX).len(), 500);
    assert_eq!(c.check_drained(), Ok(()));
    assert_eq!(
        c.shard_metrics(),
        concord_sim::ShardMetrics::default(),
        "the serial path must bypass window bookkeeping entirely"
    );
}
