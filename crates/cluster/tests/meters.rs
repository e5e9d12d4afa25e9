//! The meters are a function of what was published.
//!
//! `ClusterMetrics` is the cluster's only meter sink: the staleness oracle
//! classifies reads and the replica stores hold copies, but neither counts
//! them. This property drives random mixed workloads — point reads, scans
//! and writes at random consistency levels, on 8 nodes over 2 datacenters,
//! under a short random fault script (a node down and back up, a datacenter
//! partition and its heal) — on one or two shards, with read repair on or
//! off and zero or one retry per timed-out operation. After draining, it
//! recomputes reads, writes, timeouts, stale reads, the staleness-depth sum
//! and both latency statistics from the published `CompletedOp`s alone and
//! asserts they equal `Cluster::metrics()`; that the bill's storage I/O is
//! the metered storage reads plus writes; and that `check_drained` holds
//! (every admitted operation completed exactly once).

use concord_cluster::{
    Cluster, ClusterConfig, ClusterOutput, CompletedOp, ConsistencyLevel, LatencyStats, OpKind,
    OpStatus, ReplicationStrategy,
};
use concord_cost::ResourceUsage;
use concord_sim::{DcId, NetworkModel, NodeId, RegionId, SimDuration, SimRng, SimTime, Topology};
use proptest::prelude::*;

const NODES: u32 = 8;
const KEYS: u64 = 64;
const OPS: u64 = 300;
const LEVELS: [ConsistencyLevel; 5] = [
    ConsistencyLevel::One,
    ConsistencyLevel::Two,
    ConsistencyLevel::Quorum,
    ConsistencyLevel::LocalQuorum,
    ConsistencyLevel::All,
];

/// One step of the fault script, applied when its tick fires.
#[derive(Debug, Clone, Copy)]
enum Fault {
    Down(NodeId),
    Up(NodeId),
    Partition,
    Heal,
}

impl Fault {
    fn apply(self, c: &mut Cluster) {
        match self {
            Fault::Down(n) => c.set_node_down(n),
            Fault::Up(n) => c.set_node_up(n),
            Fault::Partition => c.partition_dcs(DcId(0), DcId(1)),
            Fault::Heal => c.heal_dcs(DcId(0), DcId(1)),
        }
    }
}

/// What one run published, with the cluster it left behind.
struct Run {
    cluster: Cluster,
    published: Vec<CompletedOp>,
}

fn run(seed: u64, shards: u32, read_repair: bool, retries: u32, script_seed: u64) -> Run {
    let mut cfg = ClusterConfig::lan_test(NODES as usize, 3);
    cfg.topology = Topology::spread(
        NODES as usize,
        &[("dc-a", RegionId(0)), ("dc-b", RegionId(0))],
    );
    cfg.network = NetworkModel::grid5000_like();
    cfg.strategy = ReplicationStrategy::NetworkTopology;
    cfg.op_timeout = SimDuration::from_millis(40);
    cfg.read_repair = read_repair;
    cfg.retry_on_timeout = retries;
    cfg.shards = shards;
    let mut c = Cluster::new(cfg, seed);
    c.load_records((0..KEYS).map(|k| (k, 200)));

    // The workload: a fixed-size stream, one operation every 0–400 µs.
    let mut rng = SimRng::new(seed ^ 0x6d65_7465_7273);
    let mut at = SimTime::ZERO;
    for _ in 0..OPS {
        at += SimDuration::from_micros(rng.next_bounded(400));
        let key = rng.next_bounded(KEYS);
        let level = LEVELS[rng.next_bounded(LEVELS.len() as u64) as usize];
        match rng.next_bounded(10) {
            0..=4 => c.submit_read_with(key, level, at),
            5..=6 => c.submit_scan_with(key, 2 + rng.next_bounded(15) as u32, level, at),
            _ => c.submit_write_with(key, 100 + rng.next_bounded(400) as u32, level, at),
        };
    }

    // The fault script: each pair happens or not, at random instants
    // inside the workload's span, the repair after the fault.
    let span = at.as_micros().max(1);
    let mut script = Vec::new();
    let mut frng = SimRng::new(script_seed);
    let mut pair = |first: Fault, second: Fault, frng: &mut SimRng| {
        if frng.next_bounded(4) > 0 {
            let start = frng.next_bounded(span);
            let end = start + 1 + frng.next_bounded(span);
            script.push((start, first));
            script.push((end, second));
        }
    };
    let victim = NodeId(frng.next_bounded(NODES as u64) as u32);
    pair(Fault::Down(victim), Fault::Up(victim), &mut frng);
    pair(Fault::Partition, Fault::Heal, &mut frng);
    for (id, &(us, _)) in script.iter().enumerate() {
        c.schedule_tick(SimTime::from_micros(us), id as u64);
    }

    let mut published = Vec::new();
    while let Some(out) = c.advance() {
        match out {
            ClusterOutput::Completed(op) => published.push(op),
            ClusterOutput::Tick { id, .. } => script[id as usize].1.apply(&mut c),
        }
    }
    Run {
        cluster: c,
        published,
    }
}

/// Assert that `run`'s meters are what its published operations say.
fn check(run: &Run) {
    let c = &run.cluster;
    prop_assert_eq!(c.check_drained(), Ok(()));
    prop_assert_eq!(run.published.len() as u64, OPS, "each op publishes once");

    let mut expected = concord_cluster::ClusterMetrics::new();
    let mut read_latency = LatencyStats::new();
    let mut write_latency = LatencyStats::new();
    for op in &run.published {
        prop_assert_eq!(op.stale, op.staleness_depth > 0, "{:?}", op);
        prop_assert!(!op.stale || (op.kind == OpKind::Read && op.status == OpStatus::Ok));
        match op.kind {
            OpKind::Read => {
                expected.reads_completed += 1;
                read_latency.record(op.latency());
            }
            OpKind::Write => {
                expected.writes_completed += 1;
                write_latency.record(op.latency());
            }
        }
        expected.timeouts += (op.status == OpStatus::Timeout) as u64;
        expected.stale_reads += op.stale as u64;
        expected.staleness_depth_sum += op.staleness_depth as u64;
    }

    let m = c.metrics();
    prop_assert_eq!(m.reads_completed, expected.reads_completed);
    prop_assert_eq!(m.writes_completed, expected.writes_completed);
    prop_assert_eq!(m.timeouts, expected.timeouts);
    prop_assert_eq!(m.stale_reads, expected.stale_reads);
    prop_assert_eq!(m.staleness_depth_sum, expected.staleness_depth_sum);
    for (metered, recomputed) in [
        (&m.read_latency, &read_latency),
        (&m.write_latency, &write_latency),
    ] {
        prop_assert_eq!(metered.count(), recomputed.count());
        prop_assert_eq!(metered.mean_ms().to_bits(), recomputed.mean_ms().to_bits());
        prop_assert_eq!(metered.max_ms().to_bits(), recomputed.max_ms().to_bits());
    }

    let usage = ResourceUsage::from_cluster(c, c.now() - SimTime::ZERO);
    prop_assert_eq!(
        usage.storage_io_ops,
        m.storage_read_ops + m.storage_write_ops
    );
}

proptest! {
    #[test]
    fn the_meters_are_a_function_of_what_was_published(
        seed in any::<u64>(),
        shards in 1u32..3,
        read_repair in any::<bool>(),
        retries in 0u32..2,
        script_seed in any::<u64>(),
    ) {
        check(&run(seed, shards, read_repair, retries, script_seed));
    }
}

/// The property is not vacuous: over a handful of fixed runs under the
/// fault script, every meter it checks moves.
#[test]
fn the_runs_exercise_every_checked_meter() {
    let mut totals = concord_cluster::ClusterMetrics::new();
    for seed in 0..8 {
        let r = run(seed, 1 + (seed % 2) as u32, seed % 3 == 0, 1, seed);
        check(&r);
        totals.merge(&r.cluster.metrics());
    }
    assert!(totals.stale_reads > 0, "no stale read");
    assert!(totals.staleness_depth_sum > 0);
    assert!(totals.timeouts > 0, "no timeout");
    assert!(totals.retries > 0, "no retry");
    assert!(totals.storage_read_ops > 0 && totals.storage_write_ops > 0);
    assert!(totals.read_latency.count() > 0 && totals.write_latency.count() > 0);
}
