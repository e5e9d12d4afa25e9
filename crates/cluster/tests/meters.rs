//! The meters are a function of what was published.
//!
//! `ClusterMetrics` is the cluster's only meter sink: the staleness oracle
//! classifies reads and the replica stores hold copies, but neither counts
//! them. This property drives random mixed workloads — point reads, scans
//! and writes at random consistency levels, on 8 nodes over 2 datacenters,
//! under a short random fault script (each kind of `FaultAction` paired
//! with the action that lifts it: down/up, crash/recover, partition/heal,
//! degrade/restore, slow/restore, dc-down/dc-up) — on one or two shards,
//! with read repair on or off, zero or one retry per timed-out operation,
//! the repair plane off or full and the resilience layer off or on. Faults
//! and retries need the one-shard engine, so a 2-shard draw runs with no
//! fault script and no retry. After
//! draining, it recomputes reads, writes, timeouts, stale reads, the
//! staleness-depth sum and both latency statistics from the published
//! `CompletedOp`s alone and asserts they equal `Cluster::metrics()`; that
//! the bill's storage I/O is the metered storage reads plus writes; that
//! every scheduled fault was injected; and that `check_drained` holds
//! (every admitted operation completed exactly once).

use concord_cluster::{
    BatchOp, Cluster, ClusterConfig, CompletedOp, ConsistencyLevel, FaultAction, LatencyStats,
    OpKind, OpStatus, RepairConfig, RepairMode, ReplicaSelection, ReplicationStrategy,
};
use concord_cost::ResourceUsage;
use concord_sim::{LinkClass, NetworkModel, RegionId, SimDuration, SimRng, SimTime, Topology};
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

/// The planes a run turns on besides the data path.
#[derive(Debug, Clone, Copy)]
struct Planes {
    read_repair: bool,
    retries: u32,
    repair: RepairMode,
    /// Hedged reads after 2 ms, dynamic replica selection and backoff.
    resilience: bool,
}

/// What one run published, with the cluster it left behind and the number
/// of faults it scheduled.
struct Run {
    cluster: Cluster,
    published: Vec<CompletedOp>,
    scheduled: u64,
}

/// The fault script: each pair happens or not, at random instants inside
/// the workload's span `[0, span)` µs, the lifting action after the fault.
fn fault_script(script_seed: u64, span: u64) -> Vec<(SimTime, FaultAction)> {
    use FaultAction::*;
    let mut frng = SimRng::new(script_seed);
    let node = |frng: &mut SimRng| frng.next_bounded(NODES as u64) as u32;
    let (n1, n2, n3) = (node(&mut frng), node(&mut frng), node(&mut frng));
    let class = [LinkClass::IntraDc, LinkClass::InterDc][frng.next_bounded(2) as usize];
    let degrade = 1.0 + frng.next_bounded(8) as f64;
    let slow = 1.0 + frng.next_bounded(20) as f64;
    let dc = frng.next_bounded(2) as u16;
    let pairs = [
        (NodeDown(n1), NodeUp(n1)),
        (CrashNode(n2), RecoverNode(n2)),
        (PartitionDcs(0, 1), HealDcs(0, 1)),
        (DegradeLink(class, degrade), RestoreLink(class)),
        (SlowNode(n3, slow), RestoreNode(n3)),
        (DcDown(dc), DcUp(dc)),
    ];
    let mut script = Vec::new();
    for (fault, lift) in pairs {
        if frng.next_bounded(4) > 0 {
            let start = frng.next_bounded(span);
            let end = start + 1 + frng.next_bounded(span);
            script.push((SimTime::from_micros(start), fault));
            script.push((SimTime::from_micros(end), lift));
        }
    }
    script
}

fn run(seed: u64, shards: u32, planes: Planes, script_seed: u64) -> Run {
    let serial = shards == 1;
    let mut cfg = ClusterConfig::lan_test(NODES as usize, 3);
    cfg.topology = Topology::spread(
        NODES as usize,
        &[("dc-a", RegionId(0)), ("dc-b", RegionId(0))],
    );
    cfg.network = NetworkModel::grid5000_like();
    cfg.strategy = ReplicationStrategy::NetworkTopology;
    cfg.op_timeout = SimDuration::from_millis(40);
    cfg.read_repair = planes.read_repair;
    cfg.retry_on_timeout = if serial { planes.retries } else { 0 };
    cfg.repair = RepairConfig::with_mode(planes.repair);
    if planes.resilience {
        cfg.resilience.hedge_delay = SimDuration::from_millis(2);
        cfg.resilience.backoff = true;
        cfg.read_selection = ReplicaSelection::Dynamic;
    }
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
        let op = match rng.next_bounded(10) {
            0..=4 => BatchOp::read(at, key),
            5..=6 => BatchOp::scan(at, key, 2 + rng.next_bounded(15) as u32),
            _ => BatchOp::write(at, key, 100 + rng.next_bounded(400) as u32),
        };
        c.submit(op.with_level(level));
    }

    let script = if serial {
        fault_script(script_seed, at.as_micros().max(1))
    } else {
        Vec::new()
    };
    for &(at, action) in &script {
        c.schedule_fault(at, action);
    }
    Run {
        published: c.run_to_completion(u64::MAX),
        cluster: c,
        scheduled: script.len() as u64,
    }
}

/// Assert that `run`'s meters are what its published operations say.
fn check(run: &Run) {
    let c = &run.cluster;
    prop_assert_eq!(c.check_drained(), Ok(()));
    prop_assert_eq!(run.published.len() as u64, OPS, "each op publishes once");
    prop_assert_eq!(c.metrics().faults_injected, run.scheduled);

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
        full_repair in any::<bool>(),
        resilience in any::<bool>(),
        script_seed in any::<u64>(),
    ) {
        let repair = if full_repair { RepairMode::Full } else { RepairMode::Off };
        let planes = Planes { read_repair, retries, repair, resilience };
        check(&run(seed, shards, planes, script_seed));
    }
}

/// The property is not vacuous: over a handful of fixed runs under the
/// fault script, every meter it checks moves.
#[test]
fn the_runs_exercise_every_checked_meter() {
    let mut totals = concord_cluster::ClusterMetrics::new();
    for seed in 0..8 {
        let planes = Planes {
            read_repair: seed % 3 == 0,
            retries: 1,
            repair: [RepairMode::Off, RepairMode::Full][(seed / 2 % 2) as usize],
            resilience: seed / 4 == 1,
        };
        let r = run(seed, 1 + (seed % 2) as u32, planes, seed);
        check(&r);
        totals.merge(&r.cluster.metrics());
    }
    assert!(totals.stale_reads > 0, "no stale read");
    assert!(totals.staleness_depth_sum > 0);
    assert!(totals.timeouts > 0, "no timeout");
    assert!(totals.retries > 0, "no retry");
    assert!(totals.storage_read_ops > 0 && totals.storage_write_ops > 0);
    assert!(totals.read_latency.count() > 0 && totals.write_latency.count() > 0);
    assert!(totals.faults_injected > 0, "no fault");
    assert!(totals.hints_queued > 0, "no hint");
    assert!(totals.hedged_requests > 0, "no hedge");
}
