//! Golden fixed-seed regression tests.
//!
//! These tests pin the *exact* simulation output of fixed-seed cluster runs:
//! operation counts, ground-truth stale reads, event counts, final virtual
//! clock, traffic bytes, and an integer checksum over every completed
//! operation's latency and returned version. They were captured on the
//! pre-hot-path-refactor implementation (HashMap op tables, per-read replica
//! Vec allocations, sort-based replica selection) and must keep passing
//! byte-for-byte on the slab/scratch-buffer/precomputed-ranking hot path:
//! any drift means the optimization changed simulation behaviour, not just
//! its speed.
//!
//! To re-capture after an *intentional* semantic change, run with
//! `GOLDEN_PRINT=1 cargo test -p concord-cluster --test golden_determinism -- --nocapture`
//! and update the constants.
//!
//! # Determinism contract of the sharded engine
//!
//! Since the parallel execution PR, a run's output is a pure function of
//! `(seed, shard count)` — **not** of the worker-thread count, the thread
//! scheduler, or the machine. Concretely:
//!
//! * `shards = 1` executes the exact pre-sharding serial engine (same RNG
//!   stream, same event order, same metering order) and must stay
//!   byte-identical to every golden captured before the engine existed.
//! * Each `shards > 1` count is its own deterministic universe: per-shard
//!   RNG streams (`SimRng::shard_stream`), coordinator-homed routing drawn
//!   from the control stream, timestamp-packed write versions and the
//!   window close's ordering (outboxes applied in fixed shard order, read
//!   classifications resolved against the central oracle's time-indexed ack
//!   history) make its digests stable, but different from the serial ones —
//!   so each shard count pins its **own** golden tuple below (captured with
//!   `GOLDEN_PRINT=1` at the introduction of parallel execution). The
//!   *physics* is shared: staleness rates, latency sums and traffic stay in
//!   family across shard counts; only the sampled universe differs.
//! * For a fixed shard count the digests must be byte-identical at *any*
//!   worker-thread count (1, 2, 4, 8, …): shard batches only touch
//!   shard-owned state, and everything cross-shard is applied serially in
//!   fixed shard order at window closes. The thread-count matrix is
//!   asserted in `tests/sharded_determinism.rs`; these goldens pin the
//!   per-shard-count values themselves.

use concord_cluster::{
    BatchOp, Cluster, ClusterConfig, ConsistencyLevel, FaultAction, OpKind, OpStatus, Partitioner,
    ReplicaSelection, ReplicationStrategy, ORDERED_SLICE_KEYS,
};
use concord_sim::{NetworkModel, RegionId, SimDuration, SimTime, Topology};

/// Integer digest of a completed-operation stream, independent of the
/// metrics back-end (FNV-1a over the per-op fields that matter).
#[derive(Debug, Default, PartialEq, Eq)]
struct RunDigest {
    ops: u64,
    reads: u64,
    writes: u64,
    stale: u64,
    timeouts: u64,
    latency_sum_us: u64,
    checksum: u64,
}

fn digest(cluster: &mut Cluster) -> RunDigest {
    let mut d = RunDigest::default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let fnv = |h: &mut u64, x: u64| {
        *h ^= x;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for op in cluster.run_to_completion(u64::MAX) {
        d.ops += 1;
        match op.kind {
            OpKind::Read => d.reads += 1,
            OpKind::Write => d.writes += 1,
        }
        if op.stale {
            d.stale += 1;
        }
        if op.status == OpStatus::Timeout {
            d.timeouts += 1;
        }
        d.latency_sum_us += op.latency().as_micros();
        fnv(&mut h, op.completed_at.as_micros());
        fnv(&mut h, op.returned_version.0);
        fnv(&mut h, op.staleness_depth as u64);
        fnv(&mut h, op.replicas_involved as u64);
    }
    assert_eq!(cluster.check_drained(), Ok(()));
    d.checksum = h;
    d
}

fn geo_cluster(seed: u64) -> Cluster {
    geo_cluster_sharded(seed, 1)
}

/// The same geo cluster on `shards` event lanes: each shard count is its own
/// deterministic universe with its own golden digest.
fn geo_cluster_sharded(seed: u64, shards: u32) -> Cluster {
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

/// Alternating write→read churn over hot keys, the Figure-1 situation.
fn churn(c: &mut Cluster, ops: u64, keys: u64, gap: SimDuration) {
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

/// `GOLDEN_PRINT=1` turns the suite into capture mode: every scenario
/// prints its fresh digest line and the per-shard-count loops skip their
/// golden assertions, so one run prints all shard counts even when a
/// recapture is in progress (a panic at shards=2 would otherwise hide the
/// shards=4 tuple).
fn capture_mode() -> bool {
    std::env::var("GOLDEN_PRINT").is_ok()
}

fn maybe_print(name: &str, d: &RunDigest, c: &Cluster) {
    if capture_mode() {
        println!(
            "{name}: {d:?} retries={} messages_lost={} events={} now_us={} messages={} \
             traffic_total={} traffic_inter_dc={} \
             storage_r={} storage_w={} stale_reads={} staleness_depth_sum={}",
            c.metrics().retries,
            c.metrics().messages_lost,
            c.events_processed(),
            c.now().as_micros(),
            c.metrics().messages,
            c.metrics().traffic.total(),
            c.metrics().traffic.inter_dc,
            c.metrics().storage_read_ops,
            c.metrics().storage_write_ops,
            c.metrics().stale_reads,
            c.metrics().staleness_depth_sum,
        );
    }
}

/// Weak-consistency geo run with read repair: the paper's staleness window.
/// Pinned at 1, 2 and 4 event-queue shards. Each shard count owns one golden
/// tuple (see the module docs): with one shard the pre-parallel digest must
/// hold byte-for-byte; with more, the per-shard-count digest must be stable
/// at any worker-thread count.
#[test]
fn golden_geo_weak_consistency_run() {
    for (i, shards) in [1u32, 2, 4].into_iter().enumerate() {
        let golden = GOLDEN_WEAK[i];
        let mut c = geo_cluster_sharded(7, shards);
        c.load_records((0..20u64).map(|k| (k, 200)));
        c.set_levels(ConsistencyLevel::One, ConsistencyLevel::One);
        churn(&mut c, 4_000, 20, SimDuration::from_micros(500));
        let d = digest(&mut c);
        maybe_print(&format!("weak[shards={shards}]"), &d, &c);
        if capture_mode() {
            continue;
        }

        assert_eq!(c.shards() as u32, shards);
        assert_eq!(d.ops, 4_000);
        assert_eq!(d.reads, 2_000);
        assert_eq!(d.writes, 2_000);
        assert_eq!(d.stale, golden.0, "{shards} shards");
        assert_eq!(d.timeouts, 0);
        assert_eq!(d.latency_sum_us, golden.1, "{shards} shards");
        assert_eq!(d.checksum, golden.2, "{shards} shards");
        assert_eq!(c.events_processed(), golden.3, "{shards} shards");
        assert_eq!(c.now().as_micros(), golden.4, "{shards} shards");
        assert_eq!(c.metrics().messages, golden.5, "{shards} shards");
        assert_eq!(c.metrics().traffic.total(), golden.6, "{shards} shards");
        assert_eq!(c.metrics().traffic.inter_dc, golden.7, "{shards} shards");
        assert_eq!(
            (c.metrics().storage_read_ops, c.metrics().storage_write_ops),
            golden.8,
            "{shards} shards"
        );
        assert_eq!(c.metrics().stale_reads, d.stale);
        if shards > 1 {
            let m = c.shard_metrics();
            assert!(m.windows > 0, "the run must cross lookahead windows");
            assert!(m.staged > 0, "geo traffic must stage cross-shard events");
        }
    }
}

/// Quorum/quorum run: R+W>N, so zero staleness with non-trivial latencies.
#[test]
fn golden_geo_quorum_run() {
    for (i, shards) in [1u32, 2, 4].into_iter().enumerate() {
        let golden = GOLDEN_QUORUM[i];
        let mut c = geo_cluster_sharded(13, shards);
        c.load_records((0..50u64).map(|k| (k, 200)));
        c.set_levels(ConsistencyLevel::Quorum, ConsistencyLevel::Quorum);
        churn(&mut c, 3_000, 50, SimDuration::from_micros(300));
        let d = digest(&mut c);
        maybe_print(&format!("quorum[shards={shards}]"), &d, &c);
        if capture_mode() {
            continue;
        }

        assert_eq!(d.ops, 3_000);
        assert_eq!(d.stale, 0, "R+W>N can never be stale");
        assert_eq!(d.timeouts, 0);
        assert_eq!(d.latency_sum_us, golden.0, "{shards} shards");
        assert_eq!(d.checksum, golden.1, "{shards} shards");
        assert_eq!(c.events_processed(), golden.2, "{shards} shards");
        assert_eq!(c.now().as_micros(), golden.3, "{shards} shards");
    }
}

/// Failure + timeout path: one node down under write-ALL.
#[test]
fn golden_failure_timeout_run() {
    let mut cfg = ClusterConfig::lan_test(5, 3);
    cfg.op_timeout = SimDuration::from_millis(50);
    let mut c = Cluster::new(cfg, 21);
    c.load_records((0..30u64).map(|k| (k, 100)));
    c.inject(FaultAction::NodeDown(2));
    let mut at = SimTime::ZERO;
    for i in 0..600u64 {
        at += SimDuration::from_micros(400);
        if i % 3 == 0 {
            c.submit(BatchOp::write(at, i % 30, 100).with_level(ConsistencyLevel::All));
        } else {
            c.submit_read_at(i % 30, at);
        }
    }
    let d = digest(&mut c);
    maybe_print("failure", &d, &c);

    assert_eq!(d.ops, 600);
    assert_eq!(d.timeouts, GOLDEN_FAILURE.0);
    assert_eq!(d.latency_sum_us, GOLDEN_FAILURE.1);
    assert_eq!(d.checksum, GOLDEN_FAILURE.2);
    assert_eq!(c.events_processed(), GOLDEN_FAILURE.3);
}

/// Crash/recover scenario: a node crashes mid-run (ring reconfigures onto
/// the survivors), recovers later (original token positions restored), with
/// timeout retries enabled. The faults are scheduled in the cluster, so
/// their times are exact and reproducible.
#[test]
fn golden_crash_recover_run() {
    let mut cfg = ClusterConfig::lan_test(6, 3);
    cfg.op_timeout = SimDuration::from_millis(80);
    cfg.retry_on_timeout = 1;
    cfg.read_repair = true;
    let mut c = Cluster::new(cfg, 33);
    c.load_records((0..40u64).map(|k| (k, 150)));
    // Alternating ALL-write → ONE-read churn across the fault windows.
    let mut at = SimTime::ZERO;
    for i in 0..2_000u64 {
        at += SimDuration::from_micros(400);
        if i % 2 == 0 {
            c.submit(BatchOp::write(at, (i / 2) % 40, 150).with_level(ConsistencyLevel::All));
        } else {
            c.submit_read_at((i / 2) % 40, at);
        }
    }
    // Crash at 100 ms, recover at 500 ms (the churn spans 800 ms); a
    // *transient* outage of node 0 (ring untouched, so ALL writes keep
    // targeting it and time out into retries) from 250 ms to 400 ms.
    c.schedule_fault(SimTime::from_millis(100), FaultAction::CrashNode(2));
    c.schedule_fault(SimTime::from_millis(500), FaultAction::RecoverNode(2));
    c.schedule_fault(SimTime::from_millis(250), FaultAction::NodeDown(0));
    c.schedule_fault(SimTime::from_millis(400), FaultAction::NodeUp(0));
    let mut d = RunDigest::default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let fnv = |h: &mut u64, x: u64| {
        *h ^= x;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for op in c.run_to_completion(u64::MAX) {
        d.ops += 1;
        if op.status == OpStatus::Timeout {
            d.timeouts += 1;
        }
        if op.stale {
            d.stale += 1;
        }
        d.latency_sum_us += op.latency().as_micros();
        fnv(&mut h, op.completed_at.as_micros());
        fnv(&mut h, op.returned_version.0);
    }
    d.checksum = h;
    maybe_print("crash_recover", &d, &c);

    assert_eq!(d.ops, 2_000, "every op completes exactly once");
    assert!(c.metrics().retries > 0, "the outage must induce retries");
    assert!(!c.is_node_crashed(concord_sim::NodeId(2)));
    assert_eq!(c.inflight_ops(), 0);
    assert_eq!(c.inflight_write_payloads(), 0);
    assert_eq!(c.check_drained(), Ok(()));
    assert_eq!(d.timeouts, GOLDEN_CRASH.0);
    assert_eq!(c.metrics().retries, GOLDEN_CRASH.1);
    assert_eq!(d.latency_sum_us, GOLDEN_CRASH.2);
    assert_eq!(d.checksum, GOLDEN_CRASH.3);
    assert_eq!(c.events_processed(), GOLDEN_CRASH.4);
}

/// The crash/recover scenario of [`golden_crash_recover_run`] with the
/// full repair plane enabled (hinted handoff + anti-entropy + recovery
/// migration): pins the repair engine's event interleaving, hint
/// accounting and streamed-record metering byte-for-byte. (Captured at the
/// introduction of the repair plane; there is no pre-repair digest.)
#[test]
fn golden_repair_run() {
    let mut cfg = ClusterConfig::lan_test(6, 3);
    cfg.op_timeout = SimDuration::from_millis(80);
    cfg.retry_on_timeout = 1;
    cfg.read_repair = true;
    cfg.repair = concord_cluster::RepairConfig::with_mode(concord_cluster::RepairMode::Full);
    let mut c = Cluster::new(cfg, 33);
    c.load_records((0..40u64).map(|k| (k, 150)));
    let mut at = SimTime::ZERO;
    for i in 0..2_000u64 {
        at += SimDuration::from_micros(400);
        if i % 2 == 0 {
            c.submit(BatchOp::write(at, (i / 2) % 40, 150).with_level(ConsistencyLevel::All));
        } else {
            c.submit_read_at((i / 2) % 40, at);
        }
    }
    c.schedule_fault(SimTime::from_millis(100), FaultAction::CrashNode(2));
    c.schedule_fault(SimTime::from_millis(500), FaultAction::RecoverNode(2));
    c.schedule_fault(SimTime::from_millis(250), FaultAction::NodeDown(0));
    c.schedule_fault(SimTime::from_millis(400), FaultAction::NodeUp(0));
    let mut d = RunDigest::default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let fnv = |h: &mut u64, x: u64| {
        *h ^= x;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for op in c.run_to_completion(u64::MAX) {
        d.ops += 1;
        if op.status == OpStatus::Timeout {
            d.timeouts += 1;
        }
        if op.stale {
            d.stale += 1;
        }
        d.latency_sum_us += op.latency().as_micros();
        fnv(&mut h, op.completed_at.as_micros());
        fnv(&mut h, op.returned_version.0);
    }
    d.checksum = h;
    maybe_print("repair", &d, &c);
    if std::env::var("GOLDEN_PRINT").is_ok() {
        let m = c.metrics();
        println!(
            "repair: hints=({}, {}, {}) pages={} streamed={} repair_bytes={}",
            m.hints_queued,
            m.hints_replayed,
            m.hints_dropped,
            m.repair_pages_compared,
            m.repair_records_streamed,
            m.repair_traffic.total(),
        );
    }

    assert_eq!(d.ops, 2_000, "every op completes exactly once");
    assert_eq!(c.inflight_ops(), 0);
    assert_eq!(c.inflight_write_payloads(), 0);
    assert_eq!(c.check_drained(), Ok(()));
    let m = c.metrics();
    assert!(m.hints_queued > 0, "the outage must queue hints");
    assert!(
        m.repair_records_streamed > 0,
        "the crash must trigger streams"
    );
    assert_eq!(d.timeouts, GOLDEN_REPAIR.0);
    assert_eq!(d.stale, GOLDEN_REPAIR.1);
    assert_eq!(d.latency_sum_us, GOLDEN_REPAIR.2);
    assert_eq!(d.checksum, GOLDEN_REPAIR.3);
    assert_eq!(c.events_processed(), GOLDEN_REPAIR.4);
    assert_eq!(
        (m.hints_queued, m.hints_replayed, m.hints_dropped),
        GOLDEN_REPAIR.5
    );
    assert_eq!(m.repair_pages_compared, GOLDEN_REPAIR.6);
    assert_eq!(m.repair_records_streamed, GOLDEN_REPAIR.7);
    assert_eq!(m.repair_traffic.total(), GOLDEN_REPAIR.8);
}

/// Multi-page repair scenario: 10 000 loaded records (three key pages, the
/// last one partly past the loaded count) on a two-site geo cluster under
/// [`RepairMode::Full`](concord_cluster::RepairMode), with a crash, a site
/// partition across it, the recovery and the heal. Weak-level churn strides
/// over every page — and past the loaded count — so sweeps and recovery
/// migrations diff pages whose owners differ per record, and survivors
/// keep records they stop replicating once the node returns.
/// [`golden_repair_run`] covers 40 keys (one page on a LAN), so it cannot
/// see a page-boundary or ownership mistake; this one can. (Captured
/// before the ring-ownership index replaced the scan-and-gate page diff;
/// the index must reproduce it byte-for-byte.)
fn paged_repair_run(partitioner: Partitioner, golden: PagedRepairGolden) {
    const LOADED: u64 = 10_000;
    const KEY_SPACE: u64 = LOADED + 300;
    let mut cfg = ClusterConfig::lan_test(8, 3);
    cfg.topology = Topology::spread(
        8,
        &[("site-rennes", RegionId(0)), ("site-sophia", RegionId(0))],
    );
    cfg.network = NetworkModel::grid5000_like();
    cfg.strategy = ReplicationStrategy::NetworkTopology;
    cfg.partitioner = partitioner;
    cfg.read_repair = true;
    cfg.op_timeout = SimDuration::from_millis(80);
    cfg.retry_on_timeout = 1;
    cfg.repair = concord_cluster::RepairConfig::with_mode(concord_cluster::RepairMode::Full);
    let mut c = Cluster::new(cfg, 59);
    c.load_records((0..LOADED).map(|k| (k, 150)));
    let mut at = SimTime::ZERO;
    for i in 0..4_000u64 {
        at += SimDuration::from_micros(400);
        // A stride coprime to the key space walks all three pages.
        let key = (i / 2) * 2_503 % KEY_SPACE;
        if i % 2 == 0 {
            c.submit(BatchOp::write(at, key, 150).with_level(ConsistencyLevel::One));
        } else {
            c.submit(BatchOp::read(at, key).with_level(ConsistencyLevel::One));
        }
    }
    // The churn spans 1.6 s: crash at 100 ms, partition at 300 ms, recover
    // at 600 ms (still partitioned), heal at 900 ms; then a transient
    // outage of node 1 (ring untouched, so its writes queue as hints) from
    // 1.1 s to 1.3 s.
    c.schedule_fault(SimTime::from_millis(100), FaultAction::CrashNode(2));
    c.schedule_fault(SimTime::from_millis(300), FaultAction::PartitionDcs(0, 1));
    c.schedule_fault(SimTime::from_millis(600), FaultAction::RecoverNode(2));
    c.schedule_fault(SimTime::from_millis(900), FaultAction::HealDcs(0, 1));
    c.schedule_fault(SimTime::from_millis(1_100), FaultAction::NodeDown(1));
    c.schedule_fault(SimTime::from_millis(1_300), FaultAction::NodeUp(1));
    let mut d = RunDigest::default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let fnv = |h: &mut u64, x: u64| {
        *h ^= x;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for op in c.run_to_completion(u64::MAX) {
        d.ops += 1;
        if op.status == OpStatus::Timeout {
            d.timeouts += 1;
        }
        if op.stale {
            d.stale += 1;
        }
        d.latency_sum_us += op.latency().as_micros();
        fnv(&mut h, op.completed_at.as_micros());
        fnv(&mut h, op.returned_version.0);
    }
    d.checksum = h;
    let name = format!("paged_repair[{partitioner:?}]");
    maybe_print(&name, &d, &c);
    let m = c.metrics();
    if capture_mode() {
        println!(
            "{name}: hints=({}, {}, {}) pages={} streamed={} repair_bytes={}",
            m.hints_queued,
            m.hints_replayed,
            m.hints_dropped,
            m.repair_pages_compared,
            m.repair_records_streamed,
            m.repair_traffic.total(),
        );
        return;
    }

    assert_eq!(d.ops, 4_000, "every op completes exactly once");
    assert_eq!(c.inflight_ops(), 0);
    assert_eq!(c.inflight_write_payloads(), 0);
    assert_eq!(c.check_drained(), Ok(()));
    assert!(m.messages_lost > 0, "the partition drops messages");
    assert!(m.hints_queued > 0, "the outage must queue hints");
    assert!(
        m.repair_records_streamed > 1_000,
        "the faults must trigger multi-page streams"
    );
    assert_eq!(d.timeouts, golden.0);
    assert_eq!(d.stale, golden.1);
    assert_eq!(d.latency_sum_us, golden.2);
    assert_eq!(d.checksum, golden.3);
    assert_eq!(c.events_processed(), golden.4);
    assert_eq!(m.messages_lost, golden.5);
    assert_eq!(
        (m.hints_queued, m.hints_replayed, m.hints_dropped),
        golden.6
    );
    assert_eq!(m.repair_pages_compared, golden.7);
    assert_eq!(m.repair_records_streamed, golden.8);
    assert_eq!(m.repair_traffic.total(), golden.9);
}

#[test]
fn golden_paged_repair_hash_run() {
    paged_repair_run(Partitioner::Hash, GOLDEN_PAGED_REPAIR_HASH);
}

#[test]
fn golden_paged_repair_ordered_run() {
    paged_repair_run(Partitioner::Ordered, GOLDEN_PAGED_REPAIR_ORDERED);
}

/// Gray-failure scenario with the full resilience layer on: hedged reads
/// (2 ms), exponential retry backoff and health-aware dynamic replica
/// selection, against one node serving 10× slow mid-run (a gray failure —
/// it keeps answering, so nothing crashes) plus a transient hard outage of
/// another node (timeouts → backoff retries → breaker strikes). Pinned at
/// 1, 2 and 4 shards like the weak golden; the thread-count invariance of
/// the same shape is asserted in `tests/sharded_determinism.rs`. (Captured
/// at the introduction of the resilience layer; there is no pre-resilience
/// digest. Resilience **off** stays pinned by every other golden in this
/// file — the layer must add zero events and zero RNG draws when disabled.)
#[test]
fn golden_resilience_run() {
    for (i, shards) in [1u32, 2, 4].into_iter().enumerate() {
        let golden = GOLDEN_RESILIENCE[i];
        let mut cfg = ClusterConfig::lan_test(6, 3);
        cfg.topology = Topology::spread(
            6,
            &[("site-rennes", RegionId(0)), ("site-sophia", RegionId(0))],
        );
        cfg.network = NetworkModel::grid5000_like();
        cfg.strategy = ReplicationStrategy::NetworkTopology;
        cfg.read_repair = true;
        cfg.op_timeout = SimDuration::from_millis(60);
        cfg.retry_on_timeout = 2;
        cfg.resilience.hedge_delay = SimDuration::from_millis(2);
        cfg.resilience.backoff = true;
        cfg.read_selection = ReplicaSelection::Dynamic;
        cfg.shards = shards;
        let mut c = Cluster::new(cfg, 47);
        c.load_records((0..20u64).map(|k| (k, 200)));
        c.set_levels(ConsistencyLevel::One, ConsistencyLevel::One);
        // Alternating write → read churn, with every third read at CL ALL.
        // ALL-reads must contact every replica (the breaker can demote a
        // struggling node but not skip it, and with nothing left unused the
        // hedge has no target), so the ones whose replica set holds the
        // dead node are guaranteed onto the timeout → backoff → breaker
        // path in every shard count's sampled universe — while hedges keep
        // rescuing the ONE-reads stuck behind the gray or dead node.
        let mut at = SimTime::ZERO;
        for i in 0..4_000u64 {
            at += SimDuration::from_micros(500);
            let k = (i / 2) % 20;
            if i % 2 == 0 {
                c.submit_write_at(k, 200, at);
            } else if (i / 2) % 3 == 2 {
                c.submit(BatchOp::read(at, k).with_level(ConsistencyLevel::All));
            } else {
                c.submit_read_at(k, at);
            }
        }
        // Node 1 serves 10x slow from 300 ms to 1.5 s (the churn spans 2 s);
        // node 4 goes down hard from 450 ms to 1.65 s so timed-out scans
        // retry after a backoff and trip its breaker.
        c.schedule_fault(SimTime::from_millis(300), FaultAction::SlowNode(1, 10.0));
        c.schedule_fault(SimTime::from_millis(1_500), FaultAction::RestoreNode(1));
        c.schedule_fault(SimTime::from_millis(450), FaultAction::NodeDown(4));
        c.schedule_fault(SimTime::from_millis(1_650), FaultAction::NodeUp(4));
        let mut d = RunDigest::default();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let fnv = |h: &mut u64, x: u64| {
            *h ^= x;
            *h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        for op in c.run_to_completion(u64::MAX) {
            d.ops += 1;
            if op.status == OpStatus::Timeout {
                d.timeouts += 1;
            }
            if op.stale {
                d.stale += 1;
            }
            d.latency_sum_us += op.latency().as_micros();
            fnv(&mut h, op.completed_at.as_micros());
            fnv(&mut h, op.returned_version.0);
            fnv(&mut h, op.staleness_depth as u64);
            fnv(&mut h, op.replicas_involved as u64);
        }
        d.checksum = h;
        maybe_print(&format!("resilience[shards={shards}]"), &d, &c);
        if capture_mode() {
            let m = c.metrics();
            println!(
                "resilience[shards={shards}]: hedged={} wins={} backoff={} \
                 breaker_opens={} hedge_bytes={}",
                m.hedged_requests,
                m.hedge_wins,
                m.backoff_retries,
                m.breaker_opens,
                m.hedge_traffic.total(),
            );
        }
        if capture_mode() {
            continue;
        }

        let m = c.metrics();
        assert_eq!(d.ops, 4_000, "every op completes exactly once");
        assert_eq!(c.inflight_ops(), 0, "hedged ops must not leak slab entries");
        assert_eq!(c.inflight_write_payloads(), 0);
        assert_eq!(c.check_drained(), Ok(()));
        assert!(m.hedged_requests > 0, "the slow window must trigger hedges");
        assert!(m.hedge_wins > 0 && m.hedge_wins <= m.hedged_requests);
        assert!(m.backoff_retries > 0, "the outage must exercise backoff");
        assert!(m.breaker_opens > 0, "timeouts must trip the breaker");
        assert!(m.hedge_traffic.total() > 0);
        assert!(m.hedge_traffic.total() <= m.traffic.total());
        assert_eq!(d.timeouts, golden.0, "{shards} shards");
        assert_eq!(d.latency_sum_us, golden.1, "{shards} shards");
        assert_eq!(d.checksum, golden.2, "{shards} shards");
        assert_eq!(c.events_processed(), golden.3, "{shards} shards");
        assert_eq!(
            (
                m.hedged_requests,
                m.hedge_wins,
                m.backoff_retries,
                m.breaker_opens
            ),
            golden.4,
            "{shards} shards"
        );
        assert_eq!(m.hedge_traffic.total(), golden.5, "{shards} shards");
        assert_eq!(m.traffic.total(), golden.6, "{shards} shards");
    }
}

/// Partition/heal scenario: the two sites of a geo cluster partition and
/// later heal, under quorum churn — cross-site messages are lost while the
/// partition holds.
#[test]
fn golden_partition_heal_run() {
    let mut c = geo_cluster(37);
    c.load_records((0..30u64).map(|k| (k, 200)));
    c.set_levels(ConsistencyLevel::Quorum, ConsistencyLevel::Quorum);
    churn(&mut c, 3_000, 30, SimDuration::from_micros(400));
    // Partition at 200 ms, heal at 700 ms (the churn spans 1.2 s).
    c.schedule_fault(SimTime::from_millis(200), FaultAction::PartitionDcs(0, 1));
    c.schedule_fault(SimTime::from_millis(700), FaultAction::HealDcs(0, 1));
    let mut d = RunDigest::default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let fnv = |h: &mut u64, x: u64| {
        *h ^= x;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for op in c.run_to_completion(u64::MAX) {
        d.ops += 1;
        if op.status == OpStatus::Timeout {
            d.timeouts += 1;
        }
        if op.stale {
            d.stale += 1;
        }
        d.latency_sum_us += op.latency().as_micros();
        fnv(&mut h, op.completed_at.as_micros());
        fnv(&mut h, op.returned_version.0);
    }
    d.checksum = h;
    maybe_print("partition_heal", &d, &c);

    assert_eq!(d.ops, 3_000);
    assert!(
        c.metrics().messages_lost > 0,
        "the partition drops messages"
    );
    assert!(!c.dcs_partitioned(concord_sim::DcId(0), concord_sim::DcId(1)));
    assert_eq!(c.inflight_ops(), 0);
    assert_eq!(c.inflight_write_payloads(), 0);
    assert_eq!(c.check_drained(), Ok(()));
    assert_eq!(d.timeouts, GOLDEN_PARTITION.0);
    assert_eq!(c.metrics().messages_lost, GOLDEN_PARTITION.1);
    assert_eq!(d.latency_sum_us, GOLDEN_PARTITION.2);
    assert_eq!(d.checksum, GOLDEN_PARTITION.3);
    assert_eq!(c.events_processed(), GOLDEN_PARTITION.4);
}

/// YCSB-E-style scan scenario: alternating writes and short range scans over
/// a geo cluster at weak levels. Pins the full scan path — per-replica range
/// reads through the dense store, per-record storage-read metering,
/// byte-weighted response traffic, anchor-based staleness — byte-for-byte.
/// (Captured at the introduction of the range-read path; scans previously
/// read only their anchor record, so there is no pre-refactor digest.)
#[test]
fn golden_ycsb_e_scan_run() {
    for (i, shards) in [1u32, 2, 4].into_iter().enumerate() {
        let golden = GOLDEN_SCAN[i];
        let mut c = geo_cluster_sharded(43, shards);
        c.load_records((0..200u64).map(|k| (k, 200)));
        c.set_levels(ConsistencyLevel::One, ConsistencyLevel::One);
        let mut at = SimTime::ZERO;
        // 5% inserts-as-updates / 95% scans is workload E's shape; interleave
        // writes so scans race propagation (staleness through the anchor).
        for i in 0..3_000u64 {
            at += SimDuration::from_micros(400);
            // Scans anchor on the most recently written key, so they race its
            // propagation window exactly like the Figure-1 point reads do.
            let hot = (i / 4) % 200;
            if i % 4 == 0 {
                c.submit_write_at(hot, 200, at);
            } else {
                let len = 1 + (i % 40) as u32;
                c.submit_scan_at(hot, len, at);
            }
        }
        let d = digest(&mut c);
        maybe_print(&format!("ycsb_e_scan[shards={shards}]"), &d, &c);
        if capture_mode() {
            continue;
        }

        assert_eq!(d.ops, 3_000);
        assert_eq!(d.timeouts, 0);
        assert_eq!(d.stale, golden.0, "{shards} shards");
        assert_eq!(d.latency_sum_us, golden.1, "{shards} shards");
        assert_eq!(d.checksum, golden.2, "{shards} shards");
        assert_eq!(c.events_processed(), golden.3, "{shards} shards");
        assert_eq!(
            (c.metrics().storage_read_ops, c.metrics().storage_write_ops),
            golden.4,
            "scans are metered one storage read per probed record"
        );
        assert_eq!(c.metrics().traffic.total(), golden.5, "{shards} shards");
        // Sanity: the scan mix probes far more records than it completes reads
        // (mean scan length ~20 over 2250 scans).
        assert!(c.metrics().storage_read_ops > 40_000);
    }
}

/// Ordered-partitioner YCSB-E scan scenario: the same weak-level scan churn
/// as the hash golden above, but under contiguous key-range ownership and a
/// record space spanning two ownership slices, so a steady share of the
/// scans straddles the boundary and gathers from both segments' owners.
/// Pins the ordered placement, the segment fan-out, multi-replica gather
/// and the full-coverage contract byte-for-byte. (Captured at the
/// introduction of the ordered partitioner; there is no pre-refactor
/// digest.)
#[test]
fn golden_ordered_scan_run() {
    let mut cfg = ClusterConfig::lan_test(6, 5);
    cfg.topology = Topology::spread(
        6,
        &[("site-rennes", RegionId(0)), ("site-sophia", RegionId(0))],
    );
    cfg.network = NetworkModel::grid5000_like();
    cfg.strategy = ReplicationStrategy::NetworkTopology;
    cfg.read_repair = true;
    cfg.partitioner = Partitioner::Ordered;
    let mut c = Cluster::new(cfg, 43);
    let records = 2 * ORDERED_SLICE_KEYS;
    c.load_records((0..records).map(|k| (k, 200)));
    c.set_levels(ConsistencyLevel::One, ConsistencyLevel::One);
    let mut at = SimTime::ZERO;
    let mut scanned_records = 0u64;
    let mut boundary_scans = 0u64;
    for i in 0..3_000u64 {
        at += SimDuration::from_micros(400);
        // Each group of four ops shares one anchor (one write, three scans
        // racing its propagation window, like the hash scan golden). Odd
        // groups pin the anchor just below the ownership boundary so a
        // steady share of scans crosses it; even groups stride over the
        // whole two-slice space.
        let group = i / 4;
        let hot = if group % 2 == 1 {
            ORDERED_SLICE_KEYS - 1 - (group % 20)
        } else {
            (group * 131) % (records - 40)
        };
        if i % 4 == 0 {
            c.submit_write_at(hot, 200, at);
        } else {
            let len = 1 + (i % 40) as u32;
            if hot < ORDERED_SLICE_KEYS && hot + len as u64 > ORDERED_SLICE_KEYS {
                boundary_scans += 1;
            }
            scanned_records += len as u64;
            c.submit_scan_at(hot, len, at);
        }
    }
    assert!(
        boundary_scans > 10,
        "the scenario must keep straddling the ownership boundary ({boundary_scans})"
    );
    let mut records_returned = 0u64;
    let mut d = RunDigest::default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let fnv = |h: &mut u64, x: u64| {
        *h ^= x;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for op in c.run_to_completion(u64::MAX) {
        d.ops += 1;
        if op.stale {
            d.stale += 1;
        }
        if op.status == OpStatus::Timeout {
            d.timeouts += 1;
        }
        d.latency_sum_us += op.latency().as_micros();
        records_returned += op.records_returned as u64;
        fnv(&mut h, op.completed_at.as_micros());
        fnv(&mut h, op.returned_version.0);
        fnv(&mut h, op.records_returned as u64);
    }
    assert_eq!(c.check_drained(), Ok(()));
    d.checksum = h;
    maybe_print("ordered_scan", &d, &c);
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("ordered_scan records_returned={records_returned} (submitted {scanned_records})");
    }

    assert_eq!(d.ops, 3_000);
    assert_eq!(d.timeouts, 0);
    // The full-coverage contract, in aggregate: every scanned record that
    // exists is returned (anchors stay ≥ 40 below the end of the loaded
    // space, so every probed slot exists).
    assert_eq!(
        records_returned, scanned_records,
        "ordered scans must return exactly their contiguous ranges"
    );
    assert_eq!(d.stale, GOLDEN_ORDERED.0);
    assert_eq!(d.latency_sum_us, GOLDEN_ORDERED.1);
    assert_eq!(d.checksum, GOLDEN_ORDERED.2);
    assert_eq!(c.events_processed(), GOLDEN_ORDERED.3);
    assert_eq!(
        (c.metrics().storage_read_ops, c.metrics().storage_write_ops),
        GOLDEN_ORDERED.4,
        "segmented scans stay metered one storage read per probed record"
    );
    assert_eq!(c.metrics().traffic.total(), GOLDEN_ORDERED.5);
}

// Captured values, one tuple per shard count [1, 2, 4] (see the module
// docs: shards=1 is the pre-refactor serial digest and predates the
// parallel engine; the shards>1 tuples were captured with GOLDEN_PRINT=1
// when parallel execution landed and are thread-count-invariant; their
// stale counts and checksums are the ones an unbounded oracle history
// gives, which `window_close.rs` re-derives read by read):
// (stale, latency_sum_us, checksum, events, now_us, messages, traffic_total,
//  traffic_inter_dc, (storage_read_ops, storage_write_ops)).
type WeakGolden = (u64, u64, u64, u64, u64, u64, u64, u64, (u64, u64));
const GOLDEN_WEAK: [WeakGolden; 3] = [
    (
        827,
        1_738_104,
        9473355854552743838,
        44_000,
        12_000_000,
        24_000,
        4_320_000,
        1_785_960,
        (2_000, 10_000),
    ),
    (
        810,
        1_744_239,
        9856081504637262843,
        44_000,
        12_000_000,
        24_000,
        4_320_000,
        1_804_680,
        (2_000, 10_000),
    ),
    (
        783,
        1_754_506,
        15903533847045726676,
        44_000,
        12_000_000,
        24_000,
        4_320_000,
        1_796_400,
        (2_000, 10_000),
    ),
];
// (latency_sum_us, checksum, events, now_us), per shard count [1, 2, 4].
const GOLDEN_QUORUM: [(u64, u64, u64, u64); 3] = [
    (45_593_949, 7203024975233682314, 45_738, 10_900_000),
    (44_868_937, 14999936417424129039, 45_846, 10_900_000),
    (45_214_288, 1715814602399151384, 45_852, 10_900_000),
];
// (timeouts, latency_sum_us, checksum, events).
const GOLDEN_FAILURE: (u64, u64, u64, u64) = (107, 5_735_824, 5079826259043572358, 3_879);
// Fault-scenario digests (captured at the introduction of fault injection;
// re-capture with GOLDEN_PRINT=1 after intentional semantic changes):
// (timeouts, retries, latency_sum_us, checksum, events).
const GOLDEN_CRASH: (u64, u64, u64, u64, u64) = (61, 147, 18_554_388, 18292732308431460120, 16_744);
// Repair-plane digest (captured at the introduction of the repair plane;
// re-capture with GOLDEN_PRINT=1 after intentional semantic changes):
// (timeouts, stale, latency_sum_us, checksum, events,
//  (hints_queued, hints_replayed, hints_dropped), repair_pages_compared,
//  repair_records_streamed, repair_traffic_total).
type HintCounters = (u64, u64, u64);
const GOLDEN_REPAIR: (u64, u64, u64, u64, u64, HintCounters, u64, u64, u64) = (
    59,
    0,
    18_510_376,
    7688465609908642402,
    17_526,
    (187, 187, 0),
    64,
    81,
    65_756,
);
// Multi-page repair digests (captured on the scan-and-gate page diff, before
// the ring-ownership index; re-capture with GOLDEN_PRINT=1 after intentional
// semantic changes): (timeouts, stale, latency_sum_us, checksum, events,
// messages_lost, (hints_queued, hints_replayed, hints_dropped),
// repair_pages_compared, repair_records_streamed, repair_traffic_total).
type PagedRepairGolden = (u64, u64, u64, u64, u64, u64, HintCounters, u64, u64, u64);
const GOLDEN_PAGED_REPAIR_HASH: PagedRepairGolden = (
    4,
    294,
    6_130_463,
    2350061513002219932,
    46_681,
    1_139,
    (101, 101, 0),
    489,
    8_944,
    1_977_006,
);
const GOLDEN_PAGED_REPAIR_ORDERED: PagedRepairGolden = (
    18,
    292,
    12_094_362,
    4145618823330816514,
    72_165,
    1_112,
    (200, 200, 0),
    409,
    21_654,
    4_655_672,
);
// Resilience-layer digest (captured at the introduction of the resilience
// layer; re-capture with GOLDEN_PRINT=1 after intentional semantic
// changes): per shard count [1, 2, 4], (timeouts, latency_sum_us, checksum,
// events, (hedged_requests, hedge_wins, backoff_retries, breaker_opens),
// hedge_traffic_total, traffic_total).
type ResilienceGolden = (u64, u64, u64, u64, (u64, u64, u64, u64), u64, u64);
const GOLDEN_RESILIENCE: [ResilienceGolden; 3] = [
    (
        193,
        61_440_586,
        4613832723449410810,
        42_488,
        (127, 31, 465, 102),
        12_700,
        3_677_500,
    ),
    (
        190,
        67_258_781,
        2276998821231081281,
        43_027,
        (137, 44, 467, 161),
        13_700,
        3_693_100,
    ),
    (
        189,
        60_936_675,
        13268572294427135746,
        42_904,
        (134, 30, 460, 166),
        13_400,
        3_684_000,
    ),
];
// (timeouts, messages_lost, latency_sum_us, checksum, events).
const GOLDEN_PARTITION: (u64, u64, u64, u64, u64) =
    (649, 1_946, 6_516_290_287, 9876085233809652447, 38_442);
// Scan-scenario digest (shards=1 captured at the introduction of the
// range-read path; shards>1 with GOLDEN_PRINT=1 when parallel execution
// landed; re-capture after intentional semantic changes): per shard count
// [1, 2, 4], (stale, latency_sum_us, checksum, events, (storage_read_ops,
//  storage_write_ops), traffic_total).
type ScanGolden = (u64, u64, u64, u64, (u64, u64), u64);
const GOLDEN_SCAN: [ScanGolden; 3] = [
    (
        993,
        1_419_731,
        306768600784371757,
        24_000,
        (47_250, 3_750),
        9_266_200,
    ),
    (
        1_002,
        1_422_401,
        4008009353691089535,
        24_000,
        (47_250, 3_750),
        9_213_600,
    ),
    (
        1_001,
        1_406_605,
        17874967739256141859,
        24_000,
        (47_250, 3_750),
        9_200_600,
    ),
];
// Ordered-partitioner scan digest (captured at the introduction of the
// ordered partitioner; re-capture with GOLDEN_PRINT=1 after intentional
// semantic changes): (stale, latency_sum_us, checksum, events,
// (storage_read_ops, storage_write_ops), traffic_total).
const GOLDEN_ORDERED: (u64, u64, u64, u64, (u64, u64), u64) = (
    1_002,
    1_572_569,
    9619850606259622177,
    26_931,
    (47_250, 3_750),
    11_316_320,
);
