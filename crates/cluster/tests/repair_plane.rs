//! End-to-end repair-plane behaviour under a crash/recover fault, and the
//! exactness of the page diff behind it.
//!
//! The scenario pins the failure mode the repair plane exists to fix: a
//! crashed node rejoins the ring with whatever its store held at crash
//! time, and — without repair — serves those stale versions to every
//! level-ONE read that lands on it until the next write to each key
//! happens to refresh it. With `RepairMode::Full`, queued hints replay and
//! the recovery migration streams the missed writes back in before the
//! spike can form.
//!
//! The page diff visits only the keys the receiver owns under a
//! ring-derived ownership index and that the store's unsettled set holds,
//! instead of scanning every slot and asking the ring about every record.
//! The scan-and-gate walk it replaced lives on here as
//! [`reference_page_diff`]: two differential property tests — one with the
//! repair plane off, where every key reads unsettled, and one with it on,
//! stopping mid-run under overlapping faults, where the set is live — and
//! the index-invalidation test hold the diff to exactly its `(key,
//! version, size)` stream.

use concord_cluster::paged::PAGE_SLOTS;
use concord_cluster::{
    BatchOp, Cluster, ClusterConfig, ClusterOutput, ConsistencyLevel, FaultAction, Key, OpKind,
    Partitioner, RepairConfig, RepairMode, ReplicaSelection, Version,
};
use concord_sim::{NodeId, RegionId, SimDuration, SimRng, SimTime, Topology};
use proptest::prelude::*;

const KEYS: u64 = 40;
const CRASH_AT_MS: u64 = 400;
const RECOVER_AT_MS: u64 = 1200;
/// Post-recovery observation window. Each key is rewritten every 16 ms, so
/// a longer window lets the organic write stream refresh the recovered
/// node on its own and dilute exactly the spike being measured: within the
/// first 16 ms, every read targets a key whose last write the crashed node
/// missed.
const POST_WINDOW_MS: u64 = 16;

/// Run the crash/recover workload and return the level-ONE stale-read
/// rates (stale reads / reads) for reads issued in the pre-crash window
/// and in the first [`POST_WINDOW_MS`] after recovery.
fn windowed_stale_rates(mode: RepairMode) -> (f64, f64) {
    let mut cfg = ClusterConfig::lan_test(6, 3);
    cfg.repair = RepairConfig::with_mode(mode);
    let mut c = Cluster::new(cfg, 2013);
    // Spread level-ONE reads uniformly over the replicas — with the default
    // snitch-like `Closest` selection a uniform LAN almost never reads from
    // the recovered node, hiding exactly the staleness this test measures.
    c.set_replica_selection(ReplicaSelection::Random);
    c.load_records((0..KEYS).map(|k| (k, 150)));

    // Alternating write/read stream, every 200 µs, for 2.4 s. Reads target
    // a key written ~16 ms earlier, so in a healthy cluster asynchronous
    // propagation has long finished and the baseline stale rate is tiny.
    for i in 0..12_000u64 {
        let at = SimTime::from_micros(i * 200);
        if i % 2 == 0 {
            c.submit(BatchOp::write(at, (i / 2) % KEYS, 150).with_level(ConsistencyLevel::One));
        } else {
            c.submit(
                BatchOp::read(at, (i / 2 + KEYS / 2) % KEYS).with_level(ConsistencyLevel::One),
            );
        }
    }
    c.schedule_fault(SimTime::from_millis(CRASH_AT_MS), FaultAction::CrashNode(2));
    c.schedule_fault(
        SimTime::from_millis(RECOVER_AT_MS),
        FaultAction::RecoverNode(2),
    );
    let done = c.run_to_completion(u64::MAX);
    assert_eq!(c.check_drained(), Ok(()));

    let rate = |from: SimTime, to: SimTime| {
        let reads = done
            .iter()
            .filter(|o| o.kind == OpKind::Read && o.issued_at >= from && o.issued_at < to);
        let (mut total, mut stale) = (0u64, 0u64);
        for r in reads {
            total += 1;
            if r.stale {
                stale += 1;
            }
        }
        assert!(total > 0, "window [{from:?}, {to:?}) holds no reads");
        stale as f64 / total as f64
    };
    let pre = rate(SimTime::ZERO, SimTime::from_millis(CRASH_AT_MS));
    let post = rate(
        SimTime::from_millis(RECOVER_AT_MS),
        SimTime::from_millis(RECOVER_AT_MS) + SimDuration::from_millis(POST_WINDOW_MS),
    );
    (pre, post)
}

/// Regression pin for the pre-repair failure mode: the recovered node
/// serves its crash-time store, so the post-recovery window shows a stale
/// spike far above the pre-crash baseline.
#[test]
fn recovery_without_repair_serves_a_stale_read_spike() {
    let (pre, post) = windowed_stale_rates(RepairMode::Off);
    assert!(
        post > (4.0 * pre).max(0.05),
        "expected a post-recovery stale spike without repair \
         (pre-crash {pre:.4}, post-recovery {post:.4})"
    );
}

/// Acceptance: with the full repair plane the post-recovery stale rate is
/// within 2x of the pre-crash baseline (with a 2-percentage-point floor so
/// a near-zero baseline does not make the bound vacuous), i.e. the spike
/// the test above pins is gone.
#[test]
fn full_repair_holds_post_recovery_staleness_at_the_baseline() {
    let (pre, post) = windowed_stale_rates(RepairMode::Full);
    assert!(
        post <= (2.0 * pre).max(0.02),
        "full repair must restore the recovered node before it serves reads \
         (pre-crash {pre:.4}, post-recovery {post:.4})"
    );
    let (_, spike) = windowed_stale_rates(RepairMode::Off);
    assert!(
        post < spike / 2.0,
        "repair must clearly beat the unrepaired spike ({post:.4} vs {spike:.4})"
    );
}

const PAGE_KEYS: u64 = PAGE_SLOTS as u64;

/// What the reference diff reads of a cluster, taken once per comparison:
/// every node's copy of every key of the compared pages, and every key's
/// replicas under the current ring.
struct Snapshot {
    /// `copies[node][key]`.
    copies: Vec<Vec<Option<(Version, u32)>>>,
    replicas: Vec<Vec<NodeId>>,
}

impl Snapshot {
    fn of(c: &Cluster, nodes: u32, pages: usize) -> Self {
        let keys = 0..pages as u64 * PAGE_KEYS;
        let copy = |n, k| c.stored(NodeId(n), k).map(|v| (v.version, v.size));
        Snapshot {
            copies: (0..nodes)
                .map(|n| keys.clone().map(|k| copy(n, k)).collect())
                .collect(),
            replicas: keys.map(|k| c.replicas_of(k)).collect(),
        }
    }

    /// Whether `node` holds a copy of any key of `page`.
    fn holds_page(&self, node: NodeId, page: usize) -> bool {
        let keys = page * PAGE_SLOTS..(page + 1) * PAGE_SLOTS;
        self.copies[node.0 as usize][keys]
            .iter()
            .any(Option::is_some)
    }
}

/// The scan-and-gate page diff the ownership index replaced, kept as the
/// reference: scan every slot of `from`'s page, keep the records strictly
/// newer than `to`'s copy, and ask the ring whether `to` replicates each.
fn reference_page_diff(
    snapshot: &Snapshot,
    from: NodeId,
    to: NodeId,
    page: usize,
) -> Vec<(Key, Version, u32)> {
    let (from, to_copies) = (
        &snapshot.copies[from.0 as usize],
        &snapshot.copies[to.0 as usize],
    );
    (page * PAGE_SLOTS..(page + 1) * PAGE_SLOTS)
        .filter_map(|k| {
            let (version, size) = from[k]?;
            let held = to_copies[k].map_or(Version::NONE, |(v, _)| v);
            (version > held && snapshot.replicas[k].contains(&to)).then_some((
                Key(k as u64),
                version,
                size,
            ))
        })
        .collect()
}

/// Hold the indexed diff to the reference for every ordered node pair and
/// page. Returns how many diffs streamed something, and how many of the
/// compared `(to, page)` sides held nothing of a page `from` held.
fn assert_diffs_match_reference(c: &mut Cluster, nodes: u32, pages: usize) -> (usize, usize) {
    let (mut streaming, mut unallocated_to) = (0, 0);
    let snapshot = Snapshot::of(c, nodes, pages);
    for from in (0..nodes).map(NodeId) {
        for to in (0..nodes).map(NodeId).filter(|&to| to != from) {
            for page in 0..pages {
                let expected = reference_page_diff(&snapshot, from, to, page);
                let got = c.repair_page_diff(from, to, page);
                assert_eq!(got, expected, "diff {from:?} -> {to:?}, page {page}");
                streaming += usize::from(!got.is_empty());
                let held = |node| snapshot.holds_page(node, page);
                unallocated_to += usize::from(held(from) && !held(to));
            }
        }
    }
    (streaming, unallocated_to)
}

/// Submit `count` level-ONE writes over `0..key_space` (plus, with
/// `tail_key`, one on the sparse tail page) and drain the cluster.
fn write_burst(c: &mut Cluster, rng: &mut SimRng, count: u64, key_space: u64, tail: Option<u64>) {
    let start = c.now();
    for i in 0..count {
        let at = start + SimDuration::from_micros(100 * (i + 1));
        let size = 50 + rng.next_bounded(400) as u32;
        c.submit(
            BatchOp::write(at, rng.next_bounded(key_space), size).with_level(ConsistencyLevel::One),
        );
    }
    if let Some(key) = tail {
        let at = start + SimDuration::from_micros(100 * (count + 1));
        c.submit(BatchOp::write(at, key, 77).with_level(ConsistencyLevel::One));
    }
    c.run_to_completion(u64::MAX);
    assert_eq!(c.check_drained(), Ok(()));
}

/// One differential case: a random cluster, random write histories, and a
/// crash / transient outage / recovery between them, so stores diverge and
/// nodes end up holding records they no longer replicate. The repair plane
/// stays off — nothing reconciles the divergence being diffed.
fn run_diff_differential(seed: u64) {
    let mut rng = SimRng::new(seed);
    let nodes = 3 + rng.next_bounded(10) as u32;
    let rf = 1 + rng.next_bounded(5.min(nodes as u64)) as u32;
    let pages = 1 + rng.next_bounded(3) as usize;
    let mut cfg = ClusterConfig::lan_test(nodes as usize, rf);
    if rng.next_bounded(2) == 0 {
        cfg.partitioner = Partitioner::Ordered;
    }
    let mut c = Cluster::new(cfg, seed);

    // With several pages the last one is a sparse tail: a single key, past
    // the loaded count, written once — so most nodes never allocate it.
    let dense_pages = (pages as u64 - 1).max(1);
    let tail = (pages > 1).then(|| dense_pages * PAGE_KEYS + rng.next_bounded(PAGE_KEYS));
    // Writes range past the loaded record count.
    let key_space = dense_pages * PAGE_KEYS;
    let loaded = 1 + rng.next_bounded(key_space);
    c.load_records((0..loaded).map(|k| (k, 150)));

    write_burst(&mut c, &mut rng, 300, key_space, tail);
    // Fault the primaries of key 0, so that under either partitioner the
    // faulted nodes own part of what the bursts write.
    let crashed = c.replicas_of(0)[0];
    c.inject(FaultAction::CrashNode(crashed.0));
    write_burst(&mut c, &mut rng, 300, key_space, None);
    let (streaming_crashed, unallocated_to) = assert_diffs_match_reference(&mut c, nodes, pages);
    if pages > 1 && rf < nodes {
        assert!(
            unallocated_to > 0,
            "the tail page stays unallocated on some node"
        );
    }

    let flapping = c.replicas_of(0)[0];
    c.inject(FaultAction::NodeDown(flapping.0));
    write_burst(&mut c, &mut rng, 300, key_space, None);
    c.inject(FaultAction::NodeUp(flapping.0));
    c.inject(FaultAction::RecoverNode(crashed.0));
    write_burst(&mut c, &mut rng, 100, key_space, None);
    let (streaming_recovered, _) = assert_diffs_match_reference(&mut c, nodes, pages);
    assert!(
        streaming_crashed + streaming_recovered > 0,
        "the faults must leave something to stream"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn indexed_page_diff_matches_the_scan_and_gate_reference(seed in 0u64..u64::MAX) {
        run_diff_differential(seed);
    }
}

/// Advance `c` to simulated time `at` (a stepped run's stop): schedule a
/// tick there and process events until it fires.
fn run_until(c: &mut Cluster, at: SimTime) {
    c.schedule_tick(at, u64::MAX);
    while let Some(output) = c.advance() {
        if matches!(output, ClusterOutput::Tick { .. }) {
            return;
        }
    }
    panic!("the stop at {at:?} never came");
}

/// One case of the filtered diff's differential: with the repair plane on,
/// a diff visits only the keys of the unsettled set, so this holds it to
/// the reference while the set is live. A cluster over two datacenters,
/// writing at ONE over a hot set and the rest of its pages, runs a fault
/// script in which a crash/recover overlaps a down/up and a
/// partition/heal (so stand-ins take side copies, hints queue, messages
/// are lost and the sweeps and recovery migrations stream). The run stops
/// at random instants, and at each stop every ordered pair's diff of every
/// page must equal the reference; then it drains, `check_drained` holds
/// (in debug builds that checks every clear bit of the set, and that every
/// key has converged), and no diff streams anything: the sweep parked only
/// once the replicas had converged.
fn run_filtered_differential(seed: u64) {
    let mut rng = SimRng::new(seed);
    let nodes = 4 + rng.next_bounded(4) as u32;
    let rf = 2 + rng.next_bounded(2) as u32;
    let pages = 1 + rng.next_bounded(2) as usize;
    let mut cfg = ClusterConfig::lan_test(nodes as usize, rf);
    cfg.topology = Topology::spread(
        nodes as usize,
        &[("dc-a", RegionId(0)), ("dc-b", RegionId(0))],
    );
    let mode = [RepairMode::AntiEntropy, RepairMode::Full][rng.next_bounded(2) as usize];
    cfg.repair = RepairConfig::with_mode(mode);
    if rng.next_bounded(2) == 0 {
        cfg.partitioner = Partitioner::Ordered;
    }
    let mut c = Cluster::new(cfg, seed);
    let key_space = pages as u64 * PAGE_KEYS;
    c.load_records((0..1 + rng.next_bounded(key_space)).map(|k| (k, 150)));

    // Writes at ONE, one every 0–3 ms over `span`: half on 32 hot keys.
    let span = 600_000u64;
    let hot = rng.next_bounded(key_space - 32);
    let mut at = 0;
    while at < span {
        at += rng.next_bounded(3_000);
        let key = match rng.next_bounded(2) {
            0 => hot + rng.next_bounded(32),
            _ => rng.next_bounded(key_space),
        };
        let size = 50 + rng.next_bounded(400) as u32;
        let write = BatchOp::write(SimTime::from_micros(at), key, size);
        c.submit(write.with_level(ConsistencyLevel::One));
    }
    // crash(a) < down(b) < partition < recover(a) < up(b), heal: the
    // crash window overlaps the other two.
    let a = rng.next_bounded(nodes as u64) as u32;
    let b = (a + 1 + rng.next_bounded(nodes as u64 - 1) as u32) % nodes;
    let mut instants: Vec<u64> = (0..6).map(|_| rng.next_bounded(span)).collect();
    instants.sort_unstable();
    let script = [
        FaultAction::CrashNode(a),
        FaultAction::NodeDown(b),
        FaultAction::PartitionDcs(0, 1),
        FaultAction::RecoverNode(a),
        FaultAction::NodeUp(b),
        FaultAction::HealDcs(0, 1),
    ];
    for (&at, action) in instants.iter().zip(script) {
        c.schedule_fault(SimTime::from_micros(at), action);
    }

    let mut stops: Vec<u64> = (0..4).map(|_| rng.next_bounded(span)).collect();
    stops.sort_unstable();
    for stop in stops {
        let stop = SimTime::from_micros(stop).max(c.now());
        run_until(&mut c, stop);
        assert_diffs_match_reference(&mut c, nodes, pages);
    }
    c.run_to_completion(u64::MAX);
    assert_eq!(c.check_drained(), Ok(()));
    let (streaming, _) = assert_diffs_match_reference(&mut c, nodes, pages);
    assert_eq!(streaming, 0, "diffs still streaming after the drain");
}

proptest! {
    #[test]
    fn filtered_page_diff_matches_the_reference_under_repair(seed in 0u64..u64::MAX) {
        run_filtered_differential(seed);
    }
}

/// The ownership index is per ring epoch: a crash or a recovery must drop
/// it, or the next diff would gate on the old owners.
#[test]
fn ownership_index_follows_ring_changes() {
    let (nodes, pages) = (4u32, 1);
    let mut c = Cluster::new(ClusterConfig::lan_test(nodes as usize, 2), 7);
    c.load_records((0..500u64).map(|k| (k, 150)));
    let victim = NodeId(3);
    let into_victim = |c: &mut Cluster| -> usize {
        (0..3)
            .map(|from| c.repair_page_diff(NodeId(from), victim, 0).len())
            .sum()
    };
    assert_eq!(
        into_victim(&mut c),
        0,
        "a freshly loaded cluster is converged"
    );

    // Crashed: the victim owns nothing, so nothing may stream to it even
    // though every survivor now holds newer versions of its old keys.
    c.inject(FaultAction::CrashNode(victim.0));
    let mut rng = SimRng::new(7);
    write_burst(&mut c, &mut rng, 400, 500, None);
    assert_eq!(into_victim(&mut c), 0, "a crashed node replicates nothing");
    assert_diffs_match_reference(&mut c, nodes, pages);

    // Recovered: the index built under the crashed ring is stale. The diff
    // must see the restored owners and stream what the victim missed.
    c.inject(FaultAction::RecoverNode(victim.0));
    assert!(
        into_victim(&mut c) > 0,
        "the recovered node owns its keys again"
    );
    assert_diffs_match_reference(&mut c, nodes, pages);

    // Fully crashed ring (effective RF 0): every list is empty, no panic.
    for n in 0..nodes {
        c.inject(FaultAction::CrashNode(n));
    }
    let (streaming, _) = assert_diffs_match_reference(&mut c, nodes, pages);
    assert_eq!(streaming, 0, "no node replicates anything on an empty ring");
}
