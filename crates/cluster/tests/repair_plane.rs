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
//! The page diff walks a ring-derived ownership index instead of scanning
//! every slot and asking the ring about every record. The scan-and-gate
//! walk it replaced lives on here as [`reference_page_diff`]: a
//! differential property test and the index-invalidation tests hold the
//! indexed diff to exactly its `(key, version, size)` stream.

use concord_cluster::paged::PAGE_SLOTS;
use concord_cluster::{
    Cluster, ClusterConfig, ClusterOutput, ConsistencyLevel, Key, OpKind, Partitioner,
    RepairConfig, RepairMode, ReplicaSelection, Version,
};
use concord_sim::{NodeId, SimDuration, SimRng, SimTime};
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
            c.submit_write_with((i / 2) % KEYS, 150, ConsistencyLevel::One, at);
        } else {
            c.submit_read_with((i / 2 + KEYS / 2) % KEYS, ConsistencyLevel::One, at);
        }
    }
    c.schedule_tick(SimTime::from_millis(CRASH_AT_MS), 1);
    c.schedule_tick(SimTime::from_millis(RECOVER_AT_MS), 2);

    let victim = NodeId(2);
    let mut done = Vec::new();
    while let Some(out) = c.advance() {
        match out {
            ClusterOutput::Tick { id: 1, .. } => c.crash_node(victim),
            ClusterOutput::Tick { id: 2, .. } => c.recover_node(victim),
            ClusterOutput::Tick { .. } => {}
            ClusterOutput::Completed(op) => done.push(op),
        }
    }
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

/// The scan-and-gate page diff the ownership index replaced, kept as the
/// reference: scan every slot of `from`'s page, keep the records strictly
/// newer than `to`'s copy, and ask the ring whether `to` replicates each.
fn reference_page_diff(
    c: &Cluster,
    from: NodeId,
    to: NodeId,
    page: usize,
) -> Vec<(Key, Version, u32)> {
    let base = page as u64 * PAGE_KEYS;
    (base..base + PAGE_KEYS)
        .filter_map(|k| {
            let record = c.store(from).peek(Key(k))?;
            let held = c
                .store(to)
                .peek(Key(k))
                .map_or(Version::NONE, |v| v.version);
            (record.version > held && c.replicas_of(k).contains(&to)).then_some((
                Key(k),
                record.version,
                record.size,
            ))
        })
        .collect()
}

/// Hold the indexed diff to the reference for every ordered node pair and
/// page. Returns how many diffs streamed something, and how many of the
/// compared `(to, page)` sides were never allocated while `from` held the
/// page.
fn assert_diffs_match_reference(c: &mut Cluster, nodes: u32, pages: usize) -> (usize, usize) {
    let (mut streaming, mut unallocated_to) = (0, 0);
    for from in (0..nodes).map(NodeId) {
        for to in (0..nodes).map(NodeId).filter(|&to| to != from) {
            for page in 0..pages {
                let expected = reference_page_diff(c, from, to, page);
                let got = c.repair_page_diff(from, to, page);
                assert_eq!(got, expected, "diff {from:?} -> {to:?}, page {page}");
                streaming += usize::from(!got.is_empty());
                unallocated_to += usize::from(
                    c.store(from).page_slots(page).is_some()
                        && c.store(to).page_slots(page).is_none(),
                );
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
        c.submit_write_with(rng.next_bounded(key_space), size, ConsistencyLevel::One, at);
    }
    if let Some(key) = tail {
        let at = start + SimDuration::from_micros(100 * (count + 1));
        c.submit_write_with(key, 77, ConsistencyLevel::One, at);
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
    c.crash_node(crashed);
    write_burst(&mut c, &mut rng, 300, key_space, None);
    let (streaming_crashed, unallocated_to) = assert_diffs_match_reference(&mut c, nodes, pages);
    if pages > 1 && rf < nodes {
        assert!(
            unallocated_to > 0,
            "the tail page stays unallocated on some node"
        );
    }

    let flapping = c.replicas_of(0)[0];
    c.set_node_down(flapping);
    write_burst(&mut c, &mut rng, 300, key_space, None);
    c.set_node_up(flapping);
    c.recover_node(crashed);
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
    c.crash_node(victim);
    let mut rng = SimRng::new(7);
    write_burst(&mut c, &mut rng, 400, 500, None);
    assert_eq!(into_victim(&mut c), 0, "a crashed node replicates nothing");
    assert_diffs_match_reference(&mut c, nodes, pages);

    // Recovered: the index built under the crashed ring is stale. The diff
    // must see the restored owners and stream what the victim missed.
    c.recover_node(victim);
    assert!(
        into_victim(&mut c) > 0,
        "the recovered node owns its keys again"
    );
    assert_diffs_match_reference(&mut c, nodes, pages);

    // Fully crashed ring (effective RF 0): every list is empty, no panic.
    for n in 0..nodes {
        c.crash_node(NodeId(n));
    }
    let (streaming, _) = assert_diffs_match_reference(&mut c, nodes, pages);
    assert_eq!(streaming, 0, "no node replicates anything on an empty ring");
}
