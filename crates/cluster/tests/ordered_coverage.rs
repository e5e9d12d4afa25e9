//! Range-scan coverage under the two partitioners.
//!
//! PR 4 made scan *costs* faithful (per-record storage reads, byte-weighted
//! responses) but under hash partitioning a contacted replica can only
//! return the subset of the range it owns — Cassandra's random-partitioner
//! semantics. The ordered partitioner closes the coverage gap: a slice's
//! owners hold every record in it, and scans straddling an ownership
//! boundary gather the remainder from the next slice's owners. These tests
//! pin both semantics via [`CompletedOp::records_returned`].

use concord_cluster::{
    BatchOp, Cluster, ClusterConfig, ConsistencyLevel, FaultAction, OpKind, OpStatus, Partitioner,
    ORDERED_SLICE_KEYS,
};
use concord_sim::{SimDuration, SimTime};

/// A single-DC cluster with the requested partitioner, loaded with `records`
/// dense keys (enough to span the first two ownership slices).
fn loaded_cluster(partitioner: Partitioner, nodes: usize, rf: u32, records: u64) -> Cluster {
    let mut cfg = ClusterConfig::lan_test(nodes, rf);
    cfg.partitioner = partitioner;
    let mut c = Cluster::new(cfg, 77);
    c.load_records((0..records).map(|k| (k, 100)));
    c
}

fn run_one(c: &mut Cluster) -> Vec<concord_cluster::CompletedOp> {
    c.run_to_completion(u64::MAX)
}

#[test]
fn ordered_scan_returns_exactly_scan_len_contiguous_records() {
    let mut c = loaded_cluster(Partitioner::Ordered, 6, 3, 2 * ORDERED_SLICE_KEYS);
    c.submit(BatchOp::scan(SimTime::ZERO, 100, 25).with_level(ConsistencyLevel::One));
    let done = run_one(&mut c);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].kind, OpKind::Read);
    assert_eq!(done[0].status, OpStatus::Ok);
    assert_eq!(
        done[0].records_returned, 25,
        "an in-slice ordered scan covers its whole contiguous range"
    );
    assert!(!done[0].stale, "a quiescent scan reads fresh data");
}

#[test]
fn ordered_scan_gathers_the_full_range_across_an_ownership_boundary() {
    let mut c = loaded_cluster(Partitioner::Ordered, 6, 3, 2 * ORDERED_SLICE_KEYS);
    // Slices 0 and 1 have different owners (adjacent slices round-robin), so
    // this scan must fan out to both segments' replicas and gather.
    let anchor = ORDERED_SLICE_KEYS - 6;
    let contacted_before = c.metrics().read_replicas_contacted;
    let reads_before = c.metrics().storage_read_ops;
    c.submit(BatchOp::scan(SimTime::ZERO, anchor, 20).with_level(ConsistencyLevel::One));
    let done = run_one(&mut c);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].status, OpStatus::Ok);
    assert_eq!(
        done[0].records_returned, 20,
        "a boundary-straddling ordered scan still covers the full range"
    );
    assert_eq!(
        c.metrics().read_replicas_contacted - contacted_before,
        2,
        "level ONE contacts one replica per ownership segment"
    );
    let reads_after = c.metrics().storage_read_ops;
    assert_eq!(
        reads_after - reads_before,
        20,
        "each segment's replica probes exactly its sub-range (6 + 14 slots)"
    );
    // The two segments' owners differ: different primaries serve the scan.
    assert_ne!(c.replicas_of(anchor), c.replicas_of(ORDERED_SLICE_KEYS));
}

#[test]
fn hash_scans_retain_subset_semantics() {
    // Same scan, hash partitioning: consecutive ids scatter over the ring,
    // so the single data replica returns only the records it owns — PR 4's
    // cost-faithful but coverage-partial behaviour.
    let mut c = loaded_cluster(Partitioner::Hash, 6, 3, 2 * ORDERED_SLICE_KEYS);
    c.submit(BatchOp::scan(SimTime::ZERO, 100, 25).with_level(ConsistencyLevel::One));
    let done = run_one(&mut c);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].status, OpStatus::Ok);
    assert!(
        done[0].records_returned < 25,
        "a hash-placed replica owns only a subset of the range (got {})",
        done[0].records_returned
    );
    assert!(
        done[0].records_returned > 0,
        "the data replica owns some of the range"
    );
}

#[test]
fn ordered_point_reads_and_writes_behave_like_hash_ones() {
    // The partitioner changes *where* records live, not the protocol:
    // point ops succeed at every level and quorum intersection still
    // guarantees freshness.
    let mut c = loaded_cluster(Partitioner::Ordered, 5, 5, 64);
    c.set_levels(ConsistencyLevel::Quorum, ConsistencyLevel::Quorum);
    let mut at = SimTime::ZERO;
    for i in 0..400u64 {
        at += SimDuration::from_micros(200);
        if i % 2 == 0 {
            c.submit_write_at((i / 2) % 10, 100, at);
        } else {
            c.submit_read_at((i / 2) % 10, at);
        }
    }
    let done = run_one(&mut c);
    assert_eq!(done.len(), 400);
    assert!(done.iter().all(|o| o.status == OpStatus::Ok));
    let stale = done.iter().filter(|o| o.stale).count();
    assert_eq!(stale, 0, "R+W>N can never be stale, ordered or not");
    let point_reads: Vec<_> = done.iter().filter(|o| o.kind == OpKind::Read).collect();
    assert!(point_reads.iter().all(|o| o.records_returned == 1));
    assert_eq!(c.inflight_ops(), 0);
}

#[test]
fn ordered_scans_retry_with_full_coverage() {
    // A timed-out ordered scan re-issues with its full range and gathers
    // complete coverage once the cluster heals.
    let mut cfg = ClusterConfig::lan_test(6, 3);
    cfg.partitioner = Partitioner::Ordered;
    cfg.op_timeout = SimDuration::from_millis(50);
    cfg.retry_on_timeout = 2;
    let mut c = Cluster::new(cfg, 9);
    c.load_records((0..2 * ORDERED_SLICE_KEYS).map(|k| (k, 100)));
    for n in 0..6 {
        c.inject(FaultAction::NodeDown(n));
    }
    let anchor = ORDERED_SLICE_KEYS - 4;
    c.submit(BatchOp::scan(SimTime::ZERO, anchor, 12).with_level(ConsistencyLevel::One));
    for n in 0..6 {
        c.schedule_fault(SimTime::from_millis(60), FaultAction::NodeUp(n));
    }
    let done = c.run_to_completion(u64::MAX);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].status, OpStatus::Ok, "the retry must succeed");
    assert!(c.metrics().retries >= 1);
    assert_eq!(
        done[0].records_returned, 12,
        "the retried scan gathers its full boundary-straddling range"
    );
}

#[test]
#[should_panic(expected = "at most 2^16 ownership slices")]
fn oversized_ordered_scans_are_rejected_at_submission() {
    // Segment ids are 16-bit: a range spanning more than 2^16 slices fails
    // fast at submit time instead of panicking mid-simulation.
    let mut c = loaded_cluster(Partitioner::Ordered, 4, 3, 16);
    c.submit_scan_at(0, u32::MAX, SimTime::ZERO);
}

#[test]
fn ordered_runs_are_deterministic_and_leak_free() {
    let run = || {
        let mut c = loaded_cluster(Partitioner::Ordered, 6, 3, 2 * ORDERED_SLICE_KEYS);
        c.set_levels(ConsistencyLevel::One, ConsistencyLevel::One);
        let mut at = SimTime::ZERO;
        for i in 0..600u64 {
            at += SimDuration::from_micros(300);
            let hot = (i * 37) % (2 * ORDERED_SLICE_KEYS - 40);
            if i % 4 == 0 {
                c.submit_write_at(hot, 100, at);
            } else {
                c.submit_scan_at(hot, 1 + (i % 30) as u32, at);
            }
        }
        let done = run_one(&mut c);
        assert_eq!(c.inflight_ops(), 0, "multi-segment scans must not leak");
        assert_eq!(c.inflight_write_payloads(), 0);
        done
    };
    assert_eq!(run(), run(), "fixed seed ⇒ identical ordered run");
}
