//! Thread-invariance matrix of the conservative-PDES engine.
//!
//! `golden_determinism` pins fixed-seed scenarios against hardcoded digests
//! at 1, 2 and 4 shards. This suite pins the other axis of the determinism
//! contract: for a **fixed shard count**, the full observable fingerprint of
//! a run must be byte-identical at *any* worker-thread count (1, 2, 4 and 8
//! here), because shard batches only touch shard-owned state and everything
//! cross-shard is applied serially in fixed shard order at window closes. The
//! scenarios attack the engine where the window/mailbox machinery is under
//! the most stress — an ordered-partitioner scan straddling a shard
//! boundary, bulk-submitted arrival streams, geo churn crossing the cut —
//! and each one also sanity-checks the physics across shard counts (same
//! op totals; each shard count is otherwise its own deterministic universe,
//! see the golden suite's module docs). Faults and timeout retries need the
//! one-shard engine, so every scenario here is healthy and retry-free; the
//! one-shard fault runs are pinned by the golden suite.
//!
//! The thread counts are driven through the work-stealing pool's
//! `ThreadPool::install` scope, the same mechanism `--threads` uses in the
//! bench binaries, so the matrix here exercises exactly the production
//! dispatch path — including thread counts far above this container's core
//! count (oversubscription must not change a byte either).

use concord_cluster::{
    BatchOp, Cluster, ClusterConfig, ConsistencyLevel, Partitioner, ReplicationStrategy,
    ORDERED_SLICE_KEYS,
};
use concord_sim::{NetworkModel, RegionId, SimDuration, SimTime, Topology};

/// Full observable fingerprint of a drained run: an FNV-1a digest over every
/// completed operation plus the public counters a driver could read.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    ops: u64,
    timeouts: u64,
    stale: u64,
    latency_sum_us: u64,
    checksum: u64,
    events: u64,
    now_us: u64,
    messages: u64,
    messages_lost: u64,
    traffic_total: u64,
    storage_ops: (u64, u64),
    windows: u64,
    fast_forwards: u64,
    parallel_batches: u64,
    max_batch_len: u64,
    // Resilience-layer counters: every scenario here runs with the layer
    // off, which pins them to zero (the layer must be inert when disabled).
    hedged_requests: u64,
    hedge_wins: u64,
    backoff_retries: u64,
    breaker_opens: u64,
    hedge_traffic: u64,
}

/// Drain the cluster and fingerprint the completed-operation stream.
fn drain(c: &mut Cluster) -> Fingerprint {
    let mut ops = 0u64;
    let mut timeouts = 0u64;
    let mut stale = 0u64;
    let mut latency_sum_us = 0u64;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let fnv = |h: &mut u64, x: u64| {
        *h ^= x;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for op in c.run_to_completion(u64::MAX) {
        ops += 1;
        if op.status == concord_cluster::OpStatus::Timeout {
            timeouts += 1;
        }
        if op.stale {
            stale += 1;
        }
        latency_sum_us += op.latency().as_micros();
        fnv(&mut h, op.completed_at.as_micros());
        fnv(&mut h, op.returned_version.0);
        fnv(&mut h, op.staleness_depth as u64);
        fnv(&mut h, op.records_returned as u64);
    }
    assert_eq!(c.check_drained(), Ok(()));
    let m = c.shard_metrics();
    Fingerprint {
        ops,
        timeouts,
        stale,
        latency_sum_us,
        checksum: h,
        events: c.events_processed(),
        now_us: c.now().as_micros(),
        messages: c.metrics().messages,
        messages_lost: c.metrics().messages_lost,
        traffic_total: c.metrics().traffic.total(),
        storage_ops: (c.metrics().storage_read_ops, c.metrics().storage_write_ops),
        windows: m.windows,
        fast_forwards: m.fast_forwards,
        parallel_batches: m.parallel_batches,
        max_batch_len: m.max_batch_len,
        hedged_requests: c.metrics().hedged_requests,
        hedge_wins: c.metrics().hedge_wins,
        backoff_retries: c.metrics().backoff_retries,
        breaker_opens: c.metrics().breaker_opens,
        hedge_traffic: c.metrics().hedge_traffic.total(),
    }
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the vendored builder cannot fail")
}

/// Run `scenario` over the shards × threads matrix. For every shard count,
/// the fingerprint must be byte-identical at 1, 2, 4 and 8 worker threads;
/// the per-shard-count fingerprints (at any thread count — they are all the
/// same) are returned for scenario-level physics assertions.
fn thread_matrix(scenario: impl Fn(u32) -> Fingerprint) -> Vec<Fingerprint> {
    [1u32, 2, 4]
        .into_iter()
        .map(|shards| {
            let base = pool(1).install(|| scenario(shards));
            for threads in [2usize, 4, 8] {
                let fp = pool(threads).install(|| scenario(shards));
                assert_eq!(
                    fp, base,
                    "shards={shards}: {threads} worker threads diverged from 1"
                );
            }
            if shards > 1 {
                assert!(
                    base.windows > 0,
                    "shards={shards}: no lookahead windows ran"
                );
                assert!(
                    base.parallel_batches > 0,
                    "shards={shards}: no window ever had two busy shard batches"
                );
            }
            base
        })
        .collect()
}

/// A two-site geo cluster whose datacenters land on different shards at
/// `shards >= 2` (nodes are shard-mapped dc-contiguously).
fn two_site_cluster(seed: u64, shards: u32, rf: u32) -> Cluster {
    let mut cfg = ClusterConfig::lan_test(6, rf);
    cfg.topology = Topology::spread(
        6,
        &[("site-east", RegionId(0)), ("site-south", RegionId(0))],
    );
    cfg.network = NetworkModel::grid5000_like();
    cfg.strategy = ReplicationStrategy::NetworkTopology;
    cfg.read_repair = true;
    cfg.shards = shards;
    Cluster::new(cfg, seed)
}

/// Submit alternating ALL-write / ONE-read churn (the mix that keeps write
/// fan-outs, acks and timeouts crossing shards continuously).
fn submit_churn(c: &mut Cluster, ops: u64, keys: u64, gap_us: u64) {
    let mut at = SimTime::ZERO;
    for i in 0..ops {
        at += SimDuration::from_micros(gap_us);
        if i % 2 == 0 {
            c.submit(BatchOp::write(at, (i / 2) % keys, 180).with_level(ConsistencyLevel::All));
        } else {
            c.submit_read_at((i / 2) % keys, at);
        }
    }
}

/// Ordered-partitioner range scans anchored just below an ownership-slice
/// boundary, with the record space split so the two slices' owners live on
/// different shards: the segment fan-out gathers one scan's responses from
/// both sides of a shard boundary.
#[test]
fn ordered_scan_straddling_a_shard_boundary_is_thread_invariant() {
    let fps = thread_matrix(|shards| {
        let mut cfg = ClusterConfig::lan_test(6, 3);
        cfg.topology = Topology::spread(
            6,
            &[("site-east", RegionId(0)), ("site-south", RegionId(0))],
        );
        cfg.network = NetworkModel::grid5000_like();
        cfg.strategy = ReplicationStrategy::NetworkTopology;
        cfg.read_repair = true;
        cfg.partitioner = Partitioner::Ordered;
        cfg.shards = shards;
        let mut c = Cluster::new(cfg, 61);
        let records = 2 * ORDERED_SLICE_KEYS;
        c.load_records((0..records).map(|k| (k, 180)));
        c.set_levels(ConsistencyLevel::One, ConsistencyLevel::One);
        let mut at = SimTime::ZERO;
        for i in 0..2_000u64 {
            at += SimDuration::from_micros(400);
            // Anchor just below the slice boundary so scans keep straddling
            // it; writes hit the anchor so scans race their propagation.
            let hot = ORDERED_SLICE_KEYS - 1 - ((i / 4) % 16);
            if i % 4 == 0 {
                c.submit_write_at(hot, 180, at);
            } else {
                c.submit_scan_at(hot, 8 + (i % 24) as u32, at);
            }
        }
        drain(&mut c)
    });
    for fp in &fps {
        assert_eq!(fp.ops, 2_000);
    }
}

/// Batch-submitted arrivals (the bulk FIFO lane) route per home shard; the
/// fingerprint must match per-op submission exactly within every shard
/// count, at every thread count.
#[test]
fn bulk_submitted_arrivals_match_per_op_submission_at_any_thread_count() {
    let run = |shards: u32, batch: bool| {
        let mut c = two_site_cluster(67, shards, 3);
        c.load_records((0..25u64).map(|k| (k, 150)));
        if batch {
            let ops: Vec<BatchOp> = (0..1_500u64)
                .map(|i| {
                    let at = SimTime::from_micros((i + 1) * 300);
                    if i % 2 == 0 {
                        BatchOp::write(at, (i / 2) % 25, 150)
                    } else {
                        BatchOp::read(at, (i / 2) % 25)
                    }
                })
                .collect();
            assert_eq!(c.submit_batch(ops), 1_500);
        } else {
            // Same schedule through the per-op path (default levels, like
            // the batch constructors).
            for i in 0..1_500u64 {
                let at = SimTime::from_micros((i + 1) * 300);
                if i % 2 == 0 {
                    c.submit_write_at((i / 2) % 25, 150, at);
                } else {
                    c.submit_read_at((i / 2) % 25, at);
                }
            }
        }
        drain(&mut c)
    };
    let batched = thread_matrix(|shards| run(shards, true));
    for (i, shards) in [1u32, 2, 4].into_iter().enumerate() {
        let per_op = run(shards, false);
        assert_eq!(
            batched[i], per_op,
            "{shards} shards: batch vs per-op submission"
        );
    }
}

/// The dispatch primitive really runs shard batches on more than one worker
/// thread: under a 4-thread pool, `par_for_each_mut` over blocking items
/// must be observed from at least two distinct OS threads. (The cluster
/// tests above prove thread *invariance*; this proves the threads are
/// actually there to be invariant against.)
#[test]
fn window_dispatch_uses_multiple_worker_threads() {
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
    // Each item spins briefly so the scheduler has time to run another
    // worker even on a single hardware core; retry to absorb scheduling
    // flukes without ever flaking on a loaded machine.
    for attempt in 0..20 {
        seen.lock().unwrap().clear();
        pool(4).install(|| {
            let mut items = [0u64; 8];
            rayon::par_for_each_mut(&mut items, |_, slot| {
                seen.lock().unwrap().insert(std::thread::current().id());
                let deadline = Instant::now() + Duration::from_millis(10);
                while Instant::now() < deadline {
                    *slot = slot.wrapping_add(1);
                    std::hint::spin_loop();
                }
            });
        });
        if seen.lock().unwrap().len() >= 2 {
            return;
        }
        // Give the OS a chance to schedule the other workers next round.
        std::thread::sleep(Duration::from_millis(5 * (attempt + 1)));
    }
    panic!(
        "par_for_each_mut never ran on two distinct threads under a 4-thread pool \
         (saw {:?})",
        seen.lock().unwrap()
    );
}

/// A sharded run inside a multi-thread pool really exercises the parallel
/// window engine: batches from at least two shards execute within single
/// windows (the `parallel_batches` counter the run reports are built from).
#[test]
fn sharded_run_reports_parallel_batches_under_a_thread_pool() {
    pool(4).install(|| {
        let mut c = two_site_cluster(51, 4, 3);
        c.load_records((0..40u64).map(|k| (k, 180)));
        submit_churn(&mut c, 1_200, 40, 400);
        let fp = drain(&mut c);
        assert_eq!(fp.ops, 1_200);
        assert!(fp.windows > 0);
        assert!(
            fp.parallel_batches > 0,
            "geo churn over 4 shards must co-schedule shard batches"
        );
        assert!(fp.max_batch_len > 0);
    });
}
