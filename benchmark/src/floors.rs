//! Floors: each layer alone in a micro-loop, through its public API.
//!
//! A floor is the cost of one layer with nothing above it, so a workload's
//! cost per operation decomposes against them. Every loop runs five times
//! and reports the fastest; sizes keep the whole set near 3 s.

use crate::estimate::best_of;
use crate::metrics::Metrics;
use crate::workloads::Workload;
use concord::prelude::*;
use concord_cluster::{BatchOp, ClusterOutput, Key, ReplicaStore, Ring, StalenessOracle, Version};
use concord_core::{BismarConfig, ClusterProfile, PolicyContext};
use concord_cost::ResourceUsage;
use concord_monitor::{AccessMonitor, MonitorConfig};
use concord_sim::EventQueue;
use concord_staleness::{
    AnalyticEstimator, LevelSolver, MonteCarloEstimator, StaleReadEstimator, StalenessParams,
};
use concord_workload::OperationType;
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;

const REPEATS: usize = 5;
/// Events pending in a queue floor: the order of a run's in-flight events.
const PENDING: u64 = 4_096;
/// Keys of the store and oracle floors: 16 pages of the paged tables.
const KEYS: u64 = 65_536;

/// Nanoseconds per item of the fastest of [`REPEATS`] runs of `run`, which
/// returns the seconds its timed part took for `items` items.
fn ns_per_item(items: u64, mut run: impl FnMut() -> f64) -> f64 {
    let secs: Vec<f64> = (0..REPEATS).map(|_| run()).collect();
    best_of(&secs) * 1e9 / items as f64
}

fn timed(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Hold model on one lane: keep [`PENDING`] events queued, then pop one and
/// schedule one, `events` times. `schedule` receives the popped time.
fn queue_hold(
    events: u64,
    seed: u64,
    mut schedule: impl FnMut(&mut EventQueue<u64>, SimTime, &mut SimRng, u64),
) -> f64 {
    ns_per_item(events, || {
        let mut rng = SimRng::new(seed);
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..PENDING {
            schedule(&mut q, SimTime::ZERO, &mut rng, i);
        }
        timed(|| {
            for i in 0..events {
                let (at, e) = q.pop().expect("the queue holds PENDING events");
                black_box(e);
                schedule(&mut q, at, &mut rng, i);
            }
        })
    })
}

fn sim_floors(m: &mut Metrics, w: &Workload, n: u64) {
    let seed = w.experiment.seed;
    m.set(
        "sim.queue_heap_ns_per_event",
        queue_hold(n, seed, |q, at, rng, i| {
            q.schedule_at(at + SimDuration::from_micros(rng.next_bounded(10_000)), i)
        }),
    );
    // One constant timeout: keys arrive sorted, so the lane stays a FIFO.
    m.set(
        "sim.queue_fifo_ns_per_event",
        queue_hold(n, seed, |q, at, _, i| {
            q.schedule_timeout(at + SimDuration::from_secs(1), i)
        }),
    );
    // Heterogeneous timeouts arrive out of order and take the timer wheel.
    m.set(
        "sim.queue_wheel_ns_per_event",
        queue_hold(n, seed, |q, at, rng, i| {
            if i == 0 && q.is_empty() {
                // A far deadline at the FIFO's back sends all later ones to the wheel.
                q.schedule_timeout(SimTime::from_secs(1 << 30), u64::MAX);
            }
            q.schedule_timeout(
                at + SimDuration::from_micros(1 + rng.next_bounded(1_000_000)),
                i,
            )
        }),
    );
    m.set(
        "sim.queue_bulk_ns_per_event",
        ns_per_item(n, || {
            let mut q: EventQueue<u64> = EventQueue::new();
            timed(|| {
                q.bulk_load_sorted((0..n).map(|i| (SimTime::from_micros(i * 7), i)));
                while let Some((_, e)) = q.pop() {
                    black_box(e);
                }
            })
        }),
    );
    let delay = w.experiment.platform.cluster.network.intra_dc.compiled();
    m.set(
        "sim.delay_sample_ns",
        ns_per_item(n, || {
            let mut rng = SimRng::new(seed);
            timed(|| {
                for _ in 0..n {
                    black_box(delay.sample(&mut rng));
                }
            })
        }),
    );
}

fn workload_floors(m: &mut Metrics, w: &Workload, n: u64) {
    let seed = w.experiment.seed;
    let mix = WorkloadConfig {
        operation_count: n,
        ..w.experiment.workload.clone()
    };
    m.set(
        "workload.next_op_ns",
        ns_per_item(n, || {
            let mut generator = CoreWorkload::new(mix.clone());
            let mut rng = SimRng::new(seed);
            timed(|| {
                for _ in 0..n {
                    black_box(generator.next_op(&mut rng));
                }
            })
        }),
    );
    m.set(
        "workload.timed_ops_ns",
        ns_per_item(n, || {
            let mut generator = CoreWorkload::new(mix.clone());
            let mut rng = SimRng::new(seed);
            let process = ArrivalProcess::OpenLoopPoisson {
                ops_per_sec: 15_000.0,
            };
            timed(|| {
                for timed_op in generator.timed_ops(process, SimTime::ZERO, &mut rng) {
                    black_box(timed_op);
                }
            })
        }),
    );
}

fn table_floors(m: &mut Metrics, w: &Workload, n: u64) {
    let seed = w.experiment.seed;
    let loaded = |mut store: ReplicaStore| {
        for k in 0..KEYS {
            store.preload(Key(k), Version(k + 1), 1_000);
        }
        store
    };
    let mut store = loaded(ReplicaStore::new());
    m.set(
        "cluster.store_read_ns",
        ns_per_item(n, || {
            let mut rng = SimRng::new(seed);
            timed(|| {
                for _ in 0..n {
                    black_box(store.read(Key(rng.next_bounded(KEYS))));
                }
            })
        }),
    );
    let mut version = KEYS + 1;
    let mut write_ns = |store: &mut ReplicaStore| {
        ns_per_item(n, || {
            let mut rng = SimRng::new(seed);
            timed(|| {
                for i in 0..n {
                    version += 1;
                    let key = Key(rng.next_bounded(KEYS));
                    black_box(store.apply_write(
                        key,
                        Version(version),
                        1_000,
                        SimTime::from_micros(i),
                    ));
                }
            })
        })
    };
    m.set("cluster.store_write_ns", write_ns(&mut store));
    let mut summarized = loaded(ReplicaStore::with_summaries());
    m.set("cluster.store_summary_write_ns", write_ns(&mut summarized));
    let scans = (n / 50).max(1);
    m.set(
        "cluster.store_scan_ns_per_slot",
        ns_per_item(scans * 100, || {
            let mut rng = SimRng::new(seed);
            timed(|| {
                for _ in 0..scans {
                    black_box(store.read_range(Key(rng.next_bounded(KEYS)), 100));
                }
            })
        }),
    );

    let mut oracle = StalenessOracle::new();
    for k in 0..KEYS {
        oracle.preload(Key(k), Version(k + 1));
    }
    let mut version = KEYS + 1;
    m.set(
        "cluster.oracle_ack_ns",
        ns_per_item(n, || {
            let mut rng = SimRng::new(seed);
            timed(|| {
                for i in 0..n {
                    version += 1;
                    oracle.record_ack(
                        Key(rng.next_bounded(KEYS)),
                        Version(version),
                        SimTime::from_micros(i),
                    );
                }
            })
        }),
    );
    m.set(
        "cluster.oracle_classify_ns",
        ns_per_item(n, || {
            let mut rng = SimRng::new(seed);
            timed(|| {
                for i in 0..n {
                    let key = Key(rng.next_bounded(KEYS));
                    let expected = oracle.expected_version(key);
                    // Every fourth read returns the preloaded version: stale
                    // wherever the key was written since.
                    let returned = if i % 4 == 0 {
                        Version(key.0 + 1)
                    } else {
                        expected
                    };
                    black_box(oracle.classify_read(key, expected, returned));
                }
            })
        }),
    );

    let cfg = &w.experiment.platform.cluster;
    let ring = Ring::new(
        &cfg.topology,
        cfg.replication_factor,
        cfg.strategy,
        cfg.vnodes,
        cfg.partitioner,
    );
    let mut replicas = Vec::with_capacity(cfg.replication_factor as usize);
    m.set(
        "cluster.ring_replicas_ns",
        ns_per_item(n, || {
            let mut rng = SimRng::new(seed);
            timed(|| {
                for _ in 0..n {
                    ring.replicas_into(Key(rng.next_bounded(KEYS)), &mut replicas);
                    black_box(&replicas);
                }
            })
        }),
    );
}

fn submit(cluster: &mut Cluster, op: &concord_workload::WorkloadOp, at: SimTime) {
    match op.op {
        OperationType::Read => cluster.submit_read_at(op.key, at),
        OperationType::Scan => cluster.submit_scan_at(op.key, op.scan_length, at),
        _ => cluster.submit_write_at(op.key, op.value_size, at),
    };
}

fn drain(cluster: &mut Cluster, mut on_completion: impl FnMut(&mut Cluster, SimTime)) {
    while let Some(output) = cluster.advance() {
        if let ClusterOutput::Completed(op) = output {
            on_completion(cluster, op.completed_at);
        }
    }
}

/// The serial engine alone on the workload's platform and records: client
/// operations replayed through `submit_*` / `submit_batch` and `advance`,
/// with no monitor, no policy, no ticks and both optional planes off. What
/// `core.run_scenario_s` costs per operation above these is the scenario
/// driver and the monitor. Returns the loaded cluster for the floors above.
fn engine_floors(m: &mut Metrics, w: &Workload, n: u64) -> Cluster {
    let exp = &w.experiment;
    let mut cfg = exp.platform.cluster.clone();
    cfg.shards = 1;
    cfg.repair = RepairConfig::off();
    cfg.resilience = ResilienceConfig::off();
    cfg.read_selection = ReplicaSelection::Closest;
    let mut cluster = Cluster::new(cfg, exp.seed);
    let record_size = exp.workload.record_size();
    cluster.load_records((0..exp.workload.record_count).map(|k| (k, record_size)));
    // One generator for all repeats: each repeat replays the next `n`
    // operations of one long stream on the same, ageing cluster.
    let mut generator = CoreWorkload::new(WorkloadConfig {
        operation_count: u64::MAX,
        ..exp.workload.clone()
    });
    let mut rng = SimRng::new(exp.seed);
    let clients = 32u64;
    m.set(
        "cluster.closed_ns_per_op",
        ns_per_item(n, || {
            timed(|| {
                let start = cluster.now();
                let mut submitted = 0;
                while submitted < clients.min(n) {
                    let op = generator.next_op(&mut rng);
                    submit(
                        &mut cluster,
                        &op,
                        start + SimDuration::from_micros(submitted * 13),
                    );
                    submitted += 1;
                }
                drain(&mut cluster, |cluster, completed_at| {
                    if submitted < n {
                        let op = generator.next_op(&mut rng);
                        submit(cluster, &op, completed_at);
                        submitted += 1;
                    }
                });
            })
        }),
    );
    m.set(
        "cluster.bulk_ns_per_op",
        ns_per_item(n, || {
            timed(|| {
                let mut at = cluster.now();
                let process = ArrivalProcess::OpenLoopPoisson {
                    ops_per_sec: 15_000.0,
                };
                let batch: Vec<BatchOp> = (0..n)
                    .map(|_| {
                        let at = process.next_arrival(&mut at, &mut rng);
                        let op = generator.next_op(&mut rng);
                        match op.op {
                            OperationType::Read => BatchOp::read(at, op.key),
                            OperationType::Scan => BatchOp::scan(at, op.key, op.scan_length),
                            _ => BatchOp::write(at, op.key, op.value_size),
                        }
                    })
                    .collect();
                cluster.submit_batch(batch);
                drain(&mut cluster, |_, _| {});
            })
        }),
    );
    cluster
}

fn control_floors(m: &mut Metrics, w: &Workload, cluster: &Cluster, n: u64) {
    let exp = &w.experiment;
    let mut monitor = AccessMonitor::new(MonitorConfig::default());
    m.set(
        "monitor.record_ns",
        ns_per_item(n, || {
            let base = monitor.total_reads() + monitor.total_writes();
            timed(|| {
                for i in 0..n {
                    let at = SimTime::from_micros((base + i) * 50);
                    let latency = SimDuration::from_micros(300 + i % 700);
                    if i % 2 == 0 {
                        monitor.record_read(at, latency);
                    } else {
                        monitor.record_write(at, latency);
                    }
                }
            })
        }),
    );
    monitor.record_propagation(SimDuration::from_millis(2));
    let calls = (n / 1_000).max(10);
    let now = SimTime::from_micros((monitor.total_reads() + monitor.total_writes()) * 50);
    let per_call = |run: &mut dyn FnMut()| {
        ns_per_item(calls, || {
            timed(|| {
                for _ in 0..calls {
                    run();
                }
            })
        })
    };
    m.set(
        "monitor.snapshot_us",
        per_call(&mut || {
            black_box(monitor.snapshot(now));
        }) / 1e3,
    );

    let ctx = PolicyContext {
        now,
        snapshot: monitor.snapshot(now),
        profile: ClusterProfile::from_cluster(cluster, exp.workload.record_size()),
    };
    let mut harmony = HarmonyPolicy::with_tolerance(0.20);
    let params = StalenessParams {
        read_level: 2,
        ..harmony.staleness_params(&ctx)
    };
    let analytic = AnalyticEstimator::new();
    m.set(
        "staleness.analytic_us",
        per_call(&mut || {
            black_box(analytic.estimate(black_box(&params)));
        }) / 1e3,
    );
    let solver = LevelSolver::new();
    m.set(
        "staleness.solve_us",
        per_call(&mut || {
            black_box(solver.solve(black_box(&params), 0.20));
        }) / 1e3,
    );
    let monte_carlo = MonteCarloEstimator::new((n as usize / 10).max(100), exp.seed).with_chunks(1);
    m.set(
        "staleness.montecarlo_ms",
        ns_per_item(1, || {
            timed(|| {
                black_box(monte_carlo.estimate(black_box(&params)));
            })
        }) / 1e6,
    );
    m.set(
        "core.harmony_decide_us",
        per_call(&mut || {
            black_box(harmony.decide(black_box(&ctx)));
        }) / 1e3,
    );
    let mut bismar = BismarPolicy::new(BismarConfig {
        pricing: exp.platform.pricing,
        ..Default::default()
    });
    m.set(
        "core.bismar_decide_us",
        per_call(&mut || {
            black_box(bismar.decide(black_box(&ctx)));
        }) / 1e3,
    );
    let usage = ResourceUsage::from_cluster(cluster, cluster.now() - SimTime::ZERO);
    let pricing = exp.platform.pricing;
    m.set(
        "cost.bill_ns",
        ns_per_item(n, || {
            timed(|| {
                for _ in 0..n {
                    black_box(Bill::compute(black_box(&pricing), black_box(&usage)));
                }
            })
        }),
    );

    // What one parallel call costs when there is nothing to do: the sharded
    // engine pays it once per window, a sweep once per grid.
    let items = [1u64, 2];
    m.set(
        "rayon.par_call_us",
        crate::measure::pool(2).install(|| {
            per_call(&mut || {
                black_box(items.par_iter().map(|x| *x).sum::<u64>());
            })
        }) / 1e3,
    );
}

/// Run every floor. `shrink` divides the loop lengths (`--check` uses 20).
pub fn run(m: &mut Metrics, w: &Workload, shrink: u64) {
    let n = 100_000 / shrink;
    sim_floors(m, w, n);
    workload_floors(m, w, n);
    table_floors(m, w, n);
    let cluster = engine_floors(m, w, n / 4);
    control_floors(m, w, &cluster, n);
}
