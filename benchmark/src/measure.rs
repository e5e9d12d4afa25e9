//! One run of one workload: warm-up, timed passes, checks and metrics.
//!
//! An *arm* is the workload, or an ablation of it, run point by point; a
//! *pass* runs an arm's four points once, each on a freshly built cluster; a
//! *round* runs one pass of every arm. After one discarded warm-up pass the
//! rounds repeat until the time budget is spent, and every host-time metric
//! is the sum over the points of the best sample of each point.

use crate::alloc;
use crate::estimate::best_of;
use crate::floors;
use crate::metrics::Metrics;
use crate::trace::{self_times_ns, worst_self_time_gap, Tracer};
use crate::workloads::{self, Workload};
use concord::prelude::*;
use concord::PolicySpec;
use concord_core::{LevelDecision, PolicyContext};
use concord_monitor::MonitorConfig;
use std::path::PathBuf;
use std::time::Instant;

pub struct Options {
    pub seed: u64,
    /// Time budget of the timed rounds, in seconds.
    pub seconds: f64,
    /// Per-layer run (traced arm, ablation arms, floors) instead of the
    /// end-to-end run.
    pub trace: bool,
    /// Divides every size; more than 1 also stops after one round.
    pub shrink: u64,
    /// Where the span dump goes.
    pub out_dir: PathBuf,
}

pub struct Outcome {
    pub rows: Vec<(&'static str, f64, &'static str)>,
    /// Point runs executed and checked.
    pub attempted: u64,
    /// What went wrong, one line per failed check.
    pub failures: Vec<String>,
    pub rounds: usize,
}

#[derive(Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn require(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(message());
        }
    }
}

/// Times `decide` from outside the policy: the traced arm's decorator. The
/// calls become children of the `core.run_scenario` span afterwards, because
/// `run_scenario` holds the policy while it runs.
struct TimedPolicy {
    inner: Box<dyn ConsistencyPolicy>,
    epoch: Instant,
    calls: Vec<(u64, u64)>,
}

impl ConsistencyPolicy for TimedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &PolicyContext) -> LevelDecision {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let decision = self.inner.decide(ctx);
        self.calls
            .push((start, self.epoch.elapsed().as_nanos() as u64));
        decision
    }

    fn is_adaptive(&self) -> bool {
        self.inner.is_adaptive()
    }
}

/// Host times of one point run, in seconds.
#[derive(Clone, Copy)]
struct Sample {
    new_s: f64,
    load_s: f64,
    workload_s: f64,
    run_s: f64,
    json_s: f64,
    decide_s: f64,
}

impl Sample {
    fn setup_s(&self) -> f64 {
        self.new_s + self.load_s + self.workload_s
    }
}

/// Everything kept about one point of one arm.
#[derive(Default)]
struct PointLog {
    /// The first pass's report and its JSON: what later passes must equal.
    reference: Option<(RunReport, String)>,
    samples: Vec<Sample>,
    events: u64,
    decide_calls: u64,
    allocations: u64,
    allocated_bytes: u64,
}

impl PointLog {
    fn report(&self) -> &RunReport {
        &self.reference.as_ref().expect("the arm's first pass ran").0
    }

    fn json(&self) -> &str {
        &self.reference.as_ref().expect("the arm's first pass ran").1
    }

    fn best(&self, field: impl Fn(&Sample) -> f64) -> f64 {
        best_of(&self.samples.iter().map(field).collect::<Vec<_>>())
    }
}

struct Arm {
    label: &'static str,
    workload: Workload,
    traced: bool,
    points: Vec<PointLog>,
}

pub fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool construction cannot fail")
}

/// `Experiment::runtime_config` is private; the `run_spec` check pins that
/// this stays the same configuration.
fn runtime_config(exp: &Experiment) -> RuntimeConfig {
    RuntimeConfig {
        clients: exp.clients,
        think_time: SimDuration::ZERO,
        adaptation_interval: exp.adaptation_interval,
        monitor: MonitorConfig::default(),
        pricing: Some(exp.platform.pricing),
        max_outputs: u64::MAX,
    }
}

impl Arm {
    fn new(label: &'static str, workload: Workload, traced: bool) -> Self {
        let points = workload.specs.iter().map(|_| PointLog::default()).collect();
        Arm {
            label,
            workload,
            traced,
            points,
        }
    }

    /// Sum over the points of each point's best sample of `field`.
    fn sum_best(&self, field: impl Fn(&Sample) -> f64 + Copy) -> f64 {
        self.points.iter().map(|p| p.best(field)).sum()
    }

    fn reports(&self) -> impl Iterator<Item = &RunReport> {
        self.points.iter().map(PointLog::report)
    }

    /// Run every point once on `threads` pool threads. A `warm_up` pass sets
    /// the references and keeps no times.
    fn pass(&mut self, threads: usize, warm_up: bool, tracer: &mut Tracer, checks: &mut Checks) {
        let pass_span = tracer.enter("pass");
        for i in 0..self.points.len() {
            let spec = self.workload.specs[i].clone();
            tracer.set_point(i as u32);
            pool(threads).install(|| self.run_point(i, &spec, warm_up, tracer, checks));
        }
        tracer.exit(pass_span);
    }

    /// Set up and run one point the way `Experiment::run_spec` does, with
    /// each call into a layer timed on its own.
    fn run_point(
        &mut self,
        i: usize,
        spec: &PolicySpec,
        warm_up: bool,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) {
        let exp = &self.workload.experiment;
        let point_span = tracer.enter("point");

        let build_span = tracer.enter("concord.build_cluster");
        let (mut cluster, new_s, _) = tracer.span("cluster.new", || {
            Cluster::new(exp.platform.cluster.clone(), exp.seed)
        });
        let record_size = exp.workload.record_size();
        let records = (0..exp.workload.record_count).map(move |k| (k, record_size));
        let (_, load_s, _) = tracer.span("cluster.load_records", || cluster.load_records(records));
        tracer.exit(build_span);
        let (mut workload, workload_s, _) =
            tracer.span("workload.new", || CoreWorkload::new(exp.workload.clone()));

        let mut runtime = AdaptiveRuntime::new(runtime_config(exp), exp.seed);
        let mut timed = TimedPolicy {
            inner: spec.instantiate(&exp.platform),
            epoch: tracer.epoch(),
            calls: Vec::new(),
        };
        let policy: &mut dyn ConsistencyPolicy = if self.traced {
            &mut timed
        } else {
            timed.inner.as_mut()
        };
        let scenario = exp.scenario();
        let mut run = || runtime.run_scenario(&mut cluster, &mut workload, policy, &scenario);
        let ((mut report, allocations, allocated_bytes), run_s, run_span) =
            tracer.span("core.run_scenario", || {
                if self.traced {
                    alloc::counted(&mut run)
                } else {
                    (run(), 0, 0)
                }
            });
        for &(start, end) in &timed.calls {
            tracer.add_child(run_span, "core.decide", start, end);
        }
        report.policy = spec.label();
        let (json, json_s, _) = tracer.span("core.report_json", || report.to_json());
        tracer.exit(point_span);

        checks.attempted += 1;
        let at = format!(
            "{} {} point {}",
            self.workload.name,
            self.label,
            spec.label()
        );
        let ops = exp.workload.operation_count;
        checks.require(
            report.total_ops == ops
                && report.reads + report.writes == ops
                && report.timeouts <= ops,
            || {
                format!(
                    "{at}: {ops} submitted, {} completed of which {} timed out",
                    report.total_ops, report.timeouts
                )
            },
        );
        let events = cluster.events_processed();
        if self.workload.healthy() {
            // `run_scenario` returns at the last completion, with replica
            // acks of level-ONE writes still travelling. Drained, a healthy
            // cluster must hold no operation and complete nothing further.
            let late = cluster.run_to_completion(u64::MAX).len();
            checks.require(late == 0 && cluster.inflight_ops() == 0 && report.timeouts == 0, || {
                format!(
                    "{at}: drained, {late} more completions, {} ops in flight, {} timeouts on a healthy cluster",
                    cluster.inflight_ops(),
                    report.timeouts
                )
            });
        }
        let log = &mut self.points[i];
        match &log.reference {
            Some((_, reference)) => checks.require(*reference == json, || {
                format!("{at}: the report differs from the first pass's")
            }),
            None => log.reference = Some((report, json)),
        }
        log.events = events;
        log.decide_calls = timed.calls.len() as u64;
        (log.allocations, log.allocated_bytes) = (allocations, allocated_bytes);
        if !warm_up {
            log.samples.push(Sample {
                new_s,
                load_s,
                workload_s,
                run_s,
                json_s,
                decide_s: timed.calls.iter().map(|(s, e)| (e - s) as f64 / 1e9).sum(),
            });
        }
    }
}

/// The checks on what the simulation did, once per arm after its first pass.
fn check_behaviour(arm: &Arm, checks: &mut Checks) {
    let w = &arm.workload;
    let cfg = &w.experiment.platform.cluster;
    for (spec, r) in w.specs.iter().zip(arm.reports()) {
        let at = format!("{} {} point {}", w.name, arm.label, spec.label());
        checks.require(r.faults_injected == w.scripted_faults(), || {
            format!(
                "{at}: {} of {} scripted faults fired",
                r.faults_injected,
                w.scripted_faults()
            )
        });
        if let (true, PolicySpec::Harmony { tolerance }) = (w.healthy(), spec) {
            checks.require(r.stale_read_rate <= *tolerance, || {
                format!(
                    "{at}: stale-read rate {} exceeds the tolerance",
                    r.stale_read_rate
                )
            });
        }
        if !w.healthy() {
            checks.require(r.messages_lost > 0, || {
                format!("{at}: the partition lost no message")
            });
            checks.require(
                (r.repair_traffic.total() > 0) == (cfg.repair.mode != RepairMode::Off),
                || {
                    format!(
                        "{at}: repair moved {} bytes in mode {:?}",
                        r.repair_traffic.total(),
                        cfg.repair.mode
                    )
                },
            );
            checks.require(
                (r.hedged_requests > 0) == cfg.resilience.hedging_enabled(),
                || format!("{at}: {} hedged requests", r.hedged_requests),
            );
        }
    }
}

fn same_reports(a: &Arm, b: &Arm, what: &str, checks: &mut Checks) {
    for (spec, (pa, pb)) in a.workload.specs.iter().zip(a.points.iter().zip(&b.points)) {
        checks.require(pa.json() == pb.json(), || {
            format!("{} point {}: {what}", a.workload.name, spec.label())
        });
    }
}

/// Simulated throughput of a closed-loop eventual point on the 2-shard
/// engine over the serial engine's: how far the sharded engine's closed
/// loop is from the model it should reproduce.
fn sharded_closed_thr_ratio(w: &Workload, shrink: u64) -> f64 {
    let throughput = |shards: u32| {
        let mut exp = w
            .experiment
            .clone()
            .with_arrival(ArrivalProcess::closed(32));
        exp.platform.cluster.shards = shards;
        exp.workload.record_count = 20_000;
        exp.workload.operation_count = 20_000 / shrink;
        pool(1).install(|| exp.run_spec(&PolicySpec::Eventual).throughput_ops_per_sec)
    };
    throughput(2) / throughput(1)
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

fn end_to_end(m: &mut Metrics, main: &Arm, peak_rss_mib: f64) {
    let sum = |f: fn(&RunReport) -> f64| main.reports().map(f).sum::<f64>();
    let ops = sum(|r| r.total_ops as f64);
    let wall_s = main.sum_best(|s| s.run_s);
    m.set("wall_s", wall_s);
    m.set("setup_s", main.sum_best(Sample::setup_s));
    m.set("sim_ops_per_s", ops / wall_s);
    m.set("peak_rss_mb", peak_rss_mib);
    m.set(
        "completed_op_share",
        (ops - sum(|r| r.timeouts as f64)) / ops,
    );
    m.set(
        "stale_read_rate",
        sum(|r| r.stale_reads as f64) / sum(|r| r.reads as f64),
    );
    m.set(
        "sim_throughput_ops_s",
        ops / sum(|r| r.makespan.as_secs_f64()),
    );
    m.set("bill_usd_per_mop", sum(|r| r.total_cost_usd()) / ops * 1e6);
}

/// The per-layer metrics that come from the arms (the floors set the rest).
fn per_layer(m: &mut Metrics, arms: &[Arm], tracer: &Tracer, sweep_s: &[f64], closed_ratio: f64) {
    let (main, traced) = (&arms[0], &arms[1]);
    let arm_run_s = |label: &str| {
        arms.iter()
            .find(|a| a.label == label)
            .map(|a| a.sum_best(|s| s.run_s))
    };
    let sum = |f: fn(&RunReport) -> f64| main.reports().map(f).sum::<f64>();
    let points = main.points.len() as f64;
    let ops = sum(|r| r.total_ops as f64);
    let records = main.workload.experiment.workload.record_count as f64;

    m.set(
        "concord.build_cluster_s",
        traced.sum_best(|s| s.new_s + s.load_s),
    );
    m.set(
        "cluster.new_ms",
        traced.sum_best(|s| s.new_s) / points * 1e3,
    );
    m.set(
        "cluster.load_ns_per_record",
        traced.sum_best(|s| s.load_s) / (points * records) * 1e9,
    );
    m.set(
        "workload.new_ms",
        traced.sum_best(|s| s.workload_s) / points * 1e3,
    );

    let run_s = main.sum_best(|s| s.run_s);
    let traced_run_s = traced.sum_best(|s| s.run_s);
    let decide_s = traced.sum_best(|s| s.decide_s);
    let decide_calls: u64 = traced.points.iter().map(|p| p.decide_calls).sum();
    // Self time of `core.run_scenario`: per point the least over the passes.
    let self_ns = self_times_ns(tracer.spans());
    let driver_engine_self_s: f64 = (0..main.points.len() as u32)
        .map(|point| {
            (tracer.spans().iter().zip(&self_ns))
                .filter(|(s, _)| s.name == "core.run_scenario" && s.point == point)
                .map(|(_, self_ns)| *self_ns as f64 / 1e9)
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    m.set("core.run_scenario_s", traced_run_s);
    m.set("core.decide_calls", decide_calls as f64);
    m.set("core.decide_us_mean", decide_s / decide_calls as f64 * 1e6);
    m.set("core.decide_share", decide_s / traced_run_s);
    m.set("core.driver_engine_self_s", driver_engine_self_s);
    m.set(
        "core.report_json_us",
        traced.sum_best(|s| s.json_s) / points * 1e6,
    );
    m.set("trace.overhead_share", (traced_run_s - run_s) / run_s);

    let events: u64 = main.points.iter().map(|p| p.events).sum();
    m.set("cluster.events_per_op", events as f64 / ops);
    m.set("cluster.ns_per_event", run_s / events as f64 * 1e9);
    let allocations: u64 = traced.points.iter().map(|p| p.allocations).sum();
    let allocated: u64 = traced.points.iter().map(|p| p.allocated_bytes).sum();
    m.set("alloc.count_per_op", allocations as f64 / ops);
    m.set("alloc.bytes_per_op", allocated as f64 / ops);

    m.set(
        "cluster.sim_read_p99_ms",
        sum(|r| r.read_latency_ms.p99) / points,
    );
    m.set(
        "cluster.sim_write_p99_ms",
        sum(|r| r.write_latency_ms.p99) / points,
    );
    m.set(
        "cluster.mean_read_replicas",
        sum(|r| r.mean_read_replicas * r.reads as f64) / sum(|r| r.reads as f64),
    );
    m.set("core.adaptation_steps", sum(|r| r.adaptation_steps as f64));
    m.set(
        "core.level_changes",
        sum(|r| r.level_timeline.len() as f64 - 1.0),
    );

    type Field = fn(&RunReport) -> f64;
    let counters: [(&str, Field); 19] = [
        ("cluster.timeouts", |r| r.timeouts as f64),
        ("cluster.retries", |r| r.retries as f64),
        ("cluster.messages_lost", |r| r.messages_lost as f64),
        ("cluster.hints_replayed", |r| r.hints_replayed as f64),
        ("cluster.repair_pages_compared", |r| {
            r.repair_pages_compared as f64
        }),
        ("cluster.repair_records_streamed", |r| {
            r.repair_records_streamed as f64
        }),
        ("cluster.repair_bytes", |r| r.repair_traffic.total() as f64),
        ("cluster.hedged_requests", |r| r.hedged_requests as f64),
        ("cluster.hedge_wins", |r| r.hedge_wins as f64),
        ("cluster.backoff_retries", |r| r.backoff_retries as f64),
        ("cluster.breaker_opens", |r| r.breaker_opens as f64),
        ("cluster.shard_windows", |r| r.shard_windows as f64),
        ("cluster.parallel_batches", |r| r.parallel_batches as f64),
        ("cluster.barrier_folds", |r| r.barrier_folds as f64),
        ("cluster.elided_barriers", |r| r.elided_barriers as f64),
        ("cluster.fast_forwards", |r| r.fast_forwards as f64),
        ("cluster.cross_shard_staged", |r| {
            r.cross_shard_staged as f64
        }),
        ("cluster.lookahead_violations", |r| {
            r.lookahead_violations as f64
        }),
        ("cluster.max_batch_len", |r| r.max_batch_len as f64),
    ];
    for (name, field) in counters {
        // The largest batch is a maximum; every other counter adds up.
        let value = match name {
            "cluster.max_batch_len" => main.reports().map(field).fold(0.0, f64::max),
            _ => sum(field),
        };
        m.set(name, value);
    }
    let windows = sum(|r| r.shard_windows as f64);
    m.set(
        "cluster.events_per_window",
        if windows > 0.0 {
            events as f64 / windows
        } else {
            0.0
        },
    );

    // Ablations: what a plane or a thread costs is the difference between
    // the best walls with and without it. 0 where the workload has no such arm.
    let repair_plane_s = arm_run_s("repair_off").map_or(0.0, |off| run_s - off);
    let pages = sum(|r| r.repair_pages_compared as f64);
    m.set("cluster.repair_plane_s", repair_plane_s);
    m.set(
        "cluster.repair_us_per_page",
        if pages > 0.0 {
            repair_plane_s / pages * 1e6
        } else {
            0.0
        },
    );
    m.set(
        "cluster.resilience_plane_s",
        arm_run_s("repair_off")
            .zip(arm_run_s("planes_off"))
            .map_or(0.0, |(repair_off, off)| repair_off - off),
    );
    m.set(
        "cluster.par2_speedup",
        arm_run_s("threads2").map_or(0.0, |two| run_s / two),
    );
    m.set(
        "cluster.shard_overhead",
        arm_run_s("shards1").map_or(0.0, |serial| run_s / serial),
    );
    m.set("cluster.sharded_closed_thr_ratio", closed_ratio);
    let sequential_s = main.sum_best(|s| s.setup_s() + s.run_s);
    m.set(
        "bench.sweep_par2_speedup",
        if sweep_s.is_empty() {
            0.0
        } else {
            sequential_s / best_of(sweep_s)
        },
    );
}

/// Run one workload and return its metrics and what its checks found.
pub fn run(name: &str, opts: &Options) -> Option<Outcome> {
    let build = || workloads::build(name, opts.seed, opts.shrink);
    let mut arms = vec![Arm::new("main", build()?, false)];
    if opts.trace {
        arms.push(Arm::new("traced", build()?, true));
        // Ablations: the same points with one thing taken away.
        for (label, take_away) in arms[0].workload.ablations {
            let mut ablated = build()?;
            take_away(&mut ablated);
            arms.push(Arm::new(label, ablated, false));
        }
    }
    let mut checks = Checks::default();
    let mut untraced = Tracer::new(false);
    let mut tracer = Tracer::new(true);
    let mut metrics = if opts.trace {
        Metrics::per_layer()
    } else {
        Metrics::end_to_end()
    };

    // Warm-up: one discarded pass, so that first-touch page faults and cold
    // caches stay out of every sample.
    let threads = arms[0].workload.threads;
    arms[0].pass(threads, true, &mut untraced, &mut checks);
    check_behaviour(&arms[0], &mut checks);
    // One point through the library's own entry point must give the same
    // bytes as the split set-up and run above, and on two threads too: the
    // thread count never changes a report.
    let w = &arms[0].workload;
    let point = opts.seed as usize % w.specs.len();
    let via_run_spec = pool(2).install(|| w.experiment.run_spec(&w.specs[point]));
    checks.attempted += 1;
    checks.require(
        via_run_spec.to_json() == arms[0].points[point].json(),
        || {
            format!(
                "{name} point {}: Experiment::run_spec gives another report",
                w.specs[point].label()
            )
        },
    );

    let started = Instant::now();
    let mut closed_ratio = 0.0;
    if opts.trace {
        floors::run(&mut metrics, &arms[0].workload, opts.shrink);
        if arms[0].workload.experiment.platform.cluster.shards > 1 {
            closed_ratio = sharded_closed_thr_ratio(&arms[0].workload, opts.shrink);
        }
    }
    let sweeps = opts.trace && arms[0].workload.sweep;
    let mut sweep_s = Vec::new();
    let mut rounds = 0;
    loop {
        let round_started = Instant::now();
        for arm in &mut arms {
            let tracer = if arm.traced {
                &mut tracer
            } else {
                &mut untraced
            };
            arm.pass(arm.workload.threads, false, tracer, &mut checks);
        }
        if sweeps {
            // The same four points as one `Experiment::compare` grid on a
            // 2-thread pool, against the sum of the sequential point times.
            let w = &arms[0].workload;
            let t0 = Instant::now();
            let reports = pool(2).install(|| w.experiment.compare(&w.specs));
            sweep_s.push(t0.elapsed().as_secs_f64());
            checks.attempted += reports.len() as u64;
            for (r, p) in reports.iter().zip(&arms[0].points) {
                checks.require(r.to_json() == p.json(), || {
                    format!(
                        "{name} point {}: Experiment::compare gives another report",
                        r.policy
                    )
                });
            }
        }
        rounds += 1;
        if rounds == 1 {
            for arm in &arms[1..] {
                check_behaviour(arm, &mut checks);
            }
        }
        let next_round_ends = started.elapsed() + round_started.elapsed();
        if opts.shrink > 1 || next_round_ends.as_secs_f64() > opts.seconds {
            break;
        }
    }

    if opts.trace {
        same_reports(
            &arms[0],
            &arms[1],
            "the traced pass gives another report",
            &mut checks,
        );
        if let Some(threads2) = arms.iter().find(|a| a.label == "threads2") {
            same_reports(
                &arms[0],
                threads2,
                "the report depends on the thread count",
                &mut checks,
            );
        }
        let gap = worst_self_time_gap(tracer.spans());
        checks.require(gap <= 0.01, || {
            format!(
                "{name}: span self times miss their parent by {:.2} %",
                gap * 100.0
            )
        });
        per_layer(&mut metrics, &arms, &tracer, &sweep_s, closed_ratio);
        let path = opts.out_dir.join(format!("trace-{name}.json"));
        let written = std::fs::create_dir_all(&opts.out_dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json()));
        checks.require(written.is_ok(), || {
            format!("cannot write {}: {written:?}", path.display())
        });
    } else {
        let rss = peak_rss_mib();
        checks.require(rss.is_some(), || {
            format!("{name}: /proc/self/status has no VmHWM")
        });
        end_to_end(&mut metrics, &arms[0], rss.unwrap_or(0.0));
    }
    let rows = match metrics.finish() {
        Ok(rows) => {
            for (metric, value, _) in &rows {
                checks.require(value.is_finite(), || format!("{name}: {metric} is {value}"));
            }
            rows
        }
        Err(missing) => {
            checks
                .failures
                .push(format!("{name}: metrics never set: {missing:?}"));
            Vec::new()
        }
    };
    Some(Outcome {
        rows,
        attempted: checks.attempted,
        failures: checks.failures,
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    /// The whole path at `--check` size: every workload, both kinds of run,
    /// passes its checks and sets exactly the metrics of its table.
    #[test]
    fn every_workload_passes_its_checks_and_fills_its_table() {
        for name in workloads::NAMES {
            for trace in [false, true] {
                let opts = Options {
                    seed: 2013,
                    seconds: 0.0,
                    trace,
                    shrink: 20,
                    out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out/test")),
                };
                let outcome = run(name, &opts).expect("a named workload");
                assert_eq!(
                    outcome.failures,
                    Vec::<String>::new(),
                    "{name} trace {trace}"
                );
                assert_eq!(outcome.rounds, 1);
                assert!(
                    outcome.attempted >= 9,
                    "{name}: warm-up, run_spec and one round"
                );
                let printed: Vec<_> = outcome.rows.iter().map(|r| (r.0, r.2)).collect();
                let expected: Vec<_> = if trace {
                    PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
                } else {
                    END_TO_END.iter().map(|m| (m.0, m.1)).collect()
                };
                assert_eq!(printed, expected, "{name} trace {trace}");
                assert!(outcome.rows.iter().all(|r| r.1.is_finite()), "{name}");
            }
        }
    }
}
