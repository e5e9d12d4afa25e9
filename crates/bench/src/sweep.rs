//! The sweep engine: one declarative harness for every `exp_*` binary.
//!
//! The paper's evaluation is a grid — workload mixes × consistency policies ×
//! platforms × seeds — and before this module existed each experiment binary
//! hand-rolled its own slice of that grid (argument parsing, platform
//! construction, run loop, table rendering). The shared pieces now live here:
//!
//! * [`Harness`] — common CLI surface (`--scale`, `--cluster-scale`,
//!   `--platform`, `--seeds`, `--seed-base`, `--threads`, plus the
//!   `--arrival` / `--workload` / `--partitioner` / `--repair` /
//!   `--shards` / `--hedge` / `--selection` / `--backoff` overrides)
//!   and platform lookup; `--threads` configures the global rayon pool for
//!   the process.
//! * [`Sweep`] — a declarative `(policy × seed)` grid over one
//!   [`Experiment`]. [`Sweep::run`] executes every point **in parallel**
//!   (each point owns its `Cluster`/`AdaptiveRuntime`, so points are
//!   embarrassingly parallel) and returns [`SweepResults`] in grid order.
//! * [`SweepResults::summaries`] — deterministic ordered reduction across
//!   seeds: mean / sample standard deviation / 95% confidence half-width per
//!   policy, folded in seed order so output is bit-identical for any thread
//!   count.
//! * [`run_grid`] — the same parallel-ordered execution for experiment
//!   grids that are not policy sweeps (the FIG1 estimator grid).
//!
//! ## Determinism contract
//!
//! A sweep point is a pure function of `(platform, workload, policy, seed)`:
//! the vendored rayon pool hands points to worker threads dynamically but
//! recombines results **in input order**, and nothing inside a point reads
//! shared mutable state. Per-seed [`RunReport`]s are therefore byte-identical
//! at 1, 2 or N threads (pinned by `crates/bench/tests/parallel_sweep.rs`).

use concord::prelude::*;
use concord::PolicySpec;
use concord_core::RunReport;
use rayon::prelude::*;

use crate::Scale;

/// Parsed common command-line surface of the experiment binaries.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Raw process arguments (for binary-specific flags).
    pub args: Vec<String>,
    /// Workload/cluster scale (`--scale`, `--cluster-scale`).
    pub scale: Scale,
    /// Platform name (`--platform`, default `g5k`).
    pub platform: String,
    /// Number of seeds a multi-seed sweep should run (`--seeds`, default 1).
    pub seed_count: u64,
    /// Explicit first seed (`--seed-base`), overriding the binary's default.
    pub seed_base: Option<u64>,
    /// Arrival-mode override (`--arrival closed:<clients>`,
    /// `--arrival poisson:<ops/s>`, `--arrival uniform:<ops/s>`); `None`
    /// keeps the binary's default (usually the paper's closed loop).
    pub arrival: Option<ArrivalProcess>,
    /// Workload-mix override (`--workload a`–`f`): replaces the operation
    /// mix, request distribution and scan bounds with the named YCSB
    /// preset, keeping the binary's record/operation counts and record
    /// sizing. `None` keeps the binary's default mix.
    pub workload: Option<String>,
    /// Partitioner override (`--partitioner hash|ordered`): how keys map to
    /// owning nodes — the consistent-hash token ring (default) or
    /// contiguous key-range ownership, under which range scans are
    /// coverage-faithful. Applied to every platform the harness constructs
    /// ([`Harness::cost_platform`], [`Harness::harmony_platform`],
    /// [`Harness::apply_partitioner`]), so `(partitioner × policy × seed)`
    /// grids run through the same `Sweep` machinery. `None` keeps the
    /// platform's default (hash).
    pub partitioner: Option<Partitioner>,
    /// Repair-plane override (`--repair off|hints|anti-entropy|full`):
    /// which background repair subsystems the cluster runs — hinted
    /// handoff, anti-entropy sweeps over page summaries, or both (which
    /// also enables recovery migration after crash/recover faults).
    /// Applied to every platform the harness constructs, like
    /// `--partitioner`. `None` keeps the platform's default (off).
    pub repair: Option<RepairMode>,
    /// Event-queue shard count override (`--shards N`): runs every cluster
    /// on the multi-core conservative-PDES engine with `N` per-node-group
    /// lanes, window batches dispatched on the worker pool. Each shard
    /// count samples its own deterministic universe, byte-identical at any
    /// thread count — within a shard count this is a pure performance axis.
    /// Applied to every platform the harness constructs, like
    /// `--partitioner`. `None` keeps the platform's default (unsharded).
    pub shards: Option<u32>,
    /// Hedged-read override (`--hedge <ms>`): after this delay a point
    /// read's coordinator issues one speculative duplicate to the best
    /// unused replica; first response wins. Fractional milliseconds are
    /// accepted (`--hedge 0.5` = 500 µs). Applied to every platform the
    /// harness constructs, like `--partitioner`. `None` keeps the
    /// platform's default (hedging off).
    pub hedge: Option<SimDuration>,
    /// Read replica-selection override (`--selection
    /// closest|random|dynamic`): how read coordinators rank candidate
    /// replicas — `dynamic` is the health-aware EWMA + circuit-breaker
    /// policy of the resilience layer. Applied to every platform the
    /// harness constructs. `None` keeps the platform's default (closest).
    pub selection: Option<ReplicaSelection>,
    /// Retry-backoff override (`--backoff`, a bare flag): timed-out
    /// operations wait out an exponential backoff with deterministic jitter
    /// before re-issuing, instead of retrying immediately. Applied to every
    /// platform the harness constructs. Off unless given.
    pub backoff: bool,
}

impl Harness {
    /// Parse the process arguments and apply `--threads` to the global
    /// rayon pool (0 or absent = `RAYON_NUM_THREADS` / machine default).
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().collect())
    }

    /// Parse an explicit argument vector (tests). Every flag but the bare
    /// `--backoff` takes a value, and a missing, unparsable or out-of-range
    /// value panics with `--flag <v>: expected …`.
    pub fn from_args(args: Vec<String>) -> Self {
        let defaults = Scale::default();
        let scale = Scale {
            workload: flag_value(
                &args,
                "--scale",
                "a fraction in [1e-5, 1]",
                within(1e-5, 1.0),
            )
            .unwrap_or(defaults.workload),
            cluster: flag_value(
                &args,
                "--cluster-scale",
                "a fraction in [0.01, 1]",
                within(0.01, 1.0),
            )
            .unwrap_or(defaults.cluster),
        };
        let platform = flag_value(&args, "--platform", "g5k|ec2", |v| {
            ["g5k", "ec2"].contains(&v).then(|| v.to_string())
        })
        .unwrap_or_else(|| "g5k".into());
        let seed_count =
            flag_value(&args, "--seeds", "a seed count >= 1", within(1, u64::MAX)).unwrap_or(1);
        let seed_base = flag_value(&args, "--seed-base", "a seed (u64)", |v| v.parse().ok());
        let threads = flag_value(
            &args,
            "--threads",
            "a thread count (0 = the machine default)",
            |v| v.parse::<usize>().ok(),
        );
        if let Some(threads) = threads.filter(|&n| n >= 1) {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build_global()
                .expect("configuring the global pool cannot fail");
        }
        let arrival = flag_value(
            &args,
            "--arrival",
            "closed:<clients>|poisson:<ops/s>|uniform:<ops/s>",
            |v| parse_arrival(v).ok(),
        );
        let workload = flag_value(&args, "--workload", "a preset a-f", |v| {
            presets::by_name(v).map(|_| v.to_string())
        });
        let partitioner = flag_value(
            &args,
            "--partitioner",
            "hash|ordered",
            Partitioner::from_name,
        );
        let repair = flag_value(
            &args,
            "--repair",
            "off|hints|anti-entropy|full",
            RepairMode::from_name,
        );
        let shards = flag_value(&args, "--shards", "a shard count >= 1", within(1, u32::MAX));
        let hedge = flag_value(&args, "--hedge", "a positive delay in ms", |v| {
            let ms = v
                .parse::<f64>()
                .ok()
                .filter(|ms| ms.is_finite() && *ms > 0.0)?;
            Some(SimDuration::from_micros((ms * 1_000.0).round() as u64))
        });
        let selection = flag_value(
            &args,
            "--selection",
            "closest|random|dynamic",
            ReplicaSelection::from_name,
        );
        let backoff = args.iter().any(|a| a == "--backoff");
        Harness {
            args,
            scale,
            platform,
            seed_count,
            seed_base,
            arrival,
            workload,
            partitioner,
            repair,
            shards,
            hedge,
            selection,
            backoff,
        }
    }

    /// Reject `--workload` for binaries whose workload is intrinsic (fixed
    /// access-pattern grids, microbenches): failing loudly beats silently
    /// running the default mix under the requested name.
    pub fn forbid_workload_override(&self, why: &str) {
        assert!(
            self.workload.is_none(),
            "--workload is not supported by this experiment: {why}"
        );
    }

    /// Reject `--arrival` for binaries whose arrival schedule is intrinsic
    /// (e.g. a fault script timed against a derived open-loop span).
    pub fn forbid_arrival_override(&self, why: &str) {
        assert!(
            self.arrival.is_none(),
            "--arrival is not supported by this experiment: {why}"
        );
    }

    /// Reject `--partitioner` for binaries that never build a cluster
    /// (estimator-only grids): failing loudly beats silently labelling the
    /// output with a mode that was never in effect.
    pub fn forbid_partitioner_override(&self, why: &str) {
        assert!(
            self.partitioner.is_none(),
            "--partitioner is not supported by this experiment: {why}"
        );
    }

    /// Apply the `--partitioner` override (if given) to a platform the
    /// binary constructed itself. [`Harness::cost_platform`] and
    /// [`Harness::harmony_platform`] already apply it.
    pub fn apply_partitioner(&self, mut platform: Platform) -> Platform {
        if let Some(partitioner) = self.partitioner {
            platform.cluster.partitioner = partitioner;
        }
        platform
    }

    /// Apply the `--repair` override (if given) to a platform the binary
    /// constructed itself, replacing the platform's repair configuration
    /// with the requested mode at built-in pacing defaults.
    /// [`Harness::cost_platform`] and [`Harness::harmony_platform`]
    /// already apply it.
    pub fn apply_repair(&self, mut platform: Platform) -> Platform {
        if let Some(mode) = self.repair {
            platform.cluster.repair = RepairConfig::with_mode(mode);
        }
        platform
    }

    /// Apply the `--shards` override (if given) to a platform the binary
    /// constructed itself: the cluster runs on the sharded event engine
    /// with the requested lane count (clamped to the node count by the
    /// cluster). [`Harness::cost_platform`] and
    /// [`Harness::harmony_platform`] already apply it.
    pub fn apply_shards(&self, mut platform: Platform) -> Platform {
        if let Some(shards) = self.shards {
            platform.cluster.shards = shards;
        }
        platform
    }

    /// Apply the `--hedge` / `--selection` / `--backoff` overrides (if
    /// given) to a platform the binary constructed itself, leaving the
    /// platform's other resilience knobs (backoff pacing, EWMA smoothing,
    /// breaker thresholds) at their configured values.
    /// [`Harness::cost_platform`] and [`Harness::harmony_platform`]
    /// already apply them.
    pub fn apply_resilience(&self, mut platform: Platform) -> Platform {
        if let Some(delay) = self.hedge {
            platform.cluster.resilience.hedge_delay = delay;
        }
        if let Some(selection) = self.selection {
            platform.cluster.read_selection = selection;
        }
        if self.backoff {
            platform.cluster.resilience.backoff = true;
        }
        platform
    }

    /// Apply the `--workload` override (if given) to the binary's default
    /// workload: the named preset's mix, request distribution and scan
    /// bounds replace the default's, while the record/operation counts and
    /// record sizing (already scaled by `--scale`) are kept.
    pub fn apply_workload(&self, base: WorkloadConfig) -> WorkloadConfig {
        match &self.workload {
            Some(name) => {
                let preset = presets::by_name(name).expect("validated in from_args");
                WorkloadConfig {
                    record_count: base.record_count,
                    operation_count: base.operation_count,
                    field_count: base.field_count,
                    field_length: base.field_length,
                    ..preset
                }
            }
            None => base,
        }
    }

    /// Apply the `--arrival` override (if given) to an experiment, keeping
    /// any fault script the binary configured.
    pub fn apply_arrival(&self, experiment: Experiment) -> Experiment {
        match self.arrival {
            Some(arrival) => experiment.with_arrival(arrival),
            None => experiment,
        }
    }

    /// The seed list for a sweep: `base, base+1, …` (`--seed-base` wins over
    /// the binary's default base).
    pub fn seeds(&self, default_base: u64) -> Vec<u64> {
        let base = self.seed_base.unwrap_or(default_base);
        (0..self.seed_count).map(|i| base + i).collect()
    }

    /// The cost-experiment platform for `--platform` at `--cluster-scale`,
    /// with the `--partitioner`, `--repair`, `--shards` and resilience
    /// (`--hedge` / `--selection` / `--backoff`) overrides applied.
    pub fn cost_platform(&self) -> Platform {
        self.apply_resilience(self.apply_shards(self.apply_repair(self.apply_partitioner(
            if self.platform == "ec2" {
                concord::platforms::ec2_cost(self.scale.cluster)
            } else {
                concord::platforms::grid5000_cost(self.scale.cluster)
            },
        ))))
    }

    /// The Harmony-experiment platform for `--platform` at `--cluster-scale`,
    /// with the `--partitioner`, `--repair`, `--shards` and resilience
    /// (`--hedge` / `--selection` / `--backoff`) overrides applied.
    pub fn harmony_platform(&self) -> Platform {
        self.apply_resilience(self.apply_shards(self.apply_repair(self.apply_partitioner(
            if self.platform == "ec2" {
                concord::platforms::ec2_harmony(self.scale.cluster)
            } else {
                concord::platforms::grid5000_harmony(self.scale.cluster)
            },
        ))))
    }

    /// Print the standard experiment banner.
    pub fn banner(&self, exp_id: &str, platform: &Platform, workload: &WorkloadConfig) {
        println!(
            "{exp_id}: platform = {}, {} records, {} operations{}",
            platform.name,
            workload.record_count,
            workload.operation_count,
            if self.seed_count > 1 {
                format!(
                    ", {} seeds × {} threads",
                    self.seed_count,
                    rayon::current_num_threads()
                )
            } else {
                String::new()
            }
        );
    }
}

/// The value after flag `name`, parsed by `parse`; `None` when the flag is
/// absent. A missing value, or one `parse` rejects, panics with
/// `<name> <value>: expected <what>`: running a default under the name the
/// caller asked for would misattribute the output.
fn flag_value<T>(
    args: &[String],
    name: &str,
    what: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    let i = args.iter().position(|a| a == name)?;
    let value = args.get(i + 1).map(String::as_str);
    let parsed = value.and_then(parse);
    Some(parsed.unwrap_or_else(|| {
        panic!(
            "{name} {}: expected {what}",
            value.unwrap_or("needs a value")
        )
    }))
}

/// A [`flag_value`] parser accepting a number in `[lo, hi]`.
fn within<T: std::str::FromStr + PartialOrd>(lo: T, hi: T) -> impl FnOnce(&str) -> Option<T> {
    move |v| v.parse().ok().filter(|x| lo <= *x && *x <= hi)
}

/// Parse an `--arrival` specification: `closed:<clients>`,
/// `poisson:<ops_per_sec>` or `uniform:<ops_per_sec>`.
pub fn parse_arrival(spec: &str) -> Result<ArrivalProcess, String> {
    let (mode, value) = spec
        .split_once(':')
        .ok_or_else(|| "expected <mode>:<value>".to_string())?;
    match mode {
        "closed" => {
            let clients: u32 = value
                .parse()
                .map_err(|_| format!("bad client count {value}"))?;
            if clients == 0 {
                return Err("closed loop needs at least one client".into());
            }
            Ok(ArrivalProcess::closed(clients))
        }
        "poisson" | "uniform" => {
            let rate: f64 = value.parse().map_err(|_| format!("bad rate {value}"))?;
            if !(rate.is_finite() && rate > 0.0) {
                return Err(format!("rate must be positive, got {value}"));
            }
            Ok(if mode == "poisson" {
                ArrivalProcess::OpenLoopPoisson { ops_per_sec: rate }
            } else {
                ArrivalProcess::OpenLoopUniform { ops_per_sec: rate }
            })
        }
        other => Err(format!(
            "unknown arrival mode {other} (closed|poisson|uniform)"
        )),
    }
}

/// A declarative `(policy × seed)` grid over one [`Experiment`].
#[derive(Debug, Clone)]
pub struct Sweep {
    experiment: Experiment,
    policies: Vec<PolicySpec>,
    seeds: Vec<u64>,
}

impl Sweep {
    /// A sweep over `experiment`'s platform/workload, initially with the
    /// experiment's own seed as the only seed.
    pub fn new(experiment: Experiment) -> Self {
        let seed = experiment.seed;
        Sweep {
            experiment,
            policies: Vec::new(),
            seeds: vec![seed],
        }
    }

    /// Set the policies (grid rows).
    pub fn with_policies(mut self, specs: &[PolicySpec]) -> Self {
        self.policies = specs.to_vec();
        self
    }

    /// Set the seeds (grid columns; empty = keep the experiment's seed).
    pub fn with_seeds(mut self, seeds: &[u64]) -> Self {
        if !seeds.is_empty() {
            self.seeds = seeds.to_vec();
        }
        self
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.policies.len() * self.seeds.len()
    }

    /// True when the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Run every `(policy, seed)` point — in parallel on the rayon pool,
    /// each point owning its cluster and runtime — and return the reports in
    /// grid order (policy-major, seed-minor), independent of scheduling.
    pub fn run(&self) -> SweepResults {
        let points: Vec<(usize, usize)> = (0..self.policies.len())
            .flat_map(|p| (0..self.seeds.len()).map(move |s| (p, s)))
            .collect();
        let reports: Vec<RunReport> = points
            .into_par_iter()
            .map(|(p, s)| {
                let mut experiment = self.experiment.clone();
                experiment.seed = self.seeds[s];
                experiment.run_spec(&self.policies[p])
            })
            .collect();
        SweepResults {
            policies: self.policies.clone(),
            seeds: self.seeds.clone(),
            reports,
        }
    }
}

/// The ordered outcome of [`Sweep::run`].
#[derive(Debug, Clone)]
pub struct SweepResults {
    /// Grid rows, in declaration order.
    pub policies: Vec<PolicySpec>,
    /// Grid columns, in declaration order.
    pub seeds: Vec<u64>,
    /// One report per point, policy-major and seed-minor.
    pub reports: Vec<RunReport>,
}

impl SweepResults {
    /// The report of one `(policy, seed)` point.
    pub fn report(&self, policy_idx: usize, seed_idx: usize) -> &RunReport {
        &self.reports[policy_idx * self.seeds.len() + seed_idx]
    }

    /// All seed reports of one policy, in seed order.
    pub fn per_seed(&self, policy_idx: usize) -> &[RunReport] {
        let n = self.seeds.len();
        &self.reports[policy_idx * n..(policy_idx + 1) * n]
    }

    /// The first-seed report of every policy, in policy order — the
    /// single-seed view the paper-comparison tables print.
    pub fn primary(&self) -> Vec<RunReport> {
        (0..self.policies.len())
            .map(|p| self.report(p, 0).clone())
            .collect()
    }

    /// Mean / standard deviation / 95% CI across seeds, per policy.
    /// Deterministic: folds every statistic in seed order.
    pub fn summaries(&self) -> Vec<PolicySummary> {
        (0..self.policies.len())
            .map(|p| {
                let runs = self.per_seed(p);
                let stat = |f: &dyn Fn(&RunReport) -> f64| {
                    SeedStat::from_samples(&runs.iter().map(f).collect::<Vec<_>>())
                };
                PolicySummary {
                    policy: self.policies[p].label(),
                    throughput: stat(&|r| r.throughput_ops_per_sec),
                    stale_rate: stat(&|r| r.stale_read_rate),
                    read_p95_ms: stat(&|r| r.read_latency_ms.p95),
                    cost_usd: stat(&|r| r.total_cost_usd()),
                    makespan_secs: stat(&|r| r.makespan.as_secs_f64()),
                }
            })
            .collect()
    }
}

/// Mean and spread of one metric across the seeds of a sweep row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedStat {
    /// Arithmetic mean (seed-order fold).
    pub mean: f64,
    /// Sample standard deviation (0 for a single seed).
    pub std_dev: f64,
    /// Half-width of the normal-approximation 95% confidence interval.
    pub ci95: f64,
    /// Number of seeds.
    pub n: usize,
}

impl SeedStat {
    /// Reduce samples in input order.
    pub fn from_samples(xs: &[f64]) -> Self {
        let n = xs.len();
        if n == 0 {
            return SeedStat {
                mean: 0.0,
                std_dev: 0.0,
                ci95: 0.0,
                n: 0,
            };
        }
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let std_dev = var.sqrt();
        SeedStat {
            mean,
            std_dev,
            ci95: 1.96 * std_dev / (n as f64).sqrt(),
            n,
        }
    }
}

impl std::fmt::Display for SeedStat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.n > 1 {
            write!(f, "{:.1} ±{:.1}", self.mean, self.ci95)
        } else {
            write!(f, "{:.1}", self.mean)
        }
    }
}

/// Across-seed summary of one sweep row (policy).
#[derive(Debug, Clone)]
pub struct PolicySummary {
    /// Policy label.
    pub policy: String,
    /// Throughput in ops/s.
    pub throughput: SeedStat,
    /// Ground-truth stale-read rate (fraction).
    pub stale_rate: SeedStat,
    /// Read-latency p95 in ms.
    pub read_p95_ms: SeedStat,
    /// Total bill in USD.
    pub cost_usd: SeedStat,
    /// Simulated makespan in seconds.
    pub makespan_secs: SeedStat,
}

/// Render the across-seed summary table (mean ± 95% CI per metric).
pub fn render_summary_table(title: &str, summaries: &[PolicySummary]) -> String {
    // Each metric is pre-formatted as one "mean ±ci" cell so the header and
    // data columns share the same widths.
    let cell = |s: &SeedStat, scale: f64, prec: usize| {
        format!("{:.prec$} ±{:.prec$}", s.mean * scale, s.ci95 * scale)
    };
    let mut out = String::new();
    out.push_str(&format!("\n== {title} (mean ± 95% CI across seeds) ==\n"));
    out.push_str(&format!(
        "{:<28} {:>5} {:>18} {:>14} {:>16} {:>17} {:>14}\n",
        "policy", "seeds", "thr (ops/s)", "stale %", "r-lat p95 (ms)", "cost ($)", "makespan (s)"
    ));
    for s in summaries {
        out.push_str(&format!(
            "{:<28} {:>5} {:>18} {:>14} {:>16} {:>17} {:>14}\n",
            s.policy,
            s.throughput.n,
            cell(&s.throughput, 1.0, 1),
            cell(&s.stale_rate, 100.0, 2),
            cell(&s.read_p95_ms, 1.0, 3),
            cell(&s.cost_usd, 1.0, 4),
            cell(&s.makespan_secs, 1.0, 2),
        ));
    }
    out
}

/// Run an arbitrary experiment grid in parallel and return the results in
/// input order (the generic form of [`Sweep::run`] for grids that are not
/// policy sweeps — estimator grids, scenario matrices).
pub fn run_grid<T, R, F>(points: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    points.into_par_iter().map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_experiment(seed: u64) -> Experiment {
        let platform = concord::platforms::grid5000_cost(0.15);
        let mut workload = presets::paper_heavy_read_update(500, 1_200);
        workload.field_count = 1;
        workload.field_length = 256;
        Experiment::new(platform, workload)
            .with_clients(8)
            .with_adaptation_interval(SimDuration::from_millis(200))
            .with_seed(seed)
    }

    #[test]
    fn harness_parses_the_shared_flags() {
        let args: Vec<String> = [
            "exp",
            "--scale",
            "0.01",
            "--platform",
            "ec2",
            "--seeds",
            "4",
            "--seed-base",
            "100",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let h = Harness::from_args(args);
        assert!((h.scale.workload - 0.01).abs() < 1e-12);
        assert_eq!(h.platform, "ec2");
        assert_eq!(h.seeds(1), vec![100, 101, 102, 103]);
        assert!(h.cost_platform().name.contains("ec2"));

        let h = Harness::from_args(vec!["exp".into()]);
        assert_eq!(h.seeds(7), vec![7]);
        assert!(h.harmony_platform().name.contains("grid5000"));
        assert!(h.arrival.is_none());
        assert!(h.workload.is_none());
        assert!(h.partitioner.is_none());
        assert!(h.repair.is_none());
        assert!(h.shards.is_none());
        // Absent overrides are no-ops and pass the forbid checks.
        h.forbid_workload_override("n/a");
        h.forbid_arrival_override("n/a");
        h.forbid_partitioner_override("n/a");
    }

    #[test]
    fn harness_parses_the_partitioner_override() {
        let args: Vec<String> = ["exp", "--partitioner", "ordered"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let h = Harness::from_args(args);
        assert_eq!(h.partitioner, Some(Partitioner::Ordered));
        // Every harness-constructed platform runs under the override.
        assert_eq!(h.cost_platform().cluster.partitioner, Partitioner::Ordered);
        assert_eq!(
            h.harmony_platform().cluster.partitioner,
            Partitioner::Ordered
        );
        let custom = h.apply_partitioner(concord::platforms::laptop());
        assert_eq!(custom.cluster.partitioner, Partitioner::Ordered);
        // No override leaves the platform default untouched.
        let plain = Harness::from_args(vec!["exp".into()]);
        assert_eq!(plain.cost_platform().cluster.partitioner, Partitioner::Hash);
    }

    #[test]
    #[should_panic(expected = "--partitioner range: expected hash|ordered")]
    fn unknown_partitioner_fails_loudly() {
        Harness::from_args(vec!["exp".into(), "--partitioner".into(), "range".into()]);
    }

    #[test]
    fn harness_parses_the_repair_override() {
        let args: Vec<String> = ["exp", "--repair", "full"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let h = Harness::from_args(args);
        assert_eq!(h.repair, Some(RepairMode::Full));
        // Every harness-constructed platform runs under the override.
        assert_eq!(h.cost_platform().cluster.repair.mode, RepairMode::Full);
        assert_eq!(h.harmony_platform().cluster.repair.mode, RepairMode::Full);
        let custom = h.apply_repair(concord::platforms::laptop());
        assert_eq!(custom.cluster.repair.mode, RepairMode::Full);
        // No override leaves the platform default (repair off) untouched.
        let plain = Harness::from_args(vec!["exp".into()]);
        assert_eq!(plain.cost_platform().cluster.repair.mode, RepairMode::Off);
        // The hyphenated spelling parses too.
        let h = Harness::from_args(vec!["exp".into(), "--repair".into(), "anti-entropy".into()]);
        assert_eq!(h.repair, Some(RepairMode::AntiEntropy));
    }

    #[test]
    #[should_panic(expected = "--repair merkle: expected off|hints")]
    fn unknown_repair_mode_fails_loudly() {
        Harness::from_args(vec!["exp".into(), "--repair".into(), "merkle".into()]);
    }

    #[test]
    fn harness_parses_the_shards_override() {
        let args: Vec<String> = ["exp", "--shards", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let h = Harness::from_args(args);
        assert_eq!(h.shards, Some(4));
        // Every harness-constructed platform runs under the override.
        assert_eq!(h.cost_platform().cluster.shards, 4);
        assert_eq!(h.harmony_platform().cluster.shards, 4);
        let custom = h.apply_shards(concord::platforms::laptop());
        assert_eq!(custom.cluster.shards, 4);
        // No override leaves the platform default (unsharded) untouched.
        let plain = Harness::from_args(vec!["exp".into()]);
        assert!(plain.cost_platform().cluster.shards <= 1);
    }

    #[test]
    #[should_panic(expected = "--shards many: expected a shard count")]
    fn non_numeric_shard_count_fails_loudly() {
        Harness::from_args(vec!["exp".into(), "--shards".into(), "many".into()]);
    }

    #[test]
    fn harness_parses_the_resilience_overrides() {
        let args: Vec<String> = [
            "exp",
            "--hedge",
            "0.5",
            "--selection",
            "dynamic",
            "--backoff",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let h = Harness::from_args(args);
        assert_eq!(h.hedge, Some(SimDuration::from_micros(500)));
        assert_eq!(h.selection, Some(ReplicaSelection::Dynamic));
        assert!(h.backoff);
        // Every harness-constructed platform runs under the overrides.
        let cost = h.cost_platform();
        assert_eq!(
            cost.cluster.resilience.hedge_delay,
            SimDuration::from_micros(500)
        );
        assert!(cost.cluster.resilience.hedging_enabled());
        assert!(cost.cluster.resilience.backoff);
        assert_eq!(cost.cluster.read_selection, ReplicaSelection::Dynamic);
        let harmony = h.harmony_platform();
        assert_eq!(harmony.cluster.read_selection, ReplicaSelection::Dynamic);
        let custom = h.apply_resilience(concord::platforms::laptop());
        assert!(custom.cluster.resilience.hedging_enabled());
        // Integral milliseconds parse too (the CI smoke spelling).
        let h = Harness::from_args(vec!["exp".into(), "--hedge".into(), "20".into()]);
        assert_eq!(h.hedge, Some(SimDuration::from_millis(20)));
        assert!(!h.backoff, "--backoff is a bare flag, off unless given");
        // No override leaves the platform default (resilience off) intact.
        let plain = Harness::from_args(vec!["exp".into()]);
        assert!(plain.hedge.is_none() && plain.selection.is_none() && !plain.backoff);
        let cost = plain.cost_platform();
        assert!(!cost.cluster.resilience.hedging_enabled());
        assert!(!cost.cluster.resilience.backoff);
        assert_eq!(cost.cluster.read_selection, ReplicaSelection::Closest);
    }

    #[test]
    #[should_panic(expected = "--selection psychic: expected closest|random|dynamic")]
    fn unknown_selection_policy_fails_loudly() {
        Harness::from_args(vec!["exp".into(), "--selection".into(), "psychic".into()]);
    }

    #[test]
    #[should_panic(expected = "--hedge 0: expected a positive delay")]
    fn non_positive_hedge_delay_fails_loudly() {
        Harness::from_args(vec!["exp".into(), "--hedge".into(), "0".into()]);
    }

    #[test]
    fn harness_parses_arrival_and_workload_overrides() {
        let args: Vec<String> = ["exp", "--arrival", "poisson:2500", "--workload", "e"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let h = Harness::from_args(args);
        assert_eq!(
            h.arrival,
            Some(ArrivalProcess::OpenLoopPoisson {
                ops_per_sec: 2500.0
            })
        );
        // The override keeps the base counts/sizing, swaps the mix.
        let base = presets::paper_heavy_read_update(1_234, 5_678);
        let cfg = h.apply_workload(base.clone());
        assert_eq!(cfg.record_count, 1_234);
        assert_eq!(cfg.operation_count, 5_678);
        assert_eq!(cfg.scan_proportion, presets::ycsb_e().scan_proportion);
        // apply_arrival rewires the experiment's scenario.
        let exp = Experiment::new(concord::platforms::laptop(), base);
        let exp = h.apply_arrival(exp);
        assert!(!exp.scenario().is_closed_loop());
    }

    #[test]
    fn parse_arrival_accepts_modes_and_rejects_garbage() {
        assert_eq!(
            parse_arrival("closed:8").unwrap(),
            ArrivalProcess::closed(8)
        );
        assert_eq!(
            parse_arrival("uniform:100").unwrap(),
            ArrivalProcess::OpenLoopUniform { ops_per_sec: 100.0 }
        );
        assert!(parse_arrival("poisson").is_err(), "missing value");
        assert!(parse_arrival("poisson:-3").is_err(), "negative rate");
        assert!(parse_arrival("closed:0").is_err(), "zero clients");
        assert!(parse_arrival("warp:9").is_err(), "unknown mode");
    }

    #[test]
    #[should_panic(expected = "--workload needs a value")]
    fn dangling_workload_flag_fails_loudly() {
        Harness::from_args(vec!["exp".into(), "--workload".into()]);
    }

    #[test]
    #[should_panic(expected = "--workload z: expected a preset")]
    fn unknown_workload_preset_fails_loudly() {
        Harness::from_args(vec!["exp".into(), "--workload".into(), "z".into()]);
    }

    #[test]
    #[should_panic(expected = "--arrival needs a value")]
    fn dangling_arrival_flag_fails_loudly() {
        Harness::from_args(vec!["exp".into(), "--arrival".into()]);
    }

    fn harness(args: &[&str]) -> Harness {
        Harness::from_args(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    #[should_panic(expected = "--scale 7: expected a fraction in [1e-5, 1]")]
    fn out_of_range_scale_fails_loudly() {
        harness(&["exp", "--scale", "7"]);
    }

    #[test]
    #[should_panic(expected = "--cluster-scale 0: expected a fraction in [0.01, 1]")]
    fn out_of_range_cluster_scale_fails_loudly() {
        harness(&["exp", "--cluster-scale", "0"]);
    }

    #[test]
    #[should_panic(expected = "--platform foo: expected g5k|ec2")]
    fn unknown_platform_fails_loudly() {
        harness(&["exp", "--platform", "foo"]);
    }

    #[test]
    #[should_panic(expected = "--seeds 0: expected a seed count >= 1")]
    fn zero_seeds_fail_loudly() {
        harness(&["exp", "--seeds", "0"]);
    }

    #[test]
    #[should_panic(expected = "--seed-base x: expected a seed")]
    fn non_numeric_seed_base_fails_loudly() {
        harness(&["exp", "--seed-base", "x"]);
    }

    #[test]
    #[should_panic(expected = "--threads x: expected a thread count")]
    fn non_numeric_thread_count_fails_loudly() {
        harness(&["exp", "--threads", "x"]);
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn forbid_rejects_present_overrides() {
        let h = Harness::from_args(vec!["exp".into(), "--workload".into(), "d".into()]);
        h.forbid_workload_override("this experiment fixes its own mixes");
    }

    #[test]
    fn sweep_runs_the_full_grid_in_order() {
        let sweep = Sweep::new(tiny_experiment(3))
            .with_policies(&[PolicySpec::Eventual, PolicySpec::Quorum])
            .with_seeds(&[3, 4, 5]);
        assert_eq!(sweep.len(), 6);
        let results = sweep.run();
        assert_eq!(results.reports.len(), 6);
        assert_eq!(results.per_seed(0).len(), 3);
        assert_eq!(results.report(1, 2).policy, "quorum");
        let primary = results.primary();
        assert_eq!(primary.len(), 2);
        assert_eq!(primary[0].policy, "eventual(ONE)");
        // Every point completed the workload.
        assert!(results.reports.iter().all(|r| r.total_ops == 1_200));
    }

    #[test]
    fn sweep_matches_sequential_experiment_runs() {
        let exp = tiny_experiment(9);
        let sweep_report = Sweep::new(exp.clone())
            .with_policies(&[PolicySpec::Quorum])
            .run();
        let direct = exp.run_spec(&PolicySpec::Quorum);
        assert_eq!(sweep_report.reports[0], direct);
    }

    #[test]
    fn summaries_reduce_across_seeds_deterministically() {
        let sweep = Sweep::new(tiny_experiment(1))
            .with_policies(&[PolicySpec::Eventual])
            .with_seeds(&[1, 2, 3, 4]);
        let a = sweep.run().summaries();
        let b = sweep.run().summaries();
        assert_eq!(a[0].throughput, b[0].throughput);
        assert_eq!(a[0].throughput.n, 4);
        assert!(a[0].throughput.mean > 0.0);
        assert!(a[0].throughput.ci95 >= 0.0);
        let table = render_summary_table("t", &a);
        assert!(table.contains("eventual"));
    }

    #[test]
    fn seed_stat_basics() {
        let s = SeedStat::from_samples(&[2.0, 4.0, 6.0, 8.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!(s.std_dev > 0.0);
        assert_eq!(s.n, 4);
        let single = SeedStat::from_samples(&[3.0]);
        assert_eq!(single.std_dev, 0.0);
        assert_eq!(single.ci95, 0.0);
        assert_eq!(SeedStat::from_samples(&[]).n, 0);
    }

    #[test]
    fn grids_preserve_input_order() {
        let out = run_grid((0..64u64).collect(), |x| x * 3);
        assert_eq!(out, (0..64u64).map(|x| x * 3).collect::<Vec<_>>());
    }
}
