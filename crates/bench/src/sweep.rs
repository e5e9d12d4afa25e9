//! The shared harness of every `exp_*` binary: one path from the command
//! line to the printed report.
//!
//! * [`Harness`] — the command-line surface (`--scale`, `--cluster-scale`,
//!   `--platform`, `--seeds`, `--seed-base`, `--threads`, `--arrival`,
//!   `--workload` and the cluster flags `--partitioner`, `--repair`,
//!   `--hedge`, `--selection`, `--backoff`). [`Harness::from_args`] refuses
//!   any argument that is neither one of these flags nor the value of one,
//!   and a binary refuses the flags it does not honour with
//!   [`Harness::reject`], so no flag is silently dropped.
//!   [`Harness::preset`] builds the `--platform` preset at
//!   `--cluster-scale`; [`Harness::apply_cluster_flags`] writes the cluster
//!   flags into it or into any other platform. `--threads` configures the
//!   global rayon pool for the process.
//! * [`run_sweep`] — a `(policy × seed)` grid over one [`Experiment`],
//!   executed by [`Experiment::sweep`] (every point in parallel, reports in
//!   grid order) and kept as [`SweepResults`].
//! * [`SweepResults::summaries`] — deterministic ordered reduction across
//!   seeds: mean / sample standard deviation / Student-t 95% confidence
//!   half-width per policy, folded in seed order so output is bit-identical
//!   for any thread count.
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

use crate::Scale;

/// Parsed common command-line surface of the experiment binaries.
#[derive(Debug, Clone)]
pub struct Harness {
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
    /// coverage-faithful. `None` keeps the platform's default (hash).
    pub partitioner: Option<Partitioner>,
    /// Repair-plane override (`--repair off|hints|anti-entropy|full`):
    /// which background repair subsystems the cluster runs — hinted
    /// handoff, anti-entropy sweeps over key pages, or both (which
    /// also enables recovery migration after crash/recover faults).
    /// `None` keeps the platform's default (off).
    pub repair: Option<RepairMode>,
    /// Hedged-read override (`--hedge <ms>`): after this delay a point
    /// read's coordinator issues one speculative duplicate to the best
    /// unused replica; first response wins. Fractional milliseconds are
    /// accepted (`--hedge 0.5` = 500 µs). `None` keeps the platform's
    /// default (hedging off).
    pub hedge: Option<SimDuration>,
    /// Read replica-selection override (`--selection
    /// closest|random|dynamic`): how read coordinators rank candidate
    /// replicas — `dynamic` is the health-aware EWMA + circuit-breaker
    /// policy of the resilience layer. `None` keeps the platform's default
    /// (closest).
    pub selection: Option<ReplicaSelection>,
    /// Retry-backoff override (`--backoff`, a bare flag): timed-out
    /// operations wait out an exponential backoff with deterministic jitter
    /// before re-issuing, instead of retrying immediately. Off unless given.
    pub backoff: bool,
    /// The flags given, for [`Harness::reject`].
    given: Vec<&'static str>,
}

impl Harness {
    /// Parse the process arguments and apply `--threads` to the global
    /// rayon pool (0 or absent = `RAYON_NUM_THREADS` / machine default).
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().collect())
    }

    /// Parse an explicit argument vector (tests). An argument that is
    /// neither a flag of the harness nor the value of one panics with
    /// `<arg>: not a flag of this experiment`, and a flag given twice
    /// panics too. Every flag but the bare `--backoff` takes a value, and a
    /// missing, unparsable or out-of-range value panics with
    /// `--flag <v>: expected …`.
    pub fn from_args(args: Vec<String>) -> Self {
        let mut args = Args {
            rest: args.into_iter().skip(1).collect(),
            given: Vec::new(),
        };
        let defaults = Scale::default();
        let scale = Scale {
            workload: args
                .value("--scale", "a fraction in [1e-5, 1]", within(1e-5, 1.0))
                .unwrap_or(defaults.workload),
            cluster: args
                .value(
                    "--cluster-scale",
                    "a fraction in [0.01, 1]",
                    within(0.01, 1.0),
                )
                .unwrap_or(defaults.cluster),
        };
        let platform = args
            .value("--platform", "g5k|ec2", |v| {
                ["g5k", "ec2"].contains(&v).then(|| v.to_string())
            })
            .unwrap_or_else(|| "g5k".into());
        let seed_count = args
            .value("--seeds", "a seed count >= 1", within(1, u64::MAX))
            .unwrap_or(1);
        let seed_base = args.value("--seed-base", "a seed (u64)", |v| v.parse().ok());
        let threads = args.value(
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
        let arrival = args.value(
            "--arrival",
            "closed:<clients>|poisson:<ops/s>|uniform:<ops/s>",
            |v| parse_arrival(v).ok(),
        );
        let workload = args.value("--workload", "a preset a-f", |v| {
            presets::by_name(v).map(|_| v.to_string())
        });
        let partitioner = args.value("--partitioner", "hash|ordered", Partitioner::from_name);
        let repair = args.value(
            "--repair",
            "off|hints|anti-entropy|full",
            RepairMode::from_name,
        );
        let hedge = args.value("--hedge", "a positive delay in ms", |v| {
            let ms = v
                .parse::<f64>()
                .ok()
                .filter(|ms| ms.is_finite() && *ms > 0.0)?;
            Some(SimDuration::from_millis_f64(ms))
        });
        let selection = args.value(
            "--selection",
            "closest|random|dynamic",
            ReplicaSelection::from_name,
        );
        let backoff = args
            .find("--backoff")
            .map(|i| args.rest.remove(i))
            .is_some();
        if let Some(arg) = args.rest.first() {
            panic!("{arg}: not a flag of this experiment");
        }
        Harness {
            scale,
            platform,
            seed_count,
            seed_base,
            arrival,
            workload,
            partitioner,
            repair,
            hedge,
            selection,
            backoff,
            given: args.given,
        }
    }

    /// Refuse whichever of `flags` was given: this binary does not honour
    /// them, and running without them under their name would misattribute
    /// the output. `why` says what the binary does instead. Call it before
    /// anything runs.
    pub fn reject(&self, flags: &[&str], why: &str) {
        if let Some(flag) = flags.iter().find(|f| self.given.iter().any(|g| g == *f)) {
            panic!("{flag}: not a flag of this experiment ({why})");
        }
    }

    /// Write the cluster flags that were given into `platform`:
    /// `--partitioner`, `--repair` (the mode at built-in pacing), `--hedge`,
    /// `--selection` and `--backoff`. A flag not given leaves the
    /// platform's own setting.
    pub fn apply_cluster_flags(&self, mut platform: Platform) -> Platform {
        let cluster = &mut platform.cluster;
        if let Some(partitioner) = self.partitioner {
            cluster.partitioner = partitioner;
        }
        if let Some(mode) = self.repair {
            cluster.repair = RepairConfig::with_mode(mode);
        }
        if let Some(delay) = self.hedge {
            cluster.resilience.hedge_delay = delay;
        }
        if let Some(selection) = self.selection {
            cluster.read_selection = selection;
        }
        cluster.resilience.backoff |= self.backoff;
        platform
    }

    /// The `--platform` preset of one family — `g5k` or `ec2`, e.g.
    /// `concord::platforms::grid5000_cost` or `ec2_cost` — at
    /// `--cluster-scale`, with the cluster flags applied.
    pub fn preset(&self, g5k: fn(f64) -> Platform, ec2: fn(f64) -> Platform) -> Platform {
        let preset = if self.platform == "ec2" { ec2 } else { g5k };
        self.apply_cluster_flags(preset(self.scale.cluster))
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

/// The arguments [`Harness::from_args`] has not parsed yet, and the flags
/// it has.
struct Args {
    rest: Vec<String>,
    given: Vec<&'static str>,
}

impl Args {
    /// Where flag `name` is, recorded as given; `None` when it is absent. A
    /// flag given twice panics.
    fn find(&mut self, name: &'static str) -> Option<usize> {
        let i = self.rest.iter().position(|a| a == name)?;
        let count = self.rest.iter().filter(|a| *a == name).count();
        assert!(count == 1, "{name}: given more than once");
        self.given.push(name);
        Some(i)
    }

    /// Take flag `name` and its value, parsed by `parse`; `None` when the
    /// flag is absent. A missing value, or one `parse` rejects, panics with
    /// `<name> <value>: expected <what>`: running a default under the name
    /// the caller asked for would misattribute the output.
    fn value<T>(
        &mut self,
        name: &'static str,
        what: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Option<T> {
        let i = self.find(name)?;
        let value = self.rest.get(i + 1).map(String::as_str);
        let parsed = value.and_then(parse).unwrap_or_else(|| {
            panic!(
                "{name} {}: expected {what}",
                value.unwrap_or("needs a value")
            )
        });
        self.rest.drain(i..i + 2);
        Some(parsed)
    }
}

/// An [`Args::value`] parser accepting a number in `[lo, hi]`.
fn within<T: std::str::FromStr + PartialOrd>(lo: T, hi: T) -> impl FnOnce(&str) -> Option<T> {
    move |v| v.parse().ok().filter(|x| lo <= *x && *x <= hi)
}

/// Parse an `--arrival` specification: `closed:<clients>`,
/// `poisson:<ops_per_sec>` or `uniform:<ops_per_sec>`.
pub fn parse_arrival(spec: &str) -> Result<ArrivalProcess, String> {
    let (mode, value) = spec
        .split_once(':')
        .ok_or_else(|| "expected <mode>:<value>".to_string())?;
    let arrival = match mode {
        "closed" => {
            let clients: u32 = value
                .parse()
                .map_err(|_| format!("bad client count {value}"))?;
            ArrivalProcess::closed(clients)
        }
        "poisson" | "uniform" => {
            let rate: f64 = value.parse().map_err(|_| format!("bad rate {value}"))?;
            if mode == "poisson" {
                ArrivalProcess::OpenLoopPoisson { ops_per_sec: rate }
            } else {
                ArrivalProcess::OpenLoopUniform { ops_per_sec: rate }
            }
        }
        other => {
            return Err(format!(
                "unknown arrival mode {other} (closed|poisson|uniform)"
            ))
        }
    };
    arrival.check()?;
    Ok(arrival)
}

/// Run `experiment` at every `(policy, seed)` point through
/// [`Experiment::sweep`], keeping the grid's shape for the reductions of
/// [`SweepResults`].
pub fn run_sweep(experiment: &Experiment, policies: &[PolicySpec], seeds: &[u64]) -> SweepResults {
    SweepResults {
        reports: experiment.sweep(policies, seeds),
        policies: policies.to_vec(),
        seeds: seeds.to_vec(),
    }
}

/// The ordered outcome of [`run_sweep`].
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

/// t(0.975, df) for df = 1…30, the two-sided 95% Student-t quantile. Above
/// 30 degrees of freedom the normal quantile 1.96 is used; it is at most
/// 4.1% smaller.
const T_975: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// Mean and spread of one metric across the seeds of a sweep row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedStat {
    /// Arithmetic mean (seed-order fold).
    pub mean: f64,
    /// Sample standard deviation (0 for a single seed).
    pub std_dev: f64,
    /// Half-width of the 95% confidence interval of the mean: t(0.975,
    /// n − 1) · s / √n, with Student's t because the seed counts run here
    /// (2–8) are far too few for the normal quantile.
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
        let t = T_975.get(n.saturating_sub(2)).copied().unwrap_or(1.96);
        SeedStat {
            mean,
            std_dev,
            ci95: t * std_dev / (n as f64).sqrt(),
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

    fn harness(args: &[&str]) -> Harness {
        Harness::from_args(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn harness_parses_the_shared_flags() {
        let h = harness(&[
            "exp",
            "--scale",
            "0.01",
            "--platform",
            "ec2",
            "--seeds",
            "4",
            "--seed-base",
            "100",
        ]);
        assert!((h.scale.workload - 0.01).abs() < 1e-12);
        assert_eq!(h.platform, "ec2");
        assert_eq!(h.seeds(1), vec![100, 101, 102, 103]);
        let cost = h.preset(platforms::grid5000_cost, platforms::ec2_cost);
        assert!(cost.name.contains("ec2"));
        // Flags that were not given pass `reject`.
        h.reject(&["--workload", "--arrival", "--backoff"], "n/a");

        let h = harness(&["exp"]);
        assert_eq!(h.seeds(7), vec![7]);
        let g5k = h.preset(platforms::grid5000_harmony, platforms::ec2_harmony);
        assert!(g5k.name.contains("grid5000"));
        assert_eq!(
            g5k.cluster.topology.node_count(),
            21,
            "--cluster-scale 0.25"
        );
        assert!(h.arrival.is_none());
        assert!(h.workload.is_none());
        assert!(h.partitioner.is_none());
        assert!(h.repair.is_none());
    }

    #[test]
    fn harness_parses_the_partitioner_override() {
        let h = harness(&["exp", "--partitioner", "ordered"]);
        assert_eq!(h.partitioner, Some(Partitioner::Ordered));
        // Both platform methods write it into the cluster config.
        let preset = h.preset(platforms::grid5000_cost, platforms::ec2_cost);
        assert_eq!(preset.cluster.partitioner, Partitioner::Ordered);
        let custom = h.apply_cluster_flags(concord::platforms::laptop());
        assert_eq!(custom.cluster.partitioner, Partitioner::Ordered);
        // No flag leaves the platform default untouched.
        let plain = harness(&["exp"]).apply_cluster_flags(concord::platforms::laptop());
        assert_eq!(plain.cluster.partitioner, Partitioner::Hash);
    }

    #[test]
    #[should_panic(expected = "--partitioner range: expected hash|ordered")]
    fn unknown_partitioner_fails_loudly() {
        harness(&["exp", "--partitioner", "range"]);
    }

    #[test]
    fn harness_parses_the_repair_override() {
        let h = harness(&["exp", "--repair", "full"]);
        assert_eq!(h.repair, Some(RepairMode::Full));
        // Both platform methods write it into the cluster config.
        let preset = h.preset(platforms::grid5000_harmony, platforms::ec2_harmony);
        assert_eq!(
            preset.cluster.repair,
            RepairConfig::with_mode(RepairMode::Full)
        );
        let custom = h.apply_cluster_flags(concord::platforms::laptop());
        assert_eq!(custom.cluster.repair.mode, RepairMode::Full);
        // No flag leaves the platform default (repair off) untouched.
        let plain = harness(&["exp"]).apply_cluster_flags(concord::platforms::laptop());
        assert_eq!(plain.cluster.repair.mode, RepairMode::Off);
        // The hyphenated spelling parses too.
        let h = harness(&["exp", "--repair", "anti-entropy"]);
        assert_eq!(h.repair, Some(RepairMode::AntiEntropy));
    }

    #[test]
    #[should_panic(expected = "--repair merkle: expected off|hints")]
    fn unknown_repair_mode_fails_loudly() {
        harness(&["exp", "--repair", "merkle"]);
    }

    #[test]
    fn harness_parses_the_resilience_overrides() {
        let h = harness(&[
            "exp",
            "--hedge",
            "0.5",
            "--selection",
            "dynamic",
            "--backoff",
        ]);
        assert_eq!(h.hedge, Some(SimDuration::from_micros(500)));
        assert_eq!(h.selection, Some(ReplicaSelection::Dynamic));
        assert!(h.backoff);
        // Both platform methods write all three into the cluster config.
        let preset = h.preset(platforms::grid5000_cost, platforms::ec2_cost);
        for cluster in [
            &preset.cluster,
            &h.apply_cluster_flags(concord::platforms::laptop()).cluster,
        ] {
            assert_eq!(
                cluster.resilience.hedge_delay,
                SimDuration::from_micros(500)
            );
            assert!(cluster.resilience.backoff);
            assert_eq!(cluster.read_selection, ReplicaSelection::Dynamic);
        }
        // Integral milliseconds parse too (the CI smoke spelling).
        let h = harness(&["exp", "--hedge", "20"]);
        assert_eq!(h.hedge, Some(SimDuration::from_millis(20)));
        assert!(!h.backoff, "--backoff is a bare flag, off unless given");
        // No flag leaves the platform default (resilience off) intact.
        let plain = harness(&["exp"]);
        assert!(plain.hedge.is_none() && plain.selection.is_none() && !plain.backoff);
        let cluster = plain
            .apply_cluster_flags(concord::platforms::laptop())
            .cluster;
        assert!(!cluster.resilience.hedging_enabled());
        assert!(!cluster.resilience.backoff);
        assert_eq!(cluster.read_selection, ReplicaSelection::Closest);
    }

    #[test]
    #[should_panic(expected = "--selection psychic: expected closest|random|dynamic")]
    fn unknown_selection_policy_fails_loudly() {
        harness(&["exp", "--selection", "psychic"]);
    }

    #[test]
    #[should_panic(expected = "--hedge 0: expected a positive delay")]
    fn non_positive_hedge_delay_fails_loudly() {
        harness(&["exp", "--hedge", "0"]);
    }

    #[test]
    fn harness_parses_arrival_and_workload_overrides() {
        let h = harness(&["exp", "--arrival", "poisson:2500", "--workload", "e"]);
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
        harness(&["exp", "--workload"]);
    }

    #[test]
    #[should_panic(expected = "--workload z: expected a preset")]
    fn unknown_workload_preset_fails_loudly() {
        harness(&["exp", "--workload", "z"]);
    }

    #[test]
    #[should_panic(expected = "--arrival needs a value")]
    fn dangling_arrival_flag_fails_loudly() {
        harness(&["exp", "--arrival"]);
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
    #[should_panic(expected = "--clients: not a flag of this experiment")]
    fn unknown_flags_fail_loudly() {
        harness(&["exp", "--seed-base", "7", "--clients", "8"]);
    }

    #[test]
    #[should_panic(expected = "full: not a flag of this experiment")]
    fn a_stray_value_fails_loudly() {
        harness(&["exp", "--backoff", "full"]);
    }

    #[test]
    #[should_panic(expected = "--seeds: given more than once")]
    fn a_repeated_flag_fails_loudly() {
        harness(&["exp", "--seeds", "2", "--seeds", "3"]);
    }

    #[test]
    #[should_panic(expected = "--workload: not a flag of this experiment (fixed mixes)")]
    fn reject_refuses_given_flags() {
        harness(&["exp", "--workload", "d"]).reject(&["--arrival", "--workload"], "fixed mixes");
    }

    #[test]
    fn sweep_runs_the_full_grid_in_order() {
        let results = run_sweep(
            &tiny_experiment(3),
            &[PolicySpec::Eventual, PolicySpec::Quorum],
            &[3, 4, 5],
        );
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
        let sweep_report = run_sweep(&exp, &[PolicySpec::Quorum], &[9]);
        let direct = exp.run_spec(&PolicySpec::Quorum);
        assert_eq!(sweep_report.reports[0], direct);
    }

    #[test]
    fn summaries_reduce_across_seeds_deterministically() {
        let sweep = || run_sweep(&tiny_experiment(1), &[PolicySpec::Eventual], &[1, 2, 3, 4]);
        let a = sweep().summaries();
        let b = sweep().summaries();
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
    fn ci95_uses_the_student_t_quantile() {
        // Two seeds: s = √2, s/√n = 1, so the half-width is t(0.975, 1).
        let two = SeedStat::from_samples(&[2.0, 4.0]);
        assert!((two.ci95 - 12.706).abs() < 1e-9, "{}", two.ci95);
        // 31 seeds (30 degrees of freedom) take the table's last entry, 32
        // the normal quantile.
        let xs: Vec<f64> = (0..32).map(f64::from).collect();
        for (n, t) in [(31, 2.042), (32, 1.96)] {
            let s = SeedStat::from_samples(&xs[..n]);
            let want = t * s.std_dev / (n as f64).sqrt();
            assert!((s.ci95 - want).abs() < 1e-12, "n = {n}");
        }
    }
}
