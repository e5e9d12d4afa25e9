//! # concord-bench — the paper's experiment binaries
//!
//! This crate regenerates every result of the paper's evaluation section
//! (§IV; each binary's module docs name the figure or claim it reproduces
//! and print the paper's number beside the measured one). These binaries
//! reproduce results; they time nothing. Performance — wall clock end to
//! end and nanoseconds per layer, with its methodology — is measured by the
//! one harness in `benchmark/` (see `benchmark/README.md`).
//!
//! Every binary goes from flags to report through one path in [`sweep`]:
//! [`Harness::from_env`] parses the flags, [`Harness::preset`] /
//! [`Harness::apply_cluster_flags`] build the platform, and [`run_sweep`]
//! (over `Experiment::sweep`) runs the `(policy × seed)` grid. An argument
//! that is not a flag below, a flag given twice, or a flag the binary does
//! not honour ([`Harness::reject`]) stops the binary before anything runs;
//! so does a value that is missing, unparsable or out of range
//! (`--flag <v>: expected …`).
//!
//! | Binary | Experiment | Flags accepted |
//! |---|---|---|
//! | `exp_fig1` | FIG1 — the stale-read window model (analytic vs Monte-Carlo) | `--threads` |
//! | `exp_harmony` | EXP-A1/A2 — Harmony vs static eventual/strong on Grid'5000-like and EC2-like platforms | all |
//! | `exp_cost_breakdown` | EXP-B1 — consistency impact on the monetary bill (per-level sweep) | all |
//! | `exp_efficiency_samples` | EXP-B2a — consistency-cost efficiency under different access patterns | all but `--workload` |
//! | `exp_bismar` | EXP-B2b — Bismar vs static levels | all |
//! | `exp_behavior` | EXP-C — application behavior modeling | `--threads`, `--arrival` and the cluster flags |
//! | `exp_faults` | EXP-F — adaptive policies under a scripted outage (open-loop load, crash/partition/degradation) | all but `--arrival` |
//!
//! The flags:
//!
//! * `--scale <f64>` (in [1e-5, 1], default 0.002; 1.0 reproduces the
//!   paper's operation counts) and `--cluster-scale <f64>` (in [0.01, 1],
//!   default 0.25, of the paper's node counts);
//! * `--platform g5k|ec2`, `--seeds <n>` (a multi-seed sweep, printed with
//!   Student-t 95% confidence intervals), `--seed-base <u64>`,
//!   `--threads <n>` (pool size; thread count never changes the output);
//! * `--arrival closed:<clients>|poisson:<ops/s>|uniform:<ops/s>` and
//!   `--workload a..f` (the YCSB mix, keeping the binary's counts);
//! * the cluster flags `--partitioner hash|ordered`,
//!   `--repair off|hints|anti-entropy|full`, `--hedge <ms>`,
//!   `--selection closest|random|dynamic` and `--backoff`.
//!
//! Each topic has one owner, whose module docs describe it:
//!
//! * scenarios (arrival modes, the fault-script format) —
//!   `concord_core::scenario`, driven by `AdaptiveRuntime::run_scenario`;
//! * the event queue and its lanes — `concord_sim::events`;
//! * the cluster's protocol, per-key tables and placement —
//!   `concord_cluster::cluster` (its file map in `crates/cluster/src/cluster/mod.rs`);
//! * the one-shard and sharded engines, the window close and the prefetch
//!   sites — `crates/cluster/src/cluster/engine.rs`;
//! * the repair plane — `crates/cluster/src/cluster/repair.rs`;
//! * the resilience layer (hedging, backoff, dynamic selection) —
//!   `crates/cluster/src/cluster/resilience.rs` and
//!   `concord_cluster::ResilienceConfig`;
//! * the sweep's determinism contract — [`sweep`].
//!
//! Fixed-seed behaviour is pinned by `crates/cluster/tests/golden_determinism.rs`
//! and thread-count invariance by `crates/bench/tests/parallel_sweep.rs`.

#![deny(unsafe_code)]

pub mod sweep;

pub use sweep::{
    parse_arrival, render_summary_table, run_sweep, Harness, PolicySummary, SeedStat, SweepResults,
};

use concord_workload::WorkloadConfig;

/// Workload/cluster scale parsed from the command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Fraction of the paper's operation/record counts to run.
    pub workload: f64,
    /// Fraction of the paper's node counts to simulate.
    pub cluster: f64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            workload: 0.002,
            cluster: 0.25,
        }
    }
}

/// Make a paper workload lighter-weight for simulation: single 1 KB field
/// (the record size YCSB uses by default) instead of ten 100 B fields.
pub fn slim(mut cfg: WorkloadConfig) -> WorkloadConfig {
    cfg.field_count = 1;
    cfg.field_length = 1_000;
    cfg
}

/// Print a labelled paper-vs-measured comparison line.
pub fn compare_line(label: &str, paper: &str, measured: String) {
    println!("  {label:<58} paper: {paper:<22} measured: {measured}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness(args: &[&str]) -> Harness {
        Harness::from_args(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn scale_parsing_defaults_and_overrides() {
        assert_eq!(harness(&["exp"]).scale, Scale::default());
        let s = harness(&["exp", "--scale", "0.01", "--cluster-scale", "0.5"]).scale;
        assert!((s.workload - 0.01).abs() < 1e-12);
        assert!((s.cluster - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "--scale oops: expected a fraction")]
    fn unparsable_scale_fails_loudly() {
        harness(&["exp", "--scale", "oops"]);
    }

    #[test]
    fn platform_parsing() {
        assert_eq!(harness(&["exp"]).platform, "g5k");
        assert_eq!(harness(&["exp", "--platform", "ec2"]).platform, "ec2");
    }

    #[test]
    fn slim_keeps_record_size_at_1kb() {
        let cfg = slim(concord_workload::presets::ycsb_a());
        assert_eq!(cfg.record_size(), 1_000);
        assert!(cfg.validate().is_ok());
    }
}
