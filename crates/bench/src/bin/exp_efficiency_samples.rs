//! EXP-B2a — validating the consistency-cost efficiency metric (§IV-B).
//!
//! The paper collects samples of the metric while *"running the same workload
//! with different access patterns and different consistency levels"* and
//! observes that *"the most efficient consistency levels are the ones that
//! provide a staleness rate smaller than 20%"*. This binary reproduces that
//! sampling through the shared [`run_sweep`] harness: three access patterns
//! (read-heavy, balanced heavy read-update, write-heavy) × every consistency
//! level, each sample reporting its measured staleness, its bill and its
//! efficiency relative to the strongest level. The access patterns are the
//! experiment, so `--workload` is refused; every other flag applies.
//!
//! ```text
//! cargo run --release -p concord-bench --bin exp_efficiency_samples
//! ```

use concord::prelude::*;
use concord::PolicySpec;
use concord_bench::{render_summary_table, run_sweep, slim, Harness};
use concord_cost::consistency_cost_efficiency;
use concord_workload::RequestDistribution;

fn main() {
    let harness = Harness::from_env();
    harness.reject(&["--workload"], "the access patterns are the experiment");
    let platform = harness.preset(platforms::grid5000_cost, platforms::ec2_cost);
    println!("EXP-B2a: platform = {}\n", platform.name);

    let base = slim(presets::cost_workload(harness.scale.workload));
    let patterns: Vec<(&str, WorkloadConfig)> = vec![
        (
            "read-heavy (95/5, zipfian)",
            WorkloadConfig {
                read_proportion: 0.95,
                update_proportion: 0.05,
                ..base.clone()
            },
        ),
        (
            "heavy read-update (50/50, zipfian)",
            WorkloadConfig {
                read_proportion: 0.5,
                update_proportion: 0.5,
                ..base.clone()
            },
        ),
        (
            "write-heavy (25/75, latest)",
            WorkloadConfig {
                read_proportion: 0.25,
                update_proportion: 0.75,
                request_distribution: RequestDistribution::Latest,
                ..base.clone()
            },
        ),
    ];

    let rf = platform.cluster.replication_factor;
    println!(
        "{:<36} {:<14} {:>10} {:>12} {:>12}",
        "access pattern", "level", "stale %", "rel. cost", "efficiency"
    );

    let specs: Vec<PolicySpec> = (1..=rf).map(PolicySpec::FixedReadReplicas).collect();
    let seeds = harness.seeds(17);
    let mut efficient_samples = 0usize;
    let mut efficient_below_20 = 0usize;
    for (name, workload) in patterns {
        let experiment = Experiment::new(platform.clone(), workload)
            .with_clients(32)
            .with_adaptation_interval(SimDuration::from_millis(250))
            .with_seed(seeds[0]);
        let experiment = harness.apply_arrival(experiment);
        let results = run_sweep(&experiment, &specs, &seeds);
        let reports = results.primary();
        let reference = reports.last().unwrap().total_cost_usd();

        let mut best_idx = 0usize;
        let mut best_eff = f64::NEG_INFINITY;
        for (i, report) in reports.iter().enumerate() {
            let sample = consistency_cost_efficiency(
                report.stale_read_rate,
                report.total_cost_usd(),
                reference,
            );
            if sample.efficiency > best_eff {
                best_eff = sample.efficiency;
                best_idx = i;
            }
            println!(
                "{:<36} {:<14} {:>10.2} {:>12.3} {:>12.3}",
                name,
                report.policy,
                report.stale_read_rate * 100.0,
                report.total_cost_usd() / reference,
                sample.efficiency
            );
        }
        let best = &reports[best_idx];
        efficient_samples += 1;
        if best.stale_read_rate < 0.20 {
            efficient_below_20 += 1;
        }
        println!(
            "{:<36} → most efficient: {} (stale {:.2}%)\n",
            "",
            best.policy,
            best.stale_read_rate * 100.0
        );
        if results.seeds.len() > 1 {
            println!("{}", render_summary_table(name, &results.summaries()));
        }
    }

    println!(
        "paper claim: the most efficient levels provide a staleness rate smaller than 20% — \
         measured: {efficient_below_20}/{efficient_samples} access patterns"
    );
}
