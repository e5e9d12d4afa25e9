//! EXP-B2b — Bismar evaluation (§IV-B, second experiment).
//!
//! Compares Bismar against the static consistency levels on the cost platform
//! (RF 5, two datacenters) through the shared [`run_sweep`] harness. The paper's
//! findings to reproduce in shape: only level ONE costs less than Bismar, but
//! it tolerates up to 61% stale reads; Bismar cuts the bill by up to 31%
//! compared to the static QUORUM level while keeping stale reads around 3.5%.
//!
//! ```text
//! cargo run --release -p concord-bench --bin exp_bismar
//! cargo run --release -p concord-bench --bin exp_bismar -- --seeds 8 --threads 4
//! ```

use concord::prelude::*;
use concord::PolicySpec;
use concord_bench::{compare_line, render_summary_table, run_sweep, slim, Harness};

fn main() {
    let harness = Harness::from_env();
    let platform = harness.preset(platforms::grid5000_cost, platforms::ec2_cost);
    let workload = harness.apply_workload(slim(presets::cost_workload(harness.scale.workload)));
    harness.banner("EXP-B2b", &platform, &workload);

    let experiment = Experiment::new(platform, workload)
        .with_clients(32)
        .with_adaptation_interval(SimDuration::from_millis(250))
        .with_seed(2013);
    let experiment = harness.apply_arrival(experiment);

    let results = run_sweep(
        &experiment,
        &[
            PolicySpec::FixedReadReplicas(1),
            PolicySpec::Quorum,
            PolicySpec::Strong,
            PolicySpec::Bismar,
        ],
        &harness.seeds(2013),
    );
    let reports = results.primary();
    println!(
        "{}",
        render_table("EXP-B2b: Bismar vs static levels", &reports)
    );
    if results.seeds.len() > 1 {
        println!("{}", render_summary_table("EXP-B2b", &results.summaries()));
    }

    let one = &reports[0];
    let quorum = &reports[1];
    let bismar = &reports[3];

    println!("paper-vs-measured:");
    compare_line(
        "levels cheaper than Bismar",
        "only ONE",
        reports
            .iter()
            .filter(|r| r.policy != "bismar" && r.total_cost_usd() < bismar.total_cost_usd())
            .map(|r| r.policy.clone())
            .collect::<Vec<_>>()
            .join(", "),
    );
    compare_line(
        "stale reads tolerated by level ONE",
        "up to 61%",
        format!("{:.1}%", one.stale_read_rate * 100.0),
    );
    compare_line(
        "Bismar cost vs static QUORUM",
        "up to −31%",
        format!(
            "{:+.1}%",
            (bismar.total_cost_usd() / quorum.total_cost_usd() - 1.0) * 100.0
        ),
    );
    compare_line(
        "Bismar stale reads",
        "≈3.5%",
        format!("{:.2}%", bismar.stale_read_rate * 100.0),
    );
    println!(
        "\nBismar level timeline: {} changes, mean read fan-out {:.2} replicas",
        bismar.level_timeline.len(),
        bismar.mean_read_replicas
    );
}
