//! EXP-B1 — consistency impact on monetary cost (§IV-B, first experiment).
//!
//! Sweeps the static consistency levels ONE → ALL on the cost platform
//! (RF 5, two availability zones / two Grid'5000 sites) running the paper's
//! heavy read-update workload through the shared [`run_sweep`] harness, and
//! prints the three-part bill decomposition (instances / storage / network),
//! the cost reduction of each level relative to the strongest one, and the
//! fraction of up-to-date reads.
//!
//! ```text
//! cargo run --release -p concord-bench --bin exp_cost_breakdown
//! cargo run --release -p concord-bench --bin exp_cost_breakdown -- --seeds 8 --threads 4
//! ```

use concord::prelude::*;
use concord::PolicySpec;
use concord_bench::{compare_line, render_summary_table, run_sweep, slim, Harness};

fn main() {
    let harness = Harness::from_env();
    let platform = harness.preset(platforms::grid5000_cost, platforms::ec2_cost);
    let workload = harness.apply_workload(slim(presets::cost_workload(harness.scale.workload)));
    harness.banner("EXP-B1", &platform, &workload);

    let rf = platform.cluster.replication_factor;
    let experiment = Experiment::new(platform, workload)
        .with_clients(32)
        .with_adaptation_interval(SimDuration::from_millis(250))
        .with_seed(2013);
    let experiment = harness.apply_arrival(experiment);

    // The paper sweeps Cassandra's consistency level for both reads and
    // writes (ONE … ALL), so the symmetric variant is used here.
    let specs: Vec<PolicySpec> = (1..=rf).map(PolicySpec::SymmetricLevel).collect();
    let results = run_sweep(&experiment, &specs, &harness.seeds(2013));
    let reports = results.primary();
    println!("{}", render_table("EXP-B1: per-level sweep", &reports));
    if results.seeds.len() > 1 {
        println!("{}", render_summary_table("EXP-B1", &results.summaries()));
    }

    println!("== bill decomposition (the paper's three parts) ==");
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "level", "instances $", "storage $", "network $", "total $", "vs ALL", "fresh reads"
    );
    let all_cost = reports.last().unwrap().total_cost_usd();
    for report in &reports {
        let bill = report.bill.expect("pricing configured");
        println!(
            "{:<16} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>11.1}% {:>11.1}%",
            report.policy,
            bill.instances_usd,
            bill.storage_usd,
            bill.network_usd,
            bill.total(),
            (bill.total() / all_cost - 1.0) * 100.0,
            report.fresh_read_fraction() * 100.0,
        );
    }

    // Energy extension (the paper's §V future-work direction): same linear
    // power model applied to every level's resource usage.
    println!("\n== energy (future-work extension, commodity 2013 servers) ==");
    println!(
        "{:<16} {:>14} {:>14} {:>14}",
        "level", "utilization %", "energy (Wh)", "J per op"
    );
    let power = concord_cost::PowerModel::commodity_2013();
    for report in &reports {
        let utilization = concord_cost::estimate_utilization(&report.usage, 0.3);
        let energy = concord_cost::energy_of_run(&power, &report.usage, utilization);
        println!(
            "{:<16} {:>14.1} {:>14.3} {:>14.3}",
            report.policy,
            utilization * 100.0,
            energy.total_energy_wh,
            energy.joules_per_op(report.total_ops).unwrap_or(0.0)
        );
    }

    let one = &reports[0];
    let quorum = &reports[(rf / 2) as usize]; // rf/2+1 replicas ⇒ index rf/2
    let all = reports.last().unwrap();
    println!("\npaper-vs-measured:");
    compare_line(
        "total cost reduction, weakest level vs strongest",
        "down to −48%",
        format!(
            "{:+.0}%",
            (one.total_cost_usd() / all.total_cost_usd() - 1.0) * 100.0
        ),
    );
    compare_line(
        "up-to-date reads at level ONE",
        "only 21% fresh",
        format!("{:.0}% fresh", one.fresh_read_fraction() * 100.0),
    );
    compare_line(
        "QUORUM cost vs strong consistency (ALL)",
        "−13%",
        format!(
            "{:+.0}%",
            (quorum.total_cost_usd() / all.total_cost_usd() - 1.0) * 100.0
        ),
    );
    compare_line(
        "QUORUM always returns an up-to-date replica",
        "holds",
        format!("{} stale reads", quorum.stale_reads),
    );
}
