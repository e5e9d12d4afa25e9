//! EXP-A1 / EXP-A2 — Harmony performance/staleness evaluation (§IV-A).
//!
//! Reproduces the paper's comparison of Harmony (two tolerated stale-read
//! rates per platform) against static eventual and strong consistency on the
//! Grid'5000 deployment (84 nodes, 2 clusters, 3 M ops — EXP-A1) and the EC2
//! deployment (20 VMs, 5 M ops — EXP-A2), through the shared [`run_sweep`]
//! harness: pass `--seeds 8` for a multi-seed sweep with confidence
//! intervals, `--threads N` to size the pool.
//!
//! ```text
//! cargo run --release -p concord-bench --bin exp_harmony -- --platform g5k
//! cargo run --release -p concord-bench --bin exp_harmony -- --platform ec2
//! cargo run --release -p concord-bench --bin exp_harmony -- --scale 0.01 --seeds 8 --threads 4
//! ```

use concord::prelude::*;
use concord::PolicySpec;
use concord_bench::{compare_line, render_summary_table, run_sweep, slim, Harness};

fn main() {
    let harness = Harness::from_env();

    // Platform + workload + tolerances per the paper: Grid'5000 uses 20% and
    // 40%, EC2 uses 40% and 60%.
    let platform = harness.preset(platforms::grid5000_harmony, platforms::ec2_harmony);
    let (workload, tolerances, exp_id) = if harness.platform == "ec2" {
        (
            slim(presets::harmony_ec2_workload(harness.scale.workload)),
            (0.40, 0.60),
            "EXP-A2 (EC2)",
        )
    } else {
        (
            slim(presets::harmony_grid5000_workload(harness.scale.workload)),
            (0.20, 0.40),
            "EXP-A1 (Grid'5000)",
        )
    };
    // `--workload d` / `--workload e` swap in the latest-distribution and
    // short-scan YCSB mixes at the same scale.
    let workload = harness.apply_workload(workload);
    harness.banner(exp_id, &platform, &workload);

    let experiment = Experiment::new(platform, workload)
        .with_clients(32)
        .with_adaptation_interval(SimDuration::from_millis(100))
        .with_seed(2013);
    let experiment = harness.apply_arrival(experiment);

    let results = run_sweep(
        &experiment,
        &[
            PolicySpec::Eventual,
            PolicySpec::Strong,
            PolicySpec::Harmony {
                tolerance: tolerances.0,
            },
            PolicySpec::Harmony {
                tolerance: tolerances.1,
            },
        ],
        &harness.seeds(2013),
    );
    let reports = results.primary();
    println!("{}", render_table(exp_id, &reports));
    if results.seeds.len() > 1 {
        println!("{}", render_summary_table(exp_id, &results.summaries()));
    }

    let eventual = &reports[0];
    let strong = &reports[1];
    let harmony_tight = &reports[2];
    let harmony_loose = &reports[3];

    println!("paper-vs-measured:");
    compare_line(
        "stale reads, Harmony vs eventual consistency",
        "~80% fewer",
        format!(
            "{:.0}% fewer ({:.2}% vs {:.2}%)",
            (1.0 - harmony_tight.stale_read_rate / eventual.stale_read_rate.max(1e-9)) * 100.0,
            harmony_tight.stale_read_rate * 100.0,
            eventual.stale_read_rate * 100.0
        ),
    );
    compare_line(
        "throughput, Harmony vs static strong consistency",
        "up to +45%",
        format!(
            "{:+.0}% (loose tolerance) / {:+.0}% (tight tolerance)",
            (harmony_loose.throughput_ops_per_sec / strong.throughput_ops_per_sec - 1.0) * 100.0,
            (harmony_tight.throughput_ops_per_sec / strong.throughput_ops_per_sec - 1.0) * 100.0
        ),
    );
    compare_line(
        "tolerated stale-read rate is never violated",
        "holds",
        format!(
            "harmony({:.0}%) measured {:.2}%, harmony({:.0}%) measured {:.2}%",
            tolerances.0 * 100.0,
            harmony_tight.stale_read_rate * 100.0,
            tolerances.1 * 100.0,
            harmony_loose.stale_read_rate * 100.0
        ),
    );
    println!(
        "\nHarmony adaptation trace (tight tolerance): {} level changes over {:.1} s",
        harmony_tight.level_timeline.len(),
        harmony_tight.makespan.as_secs_f64()
    );
}
