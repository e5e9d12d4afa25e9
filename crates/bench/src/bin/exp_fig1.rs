//! FIG1 — the stale-read situation of the paper's Figure 1.
//!
//! The figure defines *when* a read may be stale: when it starts while the
//! last write is still propagating to the other replicas. This binary
//! reproduces the model quantitatively: for a sweep of write rates and read
//! consistency levels it prints the stale-read probability predicted by the
//! analytic model and cross-validates it against the Monte-Carlo simulator
//! of the same situation. Every point of the 25-point grid is an independent
//! estimator pair, so the grid maps over the rayon pool while the printed
//! table stays in grid order. The estimator grid builds no cluster and runs
//! no workload, so `--threads` is its only flag.
//!
//! ```text
//! cargo run --release -p concord-bench --bin exp_fig1
//! cargo run --release -p concord-bench --bin exp_fig1 -- --threads 4
//! ```

use concord_bench::Harness;
use concord_staleness::{
    AnalyticEstimator, MonteCarloEstimator, StaleReadEstimator, StalenessParams,
};
use rayon::prelude::*;

fn main() {
    Harness::from_env().reject(
        &[
            "--scale",
            "--cluster-scale",
            "--platform",
            "--seeds",
            "--seed-base",
            "--arrival",
            "--workload",
            "--partitioner",
            "--repair",
            "--hedge",
            "--selection",
            "--backoff",
        ],
        "the estimator grid builds no cluster and runs no workload",
    );
    let analytic = AnalyticEstimator::new();
    let montecarlo = MonteCarloEstimator::new(150_000, 42);

    println!("FIG1: probability of a stale read vs write rate and read level");
    println!("      (RF = 5, write level ONE, T = 1 ms, Tp = 40 ms)\n");
    println!(
        "{:>12} {:>6}  {:>12} {:>12} {:>10}",
        "writes/s", "R", "analytic", "monte-carlo", "|delta|"
    );

    let write_rates = [5.0, 25.0, 100.0, 400.0, 1_600.0];
    let points: Vec<(f64, u32)> = write_rates
        .iter()
        .flat_map(|&w| (1..=5u32).map(move |r| (w, r)))
        .collect();
    let estimates: Vec<(f64, f64)> = points
        .par_iter()
        .map(|&(write_rate, read_level)| {
            let params = StalenessParams::basic(5, read_level, 1, 1_000.0, write_rate, 1.0, 40.0);
            let a = analytic.estimate(&params).stale_read_probability;
            let m = montecarlo.estimate(&params).stale_read_probability;
            (a, m)
        })
        .collect();

    let mut worst_gap = 0.0f64;
    for ((write_rate, read_level), (a, m)) in points.iter().zip(&estimates) {
        let gap = (a - m).abs();
        worst_gap = worst_gap.max(gap);
        println!(
            "{:>12.0} {:>6}  {:>12.4} {:>12.4} {:>10.4}",
            write_rate, read_level, a, m, gap
        );
        if *read_level == 5 {
            println!();
        }
    }
    println!("largest analytic vs Monte-Carlo gap: {worst_gap:.4}");
    println!(
        "\nShape checks (the paper's Figure 1 narrative):\n\
         * the probability grows with the write rate (longer occupancy of the window);\n\
         * it shrinks as more replicas are involved in the read;\n\
         * it is exactly zero once R + W > N (strict quorum)."
    );
}
