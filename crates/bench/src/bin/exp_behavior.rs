//! EXP-C — application behavior modeling (§III-C).
//!
//! The paper leaves the experimental evaluation of this contribution to
//! future work; this binary provides one anyway: it builds a synthetic
//! webshop trace with known ground-truth phases, fits the behavior model,
//! reports how well the discovered states match the ground truth (period
//! classification accuracy), shows the state → policy assignment produced by
//! the generic rules, and finally compares a behavior-driven run against
//! one-size-fits-all baselines.
//!
//! The trace, the fitted model and the live run's platform (EC2-like at 0.4
//! scale) and workload are fixed, and the comparison is one seed, so the
//! binary takes only `--threads`, `--arrival` and the cluster flags
//! (`--partitioner`, `--repair`, `--hedge`, `--selection`, `--backoff`).
//!
//! ```text
//! cargo run --release -p concord-bench --bin exp_behavior
//! ```

use concord::prelude::*;
use concord::PolicySpec;
use concord_bench::Harness;
use concord_workload::SyntheticTraceBuilder;

fn main() {
    let harness = Harness::from_env(); // applies --threads to the pool
    harness.reject(
        &[
            "--workload",
            "--scale",
            "--cluster-scale",
            "--platform",
            "--seeds",
            "--seed-base",
        ],
        "behavior modeling fixes its trace, platform, workload and seed",
    );
    let mut rng = SimRng::new(31);

    // Ground truth: browse (read-mostly, quiet) vs checkout (write-heavy,
    // busy), alternating. Period = 60 s, so each phase is a whole number of
    // periods and the ground-truth label of every period is known.
    let browse = presets::ycsb_b();
    let checkout = presets::ycsb_a();
    let phases = [
        ("browse", 300u64, 80.0),
        ("checkout", 180, 500.0),
        ("browse", 300, 70.0),
        ("checkout", 180, 520.0),
        ("browse", 300, 75.0),
    ];
    let mut builder = SyntheticTraceBuilder::new();
    let mut truth: Vec<&str> = Vec::new();
    for (name, secs, rate) in phases {
        let wl = if name == "browse" {
            browse.clone()
        } else {
            checkout.clone()
        };
        builder = builder.add(name, SimDuration::from_secs(secs), rate, wl);
        for _ in 0..secs / 60 {
            truth.push(name);
        }
    }
    let trace = builder.build(&mut rng);
    println!(
        "EXP-C: synthetic webshop trace, {} operations over {:.0} s, {} ground-truth periods",
        trace.len(),
        trace.duration().as_secs_f64(),
        truth.len()
    );

    // Offline modeling.
    let model = BehaviorModelBuilder::new(SimDuration::from_secs(60))
        .with_state_bounds(2, 4)
        .fit(&trace, &mut rng);

    println!("\ndiscovered states:");
    for state in model.states() {
        println!(
            "  state {}: {:>7.1} ops/s, {:>4.1}% writes, {} periods → {} ({})",
            state.id,
            state.centroid.ops_per_sec,
            state.centroid.write_ratio * 100.0,
            state.periods,
            state.policy.label(),
            state.assigned_by
        );
    }

    // Classification accuracy vs ground truth: map each discovered state to
    // the ground-truth label it most often covers, then score the timeline.
    let assignments = model.timeline_states();
    let n = assignments.len().min(truth.len());
    let mut votes: std::collections::HashMap<(usize, &str), usize> =
        std::collections::HashMap::new();
    for i in 0..n {
        *votes.entry((assignments[i], truth[i])).or_insert(0) += 1;
    }
    let mut state_label: std::collections::HashMap<usize, &str> = std::collections::HashMap::new();
    for state in model.states() {
        let label = ["browse", "checkout"]
            .iter()
            .max_by_key(|l| votes.get(&(state.id, **l)).copied().unwrap_or(0))
            .copied()
            .unwrap_or("browse");
        state_label.insert(state.id, label);
    }
    let correct = (0..n)
        .filter(|&i| state_label[&assignments[i]] == truth[i])
        .count();
    let accuracy = correct as f64 / n as f64;
    println!(
        "\nperiod classification accuracy vs ground truth: {:.1}% ({correct}/{n})",
        accuracy * 100.0
    );

    // Runtime comparison: static baselines through `Experiment::compare`
    // (the behavior-driven policy carries a fitted model, which a declarative
    // `PolicySpec` cannot express, so it runs as a single extra point).
    let platform = harness.apply_cluster_flags(concord::platforms::ec2_harmony(0.4));
    let mut workload = presets::paper_heavy_read_update(4_000, 20_000);
    workload.field_count = 1;
    workload.field_length = 1_000;
    let experiment = Experiment::new(platform, workload)
        .with_clients(24)
        .with_adaptation_interval(SimDuration::from_millis(100))
        .with_seed(31);
    let experiment = harness.apply_arrival(experiment);
    let behavior_report = experiment.run_policy(&mut BehaviorDrivenPolicy::new(model));
    let mut reports = experiment.compare(&[PolicySpec::Eventual, PolicySpec::Strong]);
    reports.push(behavior_report);
    println!(
        "{}",
        render_table("EXP-C: behavior-driven run vs baselines", &reports)
    );
}
