//! Application behavior modeling (§III-C): learn a webshop's consistency
//! requirements from a synthetic access trace, inspect the discovered
//! states and their assigned policies, then drive a live run with the
//! behavior-model policy and compare it to one-size-fits-all baselines.
//!
//! Run with:
//! ```text
//! cargo run --release --example webshop_behavior_modeling
//! ```

use concord::prelude::*;
use concord_core::behavior::PolicyKind;
use concord_core::{PolicyRule, RuleCondition};
use concord_workload::SyntheticTraceBuilder;

fn main() {
    let mut rng = SimRng::new(7);

    // --- Offline: build the application timeline from past traces ---------
    // A webshop alternates between long browsing phases (read-mostly, light)
    // and short checkout / flash-sale phases (write-heavy, busy).
    let browse = presets::ycsb_b(); // 95% reads
    let checkout = presets::ycsb_a(); // 50% updates
    let trace = SyntheticTraceBuilder::new()
        .add(
            "browse-morning",
            SimDuration::from_secs(600),
            80.0,
            browse.clone(),
        )
        .add(
            "checkout-noon",
            SimDuration::from_secs(180),
            500.0,
            checkout.clone(),
        )
        .add(
            "browse-afternoon",
            SimDuration::from_secs(600),
            70.0,
            browse.clone(),
        )
        .add("flash-sale", SimDuration::from_secs(240), 900.0, checkout)
        .add("browse-evening", SimDuration::from_secs(600), 60.0, browse)
        .build(&mut rng);
    println!(
        "captured trace: {} operations over {:.0} simulated seconds",
        trace.len(),
        trace.duration().as_secs_f64()
    );

    // Generic rules + one administrator rule: flash-sale-sized load must
    // never serve stale product stock, whatever the generic rules say.
    let rules = RuleSet::generic().with_custom_rule(PolicyRule {
        name: "admin: very busy states read at quorum".into(),
        condition: RuleCondition {
            min_ops_per_sec: Some(800.0),
            ..Default::default()
        },
        policy: PolicyKind::Quorum,
    });

    let model = BehaviorModelBuilder::new(SimDuration::from_secs(60))
        .with_state_bounds(2, 5)
        .with_rules(rules)
        .fit(&trace, &mut rng);

    println!("\n== discovered application states ==");
    for state in model.states() {
        println!(
            "state {}: {:>7.1} ops/s, write ratio {:>5.1}%, {} periods → {} ({})",
            state.id,
            state.centroid.ops_per_sec,
            state.centroid.write_ratio * 100.0,
            state.periods,
            state.policy.label(),
            state.assigned_by
        );
    }
    println!("timeline state sequence: {:?}", model.timeline_states());

    // --- Runtime: drive a live workload with the learned model ------------
    let platform = concord::platforms::ec2_harmony(0.4);
    let mut workload = presets::paper_heavy_read_update(4_000, 15_000);
    workload.field_count = 1;
    workload.field_length = 1_000;
    let experiment = Experiment::new(platform, workload)
        .with_clients(24)
        .with_adaptation_interval(SimDuration::from_millis(500))
        .with_seed(7);

    let behavior_report = experiment.run_policy(&mut BehaviorDrivenPolicy::new(model.clone()));
    let mut baseline_reports = experiment.compare(&[PolicySpec::Eventual, PolicySpec::Strong]);
    baseline_reports.push(behavior_report);

    println!(
        "{}",
        render_table(
            "webshop: behavior model vs static baselines",
            &baseline_reports
        )
    );

    // The model is serializable so it can be shipped with the application.
    let json = model.to_json();
    println!("serialized model: {} bytes of JSON", json.len());
}
