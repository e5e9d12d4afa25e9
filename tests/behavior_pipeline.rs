//! Integration test of the behavior-modeling pipeline (§III-C): synthetic
//! application trace → offline model → runtime behavior-driven policy →
//! adaptive run, spanning `concord-workload`, `concord-core` and the
//! experiment API.

use concord::prelude::*;
use concord::PolicySpec;
use concord_core::behavior::PolicyKind;
use concord_workload::SyntheticTraceBuilder;

fn webshop_trace(rng: &mut SimRng) -> concord_workload::Trace {
    let browse = presets::ycsb_b();
    let checkout = presets::ycsb_a();
    SyntheticTraceBuilder::new()
        .add(
            "browse-1",
            SimDuration::from_secs(300),
            80.0,
            browse.clone(),
        )
        .add(
            "checkout-1",
            SimDuration::from_secs(120),
            500.0,
            checkout.clone(),
        )
        .add(
            "browse-2",
            SimDuration::from_secs(300),
            75.0,
            browse.clone(),
        )
        .add("checkout-2", SimDuration::from_secs(120), 520.0, checkout)
        .add("browse-3", SimDuration::from_secs(300), 85.0, browse)
        .build(rng)
}

#[test]
fn offline_model_discovers_interpretable_states() {
    let mut rng = SimRng::new(2024);
    let trace = webshop_trace(&mut rng);
    assert!(
        trace.len() > 50_000,
        "the synthetic trace should be sizable"
    );

    let model = BehaviorModelBuilder::new(SimDuration::from_secs(60))
        .with_state_bounds(2, 4)
        .fit(&trace, &mut rng);

    // At least two states, jointly covering the whole timeline.
    assert!(model.state_count() >= 2);
    let covered: usize = model.states().iter().map(|s| s.periods).sum();
    assert_eq!(covered, model.timeline_states().len());

    // There is a write-heavy state assigned a strong policy and a read-mostly
    // state assigned a weaker one (the generic rules of the paper).
    assert!(model.states().iter().any(|s| s.centroid.write_ratio > 0.3
        && matches!(s.policy, PolicyKind::Quorum | PolicyKind::Strong)));
    assert!(model.states().iter().any(|s| s.centroid.write_ratio < 0.2
        && !matches!(s.policy, PolicyKind::Quorum | PolicyKind::Strong)));

    // The model survives serialization (it ships with the application).
    let back = concord_core::BehaviorModel::from_json(&model.to_json()).unwrap();
    assert_eq!(back, model);
}

#[test]
fn behavior_driven_runs_complete_and_track_states() {
    let mut rng = SimRng::new(77);
    let trace = webshop_trace(&mut rng);
    let model = BehaviorModelBuilder::new(SimDuration::from_secs(60))
        .with_state_bounds(2, 4)
        .fit(&trace, &mut rng);

    let platform = concord::platforms::ec2_harmony(0.4);
    let mut workload = presets::paper_heavy_read_update(2_000, 8_000);
    workload.field_count = 1;
    workload.field_length = 1_000;
    let experiment = Experiment::new(platform, workload)
        .with_clients(16)
        .with_adaptation_interval(SimDuration::from_millis(100))
        .with_seed(77);

    let behavior_report = experiment.run_policy(&mut BehaviorDrivenPolicy::new(model));
    assert_eq!(behavior_report.total_ops, 8_000);
    assert!(behavior_report.throughput_ops_per_sec > 0.0);
    assert!(behavior_report.adaptation_steps > 2);
    assert!(behavior_report.policy.contains("behavior-model"));

    // The behavior-driven run is sane relative to the static extremes: never
    // slower than strong, never staler than eventual.
    let baselines = experiment.compare(&[PolicySpec::Eventual, PolicySpec::Strong]);
    let eventual = &baselines[0];
    let strong = &baselines[1];
    assert!(behavior_report.throughput_ops_per_sec >= strong.throughput_ops_per_sec * 0.9);
    assert!(behavior_report.stale_read_rate <= eventual.stale_read_rate + 0.02);
}
