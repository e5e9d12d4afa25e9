//! Every fault script this repository ships validates against the smallest
//! platform it runs on: `exp_faults` (both legs), the benchmark's
//! `faults_open_planes` workload and `examples/fault_injection.rs` all drive
//! `grid5000_harmony`, which scales down to six nodes over two sites.
//!
//! The scripts live in binaries, an example and a package of its own, so the
//! test reads their sources: each `FaultAction::Name(args)` literal is
//! re-spelled in the script wire format (the JSON serialization of
//! `FaultAction`) and parsed back.

use concord::prelude::*;

/// The `FaultAction::…(…)` literals of a Rust source text.
fn scripted_actions(source: &str) -> Vec<FaultAction> {
    source
        .split("FaultAction::")
        .skip(1)
        .map(|rest| {
            let (name, rest) = rest.split_once('(').expect("a variant with arguments");
            let (args, _) = rest.split_once(')').expect("a closed argument list");
            let args: Vec<String> = args
                .split(',')
                .map(|arg| match arg.trim().strip_prefix("LinkClass::") {
                    Some(class) => format!("\"{class}\""),
                    None => arg.trim().to_string(),
                })
                .collect();
            let json = match &args[..] {
                [one] => format!("{{\"{name}\": {one}}}"),
                several => format!("{{\"{name}\": [{}]}}", several.join(", ")),
            };
            serde_json::from_str(&json).unwrap_or_else(|e| panic!("{json}: {e:?}"))
        })
        .collect()
}

#[test]
fn every_shipped_fault_script_validates() {
    let smallest = platforms::grid5000_harmony(0.01).cluster;
    assert_eq!(smallest.topology.node_count(), 6);
    for (path, source, scripted) in [
        (
            "crates/bench/src/bin/exp_faults.rs",
            include_str!("../crates/bench/src/bin/exp_faults.rs"),
            10,
        ),
        (
            "benchmark/src/workloads.rs",
            include_str!("../benchmark/src/workloads.rs"),
            10,
        ),
        (
            "examples/fault_injection.rs",
            include_str!("../examples/fault_injection.rs"),
            10,
        ),
    ] {
        let actions = scripted_actions(source);
        assert_eq!(actions.len(), scripted, "{path}: a script changed size");
        let faults = actions
            .into_iter()
            .map(|action| FaultEvent::at_secs(1.0, action))
            .collect();
        let script = Scenario::open_poisson(1_000.0).with_faults(faults);
        assert_eq!(script.validate(&smallest), Ok(()), "{path}");
    }
}

#[test]
fn the_source_reader_sees_what_a_bad_script_says() {
    let actions = scripted_actions(
        "vec![at(0.1, FaultAction::CrashNode(99)),
              at(0.2, FaultAction::DegradeLink(LinkClass::InterDc, 0.0))]",
    );
    let smallest = platforms::grid5000_harmony(0.01).cluster;
    for (action, why) in actions.into_iter().zip(["no node 99", "degrade factor 0"]) {
        let script = Scenario::closed(1).with_faults(vec![FaultEvent::at_secs(1.0, action)]);
        let error = script.validate(&smallest).unwrap_err();
        assert!(error.contains(why), "{error}");
    }
}
