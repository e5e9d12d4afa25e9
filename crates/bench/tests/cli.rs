//! Every `exp_*` binary honours a flag or refuses it: an argument that is
//! not a flag, or a flag the binary would ignore, stops it with the flag
//! named before any simulation runs, and so does a `--hedge` no timeout
//! could let fire.

use std::process::{Command, Output};

/// Each binary with one flag (and its value) it does not honour. The three
/// binaries that honour every flag get `--clients`, which is no flag at all.
const BINS: [(&str, &str, &str); 7] = [
    (env!("CARGO_BIN_EXE_exp_fig1"), "--scale", "0.5"),
    (env!("CARGO_BIN_EXE_exp_harmony"), "--clients", "8"),
    (env!("CARGO_BIN_EXE_exp_cost_breakdown"), "--clients", "8"),
    (
        env!("CARGO_BIN_EXE_exp_efficiency_samples"),
        "--workload",
        "a",
    ),
    (env!("CARGO_BIN_EXE_exp_bismar"), "--clients", "8"),
    (env!("CARGO_BIN_EXE_exp_behavior"), "--seeds", "4"),
    (env!("CARGO_BIN_EXE_exp_faults"), "--arrival", "poisson:100"),
];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{bin} did not start: {e}"))
}

/// Assert `bin args` failed before printing anything and that its stderr
/// names `flag` as refused.
fn assert_refused(bin: &str, args: &[&str], flag: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{bin} {args:?} must fail");
    assert!(
        stderr.contains(&format!("{flag}: not a flag of this experiment")),
        "{bin} {args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{bin} {args:?} ran before refusing");
}

#[test]
fn every_binary_refuses_an_argument_that_is_not_a_flag() {
    for (bin, ..) in BINS {
        assert_refused(bin, &["--seed", "7"], "--seed");
    }
    // A misspelt flag is named, not skipped.
    assert_refused(
        env!("CARGO_BIN_EXE_exp_bismar"),
        &["--seed-base", "7", "--repiar", "full"],
        "--repiar",
    );
}

#[test]
fn every_binary_refuses_the_flags_it_does_not_honour() {
    for (bin, flag, value) in BINS {
        assert_refused(bin, &[flag, value], flag);
    }
}

#[test]
fn a_hedge_that_cannot_fire_before_the_timeout_is_refused() {
    let out = run(
        env!("CARGO_BIN_EXE_exp_faults"),
        &["--scale", "0.0001", "--seeds", "1", "--hedge", "1e300"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "--hedge 1e300 must fail");
    assert!(stderr.contains("hedge_delay"), "{stderr}");
}
