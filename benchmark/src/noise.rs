//! Child runs and the noise protocol.
//!
//! `--sets K --runs R` runs the same build K x R times per workload, the
//! sets interleaved so that both see the machine's slow phases, run `r` of
//! every set on seed `base + r`. Per workload and end-to-end metric it
//! prints each set's median and quartiles, the spread (quartile distance
//! over median) and how far the worst later median is from the first
//! set's, next to the bound: the driver's acceptance test, run at home.

use crate::estimate::quartiles;
use crate::metrics::{Better, END_TO_END};
use crate::workloads;
use serde::Deserialize;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

#[derive(Deserialize)]
struct Reading {
    value: f64,
}

/// The `metrics` object of a result line: name to value. The vendored serde
/// derives no map, so this reads the object's fields itself.
pub struct Readings(BTreeMap<String, f64>);

impl Deserialize for Readings {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let fields = v
            .as_object()
            .ok_or_else(|| serde::Error::msg("metrics is not an object"))?;
        let readings = fields
            .iter()
            .map(|(name, reading)| Ok((name.clone(), Reading::from_value(reading)?.value)));
        Ok(Readings(readings.collect::<Result<_, serde::Error>>()?))
    }
}

/// The result line of a run, read back.
#[derive(Deserialize)]
pub struct ResultLine {
    pub correct: bool,
    pub metrics: Readings,
}

/// One workload run in a child process of this executable.
pub struct Child<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub check: bool,
    pub out_dir: &'a Path,
}

impl Child<'_> {
    /// Run the child to its end and read its result line. `show` passes its
    /// output through. `None` when it could not run or printed no result.
    pub fn spawn(&self, show: bool) -> Option<ResultLine> {
        let exe = std::env::current_exe().ok()?;
        let mut command = Command::new(exe);
        command
            .args(["--workload", self.workload])
            .args(["--seed", &self.seed.to_string()])
            .args(["--seconds", &self.seconds.to_string()])
            .args(["--trace", if self.trace { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(self.out_dir)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if self.check {
            command.arg("--check");
        }
        // `output` waits for the child to end.
        let output = command.output().ok()?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        if show {
            print!("{stdout}");
        }
        let result: ResultLine = serde_json::from_str(stdout.lines().last()?).ok()?;
        (output.status.success() == result.correct).then_some(result)
    }
}

/// Run the protocol and print the table. False when a run failed or a
/// metric is too noisy for its bound.
pub fn protocol(sets: usize, runs: usize, base_seed: u64, seconds: f64, out_dir: &Path) -> bool {
    // (workload, set, metric) -> one value per run
    let mut values = BTreeMap::<(&str, usize, &str), Vec<f64>>::new();
    let mut ok = true;
    for run in 0..runs {
        for set in 0..sets {
            for name in workloads::NAMES {
                let child = Child {
                    workload: name,
                    seed: base_seed + run as u64,
                    seconds,
                    trace: false,
                    check: false,
                    out_dir,
                };
                match child.spawn(false).filter(|r| r.correct) {
                    Some(result) => {
                        for &(metric, ..) in END_TO_END {
                            let value = result.metrics.0[metric];
                            values.entry((name, set, metric)).or_default().push(value);
                        }
                    }
                    None => {
                        println!("{name}: run {run} of set {set} failed");
                        ok = false;
                    }
                }
            }
            eprintln!("run {run} of set {set} done");
        }
    }
    if !ok {
        return false;
    }
    println!(
        "{:<22} {:<21} {:>3}  {:>13} {:>13} {:>13}  {:>7}  {:>8}  {:>5}",
        "workload", "metric", "set", "q1", "median", "q3", "spread", "worsened", "bound"
    );
    for name in workloads::NAMES {
        for &(metric, _, better, bound) in END_TO_END {
            let first_median = quartiles(&values[&(*name, 0, metric)]).1;
            for set in 0..sets {
                let runs = &values[&(*name, set, metric)];
                let (q1, median, q3) = quartiles(runs);
                let spread = (q3 - q1) / median;
                let worsened = match better {
                    Better::Lower => median / first_median - 1.0,
                    Better::Higher => 1.0 - median / first_median,
                };
                // setup_s is held to its bound on the medians only.
                let too_wide = metric != "setup_s" && spread > bound / 3.0;
                let too_far = worsened > bound / 2.0;
                ok &= !(too_wide || too_far);
                println!(
                    "{name:<22} {metric:<21} {set:>3}  {q1:>13.6} {median:>13.6} {q3:>13.6}  {spread:>7.4}  {worsened:>8.4}  {bound:>5.3}{}{}",
                    if too_wide { "  SPREAD > bound/3" } else { "" },
                    if too_far { "  MEDIANS DISAGREE > bound/2" } else { "" },
                );
                if too_wide || too_far {
                    // In run order, to tell a slow phase from scattered jitter.
                    println!("    runs: {runs:?}");
                }
            }
        }
    }
    ok
}
