//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's call)
//! benchmark/run.sh [--seed N] [--trace]                               every workload, each in its own process
//! benchmark/run.sh --check                                            every workload at 1/20 size, all checks
//! benchmark/run.sh --sets 2 --runs 5                                  the noise protocol
//! ```

mod alloc;
mod estimate;
mod floors;
mod measure;
mod metrics;
mod noise;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// The seed when none is given: the paper's year, like the `exp_*` binaries.
const DEFAULT_SEED: u64 = 2013;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    sets: usize,
    runs: usize,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check: false,
        sets: 0,
        runs: 5,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut rest = args.iter().map(String::as_str).peekable();
    while let Some(flag) = rest.next() {
        match flag {
            "--check" => parsed.check = true,
            // `--trace 0|1` from the driver, or a bare `--trace`.
            "--trace" => parsed.trace = rest.next_if(|v| matches!(*v, "0" | "1")) != Some("0"),
            _ => {
                let value = rest.next().ok_or(format!("{flag} needs a value"))?;
                let bad = || format!("{flag} cannot take {value}");
                match flag {
                    "--workload" => parsed.workload = Some(value.to_string()),
                    "--out-dir" => parsed.out_dir = PathBuf::from(value),
                    "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
                    "--sets" => parsed.sets = value.parse().map_err(|_| bad())?,
                    "--runs" => parsed.runs = value.parse::<usize>().map_err(|_| bad())?.max(1),
                    "--seconds" => {
                        parsed.seconds = value.parse().map_err(|_| bad())?;
                        if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
                            return Err(bad());
                        }
                    }
                    _ => return Err(format!("unknown argument {flag}")),
                }
            }
        }
    }
    Ok(parsed)
}

/// One workload in this process: the tables, then the result line last.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let opts = measure::Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        shrink: if args.check { 20 } else { 1 },
        out_dir: args.out_dir.clone(),
    };
    let Some(outcome) = measure::run(name, &opts) else {
        eprintln!(
            "unknown workload {name}; known: {}",
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    println!("{name}: {}", workloads::why(name));
    let title = format!(
        "{name}, seed {}, {} timed rounds",
        args.seed, outcome.rounds
    );
    print!("{}", metrics::render_table(&title, &outcome.rows));
    for failure in &outcome.failures {
        println!("CHECK FAILED: {failure}");
    }
    let failed = outcome.failures.len() as u64;
    println!(
        "{}",
        metrics::result_line(failed == 0, outcome.attempted, failed, &outcome.rows)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = &args.workload {
        return run_one(name, &args);
    }
    // Every workload, each in a child process of its own, so that peak
    // memory is per workload and no workload warms another's caches.
    let ok = if args.sets > 0 {
        noise::protocol(args.sets, args.runs, args.seed, args.seconds, &args.out_dir)
    } else {
        let traces: &[bool] = match (args.check, args.trace) {
            (true, _) => &[false, true],
            (false, trace) => &[trace][..],
        };
        let mut ok = true;
        for name in workloads::NAMES {
            for &trace in traces {
                let run = noise::Child {
                    workload: name,
                    seed: args.seed,
                    seconds: args.seconds,
                    trace,
                    check: args.check,
                    out_dir: &args.out_dir,
                };
                ok &= run.spawn(true).is_some_and(|result| result.correct);
            }
        }
        ok
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_call_and_the_short_forms_parse() {
        let a = parse(&[
            "--workload",
            "w",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("w"), 7, 10.0, true)
        );
        let a = parse(&["--trace", "0", "--seed", "9"]).unwrap();
        assert_eq!((a.trace, a.seed), (false, 9));
        let a = parse(&["--trace", "--check"]).unwrap();
        assert!(a.trace && a.check && a.workload.is_none());
        let a = parse(&["--sets", "2", "--runs", "5"]).unwrap();
        assert_eq!((a.sets, a.runs, a.seed), (2, 5, DEFAULT_SEED));
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seconds", "-1"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
