//! The metric tables (name, unit, direction, bound) and the result line.
//!
//! `BENCHMARK.json` at the repository root carries the same tables for the
//! driver; a unit test keeps the two in step. [`Metrics`] refuses a name
//! that is not in its table or is set twice, and [`Metrics::finish`] refuses
//! a table entry nobody set, so every run prints every metric exactly once.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, what a user of the simulator sees, the same on
/// every workload: `(name, unit, better, bound)`, the bound being the share of
/// the parent's median by which the metric may worsen. Host time and memory
/// first, then the simulated statistics, which repeat exactly for a seed.
/// The driver measures over ten seeds, so a bound is about three times the
/// widest quartile distance any workload showed over ten seeds on the 2-vCPU
/// sandbox (README, noise table), capped at the driver's 0.25.
pub const END_TO_END: &[(&str, &str, Better, f64)] = &[
    ("wall_s", "s", Lower, 0.25),
    ("setup_s", "s", Lower, 0.25),
    ("sim_ops_per_s", "ops/s", Higher, 0.25),
    ("peak_rss_mb", "MiB", Lower, 0.15),
    ("completed_op_share", "ratio", Higher, 0.005),
    ("stale_read_rate", "ratio", Lower, 0.15),
    ("sim_throughput_ops_s", "ops/s", Higher, 0.05),
    ("bill_usd_per_mop", "USD", Lower, 0.05),
];

/// The per-layer metrics of the traced run: `(name, unit, better)`. The
/// prefix is the module the number belongs to. Metrics of an ablation arm or
/// a plane a workload does not have read 0 there.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // Set-up, from spans around the calls the benchmark makes.
    ("concord.build_cluster_s", "s", Lower),
    ("cluster.new_ms", "ms", Lower),
    ("cluster.load_ns_per_record", "ns", Lower),
    ("workload.new_ms", "ms", Lower),
    // The scenario driver, the policy decorator and the report.
    ("core.run_scenario_s", "s", Lower),
    ("core.decide_calls", "count", Lower),
    ("core.decide_us_mean", "us", Lower),
    ("core.decide_share", "ratio", Lower),
    ("core.driver_engine_self_s", "s", Lower),
    ("core.report_json_us", "us", Lower),
    ("trace.overhead_share", "ratio", Lower),
    // Work per simulated operation.
    ("cluster.events_per_op", "count", Lower),
    ("cluster.ns_per_event", "ns", Lower),
    ("alloc.count_per_op", "count", Lower),
    ("alloc.bytes_per_op", "B", Lower),
    // Simulated behaviour behind the three simulated end-to-end metrics.
    ("cluster.sim_read_p99_ms", "ms", Lower),
    ("cluster.sim_write_p99_ms", "ms", Lower),
    ("cluster.mean_read_replicas", "count", Lower),
    ("core.adaptation_steps", "count", Lower),
    ("core.level_changes", "count", Lower),
    // Fault handling, repair and resilience planes.
    ("cluster.timeouts", "count", Lower),
    ("cluster.retries", "count", Lower),
    ("cluster.messages_lost", "count", Lower),
    ("cluster.hints_replayed", "count", Lower),
    ("cluster.repair_pages_compared", "count", Lower),
    ("cluster.repair_records_streamed", "count", Lower),
    ("cluster.repair_bytes", "B", Lower),
    ("cluster.hedged_requests", "count", Lower),
    ("cluster.hedge_wins", "count", Higher),
    ("cluster.backoff_retries", "count", Lower),
    ("cluster.breaker_opens", "count", Lower),
    ("cluster.repair_plane_s", "s", Lower),
    ("cluster.repair_us_per_page", "us", Lower),
    ("cluster.resilience_plane_s", "s", Lower),
    // The sharded engine.
    ("cluster.shard_windows", "count", Lower),
    ("cluster.events_per_window", "count", Higher),
    ("cluster.parallel_batches", "count", Lower),
    ("cluster.barrier_folds", "count", Lower),
    ("cluster.elided_barriers", "count", Higher),
    ("cluster.fast_forwards", "count", Higher),
    ("cluster.max_batch_len", "count", Lower),
    ("cluster.cross_shard_staged", "count", Lower),
    ("cluster.lookahead_violations", "count", Lower),
    ("cluster.par2_speedup", "ratio", Higher),
    ("cluster.shard_overhead", "ratio", Lower),
    ("cluster.sharded_closed_thr_ratio", "ratio", Higher),
    // The sweep pool.
    ("bench.sweep_par2_speedup", "ratio", Higher),
    ("rayon.par_call_us", "us", Lower),
    // Floors: each layer alone, in a micro-loop.
    ("sim.queue_heap_ns_per_event", "ns", Lower),
    ("sim.queue_fifo_ns_per_event", "ns", Lower),
    ("sim.queue_wheel_ns_per_event", "ns", Lower),
    ("sim.queue_bulk_ns_per_event", "ns", Lower),
    ("sim.delay_sample_ns", "ns", Lower),
    ("workload.next_op_ns", "ns", Lower),
    ("workload.timed_ops_ns", "ns", Lower),
    ("cluster.store_read_ns", "ns", Lower),
    ("cluster.store_write_ns", "ns", Lower),
    ("cluster.store_scan_ns_per_slot", "ns", Lower),
    ("cluster.store_summary_write_ns", "ns", Lower),
    ("cluster.oracle_ack_ns", "ns", Lower),
    ("cluster.oracle_classify_ns", "ns", Lower),
    ("cluster.ring_replicas_ns", "ns", Lower),
    ("cluster.closed_ns_per_op", "ns", Lower),
    ("cluster.bulk_ns_per_op", "ns", Lower),
    ("monitor.record_ns", "ns", Lower),
    ("monitor.snapshot_us", "us", Lower),
    ("staleness.analytic_us", "us", Lower),
    ("staleness.solve_us", "us", Lower),
    ("staleness.montecarlo_ms", "ms", Lower),
    ("core.harmony_decide_us", "us", Lower),
    ("core.bismar_decide_us", "us", Lower),
    ("cost.bill_ns", "ns", Lower),
];

/// A metric name: a letter or digit, then letters, digits, `_`, `.`, `-`;
/// at most 64 characters (the driver's rule).
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The values of one run, checked against a table of `(name, unit)`.
pub struct Metrics {
    table: Vec<(&'static str, &'static str)>,
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn end_to_end() -> Self {
        Self::with_table(END_TO_END.iter().map(|m| (m.0, m.1)).collect())
    }

    pub fn per_layer() -> Self {
        Self::with_table(PER_LAYER.iter().map(|m| (m.0, m.1)).collect())
    }

    fn with_table(table: Vec<(&'static str, &'static str)>) -> Self {
        assert!(table.iter().all(|(name, _)| valid_name(name)));
        let values = vec![None; table.len()];
        Metrics { table, values }
    }

    /// Set a metric. Panics on a name outside the table or set twice: both
    /// are bugs in the benchmark, not measurements.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        assert!(self.values[i].is_none(), "metric {name} set twice");
        self.values[i] = Some(value);
    }

    /// The rows `(name, value, unit)` in table order, or the names nobody set.
    pub fn finish(self) -> Result<Vec<(&'static str, f64, &'static str)>, Vec<&'static str>> {
        let missing: Vec<_> = (self.table.iter().zip(&self.values))
            .filter(|(_, v)| v.is_none())
            .map(|((n, _), _)| *n)
            .collect();
        if !missing.is_empty() {
            return Err(missing);
        }
        Ok((self.table.iter().zip(self.values))
            .map(|((n, u), v)| (*n, v.expect("checked above"), *u))
            .collect())
    }
}

/// A JSON number with all the digits of the measurement (Rust prints the
/// shortest text that reads back to the same `f64`); non-finite values, which
/// JSON cannot carry, become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The human-readable table: one `name value unit` line per metric.
pub fn render_table(workload: &str, rows: &[(&'static str, f64, &'static str)]) -> String {
    let mut out = format!("== {workload} ==\n");
    for (name, value, unit) in rows {
        out.push_str(&format!("{name:<36} {value:>18.6} {unit}\n"));
    }
    out
}

/// The result line the driver reads: the last line of standard output.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    rows: &[(&'static str, f64, &'static str)],
) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Deserialize)]
    struct SpecWorkload {
        name: String,
        why: String,
    }
    #[derive(Deserialize)]
    struct SpecEndToEnd {
        name: String,
        unit: String,
        better: String,
        bound: f64,
    }
    #[derive(Deserialize)]
    struct SpecLayer {
        name: String,
        unit: String,
        better: String,
    }
    #[derive(Deserialize)]
    struct Spec {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<SpecWorkload>,
        end_to_end: Vec<SpecEndToEnd>,
        per_layer: Vec<SpecLayer>,
    }

    fn spec() -> Spec {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn names_follow_the_drivers_rule() {
        for ok in ["wall_s", "core.decide_us_mean", "9p", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in ["", ".x", "_x", "a b", "a/b", "µs", too_long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        let mut seen = std::collections::BTreeSet::new();
        let all = (END_TO_END.iter().map(|m| m.0)).chain(PER_LAYER.iter().map(|m| m.0));
        for name in all.chain(crate::workloads::NAMES.iter().copied()) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
    }

    #[test]
    fn benchmark_json_carries_the_same_tables() {
        let spec = spec();
        assert_eq!(spec.command, ["bash", "benchmark/run.sh"]);
        assert_eq!(spec.paths, ["benchmark"]);
        assert!((1..=60).contains(&spec.run_seconds));
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, crate::workloads::NAMES);
        for w in &spec.workloads {
            assert_eq!(w.why, crate::workloads::why(&w.name));
            assert!(
                !w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
        }
        assert_eq!(spec.end_to_end.len(), END_TO_END.len());
        for (s, (name, unit, better, bound)) in spec.end_to_end.iter().zip(END_TO_END) {
            assert_eq!(
                (s.name.as_str(), s.unit.as_str(), s.better.as_str(), s.bound),
                (*name, *unit, better.label(), *bound)
            );
            assert!(*bound > 0.0 && *bound <= 0.25, "{name}");
        }
        assert!(END_TO_END.contains(&("setup_s", "s", Lower, 0.25)));
        assert_eq!(spec.per_layer.len(), PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128);
        for (s, (name, unit, better)) in spec.per_layer.iter().zip(PER_LAYER) {
            assert_eq!(
                (s.name.as_str(), s.unit.as_str(), s.better.as_str()),
                (*name, *unit, better.label())
            );
        }
    }

    #[test]
    fn every_metric_is_printed_exactly_once_with_its_unit() {
        let spec = spec();
        let cases: [(Metrics, Vec<(String, String)>); 2] = [
            (
                Metrics::end_to_end(),
                spec.end_to_end
                    .into_iter()
                    .map(|m| (m.name, m.unit))
                    .collect(),
            ),
            (
                Metrics::per_layer(),
                spec.per_layer
                    .into_iter()
                    .map(|m| (m.name, m.unit))
                    .collect(),
            ),
        ];
        for (mut metrics, expected) in cases {
            for (i, (name, _)) in expected.iter().enumerate() {
                metrics.set(name, i as f64 + 0.5);
            }
            let rows = metrics.finish().expect("every metric was set");
            let table = render_table("w", &rows);
            let line = result_line(true, 3, 0, &rows);
            for (name, unit) in &expected {
                let printed = table
                    .lines()
                    .filter(|l| l.split_whitespace().next() == Some(name.as_str()))
                    .collect::<Vec<_>>();
                assert_eq!(printed.len(), 1, "{name}");
                assert_eq!(
                    printed[0].split_whitespace().last(),
                    Some(unit.as_str()),
                    "{name}"
                );
                assert_eq!(
                    line.matches(&format!("\"{name}\": {{")).count(),
                    1,
                    "{name}"
                );
            }
            assert!(line.starts_with(
                "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"
            ));
        }
    }

    #[test]
    fn an_unset_or_unknown_metric_is_refused() {
        let mut m = Metrics::end_to_end();
        m.set("wall_s", 1.0);
        let missing = m.finish().expect_err("seven metrics are unset");
        assert_eq!(missing.len(), END_TO_END.len() - 1);
        assert!(std::panic::catch_unwind(|| Metrics::end_to_end().set("nope", 1.0)).is_err());
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_json() {
        assert_eq!(json_number(1.2034567891234), "1.2034567891234");
        assert_eq!(json_number(3.0), "3");
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(f64::INFINITY), "0");
    }
}
