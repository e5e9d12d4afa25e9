//! Access-trace capture, replay and synthesis.
//!
//! The behavior-modeling contribution of the paper (§III-C) works on
//! *application data-access past traces*: sequences of timestamped operations
//! from which per-period metrics are extracted offline. This module provides:
//!
//! * [`TraceOp`] / [`Trace`] — a serializable access trace;
//! * [`SyntheticTraceBuilder`] — generate multi-phase application traces
//!   (e.g. a webshop alternating browse / checkout / flash-sale phases) used
//!   to exercise the behavior modeling pipeline.

use crate::arrival::ArrivalProcess;
use crate::core_workload::{CoreWorkload, OperationType, WorkloadConfig};
use concord_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// One operation observed in an application access trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceOp {
    /// When the operation was issued.
    pub at: SimTime,
    /// The kind of operation.
    pub op: OperationType,
    /// The record targeted.
    pub key: u64,
    /// Payload size in bytes.
    pub value_size: u32,
}

/// A complete access trace (ordered by time).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// The operations, in non-decreasing time order.
    pub ops: Vec<TraceOp>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace { ops: Vec::new() }
    }

    /// Number of operations in the trace.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the trace contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total duration covered by the trace.
    pub fn duration(&self) -> SimDuration {
        match (self.ops.first(), self.ops.last()) {
            (Some(first), Some(last)) => last.at - first.at,
            _ => SimDuration::ZERO,
        }
    }

    /// Append an operation, keeping time order (panics in debug builds if the
    /// timestamp goes backwards).
    pub fn push(&mut self, op: TraceOp) {
        debug_assert!(
            self.ops.last().is_none_or(|last| op.at >= last.at),
            "trace must be appended in time order"
        );
        self.ops.push(op);
    }

    /// Split the trace into consecutive windows of `period` and return the
    /// operations of each window. The last partial window is included.
    pub fn windows(&self, period: SimDuration) -> Vec<&[TraceOp]> {
        assert!(!period.is_zero(), "period must be positive");
        if self.ops.is_empty() {
            return Vec::new();
        }
        let start = self.ops[0].at;
        let mut out = Vec::new();
        let mut window_start = 0usize;
        let mut boundary = start + period;
        for (i, op) in self.ops.iter().enumerate() {
            while op.at >= boundary {
                out.push(&self.ops[window_start..i]);
                window_start = i;
                boundary += period;
            }
        }
        out.push(&self.ops[window_start..]);
        out
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace serialization cannot fail")
    }

    /// Deserialize from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// A phase of a synthetic application trace: a workload mix applied at a
/// given request rate for a given duration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracePhase {
    /// Human-readable name (e.g. "browse", "checkout", "flash-sale").
    pub name: String,
    /// How long the phase lasts.
    pub duration: SimDuration,
    /// Mean operation arrival rate during the phase (ops/second): finite and
    /// non-negative, and 0 makes an idle phase. Each gap is rounded to whole
    /// microseconds, so far above 10⁶ ops/s most gaps round to 0: operations
    /// pile up at one instant, and the phase may never reach its end.
    pub ops_per_sec: f64,
    /// The operation mix / key distribution of the phase.
    pub workload: WorkloadConfig,
}

/// Builds synthetic multi-phase traces, e.g. the webshop timeline the
/// behavior-modeling evaluation (EXP-C, the `exp_behavior` binary) learns
/// its application states from.
#[derive(Debug, Clone, Default)]
pub struct SyntheticTraceBuilder {
    phases: Vec<TracePhase>,
}

impl SyntheticTraceBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        SyntheticTraceBuilder { phases: Vec::new() }
    }

    /// Append a phase.
    pub fn phase(mut self, phase: TracePhase) -> Self {
        self.phases.push(phase);
        self
    }

    /// Convenience: append a phase from its parts.
    pub fn add(
        mut self,
        name: &str,
        duration: SimDuration,
        ops_per_sec: f64,
        workload: WorkloadConfig,
    ) -> Self {
        self.phases.push(TracePhase {
            name: name.to_string(),
            duration,
            ops_per_sec,
            workload,
        });
        self
    }

    /// The phases added so far.
    pub fn phases(&self) -> &[TracePhase] {
        &self.phases
    }

    /// Generate the trace, with Poisson arrivals inside each phase (the
    /// open-loop arrival rule, [`ArrivalProcess::OpenLoopPoisson`]).
    ///
    /// # Panics
    /// Panics, naming the phase, if a rate other than 0 fails
    /// [`ArrivalProcess::check`] (negative, NaN or infinite), before any
    /// operation is drawn.
    pub fn build(&self, rng: &mut SimRng) -> Trace {
        // Check every phase before generating any: a rate of 0 is an idle
        // phase, any other must pass the open-loop arrival rule.
        let arrivals: Vec<Option<ArrivalProcess>> = self
            .phases
            .iter()
            .map(|phase| {
                if phase.ops_per_sec == 0.0 {
                    return None;
                }
                let arrival = ArrivalProcess::OpenLoopPoisson {
                    ops_per_sec: phase.ops_per_sec,
                };
                if let Err(e) = arrival.check() {
                    panic!("invalid trace phase {:?}: {e}", phase.name);
                }
                Some(arrival)
            })
            .collect();
        let mut trace = Trace::new();
        let mut now = SimTime::ZERO;
        for (phase, arrival) in self.phases.iter().zip(arrivals) {
            let end = now + phase.duration;
            // Each phase gets its own workload generator so record counts and
            // mixes can differ between phases.
            let mut wl = CoreWorkload::new(WorkloadConfig {
                // Effectively unlimited: phases are bounded by time, not count.
                operation_count: u64::MAX,
                ..phase.workload.clone()
            });
            let Some(arrival) = arrival else {
                now = end;
                continue;
            };
            loop {
                let at = now + arrival.next_interarrival(rng).expect("an open loop");
                if at >= end {
                    break;
                }
                now = at;
                let op = wl.next_op(rng);
                trace.push(TraceOp {
                    at,
                    op: op.op,
                    key: op.key,
                    value_size: op.value_size,
                });
            }
            now = end;
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn windows_partition_the_trace() {
        let mut trace = Trace::new();
        for i in 0..100u64 {
            trace.push(TraceOp {
                at: SimTime::from_millis(i * 100),
                op: OperationType::Read,
                key: i,
                value_size: 10,
            });
        }
        // 100 ops spread over 10 s, 1-second windows of 10 ops each.
        let windows = trace.windows(SimDuration::from_secs(1));
        assert_eq!(windows.len(), 10);
        assert!(windows.iter().all(|w| w.len() == 10));
        let total: usize = windows.iter().map(|w| w.len()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn windows_handle_gaps_and_empty() {
        assert!(Trace::new().windows(SimDuration::from_secs(1)).is_empty());
        let mut trace = Trace::new();
        trace.push(TraceOp {
            at: SimTime::from_secs(0),
            op: OperationType::Read,
            key: 1,
            value_size: 1,
        });
        trace.push(TraceOp {
            at: SimTime::from_secs(5),
            op: OperationType::Read,
            key: 2,
            value_size: 1,
        });
        let windows = trace.windows(SimDuration::from_secs(1));
        // Gap windows are empty but present.
        assert_eq!(windows.len(), 6);
        assert_eq!(windows.iter().filter(|w| !w.is_empty()).count(), 2);
    }

    #[test]
    fn json_round_trip() {
        let mut trace = Trace::new();
        trace.push(TraceOp {
            at: SimTime::from_secs(3),
            op: OperationType::Insert,
            key: 9,
            value_size: 55,
        });
        let json = trace.to_json();
        let back = Trace::from_json(&json).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn synthetic_phases_have_distinct_rates() {
        let quiet = presets::ycsb_b();
        let busy = presets::ycsb_a();
        let builder = SyntheticTraceBuilder::new()
            .add("browse", SimDuration::from_secs(60), 50.0, quiet)
            .add("flash-sale", SimDuration::from_secs(60), 500.0, busy);
        assert_eq!(builder.phases().len(), 2);
        let mut rng = SimRng::new(7);
        let trace = builder.build(&mut rng);
        let windows = trace.windows(SimDuration::from_secs(60));
        assert!(windows.len() >= 2);
        let first = windows[0].len() as f64 / 60.0;
        let second = windows[1].len() as f64 / 60.0;
        assert!((first - 50.0).abs() < 10.0, "phase-1 rate {first}");
        assert!((second - 500.0).abs() < 40.0, "phase-2 rate {second}");
        // The flash-sale phase is write-heavier than the browse phase.
        let writes =
            |w: &[TraceOp]| w.iter().filter(|o| o.op.is_write()).count() as f64 / w.len() as f64;
        assert!(writes(windows[1]) > writes(windows[0]));
    }

    #[test]
    #[should_panic(
        expected = "invalid trace phase \"refunds\": rate -5 ops/s is not finite and positive"
    )]
    fn a_negative_phase_rate_is_rejected() {
        SyntheticTraceBuilder::new()
            .add(
                "refunds",
                SimDuration::from_secs(1),
                -5.0,
                presets::ycsb_b(),
            )
            .build(&mut SimRng::new(1));
    }

    #[test]
    #[should_panic(expected = "invalid trace phase \"browse\": rate NaN ops/s")]
    fn a_nan_phase_rate_is_rejected() {
        SyntheticTraceBuilder::new()
            .add(
                "browse",
                SimDuration::from_secs(1),
                f64::NAN,
                presets::ycsb_b(),
            )
            .build(&mut SimRng::new(1));
    }

    #[test]
    #[should_panic(expected = "invalid trace phase \"flash-sale\": rate inf ops/s")]
    fn an_infinite_phase_rate_is_rejected() {
        // The bad phase comes second: no phase is generated before the check.
        SyntheticTraceBuilder::new()
            .add(
                "browse",
                SimDuration::from_secs(1),
                100.0,
                presets::ycsb_b(),
            )
            .add(
                "flash-sale",
                SimDuration::from_secs(1),
                f64::INFINITY,
                presets::ycsb_a(),
            )
            .build(&mut SimRng::new(1));
    }

    #[test]
    fn zero_rate_phase_produces_no_ops() {
        let builder = SyntheticTraceBuilder::new().add(
            "idle",
            SimDuration::from_secs(10),
            0.0,
            presets::ycsb_c(),
        );
        let mut rng = SimRng::new(1);
        assert!(builder.build(&mut rng).is_empty());
    }
}
