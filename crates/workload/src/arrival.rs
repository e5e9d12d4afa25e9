//! Client arrival processes.
//!
//! The paper's YCSB runs use a closed loop (a fixed number of client threads,
//! each issuing the next operation as soon as the previous one completes) —
//! that is what drives throughput differences between consistency levels.
//! An open-loop Poisson process is also provided for experiments that need a
//! fixed offered load (e.g. sweeping the write rate for the staleness model).

use concord_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// How client operations arrive at the storage cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// `clients` independent clients, each issuing its next operation
    /// `think_time` after the previous one completed (think time may be 0).
    ClosedLoop {
        /// Number of concurrent clients (YCSB threads).
        clients: u32,
        /// Per-client pause between completion and the next request, in µs.
        think_time_us: u64,
    },
    /// Operations arrive following a Poisson process with the given mean
    /// rate, regardless of completions (open loop).
    OpenLoopPoisson {
        /// Mean arrival rate in operations per second.
        ops_per_sec: f64,
    },
    /// Operations arrive at an exactly regular interval (deterministic open
    /// loop), useful for reproducible micro-tests.
    OpenLoopUniform {
        /// Arrival rate in operations per second.
        ops_per_sec: f64,
    },
}

impl ArrivalProcess {
    /// Whether this process can drive a run: an open loop's rate must be
    /// finite and positive (a negative or NaN one puts every arrival at the
    /// start instant, a zero one never arrives), and a closed loop needs at
    /// least one client. The error says which rule it breaks.
    pub fn check(&self) -> Result<(), String> {
        match *self {
            ArrivalProcess::ClosedLoop { clients: 0, .. } => {
                Err("a closed loop needs at least one client".into())
            }
            ArrivalProcess::ClosedLoop { .. } => Ok(()),
            ArrivalProcess::OpenLoopPoisson { ops_per_sec }
            | ArrivalProcess::OpenLoopUniform { ops_per_sec } => {
                if ops_per_sec.is_finite() && ops_per_sec > 0.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "rate {ops_per_sec} ops/s is not finite and positive"
                    ))
                }
            }
        }
    }

    /// A closed loop with zero think time — the YCSB default.
    pub fn closed(clients: u32) -> Self {
        ArrivalProcess::ClosedLoop {
            clients,
            think_time_us: 0,
        }
    }

    /// Number of concurrent clients the process keeps in flight
    /// (`None` for open-loop processes, which are unbounded).
    pub fn concurrency(&self) -> Option<u32> {
        match self {
            ArrivalProcess::ClosedLoop { clients, .. } => Some(*clients),
            _ => None,
        }
    }

    /// For closed loops: the think time before a client re-issues.
    pub fn think_time(&self) -> SimDuration {
        match self {
            ArrivalProcess::ClosedLoop { think_time_us, .. } => {
                SimDuration::from_micros(*think_time_us)
            }
            _ => SimDuration::ZERO,
        }
    }

    /// For open loops: draw the gap until the next arrival.
    /// Returns `None` for closed loops (arrivals are completion-driven).
    pub fn next_interarrival(&self, rng: &mut SimRng) -> Option<SimDuration> {
        match self {
            ArrivalProcess::ClosedLoop { .. } => None,
            ArrivalProcess::OpenLoopPoisson { ops_per_sec } => {
                let gap_s = rng.exponential(*ops_per_sec);
                Some(SimDuration::from_secs_f64(gap_s))
            }
            ArrivalProcess::OpenLoopUniform { ops_per_sec } => {
                Some(SimDuration::from_secs_f64(1.0 / ops_per_sec))
            }
        }
    }

    /// Advance `at` by one drawn inter-arrival gap and return the new
    /// arrival time. This is the accumulation step behind the sorted
    /// open-loop schedule (`CoreWorkload::timed_ops`): gaps are
    /// non-negative, so the returned times are non-decreasing by
    /// construction.
    ///
    /// # Panics
    /// Panics for closed-loop processes (their arrivals are
    /// completion-driven).
    pub fn next_arrival(&self, at: &mut SimTime, rng: &mut SimRng) -> SimTime {
        let gap = self
            .next_interarrival(rng)
            .expect("closed-loop arrivals are completion-driven; an open-loop process is required");
        *at += gap;
        *at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_reports_concurrency_and_think_time() {
        let a = ArrivalProcess::closed(32);
        assert_eq!(a.concurrency(), Some(32));
        assert_eq!(a.think_time(), SimDuration::ZERO);
        let mut rng = SimRng::new(1);
        assert!(a.next_interarrival(&mut rng).is_none());

        let b = ArrivalProcess::ClosedLoop {
            clients: 4,
            think_time_us: 500,
        };
        assert_eq!(b.think_time(), SimDuration::from_micros(500));
    }

    #[test]
    fn poisson_interarrivals_match_rate() {
        let a = ArrivalProcess::OpenLoopPoisson { ops_per_sec: 200.0 };
        let mut rng = SimRng::new(2);
        let n = 100_000;
        let total: f64 = (0..n)
            .map(|_| a.next_interarrival(&mut rng).unwrap().as_secs_f64())
            .sum();
        let mean = total / n as f64;
        assert!((mean - 1.0 / 200.0).abs() < 2e-4, "mean gap={mean}");
        assert_eq!(a.concurrency(), None);
    }

    #[test]
    fn uniform_open_loop_is_regular() {
        let a = ArrivalProcess::OpenLoopUniform { ops_per_sec: 100.0 };
        let mut rng = SimRng::new(3);
        for _ in 0..100 {
            assert_eq!(
                a.next_interarrival(&mut rng).unwrap(),
                SimDuration::from_millis(10)
            );
        }
    }

    #[test]
    fn serde_round_trip() {
        let a = ArrivalProcess::OpenLoopPoisson { ops_per_sec: 42.0 };
        let json = serde_json::to_string(&a).unwrap();
        assert_eq!(a, serde_json::from_str(&json).unwrap());
    }
}
