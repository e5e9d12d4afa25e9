//! The access monitor: Harmony's "monitoring module".
//!
//! The paper (§III-A) describes a monitoring module that *"collects relevant
//! metrics about data access in the storage system: read rates and write
//! rates, as well as network latencies"*, and feeds them to the adaptive
//! consistency module. [`AccessMonitor`] is that component: the cluster (or
//! any client layer) reports every completed read and write (a write with
//! its acknowledgement latency, the paper's `T`) and every measured
//! replica-propagation delay; the adaptive controllers consume periodic
//! [`MonitorSnapshot`]s, which carry exactly the model's inputs.

use crate::ewma::Ewma;
use crate::window::SlidingWindowRate;
use concord_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Configuration of the access monitor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// Length of the sliding window used for read/write rate estimation.
    pub rate_window: SimDuration,
    /// EWMA smoothing factor for propagation-delay measurements.
    pub propagation_alpha: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            rate_window: SimDuration::from_secs(10),
            propagation_alpha: 0.2,
        }
    }
}

/// A point-in-time view of everything the monitor knows, consumed by the
/// adaptive consistency policies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonitorSnapshot {
    /// When the snapshot was taken.
    pub at: SimTime,
    /// Observed read arrival rate λr (reads / second) over the window.
    pub read_rate: f64,
    /// Observed write arrival rate λw (writes / second) over the window.
    pub write_rate: f64,
    /// Smoothed time to fully propagate a write to all replicas, in ms
    /// (the paper's `Tp`).
    pub propagation_time_ms: f64,
    /// Smoothed time to apply a write on the first replica, in ms
    /// (the paper's `T`).
    pub first_write_time_ms: f64,
    /// Total reads observed since the monitor started.
    pub total_reads: u64,
    /// Total writes observed since the monitor started.
    pub total_writes: u64,
}

/// Collects data-access metrics from the running storage system.
#[derive(Debug, Clone)]
pub struct AccessMonitor {
    config: MonitorConfig,
    reads: SlidingWindowRate,
    writes: SlidingWindowRate,
    propagation: Ewma,
    first_write: Ewma,
}

impl Default for AccessMonitor {
    fn default() -> Self {
        Self::new(MonitorConfig::default())
    }
}

impl AccessMonitor {
    /// Create a monitor with the given configuration.
    pub fn new(config: MonitorConfig) -> Self {
        AccessMonitor {
            config,
            reads: SlidingWindowRate::new(config.rate_window),
            writes: SlidingWindowRate::new(config.rate_window),
            propagation: Ewma::new(config.propagation_alpha),
            first_write: Ewma::new(config.propagation_alpha),
        }
    }

    /// The monitor's configuration.
    pub fn config(&self) -> MonitorConfig {
        self.config
    }

    /// Record a read that completed at `at`: one arrival towards λr. No
    /// statistic reads the latency (the run's percentiles live in the
    /// cluster's metrics); the argument keeps the shape of
    /// [`record_write`](Self::record_write).
    pub fn record_read(&mut self, at: SimTime, _latency: SimDuration) {
        self.reads.record(at);
    }

    /// Record a write issued at `at` that was acknowledged after `latency`
    /// (time to satisfy the write consistency level — the paper's `T`).
    pub fn record_write(&mut self, at: SimTime, latency: SimDuration) {
        self.writes.record(at);
        self.first_write.observe(latency.as_millis_f64());
    }

    /// Record the measured time for a write to reach *all* replicas
    /// (the paper's total propagation time `Tp`).
    pub fn record_propagation(&mut self, total_propagation: SimDuration) {
        self.propagation.observe(total_propagation.as_millis_f64());
    }

    /// Number of reads observed so far.
    pub fn total_reads(&self) -> u64 {
        self.reads.total()
    }

    /// Number of writes observed so far.
    pub fn total_writes(&self) -> u64 {
        self.writes.total()
    }

    /// Produce a snapshot of the current state, evaluated at time `now`.
    pub fn snapshot(&mut self, now: SimTime) -> MonitorSnapshot {
        MonitorSnapshot {
            at: now,
            read_rate: self.reads.rate_at(now),
            write_rate: self.writes.rate_at(now),
            propagation_time_ms: self.propagation.value_or(0.0),
            first_write_time_ms: self.first_write.value_or(0.0),
            total_reads: self.reads.total(),
            total_writes: self.writes.total(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_steady_traffic(
        m: &mut AccessMonitor,
        seconds: u64,
        reads_per_s: u64,
        writes_per_s: u64,
    ) {
        for s in 0..seconds {
            for i in 0..reads_per_s {
                let at = SimTime::from_micros(s * 1_000_000 + i * (1_000_000 / reads_per_s));
                m.record_read(at, SimDuration::from_millis(2));
            }
            for i in 0..writes_per_s {
                let at = SimTime::from_micros(s * 1_000_000 + i * (1_000_000 / writes_per_s));
                m.record_write(at, SimDuration::from_millis(4));
            }
        }
    }

    #[test]
    fn rates_reflect_traffic() {
        let mut m = AccessMonitor::default();
        feed_steady_traffic(&mut m, 30, 100, 20);
        let snap = m.snapshot(SimTime::from_secs(30));
        assert!(
            (snap.read_rate - 100.0).abs() < 10.0,
            "read rate {}",
            snap.read_rate
        );
        assert!(
            (snap.write_rate - 20.0).abs() < 3.0,
            "write rate {}",
            snap.write_rate
        );
        assert_eq!(snap.total_reads, 3000);
        assert_eq!(snap.total_writes, 600);
    }

    #[test]
    fn propagation_time_is_smoothed() {
        let mut m = AccessMonitor::default();
        for _ in 0..100 {
            m.record_propagation(SimDuration::from_millis(50));
        }
        m.record_propagation(SimDuration::from_millis(500)); // outlier
        let snap = m.snapshot(SimTime::from_secs(1));
        assert!(snap.propagation_time_ms > 49.0);
        assert!(snap.propagation_time_ms < 200.0, "outlier must be damped");
    }

    #[test]
    fn empty_monitor_snapshot_is_zeroed() {
        let mut m = AccessMonitor::default();
        let snap = m.snapshot(SimTime::from_secs(5));
        assert_eq!(snap.read_rate, 0.0);
        assert_eq!(snap.write_rate, 0.0);
        assert_eq!(snap.propagation_time_ms, 0.0);
    }

    #[test]
    fn rates_decay_after_traffic_stops() {
        let mut m = AccessMonitor::default();
        feed_steady_traffic(&mut m, 10, 50, 50);
        let busy = m.snapshot(SimTime::from_secs(10));
        let idle = m.snapshot(SimTime::from_secs(60));
        assert!(busy.read_rate > 20.0);
        assert_eq!(idle.read_rate, 0.0);
        assert_eq!(idle.total_reads, busy.total_reads, "totals persist");
    }

    #[test]
    fn snapshot_serializes() {
        let mut m = AccessMonitor::default();
        m.record_read(SimTime::from_secs(1), SimDuration::from_millis(1));
        let snap = m.snapshot(SimTime::from_secs(2));
        let json = serde_json::to_string(&snap).unwrap();
        let back: MonitorSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }
}
