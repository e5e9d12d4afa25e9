//! Power / energy model for consistency levels.
//!
//! The paper's future-work section (§V) announces *"an in-depth study that
//! analyzes power consumption and resources usage … of the whole storage
//! system considering different consistency levels"* with the goal of
//! building a power-efficient consistency approach. This module implements
//! the measurement side of that plan for the simulated cluster: a simple but
//! standard linear server-power model
//!
//! ```text
//! P(node) = P_idle + (P_peak − P_idle) · utilization
//! energy  = Σ_nodes P(node) · runtime · PUE
//! ```
//!
//! where the utilization of the storage fleet is derived from the metered
//! storage I/O work. Stronger consistency levels perform more replica work
//! per operation *and* keep the fleet powered for longer (lower throughput in
//! a closed loop), so their energy per operation is higher — the shape the
//! future-work study sets out to quantify.

use crate::bill::ResourceUsage;
use serde::{Deserialize, Serialize};

/// A linear server power model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Power draw of an idle node, in watts.
    pub idle_watts: f64,
    /// Power draw of a fully busy node, in watts.
    pub peak_watts: f64,
    /// Power usage effectiveness of the datacenter (≥ 1.0); multiplies the IT
    /// power to account for cooling and distribution.
    pub pue: f64,
}

impl PowerModel {
    /// A typical 2013-era commodity server: ~95 W idle, ~210 W at peak, in a
    /// datacenter with a PUE of 1.6.
    pub fn commodity_2013() -> Self {
        PowerModel {
            idle_watts: 95.0,
            peak_watts: 210.0,
            pue: 1.6,
        }
    }

    /// Validate the model's physical constraints.
    pub fn validate(&self) -> Result<(), String> {
        if self.idle_watts < 0.0 || self.peak_watts < self.idle_watts {
            return Err("peak power must be at least idle power (both non-negative)".into());
        }
        if self.pue < 1.0 {
            return Err("PUE cannot be below 1.0".into());
        }
        Ok(())
    }

    /// Power drawn by one node at the given utilization (clamped to [0, 1]).
    pub fn node_watts(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        self.idle_watts + (self.peak_watts - self.idle_watts) * u
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::commodity_2013()
    }
}

/// The energy accounting of one run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Mean fleet utilization used for the computation (0..=1).
    pub utilization: f64,
    /// IT energy (servers only), in watt-hours.
    pub it_energy_wh: f64,
    /// Total facility energy including PUE, in watt-hours.
    pub total_energy_wh: f64,
}

impl EnergyReport {
    /// Energy per completed operation, in joules (`None` if `ops` is zero).
    pub fn joules_per_op(&self, ops: u64) -> Option<f64> {
        if ops == 0 {
            None
        } else {
            Some(self.total_energy_wh * 3_600.0 / ops as f64)
        }
    }
}

/// Estimate the mean fleet utilization of a run from its metered storage I/O:
/// every storage operation occupies one node for `mean_service_ms`, and the
/// fleet provides `vm_count × runtime` of node-time in total.
pub fn estimate_utilization(usage: &ResourceUsage, mean_service_ms: f64) -> f64 {
    let node_time_ms = usage.vm_count as f64 * usage.runtime.as_millis_f64();
    if node_time_ms <= 0.0 {
        return 0.0;
    }
    (usage.storage_io_ops as f64 * mean_service_ms.max(0.0) / node_time_ms).clamp(0.0, 1.0)
}

/// Compute the energy consumed by a run.
pub fn energy_of_run(power: &PowerModel, usage: &ResourceUsage, utilization: f64) -> EnergyReport {
    power
        .validate()
        .unwrap_or_else(|e| panic!("invalid power model: {e}"));
    let hours = usage.runtime.as_secs_f64() / 3_600.0;
    let it_watts = usage.vm_count as f64 * power.node_watts(utilization);
    let it_energy_wh = it_watts * hours;
    EnergyReport {
        utilization: utilization.clamp(0.0, 1.0),
        it_energy_wh,
        total_energy_wh: it_energy_wh * power.pue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_cluster::TrafficBytes;
    use concord_sim::SimDuration;

    fn usage(vms: u32, secs: u64, io_ops: u64) -> ResourceUsage {
        ResourceUsage {
            vm_count: vms,
            runtime: SimDuration::from_secs(secs),
            stored_bytes: 1_000_000,
            storage_io_ops: io_ops,
            traffic: TrafficBytes::default(),
        }
    }

    #[test]
    fn idle_fleet_still_draws_idle_power() {
        let report = energy_of_run(&PowerModel::commodity_2013(), &usage(10, 3_600, 0), 0.0);
        // 10 nodes × 95 W × 1 h × PUE 1.6.
        assert!((report.it_energy_wh - 950.0).abs() < 1e-9);
        assert!((report.total_energy_wh - 950.0 * 1.6).abs() < 1e-9);
    }

    #[test]
    fn busier_runs_draw_more_power() {
        let model = PowerModel::commodity_2013();
        let quiet = energy_of_run(&model, &usage(10, 3_600, 0), 0.1);
        let busy = energy_of_run(&model, &usage(10, 3_600, 0), 0.9);
        assert!(busy.total_energy_wh > quiet.total_energy_wh);
        assert!((model.node_watts(1.0) - 210.0).abs() < 1e-9);
        assert!((model.node_watts(2.0) - 210.0).abs() < 1e-9, "clamped");
    }

    #[test]
    fn longer_runs_cost_more_energy_at_equal_utilization() {
        // This is exactly why strong consistency (longer makespan for the
        // same workload in a closed loop) costs more energy.
        let model = PowerModel::commodity_2013();
        let fast = energy_of_run(&model, &usage(10, 600, 0), 0.5);
        let slow = energy_of_run(&model, &usage(10, 6_000, 0), 0.5);
        assert!(slow.total_energy_wh > fast.total_energy_wh * 9.0);
    }

    #[test]
    fn utilization_estimate_reflects_io_work() {
        // 10 nodes × 100 s = 1 000 000 ms of node time; 500 000 ops × 1 ms
        // of service each = 50% utilization.
        let u = estimate_utilization(&usage(10, 100, 500_000), 1.0);
        assert!((u - 0.5).abs() < 1e-9);
        // More replica work (stronger levels) → higher utilization.
        let stronger = estimate_utilization(&usage(10, 100, 900_000), 1.0);
        assert!(stronger > u);
        // Degenerate inputs are clamped.
        assert_eq!(estimate_utilization(&usage(0, 0, 100), 1.0), 0.0);
        assert_eq!(estimate_utilization(&usage(1, 1, u64::MAX), 10.0), 1.0);
    }

    #[test]
    fn joules_per_op() {
        let report = energy_of_run(&PowerModel::commodity_2013(), &usage(10, 3_600, 0), 0.0);
        let j = report.joules_per_op(1_000_000).unwrap();
        assert!((j - report.total_energy_wh * 3_600.0 / 1e6).abs() < 1e-9);
        assert!(report.joules_per_op(0).is_none());
    }

    #[test]
    fn invalid_models_are_rejected() {
        let bad = PowerModel {
            idle_watts: 200.0,
            peak_watts: 100.0,
            pue: 1.5,
        };
        assert!(bad.validate().is_err());
        let bad_pue = PowerModel {
            pue: 0.5,
            ..PowerModel::commodity_2013()
        };
        assert!(bad_pue.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid power model")]
    fn energy_of_run_panics_on_invalid_model() {
        let bad = PowerModel {
            idle_watts: -1.0,
            peak_watts: 10.0,
            pue: 1.2,
        };
        energy_of_run(&bad, &usage(1, 1, 0), 0.5);
    }
}
