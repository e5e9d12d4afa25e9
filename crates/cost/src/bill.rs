//! Bill computation: resource usage × pricing → the three-part bill
//! decomposition of the paper (VM instances, storage, network).

use crate::pricing::PricingModel;
use concord_cluster::{Cluster, TrafficBytes};
use concord_sim::SimDuration;
use serde::{Deserialize, Serialize};

const BYTES_PER_GB: f64 = 1_000_000_000.0;
const HOURS_PER_MONTH: f64 = 730.0;

/// The resources a run consumed, as metered by the cluster simulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceUsage {
    /// Number of VM instances (storage nodes) kept running.
    pub vm_count: u32,
    /// Wall-clock duration the service ran for.
    pub runtime: SimDuration,
    /// Total bytes stored across all replicas (payload).
    pub stored_bytes: u64,
    /// Replica-level storage I/O operations (reads + writes).
    pub storage_io_ops: u64,
    /// Network traffic per link class.
    pub traffic: TrafficBytes,
}

impl ResourceUsage {
    /// Extract the usage of a finished cluster run.
    ///
    /// `runtime` is the makespan of the run (the simulated duration the VMs
    /// were provisioned for).
    pub fn from_cluster(cluster: &Cluster, runtime: SimDuration) -> Self {
        let metrics = cluster.metrics();
        ResourceUsage {
            vm_count: cluster.config().topology.node_count() as u32,
            runtime,
            stored_bytes: cluster.total_bytes_stored(),
            storage_io_ops: metrics.storage_read_ops + metrics.storage_write_ops,
            traffic: metrics.traffic,
        }
    }

    /// Instance-hours consumed (VMs are billed per started hour on 2013 EC2;
    /// we bill fractional hours to keep scaled-down runs comparable).
    pub fn instance_hours(&self) -> f64 {
        self.vm_count as f64 * self.runtime.as_secs_f64() / 3_600.0
    }
}

/// The three-part bill of the paper, in USD.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Bill {
    /// Cost of the VM instances for the duration of the run.
    pub instances_usd: f64,
    /// Cost of provisioned storage plus storage I/O requests.
    pub storage_usd: f64,
    /// Cost of network transfer (inter-DC and inter-region).
    pub network_usd: f64,
}

impl Bill {
    /// Compute the bill of `usage` under `pricing`.
    pub fn compute(pricing: &PricingModel, usage: &ResourceUsage) -> Self {
        let instances_usd = usage.instance_hours() * pricing.instance_hour_usd;

        // Storage: GB-month prorated to the runtime + I/O request charges.
        let gb = usage.stored_bytes as f64 / BYTES_PER_GB;
        let months = usage.runtime.as_secs_f64() / 3_600.0 / HOURS_PER_MONTH;
        let storage_capacity = gb * months * pricing.storage_gb_month_usd;
        let storage_io = usage.storage_io_ops as f64 / 1_000_000.0 * pricing.storage_io_million_usd;
        let storage_usd = storage_capacity + storage_io;

        // Network: intra-DC is usually free, cross-DC and cross-region billed.
        let network_usd = usage.traffic.intra_dc as f64 / BYTES_PER_GB
            * pricing.transfer_intra_dc_gb_usd
            + usage.traffic.inter_dc as f64 / BYTES_PER_GB * pricing.transfer_inter_dc_gb_usd
            + usage.traffic.inter_region as f64 / BYTES_PER_GB
                * pricing.transfer_inter_region_gb_usd;

        Bill {
            instances_usd,
            storage_usd,
            network_usd,
        }
    }

    /// Total bill.
    pub fn total(&self) -> f64 {
        self.instances_usd + self.storage_usd + self.network_usd
    }

    /// Fraction of the total contributed by each component
    /// `(instances, storage, network)`; all zeros for an empty bill.
    pub fn shares(&self) -> (f64, f64, f64) {
        let total = self.total();
        if total <= 0.0 {
            (0.0, 0.0, 0.0)
        } else {
            (
                self.instances_usd / total,
                self.storage_usd / total,
                self.network_usd / total,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_sim::LinkClass;

    fn usage() -> ResourceUsage {
        let mut traffic = TrafficBytes::default();
        traffic.add(LinkClass::IntraDc, 50_000_000_000); // 50 GB free
        traffic.add(LinkClass::InterDc, 10_000_000_000); // 10 GB @ $0.01
        traffic.add(LinkClass::InterRegion, 1_000_000_000); // 1 GB @ $0.02
        ResourceUsage {
            vm_count: 18,
            runtime: SimDuration::from_secs(3_600),
            stored_bytes: 120_000_000_000, // 120 GB (24 GB × RF 5)
            storage_io_ops: 30_000_000,
            traffic,
        }
    }

    #[test]
    fn instance_cost_is_vm_hours_times_rate() {
        let bill = Bill::compute(&PricingModel::ec2_2013(), &usage());
        // 18 VMs × 1 h × $0.26.
        assert!((bill.instances_usd - 18.0 * 0.26).abs() < 1e-9);
    }

    #[test]
    fn network_cost_only_counts_cross_dc_traffic() {
        let bill = Bill::compute(&PricingModel::ec2_2013(), &usage());
        let expected = 10.0 * 0.01 + 1.0 * 0.02;
        assert!((bill.network_usd - expected).abs() < 1e-9);
    }

    #[test]
    fn storage_cost_combines_capacity_and_io() {
        let bill = Bill::compute(&PricingModel::ec2_2013(), &usage());
        let capacity = 120.0 * (1.0 / 730.0) * 0.10;
        let io = 30.0 * 0.10;
        assert!((bill.storage_usd - (capacity + io)).abs() < 1e-9);
    }

    #[test]
    fn total_and_shares_are_consistent() {
        let bill = Bill::compute(&PricingModel::ec2_2013(), &usage());
        let (i, s, n) = bill.shares();
        assert!((i + s + n - 1.0).abs() < 1e-9);
        assert!(bill.total() > 0.0);
        assert!(i > n, "instances dominate the bill for this usage");
        assert_eq!(Bill::default().shares(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn longer_runtime_costs_more() {
        let mut long = usage();
        long.runtime = SimDuration::from_secs(7_200);
        let short_bill = Bill::compute(&PricingModel::ec2_2013(), &usage());
        let long_bill = Bill::compute(&PricingModel::ec2_2013(), &long);
        assert!(long_bill.instances_usd > short_bill.instances_usd);
        assert!(long_bill.total() > short_bill.total());
    }

    #[test]
    fn usage_from_cluster_reads_meters() {
        use concord_cluster::{ClusterConfig, ConsistencyLevel};
        use concord_sim::SimTime;
        let mut cluster = concord_cluster::Cluster::new(ClusterConfig::lan_test(4, 3), 1);
        cluster.load_records((0..10u64).map(|k| (k, 1_000)));
        for i in 0..20u64 {
            cluster.submit_write_with(
                i % 10,
                1_000,
                ConsistencyLevel::All,
                SimTime::from_millis(i),
            );
        }
        cluster.run_to_completion(1_000_000);
        let usage = ResourceUsage::from_cluster(&cluster, SimDuration::from_secs(60));
        assert_eq!(usage.vm_count, 4);
        assert!(usage.stored_bytes >= 10 * 1_000 * 3);
        assert_eq!(
            usage.storage_io_ops,
            20 * 3,
            "one storage write per replica"
        );
        assert!((usage.instance_hours() - 4.0 / 60.0).abs() < 1e-9);
        let bill = Bill::compute(&PricingModel::ec2_2013(), &usage);
        assert!(bill.total() > 0.0);
    }
}
