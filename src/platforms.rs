//! Platform presets: the deployments used in the paper's evaluation (§IV),
//! expressed as simulated cluster configurations.
//!
//! | Preset | Paper setup |
//! |---|---|
//! | [`ec2_harmony`] | Harmony evaluation on Amazon EC2: 20 VMs, one region |
//! | [`grid5000_harmony`] | Harmony evaluation on Grid'5000: 84 nodes over two clusters |
//! | [`ec2_cost`] | Cost evaluation on EC2: 18 VMs over two availability zones of us-east-1, RF 5 |
//! | [`grid5000_cost`] | Cost evaluation on Grid'5000: 50 nodes over two sites (east / south of France), RF 5 |
//!
//! Every preset accepts a `scale` in `(0, 1]`: 1.0 reproduces the paper's
//! node counts; smaller values shrink the cluster proportionally so the
//! experiment fits in seconds on a laptop while preserving the topology
//! (two datacenters stay two datacenters) and the replication factor.

use concord_cluster::{
    ClusterConfig, ConsistencyLevel, Partitioner, RepairConfig, ReplicaSelection,
    ReplicationStrategy, ResilienceConfig,
};
use concord_cost::PricingModel;
use concord_sim::{DelayDistribution, NetworkModel, RegionId, SimDuration, Topology};

/// A named platform preset: a cluster configuration plus the pricing model
/// that applies to it.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Human-readable name used in reports.
    pub name: String,
    /// The simulated cluster configuration.
    pub cluster: ClusterConfig,
    /// The pricing model used to bill runs on this platform.
    pub pricing: PricingModel,
}

fn scaled_nodes(paper_nodes: usize, scale: f64, min_nodes: usize) -> usize {
    ((paper_nodes as f64 * scale.clamp(0.01, 1.0)).round() as usize).max(min_nodes)
}

fn base_config(topology: Topology, network: NetworkModel, rf: u32) -> ClusterConfig {
    ClusterConfig {
        topology,
        network,
        replication_factor: rf,
        strategy: ReplicationStrategy::NetworkTopology,
        partitioner: Partitioner::Hash,
        vnodes: 16,
        read_level: ConsistencyLevel::One,
        write_level: ConsistencyLevel::One,
        storage_read_latency: DelayDistribution::LogNormal {
            median_ms: 0.35,
            sigma: 0.4,
        },
        storage_write_latency: DelayDistribution::LogNormal {
            median_ms: 0.25,
            sigma: 0.4,
        },
        op_timeout: SimDuration::from_secs(10),
        read_repair: false,
        retry_on_timeout: 0,
        repair: RepairConfig::off(),
        resilience: ResilienceConfig::off(),
        read_selection: ReplicaSelection::Closest,
        shards: 1,
    }
}

/// Harmony's EC2 deployment (§IV-A): 20 VMs in one region, replication
/// factor 3, multi-AZ placement.
pub fn ec2_harmony(scale: f64) -> Platform {
    let nodes = scaled_nodes(20, scale, 6);
    let topology = Topology::spread(
        nodes,
        &[("us-east-1a", RegionId(0)), ("us-east-1b", RegionId(0))],
    );
    Platform {
        name: format!("ec2-harmony({nodes} VMs)"),
        cluster: base_config(topology, NetworkModel::ec2_like(), 3),
        pricing: PricingModel::ec2_2013(),
    }
}

/// Harmony's Grid'5000 deployment (§IV-A): 84 nodes over two clusters,
/// replication factor 3.
pub fn grid5000_harmony(scale: f64) -> Platform {
    let nodes = scaled_nodes(84, scale, 6);
    let topology = Topology::spread(nodes, &[("rennes", RegionId(0)), ("sophia", RegionId(0))]);
    Platform {
        name: format!("grid5000-harmony({nodes} nodes)"),
        cluster: base_config(topology, NetworkModel::grid5000_like(), 3),
        pricing: PricingModel::grid5000_accounting(),
    }
}

/// The cost-evaluation EC2 deployment (§IV-B): 18 VMs over two availability
/// zones of us-east-1, replication factor 5.
pub fn ec2_cost(scale: f64) -> Platform {
    let nodes = scaled_nodes(18, scale, 6);
    let topology = Topology::spread(
        nodes,
        &[("us-east-1a", RegionId(0)), ("us-east-1b", RegionId(0))],
    );
    Platform {
        name: format!("ec2-cost({nodes} VMs, 2 AZ, RF5)"),
        cluster: base_config(topology, NetworkModel::ec2_like(), 5),
        pricing: PricingModel::ec2_2013(),
    }
}

/// The cost-evaluation Grid'5000 deployment (§IV-B): 50 nodes over two sites
/// in the east and south of France, replication factor 5.
pub fn grid5000_cost(scale: f64) -> Platform {
    let nodes = scaled_nodes(50, scale, 6);
    let topology = Topology::spread(nodes, &[("nancy", RegionId(0)), ("sophia", RegionId(0))]);
    Platform {
        name: format!("grid5000-cost({nodes} nodes, 2 sites, RF5)"),
        cluster: base_config(topology, NetworkModel::grid5000_like(), 5),
        pricing: PricingModel::grid5000_accounting(),
    }
}

/// A tiny LAN platform for unit tests and the quickstart example.
pub fn laptop() -> Platform {
    Platform {
        name: "laptop(5 nodes)".to_string(),
        cluster: ClusterConfig::lan_test(5, 3),
        pricing: PricingModel::ec2_2013(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_the_paper_node_counts() {
        assert_eq!(ec2_harmony(1.0).cluster.topology.node_count(), 20);
        assert_eq!(grid5000_harmony(1.0).cluster.topology.node_count(), 84);
        assert_eq!(ec2_cost(1.0).cluster.topology.node_count(), 18);
        assert_eq!(grid5000_cost(1.0).cluster.topology.node_count(), 50);
        assert_eq!(ec2_cost(1.0).cluster.replication_factor, 5);
        assert_eq!(grid5000_cost(1.0).cluster.replication_factor, 5);
    }

    #[test]
    fn every_preset_is_valid_at_every_scale() {
        for scale in [1.0, 0.5, 0.25, 0.1, 0.01] {
            for platform in [
                ec2_harmony(scale),
                grid5000_harmony(scale),
                ec2_cost(scale),
                grid5000_cost(scale),
            ] {
                platform
                    .cluster
                    .validate()
                    .unwrap_or_else(|e| panic!("{} at scale {scale}: {e}", platform.name));
                assert_eq!(platform.cluster.dc_count(), 2, "{}", platform.name);
                assert!(platform.pricing.validate().is_ok());
            }
        }
        assert!(laptop().cluster.validate().is_ok());
    }

    #[test]
    fn scaling_preserves_topology_shape() {
        let small = ec2_cost(0.35);
        assert!(small.cluster.topology.node_count() >= 6);
        assert!(small.cluster.topology.node_count() < 18);
        assert_eq!(small.cluster.dc_count(), 2);
        assert_eq!(small.cluster.replication_factor, 5);
    }
}
