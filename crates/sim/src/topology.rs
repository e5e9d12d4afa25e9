//! Cluster topology and network latency model.
//!
//! A [`Topology`] places simulated nodes into datacenters (availability
//! zones / Grid'5000 sites) and regions, and a [`NetworkModel`] maps each
//! pair of nodes to a latency distribution according to the *link class*
//! connecting them (same node, same datacenter, different datacenters of the
//! same region, or different regions).

use crate::distributions::DelayDistribution;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a simulated storage node.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Identifier of a datacenter (an EC2 availability zone or a Grid'5000 site).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DcId(pub u16);

impl fmt::Display for DcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dc{}", self.0)
    }
}

/// Identifier of a geographical region (e.g. `us-east-1`, or "France").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RegionId(pub u16);

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region{}", self.0)
    }
}

/// Description of one datacenter in the topology.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Datacenter {
    /// The datacenter's id.
    pub id: DcId,
    /// Human-readable name (e.g. `us-east-1a`, `rennes`).
    pub name: String,
    /// The region this datacenter belongs to.
    pub region: RegionId,
}

/// Classification of the network path between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkClass {
    /// Same node (loopback).
    Local,
    /// Different nodes in the same datacenter.
    IntraDc,
    /// Different datacenters within the same region (e.g. two availability
    /// zones of `us-east-1`, or two Grid'5000 sites connected by Renater).
    InterDc,
    /// Different regions (true wide-area path).
    InterRegion,
}

impl fmt::Display for LinkClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LinkClass::Local => "local",
            LinkClass::IntraDc => "intra-dc",
            LinkClass::InterDc => "inter-dc",
            LinkClass::InterRegion => "inter-region",
        };
        f.write_str(s)
    }
}

/// Placement of every node into a datacenter/region.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    datacenters: Vec<Datacenter>,
    /// `node_dc[i]` is the datacenter of node `i`.
    node_dc: Vec<DcId>,
}

impl Topology {
    /// Build a topology from datacenter descriptions and a per-node placement.
    ///
    /// # Panics
    /// Panics if a node references an unknown datacenter.
    pub fn new(datacenters: Vec<Datacenter>, node_dc: Vec<DcId>) -> Self {
        for dc in &node_dc {
            assert!(
                datacenters.iter().any(|d| d.id == *dc),
                "node placed in unknown datacenter {dc}"
            );
        }
        Topology {
            datacenters,
            node_dc,
        }
    }

    /// A single-datacenter topology with `nodes` nodes — the simplest setup.
    pub fn single_dc(nodes: usize) -> Self {
        let dc = Datacenter {
            id: DcId(0),
            name: "dc0".to_string(),
            region: RegionId(0),
        };
        Topology::new(vec![dc], vec![DcId(0); nodes])
    }

    /// A topology that spreads `nodes` nodes round-robin over `dc_names`
    /// datacenters, all placed in the given per-datacenter regions.
    ///
    /// `dcs` is a list of `(name, region)` pairs.
    pub fn spread(nodes: usize, dcs: &[(&str, RegionId)]) -> Self {
        assert!(!dcs.is_empty());
        let datacenters: Vec<Datacenter> = dcs
            .iter()
            .enumerate()
            .map(|(i, (name, region))| Datacenter {
                id: DcId(i as u16),
                name: (*name).to_string(),
                region: *region,
            })
            .collect();
        let node_dc = (0..nodes).map(|i| DcId((i % dcs.len()) as u16)).collect();
        Topology::new(datacenters, node_dc)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_dc.len()
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_dc.len() as u32).map(NodeId)
    }

    /// The datacenters of the topology.
    pub fn datacenters(&self) -> &[Datacenter] {
        &self.datacenters
    }

    /// Number of datacenters.
    pub fn dc_count(&self) -> usize {
        self.datacenters.len()
    }

    /// Datacenter of a node.
    pub fn dc_of(&self, node: NodeId) -> DcId {
        self.node_dc[node.0 as usize]
    }

    /// Region of a node.
    pub fn region_of(&self, node: NodeId) -> RegionId {
        let dc = self.dc_of(node);
        self.datacenters
            .iter()
            .find(|d| d.id == dc)
            .map(|d| d.region)
            .expect("datacenter exists by construction")
    }

    /// Classify the network path between two nodes.
    pub fn link_class(&self, a: NodeId, b: NodeId) -> LinkClass {
        if a == b {
            return LinkClass::Local;
        }
        let (dca, dcb) = (self.dc_of(a), self.dc_of(b));
        if dca == dcb {
            return LinkClass::IntraDc;
        }
        if self.region_of(a) == self.region_of(b) {
            LinkClass::InterDc
        } else {
            LinkClass::InterRegion
        }
    }
}

/// Maps link classes to latency distributions (one-way message delay).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Loopback delay (message to self), normally (near-)zero.
    pub local: DelayDistribution,
    /// Delay between two nodes of the same datacenter.
    pub intra_dc: DelayDistribution,
    /// Delay between two datacenters of the same region.
    pub inter_dc: DelayDistribution,
    /// Delay between regions.
    pub inter_region: DelayDistribution,
}

impl NetworkModel {
    /// A LAN-only model: sub-millisecond everywhere. Useful for unit tests.
    pub fn lan() -> Self {
        NetworkModel {
            local: DelayDistribution::constant(0.02),
            intra_dc: DelayDistribution::wan(0.3, 0.1),
            inter_dc: DelayDistribution::wan(0.3, 0.1),
            inter_region: DelayDistribution::wan(0.3, 0.1),
        }
    }

    /// An EC2-multi-AZ-like model: ~0.5 ms intra-AZ, ~1.5 ms inter-AZ,
    /// ~80 ms inter-region.
    pub fn ec2_like() -> Self {
        NetworkModel {
            local: DelayDistribution::constant(0.02),
            intra_dc: DelayDistribution::LogNormal {
                median_ms: 0.5,
                sigma: 0.35,
            },
            inter_dc: DelayDistribution::LogNormal {
                median_ms: 1.6,
                sigma: 0.35,
            },
            inter_region: DelayDistribution::wan(75.0, 8.0),
        }
    }

    /// A Grid'5000-like model: 10-gigabit LAN inside a site, ~10–20 ms
    /// between sites over Renater.
    pub fn grid5000_like() -> Self {
        NetworkModel {
            local: DelayDistribution::constant(0.02),
            intra_dc: DelayDistribution::LogNormal {
                median_ms: 0.25,
                sigma: 0.3,
            },
            inter_dc: DelayDistribution::wan(12.0, 3.0),
            inter_region: DelayDistribution::wan(12.0, 3.0),
        }
    }

    /// The distribution used for a given link class.
    pub fn for_class(&self, class: LinkClass) -> &DelayDistribution {
        match class {
            LinkClass::Local => &self.local,
            LinkClass::IntraDc => &self.intra_dc,
            LinkClass::InterDc => &self.inter_dc,
            LinkClass::InterRegion => &self.inter_region,
        }
    }

    /// Mean one-way delay between two nodes, in milliseconds.
    pub fn mean_ms(&self, topology: &Topology, from: NodeId, to: NodeId) -> f64 {
        self.for_class(topology.link_class(from, to)).mean_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimDuration, SimRng};

    #[test]
    fn single_dc_links_are_intra() {
        let t = Topology::single_dc(4);
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.dc_count(), 1);
        assert_eq!(t.link_class(NodeId(0), NodeId(0)), LinkClass::Local);
        assert_eq!(t.link_class(NodeId(0), NodeId(3)), LinkClass::IntraDc);
    }

    #[test]
    fn spread_round_robins_nodes() {
        let t = Topology::spread(10, &[("az-a", RegionId(0)), ("az-b", RegionId(0))]);
        assert_eq!(t.dc_count(), 2);
        assert_eq!(t.dc_of(NodeId(0)), DcId(0));
        assert_eq!(t.dc_of(NodeId(1)), DcId(1));
        assert_eq!(t.link_class(NodeId(0), NodeId(2)), LinkClass::IntraDc);
        assert_eq!(t.link_class(NodeId(0), NodeId(1)), LinkClass::InterDc);
    }

    #[test]
    fn regions_distinguish_inter_region_links() {
        let t = Topology::spread(
            4,
            &[("us-east-1a", RegionId(0)), ("eu-west-1a", RegionId(1))],
        );
        assert_eq!(t.link_class(NodeId(0), NodeId(1)), LinkClass::InterRegion);
        assert_eq!(t.region_of(NodeId(0)), RegionId(0));
        assert_eq!(t.region_of(NodeId(1)), RegionId(1));
    }

    #[test]
    #[should_panic(expected = "unknown datacenter")]
    fn unknown_dc_panics() {
        Topology::new(
            vec![Datacenter {
                id: DcId(0),
                name: "a".into(),
                region: RegionId(0),
            }],
            vec![DcId(5)],
        );
    }

    #[test]
    fn network_model_orders_link_classes() {
        let t = Topology::spread(
            4,
            &[("us-east-1a", RegionId(0)), ("eu-west-1a", RegionId(1))],
        );
        let net = NetworkModel::ec2_like();
        let intra = net.mean_ms(&t, NodeId(0), NodeId(2));
        let inter_region = net.mean_ms(&t, NodeId(0), NodeId(1));
        assert!(intra < inter_region);
        let mut rng = SimRng::new(1);
        let class = t.link_class(NodeId(0), NodeId(1));
        let d = net.for_class(class).compiled().sample(&mut rng);
        assert!(d >= SimDuration::from_millis(50));
    }

    #[test]
    fn grid5000_intersite_is_slower_than_lan() {
        let net = NetworkModel::grid5000_like();
        assert!(net.inter_dc.mean_ms() > net.intra_dc.mean_ms() * 10.0);
    }

    #[test]
    fn topology_serde_round_trip() {
        let t = Topology::spread(5, &[("a", RegionId(0)), ("b", RegionId(0))]);
        let json = serde_json::to_string(&t).unwrap();
        let back: Topology = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
