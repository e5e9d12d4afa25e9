//! Partitioning and replica placement: the consistent-hash token ring and
//! the ordered (contiguous key-range) partitioner.
//!
//! Like Cassandra, placement starts from a [`Partitioner`]:
//!
//! * [`Partitioner::Hash`] — keys are hashed onto a token ring; each node
//!   owns a set of virtual-node tokens, and the replicas of a key are the
//!   owners of the first distinct nodes encountered walking the ring
//!   clockwise from the key's token (Cassandra's random/Murmur3
//!   partitioner). Consecutive record ids scatter over the ring, so a range
//!   scan finds only a subset of its range on any one replica.
//! * [`Partitioner::Ordered`] — the dense key space is cut into contiguous
//!   4096-key *slices* ([`ORDERED_SLICE_BITS`], aligned with the paged
//!   tables' page size); every key of a slice has the same replica set, so
//!   a node owns contiguous key ranges (Cassandra's ordered partitioner).
//!   Range scans are coverage-faithful: the owners of a slice hold *every*
//!   record in it, and a scan that straddles a slice boundary gathers the
//!   remainder from the next slice's owners.
//!
//! On top of either partitioner, two placement strategies are provided:
//!
//! * [`ReplicationStrategy::Simple`] — the next `RF` distinct nodes in walk
//!   order, regardless of datacenter (Cassandra's `SimpleStrategy`);
//! * [`ReplicationStrategy::NetworkTopology`] — replicas spread over
//!   datacenters as evenly as possible (Cassandra's
//!   `NetworkTopologyStrategy`), which is how the paper deploys Cassandra
//!   over two availability zones / two Grid'5000 sites.
//!
//! ## Layout: one placement row per walk start
//!
//! A key's replica set depends only on where its walk starts: the index of
//! the first token at or after the key's token (hash), or `slice % nodes`
//! (ordered). [`Ring::excluding`] therefore runs every walk once, when the
//! ring is built, and keeps the results as one flat table of `RF` node ids
//! per start — 336 rows for the paper's 21-node × 16-vnode platform, a few
//! KB that stay in L1. A lookup is hash + binary search + copy (or modulo +
//! copy); nothing is memoized per key, per shard or behind a lock, and a
//! reconfiguration replaces the table together with the ring.

use crate::types::Key;
use concord_sim::{DcId, InlineVec, NodeId, Topology};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How keys are mapped to owning nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Partitioner {
    /// Consistent-hash token ring (Cassandra's random partitioner). The
    /// default; all pre-existing behaviour.
    #[default]
    Hash,
    /// Contiguous key-range ownership per node (Cassandra's ordered
    /// partitioner): the key space is cut into 4096-key slices, adjacent
    /// slices round-robin over the nodes, and crashed nodes' slices fall to
    /// the next surviving node in id order.
    Ordered,
}

impl Partitioner {
    /// Parse a command-line name (`hash` | `ordered`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "hash" => Some(Partitioner::Hash),
            "ordered" => Some(Partitioner::Ordered),
            _ => None,
        }
    }

    /// Short label for banners and tables.
    pub fn label(&self) -> &'static str {
        match self {
            Partitioner::Hash => "hash",
            Partitioner::Ordered => "ordered",
        }
    }
}

/// How replicas are placed across the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplicationStrategy {
    /// Next `RF` distinct nodes on the ring.
    Simple,
    /// Replicas balanced across datacenters (round-robin over DCs while
    /// walking the ring).
    NetworkTopology,
}

/// Keys per ordered-partitioner slice, as a shift (2^12 = 4096, matching the
/// paged tables' page size, so a scan crossing an ownership boundary is also
/// crossing a page boundary in every per-key table).
pub const ORDERED_SLICE_BITS: u32 = 12;
/// Number of consecutive keys in one ordered-partitioner slice.
pub const ORDERED_SLICE_KEYS: u64 = 1 << ORDERED_SLICE_BITS;

/// 64-bit mixer used as the ring hash (SplitMix64 finalizer — well-spread,
/// deterministic, dependency-free).
#[inline]
fn ring_hash(value: u64) -> u64 {
    let mut z = value.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The partitioner state plus placement configuration. See the module docs
/// for the layout.
#[derive(Debug, Clone)]
pub struct Ring {
    /// The vnode tokens, sorted (hash partitioner only; empty under
    /// [`Partitioner::Ordered`]). Their owners are needed only while the
    /// placement table is built.
    tokens: Vec<u64>,
    /// The placement table: row `r` is
    /// `placements[r * RF..(r + 1) * RF]`, primary first. One row per token
    /// index (hash) or per `slice % nodes` (ordered).
    placements: Vec<NodeId>,
    partitioner: Partitioner,
    replication_factor: u32,
    strategy: ReplicationStrategy,
    /// Node → datacenter, copied from the topology for placement decisions.
    node_dc: Vec<DcId>,
    dc_count: usize,
}

impl Ring {
    /// Build a ring for all nodes of `topology` with `vnodes` virtual nodes
    /// per physical node.
    pub fn new(
        topology: &Topology,
        replication_factor: u32,
        strategy: ReplicationStrategy,
        vnodes: u32,
        partitioner: Partitioner,
    ) -> Self {
        assert!(replication_factor >= 1, "replication factor must be ≥ 1");
        assert!(
            replication_factor as usize <= topology.node_count(),
            "replication factor {replication_factor} exceeds node count {}",
            topology.node_count()
        );
        assert!(vnodes >= 1);
        Self::excluding(
            topology,
            replication_factor,
            strategy,
            vnodes,
            partitioner,
            |_| false,
        )
    }

    /// Build a ring over the nodes of `topology` for which `excluded`
    /// returns `false` — the reconfiguration path for permanent node
    /// crashes: a crashed node's vnode tokens (hash) or key slices
    /// (ordered) are withdrawn, so its former ranges fall to the next nodes
    /// in walk order (exactly what removing a Cassandra node does to
    /// ownership).
    ///
    /// Unlike [`Ring::new`] this is lenient: if fewer than
    /// `replication_factor` nodes survive, the effective replication factor
    /// is clamped to the survivor count (and a fully crashed cluster yields
    /// an empty ring that maps every key to zero replicas).
    pub fn excluding(
        topology: &Topology,
        replication_factor: u32,
        strategy: ReplicationStrategy,
        vnodes: u32,
        partitioner: Partitioner,
        excluded: impl Fn(NodeId) -> bool,
    ) -> Self {
        assert!(vnodes >= 1);
        let total = topology.node_count();
        let alive: Vec<bool> = topology.nodes().map(|n| !excluded(n)).collect();
        let survivors = alive.iter().filter(|&&a| a).count() as u32;
        let mut ring = Ring {
            tokens: Vec::new(),
            placements: Vec::new(),
            partitioner,
            replication_factor: replication_factor.min(survivors),
            strategy,
            node_dc: topology.nodes().map(|n| topology.dc_of(n)).collect(),
            dc_count: topology.dc_count(),
        };
        match partitioner {
            Partitioner::Hash => {
                // Build through a BTreeMap to keep the original "last writer
                // wins on token collision" semantics. Tokens depend only on
                // (node, vnode), so the surviving nodes keep their positions
                // across reconfigurations.
                let mut token_map = BTreeMap::new();
                for node in topology.nodes().filter(|n| alive[n.0 as usize]) {
                    for v in 0..vnodes {
                        let token = ring_hash(((node.0 as u64) << 32) ^ (v as u64) ^ 0xA5A5_5A5A);
                        token_map.insert(token, node);
                    }
                }
                let owners: Vec<NodeId> = token_map.values().copied().collect();
                // Row `start`: the clockwise walk from token `start`,
                // wrapping.
                for start in 0..owners.len() {
                    let walk = owners[start..].iter().chain(&owners[..start]).copied();
                    ring.push_row(walk);
                }
                ring.tokens = token_map.into_keys().collect();
            }
            Partitioner::Ordered => {
                // Row `start`: the id-order walk from node `start` over the
                // alive nodes, so a withdrawn node's slices fall to the next
                // survivor and survivors keep their ranges (mirroring the
                // token ring's stable-token property).
                for start in 0..total {
                    let walk = (start..start + total)
                        .map(|i| NodeId((i % total) as u32))
                        .filter(|n| alive[n.0 as usize]);
                    ring.push_row(walk);
                }
            }
        }
        ring
    }

    /// Append the placement of one walk to the table.
    fn push_row(&mut self, walk: impl Iterator<Item = NodeId>) {
        let rf = self.replication_factor as usize;
        let mut row = Vec::with_capacity(rf);
        self.fill_replicas(walk, rf, &mut row);
        assert_eq!(row.len(), rf, "a placement walk yields exactly RF nodes");
        self.placements.extend(row);
    }

    /// The replication factor.
    pub fn replication_factor(&self) -> u32 {
        self.replication_factor
    }

    /// The placement strategy.
    pub fn strategy(&self) -> ReplicationStrategy {
        self.strategy
    }

    /// The partitioner in effect.
    pub fn partitioner(&self) -> Partitioner {
        self.partitioner
    }

    /// The ordered-partitioner slice a key belongs to (keys of one slice
    /// share a replica set). Meaningful for any partitioner, used only by
    /// the ordered one.
    #[inline]
    pub fn slice_of(key: Key) -> u64 {
        key.0 >> ORDERED_SLICE_BITS
    }

    /// The token a key hashes to.
    pub fn token_of(&self, key: Key) -> u64 {
        ring_hash(key.0 ^ 0x5117_BEEF_0000_0001)
    }

    /// The ordered list of replica nodes for `key` (primary first).
    pub fn replicas(&self, key: Key) -> Vec<NodeId> {
        let mut replicas = Vec::with_capacity(self.replication_factor as usize);
        self.replicas_into(key, &mut replicas);
        replicas
    }

    /// Fill `replicas` with the ordered replica nodes for `key` (primary
    /// first) without allocating: the hot-path variant of
    /// [`Ring::replicas`] — callers keep a scratch buffer alive across
    /// operations.
    #[inline]
    pub fn replicas_into(&self, key: Key, replicas: &mut Vec<NodeId>) {
        replicas.clear();
        replicas.extend_from_slice(self.placement(key));
    }

    /// The ordered replica nodes for `key` (primary first), borrowed from
    /// the placement table: a row lookup, where hash keys start their walk
    /// at the first token at or after their own (wrapping past the last),
    /// ordered keys at `slice % nodes`.
    #[inline]
    pub(crate) fn placement(&self, key: Key) -> &[NodeId] {
        let row = match self.partitioner {
            Partitioner::Hash => {
                let token = self.token_of(key);
                let start = self.tokens.partition_point(|&t| t < token);
                if start == self.tokens.len() {
                    0
                } else {
                    start
                }
            }
            Partitioner::Ordered => {
                (Self::slice_of(key) % self.node_dc.len().max(1) as u64) as usize
            }
        };
        // A fully crashed (or node-less) cluster has RF 0 and an empty
        // table: every row is the empty slice.
        let rf = self.replication_factor as usize;
        &self.placements[row * rf..(row + 1) * rf]
    }

    /// Take the first `rf` distinct replicas from a node walk, applying the
    /// configured placement strategy. Shared by both partitioners — the
    /// hash partitioner feeds it the clockwise token walk, the ordered one
    /// the id-order walk from a slice's primary position.
    fn fill_replicas(
        &self,
        walk: impl Iterator<Item = NodeId>,
        rf: usize,
        replicas: &mut Vec<NodeId>,
    ) {
        match self.strategy {
            ReplicationStrategy::Simple => {
                for node in walk {
                    if !replicas.contains(&node) {
                        replicas.push(node);
                        if replicas.len() == rf {
                            break;
                        }
                    }
                }
            }
            ReplicationStrategy::NetworkTopology => {
                // Spread replicas over DCs: allow a DC to take another
                // replica only when its share is below its even allotment.
                // Both side tables live on the stack (spilling only for
                // degenerate topologies) — no allocation per lookup.
                let dc_quota = rf.div_ceil(self.dc_count);
                let mut per_dc_count: InlineVec<(u16, u32)> = InlineVec::new();
                let mut skipped: InlineVec<u32> = InlineVec::new();
                for node in walk {
                    if replicas.len() == rf {
                        break;
                    }
                    if replicas.contains(&node) {
                        continue;
                    }
                    let dc = self.node_dc[node.0 as usize].0;
                    let mut taken = false;
                    let mut seen_dc = false;
                    for entry in per_dc_count.iter_mut() {
                        if entry.0 == dc {
                            seen_dc = true;
                            if (entry.1 as usize) < dc_quota {
                                entry.1 += 1;
                                taken = true;
                            }
                            break;
                        }
                    }
                    if !seen_dc {
                        per_dc_count.push((dc, 1));
                        taken = true;
                    }
                    if taken {
                        replicas.push(node);
                    } else if !skipped.iter().any(|&n| n == node.0) {
                        skipped.push(node.0);
                    }
                }
                // If quotas could not be met (e.g. a tiny DC), fill from the
                // skipped nodes in ring order.
                for &node in skipped.iter() {
                    if replicas.len() == rf {
                        break;
                    }
                    let node = NodeId(node);
                    if !replicas.contains(&node) {
                        replicas.push(node);
                    }
                }
            }
        }
    }

    /// The primary replica for `key`.
    pub fn primary(&self, key: Key) -> NodeId {
        self.replicas(key)[0]
    }

    /// Approximate ownership fraction of each node (share of sampled keys for
    /// which the node is a replica). Used by tests and capacity planning.
    pub fn ownership(&self, sample_keys: u64) -> BTreeMap<NodeId, f64> {
        let mut counts: BTreeMap<NodeId, u64> = BTreeMap::new();
        for k in 0..sample_keys {
            for node in self.replicas(Key(k)) {
                *counts.entry(node).or_insert(0) += 1;
            }
        }
        let total = (sample_keys * self.replication_factor as u64).max(1) as f64;
        counts
            .into_iter()
            .map(|(n, c)| (n, c as f64 / total))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_sim::RegionId;

    fn topo_2dc(nodes: usize) -> Topology {
        Topology::spread(nodes, &[("dc-a", RegionId(0)), ("dc-b", RegionId(0))])
    }

    fn hash_ring(topo: &Topology, rf: u32, strategy: ReplicationStrategy, vnodes: u32) -> Ring {
        Ring::new(topo, rf, strategy, vnodes, Partitioner::Hash)
    }

    fn ordered_ring(topo: &Topology, rf: u32, strategy: ReplicationStrategy) -> Ring {
        Ring::new(topo, rf, strategy, 16, Partitioner::Ordered)
    }

    #[test]
    fn replicas_are_distinct_and_match_rf() {
        let topo = Topology::single_dc(10);
        let ring = hash_ring(&topo, 3, ReplicationStrategy::Simple, 8);
        for k in 0..1000 {
            let reps = ring.replicas(Key(k));
            assert_eq!(reps.len(), 3);
            let mut sorted = reps.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replicas must be distinct");
        }
    }

    #[test]
    fn placement_is_deterministic() {
        let topo = topo_2dc(8);
        let ring1 = hash_ring(&topo, 3, ReplicationStrategy::NetworkTopology, 16);
        let ring2 = hash_ring(&topo, 3, ReplicationStrategy::NetworkTopology, 16);
        for k in 0..500 {
            assert_eq!(ring1.replicas(Key(k)), ring2.replicas(Key(k)));
        }
    }

    #[test]
    fn network_topology_spreads_over_dcs() {
        let topo = topo_2dc(10);
        let ring = hash_ring(&topo, 4, ReplicationStrategy::NetworkTopology, 16);
        for k in 0..500 {
            let reps = ring.replicas(Key(k));
            let dc_a = reps.iter().filter(|n| n.0 % 2 == 0).count();
            let dc_b = reps.len() - dc_a;
            assert_eq!(
                dc_a, 2,
                "key {k}: replicas {reps:?} must be 2+2 over the DCs"
            );
            assert_eq!(dc_b, 2);
        }
    }

    #[test]
    fn network_topology_with_odd_rf() {
        let topo = topo_2dc(10);
        let ring = hash_ring(&topo, 5, ReplicationStrategy::NetworkTopology, 16);
        for k in 0..200 {
            let reps = ring.replicas(Key(k));
            assert_eq!(reps.len(), 5);
            let dc_a = reps.iter().filter(|n| n.0 % 2 == 0).count();
            // Even allotment of 5 over 2 DCs is 3 + 2 (either way round).
            assert!((2..=3).contains(&dc_a), "key {k}: {reps:?}");
        }
    }

    #[test]
    fn ownership_is_roughly_balanced() {
        let topo = Topology::single_dc(8);
        let ring = hash_ring(&topo, 3, ReplicationStrategy::Simple, 64);
        let ownership = ring.ownership(20_000);
        assert_eq!(ownership.len(), 8, "every node should own part of the ring");
        let ideal = 1.0 / 8.0;
        for (node, share) in ownership {
            assert!(
                (share - ideal).abs() < ideal * 0.5,
                "{node} owns {share:.3}, ideal {ideal:.3}"
            );
        }
    }

    #[test]
    fn rf_one_gives_single_replica() {
        let topo = Topology::single_dc(4);
        let ring = hash_ring(&topo, 1, ReplicationStrategy::Simple, 8);
        for k in 0..100 {
            assert_eq!(ring.replicas(Key(k)).len(), 1);
            assert_eq!(ring.primary(Key(k)), ring.replicas(Key(k))[0]);
        }
    }

    #[test]
    fn excluding_withdraws_tokens_and_keeps_survivor_positions() {
        let topo = Topology::single_dc(6);
        let full = hash_ring(&topo, 3, ReplicationStrategy::Simple, 16);
        let partial = Ring::excluding(
            &topo,
            3,
            ReplicationStrategy::Simple,
            16,
            Partitioner::Hash,
            |n| n.0 == 2,
        );
        assert_eq!(partial.replication_factor(), 3);
        for k in 0..500 {
            let reps = partial.replicas(Key(k));
            assert_eq!(reps.len(), 3);
            assert!(!reps.contains(&NodeId(2)), "excluded node owns nothing");
            // Survivors that were replicas before stay replicas, in order.
            let survivors: Vec<NodeId> = full
                .replicas(Key(k))
                .into_iter()
                .filter(|n| n.0 != 2)
                .collect();
            assert_eq!(&reps[..survivors.len()], &survivors[..]);
        }
    }

    #[test]
    fn excluding_clamps_rf_to_survivors() {
        let topo = Topology::single_dc(4);
        let ring = Ring::excluding(
            &topo,
            3,
            ReplicationStrategy::Simple,
            8,
            Partitioner::Hash,
            |n| n.0 >= 2,
        );
        assert_eq!(ring.replication_factor(), 2);
        assert_eq!(ring.replicas(Key(9)).len(), 2);
        let empty = Ring::excluding(
            &topo,
            3,
            ReplicationStrategy::Simple,
            8,
            Partitioner::Hash,
            |_| true,
        );
        assert_eq!(empty.replication_factor(), 0);
        assert!(empty.replicas(Key(1)).is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds node count")]
    fn rf_larger_than_cluster_rejected() {
        let topo = Topology::single_dc(2);
        hash_ring(&topo, 3, ReplicationStrategy::Simple, 8);
    }

    #[test]
    fn different_keys_map_to_different_primaries() {
        let topo = Topology::single_dc(16);
        let ring = hash_ring(&topo, 3, ReplicationStrategy::Simple, 32);
        let primaries: std::collections::HashSet<NodeId> =
            (0..2000).map(|k| ring.primary(Key(k))).collect();
        assert!(
            primaries.len() > 10,
            "keys should spread over many primaries"
        );
    }

    // ---- ordered partitioner ----

    #[test]
    fn ordered_keys_of_one_slice_share_a_replica_set() {
        let topo = Topology::single_dc(6);
        let ring = ordered_ring(&topo, 3, ReplicationStrategy::Simple);
        let slice0 = ring.replicas(Key(0));
        assert_eq!(slice0.len(), 3);
        for k in 0..ORDERED_SLICE_KEYS {
            assert_eq!(ring.replicas(Key(k)), slice0, "key {k}");
        }
        // The next slice rotates to the next primary.
        let slice1 = ring.replicas(Key(ORDERED_SLICE_KEYS));
        assert_ne!(slice0, slice1);
        assert_eq!(slice1[0], NodeId(1), "adjacent slices round-robin");
    }

    #[test]
    fn ordered_placement_is_contiguous_and_deterministic() {
        let topo = Topology::single_dc(5);
        let ring1 = ordered_ring(&topo, 3, ReplicationStrategy::Simple);
        let ring2 = ordered_ring(&topo, 3, ReplicationStrategy::Simple);
        for slice in 0..10u64 {
            let key = Key(slice * ORDERED_SLICE_KEYS + 7);
            assert_eq!(ring1.replicas(key), ring2.replicas(key));
            // Simple strategy: consecutive nodes in id order, wrapping.
            let reps = ring1.replicas(key);
            let start = (slice % 5) as u32;
            let expect: Vec<NodeId> = (0..3).map(|i| NodeId((start + i) % 5)).collect();
            assert_eq!(reps, expect, "slice {slice}");
        }
    }

    #[test]
    fn ordered_network_topology_balances_dcs() {
        let topo = topo_2dc(8);
        let ring = ordered_ring(&topo, 4, ReplicationStrategy::NetworkTopology);
        for slice in 0..16u64 {
            let reps = ring.replicas(Key(slice * ORDERED_SLICE_KEYS));
            assert_eq!(reps.len(), 4);
            let dc_a = reps.iter().filter(|n| n.0 % 2 == 0).count();
            assert_eq!(dc_a, 2, "slice {slice}: {reps:?} must be 2+2 over DCs");
        }
    }

    #[test]
    fn ordered_excluding_moves_only_the_crashed_nodes_ranges() {
        let topo = Topology::single_dc(6);
        let full = ordered_ring(&topo, 3, ReplicationStrategy::Simple);
        let partial = Ring::excluding(
            &topo,
            3,
            ReplicationStrategy::Simple,
            16,
            Partitioner::Ordered,
            |n| n.0 == 2,
        );
        for slice in 0..24u64 {
            let key = Key(slice * ORDERED_SLICE_KEYS);
            let reps = partial.replicas(key);
            assert_eq!(reps.len(), 3);
            assert!(!reps.contains(&NodeId(2)), "crashed node owns nothing");
            // Survivors that were replicas before stay replicas, in order —
            // the crashed node's ranges fall to the next alive node.
            let survivors: Vec<NodeId> = full
                .replicas(key)
                .into_iter()
                .filter(|n| n.0 != 2)
                .collect();
            assert_eq!(&reps[..survivors.len()], &survivors[..], "slice {slice}");
        }
    }

    #[test]
    fn ordered_fully_crashed_ring_maps_to_no_replicas() {
        let topo = Topology::single_dc(4);
        let empty = Ring::excluding(
            &topo,
            3,
            ReplicationStrategy::Simple,
            8,
            Partitioner::Ordered,
            |_| true,
        );
        assert_eq!(empty.replication_factor(), 0);
        assert!(empty.replicas(Key(1)).is_empty());
    }

    #[test]
    fn partitioner_parsing_and_labels() {
        assert_eq!(Partitioner::from_name("hash"), Some(Partitioner::Hash));
        assert_eq!(
            Partitioner::from_name("ordered"),
            Some(Partitioner::Ordered)
        );
        assert_eq!(Partitioner::from_name("range"), None);
        assert_eq!(Partitioner::default(), Partitioner::Hash);
        assert_eq!(Partitioner::Ordered.label(), "ordered");
    }
}
