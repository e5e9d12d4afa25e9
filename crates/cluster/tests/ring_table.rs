//! Differential test for the ring's placement table.
//!
//! [`Ring`] answers `replicas_into` from a table with one precomputed row
//! per walk start (token index under [`Partitioner::Hash`], `slice % nodes`
//! under [`Partitioner::Ordered`]). This test keeps the walk the table
//! replaced — binary-search the key's token and walk the sorted tokens
//! clockwise, or walk the alive nodes in id order from the slice's primary
//! position, taking the first `RF` nodes the placement strategy admits — as
//! an executable reference with its own token derivation, and asserts the
//! table gives the same answer for **every** walk start and for a key
//! sample, over both partitioners × both strategies × random `excluding`
//! sets (down to fewer than `RF` survivors, and none).

use concord_cluster::{Key, Partitioner, ReplicationStrategy, Ring, ORDERED_SLICE_KEYS};
use concord_sim::{NodeId, RegionId, SimRng, Topology};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The ring hash (SplitMix64 finalizer), restated.
fn ring_hash(value: u64) -> u64 {
    let mut z = value.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The inverse of [`ring_hash`] (it is a bijection on `u64`), so the test
/// can name a key for any token and probe both sides of every token
/// boundary instead of hoping a sample lands in each arc.
fn ring_unhash(hash: u64) -> u64 {
    /// Inverse of an odd multiplier modulo 2^64 (Newton's iteration: an odd
    /// `a` is its own inverse modulo 8, and each step doubles the bits).
    fn inverse(a: u64) -> u64 {
        let mut x = a;
        for _ in 0..5 {
            x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
        }
        x
    }
    let mut z = hash ^ (hash >> 31) ^ (hash >> 62);
    z = z.wrapping_mul(inverse(0x94D0_49BB_1331_11EB));
    z = z ^ (z >> 27) ^ (z >> 54);
    z = z.wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9));
    z = z ^ (z >> 30) ^ (z >> 60);
    z.wrapping_sub(0x9E37_79B9_7F4A_7C15)
}

/// Salt XORed into a key before hashing ([`Ring::token_of`]).
const KEY_SALT: u64 = 0x5117_BEEF_0000_0001;

/// The key whose token is exactly `token`.
fn key_at(token: u64) -> Key {
    Key(ring_unhash(token) ^ KEY_SALT)
}

/// The per-lookup walk the placement table replaced, as the reference.
struct ReferenceRing {
    /// `(token, owner)`, sorted by token; last writer wins on a collision.
    tokens: Vec<(u64, NodeId)>,
    alive: Vec<bool>,
    partitioner: Partitioner,
    rf: usize,
    strategy: ReplicationStrategy,
    node_dc: Vec<u16>,
    dc_count: usize,
}

impl ReferenceRing {
    fn excluding(
        topology: &Topology,
        replication_factor: u32,
        strategy: ReplicationStrategy,
        vnodes: u32,
        partitioner: Partitioner,
        excluded: &[bool],
    ) -> Self {
        let mut token_map = BTreeMap::new();
        for node in topology.nodes().filter(|n| !excluded[n.0 as usize]) {
            for v in 0..vnodes {
                let token = ring_hash(((node.0 as u64) << 32) ^ (v as u64) ^ 0xA5A5_5A5A);
                token_map.insert(token, node);
            }
        }
        let alive: Vec<bool> = excluded.iter().map(|&e| !e).collect();
        let survivors = alive.iter().filter(|&&a| a).count();
        ReferenceRing {
            tokens: token_map.into_iter().collect(),
            alive,
            partitioner,
            rf: (replication_factor as usize).min(survivors),
            strategy,
            node_dc: topology.nodes().map(|n| topology.dc_of(n).0).collect(),
            dc_count: topology.dc_count(),
        }
    }

    fn replicas(&self, key: Key) -> Vec<NodeId> {
        match self.partitioner {
            Partitioner::Hash => {
                let token = ring_hash(key.0 ^ KEY_SALT);
                let start = self.tokens.partition_point(|&(t, _)| t < token);
                let walk = self.tokens[start..]
                    .iter()
                    .chain(self.tokens[..start].iter())
                    .map(|&(_, node)| node);
                self.fill(walk)
            }
            Partitioner::Ordered => {
                if self.rf == 0 {
                    return Vec::new(); // fully crashed cluster
                }
                let total = self.alive.len();
                let start = ((key.0 / ORDERED_SLICE_KEYS) % total as u64) as usize;
                let walk = (start..start + total)
                    .map(|i| NodeId((i % total) as u32))
                    .filter(|n| self.alive[n.0 as usize]);
                self.fill(walk)
            }
        }
    }

    /// The first `rf` distinct nodes of a walk the strategy admits.
    fn fill(&self, walk: impl Iterator<Item = NodeId>) -> Vec<NodeId> {
        let rf = self.rf;
        let mut replicas = Vec::new();
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
                // A DC takes another replica only while its share is below
                // its even allotment; nodes passed over fill any remainder.
                let dc_quota = rf.div_ceil(self.dc_count);
                let mut per_dc: BTreeMap<u16, usize> = BTreeMap::new();
                let mut skipped: Vec<NodeId> = Vec::new();
                for node in walk {
                    if replicas.len() == rf {
                        break;
                    }
                    if replicas.contains(&node) {
                        continue;
                    }
                    let taken = per_dc.entry(self.node_dc[node.0 as usize]).or_insert(0);
                    if *taken < dc_quota {
                        *taken += 1;
                        replicas.push(node);
                    } else if !skipped.contains(&node) {
                        skipped.push(node);
                    }
                }
                for node in skipped {
                    if replicas.len() == rf {
                        break;
                    }
                    if !replicas.contains(&node) {
                        replicas.push(node);
                    }
                }
            }
        }
        replicas
    }
}

/// Compare the table against the reference on one ring: every walk start,
/// then a dense and a scattered key sample.
fn check_ring(
    topology: &Topology,
    replication_factor: u32,
    strategy: ReplicationStrategy,
    vnodes: u32,
    partitioner: Partitioner,
    excluded: &[bool],
    sample_seed: u64,
) {
    let ring = Ring::excluding(
        topology,
        replication_factor,
        strategy,
        vnodes,
        partitioner,
        |n| excluded[n.0 as usize],
    );
    let reference = ReferenceRing::excluding(
        topology,
        replication_factor,
        strategy,
        vnodes,
        partitioner,
        excluded,
    );
    assert_eq!(ring.replication_factor() as usize, reference.rf);

    let mut out = vec![NodeId(u32::MAX)]; // stale contents must be cleared
    let mut probe = |key: Key| {
        ring.replicas_into(key, &mut out);
        assert_eq!(
            out,
            reference.replicas(key),
            "{key:?} under {partitioner:?}/{strategy:?}, rf {replication_factor}, \
             vnodes {vnodes}, excluded {excluded:?}"
        );
    };

    match partitioner {
        Partitioner::Hash => {
            // A key exactly on token `i` starts its walk at `i`, one past it
            // at `i + 1` (wrapping after the last), one before it at `i`
            // again unless the previous token is adjacent.
            for &(token, _) in &reference.tokens {
                for t in [token.wrapping_sub(1), token, token.wrapping_add(1)] {
                    let key = key_at(t);
                    assert_eq!(ring.token_of(key), t, "ring_unhash inverts the ring hash");
                    probe(key);
                }
            }
            probe(key_at(0));
            probe(key_at(u64::MAX));
        }
        Partitioner::Ordered => {
            // Both ends of every slice, past one full rotation of starts.
            for slice in 0..(2 * topology.node_count() as u64 + 3) {
                probe(Key(slice * ORDERED_SLICE_KEYS));
                probe(Key((slice + 1) * ORDERED_SLICE_KEYS - 1));
            }
            probe(Key(u64::MAX));
        }
    }
    let mut rng = SimRng::new(sample_seed);
    for k in 0..512 {
        probe(Key(k));
        probe(Key(rng.next_bounded(u64::MAX)));
    }
}

const PARTITIONERS: [Partitioner; 2] = [Partitioner::Hash, Partitioner::Ordered];
const STRATEGIES: [ReplicationStrategy; 2] = [
    ReplicationStrategy::Simple,
    ReplicationStrategy::NetworkTopology,
];

proptest! {
    #[test]
    fn placement_table_matches_the_walk(seed in 0u64..u64::MAX) {
        let mut rng = SimRng::new(seed);
        let nodes = 1 + rng.next_bounded(12) as usize;
        let dcs = [
            ("dc-a", RegionId(0)),
            ("dc-b", RegionId(0)),
            ("dc-c", RegionId(1)),
        ];
        let topology = Topology::spread(nodes, &dcs[..1 + rng.next_bounded(3) as usize]);
        // Up to RF 5, and sometimes more than the cluster has nodes.
        let replication_factor = 1 + rng.next_bounded(5) as u32;
        let vnodes = 1 + rng.next_bounded(16) as u32;
        // Exclusion odds from "nobody" to "nearly everybody", so survivor
        // counts fall on both sides of RF.
        let odds = rng.next_bounded(10);
        let excluded: Vec<bool> = (0..nodes).map(|_| rng.next_bounded(10) < odds).collect();
        for partitioner in PARTITIONERS {
            for strategy in STRATEGIES {
                check_ring(
                    &topology,
                    replication_factor,
                    strategy,
                    vnodes,
                    partitioner,
                    &excluded,
                    seed,
                );
            }
        }
    }
}

#[test]
fn clamped_and_empty_rings_match_the_walk() {
    let topology = Topology::spread(6, &[("dc-a", RegionId(0)), ("dc-b", RegionId(0))]);
    let two_left = [true, false, true, true, false, true];
    let none_left = [true; 6];
    let nodeless = Topology::single_dc(0);
    for partitioner in PARTITIONERS {
        for strategy in STRATEGIES {
            // RF 3 over two survivors clamps to 2; over none, to 0.
            check_ring(&topology, 3, strategy, 8, partitioner, &two_left, 1);
            check_ring(&topology, 3, strategy, 8, partitioner, &none_left, 2);
            check_ring(&nodeless, 3, strategy, 8, partitioner, &[], 3);
            let ring = Ring::excluding(&topology, 3, strategy, 8, partitioner, |_| true);
            assert_eq!(ring.replication_factor(), 0);
            assert!(ring.replicas(Key(7)).is_empty());
        }
    }
}
