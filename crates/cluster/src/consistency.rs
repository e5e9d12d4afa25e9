//! Tunable consistency levels, mirroring Apache Cassandra's per-operation
//! consistency levels plus an `Exact(n)` level so that adaptive controllers
//! (Harmony computes "the number of involved replicas") can request any
//! replica count directly.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A per-operation consistency level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConsistencyLevel {
    /// One replica must respond.
    One,
    /// Two replicas must respond.
    Two,
    /// Three replicas must respond.
    Three,
    /// A majority of all replicas (⌊RF/2⌋ + 1) must respond.
    Quorum,
    /// A majority of the replicas in the coordinator's datacenter.
    LocalQuorum,
    /// A majority of the replicas in every datacenter.
    EachQuorum,
    /// Every replica must respond.
    All,
    /// Exactly `n` replicas must respond (clamped to the replication factor).
    Exact(u32),
}

impl ConsistencyLevel {
    /// Number of replica responses required, for a replication factor of
    /// `rf` spread over `dc_count` datacenters.
    ///
    /// For `EachQuorum` the replicas are assumed to be spread evenly over the
    /// datacenters (which is how `NetworkTopologyStrategy` places them).
    pub fn required_acks(self, rf: u32, dc_count: u32) -> u32 {
        let rf = rf.max(1);
        let dc_count = dc_count.max(1);
        let quorum = rf / 2 + 1;
        let per_dc_rf = rf.div_ceil(dc_count); // ceil
        let per_dc_quorum = per_dc_rf / 2 + 1;
        let n = match self {
            ConsistencyLevel::One => 1,
            ConsistencyLevel::Two => 2,
            ConsistencyLevel::Three => 3,
            ConsistencyLevel::Quorum => quorum,
            ConsistencyLevel::LocalQuorum => per_dc_quorum,
            ConsistencyLevel::EachQuorum => per_dc_quorum * dc_count,
            ConsistencyLevel::All => rf,
            ConsistencyLevel::Exact(n) => n.max(1),
        };
        n.min(rf)
    }

    /// The smallest named level requiring at least `acks` responses for the
    /// given replication factor. Useful for reporting.
    pub fn from_replica_count(acks: u32, rf: u32) -> ConsistencyLevel {
        let rf = rf.max(1);
        let acks = acks.clamp(1, rf);
        if acks == 1 {
            ConsistencyLevel::One
        } else if acks == rf {
            ConsistencyLevel::All
        } else if acks == rf / 2 + 1 {
            ConsistencyLevel::Quorum
        } else if acks == 2 {
            ConsistencyLevel::Two
        } else if acks == 3 {
            ConsistencyLevel::Three
        } else {
            ConsistencyLevel::Exact(acks)
        }
    }

    /// The canonical sweep of named levels used by the cost experiments
    /// (ONE → TWO → THREE → QUORUM → ALL).
    pub fn sweep(rf: u32) -> Vec<ConsistencyLevel> {
        let mut levels = vec![ConsistencyLevel::One];
        if rf >= 2 {
            levels.push(ConsistencyLevel::Two);
        }
        if rf >= 3 {
            levels.push(ConsistencyLevel::Three);
        }
        if rf / 2 + 1 > 3 || !levels.iter().any(|l| l.required_acks(rf, 1) == rf / 2 + 1) {
            levels.push(ConsistencyLevel::Quorum);
        }
        levels.push(ConsistencyLevel::All);
        levels.dedup_by_key(|l| l.required_acks(rf, 1));
        levels
    }
}

impl fmt::Display for ConsistencyLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsistencyLevel::One => write!(f, "ONE"),
            ConsistencyLevel::Two => write!(f, "TWO"),
            ConsistencyLevel::Three => write!(f, "THREE"),
            ConsistencyLevel::Quorum => write!(f, "QUORUM"),
            ConsistencyLevel::LocalQuorum => write!(f, "LOCAL_QUORUM"),
            ConsistencyLevel::EachQuorum => write!(f, "EACH_QUORUM"),
            ConsistencyLevel::All => write!(f, "ALL"),
            ConsistencyLevel::Exact(n) => write!(f, "EXACT({n})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_acks_for_rf5() {
        let rf = 5;
        assert_eq!(ConsistencyLevel::One.required_acks(rf, 2), 1);
        assert_eq!(ConsistencyLevel::Two.required_acks(rf, 2), 2);
        assert_eq!(ConsistencyLevel::Three.required_acks(rf, 2), 3);
        assert_eq!(ConsistencyLevel::Quorum.required_acks(rf, 2), 3);
        assert_eq!(ConsistencyLevel::All.required_acks(rf, 2), 5);
        assert_eq!(ConsistencyLevel::Exact(4).required_acks(rf, 2), 4);
        assert_eq!(
            ConsistencyLevel::Exact(9).required_acks(rf, 2),
            5,
            "clamped"
        );
    }

    #[test]
    fn dc_aware_levels() {
        // RF 6 over 2 DCs → 3 replicas per DC, per-DC quorum = 2.
        assert_eq!(ConsistencyLevel::LocalQuorum.required_acks(6, 2), 2);
        assert_eq!(ConsistencyLevel::EachQuorum.required_acks(6, 2), 4);
        // Single DC: LOCAL_QUORUM degenerates to QUORUM.
        assert_eq!(
            ConsistencyLevel::LocalQuorum.required_acks(5, 1),
            ConsistencyLevel::Quorum.required_acks(5, 1)
        );
    }

    #[test]
    fn levels_never_exceed_rf() {
        for rf in 1..=7u32 {
            for dc in 1..=3u32 {
                for level in [
                    ConsistencyLevel::One,
                    ConsistencyLevel::Two,
                    ConsistencyLevel::Three,
                    ConsistencyLevel::Quorum,
                    ConsistencyLevel::LocalQuorum,
                    ConsistencyLevel::EachQuorum,
                    ConsistencyLevel::All,
                    ConsistencyLevel::Exact(100),
                ] {
                    let acks = level.required_acks(rf, dc);
                    assert!(acks >= 1 && acks <= rf, "{level} rf={rf} dc={dc} → {acks}");
                }
            }
        }
    }

    #[test]
    fn from_replica_count_round_trips() {
        let rf = 5;
        for acks in 1..=rf {
            let level = ConsistencyLevel::from_replica_count(acks, rf);
            assert_eq!(level.required_acks(rf, 1), acks);
        }
        assert_eq!(
            ConsistencyLevel::from_replica_count(3, 5),
            ConsistencyLevel::Quorum
        );
        assert_eq!(
            ConsistencyLevel::from_replica_count(1, 5),
            ConsistencyLevel::One
        );
        assert_eq!(
            ConsistencyLevel::from_replica_count(5, 5),
            ConsistencyLevel::All
        );
    }

    #[test]
    fn sweep_is_increasing_and_unique() {
        for rf in [1u32, 3, 5, 7] {
            let sweep = ConsistencyLevel::sweep(rf);
            let acks: Vec<u32> = sweep.iter().map(|l| l.required_acks(rf, 1)).collect();
            let mut sorted = acks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(acks.len(), sorted.len(), "rf={rf}: {acks:?}");
            assert_eq!(*acks.first().unwrap(), 1);
            assert_eq!(*acks.last().unwrap(), rf);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ConsistencyLevel::Quorum.to_string(), "QUORUM");
        assert_eq!(ConsistencyLevel::Exact(4).to_string(), "EXACT(4)");
    }
}
