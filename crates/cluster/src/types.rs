//! Core value types of the replicated key-value store.

use concord_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A record key. The workload generators produce dense `u64` record ids; the
/// partitioner hashes them onto the ring, so the store behaves the same as it
/// would with string keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Key(pub u64);

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "user{}", self.0)
    }
}

/// A monotonically increasing version (write timestamp). Cassandra uses
/// microsecond wall-clock timestamps supplied by the coordinator; the
/// simulator uses a global logical counter combined with the issue time so
/// that last-write-wins reconciliation is total and deterministic.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Version(pub u64);

impl Version {
    /// The version of a never-written key.
    pub const NONE: Version = Version(0);

    /// True if this version denotes an actual write.
    pub fn exists(self) -> bool {
        self.0 > 0
    }
}

/// Identifier assigned to every client operation submitted to the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OpId(pub u64);

/// The kind of a client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Read the value of a key.
    Read,
    /// Write (insert or update) the value of a key.
    Write,
}

/// The value stored for a key on one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoredValue {
    /// Version of the most recent write applied on this replica.
    pub version: Version,
    /// Payload size in bytes.
    pub size: u32,
}

/// Outcome status of a completed client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpStatus {
    /// The operation satisfied its consistency level.
    Ok,
    /// The coordinator could not gather enough replica responses before the
    /// timeout (mirrors Cassandra's `UnavailableException` / timeout).
    Timeout,
}

/// A finished client operation, as reported back to the driving layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompletedOp {
    /// The operation's id — always the id the `submit_*` call handed out,
    /// even when `retry_on_timeout` re-issued the operation under fresh
    /// internal attempts, so client-side correlation by id always holds.
    pub id: OpId,
    /// Read or write.
    pub kind: OpKind,
    /// The key targeted.
    pub key: Key,
    /// When the client issued the operation.
    pub issued_at: SimTime,
    /// When the consistency level was satisfied (or the timeout fired).
    pub completed_at: SimTime,
    /// Whether the operation met its consistency level.
    pub status: OpStatus,
    /// Number of replicas the operation involved (the consistency level in
    /// effect when it was issued).
    pub replicas_involved: u32,
    /// For reads: the version returned to the client.
    pub returned_version: Version,
    /// For reads: `true` if the returned version is older than the newest
    /// version acknowledged before the read was issued (ground-truth oracle).
    pub stale: bool,
    /// For stale reads: how many acknowledged writes the returned value lags
    /// behind (0 for fresh reads and writes).
    pub staleness_depth: u32,
    /// For reads: number of records in the data responses returned to the
    /// client (1/0 for point reads; for range scans, the scan's *coverage* —
    /// under hash partitioning the subset of the range the data replica
    /// owns, under the ordered partitioner the full contiguous range,
    /// gathered across ownership boundaries). 0 for writes; for timed-out
    /// reads, whatever partial data arrived before the timeout.
    pub records_returned: u32,
}

impl CompletedOp {
    /// Client-observed latency of the operation.
    pub fn latency(&self) -> concord_sim::SimDuration {
        self.completed_at - self.issued_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_sim::SimDuration;

    #[test]
    fn version_ordering_and_existence() {
        assert!(Version(2) > Version(1));
        assert!(!Version::NONE.exists());
        assert!(Version(1).exists());
    }

    #[test]
    fn key_display_matches_ycsb_style() {
        assert_eq!(Key(42).to_string(), "user42");
    }

    #[test]
    fn completed_op_latency() {
        let op = CompletedOp {
            id: OpId(1),
            kind: OpKind::Read,
            key: Key(1),
            issued_at: SimTime::from_millis(10),
            completed_at: SimTime::from_millis(14),
            status: OpStatus::Ok,
            replicas_involved: 1,
            returned_version: Version(3),
            stale: false,
            staleness_depth: 0,
            records_returned: 1,
        };
        assert_eq!(op.latency(), SimDuration::from_millis(4));
    }
}
