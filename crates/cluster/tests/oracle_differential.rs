//! Differential property test for the staleness oracle's slot + arena layout.
//!
//! The oracle used to keep one bounded `VecDeque` history inside every key's
//! slot, allocated at preload. It now keeps a 24-byte slot per key, leaves a
//! preloaded key's single baseline entry implicit, and moves the history to
//! a side arena on the first acknowledged write or second preload. This test
//! keeps the history-per-key oracle executable as the reference and drives
//! both with random streams — preloads, re-preloads, acks of keys never
//! preloaded, acks out of version and time order, more than 64 acks per key,
//! inline and retroactive classifications — asserting every classification,
//! every `expected_version` / `expected_version_at` answer and the final key
//! count agree. The oracle counts no reads; `tests/meters.rs` covers the
//! counting.

use concord_cluster::oracle::ReadClassification;
use concord_cluster::{Key, StalenessOracle, Version};
use concord_sim::{SimRng, SimTime};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

/// Retained history entries per key (the oracle's `DEPTH_HISTORY`).
const DEPTH_HISTORY: usize = 64;

/// The pre-refactor per-key state: the history lives in the slot from the
/// first preload on.
#[derive(Default)]
struct KeyHistory {
    latest_acked: Version,
    acked_writes: u64,
    /// (version, ack index, ack time), newest at the back.
    version_order: VecDeque<(Version, u64, SimTime)>,
    unsorted: bool,
}

impl KeyHistory {
    fn push_version(&mut self, version: Version, index: u64, at: SimTime) {
        if let Some(&(back, _, _)) = self.version_order.back() {
            if back > version {
                self.unsorted = true;
            }
        }
        self.version_order.push_back((version, index, at));
        if self.version_order.len() > DEPTH_HISTORY {
            self.version_order.pop_front();
        }
    }

    fn index_of(&self, version: Version) -> Option<u64> {
        if self.unsorted {
            return self
                .version_order
                .iter()
                .rev()
                .find(|(v, _, _)| *v == version)
                .map(|(_, i, _)| *i);
        }
        self.version_order
            .binary_search_by(|(v, _, _)| v.cmp(&version))
            .ok()
            .map(|i| self.version_order[i].1)
    }
}

/// The pre-refactor oracle, preserved as the reference model.
#[derive(Default)]
struct ReferenceOracle {
    keys: HashMap<Key, KeyHistory>,
}

impl ReferenceOracle {
    fn preload(&mut self, key: Key, version: Version) {
        let h = self.keys.entry(key).or_default();
        h.latest_acked = h.latest_acked.max(version);
        h.acked_writes += 1;
        let idx = h.acked_writes;
        h.push_version(version, idx, SimTime::ZERO);
    }

    fn record_ack(&mut self, key: Key, version: Version, at: SimTime) {
        let h = self.keys.entry(key).or_default();
        h.acked_writes += 1;
        let idx = h.acked_writes;
        h.push_version(version, idx, at);
        if version > h.latest_acked {
            h.latest_acked = version;
        }
    }

    fn expected_version(&self, key: Key) -> Version {
        self.keys
            .get(&key)
            .map(|h| h.latest_acked)
            .unwrap_or(Version::NONE)
    }

    fn expected_version_at(&self, key: Key, at: SimTime) -> Version {
        let Some(h) = self.keys.get(&key) else {
            return Version::NONE;
        };
        let mut best = Version::NONE;
        let mut any_before = false;
        for &(v, _, t) in &h.version_order {
            if t < at {
                any_before = true;
                if v > best {
                    best = v;
                }
            }
        }
        if any_before {
            best
        } else if h.acked_writes as usize > h.version_order.len() {
            h.version_order
                .front()
                .map(|&(v, _, _)| v)
                .unwrap_or(Version::NONE)
        } else {
            Version::NONE
        }
    }

    fn classify_read(&self, key: Key, expected: Version, returned: Version) -> ReadClassification {
        let stale = returned < expected;
        let depth = if !stale {
            0
        } else {
            match self.keys.get(&key) {
                None => 1,
                Some(h) => {
                    let expected_idx = h.index_of(expected).unwrap_or(0);
                    let returned_idx = h.index_of(returned).unwrap_or(0);
                    expected_idx.saturating_sub(returned_idx).max(1) as u32
                }
            }
        };
        ReadClassification { stale, depth }
    }

    fn classify_read_at(
        &self,
        key: Key,
        issued_at: SimTime,
        returned: Version,
    ) -> ReadClassification {
        let expected = self.expected_version_at(key, issued_at);
        self.classify_read(key, expected, returned)
    }
}

/// One differential run of `ops` random operations. Half of them hit eight
/// hot keys, so those collect well over [`DEPTH_HISTORY`] acks; the rest
/// spread over three pages with a never-written tail.
fn run_differential(seed: u64, ops: usize) {
    let mut rng = SimRng::new(seed);
    let mut oracle = StalenessOracle::new();
    let mut reference = ReferenceOracle::default();
    let key_space = 2 * 4096 + rng.next_bounded(4096);
    // Versions handed out so far per key (what a read might return), and
    // writes in flight: allocated in order, acknowledged in any order.
    let mut written: HashMap<Key, Vec<Version>> = HashMap::new();
    let mut in_flight: Vec<(Key, Version)> = Vec::new();
    let mut next_version = 0u64;
    let mut now_us = 0u64;

    for i in 0..ops {
        let key = if rng.next_bounded(2) == 0 {
            Key(rng.next_bounded(8) * 1_021)
        } else {
            Key(rng.next_bounded(key_space))
        };
        now_us += rng.next_bounded(3);
        // What this key's read returns: nothing, one of its versions, or a
        // version it never had.
        let returned = match (rng.next_bounded(8), written.get(&key)) {
            (0, _) | (_, None) => Version::NONE,
            (1, _) => Version(1 + rng.next_bounded(next_version.max(1))),
            (_, Some(versions)) => versions[rng.next_bounded(versions.len() as u64) as usize],
        };
        match rng.next_bounded(16) {
            0..=2 => {
                // Preload — a first one, or a re-preload over anything. One
                // in four reuses an old version number (the `max` arm).
                let version = if rng.next_bounded(4) == 0 && next_version > 0 {
                    Version(1 + rng.next_bounded(next_version))
                } else {
                    next_version += 1;
                    Version(next_version)
                };
                oracle.preload(key, version);
                reference.preload(key, version);
                written.entry(key).or_default().push(version);
            }
            3..=5 => {
                next_version += 1;
                in_flight.push((key, Version(next_version)));
                written.entry(key).or_default().push(Version(next_version));
            }
            6..=8 => {
                // Acknowledge a random in-flight write (so acks of one key
                // land out of version order), now or — like a window close
                // interleaving shards — slightly in the past.
                if !in_flight.is_empty() {
                    let pick = rng.next_bounded(in_flight.len() as u64) as usize;
                    let (key, version) = in_flight.swap_remove(pick);
                    let at = SimTime::from_micros(now_us.saturating_sub(rng.next_bounded(4)));
                    oracle.record_ack(key, version, at);
                    reference.record_ack(key, version, at);
                }
            }
            9..=11 => {
                let expected = oracle.expected_version(key);
                prop_assert_eq!(expected, reference.expected_version(key), "op {}", i);
                prop_assert_eq!(
                    oracle.classify_read(key, expected, returned),
                    reference.classify_read(key, expected, returned),
                    "classify_read diverged at op {}",
                    i
                );
            }
            12..=13 => {
                let issued_at = SimTime::from_micros(rng.next_bounded(now_us + 3));
                prop_assert_eq!(
                    oracle.classify_read_at(key, issued_at, returned),
                    reference.classify_read_at(key, issued_at, returned),
                    "classify_read_at diverged at op {}",
                    i
                );
            }
            14 => {
                let at = SimTime::from_micros(rng.next_bounded(now_us + 3));
                prop_assert_eq!(
                    oracle.expected_version_at(key, at),
                    reference.expected_version_at(key, at),
                    "expected_version_at diverged at op {}",
                    i
                );
            }
            _ => {
                // An arbitrary expectation, not only the current one.
                let expected = Version(rng.next_bounded(next_version + 2));
                prop_assert_eq!(
                    oracle.classify_read(key, expected, returned),
                    reference.classify_read(key, expected, returned),
                    "classify_read diverged at op {} (arbitrary expectation)",
                    i
                );
            }
        }
    }

    prop_assert_eq!(oracle.key_count(), reference.keys.len());
    let deepest = reference.keys.values().map(|h| h.acked_writes).max();
    prop_assert!(
        deepest.unwrap_or(0) > DEPTH_HISTORY as u64,
        "the stream must push some key past the retained history"
    );
}

proptest! {
    #[test]
    fn slot_and_arena_oracle_matches_the_history_per_key_reference(seed in 0u64..u64::MAX) {
        run_differential(seed, 6_000);
    }
}
