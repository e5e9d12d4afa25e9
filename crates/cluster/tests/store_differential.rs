//! Differential property test for the paged direct-index [`ReplicaStore`].
//!
//! The dense store replaced a hash-map-backed implementation; this test
//! keeps those semantics executable as a reference model (modulo one
//! deliberate fix, re-preload byte accounting — see `preload`) and drives random
//! operation streams (preloads, versioned writes, point reads, range reads)
//! through both, asserting identical results **and** identical meters (bytes
//! stored, key counts, storage I/O counters). Any divergence means the
//! direct-index layout changed behaviour, not just speed.

use concord_cluster::{Key, ReplicaStore, StoredValue, Version};
use concord_sim::{SimRng, SimTime};
use proptest::prelude::*;
use std::collections::HashMap;

/// The pre-refactor hash-map store, preserved as the reference model.
#[derive(Default)]
struct ReferenceStore {
    data: HashMap<Key, StoredValue>,
    bytes_stored: u64,
    write_ops: u64,
    read_ops: u64,
    superseded_writes: u64,
}

impl ReferenceStore {
    fn apply_write(&mut self, key: Key, version: Version, size: u32, _at: SimTime) -> bool {
        self.write_ops += 1;
        match self.data.get_mut(&key) {
            Some(existing) if existing.version >= version => {
                self.superseded_writes += 1;
                false
            }
            Some(existing) => {
                self.bytes_stored = self.bytes_stored - existing.size as u64 + size as u64;
                *existing = StoredValue { version, size };
                true
            }
            None => {
                self.bytes_stored += size as u64;
                self.data.insert(key, StoredValue { version, size });
                true
            }
        }
    }

    fn preload(&mut self, key: Key, version: Version, size: u32) {
        // Authoritative overwrite: replace the old payload's byte weight
        // (the historical map-backed store double-counted re-preloads; the
        // dense store fixed that, and the reference model matches).
        if let Some(old) = self.data.get(&key) {
            self.bytes_stored -= old.size as u64;
        }
        self.bytes_stored += size as u64;
        self.data.insert(key, StoredValue { version, size });
    }

    fn read(&mut self, key: Key) -> Option<StoredValue> {
        self.read_ops += 1;
        self.data.get(&key).copied()
    }

    /// Range read over the map: `len` point probes, byte-weighting the
    /// present records (the dense store does this as one streaming pass).
    fn read_range(&mut self, start: Key, len: u32) -> (Option<StoredValue>, u32, u64) {
        let len = len.max(1);
        self.read_ops += len as u64;
        let anchor = self.data.get(&start).copied();
        let mut records = 0u32;
        let mut bytes = 0u64;
        for off in 0..len as u64 {
            let Some(key) = start.0.checked_add(off) else {
                break;
            };
            if let Some(v) = self.data.get(&Key(key)) {
                records += 1;
                bytes += v.size as u64;
            }
        }
        (anchor, records, bytes)
    }
}

/// One differential run: `ops` random operations over a key space that spans
/// several pages (so page-boundary and never-written-page paths are hit).
fn run_differential(seed: u64, ops: usize) {
    let mut rng = SimRng::new(seed);
    let mut dense = ReplicaStore::new();
    let mut reference = ReferenceStore::default();
    // Far beyond one 4096-slot page, with a hole-y tail.
    let key_space = 3 * 4096 + rng.next_bounded(8192);
    let mut version = 0u64;

    for i in 0..ops {
        let key = Key(rng.next_bounded(key_space));
        match rng.next_bounded(10) {
            0 => {
                version += 1;
                dense.preload(key, Version(version), 100 + key.0 as u32 % 400);
                reference.preload(key, Version(version), 100 + key.0 as u32 % 400);
            }
            1..=4 => {
                // Mix fresh and deliberately stale versions so the
                // last-write-wins arm is exercised both ways.
                let v = if rng.next_bounded(4) == 0 && version > 1 {
                    1 + rng.next_bounded(version)
                } else {
                    version += 1;
                    version
                };
                let size = 50 + rng.next_bounded(1_000) as u32;
                let at = SimTime::from_micros(i as u64);
                let a = dense.apply_write(key, Version(v), size, at);
                let b = reference.apply_write(key, Version(v), size, at);
                prop_assert_eq!(a, b, "apply_write result diverged at op {}", i);
            }
            5..=7 => {
                prop_assert_eq!(dense.read(key), reference.read(key), "read diverged");
            }
            8 => {
                prop_assert_eq!(dense.peek(key), reference.data.get(&key).copied());
            }
            _ => {
                let len = 1 + rng.next_bounded(150) as u32;
                let r = dense.read_range(key, len);
                let (anchor, records, bytes) = reference.read_range(key, len);
                prop_assert_eq!(r.anchor, anchor, "range anchor diverged");
                prop_assert_eq!(r.records, records, "range record count diverged");
                prop_assert_eq!(r.bytes, bytes, "range byte weight diverged");
            }
        }
    }

    // Meters must agree exactly at the end of the stream.
    prop_assert_eq!(dense.bytes_stored(), reference.bytes_stored);
    prop_assert_eq!(dense.key_count(), reference.data.len());
    prop_assert_eq!(dense.read_ops(), reference.read_ops);
    prop_assert_eq!(dense.write_ops(), reference.write_ops);
    prop_assert_eq!(dense.superseded_writes(), reference.superseded_writes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn dense_store_matches_the_hashmap_reference(seed in 0u64..u64::MAX) {
        run_differential(seed, 3_000);
    }
}
