//! Differential property test for the row-per-key [`ReplicaStore`].
//!
//! The store keeps every holder's copy of a key in one row of `width`
//! tagged slots (plus a side map for holders that find the row full). This
//! test keeps the semantics it must have executable as a reference model —
//! one hash map over `(holder, key)`, the layout of a separate table per
//! node — and drives random operation streams (preloads, versioned writes,
//! point reads, peeks, range reads) from several holders through both,
//! asserting identical results, identical meters (bytes stored, copies,
//! storage I/O counters) **and** identical per-holder page digests. Five
//! holders share rows three slots wide, so full rows spill to the side map.
//! Any divergence means the layout changed behaviour, not just speed.

use concord_cluster::paged::PAGE_BITS;
use concord_cluster::{Key, ReplicaStore, StoredValue, Version};
use concord_sim::{NodeId, SimRng, SimTime};
use proptest::prelude::*;
use std::collections::HashMap;

/// A separate table per holder, as one hash map: the reference model.
#[derive(Default)]
struct ReferenceStore {
    data: HashMap<(NodeId, Key), StoredValue>,
    bytes_stored: u64,
    write_ops: u64,
    read_ops: u64,
    superseded_writes: u64,
}

impl ReferenceStore {
    fn apply_write(&mut self, holder: NodeId, key: Key, version: Version, size: u32) -> bool {
        self.write_ops += 1;
        match self.data.get_mut(&(holder, key)) {
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
                self.data
                    .insert((holder, key), StoredValue { version, size });
                true
            }
        }
    }

    fn preload(&mut self, holder: NodeId, key: Key, version: Version, size: u32) {
        // Authoritative overwrite: replace the old payload's byte weight.
        if let Some(old) = self.data.get(&(holder, key)) {
            self.bytes_stored -= old.size as u64;
        }
        self.bytes_stored += size as u64;
        self.data
            .insert((holder, key), StoredValue { version, size });
    }

    fn read(&mut self, holder: NodeId, key: Key) -> Option<StoredValue> {
        self.read_ops += 1;
        self.data.get(&(holder, key)).copied()
    }

    /// Range read over the map: `len` point probes, byte-weighting the
    /// holder's present copies (the store does this as one streaming pass).
    fn read_range(
        &mut self,
        holder: NodeId,
        start: Key,
        len: u32,
    ) -> (Option<StoredValue>, u32, u64) {
        let len = len.max(1);
        self.read_ops += len as u64;
        let anchor = self.data.get(&(holder, start)).copied();
        let mut records = 0u32;
        let mut bytes = 0u64;
        for off in 0..len as u64 {
            let Some(key) = start.0.checked_add(off) else {
                break;
            };
            if let Some(v) = self.data.get(&(holder, Key(key))) {
                records += 1;
                bytes += v.size as u64;
            }
        }
        (anchor, records, bytes)
    }

    /// `holder`'s per-page digests, XOR-ed from the map: one entry per page
    /// up to the holder's highest, 0 where it holds nothing.
    fn digests(&self, holder: NodeId) -> Vec<u64> {
        let mut pages = Vec::new();
        for (&(h, key), value) in &self.data {
            if h != holder {
                continue;
            }
            let page = (key.0 >> PAGE_BITS) as usize;
            if page >= pages.len() {
                pages.resize(page + 1, 0);
            }
            pages[page] ^= mix_record(key, value.version);
        }
        pages
    }
}

/// The page digest's contribution of one `(key, version)` copy, restated
/// from the store's documented definition (a splitmix64-style finalizer).
fn mix_record(key: Key, version: Version) -> u64 {
    let mut x = key
        .0
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(version.0.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// The store under test, driven through the holder-taking calls of a
/// cluster's store, or through the holder-less calls of a standalone one.
struct Dense {
    store: ReplicaStore,
    standalone: bool,
}

impl Dense {
    fn apply_write(&mut self, holder: NodeId, key: Key, version: Version, size: u32) -> bool {
        if self.standalone {
            return self.store.apply_write(key, version, size, SimTime::ZERO);
        }
        self.store.apply_write_on(holder, key, version, size)
    }

    fn preload(&mut self, holder: NodeId, key: Key, version: Version, size: u32) {
        if self.standalone {
            return self.store.preload(key, version, size);
        }
        self.store.preload_on(holder, key, version, size)
    }

    fn read(&mut self, holder: NodeId, key: Key) -> Option<StoredValue> {
        if self.standalone {
            return self.store.read(key);
        }
        self.store.read_on(holder, key)
    }

    fn read_range(
        &mut self,
        holder: NodeId,
        start: Key,
        len: u32,
    ) -> (Option<StoredValue>, u32, u64) {
        let r = if self.standalone {
            self.store.read_range(start, len)
        } else {
            self.store.read_range_on(holder, start, len)
        };
        (r.anchor, r.records, r.bytes)
    }
}

/// One differential run: `ops` random operations by `holders` nodes over a
/// key space that spans several pages (so page-boundary and never-written
/// page paths are hit), half of them on 64 hot keys (so rows fill up).
fn run_differential(seed: u64, ops: usize, width: usize, holders: u32) {
    let mut rng = SimRng::new(seed);
    let standalone = width == 1 && holders == 1;
    let mut dense = Dense {
        store: if standalone {
            ReplicaStore::with_summaries()
        } else {
            ReplicaStore::with_rows(width, true)
        },
        standalone,
    };
    let mut reference = ReferenceStore::default();
    // Far beyond one 4096-key page, with a hole-y tail.
    let key_space = 3 * 4096 + rng.next_bounded(8192);
    let mut version = 0u64;

    for i in 0..ops {
        let holder = NodeId(rng.next_bounded(holders as u64) as u32);
        let key = if rng.next_bounded(2) == 0 {
            Key(rng.next_bounded(64))
        } else {
            Key(rng.next_bounded(key_space))
        };
        match rng.next_bounded(10) {
            0 => {
                version += 1;
                let size = 100 + key.0 as u32 % 400;
                dense.preload(holder, key, Version(version), size);
                reference.preload(holder, key, Version(version), size);
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
                let a = dense.apply_write(holder, key, Version(v), size);
                let b = reference.apply_write(holder, key, Version(v), size);
                prop_assert_eq!(a, b, "apply_write result diverged at op {}", i);
            }
            5..=7 => {
                let (a, b) = (dense.read(holder, key), reference.read(holder, key));
                prop_assert_eq!(a, b, "read diverged at op {}", i);
            }
            8 => {
                let expected = reference.data.get(&(holder, key)).copied();
                prop_assert_eq!(dense.store.peek_on(holder, key), expected);
            }
            _ => {
                let len = 1 + rng.next_bounded(150) as u32;
                let a = dense.read_range(holder, key, len);
                let b = reference.read_range(holder, key, len);
                prop_assert_eq!(a, b, "range read diverged at op {}", i);
            }
        }
    }

    // Meters must agree exactly at the end of the stream.
    let store = &dense.store;
    prop_assert_eq!(store.bytes_stored(), reference.bytes_stored);
    prop_assert_eq!(store.key_count(), reference.data.len());
    prop_assert_eq!(store.read_ops(), reference.read_ops);
    prop_assert_eq!(store.write_ops(), reference.write_ops);
    prop_assert_eq!(store.superseded_writes(), reference.superseded_writes);
    // And so must every holder's page summary.
    for holder in (0..holders).map(NodeId) {
        let digests = reference.digests(holder);
        prop_assert_eq!(store.summary_pages(holder), digests.len());
        for (page, &digest) in digests.iter().enumerate() {
            prop_assert_eq!(store.page_digest(holder, page), digest, "page {}", page);
        }
    }
}

// The shim's default case count (64), which `PROPTEST_CASES` raises.
proptest! {
    #[test]
    fn dense_store_matches_the_hashmap_reference(seed in 0u64..u64::MAX) {
        run_differential(seed, 3_000, 3, 5);
    }

    #[test]
    fn a_standalone_store_is_the_one_holder_case(seed in 0u64..u64::MAX) {
        run_differential(seed, 1_000, 1, 1);
    }
}
