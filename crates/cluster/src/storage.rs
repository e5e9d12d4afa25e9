//! Per-replica local storage.
//!
//! Each simulated node owns a [`ReplicaStore`]: a versioned key-value table
//! with last-write-wins reconciliation plus the counters needed for the cost
//! model (bytes stored, storage I/O operations performed).
//!
//! ## Layout: paged direct indexing, no hashing
//!
//! Record keys are **dense `u64` record ids** — the workload generators
//! allocate them contiguously from 0 and assert they stay below the
//! configured record count (see `concord_workload::generators`). The store
//! exploits that contract: instead of a hash map it keeps its slots in a
//! [`PagedTable`] (the shared paged direct-index substrate, fixed 4096-slot
//! pages allocated on first write), so `read` / `apply_write` / `preload`
//! are a shift, a mask and a load — no hash, no probe sequence, no
//! tombstones. Under hash placement that load is a cache and TLB miss
//! (~150 ns in situ; the two lines that first touch a slot held 20 % of the
//! benchmark's headline run), so the cluster hints the slot one event early
//! through `ReplicaStore::prefetch` — see [`paged`](crate::paged). Vacancy
//! is this store's own convention, per the table's
//! contract: a slot is occupied iff its version is non-zero
//! ([`Version::NONE`] never names a real write, which the write paths
//! assert), so presence costs no extra bit.
//!
//! A slot is a 16-byte [`StoredValue`] — version and payload size, the two
//! fields reads, reconciliation, range scans and repair diffs consume.
//! Under hash placement every node replicates some key of every page, so a
//! cluster allocates about `nodes × records` slots and bulk load fills each
//! page on first touch: slot size is most of a run's memory and set-up
//! time, and a `const` assertion next to the type pins it.
//!
//! Sequential record ids are contiguous in memory, which is what makes the
//! YCSB-E range-read path ([`ReplicaStore::read_range`]) a streaming load
//! over `scan_len` adjacent slots rather than `scan_len` independent hash
//! lookups.
//!
//! Reads never allocate: probing a key whose page was never written returns
//! "absent" without materializing the page, so a scan running past the
//! loaded key space stays allocation-free.
//!
//! ## Per-page version summaries (anti-entropy digests)
//!
//! A store built with [`ReplicaStore::with_summaries`] also maintains one
//! 64-bit digest per page: the XOR of a mixed hash of every occupied
//! `(key, version)` pair on that page. The digest is updated incrementally
//! on every mutation — an overwrite XORs the old pair's contribution out
//! and the new pair's in, O(1) per write, no rescans — so two replicas hold
//! identical page contents iff (modulo 2^-64 collisions) their digests
//! match. Anti-entropy sweeps compare these summaries before diffing a page
//! ([`ReplicaStore::page_slots`]). What that prunes depends on placement,
//! and was measured: under `Partitioner::Ordered` the page granule (4096
//! slots) equals the ownership-slice granule, so two owners of a slice hold
//! the same page and converged pages are skipped; under hash placement two
//! nodes replicate *different subsets* of every key page, so every compared
//! page differs (145 620 of 145 620 on the benchmark's fault workload) and
//! the digests prune nothing — there the cluster's ring-ownership index,
//! which bounds a diff to the slots the receiver replicates, is what bounds
//! the work. Stores built with [`ReplicaStore::new`] skip the maintenance
//! entirely — the write path pays nothing for a repair plane that is
//! switched off.

use crate::paged::{PagedTable, PAGE_BITS, PAGE_MASK, PAGE_SLOTS};
use crate::types::{Key, StoredValue, Version};
use concord_sim::SimTime;

/// A vacant slot: version 0 ([`Version::NONE`]) marks absence.
const EMPTY_SLOT: StoredValue = StoredValue {
    version: Version::NONE,
    size: 0,
};

/// Aggregate result of one range read (see [`ReplicaStore::read_range`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeRead {
    /// The stored value of the range's anchor (first) record, if present.
    /// Reconciliation and staleness classification key off the anchor.
    pub anchor: Option<StoredValue>,
    /// Number of records present in the scanned range.
    pub records: u32,
    /// Total payload bytes of the present records (the byte weight of the
    /// data response).
    pub bytes: u64,
}

/// The local storage of one replica node: a [`PagedTable`] over dense record
/// ids (see the module docs for the layout).
#[derive(Debug, Clone)]
pub struct ReplicaStore {
    /// The slot table; a slot is occupied iff its version is non-zero.
    table: PagedTable<StoredValue>,
    /// Number of occupied slots (distinct keys stored).
    keys: usize,
    bytes_stored: u64,
    write_ops: u64,
    read_ops: u64,
    /// Writes ignored because a newer version was already present
    /// (late-arriving propagation after a concurrent overwrite).
    superseded_writes: u64,
    /// Per-page XOR digest over `mix(key, version)` of occupied slots (see
    /// the module docs); index = `key >> PAGE_BITS`, 0 for untouched pages.
    page_digests: Vec<u64>,
    /// Whether the digests above are maintained. Off by default so the
    /// write path pays no mixing cost when no repair plane will ever
    /// compare summaries.
    summaries_enabled: bool,
}

/// Mix one `(key, version)` pair into a 64-bit contribution (splitmix64-style
/// finalizer over the combined pair). Order-independent under XOR: equal page
/// contents produce equal digests regardless of write order.
#[inline]
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

impl Default for ReplicaStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplicaStore {
    /// An empty store without per-page version summaries (the default:
    /// writes skip digest maintenance entirely).
    pub fn new() -> Self {
        ReplicaStore {
            table: PagedTable::new(EMPTY_SLOT),
            keys: 0,
            bytes_stored: 0,
            write_ops: 0,
            read_ops: 0,
            superseded_writes: 0,
            page_digests: Vec::new(),
            summaries_enabled: false,
        }
    }

    /// An empty store that maintains per-page version summaries for
    /// anti-entropy comparison (see the module docs). Costs two 64-bit
    /// mixes per installed write.
    pub fn with_summaries() -> Self {
        ReplicaStore {
            summaries_enabled: true,
            ..Self::new()
        }
    }

    /// XOR `delta` into the digest of `key`'s page, growing the summary
    /// vector on first touch.
    #[inline]
    fn xor_page_digest(&mut self, key: Key, delta: u64) {
        let page = (key.0 >> PAGE_BITS) as usize;
        if page >= self.page_digests.len() {
            self.page_digests.resize(page + 1, 0);
        }
        self.page_digests[page] ^= delta;
    }

    /// The slot for `key`, if its page exists (never allocates).
    #[inline]
    fn slot(&self, key: Key) -> Option<&StoredValue> {
        self.table.get(key.0)
    }

    /// Hint `key`'s slot into cache ahead of the `read` or `apply_write`
    /// one service time later (see the module docs). Not storage I/O: no
    /// meter moves and nothing is allocated.
    #[inline]
    pub(crate) fn prefetch(&self, key: Key) {
        self.table.prefetch(key.0);
    }

    /// Apply a write. Returns `true` if the value was installed, `false` if a
    /// newer version was already present (last-write-wins). The apply time
    /// `_at` is not stored — nothing reads it back from a slot.
    pub fn apply_write(&mut self, key: Key, version: Version, size: u32, _at: SimTime) -> bool {
        debug_assert!(version.exists(), "writes carry a real (non-zero) version");
        self.write_ops += 1;
        let slot = self.table.get_mut(key.0);
        if slot.version >= version {
            // Occupied slots always beat the write here; a vacant slot
            // (version 0) can never reach this arm because real versions
            // are non-zero.
            self.superseded_writes += 1;
            return false;
        }
        let old_version = slot.version;
        if old_version.exists() {
            self.bytes_stored = self.bytes_stored - slot.size as u64 + size as u64;
        } else {
            self.keys += 1;
            self.bytes_stored += size as u64;
        }
        *slot = StoredValue { version, size };
        if self.summaries_enabled {
            let mut digest_delta = mix_record(key, version);
            if old_version.exists() {
                digest_delta ^= mix_record(key, old_version);
            }
            self.xor_page_digest(key, digest_delta);
        }
        true
    }

    /// Load a record directly (bulk load path: no I/O accounting, used to
    /// pre-populate the data set before the measured run). A re-preload of
    /// an existing key is an authoritative overwrite: the byte accounting
    /// replaces the old payload's size instead of double-counting it.
    pub fn preload(&mut self, key: Key, version: Version, size: u32) {
        debug_assert!(version.exists(), "preloads carry a real (non-zero) version");
        let slot = self.table.get_mut(key.0);
        let old_version = slot.version;
        if old_version.exists() {
            self.bytes_stored = self.bytes_stored - slot.size as u64 + size as u64;
        } else {
            self.keys += 1;
            self.bytes_stored += size as u64;
        }
        *slot = StoredValue { version, size };
        if self.summaries_enabled {
            let mut digest_delta = mix_record(key, version);
            if old_version.exists() {
                digest_delta ^= mix_record(key, old_version);
            }
            self.xor_page_digest(key, digest_delta);
        }
    }

    /// Read the current value of a key (counts as one storage read).
    pub fn read(&mut self, key: Key) -> Option<StoredValue> {
        self.read_ops += 1;
        self.peek(key)
    }

    /// Read `len` consecutive records starting at `start` (a YCSB-E range
    /// scan on this replica). Metered as `len` storage reads — every slot in
    /// the range is probed, present or not — and the result reports the
    /// byte weight of the present records for response-traffic accounting.
    /// Never allocates: ranges running past the written key space read as
    /// absent.
    pub fn read_range(&mut self, start: Key, len: u32) -> RangeRead {
        self.read_ops += len.max(1) as u64;
        let mut out = RangeRead {
            anchor: self.peek(start),
            records: 0,
            bytes: 0,
        };
        let mut key = start.0;
        let mut remaining = len.max(1);
        while remaining > 0 {
            let page_idx = (key >> PAGE_BITS) as usize;
            let slot_idx = (key & PAGE_MASK) as usize;
            // Slots to take from this page before crossing its boundary.
            let run = ((PAGE_SLOTS - slot_idx) as u32).min(remaining);
            if let Some(page) = self.table.page(page_idx) {
                for slot in &page[slot_idx..slot_idx + run as usize] {
                    if slot.version.exists() {
                        out.records += 1;
                        out.bytes += slot.size as u64;
                    }
                }
            }
            remaining -= run;
            key = match key.checked_add(run as u64) {
                Some(k) => k,
                None => break, // the key space ends; nothing further exists
            };
        }
        out
    }

    /// Peek without accounting (used by the staleness oracle and tests).
    pub fn peek(&self, key: Key) -> Option<StoredValue> {
        self.slot(key).copied().filter(|v| v.version.exists())
    }

    /// Number of distinct keys stored.
    pub fn key_count(&self) -> usize {
        self.keys
    }

    /// Total payload bytes currently stored on this replica.
    pub fn bytes_stored(&self) -> u64 {
        self.bytes_stored
    }

    /// Number of storage write operations performed (including superseded).
    pub fn write_ops(&self) -> u64 {
        self.write_ops
    }

    /// Number of storage read operations performed (range reads count one
    /// per record probed).
    pub fn read_ops(&self) -> u64 {
        self.read_ops
    }

    /// Number of writes that lost the last-write-wins race.
    pub fn superseded_writes(&self) -> u64 {
        self.superseded_writes
    }

    /// The version summary of page `page` (0 for pages never written, and
    /// always 0 unless the store was built with
    /// [`ReplicaStore::with_summaries`]). Two replicas whose digests match
    /// hold identical `(key, version)` contents on that page, modulo 64-bit
    /// XOR-hash collisions.
    pub fn page_digest(&self, page: usize) -> u64 {
        self.page_digests.get(page).copied().unwrap_or(0)
    }

    /// Number of page indices covered by this store's version summary (the
    /// anti-entropy comparison walks `0..summary_pages()` of both replicas).
    pub fn summary_pages(&self) -> usize {
        self.page_digests.len()
    }

    /// The raw slots of key page `page` (index = `key & PAGE_MASK`; vacant
    /// slots carry [`Version::NONE`]), or `None` if the page was never
    /// written — the source and destination side of an anti-entropy diff.
    /// Does not touch the I/O meters: callers account the stream as network
    /// traffic and replica writes, not local scans.
    pub fn page_slots(&self, page: usize) -> Option<&[StoredValue]> {
        self.table.page(page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_install_newest_version() {
        let mut s = ReplicaStore::new();
        assert!(s.apply_write(Key(1), Version(1), 100, SimTime::from_secs(1)));
        assert!(s.apply_write(Key(1), Version(3), 100, SimTime::from_secs(2)));
        // An older (late) version must not overwrite a newer one.
        assert!(!s.apply_write(Key(1), Version(2), 100, SimTime::from_secs(3)));
        assert_eq!(s.peek(Key(1)).unwrap().version, Version(3));
        assert_eq!(s.superseded_writes(), 1);
        assert_eq!(s.write_ops(), 3);
    }

    #[test]
    fn bytes_stored_tracks_value_sizes() {
        let mut s = ReplicaStore::new();
        s.apply_write(Key(1), Version(1), 100, SimTime::ZERO);
        s.apply_write(Key(2), Version(2), 50, SimTime::ZERO);
        assert_eq!(s.bytes_stored(), 150);
        // Overwriting key 1 with a larger value adjusts the total.
        s.apply_write(Key(1), Version(3), 300, SimTime::ZERO);
        assert_eq!(s.bytes_stored(), 350);
        assert_eq!(s.key_count(), 2);
    }

    #[test]
    fn reads_are_counted_and_return_values() {
        let mut s = ReplicaStore::new();
        s.preload(Key(7), Version(1), 10);
        assert_eq!(s.read(Key(7)).unwrap().version, Version(1));
        assert!(s.read(Key(8)).is_none());
        assert_eq!(s.read_ops(), 2);
        // preload does not count as a write op.
        assert_eq!(s.write_ops(), 0);
    }

    #[test]
    fn equal_version_does_not_reinstall() {
        let mut s = ReplicaStore::new();
        assert!(s.apply_write(Key(1), Version(5), 10, SimTime::ZERO));
        assert!(!s.apply_write(Key(1), Version(5), 10, SimTime::ZERO));
    }

    #[test]
    fn re_preload_replaces_byte_accounting() {
        let mut s = ReplicaStore::new();
        s.preload(Key(1), Version(1), 100);
        s.preload(Key(1), Version(2), 300);
        assert_eq!(s.bytes_stored(), 300, "overwrite, not double-count");
        assert_eq!(s.key_count(), 1);
        assert_eq!(s.peek(Key(1)).unwrap().version, Version(2));
    }

    #[test]
    fn sparse_high_keys_allocate_only_their_page() {
        let mut s = ReplicaStore::new();
        s.apply_write(
            Key(5 * PAGE_SLOTS as u64 + 3),
            Version(1),
            10,
            SimTime::ZERO,
        );
        assert_eq!(s.key_count(), 1);
        assert_eq!(s.table.allocated_pages(), 1);
        // Reading unwritten pages allocates nothing.
        assert!(s.peek(Key(0)).is_none());
        assert!(s.peek(Key(100 * PAGE_SLOTS as u64)).is_none());
        assert_eq!(s.table.allocated_pages(), 1);
    }

    #[test]
    fn prefetch_is_not_storage_io() {
        let mut s = ReplicaStore::with_summaries();
        s.apply_write(Key(1), Version(4), 10, SimTime::ZERO);
        s.read(Key(1));
        let meters = |s: &ReplicaStore| {
            (
                s.read_ops(),
                s.write_ops(),
                s.key_count(),
                s.bytes_stored(),
                s.page_digest(0),
                s.summary_pages(),
                s.table.allocated_pages(),
            )
        };
        let before = meters(&s);
        // Present, vacant on a live page, on an untouched page, out of range.
        for key in [1, 2, 50 * PAGE_SLOTS as u64, u64::MAX] {
            s.prefetch(Key(key));
        }
        assert_eq!(meters(&s), before);
        assert_eq!(s.peek(Key(1)).unwrap().version, Version(4));
    }

    #[test]
    fn range_reads_meter_every_probe_and_weigh_present_bytes() {
        let mut s = ReplicaStore::new();
        for k in 10..20u64 {
            s.preload(Key(k), Version(k), 100);
        }
        // Scan fully inside the populated range.
        let r = s.read_range(Key(12), 5);
        assert_eq!(r.records, 5);
        assert_eq!(r.bytes, 500);
        assert_eq!(r.anchor.unwrap().version, Version(12));
        assert_eq!(s.read_ops(), 5, "every probed slot counts as one read");
        // Scan running past the populated range: probes still metered,
        // absent slots weigh nothing.
        let r = s.read_range(Key(18), 10);
        assert_eq!(r.records, 2);
        assert_eq!(r.bytes, 200);
        assert_eq!(s.read_ops(), 15);
        // Scan starting on an absent anchor.
        let r = s.read_range(Key(100), 3);
        assert_eq!(r.anchor, None);
        assert_eq!(r.records, 0);
        assert_eq!(r.bytes, 0);
    }

    #[test]
    fn range_reads_cross_page_boundaries() {
        let mut s = ReplicaStore::new();
        let boundary = PAGE_SLOTS as u64;
        for k in (boundary - 3)..(boundary + 3) {
            s.preload(Key(k), Version(k + 1), 10);
        }
        let r = s.read_range(Key(boundary - 3), 6);
        assert_eq!(r.records, 6);
        assert_eq!(r.bytes, 60);
        assert_eq!(r.anchor.unwrap().version, Version(boundary - 2));
        // A scan whose middle page was never written skips it as absent.
        let far = 3 * boundary;
        s.preload(Key(far), Version(1_000_000), 7);
        let r = s.read_range(Key(far - 2), 4);
        assert_eq!(r.records, 1);
        assert_eq!(r.bytes, 7);
    }

    #[test]
    fn page_digests_track_contents_not_history() {
        let mut a = ReplicaStore::with_summaries();
        let mut b = ReplicaStore::with_summaries();
        assert_eq!(a.page_digest(0), 0, "untouched pages read as zero");
        assert_eq!(a.summary_pages(), 0);
        // Same final contents through different histories ⇒ same digest.
        a.apply_write(Key(1), Version(1), 10, SimTime::ZERO);
        a.apply_write(Key(1), Version(4), 10, SimTime::ZERO);
        a.apply_write(Key(2), Version(2), 10, SimTime::ZERO);
        b.preload(Key(2), Version(2), 10);
        b.apply_write(Key(1), Version(4), 10, SimTime::ZERO);
        assert_eq!(a.page_digest(0), b.page_digest(0));
        // Diverging one key splits the digests; re-converging re-joins them.
        a.apply_write(Key(2), Version(9), 10, SimTime::ZERO);
        assert_ne!(a.page_digest(0), b.page_digest(0));
        b.apply_write(Key(2), Version(9), 10, SimTime::ZERO);
        assert_eq!(a.page_digest(0), b.page_digest(0));
        // A superseded write changes nothing, digest included.
        let before = a.page_digest(0);
        assert!(!a.apply_write(Key(2), Version(5), 10, SimTime::ZERO));
        assert_eq!(a.page_digest(0), before);
        // Pages are independent.
        a.preload(Key(PAGE_SLOTS as u64 + 7), Version(1), 10);
        assert_eq!(a.summary_pages(), 2);
        assert_eq!(a.page_digest(0), before);
        assert_ne!(a.page_digest(1), 0);
    }

    #[test]
    fn default_stores_maintain_no_summaries() {
        let mut s = ReplicaStore::new();
        s.apply_write(Key(1), Version(1), 10, SimTime::ZERO);
        s.preload(Key(2), Version(2), 10);
        assert_eq!(s.summary_pages(), 0, "no digest vector is ever grown");
        assert_eq!(s.page_digest(0), 0);
        // Everything else behaves identically to a summarized store.
        assert_eq!(s.key_count(), 2);
        assert_eq!(s.bytes_stored(), 20);
    }

    #[test]
    fn page_slots_expose_whole_pages_without_metering() {
        let mut s = ReplicaStore::new();
        s.preload(Key(3), Version(30), 100);
        s.preload(Key(PAGE_SLOTS as u64 + 1), Version(7), 10);
        let page0 = s.page_slots(0).unwrap();
        assert_eq!(page0.len(), PAGE_SLOTS);
        assert_eq!((page0[3].version, page0[3].size), (Version(30), 100));
        assert!(!page0[4].version.exists(), "vacant slots read as version 0");
        assert_eq!(s.page_slots(1).unwrap()[1].version, Version(7));
        assert!(s.page_slots(9).is_none(), "unallocated pages have no slots");
        assert_eq!((s.read_ops(), s.write_ops()), (0, 0), "not storage I/O");
    }

    #[test]
    fn range_read_at_the_end_of_the_key_space_stops() {
        let mut s = ReplicaStore::new();
        let r = s.read_range(Key(u64::MAX - 1), 10);
        assert_eq!(r.records, 0);
        // Zero-length scans behave like one probe of the anchor.
        let r = s.read_range(Key(0), 0);
        assert_eq!(r.records, 0);
        assert!(r.anchor.is_none());
    }
}
