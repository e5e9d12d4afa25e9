//! Replica storage: the versioned copies the nodes hold.
//!
//! A [`ReplicaStore`] holds the copies of a group of holder nodes — in a
//! cluster, every node of one event lane — as a versioned key-value table
//! per holder, with last-write-wins reconciliation, plus the counters the
//! cost model needs (bytes stored, storage I/O operations performed). The
//! counters are whole-store totals; a cluster sums them over its stores.
//!
//! ## Layout: one row of RF slots per key, no hashing
//!
//! Record keys are **dense `u64` record ids** — the workload generators
//! allocate them contiguously from 0 and assert they stay below the
//! configured record count (see `concord_workload::generators`). The store
//! exploits that contract: instead of a hash map it keeps one row per key in
//! a [`PagedTable`] (the shared paged direct-index substrate: rows of
//! `width` slots, pages of 4096 rows allocated on first write). A cluster's
//! rows are the replication factor wide, one slot per replica of the key,
//! so the table takes `records × RF × 16 B` — the size of the data — and a
//! key's replicas share one or two cache lines. A standalone store
//! ([`ReplicaStore::new`]) has rows one slot wide and one holder.
//!
//! A slot is a 16-byte `{version, size, holder, spill mask}`: the two
//! fields reads, reconciliation, range scans and repair diffs consume, the
//! 16-bit id of the node whose copy it is, and a byte used on a row's last
//! slot (below); the last two fill what is padding in a [`StoredValue`]. A
//! holder's copy of a key is the row entry tagged with its id, and its
//! first write to the key takes the row's first vacant entry — so `read` / `apply_write` / `preload` are a shift, a mask, a
//! multiply, a load and a compare per entry: no hash, no probe sequence, no
//! tombstones, no ring lookup. A tag, not the holder's position in the
//! key's ring row, because a crash or a recovery rebuilds the ring and moves
//! positions, while a tag stays with its copy. Vacancy is this store's own
//! convention, per the table's contract: a slot is occupied iff its version
//! is non-zero ([`Version::NONE`] never names a real write, which the write
//! paths assert), so presence costs no extra bit. Rows never shrink, so the
//! vacant entries of a row are its suffix.
//!
//! Under hash placement the row is probed at scrambled keys, a cache and
//! TLB miss (~150 ns in situ), so the cluster hints it one event early
//! through `ReplicaStore::prefetch` — see [`paged`](crate::paged).
//!
//! **Out-of-row holders.** A key can have more holders than its row has
//! entries: when a replica crashes, a stand-in takes its place in the ring
//! while the crashed node keeps its copy, and after the recovery the
//! stand-in keeps what it was sent. A holder that finds its key's row full
//! without an entry of its own keeps its copy in a side map keyed by
//! `(holder, key)`, and sets bit `holder % 8` of the spill mask on the
//! row's last slot. Only a full row without a match whose mask has the
//! reader's bit consults the map — so a scan or a repair diff past rows
//! that never spilled pays no hash — and nothing iterates it, so its order
//! never reaches output.
//!
//! Sequential record ids are adjacent rows in memory, which is what makes
//! the YCSB-E range-read path ([`ReplicaStore::read_range_on`]) a streaming
//! pass over `scan_len` adjacent rows rather than `scan_len` independent
//! hash lookups.
//!
//! Reads never allocate: probing a key whose page was never written returns
//! "absent" without materializing the page, so a scan running past the
//! loaded key space stays allocation-free. A key whose row would reach past
//! the table's 2^32-slot space reads as absent, and writing it panics.
//!
//! ## Per-page version summaries (anti-entropy digests)
//!
//! A store built with summaries also maintains one 64-bit digest per
//! `(holder, key page)`: the XOR of a mixed hash of every `(key, version)`
//! copy the holder has on that page of 4096 keys. The digest is updated
//! incrementally on every mutation — an overwrite XORs the old pair's
//! contribution out and the new pair's in, O(1) per write, no rescans — so
//! two holders have identical copies on a page iff (modulo 2^-64
//! collisions) their digests match. Anti-entropy sweeps compare these
//! summaries before diffing a page. What that prunes depends on placement,
//! and was measured: under `Partitioner::Ordered` the key page (4096 keys)
//! equals the ownership-slice granule, so two owners of a slice hold the
//! same page and converged pages are skipped; under hash placement two
//! nodes replicate *different subsets* of every key page, so every compared
//! page differs (145 620 of 145 620 on the benchmark's fault workload) and
//! the digests prune nothing — there the cluster's ring-ownership index,
//! which bounds a diff to the keys the receiver replicates, is what bounds
//! the work. Stores built without summaries skip the maintenance entirely —
//! the write path pays nothing for a repair plane that is switched off.

use crate::paged::{prefetch, PagedTable, PAGE_BITS, PAGE_MASK, PAGE_SLOTS};
use crate::types::{Key, StoredValue, Version};
use concord_sim::{NodeId, SimTime};
use std::collections::HashMap;

/// One entry of a key's row: one holder's copy of the key.
#[derive(Debug, Clone, Copy)]
struct Slot {
    version: Version,
    size: u32,
    /// The id of the node whose copy this is (never read while the slot is
    /// vacant): 16 bits, as `ClusterConfig::validate` caps clusters at
    /// 65 536 nodes.
    holder: u16,
    /// On a row's last slot: which holders of the key spilled to the side
    /// map, as bit `holder % 8`. A full row without a match consults the
    /// map only when the reader's bit is set.
    spilled: u8,
}

// Every replica of every loaded record fills one of these; see `paged`.
const _: () = assert!(std::mem::size_of::<Slot>() == 16);

/// A vacant slot: version 0 ([`Version::NONE`]) marks absence.
const VACANT: Slot = Slot {
    version: Version::NONE,
    size: 0,
    holder: 0,
    spilled: 0,
};

/// The holder of every copy in a standalone store ([`ReplicaStore::new`]).
const SOLE_HOLDER: NodeId = NodeId(0);

/// `holder`'s bit in a row's spill mask.
#[inline]
fn spill_bit(holder: NodeId) -> u8 {
    1 << (holder.0 % 8)
}

/// `holder`'s 16-bit slot tag.
///
/// # Panics
/// Panics if the id does not fit 16 bits (a cluster has at most 65 536
/// nodes).
#[inline]
fn holder_tag(holder: NodeId) -> u16 {
    u16::try_from(holder.0)
        .unwrap_or_else(|_| panic!("holder {} is past the store's 16-bit node ids", holder.0))
}

impl Slot {
    fn value(&self) -> StoredValue {
        StoredValue {
            version: self.version,
            size: self.size,
        }
    }

    /// Make this slot `holder`'s copy `(version, size)` and return what it
    /// held. The row's spill mask stays. Every write path replaces a slot
    /// it claimed vacant, since a real version beats version 0.
    #[inline]
    fn replace(&mut self, holder: NodeId, version: Version, size: u32) -> Slot {
        let old = *self;
        *self = Slot {
            version,
            size,
            holder: holder_tag(holder),
            spilled: old.spilled,
        };
        old
    }
}

/// Aggregate result of one range read (see [`ReplicaStore::read_range_on`]).
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

/// The copies a group of holder nodes keep: a [`PagedTable`] of per-key
/// rows over dense record ids (see the module docs for the layout).
#[derive(Debug, Clone)]
pub struct ReplicaStore {
    /// One row of `width` slots per key; a slot is occupied iff its version
    /// is non-zero.
    table: PagedTable<Slot>,
    /// The copies of holders that found their key's row full without an
    /// entry of their own (see the module docs). Never iterated.
    side: HashMap<(NodeId, Key), Slot>,
    /// Number of occupied slots, rows and side map together: the
    /// `(holder, key)` copies stored.
    copies: usize,
    bytes_stored: u64,
    write_ops: u64,
    read_ops: u64,
    /// Writes ignored because a newer version was already present
    /// (late-arriving propagation after a concurrent overwrite).
    superseded_writes: u64,
    /// Per-holder, per-page XOR digest over `mix(key, version)` of the
    /// holder's copies (see the module docs): `page_digests[holder][key >>
    /// PAGE_BITS]`, 0 for untouched pages.
    page_digests: Vec<Vec<u64>>,
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
    /// An empty standalone store: one holder, rows one slot wide, no
    /// per-page version summaries (writes skip digest maintenance).
    pub fn new() -> Self {
        Self::with_rows(1, false)
    }

    /// An empty standalone store that maintains per-page version summaries
    /// for anti-entropy comparison (see the module docs). Costs two 64-bit
    /// mixes per installed write.
    pub fn with_summaries() -> Self {
        Self::with_rows(1, true)
    }

    /// An empty store whose rows hold `width` copies of each key — the
    /// replication factor — maintaining per-page version summaries iff
    /// `summaries`.
    pub fn with_rows(width: usize, summaries: bool) -> Self {
        ReplicaStore {
            table: PagedTable::new(VACANT, width),
            side: HashMap::new(),
            copies: 0,
            bytes_stored: 0,
            write_ops: 0,
            read_ops: 0,
            superseded_writes: 0,
            page_digests: Vec::new(),
            summaries_enabled: summaries,
        }
    }

    /// XOR `delta` into the digest of `holder`'s page of `key`, growing the
    /// holder's summary vector on first touch.
    #[inline]
    fn xor_page_digest(&mut self, holder: NodeId, key: Key, delta: u64) {
        let holder = holder.0 as usize;
        if holder >= self.page_digests.len() {
            self.page_digests.resize_with(holder + 1, Vec::new);
        }
        let digests = &mut self.page_digests[holder];
        let page = (key.0 >> PAGE_BITS) as usize;
        if page >= digests.len() {
            digests.resize(page + 1, 0);
        }
        digests[page] ^= delta;
    }

    /// `holder`'s copy of `key` given the key's `row`: the entry tagged
    /// with `holder`, or — when the row is full without one and its spill
    /// mask has `holder`'s bit — its side-map entry.
    #[inline]
    fn find(&self, holder: NodeId, key: Key, row: &[Slot]) -> Option<StoredValue> {
        let tag = u16::try_from(holder.0).ok()?;
        // One compare per entry: a vacant slot's tag can equal `tag`, but
        // its version never exists.
        for slot in row {
            if slot.holder == tag && slot.version.exists() {
                return Some(slot.value());
            }
        }
        // A row spills only when full, so a vacant last slot has no bits.
        if row[row.len() - 1].spilled & spill_bit(holder) == 0 {
            return None;
        }
        self.side_copy(holder, key)
    }

    /// `holder`'s side-map copy of `key`. Out of line, so that `find`
    /// inlines into the scan and diff loops.
    #[cold]
    #[inline(never)]
    fn side_copy(&self, holder: NodeId, key: Key) -> Option<StoredValue> {
        self.side.get(&(holder, key)).map(Slot::value)
    }

    /// `holder`'s slot for `key`: its row entry, else the row's first vacant
    /// entry, else (the row is full) its side-map entry, marking it in the
    /// row's spill mask. A vacant slot returned here is claimed by the
    /// install that follows (see [`Slot::replace`]).
    #[inline]
    fn slot_mut(&mut self, holder: NodeId, key: Key) -> &mut Slot {
        let tag = holder_tag(holder);
        let row = self.table.row_mut(key.0);
        match row
            .iter()
            .position(|s| !s.version.exists() || s.holder == tag)
        {
            Some(i) => &mut row[i],
            None => {
                row[row.len() - 1].spilled |= spill_bit(holder);
                self.side.entry((holder, key)).or_insert(VACANT)
            }
        }
    }

    /// Meter `holder`'s copy of `key` going from `old` to `(version,
    /// size)`: bytes stored, copies and, if maintained, the page digest.
    #[inline]
    fn account(&mut self, holder: NodeId, key: Key, old: Slot, version: Version, size: u32) {
        if old.version.exists() {
            self.bytes_stored = self.bytes_stored - old.size as u64 + size as u64;
        } else {
            self.copies += 1;
            self.bytes_stored += size as u64;
        }
        if self.summaries_enabled {
            let mut digest_delta = mix_record(key, version);
            if old.version.exists() {
                digest_delta ^= mix_record(key, old.version);
            }
            self.xor_page_digest(holder, key, digest_delta);
        }
    }

    /// Hint `key`'s row into cache ahead of the `read_on` or
    /// `apply_write_on` one service time later (see the module docs). Not
    /// storage I/O: no meter moves and nothing is allocated.
    #[inline]
    pub(crate) fn prefetch(&self, key: Key) {
        self.table.prefetch(key.0);
    }

    /// Apply a write to `holder`'s copy of `key`. Returns `true` if the
    /// value was installed, `false` if a newer version was already present
    /// (last-write-wins).
    ///
    /// # Panics
    /// Panics if `key`'s row lies past the table's 2^32-slot space (the
    /// key-density contract).
    pub fn apply_write_on(
        &mut self,
        holder: NodeId,
        key: Key,
        version: Version,
        size: u32,
    ) -> bool {
        debug_assert!(version.exists(), "writes carry a real (non-zero) version");
        self.write_ops += 1;
        let slot = self.slot_mut(holder, key);
        if slot.version >= version {
            // Occupied slots always beat the write here; a vacant slot
            // (version 0) can never reach this arm because real versions
            // are non-zero.
            self.superseded_writes += 1;
            return false;
        }
        let old = slot.replace(holder, version, size);
        self.account(holder, key, old, version, size);
        true
    }

    /// Load `holder`'s copy of a record directly (bulk load path: no I/O
    /// accounting, used to pre-populate the data set before the measured
    /// run). A re-preload of an existing copy is an authoritative
    /// overwrite: the byte accounting replaces the old payload's size
    /// instead of double-counting it.
    ///
    /// # Panics
    /// As [`ReplicaStore::apply_write_on`].
    pub fn preload_on(&mut self, holder: NodeId, key: Key, version: Version, size: u32) {
        debug_assert!(version.exists(), "preloads carry a real (non-zero) version");
        let slot = self.slot_mut(holder, key);
        let old = slot.replace(holder, version, size);
        self.account(holder, key, old, version, size);
    }

    /// Read `holder`'s copy of a key (counts as one storage read).
    #[inline]
    pub fn read_on(&mut self, holder: NodeId, key: Key) -> Option<StoredValue> {
        self.read_ops += 1;
        self.peek_on(holder, key)
    }

    /// Read `holder`'s copies of `len` consecutive records starting at
    /// `start` (a YCSB-E range scan on that replica). Metered as `len`
    /// storage reads — every row in the range is probed, the holder's copy
    /// present or not — and the result reports the byte weight of the
    /// present copies for response-traffic accounting. Never allocates:
    /// ranges running past the written key space read as absent.
    pub fn read_range_on(&mut self, holder: NodeId, start: Key, len: u32) -> RangeRead {
        let len = len.max(1);
        self.read_ops += len as u64;
        let width = self.table.width();
        let mut out = RangeRead {
            anchor: self.peek_on(holder, start),
            records: 0,
            bytes: 0,
        };
        let mut key = start.0;
        let mut remaining = len;
        while remaining > 0 {
            let page_idx = (key >> PAGE_BITS) as usize;
            let first = (key & PAGE_MASK) as usize;
            // Rows to take from this page before crossing its boundary.
            let run = ((PAGE_SLOTS - first) as u32).min(remaining);
            if let Some(page) = self.table.page(page_idx) {
                let rows = page[first * width..(first + run as usize) * width].chunks_exact(width);
                for (k, row) in (key..).zip(rows) {
                    if let Some(v) = self.find(holder, Key(k), row) {
                        out.records += 1;
                        out.bytes += v.size as u64;
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

    /// `holder`'s copy of a key, without accounting (repair diffs, the
    /// cluster's test accessor, tests).
    #[inline]
    pub fn peek_on(&self, holder: NodeId, key: Key) -> Option<StoredValue> {
        self.find(holder, key, self.table.row(key.0)?)
    }

    /// The first key at or after position `cursor` of `offsets` (ascending
    /// in-page offsets into key page `page`) whose copy by `from` in this
    /// store is strictly newer than `to`'s in `dst`, with that copy and the
    /// position to resume from — an anti-entropy diff `from → to`, reading
    /// both copies from the key's row without accounting. The source page
    /// is looked up once, not per key.
    pub(crate) fn next_newer(
        &self,
        from: NodeId,
        dst: &ReplicaStore,
        to: NodeId,
        page: usize,
        offsets: &[u16],
        cursor: usize,
    ) -> Option<(usize, Key, StoredValue)> {
        // A side-map copy has a full row, so no page means no copy at all.
        let rows = self.table.page(page)?;
        let width = self.table.width();
        let base = (page as u64) << PAGE_BITS;
        (cursor..offsets.len()).find_map(|i| {
            // The offsets visit about RF / nodes of the rows, too sparse a
            // walk for the hardware prefetcher: hint a row eight keys ahead
            // (about a tenth off the diff's time on the fault workload).
            if let Some(&ahead) = offsets.get(i + 8) {
                prefetch(&rows[ahead as usize * width]);
            }
            let off = offsets[i] as usize;
            let key = Key(base + off as u64);
            let record = self.find(from, key, &rows[off * width..(off + 1) * width])?;
            let held = dst.peek_on(to, key).map_or(Version::NONE, |v| v.version);
            (record.version > held).then_some((i + 1, key, record))
        })
    }

    /// [`ReplicaStore::apply_write_on`] by a standalone store's one holder.
    /// The apply time `_at` is not stored — nothing reads it back.
    pub fn apply_write(&mut self, key: Key, version: Version, size: u32, _at: SimTime) -> bool {
        self.apply_write_on(SOLE_HOLDER, key, version, size)
    }

    /// [`ReplicaStore::preload_on`] by a standalone store's one holder.
    pub fn preload(&mut self, key: Key, version: Version, size: u32) {
        self.preload_on(SOLE_HOLDER, key, version, size)
    }

    /// [`ReplicaStore::read_on`] by a standalone store's one holder.
    pub fn read(&mut self, key: Key) -> Option<StoredValue> {
        self.read_on(SOLE_HOLDER, key)
    }

    /// [`ReplicaStore::read_range_on`] by a standalone store's one holder.
    pub fn read_range(&mut self, start: Key, len: u32) -> RangeRead {
        self.read_range_on(SOLE_HOLDER, start, len)
    }

    /// Number of copies stored: distinct `(holder, key)` pairs (distinct
    /// keys in a standalone store).
    pub fn key_count(&self) -> usize {
        self.copies
    }

    /// Total payload bytes of every copy in the store.
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

    /// The version summary of `holder`'s copies on key page `page` (0 for
    /// pages it never wrote, and always 0 unless the store maintains
    /// summaries). Two holders whose digests match hold identical `(key,
    /// version)` copies on that page, modulo 64-bit XOR-hash collisions.
    pub fn page_digest(&self, holder: NodeId, page: usize) -> u64 {
        let digests = self.page_digests.get(holder.0 as usize);
        digests.and_then(|d| d.get(page)).copied().unwrap_or(0)
    }

    /// Number of key pages covered by `holder`'s version summary (the
    /// anti-entropy comparison walks `0..summary_pages()` of both holders).
    pub fn summary_pages(&self, holder: NodeId) -> usize {
        self.page_digests.get(holder.0 as usize).map_or(0, Vec::len)
    }

    /// Pages allocated and the slots each holds (memory tests).
    #[cfg(test)]
    pub(crate) fn allocation(&self) -> (usize, usize) {
        let page_len = PAGE_SLOTS * self.table.width();
        (self.table.allocated_pages(), page_len)
    }

    /// Copies kept outside their key's row (tests).
    #[cfg(test)]
    pub(crate) fn side_copies(&self) -> usize {
        self.side.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: NodeId = SOLE_HOLDER;

    /// The last key whose row of `width` slots fits the 2^32-slot space.
    fn last_key(width: u64) -> Key {
        Key(crate::paged::SLOT_SPACE / width - 1)
    }

    #[test]
    fn writes_install_newest_version() {
        let mut s = ReplicaStore::new();
        assert!(s.apply_write(Key(1), Version(1), 100, SimTime::from_secs(1)));
        assert!(s.apply_write(Key(1), Version(3), 100, SimTime::from_secs(2)));
        // An older (late) version must not overwrite a newer one.
        assert!(!s.apply_write(Key(1), Version(2), 100, SimTime::from_secs(3)));
        assert_eq!(s.peek_on(H, Key(1)).unwrap().version, Version(3));
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
        assert_eq!(s.peek_on(H, Key(1)).unwrap().version, Version(2));
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
        assert!(s.peek_on(H, Key(0)).is_none());
        assert!(s.peek_on(H, Key(100 * PAGE_SLOTS as u64)).is_none());
        assert_eq!(s.table.allocated_pages(), 1);
    }

    #[test]
    fn holders_share_a_row_and_a_full_row_spills_to_the_side_map() {
        let (a, b, c) = (NodeId(4), NodeId(9), NodeId(2));
        let mut s = ReplicaStore::with_rows(2, true);
        s.preload_on(a, Key(5), Version(1), 10);
        s.preload_on(b, Key(5), Version(1), 10);
        assert!(s.side.is_empty(), "two holders fill a row of two");
        let spilled = |s: &ReplicaStore| s.table.row(5).unwrap()[1].spilled;
        assert_eq!(spilled(&s), 0);
        // A third holder finds the row full without an entry of its own.
        assert!(s.apply_write_on(c, Key(5), Version(3), 30));
        assert_eq!(s.side.len(), 1);
        assert_eq!(spilled(&s), 1 << 2, "the row's last slot marks holder 2");
        assert!(s.apply_write_on(b, Key(5), Version(5), 10));
        assert_eq!(spilled(&s), 1 << 2, "and keeps the mark through its writes");
        assert!(
            !s.apply_write_on(c, Key(5), Version(2), 20),
            "last write wins"
        );
        assert!(s.apply_write_on(a, Key(5), Version(4), 40));
        assert_eq!(s.side.len(), 1, "a row holder never moves to the side map");
        let version = |s: &ReplicaStore, h| s.peek_on(h, Key(5)).map(|v| v.version);
        assert_eq!(version(&s, a), Some(Version(4)));
        assert_eq!(version(&s, b), Some(Version(5)));
        assert_eq!(version(&s, c), Some(Version(3)));
        assert_eq!(version(&s, NodeId(7)), None, "no copy, full row or not");
        assert_eq!(
            version(&s, NodeId(10)),
            None,
            "holder 2's spill bit, no copy"
        );
        let row: Vec<_> = s.table.row(5).unwrap().iter().map(|v| v.holder).collect();
        assert_eq!(row, [4, 9], "entries in first-write order, tagged");
        // Totals count every copy; digests are per holder.
        assert_eq!(s.key_count(), 3);
        assert_eq!(s.bytes_stored(), 40 + 10 + 30);
        assert_eq!(
            s.read_range_on(c, Key(4), 3).records,
            1,
            "scans see the side map"
        );
        assert_eq!(s.page_digest(c, 0), mix_record(Key(5), Version(3)));
        assert_eq!(s.page_digest(b, 0), mix_record(Key(5), Version(5)));
        assert_eq!(s.summary_pages(a), 1);
        assert_eq!(s.summary_pages(NodeId(7)), 0);
    }

    #[test]
    fn prefetch_is_not_storage_io() {
        for width in [1, 3] {
            let mut s = ReplicaStore::with_rows(width, true);
            s.apply_write_on(H, Key(1), Version(4), 10);
            s.read_on(H, Key(1));
            let meters = |s: &ReplicaStore| {
                (
                    s.read_ops(),
                    s.write_ops(),
                    s.key_count(),
                    s.bytes_stored(),
                    s.page_digest(H, 0),
                    s.summary_pages(H),
                    s.table.allocated_pages(),
                )
            };
            let before = meters(&s);
            // Present, vacant on a live page, on an untouched page, and
            // rows past the slot space (the last three wrap `key · 3`).
            let last = last_key(width as u64).0;
            for key in [1, 2, 50 * PAGE_SLOTS as u64, last, last + 1]
                .into_iter()
                .chain([u64::MAX / 2, u64::MAX])
            {
                s.prefetch(Key(key));
            }
            assert_eq!(meters(&s), before);
            assert_eq!(s.peek_on(H, Key(1)).unwrap().version, Version(4));
        }
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
        assert_eq!(a.page_digest(H, 0), 0, "untouched pages read as zero");
        assert_eq!(a.summary_pages(H), 0);
        // Same final contents through different histories ⇒ same digest.
        a.apply_write(Key(1), Version(1), 10, SimTime::ZERO);
        a.apply_write(Key(1), Version(4), 10, SimTime::ZERO);
        a.apply_write(Key(2), Version(2), 10, SimTime::ZERO);
        b.preload(Key(2), Version(2), 10);
        b.apply_write(Key(1), Version(4), 10, SimTime::ZERO);
        assert_eq!(a.page_digest(H, 0), b.page_digest(H, 0));
        // Diverging one key splits the digests; re-converging re-joins them.
        a.apply_write(Key(2), Version(9), 10, SimTime::ZERO);
        assert_ne!(a.page_digest(H, 0), b.page_digest(H, 0));
        b.apply_write(Key(2), Version(9), 10, SimTime::ZERO);
        assert_eq!(a.page_digest(H, 0), b.page_digest(H, 0));
        // A superseded write changes nothing, digest included.
        let before = a.page_digest(H, 0);
        assert!(!a.apply_write(Key(2), Version(5), 10, SimTime::ZERO));
        assert_eq!(a.page_digest(H, 0), before);
        // Pages are independent.
        a.preload(Key(PAGE_SLOTS as u64 + 7), Version(1), 10);
        assert_eq!(a.summary_pages(H), 2);
        assert_eq!(a.page_digest(H, 0), before);
        assert_ne!(a.page_digest(H, 1), 0);
        // So are holders sharing a store: equal copies, equal digests.
        let mut rows = ReplicaStore::with_rows(3, true);
        for holder in [NodeId(1), NodeId(6)] {
            rows.preload_on(holder, Key(2), Version(9), 10);
            rows.apply_write_on(holder, Key(1), Version(4), 10);
        }
        assert_eq!(rows.page_digest(NodeId(1), 0), b.page_digest(H, 0));
        assert_eq!(rows.page_digest(NodeId(6), 0), b.page_digest(H, 0));
        assert_eq!(rows.page_digest(NodeId(3), 0), 0);
        assert_eq!(rows.summary_pages(NodeId(6)), 1);
    }

    #[test]
    fn default_stores_maintain_no_summaries() {
        let mut s = ReplicaStore::new();
        s.apply_write(Key(1), Version(1), 10, SimTime::ZERO);
        s.preload(Key(2), Version(2), 10);
        assert_eq!(s.summary_pages(H), 0, "no digest vector is ever grown");
        assert_eq!(s.page_digest(H, 0), 0);
        // Everything else behaves identically to a summarized store.
        assert_eq!(s.key_count(), 2);
        assert_eq!(s.bytes_stored(), 20);
    }

    #[test]
    fn a_page_holds_the_rows_of_4096_keys_and_peeks_are_not_io() {
        let mut s = ReplicaStore::with_rows(3, false);
        s.preload_on(NodeId(7), Key(3), Version(30), 100);
        s.preload_on(NodeId(2), Key(3), Version(31), 100);
        s.preload_on(NodeId(2), Key(PAGE_SLOTS as u64 + 1), Version(7), 10);
        let page0 = s.table.page(0).unwrap();
        assert_eq!(page0.len(), PAGE_SLOTS * 3);
        let row = &page0[9..12];
        assert_eq!((row[0].holder, row[0].version), (7, Version(30)));
        assert_eq!((row[1].holder, row[1].version), (2, Version(31)));
        assert!(!row[2].version.exists(), "vacant slots read as version 0");
        assert_eq!(s.table.page(1).unwrap()[3].version, Version(7));
        assert!(s.table.page(9).is_none(), "unallocated pages have no slots");
        assert_eq!(s.allocation(), (2, PAGE_SLOTS * 3));
        assert_eq!(s.peek_on(NodeId(2), Key(3)).unwrap().version, Version(31));
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
        // Width 3: `key · 3` wraps from `u64::MAX / 2` on; the last key
        // whose row fits the slot space is readable, and nothing past it.
        let mut s = ReplicaStore::with_rows(3, false);
        let last = last_key(3);
        s.preload_on(H, last, Version(1), 10);
        for start in [u64::MAX, u64::MAX - 1, u64::MAX / 2, last.0 + 1] {
            let r = s.read_range_on(H, Key(start), 10);
            assert_eq!((r.anchor, r.records, r.bytes), (None, 0, 0), "at {start}");
            assert_eq!(s.peek_on(H, Key(start)), None);
        }
        let r = s.read_range_on(H, Key(last.0 - 2), 10);
        assert_eq!((r.records, r.bytes), (1, 10), "the last row reads");
        assert_eq!(s.read_on(H, last).unwrap().version, Version(1));
        assert_eq!(s.read_ops(), 5 * 10 + 1);
    }

    #[test]
    fn holder_ids_are_16_bit() {
        let mut s = ReplicaStore::with_rows(3, false);
        s.preload_on(NodeId(65_535), Key(1), Version(1), 10);
        assert_eq!(
            s.peek_on(NodeId(65_535), Key(1)).unwrap().version,
            Version(1)
        );
        assert_eq!(
            s.peek_on(NodeId(65_536), Key(1)),
            None,
            "its tag is not 65 536's"
        );
        let write = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.apply_write_on(NodeId(65_536), Key(1), Version(2), 10)
        }));
        let message = *write.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("holder 65536"), "{message}");
    }

    #[test]
    fn a_write_past_the_slot_space_panics_at_every_width() {
        for width in [1, 3] {
            for key in [u64::MAX, u64::MAX / 2, last_key(width as u64).0 + 1] {
                let mut s = ReplicaStore::with_rows(width, true);
                let write = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    s.apply_write_on(H, Key(key), Version(1), 1)
                }));
                let message = *write.unwrap_err().downcast::<String>().unwrap();
                assert!(message.contains("key-density contract"), "{message}");
                assert!(
                    message.contains(&format!("slot {key}×{width}")),
                    "{message}"
                );
                let preload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    s.preload_on(H, Key(key), Version(1), 1)
                }));
                assert!(preload.is_err(), "a preload of key {key} must panic");
                assert_eq!(s.table.allocated_pages(), 0);
            }
        }
    }
}
