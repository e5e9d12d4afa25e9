//! Replica storage: the versioned copies the nodes hold.
//!
//! A [`ReplicaStore`] holds the copies of a group of holder nodes — in a
//! cluster, every node of one event lane — as a versioned key-value table
//! per holder, with last-write-wins reconciliation. It counts one quantity,
//! the bytes stored, because only the store sees the size of the copy an
//! overwrite replaces; storage I/O is counted by the cluster's
//! [`ClusterMetrics`](crate::ClusterMetrics). The byte total covers the
//! whole store; a cluster sums it over its stores.
//!
//! ## Layout: loaded records without rows, one row of RF slots per written key
//!
//! Record keys are **dense `u64` record ids** — the workload generators
//! allocate them contiguously from 0 and assert they stay below the
//! configured record count (see `concord_workload::generators`). The store
//! exploits that contract: instead of a hash map it keeps one row per key in
//! a [`RowTable`] (the shared row-sparse substrate: a 4-byte row number per
//! key, and an arena of the rows that exist). A cluster's rows are the
//! replication factor wide, one slot per replica of the key, so a key's
//! replicas share one or two cache lines. A standalone store
//! ([`ReplicaStore::new`]) has rows one slot wide and one holder.
//!
//! **A loaded record has no row until it is written.** A cluster's bulk load
//! (`Cluster::load_records`) hands each of its stores one `LoadRun`, and a
//! store built for a cluster keeps the ring the records were loaded on
//! (every node's: the load's contract rules out a crash in force). A key
//! without a row is held at its load version by exactly its owners under
//! that *load ring* that this store hosts — its *implicit copies*. Loading
//! counts them without touching a row (by arithmetic when the store hosts
//! every node, from the load ring otherwise). The first write of the key
//! materializes its row as a load would have laid it out — the owners this
//! store hosts, in ring order, at the load version — and then applies as
//! any write does. Every reader honours implicit copies:
//! [`ReplicaStore::read_on`], [`ReplicaStore::read_range_on`] and the
//! repair plane's diffs (`ReplicaStore::diff_page`).
//!
//! **The load-ring rule.** While no crash is in force, the ring *is* the
//! load ring — a recovery rebuilds the exact placement — so a node that is
//! a current replica of a key holds its implicit copy, and the cluster's
//! readers say so instead of asking the ring on every access: a read task
//! carries it from its dispatch, and a repair diff over a key without a row
//! has nothing to stream (its receiver, a current replica, holds the load
//! version already). Only while a crash is in force, or for a caller that
//! does not know (the public readers), is the load ring consulted.
//!
//! A slot is a 16-byte `{version, size, holder, spill mask}`: the two
//! fields reads, reconciliation, range scans and repair diffs consume, the
//! 16-bit id of the node whose copy it is, and a byte used on a row's last
//! slot (below); the last two fill what is padding in a [`StoredValue`]. A
//! holder's copy of a key is the row entry tagged with its id, and its
//! first write to the key takes the row's first vacant entry — so `read` /
//! `apply_write` / `preload` are an index lookup, a load and a compare per
//! entry: no hash, no probe sequence, no tombstones, no ring lookup. A tag,
//! not the holder's position in the key's ring row, because a crash or a
//! recovery rebuilds the ring and moves positions, while a tag stays with
//! its copy. Vacancy is this store's own convention, per the table's
//! contract: a slot is occupied iff its version is non-zero
//! ([`Version::NONE`] never names a real write, which the write paths
//! assert), so presence costs no extra bit. Rows never shrink, so the
//! vacant entries of a row are its suffix.
//!
//! Under hash placement the index and the row are probed at scrambled keys,
//! so the cluster hints them ahead, in two stages, through
//! `ReplicaStore::prefetch_entry` and `ReplicaStore::prefetch_row` — see
//! [`paged`](crate::paged).
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
//! Sequential record ids are adjacent index entries, which is what makes
//! the YCSB-E range-read path ([`ReplicaStore::read_range_on`]) a streaming
//! pass over `scan_len` adjacent row numbers rather than `scan_len`
//! independent hash lookups.
//!
//! Reads never allocate: probing a key without a row returns its implicit
//! copy or "absent" without materializing anything, so a scan running past
//! the loaded key space stays allocation-free. A key whose row would reach
//! past the table's 2^32-slot space reads as absent, and writing or loading
//! it panics.
//!
//! ## The unsettled set (anti-entropy)
//!
//! A store built with summaries keeps the **unsettled set**, a bit per key:
//! the one summary the repair plane compares. A clear bit means every
//! current replica of the key holds a copy at least as new as every copy of
//! it — row entries and side-map copies — so no diff streams it between any
//! pair. An install sets its key's bit, a ring rebuild sets every bit
//! (`ReplicaStore::unsettle_all`), and a diff clears the bit of a key it
//! visited and did not stream once it has checked that against the current
//! ring. A diff `from → to` (`ReplicaStore::diff_page`) visits the keys
//! that are unsettled *and* that `to` owns under the current ring
//! (`PageOwners`), a 64-key word of each at a time, in ascending key
//! order: on the benchmark's fault workload, about one key visit in twelve
//! of the walk over every key `to` owns that it replaced. A comparison
//! walks every key page up to the last loaded or written key
//! ([`ReplicaStore::key_pages`]). Stores built without summaries skip the
//! maintenance entirely — the write path pays nothing for a repair plane
//! that is switched off — and read as all-unsettled, so a diff there visits
//! every key `to` owns.

use crate::paged::{LoadRun, RowTable, PAGE_BITS, PAGE_MASK, PAGE_SLOTS};
use crate::ring::Ring;
use crate::types::{Key, StoredValue, Version};
use concord_sim::{NodeId, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

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

// Every replica of every written key fills one of these.
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

/// Where a cluster's store finds the owners of its implicit copies (see the
/// module docs).
#[derive(Debug, Clone)]
struct Placement {
    /// The load ring: every node's.
    ring: Arc<Ring>,
    /// `hosted[n]`: whether node `n`'s copies live in this store. Empty
    /// when the store hosts every node (one shard).
    hosted: Vec<bool>,
}

impl Placement {
    /// Whether `node`'s copies live in this store.
    #[inline]
    fn hosts(&self, node: NodeId) -> bool {
        self.hosted.is_empty() || self.hosted.get(node.0 as usize).copied().unwrap_or(false)
    }

    /// The owners of `key` under the load ring that this store hosts, in
    /// ring order.
    #[inline]
    fn owners(&self, key: Key) -> impl Iterator<Item = NodeId> + '_ {
        let ring = self.ring.placement(key).iter().copied();
        ring.filter(|&n| self.hosts(n))
    }
}

/// Words of one node's bits in a [`PageOwners`], and of one page's bits in
/// the unsettled set: a bit per key of the page.
const PAGE_WORDS: usize = PAGE_SLOTS / 64;

/// One key page's owners under a ring, a bit per node and in-page key
/// offset: the keys a repair diff `from → to` may stream to `to` (built from
/// the current ring), and — while a crash is in force — the load owners of
/// the keys without a row (built from the load ring; without a crash the
/// ring is the load ring and nothing needs asking, see the module docs).
/// The repair plane builds a page's on its first diff, keeps the current
/// ring's until the ring is rebuilt and the load ring's for good.
#[derive(Debug)]
pub(crate) struct PageOwners {
    /// Node `n`'s bits are `bits[n * PAGE_WORDS..][..PAGE_WORDS]`.
    bits: Vec<u64>,
    /// The owners of every key: the ring's replication factor.
    replicas: usize,
}

impl PageOwners {
    /// Index key page `page` of a cluster of `nodes` nodes under `ring`.
    pub(crate) fn build(page: usize, ring: &Ring, nodes: usize) -> Self {
        let base = (page as u64) << PAGE_BITS;
        let mut bits = vec![0u64; nodes * PAGE_WORDS];
        for off in 0..PAGE_SLOTS {
            for node in ring.placement(Key(base + off as u64)) {
                bits[node.0 as usize * PAGE_WORDS + off / 64] |= 1 << (off % 64);
            }
        }
        PageOwners {
            bits,
            replicas: ring.replication_factor() as usize,
        }
    }

    /// Word `w` of `node`'s bits: in-page offsets `64 w..64 w + 64`.
    #[inline]
    fn word(&self, node: NodeId, w: usize) -> u64 {
        self.bits[node.0 as usize * PAGE_WORDS + w]
    }

    /// Whether `node` owns the key at in-page offset `off`.
    #[inline]
    pub(crate) fn holds(&self, node: NodeId, off: usize) -> bool {
        self.word(node, off / 64) >> (off % 64) & 1 == 1
    }

    /// Every node of the cluster, in id order.
    fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..(self.bits.len() / PAGE_WORDS) as u32).map(NodeId)
    }

    /// The owners of the key at in-page offset `off`, in id order.
    #[cfg(test)]
    pub(crate) fn owners(&self, off: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(move |&n| self.holds(n, off))
    }

    /// Word `w` of the keys that have an owner here that `load` does not
    /// have.
    fn outside(&self, load: &PageOwners, w: usize) -> u64 {
        self.nodes()
            .fold(0, |keys, n| keys | self.word(n, w) & !load.word(n, w))
    }
}

/// The copies a group of holder nodes keep: a [`RowTable`] of per-key
/// rows over dense record ids, and the load run of the keys without one
/// (see the module docs for the layout).
#[derive(Debug, Clone)]
pub struct ReplicaStore {
    /// One row of `width` slots per written key; a slot is occupied iff its
    /// version is non-zero.
    table: RowTable<Slot>,
    /// The loaded records: a key among them without a row is held by its
    /// load owners at its load version. Empty until the cluster's load.
    loaded: LoadRun,
    /// The load ring and the nodes this store hosts: `None` for a
    /// standalone store, which loads through `preload`.
    placement: Option<Placement>,
    /// The copies of holders that found their key's row full without an
    /// entry of their own (see the module docs). Never iterated.
    side: HashMap<(NodeId, Key), Slot>,
    /// Number of copies — occupied slots, side-map entries and implicit
    /// copies: the `(holder, key)` copies stored.
    copies: usize,
    bytes_stored: u64,
    /// Whether the unsettled set below is maintained. Off by default so the
    /// write path pays nothing when no repair plane will ever diff.
    summaries_enabled: bool,
    /// The unsettled set, a bit per key (see the module docs): a clear bit
    /// — or a key past its end — means every current replica holds a copy
    /// at least as new as every copy of the key, so no repair diff streams
    /// it. Empty unless summaries are maintained; a store without them
    /// reads as all-unsettled.
    unsettled: Vec<u64>,
}

impl Default for ReplicaStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplicaStore {
    /// An empty standalone store: one holder, rows one slot wide, no
    /// unsettled set (writes skip its maintenance).
    pub fn new() -> Self {
        Self::with_rows(1, false)
    }

    /// An empty standalone store that maintains the unsettled set for
    /// anti-entropy diffs (see the module docs). Costs one bit set per
    /// installed write.
    pub fn with_summaries() -> Self {
        Self::with_rows(1, true)
    }

    /// An empty store whose rows hold `width` copies of each key — the
    /// replication factor — maintaining the unsettled set iff `summaries`.
    pub fn with_rows(width: usize, summaries: bool) -> Self {
        ReplicaStore {
            table: RowTable::new(VACANT, width),
            loaded: LoadRun::default(),
            placement: None,
            side: HashMap::new(),
            copies: 0,
            bytes_stored: 0,
            summaries_enabled: summaries,
            unsettled: Vec::new(),
        }
    }

    /// An empty store of a cluster: rows as wide as `load_ring`'s
    /// replication factor, holding the copies of the nodes `hosted` marks
    /// (every node when it is empty), whose [`ReplicaStore::load`]ed
    /// records are placed by `load_ring`.
    pub(crate) fn placed(load_ring: Arc<Ring>, hosted: Vec<bool>, summaries: bool) -> Self {
        let width = load_ring.replication_factor().max(1) as usize;
        ReplicaStore {
            placement: Some(Placement {
                ring: load_ring,
                hosted,
            }),
            ..Self::with_rows(width, summaries)
        }
    }

    /// Hold `run`'s records as implicit copies of their load owners this
    /// store hosts (see the module docs): counted without a row. Counting
    /// is arithmetic when the store hosts every node; otherwise each key's
    /// owners are looked up in the load ring. The cluster loads once, into
    /// stores without a row.
    ///
    /// # Panics
    /// Panics if the store is standalone.
    pub(crate) fn load(&mut self, run: LoadRun) {
        let placement = self
            .placement
            .as_ref()
            .expect("only a cluster's store loads runs");
        let copies = match placement.hosted.is_empty() {
            true => run.count * self.table.width() as u64,
            false => (run.first..run.end())
                .map(|key| placement.owners(Key(key)).count() as u64)
                .sum(),
        };
        self.copies += copies as usize;
        self.bytes_stored += copies * run.size as u64;
        self.loaded = run;
    }

    /// Assert that `key`'s row fits the table's slot space (a load checks
    /// its first and its last key: see [`RowTable::assert_in_space`]).
    pub(crate) fn assert_in_space(&self, key: Key) {
        self.table.assert_in_space(key.0);
    }

    /// `holder`'s copy of `key` given the key's `row`: the entry tagged
    /// with `holder`, or — when the row is full without one and its spill
    /// mask has `holder`'s bit — its side-map entry.
    #[inline]
    fn copy_in(&self, holder: NodeId, key: Key, row: &[Slot]) -> Option<StoredValue> {
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

    /// `holder`'s side-map copy of `key`. Out of line, so that `copy_in`
    /// inlines into the scan and diff loops.
    #[cold]
    #[inline(never)]
    fn side_copy(&self, holder: NodeId, key: Key) -> Option<StoredValue> {
        self.side.get(&(holder, key)).map(Slot::value)
    }

    /// `holder`'s implicit copy of `key`, a key without a row: its load
    /// version if it was loaded and `holder` is one of its load owners —
    /// which `owner` asserts, or else the load ring is asked.
    #[inline]
    fn implicit(&self, holder: NodeId, key: Key, owner: bool) -> Option<StoredValue> {
        let value = self.loaded.get(key.0)?;
        (owner || self.load_owner(holder, key)).then_some(value)
    }

    /// Whether `holder` is one of `key`'s load owners this store hosts: a
    /// lookup in the load ring.
    fn load_owner(&self, holder: NodeId, key: Key) -> bool {
        self.placement
            .as_ref()
            .is_some_and(|p| p.owners(key).any(|n| n == holder))
    }

    /// `holder`'s copy of `key`, where `owner` says whether `holder` is
    /// known to be one of the key's load owners (a current replica while no
    /// crash is in force: see the module docs) or the load ring must be
    /// asked about an implicit copy.
    #[inline]
    pub(crate) fn read_as(&self, holder: NodeId, key: Key, owner: bool) -> Option<StoredValue> {
        match self.table.row(key.0) {
            None => self.implicit(holder, key, owner),
            Some(row) => self.copy_in(holder, key, row),
        }
    }

    /// Give `key` its row: its implicit copies spelled out — the load
    /// owners this store hosts, in ring order, at the load version — if it
    /// was loaded, vacant entries otherwise. The counters count implicit
    /// copies already, so they do not move.
    fn materialize(&mut self, key: Key) {
        let row = self.table.materialize(key.0);
        if let (Some(value), Some(placement)) = (self.loaded.get(key.0), &self.placement) {
            for (slot, owner) in row.iter_mut().zip(placement.owners(key)) {
                slot.replace(owner, value.version, value.size);
            }
        }
    }

    /// `holder`'s slot for `key`: its row entry, else the row's first vacant
    /// entry, else (the row is full) its side-map entry, marking it in the
    /// row's spill mask. A key without a row is materialized first. A
    /// vacant slot returned here is claimed by the install that follows
    /// (see [`Slot::replace`]).
    #[inline]
    fn slot_mut(&mut self, holder: NodeId, key: Key) -> &mut Slot {
        let tag = holder_tag(holder);
        if self.table.row(key.0).is_none() {
            self.materialize(key);
        }
        let row = self.table.row_mut(key.0).expect("the key has a row");
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

    /// Meter a copy of `key` going from `old` to one of `size` bytes:
    /// bytes stored, copies and, if maintained, the unsettled set.
    #[inline]
    fn account(&mut self, key: Key, old: Slot, size: u32) {
        if old.version.exists() {
            self.bytes_stored = self.bytes_stored - old.size as u64 + size as u64;
        } else {
            self.copies += 1;
            self.bytes_stored += size as u64;
        }
        if self.summaries_enabled {
            self.unsettle(key);
        }
    }

    /// Set `key`'s bit of the unsettled set, growing the set on first touch.
    #[inline]
    fn unsettle(&mut self, key: Key) {
        let word = (key.0 / 64) as usize;
        if word >= self.unsettled.len() {
            self.unsettled.resize(word + 1, 0);
        }
        self.unsettled[word] |= 1 << (key.0 % 64);
    }

    /// Set the unsettled bit of every key that has a copy — every loaded
    /// key, and every key an install reached: the ring changed, so a
    /// settled key's current replicas may now lack its newest copy.
    pub(crate) fn unsettle_all(&mut self) {
        if self.summaries_enabled {
            let words = (self.loaded.end().div_ceil(64) as usize).max(self.unsettled.len());
            self.unsettled.clear();
            self.unsettled.resize(words, !0);
        }
    }

    /// Word `w` of key page `page`'s unsettled bits: every bit for a store
    /// without summaries.
    #[inline]
    fn unsettled_word(&self, page: usize, w: usize) -> u64 {
        match self.summaries_enabled {
            true => self
                .unsettled
                .get(page * PAGE_WORDS + w)
                .copied()
                .unwrap_or(0),
            false => !0,
        }
    }

    /// Hint `key`'s index entry into cache, ahead of a
    /// [`ReplicaStore::prefetch_row`] (see [`RowTable::prefetch_entry`]).
    #[inline]
    pub(crate) fn prefetch_entry(&self, key: Key) {
        self.table.prefetch_entry(key.0);
    }

    /// Hint `key`'s row into cache ahead of the `read_as` or
    /// `apply_write_on` one service time later (see
    /// [`RowTable::prefetch_row`]). Nothing is allocated.
    #[inline]
    pub(crate) fn prefetch_row(&self, key: Key) {
        self.table.prefetch_row(key.0);
    }

    /// Apply a write to `holder`'s copy of `key`. Returns `true` if the
    /// value was installed, `false` if a newer version was already present
    /// (last-write-wins). The first write of a loaded key materializes its
    /// row (see the module docs).
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
        let slot = self.slot_mut(holder, key);
        if slot.version >= version {
            // Occupied slots always beat the write here; a vacant slot
            // (version 0) can never reach this arm because real versions
            // are non-zero.
            return false;
        }
        let old = slot.replace(holder, version, size);
        self.account(key, old, size);
        true
    }

    /// Load `holder`'s copy of a record directly into its row (no I/O
    /// accounting, used to pre-populate a store record by record before
    /// the measured run; a cluster's bulk load writes no row — see the
    /// module docs). A re-preload of an existing copy, implicit or not, is
    /// an authoritative overwrite: the byte accounting replaces the old
    /// payload's size instead of double-counting it.
    ///
    /// # Panics
    /// As [`ReplicaStore::apply_write_on`].
    pub fn preload_on(&mut self, holder: NodeId, key: Key, version: Version, size: u32) {
        debug_assert!(version.exists(), "preloads carry a real (non-zero) version");
        let slot = self.slot_mut(holder, key);
        let old = slot.replace(holder, version, size);
        self.account(key, old, size);
    }

    /// `holder`'s copy of a key, if it holds one (an implicit copy if the
    /// key has no row: the load ring is asked).
    #[inline]
    pub fn read_on(&self, holder: NodeId, key: Key) -> Option<StoredValue> {
        self.read_as(holder, key, false)
    }

    /// Read `holder`'s copies of `len` consecutive records starting at
    /// `start` (a YCSB-E range scan on that replica). Every key in the range
    /// is probed, the holder's copy present or not, and the result reports
    /// the byte weight of the present copies — implicit ones included — for
    /// response-traffic accounting. Never allocates: ranges running past
    /// the loaded and written key space read as absent.
    pub fn read_range_on(&self, holder: NodeId, start: Key, len: u32) -> RangeRead {
        self.scan_as(holder, start, len, false)
    }

    /// [`ReplicaStore::read_range_on`], where `owner` says whether `holder`
    /// is known to be a load owner of every key in the range (see
    /// [`ReplicaStore::read_as`]).
    pub(crate) fn scan_as(&self, holder: NodeId, start: Key, len: u32, owner: bool) -> RangeRead {
        let len = len.max(1);
        let mut out = RangeRead {
            anchor: self.read_as(holder, start, owner),
            records: 0,
            bytes: 0,
        };
        let mut key = start.0;
        let mut remaining = len;
        while remaining > 0 {
            let first = (key & PAGE_MASK) as usize;
            // Keys to take from this page before crossing its boundary.
            let run = ((PAGE_SLOTS - first) as u32).min(remaining);
            let page = self.table.page((key >> PAGE_BITS) as usize);
            let base = key - first as u64;
            for off in first..first + run as usize {
                let k = Key(base + off as u64);
                let copy = match page.and_then(|rows| rows.row(off)) {
                    None => self.implicit(holder, k, owner),
                    Some(row) => self.copy_in(holder, k, row),
                };
                if let Some(v) = copy {
                    out.records += 1;
                    out.bytes += v.size as u64;
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

    /// An anti-entropy diff `from → to` of key page `page`, in a store
    /// holding both nodes' copies: push every record `from` holds strictly
    /// newer than `to` onto `out`, in ascending key order, among the keys
    /// that are unsettled and that `to` owns under the current ring
    /// (`owners`) — a 64-key word of each set at a time. `load_owners` is
    /// the page's ownership under the load ring while a crash is in force;
    /// `None` means the ring is the load ring, so `to` holds every implicit
    /// copy it is asked about (see the module docs). A visited key that
    /// streams nothing leaves the unsettled set if it is settled
    /// ([`ReplicaStore::settled`]).
    pub(crate) fn diff_page(
        &mut self,
        from: NodeId,
        to: NodeId,
        page: usize,
        owners: &PageOwners,
        load_owners: Option<&PageOwners>,
        out: &mut Vec<(Key, StoredValue)>,
    ) {
        let rows = self.table.page(page);
        let base = (page as u64) << PAGE_BITS;
        for w in 0..PAGE_WORDS {
            let mut visit = self.unsettled_word(page, w) & owners.word(to, w);
            if visit == 0 {
                continue;
            }
            // The keys that have an owner outside the load ring's.
            let stand_ins = load_owners.map_or(0, |load| owners.outside(load, w));
            let mut settled = 0u64;
            while visit != 0 {
                let bit = visit.trailing_zeros() as usize;
                visit &= visit - 1;
                let off = w * 64 + bit;
                let key = Key(base + off as u64);
                let (record, settles) = match (rows.and_then(|rows| rows.row(off)), load_owners) {
                    (Some(row), _) => {
                        let held = self.copy_in(to, key, row);
                        let held = held.map_or(Version::NONE, |v| v.version);
                        match self.copy_in(from, key, row) {
                            Some(record) if record.version > held => (Some(record), false),
                            _ => (
                                None,
                                self.summaries_enabled && self.settled(key, off, row, owners),
                            ),
                        }
                    }
                    // On the load ring every owner, `to` included, holds the
                    // load version: the only copy there is.
                    (None, None) => (None, true),
                    (None, Some(load)) => match self.loaded.get(key.0) {
                        Some(record) if load.holds(from, off) && !load.holds(to, off) => {
                            (Some(record), false)
                        }
                        loaded => (None, loaded.is_none() || stand_ins >> bit & 1 == 0),
                    },
                };
                if let Some(record) = record {
                    out.push((key, record));
                }
                settled |= u64::from(settles) << bit;
            }
            if self.summaries_enabled {
                self.unsettled[page * PAGE_WORDS + w] &= !settled;
            }
        }
    }

    /// Whether `key`, at in-page offset `off` and with its row `row`, is
    /// settled: each of its owners under the current ring (`owners`) holds
    /// a copy at least as new as every copy of the key — row entries and
    /// side-map copies.
    fn settled(&self, key: Key, off: usize, row: &[Slot], owners: &PageOwners) -> bool {
        let spilled = row[row.len() - 1].spilled;
        let copies = || {
            let side = (spilled != 0).then(|| {
                let holders = owners.nodes().filter(move |&h| spilled & spill_bit(h) != 0);
                holders.filter_map(|h| Some((h, self.side_copy(h, key)?.version)))
            });
            let in_row = row.iter().filter(|s| s.version.exists());
            in_row
                .map(|s| (NodeId(s.holder as u32), s.version))
                .chain(side.into_iter().flatten())
        };
        let newest = copies().map(|(_, v)| v).max().unwrap_or(Version::NONE);
        // A holder has one copy, and a key exactly `replicas` owners.
        let fresh = copies().filter(|&(n, v)| v >= newest && owners.holds(n, off));
        fresh.count() == owners.replicas
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
    pub fn read(&self, key: Key) -> Option<StoredValue> {
        self.read_on(SOLE_HOLDER, key)
    }

    /// [`ReplicaStore::read_range_on`] by a standalone store's one holder.
    pub fn read_range(&self, start: Key, len: u32) -> RangeRead {
        self.read_range_on(SOLE_HOLDER, start, len)
    }

    /// Number of copies stored: distinct `(holder, key)` pairs (distinct
    /// keys in a standalone store), implicit copies included.
    pub fn key_count(&self) -> usize {
        self.copies
    }

    /// Total payload bytes of every copy in the store, implicit copies
    /// included.
    pub fn bytes_stored(&self) -> u64 {
        self.bytes_stored
    }

    /// Number of key pages up to the last loaded or written key: the pages
    /// an anti-entropy comparison walks, whichever holders it compares.
    pub fn key_pages(&self) -> usize {
        let loaded = self.loaded.end().div_ceil(PAGE_SLOTS as u64) as usize;
        loaded.max(self.table.pages())
    }

    /// Recount the copies and bytes — the occupied slots of the rows, the
    /// side map and the implicit copies of every loaded key without a row —
    /// and compare them with the counters the writes and loads keep (a
    /// drained cluster's check in builds with debug assertions).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn check_counters(&self) -> Result<(), String> {
        let slots = self.table.slots().chain(self.side.values());
        let held = slots.filter(|s| s.version.exists());
        let (mut copies, mut bytes) = held.fold((0, 0), |(n, b), s| (n + 1, b + s.size as u64));
        let run = &self.loaded;
        for key in (run.first..run.end()).filter(|&k| self.table.row(k).is_none()) {
            let owners = self
                .placement
                .as_ref()
                .map_or(0, |p| p.owners(Key(key)).count());
            copies += owners;
            bytes += owners as u64 * run.size as u64;
        }
        if (copies, bytes) == (self.copies, self.bytes_stored) {
            Ok(())
        } else {
            Err(format!(
                "store counts {} copies of {} bytes, recounts {copies} of {bytes}",
                self.copies, self.bytes_stored
            ))
        }
    }

    /// Check every clear bit of the unsettled set — or, with `every_key`,
    /// every key up to the last loaded or written one: the convergence a
    /// drained anti-entropy plane reaches with no fault in force — against
    /// the set's invariant under the current `ring`, reading this store's
    /// copies as every copy there is (one shard; a store of several never
    /// clears a bit, see `Cluster::check_drained`): a key with a row has no
    /// copy newer than any of its current replicas' hosted here, and a
    /// loaded key without one has only load owners among them. A store
    /// without summaries has no clear bit to check.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn check_settled(&self, ring: &Ring, every_key: bool) -> Result<(), String> {
        let mut side_newest: HashMap<Key, Version> = HashMap::new();
        for (&(_, key), slot) in &self.side {
            let newest = side_newest.entry(key).or_insert(Version::NONE);
            *newest = (*newest).max(slot.version);
        }
        let placement = self.placement.as_ref();
        let hosted = |n: &&NodeId| placement.is_none_or(|p| p.hosts(**n));
        let end = self.key_pages() as u64 * PAGE_SLOTS as u64;
        let checked = |k: &Key| every_key || self.summaries_enabled && !self.is_unsettled(*k);
        for key in (0..end).map(Key).filter(checked) {
            let mut replicas = ring.placement(key).iter().filter(hosted);
            let settled = match self.table.row(key.0) {
                None => {
                    let loaded = self.loaded.get(key.0).is_some();
                    !loaded || replicas.all(|&n| self.load_owner(n, key))
                }
                Some(row) => {
                    let in_row = row.iter().map(|s| s.version).max();
                    let side = side_newest.get(&key).copied();
                    let newest = in_row.max(side).unwrap_or(Version::NONE);
                    replicas.all(|&n| {
                        self.copy_in(n, key, row)
                            .is_some_and(|v| v.version >= newest)
                    })
                }
            };
            if !settled {
                let claim = if every_key {
                    "must have converged"
                } else {
                    "reads settled"
                };
                return Err(format!("key {} {claim}, but a current replica lags", key.0));
            }
        }
        Ok(())
    }

    /// Rows materialized.
    pub(crate) fn rows(&self) -> usize {
        self.table.rows()
    }

    /// The `(holder, version)` entries of `key`'s row, vacant ones
    /// included, if it has a row (tests).
    #[cfg(test)]
    pub(crate) fn row_of(&self, key: Key) -> Option<Vec<(NodeId, Version)>> {
        let row = self.table.row(key.0)?;
        Some(
            row.iter()
                .map(|s| (NodeId(s.holder as u32), s.version))
                .collect(),
        )
    }

    /// Copies kept outside their key's row (tests).
    #[cfg(test)]
    pub(crate) fn side_copies(&self) -> usize {
        self.side.len()
    }

    /// Whether `key` is in the unsettled set (tests and the drained
    /// cluster's check).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn is_unsettled(&self, key: Key) -> bool {
        let word = self.unsettled.get((key.0 / 64) as usize);
        word.is_some_and(|w| w >> (key.0 % 64) & 1 == 1)
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
        assert_eq!(s.read_on(H, Key(1)).unwrap().version, Version(3));
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
    fn reads_return_the_held_value() {
        let mut s = ReplicaStore::new();
        s.preload(Key(7), Version(1), 10);
        assert_eq!(s.read(Key(7)).unwrap().version, Version(1));
        assert!(s.read(Key(8)).is_none());
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
        assert_eq!(s.read_on(H, Key(1)).unwrap().version, Version(2));
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
        assert_eq!(s.rows(), 1);
        assert!(s.table.page(5).is_some());
        // Reading keys without a row allocates nothing.
        assert!(s.read_on(H, Key(0)).is_none());
        assert!(s.read_on(H, Key(100 * PAGE_SLOTS as u64)).is_none());
        assert_eq!(s.rows(), 1);
        assert!(s.table.page(0).is_none() && s.table.page(100).is_none());
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
        let version = |s: &ReplicaStore, h| s.read_on(h, Key(5)).map(|v| v.version);
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
        // Totals count every copy.
        assert_eq!(s.key_count(), 3);
        assert_eq!(s.bytes_stored(), 40 + 10 + 30);
        assert_eq!(
            s.read_range_on(c, Key(4), 3).records,
            1,
            "scans see the side map"
        );
        assert_eq!(s.key_pages(), 1);
    }

    #[test]
    fn prefetch_is_not_storage_io() {
        for width in [1, 3] {
            let mut s = ReplicaStore::with_rows(width, true);
            s.apply_write_on(H, Key(1), Version(4), 10);
            let meters = |s: &ReplicaStore| {
                (
                    s.key_count(),
                    s.bytes_stored(),
                    s.unsettled.clone(),
                    s.key_pages(),
                    s.rows(),
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
                s.prefetch_entry(Key(key));
                s.prefetch_row(Key(key));
            }
            assert_eq!(meters(&s), before);
            assert_eq!(s.read_on(H, Key(1)).unwrap().version, Version(4));
        }
    }

    #[test]
    fn range_reads_weigh_present_bytes() {
        let mut s = ReplicaStore::new();
        for k in 10..20u64 {
            s.preload(Key(k), Version(k), 100);
        }
        // Scan fully inside the populated range.
        let r = s.read_range(Key(12), 5);
        assert_eq!(r.records, 5);
        assert_eq!(r.bytes, 500);
        assert_eq!(r.anchor.unwrap().version, Version(12));
        // Scan running past the populated range: absent slots weigh
        // nothing.
        let r = s.read_range(Key(18), 10);
        assert_eq!(r.records, 2);
        assert_eq!(r.bytes, 200);
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
    fn key_pages_span_every_loaded_or_written_key() {
        let mut s = ReplicaStore::with_summaries();
        assert_eq!(s.key_pages(), 0, "an empty store has no pages");
        s.apply_write(Key(1), Version(1), 10, SimTime::ZERO);
        assert_eq!(s.key_pages(), 1);
        // A write on page 3 spans the untouched pages below it.
        s.preload(Key(3 * PAGE_SLOTS as u64 + 7), Version(2), 10);
        assert_eq!(s.key_pages(), 4);
        // A cluster's store spans its loaded keys without a row too.
        let (mut placed, _) = placed(5, 3, crate::ring::Partitioner::Hash, Vec::new());
        placed.load(run(0, PAGE_SLOTS as u64 + 1, 1, 100));
        assert_eq!((placed.rows(), placed.key_pages()), (0, 2));
        placed.apply_write_on(NodeId(0), Key(9 * PAGE_SLOTS as u64), Version(500), 10);
        assert_eq!(placed.key_pages(), 10);
    }

    #[test]
    fn default_stores_maintain_no_summaries() {
        let mut s = ReplicaStore::new();
        s.apply_write(Key(1), Version(1), 10, SimTime::ZERO);
        s.preload(Key(2), Version(2), 10);
        assert!(s.unsettled.is_empty(), "no unsettled set is ever grown");
        assert_eq!(s.unsettled_word(0, 0), !0, "and reads all-unsettled");
        // Everything else behaves identically to a summarized store.
        assert_eq!(s.key_count(), 2);
        assert_eq!(s.bytes_stored(), 20);
        assert_eq!(s.key_pages(), 1);
    }

    #[test]
    fn a_page_holds_the_rows_of_4096_keys_and_peeks_are_not_io() {
        let mut s = ReplicaStore::with_rows(3, false);
        s.preload_on(NodeId(2), Key(PAGE_SLOTS as u64 + 1), Version(7), 10);
        s.preload_on(NodeId(7), Key(3), Version(30), 100);
        s.preload_on(NodeId(2), Key(3), Version(31), 100);
        // A page holds the row numbers of 4096 keys and their rows, in the
        // order the keys were first written.
        let page0 = s.table.page(0).unwrap();
        assert_eq!(page0.row(4).map(<[Slot]>::len), None);
        let row = page0.row(3).unwrap();
        assert_eq!((row[0].holder, row[0].version), (7, Version(30)));
        assert_eq!((row[1].holder, row[1].version), (2, Version(31)));
        assert!(!row[2].version.exists(), "vacant slots read as version 0");
        assert_eq!(
            s.table.page(1).unwrap().row(1).unwrap()[0].version,
            Version(7)
        );
        assert!(s.table.page(9).is_none(), "unwritten pages have no rows");
        assert_eq!((s.rows(), s.table.slots().count()), (2, 2 * 3));
        assert_eq!(s.read_on(NodeId(2), Key(3)).unwrap().version, Version(31));
        assert_eq!(s.rows(), 2, "peeks materialize nothing");
    }

    #[test]
    fn range_read_at_the_end_of_the_key_space_stops() {
        let s = ReplicaStore::new();
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
            assert_eq!(s.read_on(H, Key(start)), None);
        }
        let r = s.read_range_on(H, Key(last.0 - 2), 10);
        assert_eq!((r.records, r.bytes), (1, 10), "the last row reads");
        assert_eq!(s.read_on(H, last).unwrap().version, Version(1));
    }

    #[test]
    fn holder_ids_are_16_bit() {
        let mut s = ReplicaStore::with_rows(3, false);
        s.preload_on(NodeId(65_535), Key(1), Version(1), 10);
        assert_eq!(
            s.read_on(NodeId(65_535), Key(1)).unwrap().version,
            Version(1)
        );
        assert_eq!(
            s.read_on(NodeId(65_536), Key(1)),
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
                assert_eq!(s.rows(), 0);
            }
        }
    }

    /// A store of a cluster of `nodes` nodes at RF `rf` under `partitioner`
    /// hosting the nodes `hosted` marks (every node when empty), and its
    /// load ring.
    fn placed(
        nodes: usize,
        rf: u32,
        partitioner: crate::ring::Partitioner,
        hosted: Vec<bool>,
    ) -> (ReplicaStore, Arc<Ring>) {
        let topology = concord_sim::Topology::single_dc(nodes);
        let simple = crate::ring::ReplicationStrategy::Simple;
        let ring = Arc::new(Ring::new(&topology, rf, simple, 16, partitioner));
        (ReplicaStore::placed(ring.clone(), hosted, true), ring)
    }

    /// A run of `count` keys from `first`, versions counting up from
    /// `first_version`.
    fn run(first: u64, count: u64, first_version: u64, size: u32) -> LoadRun {
        LoadRun {
            first,
            count,
            first_version,
            step: 1,
            size,
        }
    }

    /// Everything a reader can see of a store: every node's copy of every
    /// key, a scan at every key, the counters and the key pages.
    fn observe(s: &ReplicaStore, nodes: u32, keys: u64) -> Vec<String> {
        let mut seen = vec![format!(
            "{} copies, {} bytes, {} pages",
            s.key_count(),
            s.bytes_stored(),
            s.key_pages()
        )];
        for node in (0..nodes).map(NodeId) {
            for key in (0..keys).map(Key) {
                let scan = s.read_range_on(node, key, 7);
                seen.push(format!(
                    "{node:?} {key:?}: {:?} {scan:?}",
                    s.read_on(node, key)
                ));
            }
        }
        seen
    }

    #[test]
    fn a_loaded_run_reads_like_its_spelled_out_rows_through_writes() {
        use crate::ring::Partitioner::{Hash, Ordered};
        for partitioner in [Hash, Ordered] {
            let (nodes, keys) = (5u32, 2 * PAGE_SLOTS as u64 + 40);
            let (mut implicit, ring) = placed(nodes as usize, 3, partitioner, Vec::new());
            let (mut spelled, _) = placed(nodes as usize, 3, partitioner, Vec::new());
            // Keys 30..keys - 10 are loaded; those below and past are not.
            let run = run(30, keys - 40, 1, 200);
            implicit.load(run);
            for key in (run.first..run.end()).map(Key) {
                let value = run.get(key.0).unwrap();
                for &owner in ring.placement(key) {
                    spelled.preload_on(owner, key, value.version, value.size);
                }
            }
            assert_eq!(implicit.rows(), 0, "a load touches no row");
            assert_eq!(implicit.key_count() as u64, 3 * (keys - 40));
            assert_eq!(
                observe(&implicit, nodes, keys),
                observe(&spelled, nodes, keys)
            );
            // Writes by owners and by stand-ins, to loaded keys and not,
            // newer and older than what they meet.
            let mut rng = concord_sim::SimRng::new(5);
            for i in 0..400u64 {
                let (holder, key) = (NodeId(rng.index(5) as u32), Key(rng.next_bounded(keys)));
                let version = Version(rng.next_bounded(10_000) + 1);
                let size = rng.next_bounded(500) as u32;
                let applied = implicit.apply_write_on(holder, key, version, size);
                assert_eq!(
                    applied,
                    spelled.apply_write_on(holder, key, version, size),
                    "{i}"
                );
            }
            assert!(implicit.rows() > 0 && implicit.rows() < spelled.rows());
            assert_eq!(
                observe(&implicit, nodes, keys),
                observe(&spelled, nodes, keys)
            );
            assert_eq!(implicit.check_counters(), Ok(()));
            // A re-preload of a loaded key overwrites, as on a row.
            let owner = ring.placement(Key(60))[2];
            implicit.preload_on(owner, Key(60), Version(1), 9);
            spelled.preload_on(owner, Key(60), Version(1), 9);
            assert_eq!(
                observe(&implicit, nodes, keys),
                observe(&spelled, nodes, keys)
            );
            assert_eq!(implicit.check_counters(), Ok(()));
        }
    }

    #[test]
    fn the_first_write_spells_out_the_hosted_load_owners_in_ring_order() {
        let (nodes, rf) = (6, 3);
        let odd: Vec<bool> = (0..nodes).map(|n| n % 2 == 1).collect();
        let even = odd.iter().map(|&o| !o).collect();
        let hash = crate::ring::Partitioner::Hash;
        let (mut one, ring) = placed(nodes, rf, hash, Vec::new());
        let (mut odds, _) = placed(nodes, rf, hash, odd.clone());
        let (mut evens, _) = placed(nodes, rf, hash, even);
        for s in [&mut one, &mut odds, &mut evens] {
            s.load(run(0, 1000, 1, 100));
        }
        assert_eq!(one.key_count(), 3000);
        assert_eq!(
            odds.key_count() + evens.key_count(),
            3000,
            "the shards split it"
        );
        assert_eq!(odds.bytes_stored() + evens.bytes_stored(), 300_000);
        // A key whose owners live in both stores.
        let mixed = |k: &u64| {
            let odd_owners = ring.placement(Key(*k)).iter().filter(|n| odd[n.0 as usize]);
            (1..3).contains(&odd_owners.count())
        };
        let key = Key((0..1000).find(mixed).unwrap());
        let owners = ring.placement(key).to_vec();
        for s in [&mut one, &mut odds] {
            let writer = *owners.iter().find(|n| odd[n.0 as usize]).unwrap();
            assert!(s.apply_write_on(writer, key, Version(5000), 300));
            assert_eq!(s.rows(), 1, "one write, one row");
            let hosted: Vec<_> = owners
                .iter()
                .filter(|&&n| s.placement.as_ref().unwrap().hosts(n))
                .collect();
            let row = s.table.row(key.0).unwrap();
            for (slot, &&owner) in row.iter().zip(&hosted) {
                assert_eq!(slot.holder as u32, owner.0, "ring order");
                let version = if owner == writer { 5000 } else { key.0 + 1 };
                assert_eq!(slot.version, Version(version));
            }
            assert!(row[hosted.len()..].iter().all(|s| !s.version.exists()));
            assert_eq!(s.check_counters(), Ok(()));
        }
        assert_eq!(one.key_count(), 3000);
        assert_eq!(one.bytes_stored(), 300_000 + 200);
    }

    /// What a diff `from → to` of key page 0 streams, `(key, version)`,
    /// with `ring` the current ring of a 5-node cluster and `load` its load
    /// ring while a crash is in force.
    fn diff(
        s: &mut ReplicaStore,
        ring: &Ring,
        load: Option<&Ring>,
        from: NodeId,
        to: NodeId,
    ) -> Vec<(u64, Version)> {
        let owners = PageOwners::build(0, ring, 5);
        let load = load.map(|load| PageOwners::build(0, load, 5));
        let mut out = Vec::new();
        s.diff_page(from, to, 0, &owners, load.as_ref(), &mut out);
        out.into_iter().map(|(k, v)| (k.0, v.version)).collect()
    }

    /// A loaded store of 5 nodes at RF 3 (keys 0..100, versions 1..=100),
    /// its load ring, and the owners of `key` under it.
    fn loaded_store(key: u64) -> (ReplicaStore, Arc<Ring>, Vec<NodeId>) {
        let (mut s, ring) = placed(5, 3, crate::ring::Partitioner::Hash, Vec::new());
        s.load(run(0, 100, 1, 100));
        let owners = ring.placement(Key(key)).to_vec();
        (s, ring, owners)
    }

    /// A node of the 5 that does not own `key`.
    fn outsider(owners: &[NodeId]) -> NodeId {
        (0..5).map(NodeId).find(|n| !owners.contains(n)).unwrap()
    }

    #[test]
    fn an_install_unsettles_its_key_side_map_installs_too() {
        let (mut s, ring, owners) = loaded_store(7);
        assert!((0..100).all(|k| !s.is_unsettled(Key(k))), "a load settles");
        for &owner in &owners {
            s.apply_write_on(owner, Key(7), Version(500), 10);
        }
        assert!(s.is_unsettled(Key(7)));
        assert_eq!(diff(&mut s, &ring, None, owners[0], owners[1]), []);
        assert!(
            !s.is_unsettled(Key(7)),
            "converged, so the visit settles it"
        );
        // A non-owner finds the row full: its copy goes to the side map.
        assert!(s.apply_write_on(outsider(&owners), Key(7), Version(600), 10));
        assert_eq!(s.side_copies(), 1);
        assert!(s.is_unsettled(Key(7)));
        assert_eq!(s.check_settled(&ring, false), Ok(()));
    }

    #[test]
    fn unsettle_all_covers_loaded_and_written_pages() {
        let (mut s, ring, owners) = loaded_store(0);
        let far = Key(3 * PAGE_SLOTS as u64 + 5);
        s.apply_write_on(owners[0], far, Version(500), 10);
        assert!(s.is_unsettled(far) && !s.is_unsettled(Key(0)));
        s.unsettle_all();
        assert!((0..100).map(Key).all(|k| s.is_unsettled(k)), "loaded keys");
        assert!(s.is_unsettled(far), "written keys past the load");
        assert_eq!(s.check_settled(&ring, false), Ok(()));
        // A store without summaries keeps no set, and reads all-unsettled.
        let mut bare = ReplicaStore::with_rows(3, false);
        bare.apply_write_on(owners[0], Key(0), Version(1), 10);
        bare.unsettle_all();
        assert!(bare.unsettled.is_empty());
        assert_eq!(bare.unsettled_word(9, 0), !0);
    }

    #[test]
    fn a_lagging_replica_a_newer_side_copy_or_a_bare_stand_in_keeps_a_key_unsettled() {
        // A lagging replica: only the first owner took the write.
        let (mut s, ring, owners) = loaded_store(10);
        s.apply_write_on(owners[0], Key(10), Version(500), 10);
        assert_eq!(diff(&mut s, &ring, None, owners[1], owners[2]), []);
        assert!(s.is_unsettled(Key(10)), "the other owners lag");
        let stream = diff(&mut s, &ring, None, owners[0], owners[1]);
        assert_eq!(stream, [(10, Version(500))]);

        // A non-replica holds a newer copy, in the side map.
        let (mut s, ring, owners) = loaded_store(20);
        for &owner in &owners {
            s.apply_write_on(owner, Key(20), Version(500), 10);
        }
        s.apply_write_on(outsider(&owners), Key(20), Version(600), 10);
        assert_eq!(diff(&mut s, &ring, None, owners[0], owners[1]), []);
        assert!(s.is_unsettled(Key(20)), "the owners lag the side copy");
        let stream = diff(&mut s, &ring, None, outsider(&owners), owners[0]);
        assert_eq!(stream, [(20, Version(600))]);

        // A crash puts a stand-in among the owners of a key without a row.
        let (mut s, load, owners) = loaded_store(30);
        let topology = concord_sim::Topology::single_dc(5);
        let simple = crate::ring::ReplicationStrategy::Simple;
        let hash = crate::ring::Partitioner::Hash;
        let crashed = Ring::excluding(&topology, 3, simple, 16, hash, |n| n == owners[0]);
        s.unsettle_all();
        let stand_in = *crashed
            .placement(Key(30))
            .iter()
            .find(|n| !owners.contains(n))
            .unwrap();
        let (a, b) = (owners[1], owners[2]);
        let stream = diff(&mut s, &crashed, Some(&load), a, b);
        assert!(stream.iter().all(|&(k, _)| k != 30), "both hold it");
        assert!(
            s.is_unsettled(Key(30)),
            "the stand-in lacks the implicit copy"
        );
        assert_eq!(s.check_settled(&crashed, false), Ok(()));
        let stream = diff(&mut s, &crashed, Some(&load), a, stand_in);
        assert!(stream.contains(&(30, Version(31))));
        // A key whose owners all survive settles on its first visit.
        let kept = (0..100).map(Key).find(|&k| {
            let now = crashed.placement(k);
            now.contains(&a) && now.iter().all(|n| load.placement(k).contains(n))
        });
        let kept = kept.unwrap();
        let other = *crashed.placement(kept).iter().find(|&&n| n != a).unwrap();
        let stream = diff(&mut s, &crashed, Some(&load), other, a);
        assert!(stream.iter().all(|&(k, _)| k != kept.0));
        assert!(!s.is_unsettled(kept));
        assert_eq!(s.check_settled(&crashed, false), Ok(()));
    }

    #[test]
    fn a_converged_row_clears() {
        let (mut s, ring, owners) = loaded_store(40);
        for (&owner, version) in owners.iter().zip([500, 500, 400]) {
            s.apply_write_on(owner, Key(40), Version(version), 10);
        }
        assert_eq!(diff(&mut s, &ring, None, owners[0], owners[1]), []);
        assert!(s.is_unsettled(Key(40)), "the third owner lags");
        let lags = s.check_settled(&ring, true).unwrap_err();
        assert_eq!(
            lags,
            "key 40 must have converged, but a current replica lags"
        );
        s.apply_write_on(owners[2], Key(40), Version(500), 10);
        assert_eq!(diff(&mut s, &ring, None, owners[0], owners[1]), []);
        assert!(
            !s.is_unsettled(Key(40)),
            "every owner holds the newest copy"
        );
        assert_eq!(s.check_settled(&ring, true), Ok(()));
        // A cleared key is not visited: a diff sees nothing to stream.
        assert_eq!(diff(&mut s, &ring, None, owners[2], owners[0]), []);
    }
}
