//! The row-sparse table the per-key state is built on, and the loaded
//! records that need no row in it.
//!
//! The workload generators guarantee (and assert) the *key-density
//! contract*: record ids are dense `u64`s below the configured record count.
//! The two per-event per-key tables — the replica store's rows
//! ([`ReplicaStore`](crate::ReplicaStore)) and the staleness oracle's
//! per-key slots ([`StalenessOracle`](crate::StalenessOracle)) — exploit it
//! with direct indexing instead of hashing, in a [`RowTable`]: a dense `u32`
//! row number per key (0 while the key has no row) and an arena of the rows
//! that were materialized, `width` adjacent slots each — RF for the store,
//! one slot of each replica of the key; 1 for the oracle. Both are split
//! into pages of [`PAGE_SLOTS`] keys, a page holding its keys' row numbers
//! and their rows, allocated on the first row materialized in it: a lookup
//! is a shift, a mask and three dependent loads, reads of keys without a
//! row allocate nothing, and a walk over a page's keys (a range scan, a
//! repair diff) stays inside the page's rows.
//!
//! **Most keys never get a row.** A cluster's bulk load
//! (`Cluster::load_records`) records one `LoadRun` per table — its
//! contiguous keys, their versions and their one size — instead of writing
//! a row per record, and every reader of a key without a row answers from
//! the run: a loaded record is held at its load version by exactly its
//! owners under the ring it was loaded on. A row is materialized on a
//! key's first write, spelling the loaded copies out as the load would
//! have. A workload writes a few percent of its records (3.9 % of
//! `exp_harmony`'s at seed 2013), so the others cost 4 bytes of row number
//! — nothing at all where no row of their page was ever materialized —
//! instead of RF × 16 B of store row and a 24-byte oracle slot, and setting
//! a cluster up touches no memory per record.
//!
//! The materialized rows are compact in their page (a key is materialized
//! when it is first written), and a row number is 4 bytes where a loaded
//! key used to cost 72 at RF 3, which keeps most probes in cache. Under
//! hash placement both are still probed at scrambled keys, so the cluster
//! hints an access in two stages: the row number
//! (`RowTable::prefetch_entry`, never a load) an event or more ahead of
//! the row (`RowTable::prefetch_row`, which reads the number) — see the
//! cluster module's "Memory latency" section.
//!
//! * **indexing + the arena** live here, once;
//! * **what a slot means stays with the caller**: a fresh row is filled
//!   with the caller-supplied `vacant` value, and the table never
//!   interprets it — the replica store keeps "version 0 = absent"; the
//!   oracle fills every slot it materializes at once.

use crate::types::{StoredValue, Version};

/// Keys per page (2^12), and the key page of the repair plane's page
/// diffs: a page's row numbers take 16 KiB.
pub const PAGE_BITS: u32 = 12;
/// Number of keys in one page.
pub const PAGE_SLOTS: usize = 1 << PAGE_BITS;
/// Mask extracting a key's position within its page.
pub const PAGE_MASK: u64 = PAGE_SLOTS as u64 - 1;

/// Slots a table may address: 2^32, far past any record count × RF the
/// key-density contract admits. A row reaching past it is a caller bug:
/// materializing it (or loading its key) panics instead of allocating an
/// index sized by the key (which aborts the process), and a read finds
/// nothing.
pub const SLOT_SPACE: u64 = 1 << 32;

/// Hint the cache line of `value` into every cache level. A no-op off
/// x86-64, and never a load: the caller goes on without waiting for it.
#[inline(always)]
#[allow(unsafe_code)]
pub(crate) fn prefetch<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `_mm_prefetch` needs SSE, which is part of the x86-64
        // baseline; the address comes from a live reference; and a prefetch
        // is a hint that cannot fault or change architectural state.
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(value).cast::<i8>());
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

/// One page of a [`RowTable`]: the row number of each of its indices (0
/// while it has none) and the rows materialized for them, `width` slots
/// each, in materialization order.
#[derive(Debug, Clone)]
struct Page<T> {
    rows: Vec<T>,
    index: [u32; PAGE_SLOTS],
}

/// A row-sparse direct-index table of fixed-width rows over a dense `u64`
/// index space. See the module docs for the layout and the vacancy
/// contract.
#[derive(Debug, Clone)]
pub struct RowTable<T> {
    /// Pages by `index >> PAGE_BITS`; `None` until a row of the page is
    /// materialized.
    pages: Vec<Option<Box<Page<T>>>>,
    /// Slots per row.
    width: usize,
    /// The value a fresh row is filled with. The table never interprets it —
    /// vacancy semantics belong to the caller.
    vacant: T,
    /// Rows materialized, over every page.
    rows: usize,
}

/// The rows of one page of a [`RowTable`], by in-page offset: what a walk
/// over a page's keys (a range scan, a repair diff) reads, looking the page
/// up once.
#[derive(Debug)]
pub struct PageRows<'a, T> {
    page: &'a Page<T>,
    width: usize,
}

impl<T> Clone for PageRows<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for PageRows<'_, T> {}

impl<'a, T> PageRows<'a, T> {
    /// The row at in-page offset `off` (below [`PAGE_SLOTS`]), if it has
    /// one.
    #[inline]
    pub fn row(self, off: usize) -> Option<&'a [T]> {
        match self.page.index[off] {
            0 => None,
            row => {
                let at = (row as usize - 1) * self.width;
                Some(&self.page.rows[at..at + self.width])
            }
        }
    }
}

impl<T: Clone> RowTable<T> {
    /// An empty table of `width`-slot rows whose fresh slots read as
    /// `vacant`.
    ///
    /// # Panics
    /// Panics if `width` is 0 or not below the slot space.
    pub fn new(vacant: T, width: usize) -> Self {
        assert!(
            (1..SLOT_SPACE as usize).contains(&width),
            "a row holds at least one slot and fits the slot space (width {width})"
        );
        RowTable {
            pages: Vec::new(),
            width,
            vacant,
            rows: 0,
        }
    }

    /// Slots per row.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Whether `index`'s row lies inside the slot space. The row's first
    /// slot `index · width` is computed checked: `profile.release` has no
    /// overflow checks, and a wrapped product would pass for a small one.
    #[inline]
    fn in_space(&self, index: u64) -> bool {
        let width = self.width as u64;
        index
            .checked_mul(width)
            .is_some_and(|start| start <= SLOT_SPACE - width)
    }

    /// Assert that `index`'s row lies inside the slot space.
    ///
    /// # Panics
    /// Panics if the row reaches past the 2^32-slot space: the key-density
    /// contract (see the module docs) keeps record ids below the record
    /// count.
    #[inline]
    pub fn assert_in_space(&self, index: u64) {
        let width = self.width;
        assert!(
            self.in_space(index),
            "slot {index}×{width} (row {index} of {width} slots) is outside the \
             paged table's 2^32-slot space: the key-density contract requires \
             dense record ids below the configured record count"
        );
    }

    /// The rows of page `page`, if a row of it was ever materialized.
    #[inline]
    pub fn page(&self, page: usize) -> Option<PageRows<'_, T>> {
        let page = self.pages.get(page)?.as_deref()?;
        Some(PageRows {
            page,
            width: self.width,
        })
    }

    /// The row of `index`, if it has one. Never allocates.
    #[inline]
    pub fn row(&self, index: u64) -> Option<&[T]> {
        self.page((index >> PAGE_BITS) as usize)?
            .row((index & PAGE_MASK) as usize)
    }

    /// The row of `index`, mutably, if it has one.
    #[inline]
    pub fn row_mut(&mut self, index: u64) -> Option<&mut [T]> {
        let page = self
            .pages
            .get_mut((index >> PAGE_BITS) as usize)?
            .as_deref_mut()?;
        match page.index[(index & PAGE_MASK) as usize] {
            0 => None,
            row => {
                let at = (row as usize - 1) * self.width;
                Some(&mut page.rows[at..at + self.width])
            }
        }
    }

    /// Give `index` a fresh row filled with the `vacant` value, at the end
    /// of its page's rows.
    ///
    /// # Panics
    /// Panics if `index` already has a row, or (see
    /// [`RowTable::assert_in_space`]) if the row reaches past the 2^32-slot
    /// space.
    pub fn materialize(&mut self, index: u64) -> &mut [T] {
        self.assert_in_space(index);
        let (page, width) = ((index >> PAGE_BITS) as usize, self.width);
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        let page = self.pages[page].get_or_insert_with(|| {
            Box::new(Page {
                rows: Vec::new(),
                index: [0; PAGE_SLOTS],
            })
        });
        let entry = &mut page.index[(index & PAGE_MASK) as usize];
        assert_eq!(*entry, 0, "index {index} already has a row");
        let at = page.rows.len();
        // A page holds at most PAGE_SLOTS rows.
        *entry = (at / width + 1) as u32;
        page.rows
            .extend(std::iter::repeat_n(self.vacant.clone(), width));
        self.rows += 1;
        &mut page.rows[at..]
    }

    /// Every slot of every materialized row.
    pub fn slots(&self) -> impl Iterator<Item = &T> {
        self.pages.iter().flatten().flat_map(|page| &page.rows)
    }

    /// Number of rows materialized.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of pages up to the last one a row was materialized on.
    pub fn pages(&self) -> usize {
        self.pages.len()
    }

    /// Hint `index`'s row number towards the cache, the first of two
    /// stages ahead of an access (see the module docs). Never a load — a
    /// key without a page, or past the slot space, is a no-op — and never
    /// allocates.
    #[inline]
    pub(crate) fn prefetch_entry(&self, index: u64) {
        if let Some(page) = self.pages.get((index >> PAGE_BITS) as usize) {
            if let Some(page) = page.as_deref() {
                prefetch(&page.index[(index & PAGE_MASK) as usize]);
            }
        }
    }

    /// Hint `index`'s row towards the cache, the second stage: its first
    /// and its last slot, so a row that straddles a cache line arrives
    /// whole. This *reads* the row number, so it belongs an event or more
    /// after [`RowTable::prefetch_entry`], when that load hits. A key
    /// without a row is a no-op; nothing is allocated.
    #[inline]
    pub(crate) fn prefetch_row(&self, index: u64) {
        match self.row(index) {
            Some([only]) => prefetch(only),
            Some([first, .., last]) => {
                prefetch(first);
                prefetch(last);
            }
            _ => {}
        }
    }
}

/// The records a bulk load placed without a row: keys `first..first +
/// count`, key `first + i` at version `first_version + i · step`, every one
/// `size` bytes (see the module docs). The default run holds no key.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LoadRun {
    /// The run's first key.
    pub(crate) first: u64,
    /// Number of keys.
    pub(crate) count: u64,
    /// The first key's version.
    pub(crate) first_version: u64,
    /// The version difference between adjacent keys: 1 on the one-shard
    /// engine, whose load versions count up; 0 on more shards, where every
    /// load version is `Version(1)`.
    pub(crate) step: u64,
    /// Payload bytes of every record.
    pub(crate) size: u32,
}

impl LoadRun {
    /// One past the run's last key.
    pub(crate) fn end(&self) -> u64 {
        self.first + self.count
    }

    /// The loaded record of `key`, if the run holds it.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<StoredValue> {
        (self.first..self.end())
            .contains(&key)
            .then(|| StoredValue {
                version: Version(self.first_version + (key - self.first) * self.step),
                size: self.size,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The last index whose whole row of `width` slots fits the slot space.
    fn last_index(width: u64) -> u64 {
        SLOT_SPACE / width - 1
    }

    #[test]
    fn first_touch_allocates_exactly_one_page() {
        let mut t: RowTable<u64> = RowTable::new(0, 1);
        let key = 5 * PAGE_SLOTS as u64 + 3;
        assert_eq!(t.row(key), None, "probes allocate nothing");
        assert!(t.page(5).is_none());
        t.materialize(key)[0] = 7;
        assert_eq!(t.row(key), Some(&[7][..]));
        assert_eq!(t.rows(), 1);
        // Neighbours on the same page have no row; other pages no page.
        assert_eq!(t.row(key + 1), None);
        assert_eq!(t.pages.iter().flatten().count(), 1, "one write, one page");
        assert!(t.page(0).is_none() && t.page(100).is_none());
        assert_eq!(t.row(100 * PAGE_SLOTS as u64), None);
    }

    #[test]
    fn rows_are_adjacent_and_a_page_holds_page_slots_of_them() {
        let mut t: RowTable<u32> = RowTable::new(9, 3);
        t.materialize(5).copy_from_slice(&[1, 2, 3]);
        t.materialize(1);
        t.materialize(PAGE_SLOTS as u64 + 1);
        let page = t.pages[0].as_deref().unwrap();
        assert_eq!(page.index.len(), PAGE_SLOTS);
        assert_eq!(
            (page.index[5], page.index[1]),
            (1, 2),
            "materialization order"
        );
        assert_eq!(page.rows, [1, 2, 3, 9, 9, 9], "a page's rows are adjacent");
        assert_eq!(t.row(1), Some(&[9, 9, 9][..]), "fresh rows read vacant");
        let next = t.page(1).unwrap();
        assert_eq!(
            next.row(1),
            Some(&[9, 9, 9][..]),
            "the next page has its own"
        );
        assert_eq!((t.rows(), t.slots().count()), (3, 9));
    }

    #[test]
    fn adjacent_slots_across_a_page_boundary_are_independent_pages() {
        let mut t: RowTable<u32> = RowTable::new(u32::MAX, 1);
        let boundary = PAGE_SLOTS as u64;
        t.materialize(boundary - 1)[0] = 1;
        t.materialize(boundary)[0] = 2;
        assert_eq!(t.pages.iter().flatten().count(), 2);
        assert_eq!(t.row(boundary - 1), Some(&[1][..]));
        assert_eq!(t.row(boundary), Some(&[2][..]));
        // The page accessor exposes each side separately.
        assert_eq!(t.page(0).unwrap().row(PAGE_SLOTS - 1), Some(&[1][..]));
        assert_eq!(t.page(1).unwrap().row(0), Some(&[2][..]));
        assert!(t.page(2).is_none());
    }

    #[test]
    fn vacancy_is_the_callers_convention() {
        // version-0 (replica store): vacant slots read as 0.
        let mut versions: RowTable<u64> = RowTable::new(0, 2);
        versions.materialize(9)[0] = 42;
        assert_eq!(versions.row(9), Some(&[42, 0][..]), "version 0 = absent");
        // The fill value is whatever the caller deems empty.
        #[derive(Clone, Debug, PartialEq)]
        struct Hist {
            acked: u64,
        }
        let mut hists: RowTable<Hist> = RowTable::new(Hist { acked: 0 }, 1);
        assert_eq!(hists.materialize(3)[0].acked, 0, "acked 0 = absent");
    }

    #[test]
    #[should_panic(expected = "already has a row")]
    fn a_row_is_materialized_once() {
        let mut t: RowTable<u8> = RowTable::new(0, 2);
        t.materialize(4);
        t.materialize(4);
    }

    #[test]
    fn prefetch_never_allocates_and_leaves_values_readable() {
        for width in [1, 3] {
            let mut t: RowTable<u64> = RowTable::new(0, width);
            let last = last_index(width as u64);
            for index in [3, u64::MAX, u64::MAX / 2, last, last + 1] {
                t.prefetch_entry(index);
                t.prefetch_row(index);
            }
            assert_eq!(
                (t.rows(), t.pages.len()),
                (0, 0),
                "a hint materializes nothing"
            );
            t.materialize(3)[0] = 7;
            for index in [3, 4, 9 * PAGE_SLOTS as u64, u64::MAX, u64::MAX / 2] {
                t.prefetch_entry(index);
                t.prefetch_row(index);
            }
            assert_eq!(t.row(3).map(|r| r[0]), Some(7));
            assert_eq!(t.row(4), None);
            assert_eq!((t.rows(), t.pages.len()), (1, 1));
        }
    }

    #[test]
    #[should_panic(expected = "key-density contract")]
    fn a_slot_past_the_slot_space_panics_instead_of_allocating() {
        // Width 3: `index · 3` wraps for `u64::MAX / 2` and `u64::MAX`, and
        // lands past the slot space for the other two; none may allocate.
        let mut wide: RowTable<u64> = RowTable::new(0, 3);
        let last = last_index(3);
        for index in [u64::MAX, u64::MAX / 2, 1 << 60, last + 1] {
            let write = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                wide.materialize(index);
            }));
            assert!(write.is_err(), "a row for {index} must panic");
            assert_eq!(wide.row(index), None, "and a read finds nothing");
            assert_eq!(
                (wide.rows(), wide.pages.len()),
                (0, 0),
                "row {index} allocated"
            );
        }
        let mut t: RowTable<u64> = RowTable::new(0, 1);
        // Would resize the page vector to 2^48 entries.
        t.materialize(1 << 60);
    }

    #[test]
    fn the_last_slot_of_the_slot_space_is_addressable() {
        let mut t: RowTable<u8> = RowTable::new(0, 1);
        t.materialize((1 << 32) - 1)[0] = 1;
        assert_eq!(t.row((1 << 32) - 1), Some(&[1][..]));
        // At width 3 the last whole row ends one slot short of 2^32.
        let mut wide: RowTable<u8> = RowTable::new(0, 3);
        let last = last_index(3);
        assert_eq!(last * 3 + 3, SLOT_SPACE - 1);
        wide.materialize(last)[2] = 5;
        assert_eq!(wide.row(last), Some(&[0, 0, 5][..]));
        assert_eq!(wide.row(last + 1), None, "its neighbour would cross 2^32");
        wide.assert_in_space(last);
        let past = std::panic::catch_unwind(|| wide.assert_in_space(last + 1));
        assert!(past.is_err());
    }

    #[test]
    fn a_load_run_answers_its_keys_and_nothing_else() {
        let at = |run: LoadRun| move |key| run.get(key).map(|v| (v.version.0, v.size));
        let counting = LoadRun {
            first: 3,
            count: 3,
            first_version: 5,
            step: 1,
            size: 10,
        };
        assert_eq!(counting.end(), 6);
        assert_eq!(
            [0, 2, 3, 5, 6, u64::MAX].map(at(counting)),
            [None, None, Some((5, 10)), Some((7, 10)), None, None]
        );
        // The sharded engine's loads all carry `Version(1)`.
        let flat = LoadRun {
            step: 0,
            first_version: 1,
            ..counting
        };
        let one = Some((1, 10));
        assert_eq!([3, 4, 5, 6].map(at(flat)), [one, one, one, None]);
        let empty = LoadRun::default();
        assert_eq!(
            [0, 1, u64::MAX].map(at(empty)),
            [None; 3],
            "the default run"
        );
    }
}
