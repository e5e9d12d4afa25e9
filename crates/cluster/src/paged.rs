//! The paged direct-index table the per-key state is built on.
//!
//! The workload generators guarantee (and assert) the *key-density
//! contract*: record ids are dense `u64`s below the configured record count.
//! The two per-event per-key tables — the replica store's rows
//! ([`ReplicaStore`](crate::ReplicaStore)) and the staleness oracle's
//! per-key slots ([`StalenessOracle`](crate::StalenessOracle)) — exploit it
//! with paged direct indexing instead of hashing. Index `i` owns a row of
//! `width` adjacent slots — RF for the store, one slot of each replica of
//! the key; 1 for the oracle — and a page holds the rows of [`PAGE_SLOTS`]
//! consecutive indices, so a row never straddles a page. Pages are allocated
//! on first write, a lookup is a shift, a mask, a multiply and a load, and
//! reads of never-written pages allocate nothing.
//!
//! That load is the cost. Under hash placement the benchmark's headline run
//! spreads 750 000 rows × 3 slots × 16 B = 34.5 MiB of store slots and
//! 17 MiB of oracle slots, probed at zipfian-scrambled keys: every first
//! touch of a row is a cache miss behind a TLB miss, ~150 ns in situ against
//! the 2–5 ns a loop over a hot table measures. A sampling profile of the
//! per-node layout this one replaced (a table per node over every key, 7×
//! the store's size) put 20 % of that run on the store's first load and
//! 7.5 % on the oracle's. The address is known one event before the row is
//! needed, so `PagedTable::prefetch` lets the scheduling handler hint it
//! into cache (see the cluster module's "Memory latency" section); what
//! remains is the page walk, which a hint cannot hide.
//!
//! * **paging + first-touch allocation** live here, once;
//! * **vacancy stays with the caller**: a fresh page is filled with the
//!   caller-supplied `vacant` value, and the table never interprets it —
//!   the replica store keeps "version 0 = absent", the oracle keeps
//!   "`acked_writes == 0` = absent".
//!
//! Filling fresh pages is the bulk of a cluster's set-up (every replica of
//! every loaded record touches a slot), so slot size is the lever: both
//! users pin theirs with a `const` assertion.

/// Indices per page (2^12): a page holds the rows of `PAGE_SLOTS`
/// consecutive indices, `PAGE_SLOTS × width` slots. At width 1 a page of
/// 16-byte slots is 64 KiB: large enough that paper-scale record counts
/// touch a handful of pages, small enough that a sparse tail (workload-D/E
/// insert growth) does not balloon memory.
pub const PAGE_BITS: u32 = 12;
/// Number of indices (rows) in one page.
pub const PAGE_SLOTS: usize = 1 << PAGE_BITS;
/// Mask extracting an index's row position within its page.
pub const PAGE_MASK: u64 = PAGE_SLOTS as u64 - 1;

/// Slots a table may address: 2^32, far past any record count × RF the
/// key-density contract admits. A row reaching past it is a caller bug:
/// a write panics instead of allocating a page-pointer vector sized by the
/// key (which aborts the process), and a read finds nothing.
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

/// A paged direct-index table of fixed-width rows over a dense `u64` index
/// space. See the module docs for the layout and the vacancy contract.
#[derive(Debug, Clone)]
pub struct PagedTable<T> {
    /// Pages indexed by `index >> PAGE_BITS`; `None` until first written.
    pages: Vec<Option<Box<[T]>>>,
    /// Slots per row.
    width: usize,
    /// The value fresh pages are filled with. The table never interprets
    /// it — vacancy semantics belong to the caller.
    vacant: T,
}

impl<T: Clone> PagedTable<T> {
    /// An empty table of `width`-slot rows whose fresh slots read as
    /// `vacant`: a page is `PAGE_SLOTS × width` slots.
    ///
    /// # Panics
    /// Panics if `width` is 0 or not below the slot space.
    pub fn new(vacant: T, width: usize) -> Self {
        assert!(
            (1..SLOT_SPACE as usize).contains(&width),
            "a row holds at least one slot and fits the slot space (width {width})"
        );
        PagedTable {
            pages: Vec::new(),
            width,
            vacant,
        }
    }

    /// Slots per row.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Whether `index`'s row lies inside the slot space. The row's first
    /// slot `index · width` is computed checked: `profile.release` has no
    /// overflow checks, and a wrapped product would alias a live row.
    #[inline]
    fn in_space(&self, index: u64) -> bool {
        let width = self.width as u64;
        index
            .checked_mul(width)
            .is_some_and(|start| start <= SLOT_SPACE - width)
    }

    /// `index`'s page and the offset of its row's first slot in that page.
    #[inline]
    fn locate(&self, index: u64) -> (usize, usize) {
        let page = (index >> PAGE_BITS) as usize;
        (page, (index & PAGE_MASK) as usize * self.width)
    }

    /// The row of `index`, if its page was ever written. Never allocates:
    /// an untouched page, or a row past the slot space, reads as `None`.
    #[inline]
    pub fn row(&self, index: u64) -> Option<&[T]> {
        if !self.in_space(index) {
            return None;
        }
        let (page, at) = self.locate(index);
        let page = self.pages.get(page)?.as_deref()?;
        Some(&page[at..at + self.width])
    }

    /// The mutable row of `index`, allocating its page on first touch
    /// (filled with the `vacant` value).
    ///
    /// # Panics
    /// Panics if the row reaches past the 2^32-slot space: the key-density
    /// contract (see the module docs) keeps record ids below the record
    /// count.
    #[inline]
    pub fn row_mut(&mut self, index: u64) -> &mut [T] {
        let width = self.width;
        assert!(
            self.in_space(index),
            "slot {index}×{width} (row {index} of {width} slots) is outside the \
             paged table's 2^32-slot space: the key-density contract requires \
             dense record ids below the configured record count"
        );
        let (page_idx, at) = self.locate(index);
        if page_idx >= self.pages.len() {
            self.pages.resize(page_idx + 1, None);
        }
        let page = self.pages[page_idx]
            .get_or_insert_with(|| vec![self.vacant.clone(); PAGE_SLOTS * width].into());
        &mut page[at..at + width]
    }

    /// The first slot of `index`'s row — a width-1 table's slot (see
    /// [`row`](PagedTable::row)).
    #[inline]
    pub fn get(&self, index: u64) -> Option<&T> {
        self.row(index).map(|row| &row[0])
    }

    /// The mutable first slot of `index`'s row — a width-1 table's slot
    /// (see [`row_mut`](PagedTable::row_mut), including its panic).
    #[inline]
    pub fn get_mut(&mut self, index: u64) -> &mut T {
        &mut self.row_mut(index)[0]
    }

    /// Hint `index`'s row towards the cache ahead of an access one event
    /// later (see the module docs): its first and its last slot, so a row
    /// that straddles a cache line arrives whole. Never allocates: an
    /// untouched page or a row past the slot space is a no-op.
    #[inline]
    pub(crate) fn prefetch(&self, index: u64) {
        match self.row(index) {
            Some([only]) => prefetch(only),
            Some([first, .., last]) => {
                prefetch(first);
                prefetch(last);
            }
            _ => {}
        }
    }

    /// The raw storage of page `page_idx` (`PAGE_SLOTS × width` values,
    /// row after row), if allocated — the streaming-scan path: a range read
    /// walks whole pages instead of probing row by row.
    #[inline]
    pub fn page(&self, page_idx: usize) -> Option<&[T]> {
        self.pages.get(page_idx)?.as_deref()
    }

    /// Number of pages actually allocated (tests and memory diagnostics).
    pub fn allocated_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
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
        let mut t: PagedTable<u64> = PagedTable::new(0, 1);
        assert_eq!(t.allocated_pages(), 0);
        assert_eq!(
            t.get(5 * PAGE_SLOTS as u64 + 3),
            None,
            "probe allocates nothing"
        );
        assert_eq!(t.allocated_pages(), 0);
        *t.get_mut(5 * PAGE_SLOTS as u64 + 3) = 7;
        assert_eq!(t.allocated_pages(), 1, "one write, one page");
        assert_eq!(t.get(5 * PAGE_SLOTS as u64 + 3), Some(&7));
        // Neighbours on the same page read as the vacant fill.
        assert_eq!(t.get(5 * PAGE_SLOTS as u64 + 4), Some(&0));
        // Other pages stay unallocated.
        assert_eq!(t.get(0), None);
        assert_eq!(t.get(100 * PAGE_SLOTS as u64), None);
        assert_eq!(t.allocated_pages(), 1);
    }

    #[test]
    fn rows_are_adjacent_and_a_page_holds_page_slots_of_them() {
        let mut t: PagedTable<u32> = PagedTable::new(0, 3);
        t.row_mut(1).copy_from_slice(&[1, 2, 3]);
        t.row_mut(PAGE_SLOTS as u64 - 1)[2] = 9;
        assert_eq!(t.allocated_pages(), 1, "every row of 4096 keys, one page");
        let page = t.page(0).unwrap();
        assert_eq!(page.len(), PAGE_SLOTS * 3);
        assert_eq!(&page[3..6], &[1, 2, 3], "row 1 starts at slot 1 · 3");
        assert_eq!(page[PAGE_SLOTS * 3 - 1], 9, "the last row ends the page");
        assert_eq!(t.row(1), Some(&[1, 2, 3][..]));
        assert_eq!(t.get(1), Some(&1), "get is the row's first slot");
        assert_eq!(t.row(2), Some(&[0, 0, 0][..]));
        assert_eq!(t.row(PAGE_SLOTS as u64), None, "the next page is untouched");
    }

    #[test]
    fn prefetch_never_allocates_and_leaves_values_readable() {
        for width in [1, 3] {
            let mut t: PagedTable<u64> = PagedTable::new(0, width);
            let last = last_index(width as u64);
            for index in [3, u64::MAX, u64::MAX / 2, last, last + 1] {
                t.prefetch(index);
            }
            assert_eq!(t.allocated_pages(), 0, "a hint materializes no page");
            assert_eq!(t.get(3), None);
            *t.get_mut(3) = 7;
            for index in [3, 4, 9 * PAGE_SLOTS as u64, u64::MAX, u64::MAX / 2] {
                t.prefetch(index);
            }
            assert_eq!(t.get(3), Some(&7));
            assert_eq!(t.get(4), Some(&0));
            assert_eq!(t.allocated_pages(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "key-density contract")]
    fn a_slot_past_the_slot_space_panics_instead_of_allocating() {
        // Width 3: `index · 3` wraps for `u64::MAX / 2` and `u64::MAX`, and
        // lands past the slot space for the other two; none may allocate.
        let mut wide: PagedTable<u64> = PagedTable::new(0, 3);
        let last = last_index(3);
        for index in [u64::MAX, u64::MAX / 2, 1 << 60, last + 1] {
            let write = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                wide.row_mut(index)[0] = 1;
            }));
            assert!(write.is_err(), "a write of row {index} must panic");
            assert_eq!(wide.row(index), None, "and a read finds nothing");
            assert_eq!(wide.allocated_pages(), 0, "row {index} allocated");
        }
        let mut t: PagedTable<u64> = PagedTable::new(0, 1);
        // Would resize the page-pointer vector to 2^48 entries.
        t.get_mut(1 << 60);
    }

    #[test]
    fn the_last_slot_of_the_slot_space_is_addressable() {
        let mut t: PagedTable<u8> = PagedTable::new(0, 1);
        *t.get_mut((1 << 32) - 1) = 1;
        assert_eq!(t.get((1 << 32) - 1), Some(&1));
        assert_eq!(t.allocated_pages(), 1);
        // At width 3 the last whole row ends one slot short of 2^32.
        let mut wide: PagedTable<u8> = PagedTable::new(0, 3);
        let last = last_index(3);
        assert_eq!(last * 3 + 3, SLOT_SPACE - 1);
        wide.row_mut(last)[2] = 5;
        assert_eq!(wide.row(last), Some(&[0, 0, 5][..]));
        assert_eq!(wide.row(last + 1), None, "its neighbour would cross 2^32");
        assert_eq!(wide.allocated_pages(), 1);
    }

    #[test]
    fn adjacent_slots_across_a_page_boundary_are_independent_pages() {
        let mut t: PagedTable<u32> = PagedTable::new(u32::MAX, 1);
        let boundary = PAGE_SLOTS as u64;
        *t.get_mut(boundary - 1) = 1;
        *t.get_mut(boundary) = 2;
        assert_eq!(t.allocated_pages(), 2);
        assert_eq!(t.get(boundary - 1), Some(&1));
        assert_eq!(t.get(boundary), Some(&2));
        // The page accessor exposes each side separately.
        assert_eq!(t.page(0).unwrap()[PAGE_SLOTS - 1], 1);
        assert_eq!(t.page(1).unwrap()[0], 2);
        assert_eq!(t.page(2), None);
    }

    #[test]
    fn vacancy_is_the_callers_convention() {
        // version-0 (replica store): vacant slots read as 0.
        let mut versions: PagedTable<u64> = PagedTable::new(0, 1);
        *versions.get_mut(9) = 42;
        assert_eq!(*versions.get(10).unwrap(), 0, "version 0 = absent");
        // acked-0 (oracle): the fill value is whatever the caller deems empty.
        #[derive(Clone, Debug, PartialEq)]
        struct Hist {
            acked: u64,
        }
        let mut hists: PagedTable<Hist> = PagedTable::new(Hist { acked: 0 }, 1);
        hists.get_mut(3).acked = 5;
        assert_eq!(hists.get(4).unwrap().acked, 0, "acked 0 = absent");
    }
}
