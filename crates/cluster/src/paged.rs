//! The paged direct-index table the per-key state is built on.
//!
//! The workload generators guarantee (and assert) the *key-density
//! contract*: record ids are dense `u64`s below the configured record count.
//! The two per-event per-key tables — the replica store's slots
//! ([`ReplicaStore`](crate::ReplicaStore)) and the staleness oracle's
//! per-key slots ([`StalenessOracle`](crate::StalenessOracle)) — exploit it
//! with paged direct indexing instead of hashing: fixed 4096-slot pages
//! allocated on first write, so a lookup is a shift, a mask and a load, and
//! reads of never-written pages allocate nothing.
//!
//! That load is the cost. Under hash placement the benchmark's headline run
//! spreads 21 nodes × 750 000 slots × 16 B = 252 MB of store slots, probed
//! at zipfian-scrambled keys: every first touch of a slot is a cache miss
//! behind a TLB miss, ~150 ns in situ against the 2–5 ns a loop over a hot
//! table measures, and a sampling profile put 20 % of that run on the
//! store's first load and 7.5 % on the oracle's. The address is known one
//! event before the slot is needed, so `PagedTable::prefetch` lets the
//! scheduling handler hint it into cache (see the cluster module's "Memory
//! latency" section); what remains is the page walk, which a hint cannot
//! hide.
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

/// Slots per page (2^12). A page of 16-byte slots is 64 KiB: large enough
/// that paper-scale record counts touch a handful of pages, small enough
/// that a sparse tail (workload-D/E insert growth) does not balloon memory.
pub const PAGE_BITS: u32 = 12;
/// Number of slots in one page.
pub const PAGE_SLOTS: usize = 1 << PAGE_BITS;
/// Mask extracting the slot index within a page.
pub const PAGE_MASK: u64 = PAGE_SLOTS as u64 - 1;

/// Pages the page-pointer vector may grow to: 2^20 pages = 2^32 slots, far
/// past any record count the key-density contract admits. A slot beyond it
/// is a caller bug, reported by panic instead of by an allocation of
/// `slot >> PAGE_BITS` page pointers that aborts the process.
const MAX_PAGES: usize = 1 << 20;

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

/// A paged direct-index table over a dense `u64` slot space. See the module
/// docs for the layout and the vacancy contract.
#[derive(Debug, Clone)]
pub struct PagedTable<T> {
    /// Pages indexed by `slot >> PAGE_BITS`; `None` until first written.
    pages: Vec<Option<Box<[T]>>>,
    /// The value fresh pages are filled with. The table never interprets
    /// it — vacancy semantics belong to the caller.
    vacant: T,
}

impl<T: Clone> PagedTable<T> {
    /// An empty table whose fresh slots read as `vacant`.
    pub fn new(vacant: T) -> Self {
        PagedTable {
            pages: Vec::new(),
            vacant,
        }
    }

    /// The value of `slot`, if its page was ever written. Never allocates:
    /// probing an untouched page returns `None`.
    #[inline]
    pub fn get(&self, slot: u64) -> Option<&T> {
        let page = self.pages.get((slot >> PAGE_BITS) as usize)?.as_deref()?;
        Some(&page[(slot & PAGE_MASK) as usize])
    }

    /// Hint `slot`'s cache line towards the cache ahead of a
    /// [`get`](PagedTable::get) or [`get_mut`](PagedTable::get_mut) one
    /// event later (see the module docs). Never allocates: an untouched
    /// page or an out-of-range slot is a no-op.
    #[inline]
    pub(crate) fn prefetch(&self, slot: u64) {
        if let Some(value) = self.get(slot) {
            prefetch(value);
        }
    }

    /// The mutable value of `slot`, allocating its page on first touch
    /// (filled with the `vacant` value).
    ///
    /// # Panics
    /// Panics if `slot` lies at or beyond 2^32: the key-density contract
    /// (see the module docs) keeps record ids below the record count.
    #[inline]
    pub fn get_mut(&mut self, slot: u64) -> &mut T {
        let page_idx = (slot >> PAGE_BITS) as usize;
        if page_idx >= self.pages.len() {
            assert!(
                page_idx < MAX_PAGES,
                "slot {slot} is outside the paged table's 2^32-slot space: the \
                 key-density contract requires dense record ids below the \
                 configured record count"
            );
            self.pages.resize(page_idx + 1, None);
        }
        let page = self.pages[page_idx]
            .get_or_insert_with(|| vec![self.vacant.clone(); PAGE_SLOTS].into());
        &mut page[(slot & PAGE_MASK) as usize]
    }

    /// The raw storage of page `page_idx` (`PAGE_SLOTS` values), if
    /// allocated — the streaming-scan path: a range read walks whole pages
    /// instead of probing slot by slot.
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

    #[test]
    fn first_touch_allocates_exactly_one_page() {
        let mut t: PagedTable<u64> = PagedTable::new(0);
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
    fn prefetch_never_allocates_and_leaves_values_readable() {
        let mut t: PagedTable<u64> = PagedTable::new(0);
        t.prefetch(3);
        t.prefetch(u64::MAX);
        assert_eq!(t.allocated_pages(), 0, "a hint materializes no page");
        assert_eq!(t.get(3), None);
        *t.get_mut(3) = 7;
        t.prefetch(3);
        t.prefetch(4);
        t.prefetch(9 * PAGE_SLOTS as u64);
        assert_eq!(t.get(3), Some(&7));
        assert_eq!(t.get(4), Some(&0));
        assert_eq!(t.allocated_pages(), 1);
    }

    #[test]
    #[should_panic(expected = "key-density contract")]
    fn a_slot_past_the_slot_space_panics_instead_of_allocating() {
        let mut t: PagedTable<u64> = PagedTable::new(0);
        // Would resize the page-pointer vector to 2^48 entries.
        t.get_mut(1 << 60);
    }

    #[test]
    fn the_last_slot_of_the_slot_space_is_addressable() {
        let mut t: PagedTable<u8> = PagedTable::new(0);
        *t.get_mut((1 << 32) - 1) = 1;
        assert_eq!(t.get((1 << 32) - 1), Some(&1));
        assert_eq!(t.allocated_pages(), 1);
    }

    #[test]
    fn adjacent_slots_across_a_page_boundary_are_independent_pages() {
        let mut t: PagedTable<u32> = PagedTable::new(u32::MAX);
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
        let mut versions: PagedTable<u64> = PagedTable::new(0);
        *versions.get_mut(9) = 42;
        assert_eq!(*versions.get(10).unwrap(), 0, "version 0 = absent");
        // acked-0 (oracle): the fill value is whatever the caller deems empty.
        #[derive(Clone, Debug, PartialEq)]
        struct Hist {
            acked: u64,
        }
        let mut hists: PagedTable<Hist> = PagedTable::new(Hist { acked: 0 });
        hists.get_mut(3).acked = 5;
        assert_eq!(hists.get(4).unwrap().acked, 0, "acked 0 = absent");
    }
}
