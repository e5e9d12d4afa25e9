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

    /// The mutable value of `slot`, allocating its page on first touch
    /// (filled with the `vacant` value).
    #[inline]
    pub fn get_mut(&mut self, slot: u64) -> &mut T {
        let page_idx = (slot >> PAGE_BITS) as usize;
        if page_idx >= self.pages.len() {
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
