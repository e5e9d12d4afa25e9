//! Ground-truth staleness oracle.
//!
//! The simulation can do something the paper's real deployments cannot: know
//! *exactly* which reads were stale. The oracle tracks, per key, the sequence
//! of write versions in the order their consistency level was satisfied
//! (acknowledged to the client). A read issued at time `t` is stale if it
//! returns a version older than the newest version acknowledged before `t`.
//! This is the same definition the Monte-Carlo staleness estimator and the
//! Harmony model use, so measured and estimated rates are directly
//! comparable (as they are in the paper's Harmony evaluation).
//!
//! The oracle classifies and does not count: a read's classification goes
//! onto its [`CompletedOp`](crate::CompletedOp), and
//! [`ClusterMetrics`](crate::ClusterMetrics) counts stale reads and their
//! depths from there.
//!
//! ## Layout: a 24-byte slot per acknowledged key, histories in a side arena
//!
//! Like [`ReplicaStore`](crate::ReplicaStore), the per-key state lives in
//! the shared [`RowTable`] over the dense record-id space, in rows one
//! slot wide, instead of a hash map: `expected_version` / `record_ack` /
//! `classify_read` run once per simulated operation, and with direct
//! indexing each is an index lookup and a load. Over a data set larger than
//! the cache those loads miss, so the cluster hints the index entry and the
//! slot through `StalenessOracle::prefetch_entry` and
//! `StalenessOracle::prefetch_slot` from the handlers that schedule the
//! events that will need them — see [`paged`](crate::paged).
//!
//! A slot holds only what every operation reads: the latest acknowledged
//! version, the ack count and an index. The bounded, binary-searched version
//! history that staleness *depth* and retroactive queries are computed from
//! lives in a side arena, and a key enters it on its first acknowledged
//! write (or a second preload).
//!
//! **The implicit preload entry.** A record of a cluster's bulk load
//! (`StalenessOracle::load`, from `Cluster::load_records`) gets no slot:
//! the load's `LoadRun`s stand for it, and a key without a slot that a
//! run holds reads as the slot `(load version, 1 ack, no history)` — its
//! one baseline entry `(load version, 1, SimTime::ZERO)`, acknowledged at
//! time zero. Every reader honours it: `expected_version`,
//! `expected_version_at`, `classify_read` and `classify_read_at`.
//! `record_ack` spells it out on the key's first ack — the slot, then the
//! baseline as the history's first entry — exactly as a preloaded slot
//! would have. So bulk-loading millions of records touches no memory per
//! key, and only keys that are actually written pay for a slot and a
//! history. The oracle needs no ring: which replicas hold a loaded record
//! is the store's question, not the oracle's.

use crate::paged::{LoadRun, LoadRuns, RowTable};
use crate::types::{Key, Version};
use concord_sim::SimTime;
use std::collections::VecDeque;
use std::num::NonZeroU32;

/// How many recent acknowledged versions are kept per key for computing the
/// staleness *depth*. Older history is dropped (the depth saturates), which
/// bounds the oracle's memory for long runs.
const DEPTH_HISTORY: usize = 64;

/// Per-key acknowledged-write bookkeeping. A slot with `acked_writes == 0`
/// is vacant: a fresh row, before its first ack fills it in.
#[derive(Debug, Clone, Copy, Default)]
struct KeySlot {
    /// Latest acknowledged version.
    latest_acked: Version,
    /// Number of acknowledged writes so far (used for staleness depth).
    acked_writes: u64,
    /// One-based index of this key's [`History`] in the arena. `None` on an
    /// occupied slot means the key was preloaded once and nothing else: its
    /// history is the single entry `(latest_acked, 1, SimTime::ZERO)`.
    history: Option<NonZeroU32>,
}

// Every acknowledged-to key has one of these.
const _: () = assert!(std::mem::size_of::<KeySlot>() <= 24);

/// The version history of one key that has been written (or re-preloaded).
#[derive(Debug, Clone, Default)]
struct History {
    /// Recent (version, ack index, ack time) triples, newest at the back;
    /// bounded to [`DEPTH_HISTORY`] entries. The ack time lets
    /// [`StalenessOracle::expected_version_at`] answer "what was the newest
    /// acknowledged version at instant `t`" retroactively — the parallel
    /// sharded engine records acks at window closes and classifies each
    /// read against its own issue instant, so classification does not
    /// depend on the order acks of one window were recorded in.
    version_order: VecDeque<(Version, u64, SimTime)>,
    /// Whether `version_order` is sorted by version. Acks almost always
    /// arrive in version order (the global version counter is assigned at
    /// write start and acknowledgements follow in simulation-time order), so
    /// depth lookups can binary-search; a rare out-of-order ack of two
    /// overlapping writes flips this and falls back to the linear scan.
    unsorted: bool,
}

impl History {
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
            // Out-of-order history: last occurrence wins, as before.
            return self
                .version_order
                .iter()
                .rev()
                .find(|(v, _, _)| *v == version)
                .map(|(_, i, _)| *i);
        }
        // Versions are globally unique, so a sorted history has at most one
        // match: O(log n) instead of a linear reverse scan.
        self.version_order
            .binary_search_by(|(v, _, _)| v.cmp(&version))
            .ok()
            .map(|i| self.version_order[i].1)
    }
}

/// The staleness oracle.
#[derive(Debug, Clone)]
pub struct StalenessOracle {
    /// Per-key slots of the keys acknowledged or preloaded one by one, in
    /// the shared row table (lookups never allocate).
    table: RowTable<KeySlot>,
    /// The bulk load's runs: a key among them without a slot has its
    /// implicit preload entry (see the module docs).
    loaded: LoadRuns,
    /// The history arena, addressed by [`KeySlot::history`]. Entries are
    /// never removed: a key that entered stays for the run.
    histories: Vec<History>,
    /// Number of keys ever touched: slots with `acked_writes > 0` and loaded
    /// keys without a slot.
    keys: usize,
}

impl Default for StalenessOracle {
    fn default() -> Self {
        StalenessOracle {
            table: RowTable::new(KeySlot::default(), 1),
            loaded: LoadRuns::default(),
            histories: Vec::new(),
            keys: 0,
        }
    }
}

/// Classification of one read by the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadClassification {
    /// Whether the read returned a value older than the latest version
    /// acknowledged before the read was issued.
    pub stale: bool,
    /// How many acknowledged writes the returned value lags behind.
    pub depth: u32,
}

/// `key`'s slot in `table`, materialized — with `loaded`'s implicit
/// preload entry spelled out, if it has one — when it had none.
#[inline]
fn slot_mut<'a>(table: &'a mut RowTable<KeySlot>, loaded: &LoadRuns, key: Key) -> &'a mut KeySlot {
    if table.row(key.0).is_none() {
        let slot = &mut table.materialize(key.0)[0];
        if let Some(value) = loaded.get(key.0) {
            *slot = KeySlot {
                latest_acked: value.version,
                acked_writes: 1,
                history: None,
            };
        }
        return slot;
    }
    &mut table.row_mut(key.0).expect("the key has a slot")[0]
}

impl StalenessOracle {
    /// An empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot for `key`, if occupied: its row, or its implicit preload
    /// entry (never allocates).
    #[inline]
    fn slot(&self, key: Key) -> Option<KeySlot> {
        match self.table.row(key.0) {
            None => self.loaded.get(key.0).map(|value| KeySlot {
                latest_acked: value.version,
                acked_writes: 1,
                history: None,
            }),
            Some(row) => Some(row[0]),
        }
    }

    /// Hint `key`'s index entry into cache ahead of an
    /// `expected_version`, a `prefetch_slot` or a `record_ack` a few events
    /// later (see [`RowTable::prefetch_entry`]). Allocates nothing.
    #[inline]
    pub(crate) fn prefetch_entry(&self, key: Key) {
        self.table.prefetch_entry(key.0);
    }

    /// Hint `key`'s slot into cache ahead of a `record_ack` or
    /// `classify_read_at` a few events later (see
    /// [`RowTable::prefetch_row`]). Allocates nothing.
    #[inline]
    pub(crate) fn prefetch_slot(&self, key: Key) {
        self.table.prefetch_row(key.0);
    }

    /// The arena history of an occupied slot; `None` for a key that has
    /// only its implicit preload entry.
    #[inline]
    fn history(&self, slot: &KeySlot) -> Option<&History> {
        slot.history.map(|i| &self.histories[i.get() as usize - 1])
    }

    /// Take `run`'s records as preloaded (see the module docs): each gets
    /// its implicit preload entry, and no slot.
    ///
    /// # Panics
    /// Panics if the run does not start at or after the previous run's end.
    pub(crate) fn load(&mut self, run: LoadRun) {
        self.keys += run.count as usize;
        self.loaded.push(run);
    }

    /// One past the last key the load runs hold: a new run starts at or
    /// after it.
    pub(crate) fn loaded_end(&self) -> u64 {
        self.loaded.end()
    }

    /// Whether `key` has a slot (a load may place it implicitly only if
    /// not).
    pub(crate) fn is_materialized(&self, key: Key) -> bool {
        self.table.row(key.0).is_some()
    }

    /// Record that `version` of `key` was just preloaded (bulk load before
    /// the measured run): it becomes the acknowledged baseline, timestamped
    /// at time zero so every retroactive query sees it. The first preload
    /// of a key touches only its slot; a later one — or one of a key a load
    /// run holds — counts like an ack at time zero.
    pub fn preload(&mut self, key: Key, version: Version) {
        if self.slot(key).is_some() {
            self.record_ack(key, version, SimTime::ZERO);
            return;
        }
        *slot_mut(&mut self.table, &self.loaded, key) = KeySlot {
            latest_acked: version,
            acked_writes: 1,
            history: None,
        };
        self.keys += 1;
    }

    /// Record that a write of `version` to `key` satisfied its consistency
    /// level (i.e. was acknowledged to the client) at `at`. The serial
    /// engine calls this inline, in simulation-time order; the parallel
    /// engine calls it at window closes, where acks from one window land in
    /// fixed shard order carrying their true ack times (within one close
    /// the times may interleave across shards, which is why retroactive
    /// queries go by the stored time, not the record order).
    ///
    /// Materializes the key's slot on first touch (spelling out its
    /// implicit preload entry), counts the key when it is new, and enters it
    /// into the history arena (spelling out the preload entry's baseline)
    /// on first need.
    pub fn record_ack(&mut self, key: Key, version: Version, at: SimTime) {
        let slot = slot_mut(&mut self.table, &self.loaded, key);
        let index = match slot.history {
            Some(i) => i.get() as usize - 1,
            None => {
                let mut history = History::default();
                if slot.acked_writes == 0 {
                    self.keys += 1;
                } else {
                    history.push_version(slot.latest_acked, 1, SimTime::ZERO);
                }
                self.histories.push(history);
                // One-based, so the new length is the new entry's index.
                let entered = u32::try_from(self.histories.len())
                    .expect("more than 2^32 - 1 keys with an acknowledged write");
                slot.history = NonZeroU32::new(entered);
                self.histories.len() - 1
            }
        };
        slot.acked_writes += 1;
        slot.latest_acked = slot.latest_acked.max(version);
        self.histories[index].push_version(version, slot.acked_writes, at);
    }

    /// Number of keys whose history lives in the arena (keys written or
    /// re-preloaded at least once). Bulk load alone leaves it at zero.
    pub fn spilled_histories(&self) -> usize {
        self.histories.len()
    }

    /// The latest acknowledged version of `key` right now. A read captures
    /// this at issue time as its freshness requirement.
    pub fn expected_version(&self, key: Key) -> Version {
        self.slot(key)
            .map(|h| h.latest_acked)
            .unwrap_or(Version::NONE)
    }

    /// The newest version of `key` acknowledged strictly before instant
    /// `at` — [`StalenessOracle::expected_version`] evaluated retroactively
    /// from the bounded history. The parallel engine records acks at window
    /// closes, so by the close that completes a read, every ack that
    /// precedes the read's issue instant is in the history (an ack lands at
    /// the close of the window containing its ack time, and the issue
    /// instant is never later than the completing window's end); acks
    /// recorded after the issue instant are filtered out here by their
    /// stored times.
    ///
    /// Saturation: if every *retained* entry is newer than `at` but older
    /// entries were dropped (`DEPTH_HISTORY` acks on one key while a read
    /// was in flight), the true answer lies in the dropped prefix and the
    /// oldest retained version stands in for it — erring toward counting
    /// the read stale, like the depth saturation.
    pub fn expected_version_at(&self, key: Key, at: SimTime) -> Version {
        let Some(slot) = self.slot(key) else {
            return Version::NONE;
        };
        let Some(h) = self.history(&slot) else {
            // The implicit preload entry, acknowledged at time zero.
            return if SimTime::ZERO < at {
                slot.latest_acked
            } else {
                Version::NONE
            };
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
        } else if slot.acked_writes as usize > h.version_order.len() {
            // Truncated history with no retained ack before `at`.
            h.version_order
                .front()
                .map(|&(v, _, _)| v)
                .unwrap_or(Version::NONE)
        } else {
            Version::NONE
        }
    }

    /// Classify a completed read: it was issued when `expected` was the
    /// newest acknowledged version and returned `returned`. A pure function
    /// of the version history.
    pub fn classify_read(
        &self,
        key: Key,
        expected: Version,
        returned: Version,
    ) -> ReadClassification {
        let stale = returned < expected;
        let depth = if !stale {
            0
        } else {
            match self.slot(key) {
                None => 1,
                Some(slot) => {
                    let index_of = |version| match self.history(&slot) {
                        Some(h) => h.index_of(version),
                        // The implicit preload entry has ack index 1.
                        None => (version == slot.latest_acked).then_some(1),
                    };
                    let expected_idx = index_of(expected).unwrap_or(0);
                    let returned_idx = index_of(returned).unwrap_or(0);
                    expected_idx.saturating_sub(returned_idx).max(1) as u32
                }
            }
        };
        ReadClassification { stale, depth }
    }

    /// Classify a read issued at `issued_at` that returned `returned`,
    /// resolving the freshness expectation retroactively via
    /// [`StalenessOracle::expected_version_at`]. The parallel engine's
    /// completion path at a window close: it yields the same stale/fresh
    /// decision a serial execution of the same event trace would make at
    /// issue time.
    pub fn classify_read_at(
        &self,
        key: Key,
        issued_at: SimTime,
        returned: Version,
    ) -> ReadClassification {
        let expected = self.expected_version_at(key, issued_at);
        self.classify_read(key, expected, returned)
    }

    /// Number of keys the oracle has seen, loaded keys included.
    pub fn key_count(&self) -> usize {
        self.keys
    }

    /// Slots materialized.
    pub(crate) fn rows(&self) -> usize {
        self.table.rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paged::PAGE_SLOTS;

    #[test]
    fn fresh_reads_are_not_stale() {
        let mut o = StalenessOracle::new();
        o.record_ack(Key(1), Version(5), SimTime::ZERO);
        let expected = o.expected_version(Key(1));
        let c = o.classify_read(Key(1), expected, Version(5));
        assert!(!c.stale);
        assert_eq!(c.depth, 0);
    }

    #[test]
    fn returning_an_old_version_is_stale() {
        let mut o = StalenessOracle::new();
        o.record_ack(Key(1), Version(5), SimTime::ZERO);
        o.record_ack(Key(1), Version(9), SimTime::ZERO);
        let expected = o.expected_version(Key(1));
        assert_eq!(expected, Version(9));
        let c = o.classify_read(Key(1), expected, Version(5));
        assert!(c.stale);
        assert_eq!(c.depth, 1, "one acknowledged write behind");
    }

    #[test]
    fn depth_counts_missed_writes() {
        let mut o = StalenessOracle::new();
        for v in 1..=5u64 {
            o.record_ack(Key(1), Version(v), SimTime::ZERO);
        }
        let c = o.classify_read(Key(1), Version(5), Version(2));
        assert!(c.stale);
        assert_eq!(c.depth, 3);
    }

    #[test]
    fn reads_newer_than_expected_are_fresh() {
        // A read may see a write that was acknowledged *after* the read was
        // issued; that is not stale.
        let mut o = StalenessOracle::new();
        o.record_ack(Key(1), Version(3), SimTime::ZERO);
        let expected = o.expected_version(Key(1));
        o.record_ack(Key(1), Version(7), SimTime::ZERO);
        let c = o.classify_read(Key(1), expected, Version(7));
        assert!(!c.stale);
    }

    #[test]
    fn unknown_keys_have_no_expectation() {
        let o = StalenessOracle::new();
        assert_eq!(o.expected_version(Key(99)), Version::NONE);
        let c = o.classify_read(Key(99), Version::NONE, Version::NONE);
        assert!(!c.stale);
    }

    #[test]
    fn prefetch_counts_nothing_and_enters_no_key() {
        let mut o = StalenessOracle::new();
        o.preload(Key(1), Version(1));
        // Preloaded, never seen on a live page, on an untouched page, out
        // of range.
        for key in [1, 2, 7 * PAGE_SLOTS as u64, u64::MAX] {
            o.prefetch_entry(Key(key));
            o.prefetch_slot(Key(key));
        }
        assert_eq!(o.key_count(), 1);
        assert_eq!(o.spilled_histories(), 0);
        assert_eq!(o.rows(), 1);
        assert_eq!(o.expected_version(Key(1)), Version(1));
        assert_eq!(o.expected_version(Key(2)), Version::NONE);
    }

    #[test]
    fn preload_sets_baseline() {
        let mut o = StalenessOracle::new();
        o.preload(Key(1), Version(1));
        assert_eq!(o.expected_version(Key(1)), Version(1));
        assert_eq!(o.key_count(), 1);
        // Reading the preloaded version is fresh; missing it is stale.
        let c = o.classify_read(Key(1), Version(1), Version::NONE);
        assert!(c.stale);
    }

    #[test]
    fn out_of_order_acks_keep_exact_depths() {
        // Two overlapping writes acknowledged out of version order: the
        // binary-search fast path must detect the inversion and fall back to
        // the exact linear scan.
        let mut o = StalenessOracle::new();
        o.record_ack(Key(1), Version(5), SimTime::ZERO);
        o.record_ack(Key(1), Version(9), SimTime::ZERO);
        o.record_ack(Key(1), Version(7), SimTime::ZERO);
        let c = o.classify_read(Key(1), Version(9), Version(5));
        assert!(c.stale);
        assert_eq!(c.depth, 1, "idx(9)=2 minus idx(5)=1");
        let c = o.classify_read(Key(1), Version(7), Version(5));
        assert!(c.stale);
        assert_eq!(c.depth, 2, "idx(7)=3 minus idx(5)=1");
    }

    #[test]
    fn deep_histories_resolve_depths_by_binary_search() {
        let mut o = StalenessOracle::new();
        for v in 1..=64u64 {
            o.record_ack(Key(1), Version(v), SimTime::ZERO);
        }
        let c = o.classify_read(Key(1), Version(64), Version(2));
        assert!(c.stale);
        assert_eq!(c.depth, 62);
    }

    #[test]
    fn distinct_keys_keep_independent_histories_across_pages() {
        let mut o = StalenessOracle::new();
        let far = (PAGE_SLOTS as u64) * 7 + 3;
        o.record_ack(Key(1), Version(5), SimTime::ZERO);
        o.record_ack(Key(far), Version(9), SimTime::ZERO);
        assert_eq!(o.expected_version(Key(1)), Version(5));
        assert_eq!(o.expected_version(Key(far)), Version(9));
        assert_eq!(o.key_count(), 2);
        // Untouched keys on existing pages are still unknown.
        assert_eq!(o.expected_version(Key(2)), Version::NONE);
        // Repeated acks do not recount the key.
        o.record_ack(Key(1), Version(11), SimTime::ZERO);
        assert_eq!(o.key_count(), 2);
    }

    #[test]
    fn expected_version_at_sees_only_acks_strictly_before_the_instant() {
        let mut o = StalenessOracle::new();
        o.record_ack(Key(1), Version(3), SimTime::from_micros(100));
        o.record_ack(Key(1), Version(7), SimTime::from_micros(200));
        // Before any ack: no expectation.
        assert_eq!(
            o.expected_version_at(Key(1), SimTime::from_micros(50)),
            Version::NONE
        );
        // Exactly at an ack time: the ack is NOT yet visible (strict <).
        assert_eq!(
            o.expected_version_at(Key(1), SimTime::from_micros(100)),
            Version::NONE
        );
        assert_eq!(
            o.expected_version_at(Key(1), SimTime::from_micros(150)),
            Version(3)
        );
        assert_eq!(
            o.expected_version_at(Key(1), SimTime::from_micros(200)),
            Version(3)
        );
        assert_eq!(
            o.expected_version_at(Key(1), SimTime::from_micros(300)),
            Version(7)
        );
        // The untimed query sees the full history.
        assert_eq!(o.expected_version(Key(1)), Version(7));
    }

    #[test]
    fn classify_read_at_matches_the_serial_inline_classification() {
        // A read issued between two acks is fresh against the first even
        // though the second has landed by classification time — exactly
        // what the serial engine concludes by snapshotting expected_version
        // at issue time.
        let mut o = StalenessOracle::new();
        o.record_ack(Key(1), Version(3), SimTime::from_micros(100));
        o.record_ack(Key(1), Version(7), SimTime::from_micros(200));
        let c = o.classify_read_at(Key(1), SimTime::from_micros(150), Version(3));
        assert!(!c.stale);
        // The same returned version is stale for a read issued after the
        // second ack.
        let c = o.classify_read_at(Key(1), SimTime::from_micros(250), Version(3));
        assert!(c.stale);
        assert_eq!(c.depth, 1);
    }

    #[test]
    fn truncated_histories_err_toward_stale_at_early_instants() {
        // Push past DEPTH_HISTORY so the oldest entries are dropped, then
        // query an instant older than everything retained: the fallback is
        // the oldest retained version (non-NONE), so a read of anything
        // older classifies stale rather than vacuously fresh.
        let mut o = StalenessOracle::new();
        for v in 1..=(DEPTH_HISTORY as u64 + 8) {
            o.record_ack(Key(1), Version(v), SimTime::from_micros(1_000 + v));
        }
        let expected = o.expected_version_at(Key(1), SimTime::from_micros(500));
        assert_ne!(expected, Version::NONE, "truncation falls back, not NONE");
        let c = o.classify_read_at(Key(1), SimTime::from_micros(500), Version(1));
        assert!(c.stale);
    }

    /// Everything a reader can ask the oracle about `keys`: the expectation
    /// now and at three instants, and the classification of every returned
    /// version against every expected one.
    fn observe(o: &StalenessOracle, keys: u64) -> Vec<String> {
        let mut seen = vec![format!("{} keys", o.key_count())];
        for key in (0..keys).map(Key) {
            let expected = o.expected_version(key);
            let at = [0, 1, 500].map(|us| o.expected_version_at(key, SimTime::from_micros(us)));
            seen.push(format!("{key:?}: {expected:?} {at:?}"));
            for returned in (0..12).map(Version) {
                let class = o.classify_read(key, expected, returned);
                let at = o.classify_read_at(key, SimTime::from_micros(300), returned);
                seen.push(format!("{key:?} {returned:?}: {class:?} {at:?}"));
            }
        }
        seen
    }

    #[test]
    fn a_loaded_run_classifies_like_its_preloaded_slots() {
        let mut implicit = StalenessOracle::new();
        let mut spelled = StalenessOracle::new();
        // Keys 1..6 at versions 1..5, and 8..10 at version 1 (the sharded
        // engine's flat load); 0, 6 and 7 unloaded.
        let mut counting = LoadRun::new(1, Version(1), 10);
        for key in 2..6 {
            assert!(counting.extend(key, Version(key), 10));
        }
        let mut flat = LoadRun::new(8, Version(1), 10);
        assert!(flat.extend(9, Version(1), 10));
        for run in [counting, flat] {
            implicit.load(run);
            for key in run.first..run.end() {
                spelled.preload(Key(key), run.version(key));
            }
        }
        assert_eq!((implicit.rows(), implicit.key_count()), (0, 7), "no slot");
        assert_eq!(observe(&implicit, 11), observe(&spelled, 11));
        // The first ack spells the baseline out ahead of itself; a preload
        // of a loaded key is an ack at time zero; unloaded keys start empty.
        for o in [&mut implicit, &mut spelled] {
            o.record_ack(Key(3), Version(9), SimTime::from_micros(200));
            o.record_ack(Key(9), Version(11), SimTime::from_micros(100));
            o.preload(Key(4), Version(7));
            o.preload(Key(6), Version(8));
            o.record_ack(Key(7), Version(10), SimTime::from_micros(50));
        }
        assert_eq!(implicit.rows(), 5, "one slot per key acked or preloaded");
        assert_eq!(implicit.spilled_histories(), spelled.spilled_histories());
        assert_eq!(observe(&implicit, 11), observe(&spelled, 11));
        let c = implicit.classify_read(Key(3), Version(9), Version(3));
        assert_eq!((c.stale, c.depth), (true, 1), "the baseline is ack 1");
        let h = implicit.history(&implicit.slot(Key(4)).unwrap()).unwrap();
        assert_eq!(
            h.version_order,
            [
                (Version(4), 1, SimTime::ZERO),
                (Version(7), 2, SimTime::ZERO)
            ],
            "a re-preload is an ack at time zero after the baseline"
        );
    }
}
