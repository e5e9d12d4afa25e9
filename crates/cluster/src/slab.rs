//! Generation-checked slab for in-flight operation state.
//!
//! The cluster simulator keeps per-attempt state (a retry waiting out its
//! backoff, write progress, read progress) from the attempt's arrival until
//! its last event; a submission that has not arrived is an event, not a
//! slab entry, so the slab holds the attempts in flight and nothing more.
//! The original implementation used three `HashMap<OpId, _>` tables, paying
//! a SipHash per event; this slab replaces them with direct indexing: an
//! [`OpId`] encodes `(generation << 32) | slot`, so every lookup is one
//! bounds check, one generation compare and one array access.
//!
//! Slots are recycled through a free list, which keeps long runs compact (the
//! live slot count tracks the number of *outstanding* operations, not the
//! total ever submitted). The generation counter makes recycled ids safe:
//! events that still reference a completed operation (a timeout fired after
//! completion, a straggler replica response) carry a stale generation and
//! miss, exactly as a `HashMap` lookup of a removed key would.

use crate::types::OpId;

/// One slot: the live generation plus the state, if occupied.
#[derive(Debug, Clone)]
struct Slot<T> {
    generation: u32,
    state: Option<T>,
}

/// A slab of operation state addressed by generation-checked [`OpId`]s.
///
/// A slab can be **strided**: with `with_stride(n, k)` the encoded slot
/// number of internal index `i` is `i·n + k`, so every id handed out
/// satisfies `slot ≡ k (mod n)`. The parallel sharded cluster gives shard
/// `k` of `n` the stride-`(n, k)` slab, which makes an operation's home
/// shard recoverable from its id alone (`id mod n`) — no shared lookup
/// table, no coordination. `new()` is the stride-`(1, 0)` slab, whose ids
/// are bit-identical to the pre-strided encoding.
#[derive(Debug, Clone)]
pub struct OpSlab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
    stride: u32,
    offset: u32,
}

impl<T> Default for OpSlab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> OpSlab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Self::with_stride(1, 0)
    }

    /// An empty slab whose encoded slot numbers are `index·stride + offset`
    /// (see the type docs; `offset < stride` required).
    pub fn with_stride(stride: u32, offset: u32) -> Self {
        assert!(stride >= 1, "stride must be at least 1");
        assert!(offset < stride, "offset must be below the stride");
        OpSlab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            stride,
            offset,
        }
    }

    /// Number of live (occupied) slots.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no operation state is outstanding.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots ever allocated (live + recyclable).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn encode(&self, generation: u32, index: u32) -> OpId {
        let slot = index * self.stride + self.offset;
        OpId(((generation as u64) << 32) | slot as u64)
    }

    #[inline]
    fn decode(id: OpId) -> (u32, u32) {
        ((id.0 >> 32) as u32, id.0 as u32)
    }

    /// Insert state, returning the id that addresses it.
    pub fn insert(&mut self, state: T) -> OpId {
        self.live += 1;
        if let Some(index) = self.free.pop() {
            let s = &mut self.slots[index as usize];
            debug_assert!(s.state.is_none(), "free-listed slot must be vacant");
            s.state = Some(state);
            let generation = s.generation;
            self.encode(generation, index)
        } else {
            let index = u32::try_from(self.slots.len()).expect("more than 2^32 in-flight ops");
            self.slots.push(Slot {
                // Start at generation 1 so no valid OpId is ever 0.
                generation: 1,
                state: Some(state),
            });
            self.encode(1, index)
        }
    }

    #[inline]
    fn slot_of(&self, id: OpId) -> Option<usize> {
        let (generation, slot) = Self::decode(id);
        // A foreign id (slot not congruent to this slab's offset) misses
        // here: `slot - offset` underflows or leaves a non-multiple, and
        // either way the divided index points at a slot whose generation
        // cannot match — checked explicitly to keep the miss exact. Stride
        // 1 (one shard, offset 0) has no foreign ids and needs no division.
        let rel = slot.wrapping_sub(self.offset);
        let index = match self.stride {
            1 => rel,
            stride if rel % stride == 0 => rel / stride,
            _ => return None,
        };
        match self.slots.get(index as usize) {
            Some(s) if s.generation == generation && s.state.is_some() => Some(index as usize),
            _ => None,
        }
    }

    /// Shared access to the state addressed by `id`, if still live.
    #[inline]
    pub fn get(&self, id: OpId) -> Option<&T> {
        self.slot_of(id).and_then(|i| self.slots[i].state.as_ref())
    }

    /// Mutable access to the state addressed by `id`, if still live.
    #[inline]
    pub fn get_mut(&mut self, id: OpId) -> Option<&mut T> {
        match self.slot_of(id) {
            Some(i) => self.slots[i].state.as_mut(),
            None => None,
        }
    }

    /// Remove and return the state addressed by `id`. The slot's generation
    /// advances, invalidating every outstanding copy of the id, and the slot
    /// joins the free list for reuse.
    pub fn remove(&mut self, id: OpId) -> Option<T> {
        let i = self.slot_of(id)?;
        let s = &mut self.slots[i];
        let state = s.state.take();
        s.generation = s.generation.wrapping_add(1);
        // Skip generation 0 on wrap so a valid id is never all-zero.
        if s.generation == 0 {
            s.generation = 1;
        }
        self.free.push(i as u32);
        self.live -= 1;
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut slab: OpSlab<&str> = OpSlab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&"a"));
        assert_eq!(slab.get(b), Some(&"b"));
        *slab.get_mut(a).unwrap() = "a2";
        assert_eq!(slab.remove(a), Some("a2"));
        assert_eq!(slab.get(a), None, "removed id must miss");
        assert_eq!(slab.remove(a), None, "double remove must miss");
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn recycled_slot_rejects_stale_id() {
        let mut slab: OpSlab<u32> = OpSlab::new();
        let old = slab.insert(1);
        slab.remove(old);
        let new = slab.insert(2);
        // Same slot, different generation.
        assert_ne!(old, new);
        assert_eq!(slab.get(old), None, "stale generation must miss");
        assert_eq!(slab.get(new), Some(&2));
        assert_eq!(slab.capacity(), 1, "the slot was reused, not grown");
    }

    #[test]
    fn ids_are_never_zero() {
        let mut slab: OpSlab<u8> = OpSlab::new();
        for _ in 0..100 {
            let id = slab.insert(0);
            assert_ne!(id.0, 0);
            slab.remove(id);
        }
    }

    #[test]
    fn strided_slabs_partition_the_id_space() {
        let shards = 4u32;
        let mut slabs: Vec<OpSlab<u64>> = (0..shards)
            .map(|k| OpSlab::with_stride(shards, k))
            .collect();
        let mut ids = Vec::new();
        for round in 0..10u64 {
            for (k, slab) in slabs.iter_mut().enumerate() {
                let id = slab.insert(round * 10 + k as u64);
                assert_eq!(
                    (id.0 as u32) % shards,
                    k as u32,
                    "slot must encode the home shard"
                );
                ids.push((k, id));
            }
        }
        for &(k, id) in &ids {
            // The owner resolves the id; every other slab misses it.
            for (other, slab) in slabs.iter().enumerate() {
                assert_eq!(slab.get(id).is_some(), other == k);
            }
        }
        for &(k, id) in &ids {
            assert!(slabs[k].remove(id).is_some());
            assert!(slabs[k].get(id).is_none());
        }
    }

    #[test]
    fn default_stride_matches_unstrided_encoding() {
        let mut plain: OpSlab<u8> = OpSlab::new();
        let mut strided: OpSlab<u8> = OpSlab::with_stride(1, 0);
        for i in 0..50 {
            assert_eq!(plain.insert(i), strided.insert(i));
        }
    }

    #[test]
    fn long_runs_stay_compact() {
        let mut slab: OpSlab<u64> = OpSlab::new();
        // A closed loop of 64 outstanding ops, a million total insertions.
        let mut live: Vec<OpId> = (0..64).map(|i| slab.insert(i)).collect();
        for i in 64..100_000u64 {
            let victim = live.remove((i % 64) as usize);
            assert!(slab.remove(victim).is_some());
            live.push(slab.insert(i));
        }
        assert_eq!(slab.len(), 64);
        assert!(
            slab.capacity() <= 64,
            "slab grew to {} slots for 64 outstanding ops",
            slab.capacity()
        );
    }
}
