//! Event queue and simulation clock.
//!
//! The engine is a classic calendar/priority-queue discrete-event simulator:
//! events carry a firing time, the queue pops them in time order (FIFO within
//! the same instant thanks to a monotonically increasing sequence number) and
//! the clock jumps to each event's timestamp.
//!
//! ## Lanes
//!
//! Every scheduled event gets a packed `time‖seq` key ([`pack`]) from the
//! queue's one sequence counter and waits in one of four lanes:
//!
//! * **near** (a bucketed ring): [`EventQueue::schedule_at`],
//!   [`EventQueue::schedule_in`], and an [`EventQueue::schedule_timeout`]
//!   whose key precedes the timeout FIFO's tail, whenever the (clamped)
//!   firing time lies within the **horizon**: its bucket number
//!   (`time >> NEAR_SHIFT`, 32 µs buckets) is less than `NEAR_BUCKETS` =
//!   2048 past the clock's, 65.5 ms ahead. Holds the reactive events
//!   (messages, acks, service completions). A pop scans an occupancy
//!   bitmap from the clock's bucket to the first occupied one, whose
//!   key-sorted list starts with the lane's minimum.
//! * **heap** (binary heap): the same calls, past the horizon. Holds the
//!   far events: `ec2_like` inter-region messages, adaptation ticks,
//!   scheduled faults, and hedge, backoff and repair timers shorter than a
//!   pending timeout but beyond the horizon.
//! * **timeout FIFO** (sorted `VecDeque`): every other
//!   [`EventQueue::schedule_timeout`]. Holds the one-per-operation timeouts:
//!   one constant `op_timeout` makes their keys arrive in non-decreasing
//!   order.
//! * **bulk** (sorted `VecDeque`): [`EventQueue::bulk_push_sorted`] and
//!   [`EventQueue::bulk_load_sorted`]. Holds pre-sorted open-loop arrival
//!   streams loaded up front, sized once by [`EventQueue::reserve_bulk`].
//!
//! A pop takes the smallest key over the four lane fronts. Keys are unique
//! and totally ordered across lanes, so which lane an event waits in can
//! never change when it is delivered: an event filed in the heap that the
//! clock later brings within the horizon stays there and still fires
//! exactly when its key is the smallest pending. The lanes only spare the
//! heap its sifts — the FIFOs for streams that are already sorted, the
//! near lane for the bulk of the traffic.
//!
//! The horizon and bucket width are constants, chosen from the delay shapes
//! the platforms draw (`NetworkModel::ec2_like` / `grid5000_like`, the
//! storage latencies of `ClusterConfig`). Within 65.5 ms fall the local
//! 20 µs hop, the intra-datacenter and storage log-normals (medians
//! 0.25–0.5 ms), `grid5000_like`'s WAN (12 ms + Exp(3 ms)) and `ec2_like`'s
//! inter-datacenter log-normal (median 1.6 ms) — nearly every event a run
//! schedules, with a wide margin for the distributions' tails. Beyond it
//! stay `ec2_like`'s inter-region WAN (75 ms + Exp(8 ms)), the adaptation
//! ticks (100 and 250 ms epochs), the 1 s and 10 s operation timeouts and
//! fault scripts, which are few or take the timeout FIFO. 32 µs buckets
//! hold about 1.5 events on the closed-loop points and 5–8 on the
//! strong-consistency ones, so a sorted insert walks a short list.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// log2 of a near-lane bucket's width in µs: buckets are 32 µs wide.
const NEAR_SHIFT: u32 = 5;
/// Buckets in the near lane's ring: 2048 × 32 µs = 65.536 ms ahead of the
/// clock (the horizon; see the module docs for why these two constants).
const NEAR_BUCKETS: usize = 2048;
/// Words of the near lane's occupancy bitmap, one bit per bucket.
const NEAR_WORDS: usize = NEAR_BUCKETS / 64;
/// The end of a near-lane list (a bucket head or a node's `next`).
const NIL: u32 = u32::MAX;

/// A heap entry: the scheduling key plus the event payload, inline.
///
/// The firing time and the insertion sequence number are packed into one
/// `u128` key (`time << 64 | seq`), so the heap's sift comparisons are a
/// single integer compare instead of a two-field lexicographic chain. The
/// heap only holds events beyond the near lane's horizon (and so sifts
/// through few of them), but every lane orders by the same key. The payload
/// lives inline in the entry: simulator events are small (32 bytes), so
/// moving them during sifts costs less than a side slab's two extra
/// random-access writes (slot alloc + take) and free-list traffic per event.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    key: u128,
    event: E,
}

/// Which lane of the [`EventQueue`] holds a pending event (see
/// [`EventQueue::min_lane`]); the near lane names the ring position of the
/// bucket whose head is the lane's minimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    Near(usize),
    Heap,
    TimeoutFifo,
    Bulk,
}

/// The near lane: a ring of [`NEAR_BUCKETS`] buckets of `2^NEAR_SHIFT` µs,
/// each a key-sorted singly linked list of slab nodes, with one occupancy
/// bit per bucket.
///
/// A node `i` is the triple `(keys[i], next[i], events[i])`, stored as
/// three parallel columns: a sorted insert walks keys and links only, so
/// the walk stays within 20 bytes a node instead of striding over the
/// events too (a bucket holds 5–8 nodes on the strong-consistency points).
/// In a hold loop with 13 events a bucket this took 60–74 ns an event
/// against 78–100 for one slab of 64-byte nodes. Popped nodes go on a LIFO
/// free list threaded through `next`, so the columns hold the lane's peak
/// and never move a node.
///
/// Invariant: every pending event's bucket number (`time >> NEAR_SHIFT`)
/// lies in `[c, c + NEAR_BUCKETS)`, where `c` is the clock's bucket number.
/// [`EventQueue::push`] admits only such events, and the clock never passes
/// a pending event, so the circular scan from `c`'s ring position meets the
/// buckets in time order and its first head is the lane's minimum.
#[derive(Debug, Clone)]
struct NearLane<E> {
    /// First node of each bucket's list, [`NIL`] when the bucket is empty.
    heads: Box<[u32; NEAR_BUCKETS]>,
    /// Bit `p` is set iff bucket position `p` holds a node.
    occupied: [u64; NEAR_WORDS],
    keys: Vec<u128>,
    /// The next node of a bucket's list (or of the free list), or [`NIL`].
    next: Vec<u32>,
    /// `None` on free nodes.
    events: Vec<Option<E>>,
    /// Most recently freed node (LIFO, so a pop's node is the next push's).
    free: u32,
    len: usize,
}

impl<E> NearLane<E> {
    fn new() -> Self {
        NearLane {
            heads: Box::new([NIL; NEAR_BUCKETS]),
            occupied: [0; NEAR_WORDS],
            keys: Vec::new(),
            next: Vec::new(),
            events: Vec::new(),
            free: NIL,
            len: 0,
        }
    }

    /// Link `event` under `key` into its bucket, after every smaller key.
    fn push(&mut self, key: u128, event: E) {
        let idx = if self.free != NIL {
            let idx = self.free;
            self.free = self.next[idx as usize];
            self.keys[idx as usize] = key;
            self.events[idx as usize] = Some(event);
            idx
        } else {
            assert!(
                self.keys.len() < NIL as usize,
                "near lane: more than u32::MAX - 1 pending events"
            );
            let idx = self.keys.len() as u32;
            self.keys.push(key);
            self.next.push(NIL);
            self.events.push(Some(event));
            idx
        };
        let pos = (key >> (64 + NEAR_SHIFT)) as usize & (NEAR_BUCKETS - 1);
        let head = self.heads[pos];
        if head == NIL || key < self.keys[head as usize] {
            self.next[idx as usize] = head;
            self.heads[pos] = idx;
            self.occupied[pos / 64] |= 1 << (pos % 64);
        } else {
            let mut prev = head as usize;
            loop {
                let next = self.next[prev];
                if next == NIL || key < self.keys[next as usize] {
                    break;
                }
                prev = next as usize;
            }
            self.next[idx as usize] = self.next[prev];
            self.next[prev] = idx;
        }
        self.len += 1;
    }

    /// The lane's smallest key and its bucket's ring position, scanning the
    /// bitmap circularly from the clock's bucket number `clock_bucket`.
    #[inline]
    fn front(&self, clock_bucket: u64) -> Option<(u128, usize)> {
        if self.len == 0 {
            return None;
        }
        let start = clock_bucket as usize & (NEAR_BUCKETS - 1);
        let mut w = start / 64;
        let mut bits = self.occupied[w] & (!0 << (start % 64));
        // The start word's low bits are the ring's far end: after a full
        // turn the word comes round again, unmasked. `len > 0` ends the loop.
        while bits == 0 {
            w = (w + 1) % NEAR_WORDS;
            bits = self.occupied[w];
        }
        let pos = w * 64 + bits.trailing_zeros() as usize;
        Some((self.keys[self.heads[pos] as usize], pos))
    }

    /// Unlink the head of the bucket at ring position `pos`.
    fn pop(&mut self, pos: usize) -> E {
        let idx = self.heads[pos] as usize;
        let event = self.events[idx]
            .take()
            .expect("near-lane head holds an event");
        self.heads[pos] = self.next[idx];
        self.next[idx] = self.free;
        self.free = idx as u32;
        if self.heads[pos] == NIL {
            self.occupied[pos / 64] &= !(1 << (pos % 64));
        }
        self.len -= 1;
        event
    }
}

/// Pack a firing time and a sequence number into the queue's `u128` ordering
/// key (`time(µs) << 64 | seq`). Public so window-driven engines (the
/// parallel sharded cluster) can compute window-edge bounds for
/// [`EventQueue::pop_before_key`].
#[inline]
pub const fn pack(time: SimTime, seq: u64) -> u128 {
    ((time.as_micros() as u128) << 64) | seq as u128
}

/// The firing time encoded in a packed `time‖seq` key (see [`pack`]).
#[inline]
pub const fn unpack_time(key: u128) -> SimTime {
    SimTime::from_micros((key >> 64) as u64)
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is popped
        // first, breaking ties by insertion order (stable / deterministic).
        other.key.cmp(&self.key)
    }
}

/// A deterministic discrete-event queue with an embedded virtual clock.
///
/// The queue guarantees:
/// * events are delivered in non-decreasing time order;
/// * events scheduled for the same instant are delivered in the order they
///   were scheduled (FIFO), which keeps simulations deterministic;
/// * scheduling an event in the past is clamped to "now" (a common and safe
///   convention for zero-latency local interactions).
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Events within the horizon of the clock when they were scheduled.
    near: NearLane<E>,
    /// Events beyond that horizon.
    heap: BinaryHeap<Scheduled<E>>,
    /// Timeouts whose keys arrived in non-decreasing order (see the module
    /// docs' lane table); kept sorted by [`EventQueue::schedule_timeout`].
    timeout_fifo: VecDeque<(u128, E)>,
    /// Pre-sorted arrival streams; kept sorted by the assertions of
    /// [`EventQueue::bulk_push_sorted`].
    bulk: VecDeque<(u128, E)>,
    now: SimTime,
    next_seq: u64,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            near: NearLane::new(),
            heap: BinaryHeap::new(),
            timeout_fifo: VecDeque::new(),
            bulk: VecDeque::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            processed: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue.
    pub fn len(&self) -> usize {
        self.near.len + self.heap.len() + self.timeout_fifo.len() + self.bulk.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.near.len == 0
            && self.heap.is_empty()
            && self.timeout_fifo.is_empty()
            && self.bulk.is_empty()
    }

    /// Total number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The key of an event firing at `at` (clamped to the current clock),
    /// drawn from the sequence counter every lane shares.
    #[inline]
    fn next_key(&mut self, at: SimTime) -> u128 {
        let seq = self.next_seq;
        self.next_seq += 1;
        pack(at.max(self.now), seq)
    }

    /// The bucket number of the clock (see [`NearLane`]).
    #[inline]
    fn clock_bucket(&self) -> u64 {
        self.now.as_micros() >> NEAR_SHIFT
    }

    /// File `event` under `key` (from [`EventQueue::next_key`], so never
    /// before the clock) in the near lane when its bucket lies within the
    /// horizon, in the heap otherwise.
    #[inline]
    fn push(&mut self, key: u128, event: E) {
        let bucket = (key >> (64 + NEAR_SHIFT)) as u64;
        if bucket - self.clock_bucket() < NEAR_BUCKETS as u64 {
            self.near.push(key, event);
        } else {
            self.heap.push(Scheduled { key, event });
        }
    }

    /// Schedule `event` to fire at absolute time `at`. Times in the past are
    /// clamped to the current clock.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let key = self.next_key(at);
        self.push(key, event);
    }

    /// Schedule `event` to fire `delay` after the current clock.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedule the timer `event` at `at` (past times clamp to the clock).
    /// Timers are high-volume and fire long after they are scheduled — one
    /// pending timeout per in-flight operation would dominate the heap — and
    /// one constant timeout makes their keys arrive already sorted, so a
    /// timer whose key does not precede the timeout FIFO's tail appends
    /// there in O(1). One that does (a hedge, backoff or repair timer
    /// shorter than a pending timeout) is scheduled as by
    /// [`EventQueue::schedule_at`].
    pub fn schedule_timeout(&mut self, at: SimTime, event: E) {
        let key = self.next_key(at);
        if self
            .timeout_fifo
            .back()
            .is_none_or(|&(back, _)| key >= back)
        {
            self.timeout_fifo.push_back((key, event));
        } else {
            self.push(key, event);
        }
    }

    /// Append `event` at `at` to the **bulk lane**: the O(1) path for
    /// pre-sorted open-loop arrival streams loaded before (or during) a run.
    ///
    /// The caller guarantees firing times are non-decreasing across bulk
    /// pushes; producers derive their schedule from a sorted arrival-time
    /// iterator, so a violation is a logic error upstream, not an input to
    /// tolerate — the method **panics** rather than silently degrading to
    /// the heap.
    ///
    /// # Panics
    /// Panics if `at` precedes the current clock or the previously pushed
    /// bulk event.
    pub fn bulk_push_sorted(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "bulk lane: arrival at {}us precedes the clock ({}us)",
            at.as_micros(),
            self.now.as_micros()
        );
        if let Some(&(back, _)) = self.bulk.back() {
            assert!(
                at >= unpack_time(back),
                "bulk lane: arrival at {}us precedes the previous arrival ({}us); \
                 bulk loads require a sorted arrival stream",
                at.as_micros(),
                unpack_time(back).as_micros()
            );
        }
        let key = self.next_key(at);
        self.bulk.push_back((key, event));
    }

    /// Make room in the bulk lane for `additional` more events, so pushing
    /// that many reallocates nothing.
    pub fn reserve_bulk(&mut self, additional: usize) {
        self.bulk.reserve(additional);
    }

    /// Bulk-load a pre-sorted stream of `(time, event)` pairs through the
    /// bulk lane (see [`EventQueue::bulk_push_sorted`]).
    ///
    /// # Panics
    /// Panics if the stream's firing times are not non-decreasing.
    pub fn bulk_load_sorted(&mut self, items: impl IntoIterator<Item = (SimTime, E)>) {
        let iter = items.into_iter();
        self.reserve_bulk(iter.size_hint().0);
        for (at, event) in iter {
            self.bulk_push_sorted(at, event);
        }
    }

    /// The packed `time‖seq` key of the next pending event, if any. This is
    /// the sharded engine's window-anchor primitive: the minimum over the
    /// per-shard lane minima anchors the next lookahead window.
    #[inline]
    pub fn peek_key_packed(&self) -> Option<u128> {
        self.min_lane().map(|(k, _)| k)
    }

    /// The lane holding the next pending event and its packed key, if any
    /// (argmin over the four lane fronts — one pass, so pops decide "which
    /// lane" and "which key" in a single peek).
    #[inline]
    fn min_lane(&self) -> Option<(u128, Lane)> {
        let mut best: Option<(u128, Lane)> = self
            .near
            .front(self.clock_bucket())
            .map(|(k, pos)| (k, Lane::Near(pos)));
        if let Some(s) = self.heap.peek() {
            if best.is_none_or(|(b, _)| s.key < b) {
                best = Some((s.key, Lane::Heap));
            }
        }
        if let Some(&(k, _)) = self.timeout_fifo.front() {
            if best.is_none_or(|(b, _)| k < b) {
                best = Some((k, Lane::TimeoutFifo));
            }
        }
        if let Some(&(k, _)) = self.bulk.front() {
            if best.is_none_or(|(b, _)| k < b) {
                best = Some((k, Lane::Bulk));
            }
        }
        best
    }

    /// Extract the event with packed key `key` from `lane`, advancing the
    /// clock. `(key, lane)` must come from [`EventQueue::min_lane`].
    fn pop_lane(&mut self, key: u128, lane: Lane) -> (SimTime, E) {
        let event = match lane {
            Lane::Near(pos) => self.near.pop(pos),
            Lane::Heap => self.heap.pop().expect("heap top exists").event,
            Lane::TimeoutFifo => {
                self.timeout_fifo
                    .pop_front()
                    .expect("timeout-FIFO front exists")
                    .1
            }
            Lane::Bulk => self.bulk.pop_front().expect("bulk front exists").1,
        };
        let time = unpack_time(key);
        debug_assert!(time >= self.now, "time must be monotonic");
        self.now = time;
        self.processed += 1;
        (time, event)
    }

    /// Pop the next event, advancing the clock to its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (key, lane) = self.min_lane()?;
        Some(self.pop_lane(key, lane))
    }

    /// Pop the next event only if its packed key is **strictly below**
    /// `end_key`. This is the batch primitive of the parallel sharded
    /// engine: a lookahead window `[W, W+L)` drains each shard's lane with
    /// `pop_before_key(pack(W+L, 0))`, so every event below the window edge
    /// fires and everything at or beyond it waits for the barrier. The peek
    /// reads the four lane fronts (the near lane's through its bitmap), and
    /// at most one lane gives up its front.
    pub fn pop_before_key(&mut self, end_key: u128) -> Option<(SimTime, E)> {
        match self.min_lane() {
            Some((key, lane)) if key < end_key => Some(self.pop_lane(key, lane)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(30), "c");
        q.schedule_at(SimTime::from_millis(10), "a");
        q.schedule_at(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(3));
    }

    #[test]
    fn past_schedules_are_clamped() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "later");
        q.pop();
        q.schedule_at(SimTime::from_secs(1), "past");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "past");
        assert_eq!(t, SimTime::from_secs(10), "clamped to now");
    }

    #[test]
    fn schedule_in_uses_relative_delay() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(2), "first");
        q.pop();
        q.schedule_in(SimDuration::from_secs(3), "second");
        assert_eq!(q.pop().unwrap().0, SimTime::from_secs(5));
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), 1);
        q.schedule_at(SimTime::from_secs(5), 2);
        let end = pack(SimTime::from_secs(2), 0);
        assert_eq!(q.pop_before_key(end).unwrap().1, 1);
        assert!(q.pop_before_key(end).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn timeout_lane_interleaves_with_heap_in_seq_order() {
        let mut q = EventQueue::new();
        // Heap event then timer at the same instant: FIFO-by-seq.
        q.schedule_at(SimTime::from_millis(10), "heap-1");
        q.schedule_timeout(SimTime::from_millis(10), "timer-1");
        q.schedule_at(SimTime::from_millis(5), "heap-0");
        q.schedule_timeout(SimTime::from_millis(20), "timer-2");
        q.schedule_at(SimTime::from_millis(15), "heap-2");
        assert_eq!(q.len(), 5);
        assert_eq!(
            q.peek_key_packed().map(unpack_time),
            Some(SimTime::from_millis(5))
        );
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec!["heap-0", "heap-1", "timer-1", "heap-2", "timer-2"]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn timeout_lane_respects_deadlines() {
        let mut q = EventQueue::new();
        q.schedule_timeout(SimTime::from_secs(1), 1);
        q.schedule_timeout(SimTime::from_secs(5), 2);
        let end = pack(SimTime::from_secs(2), 0);
        assert_eq!(q.pop_before_key(end).unwrap().1, 1);
        assert!(q.pop_before_key(end).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn out_of_order_timeouts_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_timeout(SimTime::from_secs(5), "late");
        q.schedule_timeout(SimTime::from_secs(1), "early");
        q.schedule_timeout(SimTime::from_secs(7), "later");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["early", "late", "later"]);
    }

    #[test]
    fn timeout_lane_clamps_past_times_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "later");
        q.pop();
        q.schedule_timeout(SimTime::from_secs(1), "past");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "past");
        assert_eq!(t, SimTime::from_secs(10), "clamped to now");
    }

    #[test]
    fn timeout_lane_matches_heap_scheduling_exactly() {
        // The same randomized schedule through `schedule_at` and through
        // `schedule_timeout` must deliver identically: the queue always pops
        // the globally smallest packed time‖seq key, so the sorted FIFO is a
        // pure data-structure choice. Pops interleave with inserts so timers
        // land on both sides of the FIFO's tail.
        let mut rng = crate::rng::SimRng::new(77);
        let mut heap_q = EventQueue::new();
        let mut timer_q = EventQueue::new();
        let mut heap_out = Vec::new();
        let mut timer_out = Vec::new();
        for round in 0..50u64 {
            for i in 0..200u64 {
                // Mix short, long and far-future delays.
                let delay = match i % 4 {
                    0 => rng.next_bounded(64),
                    1 => rng.next_bounded(10_000),
                    2 => rng.next_bounded(10_000_000),
                    _ => rng.next_bounded(10_000_000_000),
                };
                let at = SimTime::from_micros(heap_q.now().as_micros() + delay);
                heap_q.schedule_at(at, (round, i));
                timer_q.schedule_timeout(at, (round, i));
            }
            for _ in 0..150 {
                heap_out.push(heap_q.pop().unwrap());
                timer_out.push(timer_q.pop().unwrap());
            }
            assert_eq!(heap_q.now(), timer_q.now());
        }
        heap_out.extend(std::iter::from_fn(|| heap_q.pop()));
        timer_out.extend(std::iter::from_fn(|| timer_q.pop()));
        assert_eq!(heap_out, timer_out);
        assert_eq!(heap_out.len(), 10_000);
    }

    #[test]
    fn same_instant_timeouts_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(123_456);
        for i in 0..100 {
            q.schedule_timeout(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn timeouts_interleave_with_bulk_and_heap_lanes() {
        let mut q = EventQueue::new();
        q.bulk_load_sorted([
            (SimTime::from_millis(2), "bulk"),
            (SimTime::from_millis(8), "bulk2"),
        ]);
        q.schedule_timeout(SimTime::from_millis(5), "timer");
        q.schedule_at(SimTime::from_millis(3), "heap");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["bulk", "heap", "timer", "bulk2"]);
    }

    #[test]
    fn bulk_lane_interleaves_with_heap_and_fifo() {
        let mut q = EventQueue::new();
        // Bulk-load a whole arrival timeline up front…
        q.bulk_load_sorted([
            (SimTime::from_millis(1), "arrive-1"),
            (SimTime::from_millis(10), "arrive-2"),
            (SimTime::from_millis(10), "arrive-3"),
            (SimTime::from_millis(30), "arrive-4"),
        ]);
        // …then heap and timeout-lane events land in between.
        q.schedule_at(SimTime::from_millis(5), "heap");
        q.schedule_timeout(SimTime::from_millis(10), "timeout");
        assert_eq!(q.len(), 6);
        assert_eq!(
            q.peek_key_packed().map(unpack_time),
            Some(SimTime::from_millis(1))
        );
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        // Same-instant ties break by scheduling order (bulk pushes first).
        assert_eq!(
            order,
            vec!["arrive-1", "heap", "arrive-2", "arrive-3", "timeout", "arrive-4"]
        );
        assert!(q.is_empty());
        assert_eq!(q.processed(), 6);
    }

    #[test]
    fn bulk_lane_matches_heap_scheduling_exactly() {
        // The same sorted arrival stream through the heap and through the
        // bulk lane must deliver identically (same times, same order).
        let mut rng = crate::rng::SimRng::new(9);
        let mut arrivals: Vec<(SimTime, u64)> = (0..1_000)
            .map(|i| (SimTime::from_micros(rng.next_bounded(500_000)), i))
            .collect();
        arrivals.sort_by_key(|&(t, i)| (t, i));

        let mut heap_q = EventQueue::new();
        for &(t, i) in &arrivals {
            heap_q.schedule_at(t, i);
        }
        let mut bulk_q = EventQueue::new();
        bulk_q.bulk_load_sorted(arrivals.iter().copied());

        let via_heap: Vec<_> = std::iter::from_fn(|| heap_q.pop()).collect();
        let via_bulk: Vec<_> = std::iter::from_fn(|| bulk_q.pop()).collect();
        assert_eq!(via_heap, via_bulk);
    }

    #[test]
    #[should_panic(expected = "sorted arrival stream")]
    fn bulk_lane_rejects_unsorted_streams() {
        let mut q = EventQueue::new();
        q.bulk_push_sorted(SimTime::from_secs(5), "late");
        q.bulk_push_sorted(SimTime::from_secs(1), "early");
    }

    #[test]
    #[should_panic(expected = "precedes the clock")]
    fn bulk_lane_rejects_past_times() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "later");
        q.pop();
        q.bulk_push_sorted(SimTime::from_secs(1), "past");
    }

    #[test]
    fn bulk_lane_respects_deadlines() {
        let mut q = EventQueue::new();
        q.bulk_load_sorted([(SimTime::from_secs(1), 1), (SimTime::from_secs(5), 2)]);
        let end = pack(SimTime::from_secs(2), 0);
        assert_eq!(q.pop_before_key(end).unwrap().1, 1);
        assert!(q.pop_before_key(end).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn lane_routing_never_reorders_delivery() {
        // Interleave sorted runs, regressions, timeouts (which split between
        // the sorted timeout FIFO and the heap) and pops; delivery must be
        // exactly the (time, scheduling order) sort of the whole stream —
        // lane routing is invisible.
        let mut rng = crate::rng::SimRng::new(41);
        let mut q = EventQueue::new();
        let mut expected: Vec<(u64, u64)> = Vec::new(); // (time_us, seq)
        let mut seq = 0u64;
        let mut out = Vec::new();
        for round in 0..200u64 {
            let base = q.now().as_micros();
            // A sorted run of arrivals…
            let mut at = base;
            for _ in 0..10 {
                at += rng.next_bounded(300);
                q.schedule_at(SimTime::from_micros(at), seq);
                expected.push((at, seq));
                seq += 1;
            }
            // …a few reactive events that regress behind the run's tail…
            for _ in 0..5 {
                let t = base + rng.next_bounded(500);
                q.schedule_at(SimTime::from_micros(t), seq);
                expected.push((t, seq));
                seq += 1;
            }
            // …a timer…
            let t = base + rng.next_bounded(5_000);
            q.schedule_timeout(SimTime::from_micros(t), seq);
            expected.push((t, seq));
            seq += 1;
            // …a burst of backoff-style retries: exponentially spread
            // nominal delays with random jitter on top, exactly the
            // heterogeneous key pattern the resilience layer's
            // `backoff_delay` produces. These must interleave with
            // everything above in pure time order…
            for _ in 0..3 {
                let backoff = (100u64 << rng.next_bounded(10)) + rng.next_bounded(1_000);
                let t = base + backoff;
                q.schedule_timeout(SimTime::from_micros(t), seq);
                expected.push((t, seq));
                seq += 1;
            }
            // …and, in the last ten rounds, one far-horizon deadline each,
            // 64-fold apart from 2 µs out to centuries: the first one parks
            // at the timeout FIFO's tail, so every later timer of the test
            // precedes it and takes the heap.
            if let Some(l) = round.checked_sub(190) {
                let t = base + 1 + (1u64 << (6 * l));
                q.schedule_timeout(SimTime::from_micros(t), seq);
                expected.push((t, seq));
                seq += 1;
            }
            for _ in 0..12 {
                if let Some((t, v)) = q.pop() {
                    out.push((t.as_micros(), v));
                }
            }
        }
        out.extend(std::iter::from_fn(|| q.pop()).map(|(t, v)| (t.as_micros(), v)));
        // No deadline above precedes the clock, so nothing is clamped and
        // the popped (time, value) stream is exactly the sorted schedule.
        expected.sort();
        assert_eq!(out, expected);
        assert_eq!(out.len(), 200 * 19 + 10);
    }

    #[test]
    fn many_events_stay_sorted() {
        let mut rng = crate::rng::SimRng::new(1);
        let mut q = EventQueue::new();
        for _ in 0..10_000 {
            q.schedule_at(SimTime::from_micros(rng.next_bounded(1_000_000)), ());
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(q.processed(), 10_000);
    }
}
