//! The event queue against a reference model: a `BTreeMap` keyed by
//! `(time, seq)`.
//!
//! `EventQueue` spreads its pending events over four lanes — the near lane
//! (a bucketed ring over the next 65.5 ms), the heap, the timeout FIFO and
//! the bulk lane — and promises that the lanes never show: a pop delivers
//! the smallest `(time, seq)` over everything pending, with past times
//! clamped to the clock and `seq` the order of scheduling. The model keeps
//! exactly that promise in one ordered map. Random interleavings of every
//! scheduling call, pops, bounded pops and peeks must deliver the same
//! `(time, payload)` pairs and report the same `len`, `is_empty` and
//! `processed` after every step.
//!
//! Delays are aimed at the near lane's edges: bucket boundaries, its
//! horizon (one bucket before it, at it, after it), far delays that take
//! the heap, past times that clamp, and quiet gaps that wrap the ring
//! several times before the next event.

use concord_sim::events::{pack, unpack_time};
use concord_sim::{EventQueue, SimDuration, SimRng, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The near lane's bucket width in µs, repeated here only to aim draws at
/// its edges (the model knows nothing of lanes).
const BUCKET_US: u64 = 32;
/// The near lane's horizon in buckets.
const HORIZON_BUCKETS: u64 = 2048;
/// The horizon in µs: 65.536 ms.
const HORIZON_US: u64 = BUCKET_US * HORIZON_BUCKETS;

/// The reference: every pending event in `(time, seq)` order.
#[derive(Default)]
struct Model {
    pending: BTreeMap<(u64, u64), u64>,
    now: u64,
    next_seq: u64,
    processed: u64,
    /// Firing time of the last bulk push: the bulk lane takes only sorted
    /// streams, so draws start from here.
    bulk_back: u64,
}

impl Model {
    fn schedule(&mut self, at: u64, payload: u64) {
        self.pending
            .insert((at.max(self.now), self.next_seq), payload);
        self.next_seq += 1;
    }

    fn front_key(&self) -> Option<u128> {
        self.pending
            .keys()
            .next()
            .map(|&(t, seq)| pack(SimTime::from_micros(t), seq))
    }

    fn pop_before_key(&mut self, end_key: u128) -> Option<(u64, u64)> {
        if self.front_key()? >= end_key {
            return None;
        }
        let ((t, _), payload) = self.pending.pop_first()?;
        self.now = t;
        self.processed += 1;
        Some((t, payload))
    }
}

/// A delay in µs: bucket edges, spots around the horizon, near and far
/// random delays, and gaps that wrap the ring several times.
fn draw_delay(rng: &mut SimRng) -> u64 {
    match rng.next_bounded(12) {
        0 => [0, 1, 31, 32, 33][rng.index(5)],
        1 => [
            HORIZON_US - BUCKET_US,
            HORIZON_US - 1,
            HORIZON_US,
            HORIZON_US + 1,
            HORIZON_US + BUCKET_US,
        ][rng.index(5)],
        2 => 1_000_000 * (1 + rng.next_bounded(10)),
        3 => HORIZON_US * (2 + rng.next_bounded(4)) + rng.next_bounded(HORIZON_US),
        4..=6 => rng.next_bounded(1_000),
        _ => rng.next_bounded(HORIZON_US + 2 * BUCKET_US),
    }
}

/// A firing time relative to the clock `now`: a drawn delay, the first or
/// last µs of a bucket at or around the horizon counted from the clock's
/// bucket (the lane's rule is on bucket numbers, not on µs), or a past
/// time that clamps.
fn draw_time(rng: &mut SimRng, now: u64) -> u64 {
    match rng.next_bounded(8) {
        0 => {
            let bucket = now / BUCKET_US
                + [
                    0,
                    1,
                    HORIZON_BUCKETS - 1,
                    HORIZON_BUCKETS,
                    HORIZON_BUCKETS + 1,
                ][rng.index(5)];
            bucket * BUCKET_US + [0, BUCKET_US - 1][rng.index(2)]
        }
        1 => now.saturating_sub(1 + rng.next_bounded(2 * HORIZON_US)),
        _ => now + draw_delay(rng),
    }
}

/// Run `steps` random operations on the queue and the model side by side.
fn run_against_model(seed: u64, steps: usize) {
    let mut rng = SimRng::new(seed);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut m = Model::default();
    let mut payload = 0u64;
    // Some cases pile events up (long schedule bursts), others keep the
    // queue nearly empty so the clock jumps across quiet gaps.
    let schedule_weight = 3 + rng.next_bounded(10);
    for step in 0..steps {
        let now = m.now;
        match rng.next_bounded(schedule_weight + 4) {
            // Pops: plain, bounded at a drawn time, and peeks.
            0 => prop_assert_eq!(
                q.pop().map(|(t, e)| (t.as_micros(), e)),
                m.pop_before_key(u128::MAX),
                "pop at step {}",
                step
            ),
            1 => {
                let end_key = pack(
                    SimTime::from_micros(draw_time(&mut rng, now)),
                    rng.next_bounded(m.next_seq + 1),
                );
                prop_assert_eq!(
                    q.pop_before_key(end_key).map(|(t, e)| (t.as_micros(), e)),
                    m.pop_before_key(end_key),
                    "pop_before_key at step {}",
                    step
                );
            }
            2 => {
                prop_assert_eq!(q.peek_key_packed(), m.front_key(), "peek at step {}", step);
                if let Some(key) = q.peek_key_packed() {
                    prop_assert!(unpack_time(key) >= q.now());
                }
            }
            // Drain a run of pops, so the clock crosses many buckets.
            3 => {
                for _ in 0..rng.next_bounded(40) {
                    prop_assert_eq!(
                        q.pop().map(|(t, e)| (t.as_micros(), e)),
                        m.pop_before_key(u128::MAX),
                        "drain at step {}",
                        step
                    );
                }
            }
            op => {
                payload += 1;
                match op % 5 {
                    0 => {
                        let delay = draw_delay(&mut rng);
                        q.schedule_in(SimDuration::from_micros(delay), payload);
                        m.schedule(now + delay, payload);
                    }
                    1 => {
                        // One constant timeout (keys arrive sorted: the
                        // timeout FIFO) or a drawn one (often behind the
                        // FIFO's tail: scheduled as by `schedule_at`).
                        let at = if rng.gen_bool(0.5) {
                            now + 1_000_000
                        } else {
                            draw_time(&mut rng, now)
                        };
                        q.schedule_timeout(SimTime::from_micros(at), payload);
                        m.schedule(at, payload);
                    }
                    2 => {
                        let at = m.bulk_back.max(now) + draw_delay(&mut rng) / 4;
                        q.bulk_push_sorted(SimTime::from_micros(at), payload);
                        m.schedule(at, payload);
                        m.bulk_back = at;
                    }
                    _ => {
                        let at = draw_time(&mut rng, now);
                        q.schedule_at(SimTime::from_micros(at), payload);
                        m.schedule(at, payload);
                    }
                }
            }
        }
        prop_assert_eq!(q.len(), m.pending.len(), "len at step {}", step);
        prop_assert_eq!(q.is_empty(), m.pending.is_empty());
        prop_assert_eq!(q.processed(), m.processed);
        prop_assert_eq!(q.now().as_micros(), m.now);
    }
    // Everything still pending drains in the model's order.
    while let Some(expected) = m.pop_before_key(u128::MAX) {
        prop_assert_eq!(q.pop().map(|(t, e)| (t.as_micros(), e)), Some(expected));
    }
    prop_assert!(q.pop().is_none() && q.is_empty());
    prop_assert_eq!(q.processed(), m.processed);
}

proptest! {
    #[test]
    fn the_queue_delivers_like_an_ordered_map(seed in any::<u64>(), steps in 50usize..800) {
        run_against_model(seed, steps);
    }
}

/// Every delay of a bucket's edges and of the horizon's, each from every
/// offset of the clock within its bucket: the first event past the horizon
/// must not share a ring position with one inside it.
#[test]
fn horizon_edges_from_every_clock_offset() {
    for offset in 0..BUCKET_US {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut m = Model::default();
        q.schedule_at(SimTime::from_micros(offset), 0);
        m.schedule(offset, 0);
        assert_eq!(q.pop(), Some((SimTime::from_micros(offset), 0)));
        m.pop_before_key(u128::MAX);
        let edges = [0, 1, 31, 32, 33, HORIZON_US - BUCKET_US, HORIZON_US - 1];
        for (i, base) in edges.into_iter().enumerate() {
            for (j, d) in [base, base + BUCKET_US, base + 2 * BUCKET_US]
                .into_iter()
                .enumerate()
            {
                let payload = 1 + (i * 3 + j) as u64;
                q.schedule_in(SimDuration::from_micros(d), payload);
                m.schedule(offset + d, payload);
            }
        }
        while let Some(expected) = m.pop_before_key(u128::MAX) {
            assert_eq!(
                q.pop().map(|(t, e)| (t.as_micros(), e)),
                Some(expected),
                "clock offset {offset}"
            );
        }
        assert!(q.is_empty());
    }
}
