//! Sliding-window event-rate estimation.
//!
//! Harmony's monitoring module estimates the read and write arrival rates
//! (λr, λw) over a recent window of time; those rates feed the stale-read
//! probability model. [`SlidingWindowRate`] keeps the timestamps of events
//! inside a fixed-length window and reports the observed rate.

use concord_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Counts events over a sliding window of simulated time and reports the
/// event rate in events per second.
#[derive(Debug, Clone)]
pub struct SlidingWindowRate {
    window: SimDuration,
    events: VecDeque<SimTime>,
    /// Total events ever recorded (not just those still in the window).
    total: u64,
}

impl SlidingWindowRate {
    /// Create a rate estimator with the given window length.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        SlidingWindowRate {
            window,
            events: VecDeque::new(),
            total: 0,
        }
    }

    /// The configured window length.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Record one event at time `at`.
    ///
    /// Events are normally recorded in non-decreasing time order (the
    /// natural order of a simulation run); slightly out-of-order events —
    /// e.g. completions reported by their *issue* time — are clamped to the
    /// newest recorded timestamp so the window stays consistent.
    pub fn record(&mut self, at: SimTime) {
        let at = match self.events.back() {
            Some(&last) if at < last => last,
            _ => at,
        };
        self.events.push_back(at);
        self.total += 1;
        self.evict(at);
    }

    /// Drop events that have fallen out of the window as of `now`.
    fn evict(&mut self, now: SimTime) {
        let cutoff = now - self.window; // saturating at 0
        while let Some(&front) = self.events.front() {
            if front < cutoff {
                self.events.pop_front();
            } else {
                break;
            }
        }
    }

    /// Total number of events ever recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The event rate (events / second) observed over the window ending at
    /// `now`. Events newer than `now` are not expected but tolerated.
    pub fn rate_at(&mut self, now: SimTime) -> f64 {
        self.evict(now);
        self.events.len() as f64 / self.window.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_counts_only_recent_events() {
        let mut w = SlidingWindowRate::new(SimDuration::from_secs(10));
        // 100 events over the first 10 seconds → 10 events/s.
        for i in 0..100 {
            w.record(SimTime::from_millis(i * 100));
        }
        let r = w.rate_at(SimTime::from_secs(10));
        assert!((r - 10.0).abs() < 0.5, "rate={r}");
        assert_eq!(w.total(), 100);

        // 20 seconds later with no events the rate drops to zero.
        let r = w.rate_at(SimTime::from_secs(30));
        assert_eq!(r, 0.0);
        assert_eq!(w.total(), 100, "total is preserved");
    }

    #[test]
    fn eviction_is_incremental() {
        let mut w = SlidingWindowRate::new(SimDuration::from_secs(1));
        for s in 0..5u64 {
            for i in 0..10 {
                w.record(SimTime::from_millis(s * 1000 + i * 100));
            }
        }
        // Only the last second's worth of events remains.
        assert!(w.rate_at(SimTime::from_millis(4_900)) <= 11.0);
        let r = w.rate_at(SimTime::from_secs(5));
        assert!((r - 10.0).abs() <= 1.0, "rate={r}");
    }

    #[test]
    fn rate_before_any_events_is_zero() {
        let mut w = SlidingWindowRate::new(SimDuration::from_secs(5));
        assert_eq!(w.rate_at(SimTime::from_secs(100)), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        SlidingWindowRate::new(SimDuration::ZERO);
    }
}
