//! Exponentially-weighted moving averages.
//!
//! Network propagation latencies fluctuate; Harmony smooths the measured
//! propagation time with an EWMA before feeding it to the stale-read model so
//! that single outliers do not flip the consistency level back and forth.

use serde::{Deserialize, Serialize};

/// A classic exponentially-weighted moving average:
/// `value ← α·sample + (1-α)·value`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Create an EWMA with smoothing factor `alpha` in (0, 1].
    /// Larger α reacts faster; smaller α smooths more.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        Ewma { alpha, value: None }
    }

    /// The smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Feed one observation.
    pub fn observe(&mut self, sample: f64) {
        self.value = Some(match self.value {
            None => sample,
            Some(v) => self.alpha * sample + (1.0 - self.alpha) * v,
        });
    }

    /// The current smoothed value (`None` before any observation).
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// The current smoothed value, or `default` before any observation.
    pub fn value_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }

    /// Forget all history.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes() {
        let mut e = Ewma::new(0.2);
        assert_eq!(e.value(), None);
        assert_eq!(e.value_or(7.0), 7.0);
        e.observe(10.0);
        assert_eq!(e.value(), Some(10.0));
    }

    #[test]
    fn converges_to_constant_input() {
        let mut e = Ewma::new(0.3);
        for _ in 0..200 {
            e.observe(42.0);
        }
        assert!((e.value().unwrap() - 42.0).abs() < 1e-9);
    }

    #[test]
    fn smooths_spikes() {
        let mut e = Ewma::new(0.1);
        for _ in 0..50 {
            e.observe(10.0);
        }
        e.observe(1000.0); // one outlier
        let v = e.value().unwrap();
        assert!(v < 120.0, "one spike must not dominate: {v}");
        assert!(v > 10.0);
    }

    #[test]
    fn higher_alpha_reacts_faster() {
        let mut slow = Ewma::new(0.05);
        let mut fast = Ewma::new(0.5);
        slow.observe(0.0);
        fast.observe(0.0);
        for _ in 0..5 {
            slow.observe(100.0);
            fast.observe(100.0);
        }
        assert!(fast.value().unwrap() > slow.value().unwrap());
    }

    #[test]
    fn reset_forgets() {
        let mut e = Ewma::new(0.2);
        e.observe(1.0);
        e.reset();
        assert_eq!(e.value(), None);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_rejected() {
        Ewma::new(0.0);
    }
}
