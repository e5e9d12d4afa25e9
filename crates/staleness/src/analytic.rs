//! Analytic (closed-form and quadrature) stale-read probability estimation.
//!
//! ## The model
//!
//! Writes arrive as a Poisson process with rate λw. A write started at `Xw`
//! becomes visible on the coordinator's replica after `T` (the paper's *time
//! to write the first replica*) — at which point, with a write consistency
//! level of ONE, it is acknowledged to the client — and reaches each of the
//! other `N−1` replicas after a propagation delay drawn from a
//! [`DelayDistribution`] (the paper's total propagation time `Tp`). Reads pick
//! `R` distinct replicas uniformly at random and return the freshest version
//! among them.
//!
//! A read is **stale** when it returns a value older than the newest write
//! that was *acknowledged before the read started* — the same ground-truth
//! definition used by the cluster simulator's staleness oracle and by the
//! Monte-Carlo estimator, so estimated and measured rates are directly
//! comparable (as they are in the paper's Harmony evaluation).
//!
//! Under this definition the newest acknowledged write at a random read
//! arrival has age `T + E` where `E ~ Exp(λw)` (memorylessness of the write
//! process), and the read misses it iff
//!
//! * its replica selection avoids all `W` replicas that had acknowledged the
//!   write — probability `C(N−W, R) / C(N, R)` — **and**
//! * every selected replica is still waiting for the propagation, each with
//!   probability `q(T + E) = P(propagation delay > T + E)`.
//!
//! ```text
//! P(stale) = C(N−W,R)/C(N,R) · ∫₀^∞ λw e^(−λw·e) · q(T + e)^R de
//! ```
//!
//! which has closed forms for constant and exponential propagation delays
//! and is evaluated by Simpson quadrature otherwise.
//!
//! Two deliberate approximations, both inherited from Harmony's runtime
//! model:
//!
//! * the write rate is the *aggregate* rate reported by the monitor (the
//!   paper's model does the same); per-key staleness therefore deviates for
//!   strongly skewed key popularity, which is why the experiments always
//!   report the oracle-measured rate alongside the estimate;
//! * for write levels above ONE the acknowledgment time is still
//!   approximated by `T`, which errs on the pessimistic (stale) side.
//!
//! When `R + W > N` (a strict quorum) the read set always intersects the
//! acknowledged write set and the estimate is exactly 0.

use crate::params::StalenessParams;
use concord_sim::DelayDistribution;

/// A stale-read estimate produced by any of the estimators.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StalenessEstimate {
    /// Probability that a given read is stale (fraction of stale reads).
    pub stale_read_probability: f64,
    /// Expected number of stale reads per second (`λr · P`).
    pub stale_reads_per_sec: f64,
}

/// Common interface of the stale-read estimators.
pub trait StaleReadEstimator {
    /// Estimate the stale-read probability for `params`.
    fn estimate(&self, params: &StalenessParams) -> StalenessEstimate;
}

/// The analytic estimator used by Harmony and Bismar at runtime.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyticEstimator;

/// Number of Simpson intervals for delays without a closed form.
const QUADRATURE_STEPS: usize = 2_048;

/// Probability that a uniformly random `r`-subset of `n` replicas avoids all
/// `w` acknowledged replicas: `C(n−w, r) / C(n, r)`.
fn avoid_probability(n: u32, w: u32, r: u32) -> f64 {
    if r + w > n {
        return 0.0;
    }
    // C(n-w, r)/C(n, r) = Π_{i=0..r-1} (n - w - i) / (n - i)
    let mut p = 1.0;
    for i in 0..r {
        p *= (n - w - i) as f64 / (n - i) as f64;
    }
    p
}

impl AnalyticEstimator {
    /// Create the estimator.
    pub fn new() -> Self {
        AnalyticEstimator
    }

    /// Probability that a read arriving when the newest *acknowledged* write
    /// has age `t_ms` is stale.
    pub fn stale_probability_at(&self, params: &StalenessParams, t_ms: f64) -> f64 {
        if t_ms < params.first_write_ms {
            // The write is not acknowledged yet; the read is judged against
            // an older (already propagated) write.
            return 0.0;
        }
        let avoid = avoid_probability(params.n_replicas, params.write_level, params.read_level);
        let q = params.propagation.survival(t_ms);
        avoid * q.powi(params.read_level as i32)
    }

    fn integrate(&self, params: &StalenessParams) -> f64 {
        let lambda_w_per_ms = params.write_rate / 1_000.0;
        if lambda_w_per_ms <= 0.0 {
            // No writes: nothing can ever be stale.
            return 0.0;
        }
        let avoid = avoid_probability(params.n_replicas, params.write_level, params.read_level);
        if avoid <= 0.0 {
            return 0.0;
        }
        match params.propagation {
            DelayDistribution::Constant { ms } => {
                closed_form_deterministic(params, lambda_w_per_ms, ms, avoid)
            }
            DelayDistribution::Exponential { mean_ms } => {
                closed_form_exponential(params, lambda_w_per_ms, mean_ms, avoid)
            }
            _ => self.quadrature(params, lambda_w_per_ms, avoid),
        }
    }

    /// Simpson's-rule integration of `λw e^{−λw e} · avoid · q(T + e)^R` over
    /// a horizon long enough to capture all the probability mass.
    fn quadrature(&self, params: &StalenessParams, lambda_w_per_ms: f64, avoid: f64) -> f64 {
        let horizon = horizon_ms(params, lambda_w_per_ms);
        let h = horizon / QUADRATURE_STEPS as f64;
        let r = params.read_level as i32;
        let t0 = params.first_write_ms;
        let f = |e: f64| {
            lambda_w_per_ms
                * (-lambda_w_per_ms * e).exp()
                * params.propagation.survival(t0 + e).powi(r)
        };
        let mut sum = f(0.0) + f(horizon);
        for i in 1..QUADRATURE_STEPS {
            let e = i as f64 * h;
            sum += if i % 2 == 1 { 4.0 } else { 2.0 } * f(e);
        }
        (avoid * sum * h / 3.0).clamp(0.0, 1.0)
    }
}

/// Integration horizon: several write inter-arrival times plus the slowest
/// plausible propagation delay.
fn horizon_ms(params: &StalenessParams, lambda_w_per_ms: f64) -> f64 {
    let interarrival = 1.0 / lambda_w_per_ms;
    let prop = params.propagation.mean_ms().max(params.first_write_ms);
    (8.0 * interarrival).max(10.0 * prop).max(1.0)
}

/// Closed form for a constant propagation delay `Tp`: the newest
/// acknowledged write is still propagating iff its age `T + E` is below `Tp`,
/// i.e. with probability `1 − e^{−λw (Tp − T)}`:
///
/// ```text
/// P = C(N−W,R)/C(N,R) · (1 − e^{−λw·(Tp − T)})        (Tp > T, else 0)
/// ```
fn closed_form_deterministic(params: &StalenessParams, lw: f64, total_ms: f64, avoid: f64) -> f64 {
    let window = total_ms - params.first_write_ms;
    if window <= 0.0 {
        return 0.0;
    }
    (avoid * (1.0 - (-lw * window).exp())).clamp(0.0, 1.0)
}

/// Closed form for exponential per-replica propagation delays with mean μ:
///
/// ```text
/// P = C(N−W,R)/C(N,R) · e^{−R·T/μ} · λw / (λw + R/μ)
/// ```
fn closed_form_exponential(params: &StalenessParams, lw: f64, mean_ms: f64, avoid: f64) -> f64 {
    if mean_ms <= 0.0 {
        return 0.0;
    }
    let r = params.read_level as f64;
    let mu_inv = 1.0 / mean_ms;
    let decay_at_ack = (-r * params.first_write_ms * mu_inv).exp();
    (avoid * decay_at_ack * lw / (lw + r * mu_inv)).clamp(0.0, 1.0)
}

impl StaleReadEstimator for AnalyticEstimator {
    fn estimate(&self, params: &StalenessParams) -> StalenessEstimate {
        params
            .validate()
            .unwrap_or_else(|e| panic!("invalid staleness parameters: {e}"));
        let p = if params.is_strict_quorum() {
            0.0
        } else {
            self.integrate(params)
        };
        StalenessEstimate {
            stale_read_probability: p,
            stale_reads_per_sec: p * params.read_rate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(read_level: u32) -> StalenessParams {
        StalenessParams::basic(5, read_level, 1, 1000.0, 50.0, 0.5, 40.0)
    }

    #[test]
    fn avoid_probability_matches_combinatorics() {
        // C(4,1)/C(5,1) = 4/5, C(4,2)/C(5,2) = 6/10, C(3,2)/C(5,2) = 3/10.
        assert!((avoid_probability(5, 1, 1) - 0.8).abs() < 1e-12);
        assert!((avoid_probability(5, 1, 2) - 0.6).abs() < 1e-12);
        assert!((avoid_probability(5, 2, 2) - 0.3).abs() < 1e-12);
        assert_eq!(avoid_probability(5, 3, 3), 0.0, "strict quorum");
        assert_eq!(avoid_probability(5, 1, 5), 0.0, "read-all");
    }

    #[test]
    fn no_writes_means_no_staleness() {
        let mut p = base(1);
        p.write_rate = 0.0;
        let est = AnalyticEstimator::new().estimate(&p);
        assert_eq!(est.stale_read_probability, 0.0);
        assert_eq!(est.stale_reads_per_sec, 0.0);
    }

    #[test]
    fn strict_quorum_is_never_stale() {
        let mut p = base(3);
        p.write_level = 3; // R + W = 6 > 5
        let est = AnalyticEstimator::new().estimate(&p);
        assert_eq!(est.stale_read_probability, 0.0);

        // ALL reads are never stale regardless of the write level.
        let mut p = base(5);
        p.write_level = 1;
        assert_eq!(
            AnalyticEstimator::new().estimate(&p).stale_read_probability,
            0.0
        );
    }

    #[test]
    fn probability_decreases_with_read_level() {
        let est = AnalyticEstimator::new();
        let mut last = 1.0;
        for r in 1..=4u32 {
            let p = est.estimate(&base(r)).stale_read_probability;
            assert!(
                p <= last + 1e-12,
                "stale probability must not increase with the read level (R={r}: {p} > {last})"
            );
            last = p;
        }
        // And it should actually *matter*: ONE is clearly worse than R=4.
        let one = est.estimate(&base(1)).stale_read_probability;
        let four = est.estimate(&base(4)).stale_read_probability;
        assert!(one > 2.0 * four, "one={one} four={four}");
    }

    #[test]
    fn probability_increases_with_write_rate() {
        let est = AnalyticEstimator::new();
        let mut last = 0.0;
        for wr in [1.0, 10.0, 50.0, 200.0, 1000.0] {
            let mut p = base(1);
            p.write_rate = wr;
            let v = est.estimate(&p).stale_read_probability;
            assert!(v >= last - 1e-12, "must grow with write rate");
            last = v;
        }
        assert!(
            last > 0.5,
            "very heavy writes should make most weak reads stale (got {last})"
        );
    }

    #[test]
    fn probability_increases_with_propagation_time() {
        let est = AnalyticEstimator::new();
        let mut last = 0.0;
        for tp in [1.0, 10.0, 50.0, 200.0] {
            let p = StalenessParams::basic(5, 1, 1, 1000.0, 50.0, 0.5, tp);
            let v = est.estimate(&p).stale_read_probability;
            assert!(v >= last - 1e-12);
            last = v;
        }
    }

    #[test]
    fn deterministic_closed_form_matches_hand_computation() {
        // N=4, R=1, W=1, T=0, Tp=20ms, λw=25/s=0.025/ms.
        // P = C(3,1)/C(4,1) · (1 − e^{−0.025·20}) = 0.75 · (1 − e^{−0.5}).
        let p = StalenessParams::basic(4, 1, 1, 100.0, 25.0, 0.0, 20.0);
        let est = AnalyticEstimator::new().estimate(&p);
        let expected = 0.75 * (1.0 - (-0.5f64).exp());
        assert!(
            (est.stale_read_probability - expected).abs() < 1e-9,
            "got {} expected {expected}",
            est.stale_read_probability
        );
        assert!((est.stale_reads_per_sec - expected * 100.0).abs() < 1e-6);
    }

    #[test]
    fn first_write_time_shrinks_the_window() {
        // With T approaching Tp the staleness window vanishes.
        let est = AnalyticEstimator::new();
        let wide = StalenessParams::basic(5, 1, 1, 1000.0, 100.0, 0.0, 30.0);
        let narrow = StalenessParams::basic(5, 1, 1, 1000.0, 100.0, 25.0, 30.0);
        let closed = StalenessParams::basic(5, 1, 1, 1000.0, 100.0, 30.0, 30.0);
        let a = est.estimate(&wide).stale_read_probability;
        let b = est.estimate(&narrow).stale_read_probability;
        let c = est.estimate(&closed).stale_read_probability;
        assert!(a > b);
        assert!(b > 0.0);
        assert_eq!(c, 0.0);
    }

    /// Both sides of a closed form: `integrate`'s dispatch, and the
    /// quadrature every delay without one takes.
    fn closed_and_quadrature(params: &StalenessParams) -> (f64, f64) {
        let est = AnalyticEstimator::new();
        let lambda_w_per_ms = params.write_rate / 1_000.0;
        let avoid = avoid_probability(params.n_replicas, params.write_level, params.read_level);
        (
            est.estimate(params).stale_read_probability,
            est.quadrature(params, lambda_w_per_ms, avoid),
        )
    }

    #[test]
    fn exponential_closed_form_matches_quadrature() {
        let (a, b) = closed_and_quadrature(&StalenessParams {
            propagation: DelayDistribution::Exponential { mean_ms: 30.0 },
            ..base(2)
        });
        assert!((a - b).abs() < 5e-3, "closed={a} quadrature={b}");
    }

    #[test]
    fn quadrature_handles_constant_delay_like_closed_form() {
        let (a, b) = closed_and_quadrature(&base(1));
        assert!((a - b).abs() < 5e-3, "closed={a} quadrature={b}");
    }

    #[test]
    fn conditional_probability_shape() {
        let est = AnalyticEstimator::new();
        let p = base(2);
        // Before the write is acknowledged the read is judged against the
        // previous (propagated) write: not stale.
        assert_eq!(est.stale_probability_at(&p, 0.1), 0.0);
        // After the ack but before propagation completes, only selections
        // missing the acknowledged replica are stale: C(4,2)/C(5,2) = 0.6.
        let mid = est.stale_probability_at(&p, 10.0);
        assert!((mid - 0.6).abs() < 1e-12);
        // After Tp nothing is stale.
        assert_eq!(est.stale_probability_at(&p, 100.0), 0.0);
    }

    #[test]
    fn estimates_are_probabilities() {
        let est = AnalyticEstimator::new();
        for r in 1..=5 {
            for w in 1..=3 {
                for wr in [0.0, 5.0, 500.0, 50_000.0] {
                    for tp in [0.0, 5.0, 500.0] {
                        let p = StalenessParams::basic(5, r, w, 100.0, wr, 1.0, tp);
                        let v = est.estimate(&p).stale_read_probability;
                        assert!(
                            (0.0..=1.0).contains(&v),
                            "R={r} W={w} wr={wr} tp={tp} → {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn higher_write_level_reduces_staleness() {
        let est = AnalyticEstimator::new();
        let w1 = est
            .estimate(&StalenessParams::basic(5, 2, 1, 1000.0, 200.0, 0.5, 40.0))
            .stale_read_probability;
        let w2 = est
            .estimate(&StalenessParams::basic(5, 2, 2, 1000.0, 200.0, 0.5, 40.0))
            .stale_read_probability;
        let w3 = est
            .estimate(&StalenessParams::basic(5, 2, 3, 1000.0, 200.0, 0.5, 40.0))
            .stale_read_probability;
        assert!(w1 > w2);
        assert!(w2 > w3);
        assert!(w3 > 0.0, "2+3 = 5 is not a strict quorum for RF 5");
    }

    #[test]
    #[should_panic(expected = "invalid staleness parameters")]
    fn invalid_params_panic() {
        let mut p = base(1);
        p.read_level = 0;
        AnalyticEstimator::new().estimate(&p);
    }
}
