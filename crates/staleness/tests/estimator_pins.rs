//! Both estimators' outputs, pinned bit for bit.
//!
//! The constants were captured before the propagation delay became a
//! `DelayDistribution` (it was a three-variant model of its own, sampled by
//! the Monte-Carlo estimator's own walk): a constant and an exponential delay
//! take the closed forms they took then, the log-normal the same quadrature,
//! and the Monte-Carlo draws go through the compiled sampler with the same
//! RNG stream. A change to either estimator or to the sampler that moves a
//! single bit fails here.

use concord_sim::DelayDistribution;
use concord_staleness::{
    AnalyticEstimator, MonteCarloEstimator, StaleReadEstimator, StalenessParams,
};

/// `(delay, read level, analytic bits, Monte-Carlo bits)`.
fn pins() -> Vec<(DelayDistribution, u32, u64, u64)> {
    let constant = DelayDistribution::constant(40.0);
    let exponential = DelayDistribution::Exponential { mean_ms: 30.0 };
    let lognormal = DelayDistribution::LogNormal {
        median_ms: 20.0,
        sigma: 0.5,
    };
    vec![
        (constant, 1, 0x3fe8838f048e18ad, 0x3fe8d8c2a454de7f),
        (constant, 2, 0x3fe262ab436a9282, 0x3fe26bce8533b107),
        (exponential, 1, 0x3fe1c59bbdeec638, 0x3fe19f7f8ca8198f),
        (exponential, 2, 0x3fd4423f76861540, 0x3fd40b242070b8d0),
        (lognormal, 1, 0x3fe023b538664dea, 0x3fe38fc504816f00),
        (lognormal, 2, 0x3fd1786e8a80bbe9, 0x3fda8198f1d3ed52),
    ]
}

#[test]
fn estimates_are_bit_identical_to_the_pinned_constants() {
    let analytic = AnalyticEstimator::new();
    let monte_carlo = MonteCarloEstimator::new(50_000, 42).with_chunks(2);
    for (propagation, read_level, analytic_bits, mc_bits) in pins() {
        let params = StalenessParams {
            propagation,
            ..StalenessParams::basic(5, read_level, 1, 2000.0, 80.0, 0.5, 0.0)
        };
        let a = analytic.estimate(&params).stale_read_probability;
        let m = monte_carlo.estimate(&params).stale_read_probability;
        assert_eq!(
            (a.to_bits(), m.to_bits()),
            (analytic_bits, mc_bits),
            "{propagation:?} at R={read_level}: analytic {a}, Monte-Carlo {m}"
        );
    }
}
