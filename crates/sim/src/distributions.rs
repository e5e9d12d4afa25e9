//! Latency / delay distributions used throughout the simulator.
//!
//! Network links, disk accesses and replica propagation delays are all
//! described by a [`DelayDistribution`], a serializable, deterministic
//! description of a non-negative random variable. It has the four shapes
//! something draws from: the platforms' loopback and LAN constants, their
//! shifted-exponential WAN links and log-normal storage and intra-site
//! delays, and the exponential propagation delay the staleness estimators
//! are checked against. A shape comes back with the caller that needs it.
//!
//! Every delay is sampled through one sampler, the [`CompiledDelay`] that
//! [`DelayDistribution::compiled`] builds: the cluster's links and storage
//! and the Monte-Carlo staleness estimator all draw through it from a
//! [`SimRng`], so a fixed seed reproduces the exact same delays. This file's
//! tests keep an interpreted per-draw sampler as the reference the compiled
//! draws are checked against bit for bit, and check the model
//! ([`mean_ms`](DelayDistribution::mean_ms),
//! [`survival`](DelayDistribution::survival)) against the draws.

use crate::rng::SimRng;
use crate::time::SimDuration;
use rand_distr::{Distribution, LogNormal};
use serde::{Deserialize, Serialize};

/// A distribution over non-negative delays, in milliseconds.
///
/// All parameters are expressed in **milliseconds** because that is the
/// natural unit for WAN latencies; samples are converted to [`SimDuration`]
/// (microsecond resolution) on draw. Every parameter must be finite and
/// non-negative ([`validate`](Self::validate)); zero is legal and folds the
/// shape to a constant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)] // variant field names are self-describing (ms units)
pub enum DelayDistribution {
    /// Always exactly `ms`.
    Constant { ms: f64 },
    /// Exponential with the given mean (common model for queueing delays).
    Exponential { mean_ms: f64 },
    /// `base_ms` plus an exponential tail of mean `tail_mean_ms` — a good
    /// model for a WAN link: a propagation floor plus congestion jitter.
    ShiftedExponential { base_ms: f64, tail_mean_ms: f64 },
    /// Log-normal parameterized by the *median* and the multiplicative
    /// spread `sigma` (σ of the underlying normal) — the classic heavy-tailed
    /// latency model.
    LogNormal { median_ms: f64, sigma: f64 },
}

impl DelayDistribution {
    /// A constant delay of `ms` milliseconds.
    pub fn constant(ms: f64) -> Self {
        DelayDistribution::Constant { ms }
    }

    /// Shifted-exponential WAN model: `base + Exp(tail_mean)`.
    pub fn wan(base_ms: f64, tail_mean_ms: f64) -> Self {
        DelayDistribution::ShiftedExponential {
            base_ms,
            tail_mean_ms,
        }
    }

    /// The analytical mean of the distribution, in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        match *self {
            DelayDistribution::Constant { ms } => ms,
            DelayDistribution::Exponential { mean_ms } => mean_ms,
            DelayDistribution::ShiftedExponential {
                base_ms,
                tail_mean_ms,
            } => base_ms + tail_mean_ms,
            DelayDistribution::LogNormal { median_ms, sigma } => {
                median_ms * (sigma * sigma / 2.0).exp()
            }
        }
    }

    /// The infimum of a valid distribution's support, in milliseconds — no
    /// sample is ever smaller. This is the conservative-PDES **lookahead
    /// bound**: the minimum delay of a cross-shard link class lower-bounds
    /// how far ahead of its neighbours a shard may safely advance, so the
    /// sharded engine sizes its windows from the minimum `min_ms` over all
    /// cross-shard link classes. Unbounded-below tails (exponential,
    /// log-normal) return 0; callers degrade to minimal windows rather than
    /// unsound ones.
    pub fn min_ms(&self) -> f64 {
        match *self {
            DelayDistribution::Constant { ms } => ms,
            DelayDistribution::ShiftedExponential { base_ms, .. } => base_ms,
            // A zero spread folds to the constant median.
            DelayDistribution::LogNormal { median_ms, sigma } if sigma <= 0.0 => median_ms,
            DelayDistribution::Exponential { .. } | DelayDistribution::LogNormal { .. } => 0.0,
        }
    }

    /// Check the parameters: every one finite and non-negative, and the
    /// error names the one that is not. A negative one would make the model
    /// ([`mean_ms`](Self::mean_ms), [`survival`](Self::survival)) disagree
    /// with the draws, which clamp at zero; a non-finite one would reach the
    /// sampler as a panic at the first draw.
    pub fn validate(&self) -> Result<(), String> {
        let check = |name: &str, v: f64| {
            if !v.is_finite() {
                Err(format!("{name} {v} is not finite"))
            } else if v < 0.0 {
                Err(format!("{name} {v} is negative"))
            } else {
                Ok(())
            }
        };
        match *self {
            DelayDistribution::Constant { ms } => check("ms", ms),
            DelayDistribution::Exponential { mean_ms } => check("mean_ms", mean_ms),
            DelayDistribution::ShiftedExponential {
                base_ms,
                tail_mean_ms,
            } => check("base_ms", base_ms).and(check("tail_mean_ms", tail_mean_ms)),
            DelayDistribution::LogNormal { median_ms, sigma } => {
                check("median_ms", median_ms).and(check("sigma", sigma))
            }
        }
        .map_err(|e| format!("{self:?}: {e}"))
    }

    /// Survival function `P(delay > t_ms)`. Exact for constant, exponential
    /// and shifted-exponential delays; the log-normal takes the exponential
    /// of the same mean, which keeps the staleness estimate monotone and
    /// errs on the stale side for short windows.
    pub fn survival(&self, t_ms: f64) -> f64 {
        if t_ms < 0.0 {
            return 1.0;
        }
        let exponential = |mean_ms: f64| {
            if mean_ms <= 0.0 {
                0.0
            } else {
                (-t_ms / mean_ms).exp()
            }
        };
        match *self {
            DelayDistribution::Constant { ms } => {
                if t_ms < ms {
                    1.0
                } else {
                    0.0
                }
            }
            DelayDistribution::Exponential { mean_ms } => exponential(mean_ms),
            DelayDistribution::ShiftedExponential {
                base_ms,
                tail_mean_ms,
            } => {
                if t_ms < base_ms {
                    1.0
                } else if tail_mean_ms <= 0.0 {
                    0.0
                } else {
                    (-(t_ms - base_ms) / tail_mean_ms).exp()
                }
            }
            DelayDistribution::LogNormal { .. } => exponential(self.mean_ms()),
        }
    }

    /// Compile the distribution into its sampler: parameter validation,
    /// derived constants (`ln(median)` for the log-normal) and the
    /// zero-parameter branches are resolved once instead of on every draw.
    /// The draws are bit-identical to the interpreted per-draw walk this
    /// file's tests keep as the reference — same RNG draws, same
    /// floating-point operations.
    ///
    /// # Panics
    /// Panics if the parameters fail [`validate`](Self::validate).
    pub fn compiled(&self) -> CompiledDelay {
        if let Err(e) = self.validate() {
            panic!("invalid delay distribution: {e}");
        }
        match *self {
            DelayDistribution::Constant { ms } => CompiledDelay::Constant { ms },
            DelayDistribution::Exponential { mean_ms } => {
                if mean_ms <= 0.0 {
                    CompiledDelay::Constant { ms: 0.0 }
                } else {
                    CompiledDelay::Exponential {
                        rate: 1.0 / mean_ms,
                    }
                }
            }
            DelayDistribution::ShiftedExponential {
                base_ms,
                tail_mean_ms,
            } => {
                if tail_mean_ms <= 0.0 {
                    CompiledDelay::Constant { ms: base_ms }
                } else {
                    CompiledDelay::ShiftedExponential {
                        base_ms,
                        tail_rate: 1.0 / tail_mean_ms,
                    }
                }
            }
            DelayDistribution::LogNormal { median_ms, sigma } => {
                if median_ms <= 0.0 {
                    CompiledDelay::Constant { ms: 0.0 }
                } else if sigma <= 0.0 {
                    CompiledDelay::Constant { ms: median_ms }
                } else {
                    CompiledDelay::LogNormal {
                        mu: median_ms.ln(),
                        sigma,
                    }
                }
            }
        }
    }
}

/// A [`DelayDistribution`] compiled for sampling — the only delay sampler:
/// parameters validated, zero parameters folded to constants, derived
/// parameters precomputed. Produced by [`DelayDistribution::compiled`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompiledDelay {
    /// Always exactly `ms` (also the folding of zero parameters).
    Constant {
        /// The delay, non-negative.
        ms: f64,
    },
    /// Exponential with precomputed rate.
    Exponential {
        /// `1 / mean`.
        rate: f64,
    },
    /// Base plus exponential tail with precomputed tail rate.
    ShiftedExponential {
        /// Propagation floor.
        base_ms: f64,
        /// `1 / tail_mean`.
        tail_rate: f64,
    },
    /// Log-normal with precomputed `mu = ln(median)`.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Std-dev of the underlying normal (positive).
        sigma: f64,
    },
}

impl CompiledDelay {
    /// Draw one delay as fractional milliseconds. Log-normal draws go
    /// through the `rand_distr` sampler, whose parameters `compiled()`
    /// validated (finite, and a positive spread).
    #[inline]
    pub fn sample_ms(&self, rng: &mut SimRng) -> f64 {
        let v = match *self {
            CompiledDelay::Constant { ms } => return ms,
            CompiledDelay::Exponential { rate } => rng.exponential(rate),
            CompiledDelay::ShiftedExponential { base_ms, tail_rate } => {
                base_ms + rng.exponential(tail_rate)
            }
            CompiledDelay::LogNormal { mu, sigma } => {
                let ln = LogNormal::new(mu, sigma).expect("validated by compiled()");
                ln.sample(rng)
            }
        };
        v.max(0.0)
    }

    /// Draw one delay.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_millis_f64(self.sample_ms(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkModel;

    /// The interpreted reference sampler: every parameter branch resolved on
    /// every draw. [`CompiledDelay`] must match it bit for bit
    /// (`compiled_sampler_is_bit_identical`).
    impl DelayDistribution {
        fn sample_ms(&self, rng: &mut SimRng) -> f64 {
            let v = match *self {
                DelayDistribution::Constant { ms } => ms,
                DelayDistribution::Exponential { mean_ms } => {
                    if mean_ms <= 0.0 {
                        0.0
                    } else {
                        rng.exponential(1.0 / mean_ms)
                    }
                }
                DelayDistribution::ShiftedExponential {
                    base_ms,
                    tail_mean_ms,
                } => {
                    let tail = if tail_mean_ms <= 0.0 {
                        0.0
                    } else {
                        rng.exponential(1.0 / tail_mean_ms)
                    };
                    base_ms + tail
                }
                DelayDistribution::LogNormal { median_ms, sigma } => {
                    if median_ms <= 0.0 {
                        0.0
                    } else if sigma <= 0.0 {
                        median_ms
                    } else {
                        LogNormal::new(median_ms.ln(), sigma).unwrap().sample(rng)
                    }
                }
            };
            v.max(0.0)
        }
    }

    /// Every shape over a small grid, the zero-parameter edges included.
    fn grid() -> Vec<DelayDistribution> {
        let lognormal = |median_ms, sigma| DelayDistribution::LogNormal { median_ms, sigma };
        vec![
            DelayDistribution::constant(0.0),
            DelayDistribution::constant(7.5),
            DelayDistribution::Exponential { mean_ms: 0.0 },
            DelayDistribution::Exponential { mean_ms: 10.0 },
            DelayDistribution::wan(0.0, 3.0),
            DelayDistribution::wan(50.0, 5.0),
            DelayDistribution::wan(50.0, 0.0),
            lognormal(0.0, 0.4),
            lognormal(12.0, 0.0),
            lognormal(12.0, 0.4),
            lognormal(0.5, 0.35),
        ]
    }

    #[test]
    fn constant_is_constant() {
        let d = DelayDistribution::constant(7.5);
        let mut rng = SimRng::new(1);
        for _ in 0..100 {
            assert_eq!(d.sample_ms(&mut rng), 7.5);
        }
        assert_eq!(d.mean_ms(), 7.5);
    }

    #[test]
    fn exponential_and_shifted_means() {
        let exp = DelayDistribution::Exponential { mean_ms: 10.0 };
        assert!((empirical_mean(&exp, 100_000, 4) - 10.0).abs() < 0.3);

        let wan = DelayDistribution::wan(50.0, 5.0);
        assert_eq!(wan.mean_ms(), 55.0);
        let m = empirical_mean(&wan, 100_000, 5);
        assert!((m - 55.0).abs() < 0.5, "mean={m}");
        // All samples must respect the base floor.
        let mut rng = SimRng::new(6);
        for _ in 0..1_000 {
            assert!(wan.sample_ms(&mut rng) >= 50.0);
        }
    }

    fn empirical_mean(d: &DelayDistribution, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::new(seed);
        (0..n).map(|_| d.sample_ms(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn lognormal_mean_formula() {
        let d = DelayDistribution::LogNormal {
            median_ms: 20.0,
            sigma: 0.5,
        };
        let analytic = d.mean_ms();
        let measured = empirical_mean(&d, 200_000, 7);
        assert!(
            (measured - analytic).abs() / analytic < 0.03,
            "measured={measured} analytic={analytic}"
        );
    }

    /// The model the staleness estimators evaluate against the sampler the
    /// cluster draws from: `mean_ms` within 4 standard errors of the mean of
    /// 20 000 compiled draws, and `survival` within a 4-σ binomial bound of
    /// the share of draws above `t` — just below the floor and at the
    /// quantiles of survival 0.9 … 0.1. The log-normal's survival is the
    /// documented exponential-of-the-mean approximation, not its own
    /// curve, so only its mean is checked.
    #[test]
    fn model_agrees_with_the_draws() {
        const N: usize = 20_000;
        let n = N as f64;
        for (i, d) in grid().into_iter().enumerate() {
            let compiled = d.compiled();
            let mut rng = SimRng::new(1_000 + i as u64);
            let draws: Vec<f64> = (0..N).map(|_| compiled.sample_ms(&mut rng)).collect();

            let (floor, tail_mean_ms, sd) = match d {
                DelayDistribution::Constant { ms } => (ms, 0.0, 0.0),
                DelayDistribution::Exponential { mean_ms } => (0.0, mean_ms, mean_ms),
                DelayDistribution::ShiftedExponential {
                    base_ms,
                    tail_mean_ms,
                } => (base_ms, tail_mean_ms, tail_mean_ms),
                DelayDistribution::LogNormal { sigma, .. } => {
                    (0.0, 0.0, d.mean_ms() * (sigma * sigma).exp_m1().sqrt())
                }
            };
            let mean = draws.iter().sum::<f64>() / n;
            assert!(
                (mean - d.mean_ms()).abs() <= 4.0 * sd / n.sqrt() + 1e-9,
                "{d:?}: draws average {mean}, the model says {}",
                d.mean_ms()
            );

            if matches!(d, DelayDistribution::LogNormal { .. }) {
                continue;
            }
            let quantiles = [0.9f64, 0.7, 0.5, 0.3, 0.1].map(|p| floor - tail_mean_ms * p.ln());
            for t in [floor - 1e-9].into_iter().chain(quantiles) {
                let p = d.survival(t);
                let above = draws.iter().filter(|&&x| x > t).count() as f64 / n;
                assert!(
                    (above - p).abs() <= 4.0 * (p * (1.0 - p) / n).sqrt() + 1e-12,
                    "{d:?} at t = {t}: {above} of the draws are above, survival says {p}"
                );
            }
        }
    }

    #[test]
    fn compiled_sampler_is_bit_identical() {
        for d in grid() {
            let compiled = d.compiled();
            let mut a = SimRng::new(99);
            let mut b = SimRng::new(99);
            for i in 0..2_000 {
                let orig = d.sample_ms(&mut a);
                let fast = compiled.sample_ms(&mut b);
                assert_eq!(
                    orig.to_bits(),
                    fast.to_bits(),
                    "draw {i} of {d:?}: {orig} != {fast}"
                );
            }
        }
    }

    #[test]
    fn min_ms_lower_bounds_every_sample() {
        for d in grid() {
            let floor = d.min_ms();
            assert!(floor >= 0.0, "{d:?}");
            let mut rng = SimRng::new(123);
            for _ in 0..5_000 {
                let s = d.sample_ms(&mut rng);
                assert!(
                    s >= floor - 1e-12,
                    "{d:?}: sample {s} below declared floor {floor}"
                );
            }
        }
        assert_eq!(DelayDistribution::wan(12.0, 3.0).min_ms(), 12.0);
        assert_eq!(DelayDistribution::constant(0.05).min_ms(), 0.05);
    }

    #[test]
    fn serde_round_trip() {
        let d = DelayDistribution::LogNormal {
            median_ms: 12.0,
            sigma: 0.4,
        };
        let json = serde_json::to_string(&d).unwrap();
        let back: DelayDistribution = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn a_retired_shape_fails_to_load() {
        let err =
            serde_json::from_str::<DelayDistribution>(r#"{"Uniform":{"lo_ms":1.0,"hi_ms":2.0}}"#)
                .unwrap_err()
                .to_string();
        assert!(err.contains("unknown variant"), "{err}");
    }

    #[test]
    fn samples_convert_to_duration() {
        let d = DelayDistribution::constant(1.5).compiled();
        let mut rng = SimRng::new(10);
        assert_eq!(d.sample(&mut rng), SimDuration::from_micros(1_500));
    }

    #[test]
    fn non_finite_parameters_are_rejected() {
        for d in [
            DelayDistribution::constant(f64::NAN),
            DelayDistribution::Exponential {
                mean_ms: f64::INFINITY,
            },
            DelayDistribution::wan(1.0, f64::NAN),
            DelayDistribution::LogNormal {
                median_ms: f64::NAN,
                sigma: 0.4,
            },
        ] {
            let err = d.validate().unwrap_err();
            assert!(err.contains("not finite"), "{d:?}: {err}");
        }
    }

    #[test]
    fn negative_parameters_are_rejected() {
        for (d, name) in [
            (DelayDistribution::constant(-5.0), "ms -5 is negative"),
            (
                DelayDistribution::Exponential { mean_ms: -2.0 },
                "mean_ms -2 is negative",
            ),
            (DelayDistribution::wan(-1.0, 3.0), "base_ms -1 is negative"),
            (
                DelayDistribution::wan(1.0, -3.0),
                "tail_mean_ms -3 is negative",
            ),
            (
                DelayDistribution::LogNormal {
                    median_ms: -1.0,
                    sigma: 0.4,
                },
                "median_ms -1 is negative",
            ),
            (
                DelayDistribution::LogNormal {
                    median_ms: 1.0,
                    sigma: -0.4,
                },
                "sigma -0.4 is negative",
            ),
        ] {
            let err = d.validate().unwrap_err();
            assert!(err.ends_with(name), "{d:?}: {err}");
        }
        // Zero stays legal: it folds the shape to a constant.
        for d in grid() {
            assert_eq!(d.validate(), Ok(()), "{d:?}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid delay distribution")]
    fn compiling_an_invalid_distribution_panics() {
        DelayDistribution::LogNormal {
            median_ms: f64::NAN,
            sigma: 0.4,
        }
        .compiled();
    }

    #[test]
    fn every_network_model_preset_validates() {
        for net in [
            NetworkModel::lan(),
            NetworkModel::ec2_like(),
            NetworkModel::grid5000_like(),
        ] {
            for d in [&net.local, &net.intra_dc, &net.inter_dc, &net.inter_region] {
                d.validate().unwrap_or_else(|e| panic!("{e}"));
            }
        }
    }
}
