//! Latency / delay distributions used throughout the simulator.
//!
//! Network links, disk accesses and replica propagation delays are all
//! described by a [`DelayDistribution`], a serializable, deterministic
//! description of a positive random variable. It is sampled through one
//! sampler, the [`CompiledDelay`] that [`DelayDistribution::compiled`]
//! builds: the cluster's links and storage and the Monte-Carlo staleness
//! estimator all draw through it from a [`SimRng`], so a fixed seed
//! reproduces the exact same delays. This file's tests keep an interpreted
//! per-draw sampler as the reference the compiled draws are checked against
//! bit for bit.

use crate::rng::SimRng;
use crate::time::SimDuration;
use rand_distr::{Distribution, LogNormal, Normal};
use serde::{Deserialize, Serialize};

/// A distribution over non-negative delays, in milliseconds.
///
/// All parameters are expressed in **milliseconds** because that is the
/// natural unit for WAN latencies; samples are converted to [`SimDuration`]
/// (microsecond resolution) on draw.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)] // variant field names are self-describing (ms units)
pub enum DelayDistribution {
    /// Always exactly `ms`.
    Constant { ms: f64 },
    /// Uniform between `lo_ms` and `hi_ms`.
    Uniform { lo_ms: f64, hi_ms: f64 },
    /// Exponential with the given mean (common model for queueing delays).
    Exponential { mean_ms: f64 },
    /// `base_ms` plus an exponential tail of mean `tail_mean_ms` — a good
    /// model for a WAN link: a propagation floor plus congestion jitter.
    ShiftedExponential { base_ms: f64, tail_mean_ms: f64 },
    /// Normal distribution truncated at zero.
    Normal { mean_ms: f64, std_ms: f64 },
    /// Log-normal parameterized by the *median* and the multiplicative
    /// spread `sigma` (σ of the underlying normal) — the classic heavy-tailed
    /// latency model.
    LogNormal { median_ms: f64, sigma: f64 },
    /// Resample uniformly from an empirical set of observations.
    Empirical { samples_ms: Vec<f64> },
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
    ///
    /// For the truncated normal this returns the untruncated mean — the
    /// truncation error is negligible for the mean≫std latency settings the
    /// simulator uses, and tests tolerate the difference.
    pub fn mean_ms(&self) -> f64 {
        match self {
            DelayDistribution::Constant { ms } => *ms,
            DelayDistribution::Uniform { lo_ms, hi_ms } => (lo_ms + hi_ms) / 2.0,
            DelayDistribution::Exponential { mean_ms } => *mean_ms,
            DelayDistribution::ShiftedExponential {
                base_ms,
                tail_mean_ms,
            } => base_ms + tail_mean_ms,
            DelayDistribution::Normal { mean_ms, .. } => *mean_ms,
            DelayDistribution::LogNormal { median_ms, sigma } => {
                median_ms * (sigma * sigma / 2.0).exp()
            }
            DelayDistribution::Empirical { samples_ms } => {
                if samples_ms.is_empty() {
                    0.0
                } else {
                    samples_ms.iter().sum::<f64>() / samples_ms.len() as f64
                }
            }
        }
    }

    /// The infimum of the distribution's support, in milliseconds — no
    /// sample is ever smaller. This is the conservative-PDES **lookahead
    /// bound**: the minimum delay of a cross-shard link class lower-bounds
    /// how far ahead of its neighbours a shard may safely advance, so the
    /// sharded engine sizes its windows from the minimum `min_ms` over all
    /// cross-shard link classes. Unbounded-below tails (exponential,
    /// truncated normal, log-normal) return 0; callers degrade to minimal
    /// windows rather than unsound ones.
    pub fn min_ms(&self) -> f64 {
        let v = match self {
            DelayDistribution::Constant { ms } => *ms,
            DelayDistribution::Uniform { lo_ms, .. } => *lo_ms,
            DelayDistribution::Exponential { .. } => 0.0,
            DelayDistribution::ShiftedExponential { base_ms, .. } => *base_ms,
            DelayDistribution::Normal { mean_ms, std_ms } => {
                // The sampler truncates at zero; a degenerate std folds to
                // the constant mean.
                if *std_ms <= 0.0 {
                    *mean_ms
                } else {
                    0.0
                }
            }
            DelayDistribution::LogNormal { median_ms, sigma } => {
                if *median_ms <= 0.0 {
                    0.0
                } else if *sigma <= 0.0 {
                    *median_ms
                } else {
                    0.0
                }
            }
            // An empty sample set folds to +inf, which the finiteness check
            // below maps to 0 (matching its 0-valued draws).
            DelayDistribution::Empirical { samples_ms } => {
                samples_ms.iter().copied().fold(f64::INFINITY, f64::min)
            }
        };
        if v.is_finite() {
            v.max(0.0)
        } else {
            0.0
        }
    }

    /// Check the parameters: every one finite, a uniform's `lo_ms` not above
    /// its `hi_ms`, every empirical sample finite. Anything else would reach
    /// the sampler as a panic at the first draw or as delays below
    /// [`min_ms`](Self::min_ms), the sharded engine's lookahead bound.
    pub fn validate(&self) -> Result<(), String> {
        let finite = match self {
            DelayDistribution::Constant { ms } => ms.is_finite(),
            DelayDistribution::Uniform { lo_ms, hi_ms } => {
                if lo_ms > hi_ms {
                    return Err(format!("uniform lo_ms {lo_ms} is above hi_ms {hi_ms}"));
                }
                lo_ms.is_finite() && hi_ms.is_finite()
            }
            DelayDistribution::Exponential { mean_ms } => mean_ms.is_finite(),
            DelayDistribution::ShiftedExponential {
                base_ms,
                tail_mean_ms,
            } => base_ms.is_finite() && tail_mean_ms.is_finite(),
            DelayDistribution::Normal { mean_ms, std_ms } => {
                mean_ms.is_finite() && std_ms.is_finite()
            }
            DelayDistribution::LogNormal { median_ms, sigma } => {
                median_ms.is_finite() && sigma.is_finite()
            }
            DelayDistribution::Empirical { samples_ms } => samples_ms.iter().all(|s| s.is_finite()),
        };
        if finite {
            Ok(())
        } else {
            Err(format!("{self:?} has a parameter that is not finite"))
        }
    }

    /// Survival function `P(delay > t_ms)`. Exact for constant, uniform,
    /// exponential, shifted-exponential and empirical delays; the normal and
    /// log-normal take the exponential of the same mean, which keeps the
    /// staleness estimate monotone and errs on the stale side for short
    /// windows.
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
        match self {
            DelayDistribution::Constant { ms } => {
                if t_ms < *ms {
                    1.0
                } else {
                    0.0
                }
            }
            DelayDistribution::Uniform { lo_ms, hi_ms } => {
                if t_ms < *lo_ms {
                    1.0
                } else if t_ms >= *hi_ms {
                    0.0
                } else {
                    (hi_ms - t_ms) / (hi_ms - lo_ms)
                }
            }
            DelayDistribution::Exponential { mean_ms } => exponential(*mean_ms),
            DelayDistribution::ShiftedExponential {
                base_ms,
                tail_mean_ms,
            } => {
                if t_ms < *base_ms {
                    1.0
                } else if *tail_mean_ms <= 0.0 {
                    0.0
                } else {
                    (-(t_ms - base_ms) / tail_mean_ms).exp()
                }
            }
            DelayDistribution::Empirical { samples_ms } => {
                if samples_ms.is_empty() {
                    0.0
                } else {
                    samples_ms.iter().filter(|&&s| s > t_ms).count() as f64
                        / samples_ms.len() as f64
                }
            }
            DelayDistribution::Normal { .. } | DelayDistribution::LogNormal { .. } => {
                exponential(self.mean_ms())
            }
        }
    }

    /// Compile the distribution into its sampler: parameter validation,
    /// derived constants (`ln(median)` for the log-normal) and the
    /// zero/degenerate-parameter branches are resolved once instead of on
    /// every draw. The draws are bit-identical to the interpreted per-draw
    /// walk this file's tests keep as the reference — same RNG draws, same
    /// floating-point operations.
    ///
    /// # Panics
    /// Panics if the parameters fail [`validate`](Self::validate).
    pub fn compiled(&self) -> CompiledDelay {
        if let Err(e) = self.validate() {
            panic!("invalid delay distribution: {e}");
        }
        match self {
            DelayDistribution::Constant { ms } => CompiledDelay::Constant { ms: ms.max(0.0) },
            DelayDistribution::Uniform { lo_ms, hi_ms } => CompiledDelay::Uniform {
                lo_ms: *lo_ms,
                span_ms: hi_ms - lo_ms,
            },
            DelayDistribution::Exponential { mean_ms } => {
                if *mean_ms <= 0.0 {
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
                if *tail_mean_ms <= 0.0 {
                    CompiledDelay::Constant {
                        ms: base_ms.max(0.0),
                    }
                } else {
                    CompiledDelay::ShiftedExponential {
                        base_ms: *base_ms,
                        tail_rate: 1.0 / tail_mean_ms,
                    }
                }
            }
            DelayDistribution::Normal { mean_ms, std_ms } => {
                if *std_ms <= 0.0 {
                    CompiledDelay::Constant {
                        ms: mean_ms.max(0.0),
                    }
                } else {
                    CompiledDelay::Normal {
                        mean_ms: *mean_ms,
                        std_ms: *std_ms,
                    }
                }
            }
            DelayDistribution::LogNormal { median_ms, sigma } => {
                if *median_ms <= 0.0 {
                    CompiledDelay::Constant { ms: 0.0 }
                } else if *sigma <= 0.0 {
                    CompiledDelay::Constant {
                        ms: median_ms.max(0.0),
                    }
                } else {
                    CompiledDelay::LogNormal {
                        mu: median_ms.ln(),
                        sigma: *sigma,
                    }
                }
            }
            DelayDistribution::Empirical { samples_ms } => CompiledDelay::Empirical {
                samples_ms: samples_ms.clone(),
            },
        }
    }

    /// Scale every delay by a positive factor, returning a new distribution.
    /// Useful to derive "slow network" variants of a baseline topology.
    pub fn scaled(&self, factor: f64) -> Self {
        let f = factor.max(0.0);
        match self {
            DelayDistribution::Constant { ms } => DelayDistribution::Constant { ms: ms * f },
            DelayDistribution::Uniform { lo_ms, hi_ms } => DelayDistribution::Uniform {
                lo_ms: lo_ms * f,
                hi_ms: hi_ms * f,
            },
            DelayDistribution::Exponential { mean_ms } => DelayDistribution::Exponential {
                mean_ms: mean_ms * f,
            },
            DelayDistribution::ShiftedExponential {
                base_ms,
                tail_mean_ms,
            } => DelayDistribution::ShiftedExponential {
                base_ms: base_ms * f,
                tail_mean_ms: tail_mean_ms * f,
            },
            DelayDistribution::Normal { mean_ms, std_ms } => DelayDistribution::Normal {
                mean_ms: mean_ms * f,
                std_ms: std_ms * f,
            },
            DelayDistribution::LogNormal { median_ms, sigma } => DelayDistribution::LogNormal {
                median_ms: median_ms * f,
                sigma: *sigma,
            },
            DelayDistribution::Empirical { samples_ms } => DelayDistribution::Empirical {
                samples_ms: samples_ms.iter().map(|s| s * f).collect(),
            },
        }
    }
}

/// A [`DelayDistribution`] compiled for sampling — the only delay sampler:
/// parameters validated, degenerate cases folded to constants, derived
/// parameters precomputed. Produced by [`DelayDistribution::compiled`].
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledDelay {
    /// Always exactly `ms` (also the folding of degenerate parameters).
    Constant {
        /// The delay, already clamped non-negative.
        ms: f64,
    },
    /// Uniform over `[lo_ms, lo_ms + span_ms)`.
    Uniform {
        /// Lower bound.
        lo_ms: f64,
        /// Width of the interval.
        span_ms: f64,
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
    /// Normal, truncated at zero on draw.
    Normal {
        /// Mean.
        mean_ms: f64,
        /// Standard deviation (positive).
        std_ms: f64,
    },
    /// Log-normal with precomputed `mu = ln(median)`.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Std-dev of the underlying normal (positive).
        sigma: f64,
    },
    /// Resample from an empirical set.
    Empirical {
        /// The observations.
        samples_ms: Vec<f64>,
    },
}

impl CompiledDelay {
    /// Draw one delay as fractional milliseconds. Normal/log-normal draws go
    /// through the `rand_distr` samplers, whose parameters `compiled()`
    /// validated (finite, and a positive spread).
    #[inline]
    pub fn sample_ms(&self, rng: &mut SimRng) -> f64 {
        let v = match self {
            CompiledDelay::Constant { ms } => return *ms,
            CompiledDelay::Uniform { lo_ms, span_ms } => lo_ms + rng.next_f64() * span_ms,
            CompiledDelay::Exponential { rate } => rng.exponential(*rate),
            CompiledDelay::ShiftedExponential { base_ms, tail_rate } => {
                base_ms + rng.exponential(*tail_rate)
            }
            CompiledDelay::Normal { mean_ms, std_ms } => {
                let n = Normal::new(*mean_ms, *std_ms).expect("validated by compiled()");
                n.sample(rng)
            }
            CompiledDelay::LogNormal { mu, sigma } => {
                let ln = LogNormal::new(*mu, *sigma).expect("validated by compiled()");
                ln.sample(rng)
            }
            CompiledDelay::Empirical { samples_ms } => {
                if samples_ms.is_empty() {
                    0.0
                } else {
                    samples_ms[rng.index(samples_ms.len())]
                }
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
            let v = match self {
                DelayDistribution::Constant { ms } => *ms,
                DelayDistribution::Uniform { lo_ms, hi_ms } => {
                    lo_ms + rng.next_f64() * (hi_ms - lo_ms)
                }
                DelayDistribution::Exponential { mean_ms } => {
                    if *mean_ms <= 0.0 {
                        0.0
                    } else {
                        rng.exponential(1.0 / mean_ms)
                    }
                }
                DelayDistribution::ShiftedExponential {
                    base_ms,
                    tail_mean_ms,
                } => {
                    let tail = if *tail_mean_ms <= 0.0 {
                        0.0
                    } else {
                        rng.exponential(1.0 / tail_mean_ms)
                    };
                    base_ms + tail
                }
                DelayDistribution::Normal { mean_ms, std_ms } => {
                    if *std_ms <= 0.0 {
                        *mean_ms
                    } else {
                        Normal::new(*mean_ms, *std_ms).unwrap().sample(rng)
                    }
                }
                DelayDistribution::LogNormal { median_ms, sigma } => {
                    if *median_ms <= 0.0 {
                        0.0
                    } else if *sigma <= 0.0 {
                        *median_ms
                    } else {
                        LogNormal::new(median_ms.ln(), *sigma).unwrap().sample(rng)
                    }
                }
                DelayDistribution::Empirical { samples_ms } => {
                    if samples_ms.is_empty() {
                        0.0
                    } else {
                        samples_ms[rng.index(samples_ms.len())]
                    }
                }
            };
            v.max(0.0)
        }
    }

    fn empirical_mean(d: &DelayDistribution, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::new(seed);
        (0..n).map(|_| d.sample_ms(&mut rng)).sum::<f64>() / n as f64
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
    fn uniform_within_bounds() {
        let d = DelayDistribution::Uniform {
            lo_ms: 2.0,
            hi_ms: 4.0,
        };
        let mut rng = SimRng::new(2);
        for _ in 0..10_000 {
            let s = d.sample_ms(&mut rng);
            assert!((2.0..4.0).contains(&s));
        }
        assert!((empirical_mean(&d, 50_000, 3) - 3.0).abs() < 0.05);
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

    #[test]
    fn normal_truncated_at_zero() {
        let d = DelayDistribution::Normal {
            mean_ms: 1.0,
            std_ms: 2.0,
        };
        let mut rng = SimRng::new(8);
        for _ in 0..10_000 {
            assert!(d.sample_ms(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn empirical_resamples_observations() {
        let d = DelayDistribution::Empirical {
            samples_ms: vec![1.0, 2.0, 3.0],
        };
        let mut rng = SimRng::new(9);
        for _ in 0..100 {
            let s = d.sample_ms(&mut rng);
            assert!([1.0, 2.0, 3.0].contains(&s));
        }
        assert_eq!(d.mean_ms(), 2.0);
        let empty = DelayDistribution::Empirical { samples_ms: vec![] };
        assert_eq!(empty.sample_ms(&mut rng), 0.0);
    }

    #[test]
    fn scaling_scales_mean() {
        let d = DelayDistribution::wan(10.0, 2.0).scaled(3.0);
        assert!((d.mean_ms() - 36.0).abs() < 1e-9);
        let c = DelayDistribution::constant(4.0).scaled(0.5);
        assert_eq!(c.mean_ms(), 2.0);
    }

    #[test]
    fn compiled_sampler_is_bit_identical() {
        let dists = vec![
            DelayDistribution::constant(7.5),
            DelayDistribution::Uniform {
                lo_ms: 2.0,
                hi_ms: 4.0,
            },
            DelayDistribution::Exponential { mean_ms: 10.0 },
            DelayDistribution::Exponential { mean_ms: 0.0 },
            DelayDistribution::wan(50.0, 5.0),
            DelayDistribution::wan(50.0, 0.0),
            DelayDistribution::Normal {
                mean_ms: 1.0,
                std_ms: 2.0,
            },
            DelayDistribution::Normal {
                mean_ms: 3.0,
                std_ms: 0.0,
            },
            DelayDistribution::LogNormal {
                median_ms: 12.0,
                sigma: 0.4,
            },
            DelayDistribution::LogNormal {
                median_ms: 12.0,
                sigma: 0.0,
            },
            DelayDistribution::Empirical {
                samples_ms: vec![1.0, 2.0, 3.0],
            },
        ];
        for d in dists {
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
        let dists = vec![
            DelayDistribution::constant(7.5),
            DelayDistribution::Uniform {
                lo_ms: 2.0,
                hi_ms: 4.0,
            },
            DelayDistribution::Exponential { mean_ms: 10.0 },
            DelayDistribution::wan(50.0, 5.0),
            DelayDistribution::Normal {
                mean_ms: 1.0,
                std_ms: 2.0,
            },
            DelayDistribution::Normal {
                mean_ms: 3.0,
                std_ms: 0.0,
            },
            DelayDistribution::LogNormal {
                median_ms: 12.0,
                sigma: 0.4,
            },
            DelayDistribution::LogNormal {
                median_ms: 12.0,
                sigma: 0.0,
            },
            DelayDistribution::Empirical {
                samples_ms: vec![3.0, 1.5, 2.0],
            },
        ];
        for d in dists {
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
        assert_eq!(
            DelayDistribution::Empirical { samples_ms: vec![] }.min_ms(),
            0.0
        );
        assert_eq!(DelayDistribution::wan(12.0, 3.0).min_ms(), 12.0);
        assert_eq!(
            DelayDistribution::Uniform {
                lo_ms: 0.05,
                hi_ms: 0.3
            }
            .min_ms(),
            0.05
        );
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
            DelayDistribution::Normal {
                mean_ms: 1.0,
                std_ms: f64::INFINITY,
            },
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
    fn inverted_uniform_is_rejected() {
        let d = DelayDistribution::Uniform {
            lo_ms: 5.0,
            hi_ms: 1.0,
        };
        assert!(d.validate().unwrap_err().contains("above hi_ms"));
        let nan = DelayDistribution::Uniform {
            lo_ms: 0.0,
            hi_ms: f64::NAN,
        };
        assert!(nan.validate().is_err());
    }

    #[test]
    fn non_finite_empirical_sample_is_rejected() {
        let d = DelayDistribution::Empirical {
            samples_ms: vec![1.0, f64::NEG_INFINITY],
        };
        assert!(d.validate().unwrap_err().contains("not finite"));
        let empty = DelayDistribution::Empirical { samples_ms: vec![] };
        assert!(empty.validate().is_ok());
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
