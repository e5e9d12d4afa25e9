//! Virtual time for the discrete-event simulation.
//!
//! All simulated timestamps are expressed in **microseconds** since the start
//! of the simulation. Microsecond resolution is sufficient to model
//! intra-datacenter latencies (hundreds of microseconds) and coarse enough
//! that a `u64` never overflows for any realistic experiment length
//! (≈ 584 000 years).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, measured in microseconds from simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of virtual time, measured in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Construct from fractional seconds (saturating at zero for negatives).
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e6).round() as u64)
    }

    /// The raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant expressed in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This instant expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier` (saturating at zero).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Construct from fractional milliseconds (saturating at zero for negatives).
    pub fn from_millis_f64(ms: f64) -> Self {
        SimDuration(round_to_u64(ms.max(0.0) * 1e3))
    }

    /// Construct from fractional seconds (saturating at zero for negatives).
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e6).round() as u64)
    }

    /// The raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiply by a non-negative floating-point factor.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration((self.0 as f64 * factor.max(0.0)).round() as u64)
    }
}

/// `x.round() as u64` — half away from zero, saturating, NaN and negatives
/// to 0 — in integer arithmetic. Every delay sample converts through
/// [`SimDuration::from_millis_f64`], and baseline x86-64 has no rounding
/// instruction, so `f64::round` there is an out-of-line library call. Exact:
/// below 2^52 the fraction `x - trunc(x)` is computed without error, and from
/// 2^52 up every `f64` is an integer.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add((x - t as f64 >= 0.5) as u64)
}

/// `a + b` in µs, panicking on overflow in release builds too: a wrapped
/// instant would land in the past, where the event queue runs it "now".
#[inline]
fn add_us(a: u64, b: u64) -> u64 {
    a.checked_add(b).expect("simulated time overflow")
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(add_us(self.0, rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = add_us(self.0, rhs.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(add_us(self.0, rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = add_us(self.0, rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}µs", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn integer_rounding_matches_round_at_the_edges() {
        let below_half = 0.5f64.next_down();
        let mut edges = vec![
            0.0,
            -0.0,
            below_half,
            0.5,
            0.5f64.next_up(),
            1.0,
            1.5,
            2.5,
            -0.4,
            -0.5,
            -1.5,
            -1e300,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            u64::MAX as f64,
            (u64::MAX as f64).next_down(),
            (u64::MAX as f64).next_up(),
        ];
        // The last halves (2^52 - 0.5 is the largest), and the powers of two
        // from where every f64 is an integer up to where `as u64` saturates.
        for exp in 51..=64 {
            let p = 2f64.powi(exp);
            edges.extend([p - 1.0, p - 0.5, p.next_down(), p, p.next_up(), p + 0.5]);
        }
        for x in edges {
            assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e}");
        }
        assert_eq!(round_to_u64(below_half), 0);
        assert_eq!(round_to_u64(0.5), 1);
        assert_eq!(round_to_u64(2.5), 3, "half away from zero, not to even");
        assert_eq!(round_to_u64(f64::INFINITY), u64::MAX);
        assert_eq!(SimDuration::from_millis_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(1.2345), SimDuration(1_235));
    }

    proptest! {
        /// Differential against `f64::round`: arbitrary bit patterns (NaNs,
        /// infinities, negatives, subnormals), the 0–100 ms delays the
        /// samplers produce, exact halves with both neighbours, and the
        /// integer-only range 2^52…2^64.
        #[test]
        fn integer_rounding_matches_round(
            bits in any::<u64>(),
            delay_ms in 0.0..100.0f64,
            whole in 0u64..(1 << 52),
            exp in 52u32..64,
            mantissa in 0u64..(1 << 52),
        ) {
            // Halves at every magnitude, not only next to 2^52.
            let half = (whole >> (bits % 52)) as f64 + 0.5;
            // 2^exp ≤ big < 2^(exp+1), every mantissa bit in play.
            let big = f64::from_bits(((1023 + exp as u64) << 52) | mantissa);
            for x in [
                f64::from_bits(bits),
                delay_ms * 1e3,
                half.next_down(),
                half,
                half.next_up(),
                big,
            ] {
                prop_assert_eq!(round_to_u64(x), x.round() as u64, "x = {:e}", x);
            }
            // The constructor is that rounding of the clamped, scaled input.
            for ms in [f64::from_bits(bits), delay_ms] {
                prop_assert_eq!(
                    SimDuration::from_millis_f64(ms).0,
                    (ms.max(0.0) * 1e3).round() as u64,
                    "ms = {:e}",
                    ms
                );
            }
        }
    }

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert!((SimTime::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1);
        let d = SimDuration::from_millis(500);
        assert_eq!((t + d).as_micros(), 1_500_000);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.since(t + d), SimDuration::ZERO, "saturates at zero");
        assert_eq!((t + d).since(t), d);
    }

    #[test]
    #[should_panic(expected = "simulated time overflow")]
    fn time_overflow_panics_in_every_build() {
        let _ = SimTime::MAX + SimDuration::from_micros(1);
    }

    #[test]
    #[should_panic(expected = "simulated time overflow")]
    fn duration_overflow_panics_in_every_build() {
        let mut d = SimDuration::MAX;
        d += SimDuration::from_micros(1);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
        assert_eq!(d.mul_f64(2.5), SimDuration::from_micros(25_000));
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12µs");
        assert_eq!(format!("{}", SimDuration::from_micros(1_500)), "1.500ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
    }

    #[test]
    fn ordering_and_sum() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        let total: SimDuration = [SimDuration::from_millis(1), SimDuration::from_millis(2)]
            .into_iter()
            .sum();
        assert_eq!(total, SimDuration::from_millis(3));
    }
}
