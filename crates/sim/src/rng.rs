//! Deterministic random number generation for reproducible simulations.
//!
//! Every stochastic component of the simulator draws from a [`SimRng`], a
//! small, fast, splittable PRNG (xoshiro256** seeded through SplitMix64).
//! Determinism matters here: the same seed must produce the same event
//! ordering, the same workload and the same staleness measurements on every
//! run, so experiments and property tests are exactly reproducible.
//!
//! `SimRng` implements [`rand::RngCore`] so it can be plugged into any
//! distribution from `rand`/`rand_distr`. Delays are drawn through one
//! sampler, [`CompiledDelay`](crate::CompiledDelay): exponential draws come
//! from [`SimRng::exponential`] directly, log-normal draws from `rand_distr`
//! on top of this generator.

use rand::{Error, RngCore, SeedableRng};

/// SplitMix64 step, used to expand a single `u64` seed into a full state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, splittable xoshiro256** PRNG.
///
/// Not cryptographically secure — it is a simulation RNG. The generator is
/// *splittable*: [`SimRng::split`] derives an independent child stream, which
/// lets each simulated component (workload generator, per-link latency
/// sampler, failure injector, …) own its own stream so that adding draws in
/// one component does not perturb any other component.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // xoshiro must not start from the all-zero state.
        if s == [0, 0, 0, 0] {
            SimRng::new(0xDEAD_BEEF_CAFE_F00D)
        } else {
            SimRng { s }
        }
    }

    /// Derive an independent child generator.
    ///
    /// The child is seeded from the parent's output, and the parent advances,
    /// so successive splits yield distinct streams.
    pub fn split(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }

    /// The deterministic per-shard stream family of the parallel sharded
    /// engine: `shard_stream(seed, shard)` mixes the shard index into the
    /// master seed through SplitMix64, so each shard owns an independent
    /// stream that is a pure function of `(seed, shard)` — reproducible at
    /// any worker-thread count, and stable as long as the shard *count*
    /// (and therefore the shard map) is stable.
    ///
    /// This family is deliberately distinct from [`SimRng::new`]: the serial
    /// `shards=1` engine keeps consuming `new(seed)` unchanged (the stream
    /// the golden digests pin), while `shards>1` runs draw from
    /// `shard_stream(seed, 0..=shards)` — stream `shards` is the control
    /// plane's (repair timers, coordinator draws at admission and retry).
    pub fn shard_stream(master_seed: u64, shard: u64) -> SimRng {
        let mut sm = master_seed;
        let base = splitmix64(&mut sm);
        let mut mix = base ^ shard.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::new(splitmix64(&mut mix))
    }

    #[inline]
    fn next(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be non-zero.
    #[inline]
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection method (bias-free).
        let mut x = self.next();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Bernoulli draw with probability `p` of returning `true`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed value with the given rate (mean `1/rate`).
    #[inline]
    pub fn exponential(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0);
        let u = 1.0 - self.next_f64(); // avoid ln(0)
        -u.ln() / rate
    }

    /// Pick a uniformly random element index from a slice length.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.next_bounded(len as u64) as usize
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_bounded(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `0..len` (k ≤ len), in random order.
    pub fn sample_indices(&mut self, len: usize, k: usize) -> Vec<usize> {
        debug_assert!(k <= len);
        // Partial Fisher–Yates over an index vector; O(len) setup, fine for
        // the small replica sets we sample in the simulator.
        let mut idx: Vec<usize> = (0..len).collect();
        for i in 0..k {
            let j = i + self.next_bounded((len - i) as u64) as usize;
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for SimRng {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        SimRng::new(u64::from_le_bytes(seed))
    }

    fn seed_from_u64(state: u64) -> Self {
        SimRng::new(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 5);
    }

    #[test]
    fn split_streams_are_independent_and_deterministic() {
        let mut parent1 = SimRng::new(7);
        let mut parent2 = SimRng::new(7);
        let mut c1 = parent1.split();
        let mut c2 = parent2.split();
        for _ in 0..100 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
        // Parent and child streams should not be identical.
        let mut p = SimRng::new(7);
        let mut c = p.clone().split();
        let same = (0..100).filter(|_| p.next_u64() == c.next_u64()).count();
        assert!(same < 5);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bounded_respects_bound() {
        let mut r = SimRng::new(5);
        for bound in [1u64, 2, 3, 7, 100, 1 << 33] {
            for _ in 0..500 {
                assert!(r.next_bounded(bound) < bound);
            }
        }
    }

    #[test]
    fn bounded_is_roughly_uniform() {
        let mut r = SimRng::new(11);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.next_bounded(10) as usize] += 1;
        }
        for &c in &counts {
            let expected = n as f64 / 10.0;
            assert!((c as f64 - expected).abs() < expected * 0.1);
        }
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut r = SimRng::new(13);
        let rate = 4.0;
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn sample_indices_distinct() {
        let mut r = SimRng::new(17);
        for _ in 0..200 {
            let s = r.sample_indices(10, 4);
            assert_eq!(s.len(), 4);
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "indices must be distinct: {s:?}");
            assert!(s.iter().all(|&i| i < 10));
        }
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut r = SimRng::new(23);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fill_bytes_covers_remainder() {
        let mut r = SimRng::new(29);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
