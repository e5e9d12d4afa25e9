//! Monte-Carlo stale-read estimation.
//!
//! A direct simulation of the Figure-1 situation: writes arrive as a Poisson
//! process, every replica receives each write after its sampled propagation
//! delay (drawn through `concord_sim::CompiledDelay`, the sampler the
//! cluster's links and storage use), reads arrive as an independent Poisson
//! process and contact `R`
//! random replicas. The estimator counts how many reads return a value older
//! than the last write *acknowledged* before the read started (the same
//! ground-truth definition the cluster oracle uses).
//!
//! The Monte-Carlo estimator is the reference the analytic estimator is
//! validated against in the property tests; it is also what the `fig1`
//! benchmark uses to reproduce the paper's Figure 1 situation.

use crate::analytic::{StaleReadEstimator, StalenessEstimate};
use crate::params::StalenessParams;
use concord_sim::SimRng;
use rayon::prelude::*;

/// Monte-Carlo estimator.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarloEstimator {
    /// Number of simulated reads.
    pub reads: usize,
    /// RNG seed (deterministic results for a fixed seed).
    pub seed: u64,
    /// Number of independent chunks evaluated in parallel with rayon.
    pub chunks: usize,
}

impl Default for MonteCarloEstimator {
    fn default() -> Self {
        MonteCarloEstimator {
            reads: 200_000,
            seed: 0xC0FFEE,
            chunks: 8,
        }
    }
}

impl MonteCarloEstimator {
    /// Create an estimator simulating `reads` read operations.
    pub fn new(reads: usize, seed: u64) -> Self {
        MonteCarloEstimator {
            reads,
            seed,
            chunks: 8,
        }
    }

    /// Set the number of independent chunks the pool evaluates in parallel.
    ///
    /// Each chunk derives its RNG from `seed` and the chunk index, and the
    /// chunk results are reduced in index order, so the estimate depends on
    /// the chunk *count* but never on the thread count that ran them.
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        self.chunks = chunks.max(1);
        self
    }

    /// Simulate one chunk of reads and return (stale, total).
    fn run_chunk(&self, params: &StalenessParams, chunk_reads: usize, seed: u64) -> (u64, u64) {
        let mut rng = SimRng::new(seed);
        let propagation = params.propagation.compiled();
        let n = params.n_replicas as usize;
        let r = params.read_level as usize;
        let w = params.write_level as usize;
        let lambda_w_per_ms = params.write_rate / 1_000.0;
        let lambda_r_per_ms = params.read_rate.max(1e-9) / 1_000.0;

        // Event-free simulation: we walk a virtual timeline where writes and
        // reads interleave. Every write keeps, per replica, the absolute time
        // at which it becomes visible there, plus the time at which it was
        // acknowledged (when `W` replicas have it). A read is stale iff it
        // misses the newest write acknowledged before it started — the same
        // definition as the cluster simulator's staleness oracle.
        //
        // A bounded window of recent writes is kept so that overlapping
        // propagation windows (a newer write arriving before the previous one
        // is acknowledged) are handled correctly.
        const WRITE_WINDOW: usize = 64;
        struct WriteRecord {
            visible_at: Vec<f64>,
            ack_at: f64,
        }
        let mut recent: std::collections::VecDeque<WriteRecord> =
            std::collections::VecDeque::with_capacity(WRITE_WINDOW);
        let mut now_ms: f64;
        let mut stale = 0u64;
        let mut total = 0u64;

        if lambda_w_per_ms <= 0.0 {
            return (0, chunk_reads as u64);
        }

        let mut next_write = rng.exponential(lambda_w_per_ms);
        let mut next_read = rng.exponential(lambda_r_per_ms);
        while total < chunk_reads as u64 {
            if next_write <= next_read {
                now_ms = next_write;
                // Issue a write: replica 0 (the coordinator's local replica)
                // applies it after `first_write_ms`; the others after their
                // sampled propagation delay (never before the first replica).
                let mut visible: Vec<f64> = Vec::with_capacity(n);
                visible.push(now_ms + params.first_write_ms);
                for _ in 1..n {
                    let d = propagation.sample_ms(&mut rng).max(params.first_write_ms);
                    visible.push(now_ms + d);
                }
                // Acknowledged when `w` replicas have applied it.
                let mut sorted = visible.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let ack_at = sorted[w - 1];
                recent.push_back(WriteRecord {
                    visible_at: visible,
                    ack_at,
                });
                if recent.len() > WRITE_WINDOW {
                    recent.pop_front();
                }
                next_write = now_ms + rng.exponential(lambda_w_per_ms);
            } else {
                now_ms = next_read;
                next_read = now_ms + rng.exponential(lambda_r_per_ms);
                total += 1;
                // The newest write acknowledged before the read started.
                let Some(target) = recent.iter().rev().find(|wr| wr.ack_at <= now_ms) else {
                    continue;
                };
                // Contact R random replicas; the read is stale iff none of
                // them has that acknowledged write yet.
                let chosen = rng.sample_indices(n, r);
                let sees_fresh = chosen.iter().any(|&i| target.visible_at[i] <= now_ms);
                if !sees_fresh {
                    stale += 1;
                }
            }
        }
        (stale, total)
    }
}

impl StaleReadEstimator for MonteCarloEstimator {
    fn estimate(&self, params: &StalenessParams) -> StalenessEstimate {
        params
            .validate()
            .unwrap_or_else(|e| panic!("invalid staleness parameters: {e}"));
        let chunks = self.chunks.max(1);
        let per_chunk = (self.reads / chunks).max(1);
        let results: Vec<(u64, u64)> = (0..chunks)
            .into_par_iter()
            .map(|i| self.run_chunk(params, per_chunk, self.seed.wrapping_add(i as u64 * 7919)))
            .collect();
        let stale: u64 = results.iter().map(|(s, _)| s).sum();
        let total: u64 = results.iter().map(|(_, t)| t).sum();
        let p = if total == 0 {
            0.0
        } else {
            stale as f64 / total as f64
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
    use crate::analytic::AnalyticEstimator;
    use concord_sim::DelayDistribution;

    fn mc() -> MonteCarloEstimator {
        MonteCarloEstimator::new(120_000, 42)
    }

    #[test]
    fn deterministic_results_for_fixed_seed() {
        let p = StalenessParams::basic(5, 1, 1, 1000.0, 50.0, 0.5, 40.0);
        let a = mc().estimate(&p);
        let b = mc().estimate(&p);
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // The chunks run on the real pool now; the estimate must stay
        // bit-identical whether one thread or many evaluate them, because
        // chunk RNGs are seeded by index and results reduce in index order.
        let p = StalenessParams::basic(5, 2, 1, 1500.0, 80.0, 0.5, 30.0);
        let est = MonteCarloEstimator::new(120_000, 42).with_chunks(8);
        let pool = |n: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("pool construction cannot fail")
        };
        let baseline = pool(1).install(|| est.estimate(&p));
        for threads in [2, 4, 8] {
            let sampled = pool(threads).install(|| est.estimate(&p));
            assert_eq!(sampled, baseline, "estimate drifted at {threads} threads");
        }
    }

    #[test]
    fn with_chunks_clamps_and_configures() {
        assert_eq!(MonteCarloEstimator::new(100, 1).with_chunks(0).chunks, 1);
        assert_eq!(MonteCarloEstimator::new(100, 1).with_chunks(16).chunks, 16);
    }

    #[test]
    fn agrees_with_analytic_closed_form_level_one() {
        let est_a = AnalyticEstimator::new();
        for (wr, tp) in [(20.0, 30.0), (100.0, 10.0), (5.0, 100.0)] {
            let p = StalenessParams::basic(5, 1, 1, 2000.0, wr, 0.0, tp);
            let analytic = est_a.estimate(&p).stale_read_probability;
            let sampled = mc().estimate(&p).stale_read_probability;
            assert!(
                (analytic - sampled).abs() < 0.03,
                "λw={wr} Tp={tp}: analytic={analytic} mc={sampled}"
            );
        }
    }

    #[test]
    fn agrees_with_analytic_for_higher_levels() {
        let est_a = AnalyticEstimator::new();
        for r in [2u32, 3] {
            let p = StalenessParams::basic(5, r, 1, 2000.0, 80.0, 0.0, 25.0);
            let analytic = est_a.estimate(&p).stale_read_probability;
            let sampled = mc().estimate(&p).stale_read_probability;
            assert!(
                (analytic - sampled).abs() < 0.03,
                "R={r}: analytic={analytic} mc={sampled}"
            );
        }
    }

    #[test]
    fn strict_quorum_observes_no_staleness() {
        let mut p = StalenessParams::basic(5, 3, 3, 1000.0, 200.0, 1.0, 50.0);
        let est = mc().estimate(&p);
        assert_eq!(est.stale_read_probability, 0.0);
        p.read_level = 5;
        p.write_level = 1;
        assert_eq!(mc().estimate(&p).stale_read_probability, 0.0);
    }

    #[test]
    fn exponential_model_matches_analytic() {
        let params = StalenessParams {
            propagation: DelayDistribution::Exponential { mean_ms: 30.0 },
            ..StalenessParams::basic(5, 1, 1, 2000.0, 40.0, 0.0, 0.0)
        };
        let analytic = AnalyticEstimator::new()
            .estimate(&params)
            .stale_read_probability;
        let sampled = mc().estimate(&params).stale_read_probability;
        assert!(
            (analytic - sampled).abs() < 0.03,
            "analytic={analytic} mc={sampled}"
        );
    }

    #[test]
    fn general_distribution_is_supported() {
        let params = StalenessParams {
            propagation: DelayDistribution::wan(20.0, 10.0),
            ..StalenessParams::basic(5, 2, 1, 2000.0, 40.0, 0.5, 0.0)
        };
        let est = mc().estimate(&params);
        assert!(est.stale_read_probability > 0.0);
        assert!(est.stale_read_probability < 1.0);
    }

    #[test]
    fn no_writes_no_staleness() {
        let p = StalenessParams::basic(5, 1, 1, 1000.0, 0.0, 0.5, 40.0);
        assert_eq!(mc().estimate(&p).stale_read_probability, 0.0);
    }
}
