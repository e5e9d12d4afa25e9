//! Per-period feature extraction from application access traces.
//!
//! The behavior-modeling process (§III-C of the paper) starts by collecting
//! *"several predefined metrics … based on application data access past
//! traces. These metrics are collected per time period in order to build the
//! application timeline."* [`PeriodFeatures`] is that per-period metric
//! vector and [`extract_timeline`] builds the timeline from a trace.

use concord_sim::SimDuration;
use concord_workload::{Trace, TraceOp};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The metrics collected for one time period of the application timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeriodFeatures {
    /// Index of the period in the timeline.
    pub period: usize,
    /// Operations per second during the period.
    pub ops_per_sec: f64,
    /// Reads per second.
    pub read_rate: f64,
    /// Writes per second.
    pub write_rate: f64,
    /// Fraction of operations that are writes.
    pub write_ratio: f64,
    /// Mean payload size in bytes.
    pub mean_value_size: f64,
    /// Access skew: fraction of operations that touch the 10% most popular
    /// keys of the period (0.1 for a perfectly uniform access pattern).
    pub hot_key_concentration: f64,
    /// Number of distinct keys touched.
    pub distinct_keys: u64,
}

impl PeriodFeatures {
    /// The feature vector used for clustering (order is stable and
    /// documented: rate, write ratio, value size, skew).
    pub fn vector(&self) -> Vec<f64> {
        vec![
            self.ops_per_sec,
            self.write_ratio,
            self.mean_value_size,
            self.hot_key_concentration,
        ]
    }
}

/// Compute the features of one window of trace operations.
pub fn period_features(period: usize, ops: &[TraceOp], window: SimDuration) -> PeriodFeatures {
    let secs = window.as_secs_f64().max(1e-9);
    if ops.is_empty() {
        return PeriodFeatures {
            period,
            ops_per_sec: 0.0,
            read_rate: 0.0,
            write_rate: 0.0,
            write_ratio: 0.0,
            mean_value_size: 0.0,
            hot_key_concentration: 0.0,
            distinct_keys: 0,
        };
    }
    let total = ops.len() as f64;
    let writes = ops.iter().filter(|o| o.op.is_write()).count() as f64;
    let reads = total - writes;
    let mean_value_size = ops.iter().map(|o| o.value_size as f64).sum::<f64>() / total;

    let mut key_counts: HashMap<u64, u64> = HashMap::new();
    for op in ops {
        *key_counts.entry(op.key).or_insert(0) += 1;
    }
    let distinct = key_counts.len() as u64;
    let mut counts: Vec<u64> = key_counts.into_values().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let hot_count = ((counts.len() as f64 * 0.1).ceil() as usize).max(1);
    let hot_ops: u64 = counts.iter().take(hot_count).sum();
    let hot_key_concentration = hot_ops as f64 / total;

    PeriodFeatures {
        period,
        ops_per_sec: total / secs,
        read_rate: reads / secs,
        write_rate: writes / secs,
        write_ratio: writes / total,
        mean_value_size,
        hot_key_concentration,
        distinct_keys: distinct,
    }
}

/// Build the application timeline: one [`PeriodFeatures`] per `period`-long
/// window of the trace.
pub fn extract_timeline(trace: &Trace, period: SimDuration) -> Vec<PeriodFeatures> {
    trace
        .windows(period)
        .into_iter()
        .enumerate()
        .map(|(i, ops)| period_features(i, ops, period))
        .collect()
}

/// Normalize feature vectors to zero mean / unit variance per dimension so
/// that clustering is not dominated by the dimension with the largest scale.
/// Returns the normalized vectors plus the (mean, std) per dimension so that
/// new observations can be normalized the same way at classification time.
pub fn normalize(vectors: &[Vec<f64>]) -> (Vec<Vec<f64>>, Vec<(f64, f64)>) {
    if vectors.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let dims = vectors[0].len();
    let n = vectors.len() as f64;
    let mut stats = Vec::with_capacity(dims);
    for d in 0..dims {
        let mean = vectors.iter().map(|v| v[d]).sum::<f64>() / n;
        let var = vectors.iter().map(|v| (v[d] - mean).powi(2)).sum::<f64>() / n;
        let std = var.sqrt();
        stats.push((mean, if std > 1e-12 { std } else { 1.0 }));
    }
    let normalized = vectors
        .iter()
        .map(|v| {
            v.iter()
                .enumerate()
                .map(|(d, x)| (x - stats[d].0) / stats[d].1)
                .collect()
        })
        .collect();
    (normalized, stats)
}

/// Normalize a single vector with previously computed per-dimension stats.
pub fn normalize_with(vector: &[f64], stats: &[(f64, f64)]) -> Vec<f64> {
    vector
        .iter()
        .zip(stats.iter())
        .map(|(x, (mean, std))| (x - mean) / std)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_sim::SimTime;
    use concord_workload::OperationType;

    fn op(at_ms: u64, write: bool, key: u64, size: u32) -> TraceOp {
        TraceOp {
            at: SimTime::from_millis(at_ms),
            op: if write {
                OperationType::Update
            } else {
                OperationType::Read
            },
            key,
            value_size: size,
        }
    }

    #[test]
    fn features_of_a_simple_window() {
        let ops: Vec<TraceOp> = (0..100)
            .map(|i| op(i * 10, i % 4 == 0, i % 10, 100))
            .collect();
        let f = period_features(0, &ops, SimDuration::from_secs(1));
        assert_eq!(f.period, 0);
        assert!((f.ops_per_sec - 100.0).abs() < 1e-9);
        assert!((f.write_ratio - 0.25).abs() < 1e-9);
        assert!((f.read_rate - 75.0).abs() < 1e-9);
        assert!((f.write_rate - 25.0).abs() < 1e-9);
        assert_eq!(f.mean_value_size, 100.0);
        assert_eq!(f.distinct_keys, 10);
        // Uniform over 10 keys → the hottest key (10% of keys) gets ~10%.
        assert!(f.hot_key_concentration < 0.2);
    }

    #[test]
    fn empty_window_is_zeroed() {
        let f = period_features(3, &[], SimDuration::from_secs(1));
        assert_eq!(f.ops_per_sec, 0.0);
        assert_eq!(f.distinct_keys, 0);
        assert_eq!(f.period, 3);
    }

    #[test]
    fn skewed_access_has_high_concentration() {
        // 90% of ops on one key out of 20.
        let mut ops = Vec::new();
        for i in 0..100u64 {
            let key = if i < 90 { 0 } else { i % 20 };
            ops.push(op(i, false, key, 50));
        }
        let f = period_features(0, &ops, SimDuration::from_secs(1));
        assert!(f.hot_key_concentration > 0.8);
    }

    #[test]
    fn timeline_extraction_counts_periods() {
        let mut trace = Trace::new();
        for i in 0..1000u64 {
            trace.push(op(i * 10, i % 2 == 0, i % 50, 100));
        }
        // 10 seconds of trace, 1-second periods.
        let timeline = extract_timeline(&trace, SimDuration::from_secs(1));
        assert_eq!(timeline.len(), 10);
        assert!(timeline.iter().all(|f| (f.ops_per_sec - 100.0).abs() < 5.0));
        assert_eq!(timeline[4].period, 4);
    }

    #[test]
    fn normalization_centers_and_scales() {
        let vectors = vec![vec![100.0, 0.1], vec![200.0, 0.2], vec![300.0, 0.3]];
        let (normed, stats) = normalize(&vectors);
        assert_eq!(normed.len(), 3);
        // Mean of each normalized dimension is ~0.
        for d in 0..2 {
            let mean: f64 = normed.iter().map(|v| v[d]).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-9);
        }
        // Round trip through normalize_with matches.
        let again = normalize_with(&vectors[1], &stats);
        assert!((again[0] - normed[1][0]).abs() < 1e-12);
    }

    #[test]
    fn constant_dimension_does_not_divide_by_zero() {
        let vectors = vec![vec![5.0, 1.0], vec![5.0, 2.0]];
        let (normed, _) = normalize(&vectors);
        assert!(normed.iter().all(|v| v[0].abs() < 1e-9));
    }

    #[test]
    fn feature_vector_has_documented_dimension() {
        let f = period_features(0, &[], SimDuration::from_secs(1));
        assert_eq!(f.vector().len(), 4);
    }
}
