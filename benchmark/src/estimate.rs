//! The estimators: best-of for host times, quartiles for the noise table.

/// The fastest sample. On a shared machine interference only ever adds time,
/// so the minimum is the closest estimate of what the code costs; see the
/// README for the measurements behind this choice.
pub fn best_of(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "best_of needs a sample");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so the
/// noise table reads like the driver's.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    assert!(!samples.is_empty(), "quartiles need a sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("measurements are not NaN"));
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let at = |quarter: usize| {
        let position = quarter * (n + 1);
        let j = (position / 4).clamp(1, n - 1);
        // Outside [0, 4] where `j` was clamped: Python extrapolates there.
        let delta = position as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_is_the_minimum() {
        assert_eq!(best_of(&[1.15, 0.80, 0.84, 0.97]), 0.80);
        assert_eq!(best_of(&[2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0, 1.0, 9.0]).1, 4.0);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }
}
