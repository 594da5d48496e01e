//! Medians and quartiles over a run's samples.

/// Median of `values` (mean of the two middle values for an even count);
/// NaN when empty, so a metric nothing measured renders as JSON `null`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method) — the
/// driver judges run-to-run spread with that function, so `compare` and the
/// README's spread figures use the same one.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    (quantile(values, 0.25), quantile(values, 0.75))
}

fn quantile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            // Position p·(n+1) on a 1-based axis, clamped to the sample.
            let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
            let below = pos.floor() as usize;
            let frac = pos - below as f64;
            let lo = sorted[below - 1];
            let hi = sorted[below.min(n - 1)];
            lo + (hi - lo) * frac
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn degenerate_samples() {
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[4.0]), 4.0);
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }
}
