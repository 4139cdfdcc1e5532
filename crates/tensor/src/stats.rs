//! Summary statistics for the benchmark harnesses.
//!
//! The paper reports KDE point clouds (Figures 3–6), per-epoch accuracy
//! series (Figure 7), sweep curves (Figures 8–11) and a linear fit
//! `Θ* ≈ c · d` (Figure 12). These helpers compute the numeric summaries we
//! print in place of the plots: medians, quartiles and means.

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation; `0.0` for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Median by sorting a copy; `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]`; `0.0` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("quantile: NaN in data"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Median of an `f32` slice (convenience for sketch row estimates).
pub fn median_f32(xs: &[f32]) -> f32 {
    let v: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
    median(&v) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantile_bounds() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.25), 1.75);
    }

    /// Every summary statistic of an empty sample is `0.0`, as documented.
    #[test]
    fn summary_of_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[], 0.9), 0.0);
        assert_eq!(median_f32(&[]), 0.0);
    }
}
