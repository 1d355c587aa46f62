//! Quantiles and nominal-time arithmetic.

use crate::calibrate::CAL_MS;

/// The quantile every gated host-time metric reports: contention on a
/// shared box only ever adds time, and p10 was the tightest statistic in
/// the noise study (README, "Noise").
pub const GATED_Q: f64 = 0.10;

/// Host time in nominal milliseconds: `x / reference × CAL_MS`, where
/// `reference` is the wall time of the calibration kernel around the time
/// `x` was measured — the faster of the runs before and after it (same
/// unit as `x`).
pub fn nominal_ms(x: f64, reference: f64) -> f64 {
    x / reference * CAL_MS
}

/// Quantile `q ∈ [0, 1]` of `values` by linear interpolation between
/// order statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest quantile, capped at p90, that still leaves at least ten
/// samples beyond it: p90 from 100 samples up, lower for shorter runs
/// (never below the median).
pub fn tail_q(samples: usize) -> f64 {
    (1.0 - 10.0 / samples.max(1) as f64).clamp(0.5, 0.9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [40.0, 10.0, 30.0, 20.0, 50.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 0.5), 30.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert!((quantile(&v, 0.10) - 14.0).abs() < 1e-12);
        assert!((quantile(&v, 0.90) - 46.0).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.1), 7.0);
        assert_eq!(quantile(&[], 0.1), 0.0);
    }

    #[test]
    fn nominal_time_divides_out_the_reference() {
        // The kernel took exactly its nominal time: nothing to correct.
        assert_eq!(nominal_ms(48.0, CAL_MS), 48.0);
        // The box ran 25% slow for both the kernel and the op.
        assert!((nominal_ms(60.0, 1.25 * CAL_MS) - 48.0).abs() < 1e-12);
        // Units cancel: nanoseconds in, nominal milliseconds out.
        assert!((nominal_ms(48e6, CAL_MS * 1e6) - 48.0).abs() < 1e-9);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_q(100), 0.9);
        assert_eq!(tail_q(1000), 0.9);
        assert!((tail_q(50) - 0.8).abs() < 1e-12);
        assert_eq!(tail_q(12), 0.5);
    }
}
