//! Exponentially weighted moving averages for the adaptive control plane.
//!
//! The migration engine's per-round observers (dirty rate, effective link
//! throughput, wire compression) all need the same primitive: a smoothed
//! estimate that tracks a noisy per-round signal without keeping history.
//! [`Ewma`] is that primitive — deterministic, allocation-free, and
//! resettable (the chaos path resets estimators when a link drop
//! invalidates what the observations were measuring).

/// An exponentially weighted moving average.
///
/// `observe(x)` folds a new sample in as `v ← α·x + (1−α)·v`; the first
/// sample initialises the estimate directly (no bias toward zero). The
/// struct is plain `Copy` data so controllers embedding several estimators
/// stay trivially cloneable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an estimator with smoothing factor `alpha` ∈ (0, 1].
    /// Higher alpha weights recent samples more. Out-of-range values are
    /// clamped so arithmetic stays total.
    pub fn new(alpha: f64) -> Self {
        let alpha = if alpha.is_finite() {
            alpha.clamp(f64::EPSILON, 1.0)
        } else {
            1.0
        };
        Ewma { alpha, value: None }
    }

    /// The smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Folds one sample into the estimate and returns the new value.
    /// Non-finite samples are ignored (the estimate is unchanged) so a
    /// degenerate observation cannot poison the controller.
    pub fn observe(&mut self, sample: f64) -> f64 {
        if sample.is_finite() {
            self.value = Some(match self.value {
                None => sample,
                Some(v) => self.alpha * sample + (1.0 - self.alpha) * v,
            });
        }
        self.value.unwrap_or(0.0)
    }

    /// The current estimate, or `None` before the first sample.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// The current estimate, or `default` before the first sample.
    pub fn get_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }

    /// Discards the estimate (keeps alpha). Used when the underlying
    /// signal changed regime — e.g. a link drop invalidated what the
    /// samples were measuring.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

impl Default for Ewma {
    /// A balanced estimator (α = 0.5): responsive over the handful of
    /// rounds a pre-copy migration actually runs.
    fn default() -> Self {
        Ewma::new(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initialises_directly() {
        let mut e = Ewma::new(0.25);
        assert!(e.value().is_none());
        assert_eq!(e.value(), None);
        assert_eq!(e.get_or(7.0), 7.0);
        assert_eq!(e.observe(100.0), 100.0);
        assert!(e.value().is_some());
        assert_eq!(e.value(), Some(100.0));
    }

    #[test]
    fn smoothing_follows_alpha() {
        let mut e = Ewma::new(0.5);
        e.observe(0.0);
        assert_eq!(e.observe(100.0), 50.0);
        assert_eq!(e.observe(100.0), 75.0);
        // Alpha 1.0 tracks the last sample exactly.
        let mut tracker = Ewma::new(1.0);
        tracker.observe(3.0);
        assert_eq!(tracker.observe(9.0), 9.0);
    }

    #[test]
    fn converges_toward_constant_signal() {
        let mut e = Ewma::new(0.3);
        for _ in 0..100 {
            e.observe(42.0);
        }
        assert!((e.value().unwrap() - 42.0).abs() < 1e-9);
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let mut e = Ewma::new(0.5);
        e.observe(10.0);
        assert_eq!(e.observe(f64::NAN), 10.0);
        assert_eq!(e.observe(f64::INFINITY), 10.0);
        assert_eq!(e.value(), Some(10.0));
        // Even as the first sample.
        let mut f = Ewma::new(0.5);
        f.observe(f64::NAN);
        assert!(f.value().is_none());
    }

    #[test]
    fn reset_discards_estimate_but_keeps_alpha() {
        let mut e = Ewma::new(0.125);
        e.observe(5.0);
        e.reset();
        assert!(e.value().is_none());
        assert_eq!(e.alpha(), 0.125);
        assert_eq!(e.observe(11.0), 11.0, "re-initialises directly");
    }

    #[test]
    fn alpha_is_clamped() {
        assert_eq!(Ewma::new(2.0).alpha(), 1.0);
        assert!(Ewma::new(-1.0).alpha() > 0.0);
        assert_eq!(Ewma::new(f64::NAN).alpha(), 1.0);
    }

    #[test]
    fn determinism_same_inputs_same_estimate() {
        let run = || {
            let mut e = Ewma::default();
            let mut rng = crate::SimRng::new(0xe13a);
            for _ in 0..64 {
                e.observe(rng.gen_f64() * 1e6);
            }
            e.value().unwrap().to_bits()
        };
        assert_eq!(run(), run());
    }
}
