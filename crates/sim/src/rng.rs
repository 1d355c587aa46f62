//! Deterministic random number generation for reproducible experiments.
//!
//! The simulation must be bit-reproducible across runs and platforms, so we
//! implement a small, well-known generator (SplitMix64) rather than depending
//! on platform entropy. Workload models use it for request jitter and dirty
//! page selection.

/// A deterministic pseudo-random number generator (SplitMix64).
///
/// SplitMix64 passes BigCrush and is the generator recommended for seeding
/// xoshiro-family generators; its state transition is a single 64-bit add,
/// which makes it fully portable and extremely cheap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates a generator from a seed.
    pub const fn new(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// Returns the next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a value uniformly distributed in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be non-zero");
        // Lemire's multiply-shift rejection method for an unbiased result.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a standard normal sample (Box–Muller transform).
    pub fn gen_normal(&mut self) -> f64 {
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = self.gen_f64().max(f64::MIN_POSITIVE);
        let u2 = self.gen_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p.clamp(0.0, 1.0)
    }

    /// Splits off an independent generator (for per-VM streams).
    pub fn split(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }

    /// Samples `k` distinct indices from `0..n` (floyd's algorithm order is
    /// not needed here; we shuffle a prefix for simplicity).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.gen_range((n - i) as u64) as usize;
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_splitmix_vector() {
        // Reference values for seed 1234567 from the canonical SplitMix64.
        let mut r = SimRng::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn gen_range_bounds() {
        let mut r = SimRng::new(7);
        for _ in 0..10_000 {
            assert!(r.gen_range(13) < 13);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn gen_range_zero_panics() {
        SimRng::new(0).gen_range(0);
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut r = SimRng::new(99);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.gen_range(8) as usize] += 1;
        }
        for c in counts {
            assert!(
                (9_000..11_000).contains(&c),
                "bucket count {c} out of range"
            );
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::new(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.gen_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn sample_indices_distinct() {
        let mut r = SimRng::new(8);
        let s = r.sample_indices(100, 20);
        assert_eq!(s.len(), 20);
        let mut t = s.clone();
        t.sort_unstable();
        t.dedup();
        assert_eq!(t.len(), 20);
        assert!(t.iter().all(|&i| i < 100));
    }

    #[test]
    fn split_streams_diverge() {
        let mut a = SimRng::new(1);
        let mut b = a.split();
        let mut c = a.split();
        assert_ne!(b.next_u64(), c.next_u64());
    }
}
