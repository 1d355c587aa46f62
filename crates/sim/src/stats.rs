//! Summary statistics for experiment results.
//!
//! The paper reports averages when standard deviation is low and box plots
//! otherwise (§5.2.1); [`Streaming`] and [`BoxPlot`] implement both reductions.

/// Bounded-memory running aggregate: count / sum / min / max.
///
/// Campaign-scale reports cannot afford one `Vec` entry per VM, so exec
/// and campaign telemetry stream samples through this instead. Two rules
/// keep results byte-identical across shard counts:
///
/// * every producer accumulates its own shard-local `Streaming` with
///   [`push`](Streaming::push), and
/// * the orchestrator folds shard aggregates in canonical (shard-index)
///   order with [`merge`](Streaming::merge).
///
/// `merge` adds shard subsums, which rounds differently from pushing every
/// sample into one accumulator — so the *sequential* path must fold
/// per-shard aggregates too, never push across shard boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Streaming {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (0.0 when empty).
    pub min: f64,
    /// Largest sample (0.0 when empty).
    pub max: f64,
}

impl Streaming {
    /// An empty aggregate.
    pub fn new() -> Streaming {
        Streaming::default()
    }

    /// Records one sample.
    pub fn push(&mut self, x: f64) {
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        self.sum += x;
    }

    /// Folds another aggregate into this one. Callers must merge in a
    /// canonical order (f64 addition is not associative).
    pub fn merge(&mut self, other: &Streaming) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Arithmetic mean, or 0.0 when empty (never NaN).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Canonical single-line rendering (`{:?}` floats round-trip, so two
    /// renders match iff the aggregates are bit-identical).
    pub fn render(&self) -> String {
        format!(
            "n={} sum={:?} min={:?} max={:?}",
            self.count, self.sum, self.min, self.max
        )
    }
}

/// Fixed-bucket histogram over `[lo, hi)` with out-of-range counters —
/// the bounded-memory replacement for per-sample vectors in campaign
/// telemetry. Bucket counts are `u64` sums, so merging is order-
/// independent and shard-count invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    /// Samples below `lo`.
    pub underflow: u64,
    /// Samples at or above `hi`.
    pub overflow: u64,
}

impl Histogram {
    /// Creates a histogram of `buckets` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Histogram {
        assert!(buckets > 0, "histogram needs at least one bucket");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            buckets: vec![0; buckets],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / (self.hi - self.lo) * self.buckets.len() as f64) as usize;
            // Guard the edge where float rounding lands exactly on len().
            let idx = idx.min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Per-bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Total samples recorded, including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.underflow + self.overflow + self.buckets.iter().sum::<u64>()
    }

    /// Folds another histogram into this one (order-independent).
    ///
    /// # Panics
    ///
    /// Panics if the bucket configurations differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.buckets.len() == other.buckets.len(),
            "merging histograms with different bucket configurations"
        );
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }

    /// Canonical single-line rendering: range, then comma-separated counts
    /// with under/overflow sentinels.
    pub fn render(&self) -> String {
        let counts: Vec<String> = self.buckets.iter().map(|c| c.to_string()).collect();
        format!(
            "[{:?},{:?})x{} <{} [{}] >{}",
            self.lo,
            self.hi,
            self.buckets.len(),
            self.underflow,
            counts.join(","),
            self.overflow
        )
    }
}

/// Five-number summary for box plots (min, q1, median, q3, max).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxPlot {
    /// Minimum sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum sample.
    pub max: f64,
}

impl BoxPlot {
    /// Computes a box plot of `xs`. Returns `None` for an empty slice.
    pub fn of(xs: &[f64]) -> Option<BoxPlot> {
        if xs.is_empty() {
            return None;
        }
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
        Some(BoxPlot {
            min: v[0],
            q1: percentile_sorted(&v, 25.0),
            median: percentile_sorted(&v, 50.0),
            q3: percentile_sorted(&v, 75.0),
            max: v[v.len() - 1],
        })
    }
}

/// Returns the `p`-th percentile (0..=100) of an already-sorted slice using
/// linear interpolation between closest ranks.
///
/// # Panics
///
/// Panics if `xs` is empty or `p` is outside `[0, 100]`.
pub(crate) fn percentile_sorted(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile p out of range");
    if xs.len() == 1 {
        return xs[0];
    }
    let rank = p / 100.0 * (xs.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    xs[lo] + (xs[hi] - xs[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_empty_is_none() {
        assert!(BoxPlot::of(&[]).is_none());
    }

    #[test]
    fn boxplot_quartiles() {
        let b = BoxPlot::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(b.min, 1.0);
        assert_eq!(b.q1, 2.0);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.q3, 4.0);
        assert_eq!(b.max, 5.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0];
        assert_eq!(percentile_sorted(&xs, 0.0), 10.0);
        assert_eq!(percentile_sorted(&xs, 50.0), 15.0);
        assert_eq!(percentile_sorted(&xs, 100.0), 20.0);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile_sorted(&[], 50.0);
    }

    #[test]
    fn streaming_basics() {
        let mut s = Streaming::new();
        assert_eq!(s.mean(), 0.0); // empty: 0.0, never NaN
        s.push(3.0);
        s.push(1.0);
        s.push(2.0);
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 6.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn streaming_merge_matches_groupwise_fold() {
        // Shard-identity contract: folding per-group aggregates in group
        // order gives the same bits regardless of which pool ran them.
        let groups = [vec![1.5, 2.5], vec![0.5], vec![4.0, 0.25, 8.0]];
        let mut folded = Streaming::new();
        for g in &groups {
            let mut local = Streaming::new();
            for &x in g {
                local.push(x);
            }
            folded.merge(&local);
        }
        let mut again = Streaming::new();
        for g in &groups {
            let mut local = Streaming::new();
            for &x in g {
                local.push(x);
            }
            again.merge(&local);
        }
        assert_eq!(folded, again);
        assert_eq!(folded.render(), again.render());
        assert_eq!(folded.count, 6);
        assert_eq!(folded.min, 0.25);
        assert_eq!(folded.max, 8.0);
    }

    #[test]
    fn streaming_merge_empty_sides() {
        let mut a = Streaming::new();
        let mut b = Streaming::new();
        b.push(5.0);
        a.merge(&b);
        assert_eq!(a, b);
        let empty = Streaming::new();
        a.merge(&empty);
        assert_eq!(a, b);
    }

    #[test]
    fn histogram_buckets_and_edges() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(-0.1); // underflow
        h.record(0.0); // bucket 0
        h.record(1.9); // bucket 0
        h.record(2.0); // bucket 1
        h.record(9.99); // bucket 4
        h.record(10.0); // overflow
        assert_eq!(h.counts(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn histogram_merge_is_order_independent() {
        let mut a = Histogram::new(0.0, 4.0, 4);
        let mut b = Histogram::new(0.0, 4.0, 4);
        a.record(0.5);
        a.record(3.5);
        b.record(1.5);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.render(), ba.render());
    }

    #[test]
    #[should_panic(expected = "different bucket configurations")]
    fn histogram_merge_rejects_mismatch() {
        let mut a = Histogram::new(0.0, 4.0, 4);
        let b = Histogram::new(0.0, 8.0, 4);
        a.merge(&b);
    }
}
