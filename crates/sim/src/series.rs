//! Time-series recording for workload metrics.
//!
//! The application-impact experiments (Figs. 11 and 12) plot a metric (QPS,
//! latency) sampled once per second against the simulated clock, with the
//! transplant event somewhere in the middle. [`TimeSeries`] is the recording
//! half; rendering is left to the experiment binaries.

use crate::time::{SimDuration, SimTime};

/// A named series of `(time, value)` samples in simulated time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    name: String,
    samples: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            samples: Vec::new(),
        }
    }

    /// Returns the series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the previous sample's time.
    pub fn push(&mut self, t: SimTime, value: f64) {
        if let Some(&(last, _)) = self.samples.last() {
            assert!(t >= last, "samples must be pushed in time order");
        }
        self.samples.push((t, value));
    }

    /// Returns all samples.
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// Returns the number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns true if the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Returns the mean value over samples in `[from, to)`, or `None` if the
    /// window contains no samples.
    pub fn mean_in(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let vals: Vec<f64> = self
            .samples
            .iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .map(|&(_, v)| v)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Returns the longest contiguous run of samples with `value <= thresh`,
    /// as a duration between the first and last sample of the run.
    ///
    /// This is how the experiments measure a workload's observed service
    /// interruption: Redis QPS dropping to zero during InPlaceTP, for
    /// example.
    pub fn longest_run_below(&self, thresh: f64) -> SimDuration {
        let mut best = SimDuration::ZERO;
        let mut run_start: Option<SimTime> = None;
        let mut run_end: Option<SimTime> = None;
        for &(t, v) in &self.samples {
            if v <= thresh {
                if run_start.is_none() {
                    run_start = Some(t);
                }
                run_end = Some(t);
            } else {
                if let (Some(s), Some(e)) = (run_start, run_end) {
                    best = best.max(e.saturating_duration_since(s));
                }
                run_start = None;
                run_end = None;
            }
        }
        if let (Some(s), Some(e)) = (run_start, run_end) {
            best = best.max(e.saturating_duration_since(s));
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_nanos(s * 1_000_000_000)
    }

    #[test]
    fn push_and_query() {
        let mut s = TimeSeries::new("qps");
        s.push(t(0), 10.0);
        s.push(t(1), 20.0);
        s.push(t(2), 30.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.name(), "qps");
        assert_eq!(s.mean_in(t(0), t(2)), Some(15.0));
        assert_eq!(s.mean_in(t(5), t(9)), None);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_push_panics() {
        let mut s = TimeSeries::new("x");
        s.push(t(2), 1.0);
        s.push(t(1), 1.0);
    }

    #[test]
    fn longest_run_below_finds_gap() {
        let mut s = TimeSeries::new("qps");
        for i in 0..10 {
            let v = if (3..=5).contains(&i) { 0.0 } else { 100.0 };
            s.push(t(i), v);
        }
        assert_eq!(s.longest_run_below(0.5), SimDuration::from_secs(2));
    }

    #[test]
    fn longest_run_below_at_tail() {
        let mut s = TimeSeries::new("qps");
        s.push(t(0), 5.0);
        s.push(t(1), 0.0);
        s.push(t(4), 0.0);
        assert_eq!(s.longest_run_below(0.5), SimDuration::from_secs(3));
    }
}
