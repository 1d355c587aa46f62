//! A shareable, monotonic simulated clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::time::{SimDuration, SimTime};

/// A monotonic simulated clock shared between the machine, the hypervisor
/// models and the transplant engine.
///
/// The clock only moves forward when a component reports the cost of an
/// operation via [`SimClock::advance`]. Cloning a `SimClock` produces a
/// handle to the same underlying instant, which is how a machine and the
/// engine driving it observe a common notion of time.
///
/// # Examples
///
/// ```
/// use hypertp_sim::{SimClock, SimDuration};
///
/// let clock = SimClock::new();
/// let handle = clock.clone();
/// clock.advance(SimDuration::from_millis(250));
/// assert_eq!(handle.now().as_nanos(), 250_000_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now_ns: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock starting at the simulation epoch.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Returns the current simulated instant.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_ns.load(Ordering::SeqCst))
    }

    /// Advances the clock by `d` and returns the new instant.
    pub fn advance(&self, d: SimDuration) -> SimTime {
        let prev = self.now_ns.fetch_add(d.as_nanos(), Ordering::SeqCst);
        SimTime::from_nanos(prev + d.as_nanos())
    }

    /// Advances the clock to `t` if `t` is in the future; otherwise leaves
    /// the clock unchanged. Returns the (possibly unchanged) current instant.
    pub fn advance_to(&self, t: SimTime) -> SimTime {
        let target = t.as_nanos();
        let cur = self.now_ns.fetch_max(target, Ordering::SeqCst);
        SimTime::from_nanos(cur.max(target))
    }

    /// Runs `f` and returns its result together with the simulated time the
    /// clock advanced while `f` ran.
    pub fn measure<T>(&self, f: impl FnOnce() -> T) -> (T, SimDuration) {
        let start = self.now();
        let out = f();
        (out, self.now().duration_since(start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SimClock {
        /// True if both handles reference the same underlying clock.
        fn same_clock(&self, other: &SimClock) -> bool {
            Arc::ptr_eq(&self.now_ns, &other.now_ns)
        }
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(SimDuration::from_secs(1));
        assert_eq!(b.now(), SimTime::from_nanos(1_000_000_000));
        assert!(a.same_clock(&b));
        assert!(!a.same_clock(&SimClock::new()));
    }

    #[test]
    fn advance_to_is_monotonic() {
        let c = SimClock::new();
        c.advance_to(SimTime::from_nanos(100));
        assert_eq!(c.now().as_nanos(), 100);
        // Moving "backwards" is a no-op.
        c.advance_to(SimTime::from_nanos(50));
        assert_eq!(c.now().as_nanos(), 100);
    }

    #[test]
    fn measure_captures_elapsed() {
        let c = SimClock::new();
        let (v, d) = c.measure(|| {
            c.advance(SimDuration::from_millis(10));
            42
        });
        assert_eq!(v, 42);
        assert_eq!(d, SimDuration::from_millis(10));
    }
}
