//! A model of parallel work execution.
//!
//! The paper's §4.2.5 "Parallelization" optimization translates each VM's
//! state on a separate thread. On the simulated machine we model the elapsed
//! time of such a pool as the makespan of a longest-processing-time (LPT)
//! greedy schedule over the available worker cores: each task is assigned to
//! the currently least-loaded worker, in decreasing task-size order. LPT is
//! within 4/3 of the optimal makespan and matches how a work-stealing pool
//! behaves on coarse tasks, which is what the prototype uses.
//!
//! [`Slots`] is the calendar under that schedule and under the other k-way
//! drains: §5.2.2's shared-link migration streams and Fig. 13's capped
//! group drains take their slots from it too.

use crate::time::SimDuration;

/// `k` identical slots on one calendar, all free at time zero: each item
/// takes the slot that frees first, the lowest-numbered among equally
/// early ones, so a schedule never depends on how `min` breaks ties.
///
/// ```
/// use hypertp_sim::{SimDuration, Slots};
///
/// let mut slots = Slots::new(2);
/// assert_eq!(slots.take(SimDuration::from_secs(3)), SimDuration::ZERO);
/// assert_eq!(slots.take(SimDuration::from_secs(1)), SimDuration::ZERO);
/// assert_eq!(slots.next_free(), SimDuration::from_secs(1));
/// ```
#[derive(Debug)]
pub struct Slots {
    free: Vec<SimDuration>,
}

impl Slots {
    /// `k` slots, all free at time zero.
    pub fn new(k: usize) -> Slots {
        Slots {
            free: vec![SimDuration::ZERO; k],
        }
    }

    /// The instant the next item starts: when the first slot frees.
    /// Panics if there are no slots.
    pub fn next_free(&self) -> SimDuration {
        self.free.iter().copied().min().expect("at least one slot")
    }

    /// Keeps the first slot to free busy for `busy` and returns the
    /// instant it starts. Panics if there are no slots.
    pub fn take(&mut self, busy: SimDuration) -> SimDuration {
        let slot = (0..self.free.len())
            .min_by_key(|&s| (self.free[s], s))
            .expect("at least one slot");
        let start = self.free[slot];
        self.free[slot] = start + busy;
        start
    }
}

/// Computes the elapsed (makespan) time of running `tasks` on `workers`
/// parallel workers using an LPT greedy schedule.
///
/// With a single worker this degenerates to the sum of all task durations;
/// with at least as many workers as tasks it is the maximum task duration.
///
/// # Panics
///
/// Panics if `workers` is zero.
///
/// # Examples
///
/// ```
/// use hypertp_sim::{makespan, SimDuration};
///
/// let tasks = vec![SimDuration::from_secs(3), SimDuration::from_secs(1)];
/// assert_eq!(makespan(&tasks, 1), SimDuration::from_secs(4));
/// assert_eq!(makespan(&tasks, 2), SimDuration::from_secs(3));
/// ```
pub fn makespan(tasks: &[SimDuration], workers: usize) -> SimDuration {
    lpt_loads(tasks, workers)
        .into_iter()
        .max()
        .unwrap_or(SimDuration::ZERO)
}

/// Computes the per-worker loads of the LPT schedule used by [`makespan`],
/// in worker order: each task, largest first, takes the least-loaded
/// worker on a [`Slots`] calendar, the lowest-numbered among equals.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub(crate) fn lpt_loads(tasks: &[SimDuration], workers: usize) -> Vec<SimDuration> {
    assert!(workers > 0, "makespan requires at least one worker");
    if tasks.is_empty() {
        return Vec::new();
    }
    let mut sorted: Vec<SimDuration> = tasks.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut slots = Slots::new(workers.min(sorted.len()));
    for t in sorted {
        slots.take(t);
    }
    slots.free
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(xs: &[u64]) -> Vec<SimDuration> {
        xs.iter().copied().map(SimDuration::from_secs).collect()
    }

    #[test]
    fn single_worker_sums() {
        assert_eq!(makespan(&secs(&[1, 2, 3]), 1), SimDuration::from_secs(6));
    }

    #[test]
    fn many_workers_take_max() {
        assert_eq!(makespan(&secs(&[1, 2, 3]), 8), SimDuration::from_secs(3));
    }

    #[test]
    fn lpt_balances() {
        // Tasks 4,3,3,2 on 2 workers: LPT gives {4,2} and {3,3} -> 6.
        assert_eq!(makespan(&secs(&[4, 3, 3, 2]), 2), SimDuration::from_secs(6));
    }

    #[test]
    fn empty_tasks_zero() {
        assert_eq!(makespan(&[], 4), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        makespan(&secs(&[1]), 0);
    }

    #[test]
    fn makespan_never_below_max_or_average() {
        let tasks = secs(&[5, 1, 1, 1, 1, 1]);
        for w in 1..=8 {
            let m = makespan(&tasks, w);
            assert!(m >= SimDuration::from_secs(5));
            let total = SimDuration::from_secs(10);
            assert!(m.as_secs_f64() >= total.as_secs_f64() / w as f64 - 1e-9);
        }
    }

    #[test]
    fn lpt_ties_go_to_the_lowest_numbered_worker() {
        // Regression: with `Iterator::min`'s last-wins tie-break, [3,1,1]
        // on three idle workers scheduled as [1,1,3]; the documented
        // schedule fills from worker 0: [3,1,1].
        assert_eq!(
            lpt_loads(&secs(&[3, 1, 1]), 3),
            secs(&[3, 1, 1]),
            "largest task lands on worker 0, ties fill upward"
        );
        // A longer all-equal stream round-robins from worker 0 upward.
        assert_eq!(
            lpt_loads(&secs(&[1, 1, 1, 1, 1]), 3),
            vec![
                SimDuration::from_secs(2),
                SimDuration::from_secs(2),
                SimDuration::from_secs(1)
            ],
        );
        // The makespan value itself is unchanged by the tie-break.
        assert_eq!(makespan(&secs(&[3, 1, 1]), 3), SimDuration::from_secs(3));
    }

    #[test]
    fn lpt_loads_sum_to_total_and_match_makespan() {
        let tasks = secs(&[7, 3, 3, 2, 1, 1]);
        for w in 1..=8 {
            let loads = lpt_loads(&tasks, w);
            assert!(loads.len() <= w);
            let sum: SimDuration = loads.iter().copied().sum();
            assert_eq!(sum, SimDuration::from_secs(17));
            assert_eq!(loads.iter().copied().max(), Some(makespan(&tasks, w)));
        }
    }
}
