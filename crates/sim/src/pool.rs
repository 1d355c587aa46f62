//! Real parallel execution for the transplant hot paths.
//!
//! The paper's §4.2.5 "Parallelization" optimization translates each VM's
//! state on a separate thread. [`crate::makespan`] *models* that speedup in
//! simulated time (LPT makespan); this module is its wall-clock
//! counterpart: a scoped worker pool over [`std::thread::scope`] that runs
//! a batch of independent tasks across the machine's hardware threads and
//! returns results **in deterministic input order** regardless of worker
//! count or OS scheduling.
//!
//! Properties:
//!
//! * **Deterministic output.** Task `i`'s result is always at index `i` of
//!   [`Batch::results`]; serial and parallel runs of pure tasks are
//!   byte-identical.
//! * **Load-balanced.** Workers claim tasks from a shared atomic cursor
//!   (dynamic self-scheduling), which approximates the LPT bound the cost
//!   model predicts without needing task durations up front.
//! * **No dependencies.** Only `std`: scoped threads, one atomic, one
//!   mutex per task slot (each slot is locked exactly once, uncontended).
//! * **Measured makespan.** [`Batch::makespan`] is the wall-clock time of
//!   the whole batch, so tests can check real scaling against the
//!   [`crate::par::makespan`] model.
//!
//! Worker count resolution (see [`WorkerPool::from_env`]): the
//! `HYPERTP_WORKERS` environment variable if set and ≥ 1, otherwise
//! [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Environment variable overriding the default worker count.
pub const WORKERS_ENV: &str = "HYPERTP_WORKERS";

/// The result of running a batch of tasks on a [`WorkerPool`].
#[derive(Debug)]
pub struct Batch<T> {
    /// One result per input task, in input order.
    pub results: Vec<T>,
    /// Wall-clock duration of the whole batch.
    pub makespan: Duration,
    /// Number of worker threads actually used (`min(workers, tasks)`,
    /// the calling thread included).
    pub workers: usize,
}

/// A scoped worker pool executing batches of closures on OS threads.
///
/// The pool is a *policy* object (it holds only the worker count); threads
/// are spawned per batch with [`std::thread::scope`], so borrowed data can
/// be captured by tasks without `'static` bounds and no threads linger
/// between batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A pool with an explicit worker count (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.max(1),
        }
    }

    /// A single-threaded pool: tasks run inline on the calling thread.
    pub fn serial() -> Self {
        WorkerPool { workers: 1 }
    }

    /// The default pool: `HYPERTP_WORKERS` if set (and ≥ 1), otherwise the
    /// machine's available parallelism.
    pub fn from_env() -> Self {
        let workers = std::env::var(WORKERS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        WorkerPool { workers }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs a batch of heterogeneous tasks, returning results in input
    /// order plus the measured makespan.
    ///
    /// With one worker (or one task) everything runs inline on the calling
    /// thread — no threads are spawned, so `HYPERTP_WORKERS=1` is a true
    /// serial baseline. Otherwise the calling thread claims tasks alongside
    /// `workers − 1` spawned ones.
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Batch<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = tasks.len();
        let start = Instant::now();
        let workers = self.workers.min(n.max(1));
        if workers <= 1 || n <= 1 {
            let results: Vec<T> = tasks.into_iter().map(|f| f()).collect();
            return Batch {
                results,
                makespan: start.elapsed(),
                workers: 1,
            };
        }

        // Each slot is taken exactly once by whichever worker claims its
        // index from the shared cursor; the Mutex is never contended.
        let slots: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|f| Mutex::new(Some(f))).collect();
        let cursor = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));

        let work = || {
            let mut local: Vec<(usize, T)> = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let task = slots[i]
                    .lock()
                    .expect("pool slot poisoned")
                    .take()
                    .expect("pool slot claimed twice");
                local.push((i, task()));
            }
            collected
                .lock()
                .expect("pool result vector poisoned")
                .extend(local);
        };
        // The calling thread is one of the workers: it would otherwise
        // sit parked in the scope until the batch is done.
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });

        let mut pairs = collected.into_inner().expect("pool result vector poisoned");
        pairs.sort_unstable_by_key(|&(i, _)| i);
        debug_assert_eq!(pairs.len(), n);
        Batch {
            results: pairs.into_iter().map(|(_, t)| t).collect(),
            makespan: start.elapsed(),
            workers,
        }
    }

    /// Maps a shared function over owned items on the pool. Sugar over
    /// [`WorkerPool::run`] for the common homogeneous-batch case.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Batch<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let fref = &f;
        self.run(
            items
                .into_iter()
                .map(|item| move || fref(item))
                .collect::<Vec<_>>(),
        )
    }

    /// Maps a shared function over the indices `0..n`. Useful when tasks
    /// borrow everything they need from the environment.
    pub fn map_indices<T, F>(&self, n: usize, f: F) -> Batch<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let fref = &f;
        self.run((0..n).map(|i| move || fref(i)).collect::<Vec<_>>())
    }

    /// Like [`WorkerPool::map_indices`], but the workers assigned the
    /// `doomed` indices "die" mid-task: their results are lost in the
    /// parallel phase. The orchestrator detects each missing slot and
    /// re-runs that task inline on the calling thread — the
    /// ReHype-style recovery the chaos suite exercises via
    /// `InjectionPoint::WorkerPanic`.
    ///
    /// `doomed` indices are decided by the caller *before* dispatch (see
    /// `fault::FaultPlan::pick_doomed_tasks`) so log order stays
    /// deterministic. Out-of-range indices are ignored. Returns the batch
    /// (complete, in input order) plus the indices that were retried
    /// inline, in ascending order.
    pub fn map_indices_recovering<T, F>(
        &self,
        n: usize,
        doomed: &[usize],
        f: F,
    ) -> (Batch<T>, Vec<usize>)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let fref = &f;
        let start = Instant::now();
        let mut batch = self.run(
            (0..n)
                .map(|i| {
                    let dead = doomed.contains(&i);
                    move || if dead { None } else { Some(fref(i)) }
                })
                .collect::<Vec<_>>(),
        );
        // Orchestrator-side recovery: any lost slot is recomputed inline.
        let mut retried = Vec::new();
        let results: Vec<T> = batch
            .results
            .drain(..)
            .enumerate()
            .map(|(i, slot)| match slot {
                Some(t) => t,
                None => {
                    retried.push(i);
                    fref(i)
                }
            })
            .collect();
        (
            Batch {
                results,
                makespan: start.elapsed(),
                workers: batch.workers,
            },
            retried,
        )
    }

    /// Splits `0..n` into `chunks` contiguous, near-equal ranges and maps
    /// `f` over them on the pool, returning results **in chunk order**.
    ///
    /// The chunking is a pure function of `(n, chunks)` — the first
    /// `n % chunks` ranges get one extra element — so the decomposition
    /// (and therefore any chunk-local accumulation) is identical for every
    /// worker count. This is the sharding primitive of the campaign
    /// engine: each range is one deterministic host/group shard.
    ///
    /// `chunks` is clamped to `1..=n` (0 tasks ⇒ no calls).
    pub fn map_chunks<T, F>(&self, n: usize, chunks: usize, f: F) -> Batch<T>
    where
        T: Send,
        F: Fn(std::ops::Range<usize>) -> T + Sync,
    {
        let fref = &f;
        self.run(
            chunk_ranges(n, chunks)
                .into_iter()
                .map(|r| move || fref(r))
                .collect::<Vec<_>>(),
        )
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::from_env()
    }
}

/// The contiguous near-equal decomposition behind
/// [`WorkerPool::map_chunks`]: `chunks` ranges covering `0..n` in order,
/// the first `n % chunks` one element longer. Empty when `n == 0`.
pub fn chunk_ranges(n: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, n);
    let base = n / chunks;
    let extra = n % chunks;
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < extra);
        ranges.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn results_in_input_order_any_worker_count() {
        let inputs: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = inputs.iter().map(|x| x.wrapping_mul(0x9e37)).collect();
        for workers in [1, 2, 3, 4, 8, 16, 64, 200] {
            let pool = WorkerPool::new(workers);
            let batch = pool.map(inputs.clone(), |x| x.wrapping_mul(0x9e37));
            assert_eq!(batch.results, expected, "workers={workers}");
            assert!(batch.workers <= workers.max(1));
        }
    }

    #[test]
    fn deterministic_with_jittered_task_durations() {
        // Tasks finish out of order on purpose; results must not.
        let mut rng = SimRng::new(0xabcd);
        let delays: Vec<u64> = (0..32).map(|_| rng.gen_range(400)).collect();
        let pool = WorkerPool::new(8);
        let batch = pool.map(delays.clone(), |d| {
            std::thread::sleep(Duration::from_micros(d));
            d
        });
        assert_eq!(batch.results, delays);
    }

    #[test]
    fn empty_batch_is_fine() {
        let pool = WorkerPool::new(4);
        let batch: Batch<u32> = pool.run(Vec::<fn() -> u32>::new());
        assert!(batch.results.is_empty());
        assert_eq!(batch.workers, 1);
    }

    #[test]
    fn serial_pool_spawns_no_threads() {
        // Tasks observing their thread id should all see the caller's.
        let caller = std::thread::current().id();
        let pool = WorkerPool::serial();
        let batch = pool.map_indices(16, |_| std::thread::current().id());
        assert!(batch.results.iter().all(|&id| id == caller));
    }

    #[test]
    fn parallel_pool_uses_multiple_threads() {
        if std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            < 2
        {
            return; // single-core CI runner; nothing to assert
        }
        let pool = WorkerPool::new(4);
        let batch = pool.map_indices(64, |_| {
            std::thread::sleep(Duration::from_millis(1));
            std::thread::current().id()
        });
        // ThreadId is not Ord on stable; dedup via Debug strings.
        let mut ids: Vec<String> = batch.results.iter().map(|id| format!("{id:?}")).collect();
        ids.sort();
        ids.dedup();
        assert!(ids.len() > 1, "expected multiple worker threads");
    }

    #[test]
    fn calling_thread_is_one_of_the_workers() {
        // No task returns before both have started, so each runs on a
        // thread of its own — and one of the two must be the caller.
        let caller = std::thread::current().id();
        let barrier = std::sync::Barrier::new(2);
        let batch = WorkerPool::new(2).map_indices(2, |_| {
            barrier.wait();
            std::thread::current().id()
        });
        assert_eq!(batch.workers, 2);
        assert_ne!(batch.results[0], batch.results[1]);
        assert!(batch.results.contains(&caller));
    }

    #[test]
    fn tasks_can_borrow_environment() {
        let data: Vec<u64> = (0..1000).collect();
        let pool = WorkerPool::new(4);
        let batch = pool.map_indices(10, |i| data[i * 100]);
        assert_eq!(
            batch.results,
            vec![0, 100, 200, 300, 400, 500, 600, 700, 800, 900]
        );
    }

    #[test]
    fn workers_clamped_to_at_least_one() {
        assert_eq!(WorkerPool::new(0).workers(), 1);
    }

    #[test]
    fn recovering_map_rebuilds_lost_results() {
        let expected: Vec<u64> = (0..40).map(|i: u64| i * 3).collect();
        for workers in [1, 4, 16] {
            let pool = WorkerPool::new(workers);
            let doomed = vec![0, 7, 39];
            let (batch, retried) = pool.map_indices_recovering(40, &doomed, |i| (i as u64) * 3);
            assert_eq!(batch.results, expected, "workers={workers}");
            assert_eq!(retried, doomed, "workers={workers}");
        }
    }

    #[test]
    fn recovering_map_with_no_doomed_matches_plain_map() {
        let pool = WorkerPool::new(4);
        let plain = pool.map_indices(25, |i| i * i);
        let (rec, retried) = pool.map_indices_recovering(25, &[], |i| i * i);
        assert_eq!(plain.results, rec.results);
        assert!(retried.is_empty());
    }

    #[test]
    fn recovering_map_ignores_out_of_range_doomed() {
        let pool = WorkerPool::new(2);
        let (batch, retried) = pool.map_indices_recovering(5, &[3, 99], |i| i + 1);
        assert_eq!(batch.results, vec![1, 2, 3, 4, 5]);
        assert_eq!(retried, vec![3]);
    }

    #[test]
    fn chunk_ranges_cover_exactly_in_order() {
        for n in [0usize, 1, 2, 7, 16, 100] {
            for chunks in [1usize, 2, 3, 5, 16, 99] {
                let ranges = chunk_ranges(n, chunks);
                let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "n={n} chunks={chunks}");
                if n > 0 {
                    assert_eq!(ranges.len(), chunks.clamp(1, n));
                    let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                    assert!(hi - lo <= 1, "n={n} chunks={chunks} lens={lens:?}");
                }
            }
        }
    }

    #[test]
    fn map_chunks_deterministic_across_worker_counts() {
        let expected: Vec<Vec<usize>> = chunk_ranges(37, 5)
            .into_iter()
            .map(|r| r.collect())
            .collect();
        for workers in [1, 2, 4, 16] {
            let pool = WorkerPool::new(workers);
            let batch = pool.map_chunks(37, 5, |r| r.collect::<Vec<usize>>());
            assert_eq!(batch.results, expected, "workers={workers}");
        }
    }

    #[test]
    fn map_chunks_handles_degenerate_shapes() {
        let pool = WorkerPool::new(3);
        assert!(pool.map_chunks(0, 4, |r| r.len()).results.is_empty());
        // More chunks than items: clamped to one item per chunk.
        assert_eq!(pool.map_chunks(3, 10, |r| r.len()).results, vec![1, 1, 1]);
        assert_eq!(pool.map_chunks(5, 0, |r| r.len()).results, vec![5]);
    }

    #[test]
    fn real_scaling_consistent_with_lpt_model() {
        // Real makespan with W workers should not exceed the serial time;
        // we only assert the weak direction to stay robust on loaded CI.
        let n = 16usize;
        let work = |_: usize| {
            // ~1 ms of spinning, deterministic.
            let mut acc = 0u64;
            for i in 0..200_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        };
        let serial = WorkerPool::serial().map_indices(n, work);
        let par = WorkerPool::from_env().map_indices(n, work);
        assert_eq!(serial.results, par.results);
        if par.workers >= 4 {
            // Generous bound: parallel should beat serial clearly.
            assert!(
                par.makespan < serial.makespan,
                "parallel {:?} not faster than serial {:?}",
                par.makespan,
                serial.makespan
            );
        }
    }
}
