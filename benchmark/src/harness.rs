//! What a workload sees of the run protocol.
//!
//! A [`Scenario`] performs one iteration at a time and tells the
//! [`Iteration`] where its phases begin and end:
//!
//! ```text
//! it.build(..)      timed   build_i   one fresh world
//! (snapshot)        untimed           whatever verification needs from the pre-op state
//! it.op(..)         timed   op_i      the op, plus process CPU — between two
//!                           ref_i     runs of the calibration kernel
//! (verify)          untimed           -> Outcome
//! it.staged(..)     traced runs only: the per-layer replay on a second
//!                                     world, between two kernel runs of its own
//! (drop)            untimed           worlds go out of scope when iterate() returns
//! ```
//!
//! `ref_i` is the *faster* of the kernel runs before and after: contention
//! only ever adds time, so the smaller one is the better reading of how
//! fast the box was around the op.
//!
//! Control is inverted (the scenario calls the harness, not the other way
//! round) so a world can live on the scenario's stack and borrow from
//! itself — `ExposurePlanner` borrows the fleet view it was built over.

use std::time::Instant;

use crate::calibrate::Calibrator;
use crate::proc::process_cpu_ns;
use crate::trace::Trace;

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Root span of the world build.
pub const SPAN_BUILD: &str = "bench.build";
/// Root span of the whole op.
pub const SPAN_OP: &str = "bench.op";
/// Root span of the staged replay.
pub const SPAN_STAGED: &str = "bench.staged";

/// What one verified op produced: the four simulated end-to-end metrics
/// plus a digest of everything else that must repeat (guest checksums,
/// rendered reports). Every op of a run gets the same inputs, so every
/// op's `Outcome` must equal op 0's; a mismatch is a failed op.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Simulated seconds from start of remediation until every VM runs on
    /// the target.
    pub sim_window_s: f64,
    /// Simulated VM blackout, milliseconds.
    pub sim_downtime_ms: f64,
    /// Bytes that crossed the link or the reboot.
    pub wire_bytes: f64,
    /// The vulnerability-window integral, VM-days.
    pub sim_exposure_vm_days: f64,
    pub digest: u64,
}

impl Outcome {
    /// The four simulated end-to-end metrics under their declared names.
    pub fn simulated(&self) -> [(&'static str, f64); 4] {
        [
            ("sim_window_s", self.sim_window_s),
            ("sim_downtime_ms", self.sim_downtime_ms),
            ("wire_bytes", self.wire_bytes),
            ("sim_exposure_vm_days", self.sim_exposure_vm_days),
        ]
    }
}

pub trait Scenario {
    /// Runs one iteration of the protocol above.
    fn iterate(&mut self, it: &mut Iteration<'_>) -> Res<Outcome>;
}

/// Host-time samples of one iteration, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    pub build_ns: f64,
    /// The faster of the kernel runs either side of the op.
    pub ref_ns: f64,
    pub op_ns: f64,
    pub op_cpu_ns: f64,
    /// The faster of the kernel runs either side of the staged replay.
    pub staged_ref_ns: f64,
}

pub struct Iteration<'a> {
    trace: &'a mut Trace,
    /// `None` runs the protocol without the calibration kernel (warm-up
    /// ops and `--check`, where nothing is timed).
    cal: Option<&'a mut Calibrator>,
    pub timing: Timing,
}

impl<'a> Iteration<'a> {
    pub fn new(trace: &'a mut Trace, cal: Option<&'a mut Calibrator>) -> Iteration<'a> {
        Iteration {
            trace,
            cal,
            timing: Timing::default(),
        }
    }

    /// Whether spans and counts are being recorded — scenarios skip the
    /// second world and the staged replay when they are not.
    pub fn tracing(&self) -> bool {
        self.trace.enabled()
    }

    /// The trace, for counts read off a report between phases.
    pub fn trace(&mut self) -> &mut Trace {
        self.trace
    }

    /// Times `f` as (part of) the world build. May be called more than
    /// once per iteration; the parts add up.
    pub fn build<W>(&mut self, f: impl FnOnce(&mut Trace) -> Res<W>) -> Res<W> {
        let start = Instant::now();
        let world = self.trace.span(SPAN_BUILD, f);
        self.timing.build_ns += start.elapsed().as_nanos() as f64;
        world
    }

    /// One timed run of the calibration kernel.
    fn reference(&mut self) -> f64 {
        match self.cal.as_deref_mut() {
            Some(cal) => {
                let start = Instant::now();
                cal.run();
                start.elapsed().as_nanos() as f64
            }
            None => 0.0,
        }
    }

    /// Times `f` as the op.
    pub fn op<R>(&mut self, f: impl FnOnce(&mut Trace) -> Res<R>) -> Res<R> {
        let before = self.reference();
        let cpu = process_cpu_ns();
        let start = Instant::now();
        let out = self.trace.span(SPAN_OP, f);
        self.timing.op_ns = start.elapsed().as_nanos() as f64;
        self.timing.op_cpu_ns = (process_cpu_ns() - cpu) as f64;
        self.timing.ref_ns = before.min(self.reference());
        out
    }

    /// Runs `f` as the staged replay.
    pub fn staged<R>(&mut self, f: impl FnOnce(&mut Trace) -> Res<R>) -> Res<R> {
        let before = self.reference();
        let out = self.trace.span(SPAN_STAGED, f);
        self.timing.staged_ref_ns = before.min(self.reference());
        out
    }
}
