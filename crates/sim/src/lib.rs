//! Deterministic simulation kernel for the HyperTP reproduction.
//!
//! The original HyperTP artifact measures wall-clock time on bare-metal
//! servers. This reproduction replaces the hardware with a deterministic
//! discrete-event simulation: every operation performed by the hypervisor
//! models, the PRAM encoder, the transplant engine and the migration engine
//! reports its cost to a [`clock::SimClock`], and experiments read elapsed
//! simulated time instead of wall-clock time.
//!
//! The crate provides:
//!
//! * [`time`] — nanosecond-resolution simulated instants and durations.
//! * [`clock`] — a shareable monotonic simulated clock.
//! * [`rng`] — a small deterministic random number generator (SplitMix64)
//!   so experiments are reproducible without external crates.
//! * [`makespan`] — a model of parallel work execution (LPT makespan) used to
//!   simulate the worker pools of the paper's "Parallelization" optimization,
//!   over [`Slots`], the one k-slot calendar that the fleet's migration
//!   streams and the rolling upgrade's group drains also take slots from.
//! * [`cost`] — the calibrated cost model mapping operations to simulated
//!   time (constants documented against the paper's reported numbers).
//! * [`series`] — time-series recording for workload metrics (QPS, latency).
//! * [`stats`] — summary statistics (mean, stddev, percentiles, box plots).
//! * [`json`] — a dependency-free JSON encoder/decoder used for the UISR
//!   debug codec and experiment output files.
//! * [`pool`] — a real scoped worker pool executing batches of closures on
//!   OS threads; the wall-clock counterpart of the [`makespan`] model.
//! * [`fault`] — seeded deterministic fault injection ([`fault::FaultPlan`])
//!   with a structured [`fault::FaultLog`], used by the chaos test matrix
//!   to exercise every recovery path in the transplant stack.
//! * [`hash`] — 128-bit page-content fingerprints ([`hash::Digest128`])
//!   built from two independent word-at-a-time FNV-1a lanes; keys the
//!   migration wire path's destination-synchronised dedup cache.

pub mod clock;
pub mod cost;
pub mod ewma;
pub mod fault;
pub mod hash;
pub mod json;
mod par;
pub mod pool;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use clock::SimClock;
pub use cost::CostModel;
pub use ewma::Ewma;
pub use fault::{FaultEvent, FaultLog, FaultPlan, InjectionPoint, RecoveryAction};
pub use hash::{digest_bytes, digest_pages_into, digest_words, Digest128};
pub use json::Json;
pub use par::{makespan, Slots};
pub use pool::WorkerPool;
pub use rng::SimRng;
pub use series::TimeSeries;
pub use time::{SimDuration, SimTime};
