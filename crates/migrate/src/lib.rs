//! MigrationTP: live-migration-based hypervisor transplant (§3.3, §4.3).
//!
//! MigrationTP follows a normal pre-copy live migration — a copy loop while
//! the VM runs, then a stop-and-copy — with one addition: *proxies* on both
//! machines translate the VM's VMi State through UISR, so the destination
//! can run a different hypervisor. Guest pages are not translated (they are
//! hypervisor-independent), and PRAM is unnecessary because memory maps are
//! implicitly rebuilt on the destination (§4.3).
//!
//! * [`network`] — the link model carrying pages and UISR blobs, plus the
//!   frame kinds ([`network::FrameKind`]) and per-kind accounting
//!   ([`network::WireStats`]) of the content-aware path.
//! * [`wire`] — the XOR+RLE delta codec and the destination-synchronised
//!   [`wire::TransferCache`] (zero elision, cross-round/cross-VM dedup,
//!   transactional rollback under link faults).
//! * [`engine`] — [`engine::MigrationTp`]: single-VM migration, plus
//!   [`engine::migrate_many`] reproducing the multi-VM behaviour of §5.2.2
//!   (parallel sends sharing the link, with Xen's sequential receive side
//!   producing high downtime variance while kvmtool's stays constant) and
//!   [`engine::migrate_fleet`], its convergence-aware generalisation
//!   (bounded concurrency, predicted-downtime admission ordering).
//! * [`control`] — the adaptive pre-copy control plane (PR 4):
//!   [`control::PrecopyController`] with per-round EWMA estimators,
//!   downtime budgets and auto-converge throttling, plus the fleet
//!   scheduler vocabulary ([`control::FleetPolicy`],
//!   [`control::predict_migration`]).
//! * [`framing`] — the serialized wire format, the only form a frame
//!   takes: [`framing::FrameRing`], the engine-owned reusable encode
//!   buffer (begin/commit/rollback watermarks in lockstep with the
//!   [`wire::TransferCache`] journal), and [`framing::FrameView`], the
//!   zero-copy parse of one frame.
//! * [`transport`] — the pluggable byte transport: the deterministic
//!   in-process pair used by tests and the engine-equivalence harness, and
//!   a length-prefixed Unix-domain-socket backend for real two-process
//!   runs.
//! * [`proxy`] — the §4.2 source/destination proxy pair speaking the
//!   framed protocol over any [`transport::Transport`]. The source half is
//!   the engine's own pre-copy driver landing the VM remotely, so the
//!   pair is byte-identical to the in-process engine in fault-free runs.

pub mod control;
pub mod engine;
pub mod framing;
pub mod network;
pub mod proxy;
pub mod transport;
pub mod wire;

pub use control::{
    predict_migration, FleetOrder, FleetPolicy, FleetVm, LinkContention, MigrationPrediction,
    PrecopyController, PredictInput, SloVm, TrafficCurve, VmSloOutcome, UISR_BYTES_ALLOWANCE,
};
pub use engine::{
    migrate_fleet, migrate_many, EngineScratch, FleetReport, MigrationConfig, MigrationReport,
    MigrationTp, RoundStats, ScratchStats, WireMode,
};
pub use framing::{FrameIter, FrameRing, FrameView};
pub use network::{FrameKind, Link, WireStats};
pub use proxy::{
    guest_checksum, run_dest, run_source, vm_checksum, DestProxy, DestReport, ProxyReport,
};
pub use transport::{
    InProcTransport, Transport, TransportError, UdsServerTransport, UdsTransport, MAX_FRAME_BYTES,
};
pub use wire::{CacheStats, TransferCache, DEFAULT_CACHE_CAPACITY};
