//! HyperTP core: the hypervisor transplant framework.
//!
//! This crate implements the paper's primary contribution — a unified
//! framework for replacing the running hypervisor with a different one
//! during a vulnerability window (§3):
//!
//! * [`hypervisor`] — the [`Hypervisor`] trait every HyperTP-compliant
//!   hypervisor implements: VM lifecycle, guest memory access with dirty
//!   logging, and the `to_uisr` / `from_uisr` translation entry points.
//! * [`registry`] — the hypervisor pool: named factories so the engine can
//!   boot an `Htarget` chosen at transplant time.
//! * [`memsep`] — the memory-separation taxonomy (Guest State, VMi State,
//!   VM Management State, HV State) and its accounting report.
//! * [`uisr_store`] — persistence of encoded UISR blobs in RAM across the
//!   micro-reboot, layered on PRAM files.
//! * [`inplace`] — the InPlaceTP workflow (Fig. 3) with the §4.2.5
//!   optimizations individually toggleable.
//! * [`unplanned`] — ReHype-style unplanned transplant: an always-on warm
//!   UISR checkpointer plus a crash-recovery engine that micro-reboots
//!   into the other hypervisor from the freshest persisted checkpoint.
//! * [`devices`] — the §4.2.3 device quiescing/restoration rules shared
//!   by the hypervisor models.
//! * [`vm`] — VM identity and configuration.
//! * [`error`] — the unified error type.
//!
//! MigrationTP lives in `hypertp-migrate`, which builds on the same trait.

pub mod devices;
pub mod error;
pub mod hypervisor;
pub mod inplace;
pub mod memsep;
pub mod recovery;
pub mod registry;
pub mod testing;
pub mod uisr_store;
pub mod unplanned;
pub mod vm;

pub use error::HtpError;
pub use hypervisor::{Hypervisor, HypervisorKind, RestoredVm};
pub use inplace::{
    InPlacePricer, InPlaceReport, InPlaceTransplant, IncrementalConfig, Optimizations, WarmRound,
};
pub use memsep::{MemSepReport, StateCategory};
pub use recovery::{host_failure_gate, migrate_or_inplace, FallbackOutcome, HostGate};
pub use registry::HypervisorRegistry;
pub use unplanned::{
    crash_gate, CheckpointConfig, CrashPhase, RecoveryReport, TickReport, UnplannedRecovery,
    WarmCheckpointer,
};
pub use vm::{VmConfig, VmId, VmState};
