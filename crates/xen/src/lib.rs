//! A Xen-like type-1 hypervisor model.
//!
//! The paper's prototype re-engineers Xen 4.12.1 (HVM mode) into a
//! HyperTP-compliant hypervisor. This crate reproduces the pieces of Xen the
//! transplant path touches, with Xen's *own* representation choices so the
//! UISR translation layer has real format conversion to do:
//!
//! * `hvm_types` / `hvm_context` — Xen's HVM save records
//!   (`hvm_hw_cpu`, `hvm_hw_lapic`, ...) and the typed record stream
//!   produced by `xc_domain_hvm_getcontext`. Segment attributes are packed
//!   VMX-style `arbytes`; syscall MSRs live inline in the CPU record.
//! * `p2m` — the per-domain physical-to-machine table with 2 MiB
//!   superpage support and log-dirty tracking (used by live migration).
//! * `events` — event channels (interdomain notification ports).
//! * `grant` — grant tables (page sharing with dom0 backends).
//! * `sched` — the Credit scheduler's run queues: pure *VM Management
//!   State* that a transplant rebuilds instead of translating.
//! * `xenstore` — the xenstored hierarchical configuration store.
//! * `domain` — the per-domain container tying the above together.
//! * `hypervisor` — [`XenHypervisor`], the `hypertp_core::Hypervisor`
//!   implementation (the dom0 toolstack view: libxl + libxenctrl).

mod arbytes;
mod domain;
mod events;
mod grant;
mod hvm_context;
mod hvm_types;
mod hypervisor;
mod p2m;
mod sched;
mod xenstore;
mod xlate;

pub use hypervisor::XenHypervisor;
