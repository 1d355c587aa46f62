//! Simulated physical machine for the HyperTP reproduction.
//!
//! The paper runs on bare-metal x86 servers; this crate substitutes a
//! frame-level machine model that preserves exactly the properties the
//! transplant mechanism depends on:
//!
//! * physical RAM is an array of 4 KiB frames managed by a real buddy
//!   allocator ([`buddy`]) with 2 MiB huge-page support;
//! * frame *contents* survive a kexec micro-reboot, frame *ownership* does
//!   not ([`machine::Machine::kexec`]);
//! * the freshly booted hypervisor scrubs or reallocates any frame that was
//!   not explicitly reserved, so guest memory that is not protected by a
//!   parsed PRAM structure is genuinely destroyed
//!   ([`ram::PhysicalMemory::scrub_unreserved`]);
//! * the NIC goes down across a reboot and takes a machine-specific time to
//!   come back (6.6 s on M1, 2.3 s on M2 — §5.2.1).
//!
//! Machine specs for the paper's testbed (Table 3) are in [`spec`].

pub mod addr;
mod bits;
pub mod buddy;
pub mod machine;
pub mod ram;
pub mod spec;

pub use addr::{frame_runs, Extent, Gfn, Mfn, PageOrder, HUGE_PAGE_SIZE, PAGE_SIZE};
pub use machine::{KexecImage, Machine};
pub use ram::{combine_partials, MemError, PhysicalMemory};
pub use spec::MachineSpec;
