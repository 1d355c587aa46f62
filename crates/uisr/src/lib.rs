//! UISR: the Unified Intermediate State Representation.
//!
//! UISR is HyperTP's hypervisor-neutral VM state format (§3.1). Like XDR for
//! network data, it decouples the *n* hypervisors in an operator's pool from
//! each other: a hypervisor developer implements `to_uisr_*` and
//! `from_uisr_*` translations against this one format instead of against
//! every other hypervisor's internal representation.
//!
//! The crate contains:
//!
//! * [`state`] — typed state structures for every virtualized resource the
//!   paper's Table 2 covers: CPU registers, special registers, FPU, MSRs,
//!   XSAVE, LAPIC (+ register page), MTRR, IOAPIC, PIT — plus emulated
//!   device state and the guest memory map.
//! * [`codec`] — a compact, versioned binary encoding (the format saved in
//!   RAM by InPlaceTP and sent over the wire by MigrationTP) and a JSON
//!   debug encoding, both derived (with the decoders and the exact size)
//!   from one table of field names per state type. The binary sizes drive
//!   Fig. 14's "UISR formats" series (~5 KB for a 1-vCPU VM up to ~38 KB at
//!   10 vCPUs).
//! * [`mapping`] — the Xen ↔ UISR ↔ KVM state-mapping registry
//!   reproducing Table 2, checked against the state the codec carries.

pub mod codec;
pub mod lapic_page;
pub mod mapping;
pub mod msr;
pub mod state;

pub use codec::{decode, encode, CodecError};
pub use mapping::{state_mapping, MappingRow};
pub use state::{
    CpuRegisters, DescriptorTable, DeviceState, FpuState, IoApicState, LapicState, MemoryRegion,
    MemorySpec, MsrEntry, MtrrState, PitChannel, PitState, RedirectionEntry, SegmentRegister,
    SpecialRegisters, UisrVm, VcpuState, XsaveState,
};
