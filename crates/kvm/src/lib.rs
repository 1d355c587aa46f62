//! A Linux-KVM-like type-2 hypervisor model with a kvmtool-like VMM.
//!
//! The paper's KVM side runs Linux 5.3.1 with kvmtool as the userspace VMM
//! (§4.1), extended so kvmtool "understands and uses UISR states ...
//! translating each platform device's state to KVM's internal formats,
//! then calling the corresponding KVM IOCTL" (§4.2.1). The crate mirrors
//! that architecture:
//!
//! * `ioctl` — KVM's uapi state containers (`kvm_regs`, `kvm_sregs`,
//!   `kvm_fpu`, `kvm_lapic_state`, `kvm_irqchip`, `kvm_pit_state2`, ...)
//!   and errno-style errors. The field groupings (and even GPR order)
//!   deliberately differ from Xen's `hvm_hw_cpu`, because that difference
//!   is what UISR translation bridges.
//! * `kvm` — the kernel-module state: VM and vCPU file descriptors,
//!   memory slots with per-slot dirty bitmaps (`KVM_GET_DIRTY_LOG`
//!   semantics), a 24-pin in-kernel IOAPIC, and the ioctl dispatch
//!   surface.
//! * `kvmtool` — the userspace VMM: owns guest memory, registers
//!   memslots, models virtio devices, and implements the UISR
//!   translation by issuing ioctls.
//! * [`xlate`] — UISR ⇄ KVM conversions (Table 2's right column),
//!   including the 48→24-pin IOAPIC truncation fix of §4.2.1.
//! * `hypervisor` — [`KvmHypervisor`], the `hypertp_core::Hypervisor`
//!   implementation.

mod hypervisor;
mod ioctl;
mod kvm;
mod kvmtool;
pub mod xlate;

pub use hypervisor::KvmHypervisor;
