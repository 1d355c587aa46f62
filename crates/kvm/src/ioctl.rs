//! KVM's uapi state containers and errno-style errors.
//!
//! These mirror `<linux/kvm.h>`: state is exchanged as several small,
//! single-purpose structs over per-vCPU and per-VM ioctls, in contrast to
//! Xen's one-big-record design. Note `kvm_regs`' GPR order (rax rbx rcx
//! rdx **rsi rdi rsp rbp**) differs from Xen's (rax rbx rcx rdx **rbp rsi
//! rdi rsp**) — one of the small format hazards the UISR layer absorbs.

/// Errno-style ioctl errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Errno {
    /// Bad file descriptor.
    Ebadf,
    /// Invalid argument.
    Einval,
    /// Object already exists.
    Eexist,
    /// Resource unavailable or address fault.
    Efault,
    /// No such device (irqchip/PIT not created).
    Enodev,
}

impl std::fmt::Display for Errno {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Errno::Ebadf => "EBADF",
            Errno::Einval => "EINVAL",
            Errno::Eexist => "EEXIST",
            Errno::Efault => "EFAULT",
            Errno::Enodev => "ENODEV",
        };
        f.write_str(s)
    }
}

impl std::error::Error for Errno {}

/// `kvm_regs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)]
pub(crate) struct KvmRegs {
    /// GPRs in KVM order: rax rbx rcx rdx rsi rdi rsp rbp r8..r15.
    pub gprs: [u64; 16],
    pub rip: u64,
    pub rflags: u64,
}

/// `kvm_segment`: exploded attribute fields (no packed arbytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)]
pub(crate) struct KvmSegment {
    pub base: u64,
    pub limit: u32,
    pub selector: u16,
    pub type_: u8,
    pub present: u8,
    pub dpl: u8,
    pub db: u8,
    pub s: u8,
    pub l: u8,
    pub g: u8,
    pub avl: u8,
    pub unusable: u8,
}

/// `kvm_dtable`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)]
pub(crate) struct KvmDtable {
    pub base: u64,
    pub limit: u16,
}

/// `kvm_sregs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)]
pub(crate) struct KvmSregs {
    pub cs: KvmSegment,
    pub ds: KvmSegment,
    pub es: KvmSegment,
    pub fs: KvmSegment,
    pub gs: KvmSegment,
    pub ss: KvmSegment,
    pub tr: KvmSegment,
    pub ldt: KvmSegment,
    pub gdt: KvmDtable,
    pub idt: KvmDtable,
    pub cr0: u64,
    pub cr2: u64,
    pub cr3: u64,
    pub cr4: u64,
    pub cr8: u64,
    pub efer: u64,
    pub apic_base: u64,
}

/// One `kvm_msr_entry`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KvmMsrEntry {
    /// MSR index.
    pub index: u32,
    /// MSR data.
    pub data: u64,
}

/// `kvm_fpu`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub(crate) struct KvmFpu {
    pub fpr: [[u8; 16]; 8],
    pub fcw: u16,
    pub fsw: u16,
    pub ftwx: u8,
    pub last_opcode: u16,
    pub last_ip: u64,
    pub last_dp: u64,
    pub xmm: [[u8; 16]; 16],
    pub mxcsr: u32,
}

impl Default for KvmFpu {
    fn default() -> Self {
        KvmFpu {
            fpr: [[0; 16]; 8],
            fcw: 0x037f,
            fsw: 0,
            ftwx: 0,
            last_opcode: 0,
            last_ip: 0,
            last_dp: 0,
            xmm: [[0; 16]; 16],
            mxcsr: 0x1f80,
        }
    }
}

/// `kvm_xsave` (raw region).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct KvmXsave {
    /// Raw XSAVE region bytes.
    pub region: Vec<u8>,
}

/// `kvm_xcrs`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct KvmXcrs {
    /// (xcr index, value) pairs; index 0 is XCR0.
    pub xcrs: Vec<(u32, u64)>,
}

/// `kvm_lapic_state` (the 1 KiB register page image).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct KvmLapicState {
    /// Register page image.
    pub regs: Vec<u8>,
}

impl Default for KvmLapicState {
    fn default() -> Self {
        KvmLapicState {
            regs: vec![0; 1024],
        }
    }
}

/// Number of pins on KVM's in-kernel IOAPIC.
pub(crate) const KVM_IOAPIC_NUM_PINS: usize = 24;

/// The in-kernel IOAPIC half of `kvm_irqchip`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct KvmIoapicState {
    /// MMIO base.
    pub base_address: u64,
    /// IOAPIC ID.
    pub id: u8,
    /// Architecturally packed redirection entries, 24 pins.
    pub redirtbl: [u64; KVM_IOAPIC_NUM_PINS],
}

impl Default for KvmIoapicState {
    fn default() -> Self {
        KvmIoapicState {
            base_address: 0xfec0_0000,
            id: 0,
            redirtbl: [1 << 16; KVM_IOAPIC_NUM_PINS], // Masked at reset.
        }
    }
}

/// One channel of `kvm_pit_state2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)]
pub(crate) struct KvmPitChannelState {
    pub count: u32,
    pub latched_count: u16,
    pub count_latched: u8,
    pub status_latched: u8,
    pub status: u8,
    pub read_state: u8,
    pub write_state: u8,
    pub write_latch: u8,
    pub rw_mode: u8,
    pub mode: u8,
    pub bcd: u8,
    pub gate: u8,
}

/// `kvm_pit_state2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct KvmPitState2 {
    /// The three PIT channels.
    pub channels: [KvmPitChannelState; 3],
    /// Flags (speaker state in bit 0 for this model).
    pub flags: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_architectural() {
        assert_eq!(KvmFpu::default().fcw, 0x037f);
        assert_eq!(KvmFpu::default().mxcsr, 0x1f80);
        assert_eq!(KvmLapicState::default().regs.len(), 1024);
        let io = KvmIoapicState::default();
        assert_eq!(io.redirtbl.len(), 24);
        assert!(io.redirtbl.iter().all(|&r| r & (1 << 16) != 0));
    }

    #[test]
    fn errno_display() {
        assert_eq!(Errno::Ebadf.to_string(), "EBADF");
        assert_eq!(Errno::Enodev.to_string(), "ENODEV");
    }
}
