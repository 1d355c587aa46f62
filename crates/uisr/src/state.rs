//! Typed UISR state structures.
//!
//! These are the hypervisor-independent descriptions of "the structures of a
//! VM which are necessary to restore it in any hypervisor" (§3.1). The
//! shapes mirror hardware-defined state (x86 registers, LAPIC/IOAPIC/PIT
//! programming models), since both Xen HVM and KVM virtualize the same
//! hardware; what differs per hypervisor is the *container format*, which
//! is exactly what the translation layers strip away.

/// Size of the LAPIC register page image carried in UISR (the
/// architecturally defined registers occupy the first KiB of the 4 KiB
/// APIC page).
pub const LAPIC_REGS_SIZE: usize = 1024;

/// Size of the XSAVE area carried in UISR: legacy FXSAVE region (512 B) +
/// XSAVE header (64 B) + AVX state (256 B) + reserved headroom.
pub const XSAVE_AREA_SIZE: usize = 1344;

/// Number of IOAPIC pins on Xen's virtual IOAPIC (§4.2.1).
pub const XEN_IOAPIC_PINS: usize = 48;

/// Number of IOAPIC pins on KVM's virtual IOAPIC (§4.2.1).
pub const KVM_IOAPIC_PINS: usize = 24;

/// General-purpose registers, instruction pointer and flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)]
pub struct CpuRegisters {
    pub rax: u64,
    pub rbx: u64,
    pub rcx: u64,
    pub rdx: u64,
    pub rsi: u64,
    pub rdi: u64,
    pub rsp: u64,
    pub rbp: u64,
    pub r8: u64,
    pub r9: u64,
    pub r10: u64,
    pub r11: u64,
    pub r12: u64,
    pub r13: u64,
    pub r14: u64,
    pub r15: u64,
    pub rip: u64,
    pub rflags: u64,
}

/// A segment register (hidden part included).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)]
pub struct SegmentRegister {
    pub base: u64,
    pub limit: u32,
    pub selector: u16,
    pub type_: u8,
    pub present: bool,
    pub dpl: u8,
    pub db: bool,
    pub s: bool,
    pub l: bool,
    pub g: bool,
    pub avl: bool,
}

/// A descriptor table register (GDTR/IDTR).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)]
pub struct DescriptorTable {
    pub base: u64,
    pub limit: u16,
}

/// Control registers, segment state and system table registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)]
pub struct SpecialRegisters {
    pub cs: SegmentRegister,
    pub ds: SegmentRegister,
    pub es: SegmentRegister,
    pub fs: SegmentRegister,
    pub gs: SegmentRegister,
    pub ss: SegmentRegister,
    pub tr: SegmentRegister,
    pub ldt: SegmentRegister,
    pub gdt: DescriptorTable,
    pub idt: DescriptorTable,
    pub cr0: u64,
    pub cr2: u64,
    pub cr3: u64,
    pub cr4: u64,
    pub cr8: u64,
    pub efer: u64,
    pub apic_base: u64,
}

/// Legacy x87/SSE state (the FXSAVE image, exploded).
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct FpuState {
    pub fcw: u16,
    pub fsw: u16,
    pub ftw: u8,
    pub last_opcode: u16,
    pub last_ip: u64,
    pub last_dp: u64,
    pub mxcsr: u32,
    pub mxcsr_mask: u32,
    /// Eight 80-bit x87 registers, stored in 16-byte slots.
    pub st: [[u8; 16]; 8],
    /// Sixteen 128-bit XMM registers.
    pub xmm: [[u8; 16]; 16],
}

impl Default for FpuState {
    fn default() -> Self {
        FpuState {
            fcw: 0x037f,
            fsw: 0,
            ftw: 0,
            last_opcode: 0,
            last_ip: 0,
            last_dp: 0,
            mxcsr: 0x1f80,
            mxcsr_mask: 0xffff,
            st: [[0; 16]; 8],
            xmm: [[0; 16]; 16],
        }
    }
}

/// One model-specific register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsrEntry {
    /// MSR index (e.g. `0xC000_0080` for EFER).
    pub index: u32,
    /// MSR value.
    pub data: u64,
}

/// Extended processor state: XCR0 plus the raw XSAVE area image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XsaveState {
    /// XCR0 (enabled state components).
    pub xcr0: u64,
    /// Raw XSAVE area bytes.
    pub area: Vec<u8>,
}

impl Default for XsaveState {
    fn default() -> Self {
        XsaveState {
            xcr0: 0x7, // x87 | SSE | AVX
            area: vec![0; XSAVE_AREA_SIZE],
        }
    }
}

/// Local APIC architectural state (the non-register-page part: timer and
/// pending interrupt bookkeeping that hypervisors track out of band).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)]
pub struct LapicState {
    pub apic_id: u32,
    pub apic_base_msr: u64,
    pub tpr: u8,
    /// Timer divide configuration.
    pub timer_divide: u8,
    /// Timer initial count.
    pub timer_initial: u32,
    /// Timer current count at save time.
    pub timer_current: u32,
    /// True if a timer interrupt is pending delivery.
    pub timer_pending: bool,
}

/// Memory type range registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MtrrState {
    /// MTRR_DEF_TYPE.
    pub def_type: u64,
    /// The 11 fixed-range MTRRs.
    pub fixed: [u64; 11],
    /// Variable-range MTRR (base, mask) pairs.
    pub variable: Vec<(u64, u64)>,
}

impl Default for MtrrState {
    fn default() -> Self {
        MtrrState {
            def_type: 0x0c06, // MTRRs enabled, default WB.
            fixed: [0x0606_0606_0606_0606; 11],
            variable: vec![(0, 0); 8],
        }
    }
}

/// A single IOAPIC redirection table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)]
pub struct RedirectionEntry {
    pub vector: u8,
    pub delivery_mode: u8,
    pub dest_mode: bool,
    pub masked: bool,
    pub trigger_level: bool,
    pub remote_irr: bool,
    pub dest: u8,
}

/// Virtual IOAPIC state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoApicState {
    /// IOAPIC ID.
    pub id: u8,
    /// MMIO base address.
    pub base: u64,
    /// One redirection entry per pin; the pin count is
    /// hypervisor-dependent (48 on Xen, 24 on KVM — the §4.2.1
    /// compatibility fix disconnects the upper pins when moving to KVM).
    pub redirection: Vec<RedirectionEntry>,
}

impl Default for IoApicState {
    fn default() -> Self {
        IoApicState {
            id: 0,
            base: 0xfec0_0000,
            // Pins come out of reset masked (82093AA reset state).
            redirection: vec![
                RedirectionEntry {
                    masked: true,
                    ..RedirectionEntry::default()
                };
                XEN_IOAPIC_PINS
            ],
        }
    }
}

impl IoApicState {
    /// Number of pins.
    pub fn pins(&self) -> usize {
        self.redirection.len()
    }

    /// Truncates or extends the redirection table to `pins` entries — the
    /// §4.2.1 IOAPIC compatibility fix. New pins come up masked.
    pub fn resize_pins(&mut self, pins: usize) {
        self.redirection.resize(
            pins,
            RedirectionEntry {
                masked: true,
                ..RedirectionEntry::default()
            },
        );
    }
}

/// One PIT (8254) channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)]
pub struct PitChannel {
    pub count: u32,
    pub latched_count: u16,
    pub status: u8,
    pub read_state: u8,
    pub write_state: u8,
    pub mode: u8,
    pub bcd: bool,
    pub gate: bool,
}

/// Virtual PIT state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PitState {
    /// The three 8254 channels.
    pub channels: [PitChannel; 3],
    /// Speaker port (0x61) state.
    pub speaker: u8,
}

/// State of one emulated or pass-through I/O device (§4.2.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceState {
    /// An emulated network device. Per §4.2.3 these are unplugged before
    /// transplant and rescanned afterwards, so only identity persists.
    Network {
        /// MAC address.
        mac: [u8; 6],
        /// True if the device was unplugged pre-transplant (it must be
        /// re-plugged during restoration).
        unplugged: bool,
    },
    /// An emulated block device backed by network storage.
    Block {
        /// Backend identifier (e.g. an iSCSI/NBD URI).
        backend: String,
        /// Number of 512-byte sectors.
        sectors: u64,
        /// In-flight request queue captured at pause time.
        pending_requests: u32,
    },
    /// A serial console.
    Console {
        /// Bytes buffered in the transmit FIFO at pause time.
        tx_buffered: u32,
    },
    /// A pass-through device: the hardware is unchanged across transplant;
    /// the guest driver was asked to pause it (driver state lives in guest
    /// memory).
    PassThrough {
        /// PCI BDF identifier.
        bdf: String,
        /// True if the guest acknowledged the pause request.
        guest_paused: bool,
    },
}

/// One guest-physical memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryRegion {
    /// First guest frame number of the region.
    pub gfn_start: u64,
    /// Length in 4 KiB pages.
    pub pages: u64,
}

/// The VM's guest memory description.
///
/// For InPlaceTP the actual frame map travels through PRAM and this spec
/// names the PRAM file; for MigrationTP the pages travel over the wire and
/// the regions describe the layout to recreate.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemorySpec {
    /// Guest-physical regions.
    pub regions: Vec<MemoryRegion>,
    /// PRAM file carrying the frame map (InPlaceTP only).
    pub pram_file: Option<String>,
}

impl MemorySpec {
    /// Total guest pages.
    pub fn total_pages(&self) -> u64 {
        self.regions.iter().map(|r| r.pages).sum()
    }

    /// Total guest bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_pages() * 4096
    }
}

/// Per-vCPU UISR state (one entry per `to_uisr_vCPU` call).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VcpuState {
    /// vCPU index.
    pub id: u32,
    /// General-purpose registers.
    pub regs: CpuRegisters,
    /// Special registers.
    pub sregs: SpecialRegisters,
    /// x87/SSE state.
    pub fpu: FpuState,
    /// Model-specific registers.
    pub msrs: Vec<MsrEntry>,
    /// Extended state.
    pub xsave: XsaveState,
    /// LAPIC bookkeeping state.
    pub lapic: LapicState,
    /// Raw LAPIC register page image.
    pub lapic_regs: Vec<u8>,
    /// Memory type range registers.
    pub mtrr: MtrrState,
}

impl VcpuState {
    /// Creates a vCPU state with architectural reset defaults.
    pub fn reset(id: u32) -> Self {
        VcpuState {
            id,
            lapic_regs: vec![0; LAPIC_REGS_SIZE],
            ..VcpuState::default()
        }
    }
}

/// The complete UISR description of one VM — the unit InPlaceTP stores in
/// RAM and MigrationTP ships over the network.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UisrVm {
    /// VM name (stable across hypervisors).
    pub name: String,
    /// Per-vCPU state.
    pub vcpus: Vec<VcpuState>,
    /// Virtual IOAPIC.
    pub ioapic: IoApicState,
    /// Virtual PIT.
    pub pit: PitState,
    /// Emulated/pass-through device states.
    pub devices: Vec<DeviceState>,
    /// Guest memory description.
    pub memory: MemorySpec,
}

impl UisrVm {
    /// Creates an empty UISR description for a VM.
    pub fn new(name: impl Into<String>) -> Self {
        UisrVm {
            name: name.into(),
            ..UisrVm::default()
        }
    }

    /// Iterates over the IOAPIC redirection entries at or above `pin`
    /// (the pins a smaller target IOAPIC would drop).
    pub fn redirection_beyond(&self, pin: usize) -> impl Iterator<Item = &RedirectionEntry> {
        self.ioapic.redirection.iter().skip(pin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vcpu_reset_defaults() {
        let v = VcpuState::reset(3);
        assert_eq!(v.id, 3);
        assert_eq!(v.lapic_regs.len(), LAPIC_REGS_SIZE);
        assert_eq!(v.fpu.fcw, 0x037f);
        assert_eq!(v.xsave.area.len(), XSAVE_AREA_SIZE);
    }

    #[test]
    fn ioapic_pin_resize_masks_new_pins() {
        let mut io = IoApicState::default();
        assert_eq!(io.pins(), XEN_IOAPIC_PINS);
        io.resize_pins(KVM_IOAPIC_PINS);
        assert_eq!(io.pins(), 24);
        io.resize_pins(XEN_IOAPIC_PINS);
        assert_eq!(io.pins(), 48);
        assert!(io.redirection[47].masked, "re-added pins come up masked");
    }

    #[test]
    fn memory_spec_totals() {
        let m = MemorySpec {
            regions: vec![
                MemoryRegion {
                    gfn_start: 0,
                    pages: 100,
                },
                MemoryRegion {
                    gfn_start: 0x1000,
                    pages: 28,
                },
            ],
            pram_file: None,
        };
        assert_eq!(m.total_pages(), 128);
        assert_eq!(m.total_bytes(), 128 * 4096);
    }
}
