//! Xen's HVM hardware-state save structures.
//!
//! These mirror the layouts in Xen's `public/arch-x86/hvm/save.h`: one big
//! `hvm_hw_cpu` per vCPU with VMX-packed segment attributes and inline
//! syscall MSRs, a raw FXSAVE image for the FPU, architecturally-packed
//! 64-bit IOAPIC redirection entries, and dedicated MTRR/XSAVE/LAPIC/PIT
//! records. The *shape* of this data is what makes heterogeneous transplant
//! non-trivial: none of these containers exist on the KVM side.

use hypertp_uisr::{FpuState, PitChannel, RedirectionEntry};

/// Segment index within [`HvmHwCpu::segs`].
pub(crate) const SEG_CS: usize = 0;
/// Data segment index.
pub(crate) const SEG_DS: usize = 1;
/// Extra segment index.
pub(crate) const SEG_ES: usize = 2;
/// FS segment index.
pub(crate) const SEG_FS: usize = 3;
/// GS segment index.
pub(crate) const SEG_GS: usize = 4;
/// Stack segment index.
pub(crate) const SEG_SS: usize = 5;
/// Task register index.
pub(crate) const SEG_TR: usize = 6;
/// Local descriptor table register index.
pub(crate) const SEG_LDTR: usize = 7;

/// One segment as Xen saves it: selector/limit/base plus the VMX
/// access-rights word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct HvmSegment {
    /// Selector (Xen widens to 32 bits in the save record).
    pub sel: u32,
    /// Segment limit.
    pub limit: u32,
    /// Segment base.
    pub base: u64,
    /// VMX access-rights word (see [`crate::arbytes`]).
    pub arbytes: u32,
}

/// Xen's per-vCPU CPU save record (`hvm_hw_cpu`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HvmHwCpu {
    /// General-purpose registers: rax, rbx, rcx, rdx, rbp, rsi, rdi, rsp,
    /// r8..r15 (Xen's field order).
    pub gprs: [u64; 16],
    /// Instruction pointer.
    pub rip: u64,
    /// Flags register.
    pub rflags: u64,
    /// Control registers cr0, cr2, cr3, cr4.
    pub crs: [u64; 4],
    /// Debug registers dr0, dr1, dr2, dr3, dr6, dr7.
    pub drs: [u64; 6],
    /// Segments, indexed by the `SEG_*` constants.
    pub segs: [HvmSegment; 8],
    /// GDTR base/limit.
    pub gdtr_base: u64,
    /// GDTR limit.
    pub gdtr_limit: u32,
    /// IDTR base.
    pub idtr_base: u64,
    /// IDTR limit.
    pub idtr_limit: u32,
    /// SYSENTER MSRs (cs, esp, eip).
    pub sysenter: [u64; 3],
    /// Shadow GS base.
    pub shadow_gs: u64,
    /// Inline syscall MSRs: flags, lstar, star, cstar, syscall_mask, efer,
    /// tsc_aux — Xen keeps these in the CPU record rather than a list.
    pub msr_flags: u64,
    /// MSR_LSTAR.
    pub msr_lstar: u64,
    /// MSR_STAR.
    pub msr_star: u64,
    /// MSR_CSTAR.
    pub msr_cstar: u64,
    /// MSR_SYSCALL_MASK (SFMASK).
    pub msr_syscall_mask: u64,
    /// MSR_EFER.
    pub msr_efer: u64,
    /// MSR_TSC_AUX.
    pub msr_tsc_aux: u64,
    /// Guest TSC at save time.
    pub tsc: u64,
    /// Raw FXSAVE image.
    pub fpu_regs: [u8; 512],
    /// Pending event (interruption info), 0 if none.
    pub pending_event: u32,
    /// Pending event error code.
    pub error_code: u32,
}

impl Default for HvmHwCpu {
    fn default() -> Self {
        HvmHwCpu {
            gprs: [0; 16],
            rip: 0,
            rflags: 0x2,
            crs: [0; 4],
            drs: [0; 6],
            segs: [HvmSegment::default(); 8],
            gdtr_base: 0,
            gdtr_limit: 0,
            idtr_base: 0,
            idtr_limit: 0,
            sysenter: [0; 3],
            shadow_gs: 0,
            msr_flags: 0,
            msr_lstar: 0,
            msr_star: 0,
            msr_cstar: 0,
            msr_syscall_mask: 0,
            msr_efer: 0,
            msr_tsc_aux: 0,
            tsc: 0,
            fpu_regs: [0; 512],
            pending_event: 0,
            error_code: 0,
        }
    }
}

/// Xen's LAPIC bookkeeping record (`hvm_hw_lapic`). The register page is a
/// separate `LAPIC_REGS` record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct HvmHwLapic {
    /// APIC base MSR value.
    pub apic_base_msr: u64,
    /// Non-zero if the LAPIC is hardware-disabled.
    pub disabled: u32,
    /// Timer divisor (divide configuration).
    pub timer_divisor: u32,
    /// TSC-deadline MSR value.
    pub tdt_msr: u64,
}

/// Xen's MTRR record (`hvm_hw_mtrr`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HvmHwMtrr {
    /// PAT MSR.
    pub msr_pat_cr: u64,
    /// Variable-range MTRRs, interleaved base/mask (16 slots = 8 pairs).
    pub msr_mtrr_var: [u64; 16],
    /// Fixed-range MTRRs.
    pub msr_mtrr_fixed: [u64; 11],
    /// MTRR capability MSR.
    pub msr_mtrr_cap: u64,
    /// MTRR default type MSR.
    pub msr_mtrr_def_type: u64,
}

impl Default for HvmHwMtrr {
    fn default() -> Self {
        HvmHwMtrr {
            msr_pat_cr: 0x0007_0406_0007_0406,
            msr_mtrr_var: [0; 16],
            msr_mtrr_fixed: [0x0606_0606_0606_0606; 11],
            msr_mtrr_cap: 0x508, // 8 variable ranges, fixed + WC supported.
            msr_mtrr_def_type: 0x0c06,
        }
    }
}

/// Xen's XSAVE record (`hvm_hw_cpu_xsave`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HvmHwXsave {
    /// XCR0.
    pub xcr0: u64,
    /// Accumulated XCR0 (all components ever enabled).
    pub xcr0_accum: u64,
    /// Raw XSAVE area.
    pub area: Vec<u8>,
}

/// Xen's IOAPIC record: 48 architecturally packed 64-bit redirection
/// entries (`hvm_hw_vioapic`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HvmHwIoapic {
    /// IOAPIC bus address.
    pub base_address: u64,
    /// I/O register select latch.
    pub ioregsel: u32,
    /// IOAPIC ID.
    pub id: u8,
    /// Packed redirection table entries (one u64 per pin).
    pub redirtbl: Vec<u64>,
}

impl Default for HvmHwIoapic {
    fn default() -> Self {
        HvmHwIoapic {
            base_address: 0xfec0_0000,
            ioregsel: 0,
            id: 0,
            // All pins masked at reset.
            redirtbl: vec![1 << 16; 48],
        }
    }
}

/// One PIT channel as Xen saves it (`hvm_hw_pit.channels[i]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)]
pub(crate) struct HvmPitChannel {
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

/// Xen's PIT record (`hvm_hw_pit`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct HvmHwPit {
    /// The three 8254 channels.
    pub channels: [HvmPitChannel; 3],
    /// Speaker data bit.
    pub speaker_data_on: u8,
}

// --- FXSAVE image packing (Intel SDM Vol. 1, 10.5.1) ---

/// Packs UISR FPU state into a 512-byte FXSAVE image.
pub(crate) fn fxsave_pack(f: &FpuState) -> [u8; 512] {
    let mut img = [0u8; 512];
    img[0..2].copy_from_slice(&f.fcw.to_le_bytes());
    img[2..4].copy_from_slice(&f.fsw.to_le_bytes());
    img[4] = f.ftw;
    img[6..8].copy_from_slice(&f.last_opcode.to_le_bytes());
    img[8..16].copy_from_slice(&f.last_ip.to_le_bytes());
    img[16..24].copy_from_slice(&f.last_dp.to_le_bytes());
    img[24..28].copy_from_slice(&f.mxcsr.to_le_bytes());
    img[28..32].copy_from_slice(&f.mxcsr_mask.to_le_bytes());
    for (i, st) in f.st.iter().enumerate() {
        img[32 + i * 16..48 + i * 16].copy_from_slice(st);
    }
    for (i, xmm) in f.xmm.iter().enumerate() {
        img[160 + i * 16..176 + i * 16].copy_from_slice(xmm);
    }
    img
}

/// Unpacks a 512-byte FXSAVE image into UISR FPU state.
pub(crate) fn fxsave_unpack(img: &[u8; 512]) -> FpuState {
    let mut f = FpuState {
        fcw: u16::from_le_bytes(img[0..2].try_into().expect("2")),
        fsw: u16::from_le_bytes(img[2..4].try_into().expect("2")),
        ftw: img[4],
        last_opcode: u16::from_le_bytes(img[6..8].try_into().expect("2")),
        last_ip: u64::from_le_bytes(img[8..16].try_into().expect("8")),
        last_dp: u64::from_le_bytes(img[16..24].try_into().expect("8")),
        mxcsr: u32::from_le_bytes(img[24..28].try_into().expect("4")),
        mxcsr_mask: u32::from_le_bytes(img[28..32].try_into().expect("4")),
        ..FpuState::default()
    };
    for i in 0..8 {
        f.st[i] = img[32 + i * 16..48 + i * 16].try_into().expect("16");
    }
    for i in 0..16 {
        f.xmm[i] = img[160 + i * 16..176 + i * 16].try_into().expect("16");
    }
    f
}

// --- IOAPIC redirection entry packing (82093AA datasheet / SDM) ---

/// Packs a UISR redirection entry into the architectural 64-bit RTE.
pub fn rte_pack(e: &RedirectionEntry) -> u64 {
    let mut v = e.vector as u64;
    v |= ((e.delivery_mode as u64) & 0x7) << 8;
    v |= (e.dest_mode as u64) << 11;
    v |= (e.remote_irr as u64) << 14;
    v |= (e.trigger_level as u64) << 15;
    v |= (e.masked as u64) << 16;
    v |= (e.dest as u64) << 56;
    v
}

/// Unpacks an architectural 64-bit RTE into a UISR redirection entry.
pub fn rte_unpack(v: u64) -> RedirectionEntry {
    RedirectionEntry {
        vector: (v & 0xff) as u8,
        delivery_mode: ((v >> 8) & 0x7) as u8,
        dest_mode: v & (1 << 11) != 0,
        remote_irr: v & (1 << 14) != 0,
        trigger_level: v & (1 << 15) != 0,
        masked: v & (1 << 16) != 0,
        dest: (v >> 56) as u8,
    }
}

/// Converts a Xen PIT channel to the UISR channel shape.
pub(crate) fn pit_channel_to_uisr(c: &HvmPitChannel) -> PitChannel {
    PitChannel {
        count: c.count,
        latched_count: c.latched_count,
        status: c.status,
        read_state: c.read_state,
        write_state: c.write_state,
        mode: c.mode,
        bcd: c.bcd != 0,
        gate: c.gate != 0,
    }
}

/// Converts a UISR PIT channel back to Xen's shape.
pub(crate) fn pit_channel_from_uisr(c: &PitChannel) -> HvmPitChannel {
    HvmPitChannel {
        count: c.count,
        latched_count: c.latched_count,
        count_latched: 0,
        status_latched: 0,
        status: c.status,
        read_state: c.read_state,
        write_state: c.write_state,
        write_latch: 0,
        rw_mode: 0,
        mode: c.mode,
        bcd: c.bcd as u8,
        gate: c.gate as u8,
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    #[test]
    fn fxsave_roundtrip() {
        let mut f = FpuState::default();
        f.fcw = 0x1234;
        f.mxcsr = 0xdead;
        f.st[3] = [7; 16];
        f.xmm[15] = [9; 16];
        f.last_ip = 0xffff_8000_1234_5678;
        let img = fxsave_pack(&f);
        assert_eq!(fxsave_unpack(&img), f);
    }

    #[test]
    fn fxsave_offsets_are_architectural() {
        let mut f = FpuState::default();
        f.mxcsr = 0xaabbccdd;
        let img = fxsave_pack(&f);
        // MXCSR lives at byte 24 of the FXSAVE image.
        assert_eq!(&img[24..28], &[0xdd, 0xcc, 0xbb, 0xaa]);
    }

    #[test]
    fn rte_roundtrip() {
        let e = RedirectionEntry {
            vector: 0x31,
            delivery_mode: 0b001,
            dest_mode: true,
            masked: true,
            trigger_level: true,
            remote_irr: false,
            dest: 0xff,
        };
        assert_eq!(rte_unpack(rte_pack(&e)), e);
    }

    #[test]
    fn rte_masked_bit_is_16() {
        let e = RedirectionEntry {
            masked: true,
            ..RedirectionEntry::default()
        };
        assert_eq!(rte_pack(&e), 1 << 16);
    }

    #[test]
    fn default_ioapic_has_48_masked_pins() {
        let io = HvmHwIoapic::default();
        assert_eq!(io.redirtbl.len(), 48);
        assert!(io.redirtbl.iter().all(|&r| rte_unpack(r).masked));
    }

    #[test]
    fn pit_channel_roundtrip() {
        let c = HvmPitChannel {
            count: 65534,
            latched_count: 100,
            status: 7,
            read_state: 1,
            write_state: 2,
            mode: 3,
            bcd: 1,
            gate: 1,
            ..HvmPitChannel::default()
        };
        let u = pit_channel_to_uisr(&c);
        let back = pit_channel_from_uisr(&u);
        assert_eq!(back.count, c.count);
        assert_eq!(back.mode, c.mode);
        assert_eq!(back.bcd, 1);
        assert_eq!(back.gate, 1);
    }

    #[test]
    fn randomized_rte_roundtrip() {
        // Deterministic randomized loop (formerly proptest, 256 cases).
        let mut rng = hypertp_sim::SimRng::new(0x0e7e_0001);
        for _ in 0..256 {
            let v = rng.next_u64();
            // Only defined bits roundtrip.
            let defined = v
                & ((0xffu64 << 56)
                    | (1 << 16)
                    | (1 << 15)
                    | (1 << 14)
                    | (1 << 11)
                    | (0x7 << 8)
                    | 0xff);
            assert_eq!(rte_pack(&rte_unpack(v)), defined);
        }
        // Edge values.
        for v in [0u64, u64::MAX] {
            let defined = v
                & ((0xffu64 << 56)
                    | (1 << 16)
                    | (1 << 15)
                    | (1 << 14)
                    | (1 << 11)
                    | (0x7 << 8)
                    | 0xff);
            assert_eq!(rte_pack(&rte_unpack(v)), defined);
        }
    }
}
