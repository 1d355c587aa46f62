//! KVM's `to_uisr_*` / `from_uisr_*` translation functions.
//!
//! Per §4.2.1, kvmtool performs these translations and applies the results
//! through KVM ioctls. The notable conversions on this side:
//!
//! * GPR reorder (`kvm_regs` packs rsi/rdi/rsp/rbp differently from Xen);
//! * UISR's MTRR section dissolving into MSR-list entries (Table 2 maps
//!   MTRR → MSRS on the KVM column);
//! * XSAVE splitting into `KVM_SET_XSAVE` + `KVM_SET_XCRS`;
//! * the 48→24-pin IOAPIC truncation — the paper "simply disconnects the
//!   higher 24 IOAPIC pins during transplantation", which we reproduce
//!   with an explicit warning;
//! * `kvm_fpu` carrying no `mxcsr_mask` — restored to the architectural
//!   default, a documented lossy fix.

use hypertp_uisr::state::KVM_IOAPIC_PINS;
use hypertp_uisr::{
    msr, CpuRegisters, FpuState, IoApicState, MsrEntry, MtrrState, PitState, SegmentRegister,
    SpecialRegisters, XsaveState,
};

use crate::ioctl::{
    KvmDtable, KvmFpu, KvmIoapicState, KvmMsrEntry, KvmPitChannelState, KvmPitState2, KvmRegs,
    KvmSegment, KvmSregs, KvmXcrs, KvmXsave, KVM_IOAPIC_NUM_PINS,
};

// Packing helpers shared with the Xen model would hide the point: each
// hypervisor implements its own view of the architectural formats, and
// UISR is the only shared vocabulary. The RTE packing here is therefore
// local to this crate.

fn rte_pack(e: &hypertp_uisr::RedirectionEntry) -> u64 {
    let mut v = e.vector as u64;
    v |= ((e.delivery_mode as u64) & 0x7) << 8;
    v |= (e.dest_mode as u64) << 11;
    v |= (e.remote_irr as u64) << 14;
    v |= (e.trigger_level as u64) << 15;
    v |= (e.masked as u64) << 16;
    v |= (e.dest as u64) << 56;
    v
}

fn rte_unpack(v: u64) -> hypertp_uisr::RedirectionEntry {
    hypertp_uisr::RedirectionEntry {
        vector: (v & 0xff) as u8,
        delivery_mode: ((v >> 8) & 0x7) as u8,
        dest_mode: v & (1 << 11) != 0,
        remote_irr: v & (1 << 14) != 0,
        trigger_level: v & (1 << 15) != 0,
        masked: v & (1 << 16) != 0,
        dest: (v >> 56) as u8,
    }
}

/// UISR GPRs → `kvm_regs`.
pub(crate) fn regs_to_kvm(r: &CpuRegisters) -> KvmRegs {
    KvmRegs {
        gprs: [
            r.rax, r.rbx, r.rcx, r.rdx, r.rsi, r.rdi, r.rsp, r.rbp, r.r8, r.r9, r.r10, r.r11,
            r.r12, r.r13, r.r14, r.r15,
        ],
        rip: r.rip,
        rflags: r.rflags,
    }
}

/// `kvm_regs` → UISR GPRs.
pub(crate) fn regs_from_kvm(k: &KvmRegs) -> CpuRegisters {
    CpuRegisters {
        rax: k.gprs[0],
        rbx: k.gprs[1],
        rcx: k.gprs[2],
        rdx: k.gprs[3],
        rsi: k.gprs[4],
        rdi: k.gprs[5],
        rsp: k.gprs[6],
        rbp: k.gprs[7],
        r8: k.gprs[8],
        r9: k.gprs[9],
        r10: k.gprs[10],
        r11: k.gprs[11],
        r12: k.gprs[12],
        r13: k.gprs[13],
        r14: k.gprs[14],
        r15: k.gprs[15],
        rip: k.rip,
        rflags: k.rflags,
    }
}

fn seg_to_kvm(s: &SegmentRegister) -> KvmSegment {
    KvmSegment {
        base: s.base,
        limit: s.limit,
        selector: s.selector,
        type_: s.type_,
        present: s.present as u8,
        dpl: s.dpl,
        db: s.db as u8,
        s: s.s as u8,
        l: s.l as u8,
        g: s.g as u8,
        avl: s.avl as u8,
        unusable: (!s.present) as u8,
    }
}

fn seg_from_kvm(k: &KvmSegment) -> SegmentRegister {
    SegmentRegister {
        base: k.base,
        limit: k.limit,
        selector: k.selector,
        type_: k.type_,
        present: k.present != 0,
        dpl: k.dpl,
        db: k.db != 0,
        s: k.s != 0,
        l: k.l != 0,
        g: k.g != 0,
        avl: k.avl != 0,
    }
}

/// UISR special registers → `kvm_sregs`.
pub(crate) fn sregs_to_kvm(s: &SpecialRegisters) -> KvmSregs {
    KvmSregs {
        cs: seg_to_kvm(&s.cs),
        ds: seg_to_kvm(&s.ds),
        es: seg_to_kvm(&s.es),
        fs: seg_to_kvm(&s.fs),
        gs: seg_to_kvm(&s.gs),
        ss: seg_to_kvm(&s.ss),
        tr: seg_to_kvm(&s.tr),
        ldt: seg_to_kvm(&s.ldt),
        gdt: KvmDtable {
            base: s.gdt.base,
            limit: s.gdt.limit,
        },
        idt: KvmDtable {
            base: s.idt.base,
            limit: s.idt.limit,
        },
        cr0: s.cr0,
        cr2: s.cr2,
        cr3: s.cr3,
        cr4: s.cr4,
        cr8: s.cr8,
        efer: s.efer,
        apic_base: s.apic_base,
    }
}

/// `kvm_sregs` → UISR special registers.
pub(crate) fn sregs_from_kvm(k: &KvmSregs) -> SpecialRegisters {
    SpecialRegisters {
        cs: seg_from_kvm(&k.cs),
        ds: seg_from_kvm(&k.ds),
        es: seg_from_kvm(&k.es),
        fs: seg_from_kvm(&k.fs),
        gs: seg_from_kvm(&k.gs),
        ss: seg_from_kvm(&k.ss),
        tr: seg_from_kvm(&k.tr),
        ldt: seg_from_kvm(&k.ldt),
        gdt: hypertp_uisr::DescriptorTable {
            base: k.gdt.base,
            limit: k.gdt.limit,
        },
        idt: hypertp_uisr::DescriptorTable {
            base: k.idt.base,
            limit: k.idt.limit,
        },
        cr0: k.cr0,
        cr2: k.cr2,
        cr3: k.cr3,
        cr4: k.cr4,
        cr8: k.cr8,
        efer: k.efer,
        apic_base: k.apic_base,
    }
}

/// UISR FPU → `kvm_fpu`.
pub(crate) fn fpu_to_kvm(f: &FpuState) -> KvmFpu {
    KvmFpu {
        fpr: f.st,
        fcw: f.fcw,
        fsw: f.fsw,
        ftwx: f.ftw,
        last_opcode: f.last_opcode,
        last_ip: f.last_ip,
        last_dp: f.last_dp,
        xmm: f.xmm,
        mxcsr: f.mxcsr,
    }
}

/// `kvm_fpu` → UISR FPU. `kvm_fpu` has no `mxcsr_mask`; the architectural
/// default is restored (documented lossy fix).
pub(crate) fn fpu_from_kvm(k: &KvmFpu) -> FpuState {
    FpuState {
        fcw: k.fcw,
        fsw: k.fsw,
        ftw: k.ftwx,
        last_opcode: k.last_opcode,
        last_ip: k.last_ip,
        last_dp: k.last_dp,
        mxcsr: k.mxcsr,
        mxcsr_mask: 0xffff,
        st: k.fpr,
        xmm: k.xmm,
    }
}

/// UISR XSAVE → (`kvm_xsave`, `kvm_xcrs`) — Table 2's "XCRS, XSAVE".
pub(crate) fn xsave_to_kvm(x: &XsaveState) -> (KvmXsave, KvmXcrs) {
    (
        KvmXsave {
            region: x.area.clone(),
        },
        KvmXcrs {
            xcrs: vec![(0, x.xcr0)],
        },
    )
}

/// (`kvm_xsave`, `kvm_xcrs`) → UISR XSAVE.
pub(crate) fn xsave_from_kvm(x: &KvmXsave, xcrs: &KvmXcrs) -> XsaveState {
    XsaveState {
        xcr0: xcrs
            .xcrs
            .iter()
            .find(|(i, _)| *i == 0)
            .map(|(_, v)| *v)
            .unwrap_or(1),
        area: x.region.clone(),
    }
}

/// The MSR indices kvmtool saves on the KVM→UISR path.
pub(crate) fn saved_msr_indices() -> Vec<u32> {
    let mut v = vec![
        msr::IA32_TSC,
        msr::IA32_APIC_BASE,
        msr::IA32_SYSENTER_CS,
        msr::IA32_SYSENTER_ESP,
        msr::IA32_SYSENTER_EIP,
        msr::IA32_PAT,
        msr::IA32_EFER,
        msr::STAR,
        msr::LSTAR,
        msr::CSTAR,
        msr::SFMASK,
        msr::KERNEL_GS_BASE,
        msr::TSC_AUX,
    ];
    v.push(msr::MTRR_CAP);
    v.push(msr::MTRR_DEF_TYPE);
    for i in 0..8u32 {
        v.push(msr::MTRR_PHYS_BASE0 + 2 * i);
        v.push(msr::MTRR_PHYS_BASE0 + 2 * i + 1);
    }
    v.extend_from_slice(&msr::MTRR_FIXED);
    v
}

/// UISR (MSR list + MTRR section) → the `KVM_SET_MSRS` payload. On KVM the
/// MTRRs are just MSRs (Table 2).
pub(crate) fn msrs_to_kvm(msrs: &[MsrEntry], mtrr: &MtrrState) -> Vec<KvmMsrEntry> {
    let mut out: Vec<KvmMsrEntry> = msrs
        .iter()
        .map(|m| KvmMsrEntry {
            index: m.index,
            data: m.data,
        })
        .collect();
    out.push(KvmMsrEntry {
        index: msr::MTRR_DEF_TYPE,
        data: mtrr.def_type,
    });
    out.push(KvmMsrEntry {
        index: msr::MTRR_CAP,
        data: 0x508,
    });
    for (i, idx) in msr::MTRR_FIXED.iter().enumerate() {
        out.push(KvmMsrEntry {
            index: *idx,
            data: mtrr.fixed[i],
        });
    }
    for (i, (base, mask)) in mtrr.variable.iter().take(8).enumerate() {
        out.push(KvmMsrEntry {
            index: msr::MTRR_PHYS_BASE0 + 2 * i as u32,
            data: *base,
        });
        out.push(KvmMsrEntry {
            index: msr::MTRR_PHYS_BASE0 + 2 * i as u32 + 1,
            data: *mask,
        });
    }
    out
}

/// `KVM_GET_MSRS` result → UISR (MSR list, MTRR section): the inverse
/// split.
pub(crate) fn msrs_from_kvm(entries: &[KvmMsrEntry]) -> (Vec<MsrEntry>, MtrrState) {
    let mut msrs = Vec::new();
    let mut mtrr = MtrrState {
        def_type: 0,
        fixed: [0; 11],
        variable: vec![(0, 0); 8],
    };
    for e in entries {
        if e.index == msr::MTRR_DEF_TYPE {
            mtrr.def_type = e.data;
        } else if e.index == msr::MTRR_CAP {
            // Capability MSR is host-defined; not carried in UISR.
        } else if let Some(pos) = msr::MTRR_FIXED.iter().position(|&i| i == e.index) {
            mtrr.fixed[pos] = e.data;
        } else if (msr::MTRR_PHYS_BASE0..msr::MTRR_PHYS_BASE0 + 16).contains(&e.index) {
            let off = (e.index - msr::MTRR_PHYS_BASE0) as usize;
            if off.is_multiple_of(2) {
                mtrr.variable[off / 2].0 = e.data;
            } else {
                mtrr.variable[off / 2].1 = e.data;
            }
        } else {
            msrs.push(MsrEntry {
                index: e.index,
                data: e.data,
            });
        }
    }
    (msrs, mtrr)
}

/// UISR IOAPIC → KVM's 24-pin in-kernel IOAPIC, truncating if needed (the
/// §4.2.1 compatibility fix).
pub(crate) fn ioapic_to_kvm(io: &IoApicState, warnings: &mut Vec<String>) -> KvmIoapicState {
    let mut redirtbl = [1u64 << 16; KVM_IOAPIC_NUM_PINS];
    if io.pins() > KVM_IOAPIC_NUM_PINS {
        let dropped_active = io.redirection[KVM_IOAPIC_NUM_PINS..]
            .iter()
            .filter(|e| !e.masked)
            .count();
        warnings.push(format!(
            "IOAPIC pins {}..{} disconnected ({} were unmasked)",
            KVM_IOAPIC_NUM_PINS,
            io.pins(),
            dropped_active
        ));
    }
    for (i, e) in io.redirection.iter().take(KVM_IOAPIC_NUM_PINS).enumerate() {
        redirtbl[i] = rte_pack(e);
    }
    KvmIoapicState {
        base_address: io.base,
        id: io.id,
        redirtbl,
    }
}

/// KVM's IOAPIC → the UISR section (24 pins; Xen's `from_uisr` expands).
pub(crate) fn ioapic_from_kvm(k: &KvmIoapicState) -> IoApicState {
    IoApicState {
        id: k.id,
        base: k.base_address,
        redirection: k.redirtbl.iter().map(|&r| rte_unpack(r)).collect(),
    }
}

/// UISR PIT → `kvm_pit_state2`.
pub(crate) fn pit_to_kvm(p: &PitState) -> KvmPitState2 {
    let mut channels = [KvmPitChannelState::default(); 3];
    for (i, c) in p.channels.iter().enumerate() {
        channels[i] = KvmPitChannelState {
            count: c.count,
            latched_count: c.latched_count,
            status: c.status,
            read_state: c.read_state,
            write_state: c.write_state,
            mode: c.mode,
            bcd: c.bcd as u8,
            gate: c.gate as u8,
            ..KvmPitChannelState::default()
        };
    }
    KvmPitState2 {
        channels,
        flags: p.speaker as u32,
    }
}

/// `kvm_pit_state2` → UISR PIT.
pub(crate) fn pit_from_kvm(k: &KvmPitState2) -> PitState {
    let mut p = PitState::default();
    for (i, c) in k.channels.iter().enumerate() {
        p.channels[i] = hypertp_uisr::PitChannel {
            count: c.count,
            latched_count: c.latched_count,
            status: c.status,
            read_state: c.read_state,
            write_state: c.write_state,
            mode: c.mode,
            bcd: c.bcd != 0,
            gate: c.gate != 0,
        };
    }
    p.speaker = k.flags as u8;
    p
}

/// Pre-flight compatibility validator for KVM as a transplant target:
/// reports every translation that would be lossy *before* the source
/// commits to the micro-reboot (used by the engine's strict mode).
pub fn preflight_validate(uisr: &hypertp_uisr::UisrVm) -> Vec<String> {
    let mut issues = Vec::new();
    let active_high = uisr
        .redirection_beyond(KVM_IOAPIC_NUM_PINS)
        .filter(|e| !e.masked)
        .count();
    if active_high > 0 {
        issues.push(format!(
            "{active_high} unmasked IOAPIC pin(s) above pin {KVM_IOAPIC_NUM_PINS}              would be disconnected"
        ));
    }
    for v in &uisr.vcpus {
        if v.lapic_regs.len() > 1024 {
            issues.push(format!(
                "vCPU {} LAPIC page is {} bytes; KVM_SET_LAPIC takes 1024",
                v.id,
                v.lapic_regs.len()
            ));
        }
    }
    issues
}

/// Asserts pin-count invariant for documentation purposes.
pub(crate) const _PIN_ASSERT: () = assert!(KVM_IOAPIC_NUM_PINS == KVM_IOAPIC_PINS);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regs_roundtrip_with_reorder() {
        let u = CpuRegisters {
            rax: 1,
            rbx: 2,
            rcx: 3,
            rdx: 4,
            rsi: 5,
            rdi: 6,
            rsp: 7,
            rbp: 8,
            r8: 9,
            r15: 16,
            rip: 0x1000,
            rflags: 0x202,
            ..CpuRegisters::default()
        };
        let k = regs_to_kvm(&u);
        // KVM order: rsi at index 4, rbp at index 7.
        assert_eq!(k.gprs[4], 5);
        assert_eq!(k.gprs[7], 8);
        assert_eq!(regs_from_kvm(&k), u);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn sregs_roundtrip() {
        let mut s = SpecialRegisters::default();
        s.cs.selector = 0x10;
        s.cs.l = true;
        s.cs.present = true;
        s.cr3 = 0xdead000;
        s.efer = 0xd01;
        s.gdt.base = 0xffff_8880_0000_0000;
        s.gdt.limit = 127;
        let back = sregs_from_kvm(&sregs_to_kvm(&s));
        assert_eq!(back, s);
    }

    #[test]
    fn unusable_tracks_present() {
        let mut s = SegmentRegister {
            present: false,
            ..SegmentRegister::default()
        };
        assert_eq!(seg_to_kvm(&s).unusable, 1);
        s.present = true;
        assert_eq!(seg_to_kvm(&s).unusable, 0);
    }

    #[test]
    fn fpu_roundtrip_modulo_mxcsr_mask() {
        let mut f = FpuState::default();
        f.st[2] = [3; 16];
        f.xmm[9] = [9; 16];
        f.mxcsr = 0x1fa0;
        f.mxcsr_mask = 0xffff; // architectural default survives
        let back = fpu_from_kvm(&fpu_to_kvm(&f));
        assert_eq!(back, f);
    }

    #[test]
    fn xsave_split_and_merge() {
        let x = XsaveState {
            xcr0: 0x7,
            area: vec![5; 256],
        };
        let (xs, xcrs) = xsave_to_kvm(&x);
        assert_eq!(xcrs.xcrs, vec![(0, 0x7)]);
        assert_eq!(xsave_from_kvm(&xs, &xcrs), x);
    }

    #[test]
    fn mtrr_dissolves_into_msrs() {
        let mut mtrr = MtrrState::default();
        mtrr.variable[0] = (0xc000_0006, 0xffff_c000_0800);
        let kvm_msrs = msrs_to_kvm(&[], &mtrr);
        assert!(kvm_msrs.iter().any(|m| m.index == msr::MTRR_DEF_TYPE));
        assert!(kvm_msrs
            .iter()
            .any(|m| m.index == 0x200 && m.data == 0xc000_0006));
        let (generic, back) = msrs_from_kvm(&kvm_msrs);
        assert!(generic.is_empty());
        assert_eq!(back.def_type, mtrr.def_type);
        assert_eq!(back.fixed, mtrr.fixed);
        assert_eq!(back.variable, mtrr.variable);
    }

    #[test]
    fn generic_msrs_pass_through() {
        let msrs = vec![
            MsrEntry {
                index: msr::LSTAR,
                data: 0x1234,
            },
            MsrEntry {
                index: msr::IA32_TSC,
                data: 999,
            },
        ];
        let kvm_msrs = msrs_to_kvm(&msrs, &MtrrState::default());
        let (generic, _) = msrs_from_kvm(&kvm_msrs);
        assert_eq!(generic, msrs);
    }

    #[test]
    fn ioapic_truncation_warns_and_counts_active() {
        let mut io = IoApicState::default(); // 48 pins.
        io.redirection[30].masked = false;
        io.redirection[30].vector = 0x44;
        io.redirection[3].vector = 0x21;
        let mut warnings = Vec::new();
        let k = ioapic_to_kvm(&io, &mut warnings);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("24..48"));
        assert!(warnings[0].contains("1 were unmasked"));
        assert_eq!(k.redirtbl.len(), 24);
        assert_eq!(rte_unpack(k.redirtbl[3]).vector, 0x21);
        // Back to UISR: 24 pins, data preserved.
        let back = ioapic_from_kvm(&k);
        assert_eq!(back.pins(), 24);
        assert_eq!(back.redirection[3].vector, 0x21);
    }

    #[test]
    fn ioapic_24_pins_no_warning() {
        let mut io = IoApicState::default();
        io.resize_pins(24);
        let mut warnings = Vec::new();
        ioapic_to_kvm(&io, &mut warnings);
        assert!(warnings.is_empty());
    }

    #[test]
    fn pit_roundtrip() {
        let mut p = PitState::default();
        p.channels[0].count = 65535;
        p.channels[1].mode = 2;
        p.speaker = 1;
        assert_eq!(pit_from_kvm(&pit_to_kvm(&p)), p);
    }
}
