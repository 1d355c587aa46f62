//! Xen's `to_uisr_*` / `from_uisr_*` translation functions (§3.1).
//!
//! The save direction starts from the HVM context byte stream (what
//! `xc_domain_hvm_getcontext` returns through libxenctrl) and produces UISR
//! sections per Table 2; the restore direction rebuilds Xen's containers
//! from UISR. The interesting conversions:
//!
//! * VMX-packed `arbytes` ⇄ exploded segment attributes;
//! * inline syscall MSRs in `hvm_hw_cpu` ⇄ the UISR MSR list;
//! * the raw FXSAVE image ⇄ the exploded UISR FPU state;
//! * architecturally packed 64-bit IOAPIC RTEs ⇄ UISR entries, including
//!   the 48⇄24-pin compatibility fix of §4.2.1;
//! * PAT travelling inside Xen's MTRR record but in the UISR MSR list.

use hypertp_uisr::state::XEN_IOAPIC_PINS;
use hypertp_uisr::{
    lapic_page, msr, CpuRegisters, IoApicState, MsrEntry, MtrrState, PitState, SegmentRegister,
    SpecialRegisters, UisrVm, VcpuState, XsaveState,
};

use crate::arbytes;
use crate::domain::XenVcpu;
use crate::hvm_context::HvmRecord;
use crate::hvm_types::{
    self, HvmHwCpu, HvmHwIoapic, HvmHwLapic, HvmHwMtrr, HvmHwPit, HvmHwXsave, HvmSegment, SEG_CS,
    SEG_DS, SEG_ES, SEG_FS, SEG_GS, SEG_LDTR, SEG_SS, SEG_TR,
};

fn seg_to_uisr(s: &HvmSegment) -> SegmentRegister {
    let mut seg = arbytes::unpack(s.arbytes);
    seg.base = s.base;
    seg.limit = s.limit;
    seg.selector = s.sel as u16;
    seg
}

fn seg_from_uisr(s: &SegmentRegister) -> HvmSegment {
    HvmSegment {
        sel: s.selector as u32,
        limit: s.limit,
        base: s.base,
        arbytes: arbytes::pack(s),
    }
}

/// Translates one vCPU's Xen containers into the UISR vCPU section
/// (`to_uisr_vCPU`).
pub(crate) fn vcpu_to_uisr(id: u32, v: &XenVcpu) -> VcpuState {
    let hw = &v.hw;
    let regs = CpuRegisters {
        rax: hw.gprs[0],
        rbx: hw.gprs[1],
        rcx: hw.gprs[2],
        rdx: hw.gprs[3],
        rbp: hw.gprs[4],
        rsi: hw.gprs[5],
        rdi: hw.gprs[6],
        rsp: hw.gprs[7],
        r8: hw.gprs[8],
        r9: hw.gprs[9],
        r10: hw.gprs[10],
        r11: hw.gprs[11],
        r12: hw.gprs[12],
        r13: hw.gprs[13],
        r14: hw.gprs[14],
        r15: hw.gprs[15],
        rip: hw.rip,
        rflags: hw.rflags,
    };
    let sregs = SpecialRegisters {
        cs: seg_to_uisr(&hw.segs[SEG_CS]),
        ds: seg_to_uisr(&hw.segs[SEG_DS]),
        es: seg_to_uisr(&hw.segs[SEG_ES]),
        fs: seg_to_uisr(&hw.segs[SEG_FS]),
        gs: seg_to_uisr(&hw.segs[SEG_GS]),
        ss: seg_to_uisr(&hw.segs[SEG_SS]),
        tr: seg_to_uisr(&hw.segs[SEG_TR]),
        ldt: seg_to_uisr(&hw.segs[SEG_LDTR]),
        gdt: hypertp_uisr::DescriptorTable {
            base: hw.gdtr_base,
            limit: hw.gdtr_limit as u16,
        },
        idt: hypertp_uisr::DescriptorTable {
            base: hw.idtr_base,
            limit: hw.idtr_limit as u16,
        },
        cr0: hw.crs[0],
        cr2: hw.crs[1],
        cr3: hw.crs[2],
        cr4: hw.crs[3],
        cr8: (lapic_page::tpr(&v.lapic_regs) >> 4) as u64,
        efer: hw.msr_efer,
        apic_base: v.lapic.apic_base_msr,
    };
    let mut msrs: Vec<MsrEntry> = Vec::new();
    msr::set(&mut msrs, msr::IA32_EFER, hw.msr_efer);
    msr::set(&mut msrs, msr::STAR, hw.msr_star);
    msr::set(&mut msrs, msr::LSTAR, hw.msr_lstar);
    msr::set(&mut msrs, msr::CSTAR, hw.msr_cstar);
    msr::set(&mut msrs, msr::SFMASK, hw.msr_syscall_mask);
    msr::set(&mut msrs, msr::TSC_AUX, hw.msr_tsc_aux);
    msr::set(&mut msrs, msr::KERNEL_GS_BASE, hw.shadow_gs);
    msr::set(&mut msrs, msr::IA32_TSC, hw.tsc);
    msr::set(&mut msrs, msr::IA32_SYSENTER_CS, hw.sysenter[0]);
    msr::set(&mut msrs, msr::IA32_SYSENTER_ESP, hw.sysenter[1]);
    msr::set(&mut msrs, msr::IA32_SYSENTER_EIP, hw.sysenter[2]);
    msr::set(&mut msrs, msr::IA32_PAT, v.mtrr.msr_pat_cr);
    msr::set(&mut msrs, msr::IA32_APIC_BASE, v.lapic.apic_base_msr);
    VcpuState {
        id,
        regs,
        sregs,
        fpu: hvm_types::fxsave_unpack(&v.hw.fpu_regs),
        msrs,
        xsave: XsaveState {
            xcr0: v.xsave.xcr0,
            area: v.xsave.area.clone(),
        },
        lapic: lapic_page::summarize(&v.lapic_regs, v.lapic.apic_base_msr),
        lapic_regs: v.lapic_regs.clone(),
        mtrr: MtrrState {
            def_type: v.mtrr.msr_mtrr_def_type,
            fixed: v.mtrr.msr_mtrr_fixed,
            variable: v
                .mtrr
                .msr_mtrr_var
                .chunks(2)
                .map(|p| (p[0], p[1]))
                .collect(),
        },
    }
}

/// Rebuilds a Xen vCPU from a UISR vCPU section (`from_uisr_vCPU`).
pub(crate) fn vcpu_from_uisr(v: &VcpuState) -> XenVcpu {
    let mut hw = HvmHwCpu::default();
    let r = &v.regs;
    hw.gprs = [
        r.rax, r.rbx, r.rcx, r.rdx, r.rbp, r.rsi, r.rdi, r.rsp, r.r8, r.r9, r.r10, r.r11, r.r12,
        r.r13, r.r14, r.r15,
    ];
    hw.rip = r.rip;
    hw.rflags = r.rflags;
    hw.crs = [v.sregs.cr0, v.sregs.cr2, v.sregs.cr3, v.sregs.cr4];
    hw.segs[SEG_CS] = seg_from_uisr(&v.sregs.cs);
    hw.segs[SEG_DS] = seg_from_uisr(&v.sregs.ds);
    hw.segs[SEG_ES] = seg_from_uisr(&v.sregs.es);
    hw.segs[SEG_FS] = seg_from_uisr(&v.sregs.fs);
    hw.segs[SEG_GS] = seg_from_uisr(&v.sregs.gs);
    hw.segs[SEG_SS] = seg_from_uisr(&v.sregs.ss);
    hw.segs[SEG_TR] = seg_from_uisr(&v.sregs.tr);
    hw.segs[SEG_LDTR] = seg_from_uisr(&v.sregs.ldt);
    hw.gdtr_base = v.sregs.gdt.base;
    hw.gdtr_limit = v.sregs.gdt.limit as u32;
    hw.idtr_base = v.sregs.idt.base;
    hw.idtr_limit = v.sregs.idt.limit as u32;
    hw.msr_efer = msr::find(&v.msrs, msr::IA32_EFER).unwrap_or(v.sregs.efer);
    hw.msr_star = msr::find(&v.msrs, msr::STAR).unwrap_or(0);
    hw.msr_lstar = msr::find(&v.msrs, msr::LSTAR).unwrap_or(0);
    hw.msr_cstar = msr::find(&v.msrs, msr::CSTAR).unwrap_or(0);
    hw.msr_syscall_mask = msr::find(&v.msrs, msr::SFMASK).unwrap_or(0);
    hw.msr_tsc_aux = msr::find(&v.msrs, msr::TSC_AUX).unwrap_or(0);
    hw.shadow_gs = msr::find(&v.msrs, msr::KERNEL_GS_BASE).unwrap_or(0);
    hw.tsc = msr::find(&v.msrs, msr::IA32_TSC).unwrap_or(0);
    hw.sysenter = [
        msr::find(&v.msrs, msr::IA32_SYSENTER_CS).unwrap_or(0),
        msr::find(&v.msrs, msr::IA32_SYSENTER_ESP).unwrap_or(0),
        msr::find(&v.msrs, msr::IA32_SYSENTER_EIP).unwrap_or(0),
    ];
    hw.fpu_regs = hvm_types::fxsave_pack(&v.fpu);

    let mut lapic_regs = v.lapic_regs.clone();
    if lapic_regs.len() < hypertp_uisr::state::LAPIC_REGS_SIZE {
        lapic_regs.resize(hypertp_uisr::state::LAPIC_REGS_SIZE, 0);
    }
    lapic_page::apply(&mut lapic_regs, &v.lapic);

    let mut mtrr_var = [0u64; 16];
    for (i, (base, mask)) in v.mtrr.variable.iter().take(8).enumerate() {
        mtrr_var[i * 2] = *base;
        mtrr_var[i * 2 + 1] = *mask;
    }
    XenVcpu {
        hw,
        lapic: HvmHwLapic {
            apic_base_msr: v.lapic.apic_base_msr,
            disabled: 0,
            timer_divisor: v.lapic.timer_divide as u32,
            tdt_msr: 0,
        },
        lapic_regs,
        mtrr: HvmHwMtrr {
            msr_pat_cr: msr::find(&v.msrs, msr::IA32_PAT).unwrap_or(0x0007_0406_0007_0406),
            msr_mtrr_var: mtrr_var,
            msr_mtrr_fixed: v.mtrr.fixed,
            msr_mtrr_cap: 0x508,
            msr_mtrr_def_type: v.mtrr.def_type,
        },
        xsave: HvmHwXsave {
            xcr0: v.xsave.xcr0,
            xcr0_accum: v.xsave.xcr0,
            area: v.xsave.area.clone(),
        },
    }
}

/// Translates Xen's IOAPIC record to the UISR section.
pub(crate) fn ioapic_to_uisr(io: &HvmHwIoapic) -> IoApicState {
    IoApicState {
        id: io.id,
        base: io.base_address,
        redirection: io
            .redirtbl
            .iter()
            .map(|&r| hvm_types::rte_unpack(r))
            .collect(),
    }
}

/// Rebuilds Xen's 48-pin IOAPIC from UISR, applying the §4.2.1
/// compatibility fix when the source hypervisor had fewer pins.
pub(crate) fn ioapic_from_uisr(io: &IoApicState, warnings: &mut Vec<String>) -> HvmHwIoapic {
    let mut entries = io.redirection.clone();
    if entries.len() != XEN_IOAPIC_PINS {
        warnings.push(format!(
            "IOAPIC resized from {} to {} pins; new pins come up masked",
            entries.len(),
            XEN_IOAPIC_PINS
        ));
        entries.resize(
            XEN_IOAPIC_PINS,
            hypertp_uisr::RedirectionEntry {
                masked: true,
                ..Default::default()
            },
        );
    }
    HvmHwIoapic {
        base_address: io.base,
        ioregsel: 0,
        id: io.id,
        redirtbl: entries.iter().map(hvm_types::rte_pack).collect(),
    }
}

/// Translates Xen's PIT record to the UISR section.
pub(crate) fn pit_to_uisr(p: &HvmHwPit) -> PitState {
    PitState {
        channels: [
            hvm_types::pit_channel_to_uisr(&p.channels[0]),
            hvm_types::pit_channel_to_uisr(&p.channels[1]),
            hvm_types::pit_channel_to_uisr(&p.channels[2]),
        ],
        speaker: p.speaker_data_on,
    }
}

/// Rebuilds Xen's PIT record from UISR.
pub(crate) fn pit_from_uisr(p: &PitState) -> HvmHwPit {
    HvmHwPit {
        channels: [
            hvm_types::pit_channel_from_uisr(&p.channels[0]),
            hvm_types::pit_channel_from_uisr(&p.channels[1]),
            hvm_types::pit_channel_from_uisr(&p.channels[2]),
        ],
        speaker_data_on: p.speaker,
    }
}

/// Assembles a UISR VM description from parsed HVM context records
/// (platform part of `to_uisr_*`; the caller adds devices and memory).
pub(crate) fn records_to_uisr(name: &str, records: &[HvmRecord]) -> UisrVm {
    let mut vm = UisrVm::new(name);
    // Group per-vCPU records by instance.
    let mut per_vcpu: std::collections::BTreeMap<u16, XenVcpu> = std::collections::BTreeMap::new();
    fn entry(m: &mut std::collections::BTreeMap<u16, XenVcpu>, i: u16) -> &mut XenVcpu {
        m.entry(i).or_insert_with(|| XenVcpu::reset(i as u32))
    }
    for rec in records {
        match rec {
            HvmRecord::Cpu(i, c) => entry(&mut per_vcpu, *i).hw = (**c).clone(),
            HvmRecord::Lapic(i, l) => entry(&mut per_vcpu, *i).lapic = *l,
            HvmRecord::LapicRegs(i, p) => entry(&mut per_vcpu, *i).lapic_regs = p.clone(),
            HvmRecord::Mtrr(i, m) => entry(&mut per_vcpu, *i).mtrr = (**m).clone(),
            HvmRecord::Xsave(i, x) => entry(&mut per_vcpu, *i).xsave = x.clone(),
            HvmRecord::Ioapic(io) => vm.ioapic = ioapic_to_uisr(io),
            HvmRecord::Pit(p) => vm.pit = pit_to_uisr(p),
            HvmRecord::Header(_) => {}
        }
    }
    for (i, v) in per_vcpu {
        vm.vcpus.push(vcpu_to_uisr(i as u32, &v));
    }
    vm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_vcpu() -> XenVcpu {
        let mut v = XenVcpu::reset(2);
        v.hw.gprs[0] = 0x1111;
        v.hw.gprs[15] = 0xffff;
        v.hw.rip = 0xffff_8000_dead_beef;
        v.hw.msr_lstar = 0xffff_8000_0080_0000;
        v.hw.tsc = 123_456_789;
        v.hw.fpu_regs[40] = 0x55; // st0 data
        v.xsave.area[100] = 9;
        lapic_page::set_tpr(&mut v.lapic_regs, 0x40);
        lapic_page::write32(&mut v.lapic_regs, lapic_page::OFF_TMICT, 5000);
        v.lapic.timer_divisor = 3;
        lapic_page::write32(&mut v.lapic_regs, lapic_page::OFF_TDCR, 3);
        v.mtrr.msr_mtrr_var[0] = 0xc000_0006;
        v.mtrr.msr_mtrr_var[1] = 0xffff_c000_0800;
        v
    }

    #[test]
    fn vcpu_roundtrip_via_uisr() {
        let v = busy_vcpu();
        let u = vcpu_to_uisr(2, &v);
        assert_eq!(u.regs.rax, 0x1111);
        assert_eq!(u.regs.r15, 0xffff);
        assert_eq!(msr::find(&u.msrs, msr::LSTAR), Some(0xffff_8000_0080_0000));
        assert_eq!(u.sregs.cr8, 0x4, "CR8 mirrors TPR[7:4]");
        assert_eq!(u.lapic.timer_initial, 5000);
        assert_eq!(u.mtrr.variable[0], (0xc000_0006, 0xffff_c000_0800));
        let back = vcpu_from_uisr(&u);
        assert_eq!(back.hw, v.hw);
        assert_eq!(back.lapic.apic_base_msr, v.lapic.apic_base_msr);
        assert_eq!(back.lapic.timer_divisor, v.lapic.timer_divisor);
        assert_eq!(back.lapic_regs, v.lapic_regs);
        assert_eq!(back.mtrr.msr_mtrr_var, v.mtrr.msr_mtrr_var);
        assert_eq!(back.mtrr.msr_mtrr_fixed, v.mtrr.msr_mtrr_fixed);
        assert_eq!(back.xsave.area, v.xsave.area);
    }

    #[test]
    fn ioapic_24_to_48_expansion_warns() {
        let mut io = IoApicState::default();
        io.resize_pins(24);
        io.redirection[5].vector = 0x21;
        let mut warnings = Vec::new();
        let xen_io = ioapic_from_uisr(&io, &mut warnings);
        assert_eq!(xen_io.redirtbl.len(), 48);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("24 to 48"));
        assert_eq!(hvm_types::rte_unpack(xen_io.redirtbl[5]).vector, 0x21);
        assert!(hvm_types::rte_unpack(xen_io.redirtbl[40]).masked);
    }

    #[test]
    fn ioapic_48_needs_no_warning() {
        let io = IoApicState::default(); // 48 pins.
        let mut warnings = Vec::new();
        ioapic_from_uisr(&io, &mut warnings);
        assert!(warnings.is_empty());
    }

    #[test]
    fn records_to_uisr_groups_vcpus() {
        let v0 = busy_vcpu();
        let mut v1 = XenVcpu::reset(1);
        v1.hw.gprs[0] = 7;
        let records = vec![
            HvmRecord::Cpu(0, Box::new(v0.hw.clone())),
            HvmRecord::LapicRegs(0, v0.lapic_regs.clone()),
            HvmRecord::Lapic(0, v0.lapic),
            HvmRecord::Mtrr(0, Box::new(v0.mtrr.clone())),
            HvmRecord::Xsave(0, v0.xsave.clone()),
            HvmRecord::Cpu(1, Box::new(v1.hw.clone())),
            HvmRecord::Ioapic(HvmHwIoapic::default()),
            HvmRecord::Pit(HvmHwPit::default()),
        ];
        let vm = records_to_uisr("test", &records);
        assert_eq!(vm.vcpus.len(), 2);
        assert_eq!(vm.vcpus[0].regs.rax, 0x1111);
        assert_eq!(vm.vcpus[1].regs.rax, 7);
        assert_eq!(vm.ioapic.pins(), 48);
    }

    #[test]
    fn pit_roundtrip() {
        let mut p = HvmHwPit::default();
        p.channels[0].count = 0x1234;
        p.channels[2].gate = 1;
        p.speaker_data_on = 1;
        let u = pit_to_uisr(&p);
        let back = pit_from_uisr(&u);
        assert_eq!(back.channels[0].count, 0x1234);
        assert_eq!(back.channels[2].gate, 1);
        assert_eq!(back.speaker_data_on, 1);
    }
}
