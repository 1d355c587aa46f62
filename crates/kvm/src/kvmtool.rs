//! The kvmtool-like userspace VMM.
//!
//! kvmtool owns guest memory (mmap → here: machine extents), registers it
//! as KVM memory slots, models virtio devices, and — per the paper's
//! extension — implements the UISR translation by issuing the
//! corresponding KVM ioctls on save and restore. "Upon restoring a VM, the
//! kvmtool process is therefore responsible for translating each platform
//! device's state to KVM's internal formats, then calling the
//! corresponding KVM IOCTL" (§4.2.1).

use hypertp_core::{hypervisor::config_from_uisr, HtpError, VmConfig, VmState};
use hypertp_machine::{frame_runs, Extent, Gfn, Machine, PageOrder};
use hypertp_sim::SimRng;
use hypertp_uisr::{lapic_page, msr, DeviceState, MemoryRegion, UisrVm, VcpuState as UisrVcpu};

use crate::ioctl::{Errno, KvmLapicState, KvmMsrEntry, KvmRegs};
use crate::kvm::Kvm;
use crate::xlate;

/// Converts an ioctl errno into a framework error.
pub(crate) fn ioctl_err(e: Errno) -> HtpError {
    HtpError::IncompatibleState {
        section: "ioctl",
        detail: e.to_string(),
    }
}

/// One guest as kvmtool sees it.
#[derive(Debug)]
pub(crate) struct GuestVm {
    /// Cross-hypervisor configuration.
    pub config: VmConfig,
    /// Lifecycle state.
    pub state: VmState,
    /// The VM file descriptor.
    pub vm_fd: u32,
    /// vCPU file descriptors, by vCPU index.
    pub vcpu_fds: Vec<u32>,
    /// virtio device models.
    pub devices: Vec<DeviceState>,
    /// Deterministic stream for guest activity.
    pub rng: SimRng,
}

/// Allocates backing extents for `config` and seeds initial contents when
/// `seed` is set (fresh boot) — incoming migrations receive their contents
/// over the wire instead.
fn alloc_backing(
    machine: &mut Machine,
    config: &VmConfig,
    seed: bool,
) -> Result<Vec<Extent>, HtpError> {
    let order = if config.huge_pages {
        PageOrder(9)
    } else {
        PageOrder(0)
    };
    let chunks = config.pages() / order.pages();
    let mut backing = Vec::with_capacity(chunks as usize);
    for i in 0..chunks {
        let e = machine.ram_mut().alloc(order)?;
        if seed {
            let s = config.name.bytes().fold(0x004b_564du64, |a, b| {
                a.wrapping_mul(33).wrapping_add(b as u64)
            });
            machine
                .ram_mut()
                .write(e.base, s ^ (i * order.pages()).wrapping_mul(0x517c))?;
        }
        backing.push(e);
    }
    Ok(backing)
}

/// Builds the virtio device set for a config.
fn devices_for(config: &VmConfig) -> Vec<DeviceState> {
    let mut devices = Vec::new();
    if config.has_network {
        devices.push(DeviceState::Network {
            mac: [0x52, 0x54, 0x00, 0, 0, 1], // QEMU/KVM OUI.
            unplugged: false,
        });
    }
    devices.push(DeviceState::Block {
        backend: config.storage_backend.clone(),
        sectors: config.memory_gb * (1 << 30) / 512,
        pending_requests: 0,
    });
    devices.push(DeviceState::Console { tx_buffered: 0 });
    devices
}

/// Creates a guest: VM fd, memory slot, irqchip, PIT, vCPUs with
/// architectural initial state.
pub(crate) fn create_guest(
    kvm: &mut Kvm,
    machine: &mut Machine,
    config: &VmConfig,
    seed: bool,
) -> Result<GuestVm, HtpError> {
    let vm_fd = kvm.create_vm();
    let backing = alloc_backing(machine, config, seed)?;
    kvm.set_user_memory_region(vm_fd, 0, 0, backing)
        .map_err(ioctl_err)?;
    kvm.create_irqchip(vm_fd).map_err(ioctl_err)?;
    kvm.create_pit2(vm_fd).map_err(ioctl_err)?;
    let mut vcpu_fds = Vec::new();
    for i in 0..config.vcpus {
        let fd = kvm.create_vcpu(vm_fd).map_err(ioctl_err)?;
        init_vcpu(kvm, vm_fd, fd, i)?;
        vcpu_fds.push(fd);
    }
    Ok(GuestVm {
        config: config.clone(),
        state: VmState::Running,
        vm_fd,
        vcpu_fds,
        devices: devices_for(config),
        rng: SimRng::new(vm_fd as u64 * 0x9e37 + 7),
    })
}

/// Puts a fresh vCPU in 64-bit flat state via ioctls.
// Field-by-field setup mirrors kvmtool's kvm_cpu__reset_vcpu.
#[allow(clippy::field_reassign_with_default)]
fn init_vcpu(kvm: &mut Kvm, vm_fd: u32, vcpu_fd: u32, apic_id: u32) -> Result<(), HtpError> {
    let mut regs = KvmRegs::default();
    regs.rip = 0x0010_0000;
    regs.rflags = 0x2;
    kvm.set_regs(vm_fd, vcpu_fd, regs).map_err(ioctl_err)?;
    let mut sregs = kvm.get_sregs(vm_fd, vcpu_fd).map_err(ioctl_err)?;
    sregs.cr0 = 0x8000_0031;
    sregs.cr3 = 0x1000;
    sregs.cr4 = 0x6a0;
    sregs.efer = 0xd01;
    sregs.apic_base = 0xfee0_0000 | (1 << 11) | if apic_id == 0 { 1 << 8 } else { 0 };
    for seg in [
        &mut sregs.cs,
        &mut sregs.ds,
        &mut sregs.es,
        &mut sregs.fs,
        &mut sregs.gs,
        &mut sregs.ss,
        &mut sregs.tr,
        &mut sregs.ldt,
    ] {
        seg.present = 1;
        seg.s = 1;
        seg.g = 1;
        seg.limit = 0xffff_ffff;
    }
    sregs.cs.l = 1;
    sregs.cs.type_ = 0xb;
    kvm.set_sregs(vm_fd, vcpu_fd, sregs).map_err(ioctl_err)?;
    kvm.set_msrs(
        vm_fd,
        vcpu_fd,
        &[
            KvmMsrEntry {
                index: msr::IA32_EFER,
                data: 0xd01,
            },
            KvmMsrEntry {
                index: msr::IA32_PAT,
                data: 0x0007_0406_0007_0406,
            },
            KvmMsrEntry {
                index: msr::MTRR_DEF_TYPE,
                data: 0x0c06,
            },
        ],
    )
    .map_err(ioctl_err)?;
    let mut lapic = KvmLapicState::default();
    lapic_page::set_apic_id(&mut lapic.regs, apic_id);
    lapic_page::write32(&mut lapic.regs, lapic_page::OFF_SVR, 0x1ff);
    kvm.set_lapic(vm_fd, vcpu_fd, lapic).map_err(ioctl_err)?;
    kvm.set_xcrs(
        vm_fd,
        vcpu_fd,
        crate::ioctl::KvmXcrs {
            xcrs: vec![(0, 0x7)],
        },
    )
    .map_err(ioctl_err)?;
    kvm.set_xsave(
        vm_fd,
        vcpu_fd,
        crate::ioctl::KvmXsave {
            region: vec![0; hypertp_uisr::state::XSAVE_AREA_SIZE],
        },
    )
    .map_err(ioctl_err)?;
    Ok(())
}

/// KVM → UISR: queries every state container over ioctls and assembles the
/// UISR description.
pub fn save_uisr(kvm: &Kvm, guest: &GuestVm) -> Result<UisrVm, HtpError> {
    hypertp_core::devices::check_quiesced(&guest.devices)?;
    let mut vm = UisrVm::new(guest.config.name.clone());
    let indices = xlate::saved_msr_indices();
    for (i, &fd) in guest.vcpu_fds.iter().enumerate() {
        let regs = kvm.get_regs(guest.vm_fd, fd).map_err(ioctl_err)?;
        let sregs = kvm.get_sregs(guest.vm_fd, fd).map_err(ioctl_err)?;
        let fpu = kvm.get_fpu(guest.vm_fd, fd).map_err(ioctl_err)?;
        let xsave = kvm.get_xsave(guest.vm_fd, fd).map_err(ioctl_err)?;
        let xcrs = kvm.get_xcrs(guest.vm_fd, fd).map_err(ioctl_err)?;
        let lapic = kvm.get_lapic(guest.vm_fd, fd).map_err(ioctl_err)?;
        let kvm_msrs = kvm.get_msrs(guest.vm_fd, fd, &indices).map_err(ioctl_err)?;
        let (msrs, mtrr) = xlate::msrs_from_kvm(&kvm_msrs);
        let uisr_sregs = xlate::sregs_from_kvm(&sregs);
        vm.vcpus.push(UisrVcpu {
            id: i as u32,
            regs: xlate::regs_from_kvm(&regs),
            sregs: uisr_sregs,
            fpu: xlate::fpu_from_kvm(&fpu),
            msrs,
            xsave: xlate::xsave_from_kvm(&xsave, &xcrs),
            lapic: lapic_page::summarize(&lapic.regs, sregs.apic_base),
            lapic_regs: lapic.regs,
            mtrr,
        });
    }
    let irqchip = kvm.get_irqchip(guest.vm_fd).map_err(ioctl_err)?;
    vm.ioapic = xlate::ioapic_from_kvm(&irqchip);
    vm.pit = xlate::pit_from_kvm(&kvm.get_pit2(guest.vm_fd).map_err(ioctl_err)?);
    // §4.2.3: unplug network devices before the transplant.
    vm.devices = guest
        .devices
        .iter()
        .map(|d| match d {
            DeviceState::Network { mac, .. } => DeviceState::Network {
                mac: *mac,
                unplugged: true,
            },
            other => other.clone(),
        })
        .collect();
    for slot in kvm.slots(guest.vm_fd).map_err(ioctl_err)? {
        vm.memory.regions.push(MemoryRegion {
            gfn_start: slot.guest_phys_addr / 4096,
            pages: slot.memory_size / 4096,
        });
    }
    vm.memory.pram_file = Some(guest.config.name.clone());
    Ok(vm)
}

/// UISR → KVM: translates each section and applies it through the
/// corresponding ioctl. Returns compatibility warnings.
pub fn restore_uisr(
    kvm: &mut Kvm,
    guest: &GuestVm,
    uisr: &UisrVm,
) -> Result<Vec<String>, HtpError> {
    let mut warnings = Vec::new();
    for (v, &fd) in uisr.vcpus.iter().zip(&guest.vcpu_fds) {
        kvm.set_regs(guest.vm_fd, fd, xlate::regs_to_kvm(&v.regs))
            .map_err(ioctl_err)?;
        kvm.set_sregs(guest.vm_fd, fd, xlate::sregs_to_kvm(&v.sregs))
            .map_err(ioctl_err)?;
        kvm.set_fpu(guest.vm_fd, fd, xlate::fpu_to_kvm(&v.fpu))
            .map_err(ioctl_err)?;
        let (xsave, xcrs) = xlate::xsave_to_kvm(&v.xsave);
        kvm.set_xsave(guest.vm_fd, fd, xsave).map_err(ioctl_err)?;
        kvm.set_xcrs(guest.vm_fd, fd, xcrs).map_err(ioctl_err)?;
        kvm.set_msrs(guest.vm_fd, fd, &xlate::msrs_to_kvm(&v.msrs, &v.mtrr))
            .map_err(ioctl_err)?;
        let mut lapic = KvmLapicState {
            regs: v.lapic_regs.clone(),
        };
        if lapic.regs.len() != 1024 {
            lapic.regs.resize(1024, 0);
        }
        lapic_page::apply(&mut lapic.regs, &v.lapic);
        kvm.set_lapic(guest.vm_fd, fd, lapic).map_err(ioctl_err)?;
    }
    if uisr.vcpus.len() != guest.vcpu_fds.len() {
        return Err(HtpError::IncompatibleState {
            section: "CPU",
            detail: format!(
                "UISR has {} vCPUs, shell has {}",
                uisr.vcpus.len(),
                guest.vcpu_fds.len()
            ),
        });
    }
    kvm.set_irqchip(
        guest.vm_fd,
        xlate::ioapic_to_kvm(&uisr.ioapic, &mut warnings),
    )
    .map_err(ioctl_err)?;
    kvm.set_pit2(guest.vm_fd, xlate::pit_to_kvm(&uisr.pit))
        .map_err(ioctl_err)?;
    Ok(warnings)
}

/// InPlaceTP adoption: registers the in-place PRAM frames as memory slots
/// (one per contiguous GFN run), creates the vCPU shells, and applies the
/// UISR state.
pub(crate) fn adopt_guest(
    kvm: &mut Kvm,
    machine: &mut Machine,
    uisr: &UisrVm,
    mappings: &[(Gfn, Extent)],
) -> Result<(GuestVm, Vec<String>), HtpError> {
    let huge = mappings
        .first()
        .map(|(_, e)| e.order.0 >= 9)
        .unwrap_or(true);
    let config = config_from_uisr(uisr, huge);
    let vm_fd = kvm.create_vm();
    for (base, pages) in frame_runs(mappings.iter().map(|&(_, e)| e)) {
        machine.ram_mut().adopt_reserved(base, pages)?;
    }
    // Group mappings into contiguous GFN runs -> one slot each. The guest
    // memory is mapped into the VMM with mmap and handed to KVM (§4.2.2).
    let mut slot = 0u32;
    let mut run_start: Option<u64> = None;
    let mut next_gfn = 0u64;
    let mut backing: Vec<Extent> = Vec::new();
    let flush = |kvm: &mut Kvm,
                 start: Option<u64>,
                 backing: &mut Vec<Extent>,
                 slot: &mut u32|
     -> Result<(), HtpError> {
        if let Some(s) = start {
            kvm.set_user_memory_region(vm_fd, *slot, s * 4096, std::mem::take(backing))
                .map_err(ioctl_err)?;
            *slot += 1;
        }
        Ok(())
    };
    for (gfn, e) in mappings {
        if run_start.is_none() || gfn.0 != next_gfn {
            flush(kvm, run_start.take(), &mut backing, &mut slot)?;
            run_start = Some(gfn.0);
        }
        backing.push(*e);
        next_gfn = gfn.0 + e.pages();
    }
    flush(kvm, run_start, &mut backing, &mut slot)?;
    kvm.create_irqchip(vm_fd).map_err(ioctl_err)?;
    kvm.create_pit2(vm_fd).map_err(ioctl_err)?;
    let mut vcpu_fds = Vec::new();
    for _ in 0..uisr.vcpus.len() {
        vcpu_fds.push(kvm.create_vcpu(vm_fd).map_err(ioctl_err)?);
    }
    let guest = GuestVm {
        config,
        state: VmState::Paused,
        vm_fd,
        vcpu_fds,
        devices: uisr
            .devices
            .iter()
            .map(|d| match d {
                DeviceState::Network { mac, .. } => DeviceState::Network {
                    mac: *mac,
                    unplugged: false, // Rescanned during restoration.
                },
                other => other.clone(),
            })
            .collect(),
        rng: SimRng::new(vm_fd as u64 * 0x51_7c + 3),
    };
    let warnings = restore_uisr(kvm, &guest, uisr)?;
    Ok((guest, warnings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertp_machine::MachineSpec;

    fn machine() -> Machine {
        let mut spec = MachineSpec::m1();
        spec.ram_gb = 4;
        Machine::new(spec)
    }

    #[test]
    fn create_guest_wires_everything() {
        let mut m = machine();
        let mut kvm = Kvm::new();
        let g = create_guest(
            &mut kvm,
            &mut m,
            &VmConfig::small("vm0").with_vcpus(2),
            true,
        )
        .unwrap();
        assert_eq!(g.vcpu_fds.len(), 2);
        assert!(kvm.get_irqchip(g.vm_fd).is_ok());
        assert!(kvm.get_pit2(g.vm_fd).is_ok());
        assert_eq!(kvm.slots(g.vm_fd).unwrap().len(), 1);
        assert_eq!(kvm.slots(g.vm_fd).unwrap()[0].memory_size, 1 << 30);
        // vCPU 0 got the BSP bit.
        let sregs = kvm.get_sregs(g.vm_fd, g.vcpu_fds[0]).unwrap();
        assert_ne!(sregs.apic_base & (1 << 8), 0);
        let sregs1 = kvm.get_sregs(g.vm_fd, g.vcpu_fds[1]).unwrap();
        assert_eq!(sregs1.apic_base & (1 << 8), 0);
    }

    #[test]
    fn save_restore_uisr_roundtrip() {
        let mut m = machine();
        let mut kvm = Kvm::new();
        let g = create_guest(&mut kvm, &mut m, &VmConfig::small("vm0"), true).unwrap();
        // Perturb state.
        let mut regs = kvm.get_regs(g.vm_fd, g.vcpu_fds[0]).unwrap();
        regs.rip = 0xffff_8000_1234_0000;
        regs.gprs[4] = 0x5151; // rsi in KVM order.
        kvm.set_regs(g.vm_fd, g.vcpu_fds[0], regs).unwrap();
        let u = save_uisr(&kvm, &g).unwrap();
        assert_eq!(u.vcpus[0].regs.rsi, 0x5151);
        assert_eq!(u.ioapic.pins(), 24);
        assert_eq!(u.memory.total_pages(), 262_144);

        // Restore into a second guest.
        let g2 = create_guest(&mut kvm, &mut m, &VmConfig::small("vm1"), false).unwrap();
        let warnings = restore_uisr(&mut kvm, &g2, &u).unwrap();
        assert!(warnings.is_empty());
        let r2 = kvm.get_regs(g2.vm_fd, g2.vcpu_fds[0]).unwrap();
        assert_eq!(r2.rip, 0xffff_8000_1234_0000);
        assert_eq!(r2.gprs[4], 0x5151);
    }

    #[test]
    fn vcpu_count_mismatch_detected() {
        let mut m = machine();
        let mut kvm = Kvm::new();
        let g = create_guest(&mut kvm, &mut m, &VmConfig::small("vm0"), true).unwrap();
        let mut u = save_uisr(&kvm, &g).unwrap();
        u.vcpus.push(u.vcpus[0].clone());
        assert!(matches!(
            restore_uisr(&mut kvm, &g, &u),
            Err(HtpError::IncompatibleState { section: "CPU", .. })
        ));
    }
}
