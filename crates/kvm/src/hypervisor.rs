//! `KvmHypervisor`: the host-Linux + kvmtool view of the KVM host.

use std::collections::BTreeMap;

use hypertp_core::{
    HtpError, Hypervisor, HypervisorKind, MemSepReport, RestoredVm, VmConfig, VmId, VmState,
};
use hypertp_machine::{Extent, Gfn, Machine, PageOrder};
use hypertp_uisr::UisrVm;

use crate::kvm::Kvm;
use crate::kvmtool::{self, ioctl_err, GuestVm};

/// The KVM hypervisor model: the kernel module plus one kvmtool process
/// per guest.
pub struct KvmHypervisor {
    version: String,
    kvm: Kvm,
    guests: BTreeMap<u32, GuestVm>, // keyed by vm_fd.
    /// Host kernel heap: HV State, dies with the micro-reboot.
    heap: Vec<Extent>,
}

impl KvmHypervisor {
    /// Boots host Linux + the KVM module on a machine.
    pub fn new(machine: &mut Machine) -> Self {
        let mut heap = Vec::new();
        // Host Linux working set model: 24 MiB of kernel allocations.
        for _ in 0..12 {
            if let Ok(e) = machine.ram_mut().alloc(PageOrder(9)) {
                let _ = machine.ram_mut().write(e.base, 0x11_1b_05);
                heap.push(e);
            }
        }
        KvmHypervisor {
            version: "5.3.1+kvmtool".to_string(),
            kvm: Kvm::new(),
            guests: BTreeMap::new(),
            heap,
        }
    }

    fn guest(&self, id: VmId) -> Result<&GuestVm, HtpError> {
        self.guests.get(&id.0).ok_or(HtpError::UnknownVm(id))
    }

    fn guest_mut(&mut self, id: VmId) -> Result<&mut GuestVm, HtpError> {
        self.guests.get_mut(&id.0).ok_or(HtpError::UnknownVm(id))
    }
}

impl Hypervisor for KvmHypervisor {
    fn kind(&self) -> HypervisorKind {
        HypervisorKind::Kvm
    }

    fn version(&self) -> &str {
        &self.version
    }

    fn create_vm(&mut self, machine: &mut Machine, config: &VmConfig) -> Result<VmId, HtpError> {
        let g = kvmtool::create_guest(&mut self.kvm, machine, config, true)?;
        let id = VmId(g.vm_fd);
        self.guests.insert(g.vm_fd, g);
        Ok(id)
    }

    fn destroy_vm(&mut self, machine: &mut Machine, id: VmId) -> Result<(), HtpError> {
        self.guests.remove(&id.0).ok_or(HtpError::UnknownVm(id))?;
        let backing = self.kvm.destroy_vm(id.0).map_err(ioctl_err)?;
        for e in backing {
            machine.ram_mut().free(e)?;
        }
        Ok(())
    }

    fn pause_vm(&mut self, id: VmId) -> Result<(), HtpError> {
        self.guest_mut(id)?.state = VmState::Paused;
        Ok(())
    }

    fn resume_vm(&mut self, id: VmId) -> Result<(), HtpError> {
        self.guest_mut(id)?.state = VmState::Running;
        Ok(())
    }

    fn vm_state(&self, id: VmId) -> Result<VmState, HtpError> {
        Ok(self.guest(id)?.state)
    }

    fn vm_ids(&self) -> Vec<VmId> {
        self.guests.keys().map(|&k| VmId(k)).collect()
    }

    fn vm_config(&self, id: VmId) -> Result<&VmConfig, HtpError> {
        Ok(&self.guest(id)?.config)
    }

    fn find_vm(&self, name: &str) -> Option<VmId> {
        self.guests
            .iter()
            .find(|(_, g)| g.config.name == name)
            .map(|(&k, _)| VmId(k))
    }

    fn guest_memory_map(&self, id: VmId) -> Result<Vec<(Gfn, Extent)>, HtpError> {
        let g = self.guest(id)?;
        let mut out = Vec::new();
        for slot in self.kvm.slots(g.vm_fd).map_err(ioctl_err)? {
            let mut gfn = slot.guest_phys_addr / 4096;
            for e in &slot.backing {
                out.push((Gfn(gfn), *e));
                gfn += e.pages();
            }
        }
        Ok(out)
    }

    fn read_guest(&self, machine: &Machine, id: VmId, gfn: Gfn) -> Result<u64, HtpError> {
        let g = self.guest(id)?;
        let mfn = self.kvm.gfn_to_mfn(g.vm_fd, gfn).map_err(ioctl_err)?;
        Ok(machine.ram().read(mfn)?)
    }

    fn read_guest_into(
        &self,
        machine: &Machine,
        id: VmId,
        gfns: &[Gfn],
        out: &mut Vec<u64>,
    ) -> Result<(), HtpError> {
        // The NPT walk delivers physically-contiguous (MFN, pages) runs and
        // each run is appended from the RAM extent backing through the
        // zero-line summary (see `Kvm::gfn_runs`).
        let g = self.guest(id)?;
        let ram = machine.ram();
        out.clear();
        out.reserve(gfns.len());
        let mut mem_err: Option<hypertp_machine::MemError> = None;
        self.kvm
            .gfn_runs(g.vm_fd, gfns, &mut |mfn, pages| {
                if mem_err.is_some() {
                    return;
                }
                if let Err(e) = ram.append_content(mfn, pages, out) {
                    mem_err = Some(e);
                }
            })
            .map_err(ioctl_err)?;
        match mem_err {
            Some(e) => Err(e.into()),
            None => Ok(()),
        }
    }

    fn write_guest(
        &mut self,
        machine: &mut Machine,
        id: VmId,
        gfn: Gfn,
        content: u64,
    ) -> Result<(), HtpError> {
        self.write_guest_many(machine, id, &[(gfn, content)])
    }

    fn write_guest_many(
        &mut self,
        machine: &mut Machine,
        id: VmId,
        writes: &[(Gfn, u64)],
    ) -> Result<(), HtpError> {
        if writes.is_empty() {
            return Ok(());
        }
        // One guest lookup and one NPT walk per batch (`Kvm::write_pages`);
        // a RAM error stops the walk before the page is marked dirty.
        let vm_fd = self.guest(id)?.vm_fd;
        let ram = machine.ram_mut();
        let mut mem_err: Option<hypertp_machine::MemError> = None;
        self.kvm
            .write_pages(vm_fd, writes, &mut |mfn, word| match ram.write(mfn, word) {
                Ok(()) => true,
                Err(e) => {
                    mem_err = Some(e);
                    false
                }
            })
            .map_err(ioctl_err)?;
        match mem_err {
            Some(e) => Err(e.into()),
            None => Ok(()),
        }
    }

    fn guest_tick(
        &mut self,
        machine: &mut Machine,
        id: VmId,
        dirty_pages: u64,
    ) -> Result<(), HtpError> {
        let (vm_fd, writes) = {
            let g = self.guest_mut(id)?;
            if g.state != VmState::Running {
                return Err(HtpError::WrongVmState {
                    vm: id,
                    expected: "running",
                    found: g.state.name(),
                });
            }
            let total = g.config.pages();
            // A guest with no memory has no page to dirty (and no draw to
            // take).
            let dirty_pages = if total == 0 { 0 } else { dirty_pages };
            let writes: Vec<(Gfn, u64)> = (0..dirty_pages)
                .map(|_| (Gfn(g.rng.gen_range(total)), g.rng.next_u64()))
                .collect();
            (g.vm_fd, writes)
        };
        // Advance vCPU architectural state through the ioctl interface,
        // like a real vcpu_run exit/entry cycle would.
        for fd in self.kvm.vcpu_fds(vm_fd).map_err(ioctl_err)? {
            let mut regs = self.kvm.get_regs(vm_fd, fd).map_err(ioctl_err)?;
            regs.rip = regs.rip.wrapping_add(16 * dirty_pages + 4);
            regs.gprs[0] = regs.gprs[0].wrapping_add(1);
            self.kvm.set_regs(vm_fd, fd, regs).map_err(ioctl_err)?;
        }
        self.write_guest_many(machine, id, &writes)
    }

    fn enable_dirty_log(&mut self, id: VmId) -> Result<(), HtpError> {
        let vm_fd = self.guest(id)?.vm_fd;
        self.kvm.enable_dirty_log(vm_fd).map_err(ioctl_err)
    }

    fn collect_dirty(&mut self, id: VmId) -> Result<Vec<Gfn>, HtpError> {
        let vm_fd = self.guest(id)?.vm_fd;
        self.kvm.get_dirty_log(vm_fd).map_err(ioctl_err)
    }

    fn notify_prepare_transplant(
        &mut self,
        _machine: &mut Machine,
        id: VmId,
    ) -> Result<hypertp_sim::SimDuration, HtpError> {
        let g = self.guest_mut(id)?;
        Ok(hypertp_core::devices::quiesce(&mut g.devices))
    }

    fn save_uisr(&self, _machine: &Machine, id: VmId) -> Result<UisrVm, HtpError> {
        let g = self.guest(id)?;
        if g.state != VmState::Paused {
            return Err(HtpError::WrongVmState {
                vm: id,
                expected: "paused",
                found: g.state.name(),
            });
        }
        kvmtool::save_uisr(&self.kvm, g)
    }

    fn prepare_incoming(
        &mut self,
        machine: &mut Machine,
        config: &VmConfig,
    ) -> Result<VmId, HtpError> {
        let mut g = kvmtool::create_guest(&mut self.kvm, machine, config, false)?;
        g.state = VmState::Paused;
        let id = VmId(g.vm_fd);
        self.guests.insert(g.vm_fd, g);
        Ok(id)
    }

    fn restore_uisr(
        &mut self,
        _machine: &mut Machine,
        id: VmId,
        uisr: &UisrVm,
    ) -> Result<RestoredVm, HtpError> {
        let g = self.guests.get(&id.0).ok_or(HtpError::UnknownVm(id))?;
        let warnings = kvmtool::restore_uisr(&mut self.kvm, g, uisr)?;
        let g = self.guest_mut(id)?;
        g.devices = uisr.devices.clone();
        for d in &mut g.devices {
            if let hypertp_uisr::DeviceState::Network { unplugged, .. } = d {
                *unplugged = false;
            }
        }
        Ok(RestoredVm { id, warnings })
    }

    fn adopt_vm(
        &mut self,
        machine: &mut Machine,
        uisr: &UisrVm,
        mappings: &[(Gfn, Extent)],
    ) -> Result<RestoredVm, HtpError> {
        let (g, warnings) = kvmtool::adopt_guest(&mut self.kvm, machine, uisr, mappings)?;
        let id = VmId(g.vm_fd);
        self.guests.insert(g.vm_fd, g);
        Ok(RestoredVm { id, warnings })
    }

    fn memsep_report(&self, _machine: &Machine) -> MemSepReport {
        let mut guest_state = 0u64;
        let mut vmi_state = 0u64;
        for g in self.guests.values() {
            if let Ok(slots) = self.kvm.slots(g.vm_fd) {
                for s in slots {
                    guest_state += s.memory_size;
                    // Slot struct + dirty bitmap + per-extent spte model.
                    vmi_state += 64
                        + s.backing.len() as u64 * 8
                        + s.dirty_bitmap
                            .as_ref()
                            .map(|b| b.len() as u64 * 8)
                            .unwrap_or(0);
                }
            }
            if let Ok(fds) = self.kvm.vcpu_fds(g.vm_fd) {
                // kvm_vcpu + lapic page + xsave + msr store per vCPU.
                vmi_state += fds.len() as u64 * (4096 + 1024 + 1344 + 512);
            }
            vmi_state += 512; // virtio device models.
        }
        // Task structs and CFS runqueue entries per vCPU thread.
        let vm_mgmt_state = self
            .guests
            .values()
            .map(|g| 1024 + g.vcpu_fds.len() as u64 * 8192)
            .sum::<u64>()
            + 4096;
        MemSepReport {
            guest_state,
            vmi_state,
            vm_mgmt_state,
            hv_state: self.heap.iter().map(|e| e.bytes()).sum(),
        }
    }
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
    fn lifecycle_and_memory() {
        let mut m = machine();
        let mut hv = KvmHypervisor::new(&mut m);
        let id = hv.create_vm(&mut m, &VmConfig::small("vm0")).unwrap();
        hv.write_guest(&mut m, id, Gfn(1000), 0xbeef).unwrap();
        assert_eq!(hv.read_guest(&m, id, Gfn(1000)).unwrap(), 0xbeef);
        let map = hv.guest_memory_map(id).unwrap();
        assert_eq!(map.iter().map(|(_, e)| e.pages()).sum::<u64>(), 262_144);
        hv.destroy_vm(&mut m, id).unwrap();
        assert!(hv.vm_ids().is_empty());
    }

    #[test]
    fn dirty_log_through_kvm() {
        let mut m = machine();
        let mut hv = KvmHypervisor::new(&mut m);
        let id = hv.create_vm(&mut m, &VmConfig::small("vm0")).unwrap();
        hv.enable_dirty_log(id).unwrap();
        hv.write_guest(&mut m, id, Gfn(9), 1).unwrap();
        hv.write_guest(&mut m, id, Gfn(77), 1).unwrap();
        assert_eq!(hv.collect_dirty(id).unwrap(), vec![Gfn(9), Gfn(77)]);
        assert!(hv.collect_dirty(id).unwrap().is_empty());
    }

    #[test]
    fn guest_tick_advances_rip_via_ioctls() {
        let mut m = machine();
        let mut hv = KvmHypervisor::new(&mut m);
        let id = hv.create_vm(&mut m, &VmConfig::small("vm0")).unwrap();
        let g = hv.guest(id).unwrap();
        let rip0 = hv.kvm.get_regs(g.vm_fd, g.vcpu_fds[0]).unwrap().rip;
        hv.guest_tick(&mut m, id, 5).unwrap();
        let g = hv.guest(id).unwrap();
        let rip1 = hv.kvm.get_regs(g.vm_fd, g.vcpu_fds[0]).unwrap().rip;
        assert!(rip1 > rip0);
    }

    #[test]
    fn save_uisr_shape() {
        let mut m = machine();
        let mut hv = KvmHypervisor::new(&mut m);
        let id = hv
            .create_vm(&mut m, &VmConfig::small("vm0").with_vcpus(3))
            .unwrap();
        hv.pause_vm(id).unwrap();
        let u = hv.save_uisr(&m, id).unwrap();
        assert_eq!(u.vcpus.len(), 3);
        assert_eq!(u.ioapic.pins(), 24, "KVM exports its native 24 pins");
        assert_eq!(u.memory.total_pages(), 262_144);
        // EFER present both in sregs and the MSR list.
        assert_eq!(u.vcpus[0].sregs.efer, 0xd01);
        assert_eq!(
            hypertp_uisr::msr::find(&u.vcpus[0].msrs, hypertp_uisr::msr::IA32_EFER),
            Some(0xd01)
        );
    }

    #[test]
    fn notify_quiesces_virtio_queues() {
        let mut m = machine();
        let mut hv = KvmHypervisor::new(&mut m);
        let id = hv.create_vm(&mut m, &VmConfig::small("vm0")).unwrap();
        {
            let g = hv.guests.get_mut(&id.0).unwrap();
            for dev in &mut g.devices {
                if let hypertp_uisr::DeviceState::Block {
                    pending_requests, ..
                } = dev
                {
                    *pending_requests = 7;
                }
            }
        }
        hv.pause_vm(id).unwrap();
        assert!(
            hv.save_uisr(&m, id).is_err(),
            "busy virtio queue blocks save"
        );
        hv.resume_vm(id).unwrap();
        hv.notify_prepare_transplant(&mut m, id).unwrap();
        hv.pause_vm(id).unwrap();
        assert!(hv.save_uisr(&m, id).is_ok());
    }

    #[test]
    fn memsep_guest_dominates() {
        let mut m = machine();
        let mut hv = KvmHypervisor::new(&mut m);
        hv.create_vm(&mut m, &VmConfig::small("vm0")).unwrap();
        let r = hv.memsep_report(&m);
        assert_eq!(r.guest_state, 1 << 30);
        assert!(r.translation_ratio() < 0.01);
        assert!(r.hv_state > 0);
    }
}
