//! A minimal reference implementation of the [`Hypervisor`] trait.
//!
//! [`SimpleHv`] is the smallest hypervisor that satisfies the HyperTP
//! contract; it exists to (a) unit-test the transplant engine inside this
//! crate without depending on the full Xen/KVM models, and (b) document for
//! implementors exactly what each trait method must do. The realistic
//! models live in `hypertp-xen` and `hypertp-kvm`.

use std::collections::BTreeMap;

use hypertp_machine::{frame_runs, Extent, Gfn, Machine, PageOrder};
use hypertp_sim::SimRng;
use hypertp_uisr::state::{KVM_IOAPIC_PINS, LAPIC_REGS_SIZE};
use hypertp_uisr::{DeviceState, MemoryRegion, UisrVm, VcpuState};

use crate::error::HtpError;
use crate::hypervisor::{config_from_uisr, Hypervisor, HypervisorKind, RestoredVm};
use crate::memsep::MemSepReport;
use crate::vm::{VmConfig, VmId, VmState};

struct SimpleVm {
    config: VmConfig,
    state: VmState,
    /// gfn -> extent map.
    memory: BTreeMap<u64, Extent>,
    vcpus: Vec<VcpuState>,
    dirty_log: Option<Vec<Gfn>>,
    rng: SimRng,
}

/// A minimal HyperTP-compliant hypervisor for tests.
pub struct SimpleHv {
    kind: HypervisorKind,
    vms: BTreeMap<u32, SimpleVm>,
    next_id: u32,
}

impl SimpleHv {
    /// Creates a hypervisor presenting as `kind`.
    pub fn new(kind: HypervisorKind) -> Self {
        SimpleHv {
            kind,
            vms: BTreeMap::new(),
            next_id: 1,
        }
    }

    fn vm(&self, id: VmId) -> Result<&SimpleVm, HtpError> {
        self.vms.get(&id.0).ok_or(HtpError::UnknownVm(id))
    }

    fn vm_mut(&mut self, id: VmId) -> Result<&mut SimpleVm, HtpError> {
        self.vms.get_mut(&id.0).ok_or(HtpError::UnknownVm(id))
    }

    fn alloc_guest(
        machine: &mut Machine,
        config: &VmConfig,
    ) -> Result<BTreeMap<u64, Extent>, HtpError> {
        let order = if config.huge_pages {
            PageOrder(9)
        } else {
            PageOrder(0)
        };
        let chunks = config.pages() / order.pages();
        let mut memory = BTreeMap::new();
        for i in 0..chunks {
            let e = machine.ram_mut().alloc(order)?;
            memory.insert(i * order.pages(), e);
        }
        Ok(memory)
    }

    fn insert_vm(&mut self, vm: SimpleVm) -> VmId {
        let id = VmId(self.next_id);
        self.next_id += 1;
        self.vms.insert(id.0, vm);
        id
    }
}

impl Hypervisor for SimpleHv {
    fn kind(&self) -> HypervisorKind {
        self.kind
    }

    fn version(&self) -> &str {
        "simple-0.1"
    }

    fn create_vm(&mut self, machine: &mut Machine, config: &VmConfig) -> Result<VmId, HtpError> {
        let memory = Self::alloc_guest(machine, config)?;
        // Seed the first frame of each extent with deterministic content so
        // integrity checks have something to verify.
        for (gfn, e) in &memory {
            machine
                .ram_mut()
                .write(e.base, 0x5111_0000 ^ gfn.wrapping_mul(0x9e37))?;
        }
        let vcpus = (0..config.vcpus)
            .map(|i| {
                let mut v = VcpuState::reset(i);
                v.regs.rip = 0x10_0000;
                v
            })
            .collect();
        let name_seed = config
            .name
            .bytes()
            .fold(7u64, |a, b| a.wrapping_mul(31).wrapping_add(b as u64));
        Ok(self.insert_vm(SimpleVm {
            config: config.clone(),
            state: VmState::Running,
            memory,
            vcpus,
            dirty_log: None,
            rng: SimRng::new(name_seed),
        }))
    }

    fn destroy_vm(&mut self, machine: &mut Machine, id: VmId) -> Result<(), HtpError> {
        let vm = self.vms.remove(&id.0).ok_or(HtpError::UnknownVm(id))?;
        for e in vm.memory.values() {
            machine.ram_mut().free(*e)?;
        }
        Ok(())
    }

    fn pause_vm(&mut self, id: VmId) -> Result<(), HtpError> {
        self.vm_mut(id)?.state = VmState::Paused;
        Ok(())
    }

    fn resume_vm(&mut self, id: VmId) -> Result<(), HtpError> {
        self.vm_mut(id)?.state = VmState::Running;
        Ok(())
    }

    fn vm_state(&self, id: VmId) -> Result<VmState, HtpError> {
        Ok(self.vm(id)?.state)
    }

    fn vm_ids(&self) -> Vec<VmId> {
        self.vms.keys().map(|&k| VmId(k)).collect()
    }

    fn vm_config(&self, id: VmId) -> Result<&VmConfig, HtpError> {
        Ok(&self.vm(id)?.config)
    }

    fn find_vm(&self, name: &str) -> Option<VmId> {
        self.vms
            .iter()
            .find(|(_, v)| v.config.name == name)
            .map(|(&k, _)| VmId(k))
    }

    fn guest_memory_map(&self, id: VmId) -> Result<Vec<(Gfn, Extent)>, HtpError> {
        Ok(self
            .vm(id)?
            .memory
            .iter()
            .map(|(&g, &e)| (Gfn(g), e))
            .collect())
    }

    fn read_guest(&self, machine: &Machine, id: VmId, gfn: Gfn) -> Result<u64, HtpError> {
        let vm = self.vm(id)?;
        let (mfn, _) = resolve(&vm.memory, gfn).ok_or(HtpError::UnknownVm(id))?;
        Ok(machine.ram().read(mfn)?)
    }

    fn write_guest(
        &mut self,
        machine: &mut Machine,
        id: VmId,
        gfn: Gfn,
        content: u64,
    ) -> Result<(), HtpError> {
        let vm = self.vm_mut(id)?;
        let (mfn, _) = resolve(&vm.memory, gfn).ok_or(HtpError::UnknownVm(id))?;
        machine.ram_mut().write(mfn, content)?;
        if let Some(log) = &mut vm.dirty_log {
            log.push(gfn);
        }
        Ok(())
    }

    fn guest_tick(
        &mut self,
        machine: &mut Machine,
        id: VmId,
        dirty_pages: u64,
    ) -> Result<(), HtpError> {
        let vm = self.vm_mut(id)?;
        if vm.state != VmState::Running {
            return Err(HtpError::WrongVmState {
                vm: id,
                expected: "running",
                found: vm.state.name(),
            });
        }
        let total_pages = vm.config.pages();
        // A guest with no memory has no page to dirty (and no draw to take).
        let dirty_pages = if total_pages == 0 { 0 } else { dirty_pages };
        let mut writes = Vec::with_capacity(dirty_pages as usize);
        for _ in 0..dirty_pages {
            let gfn = Gfn(vm.rng.gen_range(total_pages));
            let val = vm.rng.next_u64();
            writes.push((gfn, val));
        }
        for v in &mut vm.vcpus {
            v.regs.rip = v.regs.rip.wrapping_add(dirty_pages * 16 + 4);
            v.regs.rax = v.regs.rax.wrapping_add(1);
        }
        self.write_guest_many(machine, id, &writes)
    }

    fn enable_dirty_log(&mut self, id: VmId) -> Result<(), HtpError> {
        self.vm_mut(id)?.dirty_log = Some(Vec::new());
        Ok(())
    }

    fn collect_dirty(&mut self, id: VmId) -> Result<Vec<Gfn>, HtpError> {
        let vm = self.vm_mut(id)?;
        let log = vm
            .dirty_log
            .as_mut()
            .ok_or(HtpError::Unsupported("dirty log not enabled"))?;
        let mut out = std::mem::take(log);
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    fn save_uisr(&self, _machine: &Machine, id: VmId) -> Result<UisrVm, HtpError> {
        let vm = self.vm(id)?;
        if vm.state != VmState::Paused {
            return Err(HtpError::WrongVmState {
                vm: id,
                expected: "paused",
                found: vm.state.name(),
            });
        }
        let mut u = UisrVm::new(vm.config.name.clone());
        u.vcpus = vm.vcpus.clone();
        for v in &mut u.vcpus {
            if v.lapic_regs.is_empty() {
                v.lapic_regs = vec![0; LAPIC_REGS_SIZE];
            }
        }
        u.ioapic.resize_pins(KVM_IOAPIC_PINS);
        u.memory.regions.push(MemoryRegion {
            gfn_start: 0,
            pages: vm.config.pages(),
        });
        u.memory.pram_file = Some(vm.config.name.clone());
        if vm.config.has_network {
            u.devices.push(DeviceState::Network {
                mac: [2, 0, 0, 0, 0, 1],
                unplugged: true,
            });
        }
        Ok(u)
    }

    fn prepare_incoming(
        &mut self,
        machine: &mut Machine,
        config: &VmConfig,
    ) -> Result<VmId, HtpError> {
        let memory = Self::alloc_guest(machine, config)?;
        Ok(self.insert_vm(SimpleVm {
            config: config.clone(),
            state: VmState::Paused,
            memory,
            vcpus: Vec::new(),
            dirty_log: None,
            rng: SimRng::new(1),
        }))
    }

    fn restore_uisr(
        &mut self,
        _machine: &mut Machine,
        id: VmId,
        uisr: &UisrVm,
    ) -> Result<RestoredVm, HtpError> {
        let vm = self.vm_mut(id)?;
        vm.vcpus = uisr.vcpus.clone();
        Ok(RestoredVm {
            id,
            warnings: Vec::new(),
        })
    }

    fn adopt_vm(
        &mut self,
        machine: &mut Machine,
        uisr: &UisrVm,
        mappings: &[(Gfn, Extent)],
    ) -> Result<RestoredVm, HtpError> {
        // Re-own the in-place frames so the allocator cannot recycle them
        // once the engine drops the PRAM reservations.
        for (base, pages) in frame_runs(mappings.iter().map(|&(_, e)| e)) {
            machine.ram_mut().adopt_reserved(base, pages)?;
        }
        let huge = mappings
            .first()
            .map(|(_, e)| e.order.0 == 9)
            .unwrap_or(true);
        let config = config_from_uisr(uisr, huge);
        let memory = mappings.iter().map(|(g, e)| (g.0, *e)).collect();
        let id = self.insert_vm(SimpleVm {
            config,
            state: VmState::Paused,
            memory,
            vcpus: uisr.vcpus.clone(),
            dirty_log: None,
            rng: SimRng::new(2),
        });
        Ok(RestoredVm {
            id,
            warnings: Vec::new(),
        })
    }

    fn memsep_report(&self, machine: &Machine) -> MemSepReport {
        let guest: u64 = self.vms.values().map(|v| v.config.memory_gb << 30).sum();
        MemSepReport {
            guest_state: guest,
            vmi_state: self.vms.len() as u64 * 64 * 1024,
            vm_mgmt_state: 4096 + self.vms.len() as u64 * 256,
            hv_state: machine.spec().ram_gb << 20,
        }
    }
}

fn resolve(memory: &BTreeMap<u64, Extent>, gfn: Gfn) -> Option<(hypertp_machine::Mfn, Extent)> {
    let (&base, &e) = memory.range(..=gfn.0).next_back()?;
    if gfn.0 < base + e.pages() {
        Some((e.base + (gfn.0 - base), e))
    } else {
        None
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
    fn lifecycle() {
        let mut m = machine();
        let mut hv = SimpleHv::new(HypervisorKind::Xen);
        let id = hv.create_vm(&mut m, &VmConfig::small("a")).unwrap();
        assert_eq!(hv.vm_state(id).unwrap(), VmState::Running);
        assert_eq!(hv.find_vm("a"), Some(id));
        hv.pause_vm(id).unwrap();
        assert_eq!(hv.vm_state(id).unwrap(), VmState::Paused);
        hv.resume_vm(id).unwrap();
        hv.destroy_vm(&mut m, id).unwrap();
        assert!(hv.vm_ids().is_empty());
    }

    #[test]
    fn guest_rw_and_dirty_log() {
        let mut m = machine();
        let mut hv = SimpleHv::new(HypervisorKind::Kvm);
        let id = hv.create_vm(&mut m, &VmConfig::small("a")).unwrap();
        hv.enable_dirty_log(id).unwrap();
        hv.write_guest(&mut m, id, Gfn(100), 7).unwrap();
        assert_eq!(hv.read_guest(&m, id, Gfn(100)).unwrap(), 7);
        assert_eq!(hv.collect_dirty(id).unwrap(), vec![Gfn(100)]);
        assert!(hv.collect_dirty(id).unwrap().is_empty());
    }

    #[test]
    fn tick_requires_running() {
        let mut m = machine();
        let mut hv = SimpleHv::new(HypervisorKind::Kvm);
        let id = hv.create_vm(&mut m, &VmConfig::small("a")).unwrap();
        hv.pause_vm(id).unwrap();
        assert!(matches!(
            hv.guest_tick(&mut m, id, 10),
            Err(HtpError::WrongVmState { .. })
        ));
    }

    #[test]
    fn save_uisr_requires_paused() {
        let mut m = machine();
        let mut hv = SimpleHv::new(HypervisorKind::Xen);
        let id = hv.create_vm(&mut m, &VmConfig::small("a")).unwrap();
        assert!(hv.save_uisr(&m, id).is_err());
        hv.pause_vm(id).unwrap();
        let u = hv.save_uisr(&m, id).unwrap();
        assert_eq!(u.name, "a");
        assert_eq!(u.vcpus.len(), 1);
    }
}
