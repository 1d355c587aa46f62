//! `XenHypervisor`: the dom0 toolstack view of the Xen host.
//!
//! Implements `hypertp_core::Hypervisor`. The save path goes through the
//! HVM context *byte stream* (as the prototype does via libxenctrl's
//! `xc_domain_hvm_getcontext`), not through in-memory structs, so the
//! context format is exercised on every transplant.

use std::collections::BTreeMap;

use hypertp_core::{
    hypervisor::config_from_uisr, HtpError, Hypervisor, HypervisorKind, MemSepReport, RestoredVm,
    VmConfig, VmId, VmState,
};
use hypertp_machine::{frame_runs, Extent, Gfn, Machine, PageOrder};
use hypertp_uisr::{DeviceState, MemoryRegion, UisrVm};

use crate::domain::Domain;
use crate::hvm_context::load_context;
use crate::p2m::{P2m, P2mError};
use crate::sched::CreditScheduler;
use crate::xenstore::XenStore;
use crate::xlate;

/// The Xen hypervisor model (type-1: the hypervisor plus its dom0).
pub struct XenHypervisor {
    version: String,
    domains: BTreeMap<u32, Domain>,
    next_domid: u32,
    sched: CreditScheduler,
    store: XenStore,
    /// Xenheap frames: pure HV State, dies with the micro-reboot.
    heap: Vec<Extent>,
}

impl XenHypervisor {
    /// Boots the hypervisor on a machine, allocating its xenheap.
    pub fn new(machine: &mut Machine) -> Self {
        let mut heap = Vec::new();
        // A modest xenheap model: 16 MiB of hypervisor-global allocations.
        for _ in 0..8 {
            if let Ok(e) = machine.ram_mut().alloc(PageOrder(9)) {
                let _ = machine.ram_mut().write(e.base, 0xe4_e4_e4);
                heap.push(e);
            }
        }
        let pcpus = machine.spec().threads.max(1);
        let mut store = XenStore::new();
        store.write("/tool/xenstored/domid", "0");
        store.register_domain(0, "Domain-0", 4 << 20, 2);
        XenHypervisor {
            version: "4.12.1".to_string(),
            domains: BTreeMap::new(),
            next_domid: 1,
            sched: CreditScheduler::new(pcpus),
            store,
            heap,
        }
    }

    fn dom(&self, id: VmId) -> Result<&Domain, HtpError> {
        self.domains.get(&id.0).ok_or(HtpError::UnknownVm(id))
    }

    fn dom_mut(&mut self, id: VmId) -> Result<&mut Domain, HtpError> {
        self.domains.get_mut(&id.0).ok_or(HtpError::UnknownVm(id))
    }

    fn register(&mut self, mut domain: Domain) -> VmId {
        let domid = self.next_domid;
        self.next_domid += 1;
        domain.domid = domid;
        for v in 0..domain.config.vcpus {
            self.sched.insert(domid, v);
        }
        self.store.register_domain(
            domid,
            &domain.config.name,
            domain.config.memory_gb << 20,
            domain.config.vcpus,
        );
        self.domains.insert(domid, domain);
        VmId(domid)
    }

    /// Direct access to a domain's internals (debugging and tests; the
    /// orchestration paths never reach past the `Hypervisor` trait).
    pub fn domain_mut(&mut self, id: VmId) -> Option<&mut Domain> {
        self.domains.get_mut(&id.0)
    }

    /// Coalesces a P2M mapping list into UISR memory regions.
    fn memory_regions(mappings: &[(Gfn, Extent)]) -> Vec<MemoryRegion> {
        let mut regions: Vec<MemoryRegion> = Vec::new();
        for (gfn, e) in mappings {
            match regions.last_mut() {
                Some(r) if r.gfn_start + r.pages == gfn.0 => r.pages += e.pages(),
                _ => regions.push(MemoryRegion {
                    gfn_start: gfn.0,
                    pages: e.pages(),
                }),
            }
        }
        regions
    }
}

impl Hypervisor for XenHypervisor {
    fn kind(&self) -> HypervisorKind {
        HypervisorKind::Xen
    }

    fn version(&self) -> &str {
        &self.version
    }

    fn create_vm(&mut self, machine: &mut Machine, config: &VmConfig) -> Result<VmId, HtpError> {
        let domain = Domain::create(self.next_domid, config, machine)?;
        Ok(self.register(domain))
    }

    fn destroy_vm(&mut self, machine: &mut Machine, id: VmId) -> Result<(), HtpError> {
        let d = self.domains.remove(&id.0).ok_or(HtpError::UnknownVm(id))?;
        for (_, e) in d.p2m.mappings() {
            machine.ram_mut().free(e)?;
        }
        self.sched.remove_domain(id.0);
        self.store.unregister_domain(id.0);
        Ok(())
    }

    fn pause_vm(&mut self, id: VmId) -> Result<(), HtpError> {
        self.dom_mut(id)?.state = VmState::Paused;
        Ok(())
    }

    fn resume_vm(&mut self, id: VmId) -> Result<(), HtpError> {
        self.dom_mut(id)?.state = VmState::Running;
        Ok(())
    }

    fn vm_state(&self, id: VmId) -> Result<VmState, HtpError> {
        Ok(self.dom(id)?.state)
    }

    fn vm_ids(&self) -> Vec<VmId> {
        self.domains.keys().map(|&d| VmId(d)).collect()
    }

    fn vm_config(&self, id: VmId) -> Result<&VmConfig, HtpError> {
        Ok(&self.dom(id)?.config)
    }

    fn find_vm(&self, name: &str) -> Option<VmId> {
        self.domains
            .iter()
            .find(|(_, d)| d.config.name == name)
            .map(|(&id, _)| VmId(id))
    }

    fn guest_memory_map(&self, id: VmId) -> Result<Vec<(Gfn, Extent)>, HtpError> {
        Ok(self.dom(id)?.p2m.mappings())
    }

    fn read_guest(&self, machine: &Machine, id: VmId, gfn: Gfn) -> Result<u64, HtpError> {
        let d = self.dom(id)?;
        let mfn = d.p2m.translate(gfn).map_err(|_| HtpError::UnknownVm(id))?;
        Ok(machine.ram().read(mfn)?)
    }

    fn read_guest_into(
        &self,
        machine: &Machine,
        id: VmId,
        gfns: &[Gfn],
        out: &mut Vec<u64>,
    ) -> Result<(), HtpError> {
        // The P2M hands back physically-contiguous (MFN, pages) runs and
        // each run is appended from the RAM extent backing through the
        // zero-line summary — no intermediate MFN vector, no per-page read
        // call, and no allocation once `out` has warmed up.
        let d = self.dom(id)?;
        let ram = machine.ram();
        out.clear();
        out.reserve(gfns.len());
        let mut mem_err: Option<hypertp_machine::MemError> = None;
        d.p2m
            .translate_runs(gfns, &mut |mfn, pages| {
                if mem_err.is_some() {
                    return;
                }
                if let Err(e) = ram.append_content(mfn, pages, out) {
                    mem_err = Some(e);
                }
            })
            .map_err(|_| HtpError::UnknownVm(id))?;
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
        // One domain lookup and one P2M cursor per batch
        // (`P2m::write_pages`); a RAM error stops the walk before the page
        // is logged dirty.
        let d = self.dom_mut(id)?;
        let ram = machine.ram_mut();
        let mut mem_err: Option<hypertp_machine::MemError> = None;
        d.p2m
            .write_pages(writes, &mut |mfn, word| match ram.write(mfn, word) {
                Ok(()) => true,
                Err(e) => {
                    mem_err = Some(e);
                    false
                }
            })
            .map_err(|_| HtpError::UnknownVm(id))?;
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
        let d = self.dom_mut(id)?;
        if d.state != VmState::Running {
            return Err(HtpError::WrongVmState {
                vm: id,
                expected: "running",
                found: d.state.name(),
            });
        }
        let total = d.config.pages();
        // A guest with no memory has no page to dirty (and no draw to take).
        let dirty_pages = if total == 0 { 0 } else { dirty_pages };
        let mut writes = Vec::with_capacity(dirty_pages as usize);
        for _ in 0..dirty_pages {
            writes.push((Gfn(d.rng.gen_range(total)), d.rng.next_u64()));
        }
        for v in &mut d.vcpus {
            v.hw.rip = v.hw.rip.wrapping_add(16 * dirty_pages + 4);
            v.hw.gprs[0] = v.hw.gprs[0].wrapping_add(1);
            v.hw.tsc = v.hw.tsc.wrapping_add(1000 + dirty_pages * 50);
        }
        self.write_guest_many(machine, id, &writes)
    }

    fn enable_dirty_log(&mut self, id: VmId) -> Result<(), HtpError> {
        self.dom_mut(id)?.p2m.enable_log_dirty();
        Ok(())
    }

    fn collect_dirty(&mut self, id: VmId) -> Result<Vec<Gfn>, HtpError> {
        Ok(self.dom_mut(id)?.p2m.read_and_clear_dirty())
    }

    fn notify_prepare_transplant(
        &mut self,
        _machine: &mut Machine,
        id: VmId,
    ) -> Result<hypertp_sim::SimDuration, HtpError> {
        let d = self.dom_mut(id)?;
        let mut cost = hypertp_core::devices::quiesce(&mut d.devices);
        // With the rings idle, dom0 backends drop their grant mappings.
        let released = d.grants.unmap_all();
        cost += hypertp_core::devices::DRAIN_PER_REQUEST * released as u64;
        Ok(cost)
    }

    fn save_uisr(&self, _machine: &Machine, id: VmId) -> Result<UisrVm, HtpError> {
        let d = self.dom(id)?;
        if d.state != VmState::Paused {
            return Err(HtpError::WrongVmState {
                vm: id,
                expected: "paused",
                found: d.state.name(),
            });
        }
        if d.grants.active_mappings() > 0 {
            return Err(HtpError::IncompatibleState {
                section: "devices",
                detail: "grant mappings still active; devices not quiesced".to_string(),
            });
        }
        hypertp_core::devices::check_quiesced(&d.devices)?;
        // Save through the byte-stream path, exactly like the prototype.
        let buf = d.hvm_context_save();
        let records = load_context(&buf).map_err(|e| HtpError::IncompatibleState {
            section: "HVM context",
            detail: e.to_string(),
        })?;
        let mut vm = xlate::records_to_uisr(&d.config.name, &records);
        // §4.2.3: network devices are unplugged before transplant and
        // rescanned on the other side.
        vm.devices = d
            .devices
            .iter()
            .map(|dev| match dev {
                DeviceState::Network { mac, .. } => DeviceState::Network {
                    mac: *mac,
                    unplugged: true,
                },
                other => other.clone(),
            })
            .collect();
        vm.memory.regions = Self::memory_regions(&d.p2m.mappings());
        vm.memory.pram_file = Some(d.config.name.clone());
        Ok(vm)
    }

    fn prepare_incoming(
        &mut self,
        machine: &mut Machine,
        config: &VmConfig,
    ) -> Result<VmId, HtpError> {
        let mut domain = Domain::create(self.next_domid, config, machine)?;
        domain.state = VmState::Paused;
        Ok(self.register(domain))
    }

    fn restore_uisr(
        &mut self,
        _machine: &mut Machine,
        id: VmId,
        uisr: &UisrVm,
    ) -> Result<RestoredVm, HtpError> {
        let mut warnings = Vec::new();
        let d = self.dom_mut(id)?;
        d.vcpus = uisr.vcpus.iter().map(xlate::vcpu_from_uisr).collect();
        d.ioapic = xlate::ioapic_from_uisr(&uisr.ioapic, &mut warnings);
        d.pit = xlate::pit_from_uisr(&uisr.pit);
        d.devices = replug_devices(&uisr.devices);
        Ok(RestoredVm { id, warnings })
    }

    fn adopt_vm(
        &mut self,
        machine: &mut Machine,
        uisr: &UisrVm,
        mappings: &[(Gfn, Extent)],
    ) -> Result<RestoredVm, HtpError> {
        let huge = mappings
            .first()
            .map(|(_, e)| e.order.0 >= 9)
            .unwrap_or(true);
        let config = config_from_uisr(uisr, huge);
        let mut warnings = Vec::new();
        // Integrate the in-place guest memory (the paper's "PRAM
        // filesystem API into Xen"): the frames are reserved by the early
        // boot parse; adopting marks them owned again without touching
        // contents, one physically contiguous run at a time.
        let p2m = P2m::from_mappings(mappings).map_err(|e| {
            let (P2mError::Overlap { gfn } | P2mError::NotMapped { gfn }) = e;
            HtpError::IncompatibleState {
                section: "memory",
                detail: format!("overlapping PRAM mappings at {gfn}"),
            }
        })?;
        for (base, pages) in frame_runs(mappings.iter().map(|&(_, e)| e)) {
            machine.ram_mut().adopt_reserved(base, pages)?;
        }
        let vcpus: Vec<_> = uisr.vcpus.iter().map(xlate::vcpu_from_uisr).collect();
        let ioapic = xlate::ioapic_from_uisr(&uisr.ioapic, &mut warnings);
        let pit = xlate::pit_from_uisr(&uisr.pit);
        let mut evtchn = crate::events::EventChannels::new();
        evtchn.alloc_unbound(0);
        evtchn.alloc_unbound(0);
        let domain = Domain {
            domid: self.next_domid,
            config,
            state: VmState::Paused,
            vcpus,
            p2m,
            ioapic,
            pit,
            evtchn,
            grants: crate::grant::GrantTable::new(),
            devices: replug_devices(&uisr.devices),
            rng: hypertp_sim::SimRng::new(self.next_domid as u64 + 0xabcd),
        };
        let id = self.register(domain);
        Ok(RestoredVm { id, warnings })
    }

    fn memsep_report(&self, _machine: &Machine) -> MemSepReport {
        let guest_state: u64 = self
            .domains
            .values()
            .map(|d| d.p2m.total_pages() * 4096)
            .sum();
        let vmi_state: u64 = self.domains.values().map(Domain::vmi_state_bytes).sum();
        let vm_mgmt_state = self.sched.footprint_bytes()
            + self.store.footprint_bytes()
            + self.domains.len() as u64 * 256;
        let hv_state: u64 = self.heap.iter().map(|e| e.bytes()).sum();
        MemSepReport {
            guest_state,
            vmi_state,
            vm_mgmt_state,
            hv_state,
        }
    }
}

/// Re-plugs unplugged network devices during restoration (§4.2.3's rescan).
fn replug_devices(devices: &[DeviceState]) -> Vec<DeviceState> {
    devices
        .iter()
        .map(|d| match d {
            DeviceState::Network { mac, .. } => DeviceState::Network {
                mac: *mac,
                unplugged: false,
            },
            other => other.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertp_machine::MachineSpec;

    impl XenHypervisor {
        /// Read-only access to the scheduler (tests).
        fn scheduler(&self) -> &CreditScheduler {
            &self.sched
        }

        /// Read-only access to the xenstore (tests, orchestration).
        fn xenstore(&self) -> &XenStore {
            &self.store
        }
    }

    fn machine() -> Machine {
        let mut spec = MachineSpec::m1();
        spec.ram_gb = 4;
        Machine::new(spec)
    }

    #[test]
    fn boot_allocates_heap_and_dom0_paths() {
        let mut m = machine();
        let hv = XenHypervisor::new(&mut m);
        assert!(!hv.heap.is_empty());
        assert_eq!(hv.xenstore().read("/local/domain/0/name"), Some("Domain-0"));
    }

    #[test]
    fn create_registers_everywhere() {
        let mut m = machine();
        let mut hv = XenHypervisor::new(&mut m);
        let id = hv
            .create_vm(&mut m, &VmConfig::small("web").with_vcpus(2))
            .unwrap();
        assert_eq!(hv.xenstore().read("/local/domain/1/name"), Some("web"));
        assert_eq!(hv.scheduler().queued_vcpus(), vec![(1, 0), (1, 1)]);
        assert_eq!(hv.vm_state(id).unwrap(), VmState::Running);
        hv.destroy_vm(&mut m, id).unwrap();
        assert!(hv.scheduler().queued_vcpus().is_empty());
        assert_eq!(hv.xenstore().read("/local/domain/1/name"), None);
    }

    #[test]
    fn save_uisr_carries_platform_state() {
        let mut m = machine();
        let mut hv = XenHypervisor::new(&mut m);
        let id = hv.create_vm(&mut m, &VmConfig::small("vm0")).unwrap();
        hv.guest_tick(&mut m, id, 10).unwrap();
        hv.pause_vm(id).unwrap();
        let u = hv.save_uisr(&m, id).unwrap();
        assert_eq!(u.name, "vm0");
        assert_eq!(u.vcpus.len(), 1);
        assert!(u.vcpus[0].regs.rip > 0x10_0000);
        assert_eq!(u.ioapic.pins(), 48);
        assert_eq!(u.memory.total_pages(), 262_144);
        assert_eq!(u.memory.pram_file.as_deref(), Some("vm0"));
        // Network device marked unplugged for the transplant.
        assert!(u.devices.iter().any(|d| matches!(
            d,
            DeviceState::Network {
                unplugged: true,
                ..
            }
        )));
    }

    #[test]
    fn save_requires_pause() {
        let mut m = machine();
        let mut hv = XenHypervisor::new(&mut m);
        let id = hv.create_vm(&mut m, &VmConfig::small("vm0")).unwrap();
        assert!(matches!(
            hv.save_uisr(&m, id),
            Err(HtpError::WrongVmState { .. })
        ));
    }

    #[test]
    fn active_grant_mappings_block_save() {
        let mut m = machine();
        let mut hv = XenHypervisor::new(&mut m);
        let id = hv.create_vm(&mut m, &VmConfig::small("vm0")).unwrap();
        hv.pause_vm(id).unwrap();
        let d = hv.domains.get_mut(&id.0).unwrap();
        let gref = d.grants.grant_access();
        d.grants.map(gref);
        assert!(matches!(
            hv.save_uisr(&m, id),
            Err(HtpError::IncompatibleState {
                section: "devices",
                ..
            })
        ));
    }

    #[test]
    fn notify_quiesces_devices_and_grants() {
        let mut m = machine();
        let mut hv = XenHypervisor::new(&mut m);
        let id = hv.create_vm(&mut m, &VmConfig::small("vm0")).unwrap();
        // Inject in-flight I/O and an active backend grant mapping.
        {
            let d = hv.domains.get_mut(&id.0).unwrap();
            for dev in &mut d.devices {
                if let DeviceState::Block {
                    pending_requests, ..
                } = dev
                {
                    *pending_requests = 31;
                }
            }
            let gref = d.grants.grant_access();
            d.grants.map(gref);
        }
        hv.pause_vm(id).unwrap();
        // Unquiesced: the save path refuses.
        assert!(hv.save_uisr(&m, id).is_err());
        hv.resume_vm(id).unwrap();
        // Quiesce: costs time proportional to the work, then save succeeds.
        let cost = hv.notify_prepare_transplant(&mut m, id).unwrap();
        assert!(cost > hypertp_core::devices::NOTIFY_RTT);
        hv.pause_vm(id).unwrap();
        let u = hv.save_uisr(&m, id).unwrap();
        assert!(u.devices.iter().all(|dev| !matches!(
            dev,
            DeviceState::Block { pending_requests, .. } if *pending_requests > 0
        )));
    }

    #[test]
    fn dirty_log_via_p2m() {
        let mut m = machine();
        let mut hv = XenHypervisor::new(&mut m);
        let id = hv.create_vm(&mut m, &VmConfig::small("vm0")).unwrap();
        hv.enable_dirty_log(id).unwrap();
        hv.write_guest(&mut m, id, Gfn(42), 1).unwrap();
        hv.write_guest(&mut m, id, Gfn(17), 2).unwrap();
        let dirty = hv.collect_dirty(id).unwrap();
        assert_eq!(dirty, vec![Gfn(17), Gfn(42)]);
    }

    #[test]
    fn memsep_guest_dominates() {
        let mut m = machine();
        let mut hv = XenHypervisor::new(&mut m);
        hv.create_vm(&mut m, &VmConfig::small("vm0")).unwrap();
        let r = hv.memsep_report(&m);
        assert_eq!(r.guest_state, 1 << 30);
        assert!(r.translation_ratio() < 0.01);
        assert!(r.vmi_state > 0);
        assert!(r.vm_mgmt_state > 0);
        assert!(r.hv_state > 0);
    }
}
