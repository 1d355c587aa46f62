//! OpenStack integration (§4.5.2): the Nova-like manager with a
//! "host live upgrade" operation.
//!
//! Following the paper's integration plan: (1) the `ComputeDriver`
//! interface grows HyperTP operations (guest state saving, loading and
//! executing the new hypervisor kernel, guest state restoring); (2) the
//! libvirt-style driver implements them on top of the transplant engine;
//! (3) the compute API gains a host-upgrade operation that first migrates
//! away VMs that do not support HyperTP, then upgrades the host with every
//! remaining VM in place and updates the manager's database; (4) the
//! scheduler gains a filter that consolidates transplantable VMs.
//! Sysadmins drive all of this through the manager — never through
//! vendor-specific hypervisor tools (§4.5.1).

use std::collections::BTreeMap;

use hypertp_core::{
    CheckpointConfig, HtpError, Hypervisor, HypervisorKind, HypervisorRegistry, InPlaceReport,
    InPlaceTransplant, RecoveryReport, UnplannedRecovery, VmConfig, VmId, WarmCheckpointer,
};
use hypertp_machine::{Machine, MachineSpec};
use hypertp_migrate::{MigrationConfig, MigrationReport, MigrationTp};
use hypertp_sim::{CostModel, FaultPlan, SimClock, WorkerPool};

/// Builds the two-hypervisor pool the drivers boot from.
pub fn pool() -> HypervisorRegistry {
    let mut registry = HypervisorRegistry::new();
    registry.register(HypervisorKind::Xen, |machine| {
        Box::new(hypertp_xen::XenHypervisor::new(machine))
    });
    registry.register(HypervisorKind::Kvm, |machine| {
        Box::new(hypertp_kvm::KvmHypervisor::new(machine))
    });
    registry.register_validator(HypervisorKind::Kvm, hypertp_kvm::xlate::preflight_validate);
    registry
}

/// A libvirt-style compute driver: one hypervisor host.
pub struct LibvirtDriver {
    /// Host name.
    pub host_name: String,
    machine: Machine,
    hv: Option<Box<dyn Hypervisor>>,
}

impl LibvirtDriver {
    /// Boots a host with the given hypervisor.
    pub fn new(
        host_name: impl Into<String>,
        spec: MachineSpec,
        clock: SimClock,
        registry: &HypervisorRegistry,
        kind: HypervisorKind,
    ) -> Result<Self, HtpError> {
        let mut machine = Machine::with_clock(spec, clock);
        let hv = registry.create(kind, &mut machine)?;
        Ok(LibvirtDriver {
            host_name: host_name.into(),
            machine,
            hv: Some(hv),
        })
    }

    fn hv(&self) -> &dyn Hypervisor {
        self.hv.as_deref().expect("hypervisor running")
    }

    /// The hypervisor currently running on the host.
    pub fn hypervisor_kind(&self) -> HypervisorKind {
        self.hv().kind()
    }

    /// Nova `spawn`.
    pub fn spawn(&mut self, config: &VmConfig) -> Result<VmId, HtpError> {
        let hv = self.hv.as_deref_mut().expect("hypervisor running");
        hv.create_vm(&mut self.machine, config)
    }

    /// Nova `resume`.
    pub fn resume(&mut self, name: &str) -> Result<(), HtpError> {
        let hv = self.hv.as_deref_mut().expect("hypervisor running");
        let id = hv.find_vm(name).ok_or(HtpError::UnknownVm(VmId(0)))?;
        hv.resume_vm(id)
    }

    /// VM names on this host.
    pub fn vm_names(&self) -> Vec<String> {
        let hv = self.hv();
        hv.vm_ids()
            .into_iter()
            .filter_map(|id| hv.vm_config(id).ok().map(|c| c.name.clone()))
            .collect()
    }

    /// Whether a VM on this host supports riding through InPlaceTP.
    pub(crate) fn vm_inplace_compatible(&self, name: &str) -> Option<bool> {
        let hv = self.hv();
        let id = hv.find_vm(name)?;
        hv.vm_config(id).ok().map(|c| c.inplace_compatible)
    }

    /// The HyperTP extension: upgrade this host in place, carrying all
    /// resident VMs (the ComputeDriver's save → kexec → restore sequence).
    pub fn host_live_upgrade(
        &mut self,
        registry: &HypervisorRegistry,
        target: HypervisorKind,
    ) -> Result<InPlaceReport, HtpError> {
        let hv = self.hv.take().expect("hypervisor running");
        let engine = InPlaceTransplant::new(registry);
        match engine.run(&mut self.machine, hv, target) {
            Ok((new_hv, report)) => {
                self.hv = Some(new_hv);
                Ok(report)
            }
            Err(e) => Err(e),
        }
    }

    /// Unplanned transplant: the running hypervisor just crashed. The host
    /// was checkpointing its VMs all along (the always-on warm
    /// checkpointer is materialized here, ticked once so it has realistic
    /// dirty state, then handed the dying hypervisor), and recovery
    /// micro-reboots into `target` from the freshest persisted checkpoint.
    pub(crate) fn host_crash_recover(
        &mut self,
        registry: &HypervisorRegistry,
        target: HypervisorKind,
        faults: &FaultPlan,
    ) -> Result<RecoveryReport, HtpError> {
        let mut hv = self.hv.take().expect("hypervisor running");
        let mut ckpt = WarmCheckpointer::start_with(
            &mut self.machine,
            hv.as_mut(),
            target,
            CheckpointConfig::default(),
            CostModel::paper_calibrated(),
            faults.clone(),
            WorkerPool::from_env(),
        )?;
        // One background interval before the crash lands; if the plan
        // fires the crash gate mid-tick the checkpointer aborts at that
        // phase and recovery proceeds from the persisted image.
        ckpt.tick(&mut self.machine, hv.as_mut(), 32)?;
        let engine = UnplannedRecovery::new(registry).with_faults(faults.clone());
        let (new_hv, report) = engine.recover(&mut self.machine, hv, ckpt)?;
        self.hv = Some(new_hv);
        Ok(report)
    }
}

/// The Nova-like manager: hosts, a VM→host database, the scheduler filter
/// and the host-upgrade API.
pub struct NovaManager {
    /// The hypervisor pool.
    pub registry: HypervisorRegistry,
    computes: Vec<LibvirtDriver>,
    db: BTreeMap<String, usize>,
}

impl NovaManager {
    /// Creates a manager over a set of booted hosts.
    pub fn new(registry: HypervisorRegistry, computes: Vec<LibvirtDriver>) -> Self {
        NovaManager {
            registry,
            computes,
            db: BTreeMap::new(),
        }
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.computes.len()
    }

    /// Access a host driver.
    pub fn compute(&self, host: usize) -> &LibvirtDriver {
        &self.computes[host]
    }

    /// The host a VM lives on, per the manager's database.
    pub fn host_of(&self, vm: &str) -> Option<usize> {
        self.db.get(vm).copied()
    }

    /// The HyperTP-aware scheduler filter (§4.5.2 step 4): among hosts
    /// with room, prefer one whose resident VMs have the same
    /// InPlaceTP-compatibility as the new VM, so transplantable VMs stay
    /// together and a host can be upgraded with a single operation.
    pub(crate) fn pick_host(&self, config: &VmConfig) -> Option<usize> {
        (0..self.computes.len()).max_by_key(|&h| {
            let names = self.computes[h].vm_names();
            let matching = names
                .iter()
                .filter(|n| {
                    self.computes[h].vm_inplace_compatible(n) == Some(config.inplace_compatible)
                })
                .count() as i64;
            let mismatching = names.len() as i64 - matching;
            matching - 2 * mismatching
        })
    }

    /// Boots a VM through the scheduler.
    pub fn boot(&mut self, config: &VmConfig) -> Result<usize, HtpError> {
        let host = self
            .pick_host(config)
            .ok_or(HtpError::Unsupported("no hosts"))?;
        self.computes[host].spawn(config)?;
        self.db.insert(config.name.clone(), host);
        Ok(host)
    }

    /// Nova's live migration between two hosts.
    pub(crate) fn live_migration(
        &mut self,
        vm: &str,
        from: usize,
        to: usize,
    ) -> Result<MigrationReport, HtpError> {
        assert_ne!(from, to, "migration needs distinct hosts");
        let (a, b) = if from < to {
            let (lo, hi) = self.computes.split_at_mut(to);
            (&mut lo[from], &mut hi[0])
        } else {
            let (lo, hi) = self.computes.split_at_mut(from);
            (&mut hi[0], &mut lo[to])
        };
        let src_hv = a.hv.as_deref_mut().expect("hypervisor running");
        let dst_hv = b.hv.as_deref_mut().expect("hypervisor running");
        let id = src_hv.find_vm(vm).ok_or(HtpError::UnknownVm(VmId(0)))?;
        let tp = MigrationTp::new().with_config(MigrationConfig {
            link: hypertp_migrate::Link::ten_gigabit(),
            ..MigrationConfig::default()
        });
        let report = tp.migrate(&mut a.machine, src_hv, id, &mut b.machine, dst_hv)?;
        self.db.insert(vm.to_string(), to);
        Ok(report)
    }

    /// The §4.5.2 "one-click" host upgrade: live-migrate away every VM
    /// that does not support HyperTP, upgrade the host with the rest in
    /// place, and update the database.
    pub fn host_live_upgrade(
        &mut self,
        host: usize,
        target: HypervisorKind,
    ) -> Result<(InPlaceReport, Vec<MigrationReport>), HtpError> {
        let names = self.computes[host].vm_names();
        let mut evacuations = Vec::new();
        for name in names {
            if self.computes[host].vm_inplace_compatible(&name) == Some(false) {
                let dest = (0..self.computes.len())
                    .find(|&h| h != host)
                    .ok_or(HtpError::Unsupported("no evacuation target"))?;
                evacuations.push(self.live_migration(&name, host, dest)?);
            }
        }
        let report = {
            // Borrow the registry and the compute separately.
            let registry = &self.registry;
            self.computes[host].host_live_upgrade(registry, target)?
        };
        Ok((report, evacuations))
    }

    /// Crash-recover a host onto `target`. Fleet policy keeps
    /// InPlaceTP-incompatible VMs off checkpoint-armed hosts (the rescue
    /// hypervisor could not adopt them), so any still resident are drained
    /// first — modeling the pre-arranged state, not a crash-time action —
    /// and the recovery itself only ever sees compatible VMs.
    pub(crate) fn host_crash_recover(
        &mut self,
        host: usize,
        target: HypervisorKind,
        faults: &FaultPlan,
    ) -> Result<(RecoveryReport, Vec<MigrationReport>), HtpError> {
        let names = self.computes[host].vm_names();
        let mut evacuations = Vec::new();
        for name in names {
            if self.computes[host].vm_inplace_compatible(&name) == Some(false) {
                let dest = (0..self.computes.len())
                    .find(|&h| h != host)
                    .ok_or(HtpError::Unsupported("no evacuation target"))?;
                evacuations.push(self.live_migration(&name, host, dest)?);
            }
        }
        let report = {
            let registry = &self.registry;
            self.computes[host].host_crash_recover(registry, target, faults)?
        };
        Ok((report, evacuations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(hosts: usize) -> NovaManager {
        let registry = pool();
        let clock = SimClock::new();
        let computes = (0..hosts)
            .map(|i| {
                let mut spec = MachineSpec::m1();
                spec.ram_gb = 8;
                LibvirtDriver::new(
                    format!("compute-{i}"),
                    spec,
                    clock.clone(),
                    &registry,
                    HypervisorKind::Xen,
                )
                .unwrap()
            })
            .collect();
        NovaManager::new(registry, computes)
    }

    #[test]
    fn zero_host_manager_degrades_cleanly() {
        // A manager with no computes is a valid (if useless) control
        // plane: the scheduler finds no host, boot reports it as an
        // error, and the database answers lookups with None.
        let mut nova = manager(0);
        assert_eq!(nova.pick_host(&VmConfig::small("vm")), None);
        assert!(nova.boot(&VmConfig::small("vm")).is_err());
        assert_eq!(nova.host_of("vm"), None);
    }

    #[test]
    fn zero_vm_host_crash_recovers_through_the_api() {
        // A crashed host carrying no VMs still micro-reboots onto the
        // target: the recovery has nothing to restore but must leave the
        // host serving the rescue hypervisor.
        let mut nova = manager(1);
        let faults = hypertp_sim::fault::FaultPlan::disarmed();
        let (report, evacuations) = nova
            .host_crash_recover(0, HypervisorKind::Kvm, &faults)
            .unwrap();
        assert_eq!(report.vm_count, 0);
        assert!(evacuations.is_empty());
        assert_eq!(nova.compute(0).hypervisor_kind(), HypervisorKind::Kvm);
    }

    #[test]
    fn boot_and_database() {
        let mut nova = manager(2);
        let host = nova.boot(&VmConfig::small("web")).unwrap();
        assert_eq!(nova.host_of("web"), Some(host));
        assert!(nova.compute(host).vm_names().contains(&"web".to_string()));
    }

    #[test]
    fn scheduler_consolidates_transplantable_vms() {
        let mut nova = manager(2);
        // Seed host 0 with a compatible VM and host 1 with an incompatible
        // one.
        nova.computes[0].spawn(&VmConfig::small("a")).unwrap();
        nova.computes[1]
            .spawn(&VmConfig::small("b").with_inplace_compatible(false))
            .unwrap();
        let h_compat = nova.pick_host(&VmConfig::small("c")).unwrap();
        assert_eq!(h_compat, 0);
        let h_incompat = nova
            .pick_host(&VmConfig::small("d").with_inplace_compatible(false))
            .unwrap();
        assert_eq!(h_incompat, 1);
    }

    #[test]
    fn one_click_upgrade_mixes_migration_and_inplace() {
        let mut nova = manager(2);
        nova.boot(&VmConfig::small("stay")).unwrap();
        nova.boot(&VmConfig::small("leave").with_inplace_compatible(false))
            .unwrap();
        // Both landed on host 0 or were spread; force placement.
        let stay_host = nova.host_of("stay").unwrap();
        let (report, evacuations) = nova
            .host_live_upgrade(stay_host, HypervisorKind::Kvm)
            .unwrap();
        assert_eq!(
            nova.compute(stay_host).hypervisor_kind(),
            HypervisorKind::Kvm
        );
        // The compatible VM rode through; any incompatible one on that
        // host was evacuated first and the DB reflects it.
        assert!(report.vm_count >= 1);
        for m in &evacuations {
            let new_host = nova.host_of(&m.vm_name).unwrap();
            assert_ne!(new_host, stay_host);
        }
        assert!(nova
            .compute(stay_host)
            .vm_names()
            .contains(&"stay".to_string()));
    }

    #[test]
    fn live_migration_works_in_both_index_directions() {
        let mut nova = manager(3);
        nova.computes[2].spawn(&VmConfig::small("mv")).unwrap();
        nova.db.insert("mv".into(), 2);
        // High index -> low index exercises the reversed split_at_mut arm.
        let r = nova.live_migration("mv", 2, 0).unwrap();
        assert_eq!(nova.host_of("mv"), Some(0));
        assert!(r.total.as_secs_f64() > 0.0);
        // And back up again.
        nova.live_migration("mv", 0, 2).unwrap();
        assert_eq!(nova.host_of("mv"), Some(2));
        assert!(nova.compute(2).vm_names().contains(&"mv".to_string()));
    }

    #[test]
    fn upgrade_preserves_guest_memory_across_api() {
        let mut nova = manager(1);
        nova.boot(&VmConfig::small("db")).unwrap();
        // Touch guest memory through the driver's hypervisor.
        {
            let drv = &mut nova.computes[0];
            let hv = drv.hv.as_deref_mut().unwrap();
            let id = hv.find_vm("db").unwrap();
            hv.write_guest(&mut drv.machine, id, hypertp_machine::Gfn(5), 0x1337)
                .unwrap();
        }
        nova.host_live_upgrade(0, HypervisorKind::Kvm).unwrap();
        let drv = &nova.computes[0];
        let hv = drv.hv.as_deref().unwrap();
        let id = hv.find_vm("db").unwrap();
        assert_eq!(
            hv.read_guest(&drv.machine, id, hypertp_machine::Gfn(5))
                .unwrap(),
            0x1337
        );
    }
}
