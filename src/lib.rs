//! HyperTP: mitigating hypervisor vulnerability windows with hypervisor
//! transplant.
//!
//! This crate is the user-facing facade of the HyperTP reproduction
//! (EuroSys 2021). It re-exports the component crates and provides the
//! standard two-hypervisor pool (Xen ⇄ KVM) used throughout the paper.
//!
//! # Quickstart
//!
//! ```
//! use hypertp::prelude::*;
//!
//! // A machine running Xen with one small VM.
//! let mut machine = Machine::new(MachineSpec::m1());
//! let mut xen: Box<dyn Hypervisor> = Box::new(XenHypervisor::new(&mut machine));
//! xen.create_vm(&mut machine, &VmConfig::small("web-1")).unwrap();
//!
//! // A critical Xen CVE drops: transplant in place onto KVM.
//! let registry = hypertp::default_registry();
//! let engine = InPlaceTransplant::new(&registry);
//! let (kvm, report) = engine.run(&mut machine, xen, HypervisorKind::Kvm).unwrap();
//! assert_eq!(kvm.kind(), HypervisorKind::Kvm);
//! assert!(report.downtime().as_secs_f64() < 3.0);
//! ```

pub mod cli;

pub use hypertp_cluster as cluster;
pub use hypertp_core as core;
pub use hypertp_kvm as kvm;
pub use hypertp_machine as machine;
pub use hypertp_migrate as migrate;
pub use hypertp_pram as pram;
pub use hypertp_sim as sim;
pub use hypertp_uisr as uisr;
pub use hypertp_vulndb as vulndb;
pub use hypertp_workloads as workloads;
pub use hypertp_xen as xen;

/// Builds the paper's hypervisor pool: Xen 4.12-style and Linux 5.3/KVM +
/// kvmtool, both HyperTP-compliant (the one builder,
/// [`cluster::openstack::pool`]).
pub use hypertp_cluster::openstack::pool as default_registry;

/// Common imports for examples and downstream users.
pub mod prelude {
    pub use hypertp_core::{
        Hypervisor, HypervisorKind, HypervisorRegistry, InPlaceReport, InPlaceTransplant,
        IncrementalConfig, Optimizations, VmConfig, VmId, VmState,
    };
    pub use hypertp_kvm::KvmHypervisor;
    pub use hypertp_machine::{Gfn, Machine, MachineSpec};
    pub use hypertp_migrate::{migrate_many, MigrationConfig, MigrationTp, WireMode, WireStats};
    pub use hypertp_sim::{SimClock, SimDuration, SimTime};
    pub use hypertp_xen::XenHypervisor;

    pub use crate::default_registry;
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertp_core::HypervisorKind;

    #[test]
    fn default_registry_has_both_hypervisors() {
        let r = default_registry();
        assert!(r.contains(HypervisorKind::Xen));
        assert!(r.contains(HypervisorKind::Kvm));
        assert_eq!(r.kinds().len(), 2);
    }
}
