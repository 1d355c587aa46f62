//! Bench: wall-clock cost of a full InPlaceTP transplant in the
//! framework (the Fig. 6 scenario), per direction and per VM count.
//!
//! Runs on the in-tree timing harness (`hypertp_bench::harness`) so the
//! workspace builds offline; same group/bench ids as the old Criterion
//! bench.

use hypertp_bench::harness::{self, Group};
use hypertp_core::{HypervisorKind, InPlaceTransplant, VmConfig};
use hypertp_machine::{Machine, MachineSpec};

fn transplant(n_vms: u32, source: HypervisorKind, target: HypervisorKind) {
    let registry = hypertp_bench::registry();
    let mut machine = Machine::new(MachineSpec::m1());
    let mut hv = registry.create(source, &mut machine).expect("boot");
    for i in 0..n_vms {
        hv.create_vm(&mut machine, &VmConfig::small(format!("vm{i}")))
            .expect("create");
    }
    let engine = InPlaceTransplant::new(&registry);
    let (hv, report) = engine.run(&mut machine, hv, target).expect("transplant");
    assert_eq!(report.vm_count as u32, n_vms);
    std::hint::black_box(hv);
}

fn main() {
    harness::header();
    let mut g = Group::new("inplace_transplant");
    for n in [1u32, 4, 12] {
        g.bench(format!("xen_to_kvm/{n}"), || {
            transplant(n, HypervisorKind::Xen, HypervisorKind::Kvm)
        });
    }
    g.bench("kvm_to_xen/1", || {
        transplant(1, HypervisorKind::Kvm, HypervisorKind::Xen)
    });
    g.finish();
}
