//! Shared experiment plumbing.

use hypertp_core::{
    Hypervisor, HypervisorKind, InPlaceReport, InPlaceTransplant, Optimizations, VmConfig,
};
use hypertp_machine::{Machine, MachineSpec};
use hypertp_migrate::{migrate_many, MigrationConfig, MigrationReport, MigrationTp};
use hypertp_sim::SimClock;

use crate::registry;

/// Creates `n` VMs of the given shape on a fresh source hypervisor.
pub fn populate(
    machine: &mut Machine,
    source: HypervisorKind,
    n: u32,
    vcpus: u32,
    memory_gb: u64,
) -> Box<dyn Hypervisor> {
    let reg = registry();
    let mut hv = reg.create(source, machine).expect("pool has both");
    for i in 0..n {
        let cfg = VmConfig::small(format!("vm{i}"))
            .with_vcpus(vcpus)
            .with_memory_gb(memory_gb);
        hv.create_vm(machine, &cfg).expect("capacity available");
    }
    hv
}

/// Runs one InPlaceTP transplant and returns its report.
pub(crate) fn run_inplace(
    spec: MachineSpec,
    source: HypervisorKind,
    target: HypervisorKind,
    n_vms: u32,
    vcpus: u32,
    memory_gb: u64,
    opts: Optimizations,
) -> InPlaceReport {
    let reg = registry();
    let mut machine = Machine::new(spec);
    let hv = populate(&mut machine, source, n_vms, vcpus, memory_gb);
    let engine = InPlaceTransplant::new(&reg).with_optimizations(opts);
    let (_hv, report) = engine.run(&mut machine, hv, target).expect("transplant");
    report
}

/// Runs one MigrationTP migration of a single VM between two machines of
/// the same spec and returns its report.
pub(crate) fn run_migration(
    spec: MachineSpec,
    target: HypervisorKind,
    vcpus: u32,
    memory_gb: u64,
    dirty_rate: f64,
) -> MigrationReport {
    let reg = registry();
    let clock = SimClock::new();
    let mut src_m = Machine::with_clock(spec.clone(), clock.clone());
    let mut dst_m = Machine::with_clock(spec, clock);
    let mut src = populate(&mut src_m, HypervisorKind::Xen, 1, vcpus, memory_gb);
    let mut dst = reg.create(target, &mut dst_m).expect("pool has both");
    let id = src.vm_ids()[0];
    let tp = MigrationTp::new().with_config(MigrationConfig {
        dirty_rate_pages_per_sec: dirty_rate,
        ..MigrationConfig::default()
    });
    tp.migrate(&mut src_m, src.as_mut(), id, &mut dst_m, dst.as_mut())
        .expect("migration")
}

/// Migrates `n` VMs concurrently and returns the per-VM reports.
pub(crate) fn run_migration_many(
    spec: MachineSpec,
    target: HypervisorKind,
    n: u32,
    memory_gb: u64,
    dirty_rate: f64,
) -> Vec<MigrationReport> {
    let reg = registry();
    let clock = SimClock::new();
    let mut src_m = Machine::with_clock(spec.clone(), clock.clone());
    let mut dst_m = Machine::with_clock(spec, clock);
    let mut src = populate(&mut src_m, HypervisorKind::Xen, n, 1, memory_gb);
    let mut dst = reg.create(target, &mut dst_m).expect("pool has both");
    let ids = src.vm_ids();
    let tp = MigrationTp::new().with_config(MigrationConfig {
        dirty_rate_pages_per_sec: dirty_rate,
        ..MigrationConfig::default()
    });
    migrate_many(
        &tp,
        &mut src_m,
        src.as_mut(),
        &ids,
        &mut dst_m,
        dst.as_mut(),
    )
    .expect("migration")
}

/// Seconds with 2 decimals.
pub fn s2(d: hypertp_sim::SimDuration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Milliseconds with 2 decimals.
pub(crate) fn ms2(d: hypertp_sim::SimDuration) -> String {
    format!("{:.2}", d.as_millis_f64())
}
