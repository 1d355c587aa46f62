//! Figs. 7 and 10: InPlaceTP scalability sweeps (vCPUs, memory size,
//! number of VMs) on M1 and M2, for both transplant directions.

use hypertp_core::{HypervisorKind, Optimizations};
use hypertp_machine::MachineSpec;
use hypertp_sim::WorkerPool;

use super::common::{run_inplace, s2};
use crate::table;

fn sweep(source: HypervisorKind, target: HypervisorKind) -> String {
    // Every sweep point boots its own machine and hypervisor pair, so the
    // whole grid fans out over the worker pool; `map` returns rows in
    // sweep order regardless of worker count, keeping the tables stable.
    let pool = WorkerPool::from_env();
    let mut out = String::new();
    for spec in [MachineSpec::m1(), MachineSpec::m2()] {
        let mut points: Vec<(String, u32, u32, u64)> = Vec::new(); // (label, vms, vcpus, mem)
        for vcpus in [1u32, 2, 4, 6, 8, 10] {
            points.push((format!("vcpus={vcpus}"), 1, vcpus, 1));
        }
        for mem in [2u64, 4, 6, 8, 10, 12] {
            points.push((format!("mem={mem}GB"), 1, 1, mem));
        }
        for n in [2u32, 4, 6, 8, 10, 12] {
            points.push((format!("vms={n}"), n, 1, 1));
        }
        let spec_ref = &spec;
        let rows = pool
            .map(points, |(label, n_vms, vcpus, mem)| {
                let r = run_inplace(
                    spec_ref.clone(),
                    source,
                    target,
                    n_vms,
                    vcpus,
                    mem,
                    Optimizations::default(),
                );
                row(label, &r)
            })
            .results;
        out.push_str(&table::render(
            &format!(
                "InPlaceTP scalability {source}→{target} on {} (seconds)",
                spec.name
            ),
            &[
                "point",
                "PRAM",
                "Translation",
                "Reboot",
                "Restoration",
                "downtime",
            ],
            &rows,
        ));
        out.push('\n');
    }
    out
}

fn row(point: String, r: &hypertp_core::InPlaceReport) -> Vec<String> {
    vec![
        point,
        s2(r.pram),
        s2(r.translation),
        s2(r.reboot),
        s2(r.restoration),
        s2(r.downtime()),
    ]
}

/// Fig. 7: Xen→KVM.
pub(crate) fn fig7() -> String {
    sweep(HypervisorKind::Xen, HypervisorKind::Kvm)
}

/// Fig. 10: KVM→Xen.
pub(crate) fn fig10() -> String {
    sweep(HypervisorKind::Kvm, HypervisorKind::Xen)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "runs the full 36-transplant sweep; use `--ignored` or the fig7 binary"]
    fn fig7_has_all_sweep_points() {
        let out = fig7();
        for p in ["vcpus=10", "mem=12GB", "vms=12"] {
            assert_eq!(out.matches(p).count(), 2, "{p} on both machines");
        }
    }
}
