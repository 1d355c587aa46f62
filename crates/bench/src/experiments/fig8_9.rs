//! Figs. 8 and 9: MigrationTP downtime and total migration time versus
//! the Xen→Xen live-migration baseline, swept over vCPUs, memory size and
//! number of VMs (M1 pair over 1 Gbps).

use hypertp_core::HypervisorKind;
use hypertp_machine::MachineSpec;
use hypertp_sim::stats::BoxPlot;
use hypertp_sim::WorkerPool;

use super::common::{ms2, run_migration, run_migration_many, s2};
use crate::table;

/// Idle-VM dirty rate used for the sweeps (§5.2 uses idle VMs).
const IDLE_RATE: f64 = 10.0;

/// The single-VM sweep grid shared by Figs. 8 and 9: (label, vcpus, mem).
fn single_vm_points() -> Vec<(String, u32, u64)> {
    let mut points = Vec::new();
    for vcpus in [1u32, 2, 4, 6, 8, 10] {
        points.push((format!("vcpus={vcpus}"), vcpus, 1));
    }
    for mem in [2u64, 4, 6, 8, 10, 12] {
        points.push((format!("mem={mem}GB"), 1, mem));
    }
    points
}

/// Fig. 8: downtime (ms).
///
/// Each sweep point's baseline/HyperTP migration pair runs on its own
/// worker of the pool (every point boots fresh machine pairs); row order
/// is the sweep order for any worker count.
pub(crate) fn fig8() -> String {
    let pool = WorkerPool::from_env();
    let mut out = String::new();
    let rows = pool
        .map(single_vm_points(), |(label, vcpus, mem)| {
            let tp = run_migration(
                MachineSpec::m1(),
                HypervisorKind::Kvm,
                vcpus,
                mem,
                IDLE_RATE,
            );
            let xen = run_migration(
                MachineSpec::m1(),
                HypervisorKind::Xen,
                vcpus,
                mem,
                IDLE_RATE,
            );
            vec![label, ms2(xen.downtime), ms2(tp.downtime)]
        })
        .results;
    out.push_str(&table::render(
        "Fig. 8 — migration downtime (ms), Xen baseline vs MigrationTP",
        &["point", "Xen downtime", "HyperTP downtime"],
        &rows,
    ));

    // Multi-VM: boxplots of per-VM downtime (Xen's sequential receive
    // spreads; kvmtool stays constant).
    let bp = |rs: &[hypertp_migrate::MigrationReport]| {
        let v: Vec<f64> = rs.iter().map(|r| r.downtime.as_secs_f64()).collect();
        let b = BoxPlot::of(&v).expect("non-empty");
        format!("{:.2}/{:.2}/{:.2}", b.min, b.median, b.max)
    };
    let rows = pool
        .map(vec![2u32, 4, 6, 8, 10, 12], |n| {
            let tp = run_migration_many(MachineSpec::m1(), HypervisorKind::Kvm, n, 1, IDLE_RATE);
            let xen = run_migration_many(MachineSpec::m1(), HypervisorKind::Xen, n, 1, IDLE_RATE);
            vec![format!("vms={n}"), bp(&xen), bp(&tp)]
        })
        .results;
    out.push_str(&table::render(
        "Fig. 8 (cont.) — multi-VM downtime seconds (min/median/max)",
        &["point", "Xen", "HyperTP"],
        &rows,
    ));
    out
}

/// Fig. 9: total migration time (s). Pooled like [`fig8`].
pub(crate) fn fig9() -> String {
    let pool = WorkerPool::from_env();
    let rows = pool
        .map(single_vm_points(), |(label, vcpus, mem)| {
            let tp = run_migration(
                MachineSpec::m1(),
                HypervisorKind::Kvm,
                vcpus,
                mem,
                IDLE_RATE,
            );
            let xen = run_migration(
                MachineSpec::m1(),
                HypervisorKind::Xen,
                vcpus,
                mem,
                IDLE_RATE,
            );
            vec![label, s2(xen.total), s2(tp.total)]
        })
        .results;
    let mut out = table::render(
        "Fig. 9 — total migration time (s), Xen baseline vs MigrationTP",
        &["point", "Xen", "HyperTP"],
        &rows,
    );
    let span = |rs: &[hypertp_migrate::MigrationReport]| {
        let v: Vec<f64> = rs.iter().map(|r| r.total.as_secs_f64()).collect();
        let b = BoxPlot::of(&v).expect("non-empty");
        format!("{:.1}/{:.1}/{:.1}", b.min, b.median, b.max)
    };
    let rows = pool
        .map(vec![2u32, 4, 6, 8, 10, 12], |n| {
            let tp = run_migration_many(MachineSpec::m1(), HypervisorKind::Kvm, n, 1, IDLE_RATE);
            let xen = run_migration_many(MachineSpec::m1(), HypervisorKind::Xen, n, 1, IDLE_RATE);
            vec![format!("vms={n}"), span(&xen), span(&tp)]
        })
        .results;
    out.push_str(&table::render(
        "Fig. 9 (cont.) — multi-VM per-VM completion seconds (min/median/max)",
        &["point", "Xen", "HyperTP"],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    #[ignore = "runs the full migration sweep; use `--ignored` or the fig8 binary"]
    fn fig8_shows_downtime_gap() {
        let out = super::fig8();
        assert!(out.contains("vcpus=1"));
        assert!(out.contains("vms=12"));
    }
}
