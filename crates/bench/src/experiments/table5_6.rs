//! Tables 5 and 6: SPECrate 2017 and Darknet impact.

use hypertp_core::{HypervisorKind, Optimizations};
use hypertp_machine::MachineSpec;
use hypertp_sim::SimDuration;
use hypertp_workloads::darknet::{train, TrainingDisruption};
use hypertp_workloads::spec;
use hypertp_workloads::WorkloadProfile;

use super::common::run_inplace;
use crate::table;

/// The SPEC/Darknet VM (2 vCPU / 8 GB on M1, §5.3).
fn measured_inplace_downtime() -> SimDuration {
    let r = run_inplace(
        MachineSpec::m1(),
        HypervisorKind::Xen,
        HypervisorKind::Kvm,
        1,
        2,
        8,
        Optimizations::default(),
    );
    r.downtime()
}

/// Table 5: SPECrate 2017.
pub fn table5() -> String {
    let inplace_downtime = measured_inplace_downtime();
    // CPU-bound guests see the migration's CPU-side interference plus the
    // sub-second downtime.
    let migration_overhead = SimDuration::from_millis(4960);
    let rows = spec::table5(inplace_downtime, migration_overhead, 2017);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{:.2}", r.kvm_s),
                format!("{:.2}", r.xen_s),
                format!("{:.2}", r.inplace_s),
                format!("{:.2}", r.inplace_deg_pct),
                format!("{:.2}", r.migration_s),
                format!("{:.2}", r.migration_deg_pct),
            ]
        })
        .collect();
    let max_in = rows.iter().map(|r| r.inplace_deg_pct).fold(0.0, f64::max);
    let max_mi = rows.iter().map(|r| r.migration_deg_pct).fold(0.0, f64::max);
    let mut out = table::render(
        "Table 5 — SPECrate 2017 impact (seconds / degradation %)",
        &[
            "benchmark",
            "KVM",
            "Xen",
            "InPlaceTP",
            "Deg(%)",
            "MigrationTP",
            "Deg(%)",
        ],
        &body,
    );
    out.push_str(&format!(
        "max degradation: InPlaceTP {max_in:.2}% (paper 4.19%), MigrationTP {max_mi:.2}% \
         (paper 4.81%); InPlaceTP downtime used: {:.2} s\n",
        inplace_downtime.as_secs_f64()
    ));
    out
}

/// Table 6: Darknet training iterations.
pub(crate) fn table6() -> String {
    let p = WorkloadProfile::darknet();
    let inplace_downtime = measured_inplace_downtime();
    let copy_secs = 74.0; // 8 GB over 1 Gbps.
    let default = train(&p, TrainingDisruption::None, 6);
    let xen_mig = train(
        &p,
        TrainingDisruption::Migration {
            downtime: SimDuration::from_millis(134),
            copy_secs,
        },
        6,
    );
    let inplace = train(
        &p,
        TrainingDisruption::InPlace {
            downtime: inplace_downtime,
        },
        6,
    );
    let migration = train(
        &p,
        TrainingDisruption::Migration {
            downtime: SimDuration::from_millis(5),
            copy_secs,
        },
        6,
    );
    let rows = vec![
        vec![
            "mean iteration (s)".to_string(),
            format!("{:.3}", default.mean()),
            format!("{:.3}", xen_mig.mean()),
            format!("{:.3}", inplace.mean()),
            format!("{:.3}", migration.mean()),
        ],
        vec![
            "longest iteration (s)".to_string(),
            format!("{:.3}", default.longest()),
            format!("{:.3}", xen_mig.longest()),
            format!("{:.3}", inplace.longest()),
            format!("{:.3}", migration.longest()),
        ],
    ];
    let mut out = table::render(
        "Table 6 — Darknet training iterations",
        &[
            "metric",
            "Default",
            "Xen migration",
            "InPlaceTP",
            "MigrationTP",
        ],
        &rows,
    );
    out.push_str("paper longest: 2.044 / 2.672 / 4.970 / 2.244 s\n");
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn table5_has_23_benchmarks() {
        let out = super::table5();
        assert!(out.contains("deepsjeng"));
        assert!(out.contains("max degradation"));
    }

    #[test]
    fn table6_orders_match_paper() {
        let out = super::table6();
        assert!(out.contains("longest iteration"));
    }
}
