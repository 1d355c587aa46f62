//! Sensitivity studies beyond the paper's sweeps: how MigrationTP reacts
//! to guest write intensity, and how the cluster upgrade reacts to the
//! operator's migration-concurrency cap.

use hypertp_cluster::exec::{execute, ExecConfig};
use hypertp_cluster::{plan_upgrade, Cluster};
use hypertp_core::HypervisorKind;
use hypertp_machine::MachineSpec;

use super::common::{ms2, run_migration, s2};
use crate::table;

/// MigrationTP vs dirty rate: convergence rounds, total time, downtime,
/// bytes amplification (1 GB VM over 1 Gbps).
pub fn dirty_rate() -> String {
    let mut rows = Vec::new();
    for rate in [0.0, 100.0, 1_000.0, 5_000.0, 10_000.0, 20_000.0, 50_000.0] {
        let r = run_migration(MachineSpec::m1(), HypervisorKind::Kvm, 1, 1, rate);
        rows.push(vec![
            format!("{rate}"),
            r.rounds.len().to_string(),
            s2(r.total),
            ms2(r.downtime),
            format!("{:.2}", r.bytes_sent as f64 / (1u64 << 30) as f64),
        ]);
    }
    let mut out = table::render(
        "Sensitivity — MigrationTP vs guest dirty rate (1 GB VM, 1 Gbps)",
        &[
            "dirty pages/s",
            "rounds",
            "total (s)",
            "downtime (ms)",
            "GiB sent",
        ],
        &rows,
    );
    out.push_str(
        "takeaway: pre-copy amplifies traffic and rounds with write intensity; \
         downtime stays bounded by the stop threshold until the round cap forces \
         a larger residual set\n",
    );
    out
}

/// Cluster upgrade time vs the operator's concurrent-migration cap.
pub(crate) fn migration_concurrency() -> String {
    let cluster = Cluster::paper_testbed(0, 42);
    let plan = plan_upgrade(&cluster, 2).expect("plan");
    let mut rows = Vec::new();
    for slots in [1usize, 2, 4, 8] {
        let r = execute(
            &cluster,
            &plan,
            &ExecConfig {
                max_concurrent_migrations: slots,
                ..ExecConfig::default()
            },
        );
        rows.push(vec![
            slots.to_string(),
            r.migrations.to_string(),
            format!("{:.1}", r.total.as_secs_f64() / 60.0),
        ]);
    }
    let mut out = table::render(
        "Sensitivity — all-migration cluster upgrade vs concurrency cap",
        &["concurrent migrations", "migrations", "total (min)"],
        &rows,
    );
    out.push_str(
        "takeaway: concurrency overlaps orchestration overhead but shares fabric \
         bandwidth, so the all-migration path cannot approach InPlaceTP's total\n",
    );
    out
}

/// Both studies.
pub fn run() -> String {
    let mut out = dirty_rate();
    out.push('\n');
    out.push_str(&migration_concurrency());
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn concurrency_table_renders() {
        let out = super::migration_concurrency();
        assert!(out.contains("concurrent migrations"));
    }
}
