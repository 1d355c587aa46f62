//! Figs. 11 and 12: application impact of InPlaceTP and MigrationTP on
//! Redis and MySQL (2 vCPU / 8 GB VM on M1, transplant at mid-run).

use hypertp_core::{HypervisorKind, VmConfig};
use hypertp_machine::MachineSpec;
use hypertp_sim::{SimDuration, SimTime, TimeSeries};
use hypertp_workloads::runner::{inplace_impact, migration_impact};
use hypertp_workloads::WorkloadProfile;

use crate::registry;
use crate::table;

fn app_vm() -> VmConfig {
    VmConfig::small("app-vm").with_vcpus(2).with_memory_gb(8)
}

fn downsample(series: &TimeSeries, step_s: u64) -> Vec<Vec<String>> {
    series
        .samples()
        .iter()
        .filter(|(t, _)| t.as_nanos() % (step_s * 1_000_000_000) == 0)
        .map(|(t, v)| vec![format!("{:.0}", t.as_secs_f64()), format!("{v:.0}")])
        .collect()
}

fn impact_pair(profile: &WorkloadProfile, title: &str, seed: u64) -> String {
    let reg = registry();
    let mut out = String::new();

    let (report, impact) = inplace_impact(
        &reg,
        MachineSpec::m1(),
        profile,
        &app_vm(),
        SimDuration::from_secs(50),
        SimDuration::from_secs(200),
        HypervisorKind::Kvm,
        seed,
    )
    .expect("inplace impact");
    out.push_str(&format!(
        "{title} / InPlaceTP: downtime {:.2} s, service interruption {:.2} s\n",
        report.downtime().as_secs_f64(),
        impact.interruption.as_secs_f64()
    ));
    let t = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    if let (Some(before), Some(after)) = (
        impact.series.mean_in(t(5), t(45)),
        impact.series.mean_in(t(100), t(195)),
    ) {
        out.push_str(&format!(
            "  mean before {before:.0}, after {after:.0} ({:+.1}%)\n",
            (after / before - 1.0) * 100.0
        ));
    }
    out.push_str(&table::render(
        &format!("{title} under InPlaceTP (sampled every 20 s)"),
        &["t(s)", "value"],
        &downsample(&impact.series, 20),
    ));

    let (mreport, mimpact) = migration_impact(
        &reg,
        MachineSpec::m1(),
        profile,
        &app_vm(),
        SimDuration::from_secs(46),
        SimDuration::from_secs(250),
        HypervisorKind::Kvm,
        seed + 1,
    )
    .expect("migration impact");
    out.push_str(&format!(
        "{title} / MigrationTP: copy phase {:.1} s, downtime {:.1} ms\n",
        mreport.total.as_secs_f64(),
        mreport.downtime.as_millis_f64()
    ));
    if let (Some(before), Some(during)) = (
        mimpact.series.mean_in(t(5), t(40)),
        mimpact.series.mean_in(t(60), t(110)),
    ) {
        out.push_str(&format!(
            "  mean before {before:.0}, during copy {during:.0} ({:+.1}%)\n",
            (during / before - 1.0) * 100.0
        ));
    }
    out.push_str(&table::render(
        &format!("{title} under MigrationTP (sampled every 20 s)"),
        &["t(s)", "value"],
        &downsample(&mimpact.series, 20),
    ));
    out
}

/// Fig. 11: Redis QPS.
pub(crate) fn fig11() -> String {
    impact_pair(&WorkloadProfile::redis(), "Redis QPS", 11)
}

/// Fig. 12: MySQL QPS and latency.
pub(crate) fn fig12() -> String {
    let mut out = impact_pair(&WorkloadProfile::mysql(), "MySQL QPS", 12);
    out.push_str(&impact_pair(
        &WorkloadProfile::mysql_latency(),
        "MySQL latency (ms)",
        13,
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig11_mentions_both_mechanisms() {
        let out = super::fig11();
        assert!(out.contains("InPlaceTP"));
        assert!(out.contains("MigrationTP"));
    }
}
