//! Tables 1–3: the vulnerability study, the state mapping, and the
//! experimental environment.

use hypertp_machine::MachineSpec;
use hypertp_vulndb::analysis;
use hypertp_vulndb::dataset::dataset;

use crate::table;

/// Table 1: vulnerabilities per year.
pub fn table1() -> String {
    let ds = dataset();
    let rows = analysis::table1(&ds);
    let mut body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.year.to_string(),
                r.xen_crit.to_string(),
                r.xen_med.to_string(),
                r.kvm_crit.to_string(),
                r.kvm_med.to_string(),
                r.common_crit.to_string(),
                r.common_med.to_string(),
            ]
        })
        .collect();
    let t = analysis::totals(&rows);
    body.push(vec![
        "Total".into(),
        t.0.to_string(),
        t.1.to_string(),
        t.2.to_string(),
        t.3.to_string(),
        t.4.to_string(),
        t.5.to_string(),
    ]);
    let mut out = table::render(
        "Table 1 — critical and medium vulnerabilities per year",
        &[
            "year",
            "Xen crit",
            "Xen med",
            "KVM crit",
            "KVM med",
            "common crit",
            "common med",
        ],
        &body,
    );
    if let Some(w) = analysis::window_stats(&ds, hypertp_vulndb::HypervisorId::Kvm) {
        out.push_str(&format!(
            "KVM windows (§2.2): n={}, mean {:.0} days, {:.0}% over 60 days, \
             max {} ({} days), min {} ({} days)\n",
            w.n,
            w.mean_days,
            w.frac_over_60 * 100.0,
            w.max.0,
            w.max.1,
            w.min.0,
            w.min.1
        ));
    }
    out
}

/// Table 2: the Xen–KVM state mapping.
pub fn table2() -> String {
    let rows: Vec<Vec<String>> = hypertp_uisr::state_mapping()
        .iter()
        .map(|r| {
            vec![
                r.xen_state.to_string(),
                r.uisr.to_string(),
                r.kvm_state.to_string(),
            ]
        })
        .collect();
    table::render(
        "Table 2 — Xen-KVM VM state mapping",
        &["Xen HVM state", "UISR", "KVM"],
        &rows,
    )
}

/// Table 3: the experimental environment.
pub(crate) fn table3() -> String {
    let rows: Vec<Vec<String>> = [
        MachineSpec::m1(),
        MachineSpec::m2(),
        MachineSpec::cluster_node(),
    ]
    .iter()
    .map(|s| {
        vec![
            s.name.clone(),
            s.cpu_model.clone(),
            format!("{}c/{}t @{:.1} GHz", s.cores, s.threads, s.freq_ghz),
            format!("{} GB", s.ram_gb),
            format!("{} Gbps", s.nic_gbps),
        ]
    })
    .collect();
    let mut out = table::render(
        "Table 3 — experimental machines",
        &["name", "CPU", "topology", "RAM", "NIC"],
        &rows,
    );
    out.push_str(
        "Benchmarks: SPECrate 2017 Int/FP (run time), MySQL+Sysbench (QPS, latency),\n\
         Redis+redis-benchmark (QPS), Darknet/MNIST (iteration time)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn tables_render() {
        assert!(super::table1().contains("2015"));
        assert!(super::table2().contains("LAPIC_REGS"));
        assert!(super::table3().contains("M2"));
    }
}
