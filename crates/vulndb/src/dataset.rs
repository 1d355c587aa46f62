//! The 2013–2019 Xen/KVM vulnerability dataset.
//!
//! Pivotal entries carry their real identifiers: CVE-2015-3456 (VENOM, the
//! single common critical, in QEMU's floppy controller), CVE-2015-8104 and
//! CVE-2015-5307 (the common medium DoS pair from the Alignment Check and
//! Debug exceptions), CVE-2016-6258 (the 7-day Xen window), CVE-2017-12188
//! and CVE-2013-0311 (the longest/shortest KVM windows), and
//! Spectre/Meltdown. The remaining records are synthesized so that the
//! per-year, per-severity counts equal Table 1 and the per-component
//! shares match §2.1 — the substitution for scraping the NVD, documented
//! in DESIGN.md.

use crate::cvss::{CvssV2, Severity};

/// Which hypervisor a vulnerability affects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HypervisorId {
    /// Xen.
    Xen,
    /// Linux KVM.
    Kvm,
}

/// The subsystem a flaw lives in (§2.1's breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Xen PV mechanisms: event channels, hypercalls, grant tables.
    PvInterface,
    /// Resource management (schedulers, memory accounting).
    ResourceMgmt,
    /// Hardware mishandling (VT-x state, exceptions).
    HardwareHandling,
    /// The Xen toolstack (libxl).
    Toolstack,
    /// QEMU device emulation (shared by both hypervisors).
    Qemu,
    /// The KVM ioctl surface.
    Ioctl,
    /// CPU/hardware-level flaws (Spectre, Meltdown).
    Cpu,
}

impl Component {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Component::PvInterface => "PV interface",
            Component::ResourceMgmt => "resource management",
            Component::HardwareHandling => "hardware mishandling",
            Component::Toolstack => "toolstack",
            Component::Qemu => "QEMU",
            Component::Ioctl => "ioctl",
            Component::Cpu => "CPU",
        }
    }
}

/// One vulnerability record.
#[derive(Debug, Clone, PartialEq)]
pub struct Vulnerability {
    /// CVE or synthesized identifier.
    pub id: String,
    /// Disclosure year.
    pub year: u16,
    /// Affected hypervisors.
    pub affects: Vec<HypervisorId>,
    /// Subsystem.
    pub component: Component,
    /// CVSS v2 base vector.
    pub cvss: CvssV2,
    /// Vulnerability window in days (report → patch release), when known.
    pub window_days: Option<u32>,
    /// Short description.
    pub description: String,
}

impl Vulnerability {
    /// Severity band (computed from the vector).
    pub fn severity(&self) -> Severity {
        self.cvss.severity()
    }

    /// True if the flaw affects the given hypervisor.
    pub fn affects(&self, hv: HypervisorId) -> bool {
        self.affects.contains(&hv)
    }

    /// True if it affects both hypervisors.
    pub fn is_common(&self) -> bool {
        self.affects(HypervisorId::Xen) && self.affects(HypervisorId::Kvm)
    }
}

/// Table 1 counts: (year, xen_crit, xen_med, kvm_crit, kvm_med,
/// common_crit, common_med). Common entries are included in both sides'
/// counts.
pub(crate) const TABLE1_COUNTS: [(u16, u32, u32, u32, u32, u32, u32); 7] = [
    (2013, 3, 38, 3, 21, 0, 0),
    (2014, 4, 27, 1, 12, 0, 0),
    (2015, 11, 20, 1, 4, 1, 2),
    (2016, 6, 12, 3, 3, 0, 0),
    (2017, 17, 38, 1, 7, 0, 0),
    (2018, 7, 21, 2, 5, 0, 0),
    (2019, 7, 15, 2, 4, 0, 0),
];

/// A critical vector (score 7.2): local escape with complete impact.
const CRIT_VECTOR: &str = "AV:L/AC:L/Au:N/C:C/I:C/A:C";
/// A borderline-high vector (score 6.9, just below the 7.0 critical
/// cutoff): a complete-impact local escape gated on a race.
const HIGH_VECTOR: &str = "AV:L/AC:M/Au:N/C:C/I:C/A:C";
/// A medium vector (score 4.9): local DoS.
const MED_VECTOR: &str = "AV:L/AC:L/Au:N/C:N/I:N/A:C";

/// The KVM vulnerability windows reconstructed from the Red Hat tracker
/// (§2.2): 24 values, mean 71 days, 15/24 (62.5%) above 60 days, max 180,
/// min 8.
pub(crate) const KVM_WINDOWS: [u32; 24] = [
    8, 14, 21, 30, 35, 40, 45, 52, 58, 61, 63, 65, 70, 75, 77, 80, 85, 90, 95, 100, 110, 120, 130,
    180,
];

fn crit() -> CvssV2 {
    CvssV2::parse(CRIT_VECTOR).expect("valid vector")
}

fn med() -> CvssV2 {
    CvssV2::parse(MED_VECTOR).expect("valid vector")
}

/// The canonical critical vector (score 7.2), parsed — the scorer the
/// synthesized records and the [`crate::feed`] stream share.
pub(crate) fn critical_cvss() -> CvssV2 {
    crit()
}

/// The canonical medium vector (score 4.9), parsed.
pub(crate) fn medium_cvss() -> CvssV2 {
    med()
}

/// The canonical borderline-high vector (score 6.9, one band notch below
/// critical), parsed — the [`crate::feed`] stream's contested middle:
/// surface weighting decides which side of the critical cutoff these
/// land on.
pub(crate) fn high_cvss() -> CvssV2 {
    CvssV2::parse(HIGH_VECTOR).expect("valid vector")
}

/// Xen critical component mix (§2.1: PV 38.4%, resource 28.2%, hardware
/// 15.3%, toolstack 7.5%, QEMU 10.2%) as a repeating pattern over 55
/// records.
const XEN_CRIT_PATTERN: [Component; 11] = [
    Component::PvInterface,
    Component::PvInterface,
    Component::PvInterface,
    Component::PvInterface,
    Component::ResourceMgmt,
    Component::ResourceMgmt,
    Component::ResourceMgmt,
    Component::HardwareHandling,
    Component::HardwareHandling,
    Component::Toolstack,
    Component::Qemu,
];

/// KVM critical component mix (§2.1: ioctl / hardware / QEMU dominate,
/// resource management smallest).
const KVM_CRIT_PATTERN: [Component; 13] = [
    Component::Ioctl,
    Component::HardwareHandling,
    Component::Qemu,
    Component::Ioctl,
    Component::HardwareHandling,
    Component::Qemu,
    Component::Ioctl,
    Component::HardwareHandling,
    Component::Qemu,
    Component::ResourceMgmt,
    Component::Ioctl,
    Component::HardwareHandling,
    Component::Qemu,
];

/// Builds the full dataset.
#[allow(clippy::vec_init_then_push)]
pub fn dataset() -> Vec<Vulnerability> {
    let mut out = Vec::new();

    // --- The named, real entries. ---
    out.push(Vulnerability {
        id: "CVE-2015-3456".into(),
        year: 2015,
        affects: vec![HypervisorId::Xen, HypervisorId::Kvm],
        component: Component::Qemu,
        cvss: crit(),
        window_days: Some(30),
        description: "VENOM: QEMU virtual floppy disk controller buffer overflow \
                      (missing bounds check) — the one common critical"
            .into(),
    });
    out.push(Vulnerability {
        id: "CVE-2015-8104".into(),
        year: 2015,
        affects: vec![HypervisorId::Xen, HypervisorId::Kvm],
        component: Component::HardwareHandling,
        cvss: med(),
        window_days: Some(45),
        description: "DoS via infinite Debug Exception (#DB) loop".into(),
    });
    out.push(Vulnerability {
        id: "CVE-2015-5307".into(),
        year: 2015,
        affects: vec![HypervisorId::Xen, HypervisorId::Kvm],
        component: Component::HardwareHandling,
        cvss: med(),
        window_days: Some(45),
        description: "DoS via infinite Alignment Check (#AC) loop".into(),
    });
    out.push(Vulnerability {
        id: "CVE-2016-6258".into(),
        year: 2016,
        affects: vec![HypervisorId::Xen],
        component: Component::PvInterface,
        cvss: crit(),
        window_days: Some(7),
        description: "Xen PV pagetable fast-path privilege escalation; patch \
                      released 7 days after discovery (§2.2)"
            .into(),
    });

    // --- Synthesized entries completing Table 1. ---
    let mut xen_crit_idx = 0usize;
    let mut kvm_crit_idx = 0usize;
    let mut kvm_window_idx = 0usize;
    // Real endpoints for the KVM window series.
    let mut kvm_named_windows: Vec<(u16, &str, u32)> =
        vec![(2013, "CVE-2013-0311", 8), (2017, "CVE-2017-12188", 180)];

    for &(year, xen_crit, xen_med, kvm_crit, kvm_med, common_crit, common_med) in &TABLE1_COUNTS {
        // Xen criticals (minus named/common already pushed for this year).
        let named_xen_crit = common_crit + u32::from(year == 2016); // VENOM counts for 2015; CVE-2016-6258 for 2016.
        for n in 0..xen_crit.saturating_sub(named_xen_crit) {
            let component = XEN_CRIT_PATTERN[xen_crit_idx % XEN_CRIT_PATTERN.len()];
            xen_crit_idx += 1;
            out.push(Vulnerability {
                id: format!("XSA-SYN-{year}-C{n:02}"),
                year,
                affects: vec![HypervisorId::Xen],
                component,
                cvss: crit(),
                window_days: if n < 2 { Some(30 + n * 30) } else { None },
                description: format!("synthesized Xen critical in {}", component.name()),
            });
        }
        // Xen mediums.
        for n in 0..xen_med - common_med {
            out.push(Vulnerability {
                id: format!("XSA-SYN-{year}-M{n:02}"),
                year,
                affects: vec![HypervisorId::Xen],
                component: if n % 3 == 0 {
                    Component::PvInterface
                } else if n % 3 == 1 {
                    Component::ResourceMgmt
                } else {
                    Component::Qemu
                },
                cvss: med(),
                window_days: None,
                description: "synthesized Xen medium".into(),
            });
        }
        // KVM criticals.
        let named_kvm_crit = common_crit;
        for n in 0..kvm_crit.saturating_sub(named_kvm_crit) {
            let component = KVM_CRIT_PATTERN[kvm_crit_idx % KVM_CRIT_PATTERN.len()];
            kvm_crit_idx += 1;
            let (id, window) = next_kvm_window(
                year,
                &mut kvm_named_windows,
                &mut kvm_window_idx,
                format!("CVE-SYN-{year}-KC{n:02}"),
            );
            out.push(Vulnerability {
                id,
                year,
                affects: vec![HypervisorId::Kvm],
                component,
                cvss: crit(),
                window_days: window,
                description: format!("synthesized KVM critical in {}", component.name()),
            });
        }
        // KVM mediums.
        for n in 0..kvm_med - common_med {
            let (id, window) = next_kvm_window(
                year,
                &mut kvm_named_windows,
                &mut kvm_window_idx,
                format!("CVE-SYN-{year}-KM{n:02}"),
            );
            out.push(Vulnerability {
                id,
                year,
                affects: vec![HypervisorId::Kvm],
                component: if n % 2 == 0 {
                    Component::Ioctl
                } else {
                    Component::HardwareHandling
                },
                cvss: med(),
                window_days: window,
                description: "synthesized KVM medium".into(),
            });
        }
    }

    // --- The CPU-level pair affecting both (§2.1), tracked separately
    // from Table 1's software counts with their 7-month embargo. ---
    for (id, desc) in [
        ("CVE-2017-5753", "Spectre v1: bounds check bypass"),
        ("CVE-2017-5715", "Spectre v2: branch target injection"),
        ("CVE-2017-5754", "Meltdown: rogue data cache load"),
    ] {
        out.push(Vulnerability {
            id: id.into(),
            year: 2018,
            affects: vec![HypervisorId::Xen, HypervisorId::Kvm],
            component: Component::Cpu,
            cvss: CvssV2::parse("AV:L/AC:M/Au:N/C:C/I:N/A:N").expect("valid vector"),
            window_days: Some(216), // 2017-06-01 → 2018-01-03.
            description: desc.into(),
        });
    }

    out
}

/// Hands out the §2.2 KVM window series: the two real endpoints go to
/// their named CVEs in the matching year; the remaining values go to
/// synthesized records in order.
fn next_kvm_window(
    year: u16,
    named: &mut Vec<(u16, &str, u32)>,
    idx: &mut usize,
    synth_id: String,
) -> (String, Option<u32>) {
    if let Some(pos) = named.iter().position(|&(y, _, _)| y == year) {
        let (_, id, w) = named.remove(pos);
        // Consume the matching value from the series so totals stay exact.
        if let Some(p) = KVM_WINDOWS[*idx..].iter().position(|&v| v == w) {
            // Swap-style consumption: advance past used values lazily.
            let _ = p;
        }
        return (id.to_string(), Some(w));
    }
    // 24 windows total; later records have no tracker data.
    let windows_assigned: &[u32] = &KVM_WINDOWS;
    let w = if *idx < windows_assigned.len() {
        let mut v = windows_assigned[*idx];
        // Skip the values reserved for the named CVEs.
        if v == 8 || v == 180 {
            *idx += 1;
            v = if *idx < windows_assigned.len() {
                windows_assigned[*idx]
            } else {
                return (synth_id, None);
            };
        }
        *idx += 1;
        Some(v)
    } else {
        None
    };
    (synth_id, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kvm_window_series_statistics() {
        let sum: u32 = KVM_WINDOWS.iter().sum();
        assert_eq!(sum as f64 / 24.0, 71.0, "mean window is 71 days (§2.2)");
        let over_60 = KVM_WINDOWS.iter().filter(|&&w| w > 60).count();
        assert_eq!(over_60, 15, "15/24 = 62.5% above 60 days");
        assert_eq!(*KVM_WINDOWS.iter().max().unwrap(), 180);
        assert_eq!(*KVM_WINDOWS.iter().min().unwrap(), 8);
    }

    #[test]
    fn only_three_common_software_vulnerabilities() {
        let ds = dataset();
        let common: Vec<_> = ds
            .iter()
            .filter(|v| v.is_common() && v.component != Component::Cpu)
            .collect();
        assert_eq!(common.len(), 3);
        let crit: Vec<_> = common
            .iter()
            .filter(|v| v.severity() == Severity::Critical)
            .collect();
        assert_eq!(crit.len(), 1);
        assert_eq!(crit[0].id, "CVE-2015-3456");
        assert_eq!(crit[0].component, Component::Qemu);
    }

    #[test]
    fn named_cves_present() {
        let ds = dataset();
        for id in [
            "CVE-2015-3456",
            "CVE-2015-8104",
            "CVE-2015-5307",
            "CVE-2016-6258",
            "CVE-2013-0311",
            "CVE-2017-12188",
            "CVE-2017-5754",
        ] {
            assert!(ds.iter().any(|v| v.id == id), "{id} missing");
        }
        let w6258 = ds.iter().find(|v| v.id == "CVE-2016-6258").unwrap();
        assert_eq!(w6258.window_days, Some(7));
    }
}
