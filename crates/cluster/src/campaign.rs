//! The full vulnerability-window campaign of Fig. 1(b).
//!
//! The paper's traditional timeline (Fig. 1a) leaves the datacenter
//! exposed from flaw identification until the patch is applied. HyperTP's
//! timeline (Fig. 1b) inserts two transplants: at disclosure, every host
//! moves to a safe hypervisor; when the patch ships and is applied, every
//! host moves back. This module orchestrates that end-to-end: policy
//! decision → fleet transplant out → the window elapses → patch →
//! fleet transplant back, with exposure accounting.

use std::collections::VecDeque;

use hypertp_core::{
    crash_gate, host_failure_gate, HostGate, HtpError, HypervisorKind, InPlaceReport,
    RecoveryReport,
};
use hypertp_sim::fault::FaultPlan;
use hypertp_sim::stats::{Histogram, Streaming};
use hypertp_sim::SimDuration;
use hypertp_vulndb::policy::{decide, Decision};
use hypertp_vulndb::{HypervisorId, Vulnerability};

use crate::exec::MAX_HOST_RETRIES;
use crate::openstack::NovaManager;

/// Maps the vulnerability database's hypervisor identity onto the
/// transplant framework's.
pub fn to_kind(id: HypervisorId) -> HypervisorKind {
    match id {
        HypervisorId::Xen => HypervisorKind::Xen,
        HypervisorId::Kvm => HypervisorKind::Kvm,
    }
}

/// Inverse of [`to_kind`].
pub fn to_id(kind: HypervisorKind) -> HypervisorId {
    match kind {
        HypervisorKind::Xen => HypervisorId::Xen,
        HypervisorKind::Kvm => HypervisorId::Kvm,
    }
}

/// Knobs for campaign orchestration under faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CampaignConfig {
    /// If set, the patch ships after this many hosts have completed the
    /// transplant-out wave: the remaining hosts patch in place and never
    /// visit the refuge hypervisor.
    pub patch_after_hosts: Option<usize>,
}

/// Bucketing of each wave's per-host downtime histogram: 30 × 1 s bins
/// over `[0, 30 s)` — InPlaceTP downtimes are seconds, so the overflow
/// counter only fills on pathological hosts.
pub const DOWNTIME_HIST_BUCKETS: usize = 30;
const DOWNTIME_HIST_LO: f64 = 0.0;
const DOWNTIME_HIST_HI: f64 = 30.0;

/// Bounded-memory aggregate of one transplant wave. Replaces the per-host
/// `Vec<InPlaceReport>` the campaign used to carry: at 10k hosts the
/// report stays a few hundred bytes, and two waves are byte-comparable
/// via [`WaveReport::render`].
#[derive(Debug, Clone, PartialEq)]
pub struct WaveReport {
    /// Hosts that completed the transplant in this wave.
    pub upgrades: usize,
    /// VMs carried through the wave's transplants.
    pub vms: u64,
    /// Streaming aggregate (seconds) of per-host VM downtime.
    pub downtime: Streaming,
    /// Streaming aggregate (seconds) of per-host end-to-end transplant
    /// time (including the below-the-blackout phases).
    pub total: Streaming,
    /// Fixed-bucket histogram of the per-host downtimes (see
    /// [`DOWNTIME_HIST_BUCKETS`]).
    pub downtime_hist: Histogram,
    /// Worst per-VM downtime of any host in the wave.
    pub worst_downtime: SimDuration,
    /// Hosts that reached the target via unplanned crash recovery rather
    /// than a planned transplant (they still count in `upgrades`).
    pub crash_recoveries: usize,
}

impl WaveReport {
    /// An empty wave.
    pub fn new() -> WaveReport {
        WaveReport {
            upgrades: 0,
            vms: 0,
            downtime: Streaming::new(),
            total: Streaming::new(),
            downtime_hist: Histogram::new(
                DOWNTIME_HIST_LO,
                DOWNTIME_HIST_HI,
                DOWNTIME_HIST_BUCKETS,
            ),
            worst_downtime: SimDuration::ZERO,
            crash_recoveries: 0,
        }
    }

    /// Folds one host's transplant into the wave.
    pub fn push(&mut self, report: &InPlaceReport) {
        self.upgrades += 1;
        self.vms += report.vm_count as u64;
        let dt = report.downtime();
        self.downtime.push(dt.as_secs_f64());
        self.total.push(report.total().as_secs_f64());
        self.downtime_hist.record(dt.as_secs_f64());
        self.worst_downtime = self.worst_downtime.max(dt);
    }

    /// Folds one host's unplanned crash recovery into the wave: the host
    /// still landed on the target hypervisor, but its VMs' downtime is the
    /// recovery latency rather than a planned blackout.
    pub fn push_recovery(&mut self, report: &RecoveryReport) {
        self.upgrades += 1;
        self.crash_recoveries += 1;
        self.vms += report.vm_count as u64;
        let dt = report.recovery_latency;
        self.downtime.push(dt.as_secs_f64());
        self.total
            .push((report.recovery_latency + report.background_time).as_secs_f64());
        self.downtime_hist.record(dt.as_secs_f64());
        self.worst_downtime = self.worst_downtime.max(dt);
    }

    /// Number of hosts the wave upgraded.
    pub fn len(&self) -> usize {
        self.upgrades
    }

    /// True when the wave upgraded nothing.
    pub fn is_empty(&self) -> bool {
        self.upgrades == 0
    }

    /// Mean per-host downtime across the wave.
    pub fn mean_downtime(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.downtime.mean())
    }

    /// Canonical byte-stable rendering: two waves aggregated the same
    /// hosts iff their renders match.
    pub fn render(&self) -> String {
        format!(
            "upgrades={} crashes={} vms={} worst_ns={} downtime{{{}}} total{{{}}} hist{{{}}}",
            self.upgrades,
            self.crash_recoveries,
            self.vms,
            self.worst_downtime.as_nanos(),
            self.downtime.render(),
            self.total.render(),
            self.downtime_hist.render(),
        )
    }
}

impl Default for WaveReport {
    fn default() -> Self {
        WaveReport::new()
    }
}

/// Outcome of a full campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The vulnerability that triggered the campaign.
    pub cve: String,
    /// Hypervisor the fleet ran before (and after) the campaign.
    pub home: HypervisorKind,
    /// Refuge hypervisor chosen by the policy.
    pub refuge: HypervisorKind,
    /// Streaming aggregate of the transplant-out wave.
    pub out: WaveReport,
    /// Streaming aggregate of the transplant-back wave.
    pub back: WaveReport,
    /// The vulnerability window that was covered.
    pub window: SimDuration,
    /// Worst per-VM downtime across both transplants of any host.
    pub worst_downtime: SimDuration,
    /// Number of hosts the campaign was responsible for.
    pub hosts_total: usize,
    /// Hosts excluded from the transplant-out wave after exhausting their
    /// retry budget: they ran the vulnerable hypervisor for the whole
    /// window (residual exposure).
    pub excluded_hosts: Vec<usize>,
    /// Hosts whose transplant *back* was abandoned: they remain on the
    /// refuge hypervisor — protected, but stranded away from home.
    pub stranded_hosts: Vec<usize>,
    /// VMs resident on excluded hosts — the workloads left exposed.
    pub residual_vms: usize,
    /// Hosts that skipped the refuge trip because the patch shipped
    /// mid-wave (see [`CampaignConfig::patch_after_hosts`]).
    pub skipped_after_patch: usize,
}

impl CampaignReport {
    /// Exposure eliminated: the whole window for every protected host;
    /// hosts excluded from the out-wave sat on the vulnerable hypervisor
    /// throughout, so their share of the window is *not* avoided.
    ///
    /// The complement of [`residual_exposure`] by construction —
    /// `avoided + residual == window` exactly — so both figures derive
    /// from the same [`crate::exposure::ExposureIntegrator`] accrual and
    /// can never drift from the executor's or the feed planner's
    /// accounting.
    ///
    /// [`residual_exposure`]: CampaignReport::residual_exposure
    pub fn exposure_avoided(&self) -> SimDuration {
        self.window.saturating_sub(self.residual_exposure())
    }

    /// Residual exposure: the window share of the excluded hosts,
    /// accrued through the workspace's single
    /// [`crate::exposure::ExposureIntegrator`] (each excluded host's
    /// fleet share is a deferred VM at unit criticality).
    pub fn residual_exposure(&self) -> SimDuration {
        if self.hosts_total == 0 || self.excluded_hosts.is_empty() {
            return SimDuration::ZERO;
        }
        let mut integ = crate::exposure::ExposureIntegrator::new(1.0, self.window);
        integ.deferred(self.excluded_hosts.len() as f64 / self.hosts_total as f64);
        SimDuration::from_secs_f64(integ.integral())
    }

    /// Ratio of worst service disruption to window covered — the
    /// cost/benefit the paper's abstract argues with.
    pub fn disruption_ratio(&self) -> f64 {
        self.worst_downtime.as_secs_f64() / self.window.as_secs_f64().max(1.0)
    }

    /// Canonical byte-stable rendering: two campaigns produced the same
    /// report iff their renders match.
    pub fn render(&self) -> String {
        format!(
            "cve={} home={:?} refuge={:?} window_ns={} worst_ns={} hosts={} \
             excluded={:?} stranded={:?} residual_vms={} skipped={} \
             out{{{}}} back{{{}}}",
            self.cve,
            self.home,
            self.refuge,
            self.window.as_nanos(),
            self.worst_downtime.as_nanos(),
            self.hosts_total,
            self.excluded_hosts,
            self.stranded_hosts,
            self.residual_vms,
            self.skipped_after_patch,
            self.out.render(),
            self.back.render(),
        )
    }
}

/// Errors from campaign orchestration.
#[derive(Debug)]
pub enum CampaignError {
    /// The policy found no safe hypervisor (e.g. a VENOM-class common
    /// flaw): fall back to emergency patching.
    NoSafeTarget,
    /// The fleet is not affected; no campaign is needed.
    NotAffected,
    /// The flaw is below the transplant threshold.
    BelowThreshold,
    /// A transplant failed mid-campaign.
    Transplant(HtpError),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::NoSafeTarget => write!(f, "no safe hypervisor in the pool"),
            CampaignError::NotAffected => write!(f, "fleet not affected"),
            CampaignError::BelowThreshold => write!(f, "below transplant threshold"),
            CampaignError::Transplant(e) => write!(f, "transplant failed: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<HtpError> for CampaignError {
    fn from(e: HtpError) -> Self {
        CampaignError::Transplant(e)
    }
}

/// Runs the Fig. 1(b) campaign over a Nova-managed fleet: decide, move
/// every host to the refuge hypervisor, let the window elapse, then move
/// the fleet home (the patch having been applied to the home hypervisor's
/// installation images in the meantime).
pub fn run_campaign(
    nova: &mut NovaManager,
    disclosed: &Vulnerability,
    open_flaws: &[&Vulnerability],
) -> Result<CampaignReport, CampaignError> {
    run_campaign_with(
        nova,
        disclosed,
        open_flaws,
        &FaultPlan::disarmed(),
        &CampaignConfig::default(),
    )
}

/// One wave of rolling host upgrades under fault injection.
struct WaveOutcome {
    /// Streaming aggregate of the wave's successful upgrades.
    report: WaveReport,
    /// Hosts upgraded, in completion order.
    upgraded: Vec<usize>,
    /// Hosts excluded after exhausting the retry budget.
    excluded: Vec<usize>,
    /// Hosts never attempted because the wave was cut short.
    skipped: Vec<usize>,
}

/// Rolls `hosts` through `nova.host_live_upgrade(host, target)`, one
/// after another in host order (the manager is one mutable control
/// plane).
///
/// [`hypertp_sim::fault::InjectionPoint::HostFailure`] models a host that
/// faults mid-upgrade before any VM state is consumed (e.g. kexec refuses
/// to load the target kernel): the attempt is abandoned, the host's VMs
/// keep running on the old hypervisor, and the host is requeued at the
/// back of the wave
/// ([`hypertp_sim::fault::RecoveryAction::RequeuedHost`]). After
/// `MAX_HOST_RETRIES` requeues (the executor's default budget, so the
/// two cannot drift apart) the host is excluded
/// ([`hypertp_sim::fault::RecoveryAction::ExcludedHost`]) and the
/// campaign continues without it, accounting its VMs as residual
/// exposure. The retry/exclude verdict comes from the shared
/// [`host_failure_gate`], so the campaign's and the executor's fault
/// logs use the same wording and off-by-one.
///
/// If `stop_after` is set, the wave is cut short once that many hosts
/// have completed: the rest land in `skipped` (the patch shipped before
/// their turn).
fn upgrade_wave(
    nova: &mut NovaManager,
    hosts: &[usize],
    target: HypervisorKind,
    faults: &FaultPlan,
    wave: &str,
    stop_after: Option<usize>,
) -> Result<WaveOutcome, CampaignError> {
    let mut out = WaveOutcome {
        report: WaveReport::new(),
        upgraded: Vec::new(),
        excluded: Vec::new(),
        skipped: Vec::new(),
    };
    let mut queue: VecDeque<(usize, u32)> = hosts.iter().map(|&h| (h, 0)).collect();
    while let Some((host, attempts)) = queue.pop_front() {
        if stop_after.is_some_and(|k| out.upgraded.len() >= k) {
            out.skipped.push(host);
            continue;
        }
        let site = format!("{wave} host c{host}");
        match host_failure_gate(faults, &site, attempts, MAX_HOST_RETRIES) {
            HostGate::Proceed => {
                // The hypervisor can crash right as the host's turn
                // comes: the unplanned path recovers it onto the same
                // target and the host rejoins the wave as upgraded.
                if crash_gate(faults, &format!("{site} crash")) {
                    let (report, _evacuations) = nova.host_crash_recover(host, target, faults)?;
                    out.report.push_recovery(&report);
                } else {
                    let (report, _evacuations) = nova.host_live_upgrade(host, target)?;
                    out.report.push(&report);
                }
                out.upgraded.push(host);
            }
            HostGate::Retry => queue.push_back((host, attempts + 1)),
            HostGate::Exclude => out.excluded.push(host),
        }
    }
    Ok(out)
}

/// [`run_campaign`] with fault injection and recovery knobs: failed host
/// upgrades are requeued then excluded (see `upgrade_wave`), every
/// decision is recorded in `faults`' log, and the report accounts the
/// exposure left on excluded hosts.
pub fn run_campaign_with(
    nova: &mut NovaManager,
    disclosed: &Vulnerability,
    open_flaws: &[&Vulnerability],
    faults: &FaultPlan,
    cfg: &CampaignConfig,
) -> Result<CampaignReport, CampaignError> {
    if nova.host_count() == 0 {
        // An empty fleet has nothing exposed and nothing to transplant.
        return Err(CampaignError::NotAffected);
    }
    let home = nova.compute(0).hypervisor_kind();
    let pool: Vec<HypervisorId> = nova.registry.kinds().into_iter().map(to_id).collect();
    let refuge = match decide(disclosed, to_id(home), &pool, open_flaws) {
        Decision::Transplant { target, .. } => to_kind(target),
        Decision::NoSafeTarget => return Err(CampaignError::NoSafeTarget),
        Decision::NotAffected => return Err(CampaignError::NotAffected),
        Decision::BelowThreshold => return Err(CampaignError::BelowThreshold),
    };

    // Transplant out, host by host (a rolling fleet upgrade). Hosts that
    // fail are requeued, then excluded; if the patch ships mid-wave the
    // remaining hosts stay home and patch directly.
    let hosts_total = nova.host_count();
    let all_hosts: Vec<usize> = (0..hosts_total).collect();
    let wave_out = upgrade_wave(
        nova,
        &all_hosts,
        refuge,
        faults,
        "transplant-out",
        cfg.patch_after_hosts,
    )?;

    // The vulnerability window elapses on the refuge hypervisor.
    let window = SimDuration::from_secs(disclosed.window_days.unwrap_or(30) as u64 * 24 * 3600);

    // The patch has shipped and been applied to the home hypervisor's
    // boot image: transplant back — but only the hosts that actually
    // left. Excluded and patch-skipped hosts are still home.
    let wave_back = upgrade_wave(
        nova,
        &wave_out.upgraded,
        home,
        faults,
        "transplant-back",
        None,
    )?;

    let residual_vms = wave_out
        .excluded
        .iter()
        .map(|&h| nova.compute(h).vm_names().len())
        .sum();
    let worst_downtime = wave_out
        .report
        .worst_downtime
        .max(wave_back.report.worst_downtime);
    Ok(CampaignReport {
        cve: disclosed.id.clone(),
        home,
        refuge,
        out: wave_out.report,
        back: wave_back.report,
        window,
        worst_downtime,
        hosts_total,
        excluded_hosts: wave_out.excluded,
        stranded_hosts: wave_back.excluded,
        residual_vms,
        skipped_after_patch: wave_out.skipped.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::openstack::{pool, LibvirtDriver};
    use hypertp_core::VmConfig;
    use hypertp_machine::MachineSpec;
    use hypertp_sim::fault::{InjectionPoint, RecoveryAction};
    use hypertp_sim::SimClock;
    use hypertp_vulndb::dataset::dataset;

    fn fleet(hosts: usize) -> NovaManager {
        let registry = pool();
        let clock = SimClock::new();
        let computes = (0..hosts)
            .map(|i| {
                let mut spec = MachineSpec::m1();
                spec.ram_gb = 8;
                LibvirtDriver::new(
                    format!("c{i}"),
                    spec,
                    clock.clone(),
                    &registry,
                    HypervisorKind::Xen,
                )
                .unwrap()
            })
            .collect();
        NovaManager::new(registry, computes)
    }

    fn xen_critical() -> Vulnerability {
        dataset()
            .into_iter()
            .find(|v| v.id == "CVE-2016-6258")
            .unwrap()
    }

    #[test]
    fn campaign_round_trips_the_fleet() {
        let mut nova = fleet(2);
        for i in 0..3 {
            nova.boot(&VmConfig::small(format!("svc{i}"))).unwrap();
        }
        let cve = xen_critical();
        let report = run_campaign(&mut nova, &cve, &[]).unwrap();
        assert_eq!(report.home, HypervisorKind::Xen);
        assert_eq!(report.refuge, HypervisorKind::Kvm);
        assert_eq!(report.out.len(), 2);
        assert_eq!(report.back.len(), 2);
        // Every host is home again; every VM survived two transplants.
        for h in 0..2 {
            assert_eq!(nova.compute(h).hypervisor_kind(), HypervisorKind::Xen);
        }
        for i in 0..3 {
            let name = format!("svc{i}");
            let host = nova.host_of(&name).unwrap();
            assert!(nova.compute(host).vm_names().contains(&name));
        }
        // The campaign covers a 7-day window with seconds of disruption.
        assert_eq!(report.window, SimDuration::from_secs(7 * 24 * 3600));
        assert!(report.worst_downtime.as_secs_f64() < 10.0);
        assert!(report.disruption_ratio() < 1e-4);
    }

    #[test]
    fn empty_fleet_is_not_affected() {
        let mut nova = fleet(0);
        assert!(matches!(
            run_campaign(&mut nova, &xen_critical(), &[]),
            Err(CampaignError::NotAffected)
        ));
    }

    #[test]
    fn common_flaw_has_no_refuge() {
        let mut nova = fleet(1);
        let venom = dataset()
            .into_iter()
            .find(|v| v.id == "CVE-2015-3456")
            .unwrap();
        assert!(matches!(
            run_campaign(&mut nova, &venom, &[]),
            Err(CampaignError::NoSafeTarget)
        ));
        // Fleet untouched.
        assert_eq!(nova.compute(0).hypervisor_kind(), HypervisorKind::Xen);
    }

    #[test]
    fn kvm_flaw_on_xen_fleet_is_not_affected() {
        let mut nova = fleet(1);
        let kvm_flaw = dataset()
            .into_iter()
            .find(|v| {
                v.affects(HypervisorId::Kvm)
                    && !v.is_common()
                    && v.severity() == hypertp_vulndb::Severity::Critical
            })
            .unwrap();
        assert!(matches!(
            run_campaign(&mut nova, &kvm_flaw, &[]),
            Err(CampaignError::NotAffected)
        ));
    }

    #[test]
    fn transient_host_failure_is_requeued_and_fleet_fully_protected() {
        let mut nova = fleet(2);
        nova.boot(&VmConfig::small("a")).unwrap();
        nova.boot(&VmConfig::small("b")).unwrap();
        let faults = FaultPlan::new(0xc1a0_0001);
        faults.arm_once(InjectionPoint::HostFailure);
        let report = run_campaign_with(
            &mut nova,
            &xen_critical(),
            &[],
            &faults,
            &CampaignConfig::default(),
        )
        .unwrap();
        // One host faulted once, was requeued, and completed on retry:
        // the whole fleet is protected and back home.
        assert!(faults
            .log()
            .recovered_via(InjectionPoint::HostFailure, RecoveryAction::RequeuedHost));
        assert!(report.excluded_hosts.is_empty());
        assert_eq!(report.out.len(), 2);
        assert_eq!(report.back.len(), 2);
        assert_eq!(report.exposure_avoided(), report.window);
        assert_eq!(report.residual_exposure(), SimDuration::ZERO);
        for h in 0..2 {
            assert_eq!(nova.compute(h).hypervisor_kind(), HypervisorKind::Xen);
        }
    }

    #[test]
    fn persistent_host_failure_is_excluded_with_residual_exposure() {
        let mut nova = fleet(2);
        nova.boot(&VmConfig::small("a")).unwrap();
        nova.boot(&VmConfig::small("b")).unwrap();
        nova.boot(&VmConfig::small("c")).unwrap();
        let faults = FaultPlan::new(0xc1a0_0002);
        // The scheduler packs all three compatible VMs onto c1; doom it.
        // should_inject call ordinals for the out wave with queue
        // [c0, c1]: 1 = c0 (clean), 2 = c1 (requeue, attempt 1),
        // 3 = c1 (requeue, attempt 2), 4 = c1 (excluded, attempt 3).
        faults.arm_calls(InjectionPoint::HostFailure, &[2, 3, 4]);
        let report = run_campaign_with(
            &mut nova,
            &xen_critical(),
            &[],
            &faults,
            &CampaignConfig::default(),
        )
        .unwrap();
        assert_eq!(report.excluded_hosts, vec![1]);
        assert!(faults
            .log()
            .recovered_via(InjectionPoint::HostFailure, RecoveryAction::ExcludedHost));
        // Only c0 made the round trip; c1's VMs are residual exposure.
        assert_eq!(report.out.len(), 1);
        assert_eq!(report.back.len(), 1);
        assert_eq!(report.residual_vms, nova.compute(1).vm_names().len());
        assert!(report.residual_vms > 0);
        assert!(report.exposure_avoided() < report.window);
        assert!(report.residual_exposure() > SimDuration::ZERO);
        // The excluded host never transplanted: still on the vulnerable
        // home hypervisor, VMs intact.
        assert_eq!(nova.compute(0).hypervisor_kind(), HypervisorKind::Xen);
        assert_eq!(nova.compute(1).hypervisor_kind(), HypervisorKind::Xen);
        // No VM was lost anywhere in the fleet.
        let total: usize = (0..2).map(|h| nova.compute(h).vm_names().len()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn crashed_host_rejoins_the_wave_recovered() {
        let mut nova = fleet(2);
        nova.boot(&VmConfig::small("a")).unwrap();
        nova.boot(&VmConfig::small("b")).unwrap();
        let faults = FaultPlan::new(0xc1a0_0004);
        // Crash-gate ordinal 2 = the second host's out-wave turn (the
        // scheduler packed both VMs there): its hypervisor dies and the
        // unplanned path recovers it onto the refuge.
        faults.arm_calls(InjectionPoint::HypervisorCrash, &[2]);
        let report = run_campaign_with(
            &mut nova,
            &xen_critical(),
            &[],
            &faults,
            &CampaignConfig::default(),
        )
        .unwrap();
        assert_eq!(report.out.crash_recoveries, 1);
        assert_eq!(report.out.len(), 2, "the crashed host rejoined the wave");
        assert_eq!(report.back.len(), 2);
        assert!(report.excluded_hosts.is_empty());
        assert!(faults.log().recovered_via(
            InjectionPoint::HypervisorCrash,
            RecoveryAction::MicroRebooted
        ));
        assert!(faults.log().recovered_via(
            InjectionPoint::HypervisorCrash,
            RecoveryAction::RestoredFromCheckpoint
        ));
        // Everyone is home, no VM lost anywhere.
        for h in 0..2 {
            assert_eq!(nova.compute(h).hypervisor_kind(), HypervisorKind::Xen);
        }
        let total: usize = (0..2).map(|h| nova.compute(h).vm_names().len()).sum();
        assert_eq!(total, 2);
        assert_eq!(report.exposure_avoided(), report.window);
    }

    #[test]
    fn patch_shipping_mid_wave_cuts_the_out_wave_short() {
        let mut nova = fleet(3);
        for i in 0..3 {
            nova.boot(&VmConfig::small(format!("svc{i}"))).unwrap();
        }
        let cfg = CampaignConfig {
            patch_after_hosts: Some(1),
        };
        let report = run_campaign_with(
            &mut nova,
            &xen_critical(),
            &[],
            &FaultPlan::disarmed(),
            &cfg,
        )
        .unwrap();
        // Only the first host visited the refuge; the other two patched
        // at home once the fix shipped.
        assert_eq!(report.out.len(), 1);
        assert_eq!(report.back.len(), 1);
        assert_eq!(report.skipped_after_patch, 2);
        assert!(report.excluded_hosts.is_empty());
        // Everyone ends up home regardless of the path taken.
        for h in 0..3 {
            assert_eq!(nova.compute(h).hypervisor_kind(), HypervisorKind::Xen);
        }
    }

    #[test]
    fn disruption_ratio_guards_a_zero_window() {
        let report = CampaignReport {
            cve: "CVE-0000-0000".into(),
            home: HypervisorKind::Xen,
            refuge: HypervisorKind::Kvm,
            out: WaveReport::new(),
            back: WaveReport::new(),
            window: SimDuration::ZERO,
            worst_downtime: SimDuration::from_secs(5),
            hosts_total: 1,
            excluded_hosts: Vec::new(),
            stranded_hosts: Vec::new(),
            residual_vms: 0,
            skipped_after_patch: 0,
        };
        // The ratio clamps the denominator at one second: finite, never
        // NaN/inf even for an instantly-patched flaw.
        assert_eq!(report.disruption_ratio(), 5.0);
        assert!(report.disruption_ratio().is_finite());
        assert_eq!(report.exposure_avoided(), SimDuration::ZERO);
        assert_eq!(report.residual_exposure(), SimDuration::ZERO);
    }

    #[test]
    fn wave_reports_aggregate_every_host() {
        let mut nova = fleet(5);
        for i in 0..6 {
            nova.boot(&VmConfig::small(format!("svc{i}"))).unwrap();
        }
        let base = run_campaign(&mut nova, &xen_critical(), &[]).unwrap();
        // The streaming aggregates are consistent with the host count.
        assert_eq!(base.out.len(), 5);
        assert_eq!(base.out.downtime.count, 5);
        assert_eq!(base.out.downtime_hist.total(), 5);
        assert_eq!(base.out.vms, 6);
        assert_eq!(base.back.upgrades, 5);
        assert!(base.out.mean_downtime() <= base.out.worst_downtime);
        assert_eq!(
            base.worst_downtime,
            base.out.worst_downtime.max(base.back.worst_downtime)
        );
    }

    #[test]
    fn armed_faults_replay_the_wave_exactly() {
        let run = || {
            let mut nova = fleet(3);
            for i in 0..3 {
                nova.boot(&VmConfig::small(format!("svc{i}"))).unwrap();
            }
            let faults = FaultPlan::new(0xc1a0_0003);
            faults.arm(InjectionPoint::HostFailure, 0.5, u64::MAX);
            let cfg = CampaignConfig::default();
            let r = run_campaign_with(&mut nova, &xen_critical(), &[], &faults, &cfg).unwrap();
            (r.render(), faults.log().render())
        };
        // Fault replay order is part of the contract: one seed, one
        // report and one fault log.
        assert_eq!(run(), run());
    }

    #[test]
    fn exposure_accessors_partition_the_window_exactly() {
        // Satellite of the single-integrator refactor: avoided and
        // residual exposure are two views of one accrual, so they must
        // partition the window exactly — on a clean (feed-free) campaign
        // and on one with excluded hosts alike.
        let mut nova = fleet(2);
        nova.boot(&VmConfig::small("a")).unwrap();
        let clean = run_campaign(&mut nova, &xen_critical(), &[]).unwrap();
        assert_eq!(clean.residual_exposure(), SimDuration::ZERO);
        assert_eq!(
            clean.exposure_avoided() + clean.residual_exposure(),
            clean.window
        );

        let mut nova = fleet(2);
        nova.boot(&VmConfig::small("a")).unwrap();
        nova.boot(&VmConfig::small("b")).unwrap();
        nova.boot(&VmConfig::small("c")).unwrap();
        let faults = FaultPlan::new(0xc1a0_0002);
        faults.arm_calls(InjectionPoint::HostFailure, &[2, 3, 4]);
        let excluded = run_campaign_with(
            &mut nova,
            &xen_critical(),
            &[],
            &faults,
            &CampaignConfig::default(),
        )
        .unwrap();
        assert!(!excluded.excluded_hosts.is_empty());
        assert!(excluded.residual_exposure() > SimDuration::ZERO);
        assert_eq!(
            excluded.exposure_avoided() + excluded.residual_exposure(),
            excluded.window
        );
    }

    #[test]
    fn medium_flaw_stays_on_patch_cycle() {
        let mut nova = fleet(1);
        let medium = dataset()
            .into_iter()
            .find(|v| {
                v.affects(HypervisorId::Xen) && v.severity() == hypertp_vulndb::Severity::Medium
            })
            .unwrap();
        assert!(matches!(
            run_campaign(&mut nova, &medium, &[]),
            Err(CampaignError::BelowThreshold)
        ));
    }
}
