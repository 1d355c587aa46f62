//! A seeded deterministic vulnerability-disclosure feed over simulated
//! time, classified by attack surface.
//!
//! The §2 study treats the dataset as a static table; real operations see
//! a *stream*: flaws disclosed one after another over the year, each
//! hitting a different part of the hypervisor's attack surface. This
//! module models that stream. Every [`Vulnerability::component`] maps onto
//! one of four [`AttackSurface`]s — hypercall handlers (the SPEC RG
//! Milenkoski hypercall-vulnerability taxonomy), device emulation (the
//! VENOM class), cross-domain escapes (the "Breaking Isolation" taxonomy:
//! toolstack and resource-management flaws that let one domain reach
//! another), and instruction emulation (trap-and-emulate and speculative
//! execution) — and each surface carries a criticality weight calibrated
//! from the CVSS scores the dataset already assigns it.
//!
//! The feed itself is a pure function of its seed: replaying
//! [`VulnFeed::replay`] with the same seed and horizon yields the same
//! byte-identical event list on every machine, worker count, or run — the
//! same determinism contract the rest of the workspace keeps.

use hypertp_sim::rng::SimRng;
use hypertp_sim::{SimDuration, SimTime};

use crate::cvss::{severity_of, CvssV2, Severity};
use crate::dataset::{Component, HypervisorId, Vulnerability, KVM_WINDOWS};

/// The four attack surfaces the planner distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttackSurface {
    /// Guest→hypervisor control transfers: Xen's hypercall handlers and
    /// KVM's ioctl ABI (its equivalent entry-point surface).
    Hypercall,
    /// Emulated device models (QEMU and friends) — the VENOM class.
    DeviceEmulation,
    /// Flaws that cross domain boundaries without a device: toolstack
    /// and resource-management (grant tables, memory accounting) bugs.
    CrossDomainEscape,
    /// Trap-and-emulate instruction handling and speculative-execution
    /// side channels.
    InstructionEmulation,
}

impl AttackSurface {
    /// All four surfaces, in weight-table order.
    pub const ALL: [AttackSurface; 4] = [
        AttackSurface::Hypercall,
        AttackSurface::DeviceEmulation,
        AttackSurface::CrossDomainEscape,
        AttackSurface::InstructionEmulation,
    ];

    /// Deterministic classification of the §2 component taxonomy.
    pub fn of(component: Component) -> AttackSurface {
        match component {
            Component::PvInterface | Component::Ioctl => AttackSurface::Hypercall,
            Component::Qemu => AttackSurface::DeviceEmulation,
            Component::Toolstack | Component::ResourceMgmt => AttackSurface::CrossDomainEscape,
            Component::HardwareHandling | Component::Cpu => AttackSurface::InstructionEmulation,
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            AttackSurface::Hypercall => "hypercall",
            AttackSurface::DeviceEmulation => "device-emulation",
            AttackSurface::CrossDomainEscape => "cross-domain-escape",
            AttackSurface::InstructionEmulation => "instruction-emulation",
        }
    }

    /// Index into the [`SurfaceWeights`] table.
    pub fn index(self) -> usize {
        match self {
            AttackSurface::Hypercall => 0,
            AttackSurface::DeviceEmulation => 1,
            AttackSurface::CrossDomainEscape => 2,
            AttackSurface::InstructionEmulation => 3,
        }
    }
}

/// Per-surface criticality weights. A weight is a multiplier around 1.0:
/// [`SurfaceWeights::uniform`] treats every surface alike (the
/// surface-blind policy of §2); [`SurfaceWeights::calibrated`] sets each
/// surface's weight to its smoothed odds of landing in the critical CVSS
/// band relative to the dataset-wide odds, so surfaces whose historical
/// flaws concentrate in the critical band weigh more than 1.0 and vice
/// versa.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurfaceWeights {
    weights: [f64; 4],
}

impl SurfaceWeights {
    /// Every surface weighs 1.0 — decisions reduce to raw CVSS severity.
    pub fn uniform() -> SurfaceWeights {
        SurfaceWeights { weights: [1.0; 4] }
    }

    /// Calibrates from a dataset: each surface's weight is its
    /// add-one-smoothed probability of landing in the critical CVSS band,
    /// divided by the dataset-wide probability. The dataset's scores
    /// cluster into bands, so band concentration — not the mean score —
    /// is where the historical signal lives: a surface whose flaws are
    /// disproportionately critical (instruction emulation, with
    /// Spectre/Meltdown in its history) weighs well above 1.0, and one
    /// whose flaws are mostly DoS-grade (device emulation) well below.
    /// Smoothing keeps sparse surfaces finite; surfaces with no records
    /// (or an empty dataset) fall back to 1.0, so calibration degrades to
    /// [`uniform`] rather than dividing by zero.
    ///
    /// [`uniform`]: SurfaceWeights::uniform
    pub fn calibrated(ds: &[Vulnerability]) -> SurfaceWeights {
        let mut crit = [0u32; 4];
        let mut count = [0u32; 4];
        for v in ds {
            let i = AttackSurface::of(v.component).index();
            count[i] += 1;
            if v.severity() == Severity::Critical {
                crit[i] += 1;
            }
        }
        let n: u32 = count.iter().sum();
        if n == 0 {
            return SurfaceWeights::uniform();
        }
        let total_crit: u32 = crit.iter().sum();
        let overall = (total_crit as f64 + 1.0) / (n as f64 + 2.0);
        let mut weights = [1.0f64; 4];
        for i in 0..4 {
            if count[i] > 0 {
                weights[i] = ((crit[i] as f64 + 1.0) / (count[i] as f64 + 2.0)) / overall;
            }
        }
        SurfaceWeights { weights }
    }

    /// The weight of one surface.
    pub fn weight(&self, surface: AttackSurface) -> f64 {
        self.weights[surface.index()]
    }

    /// CVSS base score adjusted by the surface weight, clamped to the
    /// CVSS scale. With uniform weights this is exactly the base score.
    pub(crate) fn effective_score(&self, cvss: &CvssV2, surface: AttackSurface) -> f64 {
        (cvss.base_score() * self.weight(surface)).clamp(0.0, 10.0)
    }

    /// Severity band of the weight-adjusted score.
    pub fn effective_severity(&self, cvss: &CvssV2, surface: AttackSurface) -> Severity {
        severity_of(self.effective_score(cvss, surface))
    }

    /// The exposure criticality of one disclosure: its weight-adjusted
    /// score normalized to `[0, 1]`. This is the per-VM weight in the
    /// planner's integrated-exposure objective
    /// ∫ affected-VMs × criticality dt.
    pub fn criticality(&self, cvss: &CvssV2, surface: AttackSurface) -> f64 {
        self.effective_score(cvss, surface) / 10.0
    }
}

/// One disclosure drawn from the feed.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedEvent {
    /// Disclosure instant on the feed's simulated clock.
    pub at: SimTime,
    /// The synthesized vulnerability record.
    pub vuln: Vulnerability,
    /// Its attack-surface classification.
    pub surface: AttackSurface,
}

impl FeedEvent {
    /// The patch window: disclosure → upstream fix, after which exposure
    /// stops accruing whether or not the fleet transplanted.
    pub fn window(&self) -> SimDuration {
        SimDuration::from_secs(self.vuln.window_days.unwrap_or(30) as u64 * 24 * 3600)
    }
}

/// A seeded deterministic disclosure stream. Events are a pure function
/// of `(seed, events_per_year, horizon)`: the generator walks one
/// [`SimRng`] stream, then sorts by `(time, id)`, so the replay is
/// byte-identical everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VulnFeed {
    seed: u64,
    events_per_year: u32,
}

/// The §2 yearly rates: ≈37 disclosures/year across both hypervisors
/// (Table 1's 260 records over 7 years).
const DEFAULT_EVENTS_PER_YEAR: u32 = 37;

/// Probability (percent) that a feed record lands in the critical CVSS
/// band, matching the dataset's ≈26% critical share.
const CRITICAL_PCT: u64 = 26;

/// Probability (percent) of the borderline-high band (score 6.9, just
/// below the critical cutoff): the flaws whose verdict surface weighting
/// actually changes. The remainder of the stream is DoS-grade medium.
const HIGH_PCT: u64 = 44;

impl VulnFeed {
    /// A feed with the §2-calibrated default rate.
    pub fn new(seed: u64) -> VulnFeed {
        VulnFeed {
            seed,
            events_per_year: DEFAULT_EVENTS_PER_YEAR,
        }
    }

    /// Overrides the disclosure rate.
    pub fn with_events_per_year(mut self, events_per_year: u32) -> VulnFeed {
        self.events_per_year = events_per_year.max(1);
        self
    }

    /// The feed's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Materializes every disclosure inside `[0, horizon)`, sorted by
    /// `(time, id)`.
    pub fn replay(&self, horizon: SimDuration) -> Vec<FeedEvent> {
        let horizon_secs = horizon.as_secs_f64();
        let n = ((horizon_secs / (365.0 * 86_400.0)) * self.events_per_year as f64).ceil() as usize;
        let mut rng = SimRng::new(self.seed ^ 0xfeed_0b5e_55ed_cafe);
        let mut events: Vec<FeedEvent> = (0..n)
            .map(|i| {
                let at = SimTime::ZERO + SimDuration::from_secs_f64(rng.gen_f64() * horizon_secs);
                // Affected hypervisor(s): the dataset's common flaws are
                // rare (3 of 260), so the stream leans single-hypervisor.
                let affects = match rng.gen_range(40) {
                    0 => vec![HypervisorId::Xen, HypervisorId::Kvm],
                    r if r < 20 => vec![HypervisorId::Xen],
                    _ => vec![HypervisorId::Kvm],
                };
                // Component mix mirrors §2.1: Xen flaws concentrate in the
                // PV interface and resource management, KVM's in its ioctl
                // ABI and hardware handling; QEMU serves both.
                let component = if affects.contains(&HypervisorId::Xen) {
                    match rng.gen_range(8) {
                        0..=2 => Component::PvInterface,
                        3..=4 => Component::ResourceMgmt,
                        5 => Component::HardwareHandling,
                        6 => Component::Toolstack,
                        _ => Component::Qemu,
                    }
                } else {
                    match rng.gen_range(8) {
                        0..=2 => Component::Ioctl,
                        3..=4 => Component::HardwareHandling,
                        5 => Component::Cpu,
                        _ => Component::Qemu,
                    }
                };
                let band = rng.gen_range(100);
                let cvss = if band < CRITICAL_PCT {
                    crate::dataset::critical_cvss()
                } else if band < CRITICAL_PCT + HIGH_PCT {
                    crate::dataset::high_cvss()
                } else {
                    crate::dataset::medium_cvss()
                };
                let window_days = KVM_WINDOWS[rng.gen_range(KVM_WINDOWS.len() as u64) as usize];
                let year = 2020
                    + (at.duration_since(SimTime::ZERO).as_secs_f64() / (365.0 * 86_400.0)) as u16;
                let vuln = Vulnerability {
                    id: format!("FEED-{year}-{i:04}"),
                    year,
                    affects,
                    component,
                    cvss,
                    window_days: Some(window_days),
                    description: format!("feed-synthesized {} flaw", component.name()),
                };
                FeedEvent {
                    at,
                    surface: AttackSurface::of(component),
                    vuln,
                }
            })
            .collect();
        events.sort_by(|a, b| (a.at, &a.vuln.id).cmp(&(b.at, &b.vuln.id)));
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::dataset;

    #[test]
    fn every_component_maps_to_a_surface() {
        // The classification is total and stable: VENOM is device
        // emulation, Xen's PV interface and KVM's ioctl ABI are both
        // hypercall-class, Spectre/Meltdown are instruction emulation.
        assert_eq!(
            AttackSurface::of(Component::Qemu),
            AttackSurface::DeviceEmulation
        );
        assert_eq!(
            AttackSurface::of(Component::PvInterface),
            AttackSurface::Hypercall
        );
        assert_eq!(
            AttackSurface::of(Component::Ioctl),
            AttackSurface::Hypercall
        );
        assert_eq!(
            AttackSurface::of(Component::Cpu),
            AttackSurface::InstructionEmulation
        );
        assert_eq!(
            AttackSurface::of(Component::ResourceMgmt),
            AttackSurface::CrossDomainEscape
        );
        for s in AttackSurface::ALL {
            assert_eq!(AttackSurface::ALL[s.index()], s);
        }
    }

    #[test]
    fn calibrated_weights_average_to_one_ish() {
        // Calibration is an odds ratio around the dataset-wide critical
        // share: weights straddle 1.0 with bounded spread.
        let w = SurfaceWeights::calibrated(&dataset());
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for s in AttackSurface::ALL {
            let x = w.weight(s);
            assert!(x.is_finite() && x > 0.0, "{s:?} weight {x}");
            lo = lo.min(x);
            hi = hi.max(x);
        }
        assert!(lo < 1.0 && hi > 1.0, "weights [{lo}, {hi}] must straddle 1");
        assert!(
            hi / lo < 3.0,
            "critical-band odds differ by < 3x across surfaces"
        );
    }

    #[test]
    fn empty_dataset_calibrates_to_uniform() {
        assert_eq!(SurfaceWeights::calibrated(&[]), SurfaceWeights::uniform());
    }

    #[test]
    fn uniform_effective_score_is_the_base_score() {
        let w = SurfaceWeights::uniform();
        for v in dataset().iter().take(20) {
            let s = AttackSurface::of(v.component);
            assert_eq!(w.effective_score(&v.cvss, s), v.cvss.base_score());
            assert_eq!(w.effective_severity(&v.cvss, s), v.severity());
        }
    }

    #[test]
    fn replay_is_deterministic_and_sorted() {
        let feed = VulnFeed::new(0xfeed01);
        let year = SimDuration::from_secs(365 * 86_400);
        let a = feed.replay(year);
        let b = feed.replay(year);
        assert_eq!(a, b);
        assert_eq!(a.len(), 37, "default rate is the Table 1 yearly mean");
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.iter().all(|e| e.window() > SimDuration::ZERO));
        // A different seed yields a different stream.
        let c = VulnFeed::new(0xfeed02).replay(year);
        assert_ne!(a, c);
    }

    #[test]
    fn replay_scales_with_horizon_and_rate() {
        let feed = VulnFeed::new(7).with_events_per_year(12);
        let half = feed.replay(SimDuration::from_secs(182 * 86_400));
        assert_eq!(half.len(), 6);
        assert!(feed.replay(SimDuration::ZERO).is_empty());
    }
}
