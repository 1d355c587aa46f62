//! Per-VM SLOs and the deterministic diurnal traffic model (PR 9).
//!
//! The paper's evaluation (§5.1, Figs. 11–12) measures transplant harm in
//! *application* terms — QPS dips, latency spikes — but the fleet
//! scheduler used to optimize hardware-side downtime only. This module
//! supplies the missing vocabulary:
//!
//! * [`SloSpec`]: a workload's service-level objective (p99 latency
//!   target, error budget, degraded capacity while a migration streams
//!   memory), derived from the calibrated [`WorkloadProfile`]s.
//! * [`TrafficModel`]: a seeded, deterministic **diurnal mix** — every
//!   serving VM gets a raised-cosine day/night QPS curve with a
//!   per-VM peak hour, population multiplier and per-query wire cost,
//!   all drawn from one `SplitMix64` seed, summing to a million-user
//!   aggregate over a simulated 24 h day.
//!
//! The model distills to the scheduler-facing types in
//! `hypertp-migrate` ([`TrafficCurve`], [`SloVm`](hypertp_migrate::SloVm)): `workloads` knows
//! *why* a VM is hot (its workload class), `migrate` only needs to know
//! *when* and *how much*. Everything is pure arithmetic over the seed —
//! no wall clock, no global state — so fleets, schedules and benchmarks
//! built on it are byte-identical across runs and worker counts.

use hypertp_migrate::TrafficCurve;
use hypertp_sim::{SimDuration, SimRng};

use crate::profiles::{MetricKind, WorkloadProfile};

/// A workload's service-level objective, derived from its profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// p99 latency target, milliseconds.
    pub p99_latency_ms: f64,
    /// Violation-seconds allowance per day (the error budget; 0.25% of
    /// a day ≈ 216 s for the default three-nines-ish objective).
    pub error_budget: SimDuration,
    /// Fraction of peak capacity still available while a pre-copy
    /// stream degrades the guest: offered load above this violates.
    pub degraded_capacity: f64,
}

impl SloSpec {
    /// Daily error budget of the default objective (0.25% of 24 h).
    pub(crate) const DEFAULT_BUDGET: SimDuration = SimDuration::from_secs(216);

    /// Derives the SLO a workload class would realistically sign up
    /// for. Latency-metric workloads target 3× their calibrated
    /// baseline at p99; throughput workloads get a nominal 50 ms
    /// service target. The degraded capacity is what the profile's
    /// `migration_degradation` leaves, tightened another 10% when the
    /// p99 target is strict (< 10 ms) — a latency SLO blows before the
    /// throughput knee is reached.
    pub(crate) fn for_profile(profile: &WorkloadProfile) -> Self {
        let p99 = match profile.metric {
            MetricKind::Latency => profile.baseline_xen * 3.0,
            MetricKind::Throughput => 50.0,
        };
        let degradation = profile.migration_degradation.clamp(0.0, 1.0);
        let mut capacity = (1.0 - degradation).clamp(0.0, 1.0);
        if p99 < 10.0 {
            capacity *= 0.9;
        }
        SloSpec {
            p99_latency_ms: p99,
            error_budget: SloSpec::DEFAULT_BUDGET,
            degraded_capacity: capacity,
        }
    }
}

/// Derives the deterministic diurnal curve of VM `index` serving class
/// peak `peak_qps` over a day of length `day` — the pure
/// `(seed, index)` function behind [`TrafficModel::push`], also usable
/// directly by lazy cluster views that never materialize a model. The
/// peak hour is uniform over the day (a global fleet: someone is always
/// peaking), the population multiplier scales the class baseline 1–4×,
/// the trough is 5–30% of peak and the hump is squared or cubed so the
/// peak stays a few hours wide. A non-serving class (`peak_qps <= 0`)
/// gets a flat zero curve.
pub fn derive_curve(seed: u64, index: u64, peak_qps: f64, day: SimDuration) -> TrafficCurve {
    if peak_qps <= 0.0 {
        return TrafficCurve {
            period: day,
            ..TrafficCurve::IDLE
        };
    }
    let mut rng = SimRng::new(seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let multiplier = 1.0 + 3.0 * rng.gen_f64();
    let peak_offset = SimDuration::from_nanos(rng.gen_range(day.as_nanos().max(1)));
    let trough = 0.05 + 0.25 * rng.gen_f64();
    let sharpness = 2 + (rng.gen_range(2) as u32);
    TrafficCurve {
        peak_qps: peak_qps * multiplier,
        trough_fraction: trough,
        peak_offset,
        period: day,
        sharpness,
        bytes_per_query: TrafficModel::BYTES_PER_QUERY,
    }
}

/// One VM's slice of the diurnal mix.
#[derive(Debug, Clone, PartialEq)]
pub struct VmTraffic {
    /// Workload class name (profile the curve was derived from).
    pub class: String,
    /// The VM's diurnal QPS curve.
    pub curve: TrafficCurve,
    /// The VM's SLO.
    pub spec: SloSpec,
}

/// The fleet's deterministic diurnal traffic mix: one [`VmTraffic`] per
/// VM, every parameter drawn from the construction seed.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficModel {
    /// Length of the simulated day.
    pub day: SimDuration,
    /// Construction seed (for provenance in reports).
    pub seed: u64,
    /// Per-VM curves, in the order the profiles were pushed.
    pub vms: Vec<VmTraffic>,
}

impl TrafficModel {
    /// Mean wire bytes one query puts on the VM's shared NIC. 20 kB ≈ a
    /// small HTTP response with headers; at video-stream peak
    /// (≈4 kQPS × multiplier) that is an appreciable slice of a
    /// gigabit link — the contention the scheduler must respect.
    pub(crate) const BYTES_PER_QUERY: f64 = 20_000.0;

    /// An empty mix over a 24 h day.
    pub fn new(seed: u64) -> Self {
        TrafficModel {
            day: TrafficCurve::DAY,
            seed,
            vms: Vec::new(),
        }
    }

    /// Appends one VM running `profile`. Every curve parameter is a
    /// pure function of `(seed, index)` via [`derive_curve`];
    /// latency-metric and idle classes serve no measurable QPS and get
    /// a flat zero curve.
    pub fn push(&mut self, profile: &WorkloadProfile) -> &VmTraffic {
        let index = self.vms.len() as u64;
        let curve = derive_curve(self.seed, index, profile.peak_qps(), self.day);
        self.vms.push(VmTraffic {
            class: profile.name.clone(),
            curve,
            spec: SloSpec::for_profile(profile),
        });
        self.vms.last().expect("just pushed")
    }

    /// A ready-made fleet mix: `n` VMs cycling through the given
    /// profiles. `TrafficModel::mix(seed, n, &[redis, video, idle])`
    /// is the million-user diurnal fleet the benchmarks run.
    pub fn mix(seed: u64, n: usize, profiles: &[WorkloadProfile]) -> Self {
        let mut model = TrafficModel::new(seed);
        for i in 0..n {
            model.push(&profiles[i % profiles.len().max(1)]);
        }
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertp_migrate::SloVm;

    impl VmTraffic {
        /// Distills this VM's traffic + SLO into the scheduler-facing form
        /// consumed by `migrate_fleet`.
        fn slo_vm(&self) -> SloVm {
            SloVm {
                traffic: self.curve,
                degraded_capacity: self.spec.degraded_capacity,
                error_budget: self.spec.error_budget,
            }
        }

        /// True when the VM serves any traffic at all (idle-class VMs get a
        /// flat zero curve and need no SLO attachment).
        fn serves_traffic(&self) -> bool {
            self.curve.peak_qps > 0.0
        }
    }

    impl TrafficModel {
        /// Aggregate offered load at `t`, queries/second.
        fn total_qps_at(&self, t: SimDuration) -> f64 {
            self.vms.iter().map(|v| v.curve.qps_at(t)).sum()
        }

        /// Aggregate peak capacity (the "million users" scale check).
        fn total_peak_qps(&self) -> f64 {
            self.vms.iter().map(|v| v.curve.peak_qps).sum()
        }

        /// Number of VMs serving measurable traffic.
        fn serving_count(&self) -> usize {
            self.vms.iter().filter(|v| v.serves_traffic()).count()
        }
    }

    #[test]
    fn slo_spec_follows_the_profile() {
        let redis = SloSpec::for_profile(&WorkloadProfile::redis());
        assert_eq!(redis.p99_latency_ms, 50.0);
        assert!((redis.degraded_capacity - 0.65).abs() < 1e-9);
        assert_eq!(redis.error_budget, SloSpec::DEFAULT_BUDGET);

        let mysql_lat = SloSpec::for_profile(&WorkloadProfile::mysql_latency());
        assert_eq!(mysql_lat.p99_latency_ms, 15.0);
        // Degradation 2.52 clamps to 1.0: no capacity left mid-migration.
        assert_eq!(mysql_lat.degraded_capacity, 0.0);

        // Strict p99 (< 10 ms) tightens the capacity another 10%.
        let darknet = SloSpec::for_profile(&WorkloadProfile::darknet());
        assert!(darknet.p99_latency_ms < 10.0);
        assert!((darknet.degraded_capacity - 0.92 * 0.9).abs() < 1e-9);
    }

    #[test]
    fn traffic_model_is_seed_deterministic() {
        let profiles = [
            WorkloadProfile::redis(),
            WorkloadProfile::video_stream(),
            WorkloadProfile::idle(),
        ];
        let a = TrafficModel::mix(42, 30, &profiles);
        let b = TrafficModel::mix(42, 30, &profiles);
        assert_eq!(a, b, "same seed, same mix");
        let c = TrafficModel::mix(43, 30, &profiles);
        assert_ne!(a, c, "different seed, different phases");
    }

    #[test]
    fn diurnal_mix_reaches_million_user_scale() {
        let profiles = [WorkloadProfile::redis(), WorkloadProfile::video_stream()];
        let m = TrafficModel::mix(7, 120, &profiles);
        assert_eq!(m.vms.len(), 120);
        assert_eq!(m.serving_count(), 120, "both classes serve traffic");
        // 60 redis (28k × 1–4) + 60 video (4k × 1–4): comfortably above
        // one million aggregate peak QPS.
        assert!(
            m.total_peak_qps() > 1_000_000.0,
            "peak = {}",
            m.total_peak_qps()
        );
        // The mix is phase-diverse: aggregate load never collapses to
        // the sum of troughs nor spikes to the sum of peaks.
        let noon = m.total_qps_at(SimDuration::from_secs(12 * 3600));
        assert!(noon > 0.05 * m.total_peak_qps());
        assert!(noon < 0.95 * m.total_peak_qps());
    }

    #[test]
    fn idle_and_latency_classes_serve_no_traffic() {
        let mut m = TrafficModel::new(1);
        m.push(&WorkloadProfile::idle());
        m.push(&WorkloadProfile::cpu_mem()); // latency metric
        assert_eq!(m.serving_count(), 0);
        assert_eq!(m.total_peak_qps(), 0.0);
        assert!(!m.vms[0].serves_traffic());
        // The distilled SloVm is still well-formed (zero curve).
        let slo = m.vms[0].slo_vm();
        assert_eq!(slo.traffic.peak_qps, 0.0);
    }

    #[test]
    fn slo_vm_distillation_carries_the_spec() {
        let mut m = TrafficModel::new(9);
        m.push(&WorkloadProfile::video_stream());
        let vt = &m.vms[0];
        let slo = vt.slo_vm();
        assert_eq!(slo.traffic, vt.curve);
        assert_eq!(slo.error_budget, vt.spec.error_budget);
        assert!((slo.degraded_capacity - 0.8).abs() < 1e-9);
        assert!(vt.curve.peak_qps >= 4_000.0);
        assert!(vt.curve.sharpness >= 2);
        assert!((0.05..=0.30).contains(&vt.curve.trough_fraction));
    }
}
