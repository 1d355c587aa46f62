//! Metric timelines under transplant disruptions (Figs. 11 and 12).

use hypertp_core::HypervisorKind;
use hypertp_sim::{SimDuration, SimRng, SimTime, TimeSeries};

use crate::profiles::{MetricKind, WorkloadProfile};

/// How (and when) the workload's VM is disrupted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Disruption {
    /// No transplant: the baseline curves of Figs. 11–12.
    None,
    /// InPlaceTP: the VM is fully down between `pause` and `resume`
    /// (network-visible downtime — for a served workload the client
    /// measures the NIC gap too).
    InPlace {
        /// Pause instant.
        pause: SimTime,
        /// Service restored instant.
        resume: SimTime,
    },
    /// MigrationTP (or homogeneous live migration): degraded between
    /// `start` and `end` with a sub-second blackout at `end`.
    Migration {
        /// Pre-copy start.
        start: SimTime,
        /// Migration end (stop-and-copy complete).
        end: SimTime,
        /// Downtime at the end of pre-copy.
        downtime: SimDuration,
    },
}

fn value_at(
    profile: &WorkloadProfile,
    t: SimTime,
    hv_before: HypervisorKind,
    hv_after: HypervisorKind,
    disruption: Disruption,
    rng: &mut SimRng,
) -> f64 {
    let jitter = 1.0 + rng.gen_normal() * profile.jitter;
    match disruption {
        Disruption::None => profile.baseline(hv_before) * jitter.max(0.0),
        Disruption::InPlace { pause, resume } => {
            if t >= pause && t < resume {
                match profile.metric {
                    MetricKind::Throughput => 0.0,
                    // Latency samples during the blackout: requests stall
                    // for the remaining downtime.
                    MetricKind::Latency => resume.saturating_duration_since(t).as_millis_f64(),
                }
            } else if t < pause {
                profile.baseline(hv_before) * jitter.max(0.0)
            } else {
                profile.baseline(hv_after) * jitter.max(0.0)
            }
        }
        Disruption::Migration {
            start,
            end,
            downtime,
        } => {
            if t < start {
                profile.baseline(hv_before) * jitter.max(0.0)
            } else if t < end {
                // Inside the pre-copy window; a sample landing in the
                // terminal blackout sees zero service.
                let in_blackout = t + downtime.min(end - start) >= end;
                if in_blackout && downtime >= SimDuration::from_millis(900) {
                    match profile.metric {
                        MetricKind::Throughput => 0.0,
                        MetricKind::Latency => downtime.as_millis_f64(),
                    }
                } else {
                    let base = profile.baseline(hv_before);
                    let v = match profile.metric {
                        MetricKind::Throughput => base * (1.0 - profile.migration_degradation),
                        MetricKind::Latency => base * (1.0 + profile.migration_degradation),
                    };
                    v * jitter.max(0.0)
                }
            } else {
                profile.baseline(hv_after) * jitter.max(0.0)
            }
        }
    }
}

fn series(
    label: &str,
    profile: &WorkloadProfile,
    hv_before: HypervisorKind,
    hv_after: HypervisorKind,
    duration: SimDuration,
    disruption: Disruption,
    seed: u64,
) -> TimeSeries {
    let mut rng = SimRng::new(seed);
    let mut s = TimeSeries::new(label);
    let seconds = duration.as_secs_f64() as u64;
    for sec in 0..=seconds {
        let t = SimTime::ZERO + SimDuration::from_secs(sec);
        s.push(
            t,
            value_at(profile, t, hv_before, hv_after, disruption, &mut rng),
        );
    }
    s
}

/// Generates a once-per-second throughput (QPS) series.
pub(crate) fn qps_series(
    profile: &WorkloadProfile,
    hv_before: HypervisorKind,
    hv_after: HypervisorKind,
    duration: SimDuration,
    disruption: Disruption,
    seed: u64,
) -> TimeSeries {
    series(
        &format!("{}-qps", profile.name),
        profile,
        hv_before,
        hv_after,
        duration,
        disruption,
        seed,
    )
}

/// Generates a once-per-second latency series (milliseconds).
pub(crate) fn latency_series(
    profile: &WorkloadProfile,
    hv_before: HypervisorKind,
    hv_after: HypervisorKind,
    duration: SimDuration,
    disruption: Disruption,
    seed: u64,
) -> TimeSeries {
    series(
        &format!("{}-latency", profile.name),
        profile,
        hv_before,
        hv_after,
        duration,
        disruption,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn fig11_inplace_shape() {
        // Redis under InPlaceTP: ~9 s of zero QPS starting at t=50, then a
        // ~37% improvement on KVM.
        let p = WorkloadProfile::redis();
        let s = qps_series(
            &p,
            HypervisorKind::Xen,
            HypervisorKind::Kvm,
            SimDuration::from_secs(200),
            Disruption::InPlace {
                pause: t(50),
                resume: t(59),
            },
            1,
        );
        let gap = s.longest_run_below(1.0);
        assert_eq!(gap, SimDuration::from_secs(8)); // Samples at 50..=58.
        let before = s.mean_in(t(10), t(45)).unwrap();
        let after = s.mean_in(t(100), t(190)).unwrap();
        let gain = after / before - 1.0;
        assert!((0.25..0.50).contains(&gain), "gain = {gain}");
    }

    #[test]
    fn fig11_migration_shape() {
        // Redis under MigrationTP: degraded during the ~78 s copy phase,
        // negligible downtime, then KVM performance.
        let p = WorkloadProfile::redis();
        let s = qps_series(
            &p,
            HypervisorKind::Xen,
            HypervisorKind::Kvm,
            SimDuration::from_secs(250),
            Disruption::Migration {
                start: t(46),
                end: t(124),
                downtime: SimDuration::from_millis(5),
            },
            2,
        );
        let before = s.mean_in(t(5), t(40)).unwrap();
        let during = s.mean_in(t(60), t(115)).unwrap();
        let after = s.mean_in(t(150), t(240)).unwrap();
        assert!(
            during < 0.75 * before,
            "during = {during}, before = {before}"
        );
        assert!(s.longest_run_below(1.0) < SimDuration::from_secs(2));
        assert!(after > 1.2 * before);
    }

    #[test]
    fn fig12_mysql_latency_inflation() {
        let p = WorkloadProfile::mysql_latency();
        let s = latency_series(
            &p,
            HypervisorKind::Xen,
            HypervisorKind::Xen,
            SimDuration::from_secs(150),
            Disruption::Migration {
                start: t(40),
                end: t(116),
                downtime: SimDuration::from_millis(10),
            },
            3,
        );
        let before = s.mean_in(t(5), t(35)).unwrap();
        let during = s.mean_in(t(50), t(110)).unwrap();
        let ratio = during / before;
        assert!((3.0..4.2).contains(&ratio), "latency ratio = {ratio}");
    }

    #[test]
    fn no_disruption_is_flat() {
        let p = WorkloadProfile::mysql();
        let s = qps_series(
            &p,
            HypervisorKind::Xen,
            HypervisorKind::Xen,
            SimDuration::from_secs(100),
            Disruption::None,
            4,
        );
        let m = s.mean_in(t(0), t(100)).unwrap();
        assert!((m / p.baseline_xen - 1.0).abs() < 0.05);
        assert_eq!(s.longest_run_below(1.0), SimDuration::ZERO);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = WorkloadProfile::redis();
        let a = qps_series(
            &p,
            HypervisorKind::Xen,
            HypervisorKind::Kvm,
            SimDuration::from_secs(50),
            Disruption::None,
            7,
        );
        let b = qps_series(
            &p,
            HypervisorKind::Xen,
            HypervisorKind::Kvm,
            SimDuration::from_secs(50),
            Disruption::None,
            7,
        );
        assert_eq!(a, b);
    }
}
