//! Deterministic fault injection for chaos testing.
//!
//! HyperTP shrinks the vulnerability window only if a transplant that
//! *fails partway* degrades gracefully instead of losing VMs. ReHype-style
//! microreboot recovery is viable precisely when the failure paths are
//! exercised deterministically — so this module provides a seeded
//! [`FaultPlan`] that the transplant stack consults at named
//! [`InjectionPoint`]s, and a structured [`FaultLog`] that records every
//! injected fault and every recovery action so tests can assert *exactly*
//! which recovery path fired.
//!
//! Design rules that make the chaos matrix reproducible:
//!
//! * **Per-point RNG streams.** Each injection point draws from its own
//!   [`SimRng`] stream derived from `seed ^ point tag`, so adding a probe
//!   at one point never perturbs the decisions at another.
//! * **Orchestrator-only decisions.** `should_inject` must be called from
//!   the single orchestrating thread (the transplant engine), never from
//!   inside pool workers; worker faults are *decided before dispatch* (see
//!   [`FaultPlan::pick_doomed_tasks`]) so the log order is deterministic.
//! * **Canonical log rendering.** [`FaultLog::render`] produces one line
//!   per event with a global sequence number; running the same seed twice
//!   yields byte-identical output, which the chaos matrix asserts.
//!
//! A disarmed plan (no rates, no armed occurrences) never injects and
//! records nothing, so production paths can consult an `Option<&FaultPlan>`
//! — or a default plan — at zero behavioural cost.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::rng::SimRng;

/// Named places in the transplant stack where faults can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InjectionPoint {
    /// Migration link drops mid-round (socket reset). Recovery: retry the
    /// round with exponential backoff, resuming from the last acked round.
    LinkDrop,
    /// Migration link latency spike (congestion). Recovery: absorb the
    /// extra latency into the round's simulated time and carry on.
    LinkLatencySpike,
    /// A page arrives truncated/corrupted on the destination. Recovery:
    /// content verification detects the bad page and the round is re-sent.
    TruncatedPage,
    /// The UISR blob is corrupted in flight (decode fails on the
    /// destination). Recovery: re-encode and re-send the device state.
    UisrCorruption,
    /// A PRAM file-info page checksum mismatch is discovered before kexec.
    /// Recovery: release the metadata pages and rebuild the PRAM image.
    PramChecksum,
    /// A worker thread dies mid-task in the parallel translate phase.
    /// Recovery: the orchestrator detects the missing result and re-runs
    /// the task inline.
    WorkerPanic,
    /// A host fails mid-campaign (crash, power loss). Recovery: requeue
    /// the host with backoff; after exhausting retries, exclude it and
    /// account its VMs as residual exposure.
    HostFailure,
    /// The running hypervisor itself crashes (panic, compromise) while VMs
    /// are live. Recovery: ReHype-style unplanned transplant — micro-reboot
    /// into the *other* hypervisor via kexec+PRAM and restore every VM from
    /// its freshest warm UISR checkpoint (`core::unplanned`).
    HypervisorCrash,
}

impl InjectionPoint {
    /// Every registered injection point, in canonical order.
    pub const ALL: [InjectionPoint; 8] = [
        InjectionPoint::LinkDrop,
        InjectionPoint::LinkLatencySpike,
        InjectionPoint::TruncatedPage,
        InjectionPoint::UisrCorruption,
        InjectionPoint::PramChecksum,
        InjectionPoint::WorkerPanic,
        InjectionPoint::HostFailure,
        InjectionPoint::HypervisorCrash,
    ];

    /// Stable short name used in logs and JSON.
    pub fn name(self) -> &'static str {
        match self {
            InjectionPoint::LinkDrop => "link_drop",
            InjectionPoint::LinkLatencySpike => "link_latency_spike",
            InjectionPoint::TruncatedPage => "truncated_page",
            InjectionPoint::UisrCorruption => "uisr_corruption",
            InjectionPoint::PramChecksum => "pram_checksum",
            InjectionPoint::WorkerPanic => "worker_panic",
            InjectionPoint::HostFailure => "host_failure",
            InjectionPoint::HypervisorCrash => "hypervisor_crash",
        }
    }

    /// Stable index into per-point tables (also the RNG stream tag).
    pub fn index(self) -> usize {
        match self {
            InjectionPoint::LinkDrop => 0,
            InjectionPoint::LinkLatencySpike => 1,
            InjectionPoint::TruncatedPage => 2,
            InjectionPoint::UisrCorruption => 3,
            InjectionPoint::PramChecksum => 4,
            InjectionPoint::WorkerPanic => 5,
            InjectionPoint::HostFailure => 6,
            InjectionPoint::HypervisorCrash => 7,
        }
    }
}

impl fmt::Display for InjectionPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The recovery path a component took after a fault fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RecoveryAction {
    /// The operation was retried after an exponential-backoff delay.
    RetriedWithBackoff,
    /// The migration resumed from the last acknowledged round instead of
    /// restarting from scratch.
    ResumedFromRound,
    /// A round's pages were re-sent after content verification failed.
    ResentPages,
    /// The UISR blob was re-encoded and re-sent after decode failure.
    ResentUisr,
    /// The PRAM metadata pages were released and the image rebuilt.
    RebuiltPram,
    /// A pool task whose worker died was re-run inline by the caller.
    TaskRetriedInline,
    /// The migration path was abandoned and the VM was transplanted
    /// in place instead (MigrationTP → InPlaceTP fallback).
    FellBackToInPlace,
    /// The incremental warm-translate phase was abandoned after a fault
    /// and the transplant completed via the full pause-time translation
    /// path instead (InPlaceTP incremental → full fallback).
    FellBackToFullTranslate,
    /// A failed host was put back on the campaign queue for another try.
    RequeuedHost,
    /// A host exhausted its retries and was excluded from the campaign;
    /// its VMs count as residual exposure.
    ExcludedHost,
    /// A latency spike was absorbed into the round time without retrying.
    AbsorbedLatency,
    /// The wire path's dedup/delta cache entries journalled in the failed
    /// round were rolled back (the destination never acked them) and the
    /// round was re-encoded against the last committed state.
    InvalidatedWireCache,
    /// The adaptive pre-copy controller's estimators were reset after a
    /// link fault: the samples they held measured a link state that no
    /// longer exists, so the controller re-warms from the retried round.
    ResetController,
    /// The crashed hypervisor was replaced by micro-rebooting into the
    /// other hypervisor over the kexec+PRAM path (unplanned transplant).
    MicroRebooted,
    /// A VM lost with the crashed hypervisor was restored from its
    /// freshest warm UISR checkpoint in PRAM.
    RestoredFromCheckpoint,
    /// The fault was fatal at this layer; the error propagated to the
    /// caller (which may itself recover — e.g. fall back to InPlaceTP).
    GaveUp,
}

impl RecoveryAction {
    /// Stable short name used in logs and JSON.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryAction::RetriedWithBackoff => "retried_with_backoff",
            RecoveryAction::ResumedFromRound => "resumed_from_round",
            RecoveryAction::ResentPages => "resent_pages",
            RecoveryAction::ResentUisr => "resent_uisr",
            RecoveryAction::RebuiltPram => "rebuilt_pram",
            RecoveryAction::TaskRetriedInline => "task_retried_inline",
            RecoveryAction::FellBackToInPlace => "fell_back_to_inplace",
            RecoveryAction::FellBackToFullTranslate => "fell_back_to_full_translate",
            RecoveryAction::RequeuedHost => "requeued_host",
            RecoveryAction::ExcludedHost => "excluded_host",
            RecoveryAction::AbsorbedLatency => "absorbed_latency",
            RecoveryAction::InvalidatedWireCache => "invalidated_wire_cache",
            RecoveryAction::ResetController => "reset_controller",
            RecoveryAction::MicroRebooted => "micro_rebooted",
            RecoveryAction::RestoredFromCheckpoint => "restored_from_checkpoint",
            RecoveryAction::GaveUp => "gave_up",
        }
    }
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One entry in the [`FaultLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// A fault fired at `point`; `site` identifies where (VM name, host
    /// name, round number — whatever the caller finds useful), and
    /// `occurrence` is the per-point 1-based count of injections so far.
    Injected {
        seq: u64,
        point: InjectionPoint,
        site: String,
        occurrence: u64,
    },
    /// A component recovered from a fault at `point` via `action`.
    Recovered {
        seq: u64,
        point: InjectionPoint,
        action: RecoveryAction,
        detail: String,
    },
}

impl FaultEvent {
    /// The injection point this event concerns.
    pub fn point(&self) -> InjectionPoint {
        match self {
            FaultEvent::Injected { point, .. } | FaultEvent::Recovered { point, .. } => *point,
        }
    }
}

/// A structured, ordered record of every injected fault and recovery.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLog {
    events: Vec<FaultEvent>,
}

impl FaultLog {
    /// All events in injection order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events (injections + recoveries).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was injected or recovered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Count of injections at `point`.
    pub fn injections_at(&self, point: InjectionPoint) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, FaultEvent::Injected { .. }) && e.point() == point)
            .count()
    }

    /// Count of recoveries at `point` via `action`.
    pub fn recoveries(&self, point: InjectionPoint, action: RecoveryAction) -> usize {
        self.events
            .iter()
            .filter(|e| match e {
                FaultEvent::Recovered {
                    point: p,
                    action: a,
                    ..
                } => *p == point && *a == action,
                _ => false,
            })
            .count()
    }

    /// True if at least one recovery at `point` used `action`.
    pub fn recovered_via(&self, point: InjectionPoint, action: RecoveryAction) -> bool {
        self.recoveries(point, action) > 0
    }

    /// Canonical one-line-per-event rendering. Running the same seed twice
    /// must yield byte-identical output; the chaos matrix asserts this.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            match e {
                FaultEvent::Injected {
                    seq,
                    point,
                    site,
                    occurrence,
                } => {
                    out.push_str(&format!(
                        "{seq:04} INJECT  {point} #{occurrence} @ {site}\n"
                    ));
                }
                FaultEvent::Recovered {
                    seq,
                    point,
                    action,
                    detail,
                } => {
                    out.push_str(&format!(
                        "{seq:04} RECOVER {point} -> {action} ({detail})\n"
                    ));
                }
            }
        }
        out
    }
}

/// Per-point arming configuration.
#[derive(Debug, Clone, Default)]
struct PointState {
    /// Probability in [0, 1] that a `should_inject` call fires.
    rate: f64,
    /// Explicit 1-based call ordinals that must fire regardless of rate.
    armed_calls: Vec<u64>,
    /// Cap on total injections at this point (None = unlimited).
    max_injections: Option<u64>,
    /// `should_inject` calls seen so far.
    calls: u64,
    /// Injections fired so far.
    injections: u64,
}

#[derive(Debug)]
struct Inner {
    seed: u64,
    points: [PointState; 8],
    streams: [SimRng; 8],
    log: FaultLog,
    next_seq: u64,
}

/// A seeded, deterministic fault plan shared across the transplant stack.
///
/// Cloning is cheap (an [`Arc`]); all clones observe and append to the same
/// [`FaultLog`]. A `FaultPlan::disarmed()` plan never injects, so
/// production code paths can unconditionally consult one.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    inner: Arc<Mutex<Inner>>,
}

impl FaultPlan {
    /// A plan seeded for deterministic injection decisions. Nothing fires
    /// until a point is armed via [`FaultPlan::arm`],
    /// [`FaultPlan::arm_calls`], or [`FaultPlan::arm_once`].
    pub fn new(seed: u64) -> Self {
        let streams = std::array::from_fn(|i| {
            // Distinct stream per point: tag the seed with the point index
            // using odd multipliers so streams never collide or correlate.
            SimRng::new(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)))
        });
        FaultPlan {
            inner: Arc::new(Mutex::new(Inner {
                seed,
                points: Default::default(),
                streams,
                log: FaultLog::default(),
                next_seq: 0,
            })),
        }
    }

    /// A plan that never injects anything. Useful as a default.
    pub fn disarmed() -> Self {
        FaultPlan::new(0)
    }

    /// The seed this plan was built with.
    pub fn seed(&self) -> u64 {
        self.inner.lock().expect("fault plan poisoned").seed
    }

    /// Arms `point` to fire with probability `rate` per `should_inject`
    /// call, with at most `max_injections` total firings.
    pub fn arm(&self, point: InjectionPoint, rate: f64, max_injections: u64) -> &Self {
        let mut inner = self.inner.lock().expect("fault plan poisoned");
        let st = &mut inner.points[point.index()];
        st.rate = rate.clamp(0.0, 1.0);
        st.max_injections = Some(max_injections);
        self
    }

    /// Arms `point` to fire on the given 1-based `should_inject` call
    /// ordinals (e.g. `&[1]` fires on the first consultation only).
    pub fn arm_calls(&self, point: InjectionPoint, ordinals: &[u64]) -> &Self {
        let mut inner = self.inner.lock().expect("fault plan poisoned");
        inner.points[point.index()]
            .armed_calls
            .extend_from_slice(ordinals);
        self
    }

    /// Arms `point` to fire exactly once, on the first consultation.
    pub fn arm_once(&self, point: InjectionPoint) -> &Self {
        self.arm_calls(point, &[1])
    }

    /// Arms every registered point to fire exactly once. Convenience for
    /// the chaos matrix's "exercise every point" requirement.
    pub fn arm_all_once(&self) -> &Self {
        for p in InjectionPoint::ALL {
            self.arm_once(p);
        }
        self
    }

    /// Whether *any* injection point is armed (non-zero rate or pending
    /// call ordinals). Orchestrators that parallelize fault-free work use
    /// this to decide between the parallel path and the sequential path
    /// that preserves `should_inject` consultation order.
    pub fn armed(&self) -> bool {
        let inner = self.inner.lock().expect("fault plan poisoned");
        inner
            .points
            .iter()
            .any(|st| st.rate > 0.0 || !st.armed_calls.is_empty())
    }

    /// Decides — deterministically — whether a fault fires at `point` for
    /// this consultation, and if so records it against `site`.
    ///
    /// Must be called from the orchestrating thread only (never inside a
    /// pool worker), so the log's event order is reproducible.
    pub fn should_inject(&self, point: InjectionPoint, site: &str) -> bool {
        let mut inner = self.inner.lock().expect("fault plan poisoned");
        let idx = point.index();
        inner.points[idx].calls += 1;
        let call = inner.points[idx].calls;

        // Draw even when the outcome is forced so armed/unarmed runs of
        // the same seed keep the stream positions aligned per call.
        let roll = inner.streams[idx].gen_f64();

        let st = &inner.points[idx];
        let armed_hit = st.armed_calls.contains(&call);
        let capped = st.max_injections.is_some_and(|cap| st.injections >= cap);
        let rate_hit = !capped && st.rate > 0.0 && roll < st.rate;
        if !(armed_hit || rate_hit) {
            return false;
        }

        inner.points[idx].injections += 1;
        let occurrence = inner.points[idx].injections;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.log.events.push(FaultEvent::Injected {
            seq,
            point,
            site: site.to_string(),
            occurrence,
        });
        true
    }

    /// Records that a component recovered from a fault at `point`.
    pub fn record_recovery(&self, point: InjectionPoint, action: RecoveryAction, detail: &str) {
        let mut inner = self.inner.lock().expect("fault plan poisoned");
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.log.events.push(FaultEvent::Recovered {
            seq,
            point,
            action,
            detail: detail.to_string(),
        });
    }

    /// Picks which of `n` pool tasks are doomed (their worker "dies"),
    /// consuming one `should_inject` consultation per task. Decisions are
    /// made here, before dispatch, so parallel execution cannot perturb
    /// the log. Returns the doomed indices in ascending order.
    pub fn pick_doomed_tasks(&self, n: usize, site: &str) -> Vec<usize> {
        (0..n)
            .filter(|i| {
                self.should_inject(InjectionPoint::WorkerPanic, &format!("{site}[task {i}]"))
            })
            .collect()
    }

    /// Total injections fired at `point` so far.
    pub fn injections_fired(&self, point: InjectionPoint) -> u64 {
        self.inner.lock().expect("fault plan poisoned").points[point.index()].injections
    }

    /// A snapshot of the fault log.
    pub fn log(&self) -> FaultLog {
        self.inner.lock().expect("fault plan poisoned").log.clone()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::disarmed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_plan_never_injects() {
        let plan = FaultPlan::disarmed();
        for p in InjectionPoint::ALL {
            for i in 0..50 {
                assert!(!plan.should_inject(p, &format!("call {i}")));
            }
        }
        assert!(plan.log().is_empty());
    }

    #[test]
    fn armed_reflects_arming_state() {
        let plan = FaultPlan::disarmed();
        assert!(!plan.armed());
        plan.arm(InjectionPoint::HostFailure, 0.5, 10);
        assert!(plan.armed());
        let once = FaultPlan::new(3);
        once.arm_once(InjectionPoint::LinkDrop);
        assert!(once.armed());
        // A zero rate does not count as armed.
        let zero = FaultPlan::new(4);
        zero.arm(InjectionPoint::HostFailure, 0.0, 10);
        assert!(!zero.armed());
    }

    #[test]
    fn arm_once_fires_exactly_on_first_call() {
        let plan = FaultPlan::new(7);
        plan.arm_once(InjectionPoint::LinkDrop);
        assert!(plan.should_inject(InjectionPoint::LinkDrop, "round 0"));
        for i in 1..20 {
            assert!(!plan.should_inject(InjectionPoint::LinkDrop, &format!("round {i}")));
        }
        assert_eq!(plan.log().injections_at(InjectionPoint::LinkDrop), 1);
    }

    #[test]
    fn arm_calls_fires_on_exact_ordinals() {
        let plan = FaultPlan::new(7);
        plan.arm_calls(InjectionPoint::TruncatedPage, &[2, 5]);
        let fired: Vec<bool> = (1..=6)
            .map(|i| plan.should_inject(InjectionPoint::TruncatedPage, &format!("call {i}")))
            .collect();
        assert_eq!(fired, vec![false, true, false, false, true, false]);
    }

    #[test]
    fn rate_respects_max_injections_cap() {
        let plan = FaultPlan::new(99);
        plan.arm(InjectionPoint::HostFailure, 1.0, 3);
        let fired = (0..10)
            .filter(|i| plan.should_inject(InjectionPoint::HostFailure, &format!("host {i}")))
            .count();
        assert_eq!(fired, 3);
    }

    #[test]
    fn same_seed_same_decisions_and_byte_identical_log() {
        let run = |seed: u64| {
            let plan = FaultPlan::new(seed);
            plan.arm(InjectionPoint::LinkDrop, 0.3, u64::MAX);
            plan.arm(InjectionPoint::UisrCorruption, 0.2, u64::MAX);
            for i in 0..40 {
                if plan.should_inject(InjectionPoint::LinkDrop, &format!("round {i}")) {
                    plan.record_recovery(
                        InjectionPoint::LinkDrop,
                        RecoveryAction::RetriedWithBackoff,
                        &format!("attempt {i}"),
                    );
                }
                let _ = plan.should_inject(InjectionPoint::UisrCorruption, &format!("vm {i}"));
            }
            plan.log().render()
        };
        let a = run(0xdead_beef);
        let b = run(0xdead_beef);
        assert_eq!(a, b, "same seed must yield byte-identical FaultLogs");
        let c = run(0xfeed_f00d);
        assert_ne!(a, c, "different seeds should (almost surely) differ");
    }

    #[test]
    fn streams_are_independent_per_point() {
        // Consulting point A must not change point B's decisions.
        let decisions = |with_noise: bool| {
            let plan = FaultPlan::new(42);
            plan.arm(InjectionPoint::TruncatedPage, 0.5, u64::MAX);
            plan.arm(InjectionPoint::LinkDrop, 0.5, u64::MAX);
            (0..30)
                .map(|i| {
                    if with_noise {
                        let _ = plan.should_inject(InjectionPoint::LinkDrop, "noise");
                    }
                    plan.should_inject(InjectionPoint::TruncatedPage, &format!("page {i}"))
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(decisions(false), decisions(true));
    }

    #[test]
    fn pick_doomed_tasks_is_deterministic_and_ordered() {
        let pick = || {
            let plan = FaultPlan::new(0x5eed);
            plan.arm(InjectionPoint::WorkerPanic, 0.25, u64::MAX);
            plan.pick_doomed_tasks(32, "translate")
        };
        let a = pick();
        let b = pick();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "ascending order");
        assert!(!a.is_empty(), "rate 0.25 over 32 tasks should doom some");
    }

    #[test]
    fn log_counters_and_queries() {
        let plan = FaultPlan::new(1);
        plan.arm_once(InjectionPoint::PramChecksum);
        assert!(plan.should_inject(InjectionPoint::PramChecksum, "pre-kexec verify"));
        plan.record_recovery(
            InjectionPoint::PramChecksum,
            RecoveryAction::RebuiltPram,
            "released 12 metadata pages",
        );
        let log = plan.log();
        assert_eq!(log.len(), 2);
        assert_eq!(log.injections_at(InjectionPoint::PramChecksum), 1);
        assert!(log.recovered_via(InjectionPoint::PramChecksum, RecoveryAction::RebuiltPram));
        assert!(!log.recovered_via(InjectionPoint::PramChecksum, RecoveryAction::GaveUp));
        let rendered = log.render();
        assert!(rendered.contains("INJECT  pram_checksum #1 @ pre-kexec verify"));
        assert!(rendered.contains("RECOVER pram_checksum -> rebuilt_pram"));
    }

    #[test]
    fn clones_share_one_log() {
        let plan = FaultPlan::new(3);
        plan.arm_once(InjectionPoint::HostFailure);
        let clone = plan.clone();
        assert!(clone.should_inject(InjectionPoint::HostFailure, "host h3"));
        assert_eq!(plan.log().injections_at(InjectionPoint::HostFailure), 1);
    }

    #[test]
    fn all_points_have_distinct_names_and_indices() {
        let mut names: Vec<&str> = InjectionPoint::ALL.iter().map(|p| p.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), InjectionPoint::ALL.len());
        for (i, p) in InjectionPoint::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }
}
