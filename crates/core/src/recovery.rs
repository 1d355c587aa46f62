//! MigrationTP → InPlaceTP fallback.
//!
//! The paper presents the two transplant mechanisms as alternatives chosen
//! per host; operationally they also compose as a *recovery chain*: when a
//! live migration is abandoned (the link failed past its retry budget),
//! the VMs are still running untouched on the source, so the host can
//! shrink its vulnerability window anyway by transplanting **in place**.
//! This module provides the policy glue: try migration, and on a
//! *recoverable* failure run the in-place path instead, recording the
//! decision in the shared [`FaultPlan`]'s log.
//!
//! The module is deliberately mechanism-agnostic (closures, not engine
//! types): `hypertp-migrate` depends on this crate, so the concrete
//! MigrationTP engine cannot appear here. Callers hand in the two attempts
//! and get back which path succeeded.

use hypertp_sim::fault::{FaultPlan, InjectionPoint, RecoveryAction};

use crate::error::HtpError;

/// Which transplant path ultimately succeeded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FallbackOutcome<M, I> {
    /// The migration went through; no fallback was needed.
    Migrated(M),
    /// The migration failed recoverably and the in-place transplant
    /// shrank the window instead.
    FellBack {
        /// The error that ended the migration attempt.
        migration_error: HtpError,
        /// The in-place transplant's result.
        inplace: I,
    },
}

impl<M, I> FallbackOutcome<M, I> {
    /// True when the fallback path ran.
    pub fn fell_back(&self) -> bool {
        matches!(self, FallbackOutcome::FellBack { .. })
    }
}

/// True for migration errors that leave the source VMs intact and running,
/// so an in-place transplant is a sound second attempt.
///
/// A [`HtpError::LinkFailure`] is the canonical case: the engine tears
/// down the half-built destination shell and never pauses the source.
/// Anything else (integrity violations, codec errors after pause, …) may
/// have partially consumed the source state and must propagate.
pub(crate) fn migration_error_is_recoverable(err: &HtpError) -> bool {
    matches!(err, HtpError::LinkFailure { .. })
}

/// Attempts `migrate`; on a recoverable failure (a
/// [`HtpError::LinkFailure`]) runs `inplace` instead and records
/// a [`RecoveryAction::FellBackToInPlace`] in `faults`' log.
///
/// Non-recoverable migration errors and in-place errors propagate
/// unchanged.
///
/// Because a recoverable failure leaves the source VMs *running*, the
/// fallback closure may use the incremental pre-pause path
/// ([`crate::Optimizations::incremental_translate`]): the warm UISR
/// snapshot happens after the fallback decision but before the blackout,
/// so a host that just lost its migration window still gets the shortened
/// in-place downtime. `tests/incremental_translate.rs` exercises this
/// chain end to end.
pub fn migrate_or_inplace<M, I>(
    faults: &FaultPlan,
    host: &str,
    migrate: impl FnOnce() -> Result<M, HtpError>,
    inplace: impl FnOnce() -> Result<I, HtpError>,
) -> Result<FallbackOutcome<M, I>, HtpError> {
    match migrate() {
        Ok(m) => Ok(FallbackOutcome::Migrated(m)),
        Err(e) if migration_error_is_recoverable(&e) => {
            faults.record_recovery(
                InjectionPoint::LinkDrop,
                RecoveryAction::FellBackToInPlace,
                &format!("{host}: migration failed ({e}); transplanting in place"),
            );
            let i = inplace()?;
            Ok(FallbackOutcome::FellBack {
                migration_error: e,
                inplace: i,
            })
        }
        Err(e) => Err(e),
    }
}

/// Verdict of one host-upgrade attempt under
/// [`InjectionPoint::HostFailure`] injection — see [`host_failure_gate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostGate {
    /// No fault fired; the upgrade attempt succeeds.
    Proceed,
    /// The attempt faulted within the retry budget: the host goes back in
    /// the queue (or retries in place) with one more failure on record.
    Retry,
    /// The attempt faulted past the retry budget: the host is dropped
    /// from the plan/wave and accounted as residual exposure.
    Exclude,
}

/// The shared retry/requeue/exclude decision for rolling host upgrades.
///
/// Both the campaign's wave orchestrator and the plan executor gate every
/// host-upgrade attempt through this: consult the fault plan at `site`,
/// and on an injection either grant a retry (`prior_failures <
/// max_retries`) or exclude the host, recording the canonical
/// [`RecoveryAction`] either way. Centralizing the wording and the
/// off-by-one (`failures > max_retries` excludes) keeps the two
/// orchestrators' fault logs and accounting consistent.
///
/// Must be called from the orchestrating thread only (the fault plan's
/// consultation order is part of the deterministic replay contract).
pub fn host_failure_gate(
    faults: &FaultPlan,
    site: &str,
    prior_failures: u32,
    max_retries: u32,
) -> HostGate {
    if !faults.should_inject(InjectionPoint::HostFailure, site) {
        return HostGate::Proceed;
    }
    let failures = prior_failures + 1;
    if failures > max_retries {
        faults.record_recovery(
            InjectionPoint::HostFailure,
            RecoveryAction::ExcludedHost,
            &format!("{site}: excluded after {failures} failed attempts"),
        );
        HostGate::Exclude
    } else {
        faults.record_recovery(
            InjectionPoint::HostFailure,
            RecoveryAction::RequeuedHost,
            &format!("{site}: attempt {failures} failed, requeued"),
        );
        HostGate::Retry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link_failure() -> HtpError {
        HtpError::LinkFailure {
            vm_name: "vm0".into(),
            retries: 4,
        }
    }

    #[test]
    fn migration_success_skips_fallback() {
        let faults = FaultPlan::disarmed();
        let out = migrate_or_inplace(
            &faults,
            "h0",
            || Ok::<_, HtpError>(42u32),
            || -> Result<u32, HtpError> { panic!("fallback must not run") },
        )
        .unwrap();
        assert_eq!(out, FallbackOutcome::Migrated(42));
        assert!(faults.log().is_empty());
    }

    #[test]
    fn link_failure_falls_back_and_logs() {
        let faults = FaultPlan::disarmed();
        let out = migrate_or_inplace(
            &faults,
            "h0",
            || Err::<u32, _>(link_failure()),
            || Ok::<_, HtpError>("inplace-report"),
        )
        .unwrap();
        assert!(out.fell_back());
        match out {
            FallbackOutcome::FellBack {
                migration_error,
                inplace,
            } => {
                assert_eq!(migration_error, link_failure());
                assert_eq!(inplace, "inplace-report");
            }
            _ => unreachable!(),
        }
        assert!(faults
            .log()
            .recovered_via(InjectionPoint::LinkDrop, RecoveryAction::FellBackToInPlace));
    }

    #[test]
    fn non_recoverable_errors_propagate() {
        let faults = FaultPlan::disarmed();
        let err = migrate_or_inplace(
            &faults,
            "h0",
            || {
                Err::<u32, _>(HtpError::IntegrityViolation {
                    vm_name: "vm0".into(),
                })
            },
            || -> Result<u32, HtpError> { panic!("fallback must not run") },
        )
        .unwrap_err();
        assert!(matches!(err, HtpError::IntegrityViolation { .. }));
        assert!(faults.log().is_empty());
    }

    #[test]
    fn gate_proceeds_when_nothing_fires() {
        let faults = FaultPlan::disarmed();
        assert_eq!(
            host_failure_gate(&faults, "wave host c0", 0, 2),
            HostGate::Proceed
        );
        assert!(faults.log().is_empty());
    }

    #[test]
    fn gate_retries_then_excludes_past_budget() {
        let faults = FaultPlan::disarmed();
        faults.arm_calls(InjectionPoint::HostFailure, &[1, 2, 3]);
        assert_eq!(
            host_failure_gate(&faults, "wave host c0", 0, 2),
            HostGate::Retry
        );
        assert_eq!(
            host_failure_gate(&faults, "wave host c0", 1, 2),
            HostGate::Retry
        );
        assert_eq!(
            host_failure_gate(&faults, "wave host c0", 2, 2),
            HostGate::Exclude
        );
        let log = faults.log();
        assert_eq!(
            log.recoveries(InjectionPoint::HostFailure, RecoveryAction::RequeuedHost),
            2
        );
        assert_eq!(
            log.recoveries(InjectionPoint::HostFailure, RecoveryAction::ExcludedHost),
            1
        );
    }

    #[test]
    fn gate_with_zero_retries_excludes_immediately() {
        let faults = FaultPlan::disarmed();
        faults.arm_once(InjectionPoint::HostFailure);
        assert_eq!(host_failure_gate(&faults, "h0", 0, 0), HostGate::Exclude);
    }

    #[test]
    fn inplace_failure_propagates_after_fallback() {
        let faults = FaultPlan::disarmed();
        let err = migrate_or_inplace(
            &faults,
            "h0",
            || Err::<u32, _>(link_failure()),
            || Err::<u32, _>(HtpError::Unsupported("no kexec")),
        )
        .unwrap_err();
        assert_eq!(err, HtpError::Unsupported("no kexec"));
        // The fallback decision was still logged before the attempt.
        assert!(faults
            .log()
            .recovered_via(InjectionPoint::LinkDrop, RecoveryAction::FellBackToInPlace));
    }
}
