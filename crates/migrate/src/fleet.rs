//! The fleet scheduler: migrates several VMs from one host to another
//! under a [`FleetPolicy`] — admission, ordering, shared-link accounting
//! and the receive-side queue — running each VM's data phase through the
//! engine's pre-copy driver into a local destination.

use hypertp_core::{HtpError, Hypervisor, HypervisorKind, VmId};
use hypertp_machine::Machine;
use hypertp_sim::SimDuration;

use crate::control::{
    predict_migration, FleetOrder, FleetPolicy, FleetVm, LinkContention, MigrationPrediction,
    PredictInput, VmSloOutcome,
};
use crate::engine::{DataPhase, MigrationReport, MigrationTp};
use crate::sink::LocalSink;

/// Result of a fleet migration ([`migrate_fleet`]).
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-VM reports, **in input order** (downtime/total reflect the
    /// fleet schedule, measured from the fleet start).
    pub reports: Vec<MigrationReport>,
    /// The scheduler's cold-start per-VM predictions, in input order
    /// (predicted-vs-actual telemetry).
    pub predictions: Vec<MigrationPrediction>,
    /// The prediction in force when each VM was actually admitted, in
    /// input order. Equal to [`FleetReport::predictions`] under
    /// [`FleetOrder::Fifo`] and [`FleetOrder::ShortestPredictedFirst`];
    /// under [`FleetOrder::SloAware`] these are the contended predictions
    /// priced at the slot each VM got.
    pub admission_predictions: Vec<MigrationPrediction>,
    /// Policy the fleet ran under.
    pub policy: FleetPolicy,
    /// Admission order chosen by the scheduler (indices into the input).
    pub admission: Vec<usize>,
    /// Per-VM pre-copy start instants (from fleet start), in input order
    /// — the schedule the SLO accounting prices.
    pub starts: Vec<SimDuration>,
    /// Per-VM SLO outcomes, in input order: `Some` for every
    /// [`FleetVm`] that carried an [`crate::SloVm`] attachment (priced
    /// against its actual schedule — start, contended pre-copy, real
    /// downtime), `None` for traffic-free VMs.
    pub slo: Vec<Option<VmSloOutcome>>,
    /// Instant (from fleet start) the last VM became ready.
    pub makespan: SimDuration,
}

impl FleetReport {
    fn mean(iter: impl Iterator<Item = SimDuration>, n: usize) -> SimDuration {
        if n == 0 {
            return SimDuration::ZERO;
        }
        let total: u64 = iter.map(|d| d.as_nanos()).sum();
        SimDuration::from_nanos(total / n as u64)
    }

    /// Mean VM downtime across the fleet.
    pub fn mean_downtime(&self) -> SimDuration {
        Self::mean(self.reports.iter().map(|r| r.downtime), self.reports.len())
    }

    /// Mean VM-ready time (time from fleet start until each VM resumed on
    /// the destination) — the per-VM exposure window the scheduler
    /// minimises.
    pub fn mean_ready(&self) -> SimDuration {
        Self::mean(self.reports.iter().map(|r| r.total), self.reports.len())
    }

    /// Total wire bytes across the fleet.
    pub fn total_bytes(&self) -> u64 {
        self.reports.iter().map(|r| r.bytes_sent).sum()
    }

    /// Total SLO violation-seconds across the fleet (zero when no VM
    /// carried an SLO).
    pub fn total_violation(&self) -> SimDuration {
        self.slo
            .iter()
            .flatten()
            .map(|o| o.violation)
            .sum::<SimDuration>()
    }

    /// Worst per-VM error-budget burn (fraction of the daily budget one
    /// migration consumed; 0.0 when no VM carried an SLO).
    pub fn max_budget_burn(&self) -> f64 {
        self.slo
            .iter()
            .flatten()
            .map(|o| o.budget_burn)
            .fold(0.0, f64::max)
    }

    /// Number of fleet members that carried an SLO attachment.
    pub fn slo_vm_count(&self) -> usize {
        self.slo.iter().flatten().count()
    }
}

/// Migrates a fleet of VMs under a [`FleetPolicy`]: convergence-aware
/// admission/ordering plus shared-link accounting.
///
/// * **Admission**: at most `policy.max_concurrent` pre-copy streams run
///   at once (0 = everyone, the legacy behaviour); a stream's slot frees
///   when its pre-copy ends. Bounding concurrency shortens rounds, which
///   shrinks per-round dirtying — the fleet-level convergence win.
/// * **Ordering** ([`FleetOrder::drain`]): [`FleetOrder::Fifo`] admits
///   in input order;
///   [`FleetOrder::ShortestPredictedFirst`] admits by predicted
///   stop-and-copy time (`predict_migration`), so small/idle VMs clear
///   the (sequential) receiver before the heavyweights park on it;
///   [`FleetOrder::SloAware`] admits by predicted SLO harm at the slot's
///   current time, steering hot-traffic VMs toward their low-QPS windows.
/// * **SLO physics**: a [`FleetVm`] carrying an [`crate::SloVm`]
///   contends its traffic against its pre-copy stream
///   ([`LinkContention`]) and has its violation-seconds and error-budget
///   burn accounted in [`FleetReport::slo`] — under *every* order, so
///   SLO-blind baselines feel the same contention they ignore.
/// * **Receive side**: sequential when the destination is Xen (each
///   stop-and-copy queues behind the previous one, §5.2.2), parallel for
///   kvmtool — as in [`migrate_many`].
///
/// With the default policy (FIFO, unlimited concurrency) the schedule is
/// byte-identical to the legacy [`migrate_many`], which is now a thin
/// wrapper over this function.
pub fn migrate_fleet(
    tp: &MigrationTp,
    src_machine: &mut Machine,
    src_hv: &mut dyn Hypervisor,
    vms: &[FleetVm],
    dst_machine: &mut Machine,
    dst_hv: &mut dyn Hypervisor,
    policy: FleetPolicy,
) -> Result<FleetReport, HtpError> {
    let n = vms.len();
    let slots = if policy.max_concurrent == 0 {
        n
    } else {
        policy.max_concurrent.min(n)
    };
    let sharers = slots as u32;
    let sequential_receive = dst_hv.kind() == HypervisorKind::Xen;
    let perf = src_machine.spec().perf();

    // Per-VM model inputs, in input order: (pages, dirty rate, stop_fixed).
    let inputs = vms
        .iter()
        .map(|vm| {
            let cfg = src_hv.vm_config(vm.id)?;
            let rate = vm.dirty_rate.unwrap_or(tp.config.dirty_rate_pages_per_sec);
            Ok((
                cfg.pages(),
                rate,
                tp.stop_fixed(dst_hv.kind(), cfg.vcpus, sharers),
            ))
        })
        .collect::<Result<Vec<(u64, f64, SimDuration)>, HtpError>>()?;
    let predict = |i: usize, contention: LinkContention| {
        let (pages, dirty_rate, stop_fixed) = inputs[i];
        predict_migration(&PredictInput {
            pages,
            dirty_rate,
            config: &tp.config,
            sharers,
            perf,
            ghz_s_per_page: tp.cost.migrate_ghz_s_per_page,
            round_overhead_s: tp.cost.migrate_round_overhead_s,
            compression_hint: policy.compression_hint,
            stop_fixed,
            contention,
        })
    };
    // The cold-start predictions: ordering + telemetry.
    let predictions: Vec<MigrationPrediction> =
        (0..n).map(|i| predict(i, LinkContention::NONE)).collect();
    // An SLO-carrying VM's traffic at `now` contends its pre-copy stream.
    let contention = |i: usize, now: SimDuration| {
        vms[i].slo.map_or(LinkContention::NONE, |s| {
            LinkContention::new(s.traffic.bps_at(now))
        })
    };

    // Run the data phases in admission order (the shared wire cache sees
    // VMs in the same order the link does); each stream holds its slot
    // for its pre-copy. SPDF orders by the cold predicted stop-and-copy;
    // SLO-aware by the violation-seconds of the migration contended at
    // each free slot, so hot-traffic VMs wait for their low-QPS windows.
    let items: Vec<usize> = (0..n).collect();
    let mut admission = Vec::with_capacity(n);
    let mut admission_predictions = predictions.clone();
    let mut phases: Vec<Option<(VmId, DataPhase)>> = (0..n).map(|_| None).collect();
    let schedule = policy.order.drain(
        &items,
        slots,
        |i, now| match now {
            None => (SimDuration::ZERO, predictions[i].stop_copy),
            Some(now) => {
                let pred = predict(i, contention(i, now));
                let harm = vms[i].slo.map_or(SimDuration::ZERO, |s| {
                    s.outcome(now, pred.precopy, pred.stop_copy).violation
                });
                (harm, pred.stop_copy)
            }
        },
        |i, start| {
            admission.push(i);
            if policy.order == FleetOrder::SloAware {
                admission_predictions[i] = predict(i, contention(i, start));
            }
            // The data phase runs over the contention-scaled link, so
            // round transfers stretch and the controller's estimators
            // observe the stretched reality.
            let (vm, contention) = (vms[i], contention(i, start));
            let contended_tp;
            let tp = if contention.workload_bps > 0.0 {
                let mut config = tp.config;
                config.link = contention.contended(&config.link);
                contended_tp = tp.clone().with_config(config);
                &contended_tp
            } else {
                tp
            };
            let cfg = src_hv.vm_config(vm.id)?.clone();
            let dst_id = dst_hv.prepare_incoming(dst_machine, &cfg)?;
            let mut dst = LocalSink::new(tp, dst_machine, dst_hv, dst_id, &cfg.name)?;
            let phase = tp.migrate_data(
                src_machine,
                src_hv,
                vm.id,
                &cfg,
                &mut dst,
                sharers,
                vm.dirty_rate,
            )?;
            Ok::<_, HtpError>(phases[i].insert((dst_id, phase)).1.precopy)
        },
    )?;
    let phases: Vec<(VmId, DataPhase)> = phases.into_iter().map(|p| p.expect("admitted")).collect();

    // Schedule the receive side: stop-and-copies queue on a sequential
    // receiver in pre-copy completion order, the drain's end order.
    let mut receiver_free = SimDuration::ZERO;
    let mut makespan = SimDuration::ZERO;
    let mut starts = vec![SimDuration::ZERO; n];
    let mut reports: Vec<MigrationReport> = phases.iter().map(|(_, p)| p.report.clone()).collect();
    for &(i, start, precopy_end) in &schedule {
        let phase = &phases[i].1;
        let (finish, downtime) = if sequential_receive {
            let begin = precopy_end.max(receiver_free);
            let finish = begin + phase.stop_copy;
            receiver_free = finish;
            (finish, finish - precopy_end)
        } else {
            (precopy_end + phase.stop_copy, phase.stop_copy)
        };
        makespan = makespan.max(finish);
        starts[i] = start;
        (reports[i].downtime, reports[i].total) = (downtime, finish);
    }

    src_machine.clock().advance(makespan);
    dst_machine.clock().advance_to(src_machine.clock().now());
    for (vm, &(dst_id, _)) in vms.iter().zip(&phases) {
        dst_hv.resume_vm(dst_id)?;
        src_hv.destroy_vm(src_machine, vm.id)?;
    }
    // Price every SLO-carrying VM's migration against the schedule it
    // actually got: its start, its (contention-stretched) pre-copy and
    // the real downtime including receiver queuing. The accounting runs
    // under every order — the baseline schedulers are *blind* to the
    // harm, not exempt from it.
    let slo: Vec<Option<VmSloOutcome>> = (0..n)
        .map(|i| {
            vms[i]
                .slo
                .map(|s| s.outcome(starts[i], phases[i].1.precopy, reports[i].downtime))
        })
        .collect();
    Ok(FleetReport {
        reports,
        predictions,
        admission_predictions,
        policy,
        admission,
        starts,
        slo,
        makespan,
    })
}

/// Migrates several VMs from one host to another, reproducing §5.2.2's
/// multi-VM behaviour: sends run in parallel and share the link; the
/// receive side is **sequential** when the destination is Xen (each VM's
/// stop-and-copy queues behind the previous one, inflating later VMs'
/// downtime) and parallel when it is kvmtool.
///
/// Wall-clock execution: each VM's rounds, applies and verification run
/// on the calling thread, so the Xen receive queue stays serial. The
/// simulated schedule and every report are identical for any worker
/// count.
///
/// This is [`migrate_fleet`] under the legacy default policy (FIFO
/// admission, unlimited concurrency); the schedule is byte-identical to
/// the pre-scheduler implementation.
pub fn migrate_many(
    tp: &MigrationTp,
    src_machine: &mut Machine,
    src_hv: &mut dyn Hypervisor,
    vm_ids: &[VmId],
    dst_machine: &mut Machine,
    dst_hv: &mut dyn Hypervisor,
) -> Result<Vec<MigrationReport>, HtpError> {
    let vms: Vec<FleetVm> = vm_ids.iter().map(|&id| FleetVm::new(id)).collect();
    let fleet = migrate_fleet(
        tp,
        src_machine,
        src_hv,
        &vms,
        dst_machine,
        dst_hv,
        FleetPolicy::default(),
    )?;
    Ok(fleet.reports)
}
