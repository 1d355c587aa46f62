//! Exposure-minimizing campaign planning over a live vulnerability feed.
//!
//! The paper's objective is shrinking the vulnerability window; this
//! module makes that the *optimized* quantity. Given a fleet (any
//! [`ClusterView`]) and a stream of [`FeedEvent`]s, the planner chooses —
//! per host, per disclosure — between an in-place upgrade, live
//! migration, and explicit deferral, minimizing **integrated exposure**
//!
//! ```text
//! ∫ affected-VM-count × surface-criticality dt
//! ```
//!
//! under the per-VM downtime budget. All exposure accounting in the
//! workspace flows through one [`ExposureIntegrator`] — the campaign
//! report's `exposure_avoided`/`residual_exposure`, the executor's
//! exposure time series, and this planner all accrue through it, so the
//! numbers can never drift apart.
//!
//! # The schedule
//!
//! Remediating a host at completion time `C` accrues
//! `vms × criticality × min(C, window)` exposure; deferring accrues the
//! full window. With every host of an event sharing the disclosure's
//! criticality, minimizing the sum is the classic weighted-completion-
//! time problem, and Smith's rule — remediate in ascending
//! cost-per-exposed-VM order — is optimal on the serialized fluid model
//! used here. The surface-blind baseline runs the identical machinery
//! with uniform weights and host-index order, so the committed
//! exposure-reduction floor measures planning, not physics.
//!
//! # Incremental re-planning
//!
//! Host remediation costs depend on the fleet, not the disclosure, so
//! [`ExposurePlanner`] evaluates them once — sharded over a
//! [`WorkerPool`] with per-class memoization, exactly like the executor.
//! Neither does the schedule: which path each host takes, the Smith-rule
//! order and every completion instant are functions of the cost table and
//! the planner's configuration alone, so construction derives them once
//! too. A disclosure contributes only its criticality, its window and
//! whether it is remediated at all; re-planning a 10k-host fleet for it is
//! one linear pass over the cached schedule, feeding the integrator in
//! drain order.

use std::sync::Arc;

use hypertp_sim::cost::MachinePerf;
use hypertp_sim::pool::WorkerPool;
use hypertp_sim::stats::{Histogram, Streaming};
use hypertp_sim::{CostModel, SimDuration};
use hypertp_vulndb::feed::{FeedEvent, SurfaceWeights};
use hypertp_vulndb::Severity;

use crate::exec::{ClassMemo, ExecConfig};
use crate::model::ClusterView;

/// The single integrator behind every exposure figure in the workspace.
///
/// One disclosure's exposure is accrued VM by VM: a VM remediated at
/// campaign time `t` was exposed for `min(t, window)`; a VM never
/// remediated (deferred, or stranded on an excluded host) was exposed for
/// the whole window. Each accrual is weighted by the disclosure's
/// criticality, so the integral is the planner's objective
/// ∫ affected-VMs × criticality dt evaluated exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ExposureIntegrator {
    criticality: f64,
    window_secs: f64,
    integral: f64,
    vms: f64,
}

impl ExposureIntegrator {
    /// An integrator for one disclosure of the given criticality and
    /// patch window.
    pub fn new(criticality: f64, window: SimDuration) -> ExposureIntegrator {
        ExposureIntegrator {
            criticality,
            window_secs: window.as_secs_f64(),
            integral: 0.0,
            vms: 0.0,
        }
    }

    /// Accrues `vms` VMs remediated at campaign instant `at`; returns the
    /// per-VM exposure-seconds accrued (`criticality × min(at, window)`).
    pub fn remediated(&mut self, vms: f64, at: SimDuration) -> f64 {
        let per_vm = self.criticality * at.as_secs_f64().min(self.window_secs);
        self.integral += vms * per_vm;
        self.vms += vms;
        per_vm
    }

    /// Accrues `vms` VMs that sit out the whole window; returns the
    /// per-VM exposure-seconds (`criticality × window`).
    pub fn deferred(&mut self, vms: f64) -> f64 {
        let per_vm = self.criticality * self.window_secs;
        self.integral += vms * per_vm;
        self.vms += vms;
        per_vm
    }

    /// The integral so far, in VM·criticality·seconds.
    pub fn integral(&self) -> f64 {
        self.integral
    }

    /// VMs accrued so far.
    pub fn vms(&self) -> f64 {
        self.vms
    }

    /// The window this integrator caps exposure at, in seconds.
    pub fn window_secs(&self) -> f64 {
        self.window_secs
    }

    /// A remediated VM's exposed fraction of the window (for bounded
    /// histograms); 0 when the window is empty.
    pub fn fraction(&self, per_vm_secs: f64) -> f64 {
        if self.window_secs <= 0.0 || self.criticality <= 0.0 {
            return 0.0;
        }
        per_vm_secs / (self.criticality * self.window_secs)
    }
}

/// The planner's per-host verdict for one disclosure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostAction {
    /// Micro-reboot the host in place (InPlaceTP).
    InPlace,
    /// Evacuate the host's VMs by live migration (MigrationTP).
    Migrate,
    /// Leave the host on the vulnerable hypervisor until the patch: the
    /// disclosure sits below the (weighted) transplant threshold, or no
    /// remediation path fits the downtime budget.
    Defer,
}

/// The remediation economics of one host, independent of any disclosure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostCost {
    /// Resident VMs.
    pub vms: u64,
    /// Every resident VM is InPlaceTP-compatible.
    pub inplace_ok: bool,
    /// In-place path: host blackout, which is also every resident VM's
    /// downtime. Zero when `!inplace_ok`.
    pub inplace_cost: SimDuration,
    /// Migration path: total serialized evacuation time of the host.
    pub migrate_cost: SimDuration,
    /// Migration path: worst per-VM stop-and-copy blackout (the final
    /// dirty-round retransfer).
    pub migrate_blackout: SimDuration,
}

/// Planner configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExposureConfig {
    /// Cost-model knobs shared with the executor (link, overheads,
    /// target, wire mode).
    pub exec: ExecConfig,
    /// Hosts remediated concurrently (the fluid-model drain rate; the
    /// rolling-upgrade group width plays this role in the executor).
    pub concurrent_hosts: usize,
    /// Per-VM downtime allowance: a host whose cheapest remediation path
    /// would blacken a VM longer than this is explicitly deferred.
    pub downtime_budget: SimDuration,
    /// Surface-criticality calibration (uniform = the raw-CVSS policy).
    pub weights: SurfaceWeights,
    /// `true` plans by weighted severity and Smith-rule order; `false` is
    /// the surface-blind baseline (raw severity, host-index order). Both
    /// report exposure in the same calibrated metric.
    pub surface_aware: bool,
}

impl Default for ExposureConfig {
    fn default() -> Self {
        ExposureConfig {
            exec: ExecConfig::default(),
            concurrent_hosts: 8,
            downtime_budget: SimDuration::from_secs(300),
            weights: SurfaceWeights::uniform(),
            surface_aware: true,
        }
    }
}

/// One disclosure's plan: per-host actions, the remediation order, and
/// the schedule's integrated exposure.
#[derive(Debug, Clone, PartialEq)]
pub struct EventPlan {
    /// Disclosure id.
    pub id: String,
    /// Calibrated criticality (weighted score / 10) of the disclosure.
    pub criticality: f64,
    /// Patch window.
    pub window: SimDuration,
    /// Per-host verdicts, indexed by host. Shared, not copied: every
    /// remediated disclosure carries the planner's one schedule, every
    /// other one the all-[`HostAction::Defer`] slice.
    pub actions: Arc<[HostAction]>,
    /// Whether the event was remediated at all (false ⇒ every action is
    /// [`HostAction::Defer`]: the patch cycle covers it).
    pub remediated: bool,
    /// Remediated only because surface weighting escalated a flaw raw
    /// CVSS leaves below threshold.
    pub escalated: bool,
    /// Integrated exposure of this schedule, VM·criticality·seconds.
    pub exposure_vm_secs: f64,
    /// Wall-clock length of the remediation drain.
    pub makespan: SimDuration,
    /// VMs remediated / left exposed for the window.
    pub remediated_vms: u64,
    /// VMs on deferred hosts.
    pub deferred_vms: u64,
}

impl EventPlan {
    /// Hosts per action.
    pub fn count(&self, action: HostAction) -> usize {
        self.actions.iter().filter(|&&a| a == action).count()
    }
}

/// Bounded-memory summary of a whole feed replay.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedReport {
    /// Disclosures replayed.
    pub events: usize,
    /// Disclosures that triggered remediation.
    pub remediated_events: usize,
    /// Remediations only the surface weighting triggered.
    pub escalated_events: usize,
    /// Integrated exposure over the whole feed, VM·criticality·days.
    pub exposure_vm_days: f64,
    /// Sum of remediation makespans (the disruption price paid).
    pub disruption: SimDuration,
    /// VM remediations performed / VM-windows deferred, summed over
    /// events.
    pub remediated_vms: u64,
    /// VMs left exposed for a full window, summed over events.
    pub deferred_vms: u64,
    /// Per-event integrated exposure (VM·criticality·days).
    pub per_event: Streaming,
    /// Per-event mean exposed fraction of the window, bucketed on
    /// `[0, 1)`.
    pub per_event_hist: Histogram,
}

/// Buckets of [`FeedReport::per_event_hist`]: 20 × 5% bins of the window.
pub const EXPOSURE_HIST_BUCKETS: usize = 20;

impl Default for FeedReport {
    fn default() -> Self {
        FeedReport::new()
    }
}

impl FeedReport {
    /// The report of an empty feed.
    pub fn new() -> FeedReport {
        FeedReport {
            events: 0,
            remediated_events: 0,
            escalated_events: 0,
            exposure_vm_days: 0.0,
            disruption: SimDuration::ZERO,
            remediated_vms: 0,
            deferred_vms: 0,
            per_event: Streaming::new(),
            per_event_hist: Histogram::new(0.0, 1.0, EXPOSURE_HIST_BUCKETS),
        }
    }

    /// Folds one disclosure's plan into the report.
    pub fn fold(&mut self, plan: &EventPlan) {
        self.events += 1;
        if plan.remediated {
            self.remediated_events += 1;
        }
        if plan.escalated {
            self.escalated_events += 1;
        }
        let days = plan.exposure_vm_secs / 86_400.0;
        self.exposure_vm_days += days;
        self.disruption += plan.makespan;
        self.remediated_vms += plan.remediated_vms;
        self.deferred_vms += plan.deferred_vms;
        self.per_event.push(days);
        let total_vms = plan.remediated_vms + plan.deferred_vms;
        let denom = plan.criticality * plan.window.as_secs_f64() * total_vms as f64;
        if denom > 0.0 {
            self.per_event_hist.record(plan.exposure_vm_secs / denom);
        }
    }

    /// Canonical byte-stable rendering: two replays produced the same
    /// report iff their renders match.
    pub fn render(&self) -> String {
        format!(
            "events={} remediated={} escalated={} exposure_vm_days={:?} disruption_ns={} \
             remediated_vms={} deferred_vms={} per_event{{{}}} hist{{{}}}",
            self.events,
            self.remediated_events,
            self.escalated_events,
            self.exposure_vm_days,
            self.disruption.as_nanos(),
            self.remediated_vms,
            self.deferred_vms,
            self.per_event.render(),
            self.per_event_hist.render(),
        )
    }
}

/// One host's remediation economics; each VM migrates alone on the
/// fabric, and the per-VM blackout is the estimate's stop-and-copy.
fn host_cost<V: ClusterView + ?Sized>(
    view: &V,
    cfg: &ExposureConfig,
    host: usize,
    vms: &[usize],
    cost_model: &CostModel,
    uniform_perf: Option<&MachinePerf>,
    memo: &mut ClassMemo,
) -> HostCost {
    let mut inplace_ok = !vms.is_empty();
    let mut migrate_cost = SimDuration::ZERO;
    let mut migrate_blackout = SimDuration::ZERO;
    for &vm in vms {
        let info = view.vm(vm);
        inplace_ok &= info.inplace_compatible;
        let est = memo.migration(&cfg.exec, &info, 1);
        migrate_cost += est.time;
        migrate_blackout = migrate_blackout.max(est.blackout);
    }
    let inplace_cost = if inplace_ok {
        memo.inplace(view, cost_model, &cfg.exec, host, vms.len(), uniform_perf)
    } else {
        SimDuration::ZERO
    };
    HostCost {
        vms: vms.len() as u64,
        inplace_ok,
        inplace_cost,
        migrate_cost,
        migrate_blackout,
    }
}

/// One host's turn in the drain.
struct Slot {
    /// Resident VMs remediated with the host.
    vms: u64,
    /// Campaign instant the host's remediation completes.
    done: SimDuration,
}

/// The disclosure-invariant half of every plan: a function of the cost
/// table and the planner's configuration, derived once at construction.
struct Schedule {
    /// Per-host verdicts of a remediated disclosure.
    actions: Arc<[HostAction]>,
    /// Per-host verdicts of a disclosure left to the patch cycle.
    all_defer: Arc<[HostAction]>,
    /// The drain in remediation order.
    slots: Vec<Slot>,
    /// VM counts of the populated hosts no remediation path fits, in
    /// host order.
    deferred: Vec<u64>,
    /// VMs across `slots`.
    remediated_vms: u64,
    /// VMs across `deferred`.
    deferred_vms: u64,
}

/// The cheapest remediation path that keeps every resident VM's blackout
/// within `budget`, if any.
fn verdict(c: &HostCost, budget: SimDuration) -> HostAction {
    let inplace_fits = c.inplace_ok && c.inplace_cost <= budget;
    let migrate_fits = c.migrate_blackout <= budget;
    match (inplace_fits, migrate_fits) {
        (true, true) => {
            if c.inplace_cost <= c.migrate_cost {
                HostAction::InPlace
            } else {
                HostAction::Migrate
            }
        }
        (true, false) => HostAction::InPlace,
        (false, true) => HostAction::Migrate,
        (false, false) => HostAction::Defer,
    }
}

impl Schedule {
    fn new(costs: &[HostCost], cfg: &ExposureConfig) -> Schedule {
        let mut actions = vec![HostAction::Defer; costs.len()];
        // (cost per exposed VM, host, cost) of every host that drains.
        let mut active: Vec<(f64, usize, SimDuration)> = Vec::new();
        let mut deferred = Vec::new();
        for (h, c) in costs.iter().enumerate() {
            if c.vms == 0 {
                continue;
            }
            actions[h] = verdict(c, cfg.downtime_budget);
            let cost = match actions[h] {
                HostAction::InPlace => c.inplace_cost,
                HostAction::Migrate => c.migrate_cost,
                HostAction::Defer => {
                    deferred.push(c.vms);
                    continue;
                }
            };
            active.push((cost.as_secs_f64() / c.vms as f64, h, cost));
        }
        if cfg.surface_aware {
            // Smith's rule: ascending cost per exposed VM minimizes
            // Σ weight × completion on the fluid drain. Keys are finite
            // and non-negative, so `total_cmp` is the numeric order; ties
            // fall to the host index, so the schedule is deterministic.
            active.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        }
        let rate = cfg.concurrent_hosts.max(1) as f64;
        let mut running = SimDuration::ZERO;
        let slots: Vec<Slot> = active
            .iter()
            .map(|&(_, h, cost)| {
                running += SimDuration::from_secs_f64(cost.as_secs_f64() / rate);
                Slot {
                    vms: costs[h].vms,
                    done: running,
                }
            })
            .collect();
        Schedule {
            actions: actions.into(),
            all_defer: vec![HostAction::Defer; costs.len()].into(),
            remediated_vms: slots.iter().map(|s| s.vms).sum(),
            deferred_vms: deferred.iter().sum(),
            slots,
            deferred,
        }
    }
}

/// The incremental exposure planner: host costs and the remediation
/// schedule are evaluated once (the fleet-dependent part); each feed
/// event re-plans with one pass over the cached schedule.
pub struct ExposurePlanner<'a, V: ClusterView + ?Sized> {
    view: &'a V,
    cfg: ExposureConfig,
    costs: Vec<HostCost>,
    schedule: Schedule,
}

impl<'a, V: ClusterView + ?Sized> ExposurePlanner<'a, V> {
    /// Builds the planner serially.
    pub fn new(view: &'a V, cfg: ExposureConfig) -> ExposurePlanner<'a, V> {
        ExposurePlanner::with_pool(view, cfg, 1, &WorkerPool::serial())
    }

    /// Builds the planner with host-cost evaluation fanned over `shards`
    /// contiguous host ranges on `pool`. The cost table — and therefore
    /// the schedule, every plan and every report — is byte-identical for
    /// every `(shards, workers)` combination: each host's cost is a pure
    /// function of the view and config.
    pub fn with_pool(
        view: &'a V,
        cfg: ExposureConfig,
        shards: usize,
        pool: &WorkerPool,
    ) -> ExposurePlanner<'a, V> {
        let hosts = view.host_count();
        let mut by_host: Vec<Vec<usize>> = vec![Vec::new(); hosts];
        for vm in 0..view.vm_count() {
            by_host[view.vm(vm).home].push(vm);
        }
        let cost_model = CostModel::paper_calibrated();
        let uniform_perf = view.uniform_spec().map(|s| s.perf());
        let batch = pool.map_chunks(hosts, shards.max(1), |range| {
            let mut memo = ClassMemo::new();
            range
                .map(|h| {
                    host_cost(
                        view,
                        &cfg,
                        h,
                        &by_host[h],
                        &cost_model,
                        uniform_perf.as_ref(),
                        &mut memo,
                    )
                })
                .collect::<Vec<HostCost>>()
        });
        let costs: Vec<HostCost> = batch.results.into_iter().flatten().collect();
        let schedule = Schedule::new(&costs, &cfg);
        ExposurePlanner {
            view,
            cfg,
            costs,
            schedule,
        }
    }

    /// The cached per-host cost table.
    pub fn costs(&self) -> &[HostCost] {
        &self.costs
    }

    /// The view this planner serves.
    pub fn view(&self) -> &V {
        self.view
    }

    /// Plans one disclosure. Pure in `(self, event)` — re-planning on the
    /// next event needs no recomputation, only this call: the integrator
    /// is fed the cached drain in schedule order, then the deferred hosts
    /// in host order.
    pub fn plan_event(&self, ev: &FeedEvent) -> EventPlan {
        let cfg = &self.cfg;
        let criticality = cfg.weights.criticality(&ev.vuln.cvss, ev.surface);
        let window = ev.window();
        let raw_critical = ev.vuln.severity() == Severity::Critical;
        // The aware planner escalates flaws whose weighted score crosses
        // the critical band; it never demotes a raw critical (deferring a
        // remediable critical could only add exposure).
        let weighted_critical =
            cfg.weights.effective_severity(&ev.vuln.cvss, ev.surface) == Severity::Critical;
        let remediated = if cfg.surface_aware {
            raw_critical || weighted_critical
        } else {
            raw_critical
        };
        let s = &self.schedule;
        let mut integ = ExposureIntegrator::new(criticality, window);
        let (actions, makespan, remediated_vms, deferred_vms) = if remediated {
            for slot in &s.slots {
                integ.remediated(slot.vms as f64, slot.done);
            }
            for &vms in &s.deferred {
                integ.deferred(vms as f64);
            }
            let makespan = s.slots.last().map_or(SimDuration::ZERO, |slot| slot.done);
            (&s.actions, makespan, s.remediated_vms, s.deferred_vms)
        } else {
            // The patch cycle covers it: every populated host sits out
            // the window.
            for c in self.costs.iter().filter(|c| c.vms > 0) {
                integ.deferred(c.vms as f64);
            }
            let every_vm = s.remediated_vms + s.deferred_vms;
            (&s.all_defer, SimDuration::ZERO, 0, every_vm)
        };
        EventPlan {
            id: ev.vuln.id.clone(),
            criticality,
            window,
            actions: Arc::clone(actions),
            remediated,
            escalated: remediated && !raw_critical,
            exposure_vm_secs: integ.integral(),
            makespan,
            remediated_vms,
            deferred_vms,
        }
    }

    /// Replays a whole feed incrementally: one cached schedule, one
    /// [`plan_event`] per disclosure.
    ///
    /// [`plan_event`]: ExposurePlanner::plan_event
    pub fn replay(&self, events: &[FeedEvent]) -> FeedReport {
        let mut report = FeedReport::new();
        for ev in events {
            report.fold(&self.plan_event(ev));
        }
        report
    }
}

/// Replays `events` against `view` in one call: builds the planner
/// (sharded host-cost evaluation) and runs the incremental replay.
pub fn replay_feed<V: ClusterView + ?Sized>(
    view: &V,
    events: &[FeedEvent],
    cfg: &ExposureConfig,
    shards: usize,
    pool: &WorkerPool,
) -> FeedReport {
    ExposurePlanner::with_pool(view, *cfg, shards, pool).replay(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cluster, HostState};
    use hypertp_core::HypervisorKind;
    use hypertp_machine::MachineSpec;
    use hypertp_vulndb::{dataset::dataset, VulnFeed};

    fn year_feed(seed: u64) -> Vec<FeedEvent> {
        VulnFeed::new(seed).replay(SimDuration::from_secs(365 * 86_400))
    }

    /// The original per-event planner — classify every host, sort the
    /// active ones, walk the prefix — kept verbatim as an oracle: the
    /// cached schedule must reproduce its plans and reports bit for bit.
    mod oracle {
        use super::super::*;

        pub fn plan_event(costs: &[HostCost], cfg: &ExposureConfig, ev: &FeedEvent) -> EventPlan {
            let criticality = cfg.weights.criticality(&ev.vuln.cvss, ev.surface);
            let window = ev.window();
            let raw_critical = ev.vuln.severity() == Severity::Critical;
            let weighted_critical =
                cfg.weights.effective_severity(&ev.vuln.cvss, ev.surface) == Severity::Critical;
            let remediated = if cfg.surface_aware {
                raw_critical || weighted_critical
            } else {
                raw_critical
            };
            let mut integ = ExposureIntegrator::new(criticality, window);
            let mut actions = vec![HostAction::Defer; costs.len()];
            let mut active: Vec<(usize, SimDuration)> = Vec::new();
            if remediated {
                for (h, c) in costs.iter().enumerate() {
                    if c.vms == 0 {
                        continue;
                    }
                    let inplace_fits = c.inplace_ok && c.inplace_cost <= cfg.downtime_budget;
                    let migrate_fits = c.migrate_blackout <= cfg.downtime_budget;
                    let action = match (inplace_fits, migrate_fits) {
                        (true, true) => {
                            if c.inplace_cost <= c.migrate_cost {
                                HostAction::InPlace
                            } else {
                                HostAction::Migrate
                            }
                        }
                        (true, false) => HostAction::InPlace,
                        (false, true) => HostAction::Migrate,
                        (false, false) => HostAction::Defer,
                    };
                    actions[h] = action;
                    match action {
                        HostAction::InPlace => active.push((h, c.inplace_cost)),
                        HostAction::Migrate => active.push((h, c.migrate_cost)),
                        HostAction::Defer => {}
                    }
                }
                if cfg.surface_aware {
                    active.sort_by(|a, b| {
                        let ka = a.1.as_secs_f64() / costs[a.0].vms as f64;
                        let kb = b.1.as_secs_f64() / costs[b.0].vms as f64;
                        ka.partial_cmp(&kb)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.0.cmp(&b.0))
                    });
                }
            }
            let rate = cfg.concurrent_hosts.max(1) as f64;
            let mut running = SimDuration::ZERO;
            let mut remediated_vms = 0u64;
            for &(h, c) in &active {
                running += SimDuration::from_secs_f64(c.as_secs_f64() / rate);
                integ.remediated(costs[h].vms as f64, running);
                remediated_vms += costs[h].vms;
            }
            let mut deferred_vms = 0u64;
            for (h, c) in costs.iter().enumerate() {
                if actions[h] == HostAction::Defer && c.vms > 0 {
                    integ.deferred(c.vms as f64);
                    deferred_vms += c.vms;
                }
            }
            EventPlan {
                id: ev.vuln.id.clone(),
                criticality,
                window,
                actions: actions.into(),
                remediated,
                escalated: remediated && !raw_critical,
                exposure_vm_secs: integ.integral(),
                makespan: running,
                remediated_vms,
                deferred_vms,
            }
        }

        pub fn replay(
            costs: &[HostCost],
            cfg: &ExposureConfig,
            events: &[FeedEvent],
        ) -> FeedReport {
            let mut report = FeedReport::new();
            for ev in events {
                let plan = plan_event(costs, cfg, ev);
                report.events += 1;
                if plan.remediated {
                    report.remediated_events += 1;
                }
                if plan.escalated {
                    report.escalated_events += 1;
                }
                let days = plan.exposure_vm_secs / 86_400.0;
                report.exposure_vm_days += days;
                report.disruption += plan.makespan;
                report.remediated_vms += plan.remediated_vms;
                report.deferred_vms += plan.deferred_vms;
                report.per_event.push(days);
                let total_vms = plan.remediated_vms + plan.deferred_vms;
                let denom = plan.criticality * plan.window.as_secs_f64() * total_vms as f64;
                if denom > 0.0 {
                    report.per_event_hist.record(plan.exposure_vm_secs / denom);
                }
            }
            report
        }
    }

    /// `HYPERTP_SEED` (decimal or `0x`-prefixed hex), if set.
    fn env_seed() -> Option<u64> {
        let s = std::env::var("HYPERTP_SEED").ok()?;
        let s = s.trim();
        let (digits, radix) = match s.strip_prefix("0x") {
            Some(hex) => (hex, 16),
            None => (s, 10),
        };
        Some(
            u64::from_str_radix(digits, radix)
                .unwrap_or_else(|e| panic!("bad HYPERTP_SEED {s:?}: {e}")),
        )
    }

    /// Every event of `events`, under every planner configuration the
    /// schedule depends on, against the oracle. Collects the host actions
    /// seen, so the caller can check the sweep reached every verdict.
    fn assert_matches_oracle(
        view: &dyn ClusterView,
        events: &[FeedEvent],
        label: &str,
        seen: &mut Vec<HostAction>,
    ) {
        let weights = SurfaceWeights::calibrated(&dataset());
        for surface_aware in [true, false] {
            for budget_secs in [0u64, 30, 300] {
                for concurrent_hosts in [0usize, 1, 8] {
                    let cfg = ExposureConfig {
                        concurrent_hosts,
                        downtime_budget: SimDuration::from_secs(budget_secs),
                        weights,
                        surface_aware,
                        ..ExposureConfig::default()
                    };
                    let at = format!(
                        "{label} aware={surface_aware} budget={budget_secs}s \
                         concurrent={concurrent_hosts}"
                    );
                    let planner = ExposurePlanner::new(view, cfg);
                    for ev in events {
                        let plan = planner.plan_event(ev);
                        let want = oracle::plan_event(&planner.costs, &planner.cfg, ev);
                        assert_eq!(plan, want, "{at} event {}", ev.vuln.id);
                        for &a in plan.actions.iter() {
                            if !seen.contains(&a) {
                                seen.push(a);
                            }
                        }
                    }
                    assert_eq!(
                        planner.replay(events).render(),
                        oracle::replay(&planner.costs, &planner.cfg, events).render(),
                        "{at}"
                    );
                }
            }
        }
    }

    #[test]
    fn cached_schedule_matches_the_per_event_oracle() {
        let mut seen = Vec::new();
        for seed in [7u64, 42].into_iter().chain(env_seed()) {
            let syn = Cluster::synthetic(300, seed).with_compat_percent(70);
            let sparse = syn.clone().with_vms_per_host(3);
            // The paper testbed plus a host that carries no VM: it must be
            // neither scheduled nor counted as deferred.
            let mut testbed = Cluster::paper_testbed(40, seed);
            testbed.hosts.push(HostState {
                spec: MachineSpec::cluster_node(),
                hypervisor: HypervisorKind::Xen,
                upgraded: false,
            });
            // Two hardware specs: no uniform-spec memo, per-host in-place
            // costs, so Smith's order interleaves the two host kinds.
            let mut mixed = Cluster::synthetic(40, seed)
                .with_compat_percent(90)
                .materialize();
            for h in (1..mixed.hosts.len()).step_by(2) {
                mixed.hosts[h].spec = MachineSpec::m2();
            }
            assert!(mixed.uniform_spec().is_none());

            let events = year_feed(seed);
            let fleets: [(&str, &dyn ClusterView); 4] = [
                ("synthetic", &syn),
                ("3-per-host", &sparse),
                ("testbed", &testbed),
                ("two-spec", &mixed),
            ];
            for (name, view) in fleets {
                assert_matches_oracle(view, &events, &format!("{name} seed={seed}"), &mut seen);
            }
        }
        for action in [HostAction::InPlace, HostAction::Migrate, HostAction::Defer] {
            assert!(seen.contains(&action), "sweep never produced {action:?}");
        }
    }

    #[test]
    fn content_aware_blackout_honours_the_compression_ratio() {
        use hypertp_migrate::WireMode;
        let view = Cluster::synthetic(60, 7).with_compat_percent(50);
        let costs = |wire_mode, wire_compression_ratio| {
            let exec = ExecConfig {
                wire_mode,
                wire_compression_ratio,
                ..ExecConfig::default()
            };
            let cfg = ExposureConfig {
                exec,
                ..ExposureConfig::default()
            };
            ExposurePlanner::new(&view, cfg).costs().to_vec()
        };
        let raw = costs(WireMode::Raw, 1.0);
        assert_eq!(costs(WireMode::ContentAware, 1.0), raw);
        let squeezed = costs(WireMode::ContentAware, 0.3);
        let dirty: Vec<_> = raw
            .iter()
            .zip(&squeezed)
            .filter(|(r, _)| r.migrate_blackout > SimDuration::ZERO)
            .collect();
        assert!(!dirty.is_empty());
        for (r, s) in dirty {
            assert!(s.migrate_blackout < r.migrate_blackout);
            assert!(s.migrate_cost < r.migrate_cost);
        }
    }

    #[test]
    fn integrator_caps_at_the_window_and_sums() {
        let w = SimDuration::from_secs(100);
        let mut i = ExposureIntegrator::new(0.5, w);
        assert_eq!(i.remediated(2.0, SimDuration::from_secs(10)), 5.0);
        assert_eq!(i.remediated(1.0, SimDuration::from_secs(1000)), 50.0);
        assert_eq!(i.deferred(1.0), 50.0);
        assert_eq!(i.integral(), 2.0 * 5.0 + 50.0 + 50.0);
        assert_eq!(i.vms(), 4.0);
        assert_eq!(i.fraction(5.0), 0.1);
    }

    #[test]
    fn aware_replay_never_exceeds_blind_and_is_deterministic() {
        let view = Cluster::synthetic(60, 0xfeed).with_compat_percent(70);
        let events = year_feed(0xfeed);
        let weights = SurfaceWeights::calibrated(&dataset());
        let aware_cfg = ExposureConfig {
            weights,
            surface_aware: true,
            ..ExposureConfig::default()
        };
        let blind_cfg = ExposureConfig {
            surface_aware: false,
            ..aware_cfg
        };
        let pool = WorkerPool::serial();
        let aware = replay_feed(&view, &events, &aware_cfg, 1, &pool);
        let blind = replay_feed(&view, &events, &blind_cfg, 1, &pool);
        assert!(aware.exposure_vm_days <= blind.exposure_vm_days);
        assert!(aware.remediated_events >= blind.remediated_events);
        assert_eq!(blind.escalated_events, 0);
        let again = replay_feed(&view, &events, &aware_cfg, 1, &pool);
        assert_eq!(aware.render(), again.render());
    }

    #[test]
    fn replay_is_shard_and_worker_invariant() {
        let view = Cluster::synthetic(40, 7).with_compat_percent(80);
        let events = year_feed(7);
        let cfg = ExposureConfig {
            weights: SurfaceWeights::calibrated(&dataset()),
            ..ExposureConfig::default()
        };
        let base = replay_feed(&view, &events, &cfg, 1, &WorkerPool::serial()).render();
        for (shards, workers) in [(3, 2), (8, 4), (40, 1)] {
            let r = replay_feed(&view, &events, &cfg, shards, &WorkerPool::new(workers));
            assert_eq!(base, r.render(), "shards={shards} workers={workers}");
        }
    }

    #[test]
    fn tight_budget_defers_everything() {
        let view = Cluster::synthetic(10, 3);
        let events = year_feed(3);
        let cfg = ExposureConfig {
            downtime_budget: SimDuration::ZERO,
            ..ExposureConfig::default()
        };
        let planner = ExposurePlanner::new(&view, cfg);
        for ev in &events {
            let plan = planner.plan_event(ev);
            assert!(plan.actions.iter().all(|&a| a == HostAction::Defer));
            assert_eq!(plan.makespan, SimDuration::ZERO);
            assert_eq!(plan.remediated_vms, 0);
        }
    }

    #[test]
    fn empty_feed_is_a_no_op() {
        let view = Cluster::synthetic(10, 3);
        let r = replay_feed(
            &view,
            &[],
            &ExposureConfig::default(),
            1,
            &WorkerPool::serial(),
        );
        assert_eq!(r.events, 0);
        assert_eq!(r.exposure_vm_days, 0.0);
        assert_eq!(r.disruption, SimDuration::ZERO);
    }
}
