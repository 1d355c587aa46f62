//! Adaptive pre-copy control plane: per-migration feedback controller and
//! the fleet-level scheduler vocabulary.
//!
//! Classic pre-copy (Clark et al., NSDI'05) converges only when the link
//! drains pages faster than the guest dirties them; the static knobs the
//! engine shipped with (`stop_threshold_pages: 64`, a fixed `max_rounds`)
//! ignore everything the migration *observes* while it runs. This module
//! closes the loop:
//!
//! * `PrecopyController` keeps per-round EWMA estimators (dirty rate,
//!   drain rate, effective link throughput, wire compression) and turns a
//!   [`crate::MigrationConfig::downtime_budget`] into a max stop-and-copy
//!   page count using the *observed* per-page wire cost — compressed
//!   pages are cheap, so the same budget covers more of them. A
//!   non-convergence detector (dirtying keeps pace with draining for K
//!   consecutive rounds) triggers auto-converge guest throttling — a
//!   budget implies permission to throttle, since an over-threshold
//!   steady-state dirty set can never shrink on its own — or an early
//!   stop-and-copy when throttling is exhausted or unavailable, instead
//!   of burning every round the cap allows.
//! * [`FleetPolicy`]/[`FleetOrder`] describe how `migrate_fleet` admits
//!   and orders a fleet: FIFO (the legacy `migrate_many` behaviour),
//!   shortest-predicted-downtime-first or least-predicted-SLO-harm-first,
//!   with bounded concurrency so the link is shared by at most
//!   `max_concurrent` streams at a time. [`FleetOrder::drain`] is that
//!   admission rule, once, over a [`Slots`] calendar: the fleet and the
//!   cluster executor's group drains both schedule through it.
//! * `predict_migration` is the shared analytic round model used for
//!   scheduler ordering and the predicted-vs-actual telemetry in
//!   [`crate::engine::FleetReport`].
//!
//! The controller is **inactive by default**: with `downtime_budget: None`
//! and `auto_converge: false` every decision collapses to the static
//! configuration, keeping the pinned §5.2 timing tests byte-identical.
//!
//! The SLO-aware layer (PR 9) adds the *user-visible* harm vocabulary on
//! top of the hardware-side one:
//!
//! * [`LinkContention`] models workload traffic sharing the migration
//!   NIC: the pre-copy stream only gets what the guests leave over (with
//!   a TCP-fairness floor), so transfers stretch — and because the
//!   engine feeds the stretched transfers straight into
//!   `PrecopyController::observe_round`, the throughput/drain
//!   estimators and the budget→pages conversion degrade honestly under
//!   contention instead of assuming an idle link.
//! * [`TrafficCurve`] is the scheduler's view of one VM's deterministic
//!   diurnal load; [`SloVm`] couples it to the VM's degraded capacity
//!   and error budget, and prices a migration window in
//!   *violation-seconds* ([`SloVm::outcome`]).
//! * [`FleetOrder::SloAware`] admits by predicted harm: at every free
//!   slot the waiting VM whose migration would violate least *right
//!   now* goes first, which pushes hot-traffic VMs toward their
//!   low-QPS windows as the fleet drains.
//!
//! Everything here is opt-in: a [`FleetVm`] without an [`SloVm`] carries
//! no traffic, contends with nothing and accounts nothing, so default
//! fleets stay byte-identical.

use std::collections::VecDeque;

use hypertp_core::VmId;
use hypertp_machine::PAGE_SIZE;
use hypertp_sim::cost::MachinePerf;
use hypertp_sim::{Ewma, SimDuration, Slots};

use crate::network::{Link, WIRE_FRAME_HEADER};
use crate::{MigrationConfig, WireMode};

/// Bytes budgeted for the UISR blob in the stop-and-copy fixed-cost
/// estimate. Real blobs for the simulated VMs are smaller; overestimating
/// only makes the budget→pages conversion more conservative.
pub(crate) const UISR_BYTES_ALLOWANCE: u64 = 4096;

/// Consecutive non-convergent rounds (dirtying ≥ 90% of the drain)
/// before the detector acts.
const NONCONVERGENCE_ROUNDS: u32 = 2;

/// Multiplier applied to the guest's dirty rate each time the detector
/// fires (auto-converge enabled or a downtime budget set).
const THROTTLE_STEP: f64 = 0.25;

/// Throttle floor; at the floor a still-non-convergent guest forces an
/// early stop-and-copy instead.
const MIN_THROTTLE: f64 = 1.0 / 256.0;

/// Safety factor on the observed per-page wire cost when converting a
/// downtime budget into pages (guards against the stop set encoding worse
/// than the rounds the estimate was trained on).
const BUDGET_SAFETY: f64 = 2.0;

/// Per-migration feedback controller. Constructed by the engine at the
/// start of every migration; observes each round; decides the stop
/// threshold, the guest throttle and forced stops.
#[derive(Debug, Clone)]
pub(crate) struct PrecopyController {
    auto_converge: bool,
    budget: Option<SimDuration>,
    static_threshold: u64,
    link: Link,
    sharers: u32,
    /// Stop-and-copy costs no page count can shrink: destination
    /// activation, the UISR transfer and per-message latency.
    stop_fixed: SimDuration,
    active: bool,
    dirty_rate: Ewma,
    drain_rate: Ewma,
    /// Observed effective link throughput, bytes/second (wire bytes over
    /// transfer time — includes sharing and latency, so it is what the
    /// stop-and-copy will actually experience).
    throughput: Ewma,
    /// Observed wire bytes per page.
    per_page_wire: Ewma,
    /// Observed wire/raw compression ratio (1.0 = raw).
    compression: Ewma,
    throttle: f64,
    streak: u32,
    force_stop: bool,
}

impl PrecopyController {
    /// Builds the controller for one migration. `stop_fixed` is the
    /// incompressible part of the stop-and-copy (activation + UISR +
    /// latency), subtracted from the budget before converting to pages.
    pub fn new(config: &MigrationConfig, sharers: u32, stop_fixed: SimDuration) -> Self {
        PrecopyController {
            auto_converge: config.auto_converge,
            budget: config.downtime_budget,
            static_threshold: config.stop_threshold_pages,
            link: config.link,
            sharers,
            stop_fixed,
            active: config.downtime_budget.is_some() || config.auto_converge,
            dirty_rate: Ewma::default(),
            drain_rate: Ewma::default(),
            throughput: Ewma::default(),
            per_page_wire: Ewma::default(),
            compression: Ewma::default(),
            throttle: 1.0,
            streak: 0,
            force_stop: false,
        }
    }

    /// True when the controller influences engine decisions (a budget is
    /// set or auto-converge is enabled). Inactive controllers still
    /// observe — the estimators feed telemetry — but never change the
    /// threshold, the throttle or the stop decision.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Current guest dirty-rate multiplier (1.0 = unthrottled; always 1.0
    /// while inactive).
    pub fn throttle(&self) -> f64 {
        if self.active {
            self.throttle
        } else {
            1.0
        }
    }

    /// True when the non-convergence detector decided further rounds are
    /// pointless: go to stop-and-copy now.
    pub(crate) fn force_stop(&self) -> bool {
        self.active && self.force_stop
    }

    /// Folds one finished round into the estimators and runs the
    /// non-convergence detector. `pages` were shipped as `wire_bytes`
    /// taking `transfer` on the link out of `duration` total; the guest
    /// dirtied `dirtied` pages meanwhile.
    pub(crate) fn observe_round(
        &mut self,
        pages: u64,
        wire_bytes: u64,
        transfer: SimDuration,
        duration: SimDuration,
        dirtied: u64,
    ) {
        let secs = duration.as_secs_f64();
        if secs > 0.0 {
            self.dirty_rate.observe(dirtied as f64 / secs);
            self.drain_rate.observe(pages as f64 / secs);
        }
        let t = transfer.as_secs_f64();
        if t > 0.0 && wire_bytes > 0 {
            self.throughput.observe(wire_bytes as f64 / t);
        }
        if pages > 0 {
            self.per_page_wire.observe(wire_bytes as f64 / pages as f64);
            self.compression
                .observe(wire_bytes as f64 / (pages * PAGE_SIZE) as f64);
        }

        // Non-convergence: the guest re-dirtied at least 90% of what the
        // round drained (integer compare keeps this deterministic).
        if pages > 0 && dirtied.saturating_mul(10) >= pages.saturating_mul(9) {
            self.streak += 1;
        } else {
            self.streak = 0;
        }
        if self.active && self.streak >= NONCONVERGENCE_ROUNDS {
            // A budget implies permission to throttle even when
            // auto-converge was not explicitly requested: a steady-state
            // dirty set above the budget threshold can never shrink on
            // its own, so forcing an early stop there would ship an
            // over-budget stop set. Throttling is the only mechanism
            // that makes the budget reachable.
            let may_throttle = self.auto_converge || self.budget.is_some();
            if may_throttle && self.throttle > MIN_THROTTLE {
                self.throttle = (self.throttle * THROTTLE_STEP).max(MIN_THROTTLE);
                self.streak = 0;
            } else {
                // Throttle exhausted (or disabled): every further round
                // re-ships the same steady-state set. Stop now — the
                // residual is no bigger than it will ever be.
                self.force_stop = true;
            }
        }
    }

    /// The stop threshold in force for the next stop check: the static
    /// threshold while inactive or unbudgeted, otherwise the budget
    /// converted to pages at the observed effective throughput and
    /// per-page wire cost ([`PrecopyController::budget_pages`]).
    pub fn stop_threshold(&self) -> u64 {
        match (self.active, self.budget) {
            (true, Some(_)) => self.budget_pages(),
            _ => self.static_threshold,
        }
    }

    /// Converts the downtime budget into a max stop-and-copy page count.
    ///
    /// `budget − stop_fixed` seconds of transfer at the observed
    /// throughput gives the byte allowance; pages follow from the *worse*
    /// of (a) full raw frames — always safe — and (b) the observed
    /// per-page wire cost inflated by `BUDGET_SAFETY` (2×).
    /// Taking the max lets good compression raise the allowance (cheap
    /// pages ⇒ more pages per millisecond) while (a) guarantees the
    /// conversion never goes below what raw frames could deliver.
    pub(crate) fn budget_pages(&self) -> u64 {
        let Some(budget) = self.budget else {
            return self.static_threshold;
        };
        let avail = budget.saturating_sub(self.stop_fixed);
        let bps = self.throughput.get_or(self.default_throughput());
        if bps <= 0.0 {
            return 0;
        }
        let budget_bytes = avail.as_secs_f64() * bps;
        let raw_frame = (WIRE_FRAME_HEADER + PAGE_SIZE) as f64;
        let safe = budget_bytes / raw_frame;
        let per_page = self.per_page_wire.get_or(raw_frame).max(1.0) * BUDGET_SAFETY;
        let refined = budget_bytes / per_page.max(1.0);
        safe.max(refined).floor() as u64
    }

    /// Link-model throughput used before the first observation: effective
    /// shared rate in bytes/second.
    fn default_throughput(&self) -> f64 {
        self.link.gbps * self.link.efficiency * 1e9 / 8.0 / self.sharers.max(1) as f64
    }

    /// Resets every estimator and the non-convergence streak. Called when
    /// a link fault invalidated what the samples were measuring; the
    /// throttle is kept (it reflects state already applied to the guest).
    pub(crate) fn reset_estimators(&mut self) {
        self.dirty_rate.reset();
        self.drain_rate.reset();
        self.throughput.reset();
        self.per_page_wire.reset();
        self.compression.reset();
        self.streak = 0;
    }

    /// Observed dirty rate, pages/second (0.0 before the first round).
    pub fn dirty_rate_est(&self) -> f64 {
        self.dirty_rate.get_or(0.0)
    }

    /// Observed drain rate, pages/second (0.0 before the first round).
    pub fn drain_rate_est(&self) -> f64 {
        self.drain_rate.get_or(0.0)
    }

    /// Observed effective throughput, bytes/second (0.0 before the first
    /// round).
    pub fn throughput_est(&self) -> f64 {
        self.throughput.get_or(0.0)
    }

    /// Observed wire/raw compression ratio (1.0 before the first round).
    pub fn compression_est(&self) -> f64 {
        self.compression.get_or(1.0)
    }
}

/// Shared-NIC contention: workload traffic and the pre-copy stream split
/// one link. The stream gets the *leftover* bandwidth — line rate minus
/// the guests' traffic — but never less than
/// [`LinkContention::min_migration_share`] of the link (TCP fairness: a
/// bulk stream is never starved outright). `workload_bps: 0.0` (the
/// default) reproduces the uncontended link bit-for-bit, so every pinned
/// §5.2 timing test is untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkContention {
    /// Workload traffic sharing the NIC with this migration, bytes/second.
    pub workload_bps: f64,
    /// Floor fraction of the effective link the pre-copy stream always
    /// keeps, however hot the workload runs.
    pub min_migration_share: f64,
}

impl LinkContention {
    /// No workload traffic: the uncontended link, byte-identical.
    pub const NONE: LinkContention = LinkContention {
        workload_bps: 0.0,
        min_migration_share: 0.25,
    };

    /// Contention from `workload_bps` bytes/second of guest traffic.
    pub fn new(workload_bps: f64) -> Self {
        LinkContention {
            workload_bps,
            ..LinkContention::NONE
        }
    }

    /// Fraction of the effective link left to the pre-copy stream
    /// (1.0 when uncontended, floored at `min_migration_share`).
    pub fn share(&self, link: &Link) -> f64 {
        if self.workload_bps <= 0.0 {
            return 1.0;
        }
        let line_bps = link.gbps * link.efficiency * 1e9 / 8.0;
        if line_bps <= 0.0 {
            return 1.0;
        }
        ((line_bps - self.workload_bps) / line_bps)
            .max(self.min_migration_share.clamp(0.01, 1.0))
            .min(1.0)
    }

    /// The link as the migration experiences it: efficiency scaled by the
    /// migration's bandwidth share. Returns the link unchanged when
    /// uncontended (same bits, not just the same value).
    pub fn contended(&self, link: &Link) -> Link {
        let share = self.share(link);
        if share >= 1.0 {
            *link
        } else {
            Link {
                efficiency: link.efficiency * share,
                ..*link
            }
        }
    }
}

impl Default for LinkContention {
    fn default() -> Self {
        LinkContention::NONE
    }
}

/// One VM's deterministic diurnal load as the fleet scheduler sees it: a
/// raised-cosine hump of `period` (a simulated day) peaking at
/// `peak_offset`, scaled between `trough_fraction · peak_qps` and
/// `peak_qps`. `sharpness` raises the hump to a power, narrowing the
/// peak (real diurnal mixes spend most of the day off-peak). Pure
/// arithmetic on the query clock — no RNG, no global state — so every
/// evaluation is deterministic and worker-count invariant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficCurve {
    /// Peak load, queries/second.
    pub peak_qps: f64,
    /// Trough load as a fraction of peak (0 = dead at night, 1 = flat).
    pub trough_fraction: f64,
    /// When in the period the peak occurs.
    pub peak_offset: SimDuration,
    /// Length of the diurnal cycle (24 h for a real day).
    pub period: SimDuration,
    /// Cosine-hump exponent; 1 = plain cosine, larger = narrower peak.
    pub sharpness: u32,
    /// Wire bytes each query puts on the shared NIC (couples QPS to
    /// [`LinkContention::workload_bps`]).
    pub bytes_per_query: f64,
}

impl TrafficCurve {
    /// A 24-hour simulated day.
    pub const DAY: SimDuration = SimDuration::from_secs(86_400);

    /// A flat (traffic-free) curve: utilization 0 everywhere.
    pub const IDLE: TrafficCurve = TrafficCurve {
        peak_qps: 0.0,
        trough_fraction: 0.0,
        peak_offset: SimDuration::ZERO,
        period: TrafficCurve::DAY,
        sharpness: 1,
        bytes_per_query: 0.0,
    };

    /// Utilization (0..=1, fraction of peak) at `t` from the curve's
    /// epoch; wraps modulo the period.
    pub(crate) fn utilization_at(&self, t: SimDuration) -> f64 {
        if self.peak_qps <= 0.0 {
            return 0.0;
        }
        let p = self.period.as_nanos();
        if p == 0 {
            return 1.0;
        }
        let off = self.peak_offset.as_nanos() % p;
        let x = (t.as_nanos() % p + p - off) % p;
        let frac = x as f64 / p as f64;
        let hump = 0.5 + 0.5 * (core::f64::consts::TAU * frac).cos();
        let hump = hump.powi(self.sharpness.max(1) as i32);
        let tf = self.trough_fraction.clamp(0.0, 1.0);
        tf + (1.0 - tf) * hump
    }

    /// Load at `t`, queries/second.
    pub fn qps_at(&self, t: SimDuration) -> f64 {
        self.peak_qps * self.utilization_at(t)
    }

    /// NIC bytes/second the workload puts on the shared link at `t`.
    pub fn bps_at(&self, t: SimDuration) -> f64 {
        self.qps_at(t) * self.bytes_per_query
    }
}

/// Result of pricing one VM's migration window against its SLO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmSloOutcome {
    /// Seconds of the migration during which the VM could not meet its
    /// SLO: pre-copy seconds where offered load exceeded the degraded
    /// capacity, plus the blackout whenever the VM was serving at all.
    pub violation: SimDuration,
    /// `violation` as a fraction of the VM's error budget (>1 = budget
    /// blown by this migration alone).
    pub budget_burn: f64,
    /// Mean utilization over the pre-copy window (scheduling telemetry:
    /// low means the scheduler found a quiet window).
    pub mean_utilization: f64,
}

/// Per-VM SLO attachment of a [`FleetVm`]: the VM's traffic curve plus
/// the two numbers that turn a migration window into harm. Derived from
/// a workload profile by `hypertp-workloads`' `SloSpec`/`TrafficModel`;
/// this crate only consumes the distilled form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloVm {
    /// The VM's diurnal load.
    pub traffic: TrafficCurve,
    /// Fraction of peak capacity still available while a pre-copy stream
    /// degrades the guest (1 − migration degradation, tightened further
    /// by a strict p99 target). Offered load above this violates.
    pub degraded_capacity: f64,
    /// Violation-seconds allowance per day (the SLO's error budget).
    pub error_budget: SimDuration,
}

impl SloVm {
    /// True when migrating at `t` would violate the SLO: the offered
    /// load exceeds what the degraded guest can serve.
    pub(crate) fn violates_at(&self, t: SimDuration) -> bool {
        self.traffic.utilization_at(t) > self.degraded_capacity.clamp(0.0, 1.0)
    }

    /// Prices a migration scheduled at `start` with the given pre-copy
    /// and blackout durations: per-second sampling of the pre-copy
    /// window (deterministic — pure curve arithmetic, fractional tail
    /// weighted), blackout counted in full whenever the VM had traffic.
    pub fn outcome(
        &self,
        start: SimDuration,
        precopy: SimDuration,
        downtime: SimDuration,
    ) -> VmSloOutcome {
        let total = precopy.as_secs_f64();
        let whole = total.floor() as u64;
        let frac = total - whole as f64;
        let mut violated = 0.0f64;
        let mut util_sum = 0.0f64;
        for k in 0..whole {
            let t = start + SimDuration::from_secs(k);
            util_sum += self.traffic.utilization_at(t);
            if self.violates_at(t) {
                violated += 1.0;
            }
        }
        if frac > 0.0 {
            let t = start + SimDuration::from_secs(whole);
            util_sum += self.traffic.utilization_at(t) * frac;
            if self.violates_at(t) {
                violated += frac;
            }
        }
        // Blackout: the VM serves nothing, so any offered load violates.
        if self.traffic.qps_at(start + precopy) > 1e-9 {
            violated += downtime.as_secs_f64();
        }
        let denom = whole as f64 + frac;
        VmSloOutcome {
            violation: SimDuration::from_secs_f64(violated),
            budget_burn: violated / self.error_budget.as_secs_f64().max(1e-9),
            mean_utilization: if denom > 0.0 {
                util_sum / denom
            } else {
                self.traffic.utilization_at(start)
            },
        }
    }
}

/// Admission/ordering policy of a fleet migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FleetOrder {
    /// Input order (the legacy `migrate_many` behaviour).
    #[default]
    Fifo,
    /// Shortest-predicted-downtime-first: VMs whose stop-and-copy is
    /// predicted smallest are admitted (and therefore reach the receiver)
    /// first, which minimises mean downtime behind a sequential receiver
    /// and drains the fleet's exposure window fastest.
    ShortestPredictedFirst,
    /// Least-predicted-harm-first: at every free slot the scheduler
    /// re-prices each waiting VM's migration *at the slot's current
    /// time* — contended pre-copy prediction ([`LinkContention`] from
    /// the VM's own traffic) fed through [`SloVm::outcome`] — and admits
    /// the one whose predicted SLO violation-seconds are smallest
    /// (predicted stop-and-copy, then input index, break ties). VMs in
    /// their low-QPS window cost nothing and drain first; hot-traffic
    /// VMs are pushed back and picked up when the fleet drain reaches
    /// their quiet window. VMs without an [`SloVm`] attachment are
    /// harmless by definition and admit ahead of any violating VM, in
    /// SPDF order. Work-conserving: a slot never idles waiting for a
    /// window, so the makespan stays within a whisker of SPDF.
    SloAware,
}

impl FleetOrder {
    /// Stable short name used in logs and JSON.
    pub fn name(self) -> &'static str {
        match self {
            FleetOrder::Fifo => "fifo",
            FleetOrder::ShortestPredictedFirst => "spdf",
            FleetOrder::SloAware => "slo",
        }
    }

    /// Drains `items` through `slots` identical slots ([`Slots`]) under
    /// this order, and returns each item's `(k, start, end)` in end order,
    /// admission order breaking ties. `k` is the item's position in
    /// `items`.
    ///
    /// * `price(k, None)` is the item's uncontended `(harm, length)`;
    ///   `price(k, Some(now))` the same priced for a start at `now`.
    /// * `run(k, start)` starts the item and returns how long its stream
    ///   keeps the slot. Items run one at a time, in admission order; the
    ///   first error stops the drain.
    ///
    /// FIFO admits in `items` order. SPDF admits by uncontended price.
    /// SLO-aware re-prices every waiting item at each slot's free instant
    /// and admits the cheapest. Equal prices fall to the item value
    /// `items[k]`, not its position, so a reordered queue drains alike.
    /// Panics if `slots` is 0 and `items` is not empty.
    pub fn drain<E>(
        self,
        items: &[usize],
        slots: usize,
        mut price: impl FnMut(usize, Option<SimDuration>) -> (SimDuration, SimDuration),
        mut run: impl FnMut(usize, SimDuration) -> Result<SimDuration, E>,
    ) -> Result<Vec<(usize, SimDuration, SimDuration)>, E> {
        let mut waiting: VecDeque<usize> = (0..items.len()).collect();
        if self == FleetOrder::ShortestPredictedFirst {
            waiting
                .make_contiguous()
                .sort_by_key(|&k| (price(k, None), items[k]));
        }
        let mut calendar = Slots::new(slots);
        let mut schedule = Vec::with_capacity(items.len());
        while !waiting.is_empty() {
            let now = calendar.next_free();
            let next = if self == FleetOrder::SloAware {
                (0..waiting.len())
                    .min_by_key(|&j| (price(waiting[j], Some(now)), items[waiting[j]]))
                    .expect("waiting is non-empty")
            } else {
                0
            };
            let k = waiting.remove(next).expect("next is in range");
            let busy = run(k, now)?;
            calendar.take(busy);
            schedule.push((k, now, now + busy));
        }
        schedule.sort_by_key(|&(_, _, end)| end);
        Ok(schedule)
    }
}

/// How `migrate_fleet` runs a fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetPolicy {
    /// Admission order.
    pub order: FleetOrder,
    /// Max concurrent pre-copy streams sharing the link (0 = all at once,
    /// the legacy behaviour). Bounding concurrency shortens rounds, which
    /// shrinks per-round dirtying — the fleet-level convergence win.
    pub max_concurrent: usize,
    /// Wire/raw byte ratio assumed by the scheduler's predictions (1.0
    /// for [`WireMode::Raw`]; feed an observed
    /// [`crate::WireStats::compression_ratio`] for content-aware fleets).
    pub compression_hint: f64,
}

impl Default for FleetPolicy {
    /// The legacy `migrate_many` behaviour: FIFO, unbounded concurrency.
    fn default() -> Self {
        FleetPolicy {
            order: FleetOrder::Fifo,
            max_concurrent: 0,
            compression_hint: 1.0,
        }
    }
}

/// One fleet member: the VM plus an optional per-VM dirty-rate override
/// (pages/second) for heterogeneous fleets (`None` uses the engine
/// config's global rate) and an optional SLO attachment. A VM with an
/// [`SloVm`] contends its own traffic against its pre-copy stream on the
/// shared NIC and has its violation-seconds accounted in the fleet
/// report, under *every* order — the physics applies whether or not the
/// scheduler looks at it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetVm {
    /// The VM to migrate.
    pub id: VmId,
    /// Per-VM dirty rate override.
    pub dirty_rate: Option<f64>,
    /// Traffic curve + SLO of the VM (`None` = no traffic, no
    /// contention, no accounting — the legacy behaviour).
    pub slo: Option<SloVm>,
}

impl FleetVm {
    /// A fleet member using the engine config's dirty rate.
    pub fn new(id: VmId) -> Self {
        FleetVm {
            id,
            dirty_rate: None,
            slo: None,
        }
    }

    /// A fleet member with its own dirty rate.
    pub fn with_dirty_rate(id: VmId, rate: f64) -> Self {
        FleetVm {
            id,
            dirty_rate: Some(rate),
            slo: None,
        }
    }

    /// Builder-style: attach a traffic curve + SLO.
    pub fn with_slo(mut self, slo: SloVm) -> Self {
        self.slo = Some(slo);
        self
    }
}

/// Inputs of the analytic pre-copy round model.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PredictInput<'a> {
    /// Guest pages of the VM.
    pub pages: u64,
    /// Guest dirty rate, pages/second.
    pub dirty_rate: f64,
    /// The migration configuration (link, rounds, threshold, wire mode).
    pub config: &'a MigrationConfig,
    /// Concurrent streams sharing the link.
    pub sharers: u32,
    /// Source machine performance (per-page CPU cost scaling).
    pub perf: MachinePerf,
    /// CPU cost per page, GHz-seconds
    /// ([`hypertp_sim::CostModel::migrate_ghz_s_per_page`]).
    pub ghz_s_per_page: f64,
    /// Per-round protocol overhead, seconds
    /// ([`hypertp_sim::CostModel::migrate_round_overhead_s`]).
    pub round_overhead_s: f64,
    /// Wire/raw ratio assumed for page bytes (1.0 = raw).
    pub compression_hint: f64,
    /// Fixed stop-and-copy cost (activation + UISR + latency).
    pub stop_fixed: SimDuration,
    /// Workload traffic contending for the link
    /// ([`LinkContention::NONE`] reproduces the uncontended model
    /// bit-for-bit).
    pub contention: LinkContention,
}

/// Output of `predict_migration`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationPrediction {
    /// Predicted pre-copy rounds.
    pub rounds: u32,
    /// Predicted pre-copy duration.
    pub precopy: SimDuration,
    /// Predicted stop-and-copy duration (= predicted solo downtime).
    pub stop_copy: SimDuration,
    /// Predicted residual page count at pause.
    pub stop_pages: u64,
}

/// The pre-copy cost model in simulated time — what a round and the
/// stop-and-copy cost. The engine charges it and [`predict_migration`]
/// replays it, so the two cannot drift.
pub(crate) struct RoundModel {
    /// The link as this migration sees it (contended or not).
    pub(crate) link: Link,
    /// Concurrent streams sharing the link.
    pub(crate) sharers: u32,
    /// Source machine performance (per-page CPU cost scaling).
    pub(crate) perf: MachinePerf,
    /// CPU cost per page, GHz-seconds.
    pub(crate) ghz_s_per_page: f64,
    /// Per-round protocol overhead, seconds.
    pub(crate) round_overhead_s: f64,
}

impl RoundModel {
    /// Link time of `bytes` on this migration's share of the link.
    pub(crate) fn transfer(&self, bytes: u64) -> SimDuration {
        self.link.transfer(bytes, self.sharers)
    }

    /// One round shipping `pages` pages as `wire_bytes`: its nominal link
    /// time, and its full duration (link + per-page CPU + round overhead).
    pub(crate) fn round(&self, wire_bytes: u64, pages: u64) -> (SimDuration, SimDuration) {
        let transfer = self.transfer(wire_bytes);
        let duration = transfer
            + self.perf.cpu(self.ghz_s_per_page * pages as f64)
            + SimDuration::from_secs_f64(self.round_overhead_s);
        (transfer, duration)
    }

    /// The stop-and-copy: the residual set's `wire_bytes` on the link plus
    /// the `fixed` part no page count shrinks (UISR transfer, activation).
    pub(crate) fn stop_copy(&self, wire_bytes: u64, fixed: SimDuration) -> SimDuration {
        self.transfer(wire_bytes) + fixed
    }
}

/// Dirtying draws of a guest writing `rate` pages/second for `duration`
/// (`rate × duration`), capped at the `pages` it has. Draws are not
/// distinct pages: two draws can hit the same page, so the engine
/// re-sends at most this many (see [`predict_migration`] on what the
/// difference costs the prediction).
pub(crate) fn dirtied_pages(rate: f64, duration: SimDuration, pages: u64) -> u64 {
    ((rate * duration.as_secs_f64()) as u64).min(pages)
}

/// Analytic pre-copy round model: replays the engine's round loop on
/// paper (`RoundModel`, `dirtied_pages`, static threshold) without
/// touching guest memory. It counts dirtying draws, while the engine
/// re-sends the distinct pages they hit, so under [`WireMode::Raw`] with
/// no controller it is exact for an idle guest and otherwise never under
/// the engine: within 1 % at up to 3 000 pages/s on 1–2 GiB guests, up
/// to 90 % over for guests that redirty most of their memory each round.
/// Under [`WireMode::ContentAware`] page bytes scale by
/// `compression_hint`. Used for scheduler ordering and predicted-vs-
/// actual telemetry — a cheap model, not a promise.
pub(crate) fn predict_migration(input: &PredictInput<'_>) -> MigrationPrediction {
    let cfg = input.config;
    let model = RoundModel {
        link: input.contention.contended(&cfg.link),
        sharers: input.sharers,
        perf: input.perf,
        ghz_s_per_page: input.ghz_s_per_page,
        round_overhead_s: input.round_overhead_s,
    };
    let page_bytes = |pages: u64| -> u64 {
        match cfg.wire_mode {
            WireMode::Raw => pages * PAGE_SIZE,
            WireMode::ContentAware => {
                let per_page =
                    (WIRE_FRAME_HEADER + PAGE_SIZE) as f64 * input.compression_hint.clamp(0.0, 1.0);
                (pages as f64 * per_page) as u64
            }
        }
    };
    let mut to_send = input.pages;
    let mut precopy = SimDuration::ZERO;
    let mut rounds = 0u32;
    let stop_pages = loop {
        let (_, duration) = model.round(page_bytes(to_send), to_send);
        precopy += duration;
        rounds += 1;
        let dirtied = dirtied_pages(input.dirty_rate, duration, input.pages);
        if dirtied <= cfg.stop_threshold_pages || rounds >= cfg.max_rounds {
            break dirtied;
        }
        to_send = dirtied;
    };
    let stop_copy = model.stop_copy(page_bytes(stop_pages), input.stop_fixed);
    MigrationPrediction {
        rounds,
        precopy,
        stop_copy,
        stop_pages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertp_sim::SimRng;

    fn perf() -> MachinePerf {
        MachinePerf {
            freq_ghz: 2.5,
            threads: 8,
            reserved_threads: 2,
            host_ram_gb: 16.0,
            nic_gbps: 1.0,
            nic_init: SimDuration::from_secs_f64(6.6),
        }
    }

    #[test]
    fn default_controller_is_inactive_and_static() {
        let cfg = MigrationConfig::default();
        let mut c = PrecopyController::new(&cfg, 1, SimDuration::from_millis(5));
        assert!(!c.active());
        assert_eq!(c.throttle(), 1.0);
        assert_eq!(c.stop_threshold(), cfg.stop_threshold_pages);
        // Even hammered with non-convergent rounds: no throttle, no stop.
        for _ in 0..10 {
            c.observe_round(
                1000,
                1000 * 4096,
                SimDuration::from_millis(30),
                SimDuration::from_millis(80),
                1000,
            );
        }
        assert_eq!(c.throttle(), 1.0);
        assert!(!c.force_stop());
        assert_eq!(c.stop_threshold(), 64);
        // But telemetry still observes.
        assert!(c.dirty_rate_est() > 0.0);
        assert!(c.throughput_est() > 0.0);
    }

    #[test]
    fn auto_converge_throttles_then_forces_stop() {
        let cfg = MigrationConfig {
            auto_converge: true,
            ..MigrationConfig::default()
        };
        let mut c = PrecopyController::new(&cfg, 1, SimDuration::ZERO);
        assert!(c.active());
        let hammer = |c: &mut PrecopyController| {
            c.observe_round(
                1000,
                1000 * 4096,
                SimDuration::from_millis(30),
                SimDuration::from_millis(80),
                1000,
            )
        };
        hammer(&mut c);
        assert_eq!(c.throttle(), 1.0, "one round is not a streak");
        hammer(&mut c);
        assert_eq!(c.throttle(), 0.25, "K=2 rounds trigger the first step");
        // Keep hammering: throttle walks down to the floor, then the
        // detector gives up and forces a stop.
        for _ in 0..20 {
            hammer(&mut c);
        }
        assert_eq!(c.throttle(), MIN_THROTTLE);
        assert!(c.force_stop());
    }

    #[test]
    fn convergent_rounds_reset_the_streak() {
        let cfg = MigrationConfig {
            auto_converge: true,
            ..MigrationConfig::default()
        };
        let mut c = PrecopyController::new(&cfg, 1, SimDuration::ZERO);
        c.observe_round(
            1000,
            4_096_000,
            SimDuration::from_millis(30),
            SimDuration::from_millis(80),
            1000,
        );
        // 50% re-dirtying is convergent: streak resets.
        c.observe_round(
            1000,
            4_096_000,
            SimDuration::from_millis(30),
            SimDuration::from_millis(80),
            500,
        );
        c.observe_round(
            1000,
            4_096_000,
            SimDuration::from_millis(30),
            SimDuration::from_millis(80),
            1000,
        );
        assert_eq!(c.throttle(), 1.0, "streak never reached K");
    }

    #[test]
    fn budget_converts_to_pages_via_observed_throughput() {
        let cfg = MigrationConfig {
            downtime_budget: Some(SimDuration::from_millis(10)),
            ..MigrationConfig::default()
        };
        let fixed = SimDuration::from_millis(5);
        let mut c = PrecopyController::new(&cfg, 1, fixed);
        assert!(c.active());
        // Before any observation: link-model throughput, raw frames.
        // 5 ms at ~116 MB/s ≈ 581 KB ≈ 141 raw frames.
        let cold = c.budget_pages();
        assert!((100..200).contains(&cold), "cold budget pages = {cold}");
        // Observe rounds shipping ~32 B/page (dedup-heavy): the refined
        // conversion allows far more pages for the same 5 ms.
        for _ in 0..4 {
            c.observe_round(
                10_000,
                320_000,
                SimDuration::from_millis(3),
                SimDuration::from_millis(55),
                0,
            );
        }
        let warm = c.budget_pages();
        assert!(warm > 4 * cold, "compression raises the allowance: {warm}");
        // Safety factor 2 halves what pure per-page maths would allow.
        // budget_bytes ≈ 0.005 s × (320000/0.003) B/s ≈ 533 KB;
        // per-page = 32 × 2 = 64 B ⇒ ≈ 8.3 k pages.
        assert!(warm < 20_000, "safety factor caps the allowance: {warm}");
        assert_eq!(c.stop_threshold(), warm);
    }

    #[test]
    fn budget_below_fixed_floor_demands_empty_stop_set() {
        let cfg = MigrationConfig {
            downtime_budget: Some(SimDuration::from_millis(2)),
            ..MigrationConfig::default()
        };
        let c = PrecopyController::new(&cfg, 1, SimDuration::from_millis(5));
        assert_eq!(c.budget_pages(), 0, "nothing fits under the floor");
    }

    #[test]
    fn reset_estimators_clears_observations_keeps_throttle() {
        let cfg = MigrationConfig {
            auto_converge: true,
            ..MigrationConfig::default()
        };
        let mut c = PrecopyController::new(&cfg, 1, SimDuration::ZERO);
        for _ in 0..4 {
            c.observe_round(
                1000,
                1000 * 4096,
                SimDuration::from_millis(30),
                SimDuration::from_millis(80),
                1000,
            );
        }
        let throttled = c.throttle();
        assert!(throttled < 1.0);
        c.reset_estimators();
        assert_eq!(c.dirty_rate_est(), 0.0);
        assert_eq!(c.throughput_est(), 0.0);
        assert_eq!(c.compression_est(), 1.0);
        assert_eq!(c.throttle(), throttled, "guest throttle survives");
    }

    #[test]
    fn prediction_converges_for_idle_and_caps_for_hot() {
        let cfg = MigrationConfig::default();
        let mk = |rate: f64| PredictInput {
            pages: 262_144,
            dirty_rate: rate,
            config: &cfg,
            sharers: 1,
            perf: perf(),
            ghz_s_per_page: 1.0e-6,
            round_overhead_s: 0.05,
            compression_hint: 1.0,
            stop_fixed: SimDuration::from_millis(5),
            contention: LinkContention::NONE,
        };
        let idle = predict_migration(&mk(1.0));
        assert_eq!(idle.rounds, 1, "idle VM stops after the full copy");
        assert!(idle.stop_pages <= cfg.stop_threshold_pages);
        assert!((9.0..11.0).contains(&idle.precopy.as_secs_f64()));

        let hot = predict_migration(&mk(1e7));
        assert_eq!(hot.rounds, cfg.max_rounds, "non-convergent hits the cap");
        assert!(hot.stop_pages > 100_000);
        assert!(hot.stop_copy > idle.stop_copy);

        // Rate 1000 pages/s: steady-state dirty set ≈ 52 pages < the
        // 64-page threshold, so the prediction converges in a few rounds.
        let busy = predict_migration(&mk(1000.0));
        assert!(
            busy.rounds > 1 && busy.rounds < cfg.max_rounds,
            "busy rounds = {}",
            busy.rounds
        );
    }

    #[test]
    fn prediction_orders_by_size_and_rate() {
        let cfg = MigrationConfig::default();
        let mk = |pages: u64, rate: f64| {
            predict_migration(&PredictInput {
                pages,
                dirty_rate: rate,
                config: &cfg,
                sharers: 2,
                perf: perf(),
                ghz_s_per_page: 1.0e-6,
                round_overhead_s: 0.05,
                compression_hint: 1.0,
                stop_fixed: SimDuration::from_millis(5),
                contention: LinkContention::NONE,
            })
        };
        let small = mk(65_536, 1.0);
        let large = mk(262_144, 1.0);
        assert!(small.precopy < large.precopy);
        let idle = mk(262_144, 1.0);
        let hot = mk(262_144, 1e6);
        assert!(idle.stop_copy < hot.stop_copy);
    }

    #[test]
    fn fleet_policy_defaults_are_legacy() {
        let p = FleetPolicy::default();
        assert_eq!(p.order, FleetOrder::Fifo);
        assert_eq!(p.max_concurrent, 0);
        assert_eq!(p.compression_hint, 1.0);
        assert_eq!(FleetOrder::Fifo.name(), "fifo");
        assert_eq!(FleetOrder::ShortestPredictedFirst.name(), "spdf");
        assert_eq!(FleetOrder::SloAware.name(), "slo");
    }

    #[test]
    fn uncontended_link_is_bit_identical() {
        let link = Link::gigabit();
        let c = LinkContention::NONE;
        let out = c.contended(&link);
        assert_eq!(out.gbps.to_bits(), link.gbps.to_bits());
        assert_eq!(out.efficiency.to_bits(), link.efficiency.to_bits());
        assert_eq!(out.latency, link.latency);
        assert_eq!(c.share(&link), 1.0);
        // Negative traffic is treated as none.
        let neg = LinkContention::new(-5.0).contended(&link);
        assert_eq!(neg.efficiency.to_bits(), link.efficiency.to_bits());
    }

    #[test]
    fn contention_scales_and_floors_the_link() {
        let link = Link::gigabit(); // 0.93 × 1 Gbps ≈ 116 MB/s effective
        let line = link.gbps * link.efficiency * 1e9 / 8.0;
        // Half the line busy: the stream keeps the other half.
        let half = LinkContention::new(line / 2.0);
        assert!((half.share(&link) - 0.5).abs() < 1e-12);
        let t_idle = link.transfer(1 << 30, 1);
        let t_half = half.contended(&link).transfer(1 << 30, 1);
        let ratio = t_half.as_secs_f64() / t_idle.as_secs_f64();
        assert!((1.9..2.1).contains(&ratio), "ratio = {ratio}");
        // Saturated workload: the fairness floor keeps 25%.
        let hog = LinkContention::new(line * 10.0);
        assert_eq!(hog.share(&link), 0.25);
    }

    #[test]
    fn contended_prediction_is_slower_and_monotone() {
        let cfg = MigrationConfig::default();
        let mk = |bps: f64| {
            predict_migration(&PredictInput {
                pages: 262_144,
                dirty_rate: 1.0,
                config: &cfg,
                sharers: 1,
                perf: perf(),
                ghz_s_per_page: 1.0e-6,
                round_overhead_s: 0.05,
                compression_hint: 1.0,
                stop_fixed: SimDuration::from_millis(5),
                contention: LinkContention::new(bps),
            })
        };
        let idle = mk(0.0);
        let busy = mk(50e6);
        let hot = mk(100e6);
        assert!(idle.precopy < busy.precopy);
        assert!(busy.precopy < hot.precopy);
    }

    #[test]
    fn traffic_curve_peaks_and_troughs_where_told() {
        let c = TrafficCurve {
            peak_qps: 1000.0,
            trough_fraction: 0.1,
            peak_offset: SimDuration::from_secs(6 * 3600),
            period: TrafficCurve::DAY,
            sharpness: 1,
            bytes_per_query: 100.0,
        };
        let at = |h: u64| c.utilization_at(SimDuration::from_secs(h * 3600));
        assert!((at(6) - 1.0).abs() < 1e-9, "peak at its offset");
        assert!((at(18) - 0.1).abs() < 1e-9, "trough half a day later");
        assert!((c.qps_at(SimDuration::from_secs(6 * 3600)) - 1000.0).abs() < 1e-9);
        assert!((c.bps_at(SimDuration::from_secs(6 * 3600)) - 100_000.0).abs() < 1e-6);
        // Wraps modulo the period.
        assert!((at(6 + 24) - 1.0).abs() < 1e-9);
        // Sharpening narrows the peak but keeps its height.
        let sharp = TrafficCurve { sharpness: 3, ..c };
        assert!((sharp.utilization_at(SimDuration::from_secs(6 * 3600)) - 1.0).abs() < 1e-9);
        assert!(
            sharp.utilization_at(SimDuration::from_secs(9 * 3600))
                < c.utilization_at(SimDuration::from_secs(9 * 3600))
        );
        assert_eq!(TrafficCurve::IDLE.utilization_at(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn slo_outcome_prices_hot_windows_not_quiet_ones() {
        let slo = SloVm {
            traffic: TrafficCurve {
                peak_qps: 1000.0,
                trough_fraction: 0.05,
                peak_offset: SimDuration::ZERO,
                period: TrafficCurve::DAY,
                sharpness: 1,
                bytes_per_query: 100.0,
            },
            degraded_capacity: 0.6,
            error_budget: SimDuration::from_secs(120),
        };
        let precopy = SimDuration::from_secs(100);
        let dt = SimDuration::from_millis(500);
        // At the peak the whole pre-copy violates, plus the blackout.
        let hot = slo.outcome(SimDuration::ZERO, precopy, dt);
        assert!((hot.violation.as_secs_f64() - 100.5).abs() < 1e-6);
        assert!((hot.budget_burn - 100.5 / 120.0).abs() < 1e-6);
        assert!(hot.mean_utilization > 0.99);
        // In the trough nothing violates but the blackout (traffic > 0).
        let quiet = slo.outcome(SimDuration::from_secs(12 * 3600), precopy, dt);
        assert!((quiet.violation.as_secs_f64() - 0.5).abs() < 1e-6);
        assert!(quiet.mean_utilization < 0.1);
        // Zero-length pre-copy still reports a defined utilization.
        let point = slo.outcome(SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO);
        assert!((point.mean_utilization - 1.0).abs() < 1e-9);
        assert_eq!(point.violation, SimDuration::ZERO);
    }

    /// The fleet scheduler's admission loop before [`FleetOrder::drain`]:
    /// the SPDF pre-sort, SLO-aware re-pricing at the earliest free slot,
    /// a `slot_free` vector with an argmin, and the receive side's stable
    /// sort into pre-copy end order. The reference the drain must match.
    fn oracle_drain(
        order: FleetOrder,
        items: &[usize],
        slots: usize,
        price: impl Fn(usize, Option<SimDuration>) -> (SimDuration, SimDuration),
        run: impl Fn(usize, SimDuration) -> SimDuration,
    ) -> Vec<(usize, SimDuration, SimDuration)> {
        let mut waiting: Vec<usize> = (0..items.len()).collect();
        if order == FleetOrder::ShortestPredictedFirst {
            waiting.sort_by_key(|&k| (price(k, None).1, items[k]));
        }
        let mut admitted = Vec::new();
        let mut slot_free = vec![SimDuration::ZERO; slots];
        while !waiting.is_empty() {
            let next = if order == FleetOrder::SloAware {
                let now = slot_free.iter().copied().min().expect("slots >= 1");
                let (_, j) = waiting
                    .iter()
                    .enumerate()
                    .map(|(j, &k)| {
                        let (harm, length) = price(k, Some(now));
                        ((harm, length, items[k]), j)
                    })
                    .min_by_key(|&(key, _)| key)
                    .expect("waiting is non-empty");
                j
            } else {
                0
            };
            let k = waiting.remove(next);
            let slot = (0..slots)
                .min_by_key(|&s| (slot_free[s], s))
                .expect("slots >= 1");
            let start = slot_free[slot];
            slot_free[slot] = start + run(k, start);
            admitted.push((k, start, slot_free[slot]));
        }
        admitted.sort_by_key(|&(_, _, end)| end);
        admitted
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

    /// A pure draw from `0..bound`, keyed on `(salt, k, t)`: the drain and
    /// the oracle call `price` and `run` different numbers of times, so
    /// neither may consume a generator.
    fn draw(salt: u64, k: usize, t: SimDuration, bound: u64) -> u64 {
        let mut rng = SimRng::new(salt ^ (k as u64).rotate_left(32) ^ t.as_nanos());
        rng.next_u64();
        rng.gen_range(bound)
    }

    #[test]
    fn drain_matches_the_slot_loop_oracle_on_seeded_inputs() {
        let seed = env_seed().unwrap_or(0xd7a1_0050);
        let mut rng = SimRng::new(seed);
        let secs = SimDuration::from_secs;
        let mut cases = 0;
        for case in 0..600 {
            let n = rng.gen_range(13) as usize;
            let slots = 1 + rng.gen_range(4) as usize;
            // Distinct item values in shuffled order, so a tie broken by
            // position and one broken by item value disagree.
            let mut items: Vec<usize> = (0..n).map(|i| 3 * i + 1).collect();
            for i in (1..n).rev() {
                items.swap(i, rng.gen_range(i as u64 + 1) as usize);
            }
            let salt = rng.next_u64();
            // Small value sets, so prices and slot instants tie often. The
            // uncontended price carries no harm, as both callers' does.
            let price = |k: usize, now: Option<SimDuration>| match now {
                None => (
                    SimDuration::ZERO,
                    secs(1 + draw(salt, k, SimDuration::ZERO, 3)),
                ),
                Some(t) => (
                    secs(draw(salt, k, t, 4) / 2),
                    secs(1 + draw(!salt, k, t, 3)),
                ),
            };
            let run = |k: usize, t: SimDuration| secs(1 + draw(salt.rotate_left(7), k, t, 3));
            for order in [
                FleetOrder::Fifo,
                FleetOrder::ShortestPredictedFirst,
                FleetOrder::SloAware,
            ] {
                let Ok(drained) = order.drain(&items, slots, price, |k, t| {
                    Ok::<_, std::convert::Infallible>(run(k, t))
                });
                let oracle = oracle_drain(order, &items, slots, price, run);
                assert_eq!(
                    drained, oracle,
                    "case {case} ({order:?}, n={n}, slots={slots}, items={items:?}): \
                     replay with HYPERTP_SEED={seed:#x}"
                );
                cases += 1;
            }
        }
        assert_eq!(cases, 1800);
    }

    #[test]
    fn drain_stops_at_the_first_error() {
        let mut ran = Vec::new();
        let r = FleetOrder::Fifo.drain(
            &[5, 6, 7, 8],
            2,
            |_, _| (SimDuration::ZERO, SimDuration::from_secs(1)),
            |k, _| {
                ran.push(k);
                if k == 2 {
                    Err("refused")
                } else {
                    Ok(SimDuration::from_secs(1))
                }
            },
        );
        assert_eq!(r, Err("refused"));
        assert_eq!(ran, [0, 1, 2], "nothing runs past the failed item");
    }
}
