//! The plan executor: timing the cluster upgrade (Fig. 13).
//!
//! Execution policy follows the paper's testbed behaviour: migrations are
//! serialized (operators cap concurrent migrations to protect the 10 Gbps
//! fabric), and once a group's hosts are evacuated their in-place upgrades
//! run in parallel. Per-migration time is the sum of the per-operation
//! orchestration overhead, the pre-copy transfer (with the workload's
//! dirty-rate extension) and the stop-and-copy. Per-upgrade time comes
//! from [`InPlacePricer`], the pricing the single-machine InPlaceTP
//! engine charges.
//!
//! # Sharded execution
//!
//! Every group's simulation is *relative*: migration and upgrade times
//! depend only on the group's own actions, never on the global clock. So
//! a plan's groups are pure, independent simulations (`run_group`
//! internally) whose outcomes fold in group order into the same report
//! the sequential walk produces — bit for bit. [`execute_sharded_with`]
//! exploits that: contiguous group ranges run as deterministic shards on
//! a [`WorkerPool`], and each shard memoizes cost-model evaluations per
//! VM class (fleets with a uniform host spec repeat a handful of
//! distinct evaluations thousands of times), so the sharded path wins
//! wall-clock even on a single core. With faults armed, execution drops
//! to the sequential walk — [`hypertp_sim::fault::FaultPlan`] consultation
//! order is part of the deterministic replay contract — and is again
//! byte-identical to the unsharded path.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use hypertp_core::{
    crash_gate, host_failure_gate, CheckpointConfig, HostGate, HypervisorKind, InPlacePricer,
    Optimizations,
};
use hypertp_migrate::{FleetOrder, Link, LinkContention, SloVm, TrafficCurve};
use hypertp_sim::cost::{MachinePerf, VmShape};
use hypertp_sim::fault::{FaultPlan, InjectionPoint, RecoveryAction};
use hypertp_sim::pool::WorkerPool;
use hypertp_sim::stats::{Histogram, Streaming};
use hypertp_sim::{CostModel, EventQueue, SimDuration, SimTime};

use crate::model::{ClusterView, VmView};
use crate::planner::{Action, Plan};

/// Per-migration orchestration overhead (scheduling, pre/post hooks —
/// dominated by the cloud manager, not the data path).
const PER_MIGRATION_OVERHEAD: SimDuration = SimDuration::from_millis(3500);

/// Retries granted to a host whose upgrade faults before it is dropped:
/// the default of [`ExecConfig::max_host_retries`] and the campaign's
/// fixed budget, one value so the two cannot drift apart.
pub(crate) const MAX_HOST_RETRIES: u32 = 2;

/// Timing knobs for plan execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecConfig {
    /// The cluster fabric.
    pub link: Link,
    /// Target hypervisor of the upgrade.
    pub target: HypervisorKind,
    /// Maximum concurrent migrations the operator allows on the fabric
    /// (the paper's testbed effectively serializes: 1). Concurrent
    /// migrations also share link bandwidth.
    pub max_concurrent_migrations: usize,
    /// Retries granted to a host whose in-place upgrade faults before it
    /// is dropped from the plan (see [`execute_sharded_with`]).
    pub max_host_retries: u32,
    /// Wire/raw byte ratio of the campaign's migrations. The executor is
    /// an analytic model, so it scales page bytes by this ratio instead
    /// of running the page-level path: a content-aware wire's observed
    /// ratio (e.g. [`hypertp_migrate::WireStats::compression_ratio`] from
    /// a reference migration, or BENCH_wire.json). 1.0 (the default) is
    /// the raw wire and the paper-faithful fig. 13 byte accounting.
    pub wire_compression_ratio: f64,
    /// Admission order of each group's migration queue.
    /// [`FleetOrder::Fifo`] (the default) keeps the planner's order;
    /// [`FleetOrder::ShortestPredictedFirst`] admits the migrations the
    /// analytic model predicts fastest first, which minimises the mean
    /// VM-ready time ([`ExecReport::mean_vm_ready`]) — each VM's exposure
    /// window — without changing the group's drain time on a serialized
    /// fabric.
    pub fleet_order: FleetOrder,
    /// Fraction of guest pages still dirty at each in-place upgrade's
    /// final pause (e.g. a reference
    /// [`hypertp_core::InPlaceReport::dirty_fraction`], or the hot-guest
    /// figure from BENCH_inplace.json). Below 1.0 the upgrades run the
    /// incremental pre-pause translation
    /// ([`hypertp_core::Optimizations::incremental_translate`]): the warm
    /// UISR snapshot happens while the group's migrations drain (below
    /// the time axis), so the blackout charged to each host shrinks to
    /// the dirty-delta re-translation at this fraction. 1.0 (the default)
    /// is the paper-faithful pause-time translation of fig. 13.
    pub inplace_dirty_fraction: f64,
    /// Opt-in SLO accounting over the campaign's migrations. `None`
    /// (the default) keeps every report byte-identical to the
    /// SLO-unaware executor. `Some` derives each serving VM's diurnal
    /// traffic curve (a pure function of the configured seed and the VM
    /// index — see [`hypertp_workloads::derive_curve`]), stretches
    /// migration estimates by the workload's share of the fabric at
    /// admission time, and accounts per-VM violation-seconds and
    /// error-budget burn in [`ExecReport`]. Group times stay relative
    /// to the group's start, so sharded execution remains
    /// byte-identical for every shard/worker count.
    pub slo: Option<SloExecConfig>,
    /// Opt-in vulnerability-window accounting. `None` (the default)
    /// keeps every report byte-identical to the exposure-unaware
    /// executor. `Some` treats the campaign as the remediation of one
    /// disclosure: every VM's exposure — criticality × time until its
    /// group finished, capped at the patch window — accrues through the
    /// workspace's single [`crate::exposure::ExposureIntegrator`] into
    /// [`ExecReport::exposure_vm_secs`] and a bounded per-group time
    /// series ([`ExecReport::exposure`],
    /// [`ExecReport::exposure_hist`]).
    pub exposure: Option<ExposureExecConfig>,
}

/// Parameters of the executor's opt-in exposure accounting: the
/// disclosure the campaign remediates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExposureExecConfig {
    /// Surface-calibrated criticality of the disclosure (weighted CVSS /
    /// 10, see [`hypertp_vulndb::SurfaceWeights::criticality`]).
    pub criticality: f64,
    /// Patch window: exposure stops accruing after this long whether or
    /// not the fleet remediated.
    pub window: SimDuration,
}

impl Default for ExposureExecConfig {
    fn default() -> Self {
        ExposureExecConfig {
            criticality: 1.0,
            window: SimDuration::from_secs(30 * 24 * 3600),
        }
    }
}

/// Parameters of the executor's opt-in SLO accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloExecConfig {
    /// Seed of the per-VM diurnal curve derivation.
    pub seed: u64,
    /// Per-VM violation-seconds allowance over the campaign.
    pub error_budget: SimDuration,
}

impl Default for SloExecConfig {
    fn default() -> Self {
        SloExecConfig {
            seed: 0x510_ca3e,
            error_budget: SimDuration::from_secs(216),
        }
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            link: Link::ten_gigabit(),
            target: HypervisorKind::Kvm,
            max_concurrent_migrations: 1,
            max_host_retries: MAX_HOST_RETRIES,
            wire_compression_ratio: 1.0,
            fleet_order: FleetOrder::Fifo,
            inplace_dirty_fraction: 1.0,
            slo: None,
            exposure: None,
        }
    }
}

/// Bucketing of the per-VM ready-offset histogram carried by
/// [`ExecReport::vm_ready_hist`]: 36 × 50 s bins over `[0, 1800 s)` —
/// wide enough for the paper testbed's worst group drains, with the
/// overflow counter absorbing pathological fleets.
pub const READY_HIST_BUCKETS: usize = 36;
const READY_HIST_LO: f64 = 0.0;
const READY_HIST_HI: f64 = 1800.0;

/// Result of executing a plan. All telemetry is bounded-memory: per-VM
/// and per-group samples stream through [`Streaming`] aggregates and a
/// fixed-bucket [`Histogram`] instead of materializing vectors, so the
/// report costs the same at 10 hosts and 10k hosts.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// Number of migrations performed.
    pub migrations: usize,
    /// Number of in-place host upgrades.
    pub inplace_upgrades: usize,
    /// Total wall-clock reconfiguration time.
    pub total: SimDuration,
    /// Time spent in the migration phase(s).
    pub migration_time: SimDuration,
    /// Time spent in in-place upgrades (parallel within a group).
    pub inplace_time: SimDuration,
    /// In-place upgrade attempts that faulted and were retried.
    pub host_retries: usize,
    /// Hosts dropped from the plan after exhausting their retry budget.
    pub hosts_excluded: usize,
    /// Hosts whose hypervisor crashed in their upgrade slot and reached
    /// the target via unplanned warm-checkpoint recovery instead (still
    /// counted in `inplace_upgrades`).
    pub crash_recoveries: usize,
    /// Page bytes actually put on the fabric by the campaign's
    /// migrations (equals the raw byte count at a
    /// [`ExecConfig::wire_compression_ratio`] of 1.0).
    pub wire_bytes_sent: u64,
    /// Bytes the content-aware wire path kept off the fabric (0 at a
    /// ratio of 1.0).
    pub wire_bytes_saved: u64,
    /// Mean time from a group's start until each of its migrating VMs was
    /// ready on its destination (the per-VM exposure window). Zero when
    /// the plan has no migrations. [`FleetOrder::ShortestPredictedFirst`]
    /// minimises this without changing [`ExecReport::total`] on a
    /// serialized fabric.
    pub mean_vm_ready: SimDuration,
    /// Streaming aggregate (seconds) of every migrating VM's ready
    /// offset from its group's start.
    pub vm_ready: Streaming,
    /// Fixed-bucket histogram of the same ready offsets (see
    /// [`READY_HIST_BUCKETS`]).
    pub vm_ready_hist: Histogram,
    /// Streaming aggregate (seconds) of per-group migration-phase drain
    /// times.
    pub group_drain: Streaming,
    /// Migrating VMs that carried an SLO (served measurable traffic)
    /// under [`ExecConfig::slo`]. Zero when SLO accounting is off.
    pub slo_vms: usize,
    /// Total SLO violation time across those VMs: seconds during which a
    /// migration's bandwidth steal pushed a VM's offered load above its
    /// degraded capacity.
    pub slo_violation: SimDuration,
    /// Worst per-VM error-budget burn (1.0 = a VM spent its entire
    /// daily violation allowance on this campaign).
    pub slo_max_budget_burn: f64,
    /// VMs whose vulnerability exposure was accounted under
    /// [`ExecConfig::exposure`] (remediated + excluded). Zero when the
    /// accounting is off.
    pub exposure_vms: usize,
    /// Integrated exposure of the campaign:
    /// Σ VMs × criticality × min(remediation time, window), in
    /// VM·criticality·seconds.
    pub exposure_vm_secs: f64,
    /// Per-group time series of the per-VM exposure accrued when that
    /// group finished (criticality·seconds), in campaign order — the
    /// vulnerability-window metric as a first-class bounded aggregate.
    pub exposure: Streaming,
    /// The same per-group samples as exposed fraction of the patch
    /// window, bucketed on `[0, 1)` (see [`EXPOSURE_HIST_BUCKETS`]).
    ///
    /// [`EXPOSURE_HIST_BUCKETS`]: crate::exposure::EXPOSURE_HIST_BUCKETS
    pub exposure_hist: Histogram,
}

impl ExecReport {
    /// Percentage of time saved relative to a baseline execution.
    /// Returns 0.0 when the baseline took no time at all (a plan with
    /// nothing to do) — never NaN or ±inf.
    pub fn time_gain_pct(&self, baseline: &ExecReport) -> f64 {
        let base = baseline.total.as_secs_f64();
        if base == 0.0 {
            return 0.0;
        }
        (1.0 - self.total.as_secs_f64() / base) * 100.0
    }

    /// Canonical byte-stable rendering: two executions produced the same
    /// report iff their renders match. Floats use `{:?}` (shortest
    /// round-trip), so even last-ulp divergence shows.
    pub fn render(&self) -> String {
        let mut out = format!(
            "migrations={} upgrades={} total_ns={} migration_ns={} inplace_ns={} \
             retries={} excluded={} crashes={} wire_sent={} wire_saved={} mean_ready_ns={} \
             slo_vms={} slo_violation_ns={} slo_burn={:?} \
             vm_ready{{{}}} drain{{{}}} hist{{{}}}",
            self.migrations,
            self.inplace_upgrades,
            self.total.as_nanos(),
            self.migration_time.as_nanos(),
            self.inplace_time.as_nanos(),
            self.host_retries,
            self.hosts_excluded,
            self.crash_recoveries,
            self.wire_bytes_sent,
            self.wire_bytes_saved,
            self.mean_vm_ready.as_nanos(),
            self.slo_vms,
            self.slo_violation.as_nanos(),
            self.slo_max_budget_burn,
            self.vm_ready.render(),
            self.group_drain.render(),
            self.vm_ready_hist.render(),
        );
        // Exposure accounting is opt-in: reports that never accrued a VM
        // render exactly as before the metric existed, which is what the
        // feed-free byte-identity tests pin.
        if self.exposure_vms > 0 {
            out.push_str(&format!(
                " exposure_vms={} exposure_vm_secs={:?} exposure{{{}}} exposure_hist{{{}}}",
                self.exposure_vms,
                self.exposure_vm_secs,
                self.exposure.render(),
                self.exposure_hist.render(),
            ));
        }
        out
    }
}

/// One live migration as the analytic model prices it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MigrationEstimate {
    /// Orchestration overhead + pre-copy + stop-and-copy.
    pub time: SimDuration,
    /// The stop-and-copy alone: the pages dirtied during the pre-copy,
    /// re-sent with the VM paused (§3's downtime accounting).
    pub blackout: SimDuration,
    /// Page bytes the migration moves, before the wire's compression.
    pub raw_bytes: u64,
    /// Page bytes actually put on the fabric.
    pub wire_bytes: u64,
}

/// Estimates one live migration of a VM of `memory_gb` GiB dirtying
/// `dirty_rate` pages/s, with `sharers` flows on the fabric. The page
/// bytes — pre-copy and stop-and-copy alike — shrink by the configured
/// compression ratio before hitting the link. Pure in its arguments —
/// safe to memoize per VM class.
fn migration_estimate(
    cfg: &ExecConfig,
    memory_gb: u64,
    dirty_rate: f64,
    sharers: u32,
) -> MigrationEstimate {
    let raw = memory_gb << 30;
    let ratio = cfg.wire_compression_ratio.clamp(0.0, 1.0);
    let bytes = (raw as f64 * ratio) as u64;
    let copy = cfg.link.transfer(bytes, sharers);
    // Dirty pages written during the copy must be re-sent (a geometric
    // tail approximated by its first round).
    let raw_dirty = (dirty_rate * copy.as_secs_f64() * 4096.0) as u64;
    let dirty_bytes = (raw_dirty as f64 * ratio) as u64;
    let blackout = cfg.link.transfer(dirty_bytes, sharers);
    MigrationEstimate {
        time: PER_MIGRATION_OVERHEAD + copy + blackout,
        blackout,
        raw_bytes: raw + raw_dirty,
        wire_bytes: bytes + dirty_bytes,
    }
}

/// The serving VM's SLO attachment under the opt-in accounting: `None`
/// for classes with no measurable QPS. The traffic curve is a pure
/// function of `(slo.seed, vm index)` — cheap to re-derive, nothing to
/// share across shards.
fn vm_slo<V: ClusterView + ?Sized>(view: &V, slo: &SloExecConfig, vm: usize) -> Option<SloVm> {
    let info = view.vm(vm);
    if info.peak_qps <= 0.0 {
        return None;
    }
    Some(SloVm {
        traffic: hypertp_workloads::derive_curve(
            slo.seed,
            vm as u64,
            info.peak_qps,
            TrafficCurve::DAY,
        ),
        degraded_capacity: (1.0 - info.migration_degradation).clamp(0.0, 1.0),
        error_budget: slo.error_budget,
    })
}

/// Stretches a migration estimate by the workload's share of the fabric
/// at admission time: the orchestration overhead is load-independent,
/// but the transfer only gets the link share [`LinkContention`] leaves
/// it, so its time divides by that share.
fn contention_stretch(cfg: &ExecConfig, estimate: SimDuration, workload_bps: f64) -> SimDuration {
    if workload_bps <= 0.0 {
        return estimate;
    }
    let share = LinkContention::new(workload_bps).share(&cfg.link);
    if share >= 1.0 {
        return estimate;
    }
    let transfer = estimate.saturating_sub(PER_MIGRATION_OVERHEAD);
    PER_MIGRATION_OVERHEAD + SimDuration::from_secs_f64(transfer.as_secs_f64() / share)
}

/// The executor's VM as the in-place pricer sees it: 4 GiB, one vCPU,
/// 2 MiB pages (512 PRAM entries per GiB).
const HOST_VM: VmShape = VmShape {
    gb: 4.0,
    vcpus: 1,
    entries: 4 * 512,
    fraction: 1.0,
};

/// Shard-local memo of cost-model evaluations per VM class, shared by the
/// executor and the exposure planner. Both helpers are pure functions of
/// their keys, so memoized and recomputed runs are bit-identical; the
/// memo just collapses a fleet's thousands of same-class evaluations into
/// a handful.
pub(crate) struct ClassMemo {
    /// `(memory_gb, dirty_rate bits, sharers)` → migration estimate.
    /// Host-independent, so always valid.
    migration: ClassMap<(u64, u64, u32), MigrationEstimate>,
    /// `vm_count` → upgrade time. Only consulted for fleets with a
    /// uniform host spec (the perf inputs are then host-invariant).
    inplace: ClassMap<usize, SimDuration>,
}

/// Hasher for [`ClassMemo`]'s integer keys: each word is folded in with
/// one rotate, xor and multiply (strong high bits, which hashbrown takes
/// its control bytes from) and finished with a high-to-low fold (strong
/// low bits, which pick the bucket). The keys are the fleet's own classes,
/// not adversarial input, and SipHash would be most of a memo hit.
#[derive(Debug, Default, Clone, Copy)]
struct ClassHasher(u64);

impl Hasher for ClassHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

type ClassMap<K, V> = HashMap<K, V, BuildHasherDefault<ClassHasher>>;

impl ClassMemo {
    pub(crate) fn new() -> ClassMemo {
        ClassMemo {
            migration: ClassMap::default(),
            inplace: ClassMap::default(),
        }
    }

    /// [`migration_estimate`] of `vm` with `sharers` flows on the fabric.
    pub(crate) fn migration(
        &mut self,
        cfg: &ExecConfig,
        vm: &VmView,
        sharers: u32,
    ) -> MigrationEstimate {
        let key = (vm.memory_gb, vm.dirty_rate_pages_per_sec.to_bits(), sharers);
        if let Some(&est) = self.migration.get(&key) {
            return est;
        }
        let est = migration_estimate(cfg, vm.memory_gb, vm.dirty_rate_pages_per_sec, sharers);
        self.migration.insert(key, est);
        est
    }

    /// Time of one in-place upgrade of `host` carrying `vm_count`
    /// [`HOST_VM`]s. Below an [`ExecConfig::inplace_dirty_fraction`] of
    /// 1.0 the translation is the dirty-delta one: the warm snapshot
    /// overlaps the group's migration drain and never shows up here.
    pub(crate) fn inplace<V: ClusterView + ?Sized>(
        &mut self,
        view: &V,
        cost: &CostModel,
        cfg: &ExecConfig,
        host: usize,
        vm_count: usize,
        uniform_perf: Option<&MachinePerf>,
    ) -> SimDuration {
        let price = |perf: MachinePerf| {
            let mut vm = HOST_VM;
            vm.fraction = cfg.inplace_dirty_fraction.clamp(0.0, 1.0);
            let entries = vm_count as u64 * vm.entries;
            let pricer = InPlacePricer::new(cost, perf, Optimizations::default());
            let warm = vm.fraction < 1.0;
            pricer
                .price(&vec![vm; vm_count], cfg.target, entries, warm)
                .total()
        };
        match uniform_perf {
            Some(perf) => *self.inplace.entry(vm_count).or_insert_with(|| price(*perf)),
            None => price(view.host_spec(host).perf()),
        }
    }
}

/// The outcome of one group's simulation, relative to the group's start.
/// Folding these in group order reproduces the sequential walk exactly.
struct GroupOutcome {
    migrations: usize,
    upgrades: usize,
    drain: SimDuration,
    inplace: SimDuration,
    ready_acc: SimDuration,
    raw_bytes: u64,
    wire_bytes: u64,
    host_retries: usize,
    hosts_excluded: usize,
    crash_recoveries: usize,
    vm_ready: Streaming,
    vm_ready_hist: Histogram,
    slo_vms: usize,
    slo_violation: SimDuration,
    slo_burn_max: f64,
    /// VMs the group actually remediated (migrated, or carried through an
    /// in-place upgrade / crash recovery).
    vms_done: u64,
    /// VMs stranded on hosts the group dropped from the plan.
    vms_excluded: u64,
}

/// Admits the next migration from `queue` at instant `now` (relative to
/// the group's start): picks the VM, accounts its bytes and — under
/// [`ExecConfig::slo`] — its contention-stretched duration and SLO
/// outcome, and returns `(duration, vm)` for the event queue.
///
/// Order: [`FleetOrder::SloAware`] re-prices every waiting VM at this
/// instant and admits the least predicted SLO harm (ties fall to the
/// shorter migration, then the lower VM index — deterministic); every
/// other order takes the queue front (FIFO/SPDF pre-ordering happened at
/// queue build time).
fn admit_next<V: ClusterView + ?Sized>(
    view: &V,
    cfg: &ExecConfig,
    memo: &mut ClassMemo,
    out: &mut GroupOutcome,
    queue: &mut std::collections::VecDeque<usize>,
    now: SimTime,
    sharers: u32,
) -> Option<(SimDuration, usize)> {
    let start = now.duration_since(SimTime::ZERO);
    let pos = if cfg.fleet_order == FleetOrder::SloAware {
        let mut best: Option<(SimDuration, SimDuration, usize, usize)> = None;
        for (pos, &vm) in queue.iter().enumerate() {
            let time = memo.migration(cfg, &view.vm(vm), sharers).time;
            let (time, harm) = match cfg.slo.and_then(|s| vm_slo(view, &s, vm)) {
                Some(slo) => {
                    let t = contention_stretch(cfg, time, slo.traffic.bps_at(start));
                    (t, slo.outcome(start, t, SimDuration::ZERO).violation)
                }
                None => (time, SimDuration::ZERO),
            };
            if best.is_none_or(|(h, t, v, _)| (harm, time, vm) < (h, t, v)) {
                best = Some((harm, time, vm, pos));
            }
        }
        best?.3
    } else {
        0
    };
    let vm = queue.remove(pos)?;
    let est = memo.migration(cfg, &view.vm(vm), sharers);
    out.raw_bytes += est.raw_bytes;
    out.wire_bytes += est.wire_bytes;
    let time = match cfg.slo.and_then(|s| vm_slo(view, &s, vm)) {
        Some(slo) => {
            let stretched = contention_stretch(cfg, est.time, slo.traffic.bps_at(start));
            let o = slo.outcome(start, stretched, SimDuration::ZERO);
            out.slo_vms += 1;
            out.slo_violation += o.violation;
            out.slo_burn_max = out.slo_burn_max.max(o.budget_burn);
            stretched
        }
        None => est.time,
    };
    Some((time, vm))
}

/// Simulates one group: drain its migrations through the slot pool, then
/// run its in-place upgrades in parallel. Pure in `(view, cfg, group)`
/// when `faults` is `None`; with faults the caller must invoke groups
/// sequentially in plan order (consultation order is the replay
/// contract).
fn run_group<V: ClusterView + ?Sized>(
    view: &V,
    cfg: &ExecConfig,
    cost: &CostModel,
    group: &[Action],
    faults: Option<&FaultPlan>,
    memo: &mut ClassMemo,
    uniform_perf: Option<&MachinePerf>,
) -> GroupOutcome {
    let slots = cfg.max_concurrent_migrations.max(1);
    let mut out = GroupOutcome {
        migrations: 0,
        upgrades: 0,
        drain: SimDuration::ZERO,
        inplace: SimDuration::ZERO,
        ready_acc: SimDuration::ZERO,
        raw_bytes: 0,
        wire_bytes: 0,
        host_retries: 0,
        hosts_excluded: 0,
        crash_recoveries: 0,
        vm_ready: Streaming::new(),
        vm_ready_hist: Histogram::new(READY_HIST_LO, READY_HIST_HI, READY_HIST_BUCKETS),
        slo_vms: 0,
        slo_violation: SimDuration::ZERO,
        slo_burn_max: 0.0,
        vms_done: 0,
        vms_excluded: 0,
    };

    // Phase 1: drain the group's migrations through the slot pool. All
    // times are relative to the group's start.
    let mut pending: Vec<usize> = group
        .iter()
        .filter_map(|a| match a {
            Action::Migrate { vm, .. } => Some(*vm),
            _ => None,
        })
        .collect();
    out.migrations = pending.len();
    let sharers = pending.len().min(slots) as u32;
    if cfg.fleet_order == FleetOrder::ShortestPredictedFirst {
        // Convergence-aware admission: the analytic model's predicted
        // migration time orders the queue (VM index breaks ties, so the
        // schedule is deterministic).
        let keyed: Vec<(SimDuration, usize)> = pending
            .iter()
            .map(|&vm| (memo.migration(cfg, &view.vm(vm), sharers).time, vm))
            .collect();
        let mut keyed = keyed;
        keyed.sort_unstable();
        pending = keyed.into_iter().map(|(_, vm)| vm).collect();
    }
    let mut queue: std::collections::VecDeque<usize> = pending.into();
    let mut events: EventQueue<usize> = EventQueue::with_capacity(slots + 1);
    let mut now = SimTime::ZERO;
    let mut in_flight = 0usize;
    while in_flight < slots {
        match admit_next(view, cfg, memo, &mut out, &mut queue, now, sharers) {
            Some((time, vm)) => {
                events.schedule(now + time, vm);
                in_flight += 1;
            }
            None => break,
        }
    }
    while let Some((t, _done)) = events.pop() {
        now = t;
        let offset = now.duration_since(SimTime::ZERO);
        out.ready_acc += offset;
        out.vms_done += 1;
        out.vm_ready.push(offset.as_secs_f64());
        out.vm_ready_hist.record(offset.as_secs_f64());
        if let Some((time, vm)) = admit_next(view, cfg, memo, &mut out, &mut queue, now, sharers) {
            events.schedule(now + time, vm);
        }
    }
    out.drain = now.duration_since(SimTime::ZERO);

    // Phase 2: the group's in-place upgrades, in parallel. A faulted
    // upgrade burns its attempt's time and retries on the same host;
    // past the retry budget the host is dropped from the plan.
    let mut group_inplace = SimDuration::ZERO;
    for a in group {
        let Action::InPlaceUpgrade { host, vm_count } = a else {
            continue;
        };
        let attempt_cost = memo.inplace(view, cost, cfg, *host, *vm_count, uniform_perf);
        let mut host_time = SimDuration::ZERO;
        match faults {
            None => {
                host_time += attempt_cost;
                out.upgrades += 1;
                out.vms_done += *vm_count as u64;
            }
            Some(faults) => {
                let site = format!("exec upgrade h{host}");
                if crash_gate(faults, &format!("{site} crash")) {
                    // The hypervisor dies as the host's slot opens: the
                    // always-on checkpointer keeps translation off the
                    // critical path, so the host reaches the target in
                    // detection + rescue reboot + restoration + resume
                    // instead of a planned upgrade attempt.
                    let perf = uniform_perf
                        .copied()
                        .unwrap_or_else(|| view.host_spec(*host).perf());
                    let pricer = InPlacePricer::new(cost, perf, Optimizations::default());
                    let entries = *vm_count as u64 * HOST_VM.entries;
                    let price = pricer.price(&vec![HOST_VM; *vm_count], cfg.target, entries, false);
                    host_time += CheckpointConfig::default().detection
                        + price.reboot
                        + price.restoration
                        + pricer.resume(*vm_count);
                    out.upgrades += 1;
                    out.vms_done += *vm_count as u64;
                    out.crash_recoveries += 1;
                    faults.record_recovery(
                        InjectionPoint::HypervisorCrash,
                        RecoveryAction::MicroRebooted,
                        &format!(
                            "h{host}: crashed in its upgrade slot; warm-checkpoint recovery \
                             onto {} carried {vm_count} VMs",
                            cfg.target.name()
                        ),
                    );
                } else {
                    let mut failures = 0u32;
                    loop {
                        host_time += attempt_cost;
                        match host_failure_gate(faults, &site, failures, cfg.max_host_retries) {
                            HostGate::Proceed => {
                                out.upgrades += 1;
                                out.vms_done += *vm_count as u64;
                                break;
                            }
                            HostGate::Retry => {
                                failures += 1;
                                out.host_retries += 1;
                            }
                            HostGate::Exclude => {
                                out.hosts_excluded += 1;
                                out.vms_excluded += *vm_count as u64;
                                break;
                            }
                        }
                    }
                }
            }
        }
        group_inplace = group_inplace.max(host_time);
    }
    out.inplace = group_inplace;
    out
}

/// Folds per-group outcomes — in group order — into the report the
/// sequential walk produces. Under [`ExecConfig::exposure`] the fold also
/// runs the campaign's exposure integrator: a group's VMs stop being
/// exposed when the group finishes on the campaign clock (the running
/// `total`), VMs on excluded hosts stay exposed for the whole window.
fn fold_outcomes(cfg: &ExecConfig, outcomes: impl Iterator<Item = GroupOutcome>) -> ExecReport {
    let mut report = ExecReport {
        migrations: 0,
        inplace_upgrades: 0,
        total: SimDuration::ZERO,
        migration_time: SimDuration::ZERO,
        inplace_time: SimDuration::ZERO,
        host_retries: 0,
        hosts_excluded: 0,
        crash_recoveries: 0,
        wire_bytes_sent: 0,
        wire_bytes_saved: 0,
        mean_vm_ready: SimDuration::ZERO,
        vm_ready: Streaming::new(),
        vm_ready_hist: Histogram::new(READY_HIST_LO, READY_HIST_HI, READY_HIST_BUCKETS),
        group_drain: Streaming::new(),
        slo_vms: 0,
        slo_violation: SimDuration::ZERO,
        slo_max_budget_burn: 0.0,
        exposure_vms: 0,
        exposure_vm_secs: 0.0,
        exposure: Streaming::new(),
        exposure_hist: Histogram::new(0.0, 1.0, crate::exposure::EXPOSURE_HIST_BUCKETS),
    };
    let mut raw_bytes = 0u64;
    let mut ready_acc = SimDuration::ZERO;
    let mut integ = cfg
        .exposure
        .map(|e| crate::exposure::ExposureIntegrator::new(e.criticality, e.window));
    for g in outcomes {
        report.migrations += g.migrations;
        report.inplace_upgrades += g.upgrades;
        report.migration_time += g.drain;
        report.inplace_time += g.inplace;
        report.total += g.drain + g.inplace;
        report.host_retries += g.host_retries;
        report.hosts_excluded += g.hosts_excluded;
        report.crash_recoveries += g.crash_recoveries;
        report.wire_bytes_sent += g.wire_bytes;
        raw_bytes += g.raw_bytes;
        ready_acc += g.ready_acc;
        report.vm_ready.merge(&g.vm_ready);
        report.vm_ready_hist.merge(&g.vm_ready_hist);
        report.group_drain.push(g.drain.as_secs_f64());
        report.slo_vms += g.slo_vms;
        report.slo_violation += g.slo_violation;
        report.slo_max_budget_burn = report.slo_max_budget_burn.max(g.slo_burn_max);
        if let Some(integ) = integ.as_mut() {
            if g.vms_done > 0 {
                let per_vm = integ.remediated(g.vms_done as f64, report.total);
                report.exposure.push(per_vm);
                report.exposure_hist.record(integ.fraction(per_vm));
                report.exposure_vms += g.vms_done as usize;
            }
            if g.vms_excluded > 0 {
                let per_vm = integ.deferred(g.vms_excluded as f64);
                report.exposure.push(per_vm);
                report.exposure_hist.record(integ.fraction(per_vm));
                report.exposure_vms += g.vms_excluded as usize;
            }
        }
    }
    if let Some(integ) = integ {
        report.exposure_vm_secs = integ.integral();
    }
    report.wire_bytes_saved = raw_bytes.saturating_sub(report.wire_bytes_sent);
    report.mean_vm_ready = if report.migrations == 0 {
        SimDuration::ZERO
    } else {
        SimDuration::from_nanos(ready_acc.as_nanos() / report.migrations as u64)
    };
    report
}

/// Executes a plan with a discrete-event scheduler. Within a group, up to
/// `max_concurrent_migrations` migrations run at once (sharing the link);
/// the group's in-place upgrades run in parallel once its migrations have
/// drained; groups run one after another (the rolling-offline structure).
pub fn execute<V: ClusterView + ?Sized>(view: &V, plan: &Plan, cfg: &ExecConfig) -> ExecReport {
    execute_sharded_with(
        view,
        plan,
        cfg,
        &FaultPlan::disarmed(),
        1,
        &WorkerPool::serial(),
    )
}

/// The general entry point: sharded execution with explicit faults and
/// pool.
///
/// * Fault-free (`!faults.armed()`): the plan's groups are split into
///   `shards` contiguous chunks ([`hypertp_sim::pool::chunk_ranges`]) and
///   simulated on the pool; each shard keeps its own cost-model memo.
///   Outcomes fold in group order, so the report is identical for every
///   `(shards, workers)` combination — including `(1, serial)`, which is
///   exactly [`execute`].
/// * Faults armed: groups run sequentially in plan order on the calling
///   thread (the fault plan's consultation order is part of the replay
///   contract), identical to the pre-sharding executor. An in-place
///   upgrade hit by [`InjectionPoint::HostFailure`] burns its slot time
///   and is retried ([`RecoveryAction::RequeuedHost`]); past
///   `cfg.max_host_retries` the host is dropped from the plan
///   ([`RecoveryAction::ExcludedHost`]) and accounted in
///   [`ExecReport::hosts_excluded`]. Faulted attempts extend the group's
///   parallel in-place phase, so recovery cost shows up in the reported
///   wall-clock totals.
pub fn execute_sharded_with<V: ClusterView + ?Sized>(
    view: &V,
    plan: &Plan,
    cfg: &ExecConfig,
    faults: &FaultPlan,
    shards: usize,
    pool: &WorkerPool,
) -> ExecReport {
    let cost = CostModel::paper_calibrated();
    let uniform_perf = view.uniform_spec().map(|s| s.perf());
    if faults.armed() {
        let mut memo = ClassMemo::new();
        return fold_outcomes(
            cfg,
            plan.groups.iter().map(|g| {
                run_group(
                    view,
                    cfg,
                    &cost,
                    g,
                    Some(faults),
                    &mut memo,
                    uniform_perf.as_ref(),
                )
            }),
        );
    }
    let batch = pool.map_chunks(plan.groups.len(), shards.max(1), |range| {
        let mut memo = ClassMemo::new();
        range
            .map(|gi| {
                run_group(
                    view,
                    cfg,
                    &cost,
                    &plan.groups[gi],
                    None,
                    &mut memo,
                    uniform_perf.as_ref(),
                )
            })
            .collect::<Vec<GroupOutcome>>()
    });
    fold_outcomes(cfg, batch.results.into_iter().flatten())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Cluster;
    use crate::planner::plan_upgrade;
    use hypertp_sim::fault::{InjectionPoint, RecoveryAction};

    fn run(pct: u32) -> ExecReport {
        let c = Cluster::paper_testbed(pct, 42);
        let plan = plan_upgrade(&c, 2).unwrap();
        execute(&c, &plan, &ExecConfig::default())
    }

    #[test]
    fn fig13_all_migration_baseline_around_19_minutes() {
        let r = run(0);
        let minutes = r.total.as_secs_f64() / 60.0;
        assert!((14.0..23.0).contains(&minutes), "total = {minutes} min");
        assert!(r.migrations >= 120);
    }

    #[test]
    fn fig13_eighty_percent_compat_around_4_minutes() {
        let r = run(80);
        let minutes = r.total.as_secs_f64() / 60.0;
        assert!((2.5..6.0).contains(&minutes), "total = {minutes} min");
    }

    #[test]
    fn fig13_time_gain_curve() {
        let baseline = run(0);
        let mut prev_gain = -1.0;
        for pct in [20u32, 40, 60, 80] {
            let r = run(pct);
            let gain = r.time_gain_pct(&baseline);
            assert!(gain > prev_gain, "gain at {pct}% = {gain}");
            prev_gain = gain;
        }
        // Paper: ≈80% time gain at 80% compatibility, ≈68% at 60%.
        let g80 = run(80).time_gain_pct(&baseline);
        assert!((68.0..90.0).contains(&g80), "gain at 80% = {g80}");
        let g60 = run(60).time_gain_pct(&baseline);
        assert!((50.0..80.0).contains(&g60), "gain at 60% = {g60}");
    }

    #[test]
    fn time_gain_pct_guards_zero_baseline() {
        // An empty plan executes in zero time; comparing against it must
        // not produce NaN/inf.
        let c = Cluster::paper_testbed(0, 42);
        let empty = execute(&c, &Plan::default(), &ExecConfig::default());
        assert_eq!(empty.total, SimDuration::ZERO);
        let r = run(0);
        assert_eq!(r.time_gain_pct(&empty), 0.0);
        assert!(r.time_gain_pct(&empty).is_finite());
        // Degenerate self-comparison of the empty report too.
        assert_eq!(empty.time_gain_pct(&empty), 0.0);
        assert_eq!(empty.mean_vm_ready, SimDuration::ZERO);
        assert_eq!(empty.vm_ready.mean(), 0.0);
    }

    #[test]
    fn concurrency_knob_shortens_the_migration_phase() {
        let c = Cluster::paper_testbed(0, 42);
        let plan = plan_upgrade(&c, 2).unwrap();
        let serial = execute(&c, &plan, &ExecConfig::default());
        let four = execute(
            &c,
            &plan,
            &ExecConfig {
                max_concurrent_migrations: 4,
                ..ExecConfig::default()
            },
        );
        assert_eq!(serial.migrations, four.migrations);
        // Four slots share the fabric, so the win comes from overlapping
        // the per-migration orchestration overhead — real but sub-linear.
        assert!(four.total < serial.total);
        assert!(
            four.total.as_secs_f64() > serial.total.as_secs_f64() / 4.0,
            "bandwidth sharing prevents a linear speedup"
        );
    }

    #[test]
    fn host_failure_retry_extends_wall_clock() {
        let c = Cluster::paper_testbed(100, 42);
        let plan = plan_upgrade(&c, 2).unwrap();
        let cfg = ExecConfig::default();
        let clean = execute(&c, &plan, &cfg);
        let faults = FaultPlan::new(0xe8ec);
        faults.arm_once(InjectionPoint::HostFailure);
        let faulted = execute_sharded_with(&c, &plan, &cfg, &faults, 1, &WorkerPool::serial());
        assert_eq!(faulted.host_retries, 1);
        assert_eq!(faulted.hosts_excluded, 0);
        assert_eq!(faulted.inplace_upgrades, clean.inplace_upgrades);
        assert!(
            faulted.total > clean.total,
            "recovery cost must show up in wall-clock time"
        );
        assert!(faults
            .log()
            .recovered_via(InjectionPoint::HostFailure, RecoveryAction::RequeuedHost));
    }

    #[test]
    fn exhausted_retries_drop_the_host_from_the_plan() {
        let c = Cluster::paper_testbed(100, 42);
        let plan = plan_upgrade(&c, 2).unwrap();
        let cfg = ExecConfig::default();
        let faults = FaultPlan::new(0xe8ed);
        // First host's upgrade fails on every attempt (1 + 2 retries).
        faults.arm_calls(InjectionPoint::HostFailure, &[1, 2, 3]);
        let r = execute_sharded_with(&c, &plan, &cfg, &faults, 1, &WorkerPool::serial());
        assert_eq!(r.hosts_excluded, 1);
        assert_eq!(r.host_retries, cfg.max_host_retries as usize);
        assert_eq!(r.inplace_upgrades, plan.inplace_count() - 1);
        assert!(faults
            .log()
            .recovered_via(InjectionPoint::HostFailure, RecoveryAction::ExcludedHost));
    }

    #[test]
    fn crashed_host_recovers_and_stays_in_the_plan() {
        let c = Cluster::paper_testbed(100, 42);
        let plan = plan_upgrade(&c, 2).unwrap();
        let cfg = ExecConfig::default();
        let clean = execute(&c, &plan, &cfg);
        let run = || {
            let faults = FaultPlan::new(0xc4a5);
            faults.arm_once(InjectionPoint::HypervisorCrash);
            let r = execute_sharded_with(&c, &plan, &cfg, &faults, 1, &WorkerPool::serial());
            (r, faults.log().render())
        };
        let (r, log) = run();
        assert_eq!(r.crash_recoveries, 1);
        // The crashed host still reaches the target: no upgrade is lost.
        assert_eq!(r.inplace_upgrades, clean.inplace_upgrades);
        assert_eq!(r.hosts_excluded, 0);
        assert!(r.total > SimDuration::ZERO);
        assert!(log.contains("micro_rebooted"));
        // Replay determinism: the same seed reproduces report and log.
        let (r2, log2) = run();
        assert_eq!(r.render(), r2.render());
        assert_eq!(log, log2);
    }

    #[test]
    fn same_seed_executes_identically() {
        let c = Cluster::paper_testbed(80, 42);
        let plan = plan_upgrade(&c, 2).unwrap();
        let cfg = ExecConfig::default();
        let run = |seed: u64| {
            let faults = FaultPlan::new(seed);
            faults.arm(InjectionPoint::HostFailure, 0.3, u64::MAX);
            let r = execute_sharded_with(&c, &plan, &cfg, &faults, 1, &WorkerPool::serial());
            (
                r.host_retries,
                r.hosts_excluded,
                r.total,
                faults.log().render(),
            )
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn sharded_report_is_byte_identical_for_any_shards_and_workers() {
        let c = Cluster::paper_testbed(40, 42);
        let plan = plan_upgrade(&c, 2).unwrap();
        let cfg = ExecConfig::default();
        let baseline = execute(&c, &plan, &cfg);
        for shards in [1usize, 2, 3, 5, 64] {
            for workers in [1usize, 3, 8] {
                let r = execute_sharded_with(
                    &c,
                    &plan,
                    &cfg,
                    &FaultPlan::disarmed(),
                    shards,
                    &WorkerPool::new(workers),
                );
                assert_eq!(r, baseline, "shards={shards} workers={workers}");
                assert_eq!(r.render(), baseline.render());
            }
        }
    }

    #[test]
    fn sharded_with_armed_faults_matches_the_sequential_walk() {
        let c = Cluster::paper_testbed(80, 42);
        let plan = plan_upgrade(&c, 2).unwrap();
        let cfg = ExecConfig::default();
        let run = |shards: usize, workers: usize| {
            let faults = FaultPlan::new(0xfa01);
            faults.arm(InjectionPoint::HostFailure, 0.4, u64::MAX);
            let r =
                execute_sharded_with(&c, &plan, &cfg, &faults, shards, &WorkerPool::new(workers));
            (r, faults.log().render())
        };
        let (seq_report, seq_log) = run(1, 1);
        let (sharded_report, sharded_log) = run(8, 4);
        assert_eq!(sharded_report, seq_report);
        assert_eq!(sharded_log, seq_log, "fault replay must be order-identical");
        assert!(
            seq_report.host_retries > 0,
            "the armed plan must actually fire"
        );
    }

    #[test]
    fn memoized_cost_evaluation_matches_per_host_recomputation() {
        // Same hardware, but the specs compare unequal (different name
        // strings), which disables the uniform-spec memo: the reports
        // must still match bit for bit.
        let c = Cluster::paper_testbed(40, 42);
        let mut unmemoized = c.clone();
        for (i, h) in unmemoized.hosts.iter_mut().enumerate() {
            h.spec.name = format!("G5K-{i}");
        }
        assert!(crate::model::ClusterView::uniform_spec(&unmemoized).is_none());
        let plan = plan_upgrade(&c, 2).unwrap();
        let cfg = ExecConfig::default();
        let memoized = execute(&c, &plan, &cfg);
        let recomputed = execute(&unmemoized, &plan, &cfg);
        assert_eq!(memoized, recomputed);
    }

    #[test]
    fn synthetic_view_executes_like_its_materialization() {
        let syn = Cluster::synthetic(40, 0xd00d).with_compat_percent(70);
        let mat = syn.materialize();
        let plan_syn = plan_upgrade(&syn, 2).unwrap();
        let plan_mat = plan_upgrade(&mat, 2).unwrap();
        assert_eq!(plan_syn, plan_mat);
        let cfg = ExecConfig::default();
        let r_syn = execute_sharded_with(
            &syn,
            &plan_syn,
            &cfg,
            &FaultPlan::disarmed(),
            4,
            &WorkerPool::from_env(),
        );
        let r_mat = execute(&mat, &plan_mat, &cfg);
        assert_eq!(r_syn, r_mat);
    }

    #[test]
    fn content_aware_wire_mode_shrinks_migration_phase_and_reports_savings() {
        let c = Cluster::paper_testbed(0, 42);
        let plan = plan_upgrade(&c, 2).unwrap();
        let raw = execute(&c, &plan, &ExecConfig::default());
        assert_eq!(raw.wire_bytes_saved, 0, "raw mode saves nothing");
        assert!(raw.wire_bytes_sent > 0);

        let ca = execute(
            &c,
            &plan,
            &ExecConfig {
                wire_compression_ratio: 0.3,
                ..ExecConfig::default()
            },
        );
        assert_eq!(ca.migrations, raw.migrations);
        assert!(
            ca.migration_time < raw.migration_time,
            "fewer bytes, less time"
        );
        assert!(ca.total < raw.total);
        assert!(ca.wire_bytes_sent < raw.wire_bytes_sent);
        assert!(
            ca.wire_bytes_saved > raw.wire_bytes_sent / 2,
            "a 0.3 ratio must save most of the raw bytes"
        );
    }

    #[test]
    fn spdf_cuts_mean_vm_ready_without_changing_the_drain() {
        // The paper testbed mixes idle, cpu-mem and video-stream VMs, so
        // predicted migration times differ. On a serialized fabric the
        // group drain time is order-invariant (the sum of the times), but
        // admitting the fast migrations first shrinks the average VM's
        // wait for its own completion.
        let c = Cluster::paper_testbed(0, 42);
        let plan = plan_upgrade(&c, 2).unwrap();
        let fifo = execute(&c, &plan, &ExecConfig::default());
        let spdf = execute(
            &c,
            &plan,
            &ExecConfig {
                fleet_order: FleetOrder::ShortestPredictedFirst,
                ..ExecConfig::default()
            },
        );
        assert_eq!(fifo.migrations, spdf.migrations);
        assert_eq!(
            fifo.total, spdf.total,
            "serialized drain time is admission-order invariant"
        );
        assert_eq!(fifo.wire_bytes_sent, spdf.wire_bytes_sent);
        assert!(
            spdf.mean_vm_ready < fifo.mean_vm_ready,
            "spdf {:?} !< fifo {:?}",
            spdf.mean_vm_ready,
            fifo.mean_vm_ready
        );
        // Determinism: the same config re-executes identically.
        let again = execute(
            &c,
            &plan,
            &ExecConfig {
                fleet_order: FleetOrder::ShortestPredictedFirst,
                ..ExecConfig::default()
            },
        );
        assert_eq!(again.total, spdf.total);
        assert_eq!(again.mean_vm_ready, spdf.mean_vm_ready);
    }

    #[test]
    fn streaming_telemetry_is_consistent_with_the_scalar_fields() {
        let c = Cluster::paper_testbed(0, 42);
        let plan = plan_upgrade(&c, 2).unwrap();
        let r = execute(&c, &plan, &ExecConfig::default());
        assert_eq!(r.vm_ready.count as usize, r.migrations);
        assert_eq!(r.vm_ready_hist.total() as usize, r.migrations);
        assert_eq!(r.group_drain.count as usize, plan.groups.len());
        // The streamed mean reproduces mean_vm_ready (integer-truncated).
        let mean_ns = (r.vm_ready.mean() * 1e9) as u64;
        let diff = mean_ns.abs_diff(r.mean_vm_ready.as_nanos());
        assert!(
            diff < 1_000,
            "stream mean {mean_ns} vs {:?}",
            r.mean_vm_ready
        );
        assert!(r.vm_ready.max <= r.group_drain.max);
    }

    #[test]
    fn incremental_translate_shrinks_the_inplace_phase() {
        let c = Cluster::paper_testbed(100, 42);
        let plan = plan_upgrade(&c, 2).unwrap();
        let full = execute(&c, &plan, &ExecConfig::default());

        // A mostly-converged fleet (5% residual dirty pages at the pause)
        // re-translates only the delta during the blackout.
        let inc = execute(
            &c,
            &plan,
            &ExecConfig {
                inplace_dirty_fraction: 0.05,
                ..ExecConfig::default()
            },
        );
        assert_eq!(inc.inplace_upgrades, full.inplace_upgrades);
        assert!(
            inc.inplace_time < full.inplace_time,
            "incremental {:?} !< full {:?}",
            inc.inplace_time,
            full.inplace_time
        );
        assert!(inc.total < full.total);

        // Determinism: same config, same schedule.
        let again = execute(
            &c,
            &plan,
            &ExecConfig {
                inplace_dirty_fraction: 0.05,
                ..ExecConfig::default()
            },
        );
        assert_eq!(again.total, inc.total);
        assert_eq!(again.inplace_time, inc.inplace_time);
    }

    #[test]
    fn slo_accounting_defaults_off_and_reports_zero() {
        let c = Cluster::paper_testbed(0, 42);
        let plan = plan_upgrade(&c, 2).unwrap();
        let r = execute(&c, &plan, &ExecConfig::default());
        assert_eq!(r.slo_vms, 0);
        assert_eq!(r.slo_violation, SimDuration::ZERO);
        assert_eq!(r.slo_max_budget_burn, 0.0);
        assert!(r.render().contains("slo_vms=0 slo_violation_ns=0"));
    }

    #[test]
    fn slo_accounting_stretches_migrations_and_counts_violations() {
        // The paper testbed migrates video-stream VMs (4 kQPS peak); with
        // SLO accounting on, their traffic steals fabric share at
        // admission time, so the migration phase must lengthen and the
        // serving VMs must be accounted.
        let c = Cluster::paper_testbed(0, 42);
        let plan = plan_upgrade(&c, 2).unwrap();
        let off = execute(&c, &plan, &ExecConfig::default());
        let cfg = ExecConfig {
            slo: Some(SloExecConfig::default()),
            ..ExecConfig::default()
        };
        let on = execute(&c, &plan, &cfg);
        assert_eq!(on.migrations, off.migrations);
        assert!(on.slo_vms > 0, "video-stream VMs carry SLOs");
        assert!(
            on.migration_time >= off.migration_time,
            "contention can only slow the fabric"
        );
        assert!(on.slo_max_budget_burn >= 0.0);
        // Deterministic rerun.
        let again = execute(&c, &plan, &cfg);
        assert_eq!(on.render(), again.render());
    }

    #[test]
    fn slo_aware_order_cuts_violation_seconds() {
        // Blind FIFO admission migrates VMs whenever their turn comes;
        // SLO-aware admission re-prices the queue at each slot and
        // prefers VMs in their quiet windows. Same physics (slo armed in
        // both), so the comparison is fair. A gigabit fabric stretches
        // group drains enough that window placement matters; greedy
        // least-harm admission must not lose to blind order by more
        // than scheduling noise on any fabric.
        let c = Cluster::paper_testbed(0, 42);
        let plan = plan_upgrade(&c, 2).unwrap();
        let slo = Some(SloExecConfig::default());
        let run = |order| {
            execute(
                &c,
                &plan,
                &ExecConfig {
                    slo,
                    fleet_order: order,
                    link: hypertp_migrate::Link::gigabit(),
                    ..ExecConfig::default()
                },
            )
        };
        let blind = run(FleetOrder::Fifo);
        let aware = run(FleetOrder::SloAware);
        assert_eq!(blind.migrations, aware.migrations);
        assert_eq!(blind.slo_vms, aware.slo_vms);
        assert!(
            aware.slo_violation.as_secs_f64() <= blind.slo_violation.as_secs_f64() * 1.01,
            "aware {:?} !<= blind {:?}",
            aware.slo_violation,
            blind.slo_violation
        );
    }

    #[test]
    fn slo_aware_sharded_report_stays_byte_identical() {
        let c = Cluster::paper_testbed(0, 42);
        let plan = plan_upgrade(&c, 2).unwrap();
        let cfg = ExecConfig {
            slo: Some(SloExecConfig::default()),
            fleet_order: FleetOrder::SloAware,
            ..ExecConfig::default()
        };
        let baseline = execute(&c, &plan, &cfg);
        for shards in [1usize, 3, 8] {
            for workers in [1usize, 4] {
                let r = execute_sharded_with(
                    &c,
                    &plan,
                    &cfg,
                    &FaultPlan::disarmed(),
                    shards,
                    &WorkerPool::new(workers),
                );
                assert_eq!(
                    r.render(),
                    baseline.render(),
                    "shards={shards} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn exposure_accounting_defaults_off_and_renders_identically() {
        // The metric is opt-in: with no feed attached the report — and
        // its byte-stable render — must be indistinguishable from an
        // executor that has never heard of exposure.
        let c = Cluster::paper_testbed(40, 42);
        let plan = plan_upgrade(&c, 2).unwrap();
        let r = execute(&c, &plan, &ExecConfig::default());
        assert_eq!(r.exposure_vms, 0);
        assert_eq!(r.exposure_vm_secs, 0.0);
        assert_eq!(r.exposure.count, 0);
        assert!(!r.render().contains("exposure"));
    }

    #[test]
    fn exposure_accounting_integrates_per_group_and_stays_sharded_identical() {
        let c = Cluster::paper_testbed(40, 42);
        let plan = plan_upgrade(&c, 2).unwrap();
        let cfg = ExecConfig {
            exposure: Some(ExposureExecConfig {
                criticality: 0.8,
                window: SimDuration::from_secs(7 * 24 * 3600),
            }),
            ..ExecConfig::default()
        };
        let r = execute(&c, &plan, &cfg);
        // Every planned VM is accounted at least once (a VM that migrates
        // onto a host whose own in-place slot comes later rides two
        // remediation events), the series carries one sample per group,
        // and the integral is bounded by crit × window × accounted VMs.
        assert!(r.exposure_vms >= c.vm_count());
        assert_eq!(r.exposure.count, plan.groups.len() as u64);
        assert!(r.exposure_vm_secs > 0.0);
        let cap = 0.8 * (7 * 24 * 3600) as f64 * r.exposure_vms as f64;
        assert!(r.exposure_vm_secs < cap);
        assert!(r.render().contains("exposure_vms="));
        // Later groups finish later on the campaign clock, so the last
        // group's per-VM sample is the campaign total at its criticality.
        assert!(r.exposure.min <= r.exposure.max);
        assert!((r.exposure.max - 0.8 * r.total.as_secs_f64()).abs() < 1e-6);
        for shards in [2usize, 5, 11] {
            for workers in [1usize, 4] {
                let s = execute_sharded_with(
                    &c,
                    &plan,
                    &cfg,
                    &FaultPlan::disarmed(),
                    shards,
                    &WorkerPool::new(workers),
                );
                assert_eq!(s.render(), r.render(), "shards={shards} workers={workers}");
            }
        }
    }

    #[test]
    fn excluded_hosts_accrue_the_full_window() {
        // A host dropped from the plan strands its VMs on the vulnerable
        // hypervisor: each must accrue criticality × the whole window.
        let c = Cluster::paper_testbed(100, 42);
        let plan = plan_upgrade(&c, 2).unwrap();
        let window = SimDuration::from_secs(7 * 24 * 3600);
        let cfg = ExecConfig {
            max_host_retries: 0,
            exposure: Some(ExposureExecConfig {
                criticality: 1.0,
                window,
            }),
            ..ExecConfig::default()
        };
        let faults = FaultPlan::new(0xe4_05);
        faults.arm(InjectionPoint::HostFailure, 1.0, 1);
        let r = execute_sharded_with(&c, &plan, &cfg, &faults, 1, &WorkerPool::serial());
        assert_eq!(r.hosts_excluded, 1);
        // The excluded host's VMs dominate the integral: their share is
        // window seconds each, dwarfing the seconds-scale campaign.
        let full_window_vms = (r.exposure_vm_secs / window.as_secs_f64()).round() as usize;
        assert!(full_window_vms >= 1, "integral {:?}", r.exposure_vm_secs);
        assert!(r.render().contains("exposure_vms="));
    }

    #[test]
    fn inplace_upgrades_take_seconds_each() {
        let c = Cluster::paper_testbed(100, 42);
        let plan = plan_upgrade(&c, 2).unwrap();
        let r = execute(&c, &plan, &ExecConfig::default());
        // "hypervisor host upgrades using InPlaceTP take only seconds"
        let per_group = r.total.as_secs_f64() / plan.groups.len() as f64;
        assert!(per_group < 30.0, "per-group upgrade = {per_group}s");
        assert_eq!(r.migrations, 0);
    }
}
