//! The pre-copy migration engine with UISR proxies.

use std::sync::{Arc, Mutex, MutexGuard};

use hypertp_core::{HtpError, Hypervisor, HypervisorKind, VmConfig, VmId};
use hypertp_machine::{Extent, Gfn, Machine, Mfn, PAGE_SIZE};
use hypertp_sim::fault::{FaultPlan, InjectionPoint, RecoveryAction};
use hypertp_sim::{CostModel, SimDuration, SimTime, WorkerPool};

use crate::control::{
    dirtied_pages, predict_migration, FleetOrder, FleetPolicy, FleetVm, LinkContention,
    MigrationPrediction, PrecopyController, PredictInput, RoundModel, VmSloOutcome,
    UISR_BYTES_ALLOWANCE,
};
use crate::framing::{reserve_doubling, FrameRing};
use crate::network::{FrameKind, Link, WireStats};
use crate::proxy::{RemoteDest, PART_PAGES};
use crate::wire::TransferCache;

/// Extra one-way delay modelled for an injected link latency spike
/// (transient congestion); the engine absorbs it into the round time.
const LATENCY_SPIKE: SimDuration = SimDuration::from_millis(150);

/// Base backoff after a link failure; doubles on each consecutive retry
/// of the same round (exponential backoff).
const RETRY_BACKOFF: SimDuration = SimDuration::from_millis(50);

/// Exponential backoff for retry `attempt` (1-based):
/// `RETRY_BACKOFF << (attempt-1)`, capped at 16 doublings so the shift
/// cannot overflow.
fn backoff_delay(attempt: u32) -> SimDuration {
    let doublings = attempt.saturating_sub(1).min(16);
    SimDuration::from_nanos(RETRY_BACKOFF.as_nanos().saturating_mul(1u64 << doublings))
}

/// The pages one round sends, in order: round 0's every mapped gfn, read
/// off the source memory map a part at a time, or a later round's dirty
/// set.
#[derive(Debug, Clone, Copy)]
enum RoundPages<'a> {
    Map(&'a [(Gfn, Extent)]),
    Dirty(&'a [Gfn]),
}

impl<'a> RoundPages<'a> {
    fn len(self) -> u64 {
        match self {
            RoundPages::Map(map) => map.iter().map(|(_, e)| e.pages()).sum(),
            RoundPages::Dirty(gfns) => gfns.len() as u64,
        }
    }

    fn last(self) -> Option<Gfn> {
        match self {
            RoundPages::Map(map) => map.last().map(|&(g, e)| Gfn(g.0 + e.pages() - 1)),
            RoundPages::Dirty(gfns) => gfns.last().copied(),
        }
    }
}

/// The stretches of the gfns `gfn..gfn + pages` in a gfn-sorted memory
/// map, in gfn order: `(first gfn, Some(first frame), pages)` for a
/// stretch one extent backs, `(gfn, None, 1)` for a gfn the map does not
/// cover. The two maps of a migration need not share extent boundaries,
/// so the walk finds, for each stretch, the extent holding its first gfn.
fn map_runs(
    map: &[(Gfn, Extent)],
    gfn: u64,
    pages: u64,
) -> impl Iterator<Item = (u64, Option<Mfn>, u64)> + '_ {
    let (mut at, end) = (gfn, gfn + pages);
    std::iter::from_fn(move || {
        if at >= end {
            return None;
        }
        let k = map.partition_point(|&(g, d)| g.0 + d.pages() <= at);
        let run = match map.get(k).filter(|(g, _)| g.0 <= at) {
            Some(&(g, d)) => {
                let off = at - g.0;
                (at, Some(d.base + off), (d.pages() - off).min(end - at))
            }
            None => (at, None, 1),
        };
        at += run.2;
        Some(run)
    })
}

/// A VM's memory map sorted by gfn, as [`map_runs`] walks it.
fn sorted_map(hv: &dyn Hypervisor, id: VmId) -> Result<Vec<(Gfn, Extent)>, HtpError> {
    let mut map = hv.guest_memory_map(id)?;
    map.sort_unstable_by_key(|&(g, _)| g.0);
    Ok(map)
}

/// The error a destination that disagrees with the source raises.
pub(crate) fn integrity(vm_name: &str) -> HtpError {
    HtpError::IntegrityViolation {
        vm_name: vm_name.to_string(),
    }
}

/// Where [`MigrationTp::migrate_data`] lands a VM: the two destination
/// kinds of the one pre-copy driver.
pub(crate) enum Dest<'a> {
    /// The destination machine in this process, under either
    /// [`WireMode`]; verified by reading both sides
    /// ([`MigrationConfig::verify_contents`]).
    Local(LocalDest<'a>),
    /// A [`crate::DestProxy`] across a transport: always content-aware
    /// (the frame ring is its wire format), verified by the `DoneAck`
    /// checksum.
    Remote(RemoteDest<'a>),
}

/// The destination machine of a [`Dest::Local`] and its incoming VM.
pub(crate) struct LocalDest<'a> {
    machine: &'a mut Machine,
    hv: &'a mut dyn Hypervisor,
    /// The prepared incoming shell.
    id: VmId,
    /// Its memory map, sorted by gfn and fetched once: round 0 reads the
    /// current words through it.
    map: Vec<(Gfn, Extent)>,
}

impl<'a> Dest<'a> {
    /// The local destination `id` on `hv`.
    pub(crate) fn local(
        machine: &'a mut Machine,
        hv: &'a mut dyn Hypervisor,
        id: VmId,
    ) -> Result<Self, HtpError> {
        let map = sorted_map(&*hv, id)?;
        Ok(Dest::Local(LocalDest {
            machine,
            hv,
            id,
            map,
        }))
    }

    fn kind(&self) -> HypervisorKind {
        match self {
            Dest::Local(l) => l.hv.kind(),
            Dest::Remote(r) => r.kind,
        }
    }

    /// Hands the destination a UISR blob: the restore's compatibility
    /// warnings, or `None` when its decode rejected the blob.
    fn deliver_uisr(&mut self, blob: &[u8]) -> Result<Option<Vec<String>>, HtpError> {
        match self {
            Dest::Local(l) => match hypertp_uisr::decode(blob) {
                Ok(vm) => Ok(Some(l.hv.restore_uisr(l.machine, l.id, &vm)?.warnings)),
                Err(_) => Ok(None),
            },
            Dest::Remote(r) => Ok(r.send_uisr(blob)?.then(Vec::new)),
        }
    }
}

/// How guest pages are represented on the migration wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireMode {
    /// Legacy path: every page ships as a full raw payload. This is the
    /// paper-faithful accounting used by the fig. 11–13 reproductions and
    /// the pinned timing tests, so it stays the default.
    #[default]
    Raw,
    /// Content-aware path (PR 3): zero-page elision, digest-keyed dedup
    /// across rounds and VMs, and XOR+RLE deltas for re-dirtied pages,
    /// with per-kind accounting in [`MigrationReport::wire`].
    ContentAware,
}

impl WireMode {
    /// Stable short name used in logs and JSON.
    pub fn name(self) -> &'static str {
        match self {
            WireMode::Raw => "raw",
            WireMode::ContentAware => "content_aware",
        }
    }
}

/// Pre-copy tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationConfig {
    /// The link between source and destination.
    pub link: Link,
    /// Maximum pre-copy rounds before forcing stop-and-copy.
    pub max_rounds: u32,
    /// Go to stop-and-copy once a round's dirty set is at most this many
    /// pages.
    pub stop_threshold_pages: u64,
    /// Guest write rate while migrating, in pages/second (drives pre-copy
    /// convergence; idle VMs in §5.2 have a near-zero rate).
    pub dirty_rate_pages_per_sec: f64,
    /// After the stop-and-copy set lands on a local destination, compare
    /// its guest memory with the paused source's, walking both sides'
    /// memory-map extents (one read of each guest's RAM). A remote
    /// destination is verified by its `DoneAck` checksum instead.
    pub verify_contents: bool,
    /// Maximum consecutive link-failure retries per round before the
    /// migration is abandoned with [`HtpError::LinkFailure`].
    pub max_link_retries: u32,
    /// Wire representation of guest pages (raw or content-aware).
    pub wire_mode: WireMode,
    /// Target ceiling for VM downtime. When set, the adaptive controller
    /// replaces [`MigrationConfig::stop_threshold_pages`] with the budget
    /// converted to pages at the *observed* effective throughput and
    /// per-page wire cost (see [`crate::control::PrecopyController`]).
    /// `None` (the default) keeps the static threshold and the pinned
    /// §5.2 timings byte-identical.
    pub downtime_budget: Option<SimDuration>,
    /// Throttle the guest when pre-copy is not converging (QEMU-style
    /// auto-converge). Off by default: without a
    /// [`MigrationConfig::downtime_budget`] the adaptive controller then
    /// stays disabled.
    pub auto_converge: bool,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            link: Link::gigabit(),
            max_rounds: 30,
            stop_threshold_pages: 64,
            dirty_rate_pages_per_sec: 10.0,
            verify_contents: false,
            max_link_retries: 4,
            wire_mode: WireMode::Raw,
            downtime_budget: None,
            auto_converge: false,
        }
    }
}

/// Reusable per-round buffers of the zero-copy wire path, shared by every
/// clone of an engine (like the [`TransferCache`]): `migrate_many` and
/// `migrate_fleet` run their data phases sequentially on the simulated
/// timeline, so one set of buffers serves the whole fleet and the
/// allocator drops out of the hot path after the first round warms them.
#[derive(Debug, Default)]
pub struct EngineScratch {
    round: Mutex<RoundScratch>,
    stats: Mutex<ScratchStats>,
}

impl EngineScratch {
    pub(crate) fn round(&self) -> MutexGuard<'_, RoundScratch> {
        self.round.lock().expect("engine scratch poisoned")
    }

    fn stats(&self) -> MutexGuard<'_, ScratchStats> {
        self.stats.lock().expect("engine scratch stats poisoned")
    }
}

/// The buffers themselves, cleared and refilled per round, never shrunk.
/// The ring and the gfn, gather and probe vectors hold one part of a
/// round ([`PART_PAGES`] pages) whatever the guest's size; `writes` holds
/// the pages a round changes on a local destination.
#[derive(Debug, Default)]
pub(crate) struct RoundScratch {
    /// Serialized frames of the part in flight; its frame count spans the
    /// round.
    ring: FrameRing,
    /// The part's gfns, in round order.
    gfns: Vec<Gfn>,
    /// Source content words of the part's gfns.
    words: Vec<u64>,
    /// A local destination's current words at the part's gfns (write
    /// elision and delta bases).
    current: Vec<u64>,
    /// The round's changed pages on a local destination, landed with one
    /// [`Hypervisor::write_guest_many`] once the round is accepted.
    writes: Vec<(Gfn, u64)>,
    /// The round's wire accounting, merged into the report once the round
    /// is accepted.
    stats: WireStats,
}

impl RoundScratch {
    /// Capacities of the vectors; a change is a growth event.
    fn capacities(&self) -> [usize; 4] {
        [
            self.gfns.capacity(),
            self.words.capacity(),
            self.current.capacity(),
            self.writes.capacity(),
        ]
    }
}

/// Observability counters for the engine's reusable wire-path buffers —
/// the allocation-regression probe: after the first migration warms the
/// buffers, `grows` must stay flat across further same-shape migrations.
///
/// Deliberately *not* part of [`WireStats`]: reports are compared for
/// equality across worker counts and transports, and capacity growth is
/// an implementation detail, not wire accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Rounds encoded, in either wire mode.
    pub rounds: u64,
    /// Capacity-growth events across the ring and every scratch vector.
    pub grows: u64,
    /// Current ring backing capacity, bytes.
    pub ring_capacity: u64,
    /// Largest part the ring ever held, bytes.
    pub ring_high_water: u64,
}

/// Statistics of one pre-copy round, including the adaptive controller's
/// per-round telemetry (estimates are recorded even when the controller
/// is inactive, so `perf_smoke`/`wire_smoke` can plot trajectories for
/// default-config runs too).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStats {
    /// Round number (0 = full copy).
    pub round: u32,
    /// Pages transferred.
    pub pages: u64,
    /// Simulated duration of the round.
    pub duration: SimDuration,
    /// Bytes this round put on the wire (raw payloads or frames).
    pub wire_bytes: u64,
    /// Pages the guest dirtied while the round ran (after throttling).
    pub dirtied: u64,
    /// EWMA dirty-rate estimate after this round, pages/second.
    pub dirty_rate_est: f64,
    /// EWMA drain-rate estimate after this round, pages/second.
    pub drain_rate_est: f64,
    /// EWMA effective-throughput estimate after this round, bytes/second.
    pub throughput_est: f64,
    /// EWMA wire/raw compression-ratio estimate after this round.
    pub compression_est: f64,
    /// Stop threshold (pages) in force for the stop check after this
    /// round — the static threshold, or the downtime budget converted.
    pub stop_threshold: u64,
    /// Guest dirty-rate multiplier applied during this round (1.0 =
    /// unthrottled).
    pub throttle: f64,
}

/// Result of one VM migration.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// Migrated VM's name.
    pub vm_name: String,
    /// Instant the migration started.
    pub start: SimTime,
    /// Per-round statistics.
    pub rounds: Vec<RoundStats>,
    /// VM downtime (pause on source → resume on destination, including
    /// any destination queueing).
    pub downtime: SimDuration,
    /// Total migration time.
    pub total: SimDuration,
    /// Guest page bytes sent. Under [`WireMode::Raw`] this is the raw
    /// page payload; under [`WireMode::ContentAware`] it is the bytes
    /// actually put on the wire (frames + payloads).
    pub bytes_sent: u64,
    /// Encoded UISR bytes sent through the proxies.
    pub uisr_bytes: u64,
    /// Per-frame-kind wire accounting. All zero under [`WireMode::Raw`].
    pub wire: WireStats,
    /// Pages in the final stop-and-copy set.
    pub stop_pages: u64,
    /// True when the non-convergence detector forced the stop-and-copy
    /// before the dirty set shrank under the threshold.
    pub forced_stop: bool,
    /// Guest throttle in force at pause time (1.0 = never throttled).
    pub final_throttle: f64,
    /// Compatibility warnings from the destination proxy.
    pub warnings: Vec<String>,
}

impl MigrationReport {
    /// Bytes the content-aware wire path kept off the link (0 when the
    /// migration ran raw).
    pub fn wire_bytes_saved(&self) -> u64 {
        self.wire.saved_bytes()
    }
}

/// Outcome of the data phase, before scheduling adjustments.
pub(crate) struct DataPhase {
    pub(crate) report: MigrationReport,
    pub(crate) precopy: SimDuration,
    pub(crate) stop_copy: SimDuration,
}

/// The MigrationTP engine.
#[derive(Debug, Clone, Default)]
pub struct MigrationTp {
    /// Cost model for CPU-side costs and activation.
    pub cost: CostModel,
    /// Pre-copy configuration.
    pub config: MigrationConfig,
    /// Worker pool. Defaults to [`WorkerPool::from_env`]. The engine
    /// schedules nothing on it: rounds and the cut-over content
    /// verification ([`MigrationConfig::verify_contents`]) run on the
    /// calling thread, so reports are identical for any worker count.
    pub pool: WorkerPool,
    /// Fault plan consulted at the engine's injection points (link drop,
    /// latency spike, truncated page, UISR corruption). Defaults to a
    /// disarmed plan that never fires.
    pub faults: FaultPlan,
    /// Destination-synchronised dedup/delta cache used by
    /// [`WireMode::ContentAware`]. Clones of the engine share it, so
    /// [`migrate_many`] dedups template content *across* VMs.
    pub cache: TransferCache,
    /// Reusable wire-path buffers (frame ring, gather/digest/probe
    /// vectors). Shared across engine clones, reused across rounds and
    /// VMs — see [`EngineScratch`].
    pub scratch: Arc<EngineScratch>,
}

impl MigrationTp {
    /// Creates an engine with defaults.
    pub fn new() -> Self {
        MigrationTp::default()
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: MigrationConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the worker pool.
    pub fn with_pool(mut self, pool: WorkerPool) -> Self {
        self.pool = pool;
        self
    }

    /// Installs a fault plan (chaos testing). All engine clones made from
    /// this one share the plan's fault log.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Snapshot of the reusable-buffer counters (allocation probe).
    pub fn scratch_stats(&self) -> ScratchStats {
        let mut s = *self.scratch.stats();
        let round = self.scratch.round();
        s.grows += round.ring.grows();
        s.ring_capacity = round.ring.capacity() as u64;
        s.ring_high_water = round.ring.high_water() as u64;
        s
    }

    /// Migrates one VM from `src_hv` on `src_machine` to `dst_hv` on
    /// `dst_machine`, advancing the source clock through the whole
    /// migration. The source VM is destroyed on success, as in a normal
    /// live migration. A fleet of one ([`migrate_fleet`]).
    pub fn migrate(
        &self,
        src_machine: &mut Machine,
        src_hv: &mut dyn Hypervisor,
        src_id: VmId,
        dst_machine: &mut Machine,
        dst_hv: &mut dyn Hypervisor,
    ) -> Result<MigrationReport, HtpError> {
        let fleet = migrate_fleet(
            self,
            src_machine,
            src_hv,
            &[FleetVm::new(src_id)],
            dst_machine,
            dst_hv,
            FleetPolicy::default(),
        )?;
        Ok(fleet.reports.into_iter().next().expect("one VM"))
    }

    /// Activation on a `dst_kind` host plus a conservative UISR transfer:
    /// the stop-and-copy cost no residual page count shrinks.
    fn stop_fixed(&self, dst_kind: HypervisorKind, vcpus: u32, sharers: u32) -> SimDuration {
        self.cost.activate(dst_kind.boot_target(), vcpus)
            + self.config.link.transfer(UISR_BYTES_ALLOWANCE, sharers)
    }

    /// The pre-copy driver — the only round loop, for both destination
    /// kinds: transfers every page and the state of `src_id` (configured
    /// `cfg`) into `dst` and computes durations, without advancing clocks
    /// or cutting over (the caller schedules). `sharers` concurrent
    /// streams divide the link; `dirty_rate_override` replaces the
    /// config's dirty rate for this VM ([`FleetVm::dirty_rate`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn migrate_data(
        &self,
        src_machine: &mut Machine,
        src_hv: &mut dyn Hypervisor,
        src_id: VmId,
        cfg: &VmConfig,
        dst: &mut Dest<'_>,
        sharers: u32,
        dirty_rate_override: Option<f64>,
    ) -> Result<DataPhase, HtpError> {
        let start = src_machine.clock().now();
        src_hv.enable_dirty_log(src_id)?;

        let model = RoundModel {
            link: self.config.link,
            sharers,
            perf: src_machine.spec().perf(),
            ghz_s_per_page: self.cost.migrate_ghz_s_per_page,
            round_overhead_s: self.cost.migrate_round_overhead_s,
        };
        let mut rounds = Vec::new();
        let mut bytes_sent = 0u64;
        let mut precopy = SimDuration::ZERO;
        let mut wire = WireStats::new();
        let cache_before = self.cache.stats();
        let dirty_rate = dirty_rate_override.unwrap_or(self.config.dirty_rate_pages_per_sec);
        let mut controller = PrecopyController::new(
            &self.config,
            sharers,
            self.stop_fixed(dst.kind(), cfg.vcpus, sharers),
        );

        // Round 0: full copy of every mapped page. The map lives on for
        // the cut-over verification.
        let src_map = src_hv.guest_memory_map(src_id)?;
        let mut dirty_set: Option<Vec<Gfn>> = None;
        let mut round = 0u32;
        let stop_set = loop {
            let to_send = dirty_set
                .as_deref()
                .map_or(RoundPages::Map(&src_map), RoundPages::Dirty);
            let pages = to_send.len();
            let outcome = self.send_round(
                src_machine,
                src_hv,
                src_id,
                dst,
                to_send,
                round,
                &model,
                &cfg.name,
                &mut wire,
            )?;
            let duration = outcome.duration;
            bytes_sent += outcome.bytes_sent;
            precopy += duration;
            // The guest keeps running and dirtying pages during the round
            // (scaled by the controller's auto-converge throttle, 1.0 when
            // the controller is inactive).
            let dirtied = dirtied_pages(dirty_rate * controller.throttle(), duration, cfg.pages());
            if dirtied > 0 {
                src_hv.guest_tick(src_machine, src_id, dirtied)?;
            }
            controller.observe_round(
                pages,
                outcome.bytes_sent,
                outcome.transfer,
                duration,
                dirtied,
            );
            if outcome.drops > 0 && controller.active() {
                // The drop invalidated what the estimators were measuring
                // (the retries and backoff are not steady-state signal):
                // restart the estimate from the next clean round.
                controller.reset_estimators();
                self.faults.record_recovery(
                    InjectionPoint::LinkDrop,
                    RecoveryAction::ResetController,
                    &format!(
                        "{} round {round}: estimators reset after {} drop(s)",
                        cfg.name, outcome.drops
                    ),
                );
            }
            let stop_threshold = controller.stop_threshold();
            rounds.push(RoundStats {
                round,
                pages,
                duration,
                wire_bytes: outcome.bytes_sent,
                dirtied,
                dirty_rate_est: controller.dirty_rate_est(),
                drain_rate_est: controller.drain_rate_est(),
                throughput_est: controller.throughput_est(),
                compression_est: controller.compression_est(),
                stop_threshold,
                throttle: controller.throttle(),
            });
            round += 1;
            let dirty = src_hv.collect_dirty(src_id)?;
            if dirty.len() as u64 <= stop_threshold
                || round >= self.config.max_rounds
                || controller.force_stop()
            {
                break dirty;
            }
            dirty_set = Some(dirty);
        };

        // Stop-and-copy: quiesce devices (§4.2.3 — the guest is still
        // running, so this extends pre-copy, not downtime), then pause and
        // send the residual dirty set (no fault is injected into it),
        // translate the VMi State through the UISR proxies, and activate
        // on the destination.
        precopy += src_hv.notify_prepare_transplant(src_machine, src_id)?;
        src_hv.pause_vm(src_id)?;
        let final_bytes = self.encode_round(
            src_machine,
            src_hv,
            src_id,
            dst,
            round,
            RoundPages::Dirty(&stop_set),
            &cfg.name,
        )?;
        if !self.deliver_round(dst, round, false, &mut wire)? {
            self.rollback_round();
            return Err(integrity(&cfg.name));
        }
        self.commit_round();
        bytes_sent += final_bytes;

        let uisr = src_hv.save_uisr(src_machine, src_id)?; // Source proxy.
        let blob = hypertp_uisr::encode(&uisr);
        // UISR corruption: the blob is damaged in flight, the destination
        // proxy's decode rejects it, and the source re-sends. The codec's
        // totality (no panic on arbitrary bytes) is what makes this a
        // recoverable fault rather than a crash.
        let mut uisr_sends = 1u64;
        if self
            .faults
            .should_inject(InjectionPoint::UisrCorruption, &cfg.name)
        {
            let mut damaged = blob.clone();
            damaged[0] ^= 0xff; // magic byte flipped in flight
            let rejected = dst.deliver_uisr(&damaged)?.is_none();
            debug_assert!(rejected, "corrupted magic must not decode");
            if rejected {
                uisr_sends = 2;
                self.faults.record_recovery(
                    InjectionPoint::UisrCorruption,
                    RecoveryAction::ResentUisr,
                    &format!(
                        "{}: decode rejected corrupted blob; re-sent {} bytes",
                        cfg.name,
                        blob.len()
                    ),
                );
            }
        }
        // Destination proxy.
        let warnings = dst
            .deliver_uisr(&blob)?
            .ok_or_else(|| integrity(&cfg.name))?;

        let stop_copy = model.stop_copy(
            final_bytes,
            model.transfer(blob.len() as u64 * uisr_sends)
                + self.cost.activate(dst.kind().boot_target(), cfg.vcpus),
        );

        // A remote destination is verified by its `DoneAck` checksum
        // instead, which the proxy exchanges at cut-over.
        if let (true, Dest::Local(l)) = (self.config.verify_contents, &*dst) {
            if !same_contents(src_machine, &src_map, l.machine, &*l.hv, l.id)? {
                return Err(integrity(&cfg.name));
            }
        }

        if self.config.wire_mode == WireMode::ContentAware {
            // Snapshot the shared cache into the report: occupancy and
            // capacity as of now, counters as deltas over this migration
            // (the cache is shared across engine clones, so absolute
            // counters would double-count in merged fleet stats).
            let cs = self.cache.stats();
            wire.record_cache(
                cs.occupancy,
                cs.capacity,
                cs.evictions - cache_before.evictions,
                cs.dup_hits - cache_before.dup_hits,
                cs.dup_lookups - cache_before.dup_lookups,
            );
        }

        let report = MigrationReport {
            vm_name: cfg.name.clone(),
            start,
            rounds,
            downtime: stop_copy,
            total: precopy + stop_copy,
            bytes_sent,
            uisr_bytes: blob.len() as u64,
            wire,
            stop_pages: stop_set.len() as u64,
            forced_stop: controller.force_stop(),
            final_throttle: controller.throttle(),
            warnings,
        };
        Ok(DataPhase {
            report,
            precopy,
            stop_copy,
        })
    }

    /// Sends one pre-copy round and owns the round fault policy for both
    /// wire modes and both destination kinds: a link drop retries the
    /// round with exponential backoff (earlier rounds stay acked, so the
    /// migration resumes rather than restarts) until the retry budget is
    /// spent, first rolling a content-aware round's cache journal and
    /// frame ring back so no `Dup` references content the destination lost
    /// with the round; a latency spike stretches the round; a truncated
    /// page is re-sent — alone to a local destination, which echoes it
    /// back, with its whole round to a remote one, which naks.
    #[allow(clippy::too_many_arguments)]
    fn send_round(
        &self,
        src_machine: &Machine,
        src_hv: &dyn Hypervisor,
        src_id: VmId,
        dst: &mut Dest<'_>,
        to_send: RoundPages<'_>,
        round: u32,
        model: &RoundModel,
        vm_name: &str,
        wire: &mut WireStats,
    ) -> Result<RoundOutcome, HtpError> {
        let content_aware = self.config.wire_mode == WireMode::ContentAware;
        let mut duration = SimDuration::ZERO;
        let mut drops = 0u32;
        let mut naks = 0u32;
        let mut lost_bytes = 0u64;
        let round_bytes = loop {
            let encoded =
                self.encode_round(src_machine, src_hv, src_id, dst, round, to_send, vm_name)?;
            if self.faults.should_inject(
                InjectionPoint::LinkDrop,
                &format!("{vm_name} round {round}"),
            ) {
                // The round died on the wire: nothing it shipped was acked.
                if content_aware {
                    self.rollback_round();
                    self.faults.record_recovery(
                        InjectionPoint::LinkDrop,
                        RecoveryAction::InvalidatedWireCache,
                        &format!("{vm_name} round {round}: rolled back dedup/delta journal"),
                    );
                }
                drops += 1;
                if drops > self.config.max_link_retries {
                    self.faults.record_recovery(
                        InjectionPoint::LinkDrop,
                        RecoveryAction::GaveUp,
                        &format!(
                            "{vm_name} round {round}: {} retries exhausted",
                            self.config.max_link_retries
                        ),
                    );
                    // The source VM keeps running untouched; only the
                    // half-built destination shell is torn down — and with
                    // it every page the wire cache believed the destination
                    // held, so the VM's delta bases (and, conservatively,
                    // the dedup map) go too.
                    if content_aware {
                        self.cache.forget_vm(src_id.0);
                    }
                    if let Dest::Local(l) = dst {
                        l.hv.destroy_vm(l.machine, l.id)?;
                    }
                    return Err(HtpError::LinkFailure {
                        vm_name: vm_name.to_string(),
                        retries: self.config.max_link_retries,
                    });
                }
                let wait = backoff_delay(drops);
                // Half the round was on the wire before the drop, plus the
                // backoff before reconnecting.
                duration += model.transfer(encoded / 2) + wait;
                self.faults.record_recovery(
                    InjectionPoint::LinkDrop,
                    RecoveryAction::RetriedWithBackoff,
                    &format!(
                        "{vm_name} round {round} attempt {drops} backoff {:.0}ms",
                        wait.as_millis_f64()
                    ),
                );
                if let Dest::Remote(r) = dst {
                    r.resume(round)?;
                }
                continue;
            }
            // A frame truncated in flight costs a remote destination the
            // whole attempt (a local one catches it page by page, below).
            let truncate = matches!(dst, Dest::Remote(_))
                && self.truncated_page(vm_name, round, to_send).is_some();
            if self.deliver_round(dst, round, truncate, wire)? {
                break encoded;
            }
            self.rollback_round();
            naks += 1;
            if naks > self.config.max_link_retries {
                return Err(integrity(vm_name));
            }
            // The lost attempt's bytes were on the wire.
            lost_bytes += encoded;
            duration += model.transfer(encoded);
            self.faults.record_recovery(
                InjectionPoint::TruncatedPage,
                RecoveryAction::ResentPages,
                &format!(
                    "{vm_name} round {round}: destination nak, re-sent {} page(s)",
                    to_send.len()
                ),
            );
        };
        if drops > 0 {
            self.faults.record_recovery(
                InjectionPoint::LinkDrop,
                RecoveryAction::ResumedFromRound,
                &format!("{vm_name} resumed at round {round} after {drops} drop(s)"),
            );
        }
        let (transfer, round_time) = model.round(round_bytes, to_send.len());
        duration += round_time;
        let mut bytes_sent = round_bytes + lost_bytes;

        // Latency spike: transient congestion stretches the round; the
        // engine absorbs the extra time rather than failing over.
        if self.faults.should_inject(
            InjectionPoint::LinkLatencySpike,
            &format!("{vm_name} round {round}"),
        ) {
            duration += LATENCY_SPIKE;
            self.faults.record_recovery(
                InjectionPoint::LinkLatencySpike,
                RecoveryAction::AbsorbedLatency,
                &format!(
                    "{vm_name} round {round}: +{:.0}ms",
                    LATENCY_SPIKE.as_millis_f64()
                ),
            );
        }

        // Truncated page on a local destination: one page of this round
        // lands corrupted. The destination echoes it back; the mismatch
        // triggers a single-page re-send.
        if let Dest::Local(l) = dst {
            if let Some(bad_gfn) = self.truncated_page(vm_name, round, to_send) {
                let good = src_hv.read_guest(src_machine, src_id, bad_gfn)?;
                l.hv.write_guest(l.machine, l.id, bad_gfn, !good)?;
                let echoed = l.hv.read_guest(l.machine, l.id, bad_gfn)?;
                debug_assert_ne!(echoed, good, "truncation must be observable");
                if echoed != good {
                    let (word, resent_bytes, resent_as) =
                        self.resend_page(src_id, bad_gfn, good, echoed, vm_name, wire)?;
                    l.hv.write_guest(l.machine, l.id, bad_gfn, word)?;
                    duration += model.transfer(2 * resent_bytes);
                    bytes_sent += resent_bytes;
                    self.faults.record_recovery(
                        InjectionPoint::TruncatedPage,
                        RecoveryAction::ResentPages,
                        &format!("{vm_name} round {round}: re-sent {resent_as}"),
                    );
                }
            }
        }

        self.commit_round();
        Ok(RoundOutcome {
            duration,
            bytes_sent,
            transfer,
            drops,
        })
    }

    /// Consults the truncated-page fault for a round: the round's last
    /// page when it is damaged in flight.
    fn truncated_page(&self, vm_name: &str, round: u32, to_send: RoundPages<'_>) -> Option<Gfn> {
        to_send.last().filter(|g| {
            self.faults.should_inject(
                InjectionPoint::TruncatedPage,
                &format!("{vm_name} round {round} gfn {}", g.0),
            )
        })
    }

    /// Destination half of a round, after [`MigrationTp::encode_round`]:
    /// returns whether the destination accepted the round. A local one
    /// always does, and lands the round's changed pages with one
    /// [`Hypervisor::write_guest_many`], the round's first write to its
    /// guest memory. A remote one acks or naks the round's closing part,
    /// sent with its last frame corrupted if `truncate`. An accepted
    /// round's wire accounting joins `wire`.
    fn deliver_round(
        &self,
        dst: &mut Dest<'_>,
        round: u32,
        truncate: bool,
        wire: &mut WireStats,
    ) -> Result<bool, HtpError> {
        let s = self.scratch.round();
        match dst {
            Dest::Local(l) => {
                l.hv.write_guest_many(l.machine, l.id, &s.writes)
                    .inspect_err(|_| self.cache.rollback_round())?
            }
            Dest::Remote(r) => {
                if !r.send_round(&s.ring, round, truncate)? {
                    return Ok(false);
                }
            }
        }
        wire.merge(&s.stats);
        Ok(true)
    }

    /// Re-sends the one page whose echo came back as `echoed` instead of
    /// `good`, as a part of one page, after the round's last part has left
    /// the ring: a content-aware re-send is encoded into the ring, tallied
    /// into `wire`, and resolved against `echoed` like any local part
    /// ([`MigrationTp::resolve_part`]). The cache by now holds the page's
    /// content, so the correction usually ships as a digest-sized `Dup`
    /// frame rather than a full page. Returns the word the destination
    /// reconstructs, the bytes the correction put on the wire and how the
    /// recovery log names it.
    fn resend_page(
        &self,
        src_id: VmId,
        gfn: Gfn,
        good: u64,
        echoed: u64,
        vm_name: &str,
        wire: &mut WireStats,
    ) -> Result<(u64, u64, String), HtpError> {
        let mut s = self.scratch.round();
        let ring = &mut s.ring;
        let (bytes, resent_as) = match self.config.wire_mode {
            WireMode::Raw => (PAGE_SIZE, format!("gfn {}", gfn.0)),
            WireMode::ContentAware => {
                let bytes = self
                    .cache
                    .encode_words_into(src_id.0, &[gfn], &[good], ring, wire);
                let kind = ring.iter().next().map_or("", |view| view.kind.name());
                (bytes, format!("gfn {} as {kind} frame", gfn.0))
            }
        };
        let mut word = echoed;
        let resolved = self.resolve_part(ring, (&[gfn], &[good], &[echoed]), vm_name, |_, w| {
            word = w;
        });
        ring.drain();
        resolved.map(|()| (word, bytes, resent_as))
    }

    /// Resolves a part against a local destination: for each page of
    /// `(gfns, words, current)` — its gfn, the source's word and the
    /// destination's current word — the word the destination lands, taken
    /// as sent in Raw mode and applied from the part's frames in `ring` in
    /// content-aware mode. `changed(gfn, word)` gets each page whose word
    /// changes.
    fn resolve_part(
        &self,
        ring: &FrameRing,
        (gfns, words, current): (&[Gfn], &[u64], &[u64]),
        vm_name: &str,
        mut changed: impl FnMut(Gfn, u64),
    ) -> Result<(), HtpError> {
        let content_aware = self.config.wire_mode == WireMode::ContentAware;
        let mut views = ring.iter();
        for ((&g, &word), &cur) in gfns.iter().zip(words).zip(current) {
            let word = match (content_aware, views.next()) {
                (false, _) => word,
                (true, Some(view)) if view.kind == FrameKind::Zero => 0,
                (true, view) => view
                    .and_then(|view| self.cache.apply_view(&view, cur))
                    .ok_or_else(|| integrity(vm_name))?,
            };
            if word != cur {
                changed(g, word);
            }
        }
        Ok(())
    }

    /// The destination acked the round: whatever the round staged becomes
    /// the state later rounds encode against.
    fn commit_round(&self) {
        if self.config.wire_mode == WireMode::ContentAware {
            self.cache.commit_round();
            self.scratch.round().ring.commit();
        }
    }

    /// The content-aware round died unacked: drop what it staged, so the
    /// next encode runs against what the destination last confirmed.
    fn rollback_round(&self) {
        self.cache.rollback_round();
        self.scratch.round().ring.rollback();
    }

    /// Source half of a round, and the one loop both destinations take it
    /// through: returns the bytes the round puts on the wire. The round's
    /// gfns go in parts of [`PART_PAGES`], each gathered by
    /// [`gather_part`]. A content-aware part is serialized into the shared
    /// scratch ring under one cache lock, which digests each non-zero word
    /// as it classifies it and tallies each frame into the round's
    /// [`WireStats`]; a Raw part ships every page as a full payload (the
    /// paper-faithful accounting). The destination then takes the part. A
    /// remote one takes every part but the last as a `RoundPart` of round
    /// `round` ([`crate::proxy`]), staging it while the next is encoded;
    /// the last closes the round in [`MigrationTp::deliver_round`]. A
    /// local one resolves the part at once against its current words
    /// ([`MigrationTp::resolve_part`]) and keeps the pages that change for
    /// [`MigrationTp::deliver_round`] to land: nothing here writes a destination's guest memory. A
    /// handed-off part leaves the ring, so every buffer but `writes` holds
    /// one part and is reused (no heap allocation once warm). The round's
    /// cache and ring transaction opens before the first gather; a part
    /// that fails rolls it back, otherwise the caller commits or rolls
    /// back.
    #[allow(clippy::too_many_arguments)]
    fn encode_round(
        &self,
        src_machine: &Machine,
        src_hv: &dyn Hypervisor,
        src_id: VmId,
        dst: &mut Dest<'_>,
        round: u32,
        pages: RoundPages<'_>,
        vm_name: &str,
    ) -> Result<u64, HtpError> {
        let content_aware = self.config.wire_mode == WireMode::ContentAware;
        let mut s = self.scratch.round();
        let caps = s.capacities();
        let RoundScratch {
            ring,
            gfns,
            words,
            current,
            writes,
            stats,
        } = &mut *s;
        if content_aware {
            self.cache.begin_round();
        }
        ring.restart();
        ring.begin();
        writes.clear();
        *stats = WireStats::new();
        let total = pages.len();
        let (mut at, mut taken, mut wire_bytes) = (PartCursor::default(), 0u64, 0u64);
        let src = (src_machine, src_hv, src_id);
        while taken < total {
            let handed =
                gather_part(src, &*dst, pages, &mut at, (gfns, words, current)).and_then(|()| {
                    taken += gfns.len() as u64;
                    if content_aware {
                        wire_bytes += self
                            .cache
                            .encode_words_into(src_id.0, gfns, words, ring, stats);
                    } else {
                        wire_bytes += gfns.len() as u64 * PAGE_SIZE;
                    }
                    match &mut *dst {
                        Dest::Remote(r) if taken < total => r.send_part(ring, round)?,
                        Dest::Remote(_) => return Ok(()),
                        Dest::Local(_) => {
                            // Room for the whole part, so the capacity moves
                            // only a part at a time, not with each change.
                            reserve_doubling(writes, writes.len() + gfns.len());
                            let part = (&gfns[..], &words[..], &current[..]);
                            self.resolve_part(ring, part, vm_name, |g, w| writes.push((g, w)))?;
                        }
                    }
                    ring.drain();
                    Ok(())
                });
            if let Err(e) = handed {
                if content_aware {
                    self.cache.rollback_round();
                }
                ring.rollback();
                return Err(e);
            }
        }
        let grown = caps
            .iter()
            .zip(s.capacities())
            .filter(|&(a, b)| *a != b)
            .count();
        let mut st = self.scratch.stats();
        st.rounds += 1;
        st.grows += grown as u64;
        Ok(wire_bytes)
    }
}

/// Where the next part of a round starts: the index of a memory-map extent
/// (round 0) or of a dirty gfn, and the pages of that extent already taken.
#[derive(Debug, Default)]
struct PartCursor {
    k: usize,
    off: u64,
}

/// Gathers the part of `pages` that starts at `at`, at most [`PART_PAGES`]
/// pages, and moves `at` past it: into `(gfns, words, current)`, the
/// part's gfns, the source's words at them and, for a local destination,
/// its current words there. Round 0 takes both sides' words extent by
/// extent, the source's from its memory map and a local destination's
/// through its own ([`map_runs`]), translating no gfn. A dirty round reads
/// both sides through [`Hypervisor::read_guest_into`]. Either way RAM is
/// read through the zero-line summary.
fn gather_part(
    (src_machine, src_hv, src_id): (&Machine, &dyn Hypervisor, VmId),
    dst: &Dest<'_>,
    pages: RoundPages<'_>,
    at: &mut PartCursor,
    (gfns, words, current): (&mut Vec<Gfn>, &mut Vec<u64>, &mut Vec<u64>),
) -> Result<(), HtpError> {
    gfns.clear();
    match pages {
        RoundPages::Map(map) => {
            words.clear();
            current.clear();
            let mut room = PART_PAGES as u64;
            while let (true, Some(&(gfn, e))) = (room > 0, map.get(at.k)) {
                let (first, n) = (gfn.0 + at.off, (e.pages() - at.off).min(room));
                gfns.extend((first..first + n).map(Gfn));
                src_machine
                    .ram()
                    .append_content(e.base + at.off, n, words)?;
                if let Dest::Local(l) = dst {
                    for (g, backing, k) in map_runs(&l.map, first, n) {
                        match backing {
                            Some(mfn) => l.machine.ram().append_content(mfn, k, current)?,
                            None => current.push(l.hv.read_guest(l.machine, l.id, Gfn(g))?),
                        }
                    }
                }
                (room, at.off) = (room - n, at.off + n);
                if at.off == e.pages() {
                    (at.k, at.off) = (at.k + 1, 0);
                }
            }
        }
        RoundPages::Dirty(dirty) => {
            let part = &dirty[at.k..][..PART_PAGES.min(dirty.len() - at.k)];
            gfns.extend_from_slice(part);
            at.k += part.len();
            src_hv.read_guest_into(src_machine, src_id, gfns, words)?;
            if let Dest::Local(l) = dst {
                l.hv.read_guest_into(l.machine, l.id, gfns, current)?;
            }
        }
    }
    Ok(())
}

/// Whether the destination VM `dst_id` holds the source's word at every
/// gfn the source's memory map `src_map` covers — the
/// [`MigrationConfig::verify_contents`] check. Walks the source's extents
/// and, for each, the destination extents over the same gfns
/// ([`map_runs`]), comparing the RAM backing slice by slice; a gfn the
/// destination's map does not cover is read through its hypervisor, which
/// fails as a gather of it would.
fn same_contents(
    src_machine: &Machine,
    src_map: &[(Gfn, Extent)],
    dst_machine: &Machine,
    dst_hv: &dyn Hypervisor,
    dst_id: VmId,
) -> Result<bool, HtpError> {
    let dst_map = sorted_map(dst_hv, dst_id)?;
    let (src_ram, dst_ram) = (src_machine.ram(), dst_machine.ram());
    for &(gfn, e) in src_map {
        let src = src_ram.content_slice(e.base, e.pages())?;
        for (at, backing, n) in map_runs(&dst_map, gfn.0, e.pages()) {
            let words = &src[(at - gfn.0) as usize..][..n as usize];
            let same = match backing {
                Some(mfn) => *words == *dst_ram.content_slice(mfn, n)?,
                None => words[0] == dst_hv.read_guest(dst_machine, dst_id, Gfn(at))?,
            };
            if !same {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Per-round result of [`MigrationTp::send_round`].
struct RoundOutcome {
    /// Simulated duration of the round (transfer + CPU + fault effects).
    duration: SimDuration,
    /// Bytes put on the wire this round (raw payloads, or frames).
    bytes_sent: u64,
    /// Nominal link time of the shipped bytes (excludes fault retries and
    /// backoff) — the controller's effective-throughput sample.
    transfer: SimDuration,
    /// Injected link drops survived by this round.
    drops: u32,
}

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

    /// Actual pre-copy duration of VM `i`: the sum of its round times
    /// (schedule-independent, unlike [`MigrationReport::total`]).
    pub fn actual_precopy(&self, i: usize) -> SimDuration {
        self.reports[i]
            .rounds
            .iter()
            .map(|r| r.duration)
            .sum::<SimDuration>()
    }

    /// Per-VM signed relative error (%) of the admission-time predicted
    /// pre-copy duration against the actual one: positive means the
    /// scheduler over-predicted.
    pub fn precopy_error_pct(&self) -> Vec<f64> {
        (0..self.reports.len())
            .map(|i| {
                let actual = self.actual_precopy(i).as_secs_f64();
                if actual <= 0.0 {
                    return 0.0;
                }
                let predicted = self.admission_predictions[i].precopy.as_secs_f64();
                (predicted - actual) / actual * 100.0
            })
            .collect()
    }

    /// Mean absolute pre-copy prediction error (%), across the fleet.
    pub fn mean_abs_precopy_error_pct(&self) -> f64 {
        let errs = self.precopy_error_pct();
        if errs.is_empty() {
            return 0.0;
        }
        errs.iter().map(|e| e.abs()).sum::<f64>() / errs.len() as f64
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
/// * **Ordering**: [`FleetOrder::Fifo`] admits in input order;
///   [`FleetOrder::ShortestPredictedFirst`] admits by predicted
///   stop-and-copy time ([`predict_migration`]), so small/idle VMs clear
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
    let mut waiting: Vec<usize> = (0..n).collect();
    if policy.order == FleetOrder::ShortestPredictedFirst {
        waiting.sort_by_key(|&i| (predictions[i].stop_copy, i));
    }

    // Run the data phases in admission order (the shared wire cache sees
    // VMs in the same order the link does), assigning each stream to the
    // earliest-free slot. Each entry is (destination VM, phase, start).
    let mut admission = Vec::with_capacity(n);
    let mut phases: Vec<Option<(VmId, DataPhase, SimDuration)>> = (0..n).map(|_| None).collect();
    let mut slot_free = vec![SimDuration::ZERO; slots];
    let mut admission_predictions = predictions.clone();
    while !waiting.is_empty() {
        let next = if policy.order == FleetOrder::SloAware {
            // Least-predicted-harm admission: at each free slot, re-price
            // every waiting VM's migration *at the slot's current time* —
            // the pre-copy prediction contended by the VM's own traffic,
            // priced in violation-seconds by its SLO — and admit the
            // cheapest (predicted stop-and-copy, then input index, break
            // ties: harmless VMs drain in SPDF order). Hot-traffic VMs are
            // pushed back and picked up when the advancing fleet clock
            // reaches their low-QPS window. Work-conserving: a slot never
            // idles waiting for a window.
            let now = slot_free.iter().copied().min().expect("slots >= 1");
            let (_, k, pred) = waiting
                .iter()
                .enumerate()
                .map(|(k, &i)| {
                    let slo = vms[i].slo;
                    let pred = predict(
                        i,
                        slo.map_or(LinkContention::NONE, |s| {
                            LinkContention::new(s.traffic.bps_at(now))
                        }),
                    );
                    let harm = slo.map_or(SimDuration::ZERO, |s| {
                        s.outcome(now, pred.precopy, pred.stop_copy).violation
                    });
                    ((harm, pred.stop_copy, i), k, pred)
                })
                .min_by_key(|&(key, _, _)| key)
                .expect("waiting is non-empty");
            admission_predictions[waiting[k]] = pred;
            k
        } else {
            0
        };
        let i = waiting.remove(next);
        admission.push(i);
        phases[i] = Some(run_fleet_phase(
            tp,
            src_machine,
            src_hv,
            vms[i],
            dst_machine,
            dst_hv,
            sharers,
            &mut slot_free,
        )?);
    }

    // Schedule the receive side: stop-and-copies queue on a sequential
    // receiver in pre-copy completion order (admission order breaks
    // ties, via the stable sort).
    let mut recv_order: Vec<(usize, SimDuration)> = admission
        .iter()
        .map(|&i| {
            let (_, phase, start) = phases[i].as_ref().expect("admitted");
            (i, *start + phase.precopy)
        })
        .collect();
    recv_order.sort_by_key(|&(_, end)| end);
    let mut receiver_free = SimDuration::ZERO;
    let mut makespan = SimDuration::ZERO;
    let mut out: Vec<Option<MigrationReport>> = (0..n).map(|_| None).collect();
    for &(i, precopy_end) in &recv_order {
        let (_, phase, _) = phases[i].as_ref().expect("admitted");
        let (finish, downtime) = if sequential_receive {
            let begin = precopy_end.max(receiver_free);
            let finish = begin + phase.stop_copy;
            receiver_free = finish;
            (finish, finish - precopy_end)
        } else {
            (precopy_end + phase.stop_copy, phase.stop_copy)
        };
        makespan = makespan.max(finish);
        let mut report = phase.report.clone();
        report.downtime = downtime;
        report.total = finish;
        out[i] = Some(report);
    }

    src_machine.clock().advance(makespan);
    dst_machine.clock().advance_to(src_machine.clock().now());
    for (vm, slot) in vms.iter().zip(&phases) {
        let (dst_id, _, _) = slot.as_ref().expect("all scheduled");
        dst_hv.resume_vm(*dst_id)?;
        src_hv.destroy_vm(src_machine, vm.id)?;
    }
    let reports: Vec<MigrationReport> =
        out.into_iter().map(|r| r.expect("all scheduled")).collect();
    // Price every SLO-carrying VM's migration against the schedule it
    // actually got: its start, its (contention-stretched) pre-copy and
    // the real downtime including receiver queuing. The accounting runs
    // under every order — the baseline schedulers are *blind* to the
    // harm, not exempt from it.
    let starts: Vec<SimDuration> = phases
        .iter()
        .map(|p| p.as_ref().expect("all scheduled").2)
        .collect();
    let slo: Vec<Option<VmSloOutcome>> = (0..n)
        .map(|i| {
            vms[i].slo.map(|s| {
                let (_, phase, start) = phases[i].as_ref().expect("all scheduled");
                s.outcome(*start, phase.precopy, reports[i].downtime)
            })
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

/// Runs one fleet member's data phase on the earliest-free slot and
/// advances that slot's clock; returns the destination VM, the phase and
/// its start. Shared by the static (FIFO/SPDF) and
/// [`FleetOrder::SloAware`] admission loops so all schedule identically
/// given the same admission order.
///
/// **Tie-breaking rule**: among equally-early free slots the
/// *lowest-indexed* slot wins — the key is the `(free_time, slot_index)`
/// pair, so the choice is a total order independent of iteration
/// quirks. Identical predicted durations therefore produce identical
/// slot assignments on every run and under every `HYPERTP_WORKERS`
/// setting (the schedule is simulated time; worker count only changes
/// wall-clock). Regression-tested by
/// `equal_duration_fleet_schedule_is_deterministic`.
///
/// A [`FleetVm`] carrying an [`crate::SloVm`] contends its own traffic
/// (sampled at the slot's start instant) against the pre-copy stream:
/// the engine runs the data phase over the contention-scaled link, so
/// round transfers stretch and the controller's estimators observe the
/// stretched reality.
#[allow(clippy::too_many_arguments)]
fn run_fleet_phase(
    tp: &MigrationTp,
    src_machine: &mut Machine,
    src_hv: &mut dyn Hypervisor,
    vm: FleetVm,
    dst_machine: &mut Machine,
    dst_hv: &mut dyn Hypervisor,
    sharers: u32,
    slot_free: &mut [SimDuration],
) -> Result<(VmId, DataPhase, SimDuration), HtpError> {
    let slot = slot_free
        .iter()
        .enumerate()
        .min_by_key(|&(s, &t)| (t, s))
        .map(|(s, _)| s)
        .expect("slots >= 1 when vms is non-empty");
    let start = slot_free[slot];
    let workload_bps = vm.slo.map(|s| s.traffic.bps_at(start)).unwrap_or(0.0);
    let contended_tp;
    let tp = if workload_bps > 0.0 {
        let mut config = tp.config;
        config.link = LinkContention::new(workload_bps).contended(&config.link);
        contended_tp = tp.clone().with_config(config);
        &contended_tp
    } else {
        tp
    };
    let cfg = src_hv.vm_config(vm.id)?.clone();
    let dst_id = dst_hv.prepare_incoming(dst_machine, &cfg)?;
    let mut dst = Dest::local(dst_machine, dst_hv, dst_id)?;
    let phase = tp.migrate_data(
        src_machine,
        src_hv,
        vm.id,
        &cfg,
        &mut dst,
        sharers,
        vm.dirty_rate,
    )?;
    slot_free[slot] = start + phase.precopy;
    Ok((dst_id, phase, start))
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

#[cfg(test)]
mod tests {
    use super::*;
    use hypertp_core::testing::SimpleHv;
    use hypertp_core::VmConfig;
    use hypertp_machine::MachineSpec;
    use hypertp_sim::SimClock;

    fn pair() -> (Machine, Machine) {
        let clock = SimClock::new();
        let mut spec = MachineSpec::m1();
        spec.ram_gb = 4;
        (
            Machine::with_clock(spec.clone(), clock.clone()),
            Machine::with_clock(spec, clock),
        )
    }

    #[test]
    fn migration_preserves_memory_and_state() {
        let (mut src_m, mut dst_m) = pair();
        let mut src = SimpleHv::new(HypervisorKind::Xen);
        let mut dst = SimpleHv::new(HypervisorKind::Kvm);
        let id = src.create_vm(&mut src_m, &VmConfig::small("vm0")).unwrap();
        src.write_guest(&mut src_m, id, Gfn(777), 0xfeed).unwrap();
        src.guest_tick(&mut src_m, id, 100).unwrap();
        let tp = MigrationTp::new().with_config(MigrationConfig {
            verify_contents: true,
            ..MigrationConfig::default()
        });
        let report = tp
            .migrate(&mut src_m, &mut src, id, &mut dst_m, &mut dst)
            .unwrap();
        assert!(src.vm_ids().is_empty(), "source VM destroyed");
        let new_id = dst.find_vm("vm0").unwrap();
        assert_eq!(dst.read_guest(&dst_m, new_id, Gfn(777)).unwrap(), 0xfeed);
        assert_eq!(
            dst.vm_state(new_id).unwrap(),
            hypertp_core::VmState::Running
        );
        assert!(report.rounds[0].pages == 262_144, "full first round");
        assert!(report.bytes_sent >= 1 << 30);
    }

    #[test]
    fn table4_downtime_and_total() {
        // 1 vCPU / 1 GB idle VM over 1 Gbps: total ≈ 9.6 s; downtime
        // ≈ 5 ms to kvmtool, ≈ 134 ms to Xen (27× more).
        let run = |dst_kind: HypervisorKind| {
            let (mut src_m, mut dst_m) = pair();
            let mut src = SimpleHv::new(HypervisorKind::Xen);
            let mut dst = SimpleHv::new(dst_kind);
            let id = src.create_vm(&mut src_m, &VmConfig::small("vm0")).unwrap();
            let tp = MigrationTp::new().with_config(MigrationConfig {
                dirty_rate_pages_per_sec: 1.0, // idle
                ..MigrationConfig::default()
            });
            tp.migrate(&mut src_m, &mut src, id, &mut dst_m, &mut dst)
                .unwrap()
        };
        let to_kvm = run(HypervisorKind::Kvm);
        let total = to_kvm.total.as_secs_f64();
        assert!((9.0..10.5).contains(&total), "total = {total}");
        let dt = to_kvm.downtime.as_millis_f64();
        assert!((3.0..10.0).contains(&dt), "downtime = {dt} ms");

        let to_xen = run(HypervisorKind::Xen);
        let ratio = to_xen.downtime.as_secs_f64() / to_kvm.downtime.as_secs_f64();
        assert!((15.0..35.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn dirty_rate_extends_migration() {
        let run = |rate: f64| {
            let (mut src_m, mut dst_m) = pair();
            let mut src = SimpleHv::new(HypervisorKind::Xen);
            let mut dst = SimpleHv::new(HypervisorKind::Kvm);
            let id = src.create_vm(&mut src_m, &VmConfig::small("vm0")).unwrap();
            let tp = MigrationTp::new().with_config(MigrationConfig {
                dirty_rate_pages_per_sec: rate,
                ..MigrationConfig::default()
            });
            tp.migrate(&mut src_m, &mut src, id, &mut dst_m, &mut dst)
                .unwrap()
        };
        let idle = run(1.0);
        let busy = run(2000.0);
        assert!(busy.rounds.len() > idle.rounds.len());
        assert!(busy.total > idle.total);
        assert!(busy.bytes_sent > idle.bytes_sent);
    }

    #[test]
    fn nonconvergent_guest_hits_round_cap() {
        let (mut src_m, mut dst_m) = pair();
        let mut src = SimpleHv::new(HypervisorKind::Xen);
        let mut dst = SimpleHv::new(HypervisorKind::Kvm);
        let id = src.create_vm(&mut src_m, &VmConfig::small("vm0")).unwrap();
        let tp = MigrationTp::new().with_config(MigrationConfig {
            dirty_rate_pages_per_sec: 1e7, // Dirties faster than the link.
            max_rounds: 6,
            ..MigrationConfig::default()
        });
        let r = tp
            .migrate(&mut src_m, &mut src, id, &mut dst_m, &mut dst)
            .unwrap();
        assert_eq!(r.rounds.len(), 6);
        // Forced stop-and-copy carries a large residual set.
        assert!(r.downtime.as_secs_f64() > 1.0);
    }

    #[test]
    fn migrate_many_pooled_matches_serial() {
        // Reports (rounds, downtime, totals, bytes) must be identical
        // whether the engine runs on a serial or a wide pool.
        let run = |pool: WorkerPool| {
            let (mut src_m, mut dst_m) = pair();
            let mut src = SimpleHv::new(HypervisorKind::Xen);
            let mut dst = SimpleHv::new(HypervisorKind::Xen);
            let ids: Vec<VmId> = (0..3)
                .map(|i| {
                    let id = src
                        .create_vm(&mut src_m, &VmConfig::small(format!("vm{i}")))
                        .unwrap();
                    src.write_guest(&mut src_m, id, Gfn(id.0 as u64 * 7), 0xbeef + id.0 as u64)
                        .unwrap();
                    id
                })
                .collect();
            let tp = MigrationTp::new()
                .with_config(MigrationConfig {
                    dirty_rate_pages_per_sec: 500.0,
                    verify_contents: true,
                    ..MigrationConfig::default()
                })
                .with_pool(pool);
            migrate_many(&tp, &mut src_m, &mut src, &ids, &mut dst_m, &mut dst).unwrap()
        };
        let serial = run(WorkerPool::serial());
        let pooled = run(WorkerPool::new(8));
        assert_eq!(serial.len(), pooled.len());
        for (a, b) in serial.iter().zip(&pooled) {
            assert_eq!(a.vm_name, b.vm_name);
            assert_eq!(a.rounds, b.rounds);
            assert_eq!(a.downtime, b.downtime);
            assert_eq!(a.total, b.total);
            assert_eq!(a.bytes_sent, b.bytes_sent);
            assert_eq!(a.uisr_bytes, b.uisr_bytes);
        }
    }

    #[test]
    fn migrate_many_xen_receive_windows_do_not_overlap() {
        // With identical VMs the pre-copies all finish together; a
        // sequential receiver must then space the finish times one
        // stop-and-copy apart (no two receive windows overlap), while a
        // parallel receiver finishes everyone at the same instant.
        let run = |dst_kind: HypervisorKind| {
            let (mut src_m, mut dst_m) = pair();
            let mut src = SimpleHv::new(HypervisorKind::Xen);
            let mut dst = SimpleHv::new(dst_kind);
            let ids: Vec<VmId> = (0..4)
                .map(|i| {
                    src.create_vm(&mut src_m, &VmConfig::small(format!("vm{i}")))
                        .unwrap()
                })
                .collect();
            let tp = MigrationTp::new().with_config(MigrationConfig {
                dirty_rate_pages_per_sec: 1.0,
                ..MigrationConfig::default()
            });
            migrate_many(&tp, &mut src_m, &mut src, &ids, &mut dst_m, &mut dst).unwrap()
        };

        let to_kvm = run(HypervisorKind::Kvm);
        let kvm_totals: Vec<f64> = to_kvm.iter().map(|r| r.total.as_secs_f64()).collect();
        for t in &kvm_totals {
            assert!((t - kvm_totals[0]).abs() < 1e-9, "parallel receiver");
        }

        let to_xen = run(HypervisorKind::Xen);
        let mut finishes: Vec<SimDuration> = to_xen.iter().map(|r| r.total).collect();
        finishes.sort();
        // Receive windows are back to back: consecutive finishes are one
        // stop-and-copy apart, and every stop-and-copy takes the same time
        // for identical VMs (the first VM's downtime has no queue wait).
        let stop_copy = to_xen.iter().map(|r| r.downtime).min().expect("4 reports");
        assert!(stop_copy > SimDuration::ZERO);
        for w in finishes.windows(2) {
            let gap = w[1] - w[0];
            let err = (gap.as_secs_f64() - stop_copy.as_secs_f64()).abs();
            assert!(err < 1e-9, "gap {gap:?} vs stop-copy {stop_copy:?}");
        }
        // And the k-th VM's downtime grows by exactly k stop-and-copies.
        let mut downtimes: Vec<SimDuration> = to_xen.iter().map(|r| r.downtime).collect();
        downtimes.sort();
        for (k, d) in downtimes.iter().enumerate() {
            let want = stop_copy.as_secs_f64() * (k + 1) as f64;
            assert!((d.as_secs_f64() - want).abs() < 1e-9, "vm{k}");
        }
    }

    /// Both wire representations: the round fault policy is shared, so
    /// every fault test takes the mode as one more input.
    const WIRE_MODES: [WireMode; 2] = [WireMode::Raw, WireMode::ContentAware];

    #[test]
    fn link_drop_retries_with_backoff_and_resumes() {
        use hypertp_sim::fault::{FaultEvent, FaultPlan, InjectionPoint, RecoveryAction};
        for mode in WIRE_MODES {
            let config = MigrationConfig {
                dirty_rate_pages_per_sec: 1.0,
                verify_contents: true,
                wire_mode: mode,
                ..MigrationConfig::default()
            };
            let run = |faults: Option<FaultPlan>| {
                let (mut src_m, mut dst_m) = pair();
                let mut src = SimpleHv::new(HypervisorKind::Xen);
                let mut dst = SimpleHv::new(HypervisorKind::Kvm);
                let id = src.create_vm(&mut src_m, &VmConfig::small("vm0")).unwrap();
                src.write_guest(&mut src_m, id, Gfn(9), 0xabc).unwrap();
                let mut tp = MigrationTp::new().with_config(config);
                if let Some(f) = faults {
                    tp = tp.with_faults(f);
                }
                tp.migrate(&mut src_m, &mut src, id, &mut dst_m, &mut dst)
                    .map(|r| (r, dst.find_vm("vm0").is_some()))
                    .unwrap()
            };
            let (clean, _) = run(None);

            // Two drops on the first round, then success.
            let plan = FaultPlan::new(0x11);
            plan.arm_calls(InjectionPoint::LinkDrop, &[1, 2]);
            let (faulted, arrived) = run(Some(plan.clone()));
            assert!(arrived, "{mode:?}: VM must arrive despite the drops");
            // Each drop costs half the round's wire bytes plus its backoff
            // (50 ms, then 100 ms); the retried round ships the same bytes.
            let half_round = config.link.transfer(clean.rounds[0].wire_bytes / 2, 1);
            assert_eq!(
                faulted.rounds[0].duration,
                clean.rounds[0].duration
                    + half_round
                    + half_round
                    + RETRY_BACKOFF
                    + RETRY_BACKOFF * 2,
                "{mode:?}"
            );
            assert_eq!(
                faulted.rounds[0].wire_bytes, clean.rounds[0].wire_bytes,
                "{mode:?}"
            );
            let log = plan.log();
            assert_eq!(log.injections_at(InjectionPoint::LinkDrop), 2);
            assert_eq!(
                log.recoveries(InjectionPoint::LinkDrop, RecoveryAction::RetriedWithBackoff),
                2
            );
            assert!(log.recovered_via(InjectionPoint::LinkDrop, RecoveryAction::ResumedFromRound));
            // Content-aware only: the lost round's dedup/delta journal is
            // rolled back before each retry re-encodes.
            let events = log.events();
            let action_at = |i: usize| match &events[i] {
                FaultEvent::Recovered { action, .. } => Some(*action),
                FaultEvent::Injected { .. } => None,
            };
            let invalidations = log.recoveries(
                InjectionPoint::LinkDrop,
                RecoveryAction::InvalidatedWireCache,
            );
            match mode {
                WireMode::Raw => assert_eq!(invalidations, 0),
                WireMode::ContentAware => {
                    assert_eq!(invalidations, 2);
                    for i in 0..events.len() {
                        if action_at(i) == Some(RecoveryAction::RetriedWithBackoff) {
                            assert_eq!(
                                action_at(i - 1),
                                Some(RecoveryAction::InvalidatedWireCache),
                                "rollback precedes retry; log:\n{}",
                                log.render()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn link_drop_exhaustion_fails_but_source_vm_survives() {
        use hypertp_sim::fault::{FaultPlan, InjectionPoint, RecoveryAction};
        for mode in WIRE_MODES {
            let (mut src_m, mut dst_m) = pair();
            let mut src = SimpleHv::new(HypervisorKind::Xen);
            let mut dst = SimpleHv::new(HypervisorKind::Kvm);
            let id = src.create_vm(&mut src_m, &VmConfig::small("vm0")).unwrap();
            src.write_guest(&mut src_m, id, Gfn(9), 0xabc).unwrap();
            // Round 0 lands (and, content-aware, commits its delta bases);
            // every attempt of round 1 drops until the budget is spent.
            let plan = FaultPlan::new(0x22);
            plan.arm_calls(InjectionPoint::LinkDrop, &[2, 3, 4, 5]);
            let tp = MigrationTp::new()
                .with_config(MigrationConfig {
                    max_link_retries: 3,
                    dirty_rate_pages_per_sec: 2000.0,
                    verify_contents: true,
                    wire_mode: mode,
                    ..MigrationConfig::default()
                })
                .with_faults(plan.clone());
            let err = tp
                .migrate(&mut src_m, &mut src, id, &mut dst_m, &mut dst)
                .unwrap_err();
            assert_eq!(
                err,
                HtpError::LinkFailure {
                    vm_name: "vm0".into(),
                    retries: 3
                },
                "{mode:?}"
            );
            // No VM lost: still running on the source, no shell left behind.
            assert_eq!(
                src.vm_state(id).unwrap(),
                hypertp_core::VmState::Running,
                "{mode:?}: source VM must keep running after an abandoned migration"
            );
            assert!(dst.find_vm("vm0").is_none(), "destination shell torn down");
            let log = plan.log();
            assert_eq!(log.injections_at(InjectionPoint::LinkDrop), 4);
            assert!(log.recovered_via(InjectionPoint::LinkDrop, RecoveryAction::GaveUp));
            // The torn-down shell took round 0's pages with it, so giving up
            // must also forget the VM's delta bases: the guest rewrites a
            // page round 0 shipped, and a fresh migration through the same
            // engine (to a spare host, whose RAM holds nothing of round 0)
            // must not delta it against content the new shell lacks.
            src.write_guest(&mut src_m, id, Gfn(9), 0xdef).unwrap();
            let (_, mut spare_m) = pair();
            let mut spare = SimpleHv::new(HypervisorKind::Kvm);
            tp.migrate(&mut src_m, &mut src, id, &mut spare_m, &mut spare)
                .unwrap_or_else(|e| panic!("{mode:?}: retry after exhaustion failed: {e}"));
            let new_id = spare.find_vm("vm0").unwrap();
            assert_eq!(spare.read_guest(&spare_m, new_id, Gfn(9)).unwrap(), 0xdef);
        }
    }

    /// A truncated page on a local destination is caught by its echo and
    /// re-sent alone, in round 0 here, where it is the memory map's last
    /// page. The recovery log names how the page went back and the
    /// correction's bytes are counted exactly: a full page in Raw mode; in
    /// content-aware mode a `Zero` marker for a zero page, and a `Dup` for
    /// a page whose content the round has just shipped.
    #[test]
    fn truncated_page_is_detected_and_resent() {
        use hypertp_sim::fault::{FaultEvent, FaultPlan, InjectionPoint, RecoveryAction};
        for mode in WIRE_MODES {
            for last_word in [0, 0x1a57_0001] {
                let run = |faults: FaultPlan| {
                    let (mut src_m, mut dst_m) = pair();
                    let mut src = SimpleHv::new(HypervisorKind::Xen);
                    let mut dst = SimpleHv::new(HypervisorKind::Kvm);
                    let id = src.create_vm(&mut src_m, &VmConfig::small("vm0")).unwrap();
                    let (gfn, e) = *sorted_map(&src, id).unwrap().last().unwrap();
                    let last = Gfn(gfn.0 + e.pages() - 1);
                    src.write_guest(&mut src_m, id, Gfn(42), 0x4242).unwrap();
                    src.write_guest(&mut src_m, id, last, last_word).unwrap();
                    let tp = MigrationTp::new()
                        .with_config(MigrationConfig {
                            dirty_rate_pages_per_sec: 1.0,
                            verify_contents: true, // full check would fail without the re-send
                            wire_mode: mode,
                            ..MigrationConfig::default()
                        })
                        .with_faults(faults);
                    let r = tp
                        .migrate(&mut src_m, &mut src, id, &mut dst_m, &mut dst)
                        .unwrap();
                    let new_id = dst.find_vm("vm0").unwrap();
                    assert_eq!(dst.read_guest(&dst_m, new_id, Gfn(42)).unwrap(), 0x4242);
                    assert_eq!(dst.read_guest(&dst_m, new_id, last).unwrap(), last_word);
                    (r, last)
                };
                let (clean, _) = run(FaultPlan::disarmed());
                let plan = FaultPlan::new(0x33);
                plan.arm_once(InjectionPoint::TruncatedPage);
                let (faulted, last) = run(plan.clone());
                let resent: Vec<String> = plan
                    .log()
                    .events()
                    .iter()
                    .filter_map(|e| match e {
                        FaultEvent::Recovered {
                            point: InjectionPoint::TruncatedPage,
                            action: RecoveryAction::ResentPages,
                            detail,
                            ..
                        } => Some(detail.clone()),
                        _ => None,
                    })
                    .collect();
                let (kind, bytes) = match (mode, last_word) {
                    (WireMode::Raw, _) => ("", PAGE_SIZE),
                    (WireMode::ContentAware, 0) => (" as zero frame", 16),
                    (WireMode::ContentAware, _) => (" as dup frame", 32),
                };
                let ctx = format!("{mode:?}, last word {last_word:#x}");
                assert_eq!(
                    resent,
                    [format!("vm0 round 0: re-sent gfn {}{kind}", last.0)],
                    "{ctx}"
                );
                // The re-send is real traffic: it is counted, and the round
                // waits for the echo plus the corrected page.
                assert!(
                    faulted.rounds[0].duration > clean.rounds[0].duration,
                    "{ctx}"
                );
                assert_eq!(faulted.bytes_sent, clean.bytes_sent + bytes, "{ctx}");
                match mode {
                    WireMode::Raw => assert_eq!(faulted.wire, WireStats::new(), "{ctx}"),
                    WireMode::ContentAware => {
                        assert_eq!(faulted.wire.frames(), clean.wire.frames() + 1, "{ctx}");
                        assert_eq!(
                            faulted.wire.wire_bytes(),
                            clean.wire.wire_bytes() + bytes,
                            "{ctx}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn corrupted_uisr_blob_is_resent() {
        use hypertp_sim::fault::{FaultPlan, InjectionPoint, RecoveryAction};
        let run = |faults: Option<FaultPlan>| {
            let (mut src_m, mut dst_m) = pair();
            let mut src = SimpleHv::new(HypervisorKind::Xen);
            let mut dst = SimpleHv::new(HypervisorKind::Kvm);
            let id = src.create_vm(&mut src_m, &VmConfig::small("vm0")).unwrap();
            src.guest_tick(&mut src_m, id, 3).unwrap();
            let mut tp = MigrationTp::new().with_config(MigrationConfig {
                dirty_rate_pages_per_sec: 1.0,
                ..MigrationConfig::default()
            });
            if let Some(f) = faults {
                tp = tp.with_faults(f);
            }
            tp.migrate(&mut src_m, &mut src, id, &mut dst_m, &mut dst)
                .unwrap()
        };
        let clean = run(None);
        let plan = FaultPlan::new(0x44);
        plan.arm_once(InjectionPoint::UisrCorruption);
        let faulted = run(Some(plan.clone()));
        assert!(plan
            .log()
            .recovered_via(InjectionPoint::UisrCorruption, RecoveryAction::ResentUisr));
        // The blob crossed the link twice: downtime strictly grows.
        assert!(faulted.downtime > clean.downtime);
        assert_eq!(faulted.uisr_bytes, clean.uisr_bytes);
    }

    #[test]
    fn latency_spike_is_absorbed_into_round_time() {
        use hypertp_sim::fault::{FaultPlan, InjectionPoint, RecoveryAction};
        for mode in WIRE_MODES {
            let run = |faults: FaultPlan| {
                let (mut src_m, mut dst_m) = pair();
                let mut src = SimpleHv::new(HypervisorKind::Xen);
                let mut dst = SimpleHv::new(HypervisorKind::Kvm);
                let id = src.create_vm(&mut src_m, &VmConfig::small("vm0")).unwrap();
                let tp = MigrationTp::new()
                    .with_config(MigrationConfig {
                        dirty_rate_pages_per_sec: 1.0,
                        wire_mode: mode,
                        ..MigrationConfig::default()
                    })
                    .with_faults(faults);
                tp.migrate(&mut src_m, &mut src, id, &mut dst_m, &mut dst)
                    .unwrap()
            };
            let clean = run(FaultPlan::disarmed());
            let plan = FaultPlan::new(0x55);
            plan.arm_once(InjectionPoint::LinkLatencySpike);
            let r = run(plan.clone());
            assert!(plan.log().recovered_via(
                InjectionPoint::LinkLatencySpike,
                RecoveryAction::AbsorbedLatency
            ));
            // The spike landed in round 0's duration, and nowhere else.
            assert_eq!(
                r.rounds[0].duration,
                clean.rounds[0].duration + super::LATENCY_SPIKE,
                "{mode:?}"
            );
            assert_eq!(
                r.rounds[0].wire_bytes, clean.rounds[0].wire_bytes,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn auto_converge_tames_a_nonconvergent_guest() {
        // Same hot guest as nonconvergent_guest_hits_round_cap; with
        // auto-converge the controller throttles the dirty rate and stops
        // early, so the residual set — and the downtime — collapse.
        let run = |auto_converge: bool| {
            let (mut src_m, mut dst_m) = pair();
            let mut src = SimpleHv::new(HypervisorKind::Xen);
            let mut dst = SimpleHv::new(HypervisorKind::Kvm);
            let id = src.create_vm(&mut src_m, &VmConfig::small("vm0")).unwrap();
            let cfg = MigrationConfig {
                dirty_rate_pages_per_sec: 1e6,
                auto_converge,
                ..MigrationConfig::default()
            };
            let tp = MigrationTp::new().with_config(cfg);
            tp.migrate(&mut src_m, &mut src, id, &mut dst_m, &mut dst)
                .unwrap()
        };
        let unaided = run(false);
        assert_eq!(unaided.final_throttle, 1.0);
        assert!(!unaided.forced_stop);
        let tamed = run(true);
        assert!(tamed.final_throttle < 1.0, "throttle engaged");
        assert!(
            tamed.downtime < unaided.downtime,
            "tamed {:?} !< unaided {:?}",
            tamed.downtime,
            unaided.downtime
        );
        assert!(
            tamed.bytes_sent < unaided.bytes_sent,
            "throttling ships fewer re-dirtied pages"
        );
        assert!(tamed.stop_pages < unaided.stop_pages);
        // Telemetry followed the throttle down.
        let last = tamed.rounds.last().unwrap();
        assert!(last.throttle < 1.0);
        assert!(last.dirty_rate_est < 1e6);
    }

    #[test]
    fn downtime_budget_is_respected_by_a_busy_guest() {
        // A 2000 pages/s guest never gets under the static 64-page
        // threshold (steady state ≈ 108 pages) and burns all 30 rounds.
        // A 50 ms budget converts to >64 pages at gigabit throughput, so
        // the budgeted run stops earlier and still lands under budget.
        let run = |budget: Option<SimDuration>| {
            let (mut src_m, mut dst_m) = pair();
            let mut src = SimpleHv::new(HypervisorKind::Xen);
            let mut dst = SimpleHv::new(HypervisorKind::Kvm);
            let id = src.create_vm(&mut src_m, &VmConfig::small("vm0")).unwrap();
            let tp = MigrationTp::new().with_config(MigrationConfig {
                dirty_rate_pages_per_sec: 2000.0,
                downtime_budget: budget,
                ..MigrationConfig::default()
            });
            tp.migrate(&mut src_m, &mut src, id, &mut dst_m, &mut dst)
                .unwrap()
        };
        let stat = run(None);
        assert_eq!(stat.rounds.len(), 30, "static threshold never converges");
        let budget = SimDuration::from_millis(50);
        let adaptive = run(Some(budget));
        assert!(
            adaptive.rounds.len() < stat.rounds.len(),
            "budget threshold stops early: {} rounds",
            adaptive.rounds.len()
        );
        assert!(
            adaptive.downtime <= budget,
            "downtime {:?} over budget {:?}",
            adaptive.downtime,
            budget
        );
        assert!(adaptive.total < stat.total, "fewer rounds, shorter total");
        assert!(adaptive.bytes_sent < stat.bytes_sent);
    }

    #[test]
    fn default_config_reports_inactive_controller_telemetry() {
        let (mut src_m, mut dst_m) = pair();
        let mut src = SimpleHv::new(HypervisorKind::Xen);
        let mut dst = SimpleHv::new(HypervisorKind::Kvm);
        let id = src.create_vm(&mut src_m, &VmConfig::small("vm0")).unwrap();
        let tp = MigrationTp::new().with_config(MigrationConfig {
            dirty_rate_pages_per_sec: 1.0,
            ..MigrationConfig::default()
        });
        let r = tp
            .migrate(&mut src_m, &mut src, id, &mut dst_m, &mut dst)
            .unwrap();
        assert_eq!(r.final_throttle, 1.0);
        assert!(!r.forced_stop);
        for round in &r.rounds {
            assert_eq!(round.throttle, 1.0);
            assert_eq!(round.stop_threshold, 64, "static threshold in force");
            assert!(round.throughput_est > 0.0, "telemetry observes anyway");
        }
        assert!(r.stop_pages <= 64);
    }

    #[test]
    fn fleet_default_policy_matches_migrate_many() {
        let mk = || {
            let (mut src_m, dst_m) = pair();
            let mut src = SimpleHv::new(HypervisorKind::Xen);
            let ids: Vec<VmId> = (0..3)
                .map(|i| {
                    src.create_vm(&mut src_m, &VmConfig::small(format!("vm{i}")))
                        .unwrap()
                })
                .collect();
            (src_m, dst_m, src, ids)
        };
        let tp = MigrationTp::new().with_config(MigrationConfig {
            dirty_rate_pages_per_sec: 500.0,
            ..MigrationConfig::default()
        });
        let (mut src_m, mut dst_m, mut src, ids) = mk();
        let mut dst = SimpleHv::new(HypervisorKind::Xen);
        let legacy = migrate_many(&tp, &mut src_m, &mut src, &ids, &mut dst_m, &mut dst).unwrap();

        let (mut src_m2, mut dst_m2, mut src2, ids2) = mk();
        let mut dst2 = SimpleHv::new(HypervisorKind::Xen);
        let vms: Vec<FleetVm> = ids2.iter().map(|&id| FleetVm::new(id)).collect();
        let fleet = migrate_fleet(
            &tp,
            &mut src_m2,
            &mut src2,
            &vms,
            &mut dst_m2,
            &mut dst2,
            FleetPolicy::default(),
        )
        .unwrap();
        assert_eq!(fleet.admission, vec![0, 1, 2], "FIFO admits in order");
        assert_eq!(legacy.len(), fleet.reports.len());
        for (a, b) in legacy.iter().zip(&fleet.reports) {
            assert_eq!(a.vm_name, b.vm_name);
            assert_eq!(a.rounds, b.rounds);
            assert_eq!(a.downtime, b.downtime);
            assert_eq!(a.total, b.total);
            assert_eq!(a.bytes_sent, b.bytes_sent);
        }
        assert_eq!(fleet.predictions.len(), 3);
    }

    #[test]
    fn fleet_spdf_admits_predicted_fast_vms_first() {
        // vm0 is hot (large predicted stop-copy), vm1/vm2 idle: SPDF must
        // admit the idle VMs before the hot one, and behind Xen's
        // sequential receiver the idle VMs' downtime must not queue
        // behind the hot VM's long stop-and-copy.
        let (mut src_m, mut dst_m) = pair();
        let mut src = SimpleHv::new(HypervisorKind::Xen);
        let mut dst = SimpleHv::new(HypervisorKind::Xen);
        let ids: Vec<VmId> = (0..3)
            .map(|i| {
                src.create_vm(&mut src_m, &VmConfig::small(format!("vm{i}")))
                    .unwrap()
            })
            .collect();
        let tp = MigrationTp::new();
        let vms = vec![
            FleetVm::with_dirty_rate(ids[0], 1e6),
            FleetVm::with_dirty_rate(ids[1], 1.0),
            FleetVm::with_dirty_rate(ids[2], 1.0),
        ];
        let fleet = migrate_fleet(
            &tp,
            &mut src_m,
            &mut src,
            &vms,
            &mut dst_m,
            &mut dst,
            FleetPolicy {
                order: FleetOrder::ShortestPredictedFirst,
                max_concurrent: 0,
                compression_hint: 1.0,
            },
        )
        .unwrap();
        assert_eq!(fleet.admission, vec![1, 2, 0], "idle VMs first");
        assert!(fleet.predictions[0].stop_copy > fleet.predictions[1].stop_copy);
        // The idle VMs' stop-and-copies clear the receiver before the hot
        // VM's long pre-copy even ends, so their downtime stays small.
        assert!(fleet.reports[1].downtime < fleet.reports[0].downtime);
        assert!(fleet.reports[2].downtime < fleet.reports[0].downtime);
    }

    #[test]
    fn fleet_static_orders_report_cold_predictions_at_admission() {
        let (mut src_m, mut dst_m) = pair();
        let mut src = SimpleHv::new(HypervisorKind::Xen);
        let mut dst = SimpleHv::new(HypervisorKind::Kvm);
        let ids: Vec<VmId> = (0..2)
            .map(|i| {
                src.create_vm(&mut src_m, &VmConfig::small(format!("vm{i}")))
                    .unwrap()
            })
            .collect();
        let tp = MigrationTp::new().with_config(MigrationConfig {
            dirty_rate_pages_per_sec: 500.0,
            ..MigrationConfig::default()
        });
        let vms: Vec<FleetVm> = ids.iter().map(|&id| FleetVm::new(id)).collect();
        let fleet = migrate_fleet(
            &tp,
            &mut src_m,
            &mut src,
            &vms,
            &mut dst_m,
            &mut dst,
            FleetPolicy::default(),
        )
        .unwrap();
        assert_eq!(
            fleet.admission_predictions, fleet.predictions,
            "static orders never re-predict"
        );
        // The analytic model replays the engine's round loop, so under
        // raw wire + static control the predictions are near-exact.
        assert!(
            fleet.mean_abs_precopy_error_pct() < 5.0,
            "error = {}%",
            fleet.mean_abs_precopy_error_pct()
        );
    }

    #[test]
    fn precopy_prediction_error_is_bounded() {
        // Seeded fault-free fleets, controller off: 1–4 VMs of 1–2 GiB at
        // idle to hot dirty rates behind 1–4 slots, six rounds at most.
        //
        // Raw: the prediction replays the engine's round loop, except that
        // it counts dirtying draws while the engine re-sends the distinct
        // pages they hit. It is exact for an idle guest and never under
        // the engine. Measured on this sweep: ≤ 0.58 % at ≤ 3 000
        // pages/s, ≤ 87 % for guests redirtying most of their memory each
        // round; the bounds below are 1 % and 90 %.
        //
        // Content-aware: the scheduler is fed the wire ratio a first run
        // observed (`FleetPolicy::compression_hint`). Measured: ≤ 5.63 %
        // either way; the bound below is 6 %.
        let mut rng = hypertp_sim::SimRng::new(0x9ec0_b0d5);
        for case in 0..8 {
            let n = 1 + rng.gen_range(4) as usize;
            let slots = 1 + rng.gen_range(4) as usize;
            let shapes: Vec<(u64, f64)> = (0..n)
                .map(|_| {
                    let gb = 1 + rng.gen_range(2);
                    let rate = [0.0, 300.0, 3_000.0, 30_000.0][rng.gen_range(4) as usize];
                    (gb, rate)
                })
                .collect();
            let run = |mode: WireMode, hint: f64| {
                let clock = SimClock::new();
                let mut spec = MachineSpec::m1();
                spec.ram_gb = shapes.iter().map(|s| s.0).sum::<u64>() + 2;
                let mut src_m = Machine::with_clock(spec.clone(), clock.clone());
                let mut dst_m = Machine::with_clock(spec, clock);
                let mut src = SimpleHv::new(HypervisorKind::Xen);
                let mut dst = SimpleHv::new(HypervisorKind::Kvm);
                let vms: Vec<FleetVm> = shapes
                    .iter()
                    .enumerate()
                    .map(|(i, &(gb, rate))| {
                        let cfg = VmConfig::small(format!("vm{i}")).with_memory_gb(gb);
                        FleetVm::with_dirty_rate(src.create_vm(&mut src_m, &cfg).unwrap(), rate)
                    })
                    .collect();
                let tp = MigrationTp::new().with_config(MigrationConfig {
                    wire_mode: mode,
                    max_rounds: 6,
                    ..MigrationConfig::default()
                });
                let policy = FleetPolicy {
                    order: FleetOrder::Fifo,
                    max_concurrent: slots,
                    compression_hint: hint,
                };
                migrate_fleet(
                    &tp, &mut src_m, &mut src, &vms, &mut dst_m, &mut dst, policy,
                )
                .unwrap()
            };
            let raw = run(WireMode::Raw, 1.0);
            for (i, err) in raw.precopy_error_pct().into_iter().enumerate() {
                let (p, r) = (raw.admission_predictions[i], &raw.reports[i]);
                let c = format!("case {case} vm{i}: {:?}, {slots} slots", shapes[i]);
                if shapes[i].1 == 0.0 {
                    assert_eq!(p.precopy, raw.actual_precopy(i), "{c}");
                    assert_eq!((p.rounds, p.stop_pages), (1, r.stop_pages), "{c}");
                }
                assert!(p.stop_pages >= r.stop_pages, "{c}");
                let bound = if shapes[i].1 <= 3_000.0 { 1.0 } else { 90.0 };
                assert!((0.0..bound).contains(&err), "{c}: raw error {err} %");
            }
            let observed = run(WireMode::ContentAware, 1.0);
            let mut wire = WireStats::new();
            for r in &observed.reports {
                wire.merge(&r.wire);
            }
            let ca = run(WireMode::ContentAware, wire.compression_ratio());
            for (i, err) in ca.precopy_error_pct().into_iter().enumerate() {
                let c = format!("case {case} vm{i}: {:?}, {slots} slots", shapes[i]);
                assert!(err.abs() < 6.0, "{c}: content-aware error {err} %");
            }
        }
    }

    #[test]
    fn bounded_concurrency_reduces_dirty_amplification() {
        // Unbounded: 4 streams share the link, rounds stretch 4×, the
        // guests dirty 4× more per round. Two slots halve the sharing;
        // each migration ships fewer re-dirtied pages.
        let run = |max_concurrent: usize| {
            let (mut src_m, mut dst_m) = pair();
            let mut src = SimpleHv::new(HypervisorKind::Xen);
            let mut dst = SimpleHv::new(HypervisorKind::Kvm);
            let ids: Vec<VmId> = (0..4)
                .map(|i| {
                    src.create_vm(&mut src_m, &VmConfig::small(format!("vm{i}")))
                        .unwrap()
                })
                .collect();
            let tp = MigrationTp::new().with_config(MigrationConfig {
                dirty_rate_pages_per_sec: 800.0,
                ..MigrationConfig::default()
            });
            let vms: Vec<FleetVm> = ids.iter().map(|&id| FleetVm::new(id)).collect();
            migrate_fleet(
                &tp,
                &mut src_m,
                &mut src,
                &vms,
                &mut dst_m,
                &mut dst,
                FleetPolicy {
                    order: FleetOrder::Fifo,
                    max_concurrent,
                    compression_hint: 1.0,
                },
            )
            .unwrap()
        };
        let unbounded = run(0);
        let bounded = run(2);
        assert!(
            bounded.total_bytes() < unbounded.total_bytes(),
            "bounded {} !< unbounded {}",
            bounded.total_bytes(),
            unbounded.total_bytes()
        );
    }

    #[test]
    fn migrate_many_xen_receive_serializes() {
        let run = |dst_kind: HypervisorKind| {
            let (mut src_m, mut dst_m) = pair();
            let mut src = SimpleHv::new(HypervisorKind::Xen);
            let mut dst = SimpleHv::new(dst_kind);
            let ids: Vec<VmId> = (0..4)
                .map(|i| {
                    src.create_vm(&mut src_m, &VmConfig::small(format!("vm{i}")))
                        .unwrap()
                })
                .collect();
            let tp = MigrationTp::new().with_config(MigrationConfig {
                dirty_rate_pages_per_sec: 1.0,
                ..MigrationConfig::default()
            });
            migrate_many(&tp, &mut src_m, &mut src, &ids, &mut dst_m, &mut dst).unwrap()
        };
        let to_xen = run(HypervisorKind::Xen);
        let to_kvm = run(HypervisorKind::Kvm);
        let spread = |rs: &[MigrationReport]| {
            let ds: Vec<f64> = rs.iter().map(|r| r.downtime.as_secs_f64()).collect();
            ds.iter().cloned().fold(f64::MIN, f64::max)
                - ds.iter().cloned().fold(f64::MAX, f64::min)
        };
        assert!(
            spread(&to_xen) > 10.0 * spread(&to_kvm).max(1e-9),
            "xen spread {} vs kvm spread {}",
            spread(&to_xen),
            spread(&to_kvm)
        );
        // All four guests actually arrived.
        assert_eq!(to_kvm.len(), 4);
    }

    #[test]
    fn empty_fleet_report_ratios_stay_finite() {
        // A fleet that migrated nothing must not divide by zero anywhere
        // in the telemetry accessors.
        let empty = FleetReport {
            reports: Vec::new(),
            predictions: Vec::new(),
            admission_predictions: Vec::new(),
            policy: FleetPolicy::default(),
            admission: Vec::new(),
            starts: Vec::new(),
            slo: Vec::new(),
            makespan: SimDuration::ZERO,
        };
        assert_eq!(empty.mean_downtime(), SimDuration::ZERO);
        assert_eq!(empty.mean_ready(), SimDuration::ZERO);
        assert_eq!(empty.total_bytes(), 0);
        assert!(empty.precopy_error_pct().is_empty());
        assert_eq!(empty.mean_abs_precopy_error_pct(), 0.0);
        assert_eq!(empty.total_violation(), SimDuration::ZERO);
        assert_eq!(empty.max_budget_burn(), 0.0);
        assert_eq!(empty.slo_vm_count(), 0);
        assert!(empty.mean_abs_precopy_error_pct().is_finite());
    }

    #[test]
    fn equal_duration_fleet_schedule_is_deterministic() {
        // Four byte-identical VMs over two slots: every admission sees
        // *tied* earliest-free slots (equal predicted and actual
        // durations), so the first-index tie-break is the only thing
        // keeping the schedule stable. The expected pattern — VM k on
        // slot k mod 2, starts paired up — must hold for every worker
        // count (the schedule is simulated time; workers are wall-clock
        // only).
        let run = |pool: WorkerPool| {
            let (mut src_m, mut dst_m) = pair();
            let mut src = SimpleHv::new(HypervisorKind::Xen);
            let mut dst = SimpleHv::new(HypervisorKind::Kvm);
            let ids: Vec<VmId> = (0..4)
                .map(|i| {
                    src.create_vm(&mut src_m, &VmConfig::small(format!("vm{i}")))
                        .unwrap()
                })
                .collect();
            let tp = MigrationTp::new().with_pool(pool);
            let vms: Vec<FleetVm> = ids.iter().map(|&id| FleetVm::new(id)).collect();
            migrate_fleet(
                &tp,
                &mut src_m,
                &mut src,
                &vms,
                &mut dst_m,
                &mut dst,
                FleetPolicy {
                    order: FleetOrder::Fifo,
                    max_concurrent: 2,
                    compression_hint: 1.0,
                },
            )
            .unwrap()
        };
        let serial = run(WorkerPool::serial());
        let pooled = run(WorkerPool::new(4));
        assert_eq!(serial.starts, pooled.starts, "worker-count invariant");
        assert_eq!(serial.admission, pooled.admission);
        // First-index rule: VMs 0 and 1 start together at t=0 (slots 0
        // and 1 in that order), VMs 2 and 3 start together afterwards.
        assert_eq!(serial.starts[0], SimDuration::ZERO);
        assert_eq!(serial.starts[1], SimDuration::ZERO);
        assert_eq!(serial.starts[2], serial.starts[3]);
        assert!(serial.starts[2] > SimDuration::ZERO);
    }

    #[test]
    fn slo_attachment_contends_the_link_and_accounts() {
        // A VM migrated at its traffic peak fights its own users for the
        // NIC: the pre-copy must stretch versus the same VM migrated
        // with no traffic attached, and the report must price the harm.
        let curve = crate::control::TrafficCurve {
            peak_qps: 4000.0,
            trough_fraction: 0.05,
            peak_offset: SimDuration::ZERO, // peak at fleet start
            period: crate::control::TrafficCurve::DAY,
            sharpness: 1,
            bytes_per_query: 20_000.0, // 80 MB/s at peak on a ~116 MB/s link
        };
        let slo = crate::control::SloVm {
            traffic: curve,
            degraded_capacity: 0.65,
            error_budget: SimDuration::from_secs(120),
        };
        let run = |with_slo: bool| {
            let (mut src_m, mut dst_m) = pair();
            let mut src = SimpleHv::new(HypervisorKind::Xen);
            let mut dst = SimpleHv::new(HypervisorKind::Kvm);
            let id = src.create_vm(&mut src_m, &VmConfig::small("vm0")).unwrap();
            let tp = MigrationTp::new();
            let mut vm = FleetVm::new(id);
            if with_slo {
                vm = vm.with_slo(slo);
            }
            migrate_fleet(
                &tp,
                &mut src_m,
                &mut src,
                &[vm],
                &mut dst_m,
                &mut dst,
                FleetPolicy::default(),
            )
            .unwrap()
        };
        let quiet = run(false);
        let contended = run(true);
        let q = quiet.actual_precopy(0).as_secs_f64();
        let c = contended.actual_precopy(0).as_secs_f64();
        assert!(c > q * 2.0, "peak traffic stretches pre-copy: {q} -> {c}");
        assert!(quiet.slo[0].is_none());
        let outcome = contended.slo[0].expect("SLO priced");
        // The whole (stretched) pre-copy ran at peak: every second
        // violates, plus the blackout.
        assert!(outcome.violation.as_secs_f64() >= c * 0.95);
        assert!(outcome.budget_burn > 0.0);
        assert_eq!(contended.slo_vm_count(), 1);
        assert!(contended.total_violation() >= outcome.violation);
    }

    #[test]
    fn slo_aware_order_defers_hot_vms_to_quiet_windows() {
        // vm0 peaks at fleet start, vm1 and vm2 are in their trough.
        // SloAware must admit the quiet VMs first and the hot VM last;
        // the accounting must show the hot VM's harm no worse than FIFO
        // (which migrates it straight into its peak).
        let day = crate::control::TrafficCurve::DAY;
        let mk_slo = |peak_offset: SimDuration| crate::control::SloVm {
            traffic: crate::control::TrafficCurve {
                peak_qps: 4000.0,
                trough_fraction: 0.05,
                peak_offset,
                period: day,
                sharpness: 1,
                bytes_per_query: 20_000.0,
            },
            degraded_capacity: 0.65,
            error_budget: SimDuration::from_secs(120),
        };
        let run = |order: FleetOrder| {
            let (mut src_m, mut dst_m) = pair();
            let mut src = SimpleHv::new(HypervisorKind::Xen);
            let mut dst = SimpleHv::new(HypervisorKind::Kvm);
            let ids: Vec<VmId> = (0..3)
                .map(|i| {
                    src.create_vm(&mut src_m, &VmConfig::small(format!("vm{i}")))
                        .unwrap()
                })
                .collect();
            let tp = MigrationTp::new();
            let vms = vec![
                FleetVm::new(ids[0]).with_slo(mk_slo(SimDuration::ZERO)),
                FleetVm::new(ids[1]).with_slo(mk_slo(SimDuration::from_secs(43_200))),
                FleetVm::new(ids[2]).with_slo(mk_slo(SimDuration::from_secs(43_200))),
            ];
            migrate_fleet(
                &tp,
                &mut src_m,
                &mut src,
                &vms,
                &mut dst_m,
                &mut dst,
                FleetPolicy {
                    order,
                    max_concurrent: 1,
                    compression_hint: 1.0,
                },
            )
            .unwrap()
        };
        let aware = run(FleetOrder::SloAware);
        assert_eq!(
            aware.admission,
            vec![1, 2, 0],
            "quiet VMs drain first, the hot VM is deferred"
        );
        let fifo = run(FleetOrder::Fifo);
        assert!(
            aware.total_violation() <= fifo.total_violation(),
            "deferring the hot VM never costs more harm: {:?} vs {:?}",
            aware.total_violation(),
            fifo.total_violation()
        );
        // The deferred hot VM starts after both quiet VMs finished.
        assert!(aware.starts[0] >= aware.starts[1].max(aware.starts[2]));
    }
    /// A 1 GiB guest whose `resident` non-zero pages sit at an even
    /// stride, every `template_every`-th of them one shared word and the
    /// rest unique.
    fn seeded_guest(
        m: &mut Machine,
        hv: &mut SimpleHv,
        resident: u64,
        template_every: u64,
    ) -> VmId {
        let id = hv.create_vm(m, &VmConfig::small("vm0")).unwrap();
        let stride = VmConfig::small("vm0").pages() / resident;
        for k in 0..resident {
            let word = match k % template_every {
                0 => 0x7e3a_91c0_0000_0001,
                _ => k.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
            };
            hv.write_guest(m, id, Gfn(k * stride), word).unwrap();
        }
        id
    }

    /// Round buffers are sized by the part, not the guest: after a cold
    /// content-aware migration of a busy 1 GiB guest to a local
    /// destination, and after a proxy session of a 1 GiB guest, the frame
    /// ring never held more than one part of its largest frames.
    #[test]
    fn the_ring_holds_one_part_on_both_destinations() {
        let part_bytes = (PART_PAGES * 32) as u64;
        let config = MigrationConfig {
            wire_mode: WireMode::ContentAware,
            verify_contents: true,
            dirty_rate_pages_per_sec: 5_000.0,
            ..MigrationConfig::default()
        };

        let (mut src_m, mut dst_m) = pair();
        let mut src = SimpleHv::new(HypervisorKind::Xen);
        let mut dst = SimpleHv::new(HypervisorKind::Kvm);
        let id = seeded_guest(&mut src_m, &mut src, 65_536, 4);
        let tp = MigrationTp::new().with_config(config);
        tp.migrate(&mut src_m, &mut src, id, &mut dst_m, &mut dst)
            .unwrap();
        let local = tp.scratch_stats().ring_high_water;
        assert!(local <= part_bytes, "local: {local} bytes");

        let (mut src_m, mut dst_m) = pair();
        let mut src = SimpleHv::new(HypervisorKind::Xen);
        let mut dst = SimpleHv::new(HypervisorKind::Kvm);
        let id = seeded_guest(&mut src_m, &mut src, 16_384, u64::MAX);
        let tp = MigrationTp::new().with_config(MigrationConfig {
            dirty_rate_pages_per_sec: 2_000.0,
            ..config
        });
        let (mut ta, mut tb) = crate::transport::InProcTransport::pair();
        std::thread::scope(|s| {
            let dest = s.spawn(|| crate::proxy::run_dest(&mut dst_m, &mut dst, &mut tb));
            crate::proxy::run_source(&tp, &mut src_m, &mut src, id, &mut ta).unwrap();
            dest.join().unwrap().unwrap();
        });
        let remote = tp.scratch_stats().ring_high_water;
        assert!(remote <= part_bytes, "remote: {remote} bytes");
    }

    /// A local destination's guest memory is untouched until its round is
    /// accepted: encoding a round of several parts resolves them without
    /// writing, a rollback as a `LinkDrop` makes leaves nothing behind,
    /// and the re-encoded round lands whole when it is delivered.
    #[test]
    fn a_local_round_writes_nothing_before_it_is_accepted() {
        let (mut src_m, mut dst_m) = pair();
        let mut src = SimpleHv::new(HypervisorKind::Xen);
        let mut dst = SimpleHv::new(HypervisorKind::Kvm);
        let id = seeded_guest(&mut src_m, &mut src, 16_384, 4);
        let dst_id = dst
            .prepare_incoming(&mut dst_m, &src.vm_config(id).unwrap().clone())
            .unwrap();
        let tp = MigrationTp::new().with_config(MigrationConfig {
            wire_mode: WireMode::ContentAware,
            ..MigrationConfig::default()
        });
        let map = src.guest_memory_map(id).unwrap();
        let pages = RoundPages::Map(&map);
        assert!(pages.len() >= 3 * PART_PAGES as u64);
        let fresh = crate::proxy::vm_checksum(&dst_m, &dst, dst_id).unwrap();
        let mut to = Dest::local(&mut dst_m, &mut dst, dst_id).unwrap();
        tp.encode_round(&src_m, &src, id, &mut to, 0, pages, "vm0")
            .unwrap();
        let encoded = crate::proxy::vm_checksum(&dst_m, &dst, dst_id).unwrap();
        assert_eq!(encoded, fresh, "encoding wrote the destination");
        tp.rollback_round();

        let mut to = Dest::local(&mut dst_m, &mut dst, dst_id).unwrap();
        tp.encode_round(&src_m, &src, id, &mut to, 0, pages, "vm0")
            .unwrap();
        let mut wire = WireStats::new();
        assert!(tp.deliver_round(&mut to, 0, false, &mut wire).unwrap());
        tp.commit_round();
        assert_eq!(
            wire.frames(),
            pages.len(),
            "the dropped attempt is not counted"
        );
        assert!(same_contents(&src_m, &map, &dst_m, &dst, dst_id).unwrap());
    }
}
