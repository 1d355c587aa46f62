//! Unplanned transplant: ReHype-style recovery from a hypervisor crash.
//!
//! The planned paths (`inplace`, `migration`) assume a cooperating source
//! hypervisor. This module drops that assumption: an always-on
//! [`WarmCheckpointer`] keeps every VM's UISR translated and persisted in
//! PRAM *while the hypervisor is healthy* (generalizing the incremental
//! pre-pause warm translation to a continuous background service), and a
//! pre-staged rescue kexec image always points at the freshest checkpoint
//! directory. When the hypervisor crashes, [`UnplannedRecovery`]
//! micro-reboots into the *other* hypervisor over the existing kexec+PRAM
//! path and adopts every VM from its warm checkpoint — no source
//! cooperation required.
//!
//! What survives and what is lost:
//! - **Guest memory** survives byte-identical: it stays in place across the
//!   micro-reboot exactly like a planned InPlaceTP, including pages dirtied
//!   *after* the last checkpoint (the PRAM guest files map the live frames,
//!   not copies).
//! - **Register/device state** rolls back to the VM's last *persisted*
//!   checkpoint. The checkpointer's staleness bound makes the rollback
//!   provable: at the end of every completed background tick, each VM's
//!   un-persisted dirty page count is strictly below
//!   [`CheckpointConfig::staleness_bound_pages`], so the state lost to a
//!   crash is bounded by that plus whatever the workload dirtied since the
//!   last completed tick.

use hypertp_machine::{Extent, Gfn, KexecImage, Machine, PageOrder};
use hypertp_pram::{PramBuilder, PramHandle};
use hypertp_sim::cost::VmShape;
use hypertp_sim::fault::{FaultPlan, InjectionPoint, RecoveryAction};
use hypertp_sim::{CostModel, Ewma, SimDuration, WorkerPool};

use crate::error::HtpError;
use crate::hypervisor::{Hypervisor, HypervisorKind};
use crate::inplace::{kexec_and_adopt, patch_uisr, InPlacePricer, Optimizations, WarmVm};
use crate::registry::HypervisorRegistry;
use crate::uisr_store;
use crate::vm::VmId;

/// Consults the `HypervisorCrash` injection point at `site`. Callers that
/// orchestrate hypervisors (campaign waves, the sharded executor) gate
/// each step through this so chaos plans can kill a host mid-operation.
pub fn crash_gate(faults: &FaultPlan, site: &str) -> bool {
    faults.should_inject(InjectionPoint::HypervisorCrash, site)
}

/// Tuning knobs for the always-on warm checkpointer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointConfig {
    /// Per-VM staleness bound: once a VM has accumulated at least this many
    /// un-persisted dirty pages, the next background tick must refresh and
    /// re-persist its checkpoint. The provable state-loss bound of a crash
    /// derives from this: at the end of every completed tick each VM's
    /// un-persisted count is strictly below the bound.
    pub staleness_bound_pages: u64,
    /// Watchdog window between the hypervisor dying and the rescue kexec
    /// being taken.
    pub detection: SimDuration,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            staleness_bound_pages: 512,
            detection: SimDuration::from_millis(100),
        }
    }
}

/// Where inside the checkpointer lifecycle a crash landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPhase {
    /// Between background ticks (steady state).
    Idle,
    /// At the start of a tick, before this interval's dirty pages were
    /// collected.
    WarmRound,
    /// After dirty collection, before any checkpoint cache was refreshed.
    Refresh,
    /// After the in-memory caches were refreshed but before the PRAM
    /// directory was rebuilt — recovery restores the *previous* persisted
    /// image.
    Finalize,
}

impl CrashPhase {
    /// Stable lowercase name (fault-log vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            CrashPhase::Idle => "idle",
            CrashPhase::WarmRound => "warm_round",
            CrashPhase::Refresh => "refresh",
            CrashPhase::Finalize => "finalize",
        }
    }
}

/// Outcome of one background checkpointer tick.
#[derive(Debug, Clone, PartialEq)]
pub struct TickReport {
    /// 1-based tick number.
    pub tick: u64,
    /// Dirty pages collected across all VMs this tick.
    pub collected_pages: u64,
    /// Names of the VMs whose checkpoints were refreshed *and persisted*.
    pub refreshed: Vec<String>,
    /// True when the PRAM directory was rebuilt and the rescue image
    /// restaged.
    pub persisted: bool,
    /// Set when the `HypervisorCrash` gate fired mid-tick; the tick aborted
    /// at that phase and the caller should run recovery.
    pub crashed: Option<CrashPhase>,
    /// Whole UISR sections patched over warm snapshots this tick.
    pub patched_sections: u64,
    /// Simulated background cost of this tick (below the time axis).
    pub duration: SimDuration,
}

/// Per-VM checkpoint: the in-place engine's warm-translate cache plus what
/// persisting and pacing it needs.
struct CkptVm {
    /// The warm cache. Its partials are refreshed with each checkpoint;
    /// its UISR may be newer than the persisted blob if a crash hit the
    /// finalize phase.
    warm: WarmVm,
    name: String,
    /// PRAM chunk mappings of the currently persisted blob.
    blob_mappings: Vec<(Gfn, Extent)>,
    /// The VM as the stage costs see it (`fraction` 1.0).
    shape: VmShape,
    /// Dirty pages observed since this VM's checkpoint was last *persisted*
    /// (an in-memory refresh without a persist does not reset it).
    persisted_staleness: u64,
    /// `persisted_staleness` as recorded at the end of the last completed
    /// tick — the quantity the staleness bound provably constrains.
    staleness_at_tick_end: u64,
    /// Dirty GFNs since the partials were last recomputed; recovery
    /// refreshes exactly these (plus the crash tail) for its crash-instant
    /// memory checksum.
    pending: Vec<Gfn>,
    ewma: Ewma,
    last_ewma: f64,
}

impl CkptVm {
    /// Encodes the cached UISR into freshly allocated blob frames.
    fn write_blob(&mut self, machine: &mut Machine) -> Result<(), HtpError> {
        let mut blob = Vec::new();
        hypertp_uisr::codec::encode_into(&self.warm.uisr, &mut blob);
        self.blob_mappings = uisr_store::write_blob(machine.ram_mut(), &blob)?;
        Ok(())
    }
}

/// Writes a PRAM directory over every VM's guest memory and persisted
/// blob, and stages the rescue kexec image at it: a crashed hypervisor
/// cannot run `kexec_load`, so the staged image must always point at the
/// freshest directory.
fn stage_directory(
    machine: &mut Machine,
    vms: &[CkptVm],
    pool: WorkerPool,
    target: HypervisorKind,
) -> Result<PramHandle, HtpError> {
    let mut builder = PramBuilder::new().with_pool(pool);
    for vm in vms {
        builder.add_file(vm.name.clone(), 0o600, vm.warm.map.clone());
        builder.add_file(
            uisr_store::uisr_file_name(&vm.name),
            0o400,
            vm.blob_mappings.clone(),
        );
    }
    let handle = builder.write(machine.ram_mut())?;
    machine.kexec_load(KexecImage {
        target: target.boot_target(),
        cmdline: format!("hypertp {}", handle.cmdline_arg()),
    });
    Ok(handle)
}

/// The always-on background checkpointer: continuous incremental UISR
/// snapshots persisted in PRAM, with a pre-staged rescue kexec image that
/// always points at the freshest directory.
pub struct WarmCheckpointer {
    cfg: CheckpointConfig,
    cost: CostModel,
    faults: FaultPlan,
    pool: WorkerPool,
    target: HypervisorKind,
    ids: Vec<VmId>,
    vms: Vec<CkptVm>,
    handle: PramHandle,
    ticks: u64,
    refreshes: u64,
    background: SimDuration,
    cadence: Vec<String>,
    patched_sections: u64,
}

impl WarmCheckpointer {
    /// Starts checkpointing every VM of `source` with default cost model,
    /// disarmed faults and the environment worker pool. `target` is the
    /// hypervisor the rescue image boots into on a crash.
    pub fn start(
        machine: &mut Machine,
        source: &mut dyn Hypervisor,
        target: HypervisorKind,
        cfg: CheckpointConfig,
    ) -> Result<Self, HtpError> {
        Self::start_with(
            machine,
            source,
            target,
            cfg,
            CostModel::paper_calibrated(),
            FaultPlan::disarmed(),
            WorkerPool::from_env(),
        )
    }

    /// Starts checkpointing with explicit cost model, fault plan and
    /// worker pool.
    pub fn start_with(
        machine: &mut Machine,
        source: &mut dyn Hypervisor,
        target: HypervisorKind,
        cfg: CheckpointConfig,
        cost: CostModel,
        faults: FaultPlan,
        pool: WorkerPool,
    ) -> Result<Self, HtpError> {
        let perf = machine.spec().perf();
        let clock = machine.clock().clone();
        let ids = source.vm_ids();
        for &id in &ids {
            source.enable_dirty_log(id)?;
        }
        let warm = WarmVm::snapshot(machine, source, &ids, &pool)?;
        let mut vms = Vec::with_capacity(ids.len());
        for (&id, warm) in ids.iter().zip(warm) {
            let c = source.vm_config(id)?;
            vms.push(CkptVm {
                warm,
                name: c.name.clone(),
                blob_mappings: Vec::new(),
                shape: c.shape(),
                persisted_staleness: 0,
                staleness_at_tick_end: 0,
                pending: Vec::new(),
                ewma: Ewma::default(),
                last_ewma: 0.0,
            });
        }

        // Persist the initial checkpoints and arm the rescue image.
        for vm in &mut vms {
            vm.write_blob(machine)?;
        }
        let handle = stage_directory(machine, &vms, pool, target)?;

        // Background cost of the initial full warm translation + directory
        // build (below the time axis: each VM was only micro-paused).
        let shapes: Vec<VmShape> = vms.iter().map(|v| v.shape).collect();
        let setup = InPlacePricer::new(&cost, perf, Optimizations::default()).checkpoint(&shapes);
        clock.advance(setup);

        let cadence = vec![format!("start: {} vms checkpointed", vms.len())];
        Ok(WarmCheckpointer {
            cfg,
            cost,
            faults,
            pool,
            target,
            ids,
            vms,
            handle,
            ticks: 0,
            refreshes: 0,
            background: setup,
            cadence,
            patched_sections: 0,
        })
    }

    /// The hypervisor the rescue image boots into.
    pub fn target(&self) -> HypervisorKind {
        self.target
    }

    /// The configuration the checkpointer runs with.
    pub fn config(&self) -> CheckpointConfig {
        self.cfg
    }

    /// Completed background ticks.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Total per-VM checkpoint refreshes persisted so far.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Cumulative simulated background cost (setup + all ticks).
    pub fn background_time(&self) -> SimDuration {
        self.background
    }

    /// Names of the checkpointed VMs, in VM-id order.
    pub fn vm_names(&self) -> Vec<String> {
        self.vms.iter().map(|v| v.name.clone()).collect()
    }

    /// Byte-stable rendering of the refresh cadence, for determinism and
    /// worker-count-invariance assertions.
    pub fn cadence_render(&self) -> String {
        self.cadence.join("\n")
    }

    /// One background interval: the workload dirties `workload_pages` per
    /// VM, the checkpointer collects the dirty logs and refreshes +
    /// re-persists every VM at (or EWMA-predicted to reach) its staleness
    /// bound. Consults the `HypervisorCrash` gate at three phases
    /// (warm-round, refresh, finalize); when it fires the tick aborts and
    /// the caller should hand the dying hypervisor to
    /// [`UnplannedRecovery::recover`].
    pub fn tick(
        &mut self,
        machine: &mut Machine,
        source: &mut dyn Hypervisor,
        workload_pages: u64,
    ) -> Result<TickReport, HtpError> {
        self.ticks += 1;
        let t = self.ticks;
        let perf = machine.spec().perf();
        let clock = machine.clock().clone();
        let mut report = TickReport {
            tick: t,
            collected_pages: 0,
            refreshed: Vec::new(),
            persisted: false,
            crashed: None,
            patched_sections: 0,
            duration: SimDuration::ZERO,
        };

        // The guests keep running; the workload dirties pages first.
        if workload_pages > 0 {
            for &id in &self.ids {
                source.guest_tick(machine, id, workload_pages)?;
            }
        }
        if crash_gate(&self.faults, &format!("ckpt tick {t} warm-round")) {
            report.crashed = Some(CrashPhase::WarmRound);
            self.cadence
                .push(format!("tick {t}: crashed at warm-round"));
            return Ok(report);
        }

        // Collect this interval's dirty pages (per-VM micro-pause; the
        // fleet is never paused as a whole).
        let mut collected = 0u64;
        for (k, &id) in self.ids.iter().enumerate() {
            source.pause_vm(id)?;
            let dirty = source.collect_dirty(id)?;
            source.resume_vm(id)?;
            let vm = &mut self.vms[k];
            collected += dirty.len() as u64;
            vm.persisted_staleness += dirty.len() as u64;
            vm.last_ewma = vm.ewma.observe(dirty.len() as f64);
            vm.pending.extend(dirty);
        }
        report.collected_pages = collected;
        if crash_gate(&self.faults, &format!("ckpt tick {t} refresh")) {
            report.crashed = Some(CrashPhase::Refresh);
            self.cadence.push(format!("tick {t}: crashed at refresh"));
            return Ok(report);
        }

        // Pick the VMs to refresh: at the staleness bound, or EWMA-paced
        // to reach it within the next interval.
        let bound = self.cfg.staleness_bound_pages.max(1);
        let refresh: Vec<usize> = (0..self.vms.len())
            .filter(|&k| {
                let vm = &self.vms[k];
                vm.persisted_staleness > 0
                    && (vm.persisted_staleness >= bound
                        || vm.persisted_staleness as f64 + vm.last_ewma >= bound as f64)
            })
            .collect();

        // Refresh the in-memory caches: fresh UISR (section-level
        // patched), then, on the pool, partials for the dirtied extents.
        let mut delta_list = Vec::with_capacity(refresh.len());
        let mut jobs = Vec::with_capacity(refresh.len());
        for (k, vm) in self.vms.iter_mut().enumerate() {
            if !refresh.contains(&k) {
                continue;
            }
            let id = self.ids[k];
            source.pause_vm(id)?;
            let fresh = source.save_uisr(machine, id)?;
            source.resume_vm(id)?;
            let (uisr, sections) = patch_uisr(&vm.warm.uisr, fresh);
            vm.warm.uisr = uisr;
            report.patched_sections += sections;
            delta_list.push(VmShape {
                fraction: vm.persisted_staleness as f64 / vm.warm.total_pages.max(1) as f64,
                ..vm.shape
            });
            jobs.push((vm.warm.dirty_extent_indices(&vm.pending), &mut vm.warm));
        }
        let machine_ref: &Machine = machine;
        self.pool
            .map(jobs, |(ext, warm)| warm.refresh(machine_ref, &ext));
        if crash_gate(&self.faults, &format!("ckpt tick {t} finalize")) {
            // Caches are refreshed but the directory is not: the persisted
            // (older) checkpoints stay authoritative for recovery, and the
            // staleness counters deliberately keep counting against them.
            report.crashed = Some(CrashPhase::Finalize);
            self.cadence.push(format!(
                "tick {t}: crashed at finalize ({} refreshes unpersisted)",
                refresh.len()
            ));
            return Ok(report);
        }

        // Persist: re-encode the refreshed blobs, rebuild the directory,
        // re-arm the rescue image.
        if !refresh.is_empty() {
            self.persist(machine, &refresh)?;
            for &k in &refresh {
                let vm = &mut self.vms[k];
                vm.persisted_staleness = 0;
                vm.pending.clear();
                report.refreshed.push(vm.name.clone());
            }
            report.persisted = true;
            self.refreshes += refresh.len() as u64;
            self.patched_sections += report.patched_sections;
        }

        // Background cost: warm delta translation plus the directory
        // rebuild for the refreshed VMs (below the time axis).
        let tick_cost = if refresh.is_empty() {
            SimDuration::ZERO
        } else {
            InPlacePricer::new(&self.cost, perf, Optimizations::default()).checkpoint(&delta_list)
        };
        clock.advance(tick_cost);
        self.background += tick_cost;
        report.duration = tick_cost;

        // Bound invariant: every VM ends a completed tick strictly below
        // its staleness bound.
        for vm in &mut self.vms {
            debug_assert!(vm.persisted_staleness < bound);
            vm.staleness_at_tick_end = vm.persisted_staleness;
        }
        self.cadence.push(format!(
            "tick {t}: collected={collected} refreshed=[{}] persisted={}",
            report.refreshed.join(","),
            report.persisted
        ));
        Ok(report)
    }

    /// Rebuilds the PRAM directory with the refreshed VMs' re-encoded
    /// blobs (other VMs' existing blob frames are reused as-is) and
    /// restages the rescue kexec image.
    fn persist(&mut self, machine: &mut Machine, refresh: &[usize]) -> Result<(), HtpError> {
        for &k in refresh {
            for (_, e) in &self.vms[k].blob_mappings {
                machine.ram_mut().free(*e)?;
            }
            self.vms[k].write_blob(machine)?;
        }
        // Recycle the old directory's metadata pages, then write a fresh
        // directory over the (mostly unchanged) data frames.
        for &m in &self.handle.meta_frames {
            machine.ram_mut().free(Extent::new(m, PageOrder(0)))?;
        }
        self.handle = stage_directory(machine, &self.vms, self.pool, self.target)?;
        Ok(())
    }
}

/// Per-VM state-loss accounting of one crash recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmLoss {
    /// VM name.
    pub name: String,
    /// Ground-truth pages whose post-checkpoint content the register
    /// rollback abandons: un-persisted dirty pages at the crash instant
    /// plus the uncollected tail. (The page *contents* survive in place;
    /// this counts how far the restored register/device state trails the
    /// crash-instant memory.)
    pub loss_pages: u64,
    /// Un-persisted dirty pages at the end of the last *completed*
    /// background tick — the quantity the staleness bound provably keeps
    /// below [`CheckpointConfig::staleness_bound_pages`].
    pub checkpoint_lag_pages: u64,
    /// Pages dirtied after the last dirty-log collection (measured by the
    /// post-mortem sweep at the crash instant).
    pub tail_pages: u64,
}

/// Timing and state-loss report of one unplanned transplant.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// VMs restored from warm checkpoints.
    pub vm_count: usize,
    /// Watchdog detection window.
    pub detection: SimDuration,
    /// Rescue micro-reboot (kexec + target boot + PRAM parse).
    pub reboot: SimDuration,
    /// Checkpoint adoption + restore + resume.
    pub restoration: SimDuration,
    /// NIC re-initialization (reported separately, as in Fig. 6).
    pub network: SimDuration,
    /// Crash-to-resumed recovery latency (detection + reboot +
    /// restoration). Warm checkpoints keep translation entirely out of
    /// this critical path.
    pub recovery_latency: SimDuration,
    /// Modeled latency of the cold ablation: the same crash without
    /// always-on checkpoints must salvage-translate every VM's state *and*
    /// build the PRAM directory before the micro-reboot can be taken.
    pub cold_latency: SimDuration,
    /// Per-VM state-loss accounting.
    pub losses: Vec<VmLoss>,
    /// The staleness bound the checkpointer ran with.
    pub loss_bound_pages: u64,
    /// Background ticks the checkpointer completed before the crash.
    pub checkpoint_ticks: u64,
    /// Per-VM checkpoint refreshes persisted before the crash.
    pub checkpoint_refreshes: u64,
    /// Cumulative simulated background checkpointing cost.
    pub background_time: SimDuration,
    /// Frames scrubbed by the rescue boot.
    pub scrubbed_frames: u64,
    /// Compatibility warnings from the target's adoptions.
    pub warnings: Vec<String>,
}

impl RecoveryReport {
    /// True when every VM's checkpoint lag at the last completed tick was
    /// strictly below the staleness bound — the provable half of the
    /// state-loss bound (the other half, the final-interval tail, is
    /// workload-controlled and reported per VM).
    pub fn within_bound(&self) -> bool {
        let bound = self.loss_bound_pages.max(1);
        self.losses.iter().all(|l| l.checkpoint_lag_pages < bound)
    }

    /// Total ground-truth loss pages across all VMs.
    pub fn total_loss_pages(&self) -> u64 {
        self.losses.iter().map(|l| l.loss_pages).sum()
    }

    /// How much faster warm recovery was than the cold ablation, in
    /// percent of the cold latency.
    pub fn warm_speedup_pct(&self) -> f64 {
        let cold = self.cold_latency.as_secs_f64();
        if cold <= 0.0 {
            return 0.0;
        }
        (cold - self.recovery_latency.as_secs_f64()) / cold * 100.0
    }

    /// Byte-stable rendering for replay-determinism assertions.
    pub fn render(&self) -> String {
        let losses: Vec<String> = self
            .losses
            .iter()
            .map(|l| {
                format!(
                    "{}:{}/{}/{}",
                    l.name, l.loss_pages, l.checkpoint_lag_pages, l.tail_pages
                )
            })
            .collect();
        format!(
            "vms={} latency_ns={} cold_ns={} detect_ns={} reboot_ns={} restore_ns={} \
             net_ns={} ticks={} refreshes={} background_ns={} bound={} loss{{{}}}",
            self.vm_count,
            self.recovery_latency.as_nanos(),
            self.cold_latency.as_nanos(),
            self.detection.as_nanos(),
            self.reboot.as_nanos(),
            self.restoration.as_nanos(),
            self.network.as_nanos(),
            self.checkpoint_ticks,
            self.checkpoint_refreshes,
            self.background_time.as_nanos(),
            self.loss_bound_pages,
            losses.join(",")
        )
    }
}

/// The crash-recovery engine: takes the dying hypervisor and the always-on
/// checkpointer, micro-reboots into the rescue hypervisor over the
/// pre-staged kexec+PRAM image, and adopts every VM from its freshest
/// persisted checkpoint.
pub struct UnplannedRecovery<'r> {
    registry: &'r HypervisorRegistry,
    cost: CostModel,
    faults: FaultPlan,
}

impl<'r> UnplannedRecovery<'r> {
    /// Creates a recovery engine over a hypervisor pool.
    pub fn new(registry: &'r HypervisorRegistry) -> Self {
        UnplannedRecovery {
            registry,
            cost: CostModel::paper_calibrated(),
            faults: FaultPlan::disarmed(),
        }
    }

    /// Replaces the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Installs a fault plan so `MicroRebooted` / `RestoredFromCheckpoint`
    /// recoveries land in the shared fault log.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Recovers from a hypervisor crash: post-mortem state-loss sweep,
    /// watchdog detection, rescue kexec into the checkpointer's target,
    /// VM discovery from the PRAM directory alone (each guest-memory file
    /// paired with its UISR blob), adoption of the in-place guest memory,
    /// and resume.
    ///
    /// `crashed` is consumed — its HV State dies with the old kernel.
    /// Guest memory stays in place and survives byte-identical (verified
    /// against a crash-instant checksum built from the checkpointer's
    /// cached per-extent partials).
    pub fn recover(
        &self,
        machine: &mut Machine,
        mut crashed: Box<dyn Hypervisor>,
        ckpt: WarmCheckpointer,
    ) -> Result<(Box<dyn Hypervisor>, RecoveryReport), HtpError> {
        let target = ckpt.target;
        if !self.registry.contains(target) {
            return Err(HtpError::UnknownHypervisor(target.name().to_string()));
        }
        let perf = machine.spec().perf();
        let clock = machine.clock().clone();
        let pool = ckpt.pool;
        let t_crash = clock.now();

        // Post-mortem sweep: ground-truth staleness at the crash instant.
        // The simulator reads the dying hypervisor's dirty logs directly;
        // a real watchdog extracts the same numbers from the crash dump.
        let mut losses = Vec::with_capacity(ckpt.vms.len());
        let mut baselines = Vec::with_capacity(ckpt.vms.len());
        for (k, vm) in ckpt.vms.iter().enumerate() {
            let tail = crashed.collect_dirty(ckpt.ids[k]).unwrap_or_default();
            losses.push(VmLoss {
                name: vm.name.clone(),
                loss_pages: vm.persisted_staleness + tail.len() as u64,
                checkpoint_lag_pages: vm.staleness_at_tick_end,
                tail_pages: tail.len() as u64,
            });
            // Crash-instant memory checksum: the cached partials are valid
            // except for extents dirtied since they were computed — which
            // is exactly pending ∪ tail.
            let mut dirty = vm.pending.clone();
            dirty.extend(tail);
            let ext = vm.warm.dirty_extent_indices(&dirty);
            baselines.push((
                vm.name.clone(),
                vm.warm.checksum_after(machine, &ext, &pool),
            ));
        }
        let total_loss: u64 = losses.iter().map(|l| l.loss_pages).sum();
        self.faults.record_recovery(
            InjectionPoint::HypervisorCrash,
            RecoveryAction::MicroRebooted,
            &format!(
                "{} crashed; micro-rebooting into {} with {} warm checkpoints ({} stale pages)",
                crashed.kind().name(),
                target.name(),
                ckpt.vms.len(),
                total_loss
            ),
        );
        // HV State dies with the crashed kernel. Guest memory stays put.
        drop(crashed);

        // Watchdog window, then the pre-staged rescue kexec — a dead
        // hypervisor cannot stage anything, so the image must already be
        // armed (the checkpointer re-arms it on every persist). Guest
        // files map the live frames, so crash-instant memory must survive
        // byte-identical; only registers roll back.
        clock.advance(ckpt.cfg.detection);
        // Translation and the PRAM build are priced only for the cold
        // ablation: the warm checkpoints already paid for them.
        let shapes: Vec<VmShape> = ckpt.vms.iter().map(|v| v.shape).collect();
        let pricer = InPlacePricer::new(&self.cost, perf, Optimizations::default());
        let price = pricer.price(&shapes, target, ckpt.handle.stats().entries, false);
        let landed = kexec_and_adopt(
            machine,
            self.registry,
            &pricer,
            target,
            (price.reboot, price.restoration),
            &baselines,
            &pool,
        )?;
        for name in &landed.names {
            let loss = losses
                .iter()
                .find(|l| &l.name == name)
                .map_or(0, |l| l.loss_pages);
            self.faults.record_recovery(
                InjectionPoint::HypervisorCrash,
                RecoveryAction::RestoredFromCheckpoint,
                &format!("{name}: restored from warm checkpoint ({loss} stale pages lost)"),
            );
        }

        let recovery_latency = landed.resumed_at.duration_since(t_crash);
        let cold_latency = recovery_latency + price.pram + price.translation;

        let report = RecoveryReport {
            vm_count: landed.names.len(),
            detection: ckpt.cfg.detection,
            reboot: price.reboot,
            restoration: recovery_latency - ckpt.cfg.detection - price.reboot,
            network: landed.network,
            recovery_latency,
            cold_latency,
            losses,
            loss_bound_pages: ckpt.cfg.staleness_bound_pages,
            checkpoint_ticks: ckpt.ticks,
            checkpoint_refreshes: ckpt.refreshes,
            background_time: ckpt.background,
            scrubbed_frames: landed.scrubbed,
            warnings: landed.warnings,
        };
        Ok((landed.hv, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::SimpleHv;
    use crate::vm::{VmConfig, VmState};
    use hypertp_machine::MachineSpec;
    use hypertp_uisr::UisrVm;

    fn registry() -> HypervisorRegistry {
        let mut r = HypervisorRegistry::new();
        r.register(HypervisorKind::Xen, |_m| {
            Box::new(SimpleHv::new(HypervisorKind::Xen))
        });
        r.register(HypervisorKind::Kvm, |_m| {
            Box::new(SimpleHv::new(HypervisorKind::Kvm))
        });
        r
    }

    fn machine_gb(gb: u64) -> Machine {
        let mut spec = MachineSpec::m1();
        spec.ram_gb = gb;
        Machine::new(spec)
    }

    fn cfg_bound(bound: u64) -> CheckpointConfig {
        CheckpointConfig {
            staleness_bound_pages: bound,
            ..CheckpointConfig::default()
        }
    }

    /// Pause/save/resume a VM to snapshot its architectural state without
    /// perturbing it.
    fn snapshot(hv: &mut dyn Hypervisor, m: &Machine, id: VmId) -> UisrVm {
        hv.pause_vm(id).unwrap();
        let u = hv.save_uisr(m, id).unwrap();
        hv.resume_vm(id).unwrap();
        u
    }

    #[test]
    fn crash_recovery_preserves_memory_and_restores_a_legal_state() {
        let reg = registry();
        let mut m = machine_gb(8);
        let mut src: Box<dyn Hypervisor> = Box::new(SimpleHv::new(HypervisorKind::Xen));
        let mut ids = Vec::new();
        for i in 0..3u64 {
            let id = src
                .create_vm(&mut m, &VmConfig::small(format!("svc{i}")))
                .unwrap();
            src.write_guest(&mut m, id, Gfn(100 + i), 0xbeef_0000 + i)
                .unwrap();
            ids.push(id);
        }
        let mut ckpt =
            WarmCheckpointer::start(&mut m, src.as_mut(), HypervisorKind::Kvm, cfg_bound(64))
                .unwrap();

        // Legal pre-crash states: the initial checkpoint plus every
        // completed tick's state.
        let mut legal: Vec<Vec<UisrVm>> = ids
            .iter()
            .map(|&id| vec![snapshot(src.as_mut(), &m, id)])
            .collect();
        for _ in 0..4 {
            let r = ckpt.tick(&mut m, src.as_mut(), 40).unwrap();
            assert!(r.crashed.is_none());
            for (k, &id) in ids.iter().enumerate() {
                legal[k].push(snapshot(src.as_mut(), &m, id));
            }
        }
        assert!(ckpt.refreshes() > 0, "40 pages/tick must cross a 64 bound");

        // Crash-window writes: dirtied after the last tick, preserved in
        // place by the recovery.
        for (i, &id) in ids.iter().enumerate() {
            src.write_guest(&mut m, id, Gfn(200 + i as u64), 0xdead_0000 + i as u64)
                .unwrap();
        }

        let engine = UnplannedRecovery::new(&reg);
        let (hv, report) = engine.recover(&mut m, src, ckpt).unwrap();
        assert_eq!(hv.kind(), HypervisorKind::Kvm);
        assert_eq!(report.vm_count, 3);
        assert_eq!(m.boot_count(), 2);
        assert!(report.within_bound(), "{:?}", report.losses);
        assert!(report.recovery_latency < report.cold_latency);
        let mut hv = hv;
        for i in 0..3u64 {
            let name = format!("svc{i}");
            let id = hv.find_vm(&name).unwrap();
            assert_eq!(hv.vm_state(id).unwrap(), VmState::Running);
            // Memory (including crash-window writes) survived in place.
            assert_eq!(
                hv.read_guest(&m, id, Gfn(100 + i)).unwrap(),
                0xbeef_0000 + i
            );
            assert_eq!(
                hv.read_guest(&m, id, Gfn(200 + i)).unwrap(),
                0xdead_0000 + i
            );
            // Registers rolled back to a legal pre-crash state.
            let restored = snapshot(hv.as_mut(), &m, id);
            let k = i as usize;
            assert!(
                legal[k].iter().any(|u| u.vcpus == restored.vcpus),
                "{name}: restored vCPU state must equal a recorded checkpoint"
            );
        }
    }

    #[test]
    fn crash_phases_all_recover_from_the_persisted_image() {
        // Arm the crash gate at each in-tick phase (the gate is consulted
        // 3× per tick: warm-round, refresh, finalize) and once between
        // ticks (idle), and verify every phase recovers with no VM lost.
        for (ordinal, phase) in [
            (1, Some(CrashPhase::WarmRound)),
            (2, Some(CrashPhase::Refresh)),
            (3, Some(CrashPhase::Finalize)),
            (4, None), // survives the first tick; fires at the idle gate
        ] {
            let reg = registry();
            let mut m = machine_gb(8);
            let mut src: Box<dyn Hypervisor> = Box::new(SimpleHv::new(HypervisorKind::Xen));
            let id = src.create_vm(&mut m, &VmConfig::small("vm0")).unwrap();
            src.write_guest(&mut m, id, Gfn(7), 0x7777).unwrap();
            let plan = FaultPlan::new(0x9e8e);
            plan.arm_calls(InjectionPoint::HypervisorCrash, &[ordinal]);
            let mut ckpt = WarmCheckpointer::start_with(
                &mut m,
                src.as_mut(),
                HypervisorKind::Kvm,
                cfg_bound(8),
                CostModel::paper_calibrated(),
                plan.clone(),
                WorkerPool::from_env(),
            )
            .unwrap();
            let r = ckpt.tick(&mut m, src.as_mut(), 16).unwrap();
            assert_eq!(r.crashed, phase, "ordinal {ordinal}");
            if r.crashed.is_none() {
                assert!(crash_gate(&plan, "idle watchdog"), "ordinal {ordinal}");
            }
            let engine = UnplannedRecovery::new(&reg).with_faults(plan.clone());
            let (hv, report) = engine.recover(&mut m, src, ckpt).unwrap();
            assert_eq!(report.vm_count, 1, "ordinal {ordinal}");
            assert!(report.within_bound(), "ordinal {ordinal}");
            let id2 = hv.find_vm("vm0").expect("vm0 must survive the crash");
            assert_eq!(hv.read_guest(&m, id2, Gfn(7)).unwrap(), 0x7777);
            assert!(plan.log().recovered_via(
                InjectionPoint::HypervisorCrash,
                RecoveryAction::MicroRebooted
            ));
            assert!(plan.log().recovered_via(
                InjectionPoint::HypervisorCrash,
                RecoveryAction::RestoredFromCheckpoint
            ));
        }
    }

    #[test]
    fn finalize_crash_restores_older_persisted_checkpoint() {
        // A crash between cache refresh and persist must restore the
        // *previous* persisted state, and the staleness counters keep
        // counting against it (no bound violation is masked).
        let reg = registry();
        let mut m = machine_gb(8);
        let mut src: Box<dyn Hypervisor> = Box::new(SimpleHv::new(HypervisorKind::Xen));
        let id = src.create_vm(&mut m, &VmConfig::small("vm0")).unwrap();
        let plan = FaultPlan::new(0xf1fa);
        // Tick 1 completes (3 clean gate draws); tick 2 crashes at
        // finalize (6th draw).
        plan.arm_calls(InjectionPoint::HypervisorCrash, &[6]);
        let mut ckpt = WarmCheckpointer::start_with(
            &mut m,
            src.as_mut(),
            HypervisorKind::Kvm,
            cfg_bound(8),
            CostModel::paper_calibrated(),
            plan.clone(),
            WorkerPool::from_env(),
        )
        .unwrap();
        let r1 = ckpt.tick(&mut m, src.as_mut(), 16).unwrap();
        assert!(r1.persisted && r1.crashed.is_none());
        assert!(
            r1.patched_sections > 0,
            "the warm refresh patched something"
        );
        let persisted_state = snapshot(src.as_mut(), &m, id);
        let r2 = ckpt.tick(&mut m, src.as_mut(), 16).unwrap();
        assert_eq!(r2.crashed, Some(CrashPhase::Finalize));
        let engine = UnplannedRecovery::new(&reg).with_faults(plan);
        let (hv, report) = engine.recover(&mut m, src, ckpt).unwrap();
        let mut hv = hv;
        let id2 = hv.find_vm("vm0").unwrap();
        let restored = snapshot(hv.as_mut(), &m, id2);
        assert_eq!(
            restored.vcpus, persisted_state.vcpus,
            "finalize crash restores the last persisted checkpoint"
        );
        // The tick-2 dirt counts as loss (it was refreshed in memory but
        // never persisted).
        assert!(report.losses[0].loss_pages > 0);
    }

    #[test]
    fn zero_vm_host_recovers_cleanly() {
        let reg = registry();
        let mut m = machine_gb(4);
        let mut src: Box<dyn Hypervisor> = Box::new(SimpleHv::new(HypervisorKind::Xen));
        let mut ckpt = WarmCheckpointer::start(
            &mut m,
            src.as_mut(),
            HypervisorKind::Kvm,
            CheckpointConfig::default(),
        )
        .unwrap();
        ckpt.tick(&mut m, src.as_mut(), 10).unwrap();
        let engine = UnplannedRecovery::new(&reg);
        let (hv, report) = engine.recover(&mut m, src, ckpt).unwrap();
        assert_eq!(hv.kind(), HypervisorKind::Kvm);
        assert_eq!(report.vm_count, 0);
        assert!(report.within_bound());
    }

    #[test]
    fn recovery_is_deterministic_for_a_seed() {
        let run = || {
            let reg = registry();
            let mut m = machine_gb(8);
            let mut src: Box<dyn Hypervisor> = Box::new(SimpleHv::new(HypervisorKind::Xen));
            for i in 0..2 {
                src.create_vm(&mut m, &VmConfig::small(format!("vm{i}")))
                    .unwrap();
            }
            let plan = FaultPlan::new(0xdede);
            plan.arm_calls(InjectionPoint::HypervisorCrash, &[5]);
            let mut ckpt = WarmCheckpointer::start_with(
                &mut m,
                src.as_mut(),
                HypervisorKind::Kvm,
                cfg_bound(16),
                CostModel::paper_calibrated(),
                plan.clone(),
                WorkerPool::from_env(),
            )
            .unwrap();
            for _ in 0..3 {
                if ckpt
                    .tick(&mut m, src.as_mut(), 12)
                    .unwrap()
                    .crashed
                    .is_some()
                {
                    break;
                }
            }
            let engine = UnplannedRecovery::new(&reg).with_faults(plan.clone());
            let (_hv, report) = engine.recover(&mut m, src, ckpt).unwrap();
            format!("{}\n{}", report.render(), plan.log().render())
        };
        assert_eq!(run(), run());
    }
}
