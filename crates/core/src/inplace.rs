//! InPlaceTP: in-place, micro-reboot-based hypervisor transplant (Fig. 3).
//!
//! Workflow: ❶ stage the target kernel, ❷ pause all VMs, ❸ translate each
//! VM's VMi State to UISR (saved in RAM via PRAM files), ❹ micro-reboot
//! into the target with the PRAM pointer on the command line, ❺ parse PRAM,
//! rebuild VM management state, ❻ adopt the in-place guest memory and apply
//! the UISR, ❼ resume guests and free ephemeral metadata.
//!
//! The §4.2.5 optimizations are individually toggleable through
//! [`Optimizations`]; the ablation bench measures each one's contribution.

use hypertp_machine::{
    combine_partials, frame_runs, Extent, Gfn, KexecImage, Machine, Mfn, PageOrder,
};
use hypertp_pram::{PramBuilder, PramError, PramFile, PramHandle, PramImage, PramStats};
use hypertp_sim::cost::{MachinePerf, VmShape};
use hypertp_sim::fault::{FaultPlan, InjectionPoint, RecoveryAction};
use hypertp_sim::{CostModel, Ewma, SimClock, SimDuration, SimTime, WorkerPool};
use hypertp_uisr::UisrVm;

use crate::vm::VmId;

use crate::error::HtpError;
use crate::hypervisor::{Hypervisor, HypervisorKind};
use crate::registry::HypervisorRegistry;
use crate::uisr_store;

/// The §4.2.5 optimization toggles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Optimizations {
    /// "Preparation work without pausing the guest": build PRAM structures
    /// before pausing VMs, so only finalization lands in the downtime.
    pub prepare_before_pause: bool,
    /// "Parallelization": translate/restore each VM on its own worker
    /// thread. When off, all per-VM work is serialized on one core.
    pub parallel: bool,
    /// "Early restoration": start VM restoration as soon as KVM's services
    /// are up instead of waiting for full userspace boot.
    pub early_restoration: bool,
    /// Strict pre-flight: run the target hypervisor's compatibility
    /// validator over every VM's UISR before the micro-reboot and abort
    /// (resuming the VMs on the source) if any translation would be lossy
    /// — the compatible-IOAPIC direction the paper sketches as future
    /// work in §4.2.1. Off by default: the paper's prototype applies the
    /// lossy fixes and reports them.
    pub strict_preflight: bool,
    /// Incremental pre-pause UISR translation: enable dirty logging and
    /// take warm `save → to_uisr → encode` snapshots (plus per-extent
    /// checksum partials) while the VMs are still running, iterating
    /// EWMA-driven refresh rounds until the redirty rate converges. At
    /// pause time only the final dirty slices are re-translated and only
    /// the dirty extents' partials recombined, so the blackout translation
    /// term scales with the final dirty set instead of the VM size — the
    /// InPlaceTP analogue of iterative pre-copy (Clark et al., NSDI'05).
    /// Off by default: the pinned Fig. 6 timings are the full-translate
    /// path.
    pub incremental_translate: bool,
}

impl Default for Optimizations {
    fn default() -> Self {
        Optimizations {
            prepare_before_pause: true,
            parallel: true,
            early_restoration: true,
            strict_preflight: false,
            incremental_translate: false,
        }
    }
}

impl Optimizations {
    /// All optimizations disabled (baseline for the ablation).
    pub fn none() -> Self {
        Optimizations {
            prepare_before_pause: false,
            parallel: false,
            early_restoration: false,
            strict_preflight: false,
            incremental_translate: false,
        }
    }
}

/// Tuning knobs for the incremental warm-translate loop
/// ([`Optimizations::incremental_translate`]). The stop rule mirrors the
/// MigrationTP pre-copy controller: keep refreshing while the EWMA of the
/// redirty rate is still shrinking, bail out once returns diminish or the
/// dirty fraction is already small enough to pause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncrementalConfig {
    /// Pages per second the guests redirty while warm rounds run (the
    /// simulated workload; each warm round ticks every guest with
    /// `rate × previous round duration` pages).
    pub dirty_rate_pages_per_sec: f64,
    /// EWMA smoothing factor for the per-round redirty page count.
    pub ewma_alpha: f64,
    /// Hard cap on warm refresh rounds after the initial snapshot.
    pub max_warm_rounds: u32,
    /// Pause as soon as the observed dirty fraction of guest memory drops
    /// to or below this value.
    pub stop_dirty_fraction: f64,
    /// Stop refreshing when the redirty EWMA improves by less than this
    /// relative amount between rounds (diminishing returns).
    pub min_improvement: f64,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig {
            dirty_rate_pages_per_sec: 0.0,
            ewma_alpha: 0.5,
            max_warm_rounds: 8,
            stop_dirty_fraction: 0.01,
            min_improvement: 0.10,
        }
    }
}

/// Telemetry for one warm refresh round of the incremental translate loop
/// (round 0 is the initial full snapshot).
#[derive(Debug, Clone, PartialEq)]
pub struct WarmRound {
    /// Pages the simulated workload dirtied in *each* guest before this
    /// round's collection (0 for the initial snapshot round).
    pub tick_pages: u64,
    /// Total dirty pages collected across all VMs this round.
    pub dirty_pages: u64,
    /// Dirty fraction of total guest memory this round re-translated.
    pub dirty_fraction: f64,
    /// EWMA of the redirty page count after observing this round.
    pub redirty_ewma: f64,
    /// Simulated duration of this round's warm translation work.
    pub duration: SimDuration,
}

/// Timing breakdown and bookkeeping of one InPlaceTP run (the Fig. 6 bars).
#[derive(Debug, Clone, PartialEq)]
pub struct InPlaceReport {
    /// Number of VMs transplanted.
    pub vm_count: usize,
    /// Device quiescing time (§4.2.3: guest notification, queue draining,
    /// network unplug). Pre-pause, like PRAM construction.
    pub device_prepare: SimDuration,
    /// PRAM structure construction time. Below the time axis in Fig. 6
    /// when `prepare_before_pause` is on (it does not count as downtime).
    pub pram: SimDuration,
    /// UISR translation time (plus PRAM construction when preparation is
    /// disabled).
    pub translation: SimDuration,
    /// Micro-reboot time: kexec + target kernel boot + early-boot PRAM
    /// parse.
    pub reboot: SimDuration,
    /// UISR restoration time.
    pub restoration: SimDuration,
    /// Network re-initialization time (reported separately, as in Fig. 6:
    /// it only affects network-dependent applications).
    pub network: SimDuration,
    /// Size statistics of the PRAM metadata that was built.
    pub pram_stats: PramStats,
    /// Total encoded UISR bytes saved across the reboot.
    pub uisr_bytes: u64,
    /// Frames scrubbed by the target's boot (unreserved leftovers).
    pub scrubbed_frames: u64,
    /// Compatibility warnings from the target's `from_uisr` translations.
    pub warnings: Vec<String>,
    /// Total warm-translate time spent while the VMs were still running
    /// (below the Fig. 6 time axis, like pre-pause PRAM construction).
    /// Zero unless [`Optimizations::incremental_translate`] was on and the
    /// warm phase completed.
    pub warm_translate: SimDuration,
    /// Pause-time dirty-delta translation cost — the part of
    /// `translation` that the incremental path actually spends inside the
    /// blackout. Zero on the full-translate path.
    pub delta_translate: SimDuration,
    /// Final dirty fraction of guest memory re-translated inside the
    /// pause window (1.0 on the full-translate path).
    pub dirty_fraction: f64,
    /// Per-round telemetry of the warm refresh loop (empty on the
    /// full-translate path). Round 0 is the initial full snapshot.
    pub warm_rounds: Vec<WarmRound>,
    /// Pages dirtied in each guest by the simulated workload during the
    /// last warm round — collected into the pause-time delta set.
    pub warm_carryover_pages: u64,
    /// UISR sections patched from the final pause-time save instead of
    /// reused from the warm snapshot, summed over all VMs.
    pub patched_sections: u64,
}

impl InPlaceReport {
    /// VM downtime: Translation + Reboot + Restoration (§5.2).
    pub fn downtime(&self) -> SimDuration {
        self.translation + self.reboot + self.restoration
    }

    /// Total transplant time including pre-pause preparation (PRAM
    /// construction and any incremental warm-translate rounds).
    pub fn total(&self) -> SimDuration {
        self.device_prepare + self.pram + self.warm_translate + self.downtime()
    }

    /// Downtime observed by network-dependent applications: the NIC comes
    /// back after the reboot, concurrently with restoration but typically
    /// much slower (6.6 s on M1).
    pub fn downtime_with_network(&self) -> SimDuration {
        self.downtime()
            .max(self.translation + self.reboot + self.network)
    }
}

/// The four Fig. 6 stage costs of one InPlaceTP, as
/// [`InPlacePricer::price`] charges them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InPlacePrice {
    /// PRAM construction.
    pub pram: SimDuration,
    /// Pause-time UISR translation.
    pub translation: SimDuration,
    /// Micro-reboot: kexec, target boot and the early-boot PRAM parse.
    pub reboot: SimDuration,
    /// UISR restoration, without resuming the VMs.
    pub restoration: SimDuration,
}

impl InPlacePrice {
    /// All four stages end to end.
    pub fn total(&self) -> SimDuration {
        self.pram + self.translation + self.reboot + self.restoration
    }
}

/// Prices InPlaceTP's stages on one machine: the one place the cost
/// model's in-place terms are charged. The planned engine, the warm
/// checkpointer, crash recovery and the campaign executor all read their
/// stage costs from it.
#[derive(Debug, Clone, Copy)]
pub struct InPlacePricer<'c> {
    cost: &'c CostModel,
    perf: MachinePerf,
    /// The machine as the per-VM stages see it: a single worker when the
    /// parallelization optimization is off.
    pool: MachinePerf,
    early_restoration: bool,
}

impl<'c> InPlacePricer<'c> {
    /// A pricer for a machine of performance `perf` running with `opts`
    /// (the `parallel` and `early_restoration` toggles change prices).
    pub fn new(cost: &'c CostModel, perf: MachinePerf, opts: Optimizations) -> Self {
        let threads = if opts.parallel {
            perf.threads
        } else {
            perf.reserved_threads + 1
        };
        let pool = MachinePerf { threads, ..perf };
        let early_restoration = opts.early_restoration;
        InPlacePricer {
            cost,
            perf,
            pool,
            early_restoration,
        }
    }

    /// The four stages of an InPlaceTP of `vms` into `target` whose PRAM
    /// directory holds `pram_entries` entries. With `warm`, translation is
    /// the dirty-delta re-translation at each VM's `fraction`; otherwise
    /// it is the full translation.
    pub fn price(
        &self,
        vms: &[VmShape],
        target: HypervisorKind,
        pram_entries: u64,
        warm: bool,
    ) -> InPlacePrice {
        let (cost, perf) = (self.cost, &self.perf);
        let total_gb = vms.iter().fold(0.0, |gb, v| gb + v.gb);
        InPlacePrice {
            pram: self.pram(vms),
            translation: if warm {
                cost.delta_translate(&self.pool, vms)
            } else {
                cost.translate(&self.pool, vms)
            },
            reboot: cost.reboot(perf, target.boot_target(), total_gb, pram_entries),
            restoration: cost.restore(perf, vms, self.early_restoration),
        }
    }

    /// CPU time to resume `vms` VMs after the restoration.
    pub fn resume(&self, vms: usize) -> SimDuration {
        self.perf.cpu(self.cost.resume_ghz_s_per_vm * vms as f64)
    }

    pub(crate) fn pram(&self, vms: &[VmShape]) -> SimDuration {
        self.cost.pram_build(&self.pool, vms)
    }

    /// One warm translation pass while the VMs keep running.
    pub(crate) fn warm_pass(&self, vms: &[VmShape]) -> SimDuration {
        self.cost.warm_translate(&self.pool, vms)
    }

    /// One background checkpoint of `vms`: a warm pass plus the PRAM
    /// directory build.
    pub(crate) fn checkpoint(&self, vms: &[VmShape]) -> SimDuration {
        self.warm_pass(vms) + self.pram(vms)
    }
}

/// Per-VM artifacts produced by the parallel translate phase: everything
/// the engine needs downstream of `save_uisr`, computed on one pool worker.
struct SavedVm {
    name: String,
    map: Vec<(Gfn, Extent)>,
    uisr: UisrVm,
    blob: Vec<u8>,
    checksum: u64,
    /// UISR sections the pause-time finalize had to patch over the warm
    /// snapshot (0 on the full-translate path).
    patched_sections: u64,
}

/// Per-VM warm-translate cache built while the VM is still running: the
/// snapshot UISR plus the per-extent checksum partials that later passes
/// refresh for the dirtied extents instead of rehashing every frame. The
/// planned warm phase and the always-on checkpointer
/// ([`crate::unplanned::WarmCheckpointer`]) both keep one per VM.
pub(crate) struct WarmVm {
    /// Memory map exactly as `guest_memory_map` returned it (the PRAM
    /// file mappings must be byte-identical to the full path's).
    pub(crate) map: Vec<(Gfn, Extent)>,
    /// Extents in map order — the checksum unit.
    extents: Vec<Extent>,
    /// `(gfn_start, pages, extent index)` sorted by `gfn_start`, for
    /// dirty-Gfn → extent lookup.
    lookup: Vec<(u64, u64, usize)>,
    /// Cached per-extent checksum partials.
    partials: Vec<u64>,
    /// Latest warm UISR snapshot.
    pub(crate) uisr: UisrVm,
    /// Total guest pages (denominator of the dirty fraction).
    pub(crate) total_pages: u64,
}

impl WarmVm {
    /// Snapshots every VM in `ids`, each micro-paused on its own: memory
    /// map, UISR, and a drained dirty log, so the log counts from the
    /// snapshot on. The partials are then hashed on `pool`, one VM per
    /// task, with the guests already back up.
    pub(crate) fn snapshot(
        machine: &Machine,
        source: &mut dyn Hypervisor,
        ids: &[VmId],
        pool: &WorkerPool,
    ) -> Result<Vec<WarmVm>, HtpError> {
        let mut vms = Vec::with_capacity(ids.len());
        for &id in ids {
            source.pause_vm(id)?;
            let map = source.guest_memory_map(id)?;
            let uisr = source.save_uisr(machine, id)?;
            // Discard anything dirtied before the snapshot existed.
            let _ = source.collect_dirty(id)?;
            source.resume_vm(id)?;
            let extents: Vec<Extent> = map.iter().map(|(_, e)| *e).collect();
            let mut lookup: Vec<(u64, u64, usize)> = map
                .iter()
                .enumerate()
                .map(|(i, (g, e))| (g.0, e.pages(), i))
                .collect();
            lookup.sort_unstable();
            vms.push(WarmVm {
                total_pages: extents.iter().map(|e| e.pages()).sum(),
                map,
                extents,
                lookup,
                partials: Vec::new(),
                uisr,
            });
        }
        // Serial inner hashing: the per-VM tasks already fill the pool.
        let partials = pool
            .map_indices(vms.len(), |i| {
                machine
                    .ram()
                    .extent_partials_with_pool(&vms[i].extents, &WorkerPool::serial())
            })
            .results;
        for (vm, p) in vms.iter_mut().zip(partials) {
            vm.partials = p;
        }
        Ok(vms)
    }

    /// Rehashes the extents at `dirty_ext` into the cached partials
    /// (serially: callers run one VM per pool task).
    pub(crate) fn refresh(&mut self, machine: &Machine, dirty_ext: &[usize]) {
        machine.ram().refresh_partials_with_pool(
            &self.extents,
            &mut self.partials,
            dirty_ext,
            &WorkerPool::serial(),
        );
    }

    /// The guest checksum with the extents at `dirty_ext` rehashed; the
    /// cache itself is left as it is.
    pub(crate) fn checksum_after(
        &self,
        machine: &Machine,
        dirty_ext: &[usize],
        pool: &WorkerPool,
    ) -> u64 {
        let mut partials = self.partials.clone();
        machine
            .ram()
            .refresh_partials_with_pool(&self.extents, &mut partials, dirty_ext, pool);
        combine_partials(&partials)
    }

    /// Maps a sorted dirty-Gfn list to the (ascending) indices of the
    /// extents containing them.
    pub(crate) fn dirty_extent_indices(&self, dirty: &[Gfn]) -> Vec<usize> {
        let mut hit = vec![false; self.extents.len()];
        for g in dirty {
            let pos = self.lookup.partition_point(|&(start, _, _)| start <= g.0);
            if pos > 0 {
                let (start, pages, idx) = self.lookup[pos - 1];
                if g.0 < start + pages {
                    hit[idx] = true;
                }
            }
        }
        (0..hit.len()).filter(|&i| hit[i]).collect()
    }
}

/// Everything the warm phase hands to the pause-time delta finalize.
struct WarmState {
    vms: Vec<WarmVm>,
    total: SimDuration,
    rounds: Vec<WarmRound>,
    carryover_pages: u64,
}

/// Rebuilds the final UISR from a warm snapshot by patching only the
/// sections the fresh pause-time save shows changed. The result is equal
/// to `fresh` by construction (changed sections are overwritten, unchanged
/// ones are already equal); the return also counts how many sections
/// needed patching. The unplanned checkpointer reuses this as its
/// section-level (default) refresh path.
pub(crate) fn patch_uisr(warm: &UisrVm, fresh: UisrVm) -> (UisrVm, u64) {
    fn patch<T: PartialEq>(section: &mut T, fresh: T) -> u64 {
        let changed = *section != fresh;
        if changed {
            *section = fresh;
        }
        changed as u64
    }
    let mut out = warm.clone();
    let UisrVm {
        name,
        vcpus,
        ioapic,
        pit,
        devices,
        memory,
    } = fresh;
    let patched = patch(&mut out.name, name)
        + patch(&mut out.vcpus, vcpus)
        + patch(&mut out.ioapic, ioapic)
        + patch(&mut out.pit, pit)
        + patch(&mut out.devices, devices)
        + patch(&mut out.memory, memory);
    (out, patched)
}

/// What [`kexec_and_adopt`] hands back to the report builders.
pub(crate) struct Landed {
    /// The target hypervisor, every VM adopted and running.
    pub(crate) hv: Box<dyn Hypervisor>,
    /// Adopted VM names, in PRAM directory order.
    pub(crate) names: Vec<String>,
    /// Compatibility warnings from the target's adoptions.
    pub(crate) warnings: Vec<String>,
    /// Frames the target's boot scrubbed.
    pub(crate) scrubbed: u64,
    /// NIC re-initialization time.
    pub(crate) network: SimDuration,
    /// The instant every VM was running again.
    pub(crate) resumed_at: SimTime,
}

/// Steps ❹–❼ of Fig. 3, the part of InPlaceTP that crash recovery shares:
/// kexec into the staged image, parse, verify and reserve PRAM, scrub,
/// boot `target`, adopt every VM from its UISR blob, check its memory
/// against `baselines` (`(name, checksum)`), resume, and free the
/// ephemeral metadata. The caller has staged the image and dropped the
/// source hypervisor; `reboot` and `restore` are the simulated costs to
/// charge for the micro-reboot and the restoration, and `pricer` prices
/// the resume.
pub(crate) fn kexec_and_adopt(
    machine: &mut Machine,
    registry: &HypervisorRegistry,
    pricer: &InPlacePricer,
    target: HypervisorKind,
    (reboot, restore): (SimDuration, SimDuration),
    baselines: &[(String, u64)],
    pool: &WorkerPool,
) -> Result<Landed, HtpError> {
    let clock = machine.clock().clone();
    machine.kexec()?;
    clock.advance(reboot);

    // Early boot of the target: parse PRAM from the command line,
    // reserve every recorded frame, then let boot scrubbing run.
    let pram_ptr = hypertp_pram::fs::pram_ptr_from_cmdline(machine.booted_cmdline())
        .ok_or(HtpError::Pram(PramError::BadMagic { mfn: Mfn(0) }))?;
    let image = PramImage::parse(machine.ram(), pram_ptr)?;
    image.verify().map_err(HtpError::Pram)?;
    refuse_shared_frames(&image)?;
    image.reserve_all(machine.ram_mut())?;
    let scrubbed = machine.ram_mut().scrub_unreserved();

    // ❺ Boot the target hypervisor (rebuilds VM Management State).
    let mut hv = registry.create(target, machine)?;

    // ❻ Adopt each VM: decode its UISR blob and link the in-place guest
    // memory. Blob load + decode are read-only and run per VM on the pool;
    // the adopt step mutates the target hypervisor and stays serial, in
    // PRAM directory order.
    let pairs = pair_files(&image)?;
    let machine_ref: &Machine = machine;
    let decoded = pool
        .map_indices(pairs.len(), |i| -> Result<UisrVm, HtpError> {
            let blob = uisr_store::load_blob(machine_ref.ram(), pairs[i].1)?;
            Ok(hypertp_uisr::decode(&blob)?)
        })
        .results;
    let mut warnings = Vec::new();
    let mut adopted = Vec::with_capacity(pairs.len());
    for ((guest, _), uisr) in pairs.iter().zip(decoded) {
        let restored = hv.adopt_vm(machine, &uisr?, &guest.mappings)?;
        warnings.extend(restored.warnings.iter().cloned());
        adopted.push((guest.name.clone(), restored.id));
    }
    clock.advance(restore);

    // Integrity check: guest memory must be byte-identical.
    for (name, expected) in baselines {
        let violation = || HtpError::IntegrityViolation {
            vm_name: name.clone(),
        };
        let id = hv.find_vm(name).ok_or_else(violation)?;
        let map = hv.guest_memory_map(id)?;
        let extents: Vec<_> = map.iter().map(|(_, e)| *e).collect();
        if machine.ram().checksum_with_pool(&extents, pool) != *expected {
            return Err(violation());
        }
        // The target must have re-owned every guest frame; otherwise
        // dropping the PRAM reservations below would let the allocator
        // recycle live guest memory.
        let ram = machine.ram();
        if !frame_runs(extents).all(|(base, pages)| ram.all_allocated(base, pages)) {
            return Err(violation());
        }
    }

    // ❼ Resume guests and free ephemeral metadata.
    for (_, id) in &adopted {
        hv.resume_vm(*id)?;
    }
    clock.advance(pricer.resume(adopted.len()));
    let resumed_at = clock.now();
    for file in image.files.iter().filter(|f| uisr_store::is_uisr_file(f)) {
        uisr_store::release_blob(machine.ram_mut(), file)?;
    }
    image.release_metadata(machine.ram_mut())?;
    // Guest frames stay allocated (adopted); drop their reservations.
    let guests = image.files.iter().filter(|f| !uisr_store::is_uisr_file(f));
    for (base, pages) in frame_runs(guests.flat_map(PramFile::extents)) {
        machine.ram_mut().unreserve_and_free(base, pages)?;
    }

    // NIC re-initialization, reported separately (Fig. 6 "Network").
    let network = machine.bring_up_nic();
    Ok(Landed {
        hv,
        names: adopted.into_iter().map(|(name, _)| name).collect(),
        warnings,
        scrubbed,
        network,
        resumed_at,
    })
}

/// Refuses a PRAM directory in which two extents — of one file or of two,
/// guest memory or UISR blob — claim the same machine frame, before any
/// frame is reserved. Adopting it would hand one frame to two owners, and
/// where the shared frames hold equal words the integrity checksums
/// cannot tell.
fn refuse_shared_frames(image: &PramImage) -> Result<(), HtpError> {
    let mut runs: Vec<_> = frame_runs(image.files.iter().flat_map(PramFile::extents)).collect();
    runs.sort_unstable_by_key(|&(base, _)| base);
    // Sorted by base, a run that overlaps any earlier one overlaps the one
    // just before it.
    match runs.windows(2).find(|w| w[0].0 .0 + w[0].1 > w[1].0 .0) {
        Some(w) => Err(HtpError::IncompatibleState {
            section: "PRAM",
            detail: format!("two PRAM extents claim {}", w[1].0),
        }),
        None => Ok(()),
    }
}

/// Pairs every guest-memory file of a parsed PRAM directory with its UISR
/// blob file, in directory order. An orphan of either kind — a guest file
/// without a blob, or a blob without a guest file — is refused before
/// anything is adopted: a VM's memory is never dropped for want of its
/// state, nor its state for want of its memory.
fn pair_files(image: &PramImage) -> Result<Vec<(&PramFile, &PramFile)>, HtpError> {
    let mut pairs = Vec::new();
    for file in &image.files {
        match uisr_store::vm_name_from_uisr_file(file) {
            Some(vm) => {
                if image.file(vm).is_none_or(uisr_store::is_uisr_file) {
                    return Err(HtpError::IncompatibleState {
                        section: "PRAM",
                        detail: format!("no guest-memory file for VM '{vm}'"),
                    });
                }
            }
            None => {
                let blob = image
                    .file(&uisr_store::uisr_file_name(&file.name))
                    .ok_or_else(|| HtpError::IncompatibleState {
                        section: "UISR",
                        detail: format!("no UISR blob for VM '{}'", file.name),
                    })?;
                pairs.push((file, blob));
            }
        }
    }
    Ok(pairs)
}

/// The InPlaceTP engine.
pub struct InPlaceTransplant<'r> {
    registry: &'r HypervisorRegistry,
    cost: CostModel,
    opts: Optimizations,
    incremental: IncrementalConfig,
    faults: FaultPlan,
}

impl<'r> InPlaceTransplant<'r> {
    /// Creates an engine over a hypervisor pool with default cost model and
    /// all optimizations enabled.
    pub fn new(registry: &'r HypervisorRegistry) -> Self {
        InPlaceTransplant {
            registry,
            cost: CostModel::paper_calibrated(),
            opts: Optimizations::default(),
            incremental: IncrementalConfig::default(),
            faults: FaultPlan::disarmed(),
        }
    }

    /// Replaces the incremental warm-translate tuning knobs (only
    /// consulted when [`Optimizations::incremental_translate`] is on).
    pub fn with_incremental(mut self, incremental: IncrementalConfig) -> Self {
        self.incremental = incremental;
        self
    }

    /// Replaces the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Installs a fault plan (chaos testing). The engine consults it at
    /// the `WorkerPanic` (translate phase) and `PramChecksum` (pre-kexec
    /// verify) injection points.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the optimization toggles.
    pub fn with_optimizations(mut self, opts: Optimizations) -> Self {
        self.opts = opts;
        self
    }

    /// The real (wall-clock) worker pool matching the simulated one:
    /// `HYPERTP_WORKERS`/`available_parallelism` workers when the
    /// parallelization optimization is on, a serial inline pool otherwise.
    fn worker_pool(&self) -> WorkerPool {
        if self.opts.parallel {
            WorkerPool::from_env()
        } else {
            WorkerPool::serial()
        }
    }

    /// Pre-kexec PRAM verification and checksum-mismatch recovery.
    ///
    /// When a file's stored checksum disagrees with its entries, the
    /// entries are cross-checked against the *live source hypervisor*
    /// (still running at this point): guest files must match the current
    /// memory maps and UISR blob files must still decode. Only then are
    /// the suspect metadata pages released and the structure rebuilt over
    /// the untouched data frames. If the cross-check fails, the corruption
    /// reached the entries themselves and the transplant aborts.
    fn verify_or_rebuild_pram(
        &self,
        machine: &mut Machine,
        source: &dyn Hypervisor,
        handle: PramHandle,
        wpool: &WorkerPool,
    ) -> Result<PramHandle, HtpError> {
        if self
            .faults
            .should_inject(InjectionPoint::PramChecksum, "pre-kexec verify")
        {
            let image = PramImage::parse(machine.ram(), handle.pram_ptr)?;
            if !image.checksums.is_empty() {
                image.corrupt_checksum(machine.ram_mut(), 0)?;
            }
        }
        let image = PramImage::parse(machine.ram(), handle.pram_ptr)?;
        match image.verify() {
            Ok(()) => Ok(handle),
            Err(PramError::ChecksumMismatch { mfn, .. }) => {
                // Cross-check every parsed file against the live source
                // before trusting the structure for a rebuild.
                for f in &image.files {
                    if uisr_store::is_uisr_file(f) {
                        let blob = uisr_store::load_blob(machine.ram(), f)?;
                        hypertp_uisr::decode(&blob)?;
                    } else {
                        let id = source.find_vm(&f.name).ok_or_else(|| {
                            HtpError::IntegrityViolation {
                                vm_name: f.name.clone(),
                            }
                        })?;
                        let mut live = source.guest_memory_map(id)?;
                        live.sort_by_key(|(g, _)| *g);
                        if live != f.mappings {
                            self.faults.record_recovery(
                                InjectionPoint::PramChecksum,
                                RecoveryAction::GaveUp,
                                &format!("{}: parsed map disagrees with live source", f.name),
                            );
                            return Err(HtpError::IntegrityViolation {
                                vm_name: f.name.clone(),
                            });
                        }
                    }
                }
                // Entries check out: recycle only the metadata pages and
                // re-encode; guest and blob frames are untouched.
                let released = handle.meta_frames.len();
                for &m in &handle.meta_frames {
                    machine.ram_mut().free(Extent::new(m, PageOrder(0)))?;
                }
                let mut rebuilt = PramBuilder::new().with_pool(*wpool);
                for f in &image.files {
                    rebuilt.add_file(f.name.clone(), f.mode, f.mappings.clone());
                }
                let fresh = rebuilt.write(machine.ram_mut())?;
                PramImage::parse(machine.ram(), fresh.pram_ptr)?
                    .verify()
                    .map_err(HtpError::Pram)?;
                self.faults.record_recovery(
                    InjectionPoint::PramChecksum,
                    RecoveryAction::RebuiltPram,
                    &format!(
                        "released {released} metadata pages (bad file-info at {mfn}), rebuilt {} files",
                        image.files.len()
                    ),
                );
                Ok(fresh)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Decides which of a warm batch's `n` tasks lose their worker. Any
    /// loss dooms the whole warm phase rather than one task, since a
    /// half-warm cache cannot be trusted for a delta finalize; the fallback
    /// is logged as `fell_back_to_full_translate`.
    fn warm_batch_lost(&self, n: usize, site: &str) -> bool {
        let lost = self.faults.pick_doomed_tasks(n, site).len();
        if lost > 0 {
            self.faults.record_recovery(
                InjectionPoint::WorkerPanic,
                RecoveryAction::FellBackToFullTranslate,
                &format!(
                    "{site} lost {lost} of {n} tasks; reverting to full pause-time translation"
                ),
            );
        }
        lost > 0
    }

    /// The incremental pre-pause warm-translate phase (§4.2.5 extended):
    /// dirty logging goes on, every VM gets a full warm
    /// `save → to_uisr → encode` snapshot plus per-extent checksum
    /// partials, then EWMA-driven refresh rounds re-translate only the
    /// redirtied slices until the redirty rate converges. Runs below the
    /// Fig. 6 time axis — each VM is only micro-paused for its own
    /// snapshot, never the whole fleet.
    ///
    /// Returns `None` when a worker fault forced the engine to abandon
    /// the warm state and fall back to full pause-time translation
    /// (recorded in the fault log as `fell_back_to_full_translate`).
    #[allow(clippy::too_many_arguments)] // internal phase helper: the args are run()'s locals
    fn warm_phase(
        &self,
        machine: &mut Machine,
        source: &mut dyn Hypervisor,
        ids: &[VmId],
        shapes: &[VmShape],
        pricer: &InPlacePricer,
        wpool: &WorkerPool,
        clock: &SimClock,
    ) -> Result<Option<WarmState>, HtpError> {
        let n = ids.len();
        for &id in ids {
            source.enable_dirty_log(id)?;
        }

        // Round 0: full warm snapshot. The per-VM control ops (pause /
        // save / resume) are cheap and serial; the heavy partial hashing
        // runs on the pool with the guests already back up, so worker
        // deaths are decided before dispatch.
        if self.warm_batch_lost(n, "warm snapshot") {
            return Ok(None);
        }
        let mut vms = WarmVm::snapshot(machine, source, ids, wpool)?;
        let total_pages_all: u64 = vms.iter().map(|v| v.total_pages).sum();
        let mut round_cost = pricer.warm_pass(shapes);
        clock.advance(round_cost);
        let mut total = round_cost;
        let mut rounds = vec![WarmRound {
            tick_pages: 0,
            dirty_pages: total_pages_all,
            dirty_fraction: 1.0,
            redirty_ewma: total_pages_all as f64,
            duration: round_cost,
        }];

        // Warm refresh rounds: tick the workload for the time the previous
        // round took, collect the redirtied pages, and re-translate only
        // those slices. Stop when the dirty fraction is small enough to
        // pause or the redirty EWMA stops shrinking (the same shape of
        // stop rule as the MigrationTP pre-copy controller).
        let rate = self.incremental.dirty_rate_pages_per_sec.max(0.0);
        let mut ewma = Ewma::new(self.incremental.ewma_alpha);
        let mut prev_ewma: Option<f64> = None;
        for round in 1..=self.incremental.max_warm_rounds {
            let tick = (rate * round_cost.as_secs_f64()).round() as u64;
            if tick > 0 {
                for &id in ids {
                    source.guest_tick(machine, id, tick)?;
                }
            }
            if self.warm_batch_lost(n, &format!("warm round {round}")) {
                return Ok(None);
            }
            let mut round_dirty = 0u64;
            let mut dirty_ext: Vec<Vec<usize>> = Vec::with_capacity(n);
            let mut delta_list = Vec::with_capacity(n);
            for (k, &id) in ids.iter().enumerate() {
                source.pause_vm(id)?;
                let dirty = source.collect_dirty(id)?;
                let uisr = source.save_uisr(machine, id)?;
                source.resume_vm(id)?;
                let wv = &mut vms[k];
                wv.uisr = uisr;
                dirty_ext.push(wv.dirty_extent_indices(&dirty));
                round_dirty += dirty.len() as u64;
                delta_list.push(VmShape {
                    fraction: dirty.len() as f64 / wv.total_pages.max(1) as f64,
                    ..shapes[k]
                });
            }
            // Refresh only the dirty extents' partials, on the pool.
            let machine_ref: &Machine = machine;
            wpool.map(vms.iter_mut().zip(dirty_ext).collect(), |(wv, ext)| {
                wv.refresh(machine_ref, &ext)
            });
            let smoothed = ewma.observe(round_dirty as f64);
            let fraction = round_dirty as f64 / total_pages_all.max(1) as f64;
            round_cost = pricer.warm_pass(&delta_list);
            clock.advance(round_cost);
            total += round_cost;
            rounds.push(WarmRound {
                tick_pages: tick,
                dirty_pages: round_dirty,
                dirty_fraction: fraction,
                redirty_ewma: smoothed,
                duration: round_cost,
            });
            if fraction <= self.incremental.stop_dirty_fraction {
                break;
            }
            if let Some(prev) = prev_ewma {
                if smoothed >= prev * (1.0 - self.incremental.min_improvement) {
                    break;
                }
            }
            prev_ewma = Some(smoothed);
        }

        // The workload kept running while the last refresh round worked;
        // those pages land in the pause-time delta set.
        let carryover_pages = (rate * round_cost.as_secs_f64()).round() as u64;
        if carryover_pages > 0 {
            for &id in ids {
                source.guest_tick(machine, id, carryover_pages)?;
            }
        }
        Ok(Some(WarmState {
            vms,
            total,
            rounds,
            carryover_pages,
        }))
    }

    /// Runs the full InPlaceTP workflow on `machine`, transplanting every
    /// VM from `source` onto a freshly booted `target` hypervisor.
    ///
    /// Returns the new hypervisor (with all VMs adopted and running) and
    /// the timing report.
    pub fn run(
        &self,
        machine: &mut Machine,
        mut source: Box<dyn Hypervisor>,
        target: HypervisorKind,
    ) -> Result<(Box<dyn Hypervisor>, InPlaceReport), HtpError> {
        if !self.registry.contains(target) {
            return Err(HtpError::UnknownHypervisor(target.name().to_string()));
        }
        let perf = machine.spec().perf();
        let pricer = InPlacePricer::new(&self.cost, perf, self.opts);
        let clock = machine.clock().clone();

        // Gather per-VM parameters.
        let ids = source.vm_ids();
        let shapes = ids
            .iter()
            .map(|&id| Ok(source.vm_config(id)?.shape()))
            .collect::<Result<Vec<_>, HtpError>>()?;

        // ❶ Stage the target kernel ahead of time (cost-free: done in the
        // background during normal operation) — the image is completed with
        // the PRAM pointer below, before the reboot.

        // §4.2.3: ask every guest to quiesce its devices before anything
        // else pauses (notifications go out in parallel; the slowest guest
        // bounds the phase).
        let mut device_prepare = SimDuration::ZERO;
        for &id in &ids {
            device_prepare = device_prepare.max(source.notify_prepare_transplant(machine, id)?);
        }
        clock.advance(device_prepare);

        // Pre-pause PRAM construction.
        let pram_cost = pricer.pram(&shapes);
        let mut pram_span = SimDuration::ZERO;
        if self.opts.prepare_before_pause {
            clock.advance(pram_cost);
            pram_span = pram_cost;
        }

        // Incremental warm translation (still pre-pause): snapshot every
        // VM's UISR and checksum partials while the guests keep running,
        // then refresh until the redirty rate converges. `None` when the
        // optimization is off *or* a warm-round fault forced the fallback
        // to full pause-time translation.
        let wpool = self.worker_pool();
        let warm: Option<WarmState> = if self.opts.incremental_translate {
            self.warm_phase(
                machine,
                source.as_mut(),
                &ids,
                &shapes,
                &pricer,
                &wpool,
                &clock,
            )?
        } else {
            None
        };

        // ❷ Pause all VMs.
        for &id in &ids {
            source.pause_vm(id)?;
        }
        clock.advance(perf.cpu(self.cost.pause_ghz_s_per_vm * ids.len() as f64));
        let t_pause = clock.now();

        // With a warm cache in hand, collect the final dirty sets now
        // (dirty-log collection mutates the source, so it cannot run
        // inside the pool closure below).
        // `(dirty extent indices, dirty pages)` per VM; empty without one.
        let mut final_dirty = Vec::new();
        for (wv, &id) in warm.iter().flat_map(|w| &w.vms).zip(&ids) {
            let dirty = source.collect_dirty(id)?;
            final_dirty.push((wv.dirty_extent_indices(&dirty), dirty.len() as u64));
        }

        // ❸ Translate VMi State to UISR — the §4.2.5 parallelization hot
        // path. Each VM's `save → to_uisr → encode` chain (plus its
        // pause-time integrity baseline) runs on its own worker of the real
        // thread pool; the pool returns results in VM order regardless of
        // worker count, so serial and parallel runs are byte-identical.
        //
        // Worker-death faults are decided before dispatch so the fault log
        // stays deterministic; lost tasks are re-run inline by the
        // orchestrator (ReHype-style task-level microrecovery).
        let doomed = self
            .faults
            .pick_doomed_tasks(ids.len(), "inplace translate");
        let source_ref: &dyn Hypervisor = source.as_ref();
        let machine_ref: &Machine = machine;
        // Serial inner hashing: the per-VM tasks already saturate the
        // pool; nesting another fan-out would only oversubscribe it.
        let serial = WorkerPool::serial();
        let (batch, retried) =
            wpool.map_indices_recovering(ids.len(), &doomed, |i| -> Result<SavedVm, HtpError> {
                let id = ids[i];
                let name = source_ref.vm_config(id)?.name.clone();
                let (map, checksum, uisr, patched_sections) = match &warm {
                    // Dirty-delta finalize: rehash only the dirtied extents
                    // into the integrity baseline, and patch only the UISR
                    // sections the final save shows changed over the warm
                    // snapshot.
                    Some(w) => {
                        let wv = &w.vms[i];
                        let checksum = wv.checksum_after(machine_ref, &final_dirty[i].0, &serial);
                        let fresh = source_ref.save_uisr(machine_ref, id)?;
                        let (uisr, patched) = patch_uisr(&wv.uisr, fresh);
                        (wv.map.clone(), checksum, uisr, patched)
                    }
                    None => {
                        let map = source_ref.guest_memory_map(id)?;
                        let extents: Vec<_> = map.iter().map(|(_, e)| *e).collect();
                        let checksum = machine_ref.ram().checksum_with_pool(&extents, &serial);
                        (map, checksum, source_ref.save_uisr(machine_ref, id)?, 0)
                    }
                };
                let mut blob = Vec::new();
                hypertp_uisr::codec::encode_into(&uisr, &mut blob);
                Ok(SavedVm {
                    name,
                    map,
                    uisr,
                    blob,
                    checksum,
                    patched_sections,
                })
            });
        for &i in &retried {
            self.faults.record_recovery(
                InjectionPoint::WorkerPanic,
                RecoveryAction::TaskRetriedInline,
                &format!("translate task {i} re-run on orchestrator"),
            );
        }
        let saved = batch.results.into_iter().collect::<Result<Vec<_>, _>>()?;
        // Integrity baseline: guest memory contents at pause time.
        let baselines: Vec<(String, u64)> =
            saved.iter().map(|s| (s.name.clone(), s.checksum)).collect();

        // Strict pre-flight: before the micro-reboot's point of no return,
        // ask the target's validator whether any translation would be
        // lossy. On rejection the transplant aborts cleanly — the VMs
        // simply resume on the source hypervisor.
        if self.opts.strict_preflight {
            let issue_lists = wpool
                .map_indices(saved.len(), |i| {
                    let s = &saved[i];
                    self.registry
                        .validate(target, &s.uisr)
                        .into_iter()
                        .map(|issue| format!("{}: {issue}", s.name))
                        .collect::<Vec<_>>()
                })
                .results;
            let issues: Vec<String> = issue_lists.into_iter().flatten().collect();
            if !issues.is_empty() {
                for &id in &ids {
                    source.resume_vm(id)?;
                }
                return Err(HtpError::IncompatibleState {
                    section: "preflight",
                    detail: issues.join("; "),
                });
            }
        }

        // Persist everything in RAM across the reboot. The per-VM blobs
        // were already encoded on the pool above; the maps move into the
        // builder (no per-VM clone), and `write` runs its per-file node
        // construction on the same pool.
        let mut builder = PramBuilder::new().with_pool(wpool);
        let mut uisr_bytes = 0u64;
        let mut patched_sections = 0u64;
        for s in saved {
            builder.add_file(s.name.clone(), 0o600, s.map);
            uisr_bytes += s.blob.len() as u64;
            patched_sections += s.patched_sections;
            uisr_store::store_blob(machine.ram_mut(), &mut builder, &s.name, &s.blob)?;
        }
        let handle = builder.write(machine.ram_mut())?;
        // Pre-kexec PRAM verification — the PramChecksum injection point.
        // Past the micro-reboot there is no source hypervisor left to
        // rebuild from, so corruption must be caught *here*.
        let handle = self.verify_or_rebuild_pram(machine, source.as_ref(), handle, &wpool)?;
        // Blackout translation cost: with a warm cache, only the dirtied
        // slices are re-translated (per-vCPU serialization and the
        // host-wide sweep are irreducible); otherwise the full per-VM
        // chain lands inside the pause window.
        let (at_pause, dirty_fraction) = match &warm {
            Some(w) => {
                let delta_list: Vec<VmShape> = shapes
                    .iter()
                    .zip(final_dirty.iter().zip(&w.vms))
                    .map(|(v, ((_, dp), wv))| VmShape {
                        fraction: *dp as f64 / wv.total_pages.max(1) as f64,
                        ..*v
                    })
                    .collect();
                let total_dirty: u64 = final_dirty.iter().map(|(_, dp)| dp).sum();
                let total_pages: u64 = w.vms.iter().map(|v| v.total_pages).sum();
                (delta_list, total_dirty as f64 / total_pages.max(1) as f64)
            }
            None => (shapes, 1.0),
        };
        let price = pricer.price(&at_pause, target, handle.stats().entries, warm.is_some());
        let delta_translate = warm
            .as_ref()
            .map_or(SimDuration::ZERO, |_| price.translation);
        clock.advance(price.translation);
        let translation_span = if self.opts.prepare_before_pause {
            price.translation
        } else {
            // PRAM construction lands inside the downtime.
            clock.advance(pram_cost);
            pram_span = SimDuration::ZERO;
            price.translation + pram_cost
        };

        // ❹–❼ Micro-reboot into the target, adopt, verify, resume.
        machine.kexec_load(KexecImage {
            target: target.boot_target(),
            cmdline: format!("hypertp {}", handle.cmdline_arg()),
        });
        drop(source); // HV State dies with the old kernel.
        let landed = kexec_and_adopt(
            machine,
            self.registry,
            &pricer,
            target,
            (price.reboot, price.restoration),
            &baselines,
            &wpool,
        )?;

        // Attribute the pause→resume distance to the three downtime phases
        // (pause/resume costs fold into translation/restoration).
        let measured_downtime = landed.resumed_at.duration_since(t_pause);
        debug_assert!(measured_downtime >= translation_span + price.reboot + price.restoration);

        let (warm_translate, warm_rounds, warm_carryover_pages) = match warm {
            Some(w) => (w.total, w.rounds, w.carryover_pages),
            None => (SimDuration::ZERO, Vec::new(), 0),
        };
        let report = InPlaceReport {
            vm_count: ids.len(),
            device_prepare,
            pram: pram_span,
            translation: translation_span,
            reboot: price.reboot,
            restoration: measured_downtime - translation_span - price.reboot,
            network: landed.network,
            pram_stats: handle.stats(),
            uisr_bytes,
            scrubbed_frames: landed.scrubbed,
            warnings: landed.warnings,
            warm_translate,
            delta_translate,
            dirty_fraction,
            warm_rounds,
            warm_carryover_pages,
            patched_sections,
        };
        Ok((landed.hv, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::SimpleHv;
    use crate::vm::VmConfig;
    use hypertp_machine::MachineSpec;

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

    #[test]
    fn transplant_preserves_guest_memory_and_state() {
        let reg = registry();
        let mut m = machine_gb(4);
        let mut src: Box<dyn Hypervisor> = Box::new(SimpleHv::new(HypervisorKind::Xen));
        let cfg = VmConfig::small("vm0");
        let id = src.create_vm(&mut m, &cfg).unwrap();
        src.write_guest(&mut m, id, hypertp_machine::Gfn(1234), 0xfeed)
            .unwrap();
        let pre_rip = {
            let s = src.as_mut();
            s.guest_tick(&mut m, id, 5).unwrap();
            s.pause_vm(id).unwrap();
            let u = s.save_uisr(&m, id).unwrap();
            s.resume_vm(id).unwrap();
            u.vcpus[0].regs.rip
        };

        let engine = InPlaceTransplant::new(&reg);
        let (hv, report) = engine.run(&mut m, src, HypervisorKind::Kvm).unwrap();
        assert_eq!(hv.kind(), HypervisorKind::Kvm);
        assert_eq!(report.vm_count, 1);
        let new_id = hv.find_vm("vm0").unwrap();
        assert_eq!(
            hv.read_guest(&m, new_id, hypertp_machine::Gfn(1234))
                .unwrap(),
            0xfeed
        );
        assert_eq!(hv.vm_state(new_id).unwrap(), crate::vm::VmState::Running);
        // vCPU architectural state carried over.
        let mut hv = hv;
        hv.pause_vm(new_id).unwrap();
        let u2 = hv.save_uisr(&m, new_id).unwrap();
        assert_eq!(u2.vcpus[0].regs.rip, pre_rip);
        assert_eq!(m.boot_count(), 2);
    }

    #[test]
    fn fig6_shape_on_m1() {
        // Downtime ≈ 1.7 s for a 1 vCPU / 1 GB VM on M1 (Xen→KVM), with
        // Reboot the dominant phase (~71% of total transplant time).
        let reg = registry();
        let mut m = Machine::new(MachineSpec::m1());
        let mut src: Box<dyn Hypervisor> = Box::new(SimpleHv::new(HypervisorKind::Xen));
        src.create_vm(&mut m, &VmConfig::small("vm0")).unwrap();
        let engine = InPlaceTransplant::new(&reg);
        let (_hv, r) = engine.run(&mut m, src, HypervisorKind::Kvm).unwrap();
        let downtime = r.downtime().as_secs_f64();
        assert!((1.4..2.1).contains(&downtime), "downtime = {downtime}");
        let frac = r.reboot.as_secs_f64() / r.total().as_secs_f64();
        assert!((0.6..0.8).contains(&frac), "reboot fraction = {frac}");
        // Network bring-up dominates for network apps: ≈ 6.6 s extra.
        assert!(r.downtime_with_network().as_secs_f64() > 7.0);
    }

    #[test]
    fn kvm_to_xen_is_slower() {
        let reg = registry();
        let mut m = Machine::new(MachineSpec::m1());
        let mut src: Box<dyn Hypervisor> = Box::new(SimpleHv::new(HypervisorKind::Kvm));
        src.create_vm(&mut m, &VmConfig::small("vm0")).unwrap();
        let engine = InPlaceTransplant::new(&reg);
        let (_hv, r) = engine.run(&mut m, src, HypervisorKind::Xen).unwrap();
        // ≈7.8 s downtime for KVM→Xen on M1 (§5.2.2).
        let downtime = r.downtime().as_secs_f64();
        assert!((6.5..9.0).contains(&downtime), "downtime = {downtime}");
    }

    #[test]
    fn unknown_target_fails_before_pausing() {
        let mut reg = HypervisorRegistry::new();
        reg.register(HypervisorKind::Xen, |_m| {
            Box::new(SimpleHv::new(HypervisorKind::Xen))
        });
        let mut m = machine_gb(4);
        let mut src: Box<dyn Hypervisor> = Box::new(SimpleHv::new(HypervisorKind::Xen));
        let id = src.create_vm(&mut m, &VmConfig::small("vm0")).unwrap();
        let engine = InPlaceTransplant::new(&reg);
        let src_state = src.vm_state(id).unwrap();
        match engine.run(&mut m, src, HypervisorKind::Kvm) {
            Err(HtpError::UnknownHypervisor(_)) => {}
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("transplant to unregistered target must fail"),
        }
        assert_eq!(src_state, crate::vm::VmState::Running);
    }

    #[test]
    fn optimizations_change_downtime() {
        let reg = registry();
        let run = |opts: Optimizations| {
            let mut m = Machine::new(MachineSpec::m1());
            let mut src: Box<dyn Hypervisor> = Box::new(SimpleHv::new(HypervisorKind::Xen));
            for i in 0..4 {
                src.create_vm(&mut m, &VmConfig::small(format!("vm{i}")))
                    .unwrap();
            }
            let engine = InPlaceTransplant::new(&reg).with_optimizations(opts);
            let (_hv, r) = engine.run(&mut m, src, HypervisorKind::Kvm).unwrap();
            r
        };
        let all = run(Optimizations::default());
        let none = run(Optimizations::none());
        assert!(none.downtime() > all.downtime());
        // Without preparation, PRAM construction lands in the downtime.
        assert_eq!(none.pram, SimDuration::ZERO);
        assert!(none.translation > all.translation + all.pram.saturating_sub(all.translation));

        let no_early = run(Optimizations {
            early_restoration: false,
            ..Optimizations::default()
        });
        assert!(no_early.restoration > all.restoration + SimDuration::from_secs(1));
    }

    #[test]
    fn multiple_vms_all_adopted() {
        let reg = registry();
        let mut m = machine_gb(16);
        let mut src: Box<dyn Hypervisor> = Box::new(SimpleHv::new(HypervisorKind::Xen));
        for i in 0..8 {
            let id = src
                .create_vm(&mut m, &VmConfig::small(format!("vm{i}")))
                .unwrap();
            src.write_guest(&mut m, id, hypertp_machine::Gfn(i), 0x1000 + i)
                .unwrap();
        }
        let engine = InPlaceTransplant::new(&reg);
        let (hv, r) = engine.run(&mut m, src, HypervisorKind::Kvm).unwrap();
        assert_eq!(r.vm_count, 8);
        for i in 0..8u64 {
            let id = hv.find_vm(&format!("vm{i}")).unwrap();
            assert_eq!(
                hv.read_guest(&m, id, hypertp_machine::Gfn(i)).unwrap(),
                0x1000 + i
            );
        }
        // Metadata released: allocated frames ≈ guest frames only.
        assert_eq!(r.pram_stats.files, 16); // 8 guest + 8 UISR files.
    }

    #[test]
    fn pram_checksum_fault_is_rebuilt_before_kexec() {
        let reg = registry();
        let mut m = machine_gb(8);
        let mut src: Box<dyn Hypervisor> = Box::new(SimpleHv::new(HypervisorKind::Xen));
        let mut expected = Vec::new();
        for i in 0..3u64 {
            let id = src
                .create_vm(&mut m, &VmConfig::small(format!("vm{i}")))
                .unwrap();
            src.write_guest(&mut m, id, hypertp_machine::Gfn(i * 11), 0x9000 + i)
                .unwrap();
            expected.push((format!("vm{i}"), hypertp_machine::Gfn(i * 11), 0x9000 + i));
        }
        let plan = FaultPlan::new(0x66);
        plan.arm_once(InjectionPoint::PramChecksum);
        let engine = InPlaceTransplant::new(&reg).with_faults(plan.clone());
        let (hv, r) = engine.run(&mut m, src, HypervisorKind::Kvm).unwrap();
        // Recovery fired and the transplant still landed every VM.
        assert!(plan
            .log()
            .recovered_via(InjectionPoint::PramChecksum, RecoveryAction::RebuiltPram));
        assert_eq!(r.vm_count, 3);
        for (name, gfn, val) in expected {
            let id = hv.find_vm(&name).unwrap();
            assert_eq!(hv.read_guest(&m, id, gfn).unwrap(), val, "{name}");
        }
    }

    #[test]
    fn worker_panic_tasks_are_retried_inline() {
        let reg = registry();
        let mut m = machine_gb(8);
        let mut src: Box<dyn Hypervisor> = Box::new(SimpleHv::new(HypervisorKind::Xen));
        for i in 0..6 {
            src.create_vm(&mut m, &VmConfig::small(format!("vm{i}")))
                .unwrap();
        }
        let plan = FaultPlan::new(0x77);
        plan.arm_calls(InjectionPoint::WorkerPanic, &[2, 5]); // tasks 1 and 4 die
        let engine = InPlaceTransplant::new(&reg).with_faults(plan.clone());
        let (hv, r) = engine.run(&mut m, src, HypervisorKind::Kvm).unwrap();
        assert_eq!(r.vm_count, 6);
        for i in 0..6 {
            assert!(hv.find_vm(&format!("vm{i}")).is_some(), "vm{i}");
        }
        let log = plan.log();
        assert_eq!(log.injections_at(InjectionPoint::WorkerPanic), 2);
        assert_eq!(
            log.recoveries(
                InjectionPoint::WorkerPanic,
                RecoveryAction::TaskRetriedInline
            ),
            2
        );
    }

    #[test]
    fn faulted_and_clean_runs_agree_on_results() {
        // A transplant with recovered faults must produce the same final
        // state as a clean one — recovery may cost time, never data.
        let run = |plan: Option<FaultPlan>| {
            let reg = registry();
            let mut m = machine_gb(8);
            let mut src: Box<dyn Hypervisor> = Box::new(SimpleHv::new(HypervisorKind::Xen));
            for i in 0..4u64 {
                let id = src
                    .create_vm(&mut m, &VmConfig::small(format!("vm{i}")))
                    .unwrap();
                src.write_guest(&mut m, id, hypertp_machine::Gfn(i), 0xaa00 + i)
                    .unwrap();
            }
            let mut engine = InPlaceTransplant::new(&reg);
            if let Some(p) = plan {
                engine = engine.with_faults(p);
            }
            let (hv, _) = engine.run(&mut m, src, HypervisorKind::Kvm).unwrap();
            (0..4u64)
                .map(|i| {
                    let id = hv.find_vm(&format!("vm{i}")).unwrap();
                    hv.read_guest(&m, id, hypertp_machine::Gfn(i)).unwrap()
                })
                .collect::<Vec<_>>()
        };
        let clean = run(None);
        let plan = FaultPlan::new(0x88);
        plan.arm_once(InjectionPoint::PramChecksum);
        plan.arm_calls(InjectionPoint::WorkerPanic, &[1, 3]);
        let faulted = run(Some(plan.clone()));
        assert_eq!(clean, faulted);
        assert!(!plan.log().is_empty());
    }

    /// Builds a PRAM directory with `build`, stages it and runs the
    /// post-kexec tail over it. Returns the tail's error and whether any
    /// extent `build` returned was adopted before it.
    fn land_malformed(
        build: impl FnOnce(&mut Machine, &mut PramBuilder) -> Vec<Extent>,
    ) -> (HtpError, bool) {
        let reg = registry();
        let mut m = machine_gb(4);
        let mut builder = PramBuilder::new();
        let watched = build(&mut m, &mut builder);
        let handle = builder.write(m.ram_mut()).unwrap();
        m.kexec_load(KexecImage {
            target: HypervisorKind::Kvm.boot_target(),
            cmdline: format!("hypertp {}", handle.cmdline_arg()),
        });
        let cost = CostModel::paper_calibrated();
        let pricer = InPlacePricer::new(&cost, m.spec().perf(), Optimizations::default());
        let err = kexec_and_adopt(
            &mut m,
            &reg,
            &pricer,
            HypervisorKind::Kvm,
            (SimDuration::ZERO, SimDuration::ZERO),
            &[],
            &WorkerPool::serial(),
        )
        .err()
        .expect("a malformed directory must not land");
        let adopted = watched.iter().any(|e| m.ram().is_allocated(e.base));
        (err, adopted)
    }

    /// A guest VM's memory map and its encoded UISR, saved on a SimpleHv.
    fn saved_guest(m: &mut Machine, name: &str) -> (Vec<(Gfn, Extent)>, Vec<u8>) {
        let mut src = SimpleHv::new(HypervisorKind::Xen);
        let id = src.create_vm(m, &VmConfig::small(name)).unwrap();
        src.pause_vm(id).unwrap();
        let blob = hypertp_uisr::encode(&src.save_uisr(m, id).unwrap());
        (src.guest_memory_map(id).unwrap(), blob)
    }

    #[test]
    fn guest_file_without_a_blob_is_refused_after_kexec() {
        let (err, adopted) = land_malformed(|m, b| {
            let (map, _) = saved_guest(m, "vm0");
            let extents = map.iter().map(|(_, e)| *e).collect();
            b.add_file("vm0", 0o600, map);
            extents
        });
        assert_eq!(
            err,
            HtpError::IncompatibleState {
                section: "UISR",
                detail: "no UISR blob for VM 'vm0'".into()
            }
        );
        assert!(!adopted);
    }

    #[test]
    fn blob_without_a_guest_file_is_refused_after_kexec() {
        let (err, _) = land_malformed(|m, b| {
            uisr_store::store_blob(m.ram_mut(), b, "vm0", b"state").unwrap();
            Vec::new()
        });
        assert_eq!(
            err,
            HtpError::IncompatibleState {
                section: "PRAM",
                detail: "no guest-memory file for VM 'vm0'".into()
            }
        );
    }

    #[test]
    fn an_orphan_is_refused_before_any_vm_is_adopted() {
        // vm0 is whole and comes first; vm1's blob has no memory.
        let (err, adopted) = land_malformed(|m, b| {
            let (map, blob) = saved_guest(m, "vm0");
            let extents = map.iter().map(|(_, e)| *e).collect();
            b.add_file("vm0", 0o600, map);
            uisr_store::store_blob(m.ram_mut(), b, "vm0", &blob).unwrap();
            uisr_store::store_blob(m.ram_mut(), b, "vm1", &blob).unwrap();
            extents
        });
        assert_eq!(
            err,
            HtpError::IncompatibleState {
                section: "PRAM",
                detail: "no guest-memory file for VM 'vm1'".into()
            }
        );
        assert!(!adopted, "vm0 was adopted before the orphan was seen");
    }

    #[test]
    fn two_files_claiming_one_frame_are_refused_before_any_vm_is_adopted() {
        let mut shared = None;
        let (err, adopted) = land_malformed(|m, b| {
            let (map0, blob0) = saved_guest(m, "vm0");
            let (mut map1, blob1) = saved_guest(m, "vm1");
            // vm1's first extent is vm0's first extent.
            map1[0].1 = map0[0].1;
            shared = Some(map0[0].1.base);
            let extents = map0.iter().chain(&map1).map(|(_, e)| *e).collect();
            b.add_file("vm0", 0o600, map0);
            uisr_store::store_blob(m.ram_mut(), b, "vm0", &blob0).unwrap();
            b.add_file("vm1", 0o600, map1);
            uisr_store::store_blob(m.ram_mut(), b, "vm1", &blob1).unwrap();
            extents
        });
        assert_eq!(
            err,
            HtpError::IncompatibleState {
                section: "PRAM",
                detail: format!("two PRAM extents claim {}", shared.unwrap()),
            }
        );
        assert!(!adopted, "a VM was adopted over a shared frame");
    }

    #[test]
    fn roundtrip_back_to_original_kind() {
        // Transplant Xen→KVM→Xen; guest memory must survive both hops.
        let reg = registry();
        let mut m = machine_gb(4);
        let mut src: Box<dyn Hypervisor> = Box::new(SimpleHv::new(HypervisorKind::Xen));
        let id = src.create_vm(&mut m, &VmConfig::small("vm0")).unwrap();
        src.write_guest(&mut m, id, hypertp_machine::Gfn(77), 0xabcd)
            .unwrap();
        let engine = InPlaceTransplant::new(&reg);
        let (kvm, _) = engine.run(&mut m, src, HypervisorKind::Kvm).unwrap();
        let (xen, _) = engine.run(&mut m, kvm, HypervisorKind::Xen).unwrap();
        let id2 = xen.find_vm("vm0").unwrap();
        assert_eq!(
            xen.read_guest(&m, id2, hypertp_machine::Gfn(77)).unwrap(),
            0xabcd
        );
        assert_eq!(m.boot_count(), 3);
    }
}
