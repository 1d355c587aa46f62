//! The cut-over checks verify: a destination that silently loses one page
//! write fails the migration. `verify_contents` gathers both guests into
//! the engine's reused round buffers and compares them in pool chunks, and
//! the §4.2 proxy compares streamed checksums at `Done`/`DoneAck`; neither
//! may report success over a destination that differs from the source.
//! Likewise InPlaceTP's post-adoption checksum fails a target that changes
//! one guest page as it adopts it, where the zero-line summary lets the
//! fold skip lines and where it does not, and so does crash recovery's.

use hypertp::core::{
    CheckpointConfig, HtpError, MemSepReport, RestoredVm, UnplannedRecovery, WarmCheckpointer,
};
use hypertp::machine::Extent;
use hypertp::migrate::{guest_checksum, run_source, DestProxy, InProcTransport};
use hypertp::prelude::*;
use hypertp::sim::fault::FaultPlan;
use hypertp::sim::{CostModel, WorkerPool};
use hypertp::uisr::UisrVm;

/// A hypervisor that forwards everything to `inner` but drops every
/// write to one guest page, through either write entry point, and can
/// write one page of each VM it adopts.
struct LossyHv {
    inner: Box<dyn Hypervisor>,
    lost: Gfn,
    dropped: u64,
    /// The page and word written into every adopted VM.
    on_adopt: Option<(Gfn, u64)>,
}

impl LossyHv {
    fn new(inner: Box<dyn Hypervisor>, lost: Gfn) -> Self {
        LossyHv {
            inner,
            lost,
            dropped: 0,
            on_adopt: None,
        }
    }
}

impl Hypervisor for LossyHv {
    fn kind(&self) -> HypervisorKind {
        self.inner.kind()
    }
    fn version(&self) -> &str {
        self.inner.version()
    }
    fn create_vm(&mut self, m: &mut Machine, config: &VmConfig) -> Result<VmId, HtpError> {
        self.inner.create_vm(m, config)
    }
    fn destroy_vm(&mut self, m: &mut Machine, id: VmId) -> Result<(), HtpError> {
        self.inner.destroy_vm(m, id)
    }
    fn pause_vm(&mut self, id: VmId) -> Result<(), HtpError> {
        self.inner.pause_vm(id)
    }
    fn resume_vm(&mut self, id: VmId) -> Result<(), HtpError> {
        self.inner.resume_vm(id)
    }
    fn vm_state(&self, id: VmId) -> Result<VmState, HtpError> {
        self.inner.vm_state(id)
    }
    fn vm_ids(&self) -> Vec<VmId> {
        self.inner.vm_ids()
    }
    fn vm_config(&self, id: VmId) -> Result<&VmConfig, HtpError> {
        self.inner.vm_config(id)
    }
    fn find_vm(&self, name: &str) -> Option<VmId> {
        self.inner.find_vm(name)
    }
    fn guest_memory_map(&self, id: VmId) -> Result<Vec<(Gfn, Extent)>, HtpError> {
        self.inner.guest_memory_map(id)
    }
    fn read_guest(&self, m: &Machine, id: VmId, gfn: Gfn) -> Result<u64, HtpError> {
        self.inner.read_guest(m, id, gfn)
    }
    fn read_guest_into(
        &self,
        m: &Machine,
        id: VmId,
        gfns: &[Gfn],
        out: &mut Vec<u64>,
    ) -> Result<(), HtpError> {
        self.inner.read_guest_into(m, id, gfns, out)
    }
    fn write_guest(
        &mut self,
        m: &mut Machine,
        id: VmId,
        gfn: Gfn,
        content: u64,
    ) -> Result<(), HtpError> {
        if gfn == self.lost {
            self.dropped += 1;
            return Ok(());
        }
        self.inner.write_guest(m, id, gfn, content)
    }
    fn write_guest_many(
        &mut self,
        m: &mut Machine,
        id: VmId,
        writes: &[(Gfn, u64)],
    ) -> Result<(), HtpError> {
        let kept: Vec<(Gfn, u64)> = writes
            .iter()
            .copied()
            .filter(|&(gfn, _)| gfn != self.lost)
            .collect();
        self.dropped += (writes.len() - kept.len()) as u64;
        self.inner.write_guest_many(m, id, &kept)
    }
    fn guest_tick(&mut self, m: &mut Machine, id: VmId, dirty_pages: u64) -> Result<(), HtpError> {
        self.inner.guest_tick(m, id, dirty_pages)
    }
    fn enable_dirty_log(&mut self, id: VmId) -> Result<(), HtpError> {
        self.inner.enable_dirty_log(id)
    }
    fn collect_dirty(&mut self, id: VmId) -> Result<Vec<Gfn>, HtpError> {
        self.inner.collect_dirty(id)
    }
    fn save_uisr(&self, m: &Machine, id: VmId) -> Result<UisrVm, HtpError> {
        self.inner.save_uisr(m, id)
    }
    fn prepare_incoming(&mut self, m: &mut Machine, config: &VmConfig) -> Result<VmId, HtpError> {
        self.inner.prepare_incoming(m, config)
    }
    fn restore_uisr(
        &mut self,
        m: &mut Machine,
        id: VmId,
        uisr: &UisrVm,
    ) -> Result<RestoredVm, HtpError> {
        self.inner.restore_uisr(m, id, uisr)
    }
    fn adopt_vm(
        &mut self,
        m: &mut Machine,
        uisr: &UisrVm,
        mappings: &[(Gfn, Extent)],
    ) -> Result<RestoredVm, HtpError> {
        let restored = self.inner.adopt_vm(m, uisr, mappings)?;
        if let Some((gfn, word)) = self.on_adopt {
            self.inner.write_guest(m, restored.id, gfn, word)?;
        }
        Ok(restored)
    }
    fn notify_prepare_transplant(
        &mut self,
        m: &mut Machine,
        id: VmId,
    ) -> Result<SimDuration, HtpError> {
        self.inner.notify_prepare_transplant(m, id)
    }
    fn memsep_report(&self, m: &Machine) -> MemSepReport {
        self.inner.memsep_report(m)
    }
}

/// The page the destination loses, and the word the source puts there.
const LOST: Gfn = Gfn(4242);
const WORD: u64 = 0xc0ff_ee00_0000_0001;

/// A Xen source with `WORD` at `LOST`, and an empty KVM destination that
/// loses writes to `lost`.
fn world(lost: Gfn) -> (Machine, Box<dyn Hypervisor>, VmId, Machine, LossyHv) {
    let clock = SimClock::new();
    let mut src_m = Machine::with_clock(MachineSpec::m1(), clock.clone());
    let mut dst_m = Machine::with_clock(MachineSpec::m1(), clock);
    let mut src: Box<dyn Hypervisor> = Box::new(XenHypervisor::new(&mut src_m));
    let dst = LossyHv::new(Box::new(KvmHypervisor::new(&mut dst_m)), lost);
    let id = src
        .create_vm(&mut src_m, &VmConfig::small("lossy"))
        .unwrap();
    for k in 0..256u64 {
        src.write_guest(&mut src_m, id, Gfn(k * 97), k | 0x5eed_0000)
            .unwrap();
    }
    src.write_guest(&mut src_m, id, LOST, WORD).unwrap();
    (src_m, src, id, dst_m, dst)
}

fn config(wire_mode: WireMode) -> MigrationConfig {
    MigrationConfig {
        verify_contents: true,
        wire_mode,
        dirty_rate_pages_per_sec: 200.0,
        ..MigrationConfig::default()
    }
}

#[test]
fn verify_contents_catches_a_lost_write() {
    for wire_mode in [WireMode::Raw, WireMode::ContentAware] {
        for workers in [1, 4] {
            let case = format!("{wire_mode:?}, {workers} worker(s)");
            let tp = MigrationTp::new()
                .with_config(config(wire_mode))
                .with_pool(WorkerPool::new(workers));
            let (mut src_m, mut src, id, mut dst_m, mut dst) = world(LOST);
            let err = tp
                .migrate(&mut src_m, src.as_mut(), id, &mut dst_m, &mut dst)
                .unwrap_err();
            assert!(dst.dropped > 0, "{case}: the write was never attempted");
            assert_eq!(
                err,
                HtpError::IntegrityViolation {
                    vm_name: "lossy".into()
                },
                "{case}"
            );

            // The same migration onto a destination that loses nothing the
            // source holds verifies and lands.
            let (mut src_m, mut src, id, mut dst_m, mut dst) = world(Gfn(1 << 40));
            tp.migrate(&mut src_m, src.as_mut(), id, &mut dst_m, &mut dst)
                .unwrap();
            assert_eq!(dst.dropped, 0, "{case}");
        }
    }
}

#[test]
fn proxy_cut_over_catches_a_lost_write() {
    let (mut src_m, mut src, id, mut dst_m, mut dst) = world(LOST);
    let tp = MigrationTp::new().with_config(config(WireMode::ContentAware));
    let (mut ta, mut tb) = InProcTransport::pair();
    let (source, dest) = std::thread::scope(|s| {
        let dest = s.spawn(|| DestProxy::new().serve(&mut dst_m, &mut dst, &mut tb));
        let source = run_source(&tp, &mut src_m, src.as_mut(), id, &mut ta);
        // Hang up, so a destination still waiting gives up too.
        drop(ta);
        (source, dest.join().expect("destination proxy panicked"))
    });
    assert_eq!(
        source.unwrap_err(),
        HtpError::IntegrityViolation {
            vm_name: "lossy".into()
        }
    );
    // The destination resumed what it holds and reported its checksum,
    // which is not the source's; the source destroyed nothing.
    let report = dest.unwrap();
    assert!(dst.dropped > 0);
    let gfns: Vec<Gfn> = src
        .guest_memory_map(id)
        .unwrap()
        .iter()
        .flat_map(|&(g, e)| (g.0..g.0 + e.pages()).map(Gfn))
        .collect();
    let src_checksum = guest_checksum(&src_m, src.as_ref(), id, &gfns).unwrap();
    assert_ne!(report.checksum, src_checksum);
    assert_eq!(src.vm_ids(), vec![id]);
}

/// A Xen host with one guest whose every eighth page, over the first
/// 144 Ki, holds a word: enough marked lines that a two-worker pool fans the
/// post-adoption checksum out.
fn inplace_world() -> (Machine, Box<dyn Hypervisor>, VmId) {
    let mut m = Machine::new(MachineSpec::m1());
    let mut xen: Box<dyn Hypervisor> = Box::new(XenHypervisor::new(&mut m));
    let id = xen.create_vm(&mut m, &VmConfig::small("adopted")).unwrap();
    let writes: Vec<(Gfn, u64)> = (0..18_432u64)
        .map(|k| (Gfn(8 * k + 3), k | 0x5eed_0000))
        .collect();
    xen.write_guest_many(&mut m, id, &writes).unwrap();
    (m, xen, id)
}

/// The content words of the eight-frame line that holds `gfn`'s frame.
fn line_of(m: &Machine, hv: &dyn Hypervisor, id: VmId, gfn: Gfn) -> Vec<u64> {
    let (start, e) = hv
        .guest_memory_map(id)
        .unwrap()
        .into_iter()
        .find(|&(g, e)| (g.0..g.0 + e.pages()).contains(&gfn.0))
        .unwrap();
    let mfn = e.base.0 + (gfn.0 - start.0);
    (mfn & !7..(mfn & !7) + 8)
        .map(|f| m.ram().read(hypertp::machine::Mfn(f)).unwrap())
        .collect()
}

/// Kept as one `#[test]` because the two-worker pool is chosen through the
/// process-wide `HYPERTP_WORKERS`.
#[test]
fn inplace_adoption_check_catches_a_changed_page() {
    // A word in a page that was zero at pause, in a line of zeros (one the
    // fold skips at the baseline), and a live page zeroed.
    let zero_line = Gfn(8 * 20_000 + 5);
    let live = Gfn(8 * 100 + 3);
    let (m, xen, id) = inplace_world();
    assert_eq!(line_of(&m, xen.as_ref(), id, zero_line), [0; 8]);
    assert_ne!(xen.read_guest(&m, id, live).unwrap(), 0);

    for (what, gfn, word) in [
        ("a word in a zero line", zero_line, 0xbad_c0de),
        ("a live page zeroed", live, 0),
    ] {
        let mut registry = default_registry();
        registry.register(HypervisorKind::Kvm, move |m| {
            let mut kvm = LossyHv::new(Box::new(KvmHypervisor::new(m)), Gfn(1 << 40));
            kvm.on_adopt = Some((gfn, word));
            Box::new(kvm)
        });
        for workers in ["serial", "2"] {
            let opts = if workers == "serial" {
                Optimizations {
                    parallel: false,
                    ..Optimizations::default()
                }
            } else {
                std::env::set_var("HYPERTP_WORKERS", workers);
                Optimizations::default()
            };
            let engine = InPlaceTransplant::new(&registry).with_optimizations(opts);
            let (mut m, xen, _) = inplace_world();
            let err = engine.run(&mut m, xen, HypervisorKind::Kvm).err();
            std::env::remove_var("HYPERTP_WORKERS");
            assert_eq!(
                err,
                Some(HtpError::IntegrityViolation {
                    vm_name: "adopted".into()
                }),
                "{what}, {workers} workers"
            );
        }
    }

    // Adopting without the change verifies.
    let registry = default_registry();
    let (mut m, xen, _) = inplace_world();
    InPlaceTransplant::new(&registry)
        .run(&mut m, xen, HypervisorKind::Kvm)
        .unwrap();
}

/// Crash recovery checks guest memory after adoption just as InPlaceTP
/// does: a rescue target that changes one page as it adopts fails
/// `recover`, whatever the checkpointer's pool.
#[test]
fn unplanned_recovery_check_catches_a_changed_page() {
    let zero_line = Gfn(8 * 20_000 + 5);
    let live = Gfn(8 * 100 + 3);
    let recover = |registry: &HypervisorRegistry, workers: usize| {
        let (mut m, mut xen, _) = inplace_world();
        let ckpt = WarmCheckpointer::start_with(
            &mut m,
            xen.as_mut(),
            HypervisorKind::Kvm,
            CheckpointConfig::default(),
            CostModel::paper_calibrated(),
            FaultPlan::disarmed(),
            WorkerPool::new(workers),
        )
        .unwrap();
        UnplannedRecovery::new(registry)
            .recover(&mut m, xen, ckpt)
            .map(|_| ())
    };
    for (what, gfn, word) in [
        ("a word in a zero line", zero_line, 0xbad_c0de),
        ("a live page zeroed", live, 0),
    ] {
        let mut registry = default_registry();
        registry.register(HypervisorKind::Kvm, move |m| {
            let mut kvm = LossyHv::new(Box::new(KvmHypervisor::new(m)), Gfn(1 << 40));
            kvm.on_adopt = Some((gfn, word));
            Box::new(kvm)
        });
        for workers in [1, 4] {
            assert_eq!(
                recover(&registry, workers),
                Err(HtpError::IntegrityViolation {
                    vm_name: "adopted".into()
                }),
                "{what}, {workers} workers"
            );
        }
    }

    // Recovering without the change verifies.
    recover(&default_registry(), 4).unwrap();
}
