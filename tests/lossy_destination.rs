//! The cut-over checks verify: a destination that silently loses one page
//! write fails the migration. `verify_contents` walks both guests' memory
//! maps and compares their RAM extent by extent, and the §4.2 proxy
//! compares extent-walk checksums at `Done`/`DoneAck`; neither may report
//! success over a destination that differs from the source — also where
//! the two sides' extents do not line up, and in a guest's last extent.
//! The extent-walk checksum is the gathered one, on guests with many
//! extents and holes in guest-physical space.
//! Likewise InPlaceTP's post-adoption checksum fails a target that changes
//! one guest page as it adopts it, where the zero-line summary lets the
//! fold skip lines and where it does not, and so does crash recovery's;
//! its ownership check fails a target that leaves one guest frame
//! unowned. A fragmented guest survives an in-place round trip whose
//! frame runs break at almost every extent.

use hypertp::core::testing::SimpleHv;
use hypertp::core::{
    CheckpointConfig, HtpError, MemSepReport, RestoredVm, UnplannedRecovery, WarmCheckpointer,
};
use hypertp::machine::{Extent, PageOrder};
use hypertp::migrate::{guest_checksum, run_source, vm_checksum, DestProxy, InProcTransport};
use hypertp::prelude::*;
use hypertp::sim::fault::FaultPlan;
use hypertp::sim::{CostModel, SimRng, WorkerPool};
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
    /// Hands the last frame of every adopted VM's last extent back to the
    /// allocator: a target that re-owns all of that extent but one frame.
    disown_last_frame: bool,
    /// Backs every incoming VM with 2 MiB (`Some(true)`) or 4 KiB pages
    /// (`Some(false)`), whatever its config says.
    huge_pages: Option<bool>,
}

impl LossyHv {
    fn new(inner: Box<dyn Hypervisor>, lost: Gfn) -> Self {
        LossyHv {
            inner,
            lost,
            dropped: 0,
            on_adopt: None,
            disown_last_frame: false,
            huge_pages: None,
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
        let forced = self
            .huge_pages
            .map(|huge| config.clone().with_huge_pages(huge));
        self.inner
            .prepare_incoming(m, forced.as_ref().unwrap_or(config))
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
        if self.disown_last_frame {
            let map = self.inner.guest_memory_map(restored.id)?;
            let (_, e) = *map.last().expect("an adopted guest has memory");
            let last = Extent::new(e.base + (e.pages() - 1), PageOrder(0));
            m.ram_mut().free(last)?;
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

/// Builds a hypervisor on a machine.
type MakeHv = fn(&mut Machine) -> Box<dyn Hypervisor>;

/// The hypervisors the extent walks run on: Xen's P2M, KVM's memory
/// slots, and `SimpleHv`'s default gather.
const TARGETS: [(&str, MakeHv); 3] = [
    ("xen", |m| Box::new(XenHypervisor::new(m))),
    ("kvm", |m| Box::new(KvmHypervisor::new(m))),
    ("simple", |_| Box::new(SimpleHv::new(HypervisorKind::Kvm))),
];

/// Every gfn `id`'s memory map covers, in map order.
fn map_gfns(hv: &dyn Hypervisor, id: VmId) -> Vec<Gfn> {
    hv.guest_memory_map(id)
        .unwrap()
        .iter()
        .flat_map(|&(g, e)| (g.0..g.0 + e.pages()).map(Gfn))
        .collect()
}

/// A running guest adopted onto a fragmented layout: 40 extents of orders
/// 0–9 from hole-punched machine memory, mapped in shuffled order at
/// ascending gfns, with a hole before about one in four when `holes`.
/// Two pages in three hold a word.
fn fragmented(make: MakeHv, holes: bool, seed: u64) -> (Machine, Box<dyn Hypervisor>, VmId) {
    let mut m = Machine::new(MachineSpec::m1());
    let mut hv = make(&mut m);
    let uisr = {
        let mut scratch = Machine::new(MachineSpec::m1());
        let mut donor = make(&mut scratch);
        let id = donor
            .create_vm(&mut scratch, &VmConfig::small("fragmented"))
            .unwrap();
        donor.pause_vm(id).unwrap();
        donor.save_uisr(&scratch, id).unwrap()
    };
    let mut rng = SimRng::new(seed);
    let mut extents = Vec::new();
    for i in 0..40 {
        extents.push(
            m.ram_mut()
                .alloc(PageOrder(rng.gen_range(10) as u8))
                .unwrap(),
        );
        if i % 3 == 0 {
            let hole = m
                .ram_mut()
                .alloc(PageOrder(rng.gen_range(4) as u8))
                .unwrap();
            m.ram_mut().free(hole).unwrap();
        }
    }
    for i in (1..extents.len()).rev() {
        extents.swap(i, rng.gen_range(i as u64 + 1) as usize);
    }
    let mut mappings = Vec::new();
    let mut gfn = 0;
    for e in extents {
        if holes && rng.gen_range(4) == 0 {
            gfn += 1 + rng.gen_range(700);
        }
        // Adoption takes over frames a PRAM reservation holds.
        m.ram_mut().free(e).unwrap();
        m.ram_mut().reserve_range(e.base, e.pages()).unwrap();
        mappings.push((Gfn(gfn), e));
        gfn += e.pages();
    }
    let id = hv.adopt_vm(&mut m, &uisr, &mappings).unwrap().id;
    let writes: Vec<(Gfn, u64)> = map_gfns(hv.as_ref(), id)
        .into_iter()
        .map(|g| (g, if g.0 % 3 == 0 { 0 } else { rng.next_u64() }))
        .collect();
    hv.write_guest_many(&mut m, id, &writes).unwrap();
    hv.resume_vm(id).unwrap();
    (m, hv, id)
}

/// The cut-over checksum folds each memory-map extent's RAM in map order:
/// the same value as gathering every gfn of the map, on guests with many
/// extents and holes, and on freshly created ones.
#[test]
fn extent_walk_checksum_equals_the_gathered_checksum() {
    for (name, make) in TARGETS {
        for seed in 0..4 {
            let (m, hv, id) = fragmented(make, seed % 2 == 0, seed);
            let map = hv.guest_memory_map(id).unwrap();
            assert!(map.len() >= 2, "{name} seed {seed}: one extent");
            if seed % 2 == 0 {
                let gapless = map
                    .windows(2)
                    .all(|w| w[0].0 .0 + w[0].1.pages() == w[1].0 .0);
                assert!(!gapless, "{name} seed {seed}: no hole");
            }
            let gathered = guest_checksum(&m, hv.as_ref(), id, &map_gfns(hv.as_ref(), id));
            assert_eq!(vm_checksum(&m, hv.as_ref(), id).unwrap(), gathered.unwrap());
        }
        let mut m = Machine::new(MachineSpec::m1());
        let mut hv = make(&mut m);
        let id = hv.create_vm(&mut m, &VmConfig::small("created")).unwrap();
        hv.guest_tick(&mut m, id, 500).unwrap();
        let gathered = guest_checksum(&m, hv.as_ref(), id, &map_gfns(hv.as_ref(), id));
        assert_eq!(vm_checksum(&m, hv.as_ref(), id).unwrap(), gathered.unwrap());
    }
}

/// A destination that loses the write to the guest's last page — the end
/// of its last extent — fails `run_source`'s `DoneAck` comparison, on
/// every destination kind; one that loses nothing lands.
#[test]
fn proxy_cut_over_catches_a_lost_write_in_the_last_extent() {
    for (name, make) in TARGETS {
        for lost in [Gfn(VmConfig::small("lossy").pages() - 1), Gfn(1 << 40)] {
            let clock = SimClock::new();
            let mut src_m = Machine::with_clock(MachineSpec::m1(), clock.clone());
            let mut dst_m = Machine::with_clock(MachineSpec::m1(), clock);
            let mut src: Box<dyn Hypervisor> = Box::new(XenHypervisor::new(&mut src_m));
            let id = src
                .create_vm(&mut src_m, &VmConfig::small("lossy"))
                .unwrap();
            let last = Gfn(VmConfig::small("lossy").pages() - 1);
            src.write_guest(&mut src_m, id, last, WORD).unwrap();
            let mut dst = LossyHv::new(make(&mut dst_m), lost);
            let tp = MigrationTp::new().with_config(config(WireMode::ContentAware));
            let (mut ta, mut tb) = InProcTransport::pair();
            let (source, dest) = std::thread::scope(|s| {
                let dest = s.spawn(|| DestProxy::new().serve(&mut dst_m, &mut dst, &mut tb));
                let source = run_source(&tp, &mut src_m, src.as_mut(), id, &mut ta);
                drop(ta);
                (source, dest.join().expect("destination proxy panicked"))
            });
            let dest = dest.unwrap();
            if lost == last {
                assert!(dst.dropped > 0, "{name}: the write was never attempted");
                assert_eq!(
                    source.unwrap_err(),
                    HtpError::IntegrityViolation {
                        vm_name: "lossy".into()
                    },
                    "{name}"
                );
            } else {
                assert_eq!(source.unwrap().dst_checksum, dest.checksum, "{name}");
            }
        }
    }
}

/// `verify_contents` compares the guests where the two sides' extents do
/// not line up — a fragmented Xen or KVM source (extents of orders 0–9)
/// against 2 MiB destination extents — and finds one lost word on either
/// side of a source extent boundary that is no destination boundary.
#[test]
fn verify_contents_catches_a_lost_write_at_a_misaligned_boundary() {
    let [(_, xen), (_, kvm), _] = TARGETS;
    for (case, src_make, dst_make) in [("xen -> kvm", xen, kvm), ("kvm -> xen", kvm, xen)] {
        let (_, probe, probe_id) = fragmented(src_make, false, 7);
        let map = probe.guest_memory_map(probe_id).unwrap();
        let boundary = map
            .iter()
            .map(|(g, _)| g.0)
            .find(|&g| g % 512 != 0)
            .expect("a misaligned extent boundary");
        for lost in [Gfn(boundary - 1), Gfn(boundary), Gfn(1 << 40)] {
            for wire_mode in [WireMode::Raw, WireMode::ContentAware] {
                let ctx = format!("{case}, {wire_mode:?}, lost {lost:?}");
                let (mut src_m, mut src, id) = fragmented(src_make, false, 7);
                for gfn in [boundary - 1, boundary] {
                    src.write_guest(&mut src_m, id, Gfn(gfn), WORD ^ gfn)
                        .unwrap();
                }
                let mut dst_m = Machine::with_clock(MachineSpec::m1(), src_m.clock().clone());
                let mut dst = LossyHv::new(dst_make(&mut dst_m), lost);
                let tp = MigrationTp::new().with_config(MigrationConfig {
                    dirty_rate_pages_per_sec: 0.0,
                    ..config(wire_mode)
                });
                let landed = tp.migrate(&mut src_m, src.as_mut(), id, &mut dst_m, &mut dst);
                if lost.0 < 1 << 40 {
                    assert!(dst.dropped > 0, "{ctx}: the write was never attempted");
                    assert_eq!(
                        landed.unwrap_err(),
                        HtpError::IntegrityViolation {
                            vm_name: "fragmented".into()
                        },
                        "{ctx}"
                    );
                } else {
                    landed.unwrap();
                }
            }
        }
    }
}

/// Folds a report's `Debug` rendering and a checksum into one value.
fn outcome_digest(report: &impl std::fmt::Debug, checksum: u64) -> u64 {
    let d = hypertp::sim::hash::digest_bytes(format!("{report:?}").as_bytes());
    d.hi ^ d.lo.rotate_left(17) ^ checksum
}

/// Round 0 of fragmented, holey guests — 40 extents of orders 0–9 in
/// shuffled machine order, with gfn holes — lands exactly as recorded:
/// the `MigrationReport` (rounds, wire stats, timings) or the proxy
/// reports, and the destination's checksum. In process with
/// `verify_contents`, Xen → KVM and KVM → Xen in both wire modes onto 2 MiB
/// destination extents, most of which the source's extents meet partway
/// through; onto 4 KiB-page destinations; and through the proxy pair both
/// ways (the destination's report).
#[test]
fn fragmented_round_zero_lands_as_recorded() {
    /// One value per case below, in order, as the per-gfn gather landed
    /// them.
    const RECORDED: [u64; 10] = [
        0x6c2ee35bbf40faa0,
        0xa9fbeba567e4d32c,
        0x4ce2fa46b00a9960,
        0x7177f96a0625c613,
        0xdab231f7418d6478,
        0xdb4edb7045009587,
        0x178b8623f76e5470,
        0x479a44a714e2fe3f,
        0x8510c30f3f630571,
        0x0a4e89e1c07c2ee4,
    ];
    let [(_, xen), (_, kvm), _] = TARGETS;
    let mut got = Vec::new();
    for (src_make, dst_make, huge_pages) in [
        (xen, kvm, true),
        (kvm, xen, true),
        (xen, xen, false),
        (kvm, kvm, false),
    ] {
        for (wire_mode, seed) in [(WireMode::ContentAware, 0), (WireMode::Raw, 2)] {
            let (mut src_m, mut src, id) = fragmented(src_make, true, seed);
            let mut dst_m = Machine::with_clock(MachineSpec::m1(), src_m.clock().clone());
            let mut dst = LossyHv::new(dst_make(&mut dst_m), Gfn(1 << 40));
            dst.huge_pages = Some(huge_pages);
            let tp = MigrationTp::new().with_config(MigrationConfig {
                dirty_rate_pages_per_sec: 0.0,
                ..config(wire_mode)
            });
            let report = tp
                .migrate(&mut src_m, src.as_mut(), id, &mut dst_m, &mut dst)
                .unwrap();
            let dst_id = dst.find_vm("fragmented").unwrap();
            let checksum = vm_checksum(&dst_m, &dst, dst_id).unwrap();
            got.push(outcome_digest(&report, checksum));
        }
    }
    for (src_make, dst_make) in [(xen, kvm), (kvm, xen)] {
        let (mut src_m, mut src, id) = fragmented(src_make, true, 0);
        let mut dst_m = Machine::with_clock(MachineSpec::m1(), src_m.clock().clone());
        let mut dst = dst_make(&mut dst_m);
        let tp = MigrationTp::new().with_config(MigrationConfig {
            dirty_rate_pages_per_sec: 0.0,
            ..config(WireMode::ContentAware)
        });
        let (mut ta, mut tb) = InProcTransport::pair();
        let (source, dest) = std::thread::scope(|s| {
            let dest = s.spawn(|| DestProxy::new().serve(&mut dst_m, dst.as_mut(), &mut tb));
            let source = run_source(&tp, &mut src_m, src.as_mut(), id, &mut ta);
            drop(ta);
            (source, dest.join().unwrap().unwrap())
        });
        // The destination's map covers the config's gfns from 0 on, the
        // holey source's only its 40 extents: the `DoneAck` checksums
        // differ although every page landed, so the cut-over fails.
        assert_eq!(
            source.unwrap_err(),
            HtpError::IntegrityViolation {
                vm_name: "fragmented".into()
            }
        );
        got.push(outcome_digest(&dest, dest.checksum));
    }
    assert_eq!(got, RECORDED, "{got:#x?}");
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

/// A target that re-owns every frame of the guest's last extent but the
/// last one fails the post-adoption check, though the guest's memory is
/// unchanged: dropping the PRAM reservations would let the allocator
/// recycle that frame.
#[test]
fn inplace_adoption_check_catches_an_unowned_frame() {
    let mut registry = default_registry();
    registry.register(HypervisorKind::Kvm, |m| {
        let mut kvm = LossyHv::new(Box::new(KvmHypervisor::new(m)), Gfn(1 << 40));
        kvm.disown_last_frame = true;
        Box::new(kvm)
    });
    let (mut m, xen, _) = inplace_world();
    let err = InPlaceTransplant::new(&registry)
        .run(&mut m, xen, HypervisorKind::Kvm)
        .err();
    assert_eq!(
        err,
        Some(HtpError::IntegrityViolation {
            vm_name: "adopted".into()
        })
    );
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

/// The allocator state an InPlaceTP round trip of `fragmented` guests ends
/// in: free frames, then the next block of every order, twice.
fn free_frame_digest(acc: &mut u64, m: &mut Machine) {
    let mut fold = |v: u64| *acc = (acc.rotate_left(13) ^ v).wrapping_mul(0x100_0000_01b3);
    fold(m.ram().free_frames());
    for order in (0..10).chain(0..10) {
        fold(m.ram_mut().alloc(PageOrder(order)).unwrap().base.0);
    }
}

/// InPlaceTP Xen → KVM → Xen on fragmented guests — extents of orders 0–9
/// in shuffled machine order, with and without gfn holes — so the frame
/// runs break at almost every extent. Every leg keeps the guest checksum
/// and the memory map, a further leg out builds the PRAM the first did,
/// and the allocator ends where it did when the books were kept extent by
/// extent.
#[test]
fn fragmented_guest_survives_an_inplace_round_trip() {
    /// `free_frame_digest` over seeds 0–3, as an extent-by-extent
    /// reservation, adoption and release leaves the allocator.
    const FREE_FRAME_DIGEST: u64 = 0x92a6_091d_8674_f5cd;
    let [(_, make_xen), ..] = TARGETS;
    let registry = default_registry();
    let engine = InPlaceTransplant::new(&registry);
    let mut digest = 0;
    for seed in 0..4 {
        let (mut m, mut hv, _) = fragmented(make_xen, seed % 2 == 0, seed);
        let id = hv.find_vm("fragmented").unwrap();
        let map = hv.guest_memory_map(id).unwrap();
        let breaks = map
            .windows(2)
            .filter(|w| w[0].1.base.0 + w[0].1.pages() != w[1].1.base.0)
            .count();
        assert!(4 * breaks >= 3 * map.len(), "seed {seed}: {breaks} breaks");
        let checksum = vm_checksum(&m, hv.as_ref(), id).unwrap();
        let mut stats = Vec::new();
        // Out, back, and out again: the PRAM a Xen source builds before
        // and after the round trip.
        for target in [
            HypervisorKind::Kvm,
            HypervisorKind::Xen,
            HypervisorKind::Kvm,
        ] {
            let (landed, report) = engine.run(&mut m, hv, target).unwrap();
            hv = landed;
            let id = hv.find_vm("fragmented").unwrap();
            assert_eq!(
                hv.guest_memory_map(id).unwrap(),
                map,
                "seed {seed} {target:?}"
            );
            assert_eq!(
                vm_checksum(&m, hv.as_ref(), id).unwrap(),
                checksum,
                "seed {seed} {target:?}"
            );
            stats.push(report.pram_stats);
        }
        assert_eq!(stats[0], stats[2], "seed {seed}");
        free_frame_digest(&mut digest, &mut m);
    }
    assert_eq!(digest, FREE_FRAME_DIGEST, "{digest:#x}");
}
