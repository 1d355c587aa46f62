//! Allocation probe for the zero-copy wire path: once the reusable
//! buffers are warm, the steady-state hot loop — digest and classify/encode
//! into the frame ring, apply the ring's views, land the changed pages on
//! a real KVM guest with one `write_guest_many` — must not touch the
//! allocator at all. A counting global allocator asserts this directly,
//! and the engine's own [`hypertp_migrate::ScratchStats`] probe
//! (capacity-growth events on the shared scratch) asserts the same
//! invariant across whole migrations, cut-over verification included,
//! where pool threads and report construction put the raw counter out of
//! reach. A cold round 0 of a busy 1 GiB guest, counted in bytes, bounds
//! what a round's bookkeeping costs before anything is warm; a whole
//! proxy session and a whole cold busy migration, counted the same way,
//! what their messages and round buffers cost.
//!
//! The same counter pins the control plane's two per-disclosure
//! mechanisms: the synthetic fleet view derives a VM without allocating,
//! and re-planning a disclosure year allocates once per disclosure plus
//! once for the report, at 1k and 10k hosts alike; building the planner
//! that re-plans them allocates a bounded number of times at both sizes.
//! A rolling-upgrade plan allocates a few times overall, not per offline
//! group, and executing it a few times per group, not per migration.
//!
//! A byte counter beside it bounds what the UISR decoder requests on the
//! strength of a count it has read from an untrusted blob.
//!
//! Last, frame ownership: re-reserving, scrubbing, adopting and releasing
//! 12 GiB of guest memory, folding its integrity checksum, and the buddy
//! allocator under it, allocate nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hypertp::prelude::*;
use hypertp_cluster::exec::{execute_sharded_with, ExecConfig};
use hypertp_cluster::{plan_upgrade, Cluster, ClusterView, ExposureConfig, ExposurePlanner, Plan};
use hypertp_migrate::{
    run_source, DestProxy, FrameRing, InProcTransport, TransferCache, WireStats,
};
use hypertp_sim::fault::FaultPlan;
use hypertp_sim::pool::WorkerPool;
use hypertp_sim::SimDuration;
use hypertp_vulndb::VulnFeed;

/// Counts every allocation and reallocation (frees are irrelevant: the
/// invariant is that the hot path never *asks* for memory).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested, over the same calls.
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Reusable buffers of the destination half of a round.
#[derive(Default)]
struct Landing {
    current: Vec<u64>,
    writes: Vec<(Gfn, u64)>,
}

/// Pages per part of a round: the engine's part size.
const PART_PAGES: usize = 2048;

/// One encode+apply round over the reusable buffers, exactly the shapes
/// the engine's ring path uses: the round goes part by part, each part
/// encoded into the ring and resolved against the guest's current words
/// (one batched read per part), and the changed pages land with one
/// `write_guest_many` once every part is resolved.
fn round(
    cache: &TransferCache,
    ring: &mut FrameRing,
    gfns: &[Gfn],
    words: &[u64],
    dst: (&mut Machine, &mut dyn Hypervisor, VmId),
    landing: &mut Landing,
) -> u64 {
    let (m, hv, id) = dst;
    cache.begin_round();
    landing.writes.clear();
    let mut wb = 0;
    for (part, part_words) in gfns.chunks(PART_PAGES).zip(words.chunks(PART_PAGES)) {
        ring.restart();
        ring.begin();
        wb += cache.encode_words_into(7, part, part_words, ring, &mut WireStats::new());
        hv.read_guest_into(m, id, part, &mut landing.current)
            .expect("mapped gfns");
        for (view, (&g, &cur)) in ring.iter().zip(part.iter().zip(&landing.current)) {
            let word = cache.apply_view(&view, cur).expect("self-produced frame");
            if word != cur {
                landing.writes.push((g, word));
            }
        }
        ring.commit();
    }
    hv.write_guest_many(m, id, &landing.writes)
        .expect("mapped gfns");
    cache.commit_round();
    wb
}

/// Bytes one cold content-aware round 0 may request: midway between the
/// 14.2 MiB it took when the dedup slab kept a digest beside each word and
/// the journal a digest per insert, and the 10.7 MiB it takes keeping
/// words and slot ids.
const ROUND0_BYTES_BOUND: u64 = (249 << 20) / 20;

/// Part 1b — footprint: round 0 of a busy 1 GiB guest (262 144 pages, one
/// in four non-zero, one in four of those a shared template word) through
/// a cold cache, ring and landing buffers, part by part. What it asks the
/// allocator for must scale with what the round changed and one part,
/// not with the guest.
fn footprint_probe() {
    const PAGES: u64 = 262_144;
    let gfns: Vec<Gfn> = (0..PAGES).map(Gfn).collect();
    let words: Vec<u64> = (0..PAGES)
        .map(|g| match g % 16 {
            0 => 0x7e3a_91c0_0000_0001,
            4 | 8 | 12 => g.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
            _ => 0,
        })
        .collect();
    let mut spec = MachineSpec::m1();
    spec.ram_gb = 2;
    let mut m = Machine::new(spec);
    let mut kvm = KvmHypervisor::new(&mut m);
    let id = kvm
        .create_vm(&mut m, &VmConfig::small("busy").with_memory_gb(1))
        .unwrap();
    let cache = TransferCache::new();
    let mut ring = FrameRing::new();
    let mut landing = Landing::default();
    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    let dst = (&mut m, &mut kvm as &mut dyn Hypervisor, id);
    let wire_bytes = round(&cache, &mut ring, &gfns, &words, dst, &mut landing);
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - before;
    assert!(wire_bytes > 0, "the round ran");
    assert_eq!(cache.sent_len(), PAGES as usize);
    assert_eq!(cache.dedup_len(), PAGES as usize / 16 * 3 + 1);
    assert!(
        bytes < ROUND0_BYTES_BOUND,
        "a cold round 0 requested {bytes} bytes (bound {ROUND0_BYTES_BOUND})"
    );
    println!(
        "alloc_probe: ok (cold round 0 of 262144 pages requested {:.1} MiB, bound {:.1} MiB)",
        bytes as f64 / (1 << 20) as f64,
        ROUND0_BYTES_BOUND as f64 / (1 << 20) as f64
    );
}

/// Bytes one proxy session may request: midway between the 15.2 MiB it
/// took when both dedup tables kept digests and the source's log-dirty set
/// was a tree, and the 12.9 MiB it takes with content-keyed tables and a
/// log-dirty bitmap.
const PROXY_SESSION_BYTES_BOUND: u64 = (281 << 20) / 20;

/// Part 1c — a proxy session's footprint: one `run_source` ↔ `DestProxy::serve`
/// session over the in-process transport, a 1 GiB guest with 16 384
/// unique resident pages, 2 000 pages/s. Every message buffer is bounded
/// by one part of a round, so what the pair asks the allocator for must
/// not come back to whole-round messages.
fn proxy_session_probe() {
    let registry = default_registry();
    let clock = SimClock::new();
    let mut src_m = Machine::with_clock(MachineSpec::m1(), clock.clone());
    let mut dst_m = Machine::with_clock(MachineSpec::m1(), clock);
    let mut src = registry.create(HypervisorKind::Xen, &mut src_m).unwrap();
    let mut dst = registry.create(HypervisorKind::Kvm, &mut dst_m).unwrap();
    let id = src
        .create_vm(&mut src_m, &VmConfig::small("proxy").with_memory_gb(1))
        .unwrap();
    for k in 0..16_384u64 {
        let word = k.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        src.write_guest(&mut src_m, id, Gfn(k * 16), word).unwrap();
    }
    let tp = MigrationTp::new().with_config(MigrationConfig {
        dirty_rate_pages_per_sec: 2_000.0,
        ..MigrationConfig::default()
    });
    let (mut ta, mut tb) = InProcTransport::pair();
    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    let (src_report, dst_report) = std::thread::scope(|s| {
        let dest = s.spawn(|| DestProxy::new().serve(&mut dst_m, dst.as_mut(), &mut tb));
        let source = run_source(&tp, &mut src_m, src.as_mut(), id, &mut ta).unwrap();
        (source, dest.join().unwrap().unwrap())
    });
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(src_report.dst_checksum, dst_report.checksum);
    assert!(
        bytes < PROXY_SESSION_BYTES_BOUND,
        "a proxy session requested {bytes} bytes (bound {PROXY_SESSION_BYTES_BOUND})"
    );
    println!(
        "alloc_probe: ok (a proxy session of a 1 GiB guest requested {:.1} MiB, bound {:.1} MiB)",
        bytes as f64 / (1 << 20) as f64,
        PROXY_SESSION_BYTES_BOUND as f64 / (1 << 20) as f64
    );
}

/// Bytes one cold busy-shape migration may request: midway between the
/// 17.9 MiB it took when the dedup table kept digests and the source's
/// log-dirty set was a tree, and the 14.4 MiB it takes with a
/// content-keyed table and a log-dirty bitmap.
const BUSY_MIGRATION_BYTES_BOUND: u64 = (323 << 20) / 20;

/// Part 1d — one cold `MigrationTp::migrate` of the benchmark's
/// `migrate_busy` shape: a 1 GiB Xen guest with 65 536 resident pages,
/// one in four a shared template word, 5 000 pages/s, content-aware, to
/// KVM with verification on. Every round buffer holds one part, so what
/// it asks the allocator for must not come back to guest-sized buffers.
fn busy_migration_probe() {
    let registry = default_registry();
    let clock = SimClock::new();
    let mut src_m = Machine::with_clock(MachineSpec::m1(), clock.clone());
    let mut dst_m = Machine::with_clock(MachineSpec::m1(), clock);
    let mut src = registry.create(HypervisorKind::Xen, &mut src_m).unwrap();
    let mut dst = registry.create(HypervisorKind::Kvm, &mut dst_m).unwrap();
    let id = src
        .create_vm(&mut src_m, &VmConfig::small("busy").with_memory_gb(1))
        .unwrap();
    for k in 0..65_536u64 {
        let word = match k % 4 {
            0 => 0x7e3a_91c0_0000_0001,
            _ => k.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
        };
        src.write_guest(&mut src_m, id, Gfn(k * 4), word).unwrap();
    }
    let tp = MigrationTp::new().with_config(MigrationConfig {
        wire_mode: WireMode::ContentAware,
        dirty_rate_pages_per_sec: 5_000.0,
        verify_contents: true,
        ..MigrationConfig::default()
    });
    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    let report = tp
        .migrate(&mut src_m, src.as_mut(), id, &mut dst_m, dst.as_mut())
        .unwrap();
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - before;
    assert!(report.wire.cache_evictions() > 0, "the busy shape evicts");
    assert!(
        bytes < BUSY_MIGRATION_BYTES_BOUND,
        "a busy migration requested {bytes} bytes (bound {BUSY_MIGRATION_BYTES_BOUND})"
    );
    println!(
        "alloc_probe: ok (a cold busy migration of a 1 GiB guest requested {:.1} MiB, \
         bound {:.1} MiB)",
        bytes as f64 / (1 << 20) as f64,
        BUSY_MIGRATION_BYTES_BOUND as f64 / (1 << 20) as f64
    );
}

/// Allocations made while `f` runs (this thread is the only one alive).
fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

/// One incremental replay of a disclosure year over a `hosts`-host
/// synthetic fleet, the planner already built, allocates exactly once per
/// disclosure (its plan's `id` clone) plus once for the report's
/// histogram: nothing per host, per VM or per schedule column.
fn replay_probe(hosts: usize) -> u64 {
    let view = Cluster::synthetic(hosts, 42).with_compat_percent(70);
    let events = VulnFeed::new(42).replay(SimDuration::from_secs(365 * 86_400));
    assert_eq!(events.len(), 37, "the pinned disclosure year");
    let planner = ExposurePlanner::new(&view, ExposureConfig::default());
    let (allocs, report) = allocs_during(|| planner.replay(&events));
    assert!(report.remediated_events > 0, "some disclosure is planned");
    assert_eq!(
        report.remediated_vms + report.deferred_vms,
        (events.len() * view.vm_count()) as u64
    );
    assert_eq!(
        allocs,
        events.len() as u64 + 1,
        "a {hosts}-host replay allocates once per disclosure plus the histogram"
    );
    allocs
}

/// Part 3 — the control plane: deriving a VM of the synthetic fleet and
/// re-planning a disclosure touch no per-host or per-VM memory.
fn control_plane_probe() {
    let view = Cluster::synthetic(10_000, 42).with_compat_percent(70);
    let (allocs, compatible) = allocs_during(|| {
        (0..view.vm_count())
            .filter(|&vm| view.vm(vm).inplace_compatible)
            .count()
    });
    assert_eq!(view.vm_count(), 100_000);
    assert!(compatible > 0, "views were derived");
    assert_eq!(allocs, 0, "SyntheticCluster::vm must not allocate");

    replay_probe(1_000);
    let allocs = replay_probe(10_000);
    println!(
        "alloc_probe: ok (0 allocations over 100000 vm() calls, \
         {allocs} per 37-event replay at 1k and 10k hosts)"
    );
    let (small, large) = (table_probe(1_000), table_probe(10_000));
    println!(
        "alloc_probe: ok (a planner build made {small} allocations at 1k hosts \
         and {large} at 10k, bound {TABLE_ALLOCS_BOUND})"
    );
}

/// Allocations building the exposure planner — cost table and schedule —
/// may make at any size of the synthetic fleet: it makes 25 at 1k and at
/// 10k hosts. A per-host VM index made about three per host, 30 000 at
/// 10k hosts.
const TABLE_ALLOCS_BOUND: u64 = 32;

/// Part 3a — the exposure planner's table: building it over a `hosts`-host
/// synthetic fleet allocates a bounded number of times, never per host or
/// per VM.
fn table_probe(hosts: usize) -> u64 {
    let view = Cluster::synthetic(hosts, 42).with_compat_percent(70);
    let (allocs, planner) =
        allocs_during(|| ExposurePlanner::new(&view, ExposureConfig::default()));
    assert_eq!(planner.costs().len(), hosts);
    assert!(
        allocs <= TABLE_ALLOCS_BOUND,
        "a {hosts}-host planner build made {allocs} allocations (bound {TABLE_ALLOCS_BOUND})"
    );
    allocs
}

/// Allocations one rolling plan of the 10 000-host fleet may make: it
/// makes 25 — the planner's index buffers, two small lists that grow by
/// doubling, and the plan's three columns, each sized once. While the plan
/// kept one action list per offline group it made 423.
const PLAN_ALLOCS_BOUND: u64 = 32;
/// Bytes that plan may request: 1.72 MiB, of which the plan's columns are
/// 0.46 MiB (2.49 MiB and 1.28 MiB with per-group action lists).
const PLAN_BYTES_BOUND: u64 = (37 << 20) / 20;

/// Part 3b — the rolling planner: one `plan_upgrade` of the
/// `campaign_feed` fleet (10 000 hosts, groups of 25) allocates a few
/// times overall, never per group, per host or per VM.
fn planner_probe() -> (impl ClusterView, Plan) {
    let view = Cluster::synthetic(10_000, 42).with_compat_percent(70);
    let bytes_before = ALLOC_BYTES.load(Ordering::Relaxed);
    let (allocs, plan) = allocs_during(|| plan_upgrade(&view, 25).expect("the feed fleet plans"));
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes_before;
    let groups = plan.group_count();
    assert_eq!(groups, 400);
    assert!(
        allocs <= PLAN_ALLOCS_BOUND,
        "a 10k-host plan made {allocs} allocations (bound {PLAN_ALLOCS_BOUND})"
    );
    assert!(
        bytes < PLAN_BYTES_BOUND,
        "a 10k-host plan requested {bytes} bytes (bound {PLAN_BYTES_BOUND})"
    );
    println!(
        "alloc_probe: ok (a 10k-host plan of {groups} groups made {allocs} allocations \
         and requested {:.2} MiB, bound {:.2} MiB)",
        bytes as f64 / (1 << 20) as f64,
        PLAN_BYTES_BOUND as f64 / (1 << 20) as f64
    );
    (view, plan)
}

/// Allocations executing that plan may make per offline group, and
/// overall: it makes 2 421 (≈ 6.05 per group), nearly all in each group's
/// drain (`FleetOrder::drain`'s queue, slot calendar and schedule) and
/// histogram. While each group collected its migrating VMs and their
/// estimates into fresh lists it made 5 161 (≈ 12.9 per group).
const EXEC_ALLOCS_PER_GROUP: u64 = 7;
const EXEC_ALLOCS_SLACK: u64 = 32;

/// Part 3c — the executor: one `execute_sharded_with` of the 10 000-host
/// plan over 8 shards on two workers allocates a bounded number of times
/// per group, never per migration.
fn exec_probe(view: &impl ClusterView, plan: &Plan) {
    let pool = WorkerPool::new(2);
    let cfg = ExecConfig::default();
    let disarmed = FaultPlan::disarmed();
    let (allocs, report) =
        allocs_during(|| execute_sharded_with(view, plan, &cfg, &disarmed, 8, &pool));
    assert_eq!(report.migrations, plan.migration_count());
    let groups = plan.group_count() as u64;
    let bound = EXEC_ALLOCS_PER_GROUP * groups + EXEC_ALLOCS_SLACK;
    assert!(
        allocs <= bound,
        "executing a {groups}-group plan made {allocs} allocations (bound {bound})"
    );
    println!(
        "alloc_probe: ok (executing a {groups}-group plan made {allocs} allocations, \
         bound {bound})"
    );
}

/// Part 4 — hostile input: a UISR blob claiming `u32::MAX` items at any
/// of its eight sequence positions is refused without the decoder asking
/// for memory in proportion to the claim.
fn hostile_count_probe() {
    use hypertp_uisr::{decode, encode, DeviceState, MemoryRegion, MsrEntry, UisrVm, VcpuState};
    let mut vm = UisrVm::new("probe");
    vm.vcpus.push(VcpuState::reset(0));
    let blob = encode(&vm);
    // A count word is where the blob first changes when its sequence
    // grows by one item.
    let grow: [fn(&mut UisrVm); 8] = [
        |vm| vm.vcpus.push(VcpuState::reset(1)),
        |vm| vm.vcpus[0].msrs.push(MsrEntry { index: 0, data: 0 }),
        |vm| vm.vcpus[0].xsave.area.push(0),
        |vm| vm.vcpus[0].lapic_regs.push(0),
        |vm| vm.vcpus[0].mtrr.variable.push((0, 0)),
        |vm| vm.ioapic.redirection.push(Default::default()),
        |vm| vm.devices.push(DeviceState::Console { tx_buffered: 0 }),
        |vm| {
            vm.memory.regions.push(MemoryRegion {
                gfn_start: 0,
                pages: 1,
            })
        },
    ];
    let hostile: Vec<Vec<u8>> = grow
        .iter()
        .map(|grow| {
            let mut grown = vm.clone();
            grow(&mut grown);
            let grown = encode(&grown);
            let at = (0..blob.len()).find(|&i| blob[i] != grown[i]).unwrap();
            let mut buf = blob.clone();
            buf[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            buf
        })
        .collect();
    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    for buf in &hostile {
        assert!(decode(buf).is_err(), "a u32::MAX count cannot be met");
    }
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - before;
    assert!(
        bytes < 1 << 20,
        "decoding 8 hostile counts requested {bytes} bytes"
    );
    println!("alloc_probe: ok ({bytes} bytes requested decoding 8 blobs with u32::MAX counts)");
}

/// Part 5 — frame ownership on the 12 × 1 GiB world: one micro-reboot's
/// worth of bookkeeping (forget, re-reserve, scrub, adopt, unreserve), the
/// integrity fold over every guest extent on either side of the scrub, and
/// the allocator's own alloc/free run on memory the RAM already holds.
fn ownership_probe() {
    use hypertp_machine::buddy::BuddyAllocator;
    use hypertp_machine::{Extent, PageOrder, PhysicalMemory};
    let mut ram = PhysicalMemory::with_gib(16);
    let guests: Vec<Extent> = (0..12 * 512)
        .map(|_| ram.alloc(PageOrder(9)).expect("16 GiB holds 12"))
        .collect();
    let stray = ram.alloc(PageOrder(3)).expect("room");
    for mfn in stray.frames() {
        ram.write(mfn, 7).expect("owned");
    }
    // A sparse guest image, so the integrity fold has marked lines to read.
    for (i, e) in guests.iter().enumerate() {
        ram.write(e.base + (i as u64 * 61) % 512, i as u64 | 1)
            .expect("owned");
    }
    let (allocs, scrubbed) = allocs_during(|| {
        // The integrity fold, serial, at pause and again after the scrub.
        let fold = |ram: &PhysicalMemory| {
            guests
                .iter()
                .fold(0u64, |acc, e| acc.rotate_left(17) ^ ram.extent_partial(e))
        };
        let at_pause = fold(&ram);
        // The kexec: the allocator is reset where it stands.
        ram.forget_ownership();
        for e in &guests {
            assert_eq!(ram.reserve_range(e.base, e.pages()), Ok(e.pages()));
        }
        // An unaligned range, which shatters the block around it.
        assert_eq!(ram.reserve_range(stray.base + 2, 3), Ok(3));
        let scrubbed = ram.scrub_unreserved();
        assert_eq!(fold(&ram), at_pause, "the scrub changed guest memory");
        for e in &guests {
            ram.adopt_reserved(e.base, e.pages()).expect("reserved");
        }
        for e in &guests {
            ram.unreserve_and_free(e.base, e.pages()).expect("in range");
        }
        ram.unreserve_and_free(stray.base + 2, 3).expect("in range");
        scrubbed
    });
    assert_eq!(scrubbed, 5, "the stray frames outside the reservation");
    assert_eq!(ram.free_frames(), 4 * 262_144, "guests stay owned");
    assert_eq!(allocs, 0, "frame ownership must not allocate");

    let mut buddy = BuddyAllocator::new(1 << 16);
    let mut held = [None; 64];
    let (allocs, ()) = allocs_during(|| {
        for round in 0..4u8 {
            for (i, slot) in held.iter_mut().enumerate() {
                *slot = buddy.alloc(PageOrder((i as u8 + round) % 10)).ok();
            }
            // Every other one first, so frees both split and coalesce.
            for i in (0..64).step_by(2).chain((1..64).step_by(2)) {
                let e: Extent = held[i].take().expect("64 Ki frames hold 64");
                buddy.free(e).expect("held");
            }
        }
    });
    assert_eq!(buddy.free_frames(), 1 << 16);
    assert_eq!(
        allocs, 0,
        "BuddyAllocator::{{alloc, free}} must not allocate"
    );
    println!(
        "alloc_probe: ok (0 allocations over a 12 GiB fold/forget/reserve/scrub/fold/adopt/\
         unreserve cycle and 256 buddy alloc/free pairs)"
    );
}

// Plain main(), no libtest harness (`harness = false` in Cargo.toml):
// the allocation counter is process-global and the harness's own threads
// allocate at unpredictable points, so the probe must be the only thread
// alive during the measured window. Part 2 (the engine-level probe) runs
// after the counter assertion completes.
fn main() {
    println!("alloc_probe: steady-state hot path must not allocate");
    // A mixed round: zeros, a recurring word (dup fodder), unique words.
    // Rounds alternate between two versions of the unique words, so every
    // round changes pages the destination must write.
    let gfns: Vec<Gfn> = (0..256u64).map(|g| Gfn(g * 3)).collect();
    let version = |v: u64| -> Vec<u64> {
        (0..256u64)
            .map(|i| match i % 4 {
                0 => 0,
                1 => 0x5a5a_5a5a,
                _ => (i ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
            })
            .collect()
    };
    let versions = [version(0), version(0x1000)];
    let cache = TransferCache::new();
    let mut ring = FrameRing::new();
    let mut landing = Landing::default();
    // The destination: a KVM guest with dirty logging on, so each write
    // also marks its slot's bitmap.
    let mut spec = MachineSpec::m1();
    spec.ram_gb = 2;
    let mut m = Machine::new(spec);
    let mut kvm = KvmHypervisor::new(&mut m);
    let id = kvm.create_vm(&mut m, &VmConfig::small("landing")).unwrap();
    kvm.enable_dirty_log(id).unwrap();

    // Warm-up: four rounds, two of each version. The first populates the
    // dedup cache and sizes every buffer; the rest settle classification
    // (unique words now classify as dups) and journal capacities.
    for words in versions.iter().cycle().take(4) {
        let dst = (&mut m, &mut kvm as &mut dyn Hypervisor, id);
        round(&cache, &mut ring, &gfns, words, dst, &mut landing);
    }
    let grows_before = ring.grows();
    kvm.collect_dirty(id).unwrap();

    let before = ALLOCS.load(Ordering::Relaxed);
    let mut wire_bytes = 0u64;
    for words in versions.iter().cycle().take(100) {
        let dst = (&mut m, &mut kvm as &mut dyn Hypervisor, id);
        wire_bytes += round(&cache, &mut ring, &gfns, words, dst, &mut landing);
    }
    let after = ALLOCS.load(Ordering::Relaxed);

    assert!(wire_bytes > 0, "rounds did run");
    assert_eq!(
        after - before,
        0,
        "steady-state encode+apply must not allocate"
    );
    assert_eq!(ring.grows(), grows_before, "ring regrew after warm-up");
    // Round 99 landed the second version, and the rounds rewrote exactly
    // the unique pages.
    let mut landed = Vec::new();
    kvm.read_guest_into(&m, id, &gfns, &mut landed).unwrap();
    assert_eq!(landed, versions[1], "the guest holds the last round");
    assert_eq!(kvm.collect_dirty(id).unwrap().len(), gfns.len() / 2);

    // Part 2 — whole-migration version of the same invariant, via the
    // engine's capacity-growth probe: a second same-shape migration
    // reuses every scratch buffer without a single regrow. (Pool threads
    // and report construction allocate legitimately, so this level uses
    // the scratch probe, not the raw counter.)
    let registry = default_registry();
    let clock = SimClock::new();
    let mut src_m = Machine::with_clock(MachineSpec::m1(), clock.clone());
    let mut dst_m = Machine::with_clock(MachineSpec::m1(), clock);
    let mut src = registry.create(HypervisorKind::Xen, &mut src_m).unwrap();
    let mut dst = registry.create(HypervisorKind::Kvm, &mut dst_m).unwrap();
    let tp = MigrationTp::new().with_config(MigrationConfig {
        wire_mode: WireMode::ContentAware,
        dirty_rate_pages_per_sec: 500.0,
        verify_contents: true,
        ..MigrationConfig::default()
    });

    let migrate_one = |name: &str, src: &mut dyn Hypervisor, src_m: &mut Machine| {
        let id = src
            .create_vm(src_m, &VmConfig::small(name).with_memory_gb(1))
            .unwrap();
        for k in 0..512u64 {
            src.write_guest(src_m, id, Gfn(k * 11), k | 0xbeef_0000)
                .unwrap();
        }
        id
    };

    let id = migrate_one("probe0", src.as_mut(), &mut src_m);
    tp.migrate(&mut src_m, src.as_mut(), id, &mut dst_m, dst.as_mut())
        .unwrap();
    let warm = tp.scratch_stats();
    assert!(warm.rounds > 0, "ring path exercised");

    let id = migrate_one("probe1", src.as_mut(), &mut src_m);
    tp.migrate(&mut src_m, src.as_mut(), id, &mut dst_m, dst.as_mut())
        .unwrap();
    let steady = tp.scratch_stats();

    assert!(steady.rounds > warm.rounds);
    assert_eq!(
        steady.grows, warm.grows,
        "second same-shape migration must not regrow any scratch buffer"
    );
    assert_eq!(steady.ring_capacity, warm.ring_capacity);
    println!(
        "alloc_probe: ok (0 hot-path allocations over 100 rounds landed on a KVM guest, \
         no scratch regrowth with verification on)"
    );

    footprint_probe();
    proxy_session_probe();
    busy_migration_probe();
    control_plane_probe();
    let (view, plan) = planner_probe();
    exec_probe(&view, &plan);
    hostile_count_probe();
    ownership_probe();
}
