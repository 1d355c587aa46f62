//! Content-aware wire-path equivalence: `WireMode::ContentAware` is a
//! wire/bandwidth optimization only. Whatever the codec does on the link
//! — zero elision, cross-round/cross-VM dedup, XOR+RLE deltas — the
//! destination must end up byte-identical to a raw migration: same guest
//! RAM (serial-pool checksums), same UISR state, same reads, for any
//! worker count of the pipelined round engine.

use hypertp::prelude::*;
use hypertp_machine::Extent;
use hypertp_migrate::{FrameKind, MigrationReport};
use hypertp_sim::WorkerPool;

const VMS: u32 = 3;

/// Everything observable about a migrated fleet that must not depend on
/// the wire mode or the worker count.
#[derive(Debug, PartialEq)]
struct Destination {
    ram_checksums: Vec<u64>,
    uisr_blobs: Vec<Vec<u8>>,
    guest_reads: Vec<u64>,
}

/// Seeds a deterministic fleet: per-VM unique words, plus a block that is
/// byte-identical across VMs (cross-VM dedup fodder), everything else
/// zero. Migrates Xen→KVM and captures the destination.
fn run_fleet(
    wire_mode: WireMode,
    pool: WorkerPool,
    dirty_rate: f64,
) -> (Destination, Vec<MigrationReport>) {
    let registry = default_registry();
    let clock = SimClock::new();
    let mut src_m = Machine::with_clock(MachineSpec::m1(), clock.clone());
    let mut dst_m = Machine::with_clock(MachineSpec::m1(), clock);
    let mut src = registry.create(HypervisorKind::Xen, &mut src_m).unwrap();
    for i in 0..VMS {
        let cfg = VmConfig::small(format!("wire{i}")).with_memory_gb(1);
        let pages = cfg.pages();
        let id = src.create_vm(&mut src_m, &cfg).unwrap();
        for k in 0..256u64 {
            // Shared across VMs: same gfn, same word.
            src.write_guest(&mut src_m, id, Gfn(k % pages), k | 0xabcd_0000)
                .unwrap();
        }
        for k in 0..64u64 {
            // Unique to this VM.
            let gfn = Gfn((1024 + k * 5 + u64::from(i) * 131) % pages);
            src.write_guest(&mut src_m, id, gfn, k ^ (u64::from(i) << 48))
                .unwrap();
        }
    }
    let mut dst = registry.create(HypervisorKind::Kvm, &mut dst_m).unwrap();
    let ids = src.vm_ids();
    let tp = MigrationTp::new()
        .with_config(MigrationConfig {
            verify_contents: true,
            dirty_rate_pages_per_sec: dirty_rate,
            wire_mode,
            ..MigrationConfig::default()
        })
        .with_pool(pool);
    let reports = migrate_many(
        &tp,
        &mut src_m,
        src.as_mut(),
        &ids,
        &mut dst_m,
        dst.as_mut(),
    )
    .unwrap();

    let mut ram_checksums = Vec::new();
    let mut uisr_blobs = Vec::new();
    let mut guest_reads = Vec::new();
    for i in 0..VMS {
        let id = dst.find_vm(&format!("wire{i}")).unwrap();
        let map = dst.guest_memory_map(id).unwrap();
        let extents: Vec<Extent> = map.iter().map(|(_, e)| *e).collect();
        ram_checksums.push(
            dst_m
                .ram()
                .checksum_with_pool(&extents, &WorkerPool::serial()),
        );
        for k in 0..256u64 {
            guest_reads.push(dst.read_guest(&dst_m, id, Gfn(k)).unwrap());
        }
        dst.pause_vm(id).unwrap();
        uisr_blobs.push(hypertp_uisr::encode(&dst.save_uisr(&dst_m, id).unwrap()));
    }
    (
        Destination {
            ram_checksums,
            uisr_blobs,
            guest_reads,
        },
        reports,
    )
}

fn merged(reports: &[MigrationReport]) -> WireStats {
    let mut wire = WireStats::default();
    for r in reports {
        wire.merge(&r.wire);
    }
    wire
}

#[test]
fn content_aware_lands_byte_identical_destination() {
    let (raw_dst, raw_reports) = run_fleet(WireMode::Raw, WorkerPool::serial(), 0.0);
    let (ca_dst, ca_reports) = run_fleet(WireMode::ContentAware, WorkerPool::serial(), 0.0);
    assert_eq!(ca_dst, raw_dst, "wire codec altered the destination");

    // The raw path reports no frames; the content-aware path must both
    // account for every page and keep most bytes off the wire (idle VMs
    // are overwhelmingly zero pages).
    assert_eq!(merged(&raw_reports).frames(), 0);
    let wire = merged(&ca_reports);
    assert!(wire.frames() > 0);
    let ca_bytes: u64 = ca_reports.iter().map(|r| r.bytes_sent).sum();
    let raw_bytes: u64 = raw_reports.iter().map(|r| r.bytes_sent).sum();
    assert!(
        ca_bytes < raw_bytes / 3,
        "content-aware wire bytes {ca_bytes} should be well under a third of raw {raw_bytes}"
    );
    assert_eq!(wire.raw_equivalent_bytes(), raw_bytes);
    for r in &ca_reports {
        assert_eq!(r.wire_bytes_saved(), r.wire.saved_bytes());
    }
}

#[test]
fn content_aware_outcome_is_identical_for_any_worker_count() {
    // The pool splits the cut-over verification; every other step of a
    // round is serial, and nothing may depend on the worker count.
    let (baseline_dst, baseline_reports) =
        run_fleet(WireMode::ContentAware, WorkerPool::serial(), 0.0);
    for workers in [2usize, 8] {
        let (dst, reports) = run_fleet(WireMode::ContentAware, WorkerPool::new(workers), 0.0);
        assert_eq!(
            dst, baseline_dst,
            "destination diverged with {workers} workers"
        );
        for (a, b) in reports.iter().zip(&baseline_reports) {
            assert_eq!(a.wire, b.wire, "wire stats diverged with {workers} workers");
            assert_eq!(a.bytes_sent, b.bytes_sent);
            assert_eq!(a.rounds.len(), b.rounds.len());
        }
    }
}

#[test]
fn cross_vm_dedup_suppresses_duplicate_pages() {
    // migrate_many shares one TransferCache across the fleet: the shared
    // seed block travels raw once (first VM) and as 32-byte dup frames
    // afterwards.
    let (_, reports) = run_fleet(WireMode::ContentAware, WorkerPool::serial(), 0.0);
    assert_eq!(reports.len(), VMS as usize);
    let first_dups = reports[0].wire.count(FrameKind::Dup);
    for r in &reports[1..] {
        assert!(
            r.wire.count(FrameKind::Dup) >= first_dups + 200,
            "{}: later VMs must dedup the shared block against the cache \
             (got {} dups vs {} in the first VM)",
            r.vm_name,
            r.wire.count(FrameKind::Dup),
            first_dups
        );
        assert!(
            r.wire.count(FrameKind::Raw) < reports[0].wire.count(FrameKind::Raw),
            "{}: later VMs should send fewer raw frames than the first",
            r.vm_name
        );
    }
}

#[test]
fn dirty_guest_pages_travel_as_deltas() {
    // A dirtying guest re-sends pages whose content changed since the
    // previous round; those must go as XOR+RLE deltas, and the migration
    // still verifies contents at pause time (verify_contents is on inside
    // run_fleet, so a codec bug fails the migrate_many call itself).
    let (_, reports) = run_fleet(WireMode::ContentAware, WorkerPool::serial(), 2000.0);
    let wire = merged(&reports);
    assert!(
        wire.count(FrameKind::Delta) > 0,
        "dirtying fleet produced no delta frames"
    );
    // Deltas of single-word pages are tiny: the delta payload bytes must
    // be far below re-sending those pages raw.
    assert!(wire.bytes(FrameKind::Delta) < wire.count(FrameKind::Delta) * 4096 / 4);
}
