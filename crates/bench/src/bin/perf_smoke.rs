//! perf_smoke: wall-clock timings of the parallelized hot paths.
//!
//! Unlike the figure experiments (which report *simulated* durations from
//! the cost model), this binary measures real elapsed time with
//! [`std::time::Instant`] to show the worker-pool wiring actually moves
//! wall-clock numbers:
//!
//! 1. InPlaceTP transplant of 8 × 1 GiB VMs (4 KiB pages), serial
//!    (`HYPERTP_WORKERS=1`) versus the full pool — the transplant results
//!    must be identical byte for byte.
//! 2. PRAM encode + parse of a multi-file 4 KiB-page image.
//! 3. UISR binary codec round-trip throughput.
//! 4. `migrate_many` with content verification, serial versus pooled, plus
//!    a content-aware wire-mode run reporting the wire-byte reduction.
//! 5. One InPlaceTP leg at the paper's density (12 × 1 GiB, 2 MiB pages),
//!    timed stage by stage: frame-ownership bookkeeping (kexec, PRAM
//!    re-reservation, boot scrub, adoption, release) against the two
//!    integrity-checksum passes over the same memory. Their ratio cancels
//!    the speed of the box and is gated in `harness::GATES`: bookkeeping
//!    must cost less than hashing the memory it keeps.
//!
//! Writes `BENCH_parallel.json` (in the current directory, override with
//! `PERF_SMOKE_OUT`) with the wall-clock numbers, the thread count and the
//! identity checks, through `harness::finish`.

use std::time::Instant;

use hypertp_bench::registry;
use hypertp_core::{uisr_store, HypervisorKind, InPlaceTransplant, VmConfig};
use hypertp_machine::{
    frame_runs, Extent, Gfn, KexecImage, Machine, MachineSpec, PageOrder, PhysicalMemory,
};
use hypertp_migrate::{migrate_many, MigrationConfig, MigrationReport, MigrationTp, WireMode};
use hypertp_pram::{PramBuilder, PramFile, PramImage, PramStats};
use hypertp_sim::json::{self, Json};
use hypertp_sim::{SimClock, WorkerPool};

/// VMs in the transplant smoke test (the ISSUE's 8 × 1 GiB shape).
const VMS: u32 = 8;
/// Per-VM memory in GiB.
const MEM_GB: u64 = 1;

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Everything the transplant produces that must not depend on the worker
/// count: restored guest memory, PRAM metadata shape, UISR byte volume.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    checksums: Vec<u64>,
    pram_stats: PramStats,
    uisr_bytes: u64,
}

/// Runs one 8-VM Xen→KVM transplant with `HYPERTP_WORKERS=workers` and
/// returns (wall seconds, result fingerprint). The fingerprint is computed
/// with a serial pool so the knob under test cannot touch it.
fn transplant(workers: usize) -> (f64, Fingerprint) {
    std::env::set_var("HYPERTP_WORKERS", workers.to_string());
    let reg = registry();
    let mut machine = Machine::new(MachineSpec::m1());
    let mut hv = reg
        .create(HypervisorKind::Xen, &mut machine)
        .expect("registry has Xen");
    for i in 0..VMS {
        let cfg = VmConfig::small(format!("vm{i}"))
            .with_memory_gb(MEM_GB)
            .with_huge_pages(false); // 262 144 map entries per VM
        let pages = cfg.pages();
        let id = hv.create_vm(&mut machine, &cfg).expect("capacity");
        // Seed deterministic guest state so the checksums are non-trivial.
        for k in 0..1024u64 {
            let gfn = Gfn((k * 131 + u64::from(i)) % pages);
            hv.write_guest(&mut machine, id, gfn, k ^ 0x9e37_79b9)
                .expect("seed write");
        }
    }

    let engine = InPlaceTransplant::new(&reg);
    let start = Instant::now();
    let (hv, report) = engine
        .run(&mut machine, hv, HypervisorKind::Kvm)
        .expect("transplant");
    let wall = secs(start);

    let mut checksums = Vec::new();
    for id in hv.vm_ids() {
        let map = hv.guest_memory_map(id).expect("map");
        let extents: Vec<Extent> = map.iter().map(|(_, e)| *e).collect();
        checksums.push(
            machine
                .ram()
                .checksum_with_pool(&extents, &WorkerPool::serial()),
        );
    }
    let fp = Fingerprint {
        checksums,
        pram_stats: report.pram_stats,
        uisr_bytes: report.uisr_bytes,
    };
    (wall, fp)
}

/// Times PRAM encode + parse of `files` × 1 GiB 4 KiB-page files on the
/// given pool. Returns (encode secs, parse secs, stats).
fn pram_roundtrip(files: u64, pool: WorkerPool) -> (f64, f64, PramStats) {
    let mut ram = PhysicalMemory::with_gib(files + 2);
    let mut builder = PramBuilder::new().with_pool(pool);
    let pages_per_file = (1u64 << 30) / 4096;
    for f in 0..files {
        let map: Vec<(Gfn, Extent)> = (0..pages_per_file)
            .map(|i| (Gfn(i), ram.alloc(PageOrder(0)).expect("capacity")))
            .collect();
        builder.add_file(format!("vm{f}"), 0o600, map);
    }
    let t = Instant::now();
    let handle = builder.write(&mut ram).expect("encode");
    let encode = secs(t);
    let t = Instant::now();
    let image = PramImage::parse(&ram, handle.pram_ptr).expect("parse");
    let parse = secs(t);
    assert_eq!(image.files.len() as u64, files);
    (encode, parse, handle.stats())
}

/// Times `iters` UISR binary codec round-trips of a 10-vCPU VM and
/// returns (total secs, blob bytes, whether the decoded VM equals the
/// encoded one — compared once, outside the timed loop).
fn uisr_roundtrip(iters: u32) -> (f64, usize, bool) {
    use hypertp_uisr::{DeviceState, MemoryRegion, MsrEntry, UisrVm, VcpuState};
    let mut vm = UisrVm::new("perf-smoke");
    for i in 0..10 {
        let mut v = VcpuState::reset(i);
        v.regs.rip = 0xffff_8000_0000_0000 + u64::from(i);
        v.msrs = (0..40)
            .map(|k| MsrEntry {
                index: 0xc000_0080 + k,
                data: u64::from(k),
            })
            .collect();
        vm.vcpus.push(v);
    }
    vm.devices.push(DeviceState::Network {
        mac: [2, 0, 0, 0, 0, 1],
        unplugged: false,
    });
    vm.memory.regions.push(MemoryRegion {
        gfn_start: 0,
        pages: 262_144,
    });
    let mut blob = Vec::new();
    let t = Instant::now();
    for _ in 0..iters {
        hypertp_uisr::codec::encode_into(&vm, &mut blob);
        let back = hypertp_uisr::decode(&blob).expect("decode");
        std::hint::black_box(back);
    }
    let total = secs(t);
    let identical = hypertp_uisr::decode(&blob).expect("decode") == vm;
    (total, blob.len(), identical)
}

/// Migrates 4 × 1 GiB VMs Xen→KVM with content verification on the given
/// pool and wire mode. Returns (wall secs, reports).
fn migrate_batch(pool: WorkerPool, wire_mode: WireMode) -> (f64, Vec<MigrationReport>) {
    let reg = registry();
    let clock = SimClock::new();
    let mut src_m = Machine::with_clock(MachineSpec::m1(), clock.clone());
    let mut dst_m = Machine::with_clock(MachineSpec::m1(), clock);
    let mut src = reg
        .create(HypervisorKind::Xen, &mut src_m)
        .expect("registry has Xen");
    for i in 0..4u32 {
        let cfg = VmConfig::small(format!("mig{i}")).with_memory_gb(1);
        src.create_vm(&mut src_m, &cfg).expect("capacity");
    }
    let mut dst = reg
        .create(HypervisorKind::Kvm, &mut dst_m)
        .expect("registry has KVM");
    let ids = src.vm_ids();
    let tp = MigrationTp::new()
        .with_config(MigrationConfig {
            verify_contents: true,
            dirty_rate_pages_per_sec: 0.0,
            wire_mode,
            ..MigrationConfig::default()
        })
        .with_pool(pool);
    let t = Instant::now();
    let reports = migrate_many(
        &tp,
        &mut src_m,
        src.as_mut(),
        &ids,
        &mut dst_m,
        dst.as_mut(),
    )
    .expect("migration");
    (secs(t), reports)
}

/// Guests of the ownership leg: the paper's maximum density on M1.
const DENSE_VMS: u32 = 12;

/// Runs one Xen→KVM InPlaceTP leg over 12 × 1 GiB guests by hand, on a
/// serial pool, and returns (seconds of frame-ownership bookkeeping,
/// seconds of integrity checksums). Ownership is everything that decides
/// who holds which frame: the kexec forgetting it all, `reserve_all`, the
/// boot scrub, the per-VM adoption and the final release.
fn ownership_leg() -> (f64, f64) {
    let reg = registry();
    let serial = WorkerPool::serial();
    let mut machine = Machine::new(MachineSpec::m1());
    let mut source = reg
        .create(HypervisorKind::Xen, &mut machine)
        .expect("registry has Xen");
    for i in 0..DENSE_VMS {
        let cfg = VmConfig::small(format!("vm{i}")).with_memory_gb(MEM_GB);
        let pages = cfg.pages();
        let id = source.create_vm(&mut machine, &cfg).expect("capacity");
        for k in 0..4096u64 {
            let gfn = Gfn((k * 61 + u64::from(i)) % pages);
            source
                .write_guest(&mut machine, id, gfn, k | 1)
                .expect("seed write");
        }
    }
    let extents_of = |map: &[(Gfn, Extent)]| map.iter().map(|(_, e)| *e).collect::<Vec<_>>();
    let (mut ownership, mut checksums) = (0.0, 0.0);

    // Source side: baseline checksums, UISR blobs and the PRAM image.
    let ids = source.vm_ids();
    for &id in &ids {
        source
            .notify_prepare_transplant(&mut machine, id)
            .expect("prepare");
        source.pause_vm(id).expect("pause");
    }
    let mut builder = PramBuilder::new().with_pool(serial);
    let mut baselines = Vec::new();
    for &id in &ids {
        let name = source.vm_config(id).expect("config").name.clone();
        let map = source.guest_memory_map(id).expect("map");
        let extents = extents_of(&map);
        let t = Instant::now();
        let sum = machine.ram().checksum_with_pool(&extents, &serial);
        checksums += secs(t);
        let blob = hypertp_uisr::encode(&source.save_uisr(&machine, id).expect("save"));
        builder.add_file(name.clone(), 0o600, map);
        uisr_store::store_blob(machine.ram_mut(), &mut builder, &name, &blob).expect("store");
        baselines.push((name, sum));
    }
    let handle = builder.write(machine.ram_mut()).expect("encode");

    // Micro-reboot, then the target's early boot.
    machine.kexec_load(KexecImage {
        target: HypervisorKind::Kvm.boot_target(),
        cmdline: format!("hypertp {}", handle.cmdline_arg()),
    });
    drop(source);
    let t = Instant::now();
    machine.kexec().expect("staged");
    ownership += secs(t);
    let image = PramImage::parse(machine.ram(), handle.pram_ptr).expect("parse");
    image.verify().expect("verify");
    let t = Instant::now();
    image.reserve_all(machine.ram_mut()).expect("reserve");
    machine.ram_mut().scrub_unreserved();
    ownership += secs(t);

    let mut target = reg
        .create(HypervisorKind::Kvm, &mut machine)
        .expect("registry has KVM");
    let guest_files = || image.files.iter().filter(|f| !uisr_store::is_uisr_file(f));
    for file in guest_files() {
        let blob_file = image
            .file(&uisr_store::uisr_file_name(&file.name))
            .expect("every guest has a blob");
        let blob = uisr_store::load_blob(machine.ram(), blob_file).expect("load");
        let uisr = hypertp_uisr::decode(&blob).expect("decode");
        let t = Instant::now();
        target
            .adopt_vm(&mut machine, &uisr, &file.mappings)
            .expect("adopt");
        ownership += secs(t);
    }
    for (name, expected) in &baselines {
        let id = target.find_vm(name).expect("VM survived the reboot");
        let extents = extents_of(&target.guest_memory_map(id).expect("map"));
        let t = Instant::now();
        let sum = machine.ram().checksum_with_pool(&extents, &serial);
        checksums += secs(t);
        assert_eq!(sum, *expected, "guest memory of {name} changed");
    }
    let t = Instant::now();
    for (base, pages) in frame_runs(guest_files().flat_map(PramFile::extents)) {
        machine
            .ram_mut()
            .unreserve_and_free(base, pages)
            .expect("in range");
    }
    ownership += secs(t);
    (ownership, checksums)
}

fn report_key(r: &MigrationReport) -> (String, usize, u64, u64) {
    (
        r.vm_name.clone(),
        r.rounds.len(),
        r.bytes_sent,
        r.uisr_bytes,
    )
}

fn main() {
    let threads = threads();
    // Capture the effective worker count BEFORE any benchmark mutates
    // HYPERTP_WORKERS: this is what WorkerPool::from_env() resolves for a
    // user-launched run (env override or detected parallelism), as opposed
    // to the raw hardware detection above.
    let effective_workers = WorkerPool::from_env().workers();
    println!(
        "perf_smoke: {threads} hardware threads detected, {effective_workers} effective workers"
    );

    // 1. InPlaceTP 8 × 1 GiB, serial vs pooled.
    println!("== inplace transplant ({VMS} x {MEM_GB} GiB, 4 KiB pages) ==");
    let (serial_s, serial_fp) = transplant(1);
    println!("  serial   (HYPERTP_WORKERS=1): {serial_s:.3} s");
    let (par_s, par_fp) = transplant(threads);
    println!("  parallel (HYPERTP_WORKERS={threads}): {par_s:.3} s");
    let identical = serial_fp == par_fp;
    let speedup = serial_s / par_s.max(1e-9);
    println!("  speedup {speedup:.2}x, results identical: {identical}");

    // 2. PRAM encode + parse, serial vs pooled.
    println!("== pram encode/parse (4 x 1 GiB files, 4 KiB pages) ==");
    let (enc_serial, parse_s, stats_serial) = pram_roundtrip(4, WorkerPool::serial());
    let (enc_par, _, stats_par) = pram_roundtrip(4, WorkerPool::new(threads));
    let pram_identical = stats_serial == stats_par;
    println!(
        "  encode serial {enc_serial:.3} s, pooled {enc_par:.3} s ({:.2}x); parse {parse_s:.3} s; identical: {pram_identical}",
        enc_serial / enc_par.max(1e-9)
    );

    // 3. UISR codec round-trip.
    let uisr_iters = 2000u32;
    let (uisr_s, uisr_bytes, uisr_identical) = uisr_roundtrip(uisr_iters);
    println!(
        "== uisr codec == {uisr_iters} round-trips of {uisr_bytes} B in {uisr_s:.3} s ({:.0}/s); identical: {uisr_identical}",
        f64::from(uisr_iters) / uisr_s.max(1e-9)
    );

    // 4. migrate_many with verification, serial vs pooled, raw vs wire.
    println!("== migrate_many (4 x 1 GiB, verify_contents) ==");
    let (mig_serial, reports_serial) = migrate_batch(WorkerPool::serial(), WireMode::Raw);
    let (mig_par, reports_par) = migrate_batch(WorkerPool::new(threads), WireMode::Raw);
    let mig_identical = reports_serial.iter().map(report_key).collect::<Vec<_>>()
        == reports_par.iter().map(report_key).collect::<Vec<_>>();
    println!(
        "  serial {mig_serial:.3} s, pooled {mig_par:.3} s ({:.2}x); reports identical: {mig_identical}",
        mig_serial / mig_par.max(1e-9)
    );
    // Content-aware wire path on the same workload: same destination state
    // (verify_contents is on inside migrate_many), fewer wire bytes, and —
    // because zero pages skip both the encode arithmetic and the destination
    // write — less wall-clock time.
    let (mig_ca, reports_ca) = migrate_batch(WorkerPool::new(threads), WireMode::ContentAware);
    let mut wire = hypertp_migrate::WireStats::default();
    for r in &reports_ca {
        wire.merge(&r.wire);
    }
    let wire_reduction_pct = (1.0 - wire.compression_ratio()) * 100.0;
    let ca_identical = reports_ca
        .iter()
        .zip(&reports_par)
        .all(|(a, b)| a.vm_name == b.vm_name && a.uisr_bytes == b.uisr_bytes);
    println!(
        "  content-aware {mig_ca:.3} s ({:.2}x vs raw pooled); wire bytes {} of {} raw ({wire_reduction_pct:.1}% saved); identical: {ca_identical}",
        mig_par / mig_ca.max(1e-9),
        wire.wire_bytes(),
        wire.raw_equivalent_bytes(),
    );

    // 5. Ownership bookkeeping vs integrity checksums, one leg. The
    // fastest of five worlds for each side: contention only adds time.
    println!("== inplace ownership ({DENSE_VMS} x {MEM_GB} GiB, 2 MiB pages, one leg) ==");
    let legs: Vec<(f64, f64)> = (0..5).map(|_| ownership_leg()).collect();
    let ownership_s = legs.iter().map(|l| l.0).fold(f64::INFINITY, f64::min);
    let checksum_s = legs.iter().map(|l| l.1).fold(f64::INFINITY, f64::min);
    let ownership_ratio = ownership_s / checksum_s.max(1e-9);
    println!(
        "  ownership {:.2} ms, checksums {:.2} ms, ratio {ownership_ratio:.2}",
        ownership_s * 1e3,
        checksum_s * 1e3
    );

    // JSON artifact.
    let out = Json::obj()
        .with("bench", json::s("perf_smoke"))
        .with("hardware_threads_detected", json::u(threads as u64))
        .with("effective_workers", json::u(effective_workers as u64))
        .with(
            "inplace_8vm",
            Json::obj()
                .with("vms", json::u(u64::from(VMS)))
                .with("mem_gb_per_vm", json::u(MEM_GB))
                .with("serial_secs", json::f(serial_s))
                .with("parallel_secs", json::f(par_s))
                .with("speedup", json::f(speedup))
                .with("identical", json::s(identical.to_string())),
        )
        .with(
            "pram_encode",
            Json::obj()
                .with("files", json::u(4))
                .with("serial_secs", json::f(enc_serial))
                .with("parallel_secs", json::f(enc_par))
                .with("parse_secs", json::f(parse_s))
                .with("identical", json::s(pram_identical.to_string())),
        )
        .with(
            "uisr_codec",
            Json::obj()
                .with("round_trips", json::u(u64::from(uisr_iters)))
                .with("blob_bytes", json::u(uisr_bytes as u64))
                .with("total_secs", json::f(uisr_s))
                .with("identical", json::s(uisr_identical.to_string())),
        )
        .with(
            "migrate_many",
            Json::obj()
                .with("vms", json::u(4))
                .with("serial_secs", json::f(mig_serial))
                .with("parallel_secs", json::f(mig_par))
                .with("identical", json::s(mig_identical.to_string()))
                .with("content_aware_secs", json::f(mig_ca))
                .with("wire_bytes", json::u(wire.wire_bytes()))
                .with("raw_equivalent_bytes", json::u(wire.raw_equivalent_bytes()))
                .with("wire_reduction_pct", json::f(wire_reduction_pct))
                .with("content_aware_identical", json::s(ca_identical.to_string()))
                // Per-round controller telemetry of the content-aware
                // run: EWMA trajectories + stop-threshold/throttle per
                // round (static config, so the threshold stays at 64 and
                // the throttle at 1.0 — the estimators still observe).
                .with(
                    "round_telemetry",
                    hypertp_bench::rounds_telemetry(&reports_ca),
                ),
        )
        .with(
            "inplace_ownership",
            Json::obj()
                .with("vms", json::u(u64::from(DENSE_VMS)))
                .with("ownership_secs", json::f(ownership_s))
                .with("checksum_secs", json::f(checksum_s))
                .with("ratio", json::f(ownership_ratio)),
        );
    hypertp_bench::harness::finish(out);
}
