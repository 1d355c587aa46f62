//! wire_smoke: wire-byte reduction of the content-aware migration path.
//!
//! Reproduces the fig-12-style idle-VM migration workload (§5.2: mostly
//! idle guests, near-zero dirty rate) and migrates the same 4 × 1 GiB
//! Xen fleet to KVM twice — once with [`WireMode::Raw`], once with
//! [`WireMode::ContentAware`] — then checks:
//!
//! 1. **Equivalence**: both runs land byte-identical destination guest
//!    memory (serial-pool checksums) and identical UISR volume.
//! 2. **Reduction**: the content-aware run keeps a floor share of the raw
//!    page bytes off the wire (zero elision dominates on idle VMs;
//!    cross-VM dedup and XOR+RLE deltas cover the shared and re-dirtied
//!    pages).
//! 3. **Delta coverage**: a second, dirtying run (fig-12 busy phase)
//!    must produce at least one `Delta` frame so the codec path is
//!    exercised end to end, not just the zero/dup fast paths.
//! 4. **Encode throughput**: a microbench drives the batch
//!    `encode_words_into` the engine's rounds use over page rounds (zeros,
//!    dups, uniques, re-dirtied pages) and reports committed pages/second.
//!    Untimed, the same rounds encoded one page per call must account
//!    identical wire bytes.
//! 5. **Eviction sweep**: the ring path again, over rounds of fresh
//!    unique pages at 0.5×, 1×, 2× and 4× `DEFAULT_CACHE_CAPACITY`. Past
//!    the cap nearly every page evicts an entry; throughput at 4× must
//!    stay above a floor share of throughput at 0.5× (with a victim
//!    search that scanned the map it was under 1/90 at 1.5×). One
//!    process, so the box's mood cancels out of the ratio.
//!
//! The bounds live in `harness::GATES`. Writes `BENCH_wire.json` (in the
//! current directory, override with `WIRE_SMOKE_OUT`) through
//! `harness::finish`, which fails the run if a bound or an identity field
//! does not hold.

use std::time::Instant;

use hypertp_bench::registry;
use hypertp_core::{HypervisorKind, VmConfig};
use hypertp_machine::{Extent, Gfn, Machine, MachineSpec};
use hypertp_migrate::{
    migrate_many, FrameKind, FrameRing, MigrationConfig, MigrationReport, MigrationTp,
    TransferCache, WireMode, WireStats, DEFAULT_CACHE_CAPACITY,
};
use hypertp_sim::json::{self, Json};
use hypertp_sim::{SimClock, WorkerPool};

/// VMs in the idle fleet.
const VMS: u32 = 4;
/// Per-VM memory in GiB.
const MEM_GB: u64 = 1;
/// Pages per sweep round, in halves of `DEFAULT_CACHE_CAPACITY`.
const SWEEP_HALF_CAPS: [u64; 4] = [1, 2, 4, 8];
/// Rounds per sweep point.
const SWEEP_ROUNDS: u64 = 4;

/// Outcome of one fleet migration: wall seconds, per-VM reports, and a
/// destination fingerprint (serial-pool guest checksums + UISR bytes)
/// that must not depend on the wire mode.
struct Run {
    wall: f64,
    reports: Vec<MigrationReport>,
    dst_checksums: Vec<u64>,
    uisr_bytes: u64,
}

/// Migrates the idle fleet with the given wire mode and dirty rate.
///
/// Guest content is seeded deterministically: a shared block written
/// identically into every VM (cross-VM dedup fodder) plus a per-VM
/// unique block; everything else stays zero, as on a freshly booted
/// idle guest (§5.2's fig-12 shape).
fn run_fleet(wire_mode: WireMode, dirty_rate: f64) -> Run {
    let reg = registry();
    let clock = SimClock::new();
    let mut src_m = Machine::with_clock(MachineSpec::m1(), clock.clone());
    let mut dst_m = Machine::with_clock(MachineSpec::m1(), clock);
    let mut src = reg
        .create(HypervisorKind::Xen, &mut src_m)
        .expect("registry has Xen");
    for i in 0..VMS {
        let cfg = VmConfig::small(format!("idle{i}")).with_memory_gb(MEM_GB);
        let pages = cfg.pages();
        let id = src.create_vm(&mut src_m, &cfg).expect("capacity");
        // Shared block: the same 1024 words at the same gfns in every VM.
        for k in 0..1024u64 {
            src.write_guest(&mut src_m, id, Gfn(k % pages), k ^ 0x5bd1_e995)
                .expect("seed write");
        }
        // Unique block: 512 VM-specific words further up.
        for k in 0..512u64 {
            let gfn = Gfn((4096 + k * 3 + u64::from(i) * 7919) % pages);
            src.write_guest(&mut src_m, id, gfn, k ^ (u64::from(i) << 32))
                .expect("seed write");
        }
    }
    let mut dst = reg
        .create(HypervisorKind::Kvm, &mut dst_m)
        .expect("registry has KVM");
    let ids = src.vm_ids();
    let tp = MigrationTp::new()
        .with_config(MigrationConfig {
            verify_contents: true,
            dirty_rate_pages_per_sec: dirty_rate,
            wire_mode,
            ..MigrationConfig::default()
        })
        .with_pool(WorkerPool::from_env());
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
    let wall = t.elapsed().as_secs_f64();

    let mut dst_checksums = Vec::new();
    for id in dst.vm_ids() {
        let map = dst.guest_memory_map(id).expect("map");
        let extents: Vec<Extent> = map.iter().map(|(_, e)| *e).collect();
        dst_checksums.push(
            dst_m
                .ram()
                .checksum_with_pool(&extents, &WorkerPool::serial()),
        );
    }
    let uisr_bytes = reports.iter().map(|r| r.uisr_bytes).sum();
    Run {
        wall,
        reports,
        dst_checksums,
        uisr_bytes,
    }
}

fn merged_wire(reports: &[MigrationReport]) -> WireStats {
    let mut wire = WireStats::default();
    for r in reports {
        wire.merge(&r.wire);
    }
    wire
}

fn kind_json(wire: &WireStats) -> Json {
    let mut obj = Json::obj();
    for kind in FrameKind::ALL {
        obj.push(
            kind.name(),
            Json::obj()
                .with("frames", json::u(wire.count(kind)))
                .with("bytes", json::u(wire.bytes(kind))),
        );
    }
    obj
}

/// Outcome of one encode-path microbench: committed pages/second, the
/// total accounted wire bytes (must match across paths) and the dedup
/// evictions it took.
struct EncodeBench {
    pages_per_sec: f64,
    wire_bytes: u64,
    evictions: u64,
}

/// Pages per microbench round.
const ENCODE_PAGES: u64 = 65_536;
/// Rounds per microbench path (round 0 is the cold full copy; later
/// rounds re-dirty a slice, exercising the delta path both encoders
/// share with the engine).
const ENCODE_ROUNDS: u64 = 6;

/// The word for `gfn` in `round`: a fig-12-ish mix — mostly zero, a
/// recurring block (dup fodder), unique words, and a re-dirtied slice
/// whose content changes every round (delta fodder).
fn encode_word(round: u64, gfn: u64) -> u64 {
    match gfn % 8 {
        0..=4 => 0,
        5 => 0x5bd1_e995,
        6 => gfn.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
        _ => (gfn ^ (round << 56)) | 1,
    }
}

/// The sweep's word for `gfn` in `round`: non-zero and never repeated, so
/// every page inserts a dedup entry and none hits.
fn fresh_word(round: u64, gfn: u64) -> u64 {
    (((round << 32) | gfn) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Drives one encode path over `rounds` rounds of `pages` pages holding
/// `word(round, gfn)`, on a fresh default-capacity cache. `encode`
/// receives (cache, gfns, words) and returns the round's accounted wire
/// bytes; the cache round is committed around it exactly as the engine
/// does.
fn encode_bench(
    pages: u64,
    rounds: u64,
    word: fn(u64, u64) -> u64,
    mut encode: impl FnMut(&TransferCache, &[Gfn], &[u64]) -> u64,
) -> EncodeBench {
    let cache = TransferCache::new();
    let gfns: Vec<Gfn> = (0..pages).map(Gfn).collect();
    let mut words = vec![0u64; pages as usize];
    let mut wire_bytes = 0u64;
    let t = Instant::now();
    for round in 0..rounds {
        for (w, g) in words.iter_mut().zip(&gfns) {
            *w = word(round, g.0);
        }
        cache.begin_round();
        wire_bytes += encode(&cache, &gfns, &words);
        cache.commit_round();
    }
    let wall = t.elapsed().as_secs_f64();
    EncodeBench {
        pages_per_sec: (pages * rounds) as f64 / wall.max(1e-9),
        wire_bytes,
        evictions: cache.stats().evictions,
    }
}

fn main() {
    println!("wire_smoke: {VMS} x {MEM_GB} GiB idle fleet, Xen -> KVM");

    // 1 + 2. Idle fleet: raw vs content-aware, equivalence + reduction.
    let raw = run_fleet(WireMode::Raw, 0.0);
    let ca = run_fleet(WireMode::ContentAware, 0.0);
    let identical = raw.dst_checksums == ca.dst_checksums && raw.uisr_bytes == ca.uisr_bytes;
    let wire = merged_wire(&ca.reports);
    let raw_bytes: u64 = raw.reports.iter().map(|r| r.bytes_sent).sum();
    let ca_bytes: u64 = ca.reports.iter().map(|r| r.bytes_sent).sum();
    let reduction_pct = (1.0 - wire.compression_ratio()) * 100.0;
    println!(
        "== idle fleet == raw {} B in {:.3} s; content-aware {} B in {:.3} s",
        raw_bytes, raw.wall, ca_bytes, ca.wall
    );
    println!(
        "  wire {} B vs raw-equivalent {} B: {reduction_pct:.1}% kept off the wire",
        wire.wire_bytes(),
        wire.raw_equivalent_bytes()
    );
    for kind in FrameKind::ALL {
        println!(
            "  {:>5}: {:>8} frames, {:>12} B",
            kind.name(),
            wire.count(kind),
            wire.bytes(kind)
        );
    }
    println!("  destinations identical: {identical}");
    assert!(
        wire.count(FrameKind::Dup) > 0,
        "shared seed block must produce cross-VM dup frames"
    );
    println!(
        "  dedup cache: {}/{} entries, {} evictions, hit rate {:.1}% ({}/{} lookups)",
        wire.cache_occupancy(),
        wire.cache_capacity(),
        wire.cache_evictions(),
        wire.dedup_hit_rate() * 100.0,
        wire.cache_dup_hits(),
        wire.cache_dup_lookups(),
    );
    assert!(
        wire.cache_capacity() > 0,
        "content-aware run must report the cache cap"
    );
    assert!(
        wire.cache_occupancy() <= wire.cache_capacity(),
        "cache occupancy must respect the cap"
    );

    // 3. Dirtying fleet: re-dirtied pages must travel as XOR+RLE deltas.
    let dirty = run_fleet(WireMode::ContentAware, 2000.0);
    let dirty_wire = merged_wire(&dirty.reports);
    let dirty_reduction_pct = (1.0 - dirty_wire.compression_ratio()) * 100.0;
    println!(
        "== dirtying fleet == {} delta frames, {:.1}% kept off the wire",
        dirty_wire.count(FrameKind::Delta),
        dirty_reduction_pct
    );
    assert!(
        dirty_wire.count(FrameKind::Delta) > 0,
        "dirtying run must exercise the delta codec"
    );

    // 4. Encode throughput: batch encode into the reusable ring. The same
    // rounds, one page per call, must account the same wire bytes.
    let mut ring = FrameRing::new();
    let mut ring_encode = |cache: &TransferCache, gfns: &[Gfn], words: &[u64]| {
        ring.restart();
        ring.begin();
        let wb = cache.encode_words_into(7, gfns, words, &mut ring, &mut WireStats::new());
        ring.commit();
        std::hint::black_box(ring.len_bytes());
        wb
    };
    let ring_enc = encode_bench(ENCODE_PAGES, ENCODE_ROUNDS, encode_word, &mut ring_encode);
    let mut one = FrameRing::new();
    let one_page = encode_bench(
        ENCODE_PAGES,
        ENCODE_ROUNDS,
        encode_word,
        |cache, gfns, words| {
            let stats = &mut WireStats::new();
            gfns.iter()
                .zip(words)
                .map(|(g, w)| {
                    one.restart();
                    let (g, w) = (std::slice::from_ref(g), std::slice::from_ref(w));
                    cache.encode_words_into(7, g, w, &mut one, stats)
                })
                .sum()
        },
    );
    let wire_bytes_identical = ring_enc.wire_bytes == one_page.wire_bytes;
    println!(
        "== encode throughput == {} pages x {} rounds: ring {:.0} pages/s; one page per call accounts the same bytes: {wire_bytes_identical}",
        ENCODE_PAGES, ENCODE_ROUNDS, ring_enc.pages_per_sec
    );

    // 5. Eviction sweep: fresh unique pages per round, from half the dedup
    // cap (the third round is the first to evict) to four times it (a
    // round pins 4x the cap, the next one drains and refills it).
    let sweep: Vec<(u64, EncodeBench)> = SWEEP_HALF_CAPS
        .iter()
        .map(|&halves| {
            let pages = halves * DEFAULT_CACHE_CAPACITY as u64 / 2;
            let bench = encode_bench(pages, SWEEP_ROUNDS, fresh_word, &mut ring_encode);
            (pages, bench)
        })
        .collect();
    println!("== eviction sweep == {SWEEP_ROUNDS} rounds of fresh unique pages per point");
    for (pages, bench) in &sweep {
        println!(
            "  {:>6} pages/round ({:.1}x cap): {:>9.0} pages/s, {:>7} evictions",
            pages,
            *pages as f64 / DEFAULT_CACHE_CAPACITY as f64,
            bench.pages_per_sec,
            bench.evictions
        );
    }
    let (smallest, largest) = (&sweep[0].1, &sweep[sweep.len() - 1].1);
    let sweep_ratio = largest.pages_per_sec / smallest.pages_per_sec;
    println!("  4x vs 0.5x throughput: {sweep_ratio:.2}");
    assert!(largest.evictions > 0, "the 4x point must evict");

    let out = Json::obj()
        .with("bench", json::s("wire_smoke"))
        .with("vms", json::u(u64::from(VMS)))
        .with("mem_gb_per_vm", json::u(MEM_GB))
        .with(
            "idle_fleet",
            Json::obj()
                .with("raw_bytes_sent", json::u(raw_bytes))
                .with("raw_secs", json::f(raw.wall))
                .with("content_aware_bytes_sent", json::u(ca_bytes))
                .with("content_aware_secs", json::f(ca.wall))
                .with("wire_bytes", json::u(wire.wire_bytes()))
                .with("raw_equivalent_bytes", json::u(wire.raw_equivalent_bytes()))
                .with("wire_reduction_pct", json::f(reduction_pct))
                .with("frames", kind_json(&wire))
                .with(
                    "dedup_cache",
                    Json::obj()
                        .with("occupancy", json::u(wire.cache_occupancy()))
                        .with("capacity", json::u(wire.cache_capacity()))
                        .with("evictions", json::u(wire.cache_evictions()))
                        .with("dup_hits", json::u(wire.cache_dup_hits()))
                        .with("dup_lookups", json::u(wire.cache_dup_lookups()))
                        .with("hit_rate", json::f(wire.dedup_hit_rate())),
                )
                .with("identical", json::s(identical.to_string())),
        )
        .with(
            "encode",
            Json::obj()
                .with("pages_per_round", json::u(ENCODE_PAGES))
                .with("rounds", json::u(ENCODE_ROUNDS))
                .with("ring_pages_per_sec", json::f(ring_enc.pages_per_sec))
                .with(
                    "wire_bytes_identical",
                    json::s(wire_bytes_identical.to_string()),
                ),
        )
        .with(
            "eviction_sweep",
            Json::obj()
                .with("capacity", json::u(DEFAULT_CACHE_CAPACITY as u64))
                .with("rounds", json::u(SWEEP_ROUNDS))
                .with(
                    "points",
                    json::arr(sweep.iter().map(|(pages, bench)| {
                        Json::obj()
                            .with("pages_per_round", json::u(*pages))
                            .with("pages_per_sec", json::f(bench.pages_per_sec))
                            .with("evictions", json::u(bench.evictions))
                    })),
                )
                .with("throughput_ratio", json::f(sweep_ratio)),
        )
        .with(
            "dirty_fleet",
            Json::obj()
                .with("dirty_rate_pages_per_sec", json::f(2000.0))
                .with("delta_frames", json::u(dirty_wire.count(FrameKind::Delta)))
                .with("wire_reduction_pct", json::f(dirty_reduction_pct))
                .with("frames", kind_json(&dirty_wire))
                // Per-round controller telemetry of the dirtying run: the
                // EWMA estimators observe even under the static config.
                .with(
                    "round_telemetry",
                    hypertp_bench::rounds_telemetry(&dirty.reports),
                ),
        );
    hypertp_bench::harness::finish(out);
}
