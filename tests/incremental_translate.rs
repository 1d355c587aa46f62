//! Incremental pre-pause UISR translation: equivalence and chaos suite.
//!
//! The dirty-delta finalize ([`Optimizations::incremental_translate`]) is
//! a pure blackout optimization — it must never change *what* a
//! transplant produces, only *when* the translation work happens. Four
//! seeded families pin that down (≥200 configurations total):
//!
//! 1. **Off is inert** — with the toggle off, an engine carrying any
//!    [`IncrementalConfig`] is byte-identical to the default engine:
//!    same timings, same restored guests, same fault-plan consultations
//!    (the fault logs render identically under an armed plan).
//! 2. **On matches full-translate** — an incremental run records the
//!    exact workload ticks its warm rounds injected
//!    ([`InPlaceReport::warm_rounds`] / `warm_carryover_pages`); replaying
//!    that tick sequence against a full-translate twin must yield the
//!    same restored vCPU state, the same UISR blobs byte-for-byte and the
//!    same PRAM shape — while the incremental blackout is never longer.
//! 3. **Worker-count invariance** — the outcome (and the simulated
//!    timings) of an incremental run are identical for any
//!    `HYPERTP_WORKERS` setting.
//! 4. **Chaos scenario 7** — a `WorkerPanic` during the warm phase dooms
//!    the warm cache: the engine logs `fell_back_to_full_translate`,
//!    completes on the full pause-time path without losing a guest, and
//!    the fault log is deterministic for a fixed seed.
//!
//! Set `HYPERTP_SEED` to probe fresh seeds; failures print the seed.

use hypertp::prelude::*;
use hypertp_core::WarmRound;
use hypertp_pram::PramStats;
use hypertp_sim::fault::{FaultPlan, InjectionPoint, RecoveryAction};
use hypertp_sim::SimRng;
use hypertp_uisr::UisrVm;

fn small_spec(ram_gb: u64) -> MachineSpec {
    let mut spec = MachineSpec::m1();
    spec.ram_gb = ram_gb;
    spec
}

/// The seed for a test: `HYPERTP_SEED` if set, else `default`.
fn seed_for(default: u64) -> u64 {
    match std::env::var("HYPERTP_SEED") {
        Ok(s) => {
            let s = s.trim();
            let (digits, radix) = match s.strip_prefix("0x") {
                Some(hex) => (hex, 16),
                None => (s, 10),
            };
            u64::from_str_radix(digits, radix)
                .unwrap_or_else(|e| panic!("bad HYPERTP_SEED {s:?}: {e}"))
        }
        Err(_) => default,
    }
}

/// One seeded source-host shape: VM count, vCPUs and guest writes all
/// derive from the case seed so a twin host can be rebuilt identically.
#[derive(Clone)]
struct CaseShape {
    n_vms: u32,
    vcpus: u32,
    writes: Vec<(u64, u64)>,
    ticks: u64,
}

impl CaseShape {
    fn from_rng(rng: &mut SimRng) -> Self {
        CaseShape {
            n_vms: 1 + rng.gen_range(2) as u32,
            vcpus: 1 + rng.gen_range(3) as u32,
            writes: (0..8 + rng.gen_range(24) as usize)
                .map(|_| (rng.next_u64(), rng.next_u64()))
                .collect(),
            ticks: rng.gen_range(6),
        }
    }

    /// Builds a fresh Xen machine populated to this shape.
    fn build(&self) -> (Machine, Box<dyn Hypervisor>) {
        let registry = default_registry();
        let mut m = Machine::new(small_spec(8));
        let mut hv = registry.create(HypervisorKind::Xen, &mut m).unwrap();
        for i in 0..self.n_vms {
            let cfg = VmConfig::small(format!("vm{i}")).with_vcpus(self.vcpus);
            let id = hv.create_vm(&mut m, &cfg).unwrap();
            for (k, (gfn, val)) in self.writes.iter().enumerate() {
                if k as u32 % self.n_vms == i {
                    hv.write_guest(&mut m, id, Gfn(gfn % cfg.pages()), *val)
                        .unwrap();
                }
            }
            if self.ticks > 0 {
                hv.guest_tick(&mut m, id, self.ticks).unwrap();
            }
        }
        (m, hv)
    }
}

/// Everything observable about one transplant outcome that the
/// incremental path must not change.
#[derive(Debug, PartialEq)]
struct Outcome {
    uisrs: Vec<UisrVm>,
    blobs: Vec<Vec<u8>>,
    guest_reads: Vec<u64>,
    pram_stats: PramStats,
    uisr_bytes: u64,
    vm_count: usize,
}

fn capture(
    shape: &CaseShape,
    m: &Machine,
    hv: &mut Box<dyn Hypervisor>,
    r: &InPlaceReport,
) -> Outcome {
    let mut uisrs = Vec::new();
    let mut blobs = Vec::new();
    let mut guest_reads = Vec::new();
    for i in 0..shape.n_vms {
        let cfg = VmConfig::small(format!("vm{i}")).with_vcpus(shape.vcpus);
        let id = hv.find_vm(&format!("vm{i}")).unwrap();
        for (k, (gfn, _)) in shape.writes.iter().enumerate() {
            if k as u32 % shape.n_vms == i {
                guest_reads.push(hv.read_guest(m, id, Gfn(gfn % cfg.pages())).unwrap());
            }
        }
        hv.pause_vm(id).unwrap();
        let u = hv.save_uisr(m, id).unwrap();
        blobs.push(hypertp_uisr::encode(&u));
        uisrs.push(u);
    }
    Outcome {
        uisrs,
        blobs,
        guest_reads,
        pram_stats: r.pram_stats,
        uisr_bytes: r.uisr_bytes,
        vm_count: r.vm_count,
    }
}

/// Family 1 (~128 configs): with the toggle off, an engine that carries
/// an [`IncrementalConfig`] is indistinguishable from the default engine
/// — timings, outcome and the fault plan's consultation stream included.
#[test]
fn incremental_off_is_inert() {
    let seed = seed_for(0x1dc0_0001);
    let mut rng = SimRng::new(seed);
    for case in 0u64..128 {
        let shape = CaseShape::from_rng(&mut rng);
        let arm_faults = rng.gen_bool(0.5);
        let incremental = IncrementalConfig {
            dirty_rate_pages_per_sec: 1.0 + rng.gen_range(10_000) as f64,
            max_warm_rounds: 1 + rng.gen_range(8) as u32,
        };
        let run = |with_cfg: bool| {
            let registry = default_registry();
            let (mut m, hv) = shape.build();
            let plan = FaultPlan::new(seed ^ case);
            if arm_faults {
                plan.arm(InjectionPoint::WorkerPanic, 0.4, u64::MAX);
                plan.arm_once(InjectionPoint::PramChecksum);
            }
            let mut engine = InPlaceTransplant::new(&registry).with_faults(plan.clone());
            if with_cfg {
                // The config must be dead weight while the toggle is off.
                engine = engine.with_incremental(incremental);
            }
            let (mut hv2, r) = engine.run(&mut m, hv, HypervisorKind::Kvm).unwrap();
            let outcome = capture(&shape, &m, &mut hv2, &r);
            (outcome, r, plan.log().render())
        };
        let (out_a, rep_a, log_a) = run(false);
        let (out_b, rep_b, log_b) = run(true);
        assert_eq!(out_a, out_b, "seed {seed:#x} case {case}");
        assert_eq!(log_a, log_b, "seed {seed:#x} case {case}: fault stream");
        assert_eq!(
            rep_a.downtime(),
            rep_b.downtime(),
            "seed {seed:#x} case {case}"
        );
        assert_eq!(rep_a.total(), rep_b.total(), "seed {seed:#x} case {case}");
        assert_eq!(rep_a.translation, rep_b.translation);
        for r in [&rep_a, &rep_b] {
            assert_eq!(r.warm_translate, SimDuration::ZERO);
            assert_eq!(r.delta_translate, SimDuration::ZERO);
            assert_eq!(r.dirty_fraction, 1.0);
            assert!(r.warm_rounds.is_empty());
            assert_eq!(r.patched_sections, 0);
        }
    }
}

/// Family 2 (~56 configs): an incremental run and a full-translate twin
/// fed the same workload tick sequence produce identical restored state,
/// identical UISR blob bytes and an identical PRAM shape — and the
/// incremental blackout never exceeds the full one.
#[test]
fn incremental_matches_full_translate_state_and_bytes() {
    let seed = seed_for(0x1dc0_0002);
    let mut rng = SimRng::new(seed);
    for case in 0..56 {
        let shape = CaseShape::from_rng(&mut rng);
        let incremental = IncrementalConfig {
            dirty_rate_pages_per_sec: 200.0 + rng.gen_range(4800) as f64,
            max_warm_rounds: 1 + rng.gen_range(6) as u32,
        };
        let registry = default_registry();

        // Incremental run: the engine injects warm-round workload ticks
        // and records them in the report.
        let (mut m_inc, hv_inc) = shape.build();
        let engine = InPlaceTransplant::new(&registry)
            .with_optimizations(Optimizations {
                incremental_translate: true,
                ..Optimizations::default()
            })
            .with_incremental(incremental);
        let (mut hv2_inc, rep_inc) = engine.run(&mut m_inc, hv_inc, HypervisorKind::Kvm).unwrap();
        let out_inc = capture(&shape, &m_inc, &mut hv2_inc, &rep_inc);

        // Twin: same host, same ticks replayed up front, full translate.
        let (mut m_full, mut hv_full) = shape.build();
        let ids: Vec<VmId> = hv_full.vm_ids();
        for WarmRound { tick_pages, .. } in &rep_inc.warm_rounds {
            if *tick_pages > 0 {
                for &id in &ids {
                    hv_full.guest_tick(&mut m_full, id, *tick_pages).unwrap();
                }
            }
        }
        if rep_inc.warm_carryover_pages > 0 {
            for &id in &ids {
                hv_full
                    .guest_tick(&mut m_full, id, rep_inc.warm_carryover_pages)
                    .unwrap();
            }
        }
        let full_engine = InPlaceTransplant::new(&registry);
        let (mut hv2_full, rep_full) = full_engine
            .run(&mut m_full, hv_full, HypervisorKind::Kvm)
            .unwrap();
        let out_full = capture(&shape, &m_full, &mut hv2_full, &rep_full);

        assert_eq!(out_inc, out_full, "seed {seed:#x} case {case}");
        assert_eq!(
            out_inc.blobs, out_full.blobs,
            "seed {seed:#x} case {case}: UISR/PRAM blob bytes"
        );
        // Telemetry sanity: the warm phase ran, the pause-time delta is
        // what landed in the blackout, and the blackout never regresses.
        assert!(
            !rep_inc.warm_rounds.is_empty(),
            "seed {seed:#x} case {case}"
        );
        assert!(rep_inc.warm_translate > SimDuration::ZERO);
        assert!((0.0..=1.0).contains(&rep_inc.dirty_fraction));
        assert_eq!(rep_inc.delta_translate, rep_inc.translation);
        assert!(
            rep_inc.downtime() <= rep_full.downtime(),
            "seed {seed:#x} case {case}: incremental {:?} > full {:?}",
            rep_inc.downtime(),
            rep_full.downtime()
        );
    }
}

/// Family 3 (20 configs): the incremental outcome and its simulated
/// timings are invariant under the worker count. Single `#[test]` because
/// `HYPERTP_WORKERS` is process-wide.
#[test]
fn incremental_outcome_is_identical_for_any_worker_count() {
    let seed = seed_for(0x1dc0_0003);
    let mut rng = SimRng::new(seed);
    let shapes: Vec<(CaseShape, IncrementalConfig)> = (0..5)
        .map(|_| {
            (
                CaseShape::from_rng(&mut rng),
                IncrementalConfig {
                    dirty_rate_pages_per_sec: 500.0 + rng.gen_range(3000) as f64,
                    ..IncrementalConfig::default()
                },
            )
        })
        .collect();
    let run = |shape: &CaseShape, incremental: IncrementalConfig| {
        let registry = default_registry();
        let (mut m, hv) = shape.build();
        let engine = InPlaceTransplant::new(&registry)
            .with_optimizations(Optimizations {
                incremental_translate: true,
                ..Optimizations::default()
            })
            .with_incremental(incremental);
        let (mut hv2, r) = engine.run(&mut m, hv, HypervisorKind::Kvm).unwrap();
        let outcome = capture(shape, &m, &mut hv2, &r);
        (
            outcome,
            r.downtime(),
            r.total(),
            r.warm_rounds.clone(),
            r.dirty_fraction,
            r.patched_sections,
        )
    };
    for (i, (shape, cfg)) in shapes.iter().enumerate() {
        let baseline = run(shape, *cfg);
        for workers in ["1", "2", "3", "8"] {
            std::env::set_var("HYPERTP_WORKERS", workers);
            let again = run(shape, *cfg);
            assert_eq!(
                baseline, again,
                "seed {seed:#x} shape {i}: diverged with HYPERTP_WORKERS={workers}"
            );
        }
        std::env::remove_var("HYPERTP_WORKERS");
    }
}

/// Family 4, chaos scenario 7 (6 configs): a worker panic during the warm
/// phase — at the initial snapshot or inside a refresh round — abandons
/// the warm cache, logs `fell_back_to_full_translate`, and the transplant
/// still lands every guest via the full pause-time path. Same seed, same
/// byte-identical fault log.
#[test]
fn chaos_worker_panic_in_warm_phase_falls_back_to_full_translate() {
    let seeds = [0xc4a0_0007u64, 0xc4a0_0008, 0xc4a0_0009];
    for seed in seeds {
        let mut rng = SimRng::new(seed);
        let shape = CaseShape::from_rng(&mut rng);
        let n = shape.n_vms as u64;
        // Call 1 hits the warm snapshot's task batch; call n+1 hits the
        // first refresh round's batch (each batch consults once per VM).
        for (label, doom_call) in [("snapshot", 1u64), ("round 1", n + 1)] {
            let run = || {
                let registry = default_registry();
                let (mut m, hv) = shape.build();
                let plan = FaultPlan::new(seed);
                plan.arm_calls(InjectionPoint::WorkerPanic, &[doom_call]);
                let engine = InPlaceTransplant::new(&registry)
                    .with_faults(plan.clone())
                    .with_optimizations(Optimizations {
                        incremental_translate: true,
                        ..Optimizations::default()
                    })
                    .with_incremental(IncrementalConfig {
                        dirty_rate_pages_per_sec: 1000.0,
                        ..IncrementalConfig::default()
                    });
                let (hv2, r) = engine
                    .run(&mut m, hv, HypervisorKind::Kvm)
                    .unwrap_or_else(|e| {
                        panic!("seed {seed:#x} ({label}): faulted transplant failed: {e}")
                    });
                (m, hv2, r, plan.log().render(), plan)
            };
            let (m, hv2, r, log, plan) = run();
            assert!(
                plan.log().recovered_via(
                    InjectionPoint::WorkerPanic,
                    RecoveryAction::FellBackToFullTranslate
                ),
                "seed {seed:#x} ({label}): fallback not logged\n{log}"
            );
            // The warm state was abandoned: the report shows a pure
            // full-translate blackout.
            assert_eq!(r.warm_translate, SimDuration::ZERO, "{label}");
            assert!(r.warm_rounds.is_empty(), "{label}");
            assert_eq!(r.delta_translate, SimDuration::ZERO, "{label}");
            assert_eq!(r.dirty_fraction, 1.0, "{label}");
            assert_eq!(r.vm_count as u32, shape.n_vms, "{label}");
            for i in 0..shape.n_vms {
                let id = hv2
                    .find_vm(&format!("vm{i}"))
                    .unwrap_or_else(|| panic!("seed {seed:#x} ({label}): vm{i} lost"));
                assert_eq!(hv2.vm_state(id).unwrap(), VmState::Running, "{label}");
            }
            // Snapshot-time fallback happens before any warm-round tick,
            // so every seeded guest word must survive verbatim.
            if doom_call == 1 {
                for i in 0..shape.n_vms {
                    let cfg = VmConfig::small(format!("vm{i}")).with_vcpus(shape.vcpus);
                    let id = hv2.find_vm(&format!("vm{i}")).unwrap();
                    let mut last = std::collections::HashMap::new();
                    for (k, (gfn, val)) in shape.writes.iter().enumerate() {
                        if k as u32 % shape.n_vms == i {
                            last.insert(Gfn(gfn % cfg.pages()), *val);
                        }
                    }
                    // guest_tick writes random pages; skip cases that
                    // ticked at build time.
                    if shape.ticks == 0 {
                        for (g, v) in last {
                            assert_eq!(
                                hv2.read_guest(&m, id, g).unwrap(),
                                v,
                                "seed {seed:#x} ({label}): vm{i} word lost"
                            );
                        }
                    }
                }
            }
            // Determinism: the same seed renders the same fault log.
            let (_, _, _, log2, _) = run();
            assert_eq!(log, log2, "seed {seed:#x} ({label}): fault log diverged");
        }
    }
}
