//! inplace_smoke: downtime wins of incremental pre-pause UISR translation.
//!
//! Reproduces a Fig. 6-style ablation of the InPlaceTP optimizations on a
//! max-density M1 fleet (§5.2.1's "M1 can host up to 12 VMs"), Xen → KVM:
//!
//! 1. **none**: `Optimizations::none()` — PRAM construction, translation
//!    and restoration all land inside the blackout, serialized on one
//!    core.
//! 2. **prepare**: PRAM construction hoisted before the pause (§4.2.5
//!    "preparation work without pausing the guest").
//! 3. **+parallel**: the full shipped optimization set
//!    (`Optimizations::default()` — preparation + per-VM worker
//!    parallelism + early restoration).
//! 4. **+incremental**: `incremental_translate` on top — dirty logging,
//!    a warm UISR snapshot with per-extent checksum partials, EWMA-driven
//!    refresh rounds, and a dirty-delta finalize at pause time.
//!
//! The incremental level runs over two workloads: **idle** guests (no
//! redirtying — the warm snapshot stays valid) and **hot-but-convergent**
//! guests (`HOT_RATE` pages/s — the warm loop must iterate until the
//! redirty EWMA converges before pausing). The gate invariant, a row of
//! `harness::GATES`: on the hot fleet, `+incremental` cuts the mean
//! downtime vs `+parallel` by at least its floor.
//!
//! ## Host profile
//!
//! The Fig. 6 calibration measures a *minimal idle* 1-GB VM on a stock
//! kernel, where the micro-reboot is ~70% of the blackout and translation
//! is a rounding error — an ablation of the translation term would be
//! invisible there. This bench instead models the regime the optimization
//! targets, as four documented deltas from `CostModel::paper_calibrated`
//! (see `ablation_cost`): state-dense guests whose `save → to_uisr →
//! encode` chain costs ~10× the idle calibration per GB, on a host with a
//! trimmed kexec-to-kexec kernel and lazy PRAM parse. Reboot/restore
//! physics otherwise stay paper-calibrated, and *both sides of every
//! comparison use the same profile* — the ablation measures the
//! optimization, the profile only sets the translation share under study.
//!
//! Three seeded fleet variants (different guest contents and vCPU mixes)
//! are run per level; the gate compares mean downtimes. The incremental
//! run is executed twice and compared field-by-field — simulated time is
//! deterministic, so CI can gate on exact equality. Writes
//! `BENCH_inplace.json` (override with `INPLACE_SMOKE_OUT`) through
//! `harness::finish`.

use hypertp_bench::registry;
use hypertp_core::{
    Hypervisor, HypervisorKind, HypervisorRegistry, InPlaceReport, InPlaceTransplant,
    IncrementalConfig, Optimizations, VmConfig,
};
use hypertp_machine::{Gfn, Machine, MachineSpec};
use hypertp_sim::cost::CostModel;
use hypertp_sim::json::{self, Json};
use hypertp_sim::SimDuration;

/// Fleet size: M1's max density at 1 GB per VM (§5.2.1).
const VMS: usize = 12;
/// Per-VM memory in GiB.
const MEM_GB: u64 = 1;
/// Hot-workload redirty rate in pages/second per guest. High enough that
/// the warm loop needs several refresh rounds, low enough to converge
/// under the default EWMA stop rule.
const HOT_RATE: f64 = 150_000.0;
/// Seeded fleet variants the means are taken over.
const VARIANTS: u64 = 3;
/// Guest words probed for the restored-state identity check.
const PROBES: u64 = 64;

/// The ablation host profile: paper-calibrated physics with four
/// documented deltas putting the run in the translation-bound regime the
/// incremental path targets (see the module docs).
fn ablation_cost() -> CostModel {
    CostModel {
        // State-dense guests: the idle Fig. 6 VM translates at
        // 0.02 GHz-s/GB; guests with hot device/vCPU state (vhost queues,
        // dirty EPT, loaded interrupt remapping) cost ~10× per GB.
        translate_ghz_s_per_gb: 0.25,
        // Trimmed kexec-to-kexec kernel (no firmware re-init, slimmed
        // initramfs, deferred device probe) instead of a stock boot.
        linux_boot_ghz_s: 0.4,
        // The kexec kernel inherits the validated memmap; no per-GB
        // e820 re-walk.
        boot_s_per_host_gb: 0.0005,
        // Lazy PRAM parse: walk the directory at boot, defer per-frame
        // reservation to first touch.
        pram_parse_s_per_gb: 0.002,
        ..CostModel::paper_calibrated()
    }
}

/// Builds one seeded fleet variant: 12 × 1 GiB VMs on M1 under Xen, with
/// variant-dependent guest contents and vCPU mix.
fn fleet(reg: &HypervisorRegistry, variant: u64) -> (Machine, Box<dyn Hypervisor>) {
    let mut m = Machine::new(MachineSpec::m1());
    let mut src = reg
        .create(HypervisorKind::Xen, &mut m)
        .expect("registry has Xen");
    for i in 0..VMS as u64 {
        let vcpus = 1 + ((i + variant) % 2) as u32;
        let cfg = VmConfig::small(format!("vm{i}"))
            .with_memory_gb(MEM_GB)
            .with_vcpus(vcpus);
        let pages = cfg.pages();
        let id = src.create_vm(&mut m, &cfg).expect("capacity");
        for k in 0..4096u64 {
            let gfn = Gfn((k * 97 + variant * 8191 + i * 131) % pages);
            src.write_guest(
                &mut m,
                id,
                gfn,
                k ^ (variant << 32) ^ (0x6a09_e667 * (i + 1)),
            )
            .expect("seed write");
        }
    }
    (m, src)
}

/// Probe GFNs shared by the seeding loop and the identity check.
fn probe_gfns(variant: u64, vm: u64, pages: u64) -> Vec<Gfn> {
    (0..PROBES)
        .map(|k| Gfn((k * 97 + variant * 8191 + vm * 131) % pages))
        .collect()
}

/// Transplants one fleet variant in place under the given optimizations,
/// returning the restored machine + hypervisor for state inspection.
fn run_keep(
    reg: &HypervisorRegistry,
    variant: u64,
    opts: Optimizations,
    inc: IncrementalConfig,
) -> (Machine, Box<dyn Hypervisor>, InPlaceReport) {
    let (mut m, src) = fleet(reg, variant);
    let engine = InPlaceTransplant::new(reg)
        .with_cost(ablation_cost())
        .with_optimizations(opts)
        .with_incremental(inc);
    let (hv, report) = engine
        .run(&mut m, src, HypervisorKind::Kvm)
        .expect("in-place transplant");
    (m, hv, report)
}

fn run(
    reg: &HypervisorRegistry,
    variant: u64,
    opts: Optimizations,
    inc: IncrementalConfig,
) -> InPlaceReport {
    run_keep(reg, variant, opts, inc).2
}

fn hot_cfg() -> IncrementalConfig {
    IncrementalConfig {
        dirty_rate_pages_per_sec: HOT_RATE,
        ..IncrementalConfig::default()
    }
}

fn incremental_opts() -> Optimizations {
    Optimizations {
        incremental_translate: true,
        ..Optimizations::default()
    }
}

fn ms(d: SimDuration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn mean_downtime_ms(reports: &[InPlaceReport]) -> f64 {
    reports.iter().map(|r| ms(r.downtime())).sum::<f64>() / reports.len() as f64
}

fn report_json(r: &InPlaceReport) -> Json {
    Json::obj()
        .with("downtime_ms", json::f(ms(r.downtime())))
        .with("total_ms", json::f(ms(r.total())))
        .with("device_prepare_ms", json::f(ms(r.device_prepare)))
        .with("pram_ms", json::f(ms(r.pram)))
        .with("warm_translate_ms", json::f(ms(r.warm_translate)))
        .with("translation_ms", json::f(ms(r.translation)))
        .with("delta_translate_ms", json::f(ms(r.delta_translate)))
        .with("reboot_ms", json::f(ms(r.reboot)))
        .with("restoration_ms", json::f(ms(r.restoration)))
        .with("dirty_fraction", json::f(r.dirty_fraction))
        .with("patched_sections", json::u(r.patched_sections))
        .with("pram_entries", json::u(r.pram_stats.entries))
        .with("uisr_bytes", json::u(r.uisr_bytes))
}

/// The warm-round trajectory the EWMA stop rule steered by.
fn warm_rounds_json(r: &InPlaceReport) -> Json {
    json::arr(r.warm_rounds.iter().map(|w| {
        Json::obj()
            .with("tick_pages", json::u(w.tick_pages))
            .with("dirty_pages", json::u(w.dirty_pages))
            .with("dirty_fraction", json::f(w.dirty_fraction))
            .with("redirty_ewma", json::f(w.redirty_ewma))
            .with("duration_ms", json::f(ms(w.duration)))
    }))
}

fn level_json(name: &str, reports: &[InPlaceReport]) -> Json {
    Json::obj()
        .with("level", json::s(name))
        .with("mean_downtime_ms", json::f(mean_downtime_ms(reports)))
        .with("variants", json::arr(reports.iter().map(report_json)))
}

fn main() {
    let reg = registry();
    println!(
        "inplace_smoke: {VMS} x {MEM_GB} GiB on M1, Xen -> KVM in place, \
         {VARIANTS} fleet variants, hot rate {HOT_RATE} pages/s"
    );

    // The cumulative §4.2.5 ablation ladder.
    let lvl_none = Optimizations::none();
    let lvl_prepare = Optimizations {
        prepare_before_pause: true,
        ..Optimizations::none()
    };
    let lvl_parallel = Optimizations::default();

    let idle = IncrementalConfig::default();
    let per_level = |opts: Optimizations, inc: IncrementalConfig| -> Vec<InPlaceReport> {
        (0..VARIANTS).map(|v| run(&reg, v, opts, inc)).collect()
    };

    // Levels 1–3 never consult the dirty rate (the engine only ticks
    // guests inside the warm loop), so one run serves both workloads.
    let none = per_level(lvl_none, idle);
    let prepare = per_level(lvl_prepare, idle);
    let parallel = per_level(lvl_parallel, idle);
    let inc_idle = per_level(incremental_opts(), idle);
    let inc_hot = per_level(incremental_opts(), hot_cfg());

    for (name, reports) in [
        ("none", &none),
        ("prepare", &prepare),
        ("+parallel", &parallel),
        ("+incremental idle", &inc_idle),
        ("+incremental hot", &inc_hot),
    ] {
        println!(
            "== {name:<18} == mean downtime {:8.2} ms  (translation {:7.2} ms, reboot {:7.2} ms)",
            mean_downtime_ms(reports),
            ms(reports[0].translation),
            ms(reports[0].reboot),
        );
    }

    // Gated: the hot- and idle-fleet downtime cuts of +incremental vs
    // +parallel.
    let hot_cut_pct = (1.0 - mean_downtime_ms(&inc_hot) / mean_downtime_ms(&parallel)) * 100.0;
    let idle_cut_pct = (1.0 - mean_downtime_ms(&inc_idle) / mean_downtime_ms(&parallel)) * 100.0;
    println!("  hot mean downtime cut:  {hot_cut_pct:.1}%");
    println!("  idle mean downtime cut: {idle_cut_pct:.1}%");
    // The ladder must be monotone.
    for window in [&none, &prepare, &parallel, &inc_hot].windows(2) {
        assert!(
            mean_downtime_ms(window[1]) < mean_downtime_ms(window[0]),
            "each ablation level must shrink the blackout"
        );
    }
    // The warm loop must actually have iterated on the hot fleet and
    // paused with a converged dirty set.
    for r in &inc_hot {
        assert!(
            r.warm_rounds.len() >= 3,
            "hot fleet must need refresh rounds, got {}",
            r.warm_rounds.len()
        );
        assert!(
            r.dirty_fraction < 0.02,
            "warm loop must converge before pausing (dirty {:.4})",
            r.dirty_fraction
        );
    }

    // Determinism: simulated time and the fault-free warm loop are exact.
    let rerun = run(&reg, 0, incremental_opts(), hot_cfg());
    let deterministic = rerun == inc_hot[0];
    println!("  deterministic rerun identical: {deterministic}");

    // Identity check (incremental off): an engine carrying a hot
    // IncrementalConfig but with the toggle off must be byte-identical to
    // the default engine.
    let off_identical = run(&reg, 0, lvl_parallel, hot_cfg()) == parallel[0];
    println!("  incremental-off identical:     {off_identical}");

    // Restored-state check (incremental on, idle guests so no workload
    // runs between the two transplants): guest words, PRAM stats and UISR
    // bytes must match the full-translate path exactly.
    let (m_full, hv_full, r_full) = run_keep(&reg, 0, lvl_parallel, idle);
    let (m_inc, hv_inc, r_inc) = run_keep(&reg, 0, incremental_opts(), idle);
    let mut state_identical = r_full.pram_stats == r_inc.pram_stats
        && r_full.uisr_bytes == r_inc.uisr_bytes
        && r_full.vm_count == r_inc.vm_count;
    for i in 0..VMS as u64 {
        let name = format!("vm{i}");
        let pages = MEM_GB * (1 << 30) / 4096;
        let (id_f, id_i) = match (hv_full.find_vm(&name), hv_inc.find_vm(&name)) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                state_identical = false;
                break;
            }
        };
        for gfn in probe_gfns(0, i, pages) {
            let wf = hv_full.read_guest(&m_full, id_f, gfn).expect("probe");
            let wi = hv_inc.read_guest(&m_inc, id_i, gfn).expect("probe");
            if wf != wi {
                state_identical = false;
            }
        }
    }
    println!("  incremental restored state:    identical = {state_identical}");

    let profile = ablation_cost();
    let out = Json::obj()
        .with("bench", json::s("inplace_smoke"))
        .with("vms", json::u(VMS as u64))
        .with("mem_gb_per_vm", json::u(MEM_GB))
        .with("fleet_variants", json::u(VARIANTS))
        .with("hot_rate_pages_per_sec", json::f(HOT_RATE))
        .with(
            "cost_profile",
            Json::obj()
                .with("base", json::s("paper_calibrated"))
                .with(
                    "translate_ghz_s_per_gb",
                    json::f(profile.translate_ghz_s_per_gb),
                )
                .with("linux_boot_ghz_s", json::f(profile.linux_boot_ghz_s))
                .with("boot_s_per_host_gb", json::f(profile.boot_s_per_host_gb))
                .with("pram_parse_s_per_gb", json::f(profile.pram_parse_s_per_gb)),
        )
        .with(
            "ablation",
            json::arr([
                level_json("none", &none),
                level_json("prepare", &prepare),
                level_json("+parallel", &parallel),
                level_json("+incremental_idle", &inc_idle),
                level_json("+incremental_hot", &inc_hot),
            ]),
        )
        .with(
            "incremental_vs_parallel",
            Json::obj()
                .with("hot_mean_downtime_cut_pct", json::f(hot_cut_pct))
                .with("idle_mean_downtime_cut_pct", json::f(idle_cut_pct))
                .with(
                    "hot_mean_delta_translate_ms",
                    json::f(
                        inc_hot.iter().map(|r| ms(r.delta_translate)).sum::<f64>()
                            / inc_hot.len() as f64,
                    ),
                )
                .with(
                    "parallel_mean_translation_ms",
                    json::f(
                        parallel.iter().map(|r| ms(r.translation)).sum::<f64>()
                            / parallel.len() as f64,
                    ),
                ),
        )
        .with("warm_rounds_hot_v0", warm_rounds_json(&inc_hot[0]))
        .with("warm_rounds_idle_v0", warm_rounds_json(&inc_idle[0]))
        .with(
            "deterministic_identical",
            json::s(deterministic.to_string()),
        )
        .with(
            "incremental_off_identical",
            json::s(off_identical.to_string()),
        )
        .with(
            "incremental_state_identical",
            json::s(state_identical.to_string()),
        );
    hypertp_bench::harness::finish(out);
}
