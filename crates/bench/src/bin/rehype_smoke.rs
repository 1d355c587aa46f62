//! rehype_smoke: recovery latency of crash-triggered unplanned transplant
//! from always-on warm UISR checkpoints.
//!
//! Models the ReHype-style scenario on an M1 host carrying 3 × 4 GiB VMs
//! under Xen with a KVM rescue image staged: the hypervisor is killed at
//! every warm-checkpoint phase — mid-warm-round, mid-refresh,
//! mid-finalize, and idle between ticks — and the unplanned path must
//! detect the crash, micro-reboot into KVM via the pre-staged kexec+PRAM
//! image, and restore every VM from the freshest persisted checkpoint.
//!
//! Two things are measured per phase:
//!
//! 1. **Recovery latency** (detection + rescue reboot + restore/resume):
//!    warm checkpoints keep UISR translation entirely out of this
//!    critical path.
//! 2. **Cold ablation**: the same crash without always-on checkpoints
//!    must salvage-translate every VM's state *and* build the PRAM
//!    directory before the micro-reboot can be taken
//!    ([`RecoveryReport::cold_latency`]).
//!
//! The gate invariant, two rows of `harness::GATES`: warm recovery beats
//! the cold ablation by at least a floor at *every* crash phase, and the
//! checkpoint lag at the last completed tick stays strictly below the
//! staleness bound (the provable half of the state-loss bound).
//! Determinism is exported as an `identical`-suffixed field CI gates on
//! exact equality.
//!
//! Writes `BENCH_rehype.json` (override with `REHYPE_SMOKE_OUT`) through
//! `harness::finish`.

use hypertp_bench::registry;
use hypertp_core::{
    crash_gate, CheckpointConfig, Hypervisor, HypervisorKind, HypervisorRegistry, RecoveryReport,
    UnplannedRecovery, VmConfig, WarmCheckpointer,
};
use hypertp_machine::{Gfn, Machine, MachineSpec};
use hypertp_sim::cost::CostModel;
use hypertp_sim::fault::{FaultPlan, InjectionPoint};
use hypertp_sim::json::{self, Json};
use hypertp_sim::pool::WorkerPool;
use hypertp_sim::SimDuration;

/// Fleet size: three state-dense guests on one M1 host.
const VMS: u64 = 3;
/// Per-VM memory in GiB (12 GiB of guest RAM on the 16 GiB host).
const MEM_GB: u64 = 4;
/// Background checkpoint intervals before the crash window.
const TICKS: u64 = 2;
/// Workload redirty pages per VM per interval. High enough that the EWMA
/// pacer refreshes every VM every tick (`WORKLOAD * 2 > BOUND`).
const WORKLOAD: u64 = 1536;
/// Per-VM staleness bound in pages: the checkpointer must re-persist
/// before un-persisted staleness can reach this.
const BOUND: u64 = 2048;
/// Fault-plan seed (the crash schedule is ordinal-forced; the seed only
/// feeds the log's replay identity).
const SEED: u64 = 0x4e47_2021;

/// Builds the host: M1 under Xen with 3 × 4 GiB seeded guests.
fn host(reg: &HypervisorRegistry) -> (Machine, Box<dyn Hypervisor>) {
    let mut m = Machine::new(MachineSpec::m1());
    let mut src = reg
        .create(HypervisorKind::Xen, &mut m)
        .expect("registry has Xen");
    for i in 0..VMS {
        let cfg = VmConfig::small(format!("vm{i}"))
            .with_memory_gb(MEM_GB)
            .with_vcpus(1 + (i % 2) as u32);
        let pages = cfg.pages();
        let id = src.create_vm(&mut m, &cfg).expect("capacity");
        for k in 0..2048u64 {
            let gfn = Gfn((k * 131 + i * 8191) % pages);
            src.write_guest(&mut m, id, gfn, k ^ (0x9e37_79b9 * (i + 1)))
                .expect("seed write");
        }
    }
    (m, src)
}

/// One crash run: checkpoint for up to `TICKS` intervals with the crash
/// gate armed at `ordinal`, then recover. The checkpointer consults the
/// gate three times per tick (warm-round, refresh, finalize), so after
/// one clean tick ordinals 4..=6 land in the phases of tick 2; ordinal 7
/// is consulted by the idle watchdog after both ticks complete.
fn run_crash(reg: &HypervisorRegistry, ordinal: u64) -> (String, RecoveryReport) {
    let faults = FaultPlan::new(SEED);
    faults.arm_calls(InjectionPoint::HypervisorCrash, &[ordinal]);
    let (mut m, mut src) = host(reg);
    let mut ckpt = WarmCheckpointer::start_with(
        &mut m,
        src.as_mut(),
        HypervisorKind::Kvm,
        CheckpointConfig {
            staleness_bound_pages: BOUND,
            ..CheckpointConfig::default()
        },
        CostModel::paper_calibrated(),
        faults.clone(),
        WorkerPool::from_env(),
    )
    .expect("checkpointer start");
    let mut phase = None;
    for _ in 0..TICKS {
        let tr = ckpt
            .tick(&mut m, src.as_mut(), WORKLOAD)
            .expect("checkpoint tick");
        if let Some(p) = tr.crashed {
            phase = Some(p.name());
            break;
        }
    }
    let phase = phase.unwrap_or_else(|| {
        assert!(
            crash_gate(&faults, "idle watchdog"),
            "armed ordinal {ordinal} never fired"
        );
        "idle"
    });
    let recovery = UnplannedRecovery::new(reg).with_faults(faults);
    let (hv, report) = recovery.recover(&mut m, src, ckpt).expect("recovery");
    assert_eq!(hv.kind(), HypervisorKind::Kvm);
    assert_eq!(report.vm_count, VMS as usize, "VM lost at {phase}");
    (phase.to_string(), report)
}

fn ms(d: SimDuration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn phase_json(phase: &str, r: &RecoveryReport) -> Json {
    Json::obj()
        .with("phase", json::s(phase))
        .with("recovery_ms", json::f(ms(r.recovery_latency)))
        .with("cold_ms", json::f(ms(r.cold_latency)))
        .with("cut_pct", json::f(r.warm_speedup_pct()))
        .with("detection_ms", json::f(ms(r.detection)))
        .with("reboot_ms", json::f(ms(r.reboot)))
        .with("restoration_ms", json::f(ms(r.restoration)))
        .with("network_ms", json::f(ms(r.network)))
        .with("checkpoint_ticks", json::u(r.checkpoint_ticks))
        .with("checkpoint_refreshes", json::u(r.checkpoint_refreshes))
        .with("background_ms", json::f(ms(r.background_time)))
        .with("total_loss_pages", json::u(r.total_loss_pages()))
        .with(
            "losses",
            json::arr(r.losses.iter().map(|l| {
                Json::obj()
                    .with("vm", json::s(&l.name))
                    .with("loss_pages", json::u(l.loss_pages))
                    .with("checkpoint_lag_pages", json::u(l.checkpoint_lag_pages))
                    .with("tail_pages", json::u(l.tail_pages))
            })),
        )
}

fn main() {
    let reg = registry();
    println!(
        "rehype_smoke: {VMS} x {MEM_GB} GiB on M1, Xen crash -> KVM rescue, \
         bound {BOUND} pages, {WORKLOAD} pages/tick"
    );

    // The crash matrix: every checkpointer phase plus the idle window.
    let phases: Vec<(String, RecoveryReport)> = [4u64, 5, 6, 7]
        .into_iter()
        .map(|ordinal| run_crash(&reg, ordinal))
        .collect();

    for (phase, r) in &phases {
        println!(
            "== crash at {phase:<10} == recovery {:8.2} ms (detect {:6.2} + reboot {:7.2} + \
             restore {:6.2}), cold {:8.2} ms, cut {:5.1}%, loss {} pages",
            ms(r.recovery_latency),
            ms(r.detection),
            ms(r.reboot),
            ms(r.restoration),
            ms(r.cold_latency),
            r.warm_speedup_pct(),
            r.total_loss_pages(),
        );
    }

    // Gated: warm must beat cold at every phase.
    let min_cut = phases
        .iter()
        .map(|(_, r)| r.warm_speedup_pct())
        .fold(f64::INFINITY, f64::min);
    let mean_cut = phases
        .iter()
        .map(|(_, r)| r.warm_speedup_pct())
        .sum::<f64>()
        / phases.len() as f64;
    println!("  warm-vs-cold cut: mean {mean_cut:.1}%, min {min_cut:.1}%");

    // The provable state-loss bound: checkpoint lag at the last completed
    // tick stays strictly below the staleness bound at every phase.
    let max_lag = phases
        .iter()
        .flat_map(|(_, r)| r.losses.iter().map(|l| l.checkpoint_lag_pages))
        .max()
        .unwrap_or(0);
    println!("  max checkpoint lag: {max_lag} pages (bound {BOUND})");

    // Determinism: simulated time and the forced crash schedule are
    // exact, so a rerun must reproduce the report byte-for-byte.
    let (_, rerun) = run_crash(&reg, 4);
    let deterministic = rerun.render() == phases[0].1.render();
    println!("  deterministic rerun identical: {deterministic}");

    let out = Json::obj()
        .with("bench", json::s("rehype_smoke"))
        .with("vms", json::u(VMS))
        .with("mem_gb_per_vm", json::u(MEM_GB))
        .with("source", json::s("xen"))
        .with("rescue", json::s("kvm"))
        .with("ticks", json::u(TICKS))
        .with("workload_pages_per_tick", json::u(WORKLOAD))
        .with(
            "phases",
            json::arr(phases.iter().map(|(p, r)| phase_json(p, r))),
        )
        .with(
            "warm_vs_cold",
            Json::obj()
                .with("mean_cut_pct", json::f(mean_cut))
                .with("min_cut_pct", json::f(min_cut)),
        )
        .with(
            "loss",
            Json::obj()
                .with("bound_pages", json::u(BOUND))
                .with("max_lag_pages", json::u(max_lag)),
        )
        .with(
            "deterministic_identical",
            json::s(deterministic.to_string()),
        );
    hypertp_bench::harness::finish(out);
}
