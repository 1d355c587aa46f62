//! slo_smoke: SLO-violation wins of traffic-coupled fleet scheduling.
//!
//! Two layers, one artifact:
//!
//! 1. **Diurnal fleet (cluster executor)**: a 150-VM synthetic fleet
//!    (15 hosts, 0% InPlaceTP-compatible, so every VM migrates) drains
//!    over a deliberately slow maintenance fabric — group drains span
//!    hours of the simulated 24 h day, so *when* a VM migrates decides
//!    whether its traffic peak collides with the bandwidth steal. Both
//!    runs arm the same SLO physics ([`ExecConfig::slo`]: seeded diurnal
//!    curves per serving VM, contention-stretched estimates, violation
//!    accounting); only the admission order differs:
//!    - **blind**: [`FleetOrder::ShortestPredictedFirst`] — the PR-4
//!      scheduler, optimizing hardware-side time, blind to traffic;
//!    - **aware**: [`FleetOrder::SloAware`] — re-prices the queue at
//!      every free slot and admits the least predicted SLO harm.
//!
//!    The gate invariants (rows of `harness::GATES`): the aware run cuts
//!    total violation-seconds by at least a floor at a capped makespan
//!    ratio, and no aware VM burns its full error budget.
//! 2. **Engine micro-fleet**: six 1 GiB VMs with staggered traffic peaks
//!    over a compressed 10-minute "day" migrate Xen → KVM through the
//!    real page-level engine, serialized. This exercises the
//!    [`LinkContention`] feedback into the pre-copy controller (peak
//!    traffic roughly halves the effective link) and the zero-traffic
//!    passthrough: an SLO attachment whose curve carries zero
//!    bytes-per-query must leave every report field byte-identical to
//!    the un-attached run.
//!
//! Writes `BENCH_slo.json` (current directory, override with
//! `SLO_SMOKE_OUT`) through `harness::finish`, which fails the run if a
//! gate row or an identity field does not hold.

use hypertp_bench::registry;
use hypertp_cluster::{execute_sharded_with, plan_upgrade, Cluster, ExecConfig, SloExecConfig};
use hypertp_core::{HypervisorKind, VmConfig};
use hypertp_machine::{Gfn, Machine, MachineSpec};
use hypertp_migrate::{
    migrate_fleet, FleetOrder, FleetPolicy, FleetReport, FleetVm, Link, MigrationConfig,
    MigrationTp, SloVm, TrafficCurve, WireMode,
};
use hypertp_sim::fault::FaultPlan;
use hypertp_sim::json::{self, Json};
use hypertp_sim::pool::WorkerPool;
use hypertp_sim::{SimClock, SimDuration};

/// Synthetic fleet shape: 15 hosts × 10 VMs, groups of 5 hosts — three
/// ~50-migration groups whose drains each span hours of the day.
const HOSTS: usize = 15;
const GROUP_HOSTS: usize = 5;
const SEED: u64 = 0x510_57a6;
/// The maintenance fabric share granted to the campaign: slow enough
/// that a 4 GiB migration takes minutes and a group drain takes hours —
/// the regime where low-QPS-window placement matters.
const FABRIC: Link = Link {
    gbps: 0.2,
    efficiency: 0.9,
    latency: SimDuration::from_millis(1),
};
/// Error budget the fleet signs up for on maintenance day: one hour of
/// violation per VM. (The everyday 216 s budget is unreachable on a
/// 0.2 Gbps fabric — the hottest VM's drain alone exceeds it under any
/// order — so the bench declares the budget an operator actually would,
/// and the gate holds the aware schedule under it with ~2× headroom.)
const BENCH_BUDGET: SimDuration = SimDuration::from_secs(3_600);

/// Engine micro-fleet: VM count and the compressed day its staggered
/// traffic peaks cycle over.
const ENGINE_VMS: usize = 6;
const ENGINE_DAY: SimDuration = SimDuration::from_secs(600);

fn exec_run(order: FleetOrder) -> hypertp_cluster::ExecReport {
    let view = Cluster::synthetic(HOSTS, SEED).with_compat_percent(0);
    let plan = plan_upgrade(&view, GROUP_HOSTS).expect("synthetic fleet plans");
    let cfg = ExecConfig {
        link: FABRIC,
        fleet_order: order,
        slo: Some(SloExecConfig {
            error_budget: BENCH_BUDGET,
            ..SloExecConfig::default()
        }),
        ..ExecConfig::default()
    };
    execute_sharded_with(
        &view,
        &plan,
        &cfg,
        &FaultPlan::disarmed(),
        1,
        &WorkerPool::serial(),
    )
}

/// The same run over explicit shard/worker counts — byte-identity probe.
fn exec_run_sharded(
    order: FleetOrder,
    shards: usize,
    workers: usize,
) -> hypertp_cluster::ExecReport {
    let view = Cluster::synthetic(HOSTS, SEED).with_compat_percent(0);
    let plan = plan_upgrade(&view, GROUP_HOSTS).expect("synthetic fleet plans");
    let cfg = ExecConfig {
        link: FABRIC,
        fleet_order: order,
        slo: Some(SloExecConfig {
            error_budget: BENCH_BUDGET,
            ..SloExecConfig::default()
        }),
        ..ExecConfig::default()
    };
    execute_sharded_with(
        &view,
        &plan,
        &cfg,
        &FaultPlan::disarmed(),
        shards,
        &WorkerPool::new(workers),
    )
}

fn exec_json(r: &hypertp_cluster::ExecReport) -> Json {
    Json::obj()
        .with("migrations", json::u(r.migrations as u64))
        .with("slo_vms", json::u(r.slo_vms as u64))
        .with("violation_s", json::f(r.slo_violation.as_secs_f64()))
        .with("max_budget_burn", json::f(r.slo_max_budget_burn))
        .with("makespan_s", json::f(r.total.as_secs_f64()))
        .with("migration_s", json::f(r.migration_time.as_secs_f64()))
}

/// Staggered diurnal curve of engine VM `i`: peaks sweep the compressed
/// day, so the serialized drain always has someone peaking and someone
/// quiet.
fn engine_curve(i: usize) -> TrafficCurve {
    TrafficCurve {
        peak_qps: 4_500.0,
        trough_fraction: 0.05,
        peak_offset: SimDuration::from_secs(i as u64 * 100),
        period: ENGINE_DAY,
        sharpness: 2,
        bytes_per_query: 20_000.0,
    }
}

fn engine_slo(i: usize) -> SloVm {
    SloVm {
        traffic: engine_curve(i),
        degraded_capacity: 0.65,
        error_budget: SimDuration::from_secs(60),
    }
}

type FleetSetup = (
    Machine,
    Machine,
    Box<dyn hypertp_core::Hypervisor>,
    Box<dyn hypertp_core::Hypervisor>,
    Vec<FleetVm>,
);

/// Builds the engine micro-fleet; `attach` controls the SLO attachment
/// (`None` = plain fleet, `Some(f)` = per-VM curve from `f`).
fn engine_setup(attach: Option<&dyn Fn(usize) -> SloVm>) -> FleetSetup {
    let reg = registry();
    let clock = SimClock::new();
    let mut src_m = Machine::with_clock(MachineSpec::m1(), clock.clone());
    let mut dst_m = Machine::with_clock(MachineSpec::m1(), clock);
    let mut src = reg
        .create(HypervisorKind::Xen, &mut src_m)
        .expect("registry has Xen");
    let mut vms = Vec::new();
    for i in 0..ENGINE_VMS {
        let cfg = VmConfig::small(format!("vm{i}")).with_memory_gb(1);
        let pages = cfg.pages();
        let id = src.create_vm(&mut src_m, &cfg).expect("capacity");
        for k in 0..2048u64 {
            src.write_guest(&mut src_m, id, Gfn((k * 13 + i as u64 * 7919) % pages), {
                k ^ (0x9e37_79b9 << i)
            })
            .expect("seed write");
        }
        let mut vm = FleetVm::with_dirty_rate(id, 2_000.0);
        if let Some(f) = attach {
            vm = vm.with_slo(f(i));
        }
        vms.push(vm);
    }
    let dst = reg
        .create(HypervisorKind::Kvm, &mut dst_m)
        .expect("registry has KVM");
    (src_m, dst_m, src, dst, vms)
}

fn engine_run(attach: Option<&dyn Fn(usize) -> SloVm>, order: FleetOrder) -> FleetReport {
    let (mut src_m, mut dst_m, mut src, mut dst, vms) = engine_setup(attach);
    let tp = MigrationTp::new()
        .with_config(MigrationConfig {
            verify_contents: true,
            wire_mode: WireMode::ContentAware,
            ..MigrationConfig::default()
        })
        .with_pool(WorkerPool::from_env());
    migrate_fleet(
        &tp,
        &mut src_m,
        src.as_mut(),
        &vms,
        &mut dst_m,
        dst.as_mut(),
        FleetPolicy {
            order,
            max_concurrent: 1,
            compression_hint: 1.0,
        },
    )
    .expect("fleet migration")
}

/// Field-by-field report identity (the adaptive_smoke comparator).
fn identical(a: &FleetReport, b: &FleetReport) -> bool {
    a.admission == b.admission
        && a.makespan == b.makespan
        && a.reports.len() == b.reports.len()
        && a.reports.iter().zip(&b.reports).all(|(x, y)| {
            x.vm_name == y.vm_name
                && x.rounds == y.rounds
                && x.downtime == y.downtime
                && x.total == y.total
                && x.bytes_sent == y.bytes_sent
                && x.uisr_bytes == y.uisr_bytes
        })
}

fn engine_json(r: &FleetReport) -> Json {
    Json::obj()
        .with(
            "admission",
            json::arr(r.admission.iter().map(|&i| json::u(i as u64))),
        )
        .with("makespan_s", json::f(r.makespan.as_secs_f64()))
        .with("violation_s", json::f(r.total_violation().as_secs_f64()))
        .with("max_budget_burn", json::f(r.max_budget_burn()))
        .with("slo_vms", json::u(r.slo_vm_count() as u64))
        .with("total_bytes", json::u(r.total_bytes()))
}

fn main() {
    println!(
        "slo_smoke: {HOSTS}-host synthetic fleet ({} VMs) on a {:.2} Gbps maintenance fabric",
        HOSTS * 10,
        FABRIC.gbps
    );

    // 1. Diurnal fleet: blind SPDF vs SLO-aware, identical physics.
    let blind = exec_run(FleetOrder::ShortestPredictedFirst);
    let aware = exec_run(FleetOrder::SloAware);
    assert_eq!(blind.migrations, aware.migrations);
    assert!(blind.migrations >= 100, "fleet must exceed 100 migrations");
    assert!(blind.slo_vms > 0, "serving VMs must carry SLOs");
    assert!(
        blind.slo_violation > SimDuration::ZERO,
        "blind admission must actually violate — otherwise the cut is vacuous"
    );
    let cut_pct =
        (1.0 - aware.slo_violation.as_secs_f64() / blind.slo_violation.as_secs_f64()) * 100.0;
    let makespan_ratio = aware.total.as_secs_f64() / blind.total.as_secs_f64();
    println!(
        "== blind spdf == violation {:.0} s over {} serving VMs, max burn {:.2}, makespan {:.1} h",
        blind.slo_violation.as_secs_f64(),
        blind.slo_vms,
        blind.slo_max_budget_burn,
        blind.total.as_secs_f64() / 3600.0
    );
    println!(
        "== slo aware  == violation {:.0} s, max burn {:.2}, makespan {:.1} h",
        aware.slo_violation.as_secs_f64(),
        aware.slo_max_budget_burn,
        aware.total.as_secs_f64() / 3600.0
    );
    println!("  violation cut {cut_pct:.1}%, makespan ratio {makespan_ratio:.4}");

    // Identity probes: deterministic rerun and shard×worker invariance.
    let deterministic = exec_run(FleetOrder::SloAware).render() == aware.render();
    let sharded = [(1usize, 4usize), (3, 1), (8, 4)]
        .iter()
        .all(|&(s, w)| exec_run_sharded(FleetOrder::SloAware, s, w).render() == aware.render());
    println!(
        "  deterministic rerun identical: {deterministic}; shard x worker identical: {sharded}"
    );

    // 2. Engine micro-fleet: contention feedback + zero-traffic identity.
    let plain = engine_run(None, FleetOrder::Fifo);
    let zero_curves = |i: usize| SloVm {
        traffic: TrafficCurve {
            bytes_per_query: 0.0,
            ..engine_curve(i)
        },
        ..engine_slo(i)
    };
    let zero = engine_run(Some(&zero_curves), FleetOrder::Fifo);
    let zero_identical = identical(&plain, &zero);
    println!("== engine == zero-traffic SLO attachment byte-identical: {zero_identical}");

    let e_blind = engine_run(Some(&engine_slo), FleetOrder::Fifo);
    let e_aware = engine_run(Some(&engine_slo), FleetOrder::SloAware);
    let e_aware2 = engine_run(Some(&engine_slo), FleetOrder::SloAware);
    let e_deterministic = identical(&e_aware, &e_aware2);
    let e_blind_v = e_blind.total_violation().as_secs_f64();
    let e_aware_v = e_aware.total_violation().as_secs_f64();
    let e_cut_pct = if e_blind_v > 0.0 {
        (1.0 - e_aware_v / e_blind_v) * 100.0
    } else {
        0.0
    };
    println!(
        "== engine == fifo violation {e_blind_v:.1} s (admission {:?}); slo-aware {e_aware_v:.1} s \
         (admission {:?}); cut {e_cut_pct:.1}%; deterministic: {e_deterministic}",
        e_blind.admission, e_aware.admission
    );
    // The micro-fleet drains in a couple of minutes against a 600 s day,
    // so FIFO is already near-optimal; greedy admission schedules on
    // *predicted* harm and may differ from realized harm by microseconds.
    assert!(
        e_aware_v <= e_blind_v * 1.01 + 0.1,
        "engine SLO-aware order must not lose beyond scheduling noise: {e_aware_v} > {e_blind_v}"
    );
    assert!(
        e_blind.makespan > SimDuration::ZERO && e_aware.makespan > SimDuration::ZERO,
        "engine fleets must migrate"
    );

    let out = Json::obj()
        .with("bench", json::s("slo_smoke"))
        .with(
            "fleet",
            Json::obj()
                .with("hosts", json::u(HOSTS as u64))
                .with("vms", json::u((HOSTS * 10) as u64))
                .with("group_hosts", json::u(GROUP_HOSTS as u64))
                .with("fabric_gbps", json::f(FABRIC.gbps))
                .with("seed", json::u(SEED)),
        )
        .with("blind_spdf", exec_json(&blind))
        .with("slo_aware", exec_json(&aware))
        .with(
            "slo_vs_blind",
            Json::obj()
                .with("violation_cut_pct", json::f(cut_pct))
                .with("makespan_ratio", json::f(makespan_ratio)),
        )
        .with(
            "budget",
            Json::obj()
                .with("error_budget_s", json::f(BENCH_BUDGET.as_secs_f64()))
                .with("aware_max_burn", json::f(aware.slo_max_budget_burn))
                .with("blind_max_burn", json::f(blind.slo_max_budget_burn)),
        )
        .with(
            "engine",
            Json::obj()
                .with("vms", json::u(ENGINE_VMS as u64))
                .with("day_s", json::f(ENGINE_DAY.as_secs_f64()))
                .with("fifo", engine_json(&e_blind))
                .with("slo_aware", engine_json(&e_aware))
                .with("violation_cut_pct", json::f(e_cut_pct))
                .with(
                    "zero_traffic_identical",
                    json::s(zero_identical.to_string()),
                )
                .with(
                    "deterministic_identical",
                    json::s(e_deterministic.to_string()),
                ),
        )
        .with(
            "deterministic_identical",
            json::s(deterministic.to_string()),
        )
        .with("sharded_identical", json::s(sharded.to_string()));
    hypertp_bench::harness::finish(out);
}
