//! adaptive_smoke: downtime wins of the adaptive pre-copy control plane.
//!
//! Reproduces a fig-12-style heterogeneous fleet (two mostly-idle guests,
//! two hot guests whose steady-state dirty set never converges under the
//! static 64-page threshold) and migrates it Xen → KVM over the
//! content-aware wire four ways:
//!
//! 1. **Static**: the pre-controller knobs (`stop_threshold_pages: 64`,
//!    30-round cap, no throttling). The hot guests burn every round and
//!    pause with their full steady-state dirty set.
//! 2. **Adaptive**: auto-converge enabled. The non-convergence detector
//!    throttles the hot guests until the dirty set fits under the
//!    threshold — the stop set, and with it the downtime, collapses.
//!    The gate invariant: mean downtime drops by at least the floor in
//!    `harness::GATES` at equal-or-lower makespan and equal-or-fewer
//!    wire bytes.
//! 3. **Budgeted**: `downtime_budget` set; every VM (hot or idle) must
//!    land at or under the budget.
//! 4. **Scheduled**: the same fleet under bounded concurrency, FIFO vs
//!    shortest-predicted-first admission. SPDF clears the idle guests
//!    first, cutting the mean VM-ready time (and, with the hot guests
//!    arriving first in input order, the makespan too).
//!
//! The adaptive run is executed twice and compared field-by-field —
//! simulated time is deterministic, so CI can gate on exact equality.
//! Writes `BENCH_adaptive.json` (current directory, override with
//! `ADAPTIVE_SMOKE_OUT`) through `harness::finish`, which fails the run if
//! a bound of `harness::GATES` or an identity field does not hold.

use hypertp_bench::registry;
use hypertp_core::{HypervisorKind, VmConfig};
use hypertp_machine::{Gfn, Machine, MachineSpec};
use hypertp_migrate::{
    migrate_fleet, FleetOrder, FleetPolicy, FleetReport, FleetVm, MigrationConfig, MigrationTp,
    WireMode,
};
use hypertp_sim::json::{self, Json};
use hypertp_sim::{SimClock, SimDuration, WorkerPool};

/// Per-VM memory in GiB.
const MEM_GB: u64 = 1;
/// Dirty rates (pages/second) of the four-VM fleet, in input (arrival)
/// order: the hot guests arrive first, so FIFO admission is the naive
/// worst case the scheduler must beat.
const RATES: [f64; 4] = [120_000.0, 60_000.0, 20.0, 20.0];
/// Downtime budget of the budgeted run.
const BUDGET: SimDuration = SimDuration::from_millis(10);

/// Everything `run` needs for one `migrate_fleet` call: source and
/// destination machines, their hypervisors, and the VM fleet.
type FleetSetup = (
    Machine,
    Machine,
    Box<dyn hypertp_core::Hypervisor>,
    Box<dyn hypertp_core::Hypervisor>,
    Vec<FleetVm>,
);

/// Builds the heterogeneous source fleet and returns everything needed
/// for one `migrate_fleet` call.
fn fleet_setup() -> FleetSetup {
    let reg = registry();
    let clock = SimClock::new();
    let mut src_m = Machine::with_clock(MachineSpec::m1(), clock.clone());
    let dst_m = Machine::with_clock(MachineSpec::m1(), clock);
    let mut src = reg
        .create(HypervisorKind::Xen, &mut src_m)
        .expect("registry has Xen");
    let mut vms = Vec::new();
    for (i, &rate) in RATES.iter().enumerate() {
        let cfg = VmConfig::small(format!("vm{i}")).with_memory_gb(MEM_GB);
        let pages = cfg.pages();
        let id = src.create_vm(&mut src_m, &cfg).expect("capacity");
        // Deterministic seed content so the content-aware path sees
        // non-zero pages from round 0.
        for k in 0..2048u64 {
            src.write_guest(&mut src_m, id, Gfn((k * 13 + i as u64 * 7919) % pages), {
                k ^ (0x9e37_79b9 << i)
            })
            .expect("seed write");
        }
        vms.push(FleetVm::with_dirty_rate(id, rate));
    }
    let mut dst_m = dst_m;
    let dst = reg
        .create(HypervisorKind::Kvm, &mut dst_m)
        .expect("registry has KVM");
    (src_m, dst_m, src, dst, vms)
}

/// Migrates a fresh copy of the fleet under the given config/policy.
fn run(config: MigrationConfig, policy: FleetPolicy) -> FleetReport {
    let (mut src_m, mut dst_m, mut src, mut dst, vms) = fleet_setup();
    let tp = MigrationTp::new()
        .with_config(config)
        .with_pool(WorkerPool::from_env());
    migrate_fleet(
        &tp,
        &mut src_m,
        src.as_mut(),
        &vms,
        &mut dst_m,
        dst.as_mut(),
        policy,
    )
    .expect("fleet migration")
}

fn base_config() -> MigrationConfig {
    MigrationConfig {
        verify_contents: true,
        wire_mode: WireMode::ContentAware,
        ..MigrationConfig::default()
    }
}

fn adaptive_config() -> MigrationConfig {
    MigrationConfig {
        auto_converge: true,
        ..base_config()
    }
}

fn ms(d: SimDuration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn fleet_json(fleet: &FleetReport) -> Json {
    Json::obj()
        .with("mean_downtime_ms", json::f(ms(fleet.mean_downtime())))
        .with("mean_ready_secs", json::f(fleet.mean_ready().as_secs_f64()))
        .with("makespan_secs", json::f(fleet.makespan.as_secs_f64()))
        .with("total_bytes", json::u(fleet.total_bytes()))
        .with(
            "per_vm",
            json::arr(fleet.reports.iter().map(|r| {
                Json::obj()
                    .with("vm", json::s(r.vm_name.clone()))
                    .with("rounds", json::u(r.rounds.len() as u64))
                    .with("downtime_ms", json::f(ms(r.downtime)))
                    .with("total_secs", json::f(r.total.as_secs_f64()))
                    .with("bytes_sent", json::u(r.bytes_sent))
                    .with("stop_pages", json::u(r.stop_pages))
                    .with("final_throttle", json::f(r.final_throttle))
            })),
        )
}

/// Per-round controller telemetry of one VM: the EWMA trajectory the
/// controller steered by.
fn telemetry_json(fleet: &FleetReport, vm: usize) -> Json {
    let report = &fleet.reports[vm];
    Json::obj()
        .with("vm", json::s(report.vm_name.clone()))
        .with(
            "rounds",
            json::arr(report.rounds.iter().map(|r| {
                Json::obj()
                    .with("pages", json::u(r.pages))
                    .with("wire_bytes", json::u(r.wire_bytes))
                    .with("dirtied", json::u(r.dirtied))
                    .with("dirty_rate_est", json::f(r.dirty_rate_est))
                    .with("drain_rate_est", json::f(r.drain_rate_est))
                    .with("throughput_est", json::f(r.throughput_est))
                    .with("compression_est", json::f(r.compression_est))
                    .with("stop_threshold", json::u(r.stop_threshold))
                    .with("throttle", json::f(r.throttle))
            })),
        )
}

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

fn main() {
    println!(
        "adaptive_smoke: {} x {MEM_GB} GiB fleet (rates {RATES:?}), Xen -> KVM, content-aware",
        RATES.len()
    );

    // 1 + 2. Static vs adaptive under the legacy policy (FIFO, unlimited
    // concurrency): the controller is the only variable.
    let stat = run(base_config(), FleetPolicy::default());
    let adap = run(adaptive_config(), FleetPolicy::default());
    let adap2 = run(adaptive_config(), FleetPolicy::default());
    let deterministic = identical(&adap, &adap2);

    let cut_pct =
        (1.0 - adap.mean_downtime().as_secs_f64() / stat.mean_downtime().as_secs_f64()) * 100.0;
    println!(
        "== static   == mean downtime {:.2} ms, makespan {:.2} s, {} B",
        ms(stat.mean_downtime()),
        stat.makespan.as_secs_f64(),
        stat.total_bytes()
    );
    println!(
        "== adaptive == mean downtime {:.2} ms, makespan {:.2} s, {} B",
        ms(adap.mean_downtime()),
        adap.makespan.as_secs_f64(),
        adap.total_bytes()
    );
    println!("  mean downtime cut: {cut_pct:.1}%");
    println!("  deterministic rerun identical: {deterministic}");
    assert!(
        adap.makespan <= stat.makespan,
        "adaptive must not lengthen the campaign: {:?} > {:?}",
        adap.makespan,
        stat.makespan
    );
    assert!(
        adap.total_bytes() <= stat.total_bytes(),
        "throttling must not add wire bytes"
    );
    for r in &stat.reports[..2] {
        assert!(
            r.rounds.len() as u32 >= MigrationConfig::default().max_rounds,
            "{}: static hot guest must burn the round cap",
            r.vm_name
        );
    }
    for r in &adap.reports[..2] {
        assert!(
            r.final_throttle < 1.0,
            "{}: adaptive hot guest must have throttled",
            r.vm_name
        );
    }

    // 3. Budgeted run: every VM, hot or idle, lands at or under BUDGET.
    let mut budget_cfg = base_config();
    budget_cfg.downtime_budget = Some(BUDGET);
    let budgeted = run(budget_cfg, FleetPolicy::default());
    let max_downtime = budgeted
        .reports
        .iter()
        .map(|r| r.downtime)
        .max()
        .expect("non-empty fleet");
    println!(
        "== budgeted == max downtime {:.2} ms (budget {:.2} ms)",
        ms(max_downtime),
        ms(BUDGET)
    );

    // 4. Fleet scheduler: bounded concurrency, FIFO vs SPDF admission.
    // The hot guests arrive first in input order, so FIFO parks both on
    // the two slots while the idle guests wait.
    let bounded = |order| FleetPolicy {
        order,
        max_concurrent: 2,
        compression_hint: 1.0,
    };
    let fifo = run(adaptive_config(), bounded(FleetOrder::Fifo));
    let spdf = run(
        adaptive_config(),
        bounded(FleetOrder::ShortestPredictedFirst),
    );
    let ready_cut_pct =
        (1.0 - spdf.mean_ready().as_secs_f64() / fifo.mean_ready().as_secs_f64()) * 100.0;
    println!(
        "== scheduler == fifo mean ready {:.2} s (admission {:?}); spdf {:.2} s (admission {:?}); cut {ready_cut_pct:.1}%",
        fifo.mean_ready().as_secs_f64(),
        fifo.admission,
        spdf.mean_ready().as_secs_f64(),
        spdf.admission,
    );
    // The makespan is pinned by the hot guests under either order (they
    // merely swap slots); only shared-wire-cache encoding order shifts
    // it by microseconds. Guard against a real regression, not noise.
    let makespan_ratio = spdf.makespan.as_secs_f64() / fifo.makespan.as_secs_f64();
    assert!(
        makespan_ratio <= 1.01,
        "SPDF must not lengthen the campaign: ratio {makespan_ratio:.4}"
    );
    assert_ne!(fifo.admission, spdf.admission, "orders actually differ");

    let out = Json::obj()
        .with("bench", json::s("adaptive_smoke"))
        .with("vms", json::u(RATES.len() as u64))
        .with("mem_gb_per_vm", json::u(MEM_GB))
        .with(
            "dirty_rates_pages_per_sec",
            json::arr(RATES.iter().map(|&r| json::f(r))),
        )
        .with("wire_mode", json::s("content_aware"))
        .with("static", fleet_json(&stat))
        .with("adaptive", fleet_json(&adap))
        .with(
            "adaptive_vs_static",
            Json::obj()
                .with("mean_downtime_cut_pct", json::f(cut_pct))
                .with(
                    "makespan_ratio",
                    json::f(adap.makespan.as_secs_f64() / stat.makespan.as_secs_f64()),
                )
                .with(
                    "bytes_ratio",
                    json::f(adap.total_bytes() as f64 / stat.total_bytes() as f64),
                ),
        )
        .with(
            "budget",
            Json::obj()
                .with("budget_ms", json::f(ms(BUDGET)))
                .with("max_downtime_ms", json::f(ms(max_downtime)))
                .with("fleet", fleet_json(&budgeted)),
        )
        .with(
            "scheduler",
            Json::obj()
                .with("max_concurrent", json::u(2))
                .with(
                    "fifo",
                    fleet_json(&fifo).with(
                        "admission",
                        json::arr(fifo.admission.iter().map(|&i| json::u(i as u64))),
                    ),
                )
                .with(
                    "spdf",
                    fleet_json(&spdf).with(
                        "admission",
                        json::arr(spdf.admission.iter().map(|&i| json::u(i as u64))),
                    ),
                )
                .with("ready_cut_pct", json::f(ready_cut_pct)),
        )
        .with("telemetry", telemetry_json(&adap, 0))
        .with(
            "deterministic_identical",
            json::s(deterministic.to_string()),
        );
    hypertp_bench::harness::finish(out);
}
