//! chaos_smoke: recovery-cost distributions under seeded fault injection.
//!
//! Runs each fault scenario against its clean twin across a spread of
//! seeds and reports what recovery *costs*: the extra simulated time a
//! migration spends retrying a dropped link, re-sending a truncated page
//! or a corrupted UISR blob, and the extra wall-clock a cluster plan
//! burns requeuing failed host upgrades. The same seed always produces
//! the same faults (see `hypertp_sim::fault`), so the distributions here
//! are reproducible — only scenario 4's wall-clock numbers depend on the
//! machine.
//!
//! 1. MigrationTP link drops (retry + backoff + round resume).
//! 2. MigrationTP truncated final page (detect + re-send).
//! 3. MigrationTP corrupted UISR blob (decode reject + re-send) and
//!    latency spikes (absorbed into the round).
//! 4. InPlaceTP PRAM checksum mismatch (verify + rebuild) and worker
//!    panics (inline re-run), with a faulted-vs-clean identity check.
//! 5. Cluster plan execution under host failures (requeue/exclude).
//! 6. MigrationTP exhaustion falling back to InPlaceTP.
//!
//! Writes `BENCH_chaos.json` (in the current directory, override with
//! `CHAOS_SMOKE_OUT`) through `harness::finish`, which fails the run
//! unless every faulted transplant matched its clean twin.

use std::time::Instant;

use hypertp_bench::registry;
use hypertp_cluster::exec::{execute, execute_sharded_with, ExecConfig};
use hypertp_cluster::planner::plan_upgrade;
use hypertp_cluster::Cluster;
use hypertp_core::{migrate_or_inplace, HypervisorKind, InPlaceTransplant, VmConfig};
use hypertp_machine::{Extent, Gfn, Machine, MachineSpec};
use hypertp_migrate::{MigrationConfig, MigrationReport, MigrationTp};
use hypertp_pram::PramStats;
use hypertp_sim::fault::{FaultPlan, InjectionPoint};
use hypertp_sim::json::{self, Json};
use hypertp_sim::{SimClock, WorkerPool};

/// Seeds per scenario: enough for a distribution, small enough to smoke.
const SEEDS: u64 = 12;
/// Base seed; per-run seeds are `BASE + i`.
const BASE: u64 = 0xc4a0_5000;

/// Min / mean / max of a sample in seconds.
struct Dist {
    min: f64,
    mean: f64,
    max: f64,
}

impl Dist {
    fn of(samples: &[f64]) -> Dist {
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mean = samples.iter().sum::<f64>() / samples.len().max(1) as f64;
        Dist { min, mean, max }
    }

    fn json(&self) -> Json {
        Json::obj()
            .with("min_secs", json::f(self.min))
            .with("mean_secs", json::f(self.mean))
            .with("max_secs", json::f(self.max))
    }
}

/// Runs one 1-VM Xen→KVM migration with the given fault plan and returns
/// the report (the source clock advances through the whole migration).
fn migrate_once(faults: FaultPlan) -> Result<MigrationReport, hypertp_core::HtpError> {
    let reg = registry();
    let clock = SimClock::new();
    let mut src_m = Machine::with_clock(MachineSpec::m1(), clock.clone());
    let mut dst_m = Machine::with_clock(MachineSpec::m1(), clock);
    let mut src = reg.create(HypervisorKind::Xen, &mut src_m).expect("xen");
    let cfg = VmConfig::small("chaos").with_memory_gb(1);
    let id = src.create_vm(&mut src_m, &cfg).expect("capacity");
    for k in 0..512u64 {
        src.write_guest(&mut src_m, id, Gfn(k % cfg.pages()), k ^ 0xdead_beef)
            .expect("seed write");
    }
    let mut dst = reg.create(HypervisorKind::Kvm, &mut dst_m).expect("kvm");
    let tp = MigrationTp::new()
        .with_config(MigrationConfig {
            dirty_rate_pages_per_sec: 0.0,
            ..MigrationConfig::default()
        })
        .with_faults(faults);
    tp.migrate(&mut src_m, src.as_mut(), id, &mut dst_m, dst.as_mut())
}

/// Total simulated migration seconds with `point` armed at `rate`,
/// minus the clean baseline. Returns (overhead samples, injections).
fn migration_overheads(point: InjectionPoint, rate: f64) -> (Vec<f64>, u64) {
    let clean = migrate_once(FaultPlan::disarmed())
        .expect("clean migration")
        .total
        .as_secs_f64();
    let mut overheads = Vec::new();
    let mut injections = 0u64;
    for i in 0..SEEDS {
        let faults = FaultPlan::new(BASE + point.index() as u64 * 100 + i);
        faults.arm(point, rate, u64::MAX);
        let report = migrate_once(faults.clone()).expect("faulted migration recovers");
        injections += faults.injections_fired(point);
        overheads.push(report.total.as_secs_f64() - clean);
    }
    (overheads, injections)
}

/// One InPlaceTP transplant of 2 VMs with the given fault plan; returns
/// (wall seconds, per-VM guest checksums, PRAM stats) for identity checks.
fn inplace_once(faults: FaultPlan) -> (f64, Vec<u64>, PramStats) {
    let reg = registry();
    let mut machine = Machine::new(MachineSpec::m1());
    let mut hv = reg.create(HypervisorKind::Xen, &mut machine).expect("xen");
    for i in 0..2u32 {
        let cfg = VmConfig::small(format!("vm{i}")).with_memory_gb(1);
        let id = hv.create_vm(&mut machine, &cfg).expect("capacity");
        for k in 0..256u64 {
            hv.write_guest(
                &mut machine,
                id,
                Gfn((k * 7 + u64::from(i)) % cfg.pages()),
                k,
            )
            .expect("seed write");
        }
    }
    let engine = InPlaceTransplant::new(&reg).with_faults(faults);
    let start = Instant::now();
    let (hv, report) = engine
        .run(&mut machine, hv, HypervisorKind::Kvm)
        .expect("transplant recovers");
    let wall = start.elapsed().as_secs_f64();
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
    (wall, checksums, report.pram_stats)
}

fn main() {
    println!("chaos_smoke: {SEEDS} seeds per scenario, base seed {BASE:#x}");

    // 1. Link drops: retry with backoff, resume the round.
    let (drop_over, drop_inj) = migration_overheads(InjectionPoint::LinkDrop, 0.2);
    let drop_dist = Dist::of(&drop_over);
    println!(
        "== link drop == {drop_inj} injections, recovery overhead mean {:.3} s",
        drop_dist.mean
    );

    // 2. Truncated final page: detect on the receiver, re-send.
    let (trunc_over, trunc_inj) = migration_overheads(InjectionPoint::TruncatedPage, 0.5);
    let trunc_dist = Dist::of(&trunc_over);
    println!(
        "== truncated page == {trunc_inj} injections, recovery overhead mean {:.3} s",
        trunc_dist.mean
    );

    // 3a. Corrupted UISR blob: decode rejects, blob re-sent.
    let (uisr_over, uisr_inj) = migration_overheads(InjectionPoint::UisrCorruption, 0.5);
    let uisr_dist = Dist::of(&uisr_over);
    println!(
        "== uisr corruption == {uisr_inj} injections, recovery overhead mean {:.3} s",
        uisr_dist.mean
    );
    // 3b. Latency spikes: absorbed into the round time.
    let (spike_over, spike_inj) = migration_overheads(InjectionPoint::LinkLatencySpike, 0.3);
    let spike_dist = Dist::of(&spike_over);
    println!(
        "== latency spike == {spike_inj} injections, recovery overhead mean {:.3} s",
        spike_dist.mean
    );

    // 4. InPlaceTP chaos: PRAM checksum rebuild + worker-panic re-runs.
    // The faulted transplant must land on exactly the clean result.
    let (clean_wall, clean_sums, clean_stats) = inplace_once(FaultPlan::disarmed());
    let mut inplace_wall = Vec::new();
    let mut inplace_recoveries = 0u64;
    let mut inplace_identical = true;
    for i in 0..SEEDS {
        let faults = FaultPlan::new(BASE + 0x4000 + i);
        faults.arm_once(InjectionPoint::PramChecksum);
        faults.arm(InjectionPoint::WorkerPanic, 0.5, 2);
        let (wall, sums, stats) = inplace_once(faults.clone());
        inplace_identical &= sums == clean_sums && stats == clean_stats;
        inplace_recoveries += faults.log().len() as u64 / 2;
        inplace_wall.push((wall - clean_wall).max(0.0));
    }
    let inplace_dist = Dist::of(&inplace_wall);
    println!(
        "== inplace pram+worker == {inplace_recoveries} recoveries, wall overhead mean {:.3} s, results identical: {inplace_identical}",
        inplace_dist.mean
    );

    // 5. Cluster execution under host failures: requeue burns slot time,
    // exclusion drops the host.
    let cluster = Cluster::paper_testbed(80, 42);
    let plan = plan_upgrade(&cluster, 2).expect("plan");
    let cfg = ExecConfig::default();
    let clean_total = execute(&cluster, &plan, &cfg).total.as_secs_f64();
    let mut exec_over = Vec::new();
    let mut exec_retries = 0u64;
    let mut exec_excluded = 0u64;
    for i in 0..SEEDS {
        let faults = FaultPlan::new(BASE + 0x5000 + i);
        faults.arm(InjectionPoint::HostFailure, 0.2, u64::MAX);
        let r = execute_sharded_with(&cluster, &plan, &cfg, &faults, 1, &WorkerPool::serial());
        exec_retries += r.host_retries as u64;
        exec_excluded += r.hosts_excluded as u64;
        exec_over.push(r.total.as_secs_f64() - clean_total);
    }
    let exec_dist = Dist::of(&exec_over);
    println!(
        "== cluster host failure == {exec_retries} requeues, {exec_excluded} exclusions, overhead mean {:.3} s",
        exec_dist.mean
    );

    // 6. Migration exhaustion → InPlaceTP fallback.
    let mut fellback = 0u64;
    for i in 0..SEEDS {
        let faults = FaultPlan::new(BASE + 0x6000 + i);
        faults.arm(InjectionPoint::LinkDrop, 1.0, u64::MAX);
        let out = migrate_or_inplace(
            &faults,
            "chaos-host",
            || migrate_once(faults.clone()).map(|r| r.total),
            || {
                let (_, sums, _) = inplace_once(FaultPlan::disarmed());
                Ok(sums)
            },
        )
        .expect("fallback succeeds");
        if out.fell_back() {
            fellback += 1;
        }
    }
    assert_eq!(fellback, SEEDS, "a saturated link must always fall back");
    println!("== migration fallback == {fellback}/{SEEDS} runs fell back to InPlaceTP");

    let out = Json::obj()
        .with("bench", json::s("chaos_smoke"))
        .with("seeds_per_scenario", json::u(SEEDS))
        .with("base_seed", json::u(BASE))
        .with(
            "migration_link_drop",
            Json::obj()
                .with("rate", json::f(0.2))
                .with("injections", json::u(drop_inj))
                .with("recovery_overhead", drop_dist.json()),
        )
        .with(
            "migration_truncated_page",
            Json::obj()
                .with("rate", json::f(0.5))
                .with("injections", json::u(trunc_inj))
                .with("recovery_overhead", trunc_dist.json()),
        )
        .with(
            "migration_uisr_corruption",
            Json::obj()
                .with("rate", json::f(0.5))
                .with("injections", json::u(uisr_inj))
                .with("recovery_overhead", uisr_dist.json()),
        )
        .with(
            "migration_latency_spike",
            Json::obj()
                .with("rate", json::f(0.3))
                .with("injections", json::u(spike_inj))
                .with("recovery_overhead", spike_dist.json()),
        )
        .with(
            "inplace_pram_and_workers",
            Json::obj()
                .with("recoveries", json::u(inplace_recoveries))
                .with("results_identical", json::s(inplace_identical.to_string()))
                .with("wall_overhead", inplace_dist.json()),
        )
        .with(
            "cluster_host_failure",
            Json::obj()
                .with("rate", json::f(0.2))
                .with("requeues", json::u(exec_retries))
                .with("exclusions", json::u(exec_excluded))
                .with("recovery_overhead", exec_dist.json()),
        )
        .with(
            "migration_fallback",
            Json::obj()
                .with("runs", json::u(SEEDS))
                .with("fell_back", json::u(fellback)),
        );
    hypertp_bench::harness::finish(out);
}
