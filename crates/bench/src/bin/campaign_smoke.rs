//! campaign_smoke: plan+exec scaling of the sharded campaign engine.
//!
//! The tentpole claim: the cluster layer plans and executes
//! datacenter-sized upgrade campaigns in near-linear time. This bench
//! sweeps synthetic fleets from 1k to 10k hosts (lazily derived — no
//! per-VM materialization), times `plan_upgrade` + `execute_sharded_with`
//! wall-clock at each size, and fits a log-log scaling exponent that
//! `harness::GATES` caps.
//!
//! Alongside the sweep it pins the engine's identity contracts:
//!
//! * **sharded_1k** — the 1k-host fleet executed two ways: the
//!   *baseline* path with per-host cost evaluation (the wrapper below
//!   defeats the uniform-spec check, so every host re-derives its
//!   upgrade cost — what the pre-sharding executor did), and the sharded
//!   path with class-memoized evaluation. The reports must be
//!   byte-identical (the memo is an optimization, not a semantic), and
//!   the recorded speedup is the engine's single-thread algorithmic win;
//!   with more than one worker the thread win stacks on top.
//! * **shard_identity** — one fleet, every shard × worker combination:
//!   one byte string.
//! * **deterministic** — same seed, same sweep point, twice.
//!
//! Writes `BENCH_campaign.json` (override with `CAMPAIGN_SMOKE_OUT`)
//! through `harness::finish`.

use std::time::Instant;

use hypertp_cluster::exec::{execute_sharded_with, ExecConfig, ExecReport};
use hypertp_cluster::{plan_upgrade, Cluster, ClusterView, Plan, VmView};
use hypertp_machine::MachineSpec;
use hypertp_sim::fault::FaultPlan;
use hypertp_sim::json::{self, Json};
use hypertp_sim::pool::WorkerPool;

/// Fleet sizes swept (hosts). 10 VMs per host: 10k→100k VMs.
const SWEEP: [usize; 5] = [1000, 2000, 4000, 7000, 10_000];
/// InPlaceTP-tolerant share of each fleet (the paper's 80% point).
const COMPAT_PCT: u32 = 80;
/// Hosts taken offline per rolling group.
const GROUP_HOSTS: usize = 25;
/// Fleet-derivation seed.
const SEED: u64 = 0xca3b_a16e;
/// Wall-clock reps per sweep point (the minimum is recorded — scheduler
/// noise only ever adds time).
const REPS: usize = 3;

/// Delegating view that hides the fleet's spec uniformity, forcing the
/// executor onto the per-host evaluation path (no class memo). The
/// simulated fleet is bit-for-bit the same — only the evaluation
/// strategy changes, which is exactly what the baseline must measure.
struct PerHostEval<'a, V: ClusterView>(&'a V);

impl<V: ClusterView> ClusterView for PerHostEval<'_, V> {
    fn host_count(&self) -> usize {
        self.0.host_count()
    }
    fn vm_count(&self) -> usize {
        self.0.vm_count()
    }
    fn host_reserve_gb(&self) -> u64 {
        self.0.host_reserve_gb()
    }
    fn host_spec(&self, host: usize) -> &MachineSpec {
        self.0.host_spec(host)
    }
    fn vm(&self, vm: usize) -> VmView {
        self.0.vm(vm)
    }
    fn vm_name(&self, vm: usize) -> String {
        self.0.vm_name(vm)
    }
    fn uniform_spec(&self) -> Option<&MachineSpec> {
        None
    }
}

struct SweepPoint {
    hosts: usize,
    vms: usize,
    groups: usize,
    migrations: usize,
    upgrades: usize,
    plan_ms: f64,
    exec_ms: f64,
    sim_total_s: f64,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn sweep_point(hosts: usize, pool: &WorkerPool, shards: usize) -> (SweepPoint, String) {
    let view = Cluster::synthetic(hosts, SEED).with_compat_percent(COMPAT_PCT);
    let cfg = ExecConfig::default();
    let mut best_plan = f64::INFINITY;
    let mut best_exec = f64::INFINITY;
    let mut plan: Option<Plan> = None;
    let mut report: Option<ExecReport> = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let p = plan_upgrade(&view, GROUP_HOSTS).expect("synthetic fleet plans");
        best_plan = best_plan.min(ms(t));
        let t = Instant::now();
        let r = execute_sharded_with(&view, &p, &cfg, &FaultPlan::disarmed(), shards, pool);
        best_exec = best_exec.min(ms(t));
        if let Some(prev) = &report {
            assert_eq!(*prev, r, "{hosts} hosts: rerun diverged");
        }
        plan = Some(p);
        report = Some(r);
    }
    let plan = plan.unwrap();
    let report = report.unwrap();
    let point = SweepPoint {
        hosts,
        vms: view.vm_count(),
        groups: plan.group_count(),
        migrations: report.migrations,
        upgrades: report.inplace_upgrades,
        plan_ms: best_plan,
        exec_ms: best_exec,
        sim_total_s: report.total.as_secs_f64(),
    };
    (point, report.render())
}

/// Least-squares slope of `ln(y)` against `ln(x)` — the scaling exponent.
fn fit_exponent(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.max(1e-3).ln()).collect();
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    cov / var
}

/// The 1k-host baseline-vs-sharded comparison (see module docs).
fn sharded_1k(pool: &WorkerPool, shards: usize) -> (f64, f64, bool) {
    let view = Cluster::synthetic(1000, SEED).with_compat_percent(COMPAT_PCT);
    let plan = plan_upgrade(&view, GROUP_HOSTS).unwrap();
    let cfg = ExecConfig::default();
    let mut base_ms = f64::INFINITY;
    let mut sharded_ms = f64::INFINITY;
    let mut identical = true;
    for _ in 0..REPS {
        let per_host = PerHostEval(&view);
        let t = Instant::now();
        let base = execute_sharded_with(
            &per_host,
            &plan,
            &cfg,
            &FaultPlan::disarmed(),
            1,
            &WorkerPool::serial(),
        );
        base_ms = base_ms.min(ms(t));
        let t = Instant::now();
        let sharded =
            execute_sharded_with(&view, &plan, &cfg, &FaultPlan::disarmed(), shards, pool);
        sharded_ms = sharded_ms.min(ms(t));
        identical &= base == sharded && base.render() == sharded.render();
    }
    (base_ms, sharded_ms, identical)
}

/// Every shard × worker combination on one fleet must fold to one byte
/// string.
fn shard_identity() -> bool {
    let view = Cluster::synthetic(2000, SEED).with_compat_percent(COMPAT_PCT);
    let plan = plan_upgrade(&view, GROUP_HOSTS).unwrap();
    let cfg = ExecConfig::default();
    let mut renders = Vec::new();
    for shards in [1usize, 4, 16, 80] {
        for workers in [1usize, 4] {
            let r = execute_sharded_with(
                &view,
                &plan,
                &cfg,
                &FaultPlan::disarmed(),
                shards,
                &WorkerPool::new(workers),
            );
            renders.push(r.render());
        }
    }
    renders.dedup();
    renders.len() == 1
}

fn main() {
    let worker_pool = WorkerPool::from_env();
    let workers = worker_pool.workers();
    // One shard per worker keeps every core busy without fragmenting the
    // per-shard cost memo; floor of 8 keeps the shard path exercised on
    // single-core CI machines.
    let shards = workers.max(8);
    println!("campaign_smoke: {workers} workers, {shards} shards");

    println!("== sweep: {SWEEP:?} hosts ==");
    let mut points = Vec::new();
    for hosts in SWEEP {
        let (p, _) = sweep_point(hosts, &worker_pool, shards);
        println!(
            "  {:>6} hosts ({:>7} VMs, {:>4} groups): plan {:8.2} ms, exec {:8.2} ms, \
             {} migrations, {} upgrades, simulated {:.1} h",
            p.hosts,
            p.vms,
            p.groups,
            p.plan_ms,
            p.exec_ms,
            p.migrations,
            p.upgrades,
            p.sim_total_s / 3600.0
        );
        points.push(p);
    }
    let hosts_f: Vec<f64> = points.iter().map(|p| p.hosts as f64).collect();
    let total_f: Vec<f64> = points.iter().map(|p| p.plan_ms + p.exec_ms).collect();
    let plan_f: Vec<f64> = points.iter().map(|p| p.plan_ms).collect();
    let exec_f: Vec<f64> = points.iter().map(|p| p.exec_ms).collect();
    let exponent = fit_exponent(&hosts_f, &total_f);
    let plan_exponent = fit_exponent(&hosts_f, &plan_f);
    let exec_exponent = fit_exponent(&hosts_f, &exec_f);
    println!(
        "  fitted exponent: total {exponent:.3} (plan {plan_exponent:.3}, exec \
         {exec_exponent:.3})"
    );

    println!("== identity contracts ==");
    let (serial_ms, sharded_ms, sharded_identical) = sharded_1k(&worker_pool, shards);
    let speedup = serial_ms / sharded_ms.max(1e-6);
    println!(
        "  sharded_1k: baseline {serial_ms:.2} ms vs sharded {sharded_ms:.2} ms \
         (speedup {speedup:.2}x), identical = {sharded_identical}"
    );
    let shard_id = shard_identity();
    println!("  shard x worker identity:  {shard_id}");
    let (det_a, ra) = sweep_point(2000, &worker_pool, shards);
    let (_, rb) = sweep_point(2000, &worker_pool, shards);
    let deterministic = ra == rb;
    println!("  deterministic rerun:      {deterministic}");

    let out = Json::obj()
        .with("bench", json::s("campaign_smoke"))
        .with("seed", json::u(SEED))
        .with("compat_pct", json::u(COMPAT_PCT as u64))
        .with("group_hosts", json::u(GROUP_HOSTS as u64))
        .with("reps", json::u(REPS as u64))
        .with(
            "sweep",
            json::arr(points.iter().map(|p| {
                Json::obj()
                    .with("hosts", json::u(p.hosts as u64))
                    .with("vms", json::u(p.vms as u64))
                    .with("groups", json::u(p.groups as u64))
                    .with("migrations", json::u(p.migrations as u64))
                    .with("inplace_upgrades", json::u(p.upgrades as u64))
                    .with("plan_ms", json::f(p.plan_ms))
                    .with("exec_ms", json::f(p.exec_ms))
                    .with("total_ms", json::f(p.plan_ms + p.exec_ms))
                    .with("sim_total_s", json::f(p.sim_total_s))
            })),
        )
        .with(
            "scaling",
            Json::obj()
                .with("fitted_exponent", json::f(exponent))
                .with("plan_exponent", json::f(plan_exponent))
                .with("exec_exponent", json::f(exec_exponent)),
        )
        .with(
            "sharded_1k",
            Json::obj()
                .with("serial_ms", json::f(serial_ms))
                .with("sharded_ms", json::f(sharded_ms))
                .with("speedup", json::f(speedup))
                .with("workers", json::u(workers as u64))
                .with("shards", json::u(shards as u64))
                .with("identical", json::s(sharded_identical.to_string())),
        )
        .with("det_point_hosts", json::u(det_a.hosts as u64))
        .with("shard_identity_identical", json::s(shard_id.to_string()))
        .with(
            "deterministic_identical",
            json::s(deterministic.to_string()),
        );
    hypertp_bench::harness::finish(out);
}
