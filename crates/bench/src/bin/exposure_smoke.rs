//! exposure_smoke: the exposure-minimizing planner over a year-long
//! vulnerability feed.
//!
//! The tentpole claim: planning remediation per disclosure by attack
//! surface — escalating borderline flaws on historically critical
//! surfaces and draining hosts in Smith-rule order — cuts integrated
//! exposure ∫ affected-VMs × criticality dt against a surface-blind
//! baseline that remediates on raw CVSS in host-index order, while the
//! incremental planner (one cached host-cost table and remediation
//! schedule, one linear pass per event) re-plans a 1k-host fleet orders
//! of magnitude faster than rebuilding the cost table per disclosure.
//!
//! The run replays one seeded year (37 disclosures) over a 1k-host /
//! 10k-VM synthetic fleet twice — surface-aware and surface-blind, both
//! reporting exposure in the same calibrated metric — and times the
//! incremental replay against a per-event full re-plan. The incremental
//! replay is timed again at 10k hosts: its per-event cost and the
//! 10k : 1k ratio are recorded, ungated, so a planner whose re-plan grows
//! faster than the fleet shows in the artifact. Alongside the comparison
//! it pins the identity contracts:
//!
//! * **deterministic** — the aware replay, twice: one byte string.
//! * **sharded** — shard × worker probes fold to the serial render.
//! * **feed_off** — the executor with no exposure attachment renders
//!   without any exposure section (the off-path report stays
//!   byte-identical to the pre-feed format), twice identically.
//! * **empty_feed** — replaying zero events accrues nothing.
//!
//! `harness::finish` enforces the exposure-cut and replan-speedup rows of
//! `harness::GATES` plus every identity field, and writes
//! `BENCH_exposure.json` (override with `EXPOSURE_SMOKE_OUT`).

use std::time::Instant;

use hypertp_cluster::exec::{execute_sharded_with, ExecConfig};
use hypertp_cluster::exposure::{replay_feed, ExposureConfig, ExposurePlanner, FeedReport};
use hypertp_cluster::{plan_upgrade, Cluster, ClusterView};
use hypertp_sim::fault::FaultPlan;
use hypertp_sim::json::{self, Json};
use hypertp_sim::pool::WorkerPool;
use hypertp_sim::SimDuration;
use hypertp_vulndb::dataset::dataset;
use hypertp_vulndb::feed::{FeedEvent, SurfaceWeights};
use hypertp_vulndb::VulnFeed;

/// Fleet size (hosts); 10 VMs per host.
const HOSTS: usize = 1000;
/// Fleet size of the second, ungated incremental-replay timing.
const LARGE_HOSTS: usize = 10_000;
/// InPlaceTP-tolerant share of the fleet.
const COMPAT_PCT: u32 = 70;
/// Fleet- and feed-derivation seed.
const SEED: u64 = 42;
/// Replayed horizon: one year at the §2 disclosure rate.
const HORIZON_DAYS: u64 = 365;
/// Wall-clock reps (the minimum is recorded — scheduler noise only ever
/// adds time).
const REPS: usize = 3;

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn year_feed() -> Vec<FeedEvent> {
    VulnFeed::new(SEED).replay(SimDuration::from_secs(HORIZON_DAYS * 86_400))
}

fn feed_section(r: &FeedReport) -> Json {
    Json::obj()
        .with("events", json::u(r.events as u64))
        .with("remediated_events", json::u(r.remediated_events as u64))
        .with("escalated_events", json::u(r.escalated_events as u64))
        .with("exposure_vm_days", json::f(r.exposure_vm_days))
        .with("remediated_vms", json::u(r.remediated_vms))
        .with("deferred_vms", json::u(r.deferred_vms))
        .with("disruption_min", json::f(r.disruption.as_secs_f64() / 60.0))
}

/// Wall-clock of one incremental replay — build the planner once, plan
/// every event against it — as `(total, replay alone)` milliseconds, each
/// the minimum over [`REPS`].
fn time_incremental(
    view: &impl ClusterView,
    events: &[FeedEvent],
    cfg: ExposureConfig,
    shards: usize,
    pool: &WorkerPool,
) -> (f64, f64, FeedReport) {
    let (mut total_ms, mut replay_ms) = (f64::INFINITY, f64::INFINITY);
    let mut report = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let planner = ExposurePlanner::with_pool(view, cfg, shards, pool);
        let built = Instant::now();
        let r = planner.replay(events);
        total_ms = total_ms.min(ms(t));
        replay_ms = replay_ms.min(ms(built));
        report = Some(r);
    }
    (total_ms, replay_ms, report.expect("REPS > 0"))
}

/// The executor without an exposure attachment must render the exact
/// pre-feed report format — no exposure section — and do so
/// deterministically.
fn feed_off_identical(pool: &WorkerPool, shards: usize) -> bool {
    let view = Cluster::synthetic(HOSTS, SEED).with_compat_percent(COMPAT_PCT);
    let plan = plan_upgrade(&view, 25).expect("synthetic fleet plans");
    let cfg = ExecConfig::default();
    let a = execute_sharded_with(&view, &plan, &cfg, &FaultPlan::disarmed(), shards, pool);
    let b = execute_sharded_with(&view, &plan, &cfg, &FaultPlan::disarmed(), shards, pool);
    a.render() == b.render() && !a.render().contains("exposure")
}

fn main() {
    let pool = WorkerPool::from_env();
    let workers = pool.workers();
    let shards = workers.max(8);
    println!("exposure_smoke: {workers} workers, {shards} shards");

    let view = Cluster::synthetic(HOSTS, SEED).with_compat_percent(COMPAT_PCT);
    let events = year_feed();
    let weights = SurfaceWeights::calibrated(&dataset());
    let aware_cfg = ExposureConfig {
        weights,
        surface_aware: true,
        ..ExposureConfig::default()
    };
    let blind_cfg = ExposureConfig {
        surface_aware: false,
        ..aware_cfg
    };
    println!(
        "== {} hosts, {} VMs, {} disclosures over {HORIZON_DAYS} days ==",
        view.host_count(),
        view.vm_count(),
        events.len()
    );

    let aware = replay_feed(&view, &events, &aware_cfg, shards, &pool);
    let blind = replay_feed(&view, &events, &blind_cfg, shards, &pool);
    let cut_pct = (1.0 - aware.exposure_vm_days / blind.exposure_vm_days) * 100.0;
    let disruption_ratio =
        aware.disruption.as_secs_f64() / blind.disruption.as_secs_f64().max(1e-9);
    println!(
        "  aware: {:.0} VM-days exposure, {} remediated ({} escalated)",
        aware.exposure_vm_days, aware.remediated_events, aware.escalated_events
    );
    println!(
        "  blind: {:.0} VM-days exposure, {} remediated",
        blind.exposure_vm_days, blind.remediated_events
    );
    println!("  exposure cut {cut_pct:.1}%");

    // Incremental re-plan (one cached cost table) vs full re-plan (the
    // table rebuilt per disclosure — what a planner without the cache
    // would do on every feed event).
    let (incremental_ms, replay_ms, r) = time_incremental(&view, &events, aware_cfg, shards, &pool);
    assert_eq!(r.render(), aware.render(), "incremental replay diverged");
    let mut full_ms = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        for ev in &events {
            let planner = ExposurePlanner::with_pool(&view, aware_cfg, shards, &pool);
            let _ = planner.plan_event(ev);
        }
        full_ms = full_ms.min(ms(t));
    }
    let speedup = full_ms / incremental_ms.max(1e-6);
    let per_event_ms = incremental_ms / events.len().max(1) as f64;
    println!(
        "  replan: incremental {incremental_ms:.2} ms ({per_event_ms:.3} ms/event) vs \
         full {full_ms:.2} ms — speedup {speedup:.1}x"
    );

    // The same incremental replay over ten times the fleet: recorded, not
    // gated (a wall-clock ratio across fleet sizes is too noisy to floor).
    let large = Cluster::synthetic(LARGE_HOSTS, SEED).with_compat_percent(COMPAT_PCT);
    let (large_ms, large_replay_ms, large_report) =
        time_incremental(&large, &events, aware_cfg, shards, &pool);
    assert_eq!(large_report.events, events.len());
    let large_per_event_ms = large_ms / events.len().max(1) as f64;
    let per_event_ratio = large_per_event_ms / per_event_ms.max(1e-9);
    println!(
        "  replan at {LARGE_HOSTS} hosts: incremental {large_ms:.2} ms \
         ({large_per_event_ms:.3} ms/event, {per_event_ratio:.1}x the {HOSTS}-host cost; \
         replay alone {large_replay_ms:.2} ms vs {replay_ms:.2} ms)"
    );

    println!("== identity contracts ==");
    let again = replay_feed(&view, &events, &aware_cfg, shards, &pool);
    let deterministic = aware.render() == again.render();
    println!("  deterministic rerun:  {deterministic}");
    let base = replay_feed(&view, &events, &aware_cfg, 1, &WorkerPool::serial());
    let sharded = [(1usize, 4usize), (3, 1), (8, 4)].iter().all(|&(s, w)| {
        replay_feed(&view, &events, &aware_cfg, s, &WorkerPool::new(w)).render() == base.render()
    }) && base.render() == aware.render();
    println!("  shard x worker:       {sharded}");
    let feed_off = feed_off_identical(&pool, shards);
    println!("  feed-off exec render: {feed_off}");
    let empty = replay_feed(&view, &[], &aware_cfg, shards, &pool);
    let empty_ok =
        empty.events == 0 && empty.exposure_vm_days == 0.0 && empty.disruption == SimDuration::ZERO;
    println!("  empty feed no-op:     {empty_ok}");

    let out = Json::obj()
        .with("bench", json::s("exposure_smoke"))
        .with("hosts", json::u(HOSTS as u64))
        .with("vms", json::u(view.vm_count() as u64))
        .with("seed", json::u(SEED))
        .with("compat_pct", json::u(COMPAT_PCT as u64))
        .with("horizon_days", json::u(HORIZON_DAYS))
        .with("events", json::u(events.len() as u64))
        .with("reps", json::u(REPS as u64))
        .with("aware", feed_section(&aware))
        .with("blind", feed_section(&blind))
        .with(
            "aware_vs_blind",
            Json::obj()
                .with("exposure_cut_pct", json::f(cut_pct))
                .with("disruption_ratio", json::f(disruption_ratio)),
        )
        .with(
            "replan",
            Json::obj()
                .with("incremental_ms", json::f(incremental_ms))
                .with("per_event_ms", json::f(per_event_ms))
                .with("replay_ms", json::f(replay_ms))
                .with("full_ms", json::f(full_ms))
                .with("speedup", json::f(speedup))
                .with("workers", json::u(workers as u64))
                .with("shards", json::u(shards as u64)),
        )
        .with(
            "replan_large",
            Json::obj()
                .with("hosts", json::u(LARGE_HOSTS as u64))
                .with("incremental_ms", json::f(large_ms))
                .with("per_event_ms", json::f(large_per_event_ms))
                .with("replay_ms", json::f(large_replay_ms))
                .with("per_event_ratio", json::f(per_event_ratio)),
        )
        .with(
            "deterministic_identical",
            json::s(deterministic.to_string()),
        )
        .with("sharded_identical", json::s(sharded.to_string()))
        .with("feed_off_identical", json::s(feed_off.to_string()))
        .with("empty_feed_identical", json::s(empty_ok.to_string()));
    hypertp_bench::harness::finish(out);
}
