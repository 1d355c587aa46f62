//! `--check`: seconds, no timing. Equal seeds must give identical exact
//! metrics and per-layer counts, a different seed must change them, and
//! each workload must still be the size its name promises.

use crate::harness::{Iteration, Outcome, Res};
use crate::trace::{Counts, Trace};
use crate::workloads::Workload;

/// The seed the fingerprint below was taken with, and one that must differ.
const SEED: u64 = 42;
const OTHER_SEED: u64 = 43;

/// What each workload measures at [`SEED`]: the four simulated end-to-end
/// metrics, exactly, and the per-layer counts that size it — frame counts
/// by kind, rounds, PRAM entries, plan sizes. `BENCHMARK.json` can only
/// bound the simulated metrics loosely (the driver varies the seed, see the
/// README); this table is what holds them exact from commit to commit. A
/// change here is a change of workload or of the modelled system — every
/// number quoted from the benchmark before it stops being comparable — so
/// it belongs in an issue of its own, never in one that claims a gain.
const FINGERPRINT: [(Workload, &str, f64); 33] = [
    (Workload::MigrateBusy, "sim_window_s", 3.421987619),
    (Workload::MigrateBusy, "sim_downtime_ms", 5.493557),
    (Workload::MigrateBusy, "wire_bytes", 206_243_172.0),
    (
        Workload::MigrateBusy,
        "sim_exposure_vm_days",
        3.9606338182870366e-5,
    ),
    (Workload::MigrateBusy, "migrate.wire.frames_zero", 196_608.0),
    (Workload::MigrateBusy, "migrate.wire.frames_dup", 16_383.0),
    (Workload::MigrateBusy, "migrate.wire.frames_delta", 16_739.0),
    (Workload::MigrateBusy, "migrate.wire.frames_raw", 49_153.0),
    (Workload::MigrateBusy, "migrate.engine.rounds", 30.0),
    (Workload::ProxyRawUds, "sim_window_s", 2.257416199),
    (Workload::ProxyRawUds, "sim_downtime_ms", 5.458435),
    (Workload::ProxyRawUds, "wire_bytes", 71_426_952.0),
    (
        Workload::ProxyRawUds,
        "sim_exposure_vm_days",
        2.6127502303240742e-5,
    ),
    (Workload::ProxyRawUds, "migrate.wire.frames_zero", 245_760.0),
    (Workload::ProxyRawUds, "migrate.wire.frames_dup", 0.0),
    (Workload::ProxyRawUds, "migrate.wire.frames_delta", 4_433.0),
    (Workload::ProxyRawUds, "migrate.wire.frames_raw", 16_384.0),
    (Workload::ProxyRawUds, "migrate.proxy.rounds", 30.0),
    (Workload::InplaceDense, "sim_window_s", 13.09903072),
    (Workload::InplaceDense, "sim_downtime_ms", 5624.02384),
    (Workload::InplaceDense, "wire_bytes", 139_400.0),
    (
        Workload::InplaceDense,
        "sim_exposure_vm_days",
        0.0018193098222222222,
    ),
    (Workload::InplaceDense, "pram.fs.entries", 12_325.0),
    (Workload::InplaceDense, "uisr.codec.bytes", 139_400.0),
    (Workload::InplaceDense, "machine.scrubbed_frames", 100.0),
    (Workload::CampaignFeed, "sim_window_s", 220593.909365244),
    (Workload::CampaignFeed, "sim_downtime_ms", 278433.18741),
    (Workload::CampaignFeed, "wire_bytes", 130_770_913_625_845.0),
    (
        Workload::CampaignFeed,
        "sim_exposure_vm_days",
        71228777.40358001,
    ),
    (Workload::CampaignFeed, "vulndb.feed.events", 37.0),
    (
        Workload::CampaignFeed,
        "cluster.planner.migrations",
        30_044.0,
    ),
    (Workload::CampaignFeed, "cluster.planner.inplace", 10_000.0),
    (
        Workload::CampaignFeed,
        "cluster.exposure.deferred_share",
        14.0 / 37.0,
    ),
];

/// One traced, untimed iteration (op and staged replay) on inputs
/// generated afresh from `seed`.
fn observe(workload: Workload, seed: u64) -> Res<(Outcome, Counts)> {
    let mut trace = Trace::new(true);
    trace.begin_op(0);
    let outcome = workload
        .scenario(seed)
        .iterate(&mut Iteration::new(&mut trace, None))?;
    Ok((outcome, trace.take_counts().0))
}

pub fn check() -> Res<()> {
    let mut wrong = 0;
    for workload in Workload::ALL {
        let name = workload.name();
        let (outcome, counts) = observe(workload, SEED)?;
        if observe(workload, SEED)? != (outcome.clone(), counts.clone()) {
            println!("{name}: two runs of seed {SEED} disagree");
            wrong += 1;
        }
        let (other, _) = observe(workload, OTHER_SEED)?;
        if other.sim_window_s == outcome.sim_window_s
            || other.sim_downtime_ms == outcome.sim_downtime_ms
            || other.digest == outcome.digest
        {
            println!("{name}: seed {OTHER_SEED} reads like seed {SEED}: {other:?}");
            wrong += 1;
        }
        let mut measured = counts.clone();
        measured.extend(outcome.simulated());
        for (_, metric, pinned) in FINGERPRINT.iter().filter(|f| f.0 == workload) {
            let found = measured.get(metric).copied().unwrap_or(f64::NAN);
            if found != *pinned {
                println!("{name}: {metric} is {found:?}, pinned {pinned:?}");
                wrong += 1;
            }
        }
        println!("{name}: checked ({} counts, {outcome:?})", counts.len());
    }
    if wrong > 0 {
        return Err(format!("--check: {wrong} mismatches").into());
    }
    println!("--check: ok");
    Ok(())
}
