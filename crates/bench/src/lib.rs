//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§5).
//!
//! Each experiment lives in [`experiments`] as a function returning the
//! formatted rows/series the paper reports, registered by id in
//! [`experiments::all`]; the `exp` binary runs one
//! (`cargo run -p hypertp-bench --bin exp -- fig6`) or, as `exp all`, the
//! full suite in order. DESIGN.md carries the experiment index mapping
//! each id to the modules it exercises.

pub mod experiments;
pub mod harness;
pub mod table;

use hypertp_migrate::MigrationReport;
use hypertp_sim::json::{self, Json};

/// The standard two-hypervisor pool used by every experiment (the one
/// builder, [`hypertp_cluster::openstack::pool`]).
pub use hypertp_cluster::openstack::pool as registry;

/// Per-round controller telemetry of every report, as a JSON array: the
/// EWMA trajectory (dirty rate, drain rate, effective throughput,
/// compression), the stop-threshold trajectory, and the throttle in
/// force each round. Smoke benches attach this to their artifacts so
/// `BENCH_*.json` captures how the control plane behaved over rounds,
/// not just the end-state totals.
pub fn rounds_telemetry(reports: &[MigrationReport]) -> Json {
    json::arr(reports.iter().map(|r| {
        Json::obj().with("vm", json::s(r.vm_name.clone())).with(
            "rounds",
            json::arr(r.rounds.iter().map(|s| {
                Json::obj()
                    .with("pages", json::u(s.pages))
                    .with("dirtied", json::u(s.dirtied))
                    .with("dirty_rate_est", json::f(s.dirty_rate_est))
                    .with("drain_rate_est", json::f(s.drain_rate_est))
                    .with("throughput_est", json::f(s.throughput_est))
                    .with("compression_est", json::f(s.compression_est))
                    .with("stop_threshold", json::u(s.stop_threshold))
                    .with("throttle", json::f(s.throttle))
            })),
        )
    }))
}
