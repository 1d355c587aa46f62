//! The metric tables — the names and units `BENCHMARK.json` declares —
//! and the result line the driver reads.

use hypertp_sim::json::{self, Json};

/// End-to-end metrics, gated: `(name, unit)`. All lower-is-better. The
/// first two are host time in *nominal* units (see `calibrate`), the
/// third is memory, the rest are simulated and exact for a given seed.
///
/// `fail_share` is not here: the driver refuses a metric that can read 0,
/// and the result line carries `attempted` and `failed` itself.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("sim_window_s", "s"),
    ("sim_downtime_ms", "ms"),
    ("wire_bytes", "B"),
    ("sim_exposure_vm_days", "VM-days"),
];

/// How a per-layer metric is derived from the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// p10 over ops of the summed self time of the spans named like the
    /// metric minus its `_ms` suffix, in nominal milliseconds.
    SelfMs,
    /// A per-op count that must repeat exactly; op 0's value.
    Count,
    /// A per-op measurement; the median over ops.
    Gauge,
    /// Computed by the run loop itself.
    Bench,
}

/// Per-layer metrics, ungated: `(name, unit, derivation)`. Every workload
/// prints all of them; one that does not exercise a layer prints 0.
pub const PER_LAYER: [(&str, &str, Layer); 70] = [
    ("machine.ram.gather_ms", "ms", Layer::SelfMs),
    ("machine.ram.pages_read", "count", Layer::Count),
    ("machine.ram.checksum_ms", "ms", Layer::SelfMs),
    ("sim.hash.digest_ms", "ms", Layer::SelfMs),
    ("sim.hash.pages", "count", Layer::Count),
    ("migrate.wire.encode_ms", "ms", Layer::SelfMs),
    ("migrate.wire.frames_zero", "count", Layer::Count),
    ("migrate.wire.frames_dup", "count", Layer::Count),
    ("migrate.wire.frames_delta", "count", Layer::Count),
    ("migrate.wire.frames_raw", "count", Layer::Count),
    ("migrate.wire.dedup_hit_ratio", "ratio", Layer::Count),
    ("migrate.wire.evictions", "count", Layer::Count),
    ("migrate.wire.cache_occupancy", "count", Layer::Count),
    ("migrate.wire.apply_ms", "ms", Layer::SelfMs),
    ("migrate.wire.frames_applied", "count", Layer::Count),
    ("migrate.framing.ring_ms", "ms", Layer::SelfMs),
    ("migrate.framing.bytes", "B", Layer::Count),
    ("migrate.transport.send_ms", "ms", Layer::SelfMs),
    ("migrate.transport.recv_wait_ms", "ms", Layer::SelfMs),
    ("migrate.transport.frames", "count", Layer::Count),
    ("migrate.transport.bytes", "B", Layer::Count),
    ("migrate.proxy.session_ms", "ms", Layer::SelfMs),
    ("migrate.proxy.rounds", "count", Layer::Count),
    ("migrate.proxy.naks", "count", Layer::Count),
    ("migrate.engine.migrate_ms", "ms", Layer::SelfMs),
    ("migrate.engine.rounds", "count", Layer::Count),
    ("migrate.engine.stop_pages", "count", Layer::Count),
    ("migrate.engine.forced_stop", "count", Layer::Count),
    ("xen.xlate.save_ms", "ms", Layer::SelfMs),
    ("xen.xlate.restore_ms", "ms", Layer::SelfMs),
    ("kvm.xlate.save_ms", "ms", Layer::SelfMs),
    ("kvm.xlate.restore_ms", "ms", Layer::SelfMs),
    ("uisr.codec.encode_ms", "ms", Layer::SelfMs),
    ("uisr.codec.decode_ms", "ms", Layer::SelfMs),
    ("uisr.codec.bytes", "B", Layer::Count),
    ("pram.fs.build_ms", "ms", Layer::SelfMs),
    ("pram.fs.parse_ms", "ms", Layer::SelfMs),
    ("pram.fs.entries", "count", Layer::Count),
    ("pram.fs.metadata_bytes", "B", Layer::Count),
    ("machine.kexec_ms", "ms", Layer::SelfMs),
    ("machine.scrubbed_frames", "count", Layer::Count),
    ("core.inplace.run_ms", "ms", Layer::SelfMs),
    ("core.inplace.sim_pram_s", "s", Layer::Count),
    ("core.inplace.sim_translation_s", "s", Layer::Count),
    ("core.inplace.sim_reboot_s", "s", Layer::Count),
    ("core.inplace.sim_restoration_s", "s", Layer::Count),
    ("vulndb.feed.replay_ms", "ms", Layer::SelfMs),
    ("vulndb.feed.events", "count", Layer::Count),
    ("vulndb.policy.decide_ms", "ms", Layer::SelfMs),
    ("cluster.model.synth_ms", "ms", Layer::SelfMs),
    ("cluster.exposure.table_ms", "ms", Layer::SelfMs),
    ("cluster.exposure.plan_event_ms", "ms", Layer::SelfMs),
    ("cluster.exposure.deferred_share", "ratio", Layer::Count),
    ("cluster.planner.plan_ms", "ms", Layer::SelfMs),
    ("cluster.planner.migrations", "count", Layer::Count),
    ("cluster.planner.inplace", "count", Layer::Count),
    ("cluster.exec.exec_ms", "ms", Layer::SelfMs),
    ("cluster.exec.shards", "count", Layer::Count),
    ("sim.pool.workers", "count", Layer::Count),
    ("sim.pool.parallel_eff", "ratio", Layer::Gauge),
    ("bench.build_ms", "ms", Layer::SelfMs),
    ("bench.op_cpu_ms", "ms", Layer::Bench),
    ("bench.op_wall_p50_ms", "ms", Layer::Bench),
    ("bench.op_wall_p90_ms", "ms", Layer::Bench),
    ("bench.ref_ms", "ms", Layer::Bench),
    ("bench.init_ms", "ms", Layer::Bench),
    ("bench.trace_overhead", "ratio", Layer::Bench),
    ("bench.coverage", "ratio", Layer::Bench),
    ("bench.samples", "count", Layer::Bench),
    ("bench.fail_share", "ratio", Layer::Bench),
];

/// The last line of standard output: one JSON object with exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let mut obj = Json::obj();
    for &(name, unit, value) in metrics {
        obj.push(
            name,
            Json::obj()
                .with("value", json::f(value))
                .with("unit", json::s(unit)),
        );
    }
    Json::obj()
        .with("correct", Json::Bool(failed == 0))
        .with("attempted", json::u(attempted))
        .with("failed", json::u(failed))
        .with("metrics", obj)
        .encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_every_digit() {
        let line = result_line(
            120,
            0,
            &[
                ("op_ms", "ms", 331.204_917_553_1),
                ("wire_bytes", "B", 206_157_365.0),
            ],
        );
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(120));
        let op = doc.get("metrics").and_then(|m| m.get("op_ms")).unwrap();
        assert_eq!(
            op.get("value").and_then(Json::as_f64),
            Some(331.204_917_553_1)
        );
        assert_eq!(op.get("unit").and_then(Json::as_str), Some("ms"));
        let wire = doc
            .get("metrics")
            .and_then(|m| m.get("wire_bytes"))
            .unwrap();
        assert_eq!(
            wire.get("value").and_then(Json::as_f64),
            Some(206_157_365.0)
        );
        assert_eq!(
            Json::parse(&result_line(3, 1, &[])).unwrap().get("correct"),
            Some(&Json::Bool(false))
        );
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    /// `BENCHMARK.json` at the repo root must declare exactly these tables.
    #[test]
    fn benchmark_json_declares_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
        // The driver refuses a `why` of more than one line or 200 characters.
        for w in workloads {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(why.chars().count() <= 200 && !why.contains('\n'), "{why}");
        }
    }
}
