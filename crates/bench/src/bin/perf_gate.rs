//! perf_gate: CI regression gate over the perf_smoke / adaptive_smoke
//! artifacts.
//!
//! Usage:
//!
//! ```text
//! perf_gate wire     <committed BENCH_wire.json>     <perf_smoke run 1> [...]
//! perf_gate adaptive <committed BENCH_adaptive.json> <adaptive_smoke run 1> [...]
//! perf_gate inplace  <committed BENCH_inplace.json>  <inplace_smoke run 1> [...]
//! perf_gate campaign <committed BENCH_campaign.json> <campaign_smoke run 1> [...]
//! perf_gate rehype   <committed BENCH_rehype.json>   <rehype_smoke run 1> [...]
//! perf_gate slo      <committed BENCH_slo.json>      <slo_smoke run 1> [...]
//! perf_gate exposure <committed BENCH_exposure.json> <exposure_smoke run 1> [...]
//! ```
//!
//! The mode is required: a missing or unknown mode is a usage error
//! (non-zero exit), never a silent fallback to some other gate.
//!
//! **wire**: CI runs `perf_smoke` twice (timings jitter; identity and
//! compression must not) plus one fresh `wire_smoke`, and hands the
//! artifacts here together with the *committed* `BENCH_wire.json`. The
//! gate fails — non-zero exit, one line per violation — when:
//!
//! 1. any `identical`-suffixed field in any run is not `"true"` (the
//!    worker pool or the wire codec changed results; for `wire_smoke`
//!    runs this covers the encode-wire-byte identity field too),
//! 2. any run's wire reduction (`migrate_many.wire_reduction_pct` for
//!    `perf_smoke` artifacts, `idle_fleet.wire_reduction_pct` for
//!    `wire_smoke` ones) falls below the committed artifact's
//!    `reduction_floor_pct` (the content-aware path stopped earning its
//!    keep),
//! 3. a run carrying an `encode` section (a `wire_smoke` artifact)
//!    reports `encode.speedup` below the committed
//!    `encode.speedup_floor` (the batch encode into the frame ring
//!    stopped beating the per-page `encode_page` path),
//! 4. a run carrying an `eviction_sweep` section (a `wire_smoke`
//!    artifact) reports `eviction_sweep.throughput_ratio` — pages/s at 4×
//!    the dedup cap over pages/s at 0.5×, one process — below the
//!    committed `eviction_sweep.ratio_floor` (evicting stopped being
//!    constant-time: the cliff is back), or
//! 5. a `perf_smoke` run reports `inplace_ownership.ratio` — seconds of
//!    frame-ownership bookkeeping over seconds of integrity checksums in
//!    one InPlaceTP leg, one process — above the committed
//!    `inplace_ownership.ratio_ceiling` (ownership went back to costing
//!    more than hashing the memory it keeps).
//!
//! **adaptive**: CI runs `adaptive_smoke` and hands the fresh artifact(s)
//! here with the committed `BENCH_adaptive.json`. A run fails when:
//!
//! 1. any `identical`-suffixed field is not `"true"` (the adaptive fleet
//!    stopped being deterministic),
//! 2. `adaptive_vs_static.mean_downtime_cut_pct` falls below the
//!    committed `downtime_cut_floor_pct` (adaptive-mode downtime
//!    regressed toward the static baseline),
//! 3. `adaptive_vs_static.makespan_ratio` exceeds 1.01 (the downtime win
//!    started costing total migration time),
//! 4. `budget.max_downtime_ms` exceeds `budget.budget_ms` (the downtime
//!    budget was violated on the reference fleet), or
//! 5. `scheduler.ready_cut_pct` is not positive (SPDF stopped beating
//!    FIFO admission).
//!
//! **inplace**: CI runs `inplace_smoke` and hands the fresh artifact(s)
//! here with the committed `BENCH_inplace.json`. A run fails when:
//!
//! 1. any `identical`-suffixed field is not `"true"` — this covers the
//!    deterministic rerun, the incremental-off identity (the toggle must
//!    stay inert by default), and the equal-restored-state check of the
//!    incremental-on path,
//! 2. `incremental_vs_parallel.hot_mean_downtime_cut_pct` falls below the
//!    committed `downtime_cut_floor_pct` (the dirty-delta finalize stopped
//!    shrinking the blackout on the hot fleet), or
//! 3. `incremental_vs_parallel.idle_mean_downtime_cut_pct` is below the
//!    hot cut by more than one point (idle guests must benefit at least
//!    as much as hot ones — the warm loop's best case).
//!
//! **campaign**: CI runs `campaign_smoke` (the 1k→10k-host sharded
//! campaign-engine sweep) and hands the fresh artifact(s) here with the
//! committed `BENCH_campaign.json`. A run fails when:
//!
//! 1. any `identical`-suffixed field is not `"true"` — this covers the
//!    baseline-vs-memoized report identity, the shard×worker identity,
//!    the deterministic rerun, and the campaign shard identity,
//! 2. `scaling.fitted_exponent` exceeds the committed
//!    `scaling_exponent_ceiling` (plan+exec stopped scaling
//!    near-linearly with fleet size), or
//! 3. `sharded_1k.speedup` falls below the committed `speedup_floor`
//!    (the sharded engine stopped beating the per-host-evaluation
//!    baseline at 1k hosts).
//!
//! **rehype**: CI runs `rehype_smoke` (the crash-triggered unplanned
//! transplant matrix) and hands the fresh artifact(s) here with the
//! committed `BENCH_rehype.json`. A run fails when:
//!
//! 1. any `identical`-suffixed field is not `"true"` (the crash-recovery
//!    rerun stopped being deterministic),
//! 2. `warm_vs_cold.min_cut_pct` falls below the committed
//!    `recovery_cut_floor_pct` (warm checkpoints stopped beating the
//!    cold salvage-translate ablation at some crash phase), or
//! 3. `loss.max_lag_pages` is not strictly below `loss.bound_pages`
//!    (the checkpointer's provable state-loss bound was violated).
//!
//! **slo**: CI runs `slo_smoke` (the 150-VM diurnal-fleet scheduler
//! comparison) and hands the fresh artifact(s) here with the committed
//! `BENCH_slo.json`. A run fails when:
//!
//! 1. any `identical`-suffixed field is not `"true"` — this covers the
//!    deterministic rerun, the shard×worker report identity, and the
//!    engine-level zero-traffic passthrough (an SLO attachment whose
//!    curve carries no bandwidth must not perturb the data path),
//! 2. `slo_vs_blind.violation_cut_pct` falls below the committed
//!    `violation_cut_floor_pct` (SLO-aware admission stopped beating the
//!    traffic-blind SPDF baseline),
//! 3. `slo_vs_blind.makespan_ratio` exceeds the committed
//!    `makespan_ratio_ceiling` (the violation cut started costing total
//!    campaign time), or
//! 4. `budget.aware_max_burn` exceeds 1.0 (some VM under the aware
//!    schedule burned its entire declared error budget).
//!
//! **exposure**: CI runs `exposure_smoke` (the 1k-host year-long
//! vulnerability-feed replay) and hands the fresh artifact(s) here with
//! the committed `BENCH_exposure.json`. A run fails when:
//!
//! 1. any `identical`-suffixed field is not `"true"` — this covers the
//!    deterministic rerun, the shard×worker replay identity, the
//!    feed-off executor-render identity (a report with no exposure
//!    attachment must keep the pre-feed byte format), and the empty-feed
//!    no-op,
//! 2. `aware_vs_blind.exposure_cut_pct` falls below the committed
//!    `exposure_cut_floor_pct` (surface-aware planning stopped beating
//!    the surface-blind baseline on integrated exposure), or
//! 3. `replan.speedup` falls below the committed `replan_speedup_floor`
//!    (the cached cost table stopped beating a per-disclosure rebuild).
//!
//! The gate deliberately ignores wall-clock fields: CI machines are too
//! noisy for absolute-time floors, but correctness, compression, and
//! *simulated* time are deterministic. (The campaign mode's exponent and
//! speedup are *ratios* of wall times measured in one process — scale
//! cancels, only the shape is gated, with wide committed margins.)

use std::process::ExitCode;

use hypertp_sim::json::Json;

/// Recursively collects `(path, value)` for every string field whose key
/// is `identical` or ends in `_identical`.
fn identity_fields(prefix: &str, json: &Json, out: &mut Vec<(String, String)>) {
    if let Some(fields) = json.as_obj() {
        for (key, value) in fields {
            let path = if prefix.is_empty() {
                key.clone()
            } else {
                format!("{prefix}.{key}")
            };
            if key == "identical" || key.ends_with("_identical") {
                if let Some(s) = value.as_str() {
                    out.push((path.clone(), s.to_string()));
                }
            }
            identity_fields(&path, value, out);
        }
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e:?}"))
}

/// Checks every `identical` field in `run` and reports how many there
/// were; pushes a violation per non-`"true"` value.
fn check_identity(path: &str, run: &Json, violations: &mut Vec<String>) -> usize {
    let mut fields = Vec::new();
    identity_fields("", run, &mut fields);
    if fields.is_empty() {
        violations.push(format!("{path}: no identical fields found"));
    }
    for (field, value) in &fields {
        if value != "true" {
            violations.push(format!("{path}: {field} = {value:?}, expected \"true\""));
        }
    }
    fields.len()
}

/// Fetches a float at a dotted path, pushing a violation when missing.
fn get_f64(path: &str, run: &Json, dotted: &str, violations: &mut Vec<String>) -> Option<f64> {
    let mut node = run;
    for part in dotted.split('.') {
        match node.get(part) {
            Some(next) => node = next,
            None => {
                violations.push(format!("{path}: missing {dotted}"));
                return None;
            }
        }
    }
    match node.as_f64() {
        Some(v) => Some(v),
        None => {
            violations.push(format!("{path}: {dotted} is not a number"));
            None
        }
    }
}

fn gate_wire(committed: &str, runs: &[String]) -> Vec<String> {
    let mut violations = Vec::new();
    let wire = match load(committed) {
        Ok(j) => j,
        Err(e) => return vec![e],
    };
    let Some(floor) = wire.get("reduction_floor_pct").and_then(Json::as_f64) else {
        return vec![format!("{committed}: missing reduction_floor_pct")];
    };
    // The encode and sweep floors live inside the committed artifact's
    // `encode` and `eviction_sweep` sections; older committed artifacts
    // without one simply skip check 3 or 4.
    let speedup_floor = wire
        .get("encode")
        .and_then(|e| e.get("speedup_floor"))
        .and_then(Json::as_f64);
    let sweep_floor = wire
        .get("eviction_sweep")
        .and_then(|e| e.get("ratio_floor"))
        .and_then(Json::as_f64);
    let Some(ownership_ceiling) = wire
        .get("inplace_ownership")
        .and_then(|e| e.get("ratio_ceiling"))
        .and_then(Json::as_f64)
    else {
        return vec![format!(
            "{committed}: missing inplace_ownership.ratio_ceiling"
        )];
    };

    for path in runs {
        let run = match load(path) {
            Ok(j) => j,
            Err(e) => {
                violations.push(e);
                continue;
            }
        };
        let before = violations.len();
        let n = check_identity(path, &run, &mut violations);
        // perf_smoke artifacts report the reduction under `migrate_many`;
        // wire_smoke artifacts under `idle_fleet`.
        let pct = run
            .get("migrate_many")
            .or_else(|| run.get("idle_fleet"))
            .and_then(|m| m.get("wire_reduction_pct"))
            .and_then(Json::as_f64);
        match pct {
            Some(pct) if pct < floor => violations.push(format!(
                "{path}: wire_reduction_pct {pct:.1} below committed floor {floor:.1}"
            )),
            Some(_) => {}
            None => violations.push(format!("{path}: missing wire_reduction_pct")),
        }
        let speedup = run
            .get("encode")
            .and_then(|e| e.get("speedup"))
            .and_then(Json::as_f64);
        if let (Some(speedup), Some(floor)) = (speedup, speedup_floor) {
            if speedup < floor {
                violations.push(format!(
                    "{path}: encode.speedup {speedup:.2}x below committed floor {floor:.2}x \
                     — the frame ring stopped beating the per-page encode path"
                ));
            }
        }
        let sweep = run
            .get("eviction_sweep")
            .and_then(|e| e.get("throughput_ratio"))
            .and_then(Json::as_f64);
        if let (Some(ratio), Some(floor)) = (sweep, sweep_floor) {
            if ratio < floor {
                violations.push(format!(
                    "{path}: eviction_sweep.throughput_ratio {ratio:.2} below committed floor \
                     {floor:.2} — encoding past the dedup cap fell off the eviction cliff"
                ));
            }
        }
        // Every perf_smoke artifact times the ownership leg.
        let ownership = run
            .get("inplace_ownership")
            .and_then(|e| e.get("ratio"))
            .and_then(Json::as_f64);
        match ownership {
            Some(ratio) if ratio > ownership_ceiling => violations.push(format!(
                "{path}: inplace_ownership.ratio {ratio:.2} above committed ceiling \
                 {ownership_ceiling:.2} — frame ownership costs more than hashing the memory \
                 it keeps"
            )),
            None if run.get("bench").and_then(Json::as_str) == Some("perf_smoke") => {
                violations.push(format!("{path}: missing inplace_ownership.ratio"));
            }
            _ => {}
        }
        if violations.len() == before {
            match speedup {
                Some(s) => println!(
                    "perf_gate: {path}: {n} identity fields ok, wire reduction {:.1}% >= \
                     floor {floor:.1}%, encode speedup {s:.2}x >= floor {:.2}x, eviction \
                     sweep ratio {:.2} >= floor {:.2}",
                    pct.unwrap_or(f64::NAN),
                    speedup_floor.unwrap_or(f64::NAN),
                    sweep.unwrap_or(f64::NAN),
                    sweep_floor.unwrap_or(f64::NAN),
                ),
                None => println!(
                    "perf_gate: {path}: {n} identity fields ok, wire reduction {:.1}% >= floor \
                     {floor:.1}%, ownership ratio {:.2} <= ceiling {ownership_ceiling:.2}",
                    pct.unwrap_or(f64::NAN),
                    ownership.unwrap_or(f64::NAN),
                ),
            }
        }
    }
    violations
}

fn gate_adaptive(committed: &str, runs: &[String]) -> Vec<String> {
    let mut violations = Vec::new();
    let base = match load(committed) {
        Ok(j) => j,
        Err(e) => return vec![e],
    };
    let Some(floor) = base.get("downtime_cut_floor_pct").and_then(Json::as_f64) else {
        return vec![format!("{committed}: missing downtime_cut_floor_pct")];
    };

    for path in runs {
        let run = match load(path) {
            Ok(j) => j,
            Err(e) => {
                violations.push(e);
                continue;
            }
        };
        let before = violations.len();
        let n = check_identity(path, &run, &mut violations);

        let cut = get_f64(
            path,
            &run,
            "adaptive_vs_static.mean_downtime_cut_pct",
            &mut violations,
        );
        if let Some(cut) = cut {
            if cut < floor {
                violations.push(format!(
                    "{path}: adaptive mean-downtime cut {cut:.1}% below committed floor {floor:.1}%"
                ));
            }
        }
        if let Some(ratio) = get_f64(
            path,
            &run,
            "adaptive_vs_static.makespan_ratio",
            &mut violations,
        ) {
            if ratio > 1.01 {
                violations.push(format!(
                    "{path}: adaptive makespan ratio {ratio:.4} > 1.01 — downtime win costs total time"
                ));
            }
        }
        let budget_ms = get_f64(path, &run, "budget.budget_ms", &mut violations);
        let max_ms = get_f64(path, &run, "budget.max_downtime_ms", &mut violations);
        if let (Some(budget_ms), Some(max_ms)) = (budget_ms, max_ms) {
            if max_ms > budget_ms {
                violations.push(format!(
                    "{path}: downtime budget violated: max {max_ms:.2} ms > budget {budget_ms:.2} ms"
                ));
            }
        }
        if let Some(ready_cut) = get_f64(path, &run, "scheduler.ready_cut_pct", &mut violations) {
            if ready_cut <= 0.0 {
                violations.push(format!(
                    "{path}: scheduler ready-time cut {ready_cut:.1}% is not positive"
                ));
            }
        }
        if violations.len() == before {
            println!(
                "perf_gate: {path}: {n} identity fields ok, downtime cut {:.1}% >= floor {floor:.1}%, \
                 budget {:.2}/{:.2} ms, scheduler cut {:.1}%",
                cut.unwrap_or(f64::NAN),
                max_ms.unwrap_or(f64::NAN),
                budget_ms.unwrap_or(f64::NAN),
                get_f64(path, &run, "scheduler.ready_cut_pct", &mut Vec::new())
                    .unwrap_or(f64::NAN),
            );
        }
    }
    violations
}

fn gate_inplace(committed: &str, runs: &[String]) -> Vec<String> {
    let mut violations = Vec::new();
    let base = match load(committed) {
        Ok(j) => j,
        Err(e) => return vec![e],
    };
    let Some(floor) = base.get("downtime_cut_floor_pct").and_then(Json::as_f64) else {
        return vec![format!("{committed}: missing downtime_cut_floor_pct")];
    };

    for path in runs {
        let run = match load(path) {
            Ok(j) => j,
            Err(e) => {
                violations.push(e);
                continue;
            }
        };
        let before = violations.len();
        let n = check_identity(path, &run, &mut violations);

        let hot_cut = get_f64(
            path,
            &run,
            "incremental_vs_parallel.hot_mean_downtime_cut_pct",
            &mut violations,
        );
        if let Some(cut) = hot_cut {
            if cut < floor {
                violations.push(format!(
                    "{path}: hot-fleet mean-downtime cut {cut:.1}% below committed floor {floor:.1}%"
                ));
            }
        }
        let idle_cut = get_f64(
            path,
            &run,
            "incremental_vs_parallel.idle_mean_downtime_cut_pct",
            &mut violations,
        );
        if let (Some(hot), Some(idle)) = (hot_cut, idle_cut) {
            if idle < hot - 1.0 {
                violations.push(format!(
                    "{path}: idle cut {idle:.1}% trails hot cut {hot:.1}% — the warm \
                     loop's best case regressed"
                ));
            }
        }
        if violations.len() == before {
            println!(
                "perf_gate: {path}: {n} identity fields ok, hot downtime cut {:.1}% >= \
                 floor {floor:.1}%, idle cut {:.1}%",
                hot_cut.unwrap_or(f64::NAN),
                idle_cut.unwrap_or(f64::NAN),
            );
        }
    }
    violations
}

fn gate_campaign(committed: &str, runs: &[String]) -> Vec<String> {
    let mut violations = Vec::new();
    let base = match load(committed) {
        Ok(j) => j,
        Err(e) => return vec![e],
    };
    let Some(ceiling) = base.get("scaling_exponent_ceiling").and_then(Json::as_f64) else {
        return vec![format!("{committed}: missing scaling_exponent_ceiling")];
    };
    let Some(speedup_floor) = base.get("speedup_floor").and_then(Json::as_f64) else {
        return vec![format!("{committed}: missing speedup_floor")];
    };

    for path in runs {
        let run = match load(path) {
            Ok(j) => j,
            Err(e) => {
                violations.push(e);
                continue;
            }
        };
        let before = violations.len();
        let n = check_identity(path, &run, &mut violations);

        let exponent = get_f64(path, &run, "scaling.fitted_exponent", &mut violations);
        if let Some(exp) = exponent {
            if exp > ceiling {
                violations.push(format!(
                    "{path}: fitted scaling exponent {exp:.3} above committed ceiling \
                     {ceiling:.2} — plan+exec stopped scaling near-linearly"
                ));
            }
        }
        let speedup = get_f64(path, &run, "sharded_1k.speedup", &mut violations);
        let workers = get_f64(path, &run, "sharded_1k.workers", &mut violations);
        if let (Some(speedup), Some(workers)) = (speedup, workers) {
            // The floor covers the single-core algorithmic win (the
            // class memo); with extra workers the thread win must at
            // least not reverse it.
            if speedup < speedup_floor {
                violations.push(format!(
                    "{path}: sharded 1k-host speedup {speedup:.2}x below committed floor \
                     {speedup_floor:.2}x (workers={workers})"
                ));
            }
        }
        if violations.len() == before {
            println!(
                "perf_gate: {path}: {n} identity fields ok, scaling exponent {:.3} <= \
                 ceiling {ceiling:.2}, 1k-host speedup {:.2}x >= floor {speedup_floor:.2}x",
                exponent.unwrap_or(f64::NAN),
                speedup.unwrap_or(f64::NAN),
            );
        }
    }
    violations
}

fn gate_rehype(committed: &str, runs: &[String]) -> Vec<String> {
    let mut violations = Vec::new();
    let base = match load(committed) {
        Ok(j) => j,
        Err(e) => return vec![e],
    };
    let Some(floor) = base.get("recovery_cut_floor_pct").and_then(Json::as_f64) else {
        return vec![format!("{committed}: missing recovery_cut_floor_pct")];
    };

    for path in runs {
        let run = match load(path) {
            Ok(j) => j,
            Err(e) => {
                violations.push(e);
                continue;
            }
        };
        let before = violations.len();
        let n = check_identity(path, &run, &mut violations);

        let min_cut = get_f64(path, &run, "warm_vs_cold.min_cut_pct", &mut violations);
        if let Some(cut) = min_cut {
            if cut < floor {
                violations.push(format!(
                    "{path}: warm-vs-cold recovery cut {cut:.1}% below committed floor \
                     {floor:.1}% at some crash phase"
                ));
            }
        }
        let max_lag = get_f64(path, &run, "loss.max_lag_pages", &mut violations);
        let bound = get_f64(path, &run, "loss.bound_pages", &mut violations);
        if let (Some(lag), Some(bound)) = (max_lag, bound) {
            if lag >= bound.max(1.0) {
                violations.push(format!(
                    "{path}: checkpoint lag {lag:.0} pages reached the staleness bound \
                     {bound:.0} — the state-loss bound no longer holds"
                ));
            }
        }
        if violations.len() == before {
            println!(
                "perf_gate: {path}: {n} identity fields ok, min recovery cut {:.1}% >= \
                 floor {floor:.1}%, max lag {:.0} < bound {:.0} pages",
                min_cut.unwrap_or(f64::NAN),
                max_lag.unwrap_or(f64::NAN),
                bound.unwrap_or(f64::NAN),
            );
        }
    }
    violations
}

fn gate_slo(committed: &str, runs: &[String]) -> Vec<String> {
    let mut violations = Vec::new();
    let base = match load(committed) {
        Ok(j) => j,
        Err(e) => return vec![e],
    };
    let Some(floor) = base.get("violation_cut_floor_pct").and_then(Json::as_f64) else {
        return vec![format!("{committed}: missing violation_cut_floor_pct")];
    };
    let Some(ceiling) = base.get("makespan_ratio_ceiling").and_then(Json::as_f64) else {
        return vec![format!("{committed}: missing makespan_ratio_ceiling")];
    };

    for path in runs {
        let run = match load(path) {
            Ok(j) => j,
            Err(e) => {
                violations.push(e);
                continue;
            }
        };
        let before = violations.len();
        let n = check_identity(path, &run, &mut violations);

        let cut = get_f64(
            path,
            &run,
            "slo_vs_blind.violation_cut_pct",
            &mut violations,
        );
        if let Some(cut) = cut {
            if cut < floor {
                violations.push(format!(
                    "{path}: SLO-violation cut {cut:.1}% below committed floor {floor:.1}% \
                     — aware admission stopped beating blind SPDF"
                ));
            }
        }
        let ratio = get_f64(path, &run, "slo_vs_blind.makespan_ratio", &mut violations);
        if let Some(ratio) = ratio {
            if ratio > ceiling {
                violations.push(format!(
                    "{path}: makespan ratio {ratio:.4} above committed ceiling {ceiling:.2} \
                     — the violation cut costs campaign time"
                ));
            }
        }
        let burn = get_f64(path, &run, "budget.aware_max_burn", &mut violations);
        if let Some(burn) = burn {
            if burn > 1.0 {
                violations.push(format!(
                    "{path}: aware max error-budget burn {burn:.2} exceeds 1.0 — some VM \
                     exhausted its budget under the aware schedule"
                ));
            }
        }
        if violations.len() == before {
            println!(
                "perf_gate: {path}: {n} identity fields ok, violation cut {:.1}% >= floor \
                 {floor:.1}%, makespan ratio {:.4} <= {ceiling:.2}, max burn {:.2} <= 1.0",
                cut.unwrap_or(f64::NAN),
                ratio.unwrap_or(f64::NAN),
                burn.unwrap_or(f64::NAN),
            );
        }
    }
    violations
}

fn gate_exposure(committed: &str, runs: &[String]) -> Vec<String> {
    let mut violations = Vec::new();
    let base = match load(committed) {
        Ok(j) => j,
        Err(e) => return vec![e],
    };
    let Some(floor) = base.get("exposure_cut_floor_pct").and_then(Json::as_f64) else {
        return vec![format!("{committed}: missing exposure_cut_floor_pct")];
    };
    let Some(speedup_floor) = base.get("replan_speedup_floor").and_then(Json::as_f64) else {
        return vec![format!("{committed}: missing replan_speedup_floor")];
    };

    for path in runs {
        let run = match load(path) {
            Ok(j) => j,
            Err(e) => {
                violations.push(e);
                continue;
            }
        };
        let before = violations.len();
        let n = check_identity(path, &run, &mut violations);

        let cut = get_f64(
            path,
            &run,
            "aware_vs_blind.exposure_cut_pct",
            &mut violations,
        );
        if let Some(cut) = cut {
            if cut < floor {
                violations.push(format!(
                    "{path}: integrated-exposure cut {cut:.1}% below committed floor \
                     {floor:.1}% — surface-aware planning stopped beating the blind baseline"
                ));
            }
        }
        let speedup = get_f64(path, &run, "replan.speedup", &mut violations);
        if let Some(speedup) = speedup {
            if speedup < speedup_floor {
                violations.push(format!(
                    "{path}: incremental re-plan speedup {speedup:.1}x below committed floor \
                     {speedup_floor:.1}x — the cached cost table stopped paying off"
                ));
            }
        }
        if violations.len() == before {
            println!(
                "perf_gate: {path}: {n} identity fields ok, exposure cut {:.1}% >= floor \
                 {floor:.1}%, replan speedup {:.1}x >= floor {speedup_floor:.1}x",
                cut.unwrap_or(f64::NAN),
                speedup.unwrap_or(f64::NAN),
            );
        }
    }
    violations
}

fn run() -> Result<(), Vec<String>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || {
        vec![
            "usage: perf_gate <wire|adaptive|inplace|campaign|rehype|slo|exposure> \
             <committed artifact> <fresh run...>"
                .to_string(),
        ]
    };
    let gate: fn(&str, &[String]) -> Vec<String> = match args.first().map(String::as_str) {
        Some("wire") => gate_wire,
        Some("adaptive") => gate_adaptive,
        Some("inplace") => gate_inplace,
        Some("campaign") => gate_campaign,
        Some("rehype") => gate_rehype,
        Some("slo") => gate_slo,
        Some("exposure") => gate_exposure,
        _ => return Err(usage()),
    };
    let rest = &args[1..];
    if rest.len() < 2 {
        return Err(usage());
    }
    let violations = gate(&rest[0], &rest[1..]);
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => {
            println!("perf_gate: all runs pass");
            ExitCode::SUCCESS
        }
        Err(violations) => {
            for v in &violations {
                eprintln!("perf_gate: FAIL: {v}");
            }
            ExitCode::FAILURE
        }
    }
}
