//! Minimal in-tree timing harness replacing the Criterion benches, and the
//! one gate table every `*_smoke` artifact is checked against.
//!
//! The workspace builds fully offline, so the four `[[bench]]` targets
//! (`inplace_breakdown`, `pram_encode`, `uisr_codec`,
//! `ablation_optimizations`) run on this ~100-line harness instead of
//! Criterion. It keeps the familiar group/bench-id shape and prints a
//! small table of min/median/mean per benchmark over ten timed
//! iterations after one warmup.
//!
//! Every smoke bin ends in [`finish`], which checks the artifact where the
//! numbers are made: each `identical`/`*_identical` field must read
//! `"true"` (and there must be one), and each row of [`GATES`] for that
//! bench must hold. The artifact is written with the evaluated rows under
//! `gates`; any violation exits non-zero, one line each.

use std::fmt;
use std::time::{Duration, Instant};

use hypertp_sim::json::{self, Json};

/// One benchmark's timing summary.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// `group/id` label.
    pub id: String,
    /// Number of measured iterations.
    pub samples: usize,
    /// Fastest iteration.
    pub min: Duration,
    /// Median iteration.
    pub median: Duration,
    /// Mean iteration.
    pub mean: Duration,
}

/// Timed iterations per benchmark.
const SAMPLES: usize = 10;

/// A named group of benchmarks, mirroring Criterion's `benchmark_group`.
pub struct Group {
    name: String,
    results: Vec<BenchResult>,
}

impl Group {
    /// Starts a new group.
    pub fn new(name: impl Into<String>) -> Self {
        Group {
            name: name.into(),
            results: Vec::new(),
        }
    }

    /// Times `f` for `SAMPLES` iterations after one warmup iteration.
    pub fn bench(&mut self, id: impl Into<String>, mut f: impl FnMut()) {
        let id = format!("{}/{}", self.name, id.into());
        f(); // warmup
        let mut times: Vec<Duration> = (0..SAMPLES)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed()
            })
            .collect();
        times.sort_unstable();
        let min = times[0];
        let median = times[times.len() / 2];
        let mean = times.iter().sum::<Duration>() / times.len() as u32;
        let r = BenchResult {
            id,
            samples: times.len(),
            min,
            median,
            mean,
        };
        println!(
            "{:<44} {:>10} {:>10} {:>10}  ({} samples)",
            r.id,
            fmt_dur(r.min),
            fmt_dur(r.median),
            fmt_dur(r.mean),
            r.samples
        );
        self.results.push(r);
    }

    /// Times `run` over a fresh `setup()` product per iteration, excluding
    /// setup time — Criterion's `iter_batched` for owned inputs.
    pub fn bench_with_setup<T>(
        &mut self,
        id: impl Into<String>,
        mut setup: impl FnMut() -> T,
        mut run: impl FnMut(T),
    ) {
        let id = format!("{}/{}", self.name, id.into());
        run(setup()); // warmup
        let mut times: Vec<Duration> = (0..SAMPLES)
            .map(|_| {
                let input = setup();
                let t = Instant::now();
                run(input);
                t.elapsed()
            })
            .collect();
        times.sort_unstable();
        let min = times[0];
        let median = times[times.len() / 2];
        let mean = times.iter().sum::<Duration>() / times.len() as u32;
        let r = BenchResult {
            id,
            samples: times.len(),
            min,
            median,
            mean,
        };
        println!(
            "{:<44} {:>10} {:>10} {:>10}  ({} samples)",
            r.id,
            fmt_dur(r.min),
            fmt_dur(r.median),
            fmt_dur(r.mean),
            r.samples
        );
        self.results.push(r);
    }

    /// Finishes the group, returning the collected results.
    pub fn finish(self) -> Vec<BenchResult> {
        self.results
    }
}

/// Prints the standard table header. Call once per bench binary.
pub fn header() {
    println!(
        "{:<44} {:>10} {:>10} {:>10}",
        "benchmark", "min", "median", "mean"
    );
    println!("{}", "-".repeat(80));
}

fn fmt_dur(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Every bench bin that writes an artifact, with the file it writes by
/// default; `<BENCH>_OUT` (e.g. `PERF_SMOKE_OUT`) overrides the path.
pub const ARTIFACTS: [(&str, &str); 9] = [
    ("perf_smoke", "BENCH_parallel.json"),
    ("wire_smoke", "BENCH_wire.json"),
    ("adaptive_smoke", "BENCH_adaptive.json"),
    ("inplace_smoke", "BENCH_inplace.json"),
    ("campaign_smoke", "BENCH_campaign.json"),
    ("rehype_smoke", "BENCH_rehype.json"),
    ("slo_smoke", "BENCH_slo.json"),
    ("exposure_smoke", "BENCH_exposure.json"),
    ("chaos_smoke", "BENCH_chaos.json"),
];

/// How a gate row compares its value with its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Ge,
    Le,
    Lt,
    Gt,
}

impl Op {
    fn holds(self, value: f64, bound: f64) -> bool {
        match self {
            Ge => value >= bound,
            Le => value <= bound,
            Lt => value < bound,
            Gt => value > bound,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Ge => ">=",
            Le => "<=",
            Lt => "<",
            Gt => ">",
        })
    }
}

/// What a gate row's value is compared with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A constant.
    Value(f64),
    /// The number at another dotted path of the same artifact, plus
    /// `plus`, raised to at least `min`.
    Field {
        path: &'static str,
        plus: f64,
        min: f64,
    },
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Value(v) => write!(f, "{v}"),
            Bound::Field { path, plus, min } => {
                let sum = if plus < 0.0 {
                    format!("{path} - {}", -plus)
                } else if plus > 0.0 {
                    format!("{path} + {plus}")
                } else {
                    path.to_string()
                };
                if min.is_finite() {
                    write!(f, "max({sum}, {min})")
                } else {
                    f.write_str(&sum)
                }
            }
        }
    }
}

/// What a gated number measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Simulated time, bytes or counts: identical on every machine.
    Sim,
    /// A ratio of wall-clock timings taken in one process: the machine's
    /// speed cancels, and the bound leaves a wide margin for noise.
    Wall,
}

/// One gate row: in an artifact whose `"bench"` is `bench`, the number at
/// the dotted `path` must satisfy `op bound`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    pub bench: &'static str,
    pub path: &'static str,
    pub op: Op,
    pub bound: Bound,
    pub kind: Kind,
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.path, self.op, self.bound)
    }
}

use Bound::Value;
use Kind::{Sim, Wall};
use Op::{Ge, Gt, Le, Lt};

const fn gate(bench: &'static str, path: &'static str, op: Op, bound: Bound, kind: Kind) -> Gate {
    Gate {
        bench,
        path,
        op,
        bound,
        kind,
    }
}

const fn field(path: &'static str, plus: f64, min: f64) -> Bound {
    Bound::Field { path, plus, min }
}

/// The committed floor and ceiling of every beyond-paper headline. Each
/// value lives here and nowhere else.
#[rustfmt::skip]
pub const GATES: [Gate; 19] = [
    // The content-aware wire keeps at least 30 % of raw page bytes off the
    // fabric, on perf_smoke's migration batch and on the idle fleet.
    gate("perf_smoke", "migrate_many.wire_reduction_pct", Ge, Value(30.0), Sim),
    gate("wire_smoke", "idle_fleet.wire_reduction_pct", Ge, Value(30.0), Sim),
    // Frame-ownership bookkeeping costs less than the integrity checksums
    // over the memory it keeps (word-wise bitmaps read 0.4, per-frame flags
    // 1.5).
    gate("perf_smoke", "inplace_ownership.ratio", Le, Value(0.75), Wall),
    // Encoding at 4× the dedup cap keeps a tenth of the 0.5× throughput
    // (measured 0.35–0.68; a victim search that scans the map reads 0.01).
    gate("wire_smoke", "eviction_sweep.throughput_ratio", Ge, Value(0.1), Wall),
    // Auto-converge cuts the fleet's mean downtime without lengthening the
    // campaign, the budgeted run respects its budget, and SPDF admission
    // beats FIFO on mean VM-ready time.
    gate("adaptive_smoke", "adaptive_vs_static.mean_downtime_cut_pct", Ge, Value(25.0), Sim),
    gate("adaptive_smoke", "adaptive_vs_static.makespan_ratio", Le, Value(1.01), Sim),
    gate("adaptive_smoke", "budget.max_downtime_ms", Le, field("budget.budget_ms", 0.0, f64::NEG_INFINITY), Sim),
    gate("adaptive_smoke", "scheduler.ready_cut_pct", Gt, Value(0.0), Sim),
    // The dirty-delta finalize cuts the hot fleet's mean downtime vs
    // +parallel; idle guests, the warm loop's best case, cut as deep.
    gate("inplace_smoke", "incremental_vs_parallel.hot_mean_downtime_cut_pct", Ge, Value(25.0), Sim),
    gate("inplace_smoke", "incremental_vs_parallel.idle_mean_downtime_cut_pct", Ge,
         field("incremental_vs_parallel.hot_mean_downtime_cut_pct", -1.0, f64::NEG_INFINITY), Sim),
    // Plan + exec scale near-linearly from 1k to 10k hosts, and the class
    // memo beats per-host evaluation at 1k hosts (≈ 4× on one core).
    gate("campaign_smoke", "scaling.fitted_exponent", Le, Value(1.2), Wall),
    gate("campaign_smoke", "sharded_1k.speedup", Ge, Value(1.2), Wall),
    // Warm checkpoints beat the cold salvage-translate at every crash
    // phase, and checkpoint lag stays below the staleness bound.
    gate("rehype_smoke", "warm_vs_cold.min_cut_pct", Ge, Value(25.0), Sim),
    gate("rehype_smoke", "loss.max_lag_pages", Lt, field("loss.bound_pages", 0.0, 1.0), Sim),
    // SLO-aware admission cuts violation-seconds vs blind SPDF at a bounded
    // makespan price, and no VM exhausts its error budget.
    gate("slo_smoke", "slo_vs_blind.violation_cut_pct", Ge, Value(30.0), Sim),
    gate("slo_smoke", "slo_vs_blind.makespan_ratio", Le, Value(1.10), Sim),
    gate("slo_smoke", "budget.aware_max_burn", Le, Value(1.0), Sim),
    // Surface-aware planning cuts integrated exposure vs the blind
    // baseline, and the cached cost table beats a per-event rebuild (which
    // is ≈ 37× the work for 37 disclosures).
    gate("exposure_smoke", "aware_vs_blind.exposure_cut_pct", Ge, Value(30.0), Sim),
    gate("exposure_smoke", "replan.speedup", Ge, Value(5.0), Wall),
];

/// The number at a dotted path, or why there is none.
fn number(artifact: &Json, path: &str) -> Result<f64, String> {
    let node = path
        .split('.')
        .try_fold(artifact, |node, key| node.get(key))
        .ok_or_else(|| format!("missing {path}"))?;
    node.as_f64()
        .ok_or_else(|| format!("{path} is not a number"))
}

/// Collects every field keyed `identical` or `*_identical`, recursing
/// through objects.
fn identity_fields<'a>(prefix: &str, json: &'a Json, out: &mut Vec<(String, &'a Json)>) {
    for (key, value) in json.as_obj().unwrap_or_default() {
        let path = if prefix.is_empty() {
            key.clone()
        } else {
            format!("{prefix}.{key}")
        };
        if key == "identical" || key.ends_with("_identical") {
            out.push((path.clone(), value));
        }
        identity_fields(&path, value, out);
    }
}

/// Checks `artifact` against the identity rule and its bench's rows of
/// [`GATES`]: returns the evaluated rows (the artifact's `gates` array)
/// and one message per violation.
pub fn check(artifact: &Json) -> (Json, Vec<String>) {
    check_rows(artifact, &GATES)
}

fn check_rows(artifact: &Json, rows: &[Gate]) -> (Json, Vec<String>) {
    let mut violations = Vec::new();
    let bench = artifact
        .get("bench")
        .and_then(Json::as_str)
        .unwrap_or_default();
    if !ARTIFACTS.iter().any(|&(b, _)| b == bench) {
        violations.push(format!("unknown bench {bench:?}"));
    }
    let mut identity = Vec::new();
    identity_fields("", artifact, &mut identity);
    if identity.is_empty() {
        violations.push("no identical fields found".to_string());
    }
    for (path, value) in identity {
        if value.as_str() != Some("true") {
            violations.push(format!("{path} = {}, expected \"true\"", value.encode()));
        }
    }
    let mut gates = Vec::new();
    for row in rows.iter().filter(|r| r.bench == bench) {
        let value = number(artifact, row.path);
        let bound = match row.bound {
            Value(v) => Ok(v),
            Bound::Field { path, plus, min } => number(artifact, path).map(|b| (b + plus).max(min)),
        };
        let pass = match (&value, &bound) {
            (Ok(v), Ok(b)) if row.op.holds(*v, *b) => true,
            (Ok(v), Ok(b)) => {
                violations.push(format!("{} = {v}, needs {} {b} ({row})", row.path, row.op));
                false
            }
            (Err(e), _) | (_, Err(e)) => {
                violations.push(format!("{e} ({row})"));
                false
            }
        };
        let num = |r: Result<f64, String>| r.map_or(Json::Null, json::f);
        gates.push(
            Json::obj()
                .with("row", json::s(row.to_string()))
                .with(
                    "kind",
                    json::s(if row.kind == Sim { "sim" } else { "wall" }),
                )
                .with("value", num(value))
                .with("bound", num(bound))
                .with("verdict", json::s(if pass { "pass" } else { "fail" })),
        );
    }
    (json::arr(gates), violations)
}

/// Ends a smoke bin: checks `artifact` (see [`check`]), writes it with its
/// `gates` array to `$<BENCH>_OUT` or the bench's default file, and exits
/// non-zero, one line per violation, if anything failed.
pub fn finish(artifact: Json) {
    let (gates, violations) = check(&artifact);
    let bench = artifact
        .get("bench")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    for g in gates.as_arr().unwrap_or_default() {
        let text = |key: &str| g.get(key).and_then(Json::as_str).unwrap_or_default();
        let value = g.get("value").map(Json::encode).unwrap_or_default();
        println!("  gate {}: {value} -> {}", text("row"), text("verdict"));
    }
    if let Some(&(_, default)) = ARTIFACTS.iter().find(|&&(b, _)| b == bench) {
        let path = std::env::var(format!("{}_OUT", bench.to_uppercase()))
            .unwrap_or_else(|_| default.to_string());
        let out = artifact.with("gates", gates);
        std::fs::write(&path, out.encode_pretty()).expect("write artifact");
        println!("wrote {path}");
    }
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("{bench}: FAIL: {v}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_collects_results() {
        let mut g = Group::new("t");
        g.bench("noop", || {});
        g.bench_with_setup("setup", || 41u32, |x| assert_eq!(x + 1, 42));
        let rs = g.finish();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].id, "t/noop");
        assert_eq!(rs[0].samples, SAMPLES);
        assert_eq!(rs[1].samples, SAMPLES);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_dur(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_dur(Duration::from_micros(3)), "3.00 µs");
        assert_eq!(fmt_dur(Duration::from_millis(7)), "7.00 ms");
        assert_eq!(fmt_dur(Duration::from_secs(2)), "2.00 s");
    }

    /// A `wire_smoke` artifact holding `{"a": {"x": x, "b": b}}` and one
    /// true identity field.
    fn synthetic(x: f64, b: f64) -> Json {
        Json::obj()
            .with("bench", json::s("wire_smoke"))
            .with("a", Json::obj().with("x", json::f(x)).with("b", json::f(b)))
            .with("identical", json::s("true"))
    }

    fn violations(artifact: &Json, rows: &[Gate]) -> Vec<String> {
        check_rows(artifact, rows).1
    }

    #[test]
    fn each_op_passes_and_fails() {
        for (op, pass, fail) in [
            (Ge, 1.0, 0.9),
            (Le, 1.0, 1.1),
            (Lt, 0.9, 1.0),
            (Gt, 1.1, 1.0),
        ] {
            let row = gate("wire_smoke", "a.x", op, Value(1.0), Sim);
            assert_eq!(
                violations(&synthetic(pass, 0.0), &[row]),
                Vec::<String>::new()
            );
            let v = violations(&synthetic(fail, 0.0), &[row]);
            assert_eq!(v, [format!("a.x = {fail}, needs {op} 1 (a.x {op} 1)")]);
        }
        // A field bound adds its offset, then takes its minimum.
        let row = gate(
            "wire_smoke",
            "a.x",
            Ge,
            field("a.b", -1.0, f64::NEG_INFINITY),
            Sim,
        );
        assert!(violations(&synthetic(9.0, 10.0), &[row]).is_empty());
        assert_eq!(violations(&synthetic(8.5, 10.0), &[row]).len(), 1);
        let row = gate("wire_smoke", "a.x", Lt, field("a.b", 0.0, 1.0), Sim);
        assert!(violations(&synthetic(0.0, 0.0), &[row]).is_empty());
        assert_eq!(violations(&synthetic(1.0, 0.0), &[row]).len(), 1);
        assert_eq!(row.to_string(), "a.x < max(a.b, 1)");
    }

    #[test]
    fn a_missing_path_or_a_non_numeric_value_is_a_violation() {
        let missing = gate("wire_smoke", "a.y", Ge, Value(0.0), Sim);
        assert_eq!(
            violations(&synthetic(1.0, 0.0), &[missing]),
            ["missing a.y (a.y >= 0)"]
        );
        let bound = gate(
            "wire_smoke",
            "a.x",
            Ge,
            field("c", 0.0, f64::NEG_INFINITY),
            Sim,
        );
        assert_eq!(
            violations(&synthetic(1.0, 0.0), &[bound]),
            ["missing c (a.x >= c)"]
        );
        let text = synthetic(1.0, 0.0).with("s", json::s("fast"));
        let row = gate("wire_smoke", "s", Ge, Value(0.0), Sim);
        assert_eq!(violations(&text, &[row]), ["s is not a number (s >= 0)"]);
        let (gates, _) = check_rows(&text, &[row]);
        assert_eq!(
            gates.idx(0).and_then(|g| g.get("verdict")),
            Some(&json::s("fail"))
        );
        assert_eq!(gates.idx(0).and_then(|g| g.get("value")), Some(&Json::Null));
    }

    #[test]
    fn identity_fields_must_exist_and_read_true() {
        let nested =
            synthetic(1.0, 0.0).with("run", Json::obj().with("x_identical", json::s("false")));
        assert_eq!(
            violations(&nested, &[]),
            ["run.x_identical = \"false\", expected \"true\""]
        );
        let none = Json::obj().with("bench", json::s("wire_smoke"));
        assert_eq!(violations(&none, &[]), ["no identical fields found"]);
    }

    #[test]
    fn an_unknown_bench_is_a_violation() {
        let other = Json::obj()
            .with("bench", json::s("fig6_smoke"))
            .with("identical", json::s("true"));
        assert_eq!(violations(&other, &GATES), ["unknown bench \"fig6_smoke\""]);
    }

    /// The committed artifact of `bench`, parsed.
    fn committed(bench: &str) -> Json {
        let (_, file) = ARTIFACTS
            .iter()
            .find(|&&(b, _)| b == bench)
            .expect("known bench");
        let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// Sets (`Some`) or deletes (`None`) the number at a dotted path.
    fn set(json: &mut Json, path: &str, value: Option<f64>) {
        let Json::Obj(pairs) = json else {
            panic!("{path}: not an object")
        };
        let (key, rest) = path
            .split_once('.')
            .map_or((path, None), |(k, r)| (k, Some(r)));
        let at = pairs
            .iter()
            .position(|(k, _)| k == key)
            .expect("path exists");
        match (rest, value) {
            (Some(rest), _) => set(&mut pairs[at].1, rest, value),
            (None, Some(v)) => pairs[at].1 = json::f(v),
            (None, None) => {
                pairs.remove(at);
            }
        }
    }

    #[test]
    fn committed_artifacts_pass_and_every_row_fails_past_its_bound() {
        // Each gated bench's committed artifact stores exactly its bench's
        // rows, in table order: a row deleted from GATES (or added to it)
        // must not linger in (or be missing from) the artifact.
        for &(bench, file) in &ARTIFACTS {
            let rows: Vec<String> = GATES
                .iter()
                .filter(|r| r.bench == bench)
                .map(Gate::to_string)
                .collect();
            if rows.is_empty() {
                continue;
            }
            let artifact = committed(bench);
            let stored: Vec<&str> = artifact
                .get("gates")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|g| g.get("row").and_then(Json::as_str).unwrap_or_default())
                .collect();
            assert_eq!(stored, rows, "{file}: stored gate rows");
        }
        for row in &GATES {
            let artifact = committed(row.bench);
            let (gates, v) = check(&artifact);
            assert!(v.is_empty(), "{}: {v:?}", row.bench);
            let row_text = row.to_string();
            let entry = gates
                .as_arr()
                .and_then(|g| g.iter().find(|e| e.get("row") == Some(&json::s(&row_text))))
                .expect("evaluated");
            let bound = entry.get("bound").and_then(Json::as_f64).expect("bound");
            let past = match row.op {
                Ge => bound - 1.0,
                Gt | Lt => bound,
                Le => bound + 1.0,
            };
            let mut broken = artifact.clone();
            set(&mut broken, row.path, Some(past));
            let v = check(&broken).1;
            assert!(
                v.len() == 1 && v[0].ends_with(&format!("({row_text})")),
                "{row_text}: {v:?}"
            );
        }
    }

    #[test]
    fn a_wire_run_without_its_sweep_section_fails() {
        let mut run = committed("wire_smoke");
        set(&mut run, "eviction_sweep", None);
        let v = check(&run).1;
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("missing eviction_sweep."), "{v:?}");
    }
}
