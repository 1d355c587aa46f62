//! The run protocol: one workload, one process.
//!
//! Closed loop, one op at a time: two untimed, verified warm-up ops → read
//! `VmHWM` → allocate the calibration buffers → iterate for `--seconds`
//! (and at least [`MIN_OPS`] ops). A traced run interleaves a plain and a
//! traced iteration, so the tracing overhead is measured inside one
//! process on one stretch of wall time.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::calibrate::{Calibrator, CAL_BYTES, CAL_MS};
use crate::harness::{Iteration, Outcome, Res, Scenario, Timing, SPAN_OP, SPAN_STAGED};
use crate::metrics::{result_line, Layer, END_TO_END, PER_LAYER};
use crate::proc::peak_rss_mib;
use crate::stats::{nominal_ms, quantile, tail_q, GATED_Q};
use crate::trace::{Counts, Trace};
use crate::workloads::Workload;

/// Fewest timed ops of an untraced run: p10 needs a population. A run that
/// has not got there by `--seconds` keeps going.
pub const MIN_OPS: usize = 50;
/// Fewest traced iterations of a traced run (each is a plain op, a traced
/// op and a staged replay).
pub const MIN_TRACED_OPS: usize = 10;
/// A run whose ops keep failing stops instead of looping.
const MAX_FAILURES: u64 = 20;
/// Where the span files go, relative to the repo root the benchmark runs
/// from (`benchmark/.gitignore` covers it).
const OUT_DIR: &str = "benchmark/out";

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// When the process started.
    pub started: Instant,
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// One iteration; `Err` carries why the op counts as failed.
fn iterate(
    scenario: &mut dyn Scenario,
    trace: &mut Trace,
    cal: Option<&mut Calibrator>,
    expected: Option<&Outcome>,
) -> Res<(Outcome, Timing)> {
    let mut it = Iteration::new(trace, cal);
    let outcome = scenario.iterate(&mut it)?;
    match expected {
        Some(e) if *e != outcome => {
            Err(format!("op returned {outcome:?}, op 0 returned {e:?}").into())
        }
        _ => Ok((outcome, it.timing)),
    }
}

/// Nominal self time per span name per op, and per op the share of the
/// whole op that the stage spans account for.
fn layer_times(trace: &Trace, timings: &[Timing]) -> (BTreeMap<&'static str, Vec<f64>>, Vec<f64>) {
    let spans = trace.spans();
    let ops = timings.len();
    // A span belongs to the root it descends from; parents precede children.
    let mut root: Vec<&'static str> = Vec::with_capacity(spans.len());
    for s in spans {
        root.push(s.parent.map_or(s.name, |p| root[p as usize]));
    }
    let has_staged = root.contains(&SPAN_STAGED);
    let coverage_root = if has_staged { SPAN_STAGED } else { SPAN_OP };
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut stage_ms = vec![0.0; ops];
    for ((s, self_ns), root) in spans.iter().zip(trace.self_ns()).zip(root) {
        let timing = &timings[s.op as usize];
        let reference = if root == SPAN_STAGED {
            timing.staged_ref_ns
        } else {
            timing.ref_ns
        };
        let self_ms = nominal_ms(self_ns as f64, reference);
        by_name.entry(s.name).or_insert_with(|| vec![0.0; ops])[s.op as usize] += self_ms;
        if root == coverage_root && s.parent.is_some() {
            stage_ms[s.op as usize] += self_ms;
        }
    }
    let coverage = stage_ms
        .iter()
        .zip(timings)
        .map(|(stage, t)| stage / nominal_ms(t.op_ns, t.ref_ns))
        .collect();
    (by_name, coverage)
}

fn column(timings: &[Timing], f: impl Fn(&Timing) -> f64) -> Vec<f64> {
    timings.iter().map(f).collect()
}

/// Everything the timed loop produced.
struct Samples {
    /// The outcome every op had to reproduce (the first warm-up op's).
    first: Outcome,
    peak_rss_mb: f64,
    init_ms: f64,
    /// Timings of the plain (untraced) ops.
    plain: Vec<Timing>,
    /// Timings of the traced iterations, their spans, op 0's counts and
    /// every op's gauges (all empty on an untraced run).
    traced: Vec<Timing>,
    trace: Trace,
    counts: Counts,
    gauges: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
    loop_s: f64,
}

fn measure(args: &RunArgs) -> Res<Samples> {
    let name = args.workload.name();
    let mut scenario = args.workload.scenario(args.seed);
    let init_ms = ms(args.started.elapsed().as_nanos() as f64);

    // Warm-up: a failure here is a broken benchmark, not a statistic.
    let mut off = Trace::new(false);
    let (first, _) = iterate(scenario.as_mut(), &mut off, None, None)
        .map_err(|e| format!("{name}: warm-up op failed: {e}"))?;
    iterate(scenario.as_mut(), &mut off, None, Some(&first))
        .map_err(|e| format!("{name}: warm-up op failed: {e}"))?;
    let peak_rss_mb = peak_rss_mib()?;
    let mut cal = Calibrator::new();
    cal.run();

    let mut s = Samples {
        first,
        peak_rss_mb,
        init_ms,
        plain: Vec::new(),
        traced: Vec::new(),
        trace: Trace::new(args.trace),
        counts: Counts::new(),
        gauges: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        loop_s: 0.0,
    };
    let fail = |s: &mut Samples, why: &dyn std::fmt::Display| {
        s.failed += 1;
        eprintln!("{name}: failed op: {why}");
    };
    let loop_started = Instant::now();
    let deadline = loop_started + Duration::from_secs_f64(args.seconds);
    loop {
        let enough = if args.trace {
            s.traced.len() >= MIN_TRACED_OPS
        } else {
            s.plain.len() >= MIN_OPS
        };
        if enough && Instant::now() >= deadline {
            break;
        }
        if s.failed >= MAX_FAILURES {
            let (failed, attempted) = (s.failed, s.attempted);
            return Err(format!("{name}: {failed} of {attempted} ops failed; giving up").into());
        }
        s.attempted += 1;
        match iterate(scenario.as_mut(), &mut off, Some(&mut cal), Some(&s.first)) {
            Ok((_, timing)) => s.plain.push(timing),
            Err(e) => fail(&mut s, &e),
        }
        if !args.trace {
            continue;
        }
        s.attempted += 1;
        let mark = s.trace.spans().len();
        s.trace.begin_op(s.traced.len() as u32);
        let result = iterate(
            scenario.as_mut(),
            &mut s.trace,
            Some(&mut cal),
            Some(&s.first),
        );
        let (counts, gauges) = s.trace.take_counts();
        match result {
            Ok(_) if !s.traced.is_empty() && counts != s.counts => {
                s.trace.truncate(mark);
                fail(&mut s, &"per-layer counts differ from op 0");
            }
            Ok((_, timing)) => {
                s.traced.push(timing);
                s.counts = counts;
                for (k, v) in gauges {
                    s.gauges.entry(k).or_default().push(v);
                }
            }
            Err(e) => {
                s.trace.truncate(mark);
                fail(&mut s, &e);
            }
        }
    }
    s.loop_s = loop_started.elapsed().as_secs_f64();
    Ok(s)
}

/// Pairs each declared metric with its value, in declaration order.
fn declared<'a>(
    table: impl Iterator<Item = (&'a str, &'a str)>,
    values: &Counts,
) -> Vec<(&'a str, &'a str, f64)> {
    table
        .map(|(metric, unit)| (metric, unit, values[metric]))
        .collect()
}

/// The gated metrics of an untraced run.
fn end_to_end(s: &Samples) -> Vec<(&'static str, &'static str, f64)> {
    let build_ms = column(&s.plain, |t| nominal_ms(t.build_ns, t.ref_ns));
    let op_ms = column(&s.plain, |t| nominal_ms(t.op_ns, t.ref_ns));
    let mut values = Counts::from([
        ("setup_s", quantile(&build_ms, GATED_Q) / 1e3),
        ("op_ms", quantile(&op_ms, GATED_Q)),
        ("peak_rss_mb", s.peak_rss_mb),
    ]);
    values.extend(s.first.simulated());
    declared(END_TO_END.iter().copied(), &values)
}

/// The per-layer metrics of a traced run.
fn per_layer(s: &Samples) -> Vec<(&'static str, &'static str, f64)> {
    let (by_name, coverage) = layer_times(&s.trace, &s.traced);
    let op_wall = column(&s.plain, |t| ms(t.op_ns));
    let p10_op_ms =
        |timings: &[Timing]| quantile(&column(timings, |t| nominal_ms(t.op_ns, t.ref_ns)), GATED_Q);
    let mut values = s.counts.clone();
    for &(metric, _, layer) in &PER_LAYER {
        match layer {
            Layer::SelfMs => {
                let span = metric.strip_suffix("_ms").expect("span metrics end in _ms");
                values.insert(
                    metric,
                    by_name.get(span).map_or(0.0, |v| quantile(v, GATED_Q)),
                );
            }
            // A layer the workload does not exercise counts nothing.
            Layer::Count => {
                values.entry(metric).or_insert(0.0);
            }
            Layer::Gauge => {
                values.insert(
                    metric,
                    s.gauges.get(metric).map_or(0.0, |v| quantile(v, 0.5)),
                );
            }
            Layer::Bench => {}
        }
    }
    values.extend([
        (
            "bench.op_cpu_ms",
            quantile(&column(&s.plain, |t| ms(t.op_cpu_ns)), GATED_Q),
        ),
        ("bench.op_wall_p50_ms", quantile(&op_wall, 0.5)),
        (
            "bench.op_wall_p90_ms",
            quantile(&op_wall, tail_q(op_wall.len())),
        ),
        (
            "bench.ref_ms",
            quantile(&column(&s.plain, |t| ms(t.ref_ns)), 0.5),
        ),
        ("bench.init_ms", s.init_ms),
        (
            "bench.trace_overhead",
            p10_op_ms(&s.traced) / p10_op_ms(&s.plain),
        ),
        ("bench.coverage", quantile(&coverage, 0.5)),
        ("bench.samples", s.traced.len() as f64),
        ("bench.fail_share", s.failed as f64 / s.attempted as f64),
    ]);
    declared(PER_LAYER.iter().map(|&(m, u, _)| (m, u)), &values)
}

pub fn run(args: &RunArgs) -> Res<()> {
    let name = args.workload.name();
    let s = measure(args)?;
    let op_wall = column(&s.plain, |t| ms(t.op_ns));
    let build_wall = column(&s.plain, |t| ms(t.build_ns));
    let hi = tail_q(s.plain.len());
    println!(
        "{name}: seed {} · {} ops in {:.1} s · {} failed of {} · calibration kernel median \
         {:.3} ms (nominal {CAL_MS} ms) · init {:.1} ms",
        args.seed,
        s.plain.len(),
        s.loop_s,
        s.failed,
        s.attempted,
        quantile(&column(&s.plain, |t| ms(t.ref_ns)), 0.5),
        s.init_ms,
    );
    println!(
        "{name}: raw wall: op p50 {:.3} ms, p{:.0} {:.3} ms · build p50 {:.3} ms, p{:.0} {:.3} ms · \
         op cpu p10 {:.3} ms · exit VmHWM less the calibration table {:.1} MiB",
        quantile(&op_wall, 0.5),
        hi * 100.0,
        quantile(&op_wall, hi),
        quantile(&build_wall, 0.5),
        hi * 100.0,
        quantile(&build_wall, hi),
        quantile(&column(&s.plain, |t| ms(t.op_cpu_ns)), GATED_Q),
        peak_rss_mib()? - CAL_BYTES as f64 / (1 << 20) as f64,
    );

    let metrics = if args.trace {
        let out = Path::new(OUT_DIR);
        std::fs::create_dir_all(out)?;
        let path = out.join(format!("trace-{name}.json"));
        s.trace
            .write_json(std::io::BufWriter::new(std::fs::File::create(&path)?))?;
        println!(
            "{name}: {} spans of {} traced ops -> {}",
            s.trace.spans().len(),
            s.traced.len(),
            path.display()
        );
        per_layer(&s)
    } else {
        end_to_end(&s)
    };

    // Layers this workload does not exercise read 0; the table skips them.
    for (metric, unit, value) in metrics.iter().filter(|m| m.2 != 0.0) {
        println!("{name}  {metric:<36} {value:>24} {unit}");
    }
    if metrics.iter().any(|m| !m.2.is_finite()) {
        return Err(format!("{name}: a metric is not a finite number").into());
    }
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "{}", result_line(s.attempted, s.failed, &metrics))?;
    stdout.flush()?;
    Ok(())
}
