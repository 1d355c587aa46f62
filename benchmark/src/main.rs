//! The repo benchmark. See `benchmark/README.md` for what it measures and
//! why; `BENCHMARK.json` at the repo root declares it to the driver.
//!
//! ```text
//! hypertp-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! hypertp-benchmark --check
//! ```
//!
//! With `--workload` the process runs that workload and prints, as the
//! last line of standard output, one JSON object `{correct, attempted,
//! failed, metrics}` — the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics. Without it, it runs every workload in turn, each in
//! a process of its own (peak RSS is per process).

mod calibrate;
mod check;
mod harness;
mod metrics;
mod proc;
mod run;
mod staged;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use harness::Res;
use run::RunArgs;
use workloads::Workload;

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
}

fn parse(args: &[String]) -> Res<Cli> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: 30.0,
        trace: false,
        check: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload = Some(Workload::from_name(&name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{name}' (one of {})", known.join(", "))
                })?);
            }
            "--seed" => cli.seed = value("a whole number")?.parse()?,
            "--seconds" => {
                cli.seconds = value("a number of seconds")?.parse()?;
                if !(cli.seconds >= 0.0 && cli.seconds <= 3600.0) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
            }
            "--check" => cli.check = true,
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'").into()),
                }
            }
            other => return Err(format!("unknown argument '{other}'").into()),
        }
    }
    Ok(cli)
}

/// Runs every workload, each in a child process with our own arguments.
fn run_all(args: &[String]) -> Res<()> {
    let exe = std::env::current_exe()?;
    for workload in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(args)
            .args(["--workload", workload.name()])
            .status()?;
        if !status.success() {
            return Err(format!("{}: {status}", workload.name()).into());
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    // The data-path workloads are single-threaded by definition; the one
    // pool the crates size from the environment (`InPlaceTransplant`'s)
    // must not grow with the box. The campaign sizes its pool explicitly.
    std::env::set_var(hypertp_sim::pool::WORKERS_ENV, "1");
    proc::pin_allocator();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|cli| match (cli.check, cli.workload) {
        (true, _) => check::check(),
        (false, None) => run_all(&args),
        (false, Some(workload)) => run::run(&RunArgs {
            workload,
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
            started,
        }),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
