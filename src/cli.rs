//! The `hypertpctl` command-line interface.
//!
//! A small operator-facing front end over the library: inspect the
//! vulnerability study, ask the policy for a decision, and run simulated
//! transplants, migrations, cluster upgrades and full campaigns. Parsing
//! is hand-rolled (no CLI dependency) and lives here so it is unit-testable;
//! the `hypertpctl` binary is a thin wrapper.

use std::collections::HashMap;

use hypertp_core::{
    CheckpointConfig, HypervisorKind, InPlaceTransplant, Optimizations, UnplannedRecovery,
    VmConfig, WarmCheckpointer,
};
use hypertp_machine::{Machine, MachineSpec};
use hypertp_migrate::{
    run_source, DestProxy, MigrationConfig, MigrationTp, UdsServerTransport, UdsTransport, WireMode,
};
use hypertp_sim::SimClock;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Command {
    /// Subcommand name.
    pub name: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` options; a `--key` with no value after it (a flag)
    /// maps to the empty string.
    pub options: HashMap<String, String>,
}

/// Errors from CLI parsing or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// No subcommand given.
    NoCommand,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// A required option (named without its `--`) or positional argument
    /// (`<CVE-ID>`) is missing.
    MissingOption(&'static str),
    /// The subcommand does not read this option (a typo, or a flag that
    /// no longer exists): rejected rather than silently ignored.
    UnknownOption {
        /// Subcommand name.
        command: String,
        /// Offending option name, without the leading `--`.
        option: String,
    },
    /// An option value is missing (empty) or could not be parsed.
    BadValue {
        /// Option name.
        option: String,
        /// Offending value.
        value: String,
    },
    /// Execution failed.
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::NoCommand => write!(f, "no subcommand; try `hypertpctl help`"),
            CliError::UnknownCommand(c) => write!(f, "unknown subcommand '{c}'"),
            CliError::MissingOption(a) if a.starts_with('<') => {
                write!(f, "missing required argument {a}")
            }
            CliError::MissingOption(o) => write!(f, "missing required option --{o}"),
            CliError::UnknownOption { command, option } => {
                write!(f, "unknown option --{option} for '{command}'")
            }
            CliError::BadValue { option, value } if value.is_empty() => {
                write!(f, "missing value for --{option}")
            }
            CliError::BadValue { option, value } => {
                write!(f, "bad value '{value}' for --{option}")
            }
            CliError::Failed(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Parses raw arguments (without `argv[0]`) into a [`Command`].
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let name = it.next().ok_or(CliError::NoCommand)?.clone();
    let mut positional = Vec::new();
    let mut options = HashMap::new();
    let rest: Vec<&String> = it.collect();
    let mut i = 0;
    while i < rest.len() {
        let a = rest[i];
        if let Some(key) = a.strip_prefix("--") {
            let next_is_value = rest
                .get(i + 1)
                .map(|n| !n.starts_with("--"))
                .unwrap_or(false);
            if next_is_value {
                options.insert(key.to_string(), rest[i + 1].clone());
                i += 2;
            } else {
                options.insert(key.to_string(), String::new());
                i += 1;
            }
        } else {
            positional.push(a.clone());
            i += 1;
        }
    }
    Ok(Command {
        name,
        positional,
        options,
    })
}

/// Reads `--key` as a `T`, or `default` when it is absent. A value that
/// does not parse as a `T` (`4294967297` for a `u32`) or that `valid`
/// rejects is a [`CliError::BadValue`].
fn opt_where<T: std::str::FromStr>(
    cmd: &Command,
    key: &str,
    default: T,
    valid: impl Fn(&T) -> bool,
) -> Result<T, CliError> {
    let Some(v) = cmd.options.get(key) else {
        return Ok(default);
    };
    match v.parse() {
        Ok(x) if valid(&x) => Ok(x),
        _ => Err(CliError::BadValue {
            option: key.to_string(),
            value: v.clone(),
        }),
    }
}

/// Reads `--key` as any value of `T`.
fn opt<T: std::str::FromStr>(cmd: &Command, key: &str, default: T) -> Result<T, CliError> {
    opt_where(cmd, key, default, |_| true)
}

/// Reads `--key` as a rate or a budget: finite and non-negative.
fn opt_amount(cmd: &Command, key: &str, default: f64) -> Result<f64, CliError> {
    opt_where(cmd, key, default, |x: &f64| x.is_finite() && *x >= 0.0)
}

fn opt_hv(cmd: &Command, key: &str, default: HypervisorKind) -> Result<HypervisorKind, CliError> {
    match cmd.options.get(key).map(String::as_str) {
        None => Ok(default),
        Some("xen") | Some("Xen") => Ok(HypervisorKind::Xen),
        Some("kvm") | Some("KVM") | Some("Kvm") => Ok(HypervisorKind::Kvm),
        Some(v) => Err(CliError::BadValue {
            option: key.to_string(),
            value: v.to_string(),
        }),
    }
}

fn opt_spec(cmd: &Command, key: &str) -> Result<MachineSpec, CliError> {
    match cmd.options.get(key).map(String::as_str) {
        None | Some("m1") | Some("M1") => Ok(MachineSpec::m1()),
        Some("m2") | Some("M2") => Ok(MachineSpec::m2()),
        Some("g5k") | Some("G5K") => Ok(MachineSpec::cluster_node()),
        Some(v) => Err(CliError::BadValue {
            option: key.to_string(),
            value: v.to_string(),
        }),
    }
}

/// The help text: subcommands in the left column, what they do in the
/// right. One literal per line — a `\`-continued literal would eat the
/// indentation the layout is made of.
pub fn help() -> String {
    concat!(
        "hypertpctl — hypervisor transplant control (simulated)\n",
        "\n",
        "subcommands:\n",
        "  analyze                         regenerate the vulnerability study (Table 1)\n",
        "  decide <CVE-ID> [--running HV]  policy decision for a disclosed CVE\n",
        "  transplant [--machine m1|m2] [--vms N] [--vcpus N] [--mem GB]\n",
        "             [--from HV] [--to HV] [--no-prepare] [--no-parallel]\n",
        "             [--no-early-restore] [--strict] [--incremental]\n",
        "                                  run InPlaceTP and print the breakdown\n",
        "  migrate    [--machine m1|m2] [--mem GB] [--dirty-rate P/S] [--to HV]\n",
        "                                  run MigrationTP and print the report\n",
        "  proxy dest --socket PATH [--machine m1|m2] [--to HV]\n",
        "  proxy source --socket PATH [--machine m1|m2] [--mem GB] [--dirty-rate P/S]\n",
        "                                  the §4.2 migration proxy pair: run `dest`\n",
        "                                  in one process, `source` in another, over\n",
        "                                  a Unix-domain socket\n",
        "  cluster    [--compat PCT] [--group N] [--hosts N] [--shards S]\n",
        "                                  plan+execute a rolling upgrade; --hosts\n",
        "                                  derives a synthetic fleet, --shards runs\n",
        "                                  the sharded executor\n",
        "  fleet      [--vms N] [--mem GB] [--dirty-rate P/S] [--max-concurrent N]\n",
        "             [--seed S] [--slo-aware]\n",
        "                                  migrate a small fleet whose VMs serve a\n",
        "                                  seeded diurnal traffic mix; --slo-aware\n",
        "                                  admits by least predicted SLO harm\n",
        "                                  instead of FIFO\n",
        "  campaign   <CVE-ID> [--hosts N] [--vms N]\n",
        "                                  full Fig. 1(b) campaign\n",
        "  feed       [--hosts N] [--seed S] [--events-per-year N] [--days D]\n",
        "             [--budget SECS] [--shards S] [--blind]\n",
        "                                  replay a seeded disclosure feed through\n",
        "                                  the exposure-minimizing planner: per-host\n",
        "                                  InPlace/Migrate/Defer per event; --blind\n",
        "                                  plans surface-blind for comparison\n",
        "  recover    [--machine m1|m2] [--vms N] [--vcpus N] [--mem GB]\n",
        "             [--from HV] [--to HV] [--ticks N] [--workload PAGES]\n",
        "             [--bound PAGES]\n",
        "                                  crash the hypervisor after N warm-checkpoint\n",
        "                                  ticks and print the unplanned recovery report\n",
        "  help                            this text\n",
    )
    .to_string()
}

type Handler = fn(&Command) -> Result<String, CliError>;

/// What subcommand `name` reads: its options, space-separated, with a
/// trailing `:` on each that takes a value (getopt's mark; the others are
/// flags), how many positionals it takes, and its handler. `proxy`'s
/// options depend on its role, the first positional.
fn spec(name: &str, role: Option<&str>) -> Option<(&'static str, usize, Handler)> {
    Some(match name {
        "help" => ("", 0, |_| Ok(help())),
        "analyze" => ("", 0, |_| run_analyze()),
        "decide" => ("running:", 1, run_decide),
        "transplant" => (
            "machine: vms: vcpus: mem: from: to: no-prepare no-parallel no-early-restore strict \
             incremental",
            0,
            run_transplant,
        ),
        "migrate" => ("machine: mem: dirty-rate: to:", 0, run_migrate),
        "proxy" => match role {
            Some("dest") => ("socket: machine: to:", 1, run_proxy),
            _ => ("socket: machine: mem: dirty-rate:", 1, run_proxy),
        },
        "cluster" => ("compat: group: hosts: shards:", 0, run_cluster),
        "fleet" => (
            "vms: mem: dirty-rate: max-concurrent: seed: slo-aware",
            0,
            run_fleet_cmd,
        ),
        "campaign" => ("hosts: vms:", 1, run_campaign_cmd),
        "feed" => (
            "hosts: seed: events-per-year: days: budget: shards: blind",
            0,
            run_feed,
        ),
        "recover" => (
            "machine: vms: vcpus: mem: from: to: ticks: workload: bound:",
            0,
            run_recover,
        ),
        _ => return None,
    })
}

/// Executes a parsed command, returning its printable output. An option
/// the subcommand does not read, a flag given a value, a valued option
/// given none, and a positional past the subcommand's count are errors.
pub fn run(cmd: &Command) -> Result<String, CliError> {
    let (options, positionals, handler) =
        spec(&cmd.name, cmd.positional.first().map(String::as_str))
            .ok_or_else(|| CliError::UnknownCommand(cmd.name.clone()))?;
    let unexpected =
        |arg: &str| CliError::Failed(format!("unexpected argument '{arg}' for '{}'", cmd.name));
    // The option map iterates in random order: check the options in name
    // order so the error names the same offender on every run.
    let mut names: Vec<&String> = cmd.options.keys().collect();
    names.sort();
    for name in names {
        let value = &cmd.options[name];
        let Some(entry) = options
            .split_whitespace()
            .find(|o| o.trim_end_matches(':') == name)
        else {
            return Err(CliError::UnknownOption {
                command: cmd.name.clone(),
                option: name.clone(),
            });
        };
        match (entry.ends_with(':'), value.is_empty()) {
            (true, true) => {
                return Err(CliError::BadValue {
                    option: name.clone(),
                    value: String::new(),
                })
            }
            // `parse` gave the flag the next word: it was a stray argument.
            (false, false) => return Err(unexpected(value)),
            _ => {}
        }
    }
    if let Some(extra) = cmd.positional.get(positionals) {
        return Err(unexpected(extra));
    }
    handler(cmd)
}

fn run_analyze() -> Result<String, CliError> {
    let ds = hypertp_vulndb::dataset::dataset();
    let rows = hypertp_vulndb::analysis::table1(&ds);
    let mut out = String::from("year  xen-crit  xen-med  kvm-crit  kvm-med  common\n");
    for r in &rows {
        out.push_str(&format!(
            "{}  {:>8}  {:>7}  {:>8}  {:>7}  {}/{}\n",
            r.year, r.xen_crit, r.xen_med, r.kvm_crit, r.kvm_med, r.common_crit, r.common_med
        ));
    }
    if let Some(w) = hypertp_vulndb::analysis::window_stats(&ds, hypertp_vulndb::HypervisorId::Kvm)
    {
        out.push_str(&format!(
            "KVM windows: mean {:.0} days, {:.0}% > 60 days, max {} ({} d), min {} ({} d)\n",
            w.mean_days,
            w.frac_over_60 * 100.0,
            w.max.0,
            w.max.1,
            w.min.0,
            w.min.1
        ));
    }
    Ok(out)
}

fn run_decide(cmd: &Command) -> Result<String, CliError> {
    let cve_id = cmd
        .positional
        .first()
        .ok_or(CliError::MissingOption("<CVE-ID>"))?;
    let running = match opt_hv(cmd, "running", HypervisorKind::Xen)? {
        HypervisorKind::Xen => hypertp_vulndb::HypervisorId::Xen,
        HypervisorKind::Kvm => hypertp_vulndb::HypervisorId::Kvm,
    };
    let ds = hypertp_vulndb::dataset::dataset();
    let cve = ds
        .iter()
        .find(|v| v.id == *cve_id)
        .ok_or_else(|| CliError::Failed(format!("{cve_id} not in the dataset")))?;
    let pool = [
        hypertp_vulndb::HypervisorId::Xen,
        hypertp_vulndb::HypervisorId::Kvm,
    ];
    let decision = hypertp_vulndb::policy::decide(cve, running, &pool, &[]);
    Ok(format!(
        "{} — CVSS {:.1} ({:?}), affects {:?}\ndecision: {:?}\n",
        cve.id,
        cve.cvss.base_score(),
        cve.severity(),
        cve.affects,
        decision
    ))
}

fn run_transplant(cmd: &Command) -> Result<String, CliError> {
    let spec = opt_spec(cmd, "machine")?;
    let n_vms: u32 = opt_where(cmd, "vms", 1, |n| *n >= 1)?;
    let vcpus: u32 = opt_where(cmd, "vcpus", 1, |n| *n >= 1)?;
    let mem: u64 = opt_where(cmd, "mem", 1, |n| *n >= 1)?;
    let from = opt_hv(cmd, "from", HypervisorKind::Xen)?;
    let to = opt_hv(cmd, "to", HypervisorKind::Kvm)?;
    let opts = Optimizations {
        prepare_before_pause: !cmd.options.contains_key("no-prepare"),
        parallel: !cmd.options.contains_key("no-parallel"),
        early_restoration: !cmd.options.contains_key("no-early-restore"),
        strict_preflight: cmd.options.contains_key("strict"),
        incremental_translate: cmd.options.contains_key("incremental"),
    };
    let registry = crate::default_registry();
    let mut machine = Machine::new(spec);
    let mut hv = registry
        .create(from, &mut machine)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    for i in 0..n_vms {
        hv.create_vm(
            &mut machine,
            &VmConfig::small(format!("vm{i}"))
                .with_vcpus(vcpus)
                .with_memory_gb(mem),
        )
        .map_err(|e| CliError::Failed(e.to_string()))?;
    }
    let engine = InPlaceTransplant::new(&registry).with_optimizations(opts);
    let (hv2, r) = engine
        .run(&mut machine, hv, to)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let mut out = format!(
        "InPlaceTP {from}→{to}: {} VM(s) of {vcpus} vCPU / {mem} GiB on {}\n",
        r.vm_count,
        machine.spec().name
    );
    out.push_str(&format!(
        "  PRAM {:.2}s | translation {:.2}s | reboot {:.2}s | restoration {:.2}s\n",
        r.pram.as_secs_f64(),
        r.translation.as_secs_f64(),
        r.reboot.as_secs_f64(),
        r.restoration.as_secs_f64()
    ));
    out.push_str(&format!(
        "  downtime {:.2}s ({:.2}s with network), PRAM metadata {} KiB, UISR {} KiB\n",
        r.downtime().as_secs_f64(),
        r.downtime_with_network().as_secs_f64(),
        r.pram_stats.metadata_bytes() / 1024,
        r.uisr_bytes / 1024
    ));
    for w in &r.warnings {
        out.push_str(&format!("  compatibility: {w}\n"));
    }
    out.push_str(&format!("now running: {} {}\n", hv2.kind(), hv2.version()));
    Ok(out)
}

fn run_migrate(cmd: &Command) -> Result<String, CliError> {
    let spec = opt_spec(cmd, "machine")?;
    let mem: u64 = opt_where(cmd, "mem", 1, |n| *n >= 1)?;
    let rate = opt_amount(cmd, "dirty-rate", 10.0)?;
    let to = opt_hv(cmd, "to", HypervisorKind::Kvm)?;
    let registry = crate::default_registry();
    let clock = SimClock::new();
    let mut src_m = Machine::with_clock(spec.clone(), clock.clone());
    let mut dst_m = Machine::with_clock(spec, clock);
    let mut src = registry
        .create(HypervisorKind::Xen, &mut src_m)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let mut dst = registry
        .create(to, &mut dst_m)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let id = src
        .create_vm(&mut src_m, &VmConfig::small("vm0").with_memory_gb(mem))
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let tp = MigrationTp::new().with_config(MigrationConfig {
        dirty_rate_pages_per_sec: rate,
        ..MigrationConfig::default()
    });
    let r = tp
        .migrate(&mut src_m, src.as_mut(), id, &mut dst_m, dst.as_mut())
        .map_err(|e| CliError::Failed(e.to_string()))?;
    Ok(format!(
        "MigrationTP Xen→{to}: {} GiB VM, dirty rate {rate} pages/s\n  {} rounds, \
         {:.2} GiB sent, total {:.2}s, downtime {:.2} ms, UISR {} B\n",
        mem,
        r.rounds.len(),
        r.bytes_sent as f64 / (1u64 << 30) as f64,
        r.total.as_secs_f64(),
        r.downtime.as_millis_f64(),
        r.uisr_bytes
    ))
}

/// `proxy dest` / `proxy source`: the two halves of the §4.2 migration
/// proxy pair over a Unix-domain socket. Start the destination first (it
/// blocks for the connection); the source retries its dial for ~5 s, so
/// either order works in practice.
fn run_proxy(cmd: &Command) -> Result<String, CliError> {
    let role = cmd
        .positional
        .first()
        .ok_or(CliError::MissingOption("<source|dest>"))?;
    let socket = cmd
        .options
        .get("socket")
        .ok_or(CliError::MissingOption("socket"))?;
    let spec = opt_spec(cmd, "machine")?;
    let registry = crate::default_registry();
    match role.as_str() {
        "dest" => {
            let to = opt_hv(cmd, "to", HypervisorKind::Kvm)?;
            let mut machine = Machine::with_clock(spec, SimClock::new());
            let mut hv = registry
                .create(to, &mut machine)
                .map_err(|e| CliError::Failed(e.to_string()))?;
            let mut transport =
                UdsServerTransport::bind(socket).map_err(|e| CliError::Failed(e.to_string()))?;
            let r = DestProxy::new()
                .serve(&mut machine, hv.as_mut(), &mut transport)
                .map_err(|e| CliError::Failed(e.to_string()))?;
            let mut out = format!(
                "proxy dest ({to}): received {} — {} rounds, {} frames, {:.2} MiB wire, \
                 checksum {:016x}\n",
                r.vm_name,
                r.rounds,
                r.frames,
                r.wire_bytes as f64 / (1u64 << 20) as f64,
                r.checksum
            );
            for w in &r.warnings {
                out.push_str(&format!("  compatibility: {w}\n"));
            }
            Ok(out)
        }
        "source" => {
            let mem: u64 = opt_where(cmd, "mem", 1, |n| *n >= 1)?;
            let rate = opt_amount(cmd, "dirty-rate", 10.0)?;
            let mut machine = Machine::with_clock(spec, SimClock::new());
            let mut hv = registry
                .create(HypervisorKind::Xen, &mut machine)
                .map_err(|e| CliError::Failed(e.to_string()))?;
            let id = hv
                .create_vm(&mut machine, &VmConfig::small("vm0").with_memory_gb(mem))
                .map_err(|e| CliError::Failed(e.to_string()))?;
            let tp = MigrationTp::new().with_config(MigrationConfig {
                wire_mode: WireMode::ContentAware,
                dirty_rate_pages_per_sec: rate,
                ..MigrationConfig::default()
            });
            let mut transport =
                UdsTransport::connect(socket).map_err(|e| CliError::Failed(e.to_string()))?;
            let r = run_source(&tp, &mut machine, hv.as_mut(), id, &mut transport)
                .map_err(|e| CliError::Failed(e.to_string()))?;
            Ok(format!(
                "proxy source (Xen): sent {} GiB VM, dirty rate {rate} pages/s\n  {} rounds, \
                 {:.2} MiB sent ({} frames applied remotely), total {:.2}s, downtime {:.2} ms, \
                 UISR {} B, checksum {:016x} (verified)\n",
                mem,
                r.rounds,
                r.bytes_sent as f64 / (1u64 << 20) as f64,
                r.dst_frames,
                r.total.as_secs_f64(),
                r.downtime.as_millis_f64(),
                r.uisr_bytes,
                r.dst_checksum
            ))
        }
        other => Err(CliError::BadValue {
            option: "role".to_string(),
            value: other.to_string(),
        }),
    }
}

fn run_cluster(cmd: &Command) -> Result<String, CliError> {
    let compat: u32 = opt_where(cmd, "compat", 80, |pct| *pct <= 100)?;
    let group: usize = opt(cmd, "group", 2)?;
    let shards: usize = opt(cmd, "shards", 1)?;
    let cfg = hypertp_cluster::exec::ExecConfig::default();
    let sharded = |view: &dyn hypertp_cluster::ClusterView, plan: &hypertp_cluster::Plan| {
        hypertp_cluster::execute_sharded_with(
            view,
            plan,
            &cfg,
            &hypertp_sim::fault::FaultPlan::disarmed(),
            shards,
            &hypertp_sim::pool::WorkerPool::from_env(),
        )
    };
    // --hosts derives a synthetic fleet of that size (seed 42, like the
    // paper testbed); without it the exact 4-host paper testbed runs, and
    // sharding is identity-preserving so --shards never changes the report.
    let hosts: Option<usize> = cmd
        .options
        .contains_key("hosts")
        .then(|| opt_where(cmd, "hosts", 0, |h: &usize| *h >= 1))
        .transpose()?;
    let (fleet, report) = match hosts {
        Some(hosts) => {
            let view = hypertp_cluster::Cluster::synthetic(hosts, 42).with_compat_percent(compat);
            let plan = hypertp_cluster::plan_upgrade(&view, group)
                .map_err(|e| CliError::Failed(e.to_string()))?;
            (format!("{hosts} synthetic hosts, "), sharded(&view, &plan))
        }
        None => {
            let cluster = hypertp_cluster::Cluster::paper_testbed(compat, 42);
            let plan = hypertp_cluster::plan_upgrade(&cluster, group)
                .map_err(|e| CliError::Failed(e.to_string()))?;
            (String::new(), sharded(&cluster, &plan))
        }
    };
    Ok(format!(
        "cluster upgrade ({fleet}{compat}% InPlaceTP-compatible, groups of {group}):\n  \
         {} migrations + {} in-place upgrades in {:.1} min \
         (migration {:.1} min, in-place {:.1} min)\n",
        report.migrations,
        report.inplace_upgrades,
        report.total.as_secs_f64() / 60.0,
        report.migration_time.as_secs_f64() / 60.0,
        report.inplace_time.as_secs_f64() / 60.0
    ))
}

/// `fleet`: migrate a small Xen→KVM fleet whose VMs serve a seeded
/// diurnal traffic mix (compressed 10-minute day). Every VM carries its
/// SLO whether or not the scheduler looks at it — the physics (link
/// contention, violation accounting) is always armed — so running once
/// plain and once with `--slo-aware` compares admission policies under
/// identical conditions.
fn run_fleet_cmd(cmd: &Command) -> Result<String, CliError> {
    let n_vms: usize = opt_where(cmd, "vms", 4, |n| *n >= 1)?;
    let mem: u64 = opt_where(cmd, "mem", 1, |n| *n >= 1)?;
    let rate = opt_amount(cmd, "dirty-rate", 1_000.0)?;
    let max_concurrent: usize = opt(cmd, "max-concurrent", 1)?;
    let seed: u64 = opt(cmd, "seed", 42)?;
    let slo_aware = cmd.options.contains_key("slo-aware");
    let order = if slo_aware {
        hypertp_migrate::FleetOrder::SloAware
    } else {
        hypertp_migrate::FleetOrder::Fifo
    };
    let day = hypertp_sim::SimDuration::from_secs(600);
    let registry = crate::default_registry();
    let clock = SimClock::new();
    let mut spec = MachineSpec::m1();
    spec.ram_gb = spec.ram_gb.max(n_vms as u64 * mem + 4);
    let mut src_m = Machine::with_clock(spec.clone(), clock.clone());
    let mut dst_m = Machine::with_clock(spec, clock);
    let mut src = registry
        .create(HypervisorKind::Xen, &mut src_m)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let mut dst = registry
        .create(HypervisorKind::Kvm, &mut dst_m)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let vms = (0..n_vms)
        .map(|i| {
            let id = src.create_vm(
                &mut src_m,
                &VmConfig::small(format!("vm{i}")).with_memory_gb(mem),
            )?;
            Ok(
                hypertp_migrate::FleetVm::with_dirty_rate(id, rate).with_slo(
                    hypertp_migrate::SloVm {
                        traffic: hypertp_workloads::derive_curve(seed, i as u64, 4_000.0, day),
                        degraded_capacity: 0.65,
                        error_budget: hypertp_sim::SimDuration::from_secs(60),
                    },
                ),
            )
        })
        .collect::<Result<Vec<_>, hypertp_core::HtpError>>()
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let tp = MigrationTp::new();
    let fleet = hypertp_migrate::migrate_fleet(
        &tp,
        &mut src_m,
        src.as_mut(),
        &vms,
        &mut dst_m,
        dst.as_mut(),
        hypertp_migrate::FleetPolicy {
            order,
            max_concurrent,
            compression_hint: 1.0,
        },
    )
    .map_err(|e| CliError::Failed(e.to_string()))?;
    let mut out = format!(
        "fleet Xen→KVM ({n_vms} VM(s) × {mem} GiB, dirty rate {rate} pages/s, \
         {} admission, {} slot(s)):\n",
        order.name(),
        if max_concurrent == 0 {
            n_vms.max(1)
        } else {
            max_concurrent
        },
    );
    out.push_str(&format!(
        "  admission order {:?}, makespan {:.1}s\n",
        fleet.admission,
        fleet.makespan.as_secs_f64()
    ));
    for r in &fleet.reports {
        out.push_str(&format!(
            "    {}: {} rounds, total {:.1}s, downtime {:.1} ms\n",
            r.vm_name,
            r.rounds.len(),
            r.total.as_secs_f64(),
            r.downtime.as_millis_f64()
        ));
    }
    out.push_str(&format!(
        "  SLO: {} serving VM(s), violation {:.1}s, worst error-budget burn {:.2}\n",
        fleet.slo_vm_count(),
        fleet.total_violation().as_secs_f64(),
        fleet.max_budget_burn()
    ));
    Ok(out)
}

fn run_campaign_cmd(cmd: &Command) -> Result<String, CliError> {
    let cve_id = cmd
        .positional
        .first()
        .ok_or(CliError::MissingOption("<CVE-ID>"))?;
    let hosts: usize = opt_where(cmd, "hosts", 2, |h| *h >= 1)?;
    let vms: u32 = opt_where(cmd, "vms", 4, |n| *n >= 1)?;
    let ds = hypertp_vulndb::dataset::dataset();
    let cve = ds
        .iter()
        .find(|v| v.id == *cve_id)
        .ok_or_else(|| CliError::Failed(format!("{cve_id} not in the dataset")))?;
    let registry = hypertp_cluster::openstack::pool();
    let clock = SimClock::new();
    let computes = (0..hosts)
        .map(|i| {
            let mut spec = MachineSpec::m1();
            spec.ram_gb = 8;
            hypertp_cluster::openstack::LibvirtDriver::new(
                format!("compute-{i}"),
                spec,
                clock.clone(),
                &registry,
                HypervisorKind::Xen,
            )
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let mut nova = hypertp_cluster::openstack::NovaManager::new(registry, computes);
    for i in 0..vms {
        nova.boot(&VmConfig::small(format!("svc{i}")))
            .map_err(|e| CliError::Failed(e.to_string()))?;
    }
    let report = hypertp_cluster::campaign::run_campaign(&mut nova, cve, &[])
        .map_err(|e| CliError::Failed(e.to_string()))?;
    Ok(format!(
        "campaign {}: {} → {} → {}\n  covered {:.0}-day window, worst VM downtime \
         {:.2}s across {} host(s) out + back\n",
        report.cve,
        report.home,
        report.refuge,
        report.home,
        report.window.as_secs_f64() / 86_400.0,
        report.worst_downtime.as_secs_f64(),
        hosts
    ))
}

/// `feed`: replay a seeded vulnerability-disclosure stream through the
/// exposure-minimizing planner over a synthetic fleet. Each event prints
/// its surface classification, the per-host action split, and the
/// exposure the chosen schedule leaves on the table; the footer totals
/// the integrated exposure in VM·criticality·days.
fn run_feed(cmd: &Command) -> Result<String, CliError> {
    let hosts: usize = opt_where(cmd, "hosts", 100, |h| *h >= 1)?;
    let seed: u64 = opt(cmd, "seed", 42)?;
    let rate: u32 = opt(cmd, "events-per-year", 37)?;
    let days = opt_where(cmd, "days", 365, |d: &u64| d.checked_mul(86_400).is_some())?;
    let budget = opt_amount(cmd, "budget", 300.0)?;
    let shards: usize = opt(cmd, "shards", 1)?;
    let blind = cmd.options.contains_key("blind");
    let view = hypertp_cluster::Cluster::synthetic(hosts, seed).with_compat_percent(80);
    let ds = hypertp_vulndb::dataset::dataset();
    let events = hypertp_vulndb::VulnFeed::new(seed)
        .with_events_per_year(rate)
        .replay(hypertp_sim::SimDuration::from_secs(days * 86_400));
    let cfg = hypertp_cluster::ExposureConfig {
        downtime_budget: hypertp_sim::SimDuration::from_secs_f64(budget),
        weights: hypertp_vulndb::SurfaceWeights::calibrated(&ds),
        surface_aware: !blind,
        ..hypertp_cluster::ExposureConfig::default()
    };
    let planner = hypertp_cluster::ExposurePlanner::with_pool(
        &view,
        cfg,
        shards,
        &hypertp_sim::pool::WorkerPool::from_env(),
    );
    let mut out = format!(
        "feed replay ({hosts} hosts, seed {seed}, {} events over {days} days, \
         {} planning, downtime budget {budget}s):\n",
        events.len(),
        if blind {
            "surface-blind"
        } else {
            "surface-aware"
        },
    );
    let mut report = hypertp_cluster::FeedReport::new();
    for ev in &events {
        let plan = planner.plan_event(ev);
        report.fold(&plan);
        let day = ev
            .at
            .duration_since(hypertp_sim::SimTime::ZERO)
            .as_secs_f64()
            / 86_400.0;
        let verdict = if plan.remediated {
            format!(
                "{} in-place + {} migrate + {} defer{}",
                plan.count(hypertp_cluster::HostAction::InPlace),
                plan.count(hypertp_cluster::HostAction::Migrate),
                plan.count(hypertp_cluster::HostAction::Defer),
                if plan.escalated { " (escalated)" } else { "" },
            )
        } else {
            "patch cycle".to_string()
        };
        out.push_str(&format!(
            "  day {day:>5.1}  {}  {:<20}  crit {:.2}  {verdict}, \
             exposure {:.1} VM·days\n",
            ev.vuln.id,
            ev.surface.name(),
            plan.criticality,
            plan.exposure_vm_secs / 86_400.0,
        ));
    }
    out.push_str(&feed_footer(&report));
    Ok(out)
}

/// The last line of `feed`: the whole replay's totals.
fn feed_footer(report: &hypertp_cluster::FeedReport) -> String {
    format!(
        "integrated exposure {:.1} VM·days over {} event(s): {} remediated \
         ({} escalated by surface weight), {} VM remediation(s), {} VM-window(s) deferred, \
         disruption {:.1} min\n",
        report.exposure_vm_days,
        report.events,
        report.remediated_events,
        report.escalated_events,
        report.remediated_vms,
        report.deferred_vms,
        report.disruption.as_secs_f64() / 60.0,
    )
}

fn run_recover(cmd: &Command) -> Result<String, CliError> {
    let spec = opt_spec(cmd, "machine")?;
    let n_vms: u32 = opt_where(cmd, "vms", 1, |n| *n >= 1)?;
    let vcpus: u32 = opt_where(cmd, "vcpus", 1, |n| *n >= 1)?;
    let mem: u64 = opt_where(cmd, "mem", 1, |n| *n >= 1)?;
    let from = opt_hv(cmd, "from", HypervisorKind::Xen)?;
    let to = opt_hv(cmd, "to", HypervisorKind::Kvm)?;
    let ticks: u64 = opt(cmd, "ticks", 4)?;
    let workload: u64 = opt(cmd, "workload", 64)?;
    let bound: u64 = opt(cmd, "bound", 512)?;
    let registry = crate::default_registry();
    let mut machine = Machine::new(spec);
    let mut hv = registry
        .create(from, &mut machine)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    for i in 0..n_vms {
        hv.create_vm(
            &mut machine,
            &VmConfig::small(format!("vm{i}"))
                .with_vcpus(vcpus)
                .with_memory_gb(mem),
        )
        .map_err(|e| CliError::Failed(e.to_string()))?;
    }
    let cfg = CheckpointConfig {
        staleness_bound_pages: bound,
        ..CheckpointConfig::default()
    };
    let mut ckpt = WarmCheckpointer::start(&mut machine, hv.as_mut(), to, cfg)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    for _ in 0..ticks {
        ckpt.tick(&mut machine, hv.as_mut(), workload)
            .map_err(|e| CliError::Failed(e.to_string()))?;
    }
    let engine = UnplannedRecovery::new(&registry);
    let (hv2, r) = engine
        .recover(&mut machine, hv, ckpt)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let mut out = format!(
        "unplanned transplant {from}→{to}: {} crashed after {} checkpoint tick(s)\n",
        from, r.checkpoint_ticks
    );
    out.push_str(&format!(
        "  recovery {:.3}s (detect {:.3}s | reboot {:.3}s | restore {:.3}s), \
         network +{:.3}s\n",
        r.recovery_latency.as_secs_f64(),
        r.detection.as_secs_f64(),
        r.reboot.as_secs_f64(),
        r.restoration.as_secs_f64(),
        r.network.as_secs_f64()
    ));
    out.push_str(&format!(
        "  cold ablation {:.3}s — warm checkpoints cut {:.1}%\n",
        r.cold_latency.as_secs_f64(),
        r.warm_speedup_pct()
    ));
    out.push_str(&format!(
        "  state loss ≤ {} pages/VM (bound held: {})\n",
        r.loss_bound_pages,
        r.within_bound()
    ));
    for l in &r.losses {
        out.push_str(&format!(
            "    {}: {} pages rolled back ({} lag + {} tail)\n",
            l.name, l.loss_pages, l.checkpoint_lag_pages, l.tail_pages
        ));
    }
    out.push_str(&format!("now running: {} {}\n", hv2.kind(), hv2.version()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_options_and_positionals() {
        let c = parse(&argv("decide CVE-2016-6258 --running xen --verbose")).unwrap();
        assert_eq!(c.name, "decide");
        assert_eq!(c.positional, vec!["CVE-2016-6258"]);
        assert_eq!(c.options.get("running").map(String::as_str), Some("xen"));
        assert_eq!(c.options.get("verbose").map(String::as_str), Some(""));
    }

    #[test]
    fn empty_argv_errors() {
        assert_eq!(parse(&[]), Err(CliError::NoCommand));
    }

    #[test]
    fn unknown_command_errors() {
        let c = parse(&argv("frobnicate")).unwrap();
        assert!(matches!(run(&c), Err(CliError::UnknownCommand(_))));
    }

    #[test]
    fn analyze_prints_table() {
        let out = run(&parse(&argv("analyze")).unwrap()).unwrap();
        assert!(out.contains("2015"));
        assert!(out.contains("KVM windows"));
    }

    #[test]
    fn decide_known_cve() {
        let out = run(&parse(&argv("decide CVE-2016-6258 --running xen")).unwrap()).unwrap();
        assert!(out.contains("Transplant"));
        let out = run(&parse(&argv("decide CVE-2015-3456 --running xen")).unwrap()).unwrap();
        assert!(out.contains("NoSafeTarget"));
    }

    #[test]
    fn decide_unknown_cve_fails() {
        let r = run(&parse(&argv("decide CVE-0000-0000")).unwrap());
        assert!(matches!(r, Err(CliError::Failed(_))));
    }

    #[test]
    fn transplant_end_to_end() {
        let out = run(&parse(&argv("transplant --vms 2 --mem 1")).unwrap()).unwrap();
        assert!(out.contains("downtime"), "{out}");
        assert!(out.contains("now running: KVM"));
    }

    #[test]
    fn transplant_bad_machine_rejected() {
        let r = run(&parse(&argv("transplant --machine m9")).unwrap());
        assert!(matches!(r, Err(CliError::BadValue { .. })));
    }

    #[test]
    fn migrate_end_to_end() {
        let out = run(&parse(&argv("migrate --mem 1 --dirty-rate 5")).unwrap()).unwrap();
        assert!(out.contains("MigrationTP"));
        assert!(out.contains("downtime"));
    }

    #[test]
    fn cluster_end_to_end() {
        let out = run(&parse(&argv("cluster --compat 80")).unwrap()).unwrap();
        assert!(out.contains("in-place upgrades"));
    }

    #[test]
    fn cluster_shards_do_not_change_the_output() {
        let base = run(&parse(&argv("cluster --compat 80")).unwrap()).unwrap();
        let sharded = run(&parse(&argv("cluster --compat 80 --shards 4")).unwrap()).unwrap();
        assert_eq!(base, sharded);
    }

    #[test]
    fn cluster_synthetic_fleet() {
        let out = run(&parse(&argv("cluster --hosts 500 --group 4 --shards 8")).unwrap()).unwrap();
        assert!(out.contains("500 synthetic hosts"), "{out}");
        assert!(out.contains("in-place upgrades"));
        let again =
            run(&parse(&argv("cluster --hosts 500 --group 4 --shards 3")).unwrap()).unwrap();
        assert_eq!(out, again, "shard count must not change the report");
    }

    #[test]
    fn cluster_bad_hosts_rejected() {
        let r = run(&parse(&argv("cluster --hosts lots")).unwrap());
        assert!(matches!(r, Err(CliError::BadValue { .. })));
    }

    #[test]
    fn fleet_end_to_end() {
        let out = run(&parse(&argv("fleet --vms 3 --dirty-rate 500")).unwrap()).unwrap();
        assert!(out.contains("fifo admission"), "{out}");
        assert!(out.contains("SLO: 3 serving VM(s)"), "{out}");
        assert!(out.contains("makespan"), "{out}");
    }

    #[test]
    fn fleet_slo_aware_flag_switches_admission() {
        let fifo = run(&parse(&argv("fleet --vms 4")).unwrap()).unwrap();
        let aware = run(&parse(&argv("fleet --vms 4 --slo-aware")).unwrap()).unwrap();
        assert!(aware.contains("slo admission"), "{aware}");
        assert_ne!(fifo, aware, "the flag must change the schedule output");
        // Deterministic: the same invocation renders identically.
        let again = run(&parse(&argv("fleet --vms 4 --slo-aware")).unwrap()).unwrap();
        assert_eq!(aware, again);
    }

    #[test]
    fn fleet_bad_vms_rejected() {
        let r = run(&parse(&argv("fleet --vms several")).unwrap());
        assert!(matches!(r, Err(CliError::BadValue { .. })));
    }

    #[test]
    fn campaign_end_to_end() {
        let out = run(&parse(&argv("campaign CVE-2016-6258 --hosts 1 --vms 1")).unwrap()).unwrap();
        assert!(out.contains("Xen → KVM → Xen"));
    }

    #[test]
    fn feed_end_to_end() {
        let out = run(&parse(&argv("feed --hosts 30 --days 120")).unwrap()).unwrap();
        assert!(out.contains("surface-aware planning"), "{out}");
        assert!(out.contains("integrated exposure"), "{out}");
        // Determinism: the same invocation renders identically, and the
        // shard count never changes the schedule.
        let again = run(&parse(&argv("feed --hosts 30 --days 120 --shards 4")).unwrap()).unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn feed_blind_flag_switches_planning() {
        let aware = run(&parse(&argv("feed --hosts 30 --days 120")).unwrap()).unwrap();
        let blind = run(&parse(&argv("feed --hosts 30 --days 120 --blind")).unwrap()).unwrap();
        assert!(blind.contains("surface-blind planning"), "{blind}");
        assert_ne!(aware, blind, "the flag must change the schedule output");
    }

    #[test]
    fn feed_footer_matches_a_fresh_replay() {
        // The CLI folds the plans it prints; the totals must be the ones
        // a replay of the same feed reports.
        let out = run(&parse(&argv("feed --hosts 30 --days 120")).unwrap()).unwrap();
        let view = hypertp_cluster::Cluster::synthetic(30, 42).with_compat_percent(80);
        let events = hypertp_vulndb::VulnFeed::new(42)
            .replay(hypertp_sim::SimDuration::from_secs(120 * 86_400));
        let cfg = hypertp_cluster::ExposureConfig {
            weights: hypertp_vulndb::SurfaceWeights::calibrated(&hypertp_vulndb::dataset::dataset()),
            ..hypertp_cluster::ExposureConfig::default()
        };
        let report = hypertp_cluster::ExposurePlanner::new(&view, cfg).replay(&events);
        assert!(report.events > 0);
        assert_eq!(out.lines().count(), 2 + report.events, "{out}");
        assert!(out.ends_with(&feed_footer(&report)), "{out}");
    }

    #[test]
    fn feed_bad_days_rejected() {
        let r = run(&parse(&argv("feed --days forever")).unwrap());
        assert!(matches!(r, Err(CliError::BadValue { .. })));
    }

    #[test]
    fn recover_end_to_end() {
        let out = run(&parse(&argv("recover --vms 2 --mem 1 --ticks 3")).unwrap()).unwrap();
        assert!(out.contains("unplanned transplant"), "{out}");
        assert!(out.contains("bound held: true"), "{out}");
        assert!(out.contains("now running: KVM"), "{out}");
    }

    #[test]
    fn unknown_options_are_rejected_per_subcommand() {
        // One removed flag and one typo per subcommand: none may be
        // silently ignored.
        for (line, option) in [
            ("recover --vms 1 --ticks 2 --field-diff", "field-diff"),
            ("help --verbose", "verbose"),
            ("analyze --year 2015", "year"),
            ("decide CVE-2016-6258 --runing xen", "runing"),
            ("transplant --vm 2", "vm"),
            ("migrate --dirty-rte 5", "dirty-rte"),
            ("proxy dest --socket /tmp/s --mem 2", "mem"),
            ("proxy source --socket /tmp/s --to kvm", "to"),
            ("cluster --compat 80 --shard 4", "shard"),
            ("fleet --vms 3 --slo-awar", "slo-awar"),
            ("campaign CVE-2016-6258 --host 1", "host"),
            ("feed --hosts 30 --blnd", "blnd"),
            ("recover --tick 3", "tick"),
        ] {
            let cmd = parse(&argv(line)).unwrap();
            assert_eq!(
                run(&cmd),
                Err(CliError::UnknownOption {
                    command: cmd.name.clone(),
                    option: option.to_string(),
                }),
                "{line}"
            );
        }
        let err = run(&parse(&argv("recover --field-diff")).unwrap()).unwrap_err();
        assert_eq!(err.to_string(), "unknown option --field-diff for 'recover'");
        // Several offenders: the alphabetically first is named, every run.
        let err = run(&parse(&argv("feed --zeta --alpha 1")).unwrap()).unwrap_err();
        assert_eq!(err.to_string(), "unknown option --alpha for 'feed'");
    }

    #[test]
    fn every_documented_option_is_accepted() {
        // Each option a subcommand reads (including every flag ci.sh's
        // smokes pass) gets past the unknown-option check. The `proxy`
        // lines stop at a bad machine value before touching the socket —
        // which they only reach once every option name was accepted.
        for line in [
            "decide CVE-2016-6258 --running kvm",
            "transplant --machine m2 --vms 1 --vcpus 1 --mem 1 --from xen --to kvm \
             --no-prepare --no-parallel --no-early-restore --strict --incremental",
            "migrate --machine m1 --mem 1 --dirty-rate 5 --to kvm",
            "cluster --compat 80 --group 2 --hosts 50 --shards 2",
            "fleet --vms 2 --mem 1 --dirty-rate 500 --max-concurrent 1 --seed 7 --slo-aware",
            "campaign CVE-2016-6258 --hosts 1 --vms 1",
            "feed --hosts 30 --seed 42 --events-per-year 37 --days 90 --budget 300 \
             --shards 2 --blind",
            "recover --machine m1 --vms 1 --vcpus 1 --mem 1 --from xen --to kvm --ticks 2 \
             --workload 64 --bound 512",
        ] {
            let r = run(&parse(&argv(line)).unwrap());
            assert!(r.is_ok(), "{line}: {r:?}");
        }
        for line in [
            "proxy dest --socket /tmp/s --machine m9 --to kvm",
            "proxy source --socket /tmp/s --machine m9 --mem 1 --dirty-rate 5",
        ] {
            let r = run(&parse(&argv(line)).unwrap());
            assert_eq!(
                r,
                Err(CliError::BadValue {
                    option: "machine".to_string(),
                    value: "m9".to_string(),
                }),
                "{line}"
            );
        }
    }

    #[test]
    fn proxy_requires_role_and_socket() {
        let r = run(&parse(&argv("proxy")).unwrap());
        assert_eq!(r, Err(CliError::MissingOption("<source|dest>")));
        let r = run(&parse(&argv("proxy source")).unwrap());
        assert_eq!(r, Err(CliError::MissingOption("socket")));
        let r = run(&parse(&argv("proxy upside-down --socket /tmp/s")).unwrap());
        assert!(matches!(r, Err(CliError::BadValue { .. })));
    }

    #[test]
    fn malformed_command_lines_name_their_offending_token() {
        // A flag takes no value, a valued option needs one, and a
        // subcommand takes only its own positionals. The `proxy` line
        // stops at the bare `--socket` before touching the socket.
        for (line, message) in [
            (
                "feed --hosts 30 --days 30 --blind false",
                "unexpected argument 'false' for 'feed'",
            ),
            (
                "fleet --slo-aware no",
                "unexpected argument 'no' for 'fleet'",
            ),
            (
                "proxy dest --socket --machine m9",
                "missing value for --socket",
            ),
            ("migrate bogus", "unexpected argument 'bogus' for 'migrate'"),
            (
                "decide CVE-2016-6258 CVE-2015-3456",
                "unexpected argument 'CVE-2015-3456' for 'decide'",
            ),
        ] {
            let err = run(&parse(&argv(line)).unwrap()).unwrap_err();
            assert_eq!(err.to_string(), message, "{line}");
        }
    }

    #[test]
    fn missing_arguments_are_named_once() {
        for (line, message) in [
            ("proxy source", "missing required option --socket"),
            ("proxy", "missing required argument <source|dest>"),
            ("decide", "missing required argument <CVE-ID>"),
            ("campaign", "missing required argument <CVE-ID>"),
        ] {
            let err = run(&parse(&argv(line)).unwrap()).unwrap_err();
            assert_eq!(err.to_string(), message, "{line}");
        }
    }

    #[test]
    fn recover_bad_bound_rejected() {
        let r = run(&parse(&argv("recover --bound many")).unwrap());
        assert!(matches!(r, Err(CliError::BadValue { .. })));
    }

    #[test]
    fn recover_carries_memoryless_guests() {
        // A guest with no pages dirties nothing on either source. The CLI
        // refuses `--mem 0`, so this runs `recover`'s defaults through the
        // library.
        use HypervisorKind::{Kvm, Xen};
        for (from, to) in [(Xen, Kvm), (Kvm, Xen)] {
            let registry = crate::default_registry();
            let mut machine = Machine::new(MachineSpec::m1());
            let mut hv = registry.create(from, &mut machine).unwrap();
            let guest = VmConfig::small("vm0").with_memory_gb(0);
            hv.create_vm(&mut machine, &guest).unwrap();
            let cfg = CheckpointConfig {
                staleness_bound_pages: 512,
                ..CheckpointConfig::default()
            };
            let mut ckpt = WarmCheckpointer::start(&mut machine, hv.as_mut(), to, cfg).unwrap();
            for _ in 0..4 {
                ckpt.tick(&mut machine, hv.as_mut(), 64).unwrap();
            }
            let recovery = UnplannedRecovery::new(&registry);
            let (_, r) = recovery.recover(&mut machine, hv, ckpt).unwrap();
            assert!(r.within_bound(), "{from}→{to}");
        }
    }

    #[test]
    fn out_of_range_values_are_rejected() {
        // Each value parses as some number, but not as the option's type
        // and range: none may wrap, saturate or be echoed back.
        for (line, option, value) in [
            ("transplant --vms 4294967297", "vms", "4294967297"),
            ("recover --vcpus 4294967296", "vcpus", "4294967296"),
            ("campaign CVE-2016-6258 --vms -1", "vms", "-1"),
            ("migrate --dirty-rate NaN", "dirty-rate", "NaN"),
            ("migrate --dirty-rate -1", "dirty-rate", "-1"),
            ("fleet --dirty-rate inf", "dirty-rate", "inf"),
            ("feed --budget NaN", "budget", "NaN"),
            ("feed --budget -5", "budget", "-5"),
            ("feed --days 213503982334602", "days", "213503982334602"),
            (
                "feed --events-per-year 4294967296",
                "events-per-year",
                "4294967296",
            ),
            ("cluster --compat 200", "compat", "200"),
            ("cluster --compat 101", "compat", "101"),
            ("cluster --group 2.5", "group", "2.5"),
            // A zero count runs nothing: no VM to transplant, recover or
            // drain, no host to plan.
            ("transplant --vms 0", "vms", "0"),
            ("recover --vms 0", "vms", "0"),
            ("fleet --vms 0", "vms", "0"),
            ("cluster --hosts 0", "hosts", "0"),
            ("feed --hosts 0", "hosts", "0"),
            ("campaign CVE-2016-6258 --hosts 0", "hosts", "0"),
            // A zero size runs nothing: no guest memory to move, no vCPU
            // to restore, no VM on a host.
            ("transplant --mem 0", "mem", "0"),
            ("transplant --vcpus 0", "vcpus", "0"),
            ("migrate --mem 0", "mem", "0"),
            ("campaign CVE-2016-6258 --vms 0", "vms", "0"),
            ("recover --mem 0", "mem", "0"),
            ("fleet --vms 1 --mem 0", "mem", "0"),
        ] {
            assert_eq!(
                run(&parse(&argv(line)).unwrap()),
                Err(CliError::BadValue {
                    option: option.to_string(),
                    value: value.to_string(),
                }),
                "{line}"
            );
        }
    }

    #[test]
    fn help_keeps_its_two_column_layout() {
        let out = help();
        let (_, list) = out.split_once("subcommands:\n").expect("subcommand list");
        let mut subcommands = 0;
        for line in list.lines() {
            // A line either starts a subcommand at a two-space indent or
            // continues one: options under the first option, the
            // description in the right column.
            let indent = line.len() - line.trim_start().len();
            if indent == 2 {
                subcommands += 1;
            } else {
                assert!(indent == 13 || indent == 34, "flush or ragged: {line:?}");
            }
            assert!(line.chars().count() <= 80, "too wide: {line:?}");
        }
        assert_eq!(subcommands, 12, "ten subcommands, proxy twice, help");
    }

    #[test]
    fn help_names_every_option_a_subcommand_reads() {
        let out = help();
        let (_, list) = out.split_once("subcommands:\n").expect("subcommand list");
        // Each block runs from a two-space-indented line to the next.
        let mut blocks: Vec<String> = Vec::new();
        for line in list.lines() {
            match blocks.last_mut() {
                Some(block) if line.starts_with("   ") => block.push_str(line),
                _ => blocks.push(line.to_string()),
            }
        }
        for (name, role) in [
            ("help", None),
            ("analyze", None),
            ("decide", None),
            ("transplant", None),
            ("migrate", None),
            ("proxy", Some("dest")),
            ("proxy", Some("source")),
            ("cluster", None),
            ("fleet", None),
            ("campaign", None),
            ("feed", None),
            ("recover", None),
        ] {
            let head: Vec<&str> = [name].into_iter().chain(role).collect();
            let block = blocks
                .iter()
                .find(|b| {
                    b.split_whitespace()
                        .take(head.len())
                        .eq(head.iter().copied())
                })
                .unwrap_or_else(|| panic!("{head:?} has no help entry"));
            let (options, _, _) = spec(name, role).expect("known subcommand");
            for option in options.split_whitespace() {
                let option = option.trim_end_matches(':');
                assert!(
                    block.contains(&format!("--{option}")),
                    "{head:?}: --{option}"
                );
            }
        }
    }

    #[test]
    fn help_lists_subcommands() {
        let out = run(&parse(&argv("help")).unwrap()).unwrap();
        for sub in [
            "analyze",
            "decide",
            "transplant",
            "migrate",
            "proxy",
            "cluster",
            "fleet",
            "campaign",
            "feed",
            "recover",
        ] {
            assert!(out.contains(sub), "{sub}");
        }
    }
}
