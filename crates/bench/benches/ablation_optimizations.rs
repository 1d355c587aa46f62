//! Bench: framework cost of InPlaceTP under each §4.2.5 optimization
//! configuration (the *simulated-time* ablation lives in the
//! `exp ablation` run; this measures the engine itself).
//!
//! Runs on the in-tree timing harness (`hypertp_bench::harness`) so the
//! workspace builds offline; same group/bench ids as the old Criterion
//! bench.

use hypertp_bench::harness::{self, Group};
use hypertp_core::{HypervisorKind, InPlaceTransplant, Optimizations, VmConfig};
use hypertp_machine::{Machine, MachineSpec};

fn run(opts: Optimizations) {
    let registry = hypertp_bench::registry();
    let mut machine = Machine::new(MachineSpec::m1());
    let mut hv = registry
        .create(HypervisorKind::Xen, &mut machine)
        .expect("boot");
    for i in 0..4 {
        hv.create_vm(&mut machine, &VmConfig::small(format!("vm{i}")))
            .expect("create");
    }
    let engine = InPlaceTransplant::new(&registry).with_optimizations(opts);
    let out = engine
        .run(&mut machine, hv, HypervisorKind::Kvm)
        .expect("transplant");
    std::hint::black_box(out);
}

fn main() {
    harness::header();
    let mut g = Group::new("ablation_optimizations");
    g.sample_size(10);
    let configs: [(&str, Optimizations); 4] = [
        ("all", Optimizations::default()),
        (
            "no_prepare",
            Optimizations {
                prepare_before_pause: false,
                ..Optimizations::default()
            },
        ),
        (
            "no_parallel",
            Optimizations {
                parallel: false,
                ..Optimizations::default()
            },
        ),
        ("none", Optimizations::none()),
    ];
    for (name, opts) in configs {
        g.bench(name, || run(opts));
    }
    g.finish();
}
