//! Datacenter-scale upgrade: plan and execute a rolling hypervisor
//! transplant of a 10-host × 10-VM cluster (the §5.4 experiment), scale
//! the same planner+executor to lazily-derived synthetic fleets through
//! the sharded campaign engine, then drive a single host through the
//! OpenStack-style "one-click" API.
//!
//! Run with: `cargo run --example datacenter_upgrade`

use hypertp::cluster::exec::{execute, execute_sharded_with, ExecConfig};
use hypertp::cluster::openstack::{pool, LibvirtDriver, NovaManager};
use hypertp::cluster::{plan_upgrade, Cluster};
use hypertp::prelude::*;
use hypertp::sim::fault::FaultPlan;
use hypertp::sim::WorkerPool;

fn main() {
    // Part 1: the BtrPlace-style plan for varying InPlaceTP coverage.
    println!("rolling upgrade of 10 hosts x 10 VMs (offline groups of 2):");
    let baseline = {
        let c = Cluster::paper_testbed(0, 42);
        execute(
            &c,
            &plan_upgrade(&c, 2).expect("plan"),
            &ExecConfig::default(),
        )
    };
    for pct in [0u32, 20, 40, 60, 80] {
        let cluster = Cluster::paper_testbed(pct, 42);
        let plan = plan_upgrade(&cluster, 2).expect("plan");
        let report = execute(&cluster, &plan, &ExecConfig::default());
        println!(
            "  {pct:>2}% InPlaceTP-compatible: {:>3} migrations, {:>2} in-place upgrades, \
             {:>5.1} min total ({:+.1}% vs all-migration)",
            report.migrations,
            report.inplace_upgrades,
            report.total.as_secs_f64() / 60.0,
            -report.time_gain_pct(&baseline),
        );
    }

    // Part 2: the same planner and executor at datacenter scale. Hosts
    // are derived lazily from the seed, so no per-host state is built up
    // front, and the sharded executor keeps reports byte-identical to a
    // sequential walk at any shard count.
    println!("\nsharded campaign engine on synthetic fleets (seed 42, groups of 25):");
    for hosts in [1_000usize, 10_000] {
        let fleet = Cluster::synthetic(hosts, 42).with_compat_percent(80);
        let plan = plan_upgrade(&fleet, 25).expect("plan");
        let report = execute_sharded_with(
            &fleet,
            &plan,
            &ExecConfig::default(),
            &FaultPlan::disarmed(),
            64,
            &WorkerPool::from_env(),
        );
        println!(
            "  {hosts:>6} hosts: {:>5} migrations + {:>4} in-place upgrades, \
             {:>6.1} h simulated, mean VM ready {:.0}s",
            report.migrations,
            report.inplace_upgrades,
            report.total.as_secs_f64() / 3600.0,
            report.mean_vm_ready.as_secs_f64(),
        );
    }

    // Part 3: the OpenStack integration — one host, one click.
    println!("\nNova-style host live upgrade:");
    let registry = pool();
    let clock = SimClock::new();
    let computes = (0..2)
        .map(|i| {
            let mut spec = MachineSpec::m1();
            spec.ram_gb = 8;
            LibvirtDriver::new(
                format!("compute-{i}"),
                spec,
                clock.clone(),
                &registry,
                HypervisorKind::Xen,
            )
            .expect("boot host")
        })
        .collect();
    let mut nova = NovaManager::new(registry, computes);
    nova.boot(&VmConfig::small("api-server")).expect("boot");
    nova.boot(&VmConfig::small("legacy-app").with_inplace_compatible(false))
        .expect("boot");
    let host = nova.host_of("api-server").expect("scheduled");
    let (report, evacuations) = nova
        .host_live_upgrade(host, HypervisorKind::Kvm)
        .expect("host live upgrade");
    println!(
        "  compute-{host}: {} evacuation(s), then in-place transplant of {} VM(s) \
         with {:.2}s downtime; now running {}",
        evacuations.len(),
        report.vm_count,
        report.downtime().as_secs_f64(),
        nova.compute(host).hypervisor_kind(),
    );
    for m in &evacuations {
        println!(
            "  evacuated '{}' in {:.1}s (downtime {:.1} ms)",
            m.vm_name,
            m.total.as_secs_f64(),
            m.downtime.as_millis_f64()
        );
    }
}
