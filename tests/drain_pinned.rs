//! Pins the two k-slot migration drains bit for bit: the plan executor's
//! group drain (`cluster::exec`) and the fleet scheduler's admission loop
//! (`migrate_fleet`), under every admission order.
//!
//! Both digests were recorded before the two drains were folded onto one
//! slot calendar and one admission rule, so any reordering — a tie broken
//! by position instead of VM index, a sort keyed on the contended price, a
//! schedule replayed in admission order instead of end order — moves a
//! digest. The fleets are built to make those differences visible: group
//! migrations are also run in reverse VM-index order, and several VMs
//! share a class, so equal predictions must fall to the VM index.

use hypertp::prelude::*;
use hypertp_cluster::exec::{execute, ExecConfig, SloExecConfig};
use hypertp_cluster::{plan_upgrade, Cluster, Plan};
use hypertp_migrate::{
    migrate_fleet, FleetOrder, FleetPolicy, FleetReport, FleetVm, Link, SloVm, TrafficCurve,
};
use hypertp_sim::hash::digest_bytes;

const ORDERS: [FleetOrder; 3] = [
    FleetOrder::Fifo,
    FleetOrder::ShortestPredictedFirst,
    FleetOrder::SloAware,
];

/// Digest of every `ExecReport::render()` in [`exec_renders`].
const EXEC_DIGEST: u128 = 0x6db9_397b_f5ba_72c2_6585_2c10_e431_1e00;

/// Digest of every fleet rendering in [`fleet_renders`].
const FLEET_DIGEST: u128 = 0x6a8c_45bb_4604_b44b_68de_001a_ab5c_c136;

/// The executor over the paper testbed's plan and the same plan with each
/// group's actions reversed, on both fabrics, under every order, with SLO
/// accounting off and on, serialized and three-wide.
fn exec_renders() -> String {
    let cluster = Cluster::paper_testbed(0, 42);
    let plan = plan_upgrade(&cluster, 2).expect("the testbed plans");
    let reversed = Plan::from_groups(
        (0..plan.group_count())
            .map(|g| plan.group_actions(g).collect::<Vec<_>>().into_iter().rev()),
    );
    let mut out = String::new();
    for (name, plan) in [("planner", &plan), ("reversed", &reversed)] {
        for link in [Link::ten_gigabit(), Link::gigabit()] {
            for order in ORDERS {
                for slo in [None, Some(SloExecConfig::default())] {
                    for slots in [1, 3] {
                        let cfg = ExecConfig {
                            link,
                            fleet_order: order,
                            slo,
                            max_concurrent_migrations: slots,
                            ..ExecConfig::default()
                        };
                        let r = execute(&cluster, plan, &cfg);
                        out += &format!(
                            "{name} {} {order:?} slo={} k={slots}: {}\n",
                            link.gbps,
                            slo.is_some(),
                            r.render()
                        );
                    }
                }
            }
        }
    }
    out
}

/// A diurnal curve that carries traffic (so it contends the link).
fn curve(peak_qps: f64, offset_s: u64) -> TrafficCurve {
    TrafficCurve {
        peak_qps,
        trough_fraction: 0.1,
        peak_offset: SimDuration::from_secs(offset_s),
        period: SimDuration::from_secs(120),
        sharpness: 2,
        bytes_per_query: 40_000.0,
    }
}

/// Six 1 GiB VMs migrating KVM → Xen (a sequential receiver, so the order
/// stop-and-copies reach it shows in every downtime): three dirty-rate
/// classes shared two by two, four carrying SLOs, two of them identical.
fn fleet_run(order: FleetOrder, max_concurrent: usize) -> FleetReport {
    let clock = SimClock::new();
    let mut spec = MachineSpec::m1();
    spec.ram_gb = 8;
    let mut src_m = Machine::with_clock(spec.clone(), clock.clone());
    let mut dst_m = Machine::with_clock(spec, clock);
    let mut src = KvmHypervisor::new(&mut src_m);
    let mut dst = XenHypervisor::new(&mut dst_m);
    let rates = [900.0, 60.0, 900.0, 2_400.0, 60.0, 2_400.0];
    let slos = [
        Some(curve(3_000.0, 0)),
        None,
        Some(curve(3_000.0, 0)),
        Some(curve(1_500.0, 60)),
        None,
        Some(curve(4_000.0, 30)),
    ];
    let vms: Vec<FleetVm> = (0..rates.len())
        .map(|i| {
            let id = src
                .create_vm(&mut src_m, &VmConfig::small(format!("pin-{i}")))
                .unwrap();
            for k in 0..16u64 {
                src.write_guest(&mut src_m, id, Gfn(k * 61 + i as u64), k ^ i as u64)
                    .unwrap();
            }
            let vm = FleetVm::with_dirty_rate(id, rates[i]);
            match slos[i] {
                Some(traffic) => vm.with_slo(SloVm {
                    traffic,
                    degraded_capacity: 0.5,
                    error_budget: SimDuration::from_secs(60),
                }),
                None => vm,
            }
        })
        .collect();
    migrate_fleet(
        &MigrationTp::new(),
        &mut src_m,
        &mut src,
        &vms,
        &mut dst_m,
        &mut dst,
        FleetPolicy {
            order,
            max_concurrent,
            compression_hint: 1.0,
        },
    )
    .unwrap()
}

/// Every schedule field of the fleet report under each order, unbounded
/// and two-wide.
fn fleet_renders() -> String {
    let mut out = String::new();
    for order in ORDERS {
        for max_concurrent in [0, 2] {
            let r = fleet_run(order, max_concurrent);
            let per_vm: Vec<(u64, u64)> = r
                .reports
                .iter()
                .map(|m| (m.downtime.as_nanos(), m.total.as_nanos()))
                .collect();
            out += &format!(
                "{order:?} k={max_concurrent}: admission={:?} starts={:?} \
                 predictions={:?} admission_predictions={:?} per_vm={per_vm:?} \
                 slo={:?} makespan={:?}\n",
                r.admission, r.starts, r.predictions, r.admission_predictions, r.slo, r.makespan,
            );
        }
    }
    out
}

#[test]
fn exec_drain_is_pinned() {
    let renders = exec_renders();
    let digest = digest_bytes(renders.as_bytes()).as_u128();
    assert_eq!(digest, EXEC_DIGEST, "exec digest {digest:#034x}\n{renders}");
}

#[test]
fn fleet_drain_is_pinned() {
    let renders = fleet_renders();
    let digest = digest_bytes(renders.as_bytes()).as_u128();
    assert_eq!(
        digest, FLEET_DIGEST,
        "fleet digest {digest:#034x}\n{renders}"
    );
}
