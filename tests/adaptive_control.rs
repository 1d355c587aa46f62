//! Seeded property tests for the adaptive pre-copy control plane (PR 4).
//!
//! Three properties, each over deterministic seeded inputs:
//!
//! 1. **Budget safety** — across 200 random (dirty-rate, budget, wire
//!    mode) configurations, a migration with a downtime budget lands at
//!    or under `floor + budget + one-frame quantum`, where `floor` is
//!    the incompressible downtime of an empty stop set (UISR blob,
//!    activation, link latency).
//! 2. **Auto-converge byte dominance** — on the same trace, an
//!    auto-converging migration never puts more total bytes on the wire
//!    than the static configuration (throttling only shrinks dirty sets,
//!    and the forced stop only removes rounds). Budgeted runs are
//!    excluded by design: a budget legitimately trades extra pre-copy
//!    bytes for bounded downtime.
//! 3. **Fleet determinism** — `migrate_fleet` schedules are invariant
//!    under the worker-pool width, and the destination guest contents
//!    are byte-identical whether the fleet was admitted FIFO or
//!    shortest-predicted-first.

use hypertp::prelude::*;
use hypertp_migrate::{migrate_fleet, FleetOrder, FleetPolicy, FleetVm, Link};
use hypertp_sim::{SimRng, WorkerPool};

fn pair() -> (Machine, Machine) {
    let clock = SimClock::new();
    let mut spec = MachineSpec::m1();
    spec.ram_gb = 4;
    (
        Machine::with_clock(spec.clone(), clock.clone()),
        Machine::with_clock(spec, clock),
    )
}

/// One 1 GiB migration Xen→kvmtool with the given knobs; returns the
/// report.
fn one_migration(
    dirty_rate: f64,
    budget: Option<SimDuration>,
    wire_mode: WireMode,
    auto_converge: bool,
) -> hypertp_migrate::MigrationReport {
    let (mut src_m, mut dst_m) = pair();
    let mut src = XenHypervisor::new(&mut src_m);
    let mut dst = KvmHypervisor::new(&mut dst_m);
    let id = src.create_vm(&mut src_m, &VmConfig::small("prop")).unwrap();
    // A little real content so the content-aware path sees non-zero
    // pages from round 0.
    for k in 0..32u64 {
        src.write_guest(&mut src_m, id, Gfn(k * 101), k ^ 0x9e37_79b9)
            .unwrap();
    }
    let cfg = MigrationConfig {
        dirty_rate_pages_per_sec: dirty_rate,
        downtime_budget: budget,
        wire_mode,
        auto_converge,
        ..MigrationConfig::default()
    };
    let tp = MigrationTp::new().with_config(cfg);
    tp.migrate(&mut src_m, &mut src, id, &mut dst_m, &mut dst)
        .unwrap()
}

#[test]
fn property_budgeted_downtime_stays_under_budget_plus_floor() {
    // The incompressible floor: a rate-0 guest pauses with an empty
    // stop set, so its downtime is pure UISR + activation + latency.
    let floor = one_migration(0.0, None, WireMode::Raw, false).downtime;
    // One stop-copy quantum of slack: the budget→pages conversion
    // floors to whole pages and the blob transfer adds a second link
    // latency the fixed-cost estimate only counts once.
    let quantum = Link::gigabit().transfer(2 * 4112, 1);
    let bound = |budget: SimDuration| floor + budget + quantum;

    let mut rng = SimRng::new(0xada0_0001);
    for i in 0..200u32 {
        let rate = 100.0 + rng.gen_range(3900) as f64; // 100..4000 pages/s
        let budget = SimDuration::from_millis(5 + rng.gen_range(196)); // 5..200 ms
        let mode = if i % 2 == 0 {
            WireMode::Raw
        } else {
            WireMode::ContentAware
        };
        let r = one_migration(rate, Some(budget), mode, false);
        assert!(
            r.downtime <= bound(budget),
            "config {i} (rate {rate}, budget {budget:?}, {}): downtime {:?} \
             exceeds floor {floor:?} + budget + quantum",
            mode.name(),
            r.downtime,
        );
        assert!(
            r.stop_pages <= r.rounds.last().unwrap().stop_threshold,
            "config {i}: stop set exceeded the adaptive threshold"
        );
    }
}

#[test]
fn property_auto_converge_never_ships_more_bytes_than_static() {
    // High dirty rates where the static config burns the round cap; the
    // throttle can only shrink dirty sets, so adaptive bytes are a
    // lower bound. (No budget: a budget trades bytes for downtime.)
    for &rate in &[2.0e4, 8.0e4, 2.5e5] {
        for &mode in &[WireMode::Raw, WireMode::ContentAware] {
            let stat = one_migration(rate, None, mode, false);
            let adap = one_migration(rate, None, mode, true);
            assert!(
                adap.bytes_sent <= stat.bytes_sent,
                "rate {rate} {}: adaptive {} > static {}",
                mode.name(),
                adap.bytes_sent,
                stat.bytes_sent
            );
            assert!(
                adap.downtime <= stat.downtime,
                "rate {rate} {}: throttling must not worsen downtime",
                mode.name()
            );
            assert!(adap.final_throttle < 1.0, "rate {rate}: throttle engaged");
        }
    }
    // Convergent guests are untouched: the controller observes but the
    // streak never fires, so the runs are byte-identical.
    let stat = one_migration(500.0, None, WireMode::Raw, false);
    let adap = one_migration(500.0, None, WireMode::Raw, true);
    assert_eq!(adap.bytes_sent, stat.bytes_sent);
    assert_eq!(adap.downtime, stat.downtime);
    assert_eq!(adap.total, stat.total);
}

/// Runs a 3-VM heterogeneous fleet and returns (reports, destination
/// probe words per VM).
fn fleet_run(order: FleetOrder, pool: WorkerPool) -> (hypertp_migrate::FleetReport, Vec<Vec<u64>>) {
    let (mut src_m, mut dst_m) = pair();
    let mut src = XenHypervisor::new(&mut src_m);
    let mut dst = KvmHypervisor::new(&mut dst_m);
    let ids: Vec<VmId> = (0..3)
        .map(|i| {
            let id = src
                .create_vm(&mut src_m, &VmConfig::small(format!("fleet{i}")))
                .unwrap();
            for k in 0..24u64 {
                src.write_guest(
                    &mut src_m,
                    id,
                    Gfn(k * 37 + i),
                    k ^ (u64::from(i as u32) << 20),
                )
                .unwrap();
            }
            id
        })
        .collect();
    let vms = vec![
        FleetVm::with_dirty_rate(ids[0], 3000.0),
        FleetVm::with_dirty_rate(ids[1], 1.0),
        FleetVm::with_dirty_rate(ids[2], 800.0),
    ];
    let tp = MigrationTp::new().with_pool(pool);
    let fleet = migrate_fleet(
        &tp,
        &mut src_m,
        &mut src,
        &vms,
        &mut dst_m,
        &mut dst,
        FleetPolicy {
            order,
            max_concurrent: 2,
            compression_hint: 1.0,
        },
    )
    .unwrap();
    let probes = (0..3)
        .map(|i| {
            let id = dst.find_vm(&format!("fleet{i}")).expect("VM arrived");
            (0..24u64)
                .map(|k| dst.read_guest(&dst_m, id, Gfn(k * 37 + i)).unwrap())
                .collect()
        })
        .collect();
    (fleet, probes)
}

#[test]
fn property_fleet_schedule_is_worker_count_invariant() {
    for order in [FleetOrder::Fifo, FleetOrder::ShortestPredictedFirst] {
        let (serial, probes_serial) = fleet_run(order, WorkerPool::serial());
        let (pooled, probes_pooled) = fleet_run(order, WorkerPool::new(8));
        assert_eq!(serial.admission, pooled.admission, "{}", order.name());
        assert_eq!(serial.makespan, pooled.makespan, "{}", order.name());
        assert_eq!(probes_serial, probes_pooled, "{}", order.name());
        for (a, b) in serial.reports.iter().zip(&pooled.reports) {
            assert_eq!(a.vm_name, b.vm_name);
            assert_eq!(a.rounds, b.rounds);
            assert_eq!(a.downtime, b.downtime);
            assert_eq!(a.total, b.total);
            assert_eq!(a.bytes_sent, b.bytes_sent);
        }
    }
}

#[test]
fn property_fleet_order_never_changes_destination_contents() {
    let (fifo, probes_fifo) = fleet_run(FleetOrder::Fifo, WorkerPool::serial());
    let (spdf, probes_spdf) = fleet_run(FleetOrder::ShortestPredictedFirst, WorkerPool::serial());
    assert_eq!(
        probes_fifo, probes_spdf,
        "admission order must never change what lands on the destination"
    );
    assert_ne!(fifo.admission, spdf.admission, "orders actually differ");
    // Raw mode: each VM's data phase is order-independent, so per-VM
    // bytes agree exactly.
    for (a, b) in fifo.reports.iter().zip(&spdf.reports) {
        assert_eq!(a.vm_name, b.vm_name);
        assert_eq!(a.bytes_sent, b.bytes_sent);
    }
    // The predicted-fastest VM (idle fleet1) reaches the destination no
    // later under SPDF than under FIFO.
    assert!(spdf.reports[1].total <= fifo.reports[1].total);
}
