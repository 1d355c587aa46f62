//! Transport equivalence for the §4.2 proxy pair: the same fleet, seeded
//! identically, must land a byte-identical destination — and identical
//! per-VM `WireStats` — whether it migrates through the in-process
//! engine, through the proxy pair over crossed in-process channels, or
//! through the proxy pair over a real Unix-domain socket. The proxies
//! share one `MigrationTp` (source) and one `DestProxy` (destination)
//! across the fleet, so cross-VM dedup flows over the wire exactly as it
//! does inside the engine.

use std::collections::HashMap;

use hypertp::prelude::*;
use hypertp_migrate::{
    guest_checksum, run_source, DestProxy, InProcTransport, MigrationReport, ProxyReport,
    Transport, UdsServerTransport, UdsTransport,
};
use hypertp_sim::fault::{FaultPlan, InjectionPoint, RecoveryAction};

const VMS: u32 = 3;

fn config() -> MigrationConfig {
    MigrationConfig {
        wire_mode: WireMode::ContentAware,
        dirty_rate_pages_per_sec: 2000.0,
        ..MigrationConfig::default()
    }
}

/// Seeds the wire-equivalence fleet: a block shared across VMs (cross-VM
/// dedup fodder), a per-VM unique block, everything else zero.
fn seed_fleet(hv: &mut dyn Hypervisor, m: &mut Machine) -> Vec<VmId> {
    for i in 0..VMS {
        let cfg = VmConfig::small(format!("wire{i}")).with_memory_gb(1);
        let pages = cfg.pages();
        let id = hv.create_vm(m, &cfg).unwrap();
        for k in 0..256u64 {
            hv.write_guest(m, id, Gfn(k % pages), k | 0xabcd_0000)
                .unwrap();
        }
        for k in 0..64u64 {
            let gfn = Gfn((1024 + k * 5 + u64::from(i) * 131) % pages);
            hv.write_guest(m, id, gfn, k ^ (u64::from(i) << 48))
                .unwrap();
        }
    }
    hv.vm_ids()
}

/// Per-VM destination observables that must not depend on the path.
#[derive(Debug, PartialEq)]
struct DestImage {
    checksums: Vec<u64>,
    uisr_blobs: Vec<Vec<u8>>,
}

fn capture(dst_m: &Machine, dst: &mut dyn Hypervisor) -> DestImage {
    let mut checksums = Vec::new();
    let mut uisr_blobs = Vec::new();
    for i in 0..VMS {
        let id = dst.find_vm(&format!("wire{i}")).unwrap();
        let gfns: Vec<Gfn> = dst
            .guest_memory_map(id)
            .unwrap()
            .iter()
            .flat_map(|(g, e)| (g.0..g.0 + e.pages()).map(Gfn))
            .collect();
        checksums.push(guest_checksum(dst_m, dst, id, &gfns).unwrap());
        dst.pause_vm(id).unwrap();
        uisr_blobs.push(hypertp_uisr::encode(&dst.save_uisr(dst_m, id).unwrap()));
    }
    DestImage {
        checksums,
        uisr_blobs,
    }
}

/// Sequential engine migrations sharing one cache — the in-process
/// baseline the proxy paths must match.
fn run_engine() -> (DestImage, Vec<MigrationReport>) {
    let registry = default_registry();
    let clock = SimClock::new();
    let mut src_m = Machine::with_clock(MachineSpec::m1(), clock.clone());
    let mut dst_m = Machine::with_clock(MachineSpec::m1(), clock);
    let mut src = registry.create(HypervisorKind::Xen, &mut src_m).unwrap();
    let mut dst = registry.create(HypervisorKind::Kvm, &mut dst_m).unwrap();
    let ids = seed_fleet(src.as_mut(), &mut src_m);
    let tp = MigrationTp::new().with_config(config());
    let reports = ids
        .iter()
        .map(|&id| {
            tp.migrate(&mut src_m, src.as_mut(), id, &mut dst_m, dst.as_mut())
                .unwrap()
        })
        .collect();
    (capture(&dst_m, dst.as_mut()), reports)
}

/// The same fleet through the proxy pair: one source process-half and one
/// destination process-half, three sessions over one connection.
fn run_proxy_fleet(
    src_transport: &mut dyn Transport,
    dst_transport: &mut dyn Transport,
) -> (DestImage, Vec<ProxyReport>) {
    let registry = default_registry();
    let mut src_m = Machine::with_clock(MachineSpec::m1(), SimClock::new());
    let mut dst_m = Machine::with_clock(MachineSpec::m1(), SimClock::new());
    let mut src = registry.create(HypervisorKind::Xen, &mut src_m).unwrap();
    let mut dst = registry.create(HypervisorKind::Kvm, &mut dst_m).unwrap();
    let ids = seed_fleet(src.as_mut(), &mut src_m);
    let tp = MigrationTp::new().with_config(config());
    std::thread::scope(|s| {
        let dest = s.spawn(move || {
            let mut proxy = DestProxy::new();
            for _ in 0..VMS {
                proxy
                    .serve(&mut dst_m, dst.as_mut(), dst_transport)
                    .unwrap();
            }
            (dst_m, dst)
        });
        let reports: Vec<ProxyReport> = ids
            .iter()
            .map(|&id| run_source(&tp, &mut src_m, src.as_mut(), id, src_transport).unwrap())
            .collect();
        let (dst_m, mut dst) = dest.join().unwrap();
        (capture(&dst_m, dst.as_mut()), reports)
    })
}

fn socket_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("htp-proxy-eq-{tag}-{}", std::process::id()))
}

/// Connects a UDS pair through a real socket file, destination bound
/// first in a helper thread (bind blocks for the accept).
fn uds_pair(tag: &str) -> (UdsTransport, UdsServerTransport) {
    let path = socket_path(tag);
    let server_path = path.clone();
    let server = std::thread::spawn(move || UdsServerTransport::bind(&server_path).unwrap());
    let client = UdsTransport::connect(&path).unwrap();
    (client, server.join().unwrap())
}

#[test]
fn proxy_fleet_matches_engine_on_both_transports() {
    let (engine_dst, engine_reports) = run_engine();

    let (mut ia, mut ib) = InProcTransport::pair();
    let (inproc_dst, inproc_reports) = run_proxy_fleet(&mut ia, &mut ib);

    let (mut ua, mut ub) = uds_pair("fleet");
    let (uds_dst, uds_reports) = run_proxy_fleet(&mut ua, &mut ub);
    let _ = std::fs::remove_file(socket_path("fleet"));

    assert_eq!(inproc_dst, engine_dst, "in-proc proxy diverged from engine");
    assert_eq!(uds_dst, engine_dst, "UDS proxy diverged from engine");

    for (e, p) in engine_reports.iter().zip(&inproc_reports) {
        assert_eq!(
            p.wire, e.wire,
            "{}: wire stats diverged (in-proc)",
            e.vm_name
        );
        assert_eq!(p.bytes_sent, e.bytes_sent);
        assert_eq!(p.rounds as usize, e.rounds.len());
        assert_eq!(p.downtime, e.downtime);
        assert_eq!(p.total, e.total);
    }
    for (a, b) in inproc_reports.iter().zip(&uds_reports) {
        assert_eq!(
            a.wire, b.wire,
            "{}: wire stats diverged across transports",
            a.vm_name
        );
        assert_eq!(a.bytes_sent, b.bytes_sent);
        assert_eq!(a.src_checksum, b.src_checksum);
        assert_eq!(a.dst_checksum, b.dst_checksum);
    }

    // Cross-VM dedup flowed over the wire: later VMs dedup the shared
    // block that the first VM shipped raw.
    use hypertp_migrate::FrameKind;
    let first_dups = inproc_reports[0].wire.count(FrameKind::Dup);
    for r in &inproc_reports[1..] {
        assert!(
            r.wire.count(FrameKind::Dup) >= first_dups + 200,
            "{}: expected cross-VM dups over the wire",
            r.vm_name
        );
    }
}

/// Chaos over a real socket: a mid-stream disconnect (socket torn down
/// and redialed), a truncated frame (whole-round nak + re-send) and a
/// corrupted UISR blob all recover through the protocol, and the
/// destination still lands the source's exact pause-time RAM.
#[test]
fn proxy_recovers_over_real_socket() {
    let registry = default_registry();
    let mut src_m = Machine::with_clock(MachineSpec::m1(), SimClock::new());
    let mut dst_m = Machine::with_clock(MachineSpec::m1(), SimClock::new());
    let mut src = registry.create(HypervisorKind::Xen, &mut src_m).unwrap();
    let mut dst = registry.create(HypervisorKind::Kvm, &mut dst_m).unwrap();
    let id = seed_fleet(src.as_mut(), &mut src_m)[0];

    let faults = FaultPlan::new(7);
    faults.arm_once(InjectionPoint::LinkDrop);
    faults.arm_once(InjectionPoint::TruncatedPage);
    faults.arm_once(InjectionPoint::UisrCorruption);
    let tp = MigrationTp::new().with_config(config()).with_faults(faults);

    let (mut client, mut server) = uds_pair("chaos");
    let (src_report, dst_report) = std::thread::scope(|s| {
        let dest = s.spawn(move || {
            let r = hypertp_migrate::DestProxy::new().serve(&mut dst_m, dst.as_mut(), &mut server);
            (r, dst_m, dst)
        });
        let srcr = run_source(&tp, &mut src_m, src.as_mut(), id, &mut client).unwrap();
        let (r, _, _) = dest.join().unwrap();
        (srcr, r.unwrap())
    });
    let _ = std::fs::remove_file(socket_path("chaos"));

    assert_eq!(src_report.src_checksum, dst_report.checksum);
    let log = tp.faults.log();
    let expect: HashMap<_, _> = [
        (InjectionPoint::LinkDrop, RecoveryAction::RetriedWithBackoff),
        (InjectionPoint::LinkDrop, RecoveryAction::ResumedFromRound),
        (InjectionPoint::TruncatedPage, RecoveryAction::ResentPages),
        (InjectionPoint::UisrCorruption, RecoveryAction::ResentUisr),
    ]
    .into_iter()
    .collect();
    for (point, action) in expect {
        assert!(
            log.recovered_via(point, action),
            "missing recovery {point:?} via {action:?}\n{}",
            log.render()
        );
    }
}
