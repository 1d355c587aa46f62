//! Pins what planned InPlaceTP and unplanned crash recovery produce, byte
//! for byte, with two digests.
//!
//! Both paths end in the same post-kexec sequence (parse and reserve PRAM,
//! scrub, adopt, verify, resume, release), and both keep a per-VM warm
//! cache. This test folds everything observable about them into
//! `sim::hash` digests:
//! - the reports (`InPlaceReport` as `{:?}`, `RecoveryReport` as `{:?}`
//!   and `render()`), every `TickReport` and the checkpointer cadence;
//! - the fault log;
//! - each restored VM's UISR as saved on the target, its memory map and
//!   its guest checksum;
//! - the clock, the boot count, the free-frame count and the addresses of
//!   the next frames the allocator hands out, so clock advances and the
//!   RAM allocation order are pinned too.
//!
//! The matrix: Xen→KVM and KVM→Xen; incremental translate off and on
//! with a hot dirty rate; strict pre-flight (the error path on a Xen
//! guest driving a high IOAPIC pin); `PramChecksum` armed; `WorkerPanic`
//! armed in the warm snapshot and at translate; a crash at each
//! `CrashPhase`; pools of 1 and 4 workers.
//!
//! A change that moves a digest changes behaviour. One `#[test]`, because
//! the planned engine takes its pool size from the process-wide
//! `HYPERTP_WORKERS`.

use hypertp::core::{
    crash_gate, CheckpointConfig, CrashPhase, HtpError, UnplannedRecovery, WarmCheckpointer,
};
use hypertp::machine::PageOrder;
use hypertp::prelude::*;
use hypertp::sim::fault::{FaultPlan, InjectionPoint, RecoveryAction};
use hypertp::sim::hash::digest_bytes;
use hypertp::sim::{CostModel, WorkerPool};

/// Digest of every planned InPlaceTP case.
const INPLACE_DIGEST: u64 = 0xd6d9_6f88_0165_99f6;
/// Digest of every crash-recovery case.
const UNPLANNED_DIGEST: u64 = 0xaf96_f369_9888_5506;

fn fold(acc: &mut u64, bytes: &[u8]) {
    let d = digest_bytes(bytes);
    *acc = (acc.rotate_left(7) ^ d.hi).wrapping_add(d.lo);
}

const NAMES: [&str; 3] = ["pin-a", "pin-b", "pin-c"];

fn spec() -> MachineSpec {
    let mut spec = MachineSpec::m1();
    spec.ram_gb = 8;
    spec
}

/// Three guests of 1, 2 and 1 vCPUs, each with a spread of written words.
fn populate(m: &mut Machine, hv: &mut dyn Hypervisor) {
    for (i, name) in NAMES.iter().enumerate() {
        let cfg = VmConfig::small(*name).with_vcpus(1 + (i as u32 % 2));
        let id = hv.create_vm(m, &cfg).unwrap();
        for k in 0..48u64 {
            let gfn = Gfn((k * 4099 + i as u64 * 131) % cfg.pages());
            hv.write_guest(m, id, gfn, k ^ ((i as u64) << 32) ^ 0x9199_0000)
                .unwrap();
        }
        hv.guest_tick(m, id, 12).unwrap();
    }
}

/// A host running `source` with the three guests. With `high_pin`, a Xen
/// source's first guest drives IOAPIC pin 40, which KVM does not have.
fn host(source: HypervisorKind, high_pin: bool) -> (Machine, Box<dyn Hypervisor>) {
    let mut m = Machine::new(spec());
    let hv: Box<dyn Hypervisor> = match source {
        HypervisorKind::Xen => {
            let mut xen = XenHypervisor::new(&mut m);
            populate(&mut m, &mut xen);
            if high_pin {
                let id = xen.find_vm(NAMES[0]).unwrap();
                xen.domain_mut(id).unwrap().ioapic.redirtbl[40] = 0x31;
            }
            Box::new(xen)
        }
        HypervisorKind::Kvm => {
            let mut kvm = KvmHypervisor::new(&mut m);
            populate(&mut m, &mut kvm);
            Box::new(kvm)
        }
    };
    (m, hv)
}

/// Folds the machine-wide state every case ends in: clock, boots, free
/// frames and the next frames the allocator hands out.
fn fold_machine(acc: &mut u64, m: &mut Machine) {
    fold(
        acc,
        format!(
            "{:?} boots={} free={}",
            m.clock().now(),
            m.boot_count(),
            m.ram().free_frames()
        )
        .as_bytes(),
    );
    for order in [0u8, 0, 3, 9] {
        let e = m.ram_mut().alloc(PageOrder(order)).unwrap();
        fold(acc, format!("{e:?}").as_bytes());
    }
}

/// Folds each landed VM's UISR (saved on the target), memory map and guest
/// checksum, then the machine state.
fn fold_landed(acc: &mut u64, m: &mut Machine, hv: &mut dyn Hypervisor) {
    for name in NAMES {
        let id = hv.find_vm(name).unwrap();
        hv.pause_vm(id).unwrap();
        let uisr = hv.save_uisr(m, id).unwrap();
        hv.resume_vm(id).unwrap();
        fold(acc, &hypertp::uisr::encode(&uisr));
        let map = hv.guest_memory_map(id).unwrap();
        fold(acc, format!("{map:?}").as_bytes());
        let extents: Vec<_> = map.iter().map(|(_, e)| *e).collect();
        let checksum = m.ram().checksum_with_pool(&extents, &WorkerPool::serial());
        fold(acc, &checksum.to_le_bytes());
    }
    fold_machine(acc, m);
}

/// One planned-transplant variant of the matrix.
struct Variant {
    incremental: bool,
    strict: bool,
    /// The armed point, its call ordinals and the recovery it must log.
    arm: Option<(InjectionPoint, &'static [u64], RecoveryAction)>,
}

const VARIANTS: [Variant; 6] = [
    Variant {
        incremental: false,
        strict: false,
        arm: None,
    },
    Variant {
        incremental: true,
        strict: false,
        arm: None,
    },
    Variant {
        incremental: false,
        strict: true,
        arm: None,
    },
    Variant {
        incremental: false,
        strict: false,
        arm: Some((
            InjectionPoint::PramChecksum,
            &[1],
            RecoveryAction::RebuiltPram,
        )),
    },
    // Incremental on: call 1 dooms the warm snapshot's first task.
    Variant {
        incremental: true,
        strict: false,
        arm: Some((
            InjectionPoint::WorkerPanic,
            &[1],
            RecoveryAction::FellBackToFullTranslate,
        )),
    },
    // Incremental off: call 2 dooms the second translate task.
    Variant {
        incremental: false,
        strict: false,
        arm: Some((
            InjectionPoint::WorkerPanic,
            &[2],
            RecoveryAction::TaskRetriedInline,
        )),
    },
];

fn inplace_case(acc: &mut u64, source: HypervisorKind, target: HypervisorKind, v: &Variant) {
    let registry = default_registry();
    let (mut m, hv) = host(source, v.strict);
    let plan = FaultPlan::new(0x9199_0001);
    if let Some((point, calls, _)) = v.arm {
        plan.arm_calls(point, calls);
    }
    let engine = InPlaceTransplant::new(&registry)
        .with_faults(plan.clone())
        .with_optimizations(Optimizations {
            incremental_translate: v.incremental,
            strict_preflight: v.strict,
            ..Optimizations::default()
        })
        .with_incremental(IncrementalConfig {
            dirty_rate_pages_per_sec: 6000.0,
            ..IncrementalConfig::default()
        });
    let case = format!("{source:?}→{target:?}");
    match engine.run(&mut m, hv, target) {
        Ok((mut hv, report)) => {
            assert!(!(v.strict && source == HypervisorKind::Xen), "{case}");
            if v.incremental && v.arm.is_none() {
                assert!(report.warm_rounds.len() > 1, "{case}: no warm refresh");
                assert!(report.dirty_fraction < 1.0, "{case}");
            }
            fold(acc, format!("{report:?}").as_bytes());
            fold_landed(acc, &mut m, hv.as_mut());
        }
        Err(e) => {
            assert!(
                v.strict && matches!(e, HtpError::IncompatibleState { .. }),
                "{case}: {e}"
            );
            fold(acc, format!("{e:?}").as_bytes());
            fold_machine(acc, &mut m);
        }
    }
    let log = plan.log();
    if let Some((point, _, action)) = v.arm {
        assert!(log.recovered_via(point, action), "{case}: {action:?}");
    }
    fold(acc, log.render().as_bytes());
}

fn unplanned_case(
    acc: &mut u64,
    source: HypervisorKind,
    target: HypervisorKind,
    workers: usize,
    (ordinal, phase): (u64, Option<CrashPhase>),
) {
    let registry = default_registry();
    let (mut m, mut hv) = host(source, false);
    let plan = FaultPlan::new(0x9199_0002);
    plan.arm_calls(InjectionPoint::HypervisorCrash, &[ordinal]);
    let cfg = CheckpointConfig {
        staleness_bound_pages: 64,
        ..CheckpointConfig::default()
    };
    let mut ckpt = WarmCheckpointer::start_with(
        &mut m,
        hv.as_mut(),
        target,
        cfg,
        CostModel::paper_calibrated(),
        plan.clone(),
        WorkerPool::new(workers),
    )
    .unwrap();
    let mut crashed = None;
    for _ in 0..2 {
        let tick = ckpt.tick(&mut m, hv.as_mut(), 48).unwrap();
        fold(acc, format!("{tick:?}").as_bytes());
        if tick.crashed.is_some() {
            crashed = tick.crashed;
            break;
        }
    }
    assert_eq!(crashed, phase, "ordinal {ordinal}");
    if crashed.is_none() {
        assert!(crash_gate(&plan, "idle watchdog"), "ordinal {ordinal}");
    }
    fold(acc, ckpt.cadence_render().as_bytes());
    let (mut hv, report) = UnplannedRecovery::new(&registry)
        .with_faults(plan.clone())
        .recover(&mut m, hv, ckpt)
        .unwrap();
    fold(acc, format!("{report:?}").as_bytes());
    fold(acc, report.render().as_bytes());
    fold_landed(acc, &mut m, hv.as_mut());
    fold(acc, plan.log().render().as_bytes());
}

#[test]
fn planned_and_unplanned_transplants_are_pinned() {
    let directions = [
        (HypervisorKind::Xen, HypervisorKind::Kvm),
        (HypervisorKind::Kvm, HypervisorKind::Xen),
    ];
    let digests: Vec<(u64, u64)> = [1usize, 4]
        .into_iter()
        .map(|workers| {
            std::env::set_var("HYPERTP_WORKERS", workers.to_string());
            let (mut inplace, mut unplanned) = (0u64, 0u64);
            for (source, target) in directions {
                for v in &VARIANTS {
                    inplace_case(&mut inplace, source, target, v);
                }
                // After one clean tick, ordinals 4..=6 land in tick 2's
                // warm-round, refresh and finalize gates; 7 is the idle
                // watchdog after both ticks.
                for crash in [
                    (4, Some(CrashPhase::WarmRound)),
                    (5, Some(CrashPhase::Refresh)),
                    (6, Some(CrashPhase::Finalize)),
                    (7, None),
                ] {
                    unplanned_case(&mut unplanned, source, target, workers, crash);
                }
            }
            (inplace, unplanned)
        })
        .collect();
    std::env::remove_var("HYPERTP_WORKERS");
    assert_eq!(digests[0], digests[1], "1 and 4 workers disagree");
    assert_eq!(
        digests[0],
        (INPLACE_DIGEST, UNPLANNED_DIGEST),
        "planned/unplanned transplant digests moved: {:#x?}",
        digests[0]
    );
}
