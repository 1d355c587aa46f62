//! `InPlacePricer::price` against the engine: the one in-place pricing
//! the campaign executor and crash recovery charge must be the stage
//! costs a real InPlaceTP reports, on the Fig. 6 shapes (M1 and M2,
//! Xen→KVM and KVM→Xen, 1 × 1 GiB and 12 × 1 GiB, default
//! optimizations).
//!
//! The bound: PRAM and translation are equal. Reboot and restoration
//! differ only by what the pricer cannot see from the VM shapes — the
//! UISR blob files' PRAM entries, which the early-boot parse also walks,
//! and the CPU time to resume the VMs.

use hypertp::prelude::*;
use hypertp_core::InPlacePricer;
use hypertp_sim::CostModel;

#[test]
fn price_matches_the_engine_on_the_fig6_shapes() {
    let cost = CostModel::paper_calibrated();
    for spec in [MachineSpec::m1(), MachineSpec::m2()] {
        for (from, to) in [
            (HypervisorKind::Xen, HypervisorKind::Kvm),
            (HypervisorKind::Kvm, HypervisorKind::Xen),
        ] {
            for n in [1u32, 12] {
                let case = format!("{} {from:?}→{to:?} {n} × 1 GiB", spec.name);
                let perf = spec.perf();
                let registry = default_registry();
                let mut machine = Machine::new(spec.clone());
                let mut hv = registry.create(from, &mut machine).unwrap();
                let mut vms = Vec::new();
                for i in 0..n {
                    let cfg = VmConfig::small(format!("vm{i}"));
                    hv.create_vm(&mut machine, &cfg).unwrap();
                    vms.push(cfg.shape());
                }
                let (_, report) = InPlaceTransplant::new(&registry)
                    .run(&mut machine, hv, to)
                    .unwrap();

                let pricer = InPlacePricer::new(&cost, perf, Optimizations::default());
                let guest_entries: u64 = vms.iter().map(|v| v.entries).sum();
                let price = pricer.price(&vms, to, guest_entries, false);
                assert_eq!(price.pram, report.pram, "{case}");
                assert_eq!(price.translation, report.translation, "{case}");

                // Reboot: the blob files' entries are the whole gap.
                let blob_entries = report.pram_stats.entries - guest_entries;
                assert!(blob_entries > 0, "{case}");
                let seen = pricer.price(&vms, to, report.pram_stats.entries, false);
                assert_eq!(seen.reboot, report.reboot, "{case}");
                let parse = perf.cpu(cost.pram_parse_ghz_s_per_entry * blob_entries as f64);
                let gap = report.reboot - price.reboot;
                assert!(
                    gap <= parse + SimDuration::from_nanos(1),
                    "{case}: {gap:?} over {parse:?}"
                );

                // Restoration: the resume is the whole gap.
                assert_eq!(
                    report.restoration,
                    price.restoration + pricer.resume(n as usize),
                    "{case}"
                );
            }
        }
    }
}
