//! Failure-injection tests: the transplant path must fail loudly, not
//! corrupt guests, when its protection mechanisms are bypassed.

use hypertp::prelude::*;
use hypertp_core::{HtpError, Hypervisor};
use hypertp_machine::PageOrder;
use hypertp_pram::{PramBuilder, PramImage};

#[test]
fn booting_without_pram_reservation_destroys_guest_memory() {
    // The §4.2.4 "logic to ensure that the VM memory regions managed by
    // PRAM are not accidentally erased": skip it, and the boot scrub
    // really does destroy guest memory. This validates the failure mode
    // the mechanism exists to prevent.
    let mut m = Machine::new(MachineSpec::m1());
    let mut xen: Box<dyn Hypervisor> = Box::new(XenHypervisor::new(&mut m));
    let id = xen.create_vm(&mut m, &VmConfig::small("victim")).unwrap();
    xen.write_guest(&mut m, id, Gfn(1), 0x600D).unwrap();
    let map = xen.guest_memory_map(id).unwrap();
    let extents: Vec<_> = map.iter().map(|(_, e)| *e).collect();
    let serial = hypertp::sim::WorkerPool::serial();
    let sum_before = m.ram().checksum_with_pool(&extents, &serial);

    // Kexec without building/parsing PRAM: ownership is forgotten and
    // nothing is reserved.
    m.kexec_load(hypertp::machine::KexecImage {
        target: hypertp::sim::cost::BootTarget::LinuxKvm,
        cmdline: "no-pram".to_string(),
    });
    drop(xen);
    m.kexec().unwrap();
    let scrubbed = m.ram_mut().scrub_unreserved();
    assert!(scrubbed > 0);
    assert_ne!(
        m.ram().checksum_with_pool(&extents, &serial),
        sum_before,
        "guest memory must be gone without PRAM protection"
    );
}

#[test]
fn corrupted_pram_pointer_fails_parse() {
    let mut m = Machine::new(MachineSpec::m1());
    let mut xen: Box<dyn Hypervisor> = Box::new(XenHypervisor::new(&mut m));
    let id = xen.create_vm(&mut m, &VmConfig::small("vm0")).unwrap();
    let mut builder = PramBuilder::new();
    builder.add_file("vm0", 0, xen.guest_memory_map(id).unwrap());
    let handle = builder.write(m.ram_mut()).unwrap();
    // A wrong pointer (off by one page) must be rejected by the magic
    // check, not silently mis-parse.
    let bogus = handle.pram_ptr + 4096;
    assert!(PramImage::parse(m.ram(), bogus).is_err());
}

#[test]
fn missing_uisr_blob_aborts_restoration() {
    // Hand-craft a PRAM image with a guest file but no UISR blob: the
    // engine must refuse to adopt rather than fabricate vCPU state. We
    // exercise the engine's restore path indirectly by checking the blob
    // lookup requirement through uisr_store naming.
    let mut ram = hypertp::machine::PhysicalMemory::new(1024);
    let e = ram.alloc(PageOrder(0)).unwrap();
    let mut builder = PramBuilder::new();
    builder.add_file("ghost", 0, vec![(Gfn(0), e)]);
    let handle = builder.write(&mut ram).unwrap();
    let image = PramImage::parse(&ram, handle.pram_ptr).unwrap();
    assert!(image.file("ghost").is_some());
    assert!(
        image
            .file(&hypertp::core::uisr_store::uisr_file_name("ghost"))
            .is_none(),
        "no blob was stored for the guest file"
    );
}

#[test]
fn transplant_to_unpooled_hypervisor_leaves_source_running() {
    let mut m = Machine::new(MachineSpec::m1());
    let mut registry = hypertp_core::HypervisorRegistry::new();
    registry.register(HypervisorKind::Xen, |machine| {
        Box::new(XenHypervisor::new(machine))
    });
    // KVM is *not* registered.
    let mut xen: Box<dyn Hypervisor> = Box::new(XenHypervisor::new(&mut m));
    let id = xen.create_vm(&mut m, &VmConfig::small("vm0")).unwrap();
    let engine = InPlaceTransplant::new(&registry);
    match engine.run(&mut m, xen, HypervisorKind::Kvm) {
        Err(HtpError::UnknownHypervisor(name)) => assert_eq!(name, "KVM"),
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("must fail"),
    }
    // The machine never rebooted.
    assert_eq!(m.boot_count(), 1);
    let _ = id;
}

#[test]
fn vcpu_count_mismatch_rejected_at_restore() {
    // A UISR blob claiming more vCPUs than the prepared shell must be
    // rejected by the destination's from_uisr path.
    let registry = default_registry();
    let clock = SimClock::new();
    let mut src_m = Machine::with_clock(MachineSpec::m1(), clock.clone());
    let mut dst_m = Machine::with_clock(MachineSpec::m1(), clock);
    let mut xen = registry.create(HypervisorKind::Xen, &mut src_m).unwrap();
    let mut kvm = registry.create(HypervisorKind::Kvm, &mut dst_m).unwrap();
    let id = xen
        .create_vm(&mut src_m, &VmConfig::small("vm0").with_vcpus(2))
        .unwrap();
    xen.pause_vm(id).unwrap();
    let mut uisr = xen.save_uisr(&src_m, id).unwrap();
    uisr.vcpus.push(uisr.vcpus[0].clone()); // Forge a third vCPU.
    let shell = kvm
        .prepare_incoming(&mut dst_m, &VmConfig::small("vm0").with_vcpus(2))
        .unwrap();
    match kvm.restore_uisr(&mut dst_m, shell, &uisr) {
        Err(HtpError::IncompatibleState { section, .. }) => assert_eq!(section, "CPU"),
        other => panic!("expected incompatible state, got {other:?}"),
    }
}

#[test]
fn oversized_vm_is_rejected_at_creation() {
    let mut m = Machine::new(MachineSpec::m1()); // 16 GB.
    let mut xen: Box<dyn Hypervisor> = Box::new(XenHypervisor::new(&mut m));
    let too_big = VmConfig::small("huge").with_memory_gb(64);
    assert!(matches!(
        xen.create_vm(&mut m, &too_big),
        Err(HtpError::Mem(_))
    ));
}
