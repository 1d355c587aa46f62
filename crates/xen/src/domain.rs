//! The per-domain container: vCPUs, P2M, platform devices, PV machinery.

use hypertp_core::{HtpError, VmConfig, VmState};
use hypertp_machine::{Gfn, Machine, PageOrder};
use hypertp_sim::SimRng;
use hypertp_uisr::state::LAPIC_REGS_SIZE;
use hypertp_uisr::{lapic_page, DeviceState};

use crate::arbytes::{AR_CODE64, AR_DATA};
use crate::events::EventChannels;
use crate::grant::GrantTable;
use crate::hvm_context::{save_context, HvmRecord, HvmSaveHeader};
use crate::hvm_types::{HvmHwCpu, HvmHwIoapic, HvmHwLapic, HvmHwMtrr, HvmHwPit, HvmHwXsave};
use crate::p2m::P2m;

/// One virtual CPU with Xen's state containers.
#[derive(Debug, Clone)]
pub(crate) struct XenVcpu {
    /// The CPU save record.
    pub hw: HvmHwCpu,
    /// LAPIC bookkeeping.
    pub lapic: HvmHwLapic,
    /// LAPIC register page image.
    pub lapic_regs: Vec<u8>,
    /// MTRR record.
    pub mtrr: HvmHwMtrr,
    /// XSAVE record.
    pub xsave: HvmHwXsave,
}

impl XenVcpu {
    /// Creates a vCPU in the state Xen's HVM builder leaves it: 64-bit
    /// flat segments, paging enabled, LAPIC at the architectural base.
    // Field-by-field construction mirrors Xen's hvm_vcpu_initialise.
    #[allow(clippy::field_reassign_with_default)]
    pub fn reset(apic_id: u32) -> Self {
        let mut hw = HvmHwCpu::default();
        hw.rip = 0x0010_0000;
        hw.rflags = 0x2;
        hw.crs[0] = 0x8000_0031; // cr0: PG | PE | NE | ET.
        hw.crs[1] = 0; // cr2.
        hw.crs[2] = 0x1000; // cr3: boot page tables.
        hw.crs[3] = 0x6a0; // cr4: PAE | OSFXSR | OSXMMEXCPT | OSXSAVE.
        hw.msr_efer = 0xd01; // LME | LMA | SCE | NXE.
                             // A proper FXSAVE image (fcw/mxcsr at architectural reset values),
                             // as xsave init leaves it — an all-zero image is not valid state.
        hw.fpu_regs = crate::hvm_types::fxsave_pack(&hypertp_uisr::FpuState::default());
        for (i, seg) in hw.segs.iter_mut().enumerate() {
            seg.arbytes = if i == crate::hvm_types::SEG_CS {
                AR_CODE64
            } else {
                AR_DATA
            };
            seg.limit = 0xffff_ffff;
        }
        let mut lapic_regs = vec![0u8; LAPIC_REGS_SIZE];
        lapic_page::set_apic_id(&mut lapic_regs, apic_id);
        lapic_page::write32(&mut lapic_regs, lapic_page::OFF_SVR, 0x1ff);
        let bsp = if apic_id == 0 { 1 << 8 } else { 0 };
        XenVcpu {
            hw,
            lapic: HvmHwLapic {
                apic_base_msr: 0xfee0_0000 | (1 << 11) | bsp,
                disabled: 0,
                timer_divisor: 0,
                tdt_msr: 0,
            },
            lapic_regs,
            mtrr: HvmHwMtrr::default(),
            xsave: HvmHwXsave {
                xcr0: 0x7,
                xcr0_accum: 0x7,
                area: vec![0; hypertp_uisr::state::XSAVE_AREA_SIZE],
            },
        }
    }
}

/// A Xen HVM domain.
#[derive(Debug)]
pub struct Domain {
    /// Domain id.
    pub(crate) domid: u32,
    /// Cross-hypervisor configuration.
    pub(crate) config: VmConfig,
    /// Lifecycle state.
    pub(crate) state: VmState,
    /// Virtual CPUs.
    pub(crate) vcpus: Vec<XenVcpu>,
    /// Physical-to-machine table.
    pub(crate) p2m: P2m,
    /// Virtual IOAPIC (48 pins).
    pub ioapic: HvmHwIoapic,
    /// Virtual PIT.
    pub(crate) pit: HvmHwPit,
    /// Event channels.
    pub(crate) evtchn: EventChannels,
    /// Grant table.
    pub(crate) grants: GrantTable,
    /// Emulated/pass-through devices.
    pub(crate) devices: Vec<DeviceState>,
    /// Per-domain deterministic stream for guest activity.
    pub(crate) rng: SimRng,
}

impl Domain {
    /// Builds a fresh domain, allocating guest memory from the machine.
    pub fn create(domid: u32, config: &VmConfig, machine: &mut Machine) -> Result<Self, HtpError> {
        let order = if config.huge_pages {
            PageOrder(9)
        } else {
            PageOrder(0)
        };
        let mut p2m = P2m::new();
        let chunks = config.pages() / order.pages();
        for i in 0..chunks {
            let e = machine.ram_mut().alloc(order)?;
            p2m.map(Gfn(i * order.pages()), e)
                .map_err(|_| HtpError::Unsupported("fresh p2m cannot overlap"))?;
            // Deterministic initial contents on the first frame of each
            // chunk (guest OS image data).
            let seed = config.name.bytes().fold(domid as u64, |a, b| {
                a.wrapping_mul(31).wrapping_add(b as u64)
            });
            machine
                .ram_mut()
                .write(e.base, seed ^ (i * order.pages()).wrapping_mul(0x9e37))?;
        }
        let vcpus = (0..config.vcpus).map(XenVcpu::reset).collect();
        let mut evtchn = EventChannels::new();
        // Console and xenstore rings, as libxl sets up.
        evtchn.alloc_unbound(0);
        evtchn.alloc_unbound(0);
        let mut grants = GrantTable::new();
        let mut devices = Vec::new();
        if config.has_network {
            devices.push(DeviceState::Network {
                mac: [0x00, 0x16, 0x3e, 0, 0, domid as u8], // Xen OUI.
                unplugged: false,
            });
            grants.grant_access(); // vif ring page.
        }
        devices.push(DeviceState::Block {
            backend: config.storage_backend.clone(),
            sectors: config.memory_gb * (1 << 30) / 512,
            pending_requests: 0,
        });
        devices.push(DeviceState::Console { tx_buffered: 0 });
        Ok(Domain {
            domid,
            config: config.clone(),
            state: VmState::Running,
            vcpus,
            p2m,
            ioapic: HvmHwIoapic::default(),
            pit: HvmHwPit::default(),
            evtchn,
            grants,
            devices,
            rng: SimRng::new(domid as u64 * 0x9e37_79b9 + 1),
        })
    }

    /// Serializes the domain's platform state as an HVM context stream
    /// (`xc_domain_hvm_getcontext`).
    pub(crate) fn hvm_context_save(&self) -> Vec<u8> {
        let mut records = Vec::new();
        for (i, v) in self.vcpus.iter().enumerate() {
            let inst = i as u16;
            records.push(HvmRecord::Cpu(inst, Box::new(v.hw.clone())));
            records.push(HvmRecord::Lapic(inst, v.lapic));
            records.push(HvmRecord::LapicRegs(inst, v.lapic_regs.clone()));
            records.push(HvmRecord::Mtrr(inst, Box::new(v.mtrr.clone())));
            records.push(HvmRecord::Xsave(inst, v.xsave.clone()));
        }
        records.push(HvmRecord::Ioapic(self.ioapic.clone()));
        records.push(HvmRecord::Pit(self.pit));
        save_context(&HvmSaveHeader::default(), &records)
    }

    /// VMi State footprint in bytes (Fig. 2 accounting): platform state
    /// containers plus P2M metadata plus per-VM PV machinery.
    pub(crate) fn vmi_state_bytes(&self) -> u64 {
        let per_vcpu = 1024
            + 32
            + LAPIC_REGS_SIZE as u64
            + 8 * 30
            + self
                .vcpus
                .first()
                .map(|v| v.xsave.area.len() as u64)
                .unwrap_or(0);
        self.vcpus.len() as u64 * per_vcpu
            + self.p2m.metadata_bytes()
            + 48 * 8
            + 64
            + self.evtchn.footprint_bytes()
            + self.grants.footprint_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertp_machine::MachineSpec;

    fn machine() -> Machine {
        let mut spec = MachineSpec::m1();
        spec.ram_gb = 4;
        Machine::new(spec)
    }

    #[test]
    fn create_allocates_guest_memory() {
        let mut m = machine();
        let d = Domain::create(1, &VmConfig::small("vm0"), &mut m).unwrap();
        assert_eq!(d.p2m.total_pages(), 262_144);
        assert_eq!(d.p2m.entry_count(), 512); // Huge pages.
        assert_eq!(d.vcpus.len(), 1);
        assert!(d.devices.len() >= 2);
        assert_eq!(d.evtchn.open_ports(), 2);
    }

    #[test]
    fn small_pages_when_huge_disabled() {
        let mut m = machine();
        let cfg = VmConfig::small("vm0").with_huge_pages(false);
        let d = Domain::create(1, &cfg, &mut m).unwrap();
        assert_eq!(d.p2m.entry_count(), 262_144);
    }

    #[test]
    fn vcpu_reset_state_is_64bit() {
        let v = XenVcpu::reset(0);
        assert_eq!(v.hw.msr_efer & 0x500, 0x500); // LME | LMA.
        assert_eq!(v.hw.segs[crate::hvm_types::SEG_CS].arbytes, AR_CODE64);
        assert_eq!(v.lapic.apic_base_msr & (1 << 8), 1 << 8, "BSP bit");
        assert_eq!(lapic_page::apic_id(&v.lapic_regs), 0);
        let v1 = XenVcpu::reset(1);
        assert_eq!(v1.lapic.apic_base_msr & (1 << 8), 0);
        assert_eq!(lapic_page::apic_id(&v1.lapic_regs), 1);
    }

    #[test]
    fn context_save_parses_back() {
        let mut m = machine();
        let d = Domain::create(1, &VmConfig::small("vm0").with_vcpus(2), &mut m).unwrap();
        let buf = d.hvm_context_save();
        let records = crate::hvm_context::load_context(&buf).unwrap();
        // Header + 2 vCPUs × 5 records + IOAPIC + PIT.
        assert_eq!(records.len(), 1 + 10 + 2);
    }

    #[test]
    fn vmi_state_is_small_relative_to_guest() {
        let mut m = machine();
        let d = Domain::create(1, &VmConfig::small("vm0"), &mut m).unwrap();
        let vmi = d.vmi_state_bytes();
        let guest = d.config.memory_gb << 30;
        assert!(vmi < guest / 100, "vmi={vmi} guest={guest}");
    }
}
