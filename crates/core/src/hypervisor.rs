//! The `Hypervisor` trait: what a hypervisor must expose to be
//! HyperTP-compliant.
//!
//! The paper re-engineers Xen and KVM by adding exactly two families of
//! functions — `struct uisr* to_uisr_xxx` and `void* from_uisr_xxx`
//! (§3.1) — plus the PRAM hooks. The trait below is the Rust equivalent:
//! everything else (VM lifecycle, guest memory access, dirty logging) is
//! functionality the paper notes is "natively provided by all hypervisors".

use hypertp_machine::{Extent, Gfn, Machine};
use hypertp_sim::cost::BootTarget;
use hypertp_uisr::UisrVm;

use crate::error::HtpError;
use crate::memsep::MemSepReport;
use crate::vm::{VmConfig, VmId, VmState};

/// The hypervisors in this reproduction's pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HypervisorKind {
    /// Xen 4.12-style type-1 hypervisor (HVM guests).
    Xen,
    /// Linux-KVM 5.3-style type-2 hypervisor with a kvmtool-like VMM.
    Kvm,
}

impl HypervisorKind {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            HypervisorKind::Xen => "Xen",
            HypervisorKind::Kvm => "KVM",
        }
    }

    /// The kernel(s) a micro-reboot into this hypervisor boots.
    pub fn boot_target(self) -> BootTarget {
        match self {
            HypervisorKind::Xen => BootTarget::XenDom0,
            HypervisorKind::Kvm => BootTarget::LinuxKvm,
        }
    }
}

impl std::fmt::Display for HypervisorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of restoring a VM into a target hypervisor.
#[derive(Debug, Clone)]
pub struct RestoredVm {
    /// The VM's id on the target hypervisor.
    pub id: VmId,
    /// Compatibility fixes that were applied (e.g. "IOAPIC pins 24–47
    /// disconnected"). Surfaced so operators can audit lossy translations.
    pub warnings: Vec<String>,
}

/// A HyperTP-compliant hypervisor.
///
/// Object safety: the transplant engine holds hypervisors as
/// `Box<dyn Hypervisor>` so the pool can mix implementations.
///
/// `Send + Sync` are supertraits so the transplant engine can share
/// `&dyn Hypervisor` across the worker threads of
/// [`hypertp_sim::WorkerPool`]: the read-side hot path (`save_uisr`,
/// `guest_memory_map`, `vm_config`) takes `&self` and runs one VM per
/// worker during the §4.2.5 parallelization optimization.
pub trait Hypervisor: Send + Sync {
    /// Which hypervisor this is.
    fn kind(&self) -> HypervisorKind;

    /// Version string (e.g. "4.12.1").
    fn version(&self) -> &str;

    // --- VM lifecycle (natively provided by all hypervisors) ---

    /// Creates and boots a fresh VM.
    fn create_vm(&mut self, machine: &mut Machine, config: &VmConfig) -> Result<VmId, HtpError>;

    /// Destroys a VM, freeing its guest memory.
    fn destroy_vm(&mut self, machine: &mut Machine, id: VmId) -> Result<(), HtpError>;

    /// Pauses a VM (transplant step 1).
    fn pause_vm(&mut self, id: VmId) -> Result<(), HtpError>;

    /// Resumes a paused VM (transplant step 5).
    fn resume_vm(&mut self, id: VmId) -> Result<(), HtpError>;

    /// Current lifecycle state.
    fn vm_state(&self, id: VmId) -> Result<VmState, HtpError>;

    /// All VM ids, in creation order.
    fn vm_ids(&self) -> Vec<VmId>;

    /// A VM's configuration.
    fn vm_config(&self, id: VmId) -> Result<&VmConfig, HtpError>;

    /// Looks up a VM by name.
    fn find_vm(&self, name: &str) -> Option<VmId>;

    // --- Guest memory ---

    /// The VM's guest-physical → machine mapping (the input to PRAM
    /// construction).
    fn guest_memory_map(&self, id: VmId) -> Result<Vec<(Gfn, Extent)>, HtpError>;

    /// Reads a guest page's content word.
    fn read_guest(&self, machine: &Machine, id: VmId, gfn: Gfn) -> Result<u64, HtpError>;

    /// Reads many guest pages in one call into a caller-owned buffer, in
    /// input order — the zero-allocation gather primitive. `out` is
    /// cleared and refilled; steady-state callers reuse one buffer across
    /// rounds so the gather path performs no heap allocation at all.
    ///
    /// Semantically identical to mapping [`Hypervisor::read_guest`] over
    /// `gfns` (the default implementation does exactly that), but
    /// hypervisors override it to resolve the VM and walk the mapping
    /// structure once per *batch* instead of once per *page*, and to copy
    /// whole physically-contiguous runs straight from RAM extent backing
    /// ([`append_content`], which reads only the lines that can hold
    /// data) instead of reading one word per page: migration gathers,
    /// write-elision probes, content verification and checksums are
    /// per-page hot loops. Implementations must preserve per-page error
    /// behaviour and must leave `out`'s contents unspecified on error.
    ///
    /// [`append_content`]: hypertp_machine::ram::PhysicalMemory::append_content
    fn read_guest_into(
        &self,
        machine: &Machine,
        id: VmId,
        gfns: &[Gfn],
        out: &mut Vec<u64>,
    ) -> Result<(), HtpError> {
        out.clear();
        out.reserve(gfns.len());
        for &g in gfns {
            out.push(self.read_guest(machine, id, g)?);
        }
        Ok(())
    }

    /// Writes a guest page (dirties it if dirty logging is on).
    fn write_guest(
        &mut self,
        machine: &mut Machine,
        id: VmId,
        gfn: Gfn,
        content: u64,
    ) -> Result<(), HtpError>;

    /// Writes many guest pages in one call — the write-side twin of
    /// [`Hypervisor::read_guest_into`]. The contract is *exactly* a loop of
    /// [`Hypervisor::write_guest`] over `writes`, in order (the default
    /// implementation is that loop): the same final contents (a repeated
    /// gfn keeps its last word), the same dirty log, the same byte-backing
    /// drops, and on error the error the loop would return at the first
    /// failing pair, with every earlier pair written. Hypervisors override
    /// it to resolve the VM and walk the mapping structure once per batch.
    fn write_guest_many(
        &mut self,
        machine: &mut Machine,
        id: VmId,
        writes: &[(Gfn, u64)],
    ) -> Result<(), HtpError> {
        for &(gfn, content) in writes {
            self.write_guest(machine, id, gfn, content)?;
        }
        Ok(())
    }

    /// Simulates guest execution: advances the vCPUs' architectural state
    /// and dirties `dirty_pages` guest pages chosen by the VM's
    /// deterministic stream. Returns an error if the VM is paused.
    fn guest_tick(
        &mut self,
        machine: &mut Machine,
        id: VmId,
        dirty_pages: u64,
    ) -> Result<(), HtpError>;

    // --- Dirty logging (pre-copy migration) ---

    /// Enables write tracking for a VM.
    fn enable_dirty_log(&mut self, id: VmId) -> Result<(), HtpError>;

    /// Returns and clears the set of GFNs dirtied since the last call.
    fn collect_dirty(&mut self, id: VmId) -> Result<Vec<Gfn>, HtpError>;

    // --- UISR translation (the HyperTP additions) ---

    /// Translates a paused VM's VMi State into UISR (`to_uisr_*`).
    fn save_uisr(&self, machine: &Machine, id: VmId) -> Result<UisrVm, HtpError>;

    /// Creates a paused, empty VM shell with freshly allocated guest memory
    /// — the destination side of MigrationTP, filled page by page during
    /// pre-copy.
    fn prepare_incoming(
        &mut self,
        machine: &mut Machine,
        config: &VmConfig,
    ) -> Result<VmId, HtpError>;

    /// Applies a UISR description onto a prepared shell (`from_uisr_*`).
    /// The VM stays paused; the caller resumes it.
    fn restore_uisr(
        &mut self,
        machine: &mut Machine,
        id: VmId,
        uisr: &UisrVm,
    ) -> Result<RestoredVm, HtpError>;

    /// InPlaceTP restoration: adopts guest memory that is already in RAM
    /// (the PRAM mappings) and applies the UISR description. The VM stays
    /// paused; the caller resumes it.
    fn adopt_vm(
        &mut self,
        machine: &mut Machine,
        uisr: &UisrVm,
        mappings: &[(Gfn, Extent)],
    ) -> Result<RestoredVm, HtpError>;

    // --- Device quiescing (§4.2.3) ---

    /// Notifies the guest to prepare for transplant, "similarly to what is
    /// done on Azure with the Scheduled Events API": pause pass-through
    /// devices (putting device and driver into a consistent state inside
    /// guest memory), drain emulated devices' in-flight requests, and
    /// unplug network devices for post-transplant rescan. Runs *before*
    /// the VM is paused, so the time it takes is preparation, not
    /// downtime.
    ///
    /// Returns the simulated time the guest took to acknowledge. The
    /// default implementation is an immediate no-op for hypervisors whose
    /// device models need no quiescing.
    fn notify_prepare_transplant(
        &mut self,
        machine: &mut Machine,
        id: VmId,
    ) -> Result<hypertp_sim::SimDuration, HtpError> {
        let _ = (machine, id);
        Ok(hypertp_sim::SimDuration::ZERO)
    }

    // --- Introspection ---

    /// Memory-separation accounting (Fig. 2) for everything this
    /// hypervisor currently holds.
    fn memsep_report(&self, machine: &Machine) -> MemSepReport;
}

/// Derives the cross-hypervisor [`VmConfig`] from a UISR description
/// (used at adopt time, when the target hypervisor only has the UISR and
/// the PRAM mappings).
pub fn config_from_uisr(uisr: &UisrVm, huge_pages: bool) -> VmConfig {
    let has_network = uisr
        .devices
        .iter()
        .any(|d| matches!(d, hypertp_uisr::DeviceState::Network { .. }));
    let storage_backend = uisr
        .devices
        .iter()
        .find_map(|d| match d {
            hypertp_uisr::DeviceState::Block { backend, .. } => Some(backend.clone()),
            _ => None,
        })
        .unwrap_or_default();
    VmConfig {
        name: uisr.name.clone(),
        vcpus: uisr.vcpus.len() as u32,
        memory_gb: uisr.memory.total_bytes() >> 30,
        huge_pages,
        inplace_compatible: true,
        has_network,
        storage_backend,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertp_uisr::{DeviceState, MemoryRegion, VcpuState};

    #[test]
    fn kind_properties() {
        assert_eq!(HypervisorKind::Xen.name(), "Xen");
        assert_eq!(HypervisorKind::Xen.boot_target(), BootTarget::XenDom0);
        assert_eq!(HypervisorKind::Kvm.boot_target(), BootTarget::LinuxKvm);
        assert_eq!(HypervisorKind::Kvm.to_string(), "KVM");
    }

    #[test]
    fn config_from_uisr_derivation() {
        let mut u = UisrVm::new("vm7");
        u.vcpus.push(VcpuState::reset(0));
        u.vcpus.push(VcpuState::reset(1));
        u.memory.regions.push(MemoryRegion {
            gfn_start: 0,
            pages: 2 * 262_144,
        });
        u.devices.push(DeviceState::Network {
            mac: [0; 6],
            unplugged: false,
        });
        u.devices.push(DeviceState::Block {
            backend: "nbd://x".into(),
            sectors: 1,
            pending_requests: 0,
        });
        let c = config_from_uisr(&u, true);
        assert_eq!(c.name, "vm7");
        assert_eq!(c.vcpus, 2);
        assert_eq!(c.memory_gb, 2);
        assert!(c.has_network);
        assert_eq!(c.storage_backend, "nbd://x");
    }
}
