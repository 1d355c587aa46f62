//! VM identity, configuration and lifecycle state.

use std::fmt;

use hypertp_sim::cost::VmShape;

/// A hypervisor-local VM identifier (Xen calls these domids; KVM models
/// them as VM file descriptors — both are small integers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub u32);

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// Lifecycle state of a VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmState {
    /// vCPUs are scheduled and the guest makes progress.
    Running,
    /// vCPUs are descheduled; guest state is frozen (transplant step 1).
    Paused,
}

impl VmState {
    /// Short name for error messages.
    pub fn name(self) -> &'static str {
        match self {
            VmState::Running => "running",
            VmState::Paused => "paused",
        }
    }
}

/// Configuration of a VM, stable across hypervisors.
#[derive(Debug, Clone, PartialEq)]
pub struct VmConfig {
    /// VM name (globally unique in a datacenter; used as the PRAM file
    /// name).
    pub name: String,
    /// Number of virtual CPUs.
    pub vcpus: u32,
    /// Guest memory size in GiB.
    pub memory_gb: u64,
    /// Allocate guest memory with 2 MiB huge pages (§5.1 configures guests
    /// with huge pages; the ablation bench turns this off).
    pub huge_pages: bool,
    /// True if the VM tolerates the few seconds of InPlaceTP downtime
    /// (drives the cluster planner's InPlaceTP/MigrationTP split, §5.4).
    pub inplace_compatible: bool,
    /// Whether the VM has an emulated network device.
    pub has_network: bool,
    /// Network storage backend for the root disk (§4.1 uses network-based
    /// remote storage so storage is hypervisor-independent).
    pub storage_backend: String,
}

impl VmConfig {
    /// A 1 vCPU / 1 GiB VM — the paper's representative cloud VM size
    /// (§5.2.1, citing the Azure workload study).
    pub fn small(name: impl Into<String>) -> Self {
        VmConfig {
            name: name.into(),
            vcpus: 1,
            memory_gb: 1,
            huge_pages: true,
            inplace_compatible: true,
            has_network: true,
            storage_backend: "nbd://storage/root".to_string(),
        }
    }

    /// Builder-style: set vCPU count.
    pub fn with_vcpus(mut self, vcpus: u32) -> Self {
        self.vcpus = vcpus;
        self
    }

    /// Builder-style: set memory size in GiB.
    pub fn with_memory_gb(mut self, gb: u64) -> Self {
        self.memory_gb = gb;
        self
    }

    /// Builder-style: set huge-page usage.
    pub fn with_huge_pages(mut self, huge: bool) -> Self {
        self.huge_pages = huge;
        self
    }

    /// Builder-style: set InPlaceTP compatibility.
    pub fn with_inplace_compatible(mut self, compat: bool) -> Self {
        self.inplace_compatible = compat;
        self
    }

    /// Guest memory size in 4 KiB pages.
    pub fn pages(&self) -> u64 {
        self.memory_gb * (1 << 30) / 4096
    }

    /// Number of PRAM entries this VM's memory map produces (512 per GiB
    /// with huge pages, 262 144 per GiB without).
    pub fn pram_entries(&self) -> u64 {
        if self.huge_pages {
            self.memory_gb * 512
        } else {
            self.pages()
        }
    }

    /// This VM as the in-place stage costs see it, all of it to translate.
    pub fn shape(&self) -> VmShape {
        VmShape {
            gb: self.memory_gb as f64,
            vcpus: self.vcpus,
            entries: self.pram_entries(),
            fraction: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_vm_matches_paper_default() {
        let c = VmConfig::small("vm0");
        assert_eq!(c.vcpus, 1);
        assert_eq!(c.memory_gb, 1);
        assert!(c.huge_pages);
        assert_eq!(c.pages(), 262_144);
        assert_eq!(c.pram_entries(), 512);
    }

    #[test]
    fn builders() {
        let c = VmConfig::small("vm0")
            .with_vcpus(4)
            .with_memory_gb(8)
            .with_huge_pages(false)
            .with_inplace_compatible(false);
        assert_eq!(c.vcpus, 4);
        assert_eq!(c.memory_gb, 8);
        assert_eq!(c.pram_entries(), 8 * 262_144);
        assert!(!c.inplace_compatible);
    }

    #[test]
    fn display_and_state_names() {
        assert_eq!(VmId(7).to_string(), "vm7");
        assert_eq!(VmState::Running.name(), "running");
        assert_eq!(VmState::Paused.name(), "paused");
    }
}
