//! The physical machine: RAM + clock + kexec + NIC.
//!
//! A [`Machine`] ties together the frame-level RAM model, the shared
//! simulated clock and the two pieces of platform behaviour the transplant
//! path depends on: **kexec** (boot a new kernel without hardware reset,
//! §4.2.4) and **NIC re-initialization** after the micro-reboot (§5.2.1).
//!
//! The machine deliberately does not own the hypervisor object; the
//! transplant engine in `hypertp-core` owns both and coordinates them, which
//! mirrors how the prototype's orchestration lives in userspace tools rather
//! than in either hypervisor.

use hypertp_sim::cost::BootTarget;
use hypertp_sim::{SimClock, SimDuration};

use crate::ram::PhysicalMemory;
use crate::spec::MachineSpec;

/// State of the machine's network interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NicState {
    /// Link up, traffic flows.
    Up,
    /// Link down (during and after a micro-reboot until re-initialized).
    Down,
}

/// A kernel image staged for kexec (Fig. 3 step ❶: "binaries of Htarget are
/// loaded ahead of time into physical RAM").
#[derive(Debug, Clone, PartialEq)]
pub struct KexecImage {
    /// Which kernel the image boots.
    pub target: BootTarget,
    /// Boot command line; InPlaceTP passes the PRAM pointer here
    /// ("we inform the target hypervisor of any existing VM memory maps by
    /// passing the PRAM pointer through the target's boot command line").
    pub cmdline: String,
}

/// A simulated physical machine.
#[derive(Debug)]
pub struct Machine {
    spec: MachineSpec,
    clock: SimClock,
    ram: PhysicalMemory,
    nic: NicState,
    staged: Option<KexecImage>,
    booted_cmdline: String,
    boot_count: u64,
}

impl Machine {
    /// Creates a machine from a spec with a fresh clock.
    pub fn new(spec: MachineSpec) -> Self {
        Machine::with_clock(spec, SimClock::new())
    }

    /// Creates a machine sharing an existing clock (e.g. two hosts in a
    /// migration experiment observe common time).
    pub fn with_clock(spec: MachineSpec, clock: SimClock) -> Self {
        let ram = PhysicalMemory::with_gib(spec.ram_gb);
        Machine {
            spec,
            clock,
            ram,
            nic: NicState::Up,
            staged: None,
            booted_cmdline: String::new(),
            boot_count: 1,
        }
    }

    /// The machine's hardware spec.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Handle to the machine's clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Shared access to physical RAM.
    pub fn ram(&self) -> &PhysicalMemory {
        &self.ram
    }

    /// Mutable access to physical RAM.
    pub fn ram_mut(&mut self) -> &mut PhysicalMemory {
        &mut self.ram
    }

    /// Number of kernels booted on this machine (1 after construction).
    pub fn boot_count(&self) -> u64 {
        self.boot_count
    }

    /// Command line the currently running kernel was booted with.
    pub fn booted_cmdline(&self) -> &str {
        &self.booted_cmdline
    }

    /// Stages a kernel image for kexec (Fig. 3 step ❶). Replaces any
    /// previously staged image.
    pub fn kexec_load(&mut self, image: KexecImage) {
        self.staged = Some(image);
    }

    /// Executes the staged kexec (Fig. 3 step ❹).
    ///
    /// Semantics: RAM *contents* survive; RAM *ownership* and reservations
    /// are forgotten (the new kernel builds a fresh allocator); the NIC goes
    /// down; the staged command line becomes the running kernel's command
    /// line. The time cost of the reboot is charged by the caller through
    /// the cost model — the machine only performs the state transition.
    ///
    /// Returns the booted image.
    ///
    /// # Errors
    ///
    /// Fails if no image is staged.
    pub fn kexec(&mut self) -> Result<KexecImage, KexecError> {
        let image = self.staged.take().ok_or(KexecError::NoImageStaged)?;
        self.ram.forget_ownership();
        self.nic = NicState::Down;
        self.booted_cmdline = image.cmdline.clone();
        self.boot_count += 1;
        Ok(image)
    }

    /// Brings the NIC back up, advancing the clock by the machine's NIC
    /// initialization time. Idempotent when the NIC is already up.
    ///
    /// Returns the time spent.
    pub fn bring_up_nic(&mut self) -> SimDuration {
        if self.nic == NicState::Up {
            return SimDuration::ZERO;
        }
        let d = self.spec.nic_init;
        self.clock.advance(d);
        self.nic = NicState::Up;
        d
    }
}

/// Errors from kexec operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KexecError {
    /// `kexec` was invoked with no staged image.
    NoImageStaged,
}

impl std::fmt::Display for KexecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KexecError::NoImageStaged => write!(f, "no kexec image staged"),
        }
    }
}

impl std::error::Error for KexecError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PageOrder;

    impl Machine {
        /// Current NIC state.
        fn nic(&self) -> NicState {
            self.nic
        }

        /// The staged image, if any.
        fn staged_image(&self) -> Option<&KexecImage> {
            self.staged.as_ref()
        }
    }

    fn small_machine() -> Machine {
        let mut spec = MachineSpec::m1();
        spec.ram_gb = 1; // Keep tests fast.
        Machine::new(spec)
    }

    #[test]
    fn kexec_requires_staged_image() {
        let mut m = small_machine();
        assert_eq!(m.kexec(), Err(KexecError::NoImageStaged));
    }

    #[test]
    fn kexec_preserves_contents_forgets_ownership() {
        let mut m = small_machine();
        let e = m.ram_mut().alloc(PageOrder(0)).unwrap();
        m.ram_mut().write(e.base, 77).unwrap();
        m.kexec_load(KexecImage {
            target: BootTarget::LinuxKvm,
            cmdline: "pram=0x1000".to_string(),
        });
        let img = m.kexec().unwrap();
        assert_eq!(img.target, BootTarget::LinuxKvm);
        assert_eq!(m.booted_cmdline(), "pram=0x1000");
        assert_eq!(m.boot_count(), 2);
        assert_eq!(m.ram().read(e.base).unwrap(), 77);
        assert!(!m.ram().is_allocated(e.base));
        assert_eq!(m.nic(), NicState::Down);
    }

    #[test]
    fn nic_bring_up_costs_machine_specific_time() {
        let mut m = small_machine();
        m.kexec_load(KexecImage {
            target: BootTarget::LinuxKvm,
            cmdline: String::new(),
        });
        m.kexec().unwrap();
        let t0 = m.clock().now();
        let d = m.bring_up_nic();
        assert_eq!(d, MachineSpec::m1().nic_init);
        assert_eq!(m.clock().now().duration_since(t0), d);
        assert_eq!(m.nic(), NicState::Up);
        // Idempotent.
        assert_eq!(m.bring_up_nic(), SimDuration::ZERO);
    }

    #[test]
    fn staged_image_replaced() {
        let mut m = small_machine();
        m.kexec_load(KexecImage {
            target: BootTarget::LinuxKvm,
            cmdline: "a".into(),
        });
        m.kexec_load(KexecImage {
            target: BootTarget::XenDom0,
            cmdline: "b".into(),
        });
        assert_eq!(m.staged_image().unwrap().cmdline, "b");
        assert_eq!(m.kexec().unwrap().target, BootTarget::XenDom0);
        // The staged slot is consumed.
        assert_eq!(m.kexec(), Err(KexecError::NoImageStaged));
    }

    #[test]
    fn shared_clock() {
        let clock = SimClock::new();
        let mut spec = MachineSpec::m1();
        spec.ram_gb = 1;
        let m1 = Machine::with_clock(spec.clone(), clock.clone());
        let m2 = Machine::with_clock(spec, clock.clone());
        clock.advance(SimDuration::from_secs(3));
        assert_eq!(m1.clock().now(), m2.clock().now());
    }
}
