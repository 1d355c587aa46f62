//! The hypervisor pool: named factories for booting an `Htarget`.
//!
//! "The datacenter operators can have several hypervisors in their
//! repertoire, thus increasing the chance to find a safe replacement"
//! (§3.1). The registry maps a [`HypervisorKind`] to a constructor the
//! transplant engine invokes after the micro-reboot; the constructor plays
//! the role of the target hypervisor's boot path.

use std::collections::HashMap;

use hypertp_machine::Machine;
use hypertp_uisr::UisrVm;

use crate::error::HtpError;
use crate::hypervisor::{Hypervisor, HypervisorKind};

/// Constructor for a hypervisor: runs at (simulated) boot time and may
/// allocate HV State from the machine's RAM.
pub(crate) type HvFactory = Box<dyn Fn(&mut Machine) -> Box<dyn Hypervisor> + Send + Sync>;

/// A pre-flight compatibility validator: inspects a UISR description and
/// returns the issues the target hypervisor would have restoring it
/// (lossy fixes, unsupported topology). Used by the engine's strict mode
/// to abort *before* the micro-reboot's point of no return.
pub(crate) type UisrValidator = Box<dyn Fn(&UisrVm) -> Vec<String> + Send + Sync>;

/// A pool of bootable hypervisors.
#[derive(Default)]
pub struct HypervisorRegistry {
    factories: HashMap<HypervisorKind, HvFactory>,
    validators: HashMap<HypervisorKind, UisrValidator>,
}

impl HypervisorRegistry {
    /// Creates an empty pool.
    pub fn new() -> Self {
        HypervisorRegistry::default()
    }

    /// Registers (or replaces) a factory for `kind`.
    pub fn register(
        &mut self,
        kind: HypervisorKind,
        factory: impl Fn(&mut Machine) -> Box<dyn Hypervisor> + Send + Sync + 'static,
    ) -> &mut Self {
        self.factories.insert(kind, Box::new(factory));
        self
    }

    /// Registers a pre-flight validator for `kind`.
    pub fn register_validator(
        &mut self,
        kind: HypervisorKind,
        validator: impl Fn(&UisrVm) -> Vec<String> + Send + Sync + 'static,
    ) -> &mut Self {
        self.validators.insert(kind, Box::new(validator));
        self
    }

    /// Runs `kind`'s pre-flight validator over a UISR description.
    /// Returns no issues when no validator is registered.
    pub(crate) fn validate(&self, kind: HypervisorKind, uisr: &UisrVm) -> Vec<String> {
        self.validators
            .get(&kind)
            .map(|v| v(uisr))
            .unwrap_or_default()
    }

    /// Returns the registered kinds.
    pub fn kinds(&self) -> Vec<HypervisorKind> {
        let mut v: Vec<HypervisorKind> = self.factories.keys().copied().collect();
        v.sort_by_key(|k| k.name());
        v
    }

    /// True if `kind` can be booted.
    pub fn contains(&self, kind: HypervisorKind) -> bool {
        self.factories.contains_key(&kind)
    }

    /// Boots a hypervisor of the given kind on `machine`.
    pub fn create(
        &self,
        kind: HypervisorKind,
        machine: &mut Machine,
    ) -> Result<Box<dyn Hypervisor>, HtpError> {
        let f = self
            .factories
            .get(&kind)
            .ok_or_else(|| HtpError::UnknownHypervisor(kind.name().to_string()))?;
        Ok(f(machine))
    }
}

impl std::fmt::Debug for HypervisorRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HypervisorRegistry")
            .field("kinds", &self.kinds())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_kind_errors() {
        let reg = HypervisorRegistry::new();
        let mut spec = hypertp_machine::MachineSpec::m1();
        spec.ram_gb = 1;
        let mut m = Machine::new(spec);
        assert!(matches!(
            reg.create(HypervisorKind::Xen, &mut m),
            Err(HtpError::UnknownHypervisor(_))
        ));
        assert!(!reg.contains(HypervisorKind::Xen));
        assert!(reg.kinds().is_empty());
    }
}
