//! Grant tables: Xen's page-sharing mechanism between domains.
//!
//! Paravirtual I/O shares guest pages with dom0 backends through grant
//! references. For transplant this matters because an in-flight grant
//! mapping would pin guest memory into hypervisor-specific state; the
//! §4.2.3 device pause/unplug step exists precisely to drain these before
//! translation. The model tracks grants and refuses transplant-time
//! teardown while any mapping is active.

/// A domain's grant table: the active mapping count of each grant
/// reference.
#[derive(Debug, Clone, Default)]
pub(crate) struct GrantTable {
    mapped: Vec<u32>,
}

impl GrantTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        GrantTable::default()
    }

    /// Grants dom0's backends access to a guest page, returning the grant
    /// reference.
    pub(crate) fn grant_access(&mut self) -> u32 {
        let gref = self.mapped.len() as u32;
        self.mapped.push(0);
        gref
    }

    /// Forcibly unmaps every active mapping (backend teardown during the
    /// §4.2.3 device pause). Returns the number of mappings released.
    pub(crate) fn unmap_all(&mut self) -> usize {
        let mut released = 0;
        for m in &mut self.mapped {
            released += *m as usize;
            *m = 0;
        }
        released
    }

    /// Number of grants with active mappings — must be zero before a
    /// transplant may proceed past device pause.
    pub(crate) fn active_mappings(&self) -> usize {
        self.mapped.iter().filter(|&&m| m > 0).count()
    }

    /// Approximate footprint in bytes.
    pub(crate) fn footprint_bytes(&self) -> u64 {
        (self.mapped.len() * 24) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl GrantTable {
        /// A backend maps the granted page.
        pub(crate) fn map(&mut self, gref: u32) {
            self.mapped[gref as usize] += 1;
        }
    }
}
