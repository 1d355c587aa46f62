//! Event channels: Xen's interdomain notification primitive.
//!
//! §2.1 notes that 38.4% of Xen's critical vulnerabilities live in PV
//! mechanisms such as event channels and hypercalls — which is much of why
//! transplanting *away* from Xen during a vulnerability window is
//! attractive. The model allocates the unbound ports a domain is created
//! with; ports are per-domain *VMi State* that is re-established by device
//! reconnection rather than translated (the §4.2.3 unplug/replug strategy).

/// A domain's event channel table: the ports libxl allocates unbound at
/// domain creation, each naming the remote domain allowed to bind it.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventChannels {
    ports: Vec<u32>,
}

impl EventChannels {
    /// Creates an empty table.
    pub fn new() -> Self {
        EventChannels::default()
    }

    /// Allocates an unbound port that `remote_domid` may bind
    /// (`EVTCHNOP_alloc_unbound`).
    pub(crate) fn alloc_unbound(&mut self, remote_domid: u32) -> u32 {
        let port = self.ports.len() as u32;
        self.ports.push(remote_domid);
        port
    }

    /// Approximate memory footprint in bytes (VM Management State
    /// accounting).
    pub(crate) fn footprint_bytes(&self) -> u64 {
        (self.ports.len() * 16) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EventChannels {
        /// Number of open ports.
        pub(crate) fn open_ports(&self) -> usize {
            self.ports.len()
        }
    }
}
