//! The Credit scheduler's run queues.
//!
//! The vCPU scheduler's queues are the paper's canonical example of *VM
//! Management State* (§3.1): hypervisor-dependent, but never translated —
//! the target hypervisor rebuilds them from the VMi States of all VMs. The
//! model keeps one run queue per physical CPU, places each new vCPU on the
//! least-loaded one, and accounts the queues' footprint.

use std::collections::VecDeque;

/// A schedulable vCPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SchedVcpu {
    /// Owning domain.
    pub domid: u32,
    /// vCPU index within the domain.
    pub vcpu: u32,
}

/// The Credit scheduler: one run queue per physical CPU.
#[derive(Debug, Clone)]
pub(crate) struct CreditScheduler {
    queues: Vec<VecDeque<SchedVcpu>>,
}

impl CreditScheduler {
    /// Creates a scheduler for `pcpus` physical CPUs.
    ///
    /// # Panics
    ///
    /// Panics if `pcpus` is zero.
    pub fn new(pcpus: usize) -> Self {
        assert!(pcpus > 0, "need at least one pcpu");
        CreditScheduler {
            queues: vec![VecDeque::new(); pcpus],
        }
    }

    /// Inserts a vCPU on the least-loaded run queue.
    pub fn insert(&mut self, domid: u32, vcpu: u32) {
        let q = self
            .queues
            .iter_mut()
            .min_by_key(|q| q.len())
            .expect("at least one queue");
        q.push_back(SchedVcpu { domid, vcpu });
    }

    /// Removes all vCPUs of a domain.
    pub(crate) fn remove_domain(&mut self, domid: u32) {
        for q in &mut self.queues {
            q.retain(|v| v.domid != domid);
        }
    }

    /// Approximate footprint in bytes (VM Management State accounting):
    /// 64 per queue, and 16 per queued vCPU, since Xen's `csched_unit`
    /// carries its credit and weight beside the two ids.
    pub(crate) fn footprint_bytes(&self) -> u64 {
        self.queues.iter().map(|q| 64 + q.len() as u64 * 16).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CreditScheduler {
        /// All queued vCPUs as `(domid, vcpu)` pairs, sorted (for set
        /// comparison in tests).
        pub(crate) fn queued_vcpus(&self) -> Vec<(u32, u32)> {
            let mut v: Vec<(u32, u32)> = self
                .queues
                .iter()
                .flatten()
                .map(|s| (s.domid, s.vcpu))
                .collect();
            v.sort_unstable();
            v
        }
    }

    #[test]
    fn insert_balances_queues() {
        let mut s = CreditScheduler::new(4);
        for i in 0..8 {
            s.insert(1, i);
        }
        for q in &s.queues {
            assert_eq!(q.len(), 2);
        }
    }

    #[test]
    fn remove_domain() {
        let mut s = CreditScheduler::new(2);
        s.insert(1, 0);
        s.insert(2, 0);
        s.remove_domain(1);
        assert_eq!(s.queued_vcpus(), vec![(2, 0)]);
    }
}
