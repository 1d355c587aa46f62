//! The Xen ↔ UISR ↔ KVM state-mapping registry (Table 2).
//!
//! Each row names the hypervisor-native containers a UISR section is
//! translated from and to, and the [`crate::state`] fields that make up
//! the section. The `table2` experiment prints the three name columns; a
//! test here checks that the rows' fields are exactly the per-vCPU and
//! platform state the codec encodes, so a new section without a Table 2
//! row fails it.

/// One row of Table 2: how a piece of Xen HVM state maps through UISR into
/// KVM's ioctl-level state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingRow {
    /// Xen HVM context record type(s) (as saved by
    /// `xc_domain_hvm_getcontext`).
    pub xen_state: &'static str,
    /// UISR section name.
    pub uisr: &'static str,
    /// KVM state container(s) (the ioctls kvmtool issues on restore).
    pub kvm_state: &'static str,
    /// The fields carrying this section: of [`crate::VcpuState`], or of
    /// [`crate::UisrVm`] for the two platform devices.
    pub fields: &'static [&'static str],
}

/// Returns the full Table 2 mapping.
pub fn state_mapping() -> &'static [MappingRow] {
    &[
        MappingRow {
            xen_state: "CPU regs",
            uisr: "CPU",
            kvm_state: "(S)REGS, MSRS, FPU",
            fields: &["regs", "sregs", "fpu", "msrs"],
        },
        MappingRow {
            xen_state: "LAPIC",
            uisr: "LAPIC",
            kvm_state: "MSRS",
            fields: &["lapic"],
        },
        MappingRow {
            xen_state: "LAPIC regs",
            uisr: "LAPIC_REGS",
            kvm_state: "LAPIC_REGS",
            fields: &["lapic_regs"],
        },
        MappingRow {
            xen_state: "MTRR",
            uisr: "MTRR",
            kvm_state: "MSRS",
            fields: &["mtrr"],
        },
        MappingRow {
            xen_state: "XSAVE",
            uisr: "XSAVE",
            kvm_state: "XCRS, XSAVE",
            fields: &["xsave"],
        },
        MappingRow {
            xen_state: "IOAPIC",
            uisr: "IOAPIC",
            kvm_state: "IRQCHIP",
            fields: &["ioapic"],
        },
        MappingRow {
            xen_state: "PIT",
            uisr: "PIT",
            kvm_state: "PIT2",
            fields: &["pit"],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertp_sim::json::Json;

    #[test]
    fn table2_has_seven_rows() {
        assert_eq!(state_mapping().len(), 7);
    }

    #[test]
    fn table2_exact_contents() {
        let rows = state_mapping();
        assert_eq!(rows[0].xen_state, "CPU regs");
        assert_eq!(rows[0].kvm_state, "(S)REGS, MSRS, FPU");
        assert_eq!(rows[5].uisr, "IOAPIC");
        assert_eq!(rows[5].kvm_state, "IRQCHIP");
        assert_eq!(rows[6].kvm_state, "PIT2");
    }

    /// Table 2 against the state the codec actually carries: the rows'
    /// fields are exactly a vCPU's JSON keys (less its `id`) plus the VM's
    /// platform devices, each named once. Identity, the vCPU list, device
    /// models and the memory map are outside Table 2.
    #[test]
    fn table2_covers_every_state_section() {
        fn keys(obj: &Json) -> impl Iterator<Item = &str> {
            obj.as_obj().unwrap().iter().map(|(key, _)| key.as_str())
        }
        let mut vm = crate::UisrVm::new("t2");
        vm.vcpus.push(crate::VcpuState::reset(0));
        let vm = Json::parse(&crate::codec::to_json(&vm)).unwrap();
        let vcpu = vm.get("vcpus").and_then(|v| v.idx(0)).unwrap();
        let mut carried: Vec<&str> = keys(vcpu)
            .filter(|&key| key != "id")
            .chain(keys(&vm).filter(|key| !["name", "vcpus", "devices", "memory"].contains(key)))
            .collect();
        let mut mapped: Vec<&str> = state_mapping()
            .iter()
            .flat_map(|row| row.fields.iter().copied())
            .collect();
        carried.sort_unstable();
        mapped.sort_unstable();
        assert_eq!(mapped, carried);
    }

    #[test]
    fn sections_are_unique() {
        let mut s: Vec<&str> = state_mapping().iter().map(|r| r.uisr).collect();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), state_mapping().len());
    }
}
