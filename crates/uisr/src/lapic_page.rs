//! Architectural accessors for the LAPIC register page image.
//!
//! Both Xen and KVM carry the local APIC's memory-mapped registers as a raw
//! page image (Xen's `LAPIC_REGS` save record, KVM's `KVM_GET/SET_LAPIC`).
//! The register *offsets* are architectural (Intel SDM Vol. 3, 10.4.1), so
//! the same accessors serve both hypervisors' translation paths and keep
//! the summary fields in [`crate::state::LapicState`] consistent with the
//! page image.

/// APIC ID register offset.
pub(crate) const OFF_ID: usize = 0x20;
/// Task priority register offset.
pub(crate) const OFF_TPR: usize = 0x80;
/// Spurious interrupt vector register offset.
pub const OFF_SVR: usize = 0xf0;
/// LVT timer register offset.
pub(crate) const OFF_LVT_TIMER: usize = 0x320;
/// Timer initial count register offset.
pub const OFF_TMICT: usize = 0x380;
/// Timer current count register offset.
pub(crate) const OFF_TMCCT: usize = 0x390;
/// Timer divide configuration register offset.
pub const OFF_TDCR: usize = 0x3e0;

/// Reads a 32-bit register from the page image.
///
/// # Panics
///
/// Panics if the page is shorter than `offset + 4`.
pub(crate) fn read32(page: &[u8], offset: usize) -> u32 {
    u32::from_le_bytes(
        page[offset..offset + 4]
            .try_into()
            .expect("4-byte LAPIC register"),
    )
}

/// Writes a 32-bit register into the page image.
///
/// # Panics
///
/// Panics if the page is shorter than `offset + 4`.
pub fn write32(page: &mut [u8], offset: usize, value: u32) {
    page[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
}

/// Reads the APIC ID (stored in bits 24..32 of the ID register).
pub fn apic_id(page: &[u8]) -> u32 {
    read32(page, OFF_ID) >> 24
}

/// Sets the APIC ID.
pub fn set_apic_id(page: &mut [u8], id: u32) {
    write32(page, OFF_ID, id << 24);
}

/// Reads the task priority (bits 0..8 of the TPR register).
pub fn tpr(page: &[u8]) -> u8 {
    (read32(page, OFF_TPR) & 0xff) as u8
}

/// Sets the task priority.
pub fn set_tpr(page: &mut [u8], tpr: u8) {
    write32(page, OFF_TPR, tpr as u32);
}

/// Derives the [`crate::state::LapicState`] summary fields from a page
/// image plus the APIC base MSR.
pub fn summarize(page: &[u8], apic_base_msr: u64) -> crate::state::LapicState {
    crate::state::LapicState {
        apic_id: apic_id(page),
        apic_base_msr,
        tpr: tpr(page),
        timer_divide: (read32(page, OFF_TDCR) & 0xf) as u8,
        timer_initial: read32(page, OFF_TMICT),
        timer_current: read32(page, OFF_TMCCT),
        timer_pending: read32(page, OFF_LVT_TIMER) & (1 << 12) != 0,
    }
}

/// Writes the summary fields back into a page image (the inverse of
/// [`summarize`], up to the delivery-status bit which is read-only).
pub fn apply(page: &mut [u8], s: &crate::state::LapicState) {
    set_apic_id(page, s.apic_id);
    set_tpr(page, s.tpr);
    write32(page, OFF_TDCR, s.timer_divide as u32);
    write32(page, OFF_TMICT, s.timer_initial);
    write32(page, OFF_TMCCT, s.timer_current);
    let mut lvt = read32(page, OFF_LVT_TIMER);
    if s.timer_pending {
        lvt |= 1 << 12;
    } else {
        lvt &= !(1 << 12);
    }
    write32(page, OFF_LVT_TIMER, lvt);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{LapicState, LAPIC_REGS_SIZE};

    #[test]
    fn id_and_tpr_accessors() {
        let mut page = vec![0u8; LAPIC_REGS_SIZE];
        set_apic_id(&mut page, 3);
        set_tpr(&mut page, 0x20);
        assert_eq!(apic_id(&page), 3);
        assert_eq!(tpr(&page), 0x20);
    }

    #[test]
    fn summarize_apply_roundtrip() {
        let s = LapicState {
            apic_id: 5,
            apic_base_msr: 0xfee0_0900,
            tpr: 0x30,
            timer_divide: 0b1011,
            timer_initial: 100_000,
            timer_current: 42_000,
            timer_pending: true,
        };
        let mut page = vec![0u8; LAPIC_REGS_SIZE];
        apply(&mut page, &s);
        let back = summarize(&page, s.apic_base_msr);
        assert_eq!(back, s);
    }

    #[test]
    fn pending_bit_clears() {
        let mut page = vec![0u8; LAPIC_REGS_SIZE];
        let mut s = LapicState {
            timer_pending: true,
            ..LapicState::default()
        };
        apply(&mut page, &s);
        assert!(summarize(&page, 0).timer_pending);
        s.timer_pending = false;
        apply(&mut page, &s);
        assert!(!summarize(&page, 0).timer_pending);
    }
}
