//! VMX-style packed segment attributes ("arbytes").
//!
//! Xen's `hvm_hw_cpu` save record stores each segment's attributes as the
//! raw VMX access-rights word, while KVM's `kvm_segment` explodes them into
//! individual fields. Converting between the two is exactly the kind of
//! work the paper's platform translation functions perform (§4.2.1); UISR
//! uses the exploded form, so Xen's `to_uisr` path unpacks and its
//! `from_uisr` path repacks.
//!
//! Access-rights layout (Intel SDM Vol. 3, 24.4.1):
//!
//! ```text
//! bits 0..3   segment type
//! bit  4      S (descriptor type: 0 = system, 1 = code/data)
//! bits 5..6   DPL
//! bit  7      P (present)
//! bit  12     AVL
//! bit  13     L (64-bit code)
//! bit  14     D/B
//! bit  15     G (granularity)
//! ```

use hypertp_uisr::SegmentRegister;

/// Packs a UISR segment's attributes into a VMX access-rights word.
pub fn pack(seg: &SegmentRegister) -> u32 {
    let mut ar = 0u32;
    ar |= (seg.type_ as u32) & 0xf;
    ar |= (seg.s as u32) << 4;
    ar |= ((seg.dpl as u32) & 0x3) << 5;
    ar |= (seg.present as u32) << 7;
    ar |= (seg.avl as u32) << 12;
    ar |= (seg.l as u32) << 13;
    ar |= (seg.db as u32) << 14;
    ar |= (seg.g as u32) << 15;
    ar
}

/// Unpacks a VMX access-rights word into segment attribute fields,
/// returning a segment with zeroed base/limit/selector (the caller fills
/// those from the adjacent record fields).
pub(crate) fn unpack(ar: u32) -> SegmentRegister {
    SegmentRegister {
        base: 0,
        limit: 0,
        selector: 0,
        type_: (ar & 0xf) as u8,
        s: ar & (1 << 4) != 0,
        dpl: ((ar >> 5) & 0x3) as u8,
        present: ar & (1 << 7) != 0,
        avl: ar & (1 << 12) != 0,
        l: ar & (1 << 13) != 0,
        db: ar & (1 << 14) != 0,
        g: ar & (1 << 15) != 0,
    }
}

/// The access-rights word of a flat 64-bit kernel code segment.
pub(crate) const AR_CODE64: u32 = 0xa09b;

/// The access-rights word of a flat data segment.
pub(crate) const AR_DATA: u32 = 0xc093;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code64_roundtrip() {
        let seg = unpack(AR_CODE64);
        assert!(seg.present);
        assert!(seg.l);
        assert!(!seg.db);
        assert!(seg.g);
        assert!(seg.s);
        assert_eq!(seg.type_, 0xb);
        assert_eq!(seg.dpl, 0);
        assert_eq!(pack(&seg), AR_CODE64);
    }

    #[test]
    fn data_roundtrip() {
        let seg = unpack(AR_DATA);
        assert!(seg.present);
        assert!(!seg.l);
        assert!(seg.db);
        assert_eq!(seg.type_, 0x3);
        assert_eq!(pack(&seg), AR_DATA);
    }

    #[test]
    fn randomized_pack_unpack() {
        // Exhaustive over the whole 16-bit AR space (formerly a sampled
        // proptest): only the defined bits survive a roundtrip.
        for ar in 0u32..0x1_0000 {
            let defined = ar & 0xf0ff;
            assert_eq!(pack(&unpack(ar)), defined, "ar={ar:#x}");
        }
    }

    #[test]
    fn attributes_preserved_through_pack() {
        let mut seg = unpack(AR_DATA);
        seg.base = 0xdead_0000;
        seg.limit = 0xffff;
        seg.selector = 0x18;
        // base/limit/selector are carried outside the AR word.
        let ar = pack(&seg);
        let back = unpack(ar);
        assert_eq!(back.type_, seg.type_);
        assert_eq!(back.dpl, seg.dpl);
        assert_eq!(back.g, seg.g);
    }
}
