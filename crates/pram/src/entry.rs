//! Packed 8-byte PRAM page entries.
//!
//! §5.5: "PRAM structures consist of 8-byte records for every VM's memory
//! page (which can be 4K or 2M in size)". An entry packs the machine frame
//! number and the allocation order; the guest frame number is implicit from
//! the entry's position after the node's base GFN (nodes are
//! GFN-contiguous).
//!
//! Layout of the 64-bit word:
//!
//! ```text
//!  63      58 57      52 51                                   0
//! +----------+----------+--------------------------------------+
//! |  flags   |  order   |                 mfn                  |
//! +----------+----------+--------------------------------------+
//! ```

use hypertp_machine::{Mfn, PageOrder};

/// A packed page entry as stored in a node page.
pub(crate) type PackedEntry = u64;

/// Number of bits reserved for the MFN (52 bits covers 2^52 frames —
/// 16 EiB of physical memory, same headroom as x86-64 page tables).
const MFN_BITS: u32 = 52;
const MFN_MASK: u64 = (1 << MFN_BITS) - 1;
const ORDER_SHIFT: u32 = MFN_BITS;
const ORDER_BITS: u32 = 6;
const ORDER_MASK: u64 = (1 << ORDER_BITS) - 1;
const FLAGS_SHIFT: u32 = ORDER_SHIFT + ORDER_BITS;
const FLAGS_MASK: u64 = (1 << 6) - 1;

/// Entry flag: the frame run holds guest memory (as opposed to reserved
/// scratch used during restoration).
pub(crate) const FLAG_GUEST: u8 = 1 << 0;

/// Packs an (mfn, order, flags) triple into an 8-byte entry.
///
/// # Panics
///
/// Panics if the MFN exceeds 52 bits, the order exceeds 6 bits, or the
/// flags exceed the 6-bit flag field.
pub(crate) fn pack_entry(mfn: Mfn, order: PageOrder, flags: u8) -> PackedEntry {
    assert!(mfn.0 <= MFN_MASK, "mfn {mfn} exceeds 52 bits");
    assert!((order.0 as u64) <= ORDER_MASK, "order exceeds 6 bits");
    assert!((flags as u64) <= FLAGS_MASK, "flags exceed 6 bits");
    mfn.0 | ((order.0 as u64) << ORDER_SHIFT) | ((flags as u64) << FLAGS_SHIFT)
}

/// Unpacks an 8-byte entry into (mfn, order, flags).
pub(crate) fn unpack_entry(e: PackedEntry) -> (Mfn, PageOrder, u8) {
    let mfn = Mfn(e & MFN_MASK);
    let order = PageOrder(((e >> ORDER_SHIFT) & ORDER_MASK) as u8);
    let flags = (e >> FLAGS_SHIFT) as u8;
    (mfn, order, flags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let e = pack_entry(Mfn(0xdead_beef), PageOrder(9), FLAG_GUEST);
        let (m, o, f) = unpack_entry(e);
        assert_eq!(m, Mfn(0xdead_beef));
        assert_eq!(o, PageOrder(9));
        assert_eq!(f, FLAG_GUEST);
    }

    #[test]
    fn entry_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<PackedEntry>(), 8);
    }

    #[test]
    fn max_mfn_roundtrips() {
        let e = pack_entry(Mfn(MFN_MASK), PageOrder(0), 0);
        assert_eq!(unpack_entry(e).0, Mfn(MFN_MASK));
    }

    #[test]
    #[should_panic(expected = "exceeds 52 bits")]
    fn oversized_mfn_panics() {
        pack_entry(Mfn(1 << 52), PageOrder(0), 0);
    }

    /// The property seed; assertion messages carry it so a failing case
    /// is replayable by pasting it into `SimRng::new`.
    const SEED: u64 = 0x92a3_0001;

    #[test]
    fn randomized_roundtrip() {
        // Deterministic randomized loop (formerly proptest, 256 cases),
        // over the full field ranges including every boundary bit.
        let mut rng = hypertp_sim::SimRng::new(SEED);
        for case in 0..256 {
            let mfn = rng.gen_range(1 << 52);
            let order = rng.gen_range(1 << 6) as u8;
            let flags = rng.gen_range(1 << 6) as u8;
            let e = pack_entry(Mfn(mfn), PageOrder(order), flags);
            let (m, o, f) = unpack_entry(e);
            assert_eq!(m, Mfn(mfn), "seed {SEED:#x} case {case}");
            assert_eq!(o, PageOrder(order), "seed {SEED:#x} case {case}");
            assert_eq!(f, flags, "seed {SEED:#x} case {case}");
        }
    }

    #[test]
    fn randomized_pack_is_injective_on_distinct_triples() {
        // Two different (mfn, order, flags) triples can never pack to the
        // same word: the fields occupy disjoint bit ranges.
        let mut rng = hypertp_sim::SimRng::new(SEED ^ 0x1);
        let mut seen = std::collections::HashMap::new();
        for case in 0..256 {
            let triple = (
                Mfn(rng.gen_range(1 << 52)),
                PageOrder(rng.gen_range(1 << 6) as u8),
                rng.gen_range(1 << 6) as u8,
            );
            let e = pack_entry(triple.0, triple.1, triple.2);
            if let Some(prev) = seen.insert(e, triple) {
                assert_eq!(
                    prev,
                    triple,
                    "seed {:#x} case {case}: collision on {e:#x}",
                    SEED ^ 0x1
                );
            }
        }
    }

    /// Regression corpus carried over from the proptest era:
    /// `mfn = 0, order = 0, flags = 64`. The flag field is 6 bits wide;
    /// 64 must be rejected loudly, not silently truncated into the MFN
    /// of a neighbouring entry's range.
    #[test]
    #[should_panic(expected = "flags exceed 6 bits")]
    fn corpus_mfn_0_order_0_flags_64_panics() {
        pack_entry(Mfn(0), PageOrder(0), 64);
    }

    #[test]
    fn corpus_boundary_values_roundtrip() {
        // The in-range boundary neighbours of the corpus case.
        for (mfn, order, flags) in [(0u64, 0u8, 63u8), (0, 63, 0), (MFN_MASK, 63, 63), (0, 0, 0)] {
            let e = pack_entry(Mfn(mfn), PageOrder(order), flags);
            assert_eq!(unpack_entry(e), (Mfn(mfn), PageOrder(order), flags));
        }
    }
}
