//! Frame numbers, page orders and extents.
//!
//! Terminology follows Xen (and the paper's Fig. 4): a **GFN** is a guest
//! frame number (guest-physical address >> 12), an **MFN** is a machine
//! frame number (host-physical address >> 12). A PRAM page entry maps a GFN
//! run to an MFN run of `2^order` pages.

use std::fmt;
use std::ops::Add;

/// Size of a base page in bytes (4 KiB).
pub const PAGE_SIZE: u64 = 4096;

/// Size of a huge page in bytes (2 MiB).
pub const HUGE_PAGE_SIZE: u64 = 2 * 1024 * 1024;

/// Page order of a 2 MiB huge page (2^9 base pages).
pub(crate) const HUGE_PAGE_ORDER: PageOrder = PageOrder(9);

/// A machine (host-physical) frame number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Mfn(pub u64);

/// A guest (guest-physical) frame number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Gfn(pub u64);

/// A power-of-two allocation order: a run of `2^order` base pages.
///
/// Order 0 is a 4 KiB page; order 9 is a 2 MiB huge page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageOrder(pub u8);

impl PageOrder {
    /// Maximum order supported by the buddy allocator (2 MiB).
    pub const MAX: PageOrder = HUGE_PAGE_ORDER;

    /// Number of base pages in this order.
    pub const fn pages(self) -> u64 {
        1u64 << self.0
    }

    /// Number of bytes covered by this order.
    pub const fn bytes(self) -> u64 {
        PAGE_SIZE << self.0
    }
}

impl Mfn {
    /// Returns the host-physical byte address of the frame.
    pub const fn addr(self) -> u64 {
        self.0 * PAGE_SIZE
    }

    /// Returns true if this MFN is aligned to the given order.
    pub const fn is_aligned(self, order: PageOrder) -> bool {
        self.0 & (order.pages() - 1) == 0
    }
}

impl Gfn {
    /// Returns the guest-physical byte address of the frame.
    pub const fn addr(self) -> u64 {
        self.0 * PAGE_SIZE
    }
}

impl Add<u64> for Mfn {
    type Output = Mfn;

    fn add(self, rhs: u64) -> Mfn {
        Mfn(self.0 + rhs)
    }
}

impl Add<u64> for Gfn {
    type Output = Gfn;

    fn add(self, rhs: u64) -> Gfn {
        Gfn(self.0 + rhs)
    }
}

impl fmt::Display for Mfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mfn:{:#x}", self.0)
    }
}

impl fmt::Display for Gfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gfn:{:#x}", self.0)
    }
}

/// A contiguous run of machine frames: `2^order` base pages starting at
/// `base`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Extent {
    /// First machine frame of the run.
    pub base: Mfn,
    /// Allocation order: the run covers `2^order` base pages.
    pub order: PageOrder,
}

impl Extent {
    /// Creates an extent; the base must be aligned to the order.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not aligned to `order`.
    pub fn new(base: Mfn, order: PageOrder) -> Self {
        assert!(
            base.is_aligned(order),
            "extent base {base} not aligned to order {}",
            order.0
        );
        Extent { base, order }
    }

    /// Number of base pages covered.
    pub const fn pages(self) -> u64 {
        self.order.pages()
    }

    /// Number of bytes covered.
    pub const fn bytes(self) -> u64 {
        self.order.bytes()
    }

    /// Iterates over every base frame in the run.
    pub fn frames(self) -> impl Iterator<Item = Mfn> {
        (self.base.0..self.base.0 + self.pages()).map(Mfn)
    }

    /// Returns true if `mfn` lies inside the run.
    pub fn contains(self, mfn: Mfn) -> bool {
        mfn.0 >= self.base.0 && mfn.0 < self.base.0 + self.pages()
    }
}

/// Coalesces extents into physically contiguous `(first frame, pages)`
/// runs, in sequence order: an extent that starts where the run before it
/// ends joins that run. Only neighbours in the sequence merge, so a walk
/// over the runs visits every frame in the order a walk over the extents
/// does, with one call per run instead of one per extent.
pub fn frame_runs(extents: impl IntoIterator<Item = Extent>) -> impl Iterator<Item = (Mfn, u64)> {
    let mut extents = extents.into_iter().peekable();
    std::iter::from_fn(move || {
        let first = extents.next()?;
        let mut pages = first.pages();
        while let Some(e) = extents.next_if(|e| e.base.0 == first.base.0 + pages) {
            pages += e.pages();
        }
        Some((first.base, pages))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_sizes() {
        assert_eq!(PageOrder(0).pages(), 1);
        assert_eq!(PageOrder(0).bytes(), 4096);
        assert_eq!(PageOrder(9).pages(), 512);
        assert_eq!(PageOrder(9).bytes(), HUGE_PAGE_SIZE);
    }

    #[test]
    fn frame_addresses() {
        assert_eq!(Mfn(2).addr(), 8192);
        assert_eq!(Gfn(1).addr(), 4096);
    }

    #[test]
    fn alignment() {
        assert!(Mfn(512).is_aligned(PageOrder(9)));
        assert!(!Mfn(513).is_aligned(PageOrder(9)));
        assert!(Mfn(513).is_aligned(PageOrder(0)));
    }

    #[test]
    fn extent_iteration_and_contains() {
        let e = Extent::new(Mfn(8), PageOrder(2));
        let frames: Vec<u64> = e.frames().map(|m| m.0).collect();
        assert_eq!(frames, vec![8, 9, 10, 11]);
        assert!(e.contains(Mfn(10)));
        assert!(!e.contains(Mfn(12)));
        assert_eq!(e.bytes(), 4 * 4096);
    }

    #[test]
    fn runs_merge_only_sequence_neighbours() {
        let e = |base, order| Extent::new(Mfn(base), PageOrder(order));
        let runs: Vec<_> =
            frame_runs([e(0, 2), e(4, 2), e(8, 3), e(32, 0), e(16, 4), e(33, 0)]).collect();
        // Frame 32 ends 16..32 and frame 33 follows frame 32 in memory,
        // but neither is its sequence neighbour.
        assert_eq!(
            runs,
            [(Mfn(0), 16), (Mfn(32), 1), (Mfn(16), 16), (Mfn(33), 1)]
        );
        assert_eq!(frame_runs([]).count(), 0);
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn misaligned_extent_panics() {
        Extent::new(Mfn(3), PageOrder(1));
    }
}
