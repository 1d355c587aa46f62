//! The `BTreeSet` free-list allocator this crate shipped before the bitmap
//! one: the reference the differential test in [`super::differential`]
//! replays every script against. Method bodies are unchanged; the accessors
//! the test does not call are gone and `free_blocks` is new.

use std::collections::BTreeSet;

use super::BuddyError;
use crate::addr::{Extent, Mfn, PageOrder};

/// A binary buddy allocator over the frame range `0..total_frames`.
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    /// Free blocks per order, kept sorted so allocation is deterministic
    /// (lowest address first).
    free: Vec<BTreeSet<u64>>,
    total_frames: u64,
    free_frames: u64,
}

impl BuddyAllocator {
    /// Creates an allocator managing `total_frames` base frames, all free.
    ///
    /// A non-power-of-two total is handled by greedily covering the range
    /// with maximal aligned blocks.
    pub fn new(total_frames: u64) -> Self {
        let max = PageOrder::MAX.0 as usize;
        let mut a = BuddyAllocator {
            free: vec![BTreeSet::new(); max + 1],
            total_frames,
            free_frames: 0,
        };
        let mut base = 0u64;
        while base < total_frames {
            // The largest order both aligned at `base` and fitting the
            // remaining range.
            let align_order = if base == 0 {
                PageOrder::MAX.0
            } else {
                (base.trailing_zeros() as u8).min(PageOrder::MAX.0)
            };
            let mut order = align_order;
            while (1u64 << order) > total_frames - base {
                order -= 1;
            }
            a.free[order as usize].insert(base);
            a.free_frames += 1 << order;
            base += 1 << order;
        }
        a
    }

    /// Frames currently free.
    pub fn free_frames(&self) -> u64 {
        self.free_frames
    }

    /// Allocates a `2^order` aligned run of frames.
    pub fn alloc(&mut self, order: PageOrder) -> Result<Extent, BuddyError> {
        assert!(order <= PageOrder::MAX, "order above maximum");
        // Find the smallest order with a free block.
        let mut from = order.0 as usize;
        while from < self.free.len() && self.free[from].is_empty() {
            from += 1;
        }
        if from >= self.free.len() {
            return Err(BuddyError::OutOfMemory { order });
        }
        let base = *self.free[from]
            .iter()
            .next()
            .expect("non-empty free list has a first element");
        self.free[from].remove(&base);
        // Split down to the requested order, returning upper halves to the
        // free lists.
        let mut cur = from;
        while cur > order.0 as usize {
            cur -= 1;
            let buddy = base + (1u64 << cur);
            self.free[cur].insert(buddy);
        }
        self.free_frames -= order.pages();
        Ok(Extent::new(Mfn(base), order))
    }

    /// Frees a previously allocated extent, coalescing with free buddies.
    pub fn free(&mut self, extent: Extent) -> Result<(), BuddyError> {
        let mut base = extent.base.0;
        let mut order = extent.order.0 as usize;
        if base + extent.pages() > self.total_frames {
            return Err(BuddyError::BadFree { base: extent.base });
        }
        // Reject frees of blocks that overlap a free block (double free).
        if self.overlaps_free(base, extent.pages()) {
            return Err(BuddyError::BadFree { base: extent.base });
        }
        while order < PageOrder::MAX.0 as usize {
            let buddy = base ^ (1u64 << order);
            if buddy + (1 << order) > self.total_frames || !self.free[order].remove(&buddy) {
                break;
            }
            base = base.min(buddy);
            order += 1;
        }
        self.free[order].insert(base);
        self.free_frames += extent.pages();
        Ok(())
    }

    /// Returns true if any free block overlaps `[base, base+len)`.
    fn overlaps_free(&self, base: u64, len: u64) -> bool {
        for (order, list) in self.free.iter().enumerate() {
            let block = 1u64 << order;
            // A free block [b, b+block) overlaps iff b < base+len and
            // b+block > base; candidates have b > base - block.
            let lo = base.saturating_sub(block - 1);
            for &b in list.range(lo..base + len) {
                if b + block > base {
                    return true;
                }
            }
        }
        false
    }

    /// Removes a specific frame range from the free pool (used at boot to
    /// reserve PRAM-protected memory). The range need not be aligned; it is
    /// carved out block by block. Returns the number of frames newly
    /// reserved (frames already allocated are skipped — the caller decides
    /// whether that is an error).
    pub fn reserve_range(&mut self, base: Mfn, pages: u64) -> u64 {
        let mut reserved = 0;
        let mut pending: Vec<(u64, usize)> = Vec::new();
        for (order, list) in self.free.iter().enumerate() {
            let block = 1u64 << order;
            let lo = base.0.saturating_sub(block - 1);
            for &b in list.range(lo..base.0 + pages) {
                if b + block > base.0 {
                    pending.push((b, order));
                }
            }
        }
        for (b, order) in pending {
            self.free[order].remove(&b);
            self.free_frames -= 1u64 << order;
            let block = 1u64 << order;
            // Re-free the parts of the block outside the reserved range.
            for f in b..b + block {
                if f >= base.0 && f < base.0 + pages {
                    reserved += 1;
                } else {
                    self.free[0].insert(f);
                    self.free_frames += 1;
                }
            }
        }
        reserved
    }

    /// Returns true if the frame is currently free.
    pub(crate) fn is_free(&self, mfn: Mfn) -> bool {
        self.overlaps_free(mfn.0, 1)
    }

    /// Free blocks as `(order, base)`, by order then address.
    pub(crate) fn free_blocks(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.free
            .iter()
            .enumerate()
            .flat_map(|(order, list)| list.iter().map(move |&b| (order, b)))
    }
}
