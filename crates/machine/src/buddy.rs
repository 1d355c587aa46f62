//! A binary buddy frame allocator.
//!
//! Hypervisors manage host frames with buddy allocators (Xen's page
//! allocator, Linux's zoned buddy system); the transplant path depends on
//! their behaviour in two ways: guest memory ends up *scattered* across the
//! host (motivating PRAM, §4.2.2), and huge pages require order-9 aligned
//! runs. This is a faithful power-of-two buddy system with per-order free
//! lists (kept as bitmaps), block splitting on allocation and buddy
//! coalescing on free.

use crate::addr::{Extent, Mfn, PageOrder};
use crate::bits;

/// Errors returned by the buddy allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuddyError {
    /// No contiguous run of the requested order is available.
    OutOfMemory {
        /// The order that could not be satisfied.
        order: PageOrder,
    },
    /// The freed block was not allocated (double free or bad address).
    BadFree {
        /// Base frame of the rejected free.
        base: Mfn,
    },
}

impl std::fmt::Display for BuddyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuddyError::OutOfMemory { order } => {
                write!(f, "out of memory for order-{} allocation", order.0)
            }
            BuddyError::BadFree { base } => write!(f, "bad free at {base}"),
        }
    }
}

impl std::error::Error for BuddyError {}

/// Number of block orders the allocator manages (`0..=PageOrder::MAX`).
const ORDERS: usize = PageOrder::MAX.0 as usize + 1;

/// A binary buddy allocator over the frame range `0..total_frames`.
///
/// Free blocks are one bit each: order `k` owns a bitmap in which bit `i`
/// stands for the block `[i << k, (i + 1) << k)`. A block's buddy, parent
/// and the blocks covering a frame range are all index arithmetic on those
/// bitmaps, and "lowest free block of order `k`" is the first set bit at or
/// after a per-order hint word.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq, Eq))]
pub struct BuddyAllocator {
    /// The ten bitmaps, back to back: order `k` is
    /// `bits[offset[k]..offset[k + 1]]`.
    bits: Vec<u64>,
    offset: [usize; ORDERS + 1],
    /// Free blocks per order.
    count: [u64; ORDERS],
    /// Per order, a word of its bitmap below which no bit is set — past
    /// the end while the order has no free block, so the next insert makes
    /// it exact and no scan starts in the empty stretch below it.
    hint: [usize; ORDERS],
    total_frames: u64,
    free_frames: u64,
}

impl BuddyAllocator {
    /// Creates an allocator managing `total_frames` base frames, all free.
    ///
    /// A non-power-of-two total is handled by greedily covering the range
    /// with maximal aligned blocks.
    pub fn new(total_frames: u64) -> Self {
        let mut offset = [0; ORDERS + 1];
        for k in 0..ORDERS {
            offset[k + 1] = offset[k] + bits::words_for(total_frames >> k);
        }
        let mut a = BuddyAllocator {
            bits: vec![0; offset[ORDERS]],
            offset,
            count: [0; ORDERS],
            hint: [usize::MAX; ORDERS],
            total_frames,
            free_frames: 0,
        };
        a.cover_all();
        a
    }

    /// Forgets every allocation and reservation, in place: the state
    /// [`BuddyAllocator::new`] builds, without a new heap block.
    pub(crate) fn reset(&mut self) {
        self.bits.fill(0);
        self.count = [0; ORDERS];
        self.hint = [usize::MAX; ORDERS];
        self.free_frames = 0;
        self.cover_all();
    }

    /// Marks the whole range free over empty bitmaps: maximal blocks as one
    /// ranged set, then the sub-maximal tail by descending order.
    fn cover_all(&mut self) {
        let max = ORDERS - 1;
        let full = self.total_frames >> max;
        let top = self.offset[max];
        bits::set_range(&mut self.bits[top..], 0..full);
        self.count[max] = full;
        if full > 0 {
            self.hint[max] = 0;
        }
        let mut base = full << max;
        for order in (0..max).rev() {
            if self.total_frames - base >= 1 << order {
                self.insert(order, base);
                base += 1 << order;
            }
        }
        self.free_frames = self.total_frames;
    }

    fn order_bits(&self, order: usize) -> &[u64] {
        &self.bits[self.offset[order]..self.offset[order + 1]]
    }

    fn order_bits_mut(&mut self, order: usize) -> &mut [u64] {
        &mut self.bits[self.offset[order]..self.offset[order + 1]]
    }

    /// Puts the block at `base` on order `order`'s free bitmap.
    fn insert(&mut self, order: usize, base: u64) {
        let i = base >> order;
        self.order_bits_mut(order)[(i / 64) as usize] |= 1 << (i % 64);
        self.count[order] += 1;
        self.hint[order] = self.hint[order].min((i / 64) as usize);
    }

    /// Takes the block at `base` off order `order`'s free bitmap, if it is
    /// there.
    fn remove(&mut self, order: usize, base: u64) -> bool {
        let i = base >> order;
        let word = &mut self.order_bits_mut(order)[(i / 64) as usize];
        let was_free = *word >> (i % 64) & 1 != 0;
        if was_free {
            *word &= !(1 << (i % 64));
            self.count[order] -= 1;
            if self.count[order] == 0 {
                self.hint[order] = usize::MAX;
            }
        }
        was_free
    }

    /// Indices of order `order`'s blocks that overlap frames `start..end`.
    fn blocks_overlapping(&self, order: usize, start: u64, end: u64) -> std::ops::Range<u64> {
        let blocks = self.total_frames >> order;
        (start >> order).min(blocks)..end.div_ceil(1 << order).min(blocks)
    }

    /// Total frames managed.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// Frames currently free.
    pub fn free_frames(&self) -> u64 {
        self.free_frames
    }

    /// Frames currently allocated.
    pub fn allocated_frames(&self) -> u64 {
        self.total_frames - self.free_frames
    }

    /// Allocates a `2^order` aligned run of frames: the lowest-addressed
    /// free block of the smallest order that has one, split down to size.
    pub fn alloc(&mut self, order: PageOrder) -> Result<Extent, BuddyError> {
        assert!(order <= PageOrder::MAX, "order above maximum");
        let want = order.0 as usize;
        let from = (want..ORDERS)
            .find(|&k| self.count[k] > 0)
            .ok_or(BuddyError::OutOfMemory { order })?;
        let first = self.hint[from];
        let skipped = self.order_bits(from)[first..]
            .iter()
            .position(|&w| w != 0)
            .expect("a counted free block has its bit set at or after the hint");
        let word = first + skipped;
        self.hint[from] = word;
        let bit = self.order_bits(from)[word].trailing_zeros();
        let base = (word as u64 * 64 + u64::from(bit)) << from;
        self.remove(from, base);
        // Split down to the requested order, returning upper halves to the
        // free bitmaps.
        for cur in (want..from).rev() {
            self.insert(cur, base + (1 << cur));
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
        while order < ORDERS - 1 {
            let buddy = base ^ (1 << order);
            if buddy + (1 << order) > self.total_frames || !self.remove(order, buddy) {
                break;
            }
            base = base.min(buddy);
            order += 1;
        }
        self.insert(order, base);
        self.free_frames += extent.pages();
        Ok(())
    }

    /// Returns true if any free block overlaps `[base, base+len)`.
    fn overlaps_free(&self, base: u64, len: u64) -> bool {
        (0..ORDERS).any(|k| {
            self.count[k] > 0
                && bits::first_set(
                    self.order_bits(k),
                    self.blocks_overlapping(k, base, base.saturating_add(len)),
                )
                .is_some()
        })
    }

    /// Removes a specific frame range from the free pool (used at boot to
    /// reserve PRAM-protected memory). The range need not be aligned; it is
    /// carved out block by block. Returns the number of frames newly
    /// reserved (frames already allocated are skipped — the caller decides
    /// whether that is an error).
    ///
    /// A free block only partly inside the range is *shattered*: the part
    /// outside goes back as single order-0 frames that are not coalesced
    /// with each other (a later [`BuddyAllocator::free`] next to them does
    /// merge them). Which addresses later allocations get depends on this,
    /// so it is part of the contract.
    pub fn reserve_range(&mut self, base: Mfn, pages: u64) -> u64 {
        let (start, end) = (base.0, base.0.saturating_add(pages).min(self.total_frames));
        let mut reserved = 0;
        // Ascending order: the order-0 frames a shatter adds lie outside
        // the range and order 0 is done by then, so nothing is seen twice.
        for k in 0..ORDERS {
            if self.count[k] == 0 {
                continue;
            }
            let mut blocks = self.blocks_overlapping(k, start, end);
            while let Some(i) = bits::first_set(self.order_bits(k), blocks.clone()) {
                blocks.start = i + 1;
                let (block_start, block_end) = (i << k, (i + 1) << k);
                self.remove(k, block_start);
                let inside = block_start.max(start)..block_end.min(end);
                for outside in [block_start..inside.start, inside.end..block_end] {
                    if !outside.is_empty() {
                        self.count[0] += outside.end - outside.start;
                        self.hint[0] = self.hint[0].min((outside.start / 64) as usize);
                        bits::set_range(self.order_bits_mut(0), outside);
                    }
                }
                self.free_frames -= inside.end - inside.start;
                reserved += inside.end - inside.start;
            }
            // Free blocks are disjoint: once those found cover the range,
            // no larger one overlaps it. (An empty range is never covered
            // and scans on to shatter the block around `base`, as the
            // free-list allocator did.)
            if pages > 0 && start + reserved == end {
                break;
            }
        }
        // A shatter lowers the order-0 hint to the frames it puts back, and
        // a later call may take them again. Lift the hint to the first word
        // that holds a free frame, so reserving a run in one call and its
        // pieces call by call leave the same hint.
        if self.count[0] > 0 {
            let first = self.hint[0];
            self.hint[0] += self.order_bits(0)[first..]
                .iter()
                .position(|&w| w != 0)
                .expect("a counted free frame has its bit set at or after the hint");
        }
        reserved
    }

    /// The free block holding frame `mfn`, as `(order, base)`.
    #[cfg(test)]
    pub(crate) fn block_of(&self, mfn: Mfn) -> Option<(usize, u64)> {
        (0..ORDERS).find_map(|k| {
            let base = mfn.0 >> k << k;
            let free =
                base + (1 << k) <= self.total_frames && bits::test(self.order_bits(k), base >> k);
            free.then_some((k, base))
        })
    }

    /// Free blocks as `(order, base)`, by order then address.
    fn free_blocks(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        (0..ORDERS).flat_map(move |k| {
            let words = self.order_bits(k);
            let mut from = 0;
            std::iter::from_fn(move || {
                let i = bits::first_set(words, from..words.len() as u64 * 64)?;
                from = i + 1;
                Some((k, i << k))
            })
        })
    }

    /// Checks internal invariants (free blocks within range and
    /// non-overlapping, counts and hints consistent). Intended for tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = vec![0u64; bits::words_for(self.total_frames)];
        let mut per_order = [0u64; ORDERS];
        let mut frames = 0u64;
        for (order, b) in self.free_blocks() {
            let block = 1u64 << order;
            if b + block > self.total_frames {
                return Err(format!("block {b} out of range at order {order}"));
            }
            if ((b >> order) / 64) < self.hint[order] as u64 {
                return Err(format!("block {b} below the order-{order} hint"));
            }
            if let Some(f) = bits::first_set(&seen, b..b + block) {
                return Err(format!("frame {f} on two free lists"));
            }
            bits::set_range(&mut seen, b..b + block);
            per_order[order] += 1;
            frames += block;
        }
        if per_order != self.count {
            return Err(format!(
                "block count mismatch: bitmaps say {per_order:?}, counters say {:?}",
                self.count
            ));
        }
        if frames != self.free_frames {
            return Err(format!(
                "free count mismatch: lists say {frames}, counter says {}",
                self.free_frames
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    impl BuddyAllocator {
        /// True if the frame is currently free.
        pub(crate) fn is_free(&self, mfn: Mfn) -> bool {
            self.overlaps_free(mfn.0, 1)
        }
    }

    #[test]
    fn full_range_starts_free() {
        let a = BuddyAllocator::new(1024);
        assert_eq!(a.free_frames(), 1024);
        assert_eq!(a.allocated_frames(), 0);
        a.check_invariants().unwrap();
    }

    #[test]
    fn non_power_of_two_total() {
        let a = BuddyAllocator::new(1000);
        assert_eq!(a.free_frames(), 1000);
        a.check_invariants().unwrap();
    }

    #[test]
    fn alloc_and_free_roundtrip() {
        let mut a = BuddyAllocator::new(1024);
        let e = a.alloc(PageOrder(3)).unwrap();
        assert_eq!(e.pages(), 8);
        assert!(e.base.is_aligned(PageOrder(3)));
        assert_eq!(a.free_frames(), 1016);
        a.free(e).unwrap();
        assert_eq!(a.free_frames(), 1024);
        a.check_invariants().unwrap();
    }

    #[test]
    fn coalescing_restores_huge_block() {
        let mut a = BuddyAllocator::new(512);
        let mut extents = Vec::new();
        for _ in 0..512 {
            extents.push(a.alloc(PageOrder(0)).unwrap());
        }
        assert_eq!(a.free_frames(), 0);
        assert!(a.alloc(PageOrder(0)).is_err());
        for e in extents {
            a.free(e).unwrap();
        }
        a.check_invariants().unwrap();
        // After coalescing a full order-9 block must be allocatable again.
        let huge = a.alloc(PageOrder(9)).unwrap();
        assert_eq!(huge.pages(), 512);
    }

    #[test]
    fn double_free_detected() {
        let mut a = BuddyAllocator::new(64);
        let e = a.alloc(PageOrder(1)).unwrap();
        a.free(e).unwrap();
        assert!(matches!(a.free(e), Err(BuddyError::BadFree { .. })));
        a.check_invariants().unwrap();
    }

    #[test]
    fn out_of_range_free_detected() {
        let mut a = BuddyAllocator::new(64);
        let bogus = Extent::new(Mfn(128), PageOrder(0));
        assert!(matches!(a.free(bogus), Err(BuddyError::BadFree { .. })));
    }

    #[test]
    fn huge_alloc_fails_when_fragmented() {
        let mut a = BuddyAllocator::new(512);
        // Allocate all, free all but one frame in the middle.
        let extents: Vec<_> = (0..512).map(|_| a.alloc(PageOrder(0)).unwrap()).collect();
        for (i, e) in extents.iter().enumerate() {
            if i != 256 {
                a.free(*e).unwrap();
            }
        }
        assert!(a.alloc(PageOrder(9)).is_err());
        assert!(a.alloc(PageOrder(7)).is_ok());
        a.check_invariants().unwrap();
    }

    #[test]
    fn reserve_range_removes_frames() {
        let mut a = BuddyAllocator::new(1024);
        let got = a.reserve_range(Mfn(100), 50);
        assert_eq!(got, 50);
        assert_eq!(a.free_frames(), 974);
        assert!(!a.is_free(Mfn(120)));
        assert!(a.is_free(Mfn(99)));
        assert!(a.is_free(Mfn(150)));
        a.check_invariants().unwrap();
        // Allocations never land in the reserved range.
        while let Ok(e) = a.alloc(PageOrder(0)) {
            assert!(!(100..150).contains(&e.base.0));
        }
    }

    #[test]
    fn reserve_skips_already_allocated() {
        let mut a = BuddyAllocator::new(64);
        let e = a.alloc(PageOrder(9).min(PageOrder(5))).unwrap();
        assert_eq!(e.base.0, 0);
        let got = a.reserve_range(Mfn(0), 32);
        assert_eq!(got, 0, "allocated frames are not re-reserved");
    }

    #[test]
    fn deterministic_allocation_order() {
        let mut a = BuddyAllocator::new(256);
        let mut b = BuddyAllocator::new(256);
        for _ in 0..50 {
            assert_eq!(
                a.alloc(PageOrder(0)).unwrap(),
                b.alloc(PageOrder(0)).unwrap()
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use hypertp_sim::SimRng;

    /// Random interleavings of allocs and frees keep every allocator
    /// invariant: aligned free lists, disjoint blocks, exact counters,
    /// and full recovery after freeing everything.
    /// (Formerly proptest, 64 cases.)
    #[test]
    fn random_alloc_free_maintains_invariants() {
        let mut rng = SimRng::new(0xb0dd_0001);
        for _ in 0..64 {
            let total = 64 + rng.gen_range(2048 - 64);
            let n_ops = 1 + rng.gen_range(199) as usize;
            let mut a = BuddyAllocator::new(total);
            let mut live: Vec<Extent> = Vec::new();
            for _ in 0..n_ops {
                let op = rng.gen_range(10) as u8;
                let sel = rng.next_u64() as u16;
                if op < 6 || live.is_empty() {
                    let order = PageOrder(op % 4);
                    if let Ok(e) = a.alloc(order) {
                        assert!(e.base.is_aligned(order));
                        assert!(e.base.0 + e.pages() <= total);
                        // No overlap with any live extent.
                        for other in &live {
                            assert!(
                                e.base.0 + e.pages() <= other.base.0
                                    || other.base.0 + other.pages() <= e.base.0
                            );
                        }
                        live.push(e);
                    }
                } else {
                    let idx = sel as usize % live.len();
                    let e = live.swap_remove(idx);
                    assert!(a.free(e).is_ok());
                }
                a.check_invariants().expect("allocator invariants");
                let held: u64 = live.iter().map(|e| e.pages()).sum();
                assert_eq!(a.allocated_frames(), held);
            }
            for e in live.drain(..) {
                assert!(a.free(e).is_ok());
            }
            assert_eq!(a.free_frames(), total);
            a.check_invariants().expect("allocator invariants");
        }
    }
}

#[cfg(test)]
mod differential {
    use super::*;
    use hypertp_sim::SimRng;

    /// Seeded scripts of everything a caller can do — allocations of every
    /// order, frees that are valid, repeated, of a sub-block, or of an
    /// arbitrary extent (which may hit a live one, so any later free can be
    /// refused), unaligned and overhanging `reserve_range`s, `is_free`
    /// probes — leave the bitmap allocator and the free-list
    /// oracle with the same return values, the same counters and the same
    /// set of free blocks after every step. Equal free blocks mean equal
    /// addresses for every later allocation.
    #[test]
    fn bitmap_allocator_matches_the_free_list_oracle() {
        let mut meta = SimRng::new(0xb0dd_0002);
        for script in 0..256 {
            let seed = meta.next_u64();
            let mut rng = SimRng::new(seed);
            // Mostly ragged totals; every eighth script a whole number of
            // maximal blocks.
            let total = if script % 8 == 0 {
                512 * (1 + rng.gen_range(6))
            } else {
                1 + rng.gen_range(3000)
            };
            let mut new = BuddyAllocator::new(total);
            let mut old = oracle::BuddyAllocator::new(total);
            let mut live: Vec<Extent> = Vec::new();
            let mut dead: Vec<Extent> = Vec::new();
            let at =
                |step: usize| format!("script {script} seed {seed:#x} total {total} step {step}");
            for step in 0..(40 + rng.gen_range(160)) as usize {
                match rng.gen_range(12) {
                    0..=4 => {
                        // Small orders mostly, so scripts fragment before
                        // they run dry.
                        let order = PageOrder(if rng.gen_bool(0.7) {
                            rng.gen_range(4) as u8
                        } else {
                            rng.gen_range(10) as u8
                        });
                        let got = new.alloc(order);
                        assert_eq!(got, old.alloc(order), "alloc {order:?}, {}", at(step));
                        live.extend(got);
                    }
                    5 | 6 if !live.is_empty() => {
                        let e = live.swap_remove(rng.gen_range(live.len() as u64) as usize);
                        assert_eq!(new.free(e), old.free(e), "free {e:?}, {}", at(step));
                        dead.push(e);
                    }
                    7 if !dead.is_empty() => {
                        // Repeated free: refused unless the frames were
                        // handed out again since.
                        let e = dead[rng.gen_range(dead.len() as u64) as usize];
                        assert_eq!(new.free(e), old.free(e), "refree {e:?}, {}", at(step));
                    }
                    8 if live.iter().any(|e| e.order.0 > 0) => {
                        // Free one half of a live block; the other half
                        // stays live, the whole is refused from now on.
                        let i = live.iter().position(|e| e.order.0 > 0).expect("checked");
                        let whole = live.swap_remove(i);
                        let half = PageOrder(whole.order.0 - 1);
                        let pick = rng.gen_range(2);
                        let sub = Extent::new(whole.base + pick * half.pages(), half);
                        assert_eq!(
                            new.free(sub),
                            old.free(sub),
                            "subfree {sub:?}, {}",
                            at(step)
                        );
                        live.push(Extent::new(whole.base + (1 - pick) * half.pages(), half));
                        dead.extend([whole, sub]);
                    }
                    9 => {
                        // Any extent at all, past the end included.
                        let order = PageOrder(rng.gen_range(10) as u8);
                        let base = rng.gen_range(total + 600) & !(order.pages() - 1);
                        let e = Extent::new(Mfn(base), order);
                        assert_eq!(new.free(e), old.free(e), "wild free {e:?}, {}", at(step));
                    }
                    10 => {
                        let base = Mfn(rng.gen_range(total + 70));
                        let pages = match rng.gen_range(4) {
                            0 => rng.gen_range(3),
                            1 => rng.gen_range(70),
                            _ => rng.gen_range(1200),
                        };
                        assert_eq!(
                            new.reserve_range(base, pages),
                            old.reserve_range(base, pages),
                            "reserve {base} + {pages}, {}",
                            at(step)
                        );
                    }
                    _ => {
                        let mfn = Mfn(rng.gen_range(total + 70));
                        assert_eq!(new.is_free(mfn), old.is_free(mfn), "{mfn}, {}", at(step));
                    }
                }
                assert_eq!(new.free_frames(), old.free_frames(), "{}", at(step));
                new.check_invariants()
                    .unwrap_or_else(|e| panic!("{e}, {}", at(step)));
                assert!(
                    new.free_blocks().eq(old.free_blocks()),
                    "free blocks differ, {}",
                    at(step)
                );
            }
        }
    }

    /// `reset` lands on the state `new` builds, whatever came before.
    #[test]
    fn reset_equals_new() {
        for total in [0u64, 1, 63, 64, 511, 512, 1000, 4096 + 77] {
            let mut a = BuddyAllocator::new(total);
            while a.alloc(PageOrder(0)).is_ok() {}
            a.reserve_range(Mfn(total / 3), total / 2);
            a.reset();
            a.check_invariants().unwrap();
            assert_eq!(a.free_frames(), total);
            assert!(a
                .free_blocks()
                .eq(oracle::BuddyAllocator::new(total).free_blocks()));
        }
    }
}
