//! Physical RAM: frame contents, ownership and kexec survival.
//!
//! Frame contents are modelled as 64-bit *content words* — an opaque value
//! that changes whenever the owner writes the frame. This is sufficient for
//! every property the transplant path must preserve (guest memory is kept
//! byte-identical in place across InPlaceTP; migrated memory equals the
//! source at pause time) while letting experiments instantiate multi-GiB
//! machines cheaply. Small tests that need real bytes can attach a byte
//! buffer to a frame; its content word is then a hash of the bytes, so the
//! two views stay consistent.
//!
//! Most of a guest's frames hold zero words, so RAM keeps a one-bit
//! summary per eight frames (a *line*) whose clear bits prove a line zero.
//! The integrity fold and the boot scrub read only the lines the summary
//! cannot prove zero, and their results are exactly those of reading all.

use std::collections::HashMap;

use crate::addr::{Extent, Mfn, PageOrder, PAGE_SIZE};
use crate::bits;
use crate::buddy::{BuddyAllocator, BuddyError};

/// Errors from physical memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Frame number beyond the end of RAM.
    OutOfRange {
        /// The offending frame.
        mfn: Mfn,
    },
    /// Allocation failed.
    Buddy(BuddyError),
    /// Access to a frame that is not allocated.
    NotAllocated {
        /// The offending frame.
        mfn: Mfn,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfRange { mfn } => write!(f, "{mfn} out of range"),
            MemError::Buddy(e) => write!(f, "allocator: {e}"),
            MemError::NotAllocated { mfn } => write!(f, "{mfn} not allocated"),
        }
    }
}

impl std::error::Error for MemError {}

impl From<BuddyError> for MemError {
    fn from(e: BuddyError) -> Self {
        MemError::Buddy(e)
    }
}

/// The machine's physical RAM.
///
/// `contents[i]` is frame `i`'s opaque content word (0 means
/// scrubbed/zeroed); keeping the words contiguous is what lets
/// [`PhysicalMemory::content_slice`] hand extent-backed borrows to the
/// migration gather path with zero copies. Ownership is two bitmaps, one
/// bit per frame, so every ownership operation on a frame range is a walk
/// over the words it overlaps — eight for a huge page — and the sweeps over
/// all of RAM (kexec, boot scrub) read 1 bit per frame instead of 2 bytes.
///
/// `contents` has three mutators — [`PhysicalMemory::write`],
/// [`PhysicalMemory::write_bytes`] and [`PhysicalMemory::scrub_unreserved`]
/// — and each keeps the zero-line summary `lines` true as it goes.
#[derive(Debug)]
pub struct PhysicalMemory {
    contents: Vec<u64>,
    /// The zero-line summary, bit `l` for frames `8l..8l + 8`. Invariant:
    /// a clear bit means the line's content words are all zero. Writes set
    /// bits (a zero write leaves its bit set, which costs a skip, never a
    /// wrong result); only the boot scrub clears them.
    lines: Vec<u64>,
    /// Bit set while some owner holds the frame (cleared by kexec).
    allocated: Vec<u64>,
    /// Bit set if the frame is protected by a parsed PRAM reservation.
    reserved: Vec<u64>,
    buddy: BuddyAllocator,
    /// Optional byte-level backing for frames that tests want to inspect.
    bytes: HashMap<u64, Box<[u8]>>,
}

impl PhysicalMemory {
    /// Creates RAM with `total_frames` zeroed frames.
    pub fn new(total_frames: u64) -> Self {
        PhysicalMemory {
            contents: vec![0; total_frames as usize],
            lines: vec![0; bits::words_for(total_frames.div_ceil(LINE))],
            allocated: vec![0; bits::words_for(total_frames)],
            reserved: vec![0; bits::words_for(total_frames)],
            buddy: BuddyAllocator::new(total_frames),
            bytes: HashMap::new(),
        }
    }

    /// Creates RAM of the given size in GiB.
    pub fn with_gib(gib: u64) -> Self {
        PhysicalMemory::new(gib * (1 << 30) / PAGE_SIZE)
    }

    /// Total number of frames.
    pub fn total_frames(&self) -> u64 {
        self.buddy.total_frames()
    }

    /// Number of free frames.
    pub fn free_frames(&self) -> u64 {
        self.buddy.free_frames()
    }

    /// Number of allocated frames.
    pub fn allocated_frames(&self) -> u64 {
        self.buddy.allocated_frames()
    }

    /// Allocates a `2^order` run of frames and marks it owned.
    pub fn alloc(&mut self, order: PageOrder) -> Result<Extent, MemError> {
        let e = self.buddy.alloc(order)?;
        bits::set_range(&mut self.allocated, e.base.0..e.base.0 + e.pages());
        Ok(e)
    }

    /// Frees a run of frames. Contents are left in place (freeing does not
    /// scrub — exactly the property InPlaceTP exploits and the paper's
    /// "logic to ensure VM memory regions are not accidentally erased"
    /// guards).
    pub fn free(&mut self, extent: Extent) -> Result<(), MemError> {
        self.buddy.free(extent)?;
        bits::clear_range(
            &mut self.allocated,
            extent.base.0..extent.base.0 + extent.pages(),
        );
        Ok(())
    }

    /// The frame's index, if it is allocated.
    fn owned(&self, mfn: Mfn) -> Result<usize, MemError> {
        if mfn.0 >= self.total_frames() {
            return Err(MemError::OutOfRange { mfn });
        }
        if !bits::test(&self.allocated, mfn.0) {
            return Err(MemError::NotAllocated { mfn });
        }
        Ok(mfn.0 as usize)
    }

    /// Writes a content word to an allocated frame.
    pub fn write(&mut self, mfn: Mfn, content: u64) -> Result<(), MemError> {
        let i = self.owned(mfn)?;
        self.contents[i] = content;
        // No branch: the migrations land every page through here.
        let line = mfn.0 / LINE;
        self.lines[(line / 64) as usize] |= u64::from(content != 0) << (line % 64);
        // Almost no frame is byte-backed: skip hashing the key into an
        // empty map on every word write.
        if !self.bytes.is_empty() {
            self.bytes.remove(&mfn.0);
        }
        Ok(())
    }

    /// Reads a frame's content word. Reading free frames is allowed (the
    /// transplant path reads guest frames after kexec has cleared
    /// ownership).
    pub fn read(&self, mfn: Mfn) -> Result<u64, MemError> {
        self.contents
            .get(mfn.0 as usize)
            .copied()
            .ok_or(MemError::OutOfRange { mfn })
    }

    /// Borrows the content words of a physically-contiguous frame run as a
    /// slice — the zero-copy primitive behind the migration gather path.
    /// Where the old wire path copied every frame's word into a fresh
    /// per-round `Vec`, callers now read straight from the extent backing.
    /// Reading free frames is allowed, same as [`PhysicalMemory::read`].
    pub fn content_slice(&self, base: Mfn, pages: u64) -> Result<&[u64], MemError> {
        let start = base.0 as usize;
        let end = start
            .checked_add(pages as usize)
            .ok_or(MemError::OutOfRange { mfn: base })?;
        self.contents.get(start..end).ok_or(MemError::OutOfRange {
            mfn: Mfn(base.0 + pages.saturating_sub(1)),
        })
    }

    /// Appends the content words of `base..base + pages` to `out`: the
    /// words [`PhysicalMemory::content_slice`] borrows, with the same
    /// errors, but only the lines the zero-line summary marks are read. A
    /// run of clear lines is appended as zeros without touching its words,
    /// so gathering never-written memory — a fresh destination's — faults
    /// none of it in before the writes that land there.
    pub fn append_content(
        &self,
        base: Mfn,
        pages: u64,
        out: &mut Vec<u64>,
    ) -> Result<(), MemError> {
        let words = self.content_slice(base, pages)?;
        let (start, end) = (base.0, base.0 + pages);
        // The frames `start..at` are appended.
        let mut at = start;
        let lines = start / LINE..end.div_ceil(LINE);
        for (w, mask) in bits::word_masks(lines) {
            let mut marked = self.lines[w] & mask;
            while marked != 0 {
                // The next run of marked lines of this summary word.
                let first = marked.trailing_zeros();
                let run = (marked >> first).trailing_ones();
                marked &= u64::MAX.checked_shl(first + run).unwrap_or(0);
                let line = w as u64 * 64 + u64::from(first);
                let from = (line * LINE).max(start);
                let to = ((line + u64::from(run)) * LINE).min(end);
                out.resize(out.len() + (from - at) as usize, 0);
                out.extend_from_slice(&words[(from - start) as usize..(to - start) as usize]);
                at = to;
            }
        }
        out.resize(out.len() + (end - at) as usize, 0);
        Ok(())
    }

    /// Attaches a full 4 KiB byte buffer to an allocated frame. The content
    /// word becomes a hash of the bytes.
    pub fn write_bytes(&mut self, mfn: Mfn, data: &[u8]) -> Result<(), MemError> {
        assert_eq!(data.len() as u64, PAGE_SIZE, "frame writes are page-sized");
        let i = self.owned(mfn)?;
        self.contents[i] = fnv1a(data);
        let line = mfn.0 / LINE;
        self.lines[(line / 64) as usize] |= 1 << (line % 64);
        self.bytes.insert(mfn.0, data.to_vec().into_boxed_slice());
        Ok(())
    }

    /// Reads the byte buffer attached to a frame, if any.
    pub fn read_bytes(&self, mfn: Mfn) -> Option<&[u8]> {
        self.bytes.get(&mfn.0).map(|b| &b[..])
    }

    /// Marks a frame range as reserved (PRAM-protected): the buddy allocator
    /// will never hand these frames out and boot scrubbing skips them.
    pub fn reserve_range(&mut self, base: Mfn, pages: u64) -> Result<u64, MemError> {
        if base.0 + pages > self.total_frames() {
            return Err(MemError::OutOfRange {
                mfn: Mfn(base.0 + pages - 1),
            });
        }
        let got = self.buddy.reserve_range(base, pages);
        bits::set_range(&mut self.reserved, base.0..base.0 + pages);
        Ok(got)
    }

    /// Returns true if the frame is reserved.
    pub fn is_reserved(&self, mfn: Mfn) -> bool {
        bits::test(&self.reserved, mfn.0)
    }

    /// Returns true if the frame is allocated.
    pub fn is_allocated(&self, mfn: Mfn) -> bool {
        bits::test(&self.allocated, mfn.0)
    }

    /// Returns true if every frame of `base..base + pages` exists and is
    /// allocated: one walk over the words the range overlaps.
    pub fn all_allocated(&self, base: Mfn, pages: u64) -> bool {
        let (in_ram, overhang) = self.clip(base, pages);
        overhang.is_ok() && bits::first_clear(&self.allocated, in_ram).is_none()
    }

    /// Kexec semantics: all ownership and reservations are forgotten (the
    /// new kernel starts with a fresh allocator), but contents survive.
    pub fn forget_ownership(&mut self) {
        self.allocated.fill(0);
        self.reserved.fill(0);
        self.buddy.reset();
    }

    /// Boot-time scrubbing: zeroes the contents of every frame that is
    /// neither reserved nor allocated. A hypervisor that boots without
    /// parsing PRAM destroys all pre-existing guest memory here — the
    /// failure mode the paper's PRAM reservations exist to prevent.
    ///
    /// Returns the number of frames scrubbed.
    ///
    /// A 64-frame block is eight lines, one byte of the zero-line summary:
    /// a block the summary proves zero is skipped unread, and a block with
    /// unowned frames has its byte recomputed from the words just zeroed.
    /// A summary word covers a group of eight blocks, 512 frames; a group
    /// whose word is zero, or whose every frame is owned or reserved — all
    /// of a guest's memory after `reserve_all` — is skipped whole.
    pub fn scrub_unreserved(&mut self) -> u64 {
        let mut scrubbed = 0;
        for (g, group) in self.contents.chunks_mut(512).enumerate() {
            let blocks = 8 * g..8 * g + group.len().div_ceil(64);
            let owned = |w: usize| self.allocated[w] | self.reserved[w] == !0;
            if self.lines[g] == 0 || (group.len() == 512 && blocks.clone().all(owned)) {
                continue;
            }
            for (w, frames) in blocks.zip(group.chunks_mut(64)) {
                let (summary, shift) = (&mut self.lines[g], w % 8 * 8);
                if *summary >> shift & 0xff == 0 {
                    continue;
                }
                // Neither bitmap ever has a bit past the last frame; the
                // last chunk is as short as the frames that are left.
                let mut unowned =
                    !(self.allocated[w] | self.reserved[w]) & (!0 >> (64 - frames.len()));
                if unowned == 0 {
                    continue;
                }
                while unowned != 0 {
                    let i = unowned.trailing_zeros() as usize;
                    unowned &= unowned - 1;
                    if frames[i] != 0 {
                        frames[i] = 0;
                        self.bytes.remove(&(w as u64 * 64 + i as u64));
                        scrubbed += 1;
                    }
                }
                let mut live = 0u64;
                for (l, line) in frames.chunks(LINE as usize).enumerate() {
                    live |= u64::from(line.iter().any(|&c| c != 0)) << l;
                }
                *summary = *summary & !(0xff << shift) | live << shift;
            }
        }
        scrubbed
    }

    /// Re-adopts a reserved frame range as an allocated extent without
    /// touching contents (the PRAM filesystem handing guest memory to the
    /// new hypervisor). The range keeps its reserved marking.
    ///
    /// All or nothing: on an error — which names the lowest frame that is
    /// unreserved or past the end of RAM — no frame has changed owner.
    pub fn adopt_reserved(&mut self, base: Mfn, pages: u64) -> Result<(), MemError> {
        let (in_ram, overhang) = self.clip(base, pages);
        if let Some(i) = bits::first_clear(&self.reserved, in_ram.clone()) {
            return Err(MemError::NotAllocated { mfn: Mfn(i) });
        }
        overhang?;
        bits::set_range(&mut self.allocated, in_ram);
        Ok(())
    }

    /// Releases a reservation (cleanup step ❼ of Fig. 3 frees ephemeral
    /// PRAM metadata back to the allocator). A range that runs past the end
    /// of RAM is released up to the end, then reported.
    pub fn unreserve_and_free(&mut self, base: Mfn, pages: u64) -> Result<(), MemError> {
        let (in_ram, overhang) = self.clip(base, pages);
        for (w, mask) in bits::word_masks(in_ram) {
            self.reserved[w] &= !mask;
            // Frames no owner holds return to the allocator one by one, in
            // address order; it refuses the ones it already has.
            let mut unowned = mask & !self.allocated[w];
            while unowned != 0 {
                let mfn = Mfn(w as u64 * 64 + u64::from(unowned.trailing_zeros()));
                unowned &= unowned - 1;
                self.buddy.free(Extent::new(mfn, PageOrder(0))).ok();
            }
        }
        overhang
    }

    /// The frames of `base..base + pages` that exist, and an error naming
    /// the first frame of the range past the end of RAM if there is one.
    fn clip(&self, base: Mfn, pages: u64) -> (std::ops::Range<u64>, Result<(), MemError>) {
        let total = self.total_frames();
        let end = base.0.saturating_add(pages);
        let overhang = if pages > 0 && end > total {
            Err(MemError::OutOfRange {
                mfn: Mfn(base.0.max(total)),
            })
        } else {
            Ok(())
        };
        (base.0.min(total)..end.min(total), overhang)
    }

    /// Sums a simple checksum over a set of extents' content words (used by
    /// the transplant engine and tests to verify guest memory integrity end
    /// to end).
    ///
    /// The checksum is defined as per-extent partial hashes combined in
    /// extent order, so partials can be computed on any number of worker
    /// threads without changing the result: serial and parallel runs return
    /// identical values for the same extents.
    pub fn checksum_with_pool(&self, extents: &[Extent], pool: &hypertp_sim::WorkerPool) -> u64 {
        combine_partials(&self.extent_partials_with_pool(extents, pool))
    }

    /// Computes the per-extent partial hashes that
    /// [`combine_partials`] folds into the final checksum. The returned
    /// vector is indexed like `extents`, so callers can cache it and later
    /// recompute only the partials of extents whose frames were redirtied
    /// ([`PhysicalMemory::refresh_partials_with_pool`]) instead of rehashing
    /// every frame — the incremental-translate fast path.
    pub fn extent_partials_with_pool(
        &self,
        extents: &[Extent],
        pool: &hypertp_sim::WorkerPool,
    ) -> Vec<u64> {
        if !self.fans_out(pool, extents.iter()) {
            extents.iter().map(|e| self.extent_partial(e)).collect()
        } else {
            // One contiguous run of extents per worker: a 4 KiB-page guest
            // is a quarter of a million extents, far too small to be a
            // task each.
            let per_worker = pool.map_chunks(extents.len(), pool.workers(), |run| {
                let partials = extents[run].iter().map(|e| self.extent_partial(e));
                partials.collect::<Vec<_>>()
            });
            per_worker.results.concat()
        }
    }

    /// Recomputes the cached partials of the extents named by `dirty`
    /// (indices into `extents`), leaving every clean extent's partial
    /// untouched. Combined with [`combine_partials`], this reproduces the
    /// exact value [`PhysicalMemory::checksum_with_pool`] would compute from
    /// scratch while only rehashing the dirtied extents.
    pub fn refresh_partials_with_pool(
        &self,
        extents: &[Extent],
        partials: &mut [u64],
        dirty: &[usize],
        pool: &hypertp_sim::WorkerPool,
    ) {
        assert_eq!(
            extents.len(),
            partials.len(),
            "partials cache must be indexed like extents"
        );
        if !self.fans_out(pool, dirty.iter().map(|&i| &extents[i])) {
            for &i in dirty {
                partials[i] = self.extent_partial(&extents[i]);
            }
        } else {
            let per_worker = pool.map_chunks(dirty.len(), pool.workers(), |run| {
                let fresh = dirty[run].iter().map(|&i| self.extent_partial(&extents[i]));
                fresh.collect::<Vec<_>>()
            });
            for (&i, p) in dirty.iter().zip(per_worker.results.into_iter().flatten()) {
                partials[i] = p;
            }
        }
    }

    /// Whether folding `extents` on `pool` is worth a fan-out: there is more
    /// than one worker and one extent, and the fold's cost — the words it
    /// will read (the marked lines and the extents too small to hold a
    /// line) plus [`EXTENT_WORDS`] an extent — reaches
    /// [`PAR_THRESHOLD_WORDS`]. Counting stops there.
    fn fans_out<'a>(
        &self,
        pool: &hypertp_sim::WorkerPool,
        mut extents: impl ExactSizeIterator<Item = &'a Extent>,
    ) -> bool {
        if pool.workers() <= 1 || extents.len() <= 1 {
            return false;
        }
        let mut words = 0;
        extents.any(|e| {
            let lines = bits::word_masks(whole_lines(e));
            let marked: u32 = lines.map(|(w, m)| (self.lines[w] & m).count_ones()).sum();
            words += EXTENT_WORDS + e.pages() % LINE + LINE * u64::from(marked);
            words >= PAR_THRESHOLD_WORDS
        })
    }

    /// Order-dependent fold over one extent's content words — the unit of
    /// parallelism for [`PhysicalMemory::checksum_with_pool`].
    ///
    /// The fold is `acc = rotl(acc, 5) ^ c·P` per word. Rotation
    /// distributes over xor, so eight steps collapse to one rotation of the
    /// accumulator by 40 and eight independent terms: the same value with
    /// one link in the dependency chain per line. A zero word's term is
    /// zero, so a line the summary proves zero is exactly `rotl(acc, 40)`,
    /// and a run of `k` of them one rotation by `40k mod 64`; only the
    /// lines the summary marks are read.
    pub fn extent_partial(&self, e: &Extent) -> u64 {
        let base = e.base.0 as usize;
        let words = &self.contents[base..base + e.pages() as usize];
        let lines = whole_lines(e);
        // Where line `l` starts in `words`.
        let at = |l: u64| ((l - lines.start) * LINE) as usize;
        let skip = |lines: u64| (40 * lines % 64) as u32;
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        // An extent of under eight frames (every extent of a 4 KiB-page
        // guest) has no line; skipping the walk's setup for it keeps its
        // fold within 10 % of a plain loop over its words.
        if !lines.is_empty() {
            // The first line not yet folded.
            let mut next = lines.start;
            for (w, mask) in bits::word_masks(lines.clone()) {
                // Each marked line, after the zero lines before it.
                let mut marked = self.lines[w] & mask;
                while marked != 0 {
                    let l = w as u64 * 64 + u64::from(marked.trailing_zeros());
                    marked &= marked - 1;
                    acc = fold_line(acc, skip(l + 1 - next), &words[at(l)..][..LINE as usize]);
                    next = l + 1;
                }
            }
            acc = acc.rotate_left(skip(lines.end - next));
        }
        for &c in &words[at(lines.end)..] {
            acc = acc.rotate_left(5) ^ c.wrapping_mul(PARTIAL_PRIME);
        }
        acc
    }
}

/// Frames per line of the zero-line summary: one unrolled fold step.
const LINE: u64 = 8;

/// One unrolled step of the [`PhysicalMemory::extent_partial`] fold:
/// `acc` rotated by `rot`, then the eight terms of the line `c`.
#[inline(always)]
fn fold_line(acc: u64, rot: u32, c: &[u64]) -> u64 {
    let term = |i: usize| {
        c[i].wrapping_mul(PARTIAL_PRIME)
            .rotate_left(5 * (7 - i as u32))
    };
    acc.rotate_left(rot)
        ^ (term(0) ^ term(1))
        ^ (term(2) ^ term(3))
        ^ (term(4) ^ term(5))
        ^ (term(6) ^ term(7))
}

/// The lines `e` covers whole. `Extent::new` aligns the base to the order,
/// so an extent of eight or more frames is whole lines and a smaller one
/// covers none.
fn whole_lines(e: &Extent) -> std::ops::Range<u64> {
    debug_assert!(e.base.is_aligned(e.order));
    let first = e.base.0 / LINE;
    first..first + e.pages() / LINE
}

/// Fan a checksum out only when its serial fold costs at least this many
/// read words. Two workers first beat one at about 0.1 ms of serial fold —
/// 96–128 Ki words of marked lines, or 8–16 Ki order-0 extents — measured
/// on a 2-hardware-thread Xeon (EXPERIMENTS.md, "Pool fan-out").
const PAR_THRESHOLD_WORDS: u64 = 1 << 17;

/// What one extent's fold costs beyond the words it reads, in read words:
/// an order-0 extent, one word and its setup, folds in about 8.7 ns, the
/// time of ten marked-line words at 0.85 ns each.
const EXTENT_WORDS: u64 = 8;

/// Multiplier of the [`PhysicalMemory::extent_partial`] fold.
const PARTIAL_PRIME: u64 = 0x1000_0000_01b3;

/// Folds per-extent partial hashes (in extent order) into the final
/// checksum — the combining step of [`PhysicalMemory::checksum_with_pool`],
/// exposed so cached partials can be recombined after a dirty-extent
/// refresh without touching frame contents. The combiner is defined only
/// by the partial values and their order, never by the worker count that
/// produced them.
pub fn combine_partials(partials: &[u64]) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for &p in partials {
        acc = acc.rotate_left(17) ^ p.wrapping_mul(0x1000_0000_01b3);
    }
    acc
}

/// FNV-1a-style hash of a byte slice (content word for byte-backed
/// frames).
///
/// The inner loop folds eight bytes per multiply instead of one — the hash
/// is only ever compared against itself (frame content identity across a
/// kexec), so the exact constants matter less than the 4 KiB-page
/// throughput on the transplant hot path. The trailing `len % 8` bytes
/// fall back to the classic byte-at-a-time step.
pub fn fnv1a(data: &[u8]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("chunks_exact(8)"));
        h = h.wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_write_read() {
        let mut ram = PhysicalMemory::new(256);
        let e = ram.alloc(PageOrder(1)).unwrap();
        ram.write(e.base, 0xdead).unwrap();
        assert_eq!(ram.read(e.base).unwrap(), 0xdead);
        assert!(ram.is_allocated(e.base));
    }

    #[test]
    fn write_unallocated_rejected() {
        let mut ram = PhysicalMemory::new(16);
        assert_eq!(
            ram.write(Mfn(3), 1),
            Err(MemError::NotAllocated { mfn: Mfn(3) })
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let ram = PhysicalMemory::new(16);
        assert!(matches!(
            ram.read(Mfn(99)),
            Err(MemError::OutOfRange { .. })
        ));
    }

    #[test]
    fn byte_backed_frames_hash_consistently() {
        let mut ram = PhysicalMemory::new(16);
        let e = ram.alloc(PageOrder(0)).unwrap();
        let page = vec![7u8; PAGE_SIZE as usize];
        ram.write_bytes(e.base, &page).unwrap();
        assert_eq!(ram.read(e.base).unwrap(), fnv1a(&page));
        assert_eq!(ram.read_bytes(e.base).unwrap(), &page[..]);
        // A word write invalidates the byte view.
        ram.write(e.base, 5).unwrap();
        assert!(ram.read_bytes(e.base).is_none());
    }

    #[test]
    fn contents_survive_free_and_kexec() {
        let mut ram = PhysicalMemory::new(256);
        let e = ram.alloc(PageOrder(2)).unwrap();
        for (i, mfn) in e.frames().enumerate() {
            ram.write(mfn, 100 + i as u64).unwrap();
        }
        ram.forget_ownership();
        for (i, mfn) in e.frames().enumerate() {
            assert_eq!(ram.read(mfn).unwrap(), 100 + i as u64);
        }
    }

    #[test]
    fn scrub_destroys_unreserved_contents() {
        let mut ram = PhysicalMemory::new(256);
        let keep = ram.alloc(PageOrder(0)).unwrap();
        let lose = ram.alloc(PageOrder(0)).unwrap();
        ram.write(keep.base, 111).unwrap();
        ram.write(lose.base, 222).unwrap();
        ram.forget_ownership();
        // Only `keep` gets a PRAM reservation.
        ram.reserve_range(keep.base, 1).unwrap();
        let scrubbed = ram.scrub_unreserved();
        assert!(scrubbed >= 1);
        assert_eq!(ram.read(keep.base).unwrap(), 111);
        assert_eq!(ram.read(lose.base).unwrap(), 0);
    }

    #[test]
    fn reserved_frames_not_reallocated() {
        let mut ram = PhysicalMemory::new(64);
        let e = ram.alloc(PageOrder(0)).unwrap();
        let target = e.base;
        ram.write(target, 42).unwrap();
        ram.forget_ownership();
        ram.reserve_range(target, 1).unwrap();
        // Exhaust the allocator; the reserved frame must never come back.
        while let Ok(got) = ram.alloc(PageOrder(0)) {
            assert_ne!(got.base, target);
        }
        assert_eq!(ram.read(target).unwrap(), 42);
    }

    #[test]
    fn adopt_reserved_roundtrip() {
        let mut ram = PhysicalMemory::new(64);
        let e = ram.alloc(PageOrder(3)).unwrap();
        ram.write(e.base, 9).unwrap();
        ram.forget_ownership();
        ram.reserve_range(e.base, e.pages()).unwrap();
        ram.adopt_reserved(e.base, e.pages()).unwrap();
        assert!(ram.is_allocated(e.base));
        assert_eq!(ram.read(e.base).unwrap(), 9);
        // Adoption of a non-reserved range fails.
        assert!(ram.adopt_reserved(Mfn(60), 2).is_err());
    }

    #[test]
    fn failed_adoption_changes_no_owner() {
        let mut ram = PhysicalMemory::new(200);
        ram.reserve_range(Mfn(60), 70).unwrap();
        ram.reserve_range(Mfn(190), 10).unwrap();
        let owners = |ram: &PhysicalMemory| -> Vec<(bool, bool)> {
            (0..200)
                .map(|i| (ram.is_allocated(Mfn(i)), ram.is_reserved(Mfn(i))))
                .collect()
        };
        let before = owners(&ram);
        // Frames 60..130 are reserved; the range runs one frame past them,
        // across two word boundaries.
        assert_eq!(
            ram.adopt_reserved(Mfn(60), 71),
            Err(MemError::NotAllocated { mfn: Mfn(130) })
        );
        // Reserved to the last frame, then past the end of RAM.
        assert_eq!(
            ram.adopt_reserved(Mfn(190), 11),
            Err(MemError::OutOfRange { mfn: Mfn(200) })
        );
        assert_eq!(
            ram.adopt_reserved(Mfn(300), 2),
            Err(MemError::OutOfRange { mfn: Mfn(300) })
        );
        assert_eq!(owners(&ram), before);
        assert_eq!(ram.free_frames(), 120);
        ram.adopt_reserved(Mfn(60), 70).unwrap();
        assert!((60..130).all(|i| ram.is_allocated(Mfn(i))));
        assert!(!ram.is_allocated(Mfn(59)) && !ram.is_allocated(Mfn(130)));
    }

    #[test]
    fn unreserve_returns_frames_to_pool() {
        let mut ram = PhysicalMemory::new(64);
        ram.forget_ownership();
        ram.reserve_range(Mfn(10), 4).unwrap();
        let before = ram.free_frames();
        ram.unreserve_and_free(Mfn(10), 4).unwrap();
        assert_eq!(ram.free_frames(), before + 4);
        assert!(!ram.is_reserved(Mfn(10)));
    }

    #[test]
    fn all_allocated_reads_every_frame_of_the_range() {
        let mut ram = PhysicalMemory::new(200);
        let e = ram.alloc(PageOrder(7)).unwrap();
        assert!(ram.all_allocated(e.base, e.pages()));
        assert!(ram.all_allocated(e.base, 0));
        // Free the last frame only: the base stays owned.
        ram.free(e).unwrap();
        ram.forget_ownership();
        ram.reserve_range(e.base, e.pages()).unwrap();
        ram.adopt_reserved(e.base, e.pages() - 1).unwrap();
        assert!(ram.is_allocated(e.base));
        assert!(!ram.all_allocated(e.base, e.pages()));
        assert!(ram.all_allocated(e.base, e.pages() - 1));
        // Past the end of RAM is never owned.
        assert!(!ram.all_allocated(Mfn(199), 2));
    }

    /// The ownership books are equal, whole: the buddy allocator (free
    /// blocks, counts, hints, free frames) and both bitmaps.
    fn assert_same_books(a: &PhysicalMemory, b: &PhysicalMemory, what: &str) {
        assert!(a.buddy == b.buddy, "{what}: the allocators differ");
        assert!(a.allocated == b.allocated, "{what}: ownership differs");
        assert!(a.reserved == b.reserved, "{what}: reservations differ");
    }

    /// A fragmented RAM of `total` frames: blocks of every order allocated,
    /// about a third freed again, and on odd seeds a kexec followed by
    /// scattered reservations and allocations, so free blocks of every
    /// order sit next to owned and reserved frames. One seed in four keeps
    /// the allocator a kexec leaves, all free, as `reserve_all` meets it.
    /// Built from the seed alone, so two calls build the same RAM.
    fn fragmented_ram(seed: u64, total: u64) -> PhysicalMemory {
        let mut rng = hypertp_sim::SimRng::new(0x7275_6e00 + seed);
        let mut ram = PhysicalMemory::new(total);
        if seed % 4 == 3 {
            return ram;
        }
        let mut owned = Vec::new();
        while let Ok(e) = ram.alloc(PageOrder(rng.gen_range(10) as u8)) {
            owned.push(e);
            if ram.free_frames() < total / 4 {
                break;
            }
        }
        for e in owned {
            if rng.gen_bool(0.35) {
                ram.free(e).unwrap();
            }
        }
        if seed % 2 == 1 {
            ram.forget_ownership();
            for _ in 0..8 {
                let base = rng.gen_range(total);
                let pages = rng.gen_range(300).min(total - base);
                ram.reserve_range(Mfn(base), pages).unwrap();
                ram.alloc(PageOrder(rng.gen_range(10) as u8)).ok();
            }
        }
        ram
    }

    /// A physically contiguous run of 1–12 extents, each aligned to its
    /// order, from a frame aligned to a random order: a run of small
    /// extents usually lies inside, and straddles the edges of, larger
    /// free blocks.
    fn contiguous_extents(rng: &mut hypertp_sim::SimRng, total: u64) -> Vec<Extent> {
        let align = rng.gen_range(10);
        let mut at = rng.gen_range((total - 512) >> align) << align;
        let mut run = Vec::new();
        for _ in 0..1 + rng.gen_range(12) {
            let aligned = at.trailing_zeros().min(9) as u64;
            let order = PageOrder(rng.gen_range(aligned + 1) as u8);
            if at + order.pages() > total {
                break;
            }
            run.push(Extent::new(Mfn(at), order));
            at += order.pages();
        }
        run
    }

    /// A bookkeeping call over `base..base + pages`; `Ok` carries a count.
    type Op = dyn Fn(&mut PhysicalMemory, Mfn, u64) -> Result<u64, MemError>;

    /// `op` once over the run `extents` make up on `one`, and extent by
    /// extent on `each`: the results must agree, and on success the books.
    fn compare(
        (one, each): (&mut PhysicalMemory, &mut PhysicalMemory),
        extents: &[Extent],
        op: &Op,
        what: &str,
    ) -> Result<u64, MemError> {
        let pages = extents.iter().map(|e| e.pages()).sum();
        let got = op(one, extents[0].base, pages);
        let want = extents
            .iter()
            .try_fold(0, |sum, e| Ok(sum + op(each, e.base, e.pages())?));
        assert_eq!(got, want, "{what}");
        if got.is_ok() {
            assert_same_books(one, each, what);
        }
        got
    }

    /// One call over a run against a loop over its extents, on fragmented
    /// layouts: `reserve_range`, `adopt_reserved` and `unreserve_and_free`
    /// each return the same value and leave the same books — the buddy's
    /// free blocks, counts, hints and free frames, and both bitmaps. A run
    /// with an unreserved extent fails adoption with the same error both
    /// ways (one call adopts nothing, where the loop has adopted the
    /// extents before the failing one).
    #[test]
    fn one_call_per_run_equals_a_loop_over_its_extents() {
        let reserve: &Op = &|ram, base, pages| ram.reserve_range(base, pages);
        let adopt: &Op = &|ram, base, pages| ram.adopt_reserved(base, pages).map(|()| 0);
        let release: &Op = &|ram, base, pages| ram.unreserve_and_free(base, pages).map(|()| 0);
        let total = (1 << 14) + 37;
        let mut straddled = 0;
        for seed in 0..300u64 {
            let (mut one, mut each) = (fragmented_ram(seed, total), fragmented_ram(seed, total));
            let mut rng = hypertp_sim::SimRng::new(0x6c6f_6f70 + seed);
            let extents = contiguous_extents(&mut rng, total);
            let runs: Vec<_> = crate::frame_runs(extents.iter().copied()).collect();
            let [(base, pages)] = runs[..] else {
                panic!("seed {seed}: {extents:?} is not one run");
            };
            // A free block over either end of the run and past it: the
            // reservation shatters it.
            let (first, last) = (base.0, base.0 + pages - 1);
            let block = |f| one.buddy.block_of(Mfn(f));
            if block(first).is_some_and(|(_, b)| b < first)
                || block(last).is_some_and(|(k, b)| b + (1 << k) > last + 1)
            {
                straddled += 1;
            }
            let both = (&mut one, &mut each);
            compare(both, &extents, reserve, &format!("seed {seed}: reserve")).unwrap();
            match seed % 3 {
                0 => {
                    // One extent's reservation dropped on both sides.
                    let e = extents[rng.gen_range(extents.len() as u64) as usize];
                    one.unreserve_and_free(e.base, e.pages()).unwrap();
                    each.unreserve_and_free(e.base, e.pages()).unwrap();
                    let both = (&mut one, &mut each);
                    assert!(
                        compare(both, &extents, adopt, &format!("seed {seed}: adopt")).is_err()
                    );
                    continue;
                }
                1 => {
                    let both = (&mut one, &mut each);
                    compare(both, &extents, adopt, &format!("seed {seed}: adopt")).unwrap();
                }
                _ => {
                    // Only the first extent adopted: the release frees the
                    // rest back to the allocator, frame by frame.
                    let e = extents[0];
                    one.adopt_reserved(e.base, e.pages()).unwrap();
                    each.adopt_reserved(e.base, e.pages()).unwrap();
                }
            }
            let both = (&mut one, &mut each);
            compare(both, &extents, release, &format!("seed {seed}: release")).unwrap();
            one.buddy.check_invariants().unwrap();
        }
        assert!(straddled > 50, "only {straddled} runs shatter a free block");
    }

    #[test]
    fn content_slice_borrows_extent_words() {
        let mut ram = PhysicalMemory::new(64);
        let e = ram.alloc(PageOrder(3)).unwrap();
        for (i, mfn) in e.frames().enumerate() {
            ram.write(mfn, 0x40 + i as u64).unwrap();
        }
        let s = ram.content_slice(e.base, e.pages()).unwrap();
        assert_eq!(s.len(), e.pages() as usize);
        for (i, &w) in s.iter().enumerate() {
            assert_eq!(w, 0x40 + i as u64);
        }
        // Free frames stay readable, like `read`.
        ram.free(e).unwrap();
        assert_eq!(ram.content_slice(e.base, e.pages()).unwrap()[0], 0x40);
        // Out-of-range runs are rejected, not truncated.
        assert!(matches!(
            ram.content_slice(Mfn(60), 8),
            Err(MemError::OutOfRange { .. })
        ));
        assert!(matches!(
            ram.content_slice(Mfn(99), 1),
            Err(MemError::OutOfRange { .. })
        ));
    }

    /// `append_content` against the words `content_slice` borrows, on runs
    /// that start and end anywhere in a line and straddle 512-frame summary
    /// groups. The groups hold no marked line, every line marked, or some
    /// (zero words written over live ones included), and the reads repeat
    /// after a scrub has cleared the lines of the frames it zeroed.
    #[test]
    fn summary_read_equals_the_plain_read() {
        let total = 6 * 512 + 37;
        let mut partly_marked_reads = 0;
        for seed in 0..24u64 {
            let mut rng = hypertp_sim::SimRng::new(0x5e1d_0000 + seed);
            let mut ram = PhysicalMemory::new(total);
            let mut extents = Vec::new();
            while let Ok(e) = ram.alloc(PageOrder(rng.gen_range(7) as u8)) {
                extents.push(e);
            }
            while let Ok(e) = ram.alloc(PageOrder(0)) {
                extents.push(e);
            }
            for f in 0..total {
                // By group: nothing, every frame, or a few lines' worth.
                let density = [0.0, 1.0, 0.02, 0.2][(f / 512 + seed) as usize % 4];
                if rng.gen_bool(density) {
                    ram.write(Mfn(f), rng.next_u64() | 1).unwrap();
                }
                if rng.gen_bool(0.05) {
                    ram.write(Mfn(f), 0).unwrap();
                }
            }
            let mut check = |ram: &PhysicalMemory, stage: &str| {
                for _ in 0..64 {
                    let base = rng.gen_range(total);
                    let pages = rng.gen_range(1300).min(total - base);
                    let want = ram.content_slice(Mfn(base), pages).unwrap();
                    let mut got = vec![7, 7];
                    ram.append_content(Mfn(base), pages, &mut got).unwrap();
                    assert_eq!(got[..2], [7, 7], "seed {seed} {stage}: the prefix moved");
                    assert!(
                        got[2..] == *want,
                        "seed {seed} {stage}: {pages} frames from {base}"
                    );
                    let groups = base / 512..(base + pages).div_ceil(512);
                    partly_marked_reads += groups
                        .filter(|&g| {
                            let word = ram.lines[g as usize];
                            let live = (g * 512..(g * 512 + 512).min(total)).any(|f| {
                                f >= base && f < base + pages && ram.contents[f as usize] != 0
                            });
                            word != 0 && word != !0 && live
                        })
                        .count();
                }
                // Past the end of RAM, as `content_slice` fails.
                let mut out = Vec::new();
                assert_eq!(
                    ram.append_content(Mfn(total - 3), 4, &mut out),
                    Err(ram.content_slice(Mfn(total - 3), 4).unwrap_err())
                );
            };
            check(&ram, "written");
            for e in extents.iter().step_by(3) {
                ram.free(*e).unwrap();
            }
            assert!(ram.scrub_unreserved() > 0, "seed {seed}: scrubbed nothing");
            check(&ram, "scrubbed");
        }
        assert!(partly_marked_reads > 1000, "{partly_marked_reads}");
    }

    #[test]
    fn checksum_detects_change() {
        let mut ram = PhysicalMemory::new(64);
        let e = ram.alloc(PageOrder(2)).unwrap();
        for mfn in e.frames() {
            ram.write(mfn, mfn.0 * 3).unwrap();
        }
        let serial = hypertp_sim::WorkerPool::serial();
        let c1 = ram.checksum_with_pool(&[e], &serial);
        ram.write(e.base + 1, 999).unwrap();
        let c2 = ram.checksum_with_pool(&[e], &serial);
        assert_ne!(c1, c2);
    }

    /// The fold one word at a time, reading every frame: the definition
    /// the unrolled, line-skipping [`PhysicalMemory::extent_partial`] must
    /// reproduce.
    fn one_word_fold(ram: &PhysicalMemory, e: &Extent) -> u64 {
        e.frames().fold(0xcbf2_9ce4_8422_2325u64, |acc, mfn| {
            acc.rotate_left(5) ^ ram.read(mfn).unwrap().wrapping_mul(0x1000_0000_01b3)
        })
    }

    #[test]
    fn unrolled_partial_equals_the_one_word_fold() {
        let mut ram = PhysicalMemory::new(2048);
        let mut rng = hypertp_sim::SimRng::new(0xf01d_0001);
        for order in [0u8, 1, 2, 3, 4, 9] {
            let e = ram.alloc(PageOrder(order)).unwrap();
            for mfn in e.frames() {
                ram.write(mfn, rng.next_u64()).unwrap();
            }
            assert_eq!(
                ram.extent_partial(&e),
                one_word_fold(&ram, &e),
                "order {order}"
            );
        }
    }

    /// Seeded layouts of every order, written at densities from none to
    /// every frame (zero writes over live words included), then freed,
    /// scrubbed and carried through a kexec: at each stage the checksum
    /// equals the one-word fold over every frame, serial and fanned out
    /// over two workers.
    #[test]
    fn line_skipping_checksum_equals_the_one_word_fold() {
        let serial = hypertp_sim::WorkerPool::serial();
        let two = hypertp_sim::WorkerPool::new(2);
        for seed in 0..4u64 {
            let mut rng = hypertp_sim::SimRng::new(0x5ca1_0000 + seed);
            let mut ram = PhysicalMemory::new(1 << 20);
            let mut extents = Vec::new();
            while extents.iter().map(|e: &Extent| e.pages()).sum::<u64>() < 3 << 18 {
                let e = ram.alloc(PageOrder(rng.gen_range(10) as u8)).unwrap();
                let density = [0.0, 0.01, 0.1, 0.5, 1.0][rng.gen_range(5) as usize];
                for mfn in e.frames() {
                    if rng.gen_bool(density) {
                        ram.write(mfn, rng.next_u64() | 1).unwrap();
                    }
                    if rng.gen_bool(0.05) {
                        ram.write(mfn, 0).unwrap();
                    }
                }
                extents.push(e);
            }
            let check = |ram: &PhysicalMemory, stage: &str| {
                let want: Vec<u64> = extents.iter().map(|e| one_word_fold(ram, e)).collect();
                let want = combine_partials(&want);
                assert_eq!(
                    ram.checksum_with_pool(&extents, &serial),
                    want,
                    "seed {seed}, {stage}"
                );
                assert!(ram.fans_out(&two, extents.iter()), "seed {seed}, {stage}");
                assert_eq!(
                    ram.checksum_with_pool(&extents, &two),
                    want,
                    "seed {seed}, {stage}"
                );
            };
            check(&ram, "written");
            for e in extents.iter().skip(1).step_by(2) {
                ram.free(*e).unwrap();
            }
            assert!(
                ram.scrub_unreserved() > 0,
                "seed {seed}: free scrubbed nothing"
            );
            check(&ram, "freed and scrubbed");
            ram.forget_ownership();
            for (i, e) in extents.iter().enumerate() {
                if i % 2 == 0 && i % 8 != 0 {
                    ram.reserve_range(e.base, e.pages()).unwrap();
                }
            }
            assert!(
                ram.scrub_unreserved() > 0,
                "seed {seed}: kexec scrubbed nothing"
            );
            check(&ram, "kexec");
        }
    }

    /// The boot scrub against a per-frame reading of the books: every frame
    /// neither owned nor reserved, and no other, reads zero afterwards, the
    /// count is the frames among them that held a word, and the zero-line
    /// summary stays sound. Freeing a third of the extents leaves 512-frame
    /// groups that mix wholly owned blocks with free frames.
    #[test]
    fn scrub_zeroes_exactly_the_unowned_frames() {
        let total = (1 << 13) + 37;
        for seed in 0..8u64 {
            let mut rng = hypertp_sim::SimRng::new(0x5c2b_0000 + seed);
            let mut ram = PhysicalMemory::new(total);
            let mut extents = Vec::new();
            while let Ok(e) = ram.alloc(PageOrder(rng.gen_range(10) as u8)) {
                for mfn in e.frames() {
                    if rng.gen_bool(0.3) {
                        ram.write(mfn, rng.next_u64() | 1).unwrap();
                    }
                }
                extents.push(e);
            }
            for e in &extents {
                if rng.gen_bool(0.3) {
                    ram.free(*e).unwrap();
                }
            }
            if seed % 2 == 1 {
                ram.forget_ownership();
                for e in extents.iter().step_by(3) {
                    ram.reserve_range(e.base, e.pages()).unwrap();
                }
            }
            let before: Vec<u64> = (0..total).map(|f| ram.read(Mfn(f)).unwrap()).collect();
            let kept: Vec<bool> = (0..total)
                .map(|f| ram.is_allocated(Mfn(f)) || ram.is_reserved(Mfn(f)))
                .collect();
            let lost = (0..total as usize).filter(|&f| !kept[f] && before[f] != 0);
            assert_eq!(ram.scrub_unreserved(), lost.count() as u64, "seed {seed}");
            for f in 0..total as usize {
                let want = if kept[f] { before[f] } else { 0 };
                assert_eq!(
                    ram.read(Mfn(f as u64)).unwrap(),
                    want,
                    "seed {seed} frame {f}"
                );
            }
            for e in &extents {
                assert_eq!(ram.extent_partial(e), one_word_fold(&ram, e), "seed {seed}");
            }
        }
    }

    #[test]
    fn checksum_serial_and_parallel_identical() {
        let mut ram = PhysicalMemory::new(1 << 18);
        let extents: Vec<Extent> = (0..300).map(|_| ram.alloc(PageOrder(9)).unwrap()).collect();
        for e in &extents {
            for mfn in e.frames() {
                ram.write(mfn, mfn.0 ^ 0x5a5a).unwrap();
            }
        }
        // 300 × 512 written frames ≥ the parallel threshold, so worker
        // counts > 1 actually take the fan-out path.
        assert!(ram.fans_out(&hypertp_sim::WorkerPool::new(2), extents.iter()));
        let serial = ram.checksum_with_pool(&extents, &hypertp_sim::WorkerPool::serial());
        for w in [2usize, 4, 8, 32] {
            assert_eq!(
                serial,
                ram.checksum_with_pool(&extents, &hypertp_sim::WorkerPool::new(w)),
                "workers={w}"
            );
        }
    }

    #[test]
    fn refreshed_partials_recombine_to_full_checksum() {
        let mut ram = PhysicalMemory::new(1 << 14);
        let extents: Vec<Extent> = (0..16).map(|_| ram.alloc(PageOrder(6)).unwrap()).collect();
        for e in &extents {
            for mfn in e.frames() {
                ram.write(mfn, mfn.0.wrapping_mul(0x9e37)).unwrap();
            }
        }
        let pool = hypertp_sim::WorkerPool::serial();
        let mut partials = ram.extent_partials_with_pool(&extents, &pool);
        assert_eq!(
            combine_partials(&partials),
            ram.checksum_with_pool(&extents, &pool)
        );
        // Dirty two extents, refresh only those partials: the recombined
        // value must match a from-scratch checksum.
        for &i in &[3usize, 11] {
            ram.write(extents[i].base, 0xfeed + i as u64).unwrap();
        }
        ram.refresh_partials_with_pool(&extents, &mut partials, &[3, 11], &pool);
        assert_eq!(
            combine_partials(&partials),
            ram.checksum_with_pool(&extents, &pool)
        );
    }

    #[test]
    fn partials_serial_and_pooled_agree_on_fragmented_layouts() {
        // Regression: the translate hot path reuses pooled partials; they
        // must equal the serial fold on a fragmented (mixed-order,
        // interleaved) extent layout, for any worker count.
        let mut ram = PhysicalMemory::new(1 << 17);
        let mut extents = Vec::new();
        for i in 0..96u64 {
            let order = PageOrder((i % 4 + 6) as u8); // 64..512-page extents
            let e = ram.alloc(order).unwrap();
            for mfn in e.frames() {
                ram.write(mfn, mfn.0.rotate_left((i % 13) as u32) ^ i)
                    .unwrap();
            }
            extents.push(e);
            if i % 3 == 0 {
                // Punch holes so later allocations fragment.
                let hole = ram.alloc(PageOrder(5)).unwrap();
                ram.free(hole).unwrap();
            }
        }
        let serial = ram.extent_partials_with_pool(&extents, &hypertp_sim::WorkerPool::serial());
        assert_eq!(
            combine_partials(&serial),
            ram.checksum_with_pool(&extents, &hypertp_sim::WorkerPool::serial())
        );
        for w in [2usize, 3, 8, 16] {
            let pooled = ram.extent_partials_with_pool(&extents, &hypertp_sim::WorkerPool::new(w));
            assert_eq!(serial, pooled, "workers={w}");
        }
    }

    #[test]
    fn fnv1a_sensitive_at_every_offset_and_tail_length() {
        // The word-at-a-time loop plus byte tail must react to a flipped
        // bit at any position, for lengths around the 8-byte boundary.
        for len in 0..=17usize {
            let a: Vec<u8> = (0..len as u8).collect();
            let h = fnv1a(&a);
            for i in 0..len {
                let mut b = a.clone();
                b[i] ^= 1;
                assert_ne!(h, fnv1a(&b), "len={len} i={i}");
            }
        }
    }

    #[test]
    fn with_gib_sizes() {
        let ram = PhysicalMemory::with_gib(1);
        assert_eq!(ram.total_frames(), 262_144);
    }
}
