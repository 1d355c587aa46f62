//! State-machine model of `machine::PhysicalMemory`'s frame ownership.
//!
//! [`Model`] is the ownership contract written the slow, obvious way: one
//! record per frame, every operation a loop over the frames it names.
//! Seeded scripts drive it and the real RAM — two bitmaps and a bitmap
//! buddy allocator, both working a word at a time — side by side over RAM
//! sizes that are not multiples of 64 and ranges that start, end and cross
//! anywhere in a word. After every step the two must agree on the value or
//! error returned, on `free_frames`, and on `is_allocated`, `is_reserved`,
//! `read` and the presence of a byte view for every single frame, and on
//! the integrity fold of every live extent, which reads only the lines
//! RAM's zero-line summary cannot prove zero.
//!
//! The model does not predict *which* address an allocation returns (that
//! is the allocator's business, pinned by the differential test in
//! `machine::buddy`); it checks that the extent handed out was free,
//! aligned and inside RAM.
//!
//! Set `HYPERTP_SEED` (decimal or `0x`-prefixed hex) to probe a fresh
//! seed; every assertion prints the seed and script in effect.

use hypertp_machine::buddy::BuddyError;
use hypertp_machine::{Extent, MemError, Mfn, PageOrder, PhysicalMemory, PAGE_SIZE};
use hypertp_sim::SimRng;

/// The seed for the test: `HYPERTP_SEED` if set, else `default`.
fn seed_for(default: u64) -> u64 {
    match std::env::var("HYPERTP_SEED") {
        Ok(s) => {
            let s = s.trim();
            let (digits, radix) = match s.strip_prefix("0x") {
                Some(hex) => (hex, 16),
                None => (s, 10),
            };
            u64::from_str_radix(digits, radix)
                .unwrap_or_else(|e| panic!("bad HYPERTP_SEED {s:?}: {e}"))
        }
        Err(_) => default,
    }
}

#[derive(Clone, Copy, Default)]
struct Frame {
    /// Some owner holds the frame.
    allocated: bool,
    /// A PRAM reservation protects the frame.
    reserved: bool,
    /// The allocator may hand the frame out.
    in_pool: bool,
    content: u64,
    has_bytes: bool,
}

/// The reference RAM: per-frame records, per-frame loops.
struct Model {
    frames: Vec<Frame>,
}

impl Model {
    fn new(total: u64) -> Self {
        let free = Frame {
            in_pool: true,
            ..Frame::default()
        };
        Model {
            frames: vec![free; total as usize],
        }
    }

    fn total(&self) -> u64 {
        self.frames.len() as u64
    }

    fn free_frames(&self) -> u64 {
        self.frames.iter().filter(|f| f.in_pool).count() as u64
    }

    /// The frames of `base..base + pages` that exist, and the first frame
    /// of the range past the end of RAM, if any.
    fn clip(&self, base: u64, pages: u64) -> (std::ops::Range<usize>, Option<Mfn>) {
        let (total, end) = (self.total(), base + pages);
        let past = (pages > 0 && end > total).then_some(Mfn(base.max(total)));
        (base.min(total) as usize..end.min(total) as usize, past)
    }

    /// Records an allocation the real allocator made, after checking it
    /// was one the model allows.
    fn allocated(&mut self, e: Extent) {
        assert!(e.base.is_aligned(e.order));
        assert!(e.base.0 + e.pages() <= self.total(), "{e:?} past the end");
        for f in &mut self.frames[e.base.0 as usize..][..e.pages() as usize] {
            // (A frame freed while reserved and then adopted is owned
            // and in the pool at once; the pool alone decides.)
            assert!(f.in_pool, "{e:?} was not free");
            (f.in_pool, f.allocated) = (false, true);
        }
    }

    fn free(&mut self, e: Extent) -> Result<(), MemError> {
        let bad = MemError::Buddy(BuddyError::BadFree { base: e.base });
        if e.base.0 + e.pages() > self.total() {
            return Err(bad);
        }
        let frames = &mut self.frames[e.base.0 as usize..][..e.pages() as usize];
        if frames.iter().any(|f| f.in_pool) {
            return Err(bad);
        }
        for f in frames {
            (f.in_pool, f.allocated) = (true, false);
        }
        Ok(())
    }

    fn owned(&mut self, mfn: Mfn) -> Result<&mut Frame, MemError> {
        match self.frames.get_mut(mfn.0 as usize) {
            None => Err(MemError::OutOfRange { mfn }),
            Some(f) if !f.allocated => Err(MemError::NotAllocated { mfn }),
            Some(f) => Ok(f),
        }
    }

    fn reserve_range(&mut self, base: u64, pages: u64) -> Result<u64, MemError> {
        if base + pages > self.total() {
            return Err(MemError::OutOfRange {
                mfn: Mfn(base + pages - 1),
            });
        }
        let mut got = 0;
        for f in &mut self.frames[base as usize..][..pages as usize] {
            got += u64::from(f.in_pool);
            (f.in_pool, f.reserved) = (false, true);
        }
        Ok(got)
    }

    /// All or nothing: the lowest bad frame is reported, no frame changes.
    fn adopt_reserved(&mut self, base: u64, pages: u64) -> Result<(), MemError> {
        let (range, past) = self.clip(base, pages);
        if let Some(i) = range.clone().find(|&i| !self.frames[i].reserved) {
            return Err(MemError::NotAllocated { mfn: Mfn(i as u64) });
        }
        if let Some(mfn) = past {
            return Err(MemError::OutOfRange { mfn });
        }
        for f in &mut self.frames[range] {
            f.allocated = true;
        }
        Ok(())
    }

    /// Frames inside RAM are released even when the range overhangs.
    fn unreserve_and_free(&mut self, base: u64, pages: u64) -> Result<(), MemError> {
        let (range, past) = self.clip(base, pages);
        for f in &mut self.frames[range] {
            f.reserved = false;
            f.in_pool |= !f.allocated;
        }
        past.map_or(Ok(()), |mfn| Err(MemError::OutOfRange { mfn }))
    }

    fn forget_ownership(&mut self) {
        for f in &mut self.frames {
            (f.allocated, f.reserved, f.in_pool) = (false, false, true);
        }
    }

    /// The integrity fold one word at a time over every frame of `e`.
    fn partial(&self, e: Extent) -> u64 {
        let frames = &self.frames[e.base.0 as usize..][..e.pages() as usize];
        frames.iter().fold(0xcbf2_9ce4_8422_2325, |acc: u64, f| {
            acc.rotate_left(5) ^ f.content.wrapping_mul(0x1000_0000_01b3)
        })
    }

    fn scrub_unreserved(&mut self) -> u64 {
        let mut scrubbed = 0;
        for f in &mut self.frames {
            if !f.reserved && !f.allocated && f.content != 0 {
                (f.content, f.has_bytes) = (0, false);
                scrubbed += 1;
            }
        }
        scrubbed
    }
}

/// A base and length whose ends fall anywhere relative to the 64-frame
/// words, sometimes past the end of RAM, sometimes empty.
fn any_range(rng: &mut SimRng, total: u64) -> (u64, u64) {
    let base = rng.gen_range(total + 3);
    let pages = match rng.gen_range(5) {
        0 => rng.gen_range(3),
        1 | 2 => rng.gen_range(70),
        _ => rng.gen_range(total + 10),
    };
    (base, pages)
}

/// A range the script has reserved before, or failing that any range.
fn reserved_range(rng: &mut SimRng, reserved: &[(u64, u64)], total: u64) -> (u64, u64) {
    if reserved.is_empty() || rng.gen_bool(0.3) {
        return any_range(rng, total);
    }
    let (base, pages) = reserved[rng.gen_range(reserved.len() as u64) as usize];
    // Usually the very range; sometimes grown or shifted by a frame or two.
    match rng.gen_range(4) {
        0 => (
            base.saturating_sub(rng.gen_range(2)),
            pages + rng.gen_range(3),
        ),
        _ => (base, pages),
    }
}

fn run_script(script: u64, seed: u64) {
    let mut rng = SimRng::new(seed);
    // Never a multiple of 64 (nor of a buddy block).
    let total = 64 * rng.gen_range(11) + 1 + rng.gen_range(63);
    let mut ram = PhysicalMemory::new(total);
    let mut model = Model::new(total);
    let mut live: Vec<Extent> = Vec::new();
    let mut reserved: Vec<(u64, u64)> = Vec::new();
    let page = vec![0xa5u8; PAGE_SIZE as usize];

    for step in 0..(30 + rng.gen_range(120)) {
        let at = format!("script {script} seed {seed:#x} total {total} step {step}");
        match rng.gen_range(16) {
            0..=3 => {
                let orders = if rng.gen_bool(0.8) { 3 } else { 8 };
                let order = PageOrder(rng.gen_range(orders) as u8);
                match ram.alloc(order) {
                    Ok(e) => {
                        assert_eq!(e.order, order, "{at}");
                        model.allocated(e);
                        live.push(e);
                    }
                    Err(e) => {
                        assert_eq!(
                            e,
                            MemError::Buddy(BuddyError::OutOfMemory { order }),
                            "{at}"
                        );
                        // A single frame is refused only when none is left.
                        assert!(order.0 > 0 || model.free_frames() == 0, "{at}");
                    }
                }
            }
            4 | 5 => {
                // A live extent, an already freed or arbitrary one.
                let e = if !live.is_empty() && rng.gen_bool(0.8) {
                    live.swap_remove(rng.gen_range(live.len() as u64) as usize)
                } else {
                    let order = PageOrder(rng.gen_range(4) as u8);
                    let base = rng.gen_range(total + 9) & !(order.pages() - 1);
                    Extent::new(Mfn(base), order)
                };
                assert_eq!(ram.free(e), model.free(e), "free {e:?}, {at}");
            }
            6 | 7 => {
                // Sometimes a zero over a live word: its line stays marked.
                let mfn = Mfn(rng.gen_range(total + 2));
                let word = if rng.gen_bool(0.25) {
                    0
                } else {
                    rng.next_u64() | 1
                };
                let want = model
                    .owned(mfn)
                    .map(|f| (f.content, f.has_bytes) = (word, false));
                assert_eq!(ram.write(mfn, word), want, "write {mfn}, {at}");
            }
            8 => {
                let mfn = Mfn(rng.gen_range(total + 2));
                let want = model.owned(mfn).map(|f| f.has_bytes = true);
                assert_eq!(ram.write_bytes(mfn, &page), want, "write_bytes {mfn}, {at}");
                if want.is_ok() {
                    model.frames[mfn.0 as usize].content = ram.read(mfn).unwrap();
                }
            }
            9 | 10 => {
                let (base, pages) = any_range(&mut rng, total);
                let got = ram.reserve_range(Mfn(base), pages);
                assert_eq!(
                    got,
                    model.reserve_range(base, pages),
                    "reserve {base}+{pages}, {at}"
                );
                if got.is_ok() {
                    reserved.push((base, pages));
                }
            }
            11 | 12 => {
                let (base, pages) = reserved_range(&mut rng, &reserved, total);
                assert_eq!(
                    ram.adopt_reserved(Mfn(base), pages),
                    model.adopt_reserved(base, pages),
                    "adopt {base}+{pages}, {at}"
                );
            }
            13 => {
                let (base, pages) = reserved_range(&mut rng, &reserved, total);
                assert_eq!(
                    ram.unreserve_and_free(Mfn(base), pages),
                    model.unreserve_and_free(base, pages),
                    "unreserve {base}+{pages}, {at}"
                );
            }
            14 => {
                assert_eq!(
                    ram.scrub_unreserved(),
                    model.scrub_unreserved(),
                    "scrub, {at}"
                );
            }
            _ => {
                ram.forget_ownership();
                model.forget_ownership();
                live.clear();
                reserved.clear();
            }
        }

        assert_eq!(ram.free_frames(), model.free_frames(), "{at}");
        assert_eq!(ram.allocated_frames(), total - model.free_frames(), "{at}");
        for (i, f) in model.frames.iter().enumerate() {
            let mfn = Mfn(i as u64);
            // (Pool membership has no per-frame accessor; the counts above
            // cover it.)
            let real = (
                ram.is_allocated(mfn),
                ram.is_reserved(mfn),
                ram.read(mfn).unwrap(),
                ram.read_bytes(mfn).is_some(),
            );
            let want = (f.allocated, f.reserved, f.content, f.has_bytes);
            assert_eq!(real, want, "{mfn}, {at}");
        }
        assert!(!ram.is_allocated(Mfn(total)) && !ram.is_reserved(Mfn(total)));
        for e in &live {
            assert_eq!(ram.extent_partial(e), model.partial(*e), "{e:?}, {at}");
        }
    }
}

#[test]
fn word_wise_ownership_matches_the_per_frame_model() {
    let mut meta = SimRng::new(seed_for(0x0f7a_0001));
    for script in 0..256 {
        run_script(script, meta.next_u64());
    }
}
