//! The per-domain physical-to-machine (P2M) table.
//!
//! Xen tracks HVM guest memory in a per-domain P2M with superpage (2 MiB)
//! entries and a log-dirty mode used by live migration. The P2M is *VMi
//! State* in the memory-separation taxonomy: its contents (the guest
//! frame map) are what PRAM records, while the table structure itself is
//! rebuilt by the target hypervisor.

use std::collections::btree_map::Range;
use std::collections::BTreeMap;
use std::iter::Peekable;
use std::ops::Bound;

use hypertp_machine::{Extent, Gfn, Mfn};

/// Errors from P2M manipulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum P2mError {
    /// The new mapping overlaps an existing one.
    Overlap {
        /// Base GFN of the rejected mapping.
        gfn: Gfn,
    },
    /// No mapping covers the GFN.
    NotMapped {
        /// The unmapped GFN.
        gfn: Gfn,
    },
}

impl std::fmt::Display for P2mError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            P2mError::Overlap { gfn } => write!(f, "p2m overlap at {gfn}"),
            P2mError::NotMapped { gfn } => write!(f, "{gfn} not mapped"),
        }
    }
}

impl std::error::Error for P2mError {}

/// A physical-to-machine table.
#[derive(Debug, Clone, Default)]
pub(crate) struct P2m {
    /// Base GFN -> machine extent, non-overlapping.
    entries: BTreeMap<u64, Extent>,
    /// The log-dirty bitmap while log-dirty mode is active: bit `g` set
    /// when GFN `g` was written since the last read. It covers every
    /// mapped GFN, growing with a mapping added while it is active.
    dirty: Option<Vec<u64>>,
}

impl P2m {
    /// Creates an empty table.
    pub fn new() -> Self {
        P2m::default()
    }

    /// Maps `2^order` pages at `gfn` to `extent`.
    pub fn map(&mut self, gfn: Gfn, extent: Extent) -> Result<(), P2mError> {
        let end = gfn.0 + extent.pages();
        // Check the predecessor and any successor starting before `end`.
        if let Some((&base, e)) = self.entries.range(..=gfn.0).next_back() {
            if base + e.pages() > gfn.0 {
                return Err(P2mError::Overlap { gfn });
            }
        }
        if self.entries.range(gfn.0..end).next().is_some() {
            return Err(P2mError::Overlap { gfn });
        }
        self.entries.insert(gfn.0, extent);
        if let Some(d) = &mut self.dirty {
            d.resize(d.len().max(end.div_ceil(64) as usize), 0);
        }
        Ok(())
    }

    /// A table holding `mappings`, with the errors of mapping them one by
    /// one, in order, with [`P2m::map`]. The leading run of mappings that
    /// each start at or past the end of the one before — all of them, for
    /// a memory map sorted by GFN — is one bulk build, without a probe per
    /// entry; any mapping after it goes through [`P2m::map`].
    pub(crate) fn from_mappings(mappings: &[(Gfn, Extent)]) -> Result<P2m, P2mError> {
        let ascending = mappings
            .windows(2)
            .position(|w| w[0].0 .0 + w[0].1.pages() > w[1].0 .0)
            .map_or(mappings.len(), |i| i + 1);
        let (ascending, rest) = mappings.split_at(ascending);
        let mut p2m = P2m {
            entries: ascending.iter().map(|&(g, e)| (g.0, e)).collect(),
            dirty: None,
        };
        for &(gfn, e) in rest {
            p2m.map(gfn, e)?;
        }
        Ok(p2m)
    }

    /// Translates a GFN to its machine frame.
    pub fn translate(&self, gfn: Gfn) -> Result<Mfn, P2mError> {
        let (base, e) = entry_of(&self.entries, gfn)?;
        Ok(e.base + (gfn.0 - base))
    }

    /// Translates a batch in order and hands the caller
    /// physically-contiguous `(base MFN, page count)` runs instead of one
    /// MFN per page, allocating nothing: consecutive GFNs that land on
    /// consecutive machine frames coalesce into one visit, so the zero-copy
    /// gather path turns each run into a single RAM slice borrow. One
    /// `Cursor` serves the batch. Translation errors are identical to
    /// [`P2m::translate`]'s; runs visited before the failing GFN have
    /// already been delivered.
    pub(crate) fn translate_runs(
        &self,
        gfns: &[Gfn],
        visit: &mut dyn FnMut(Mfn, u64),
    ) -> Result<(), P2mError> {
        let mut cursor = Cursor::new(&self.entries);
        let mut run: Option<(Mfn, u64)> = None;
        for &g in gfns {
            let m = cursor.translate(g)?;
            run = match run {
                Some((b, n)) if b.0 + n == m.0 => Some((b, n + 1)),
                Some((b, n)) => {
                    visit(b, n);
                    Some((m, 1))
                }
                None => Some((m, 1)),
            };
        }
        if let Some((b, n)) = run {
            visit(b, n);
        }
        Ok(())
    }

    /// Guest writes, in order: translates each `(gfn, word)` of `writes`
    /// with one `Cursor`, hands the frame and word to `store`, then logs
    /// the page dirty if log-dirty mode is on. Stops with `NotMapped` at
    /// the first unmapped GFN, or as soon as `store` returns `false` (that
    /// page left unlogged); every earlier page is stored and logged.
    pub fn write_pages(
        &mut self,
        writes: &[(Gfn, u64)],
        store: &mut dyn FnMut(Mfn, u64) -> bool,
    ) -> Result<(), P2mError> {
        let mut cursor = Cursor::new(&self.entries);
        for &(g, word) in writes {
            if !store(cursor.translate(g)?, word) {
                return Ok(());
            }
            if let Some(d) = &mut self.dirty {
                // `translate` found a mapping, so the bitmap covers `g`.
                d[(g.0 / 64) as usize] |= 1 << (g.0 % 64);
            }
        }
        Ok(())
    }

    /// Returns all mappings sorted by GFN — the input to PRAM construction.
    pub fn mappings(&self) -> Vec<(Gfn, Extent)> {
        self.entries.iter().map(|(&g, &e)| (Gfn(g), e)).collect()
    }

    /// Total mapped guest pages.
    pub fn total_pages(&self) -> u64 {
        self.entries.values().map(|e| e.pages()).sum()
    }

    /// Enables log-dirty mode (migration pre-copy), with an empty log:
    /// one bit per GFN up to the end of the highest mapping.
    pub(crate) fn enable_log_dirty(&mut self) {
        let span = self
            .entries
            .last_key_value()
            .map_or(0, |(&g, e)| g + e.pages());
        self.dirty = Some(vec![0; span.div_ceil(64) as usize]);
    }

    /// Returns and clears the dirty set (Xen's `XEN_DOMCTL_SHADOW_OP_CLEAN`),
    /// in ascending GFN order.
    pub(crate) fn read_and_clear_dirty(&mut self) -> Vec<Gfn> {
        let Some(dirty) = &mut self.dirty else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (w, word) in (0u64..).zip(dirty.iter_mut()) {
            // Most words of a guest's span are clean: read, never written.
            if *word == 0 {
                continue;
            }
            let mut bits = std::mem::take(word);
            while bits != 0 {
                out.push(Gfn(w * 64 + u64::from(bits.trailing_zeros())));
                bits &= bits - 1;
            }
        }
        out
    }

    /// Estimated metadata footprint of the table itself, in bytes (8 bytes
    /// per entry plus one 4 KiB page per 512 entries of directory).
    pub fn metadata_bytes(&self) -> u64 {
        let n = self.entries.len() as u64;
        n * 8 + n.div_ceil(512) * 4096
    }
}

/// The `(base GFN, extent)` entry covering `gfn`: one range query.
fn entry_of(entries: &BTreeMap<u64, Extent>, gfn: Gfn) -> Result<(u64, Extent), P2mError> {
    entries
        .range(..=gfn.0)
        .next_back()
        .map(|(&base, &e)| (base, e))
        .filter(|&(base, e)| gfn.0 - base < e.pages())
        .ok_or(P2mError::NotMapped { gfn })
}

/// The batch translator. It keeps the entry the previous GFN landed in,
/// so a GFN of the same entry translates with a subtraction and a compare.
/// A GFN shortly past that entry's end — less than the entry's length
/// past it — tries the following entry first, through an iterator kept
/// from one such step to the next, in O(1): every page of an ascending
/// batch but the first, and most of a sorted dirty set. Any other GFN
/// costs one `O(log n)` range query, what a lone [`P2m::translate`] costs.
struct Cursor<'a> {
    entries: &'a BTreeMap<u64, Extent>,
    /// The previous GFN's entry: GFNs `first..first + pages` are machine
    /// frames `base..` (no pages before the first lookup).
    first: u64,
    pages: u64,
    base: Mfn,
    /// The entries after that one, once a GFN has run past its end.
    next: Option<Peekable<Range<'a, u64, Extent>>>,
}

impl<'a> Cursor<'a> {
    fn new(entries: &'a BTreeMap<u64, Extent>) -> Self {
        Cursor {
            entries,
            first: 0,
            pages: 0,
            base: Mfn(0),
            next: None,
        }
    }

    fn translate(&mut self, gfn: Gfn) -> Result<Mfn, P2mError> {
        let off = gfn.0.wrapping_sub(self.first);
        if off < self.pages {
            return Ok(self.base + off);
        }
        let covers = |(first, e): (u64, Extent)| gfn.0 >= first && gfn.0 - first < e.pages();
        let mut stepped = None;
        if gfn.0 > self.first && off < 2 * self.pages {
            let entries = self.entries;
            let after = self.first;
            let next = self.next.get_or_insert_with(|| {
                entries
                    .range((Bound::Excluded(after), Bound::Unbounded))
                    .peekable()
            });
            if let Some((&first, &e)) = next.peek().filter(|&(&f, &e)| covers((f, e))) {
                next.next();
                stepped = Some((first, e));
            }
        }
        let (first, e) = match stepped {
            Some(entry) => entry,
            None => {
                self.next = None;
                entry_of(self.entries, gfn)?
            }
        };
        (self.first, self.pages, self.base) = (first, e.pages(), e.base);
        Ok(e.base + (gfn.0 - first))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertp_machine::PageOrder;

    impl P2m {
        /// Number of P2M entries (PRAM page entries this P2M will produce).
        pub(crate) fn entry_count(&self) -> u64 {
            self.entries.len() as u64
        }

        /// Disables log-dirty mode.
        pub(crate) fn disable_log_dirty(&mut self) {
            self.dirty = None;
        }

        /// True if log-dirty mode is active.
        pub(crate) fn log_dirty_enabled(&self) -> bool {
            self.dirty.is_some()
        }
    }

    fn ext(base: u64, order: u8) -> Extent {
        Extent::new(Mfn(base), PageOrder(order))
    }

    #[test]
    fn map_and_translate() {
        let mut p = P2m::new();
        p.map(Gfn(0), ext(512, 9)).unwrap();
        p.map(Gfn(512), ext(2048, 9)).unwrap();
        assert_eq!(p.translate(Gfn(0)).unwrap(), Mfn(512));
        assert_eq!(p.translate(Gfn(511)).unwrap(), Mfn(1023));
        assert_eq!(p.translate(Gfn(512)).unwrap(), Mfn(2048));
        assert_eq!(p.translate(Gfn(700)).unwrap(), Mfn(2048 + 188));
        assert!(p.translate(Gfn(1024)).is_err());
        assert_eq!(p.total_pages(), 1024);
        assert_eq!(p.entry_count(), 2);
    }

    #[test]
    fn overlap_rejected() {
        let mut p = P2m::new();
        p.map(Gfn(100), ext(0, 2)).unwrap(); // covers 100..104
        assert!(matches!(
            p.map(Gfn(103), ext(16, 0)),
            Err(P2mError::Overlap { .. })
        ));
        assert!(matches!(
            p.map(Gfn(98), ext(8, 2)),
            Err(P2mError::Overlap { .. })
        ));
        p.map(Gfn(104), ext(32, 0)).unwrap();
    }

    #[test]
    fn log_dirty_cycle() {
        let mut p = P2m::new();
        p.map(Gfn(0), ext(0, 9)).unwrap();
        let mut store = |_, _| true;
        p.write_pages(&[(Gfn(5), 1)], &mut store).unwrap(); // Not enabled: dropped.
        p.enable_log_dirty();
        assert!(p.read_and_clear_dirty().is_empty());
        p.write_pages(&[(Gfn(1), 1), (Gfn(2), 2), (Gfn(1), 3)], &mut store)
            .unwrap();
        assert_eq!(p.read_and_clear_dirty(), vec![Gfn(1), Gfn(2)]);
        assert!(p.read_and_clear_dirty().is_empty());
        p.disable_log_dirty();
        assert!(!p.log_dirty_enabled());
    }

    /// Flattens `translate_runs` back to one MFN per page.
    fn flat_runs(p: &P2m, gfns: &[Gfn]) -> Result<Vec<Mfn>, P2mError> {
        let mut flat = Vec::new();
        p.translate_runs(gfns, &mut |m, n| flat.extend((0..n).map(|i| m + i)))?;
        Ok(flat)
    }

    fn per_page(p: &P2m, gfns: &[Gfn]) -> Result<Vec<Mfn>, P2mError> {
        gfns.iter().map(|&g| p.translate(g)).collect()
    }

    #[test]
    fn translate_runs_matches_per_page_translate() {
        let mut p = P2m::new();
        // Two runs with a hole between them: gfns 0..512 and 1024..1536.
        p.map(Gfn(0), ext(2048, 9)).unwrap();
        p.map(Gfn(1024), ext(4096, 9)).unwrap();
        // Sorted, then out-of-order input: the same answers either way.
        for gfns in [
            vec![0u64, 1, 255, 511, 1024, 1300, 1535],
            vec![1535, 0, 1024, 511, 1],
        ] {
            let gfns: Vec<Gfn> = gfns.into_iter().map(Gfn).collect();
            assert_eq!(flat_runs(&p, &gfns), per_page(&p, &gfns));
            assert!(flat_runs(&p, &gfns).is_ok());
        }
        // The hole and the tail fail exactly like `translate`.
        for gfns in [
            vec![Gfn(0), Gfn(512)],
            vec![Gfn(0), Gfn(700)],
            vec![Gfn(1536)],
        ] {
            assert_eq!(flat_runs(&p, &gfns), per_page(&p, &gfns));
            assert!(flat_runs(&p, &gfns).is_err());
        }
        assert_eq!(flat_runs(&p, &[]), Ok(vec![]));
    }

    #[test]
    fn translate_runs_coalesces_physically_contiguous_pages() {
        let mut p = P2m::new();
        p.map(Gfn(0), ext(2048, 9)).unwrap(); // gfn 0..512 -> mfn 2048..
        p.map(Gfn(512), ext(8192, 9)).unwrap(); // gfn 512..1024 -> mfn 8192..
        let gfns: Vec<Gfn> = (0..700).map(Gfn).collect();
        let mut runs = Vec::new();
        p.translate_runs(&gfns, &mut |m, n| runs.push((m, n)))
            .unwrap();
        // Two physically-contiguous runs, one visit each.
        assert_eq!(runs, vec![(Mfn(2048), 512), (Mfn(8192), 188)]);
        // Flattened runs equal the per-page translation, also for sparse
        // and out-of-order inputs.
        for gfns in [
            (0u64..700).collect::<Vec<_>>(),
            vec![5, 6, 7, 100, 513, 514, 512],
            vec![1023, 0, 511, 512],
        ] {
            let gfns: Vec<Gfn> = gfns.into_iter().map(Gfn).collect();
            assert_eq!(flat_runs(&p, &gfns), per_page(&p, &gfns));
        }
        // Unmapped GFNs fail like `translate`.
        assert!(p
            .translate_runs(&[Gfn(0), Gfn(2000)], &mut |_, _| {})
            .is_err());
    }

    #[test]
    fn mappings_sorted() {
        let mut p = P2m::new();
        p.map(Gfn(512), ext(0, 9)).unwrap();
        p.map(Gfn(0), ext(512, 9)).unwrap();
        let m = p.mappings();
        assert_eq!(m[0].0, Gfn(0));
        assert_eq!(m[1].0, Gfn(512));
    }

    #[test]
    fn metadata_footprint() {
        let mut p = P2m::new();
        for i in 0..1024u64 {
            p.map(Gfn(i), ext(1024 + i, 0)).unwrap();
        }
        assert_eq!(p.metadata_bytes(), 1024 * 8 + 2 * 4096);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use hypertp_machine::PageOrder;
    use hypertp_sim::SimRng;

    /// `mappings` mapped one by one, in order, stopping at the first error.
    fn map_loop(mappings: &[(Gfn, Extent)]) -> Result<Vec<(Gfn, Extent)>, P2mError> {
        let mut p = P2m::new();
        for &(gfn, e) in mappings {
            p.map(gfn, e)?;
        }
        Ok(p.mappings())
    }

    /// The one-pass build equals a loop of `map` — the same entries, or the
    /// same `Overlap` GFN — on memory maps sorted by GFN with holes, the
    /// same maps shuffled, and either with an overlapping mapping put in.
    #[test]
    fn one_pass_build_equals_a_map_loop() {
        let mut rng = SimRng::new(0x92a0_0002);
        let (mut overlaps, mut unsorted) = (0, 0);
        for case in 0..400 {
            let mut sorted = Vec::new();
            let mut gfn = 0u64;
            for i in 0..rng.gen_range(40) {
                gfn += rng.gen_range(3) * rng.gen_range(600);
                let order = PageOrder(rng.gen_range(10) as u8);
                sorted.push((Gfn(gfn), Extent::new(Mfn(i << 9), order)));
                gfn += order.pages();
            }
            let mut shuffled = sorted.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.gen_range(i as u64 + 1) as usize);
            }
            for mut input in [sorted, shuffled] {
                if !input.is_empty() && rng.gen_bool(0.5) {
                    // A page inside some mapping, mapped again anywhere.
                    let (g, e) = input[rng.gen_range(input.len() as u64) as usize];
                    let at = rng.gen_range(input.len() as u64 + 1) as usize;
                    let inside = Gfn(g.0 + rng.gen_range(e.pages()));
                    input.insert(at, (inside, Extent::new(Mfn(1 << 30), PageOrder(0))));
                }
                let want = map_loop(&input);
                let got = P2m::from_mappings(&input).map(|p| p.mappings());
                assert_eq!(got, want, "case {case}: {input:?}");
                overlaps += u32::from(want.is_err());
                let ascending = input.windows(2).all(|w| w[0].0 < w[1].0);
                unsorted += u32::from(!ascending && want.is_ok());
            }
        }
        assert!(
            overlaps > 100 && unsorted > 100,
            "{overlaps} overlaps, {unsorted} unsorted"
        );
    }

    /// The log-dirty bitmap against a set model over random write batches:
    /// `read_and_clear_dirty` returns the model's GFNs, ascending and each
    /// once. Batches repeat GFNs, stop at an unmapped GFN or where `store`
    /// refuses a page (left unlogged); logging is re-enabled (the log
    /// resets) and disabled (nothing is logged), and mappings are added
    /// past the span while it is on.
    #[test]
    fn dirty_bitmap_equals_a_set_model() {
        use std::collections::BTreeSet;
        let mut rng = SimRng::new(0x92a0_0003);
        let (mut logged, mut refused, mut grown) = (0, 0, 0);
        for case in 0..200 {
            let mut p = P2m::new();
            let mut mapped = Vec::new();
            let mut gfn = rng.gen_range(100);
            let mut mfn = 0u64;
            let mut add = |p: &mut P2m, mapped: &mut Vec<u64>, gfn: &mut u64, rng: &mut SimRng| {
                let order = PageOrder(rng.gen_range(8) as u8);
                mfn = mfn.next_multiple_of(order.pages());
                p.map(Gfn(*gfn), Extent::new(Mfn(mfn), order)).unwrap();
                mapped.extend(*gfn..*gfn + order.pages());
                *gfn += order.pages() + rng.gen_range(3) * rng.gen_range(200);
                mfn += order.pages();
            };
            for _ in 0..1 + rng.gen_range(6) {
                add(&mut p, &mut mapped, &mut gfn, &mut rng);
            }
            let mut model: Option<BTreeSet<u64>> = None;
            for step in 0..30 {
                match rng.gen_range(10) {
                    0 => {
                        p.enable_log_dirty();
                        model = Some(BTreeSet::new());
                    }
                    1 => {
                        p.disable_log_dirty();
                        model = None;
                    }
                    2 => {
                        add(&mut p, &mut mapped, &mut gfn, &mut rng);
                        grown += u32::from(model.is_some());
                    }
                    _ => {}
                }
                let mut writes = Vec::new();
                for _ in 0..rng.gen_range(40) {
                    let g = match rng.gen_range(8) {
                        // Unmapped: past the span, or in a hole if any.
                        0 => gfn + rng.gen_range(64),
                        1 => rng.gen_range(gfn),
                        _ => mapped[rng.gen_range(mapped.len() as u64) as usize],
                    };
                    writes.push((Gfn(g), rng.next_u64()));
                }
                let refuse = (rng.gen_range(4) == 0).then(|| rng.gen_range(40));
                let mut stored = 0;
                let got = p.write_pages(&writes, &mut |_, _| {
                    stored += 1;
                    refuse != Some(stored - 1)
                });
                let mut want = Ok(());
                for (k, &(g, _)) in (0u64..).zip(&writes) {
                    if p.translate(g).is_err() {
                        want = Err(P2mError::NotMapped { gfn: g });
                        break;
                    }
                    if refuse == Some(k) {
                        refused += 1;
                        break;
                    }
                    if let Some(m) = &mut model {
                        m.insert(g.0);
                    }
                }
                assert_eq!(got, want, "case {case} step {step}");
                assert_eq!(p.log_dirty_enabled(), model.is_some());
                if rng.gen_bool(0.5) {
                    let want: Vec<Gfn> =
                        model.iter_mut().flat_map(std::mem::take).map(Gfn).collect();
                    logged += want.len();
                    assert_eq!(p.read_and_clear_dirty(), want, "case {case} step {step}");
                }
            }
        }
        assert!(
            logged > 5000 && refused > 100 && grown > 50,
            "{logged} logged, {refused} refused, {grown} grown"
        );
    }

    /// Random non-overlapping maps translate every covered GFN to the
    /// right frame and reject every uncovered GFN.
    /// (Formerly proptest, 64 cases.)
    #[test]
    fn translate_matches_construction() {
        let mut rng = SimRng::new(0x92a0_0001);
        for _ in 0..64 {
            let n_runs = 1 + rng.gen_range(29) as usize;
            let layout: Vec<(u64, u64)> = (0..n_runs)
                .map(|_| (rng.gen_range(4), rng.gen_range(8)))
                .collect();
            let mut p = P2m::new();
            let mut truth: Vec<(u64, u64, u64)> = Vec::new(); // (gfn, mfn, pages)
            let mut gfn = 0u64;
            let mut mfn = 0u64;
            for (order, gap) in layout {
                gfn += gap;
                let order = PageOrder(order as u8);
                // Align the machine side as the allocator would.
                mfn = mfn.next_multiple_of(order.pages());
                let e = Extent::new(Mfn(mfn), order);
                p.map(Gfn(gfn), e).expect("construction is overlap-free");
                truth.push((gfn, mfn, order.pages()));
                gfn += order.pages();
                mfn += order.pages();
            }
            let mut pages: Vec<(Gfn, Mfn)> = Vec::new();
            for &(g, m, n) in &truth {
                for off in 0..n {
                    assert_eq!(p.translate(Gfn(g + off)).unwrap(), Mfn(m + off));
                    pages.push((Gfn(g + off), Mfn(m + off)));
                }
            }
            // The batch cursor agrees in ascending, descending and random
            // order.
            let shuffled: Vec<(Gfn, Mfn)> = (0..pages.len())
                .map(|_| pages[rng.gen_range(pages.len() as u64) as usize])
                .collect();
            let descending = pages.iter().rev().copied().collect();
            for order in [pages, descending, shuffled] {
                let gfns: Vec<Gfn> = order.iter().map(|&(g, _)| g).collect();
                let mut flat = Vec::new();
                p.translate_runs(&gfns, &mut |m, n| flat.extend((0..n).map(|i| m + i)))
                    .unwrap();
                assert!(flat.iter().eq(order.iter().map(|(_, m)| m)));
            }
            // A GFN beyond the layout fails.
            assert!(p.translate(Gfn(gfn + 1)).is_err());
            // Re-mapping anything inside an existing run fails.
            if let Some(&(g, _, _)) = truth.first() {
                assert!(p
                    .map(Gfn(g), Extent::new(Mfn(1 << 20), PageOrder(0)))
                    .is_err());
            }
            assert_eq!(
                p.total_pages(),
                truth.iter().map(|&(_, _, n)| n).sum::<u64>()
            );
        }
    }
}
