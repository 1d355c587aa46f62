//! Serialized wire frames and the reusable frame ring.
//!
//! Frames exist only as a *byte-serialized* stream in a [`FrameRing`]:
//! the engine owns one ring, reuses it across rounds and across VMs, and
//! both sides of the transfer operate on borrowed [`FrameView`]s into the
//! ring — the steady-state hot path never touches the allocator.
//!
//! **Wire format.** Every frame is a fixed 16-byte header followed by a
//! payload ([`WIRE_FRAME_HEADER`] already accounted this header):
//!
//! ```text
//! [kind: u8][pad: 3 zero bytes][gfn: u64 le][payload len: u32 le][payload]
//! ```
//!
//! Payloads by kind: `Raw` carries the page's 8-byte content word (the
//! simulator ships the word standing in for the 4 KiB page — accounting
//! still charges the full page), `Zero` is empty, `Dup` carries the
//! 16-byte content digest, `Delta` carries the XOR+RLE stream.
//!
//! **Transactional rounds.** The ring mirrors the `TransferCache`
//! journal: [`FrameRing::begin`] records a watermark, and a link drop
//! rolls the ring back to it in lockstep with
//! [`TransferCache::rollback_round`], so `LinkDrop` recovery re-encodes
//! byte-identically.
//!
//! [`TransferCache::rollback_round`]: crate::wire::TransferCache::rollback_round

use hypertp_sim::hash::Digest128;

use crate::network::{FrameKind, WIRE_DIGEST_BYTES, WIRE_FRAME_HEADER};
use crate::wire::delta_apply_word;
use hypertp_machine::PAGE_SIZE;

/// A parsed, borrowed view of one serialized frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameView<'a> {
    /// The frame kind.
    pub kind: FrameKind,
    /// The guest frame this page lands on.
    pub gfn: u64,
    /// The payload bytes (word / empty / digest / delta stream).
    pub payload: &'a [u8],
}

impl<'a> FrameView<'a> {
    /// Parses the frame at the start of `buf`. Returns the view and the
    /// number of physical bytes consumed, or `None` when the buffer is
    /// truncated, the tag or padding is corrupt, or a fixed-payload kind
    /// carries the wrong length — total on arbitrary bytes.
    pub fn parse(buf: &'a [u8]) -> Option<(FrameView<'a>, usize)> {
        let header = buf.get(..WIRE_FRAME_HEADER as usize)?;
        let kind = FrameKind::from_tag(header[0])?;
        if header[1] != 0 || header[2] != 0 || header[3] != 0 {
            return None;
        }
        let gfn = u64::from_le_bytes(header[4..12].try_into().ok()?);
        let len = u32::from_le_bytes(header[12..16].try_into().ok()?) as usize;
        let expected = match kind {
            FrameKind::Raw => Some(8),
            FrameKind::Zero => Some(0),
            FrameKind::Dup => Some(WIRE_DIGEST_BYTES as usize),
            FrameKind::Delta => None,
        };
        if expected.is_some_and(|e| e != len) {
            return None;
        }
        let payload = buf.get(WIRE_FRAME_HEADER as usize..WIRE_FRAME_HEADER as usize + len)?;
        Some((
            FrameView { kind, gfn, payload },
            WIRE_FRAME_HEADER as usize + len,
        ))
    }

    /// The content word of a `Raw` frame.
    pub(crate) fn raw_word(&self) -> Option<u64> {
        if self.kind != FrameKind::Raw {
            return None;
        }
        Some(u64::from_le_bytes(self.payload.try_into().ok()?))
    }

    /// The content digest of a `Dup` frame.
    pub(crate) fn dup_digest(&self) -> Option<Digest128> {
        if self.kind != FrameKind::Dup {
            return None;
        }
        let hi = u64::from_le_bytes(self.payload.get(..8)?.try_into().ok()?);
        let lo = u64::from_le_bytes(self.payload.get(8..16)?.try_into().ok()?);
        Some(Digest128 { hi, lo })
    }

    /// The word the destination lands for this frame at a page whose word
    /// is `current`, with `dup` looking a `Dup` frame's digest up in the
    /// content the destination holds. `None` when the frame is
    /// inconsistent with the destination's state: a dup for unknown
    /// content, or a delta that does not decode to a uniform page.
    pub(crate) fn resolve(
        &self,
        current: u64,
        dup: impl FnOnce(Digest128) -> Option<u64>,
    ) -> Option<u64> {
        match self.kind {
            FrameKind::Raw => self.raw_word(),
            FrameKind::Zero => Some(0),
            FrameKind::Dup => dup(self.dup_digest()?),
            FrameKind::Delta => delta_apply_word(current, self.payload),
        }
    }

    /// Accounted wire bytes: the header plus the payload, except that a
    /// `Raw` frame is charged the full page its 8-byte word stands in for.
    pub fn wire_bytes(&self) -> u64 {
        WIRE_FRAME_HEADER
            + match self.kind {
                FrameKind::Raw => PAGE_SIZE,
                FrameKind::Zero => 0,
                FrameKind::Dup => WIRE_DIGEST_BYTES,
                FrameKind::Delta => self.payload.len() as u64,
            }
    }

    /// Physical bytes of the serialized frame (header + payload).
    pub(crate) fn frame_bytes(&self) -> usize {
        WIRE_FRAME_HEADER as usize + self.payload.len()
    }
}

/// Iterator over the serialized frames in a byte region. Stops at the
/// first malformed frame (ring contents are self-produced, so this only
/// matters for defensive termination).
#[derive(Debug, Clone)]
pub struct FrameIter<'a> {
    buf: &'a [u8],
}

impl<'a> FrameIter<'a> {
    /// Walks the serialized frames in an arbitrary byte region (e.g. the
    /// frame stream of a received proxy round message).
    pub fn over(buf: &'a [u8]) -> Self {
        FrameIter { buf }
    }
}

impl<'a> Iterator for FrameIter<'a> {
    type Item = FrameView<'a>;

    fn next(&mut self) -> Option<FrameView<'a>> {
        if self.buf.is_empty() {
            return None;
        }
        match FrameView::parse(self.buf) {
            Some((view, consumed)) => {
                self.buf = &self.buf[consumed..];
                Some(view)
            }
            None => {
                self.buf = &[];
                None
            }
        }
    }
}

/// Makes room in `v` for `total` elements the way appending them one at a
/// time would: the capacity doubles until it fits, rather than growing to
/// `total` in one step, so the capacity a batched append leaves does not
/// depend on how the appends were batched. Returns whether it grew.
pub(crate) fn reserve_doubling<T>(v: &mut Vec<T>, total: usize) -> bool {
    let cap = v.capacity();
    if total <= cap {
        return false;
    }
    let mut target = cap.max(1);
    while target < total {
        target *= 2;
    }
    v.reserve_exact(target - v.len());
    true
}

/// A reusable serialized-frame buffer with begin/commit watermarks.
///
/// The engine owns one ring (shared across rounds and across the VMs of
/// `migrate_many`/`migrate_fleet` through the engine scratch): each round
/// [`FrameRing::restart`]s it — truncating length, keeping capacity — so
/// after the first round of the first VM the encode path performs zero
/// heap allocations. [`FrameRing::grows`] counts capacity growth events,
/// which is what the allocation-probe regression asserts stays flat in
/// steady state.
#[derive(Debug, Default)]
pub struct FrameRing {
    buf: Vec<u8>,
    /// Byte watermark recorded by [`FrameRing::begin`]; rollback
    /// truncates to it.
    watermark: usize,
    /// Frames pushed since the last restart, drained ones included.
    frames: u64,
    /// Frames at the last watermark (restored on rollback).
    watermark_frames: u64,
    /// Capacity growth events since creation (allocation probe).
    grows: u64,
    /// Largest byte length the ring ever reached.
    high_water: usize,
}

impl FrameRing {
    /// An empty ring.
    pub fn new() -> Self {
        FrameRing::default()
    }

    /// Truncates the ring for a new round, keeping its capacity — the
    /// reuse step that takes the allocator off the hot path.
    pub fn restart(&mut self) {
        self.buf.clear();
        self.watermark = 0;
        self.frames = 0;
        self.watermark_frames = 0;
    }

    /// Records the begin watermark for a transactional batch; a
    /// subsequent [`FrameRing::rollback`] truncates back to this point
    /// (in lockstep with the `TransferCache` journal).
    pub fn begin(&mut self) {
        self.watermark = self.buf.len();
        self.watermark_frames = self.frames;
    }

    /// Seals the batch: the watermark advances to the current end.
    pub fn commit(&mut self) {
        self.watermark = self.buf.len();
        self.watermark_frames = self.frames;
    }

    /// Drops every frame pushed since [`FrameRing::begin`] (the round was
    /// lost on the wire).
    pub fn rollback(&mut self) {
        self.buf.truncate(self.watermark);
        self.frames = self.watermark_frames;
    }

    /// Drops the bytes of the frames in the ring, which the caller handed
    /// off, and keeps [`FrameRing::frame_count`], which then spans a round
    /// held a part at a time. A rollback still drops the whole round.
    pub(crate) fn drain(&mut self) {
        self.buf.clear();
        self.watermark = 0;
    }

    fn header(&mut self, kind: FrameKind, gfn: u64, len: u32) {
        let need = WIRE_FRAME_HEADER as usize + len as usize;
        if self.buf.capacity() - self.buf.len() < need {
            self.grows += 1;
            self.buf.reserve(need);
        }
        self.buf.push(kind.tag());
        self.buf.extend_from_slice(&[0u8; 3]);
        self.buf.extend_from_slice(&gfn.to_le_bytes());
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.frames += 1;
    }

    fn finish(&mut self) {
        self.high_water = self.high_water.max(self.buf.len());
    }

    /// Appends a `Raw` frame; returns its accounted wire bytes.
    pub(crate) fn push_raw(&mut self, gfn: u64, word: u64) -> u64 {
        self.header(FrameKind::Raw, gfn, 8);
        self.buf.extend_from_slice(&word.to_le_bytes());
        self.finish();
        WIRE_FRAME_HEADER + PAGE_SIZE
    }

    /// Appends `pages` `Zero` markers for the gfns from `gfn` on, after one
    /// reserve — the bytes of `pages` one-page calls.
    /// Returns their accounted wire bytes.
    pub(crate) fn push_zeros(&mut self, gfn: u64, pages: usize) -> u64 {
        let mut frame = [0u8; WIRE_FRAME_HEADER as usize];
        let total = self.buf.len() + pages * frame.len();
        if reserve_doubling(&mut self.buf, total) {
            self.grows += 1;
        }
        // One 16-byte append per frame. Zero-filling the whole run and then
        // patching it wrote faster, but left a long run slower to read
        // back (a local destination's apply pass).
        frame[0] = FrameKind::Zero.tag();
        for k in 0..pages as u64 {
            frame[4..12].copy_from_slice(&gfn.wrapping_add(k).to_le_bytes());
            self.buf.extend_from_slice(&frame);
        }
        self.frames += pages as u64;
        self.finish();
        pages as u64 * WIRE_FRAME_HEADER
    }

    /// Appends a `Dup` frame; returns its accounted wire bytes.
    pub(crate) fn push_dup(&mut self, gfn: u64, digest: Digest128) -> u64 {
        self.header(FrameKind::Dup, gfn, WIRE_DIGEST_BYTES as u32);
        self.buf.extend_from_slice(&digest.hi.to_le_bytes());
        self.buf.extend_from_slice(&digest.lo.to_le_bytes());
        self.finish();
        WIRE_FRAME_HEADER + WIRE_DIGEST_BYTES
    }

    /// Appends a `Delta` frame with an already-encoded stream; returns
    /// its accounted wire bytes.
    pub(crate) fn push_delta(&mut self, gfn: u64, delta: &[u8]) -> u64 {
        self.header(FrameKind::Delta, gfn, delta.len() as u32);
        self.buf.extend_from_slice(delta);
        self.finish();
        WIRE_FRAME_HEADER + delta.len() as u64
    }

    /// Delta-encodes two uniform pages into the ring through a stack
    /// buffer: the stream of `wire`'s reference `delta_encode_words_into`
    /// (byte-for-byte equality is pinned by a test below), at most 11
    /// bytes. Returns the accounted wire bytes.
    pub(crate) fn push_delta_words(&mut self, gfn: u64, old_word: u64, new_word: u64) -> u64 {
        let mut stream = [0u8; 11];
        let x = old_word ^ new_word;
        let len = if x == 0 {
            stream[0] = crate::wire::OP_ZERO_RUN;
            stream[1..3].copy_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
            3
        } else {
            stream[0] = crate::wire::OP_PATTERN8;
            stream[1..3].copy_from_slice(&((PAGE_SIZE / 8) as u16).to_le_bytes());
            stream[3..11].copy_from_slice(&x.to_le_bytes());
            11
        };
        self.push_delta(gfn, &stream[..len])
    }

    /// Serialized bytes pushed since byte offset `from` (the physical
    /// stream a transport ships, from the last part on).
    pub(crate) fn bytes_from(&self, from: usize) -> &[u8] {
        &self.buf[from..]
    }

    /// Current byte length (pass to `FrameRing::bytes_from` later to
    /// iterate a sub-batch).
    pub fn len_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Frames pushed since the last restart, drained ones included.
    pub fn frame_count(&self) -> u64 {
        self.frames
    }

    /// Iterates every frame currently in the ring.
    pub fn iter(&self) -> FrameIter<'_> {
        FrameIter { buf: &self.buf }
    }

    /// Capacity growth events since creation — flat in steady state.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Current backing capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Largest byte length the ring ever reached.
    pub(crate) fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::tests::delta_encode_words_into;
    use crate::wire::{delta_encode, expand_word};
    use hypertp_sim::hash::digest_words;
    use hypertp_sim::SimRng;

    impl FrameRing {
        /// Appends a `Zero` marker; returns its accounted wire bytes.
        fn push_zero(&mut self, gfn: u64) -> u64 {
            self.push_zeros(gfn, 1)
        }
    }

    /// A run of `Zero` markers is byte for byte the frames one header each
    /// would write, after a raw frame and across a capacity growth.
    #[test]
    fn push_zeros_writes_one_header_per_page() {
        let (mut bulk, mut paged) = (FrameRing::new(), FrameRing::new());
        for ring in [&mut bulk, &mut paged] {
            ring.push_raw(3, 0xbeef);
        }
        assert_eq!(bulk.push_zeros(62, 300), 300 * WIRE_FRAME_HEADER);
        for gfn in 62..362 {
            paged.header(FrameKind::Zero, gfn, 0);
        }
        assert_eq!(bulk.bytes_from(0), paged.bytes_from(0));
        assert_eq!(bulk.frame_count(), 301);
        assert_eq!(bulk.high_water(), bulk.len_bytes());
        assert!(bulk.iter().skip(1).all(|v| v.kind == FrameKind::Zero));
    }

    #[test]
    fn push_parse_roundtrip_all_kinds() {
        let mut ring = FrameRing::new();
        let digest = digest_words(&[0xbeef]);
        let delta = delta_encode(&expand_word(1), &expand_word(2));
        let pushed = [
            ring.push_raw(7, 0xbeef),
            ring.push_zero(8),
            ring.push_dup(9, digest),
            ring.push_delta(10, &delta),
        ];
        assert_eq!(
            pushed,
            [
                WIRE_FRAME_HEADER + PAGE_SIZE,
                WIRE_FRAME_HEADER,
                WIRE_FRAME_HEADER + WIRE_DIGEST_BYTES,
                WIRE_FRAME_HEADER + delta.len() as u64
            ]
        );
        assert_eq!(ring.frame_count(), 4);
        let views: Vec<FrameView<'_>> = ring.iter().collect();
        assert_eq!(views.len(), 4);
        assert_eq!(views[0].kind, FrameKind::Raw);
        assert_eq!(views[0].gfn, 7);
        assert_eq!(views[0].raw_word(), Some(0xbeef));
        assert_eq!(views[1].kind, FrameKind::Zero);
        assert_eq!(views[2].dup_digest(), Some(digest));
        assert_eq!(views[3].payload, &delta[..]);
        // A view accounts the bytes its push returned.
        let accounted: Vec<u64> = views.iter().map(FrameView::wire_bytes).collect();
        assert_eq!(accounted, pushed);
        // Physical stream length is the sum of frame_bytes.
        assert_eq!(
            ring.len_bytes(),
            views.iter().map(|v| v.frame_bytes()).sum::<usize>()
        );
    }

    #[test]
    fn push_delta_words_matches_vec_encoder() {
        let mut rng = SimRng::new(0x11b5);
        let mut ring = FrameRing::new();
        let mut want = Vec::new();
        for case in 0..200 {
            let old = rng.next_u64();
            let new = if case % 5 == 0 { old } else { rng.next_u64() };
            ring.restart();
            ring.push_delta_words(3, old, new);
            delta_encode_words_into(old, new, &mut want);
            let v = ring.iter().next().unwrap();
            assert_eq!(v.payload, &want[..], "case {case}");
            assert_eq!(
                v.payload,
                &delta_encode(&expand_word(old), &expand_word(new))[..],
                "case {case}"
            );
        }
    }

    #[test]
    fn parse_rejects_corruption() {
        let mut ring = FrameRing::new();
        ring.push_raw(1, 42);
        let good = ring.bytes_from(0).to_vec();
        assert!(FrameView::parse(&good).is_some());
        // Truncated header / payload.
        assert!(FrameView::parse(&good[..10]).is_none());
        assert!(FrameView::parse(&good[..good.len() - 1]).is_none());
        // Bad tag.
        let mut bad = good.clone();
        bad[0] = 0x7f;
        assert!(FrameView::parse(&bad).is_none());
        // Dirty padding.
        let mut bad = good.clone();
        bad[2] = 1;
        assert!(FrameView::parse(&bad).is_none());
        // Raw payload length must be exactly 8.
        let mut bad = good.clone();
        bad[12] = 4;
        assert!(FrameView::parse(&bad).is_none());
        // Arbitrary bytes never panic.
        let mut rng = SimRng::new(0xf4a3);
        for _ in 0..500 {
            let len = rng.gen_range(40) as usize;
            let junk: Vec<u8> = (0..len).map(|_| rng.gen_range(256) as u8).collect();
            let _ = FrameView::parse(&junk);
        }
    }

    #[test]
    fn watermark_rollback_and_restart() {
        let mut ring = FrameRing::new();
        ring.push_zero(1);
        ring.commit();
        let sealed = ring.len_bytes();
        ring.begin();
        ring.push_raw(2, 9);
        ring.push_zero(3);
        assert_eq!(ring.frame_count(), 3);
        ring.rollback();
        assert_eq!(ring.len_bytes(), sealed, "rolled back to the watermark");
        assert_eq!(ring.frame_count(), 1);
        // Restart clears contents but keeps capacity — no regrow.
        for _ in 0..16 {
            ring.push_raw(4, 0xffff);
        }
        let cap = ring.capacity();
        let grows = ring.grows();
        for _ in 0..8 {
            ring.restart();
            for i in 0..16 {
                ring.push_raw(i, 0xffff);
            }
        }
        assert_eq!(ring.capacity(), cap);
        assert_eq!(ring.grows(), grows, "steady-state rounds never grow");
        assert!(ring.high_water() >= ring.len_bytes());
    }

    /// A drained part's bytes leave the ring and its frames still count
    /// toward the round; a rollback drops the whole round.
    #[test]
    fn drain_keeps_the_round_frame_count() {
        let mut ring = FrameRing::new();
        ring.restart();
        ring.begin();
        ring.push_zeros(0, 3);
        ring.drain();
        ring.push_raw(3, 9);
        assert_eq!(ring.frame_count(), 4);
        let tail: Vec<u64> = ring.iter().map(|v| v.gfn).collect();
        assert_eq!(tail, vec![3], "only the part after the drain");
        ring.rollback();
        assert_eq!((ring.frame_count(), ring.len_bytes()), (0, 0));
    }
}
