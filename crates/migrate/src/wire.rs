//! Content-aware page encoding for the migration wire path.
//!
//! This module holds the two stateful halves of PR 3's wire path:
//!
//! * an **XOR+RLE delta codec** ([`delta_encode`]/`delta_apply_word`) for
//!   re-dirtied pages: the new page is XORed against the last version the
//!   destination acked, and the (hopefully sparse) XOR image is run-length
//!   encoded — zero runs collapse to 3 bytes, literals are shipped as-is.
//!   The encoder is total and the decoder rejects malformed streams
//!   instead of panicking, so a corrupted delta is a recoverable fault.
//! * a **destination-synchronised [`TransferCache`]** keyed by 128-bit
//!   content digests ([`hypertp_sim::hash::Digest128`]). The source
//!   mirrors exactly what the destination holds: which content digests it
//!   has materialised (for [`FrameKind::Dup`] suppression — across
//!   pre-copy rounds *and* across VMs sharing the engine in
//!   `migrate_many`), and the last word acked per (vm, gfn) (for
//!   [`FrameKind::Delta`] encoding). Pages are encoded straight into a
//!   [`FrameRing`] ([`TransferCache::encode_words_into`]) and a frame is
//!   applied from its [`FrameView`] ([`TransferCache::apply_view`]).
//!
//! **Transactional rounds.** The destination only acks a round as a whole;
//! if the link drops mid-round, nothing the round shipped can be assumed
//! present on the other side. The cache therefore journals what a round
//! changes between [`TransferCache::begin_round`] and
//! [`TransferCache::commit_round`], in proportion to what changed: an
//! overwritten committed delta base as an undo record, a newly tracked
//! base as one bit of a per-VM bitmap, a dedup insert as its slot id. A
//! drop triggers [`TransferCache::rollback_round`], which restores the
//! last committed state so the retry re-encodes against what the
//! destination *actually* holds. An abandoned migration calls
//! [`TransferCache::forget_vm`] (the destination shell is torn down, its
//! pages gone).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use hypertp_machine::{Gfn, PAGE_SIZE};
use hypertp_sim::hash::{digest_words, Digest128};

use crate::framing::{reserve_doubling, FrameRing, FrameView};
use crate::network::{FrameKind, WireStats};

/// RLE opcode: a run of zero bytes in the XOR image (`[0x00, len: u16le]`).
pub(crate) const OP_ZERO_RUN: u8 = 0x00;
/// RLE opcode: literal bytes (`[0x01, len: u16le, bytes...]`).
const OP_LITERAL: u8 = 0x01;
/// RLE opcode: a repeated 8-byte XOR pattern
/// (`[0x02, count: u16le, pattern: 8 bytes]` covering `count * 8` bytes).
/// Pages in the simulator's memory model are a 64-bit word repeated
/// across the page, so the XOR image of two versions is an 8-byte pattern
/// repeated 512× — this op collapses a whole-page delta to 11 bytes.
pub(crate) const OP_PATTERN8: u8 = 0x02;
/// Longest run any opcode can carry.
const MAX_RUN: usize = u16::MAX as usize;

/// Expands a content word to its full 4 KiB page image (the simulator's
/// memory model stores one 64-bit word per page; on the wire the page is
/// the word repeated little-endian across the page).
pub fn expand_word(word: u64) -> Vec<u8> {
    word.to_le_bytes().repeat(PAGE_SIZE as usize / 8)
}

/// Encodes `new` as an XOR+RLE delta against `old`. Both buffers must be
/// the same length. The stream is a sequence of zero-run and literal ops
/// over `old XOR new`; applying it with `delta_decode` against `old`
/// reproduces `new` exactly.
pub fn delta_encode(old: &[u8], new: &[u8]) -> Vec<u8> {
    assert_eq!(old.len(), new.len(), "delta operands must align");
    let n = new.len();
    let mut out = Vec::new();
    // Whole-buffer periodic fast path: when the XOR image is one 8-byte
    // pattern repeated (the common case for uniform pages), a single
    // pattern op covers everything. Skipped for the all-zero pattern,
    // where one zero-run op is smaller still.
    if n >= 16 && n.is_multiple_of(8) && n / 8 <= MAX_RUN {
        let mut pattern = [0u8; 8];
        for (p, (&o, &w)) in pattern.iter_mut().zip(old[..8].iter().zip(&new[..8])) {
            *p = o ^ w;
        }
        let periodic = (8..n).all(|i| (old[i] ^ new[i]) == pattern[i % 8]);
        if periodic && pattern.iter().any(|&b| b != 0) {
            let count = (n / 8) as u16;
            out.push(OP_PATTERN8);
            out.extend_from_slice(&count.to_le_bytes());
            out.extend_from_slice(&pattern);
            return out;
        }
    }
    let mut i = 0usize;
    while i < n {
        if old[i] == new[i] {
            // Zero run in the XOR image.
            let mut j = i;
            while j < n && old[j] == new[j] && j - i < MAX_RUN {
                j += 1;
            }
            let len = (j - i) as u16;
            out.push(OP_ZERO_RUN);
            out.extend_from_slice(&len.to_le_bytes());
            i = j;
        } else {
            let mut j = i;
            while j < n && old[j] != new[j] && j - i < MAX_RUN {
                j += 1;
            }
            let len = (j - i) as u16;
            out.push(OP_LITERAL);
            out.extend_from_slice(&len.to_le_bytes());
            for k in i..j {
                out.push(old[k] ^ new[k]);
            }
            i = j;
        }
    }
    out
}

/// Applies a delta stream to a *uniform* page given only its content
/// word — the zero-copy destination hot path. Returns the new content
/// word exactly when `delta_decode(&expand_word(old_word), delta)`
/// succeeds *and* decodes to a uniform page (the simulator's pages are
/// uniform, so anything else means the delta base diverged from the
/// destination); `None` otherwise. Total on arbitrary bytes, allocates
/// nothing.
///
/// Works by tracking, per byte-offset class modulo 8, the XOR byte each
/// op assigns: the decoded page is uniform iff every class gets a single
/// consistent value, and then the new word is `old ^ pattern`.
pub(crate) fn delta_apply_word(old_word: u64, delta: &[u8]) -> Option<u64> {
    let n = PAGE_SIZE as usize;
    let mut xb: [Option<u8>; 8] = [None; 8];
    let mut uniform = true;
    fn set(xb: &mut [Option<u8>; 8], uniform: &mut bool, class: usize, v: u8) {
        match xb[class] {
            None => xb[class] = Some(v),
            Some(u) if u == v => {}
            Some(_) => *uniform = false,
        }
    }
    let mut pos = 0usize;
    let mut d = 0usize;
    while d < delta.len() {
        let op = delta[d];
        let len_bytes = delta.get(d + 1..d + 3)?;
        let len = u16::from_le_bytes([len_bytes[0], len_bytes[1]]) as usize;
        d += 3;
        let start = pos;
        let end = start.checked_add(len)?;
        if end > n {
            return None;
        }
        match op {
            OP_ZERO_RUN => {
                for k in 0..len.min(8) {
                    set(&mut xb, &mut uniform, (start + k) % 8, 0);
                }
                pos = end;
            }
            OP_LITERAL => {
                let lits = delta.get(d..d + len)?;
                d += len;
                for (k, &b) in lits.iter().enumerate() {
                    set(&mut xb, &mut uniform, (start + k) % 8, b);
                }
                pos = end;
            }
            OP_PATTERN8 => {
                // `len` counts 8-byte repetitions here.
                let pattern = delta.get(d..d + 8)?;
                d += 8;
                let bytes = len.checked_mul(8)?;
                let end = start.checked_add(bytes)?;
                if end > n {
                    return None;
                }
                for k in 0..bytes.min(8) {
                    set(&mut xb, &mut uniform, (start + k) % 8, pattern[k % 8]);
                }
                pos = end;
            }
            _ => return None,
        }
    }
    if pos != n || !uniform {
        return None;
    }
    let ow = old_word.to_le_bytes();
    let mut w = [0u8; 8];
    for (c, b) in w.iter_mut().enumerate() {
        *b = ow[c] ^ xb[c].unwrap_or(0);
    }
    Some(u64::from_le_bytes(w))
}

/// Default cap on committed dedup entries (see
/// [`TransferCache::with_capacity`]). 64 Ki entries ≈ 3 MiB on the source:
/// a 2.5 MiB slab and a 512 KiB index — enough to cover every distinct
/// content word of the fig. 12 fleets while bounding a long-lived
/// engine's memory.
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 16;

/// Smallest bucket array a [`SlotIndex`] allocates.
const MIN_BUCKETS: usize = 16;

/// An open-addressed index from content digest to a non-zero `u32` slot
/// id: the dedup index here, the dedup mirror in the destination proxy.
/// The owner stores each id's content word, not its digest, and every call
/// passes `key`, which recomputes the digest of an id's word
/// ([`content_key`]).
///
/// A power-of-two bucket array holds the ids; 0 marks an empty bucket.
/// Probing is linear from the digest's home bucket, and the table is kept
/// at most half full, so a probe run always ends at an empty bucket.
/// Removal shifts the rest of the run back instead of leaving a
/// tombstone. At 4 bytes a bucket, a 64 Ki-entry index is 512 KiB.
#[derive(Debug, Default)]
pub(crate) struct SlotIndex {
    buckets: Vec<u32>,
    len: usize,
}

impl SlotIndex {
    /// Ids held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// `digest`'s home bucket under `mask`. The key already is two mixed
    /// 64-bit FNV lanes: they are folded together, finished with one
    /// multiply and a high-to-low fold, and masked.
    fn home(digest: Digest128, mask: usize) -> usize {
        let m = (digest.hi.rotate_left(32) ^ digest.lo).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (m ^ (m >> 32)) as usize & mask
    }

    /// The bucket holding `digest`'s id, if any.
    fn position(&self, digest: Digest128, key: impl Fn(u32) -> Digest128) -> Option<usize> {
        let mask = self.buckets.len().checked_sub(1)?;
        let mut b = Self::home(digest, mask);
        loop {
            match self.buckets[b] {
                0 => return None,
                id if key(id) == digest => return Some(b),
                _ => b = (b + 1) & mask,
            }
        }
    }

    /// The id indexed under `digest`.
    pub(crate) fn find(&self, digest: Digest128, key: impl Fn(u32) -> Digest128) -> Option<u32> {
        self.position(digest, key).map(|b| self.buckets[b])
    }

    /// Sizes the table once for `additional` more ids, so that many
    /// inserts rehash at most once.
    pub(crate) fn reserve(&mut self, additional: usize, key: impl Fn(u32) -> Digest128) {
        let need = (self.len + additional).saturating_mul(2);
        if need <= self.buckets.len() {
            return;
        }
        let size = need.next_power_of_two().max(MIN_BUCKETS);
        let old = std::mem::replace(&mut self.buckets, vec![0; size]);
        let mask = size - 1;
        for id in old.into_iter().filter(|&id| id != 0) {
            let mut b = Self::home(key(id), mask);
            while self.buckets[b] != 0 {
                b = (b + 1) & mask;
            }
            self.buckets[b] = id;
        }
    }

    /// Indexes `id` (non-zero) under `digest`, which must not be indexed
    /// yet.
    pub(crate) fn insert(&mut self, digest: Digest128, id: u32, key: impl Fn(u32) -> Digest128) {
        debug_assert!(id != 0, "slot id 0 marks an empty bucket");
        self.reserve(1, key);
        let mask = self.buckets.len() - 1;
        let mut b = Self::home(digest, mask);
        while self.buckets[b] != 0 {
            b = (b + 1) & mask;
        }
        self.buckets[b] = id;
        self.len += 1;
    }

    /// Drops `digest`'s id, if indexed, and returns it. Backward-shift
    /// deletion: each later id of the probe run whose home does not lie
    /// in the cyclic span (hole, its bucket] moves back into the hole, so
    /// every run stays unbroken without tombstones. `key` must still
    /// resolve every indexed id, the removed one included.
    pub(crate) fn remove(
        &mut self,
        digest: Digest128,
        key: impl Fn(u32) -> Digest128,
    ) -> Option<u32> {
        let mut hole = self.position(digest, &key)?;
        let id = self.buckets[hole];
        let mask = self.buckets.len() - 1;
        let mut b = hole;
        loop {
            b = (b + 1) & mask;
            let next = self.buckets[b];
            if next == 0 {
                break;
            }
            let home = Self::home(key(next), mask);
            if b.wrapping_sub(home) & mask >= b.wrapping_sub(hole) & mask {
                self.buckets[hole] = next;
                hole = b;
            }
        }
        self.buckets[hole] = 0;
        self.len -= 1;
        Some(id)
    }

    /// Drops every id; the table keeps its size.
    pub(crate) fn clear(&mut self) {
        self.buckets.fill(0);
        self.len = 0;
    }
}

/// Observability counters of the dedup cache (see [`TransferCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Dedup entries currently held.
    pub occupancy: u64,
    /// Configured entry cap.
    pub capacity: u64,
    /// Entries evicted (LRU) since the cache was created.
    pub evictions: u64,
    /// Dedup lookups that hit since the cache was created.
    pub dup_hits: u64,
    /// Dedup lookups performed since the cache was created (every
    /// non-zero page encode consults the map once).
    pub dup_lookups: u64,
}

/// One dedup entry: the content word, the logical tick of its last touch
/// (insert or dup hit), and its neighbours in the LRU ring. Slot 0 is the
/// ring's sentinel (`next` = least, `prev` = most recently touched); a
/// freed slot keeps only `next`, its link in the free list. The entry's
/// digest is its word's, recomputed where the index needs it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    word: u64,
    touched: u64,
    prev: u32,
    next: u32,
}

/// Slot 0. Its tick is never below `round_start_tick`, so an empty ring —
/// the sentinel its own head — reads as pinned and stops a drain.
const SENTINEL: Slot = Slot {
    word: 0,
    touched: u64::MAX,
    prev: 0,
    next: 0,
};

/// Content the destination has materialised: a [`SlotIndex`] from digest
/// to slot, over a slab threaded as an intrusive LRU ring. Ticks are
/// unique and monotone and every touch moves its entry to the tail, so
/// the ring is sorted by `touched` and its head *is* the minimum
/// `(touched, digest)` a scan of all entries would find: lookup, touch,
/// insert and eviction are O(1), and allocate nothing once slab and index
/// have reached their size.
#[derive(Debug, Default)]
struct DedupLru {
    /// Slab slot ids by digest; slot 0, the sentinel, is never indexed.
    index: SlotIndex,
    slots: Vec<Slot>,
    /// Head of the free-slot list (0: none).
    free: u32,
    /// Max entries before LRU eviction kicks in. A soft cap: entries
    /// touched by the in-flight round are pinned (a `Dup` frame already
    /// encoded this round may reference them), so occupancy can exceed it
    /// by a round's footprint until a later round's insert drains it.
    capacity: usize,
    /// Logical clock driving LRU order: bumps on every insert/hit.
    tick: u64,
    /// Tick at the last `begin_round` — entries touched at or after this
    /// are pinned for the round.
    round_start_tick: u64,
    /// Entries evicted so far (monotonic; never rolled back).
    evictions: u64,
}

/// The digest a dedup table keys `word` under: the one the encoder
/// computed when it inserted the word ([`TransferCache::encode_words_into`]
/// digests the word itself, and [`TransferCache::encode_batch_into`]
/// requires the same value), so a table keeps words and recomputes it.
pub(crate) fn content_key(word: u64) -> Digest128 {
    digest_words(&[word])
}

/// The index's `key`: the digest of the word slab slot `i` holds.
fn slot_digest(slots: &[Slot]) -> impl Fn(u32) -> Digest128 + '_ {
    move |i| content_key(slots[i as usize].word)
}

impl DedupLru {
    fn word(&self, digest: Digest128) -> Option<u64> {
        let i = self.index.find(digest, slot_digest(&self.slots))?;
        Some(self.slots[i as usize].word)
    }

    fn unlink(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        self.slots[prev as usize].next = next;
        self.slots[next as usize].prev = prev;
    }

    /// The LRU touch: stamps slot `i` with a fresh tick and links it in as
    /// the most recently used entry.
    fn link_newest(&mut self, i: u32) {
        self.tick += 1;
        let tail = std::mem::replace(&mut self.slots[0].prev, i);
        self.slots[tail as usize].next = i;
        let slot = &mut self.slots[i as usize];
        (slot.touched, slot.prev, slot.next) = (self.tick, tail, 0);
    }

    /// Drops the entry in slot `i`, which must be held, and recycles the
    /// slot.
    fn remove(&mut self, i: u32) {
        let digest = content_key(self.slots[i as usize].word);
        self.index.remove(digest, slot_digest(&self.slots));
        self.unlink(i);
        self.slots[i as usize].next = std::mem::replace(&mut self.free, i);
    }

    /// Drops every entry; clock, cap and eviction count carry on.
    fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free = 0;
    }

    /// Sizes index and slab once for `inserts` more entries, capped where
    /// every further insert evicts one first: a batch then rehashes at
    /// most once instead of doubling its way up.
    fn reserve(&mut self, inserts: usize) {
        let room = inserts.min(self.capacity.saturating_sub(self.index.len()));
        self.index.reserve(room, slot_digest(&self.slots));
        // The slab recycles its free slots first; slot 0 is the sentinel.
        let slots = self.index.len() + 1 + room;
        self.slots.reserve(slots.saturating_sub(self.slots.len()));
    }

    /// One dedup lookup of `word`, whose digest is `digest`. A hit
    /// refreshes the entry's LRU rank (pinning it for the round) and
    /// returns `None`. A miss inserts `word`, first evicting from the head
    /// while the cache is at its cap, and returns the new entry's slot. A
    /// pinned head (`touched >= round_start_tick`) means every entry is
    /// pinned, and the cap gives way instead.
    ///
    /// Eviction is safe by construction: losing a digest only downgrades
    /// a *future* `Dup` to `Raw`/`Delta`; it never invalidates delta bases
    /// (those live in the per-VM tables) or frames already on the wire.
    fn touch_or_insert(&mut self, digest: Digest128, word: u64) -> Option<u32> {
        if let Some(i) = self.index.find(digest, slot_digest(&self.slots)) {
            self.unlink(i);
            self.link_newest(i);
            return None;
        }
        if self.slots.is_empty() {
            self.slots.push(SENTINEL);
        }
        while self.index.len() >= self.capacity {
            let head = self.slots[0].next;
            if self.slots[head as usize].touched >= self.round_start_tick {
                break;
            }
            self.remove(head);
            self.evictions += 1;
        }
        // `link_newest` fills in the tick and the links.
        let slot = Slot { word, ..SENTINEL };
        let i = match self.free {
            0 => {
                self.slots.push(slot);
                u32::try_from(self.slots.len() - 1).expect("dedup slab outgrew its u32 links")
            }
            free => {
                self.free = self.slots[free as usize].next;
                self.slots[free as usize] = slot;
                free
            }
        };
        self.index.insert(digest, i, slot_digest(&self.slots));
        self.link_newest(i);
        Some(i)
    }
}

/// One VM's delta bases: the last word acked per gfn — the destination's
/// current version of each page — as a flat table over the gfn span sent
/// so far, plus a presence bitmap (an untracked page ships `Raw`, a
/// tracked zero page is a `Delta` base: the two must stay apart).
#[derive(Debug, Default)]
struct SentTable {
    /// First gfn covered; a multiple of 64, so bit `i` of `present` and
    /// `fresh` is always gfn `base + i`.
    base: u64,
    words: Vec<u64>,
    present: Vec<u64>,
    /// The gfns the in-flight round started tracking, a subset of
    /// `present`: rollback untracks them, commit clears the bits.
    fresh: Vec<u64>,
}

/// What [`SentTable::track`] found at a gfn.
#[derive(Debug, PartialEq)]
enum Prior {
    /// Untracked: the gfn is now tracked, and `fresh`.
    Untracked,
    /// A base the in-flight round wrote; rollback untracks the gfn anyway.
    Staged(u64),
    /// A base committed before the round; rollback must restore it.
    Committed(u64),
}

impl SentTable {
    /// Tracked gfns (linear in the span; `forget_vm` only).
    fn len(&self) -> usize {
        self.present.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The index of `gfn`, growing the span to cover it.
    fn slot(&mut self, gfn: u64) -> usize {
        if self.words.is_empty() {
            self.base = gfn & !63;
        } else if gfn < self.base {
            let grow = (self.base - (gfn & !63)) as usize;
            self.words.resize(self.words.len() + grow, 0);
            self.words.rotate_right(grow);
            for bits in [&mut self.present, &mut self.fresh] {
                bits.resize(bits.len() + grow / 64, 0);
                bits.rotate_right(grow / 64);
            }
            self.base -= grow as u64;
        }
        let i = (gfn - self.base) as usize;
        if i >= self.words.len() {
            // Doubling, so a run's one step leaves the capacity that
            // page-by-page growth would.
            reserve_doubling(&mut self.words, (i | 63) + 1);
            self.words.resize((i | 63) + 1, 0);
            for bits in [&mut self.present, &mut self.fresh] {
                reserve_doubling(bits, i / 64 + 1);
                bits.resize(i / 64 + 1, 0);
            }
        }
        i
    }

    /// Sets the base of `gfn` to `word` and says what it replaced.
    fn track(&mut self, gfn: u64, word: u64) -> Prior {
        let i = self.slot(gfn);
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        let prior = if self.present[w] & bit == 0 {
            self.present[w] |= bit;
            self.fresh[w] |= bit;
            Prior::Untracked
        } else if self.fresh[w] & bit != 0 {
            Prior::Staged(self.words[i])
        } else {
            Prior::Committed(self.words[i])
        };
        self.words[i] = word;
        prior
    }

    /// [`SentTable::track`] with word 0 over the `pages` gfns from `gfn`
    /// on, one bitmap word at a time: grows the span once, hands each
    /// overwritten committed base to `committed` in ascending gfn order
    /// (what per-page `track` calls report as [`Prior::Committed`]), and
    /// returns how many gfns it started tracking.
    fn track_zeros(
        &mut self,
        gfn: u64,
        pages: usize,
        mut committed: impl FnMut(u64, u64),
    ) -> usize {
        let first = self.slot(gfn);
        let end = self.slot(gfn + pages as u64 - 1) + 1;
        let mut tracked = 0;
        let mut i = first;
        while i < end {
            let w = i / 64;
            let stop = end.min((w + 1) * 64);
            let mask = (!0u64 >> (64 - (stop - i))) << (i % 64);
            let mut old = mask & self.present[w] & !self.fresh[w];
            while old != 0 {
                let at = w * 64 + old.trailing_zeros() as usize;
                committed(self.base + at as u64, self.words[at]);
                old &= old - 1;
            }
            let new = mask & !self.present[w];
            tracked += new.count_ones() as usize;
            self.present[w] |= new;
            self.fresh[w] |= new;
            i = stop;
        }
        self.words[first..end].fill(0);
        tracked
    }

    /// Rollback of one overwrite: `gfn`'s committed base was `word`.
    fn restore(&mut self, gfn: u64, word: u64) {
        self.words[(gfn - self.base) as usize] = word;
    }

    /// Rollback: untracks every gfn the round started tracking and returns
    /// how many there were.
    fn drop_fresh(&mut self) -> usize {
        let mut dropped = 0;
        for (present, fresh) in self.present.iter_mut().zip(&mut self.fresh) {
            dropped += (*present & *fresh).count_ones() as usize;
            *present &= !std::mem::take(fresh);
        }
        dropped
    }
}

/// One overwritten committed delta base (rollback: restore `prev`).
#[derive(Debug, Clone, Copy)]
struct SentUndo {
    vm: u32,
    gfn: u64,
    prev: u64,
}

/// How one page travels: the verdict `CacheInner::classify` hands the
/// encode loop.
enum PageClass {
    Dup(Digest128),
    Delta { base: u64 },
    Raw,
}

/// Committed + in-flight state of the dedup/delta cache.
#[derive(Debug, Default)]
struct CacheInner {
    dedup: DedupLru,
    /// Delta bases, one table per VM tag.
    sent: HashMap<u32, SentTable>,
    /// Delta bases tracked over all VMs.
    sent_len: usize,
    /// Slots of the entries inserted into `dedup` since `begin_round`
    /// (rollback: remove). Entries the round touches are pinned, so no
    /// slot is freed and reused before the round commits or rolls back.
    journal_dedup: Vec<u32>,
    /// Committed delta bases overwritten since `begin_round` (rollback:
    /// restore). A gfn the round starts tracking is journaled by its
    /// table's `fresh` bit instead.
    journal_sent: Vec<SentUndo>,
    /// VMs whose tables the round has encoded into, so may hold `fresh`
    /// bits (rollback: untrack them; commit: clear them).
    journal_fresh: Vec<u32>,
    /// Dedup lookups that hit (monotonic observability counter).
    dup_hits: u64,
    /// Dedup lookups performed (monotonic observability counter).
    dup_lookups: u64,
}

impl CacheInner {
    fn with_capacity(capacity: usize) -> Self {
        CacheInner {
            dedup: DedupLru {
                capacity,
                ..DedupLru::default()
            },
            ..CacheInner::default()
        }
    }

    /// Runs `f` with `vm`'s delta-base table resolved once, however many
    /// pages `f` classifies: the table is lifted out of the map for the
    /// call and put back after it. Lists `vm` in `journal_fresh`, since
    /// `f` may start tracking gfns.
    fn with_table<R>(&mut self, vm: u32, f: impl FnOnce(&mut Self, &mut SentTable) -> R) -> R {
        if !self.journal_fresh.contains(&vm) {
            self.journal_fresh.push(vm);
        }
        let mut table = std::mem::take(self.sent.entry(vm).or_default());
        let r = f(self, &mut table);
        self.sent.insert(vm, table);
        r
    }

    /// The round's state becomes committed: the journals empty, and the
    /// bases it started tracking stop being `fresh`.
    fn commit(&mut self) {
        self.journal_dedup.clear();
        self.journal_sent.clear();
        for vm in self.journal_fresh.drain(..) {
            if let Some(table) = self.sent.get_mut(&vm) {
                table.fresh.fill(0);
            }
        }
    }

    /// Classifies the `pages` zero words at the gfns from `gfn` on: every
    /// one is a `Zero` frame. The destination materialises zeros locally,
    /// but each is tracked as a zero delta base all the same, so a later
    /// non-zero version can delta against a zero page.
    fn classify_zeros(&mut self, table: &mut SentTable, vm: u32, gfn: u64, pages: usize) {
        let journal = &mut self.journal_sent;
        self.sent_len += table.track_zeros(gfn, pages, |gfn, prev| {
            journal.push(SentUndo { vm, gfn, prev });
        });
    }

    /// Classifies one non-zero page and journals the cache mutations the
    /// destination will perform when it applies the frame.
    ///
    /// Classification order: dedup hit, delta against the last acked
    /// version, raw. `digest` fingerprints `word`.
    fn classify(
        &mut self,
        table: &mut SentTable,
        vm: u32,
        gfn: u64,
        word: u64,
        digest: impl FnOnce() -> Digest128,
    ) -> PageClass {
        let prev = match table.track(gfn, word) {
            Prior::Untracked => {
                self.sent_len += 1;
                None
            }
            Prior::Staged(base) => Some(base),
            Prior::Committed(base) => {
                self.journal_sent.push(SentUndo {
                    vm,
                    gfn,
                    prev: base,
                });
                Some(base)
            }
        };
        let digest = digest();
        self.dup_lookups += 1;
        let Some(slot) = self.dedup.touch_or_insert(digest, word) else {
            self.dup_hits += 1;
            return PageClass::Dup(digest);
        };
        self.journal_dedup.push(slot);
        match prev {
            Some(base) if base != word => PageClass::Delta { base },
            // `base == word` reaches here only when the word's digest was
            // evicted after `base` shipped (a dedup hit would otherwise
            // have fired above); the re-send ships raw, which is always
            // correct. An untracked page ships raw too.
            _ => PageClass::Raw,
        }
    }
}

/// How many of `words` from the first on are zero at the consecutive gfns
/// from `first` on (at least one: `words[0]` must be zero).
fn zero_run(first: u64, gfns: &[Gfn], words: &[u64]) -> usize {
    gfns.iter()
        .zip(words)
        .zip(0u64..)
        .take_while(|&((g, &w), k)| w == 0 && first.checked_add(k) == Some(g.0))
        .count()
}

/// The destination-synchronised dedup/delta cache. Cheap to clone —
/// clones share state, which is exactly what `migrate_many` wants: VMs
/// migrated through the same engine dedup against each other's pages
/// (shared template content crosses the wire once).
#[derive(Debug, Clone)]
pub struct TransferCache {
    inner: Arc<Mutex<CacheInner>>,
}

impl Default for TransferCache {
    fn default() -> Self {
        TransferCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl TransferCache {
    /// A fresh, empty cache with the default entry cap
    /// ([`DEFAULT_CACHE_CAPACITY`]).
    pub fn new() -> Self {
        TransferCache::default()
    }

    /// A fresh cache capped at `capacity` committed dedup entries
    /// (minimum 1). The cap is soft — entries touched by the in-flight
    /// round are pinned — and eviction-only-safe: overflowing it can only
    /// downgrade future `Dup` frames to `Raw`/`Delta`, never corrupt a
    /// transfer.
    pub fn with_capacity(capacity: usize) -> Self {
        TransferCache {
            inner: Arc::new(Mutex::new(CacheInner::with_capacity(capacity.max(1)))),
        }
    }

    /// The configured dedup entry cap.
    pub fn capacity(&self) -> usize {
        self.lock().dedup.capacity
    }

    /// Observability counters: occupancy, capacity, evictions, dup
    /// hit/lookup totals.
    pub fn stats(&self) -> CacheStats {
        let c = self.lock();
        CacheStats {
            occupancy: c.dedup.index.len() as u64,
            capacity: c.dedup.capacity as u64,
            evictions: c.dedup.evictions,
            dup_hits: c.dup_hits,
            dup_lookups: c.dup_lookups,
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().expect("transfer cache poisoned")
    }

    /// Opens a transactional round: mutations from here to
    /// [`TransferCache::commit_round`] can be undone by
    /// [`TransferCache::rollback_round`].
    pub fn begin_round(&self) {
        let mut c = self.lock();
        debug_assert!(
            c.journal_dedup.is_empty() && c.journal_sent.is_empty() && c.journal_fresh.is_empty(),
            "previous round neither committed nor rolled back"
        );
        c.commit();
        // Entries touched from here on are pinned against eviction until
        // the round commits or rolls back: frames already encoded this
        // round may reference them.
        c.dedup.round_start_tick = c.dedup.tick + 1;
    }

    /// The destination acked the round: in-flight state becomes committed.
    pub fn commit_round(&self) {
        self.lock().commit();
    }

    /// The round was lost on the wire: undo every mutation since
    /// [`TransferCache::begin_round`], restoring the last committed state
    /// (what the destination actually holds).
    pub fn rollback_round(&self) {
        let c = &mut *self.lock();
        for slot in c.journal_dedup.drain(..) {
            c.dedup.remove(slot);
        }
        for vm in c.journal_fresh.drain(..) {
            if let Some(table) = c.sent.get_mut(&vm) {
                c.sent_len -= table.drop_fresh();
            }
        }
        // Restore in reverse so the oldest snapshot of a twice-written key
        // wins.
        for undo in c.journal_sent.drain(..).rev() {
            if let Some(table) = c.sent.get_mut(&undo.vm) {
                table.restore(undo.gfn, undo.prev);
            }
        }
    }

    /// Drops every entry belonging to `vm` (the destination shell was
    /// torn down after an abandoned migration; its pages no longer exist
    /// on the other side). Dedup entries stay: they are owned by whichever
    /// VMs committed them — but when no other VM holds the content the
    /// conservative choice is to drop the whole dedup map, which is what
    /// this does. Correctness never depends on dedup hits, only on the
    /// map never claiming content the destination lacks.
    pub fn forget_vm(&self, vm: u32) {
        let mut c = self.lock();
        if let Some(table) = c.sent.remove(&vm) {
            c.sent_len -= table.len();
        }
        c.dedup.clear();
        c.journal_dedup.clear();
        c.journal_sent.retain(|undo| undo.vm != vm);
        c.journal_fresh.retain(|&tag| tag != vm);
    }

    /// Wipes everything (tests; or a destination host restart). The
    /// configured capacity survives; counters restart from zero.
    pub fn clear(&self) {
        let mut c = self.lock();
        *c = CacheInner::with_capacity(c.dedup.capacity);
    }

    /// Committed dedup entries (diagnostics).
    pub fn dedup_len(&self) -> usize {
        self.lock().dedup.index.len()
    }

    /// Tracked (vm, gfn) delta bases (diagnostics).
    pub fn sent_len(&self) -> usize {
        self.lock().sent_len
    }

    /// Encodes a batch of pages straight into `ring` under **one** lock
    /// acquisition, journalling the cache mutations the destination will
    /// perform when it applies the frames (see `CacheInner::classify` for
    /// the classification order) and tallying each frame into `stats`.
    /// Each non-zero word is digested as it is classified; a run of zero
    /// words at consecutive gfns is booked a bitmap word at a time, with
    /// the cache and ring changes one page at a time would make. Returns
    /// the accounted wire bytes of the batch. The simulator's pages are
    /// uniform, so a re-dirtied page's delta is the ≤11-byte word-level
    /// stream, which always beats a raw page.
    pub fn encode_words_into(
        &self,
        vm: u32,
        gfns: &[Gfn],
        words: &[u64],
        ring: &mut FrameRing,
        stats: &mut WireStats,
    ) -> u64 {
        self.encode_extent(vm, gfns, words, ring, stats, |_, word| content_key(word))
    }

    /// [`TransferCache::encode_words_into`] with the digests precomputed
    /// by the caller: `digests[i]` must equal `digest_words(&[words[i]])`
    /// and is only read for non-zero words. Frames, bytes and cache state
    /// are identical.
    pub fn encode_batch_into(
        &self,
        vm: u32,
        gfns: &[Gfn],
        words: &[u64],
        digests: &[Digest128],
        ring: &mut FrameRing,
    ) -> u64 {
        let stats = &mut WireStats::new();
        self.encode_extent(vm, gfns, words, ring, stats, |i, _| digests[i])
    }

    /// The loop the batch entries share; `digest(i, word)` fingerprints
    /// page `i`, and is only called when `word` is non-zero. Each push is
    /// tallied into `stats`.
    fn encode_extent(
        &self,
        vm: u32,
        gfns: &[Gfn],
        words: &[u64],
        ring: &mut FrameRing,
        stats: &mut WireStats,
        digest: impl Fn(usize, u64) -> Digest128,
    ) -> u64 {
        debug_assert_eq!(gfns.len(), words.len());
        let mut c = self.lock();
        c.dedup.reserve(words.iter().filter(|&&w| w != 0).count());
        c.with_table(vm, |c, table| {
            let mut wire_bytes = 0u64;
            let mut i = 0;
            while i < gfns.len() {
                let (g, word) = (gfns[i].0, words[i]);
                if word == 0 {
                    // A run of zero words at consecutive gfns is booked a
                    // bitmap word and a ring reserve at a time.
                    let run = zero_run(g, &gfns[i..], &words[i..]);
                    c.classify_zeros(table, vm, g, run);
                    let bytes = ring.push_zeros(g, run);
                    stats.record_frames(FrameKind::Zero, run as u64, bytes);
                    wire_bytes += bytes;
                    i += run;
                    continue;
                }
                let (kind, bytes) = match c.classify(table, vm, g, word, || digest(i, word)) {
                    PageClass::Dup(digest) => (FrameKind::Dup, ring.push_dup(g, digest)),
                    PageClass::Delta { base } => {
                        (FrameKind::Delta, ring.push_delta_words(g, base, word))
                    }
                    PageClass::Raw => (FrameKind::Raw, ring.push_raw(g, word)),
                };
                stats.record_frames(kind, 1, bytes);
                wire_bytes += bytes;
                i += 1;
            }
            wire_bytes
        })
    }

    /// Applies a borrowed serialized frame on the destination side, given
    /// the destination's current content word for the page. Returns the
    /// page's new word, or `None` when the frame is inconsistent with the
    /// destination's state (a dup for unknown content; a delta that does
    /// not decode to a uniform page) — an integrity violation for the
    /// engine to surface. Deltas apply word-level, so no page is expanded.
    pub fn apply_view(&self, view: &FrameView<'_>, dst_current: u64) -> Option<u64> {
        view.resolve(dst_current, |digest| self.lock().dedup.word(digest))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Delta-encodes two *uniform* pages directly from their content words:
    /// the reference `FrameRing::push_delta_words` is pinned to.
    /// Byte-identical to
    /// `delta_encode(&expand_word(old_word), &expand_word(new_word))` without
    /// expanding either page: the XOR image of two uniform pages is the
    /// words' XOR repeated, which is exactly one pattern op (or one zero-run
    /// op when the words are equal).
    pub(crate) fn delta_encode_words_into(old_word: u64, new_word: u64, out: &mut Vec<u8>) {
        out.clear();
        let x = old_word ^ new_word;
        if x == 0 {
            // Equal pages: the zero-run loop emits a single full-page run.
            out.push(OP_ZERO_RUN);
            out.extend_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
        } else {
            out.push(OP_PATTERN8);
            out.extend_from_slice(&((PAGE_SIZE / 8) as u16).to_le_bytes());
            out.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Applies a [`delta_encode`] stream to `old`, returning the
    /// reconstructed buffer, or `None` if the stream is malformed (truncated
    /// op, bad opcode, or coverage not exactly `old.len()`). Total: never
    /// panics on arbitrary bytes.
    pub(crate) fn delta_decode(old: &[u8], delta: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(old.len());
        let mut d = 0usize;
        while d < delta.len() {
            let op = delta[d];
            let len_bytes = delta.get(d + 1..d + 3)?;
            let len = u16::from_le_bytes([len_bytes[0], len_bytes[1]]) as usize;
            d += 3;
            let start = out.len();
            let end = start.checked_add(len)?;
            if end > old.len() {
                return None;
            }
            match op {
                OP_ZERO_RUN => out.extend_from_slice(&old[start..end]),
                OP_LITERAL => {
                    let lits = delta.get(d..d + len)?;
                    d += len;
                    out.extend(lits.iter().zip(&old[start..end]).map(|(&x, &o)| x ^ o));
                }
                OP_PATTERN8 => {
                    // `len` counts 8-byte repetitions here.
                    let pattern = delta.get(d..d + 8)?;
                    d += 8;
                    let end = start.checked_add(len.checked_mul(8)?)?;
                    if end > old.len() {
                        return None;
                    }
                    out.extend(
                        old[start..end]
                            .iter()
                            .enumerate()
                            .map(|(k, &o)| o ^ pattern[k % 8]),
                    );
                }
                _ => return None,
            }
        }
        if out.len() == old.len() {
            Some(out)
        } else {
            None
        }
    }
    use crate::network::WIRE_FRAME_HEADER;
    use hypertp_sim::SimRng;

    /// One page's frame, in a ring of its own.
    struct Sent(FrameRing);

    impl Sent {
        fn view(&self) -> FrameView<'_> {
            self.0.iter().next().expect("one frame")
        }

        fn kind(&self) -> FrameKind {
            self.view().kind
        }

        fn wire_bytes(&self) -> u64 {
            self.view().wire_bytes()
        }

        /// The word a destination holding `current` lands.
        fn apply(&self, cache: &TransferCache, current: u64) -> Option<u64> {
            cache.apply_view(&self.view(), current)
        }
    }

    /// Encodes `word` at `vm`'s `gfn` as a batch of one page.
    fn send(cache: &TransferCache, vm: u32, gfn: u64, word: u64) -> Sent {
        let mut ring = FrameRing::new();
        let stats = &mut WireStats::new();
        cache.encode_words_into(vm, &[Gfn(gfn)], &[word], &mut ring, stats);
        Sent(ring)
    }

    /// A `Dup` frame for `digest`, whether or not the cache holds it.
    fn dup_of(digest: Digest128) -> Sent {
        let mut ring = FrameRing::new();
        ring.push_dup(0, digest);
        Sent(ring)
    }

    /// Checks `index` against `model` (digest → id) with `keys[id]` the
    /// digest of `id`: the same ids are found, nothing else is, the table
    /// is at most half full, and every id sits on an unbroken probe run
    /// from its home bucket.
    fn assert_index_matches(
        index: &SlotIndex,
        keys: &[Digest128],
        model: &HashMap<Digest128, u32>,
        step: &str,
    ) {
        let key = |id: u32| keys[id as usize];
        assert_eq!(index.len(), model.len(), "{step}: len");
        assert!(
            index.len() * 2 <= index.buckets.len(),
            "{step}: over half full"
        );
        for (&digest, &id) in model {
            assert_eq!(index.find(digest, key), Some(id), "{step}: lost {id}");
        }
        let mask = index.buckets.len().wrapping_sub(1);
        for (b, &id) in index.buckets.iter().enumerate().filter(|(_, &id)| id != 0) {
            assert_eq!(
                model.get(&keys[id as usize]),
                Some(&id),
                "{step}: stray {id}"
            );
            let mut at = SlotIndex::home(keys[id as usize], mask);
            while at != b {
                assert_ne!(index.buckets[at], 0, "{step}: run of {id} broken at {at}");
                at = (at + 1) & mask;
            }
        }
    }

    /// Seeded insert/find/remove scripts over a small digest pool (so
    /// removals hit, ids churn and probe runs collide) against a
    /// `HashMap` reference.
    #[test]
    fn slot_index_matches_a_hash_map_model() {
        let pool: Vec<Digest128> = (1..=96u64).map(|w| digest_words(&[w])).collect();
        let absent = digest_words(&[1000]);
        for seed in 0..32 {
            let mut rng = SimRng::new(0x5107 + seed);
            let mut index = SlotIndex::default();
            // `keys[id]` is id's digest; id 0 is never handed out.
            let mut keys = vec![Digest128 { hi: 0, lo: 0 }];
            let mut model: HashMap<Digest128, u32> = HashMap::new();
            for step in 0..600 {
                let digest = pool[rng.gen_range(pool.len() as u64) as usize];
                let step = format!("seed {seed} step {step}");
                match rng.gen_range(3) {
                    0 | 1 if !model.contains_key(&digest) => {
                        let id = keys.len() as u32;
                        keys.push(digest);
                        index.insert(digest, id, |id| keys[id as usize]);
                        model.insert(digest, id);
                    }
                    0 | 1 => {}
                    _ => assert_eq!(
                        index.remove(digest, |id| keys[id as usize]),
                        model.remove(&digest),
                        "{step}: remove"
                    ),
                }
                assert_eq!(index.find(absent, |id| keys[id as usize]), None);
                assert_index_matches(&index, &keys, &model, &step);
            }
            index.clear();
            model.clear();
            assert_index_matches(&index, &keys, &model, "cleared");
        }
    }

    /// A probe run that wraps from the last bucket to bucket 0 of a
    /// 16-bucket table, emptied from the middle: backward shift must move
    /// exactly the ids whose home lies at or before the hole, across the
    /// wrap, and leave the others where they are.
    #[test]
    fn slot_index_removal_shifts_back_across_the_wrap() {
        let mask = MIN_BUCKETS - 1;
        let homed = |home: usize, n: usize| -> Vec<Digest128> {
            (1u64..)
                .map(|w| digest_words(&[w]))
                .filter(|&d| SlotIndex::home(d, mask) == home)
                .take(n)
                .collect()
        };
        // Three ids homed at 15 (buckets 15, 0, 1), one homed at 0
        // (bucket 2), one at 2 (bucket 3), and one at 5, off the run.
        let mut digests = homed(15, 3);
        digests.extend(homed(0, 1));
        digests.extend(homed(2, 1));
        digests.extend(homed(5, 1));
        let mut keys = vec![Digest128 { hi: 0, lo: 0 }];
        keys.extend(&digests);
        let key = |id: u32| keys[id as usize];
        let mut index = SlotIndex::default();
        let mut model = HashMap::new();
        for (i, &digest) in digests.iter().enumerate() {
            index.insert(digest, i as u32 + 1, key);
            model.insert(digest, i as u32 + 1);
        }
        assert_eq!(index.buckets.len(), MIN_BUCKETS);
        assert_eq!(
            index.buckets,
            [2, 3, 4, 5, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
            "the run wraps from bucket 15 to bucket 0"
        );
        assert_index_matches(&index, &keys, &model, "filled");
        // Remove from the middle of the wrapped run, then the rest.
        for (n, i) in [1usize, 3, 0, 4, 2, 5].into_iter().enumerate() {
            assert_eq!(index.remove(digests[i], key), Some(i as u32 + 1));
            model.remove(&digests[i]);
            assert_index_matches(&index, &keys, &model, &format!("removal {n}"));
            if n == 0 {
                // Bucket 0's id went; 3 (home 15) and 4 (home 0) shift
                // back, and 5 (home 2) follows into bucket 2.
                assert_eq!(
                    index.buckets,
                    [3, 4, 5, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]
                );
            }
        }
        assert!(index.buckets.iter().all(|&id| id == 0));
    }

    #[test]
    fn expand_word_shape() {
        let p = expand_word(0x0102_0304_0506_0708);
        assert_eq!(p.len(), PAGE_SIZE as usize);
        assert_eq!(&p[..8], &0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(&p[8..16], &p[..8]);
        assert!(expand_word(0).iter().all(|&b| b == 0));
    }

    #[test]
    fn delta_roundtrip_identity_and_disjoint() {
        let old = expand_word(0xdead_beef);
        // Identical pages: a couple of zero-run ops, tiny stream.
        let d = delta_encode(&old, &old);
        assert!(d.len() <= 6, "identity delta is {} bytes", d.len());
        assert_eq!(delta_decode(&old, &d).unwrap(), old);
        // Single-byte change per word: mostly zero runs.
        let new = expand_word(0xdead_beef ^ 0x41);
        let d = delta_encode(&old, &new);
        assert!(d.len() < PAGE_SIZE as usize / 2, "sparse delta pays");
        assert_eq!(delta_decode(&old, &d).unwrap(), new);
    }

    #[test]
    fn delta_property_random_mutations() {
        // Seeded property test: arbitrary byte-level mutations of a 4 KiB
        // page always round-trip, and the stream is never absurdly large.
        let mut rng = SimRng::new(0xde17a);
        for case in 0..200 {
            let old = expand_word(rng.next_u64());
            let mut new = old.clone();
            let mutations = rng.gen_range(64) as usize;
            for _ in 0..mutations {
                let at = rng.gen_range(PAGE_SIZE) as usize;
                new[at] ^= (rng.gen_range(255) + 1) as u8;
            }
            let d = delta_encode(&old, &new);
            assert_eq!(
                delta_decode(&old, &d).as_deref(),
                Some(new.as_slice()),
                "case {case}"
            );
            // Worst case: alternating ops cost ≤ 4 bytes/byte + slack.
            assert!(d.len() <= 4 * PAGE_SIZE as usize + 8, "case {case}");
            // Wrong base must not silently succeed as the right page.
            let wrong = expand_word(rng.next_u64());
            if wrong != old {
                if let Some(p) = delta_decode(&wrong, &d) {
                    assert_ne!(p, new, "case {case}: wrong base produced right page");
                }
            }
        }
    }

    #[test]
    fn word_level_encode_matches_expanded_encode() {
        // The zero-copy fast path must emit byte-identical streams to the
        // page-expanding encoder for every pair of uniform pages.
        let mut rng = SimRng::new(0x0e17_c0de);
        let mut fast = Vec::new();
        for case in 0..500 {
            let old = rng.next_u64();
            let new = if case % 7 == 0 { old } else { rng.next_u64() };
            delta_encode_words_into(old, new, &mut fast);
            assert_eq!(
                fast,
                delta_encode(&expand_word(old), &expand_word(new)),
                "case {case}: old={old:#x} new={new:#x}"
            );
        }
        // Scratch reuse never regrows after the first call.
        let cap = fast.capacity();
        for i in 0..64u64 {
            delta_encode_words_into(i, i ^ 0xff, &mut fast);
        }
        assert_eq!(fast.capacity(), cap);
    }

    #[test]
    fn word_level_apply_matches_expanded_apply() {
        // delta_apply_word must agree with decode-then-uniform-check on
        // real deltas, garbage streams, and mismatched bases alike.
        let mut rng = SimRng::new(0xa117);
        let legacy = |old_word: u64, delta: &[u8]| -> Option<u64> {
            let old = expand_word(old_word);
            let page = delta_decode(&old, delta)?;
            let word = u64::from_le_bytes(page[..8].try_into().ok()?);
            if page == expand_word(word) {
                Some(word)
            } else {
                None
            }
        };
        for case in 0..400 {
            let base = rng.next_u64();
            let delta: Vec<u8> = match case % 4 {
                0 => delta_encode(&expand_word(base), &expand_word(rng.next_u64())),
                1 => {
                    // A non-uniform mutation: decodes but fails uniformity.
                    let mut new = expand_word(base);
                    let at = rng.gen_range(PAGE_SIZE) as usize;
                    new[at] ^= 1 + rng.gen_range(255) as u8;
                    delta_encode(&expand_word(base), &new)
                }
                2 => {
                    let len = rng.gen_range(48) as usize;
                    (0..len).map(|_| rng.gen_range(256) as u8).collect()
                }
                _ => {
                    // Valid delta applied against the wrong base word.
                    delta_encode(&expand_word(rng.next_u64()), &expand_word(rng.next_u64()))
                }
            };
            assert_eq!(
                delta_apply_word(base, &delta),
                legacy(base, &delta),
                "case {case}"
            );
        }
        assert_eq!(delta_apply_word(7, &[]), None);
        assert_eq!(delta_apply_word(7, &[OP_ZERO_RUN]), None);
    }

    #[test]
    fn delta_decode_is_total_on_garbage() {
        let old = expand_word(7);
        let mut rng = SimRng::new(0x6a6b);
        for _ in 0..500 {
            let len = rng.gen_range(64) as usize;
            let junk: Vec<u8> = (0..len).map(|_| rng.gen_range(256) as u8).collect();
            // Must not panic; may decode or reject.
            let _ = delta_decode(&old, &junk);
        }
        assert_eq!(delta_decode(&old, &[]), None, "empty covers nothing");
        assert_eq!(delta_decode(&old, &[OP_ZERO_RUN]), None, "truncated op");
        assert_eq!(delta_decode(&old, &[0x7f, 0, 16]), None, "bad opcode");
    }

    #[test]
    fn encode_classifies_zero_dup_delta_raw() {
        let cache = TransferCache::new();
        cache.begin_round();
        assert_eq!(send(&cache, 0, 1, 0).kind(), FrameKind::Zero);
        assert_eq!(send(&cache, 0, 2, 0xaaaa).kind(), FrameKind::Raw);
        // Same content, different page / different VM: dedup.
        assert_eq!(send(&cache, 0, 3, 0xaaaa).kind(), FrameKind::Dup);
        assert_eq!(send(&cache, 1, 9, 0xaaaa).kind(), FrameKind::Dup);
        cache.commit_round();
        // Page 2 re-dirtied with a near value: delta beats raw.
        cache.begin_round();
        let f = send(&cache, 0, 2, 0xaaab);
        assert_eq!(f.kind(), FrameKind::Delta);
        assert!(f.wire_bytes() < WIRE_FRAME_HEADER + PAGE_SIZE);
        // And the destination, holding 0xaaaa, reconstructs 0xaaab.
        assert_eq!(f.apply(&cache, 0xaaaa), Some(0xaaab));
        cache.commit_round();
    }

    #[test]
    fn apply_matches_encode_for_all_kinds() {
        let cache = TransferCache::new();
        cache.begin_round();
        let raw = send(&cache, 0, 1, 0x1234);
        assert_eq!(raw.apply(&cache, 0), Some(0x1234));
        let dup = send(&cache, 0, 2, 0x1234);
        assert_eq!(dup.kind(), FrameKind::Dup);
        assert_eq!(dup.apply(&cache, 0), Some(0x1234));
        let zero = send(&cache, 0, 3, 0);
        assert_eq!(zero.apply(&cache, 0xffff), Some(0));
        cache.commit_round();
    }

    #[test]
    fn dup_for_unknown_content_is_rejected() {
        let cache = TransferCache::new();
        let frame = dup_of(digest_words(&[0x5555]));
        assert_eq!(frame.apply(&cache, 0), None);
    }

    #[test]
    fn rollback_restores_committed_state() {
        let cache = TransferCache::new();
        cache.begin_round();
        assert_eq!(send(&cache, 0, 1, 0xcafe).kind(), FrameKind::Raw);
        cache.commit_round();
        assert_eq!(cache.dedup_len(), 1);

        // A round that never reaches the destination.
        cache.begin_round();
        assert_eq!(send(&cache, 0, 2, 0xf00d).kind(), FrameKind::Raw);
        assert_eq!(send(&cache, 0, 1, 0xf00d).kind(), FrameKind::Dup);
        cache.rollback_round();
        assert_eq!(cache.dedup_len(), 1, "0xf00d never arrived");
        assert_eq!(cache.sent_len(), 1, "gfn 2 never arrived");

        // Re-encoding after rollback must not emit a Dup for content the
        // destination lacks, and gfn 1's base must still be 0xcafe.
        cache.begin_round();
        assert_eq!(send(&cache, 0, 2, 0xf00d).kind(), FrameKind::Raw);
        let f = send(&cache, 0, 1, 0xcaff);
        assert_eq!(f.kind(), FrameKind::Delta);
        assert_eq!(f.apply(&cache, 0xcafe), Some(0xcaff));
        cache.commit_round();
    }

    #[test]
    fn rollback_restores_oldest_snapshot_of_twice_written_key() {
        let cache = TransferCache::new();
        cache.begin_round();
        send(&cache, 0, 5, 0x11);
        cache.commit_round();
        cache.begin_round();
        send(&cache, 0, 5, 0x22);
        send(&cache, 0, 5, 0x33);
        cache.rollback_round();
        // Delta base for gfn 5 must be back to 0x11: encoding 0x44 as a
        // delta against 0x11 must decode against a dest holding 0x11.
        cache.begin_round();
        let f = send(&cache, 0, 5, 0x1111_0011);
        if f.kind() == FrameKind::Delta {
            assert_eq!(f.apply(&cache, 0x11), Some(0x1111_0011));
        }
        cache.commit_round();
    }

    #[test]
    fn forget_vm_drops_its_delta_bases() {
        let cache = TransferCache::new();
        cache.begin_round();
        send(&cache, 0, 1, 0xaa);
        send(&cache, 1, 1, 0xbb);
        cache.commit_round();
        cache.forget_vm(0);
        assert_eq!(cache.sent_len(), 1, "vm1's base survives");
        assert_eq!(cache.dedup_len(), 0, "dedup conservatively dropped");
        // vm0's page must ship raw again (no stale delta base).
        cache.begin_round();
        assert_eq!(send(&cache, 0, 1, 0xab).kind(), FrameKind::Raw);
        cache.commit_round();
    }

    #[test]
    fn capped_cache_evicts_lru_and_downgrades_future_dups() {
        let cache = TransferCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        cache.begin_round();
        send(&cache, 0, 1, 0x01);
        send(&cache, 0, 2, 0x02);
        cache.commit_round();
        // Touch 0x01 so 0x02 is the LRU entry.
        cache.begin_round();
        assert_eq!(send(&cache, 0, 3, 0x01).kind(), FrameKind::Dup);
        cache.commit_round();
        // Inserting 0x03 evicts 0x02 (LRU), not 0x01.
        cache.begin_round();
        assert_eq!(send(&cache, 0, 4, 0x03).kind(), FrameKind::Raw);
        cache.commit_round();
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.occupancy, 2);
        cache.begin_round();
        assert_eq!(
            send(&cache, 0, 5, 0x01).kind(),
            FrameKind::Dup,
            "recently used entry survives"
        );
        // 0x02's digest was evicted: the future reference downgrades to
        // Raw — never an unreconstructable Dup.
        assert_eq!(send(&cache, 0, 6, 0x02).kind(), FrameKind::Raw);
        cache.commit_round();
        let s = cache.stats();
        assert!(s.dup_lookups >= 6);
        assert_eq!(s.dup_hits, 2);
    }

    #[test]
    fn entries_touched_this_round_are_pinned_against_eviction() {
        // Capacity 1, but a round that references its own insert must not
        // evict it: the Dup frame already encoded would dangle.
        let cache = TransferCache::with_capacity(1);
        cache.begin_round();
        let raw = send(&cache, 0, 1, 0xaa);
        assert_eq!(raw.kind(), FrameKind::Raw);
        // Same round: new content wants a slot, but 0xaa is pinned — the
        // soft cap lets occupancy overflow instead.
        let raw2 = send(&cache, 0, 2, 0xbb);
        assert_eq!(raw2.kind(), FrameKind::Raw);
        let dup = send(&cache, 0, 3, 0xaa);
        assert_eq!(dup.kind(), FrameKind::Dup);
        assert_eq!(dup.apply(&cache, 0), Some(0xaa), "no dangling dup");
        cache.commit_round();
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().occupancy, 2, "soft cap overflowed by one");
        // Next round the cap is enforced again: inserting 0xcc drains both
        // unpinned entries before taking its slot.
        cache.begin_round();
        send(&cache, 0, 4, 0xcc);
        cache.commit_round();
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.stats().occupancy, 1, "back at the cap");
    }

    #[test]
    fn sent_table_tracks_sparse_descending_and_zero_bases() {
        let mut t = SentTable::default();
        assert_eq!(t.track(1000, 0), Prior::Untracked);
        assert_eq!(t.base, 960);
        assert_eq!(t.track(1000, 7), Prior::Staged(0), "a zero base is a base");
        // Below the span: the table grows downwards by whole bitmap words,
        // and `fresh` moves with `present`.
        assert_eq!(t.track(130, 9), Prior::Untracked);
        assert_eq!((t.base, t.words.len()), (128, 1024 - 128));
        assert_eq!(t.fresh, t.present);
        t.fresh.fill(0);
        assert_eq!(t.track(1000, 1), Prior::Committed(7));
        assert_eq!(t.track(5000, 2), Prior::Untracked);
        assert_eq!(t.drop_fresh(), 1, "only gfn 5000 is new since the commit");
        t.restore(1000, 7);
        assert_eq!(t.track(1000, 7), Prior::Committed(7));
        assert_eq!(t.track(130, 3), Prior::Committed(9));
        assert_eq!(t.len(), 2);
    }

    /// `track_zeros` is a loop of `track(gfn, 0)`: the same table, the
    /// same committed bases reported in the same order, and the same count
    /// of newly tracked gfns — for runs inside one bitmap word, across
    /// several, left of the span, right of it and over staged, committed
    /// and untracked gfns.
    #[test]
    fn track_zeros_equals_a_loop_of_track() {
        let state = |t: &SentTable| (t.base, t.words.clone(), t.present.clone(), t.fresh.clone());
        for seed in 0..64 {
            let mut rng = SimRng::new(0x2e60 + seed);
            let (mut bulk, mut looped) = (SentTable::default(), SentTable::default());
            for step in 0..40 {
                let gfn = 1000 + rng.gen_range(400);
                let pages = 1 + rng.gen_range(150) as usize;
                match rng.gen_range(4) {
                    0 => {
                        for g in gfn..gfn + pages as u64 {
                            let word = rng.gen_range(3) * 0x51;
                            assert_eq!(bulk.track(g, word), looped.track(g, word));
                        }
                    }
                    1 => {
                        bulk.fresh.fill(0);
                        looped.fresh.fill(0);
                    }
                    _ => {
                        let mut want = Vec::new();
                        let mut tracked = 0;
                        for g in gfn..gfn + pages as u64 {
                            match looped.track(g, 0) {
                                Prior::Untracked => tracked += 1,
                                Prior::Committed(prev) => want.push((g, prev)),
                                Prior::Staged(_) => {}
                            }
                        }
                        let mut got = Vec::new();
                        let n = bulk.track_zeros(gfn, pages, |g, prev| got.push((g, prev)));
                        let ctx = format!("seed {seed} step {step}: {pages} from {gfn}");
                        assert_eq!((n, got), (tracked, want), "{ctx}");
                    }
                }
                assert_eq!(state(&bulk), state(&looped), "seed {seed} step {step}");
            }
        }
    }

    /// `vm`'s delta base at `gfn`, read straight from its table.
    fn base_of(cache: &TransferCache, vm: u32, gfn: u64) -> Option<u64> {
        let c = cache.lock();
        let t = c.sent.get(&vm)?;
        let i = usize::try_from(gfn.checked_sub(t.base)?).ok()?;
        (i < t.words.len() && t.present[i / 64] & (1 << (i % 64)) != 0).then(|| t.words[i])
    }

    /// A round over gfns `0..pages` shaped like a busy guest's round 0:
    /// three pages in four zero, the rest unique.
    fn busy_round(pages: u64) -> (Vec<Gfn>, Vec<u64>) {
        let gfns = (0..pages).map(Gfn).collect();
        let words = (0..pages)
            .map(|g| match g % 4 {
                0 => (g | 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                _ => 0,
            })
            .collect();
        (gfns, words)
    }

    #[test]
    fn a_fresh_round_journals_no_undo_records() {
        let cache = TransferCache::new();
        let (gfns, words) = busy_round(1 << 16);
        cache.begin_round();
        cache.encode_words_into(
            0,
            &gfns,
            &words,
            &mut FrameRing::new(),
            &mut WireStats::new(),
        );
        let c = cache.lock();
        assert!(
            c.journal_sent.is_empty(),
            "{} undo records",
            c.journal_sent.len()
        );
        assert_eq!(c.journal_fresh, [0]);
        assert_eq!(c.journal_dedup.len(), 1 << 14);
        assert_eq!(c.sent_len, 1 << 16);
    }

    #[test]
    fn rollback_of_a_fresh_round_restores_sent_len_and_presence() {
        let cache = TransferCache::new();
        // Committed first: every third gfn of the low 3 Ki.
        cache.begin_round();
        for gfn in (0..3072).step_by(3) {
            send(&cache, 0, gfn, gfn ^ 0x55);
        }
        cache.commit_round();
        let (gfns, words) = busy_round(1 << 16);
        let committed: Vec<Option<u64>> = gfns.iter().map(|g| base_of(&cache, 0, g.0)).collect();
        cache.begin_round();
        cache.encode_words_into(
            0,
            &gfns,
            &words,
            &mut FrameRing::new(),
            &mut WireStats::new(),
        );
        assert_eq!(cache.sent_len(), 1 << 16);
        cache.rollback_round();
        assert_eq!(cache.sent_len(), 1024);
        let after: Vec<Option<u64>> = gfns.iter().map(|g| base_of(&cache, 0, g.0)).collect();
        assert!(
            after == committed,
            "a presence bit or base survived rollback"
        );
        assert!(cache.lock().sent[&0].fresh.iter().all(|&w| w == 0));
    }

    #[test]
    fn gfn_tracked_and_overwritten_in_one_round_rolls_back_to_untracked() {
        let cache = TransferCache::new();
        cache.begin_round();
        send(&cache, 0, 7, 0x11);
        assert_eq!(send(&cache, 0, 7, 0x22).kind(), FrameKind::Delta);
        assert!(
            cache.lock().journal_sent.is_empty(),
            "a staged base needs no undo"
        );
        cache.rollback_round();
        assert_eq!(base_of(&cache, 0, 7), None);
        assert_eq!(cache.sent_len(), 0);
        cache.begin_round();
        assert_eq!(send(&cache, 0, 7, 0x22).kind(), FrameKind::Raw);
        cache.commit_round();
    }

    #[test]
    fn committed_gfn_overwritten_twice_rolls_back_to_its_committed_word() {
        let cache = TransferCache::new();
        cache.begin_round();
        send(&cache, 0, 5, 0x11);
        cache.commit_round();
        cache.begin_round();
        send(&cache, 0, 5, 0x22);
        send(&cache, 0, 5, 0x33);
        assert_eq!(cache.lock().journal_sent.len(), 2);
        cache.rollback_round();
        assert_eq!(base_of(&cache, 0, 5), Some(0x11));
        assert_eq!(cache.sent_len(), 1);
    }

    #[test]
    fn round_growing_the_span_downwards_rolls_back_cleanly() {
        let cache = TransferCache::new();
        cache.begin_round();
        send(&cache, 0, 1000, 0xaa);
        cache.commit_round();
        cache.begin_round();
        let gfns = [Gfn(1000), Gfn(5), Gfn(70)];
        cache.encode_words_into(
            0,
            &gfns,
            &[0xbb, 0xcc, 0],
            &mut FrameRing::new(),
            &mut WireStats::new(),
        );
        assert_eq!(
            cache.lock().sent[&0].base,
            0,
            "the span grew below its base"
        );
        cache.rollback_round();
        assert_eq!(base_of(&cache, 0, 1000), Some(0xaa));
        assert_eq!(
            (base_of(&cache, 0, 5), base_of(&cache, 0, 70)),
            (None, None)
        );
        assert_eq!(cache.sent_len(), 1);
        cache.begin_round();
        assert_eq!(send(&cache, 0, 5, 0xcc).kind(), FrameKind::Raw);
        let f = send(&cache, 0, 1000, 0xab);
        assert_eq!(f.apply(&cache, 0xaa), Some(0xab));
        cache.commit_round();
    }

    #[test]
    fn eviction_after_rollback_keeps_cache_consistent() {
        let cache = TransferCache::with_capacity(2);
        cache.begin_round();
        send(&cache, 0, 1, 0x11);
        send(&cache, 0, 2, 0x22);
        cache.commit_round();
        // A round that inserts (evicting 0x11) and then rolls back.
        cache.begin_round();
        assert_eq!(send(&cache, 0, 3, 0x33).kind(), FrameKind::Raw);
        cache.rollback_round();
        // 0x33 never arrived; re-encoding it must not claim a Dup.
        cache.begin_round();
        assert_eq!(send(&cache, 0, 3, 0x33).kind(), FrameKind::Raw);
        cache.commit_round();
    }

    /// The words a dedup table holds, walking its LRU ring from the least
    /// recently used: the ring's links must agree both ways, and every
    /// word must resolve through the index, which holds nothing else.
    fn held_words(dedup: &DedupLru) -> Vec<u64> {
        let mut held = Vec::new();
        let (mut prev, mut i) = (0, dedup.slots[0].next);
        while i != 0 {
            let slot = dedup.slots[i as usize];
            assert_eq!(slot.prev, prev, "ring links disagree at slot {i}");
            assert_eq!(dedup.word(content_key(slot.word)), Some(slot.word));
            held.push(slot.word);
            (prev, i) = (i, slot.next);
        }
        assert_eq!(dedup.slots[0].prev, prev);
        assert_eq!(dedup.index.len(), held.len(), "the index holds other ids");
        held
    }

    /// A capped cache's round evicts committed entries and hands their
    /// slots to its own inserts, then rolls back: every entry the round
    /// inserted is gone, every committed entry it did not evict still
    /// resolves, and the next round sees exactly those.
    #[test]
    fn rollback_through_recycled_slots_keeps_the_committed_entries() {
        let mut rng = hypertp_sim::SimRng::new(0x5107_0001);
        let mut recycled = 0;
        for case in 0..60 {
            let cap = [4, 16, 64][case % 3];
            let cache = TransferCache::with_capacity(cap);
            let mut gfn = 0u64;
            cache.begin_round();
            for w in 1..=cap as u64 + rng.gen_range(cap as u64) {
                send(&cache, 0, gfn, w << 8);
                gfn += 1;
            }
            cache.commit_round();
            let committed = held_words(&cache.lock().dedup);
            let (evictions, slab) = {
                let c = cache.lock();
                (c.dedup.evictions, c.dedup.slots.len())
            };
            // Touches of committed words and inserts of new ones, mixed.
            cache.begin_round();
            let mut inserted = Vec::new();
            for _ in 0..rng.gen_range(2 * cap as u64) {
                let w = if rng.gen_bool(0.3) {
                    committed[rng.gen_range(committed.len() as u64) as usize]
                } else {
                    let w = (1 << 40) + gfn;
                    inserted.push(w);
                    w
                };
                send(&cache, 0, gfn, w);
                gfn += 1;
            }
            let (evicted, grown) = {
                let c = cache.lock();
                (c.dedup.evictions - evictions, c.dedup.slots.len() - slab)
            };
            recycled += inserted.len() - grown;
            cache.rollback_round();
            let held = held_words(&cache.lock().dedup);
            assert!(held.iter().all(|w| committed.contains(w)), "case {case}");
            assert_eq!(
                held.len(),
                committed.len() - evicted as usize,
                "case {case}"
            );
            for &w in &inserted {
                let dup = dup_of(content_key(w));
                assert_eq!(dup.apply(&cache, 0), None, "case {case}: {w:#x} stayed");
            }
            // The survivors first: once touched they are pinned, so the
            // inserts after them cannot evict one before it is checked.
            cache.begin_round();
            let gone = committed
                .iter()
                .chain(&inserted)
                .filter(|w| !held.contains(w));
            for &w in held.iter().chain(gone) {
                let kind = send(&cache, 1, gfn, w).kind();
                assert_eq!(
                    kind == FrameKind::Dup,
                    held.contains(&w),
                    "case {case}: {w:#x}"
                );
                gfn += 1;
            }
            cache.commit_round();
        }
        assert!(
            recycled > 500,
            "only {recycled} inserts took a recycled slot"
        );
    }

    #[test]
    fn clear_preserves_capacity_and_resets_counters() {
        let cache = TransferCache::with_capacity(3);
        cache.begin_round();
        send(&cache, 0, 1, 0x9);
        cache.commit_round();
        cache.clear();
        assert_eq!(cache.capacity(), 3);
        let s = cache.stats();
        assert_eq!(
            (s.occupancy, s.evictions, s.dup_hits, s.dup_lookups),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn clones_share_state_for_cross_vm_dedup() {
        let a = TransferCache::new();
        let b = a.clone();
        a.begin_round();
        assert_eq!(send(&a, 0, 1, 0x7777).kind(), FrameKind::Raw);
        a.commit_round();
        b.begin_round();
        assert_eq!(
            send(&b, 5, 99, 0x7777).kind(),
            FrameKind::Dup,
            "clone sees content committed through the original"
        );
        b.commit_round();
    }

    /// Drives the same random multi-round, multi-VM workload (with
    /// rollbacks and a tight eviction cap) through a batch per round and
    /// through one-page batches, asserting frame-for-frame, byte-for-byte,
    /// counter-for-counter equality — the identity that booking zero runs
    /// a bitmap word at a time rests on.
    #[test]
    fn batch_encode_matches_per_page_path_exactly() {
        let mut rng = SimRng::new(0xba7c);
        for &cap in &[DEFAULT_CACHE_CAPACITY, 5] {
            let paged = TransferCache::with_capacity(cap);
            let ring_cache = TransferCache::with_capacity(cap);
            let mut ring = FrameRing::new();
            for round in 0..24u64 {
                let vm = (round % 3) as u32;
                let n = 1 + rng.gen_range(40) as usize;
                let gfns: Vec<Gfn> = (0..n).map(|_| Gfn(rng.gen_range(32))).collect();
                let words: Vec<u64> = (0..n)
                    .map(|_| match rng.gen_range(4) {
                        0 => 0,
                        1 => 0x5a5a, // recurring content → dup hits
                        _ => rng.next_u64() | 1,
                    })
                    .collect();
                let digests: Vec<Digest128> = words.iter().map(|&w| digest_words(&[w])).collect();
                let drop_round = rng.gen_range(5) == 0;

                paged.begin_round();
                let pages: Vec<Sent> = gfns
                    .iter()
                    .zip(&words)
                    .map(|(&g, &w)| send(&paged, vm, g.0, w))
                    .collect();
                let paged_bytes: u64 = pages.iter().map(Sent::wire_bytes).sum();

                ring.restart();
                ring.begin();
                ring_cache.begin_round();
                let ring_bytes = if round % 2 == 0 {
                    let stats = &mut WireStats::new();
                    ring_cache.encode_words_into(vm, &gfns, &words, &mut ring, stats)
                } else {
                    ring_cache.encode_batch_into(vm, &gfns, &words, &digests, &mut ring)
                };

                assert_eq!(ring_bytes, paged_bytes, "round {round} wire accounting");
                assert_eq!(ring.frame_count() as usize, pages.len());
                for (i, (view, page)) in ring.iter().zip(&pages).enumerate() {
                    assert_eq!(view, page.view(), "round {round} frame {i}");
                    // Apply parity, including deliberately wrong bases.
                    let dst = words[i] ^ u64::from(i as u32);
                    assert_eq!(
                        ring_cache.apply_view(&view, dst),
                        page.apply(&paged, dst),
                        "round {round} frame {i} apply"
                    );
                }

                if drop_round {
                    paged.rollback_round();
                    ring_cache.rollback_round();
                    ring.rollback();
                    assert_eq!(ring.frame_count(), 0, "round batch fully rolled back");
                } else {
                    paged.commit_round();
                    ring_cache.commit_round();
                    ring.commit();
                }
                let (a, b) = (paged.stats(), ring_cache.stats());
                assert_eq!(
                    (a.occupancy, a.evictions, a.dup_hits, a.dup_lookups),
                    (b.occupancy, b.evictions, b.dup_hits, b.dup_lookups),
                    "round {round} cache counters"
                );
                assert_eq!(paged.sent_len(), ring_cache.sent_len());
            }
        }
    }
}
