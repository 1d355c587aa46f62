//! Content fingerprints for the wire path.
//!
//! The content-aware migration wire path (PR 3) identifies pages by a
//! 128-bit digest so the destination-synchronised dedup cache can suppress
//! re-sending content the destination already holds — across pre-copy
//! rounds and across VMs sharing template pages. 64 bits is not enough for
//! a cache keyed purely by content (a silent collision would materialise
//! the *wrong* page on the destination), so we run two independent
//! FNV-1a-style lanes over the same words: a collision now requires both
//! 64-bit lanes to collide simultaneously.
//!
//! The kernel reuses the word-at-a-time fold introduced for
//! `PhysicalMemory::fnv1a` in PR 1 (one XOR + one multiply per 64-bit
//! word), so hashing stays cheap on the gather hot path: the second lane
//! pre-rotates the word and uses a different offset basis and prime, which
//! is enough to decorrelate the lanes without a second pass.

/// FNV-1a 64-bit offset basis (lane A).
const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime (lane A).
const FNV_PRIME_A: u64 = 0x100_0000_01b3;
/// Lane B offset basis: the FNV basis mixed with an arbitrary odd
/// constant so the lanes start from unrelated states.
const FNV_OFFSET_B: u64 = 0xcbf2_9ce4_8422_2325 ^ 0x9e37_79b9_7f4a_7c15;
/// Lane B prime: a different 64-bit prime (from splitmix64's finaliser
/// family) so the lanes' multiplicative structures differ.
const FNV_PRIME_B: u64 = 0x9e37_79b9_7f4a_7c15 | 1;

/// A 128-bit page-content fingerprint: two independent 64-bit FNV-1a
/// lanes over the page's content words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest128 {
    /// Lane A (classic word-at-a-time FNV-1a).
    pub hi: u64,
    /// Lane B (rotated input, distinct basis and prime).
    pub lo: u64,
}

impl Digest128 {
    /// The digest as a single `u128` (cache-key form).
    pub fn as_u128(self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }

    /// Short hex rendering for logs (`hi:lo`).
    pub fn hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Digests a page given as 64-bit content words (word-at-a-time kernel,
/// both lanes in one pass).
#[inline]
pub fn digest_words(words: &[u64]) -> Digest128 {
    let mut d = WordDigest::new();
    d.update(words);
    d.finish()
}

/// The [`digest_words`] fold, resumable: feeding a sequence in pieces of
/// any size gives the digest of the whole sequence, so a caller can digest
/// a guest's memory through one small reused buffer instead of gathering
/// all of it first.
#[derive(Debug, Clone, Copy)]
pub struct WordDigest {
    a: u64,
    b: u64,
}

impl WordDigest {
    /// The digest of the empty sequence, ready to be fed.
    #[inline]
    pub fn new() -> Self {
        WordDigest {
            a: FNV_OFFSET_A,
            b: FNV_OFFSET_B,
        }
    }

    /// Folds `words` in after everything fed so far.
    #[inline]
    pub fn update(&mut self, words: &[u64]) {
        for &w in words {
            self.a = (self.a ^ w).wrapping_mul(FNV_PRIME_A);
            self.b = (self.b ^ w.rotate_left(23)).wrapping_mul(FNV_PRIME_B);
        }
    }

    /// The digest of everything fed.
    #[inline]
    pub fn finish(self) -> Digest128 {
        Digest128 {
            hi: self.a,
            lo: self.b,
        }
    }
}

impl Default for WordDigest {
    fn default() -> Self {
        WordDigest::new()
    }
}

/// Fingerprints a whole extent of one-word pages in a single pass:
/// `out[i]` equals `digest_words(&[words[i]])` for every `i`, but the
/// constants load once and the loop never re-enters the slice kernel, so
/// the migration gather digests an extent per call instead of a page per
/// call. Reuses `out`'s capacity — zero allocations once warmed.
pub fn digest_pages_into(words: &[u64], out: &mut Vec<Digest128>) {
    out.clear();
    out.reserve(words.len());
    for &w in words {
        let a = (FNV_OFFSET_A ^ w).wrapping_mul(FNV_PRIME_A);
        let b = (FNV_OFFSET_B ^ w.rotate_left(23)).wrapping_mul(FNV_PRIME_B);
        out.push(Digest128 { hi: a, lo: b });
    }
}

/// Digests raw page bytes. Whole 8-byte words go through the
/// word-at-a-time kernel; a trailing partial word (len % 8) is
/// zero-padded, with the true length folded in so `[1]` and `[1, 0]`
/// digest differently.
pub fn digest_bytes(bytes: &[u8]) -> Digest128 {
    let mut chunks = bytes.chunks_exact(8);
    let mut words: Vec<u64> = (&mut chunks)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
        .collect();
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        words.push(u64::from_le_bytes(tail));
        words.push(bytes.len() as u64);
    }
    digest_words(&words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::collections::HashSet;

    #[test]
    fn deterministic_and_word_sensitive() {
        let d1 = digest_words(&[1, 2, 3]);
        assert_eq!(d1, digest_words(&[1, 2, 3]));
        assert_ne!(d1, digest_words(&[1, 2, 4]));
        assert_ne!(d1, digest_words(&[3, 2, 1]), "order must matter");
        assert_ne!(d1, digest_words(&[1, 2]), "length must matter");
    }

    #[test]
    fn lanes_are_decorrelated() {
        // Flipping one input bit must disturb both lanes (with overwhelming
        // probability); equal lanes would mean the 128-bit claim is fake.
        let mut rng = SimRng::new(0x1a7e);
        for _ in 0..200 {
            let w = rng.next_u64();
            let bit = 1u64 << rng.gen_range(64);
            let d0 = digest_words(&[w]);
            let d1 = digest_words(&[w ^ bit]);
            assert_ne!(d0.hi, d1.hi);
            assert_ne!(d0.lo, d1.lo);
            assert_ne!(d0.hi, d0.lo, "lanes must not shadow each other");
        }
    }

    #[test]
    fn no_collisions_over_many_random_pages() {
        let mut rng = SimRng::new(0x00d1_6e57);
        let mut seen = HashSet::new();
        for _ in 0..20_000 {
            let w = rng.next_u64();
            assert!(seen.insert(digest_words(&[w]).as_u128()), "collision");
        }
    }

    #[test]
    fn bytes_and_words_agree_on_aligned_input() {
        let words = [0xdead_beef_u64, 0x1234_5678_9abc_def0, 0];
        let mut bytes = Vec::new();
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(digest_bytes(&bytes), digest_words(&words));
    }

    #[test]
    fn byte_tail_is_length_aware() {
        assert_ne!(digest_bytes(&[1]), digest_bytes(&[1, 0]));
        assert_ne!(digest_bytes(&[]), digest_bytes(&[0]));
    }

    #[test]
    fn batched_digests_match_per_page_calls() {
        let mut rng = SimRng::new(0x0ba7_c4ed);
        let words: Vec<u64> = (0..4096).map(|_| rng.next_u64()).collect();
        let mut out = Vec::new();
        digest_pages_into(&words, &mut out);
        assert_eq!(out.len(), words.len());
        for (i, &w) in words.iter().enumerate() {
            assert_eq!(out[i], digest_words(&[w]), "page {i}");
        }
    }

    #[test]
    fn batched_digest_reuses_capacity() {
        let words = vec![7u64; 512];
        let mut out = Vec::new();
        digest_pages_into(&words, &mut out);
        let cap = out.capacity();
        for _ in 0..8 {
            digest_pages_into(&words, &mut out);
        }
        assert_eq!(out.capacity(), cap, "steady-state calls must not regrow");
    }

    #[test]
    fn streamed_digest_equals_the_one_shot_fold_for_any_chunking() {
        let mut rng = SimRng::new(0x5717_ea3d);
        let words: Vec<u64> = (0..300_000).map(|_| rng.next_u64()).collect();
        let whole = digest_words(&words);
        for chunk in [1usize, 7, 4096, 262_144] {
            let mut d = WordDigest::new();
            for piece in words.chunks(chunk) {
                d.update(piece);
            }
            assert_eq!(d.finish(), whole, "chunk={chunk}");
        }
        assert_eq!(WordDigest::default().finish(), digest_words(&[]));
    }

    #[test]
    fn hex_and_u128_roundtrip_shape() {
        let d = digest_words(&[42]);
        assert_eq!(d.hex().len(), 32);
        assert_eq!((d.as_u128() >> 64) as u64, d.hi);
        assert_eq!(d.as_u128() as u64, d.lo);
    }
}
