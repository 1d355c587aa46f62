//! Word-wise range operations on `[u64]` bitmaps.
//!
//! Bit `i` lives in word `i / 64` at position `i % 64`. Every operation
//! takes a half-open bit range and touches each overlapped word once, so a
//! 512-frame huge page costs 8 word operations instead of 512 flag writes.
//! Callers keep ranges inside the bitmap; an empty range touches nothing.

use std::ops::Range;

/// Words needed to hold `bits` bits.
pub(crate) fn words_for(bits: u64) -> usize {
    bits.div_ceil(64) as usize
}

/// The words a bit range overlaps, each with the mask of its bits that
/// fall inside the range, in ascending order.
pub(crate) fn word_masks(range: Range<u64>) -> impl Iterator<Item = (usize, u64)> {
    let words = if range.start < range.end {
        range.start / 64..(range.end - 1) / 64 + 1
    } else {
        0..0
    };
    let (first, last) = (words.start, words.end.wrapping_sub(1));
    words.map(move |w| {
        let mut mask = !0u64;
        if w == first {
            mask &= !0 << (range.start % 64);
        }
        if w == last {
            mask &= !0 >> (63 - (range.end - 1) % 64);
        }
        (w as usize, mask)
    })
}

/// Returns bit `i`; bits past the end of the bitmap read as clear.
pub(crate) fn test(words: &[u64], i: u64) -> bool {
    words
        .get((i / 64) as usize)
        .is_some_and(|w| w >> (i % 64) & 1 != 0)
}

/// Sets every bit of `range`.
pub(crate) fn set_range(words: &mut [u64], range: Range<u64>) {
    for (w, mask) in word_masks(range) {
        words[w] |= mask;
    }
}

/// Clears every bit of `range`.
pub(crate) fn clear_range(words: &mut [u64], range: Range<u64>) {
    for (w, mask) in word_masks(range) {
        words[w] &= !mask;
    }
}

/// Index of the lowest set bit of `range`.
pub(crate) fn first_set(words: &[u64], range: Range<u64>) -> Option<u64> {
    word_masks(range).find_map(|(w, mask)| {
        let hit = words[w] & mask;
        (hit != 0).then(|| w as u64 * 64 + u64::from(hit.trailing_zeros()))
    })
}

/// Index of the lowest clear bit of `range`.
pub(crate) fn first_clear(words: &[u64], range: Range<u64>) -> Option<u64> {
    word_masks(range).find_map(|(w, mask)| {
        let hit = !words[w] & mask;
        (hit != 0).then(|| w as u64 * 64 + u64::from(hit.trailing_zeros()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertp_sim::SimRng;

    /// Every helper against a `Vec<bool>` on ranges that start, end and
    /// sit inside, on and across word boundaries.
    #[test]
    fn range_helpers_match_a_bool_vector() {
        let mut rng = SimRng::new(0xb175_0001);
        const BITS: u64 = 200;
        for case in 0..2000 {
            let mut words = vec![0u64; words_for(BITS)];
            let mut model = vec![false; BITS as usize];
            for _ in 0..6 {
                let start = rng.gen_range(BITS + 1);
                let end = start + rng.gen_range(BITS + 1 - start);
                let set = rng.gen_bool(0.6);
                if set {
                    set_range(&mut words, start..end);
                } else {
                    clear_range(&mut words, start..end);
                }
                model[start as usize..end as usize].fill(set);

                let from = rng.gen_range(BITS + 1);
                let to = from + rng.gen_range(BITS + 1 - from);
                let find = |want: bool| (from..to).find(|&i| model[i as usize] == want);
                assert_eq!(first_set(&words, from..to), find(true), "case {case}");
                assert_eq!(first_clear(&words, from..to), find(false), "case {case}");
            }
            for i in 0..BITS {
                assert_eq!(test(&words, i), model[i as usize], "case {case} bit {i}");
            }
            assert!(!test(&words, words.len() as u64 * 64));
        }
    }

    #[test]
    fn masks_cover_exactly_the_range() {
        assert_eq!(word_masks(5..5).count(), 0);
        let (from, to) = (9, 3);
        assert_eq!(word_masks(from..to).count(), 0);
        assert_eq!(word_masks(0..64).collect::<Vec<_>>(), [(0, !0)]);
        assert_eq!(
            word_masks(62..130).collect::<Vec<_>>(),
            [(0, 0b11 << 62), (1, !0), (2, 0b11)]
        );
    }
}
