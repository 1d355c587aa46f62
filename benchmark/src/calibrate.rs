//! The calibration kernel: a fixed piece of work timed either side of every
//! op (the faster run is the reference), so host time can be reported in
//! *nominal* milliseconds — the time the work would take on a box where
//! this kernel takes [`CAL_MS`].
//!
//! **Frozen.** Every gated host-time metric is a ratio against this
//! kernel; changing a constant here silently rescales all of them. The
//! unit test below pins the checksum so an edit cannot go unnoticed.
//!
//! The kernel has four parts, a quarter of its time each but the last,
//! which takes two — the mix that tracked the ops best when neighbours
//! slowed the box (README, "Noise"): a slow spell costs arithmetic,
//! cache misses, streaming and fresh memory each a different factor, and
//! the ops do all four.
//!
//! - (C) [`C_PASSES`] passes of a dependent multiply-rotate-xor chain over
//!   a [`C_WORDS`]-word buffer that lives in L1;
//! - (M) [`M_WRITES`] xorshift-indexed read-modify-writes into a
//!   [`M_WORDS`]-word (64 MiB) table that lives nowhere near a cache;
//! - (S) one sequential read-modify-write pass over that table;
//! - (F) a fresh zeroed block of [`FRESH_BYTES`], one byte written per
//!   page, then freed — what a world's frame arrays cost the ops.

/// Nominal duration of one kernel run, in milliseconds. A constant by
/// definition — not a measurement of this box.
pub const CAL_MS: f64 = 32.0;

const C_WORDS: usize = 4 << 10;
const C_PASSES: usize = 600;
const M_WORDS: usize = 8 << 20;
const M_WRITES: usize = 200_000;
const FRESH_BYTES: usize = 32 << 20;
const PAGE_BYTES: usize = 4 << 10;

/// Bytes the kernel's lasting buffers add to the process (the `VmHWM` read
/// for `peak_rss_mb` happens before they exist). Part F's block comes and
/// goes on top of them.
pub const CAL_BYTES: u64 = ((C_WORDS + M_WORDS) * 8) as u64;

/// The kernel's lasting buffers. Both are written in full at construction
/// so that only part F pays first-touch page faults.
pub struct Calibrator {
    small: Vec<u64>,
    table: Vec<u64>,
    x: u64,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let small = (0..C_WORDS).map(|_| next()).collect();
        let table = (0..M_WORDS as u64).map(|i| i ^ 0x5bd1_e995).collect();
        Calibrator {
            small,
            table,
            x: 0x2545_f491_4f6c_dd1d,
        }
    }

    /// Runs the kernel once and returns its checksum. The state carries
    /// over, so successive runs do identical work on different values.
    pub fn run(&mut self) -> u64 {
        let mut acc = self.x;
        for _ in 0..C_PASSES {
            for w in self.small.iter_mut() {
                acc = (acc ^ *w)
                    .wrapping_mul(0xff51_afd7_ed55_8ccd)
                    .rotate_left(23);
                *w = acc;
            }
        }
        let mut x = acc | 1;
        for _ in 0..M_WRITES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[(x as usize) & (M_WORDS - 1)];
            *slot = slot.wrapping_add(x);
        }
        self.x = x;
        let mut sum = 0u64;
        for w in self.table.iter_mut() {
            *w = w.wrapping_add(x);
            sum ^= *w;
        }
        // Zeroed blocks this large come straight from `mmap` (the process
        // pins the threshold, see `proc::pin_allocator`), so every page
        // written below is a fault.
        let mut fresh = vec![0u8; FRESH_BYTES];
        for page in fresh.chunks_mut(PAGE_BYTES) {
            page[0] = 1;
        }
        let last_page = std::hint::black_box(&fresh)[FRESH_BYTES - PAGE_BYTES];
        std::hint::black_box(acc ^ x ^ sum ^ u64::from(last_page))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_pinned() {
        let mut c = Calibrator::new();
        assert_eq!(c.run(), 0x727c_6ffe_5474_0bf3, "first run");
        assert_eq!(c.run(), 0x34df_7660_d082_b655, "second run");
    }
}
