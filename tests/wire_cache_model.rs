//! Model-based differential test of `migrate::wire::TransferCache`.
//!
//! [`Model`] is the cache's specification written the slow, obvious way:
//! plain `HashMap`s, the LRU victim found by a linear scan for the minimum
//! `(touched, digest)` over unpinned entries, evictions drained until the
//! cap holds. Seeded scripts drive it and the real cache — slab, intrusive
//! list, per-VM gfn tables — through the public API side by side, and
//! after every step the two must agree on each frame (kind, payload and
//! bytes), on `CacheStats` field by field, and on `dedup_len` /
//! `sent_len`. Every
//! frame is also applied to a model destination, which must reconstruct
//! the page. Batches are either scattered pages or a contiguous gfn range
//! of mostly zero words, whose zero runs the cache books a bitmap word at
//! a time; coverage floors make sure those runs cross bitmap words,
//! overwrite committed bases, grow a table's span leftward and are rolled
//! back.
//!
//! Set `HYPERTP_SEED` (decimal or `0x`-prefixed hex) to probe a fresh
//! seed; every assertion prints the seed and script in effect.

use std::collections::HashMap;

use hypertp_machine::{Gfn, PAGE_SIZE};
use hypertp_migrate::network::WIRE_FRAME_HEADER;
use hypertp_migrate::wire::{delta_encode, expand_word};
use hypertp_migrate::{CacheStats, FrameKind, FrameRing, FrameView, TransferCache, WireStats};
use hypertp_sim::hash::{digest_words, Digest128};
use hypertp_sim::SimRng;

/// The seed for a test: `HYPERTP_SEED` if set, else `default`.
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

/// The frame the model says a page travels as.
#[derive(Debug)]
enum ModelFrame {
    Raw { word: u64 },
    Zero,
    Dup { digest: Digest128 },
    Delta { delta: Vec<u8> },
}

impl ModelFrame {
    fn kind(&self) -> FrameKind {
        match self {
            ModelFrame::Raw { .. } => FrameKind::Raw,
            ModelFrame::Zero => FrameKind::Zero,
            ModelFrame::Dup { .. } => FrameKind::Dup,
            ModelFrame::Delta { .. } => FrameKind::Delta,
        }
    }

    /// The frame's serialized payload.
    fn payload(&self) -> Vec<u8> {
        match self {
            ModelFrame::Raw { word } => word.to_le_bytes().to_vec(),
            ModelFrame::Zero => Vec::new(),
            ModelFrame::Dup { digest } => [digest.hi, digest.lo]
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .collect(),
            ModelFrame::Delta { delta } => delta.clone(),
        }
    }

    /// Accounted wire bytes: a raw word stands in for a whole page.
    fn wire_bytes(&self) -> u64 {
        WIRE_FRAME_HEADER
            + match self {
                ModelFrame::Raw { .. } => PAGE_SIZE,
                _ => self.payload().len() as u64,
            }
    }

    /// Asserts that `view` is this frame for `gfn`: kind, payload and
    /// accounted bytes.
    fn assert_is(&self, view: &FrameView<'_>, gfn: u64, ctx: &str) {
        assert_eq!(view.gfn, gfn, "{ctx}");
        assert_eq!(
            (view.kind, view.payload, view.wire_bytes()),
            (self.kind(), &self.payload()[..], self.wire_bytes()),
            "{ctx} page {gfn:#x}"
        );
    }
}

/// Encodes `word` at `vm`'s `gfn` as a batch of one page into `ring`.
fn encode_one(cache: &TransferCache, ring: &mut FrameRing, vm: u32, gfn: u64, word: u64) -> u64 {
    ring.restart();
    cache.encode_words_into(vm, &[Gfn(gfn)], &[word], ring, &mut WireStats::new())
}

/// The reference cache. `dedup` maps digest → (word, tick of last touch).
#[derive(Default)]
struct Model {
    dedup: HashMap<Digest128, (u64, u64)>,
    sent: HashMap<(u32, u64), u64>,
    journal_dedup: Vec<Digest128>,
    journal_sent: Vec<((u32, u64), Option<u64>)>,
    capacity: usize,
    tick: u64,
    round_start_tick: u64,
    evictions: u64,
    dup_hits: u64,
    dup_lookups: u64,
    /// Pages re-sent with the word the destination already holds, after
    /// that word's digest was evicted (must ship `Raw`).
    resent_equal: u64,
}

impl Model {
    fn begin_round(&mut self) {
        self.round_start_tick = self.tick + 1;
    }

    fn commit_round(&mut self) {
        self.journal_dedup.clear();
        self.journal_sent.clear();
    }

    fn rollback_round(&mut self) {
        for digest in self.journal_dedup.drain(..) {
            self.dedup.remove(&digest);
        }
        for (key, prev) in self.journal_sent.drain(..).rev() {
            match prev {
                Some(word) => self.sent.insert(key, word),
                None => self.sent.remove(&key),
            };
        }
    }

    fn forget_vm(&mut self, vm: u32) {
        self.sent.retain(|&(tag, _), _| tag != vm);
        self.dedup.clear();
        self.journal_dedup.clear();
        self.journal_sent.retain(|&((tag, _), _)| tag != vm);
    }

    fn clear(&mut self) {
        *self = Model {
            capacity: self.capacity,
            resent_equal: self.resent_equal,
            ..Model::default()
        };
    }

    /// The frame `word` at `vm`'s `gfn` must travel as.
    fn encode(&mut self, vm: u32, gfn: u64, word: u64) -> ModelFrame {
        let prev = self.sent.insert((vm, gfn), word);
        self.journal_sent.push(((vm, gfn), prev));
        if word == 0 {
            return ModelFrame::Zero;
        }
        let digest = digest_words(&[word]);
        self.dup_lookups += 1;
        self.tick += 1;
        if let Some(entry) = self.dedup.get_mut(&digest) {
            self.dup_hits += 1;
            entry.1 = self.tick;
            return ModelFrame::Dup { digest };
        }
        while self.dedup.len() >= self.capacity {
            let unpinned = self
                .dedup
                .iter()
                .filter(|(_, e)| e.1 < self.round_start_tick);
            let Some((_, victim)) = unpinned.map(|(&d, e)| (e.1, d)).min() else {
                break;
            };
            self.dedup.remove(&victim);
            self.evictions += 1;
        }
        self.dedup.insert(digest, (word, self.tick));
        self.journal_dedup.push(digest);
        match prev {
            Some(old) if old != word => {
                let delta = delta_encode(&expand_word(old), &expand_word(word));
                assert!(
                    (delta.len() as u64) < PAGE_SIZE,
                    "uniform pages delta small"
                );
                ModelFrame::Delta { delta }
            }
            Some(_) => {
                self.resent_equal += 1;
                ModelFrame::Raw { word }
            }
            None => ModelFrame::Raw { word },
        }
    }

    /// Whether `(vm, gfn)` holds a non-zero delta base committed before
    /// the round in flight (its first encode this round overwrote a base,
    /// not added one) — a base a rollback must put back.
    fn committed_nonzero(&self, vm: u32, gfn: u64) -> bool {
        self.sent.get(&(vm, gfn)).is_some_and(|&w| w != 0)
            && !self
                .journal_sent
                .iter()
                .any(|&(key, prev)| key == (vm, gfn) && prev.is_none())
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            occupancy: self.dedup.len() as u64,
            capacity: self.capacity as u64,
            evictions: self.evictions,
            dup_hits: self.dup_hits,
            dup_lookups: self.dup_lookups,
        }
    }
}

/// The model destination: committed pages plus the in-flight round's.
#[derive(Default)]
struct Destination {
    committed: HashMap<(u32, u64), u64>,
    staged: HashMap<(u32, u64), u64>,
}

impl Destination {
    fn current(&self, key: (u32, u64)) -> u64 {
        let page = self.staged.get(&key).or_else(|| self.committed.get(&key));
        page.copied().unwrap_or(0)
    }
}

/// What the scripts exercised, summed over a whole run.
#[derive(Default)]
struct Coverage {
    frames: WireStats,
    evictions: u64,
    resent_equal: u64,
    rollbacks: u64,
    overshoots: u64,
    /// Zero runs — zero words at consecutive gfns — that span two or more
    /// 64-gfn bitmap words.
    runs_across_words: u64,
    /// Zero runs over at least one non-zero delta base committed before
    /// the round.
    runs_over_committed: u64,
    /// Zero runs that start left of their VM's table span.
    runs_growing_left: u64,
    /// Rollbacks whose round ended with a contiguous-range batch.
    rollbacks_after_runs: u64,
}

/// Counts `pages`' zero runs into `cov` before they are encoded for `vm`:
/// `low` is the first gfn of each VM's table span (a multiple of 64, as
/// the cache keeps it), which the batch moves left as it goes.
fn count_runs(
    pages: &[(u64, u64)],
    vm: u32,
    model: &Model,
    low: &mut HashMap<u32, u64>,
    cov: &mut Coverage,
) {
    let mut i = 0;
    while i < pages.len() {
        let (first, word) = pages[i];
        let len = if word == 0 {
            pages[i..]
                .iter()
                .zip(first..)
                .take_while(|&(&(g, w), want)| w == 0 && g == want)
                .count()
        } else {
            1
        };
        let run = &pages[i..i + len];
        if word == 0 {
            let last = first + len as u64 - 1;
            cov.runs_across_words += u64::from(first / 64 != last / 64);
            cov.runs_over_committed +=
                u64::from(run.iter().any(|&(g, _)| model.committed_nonzero(vm, g)));
            cov.runs_growing_left += u64::from(low.get(&vm).is_some_and(|&l| first < l));
        }
        let l = low.entry(vm).or_insert(first & !63);
        *l = (*l).min(first & !63);
        i += len;
    }
}

fn run_script(seed: u64, script: u64, rng: &mut SimRng, cov: &mut Coverage) {
    let ctx = format!("seed {seed:#x} script {script}");
    let capacity = 1 + rng.gen_range(64) as usize;
    let vms = 1 + rng.gen_range(3) as u32;
    // Small alphabets force hits, evictions and equal-word re-sends; the
    // gfn pool is dense or sparse, low or high, and small enough to repeat.
    let alphabet = 2 + rng.gen_range(3 * capacity as u64);
    let stride = [1, 7, 4096][rng.gen_range(3) as usize];
    let offset = [0, 1 << 20][rng.gen_range(2) as usize];
    let pool = 4 + rng.gen_range(60);
    let page = |rng: &mut SimRng| {
        let gfn = offset + stride * rng.gen_range(pool);
        // Word 0 is the zero page; the rest spread over all 64 bits.
        let word = rng.gen_range(alphabet).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (gfn, word)
    };

    let cache = TransferCache::with_capacity(capacity);
    let mut model = Model {
        capacity,
        ..Model::default()
    };
    let mut dst = Destination::default();
    let mut ring = FrameRing::new();
    let mut in_round = false;
    // Each VM's table span start, and whether the round's last step was a
    // contiguous-range batch.
    let mut low: HashMap<u32, u64> = HashMap::new();
    let mut after_run = false;

    for step in 0..40 + rng.gen_range(120) {
        let ctx = format!("{ctx} step {step}");
        if !in_round {
            cache.begin_round();
            model.begin_round();
            in_round = true;
        }
        let vm = rng.gen_range(u64::from(vms)) as u32;
        let last_was_run = std::mem::replace(&mut after_run, false);
        match rng.gen_range(100) {
            0..=39 => {
                let (gfn, word) = page(rng);
                let l = low.entry(vm).or_insert(gfn & !63);
                *l = (*l).min(gfn & !63);
                let bytes = encode_one(&cache, &mut ring, vm, gfn, word);
                let view = ring.iter().next().expect("one frame");
                let want = model.encode(vm, gfn, word);
                want.assert_is(&view, gfn, &ctx);
                assert_eq!(bytes, want.wire_bytes(), "{ctx} accounted wire bytes");
                let applied = cache.apply_view(&view, dst.current((vm, gfn)));
                assert_eq!(applied, Some(word), "{ctx} apply {want:?}");
                dst.staged.insert((vm, gfn), word);
                cov.frames.record_frames(view.kind, 1, bytes);
            }
            40..=69 => {
                let pages: Vec<(u64, u64)> = if rng.gen_bool(0.4) {
                    // A contiguous gfn range, three words in four zero:
                    // the zero runs cross bitmap words, overwrite earlier
                    // bases and start left of the span.
                    after_run = true;
                    let start = offset + rng.gen_range(192);
                    (start..start + 1 + rng.gen_range(130))
                        .map(|gfn| match rng.gen_range(4) {
                            0 => (gfn, page(rng).1),
                            _ => (gfn, 0),
                        })
                        .collect()
                } else {
                    (0..rng.gen_range(48)).map(|_| page(rng)).collect()
                };
                count_runs(&pages, vm, &model, &mut low, cov);
                let gfns: Vec<Gfn> = pages.iter().map(|&(g, _)| Gfn(g)).collect();
                let words: Vec<u64> = pages.iter().map(|&(_, w)| w).collect();
                ring.restart();
                // Both batch entries, the digesting one and the one handed
                // digests, must meet the same model.
                let wire_bytes = if rng.gen_bool(0.5) {
                    cache.encode_words_into(vm, &gfns, &words, &mut ring, &mut WireStats::new())
                } else {
                    let digests: Vec<Digest128> =
                        words.iter().map(|&w| digest_words(&[w])).collect();
                    cache.encode_batch_into(vm, &gfns, &words, &digests, &mut ring)
                };
                assert_eq!(ring.frame_count() as usize, pages.len(), "{ctx}");
                let mut want_bytes = 0;
                for (view, &(gfn, word)) in ring.iter().zip(&pages) {
                    let want = model.encode(vm, gfn, word);
                    want_bytes += want.wire_bytes();
                    want.assert_is(&view, gfn, &format!("{ctx} batch"));
                    let applied = cache.apply_view(&view, dst.current((vm, gfn)));
                    assert_eq!(applied, Some(word), "{ctx} apply_view {:?}", view.kind);
                    dst.staged.insert((vm, gfn), word);
                    cov.frames.record_frames(view.kind, 1, view.wire_bytes());
                }
                assert_eq!(wire_bytes, want_bytes, "{ctx} accounted wire bytes");
            }
            70..=87 => {
                cache.commit_round();
                model.commit_round();
                dst.committed.extend(dst.staged.drain());
                in_round = false;
            }
            88..=95 => {
                cache.rollback_round();
                model.rollback_round();
                dst.staged.clear();
                cov.rollbacks += 1;
                cov.rollbacks_after_runs += u64::from(last_was_run);
                in_round = false;
            }
            96..=98 => {
                // An abandoned migration: the destination shell is gone.
                // The engine rolls the round back first; other VMs' rounds
                // may also still be in flight.
                if rng.gen_bool(0.5) {
                    cache.rollback_round();
                    model.rollback_round();
                    dst.staged.clear();
                    in_round = false;
                }
                cache.forget_vm(vm);
                model.forget_vm(vm);
                low.remove(&vm);
                dst.staged.retain(|&(tag, _), _| tag != vm);
                dst.committed.retain(|&(tag, _), _| tag != vm);
            }
            _ => {
                cache.clear();
                model.clear();
                low.clear();
                dst = Destination::default();
                in_round = false;
            }
        }
        assert_eq!(cache.stats(), model.stats(), "{ctx}");
        assert_eq!(cache.dedup_len(), model.dedup.len(), "{ctx} dedup_len");
        assert_eq!(cache.sent_len(), model.sent.len(), "{ctx} sent_len");
        assert_eq!(cache.capacity(), capacity, "{ctx}");
        cov.overshoots += u64::from(model.dedup.len() > capacity);
    }
    cov.evictions += model.evictions;
    cov.resent_equal += model.resent_equal;
}

fn run_scripts(seed: u64, scripts: u64) -> Coverage {
    let mut rng = SimRng::new(seed);
    let mut cov = Coverage::default();
    for script in 0..scripts {
        run_script(seed, script, &mut rng, &mut cov);
    }
    cov
}

#[test]
fn cache_matches_reference_model_on_seeded_scripts() {
    let seed = seed_for(0x3a6e_0001);
    let cov = run_scripts(seed, 256);
    // The scripts must actually reach the corners the model is there for.
    for kind in FrameKind::ALL {
        let n = cov.frames.count(kind);
        assert!(n > 500, "seed {seed:#x}: only {n} {} frames", kind.name());
    }
    assert!(cov.evictions > 1000, "seed {seed:#x}: {}", cov.evictions);
    assert!(
        cov.resent_equal > 20,
        "seed {seed:#x}: {}",
        cov.resent_equal
    );
    assert!(cov.rollbacks > 100, "seed {seed:#x}: {}", cov.rollbacks);
    assert!(cov.overshoots > 100, "seed {seed:#x}: {}", cov.overshoots);
    // The zero-run bookkeeping's corners: a run booked over several
    // bitmap words, over bases a rollback must put back, left of the
    // span, and a rollback straight after one.
    for (what, n, floor) in [
        ("runs across bitmap words", cov.runs_across_words, 900),
        ("runs over committed bases", cov.runs_over_committed, 4000),
        ("runs growing the span left", cov.runs_growing_left, 130),
        ("rollbacks right after a run", cov.rollbacks_after_runs, 120),
    ] {
        assert!(n > floor, "seed {seed:#x}: only {n} {what}");
    }
}

/// The pinned regression for the permanent-overshoot bug: one round pins
/// four times the cap, and the next insert must drain back to it.
#[test]
fn overshoot_is_transient_in_model_and_cache() {
    let cache = TransferCache::with_capacity(4);
    let mut model = Model {
        capacity: 4,
        ..Model::default()
    };
    let mut ring = FrameRing::new();
    let mut encode = |model: &mut Model, gfn: u64| {
        encode_one(&cache, &mut ring, 0, gfn, gfn + 1);
        let view = ring.iter().next().expect("one frame");
        model
            .encode(0, gfn, gfn + 1)
            .assert_is(&view, gfn, "overshoot");
    };
    cache.begin_round();
    model.begin_round();
    for gfn in 0..16 {
        encode(&mut model, gfn);
    }
    cache.commit_round();
    model.commit_round();
    assert_eq!(cache.stats().occupancy, 16);
    for gfn in 16..24 {
        cache.begin_round();
        model.begin_round();
        encode(&mut model, gfn);
        cache.commit_round();
        model.commit_round();
        assert_eq!(cache.stats(), model.stats());
        assert_eq!(
            cache.stats().occupancy,
            4,
            "back at the cap after gfn {gfn}"
        );
    }
    assert_eq!(cache.stats().evictions, 20);
}
