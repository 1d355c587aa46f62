//! The network link between migration source and destination, and the
//! wire-frame vocabulary of the content-aware migration path.
//!
//! The content-aware wire path (PR 3) never ships a page it can avoid
//! shipping: all-zero pages become a header-only [`FrameKind::Zero`]
//! marker, pages whose content the destination already holds (from an
//! earlier round, or from another VM sharing the link in `migrate_many`)
//! become a digest-only [`FrameKind::Dup`], and re-dirtied pages become an
//! XOR+RLE [`FrameKind::Delta`] against the last version the destination
//! acked — falling back to [`FrameKind::Raw`] whenever the delta would not
//! pay. Frames exist only serialized, in a [`crate::framing::FrameRing`].
//! [`WireStats`] accounts bytes per frame kind so reports and benches can
//! state exactly where the savings came from.

use hypertp_machine::PAGE_SIZE;
use hypertp_sim::SimDuration;

use crate::wire::CacheStats;

/// Framing metadata per wire frame: kind tag, GFN addressing and payload
/// length — the fixed cost of *any* frame, including the 1-entry zero
/// marker.
pub const WIRE_FRAME_HEADER: u64 = 16;

/// Bytes of the 128-bit content digest carried by a [`FrameKind::Dup`]
/// frame.
pub(crate) const WIRE_DIGEST_BYTES: u64 = 16;

/// The kind tag of a wire frame (accounting key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FrameKind {
    /// Full page payload.
    Raw,
    /// All-zero page: header-only marker.
    Zero,
    /// Content the destination already holds, referenced by digest.
    Dup,
    /// XOR+RLE delta against the last version the destination acked.
    Delta,
}

impl FrameKind {
    /// Every kind, in wire-format order (stable for reports).
    pub const ALL: [FrameKind; 4] = [
        FrameKind::Raw,
        FrameKind::Zero,
        FrameKind::Dup,
        FrameKind::Delta,
    ];

    /// Stable short name used in logs and JSON.
    pub fn name(self) -> &'static str {
        match self {
            FrameKind::Raw => "raw",
            FrameKind::Zero => "zero",
            FrameKind::Dup => "dup",
            FrameKind::Delta => "delta",
        }
    }

    /// Dense index for accounting arrays: the declaration order, which is
    /// also the order of [`FrameKind::ALL`] and of the wire tags.
    fn index(self) -> usize {
        self as usize
    }

    /// The kind's on-wire tag byte (the first byte of a serialized frame
    /// header — see `crate::framing`).
    pub fn tag(self) -> u8 {
        self.index() as u8
    }

    /// Parses an on-wire tag byte; `None` for unknown tags (a corrupted
    /// or truncated frame, surfaced as an integrity fault, not a panic).
    pub(crate) fn from_tag(tag: u8) -> Option<FrameKind> {
        FrameKind::ALL.get(tag as usize).copied()
    }
}

/// Per-kind frame and byte accounting for one migration (or an aggregate
/// across migrations — see [`WireStats::merge`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    counts: [u64; 4],
    bytes: [u64; 4],
    /// Page-payload bytes a raw-mode sender would have shipped for the
    /// same page set (the legacy `bytes_sent` accounting).
    raw_equivalent: u64,
    /// Dedup-cache entries held when the migration finished.
    cache_occupancy: u64,
    /// Dedup-cache entry cap in force.
    cache_capacity: u64,
    /// LRU evictions the cache performed during this migration.
    cache_evictions: u64,
    /// Dedup lookups that hit during this migration.
    cache_dup_hits: u64,
    /// Dedup lookups performed during this migration.
    cache_dup_lookups: u64,
}

impl WireStats {
    /// Fresh, all-zero accounting.
    pub fn new() -> Self {
        WireStats::default()
    }

    /// Records `frames` frames of `kind` that take `wire_bytes` together
    /// (each a page of the raw-equivalent volume).
    pub fn record_frames(&mut self, kind: FrameKind, frames: u64, wire_bytes: u64) {
        let k = kind.index();
        self.counts[k] += frames;
        self.bytes[k] += wire_bytes;
        self.raw_equivalent += frames * PAGE_SIZE;
    }

    /// Frames of `kind` recorded.
    pub fn count(&self, kind: FrameKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Wire bytes of `kind` recorded.
    pub fn bytes(&self, kind: FrameKind) -> u64 {
        self.bytes[kind.index()]
    }

    /// Total frames recorded (= pages that crossed the wire path).
    pub fn frames(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total bytes actually put on the wire.
    pub fn wire_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Page bytes a raw-mode sender would have shipped for the same pages.
    pub fn raw_equivalent_bytes(&self) -> u64 {
        self.raw_equivalent
    }

    /// Bytes the content-aware path kept off the wire.
    pub fn saved_bytes(&self) -> u64 {
        self.raw_equivalent.saturating_sub(self.wire_bytes())
    }

    /// `wire / raw` — 1.0 means no savings, 0.1 means a 10× reduction.
    /// Returns 1.0 when nothing was recorded.
    pub fn compression_ratio(&self) -> f64 {
        if self.raw_equivalent == 0 {
            1.0
        } else {
            self.wire_bytes() as f64 / self.raw_equivalent as f64
        }
    }

    /// Records the dedup cache's state for this migration from its stats
    /// `now` and `before` the migration: final occupancy/capacity plus the
    /// eviction and hit/lookup deltas attributable to the migration.
    pub(crate) fn record_cache(&mut self, now: CacheStats, before: CacheStats) {
        self.cache_occupancy = now.occupancy;
        self.cache_capacity = now.capacity;
        self.cache_evictions = now.evictions - before.evictions;
        self.cache_dup_hits = now.dup_hits - before.dup_hits;
        self.cache_dup_lookups = now.dup_lookups - before.dup_lookups;
    }

    /// Dedup-cache entries held when the migration finished.
    pub fn cache_occupancy(&self) -> u64 {
        self.cache_occupancy
    }

    /// Dedup-cache entry cap in force (0 = never recorded).
    pub fn cache_capacity(&self) -> u64 {
        self.cache_capacity
    }

    /// LRU evictions during this migration (or aggregate).
    pub fn cache_evictions(&self) -> u64 {
        self.cache_evictions
    }

    /// Dedup lookups that hit during this migration (or aggregate).
    pub fn cache_dup_hits(&self) -> u64 {
        self.cache_dup_hits
    }

    /// Dedup lookups performed during this migration (or aggregate).
    pub fn cache_dup_lookups(&self) -> u64 {
        self.cache_dup_lookups
    }

    /// Fraction of dedup lookups that hit (0.0 when none were performed).
    pub fn dedup_hit_rate(&self) -> f64 {
        if self.cache_dup_lookups == 0 {
            0.0
        } else {
            self.cache_dup_hits as f64 / self.cache_dup_lookups as f64
        }
    }

    /// Folds `other` into `self` (campaign-level aggregation). Frame and
    /// cache counters sum; occupancy/capacity take the latest non-zero
    /// snapshot (they describe shared cache state, not per-VM deltas).
    pub fn merge(&mut self, other: &WireStats) {
        for i in 0..4 {
            self.counts[i] += other.counts[i];
            self.bytes[i] += other.bytes[i];
        }
        self.raw_equivalent += other.raw_equivalent;
        self.cache_evictions += other.cache_evictions;
        self.cache_dup_hits += other.cache_dup_hits;
        self.cache_dup_lookups += other.cache_dup_lookups;
        if other.cache_capacity != 0 {
            self.cache_occupancy = other.cache_occupancy;
            self.cache_capacity = other.cache_capacity;
        }
    }
}

/// A point-to-point link with a line rate, a streaming efficiency and a
/// fixed per-message latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Line rate in Gbit/s.
    pub gbps: f64,
    /// Fraction of line rate achievable for bulk streaming.
    pub efficiency: f64,
    /// One-way latency per message.
    pub latency: SimDuration,
}

impl Link {
    /// The paper's M1↔M1 link: 1 Gbps Ethernet.
    pub fn gigabit() -> Self {
        Link {
            gbps: 1.0,
            efficiency: 0.93,
            latency: SimDuration::from_micros(200),
        }
    }

    /// The cluster testbed's 10 Gbps network (§5.1).
    pub fn ten_gigabit() -> Self {
        Link {
            gbps: 10.0,
            efficiency: 0.93,
            latency: SimDuration::from_micros(50),
        }
    }

    /// A transfer time standing in for "never finishes" on a dead link
    /// (~31 years). Finite so schedule arithmetic cannot overflow, but
    /// large enough that any plan preferring it over an alternative is
    /// obviously wrong.
    pub(crate) const DEAD: SimDuration = SimDuration::from_secs(1_000_000_000);

    /// True when the link can actually move bytes (positive, finite
    /// effective rate). A zero-bandwidth or zero-efficiency link is
    /// unusable: planners must fall back to in-place upgrades.
    pub(crate) fn is_usable(&self) -> bool {
        let rate = self.gbps * self.efficiency;
        rate.is_finite() && rate > 0.0
    }

    /// Time to transfer `bytes` when `sharers` flows share the link.
    ///
    /// An unusable link (see `Link::is_usable`) returns `Link::DEAD`
    /// instead of the silent zero that `f64` division would produce.
    pub fn transfer(&self, bytes: u64, sharers: u32) -> SimDuration {
        if !self.is_usable() {
            return Link::DEAD;
        }
        let rate = self.gbps * self.efficiency / sharers.max(1) as f64;
        self.latency + SimDuration::from_secs_f64(bytes as f64 * 8.0 / (rate * 1e9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gigabit_copies_1gb_in_about_9s() {
        let l = Link::gigabit();
        let t = l.transfer(1 << 30, 1).as_secs_f64();
        assert!((9.0..9.5).contains(&t), "t = {t}");
    }

    #[test]
    fn sharing_divides_bandwidth() {
        let l = Link::gigabit();
        let solo = l.transfer(1 << 20, 1);
        let shared = l.transfer(1 << 20, 4);
        assert!(shared.as_secs_f64() > 3.5 * solo.as_secs_f64());
    }

    #[test]
    fn zero_bandwidth_link_is_dead_not_instant() {
        let dead = Link {
            gbps: 0.0,
            ..Link::gigabit()
        };
        assert!(!dead.is_usable());
        // Regression: f64 division by zero used to clamp to ZERO, making
        // a dead link look *infinitely fast* to the planner.
        assert_eq!(dead.transfer(1 << 30, 1), Link::DEAD);
        assert_eq!(dead.transfer(0, 1), Link::DEAD);
        let no_eff = Link {
            efficiency: 0.0,
            ..Link::gigabit()
        };
        assert!(!no_eff.is_usable());
        assert_eq!(no_eff.transfer(4096, 2), Link::DEAD);
        assert!(Link::gigabit().is_usable());
    }

    #[test]
    fn ten_gig_is_ten_times_faster() {
        let a = Link::gigabit().transfer(1 << 30, 1).as_secs_f64();
        let b = Link::ten_gigabit().transfer(1 << 30, 1).as_secs_f64();
        assert!((a / b) > 9.0 && (a / b) < 11.0);
    }

    #[test]
    fn frame_wire_bytes_by_kind() {
        let bytes = |kind, payload: &[u8]| {
            crate::framing::FrameView {
                kind,
                gfn: 0,
                payload,
            }
            .wire_bytes()
        };
        let raw = bytes(FrameKind::Raw, &7u64.to_le_bytes());
        let zero = bytes(FrameKind::Zero, &[]);
        let dup = bytes(FrameKind::Dup, &[0; WIRE_DIGEST_BYTES as usize]);
        assert_eq!(raw, WIRE_FRAME_HEADER + PAGE_SIZE, "a raw word is a page");
        assert_eq!(zero, WIRE_FRAME_HEADER);
        assert_eq!(dup, WIRE_FRAME_HEADER + WIRE_DIGEST_BYTES);
        assert_eq!(bytes(FrameKind::Delta, &[0; 100]), WIRE_FRAME_HEADER + 100);
        assert!(zero < dup && dup < raw);
        assert_eq!(FrameKind::Raw.name(), "raw");
        assert_eq!(FrameKind::ALL.len(), 4);
    }

    #[test]
    fn wire_stats_account_per_kind_and_merge() {
        let mut s = WireStats::new();
        s.record_frames(FrameKind::Zero, 2, 2 * WIRE_FRAME_HEADER);
        s.record_frames(FrameKind::Raw, 1, WIRE_FRAME_HEADER + PAGE_SIZE);
        assert_eq!(s.frames(), 3);
        assert_eq!(s.count(FrameKind::Zero), 2);
        assert_eq!(s.count(FrameKind::Raw), 1);
        assert_eq!(s.raw_equivalent_bytes(), 3 * PAGE_SIZE);
        assert_eq!(
            s.wire_bytes(),
            3 * WIRE_FRAME_HEADER + PAGE_SIZE,
            "two markers + one full page"
        );
        assert_eq!(s.saved_bytes(), s.raw_equivalent_bytes() - s.wire_bytes());
        assert!(s.compression_ratio() < 0.5);

        let mut agg = WireStats::new();
        agg.merge(&s);
        agg.merge(&s);
        assert_eq!(agg.frames(), 6);
        assert_eq!(agg.wire_bytes(), 2 * s.wire_bytes());
        assert_eq!(WireStats::new().compression_ratio(), 1.0);
    }

    /// Records a cache whose stats went from empty to `occupancy`,
    /// `capacity`, `evictions`, `dup_hits` and `dup_lookups`.
    fn record(
        s: &mut WireStats,
        [occupancy, capacity, evictions, dup_hits, dup_lookups]: [u64; 5],
    ) {
        let now = CacheStats {
            occupancy,
            capacity,
            evictions,
            dup_hits,
            dup_lookups,
        };
        s.record_cache(now, CacheStats::default());
    }

    #[test]
    fn cache_stats_record_and_merge() {
        let mut s = WireStats::new();
        assert_eq!(s.dedup_hit_rate(), 0.0, "no lookups yet");
        record(&mut s, [10, 64, 2, 3, 12]);
        assert_eq!(s.cache_occupancy(), 10);
        assert_eq!(s.cache_capacity(), 64);
        assert_eq!(s.cache_evictions(), 2);
        assert_eq!(s.dedup_hit_rate(), 0.25);

        let mut later = WireStats::new();
        record(&mut later, [20, 64, 1, 5, 8]);
        let mut agg = WireStats::new();
        agg.merge(&s);
        agg.merge(&later);
        assert_eq!(agg.cache_evictions(), 3, "evictions sum");
        assert_eq!(agg.cache_dup_hits(), 8);
        assert_eq!(agg.cache_dup_lookups(), 20);
        assert_eq!(agg.cache_occupancy(), 20, "latest snapshot wins");
        assert_eq!(agg.cache_capacity(), 64);
    }

    #[test]
    fn zero_denominator_ratios_stay_finite() {
        // A migration that shipped nothing must not divide by zero: the
        // compression ratio degenerates to 1.0 (no savings) and the hit
        // rate to 0.0 (no lookups), both finite.
        let empty = WireStats::new();
        assert_eq!(empty.raw_equivalent_bytes(), 0);
        assert_eq!(empty.compression_ratio(), 1.0);
        assert!(empty.compression_ratio().is_finite());
        assert_eq!(empty.dedup_hit_rate(), 0.0);
        assert!(empty.dedup_hit_rate().is_finite());
        // Merging empties keeps the degenerate values.
        let mut agg = WireStats::new();
        agg.merge(&empty);
        assert_eq!(agg.compression_ratio(), 1.0);
        assert_eq!(agg.dedup_hit_rate(), 0.0);
    }
}
