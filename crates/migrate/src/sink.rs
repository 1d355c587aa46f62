//! Where the pre-copy driver ([`crate::engine::MigrationTp`]) lands a VM:
//! the [`Sink`] it hands every round, the UISR blob and each link event
//! to, and [`LocalSink`], the destination machine in this process. The
//! other sink is `proxy::RemoteSink`, a [`crate::DestProxy`] across a
//! transport.

use hypertp_core::{HtpError, Hypervisor, HypervisorKind, VmId};
use hypertp_machine::{Extent, Gfn, Machine, Mfn};
use hypertp_sim::SimDuration;

use crate::engine::{integrity, MigrationTp, ScratchStats, WireMode};
use crate::framing::{reserve_doubling, FrameRing};
use crate::network::{FrameKind, WireStats};
use crate::wire::TransferCache;

/// A destination of the pre-copy driver: one method per question the
/// driver asks it. The driver decides rounds, stops, retries and
/// re-sends; a sink only carries them out. A round reaches it as parts
/// in the shared [`RoundScratch`] — every part but the last through
/// [`Sink::part`], the last through [`Sink::close`] — and nothing of a
/// round may land on the destination's guest memory before its close.
pub(crate) trait Sink {
    /// The destination hypervisor: it prices the activation.
    fn kind(&self) -> HypervisorKind;

    /// Takes a part of round `round` that does not close the round: its
    /// gfns in `s.gfns`, the source's words at them in `s.words` and,
    /// content-aware, its frames in `s.ring`.
    fn part(&mut self, s: &mut RoundScratch, round: u32) -> Result<(), HtpError>;

    /// Closes round `round` with the part still in `s` (the ring's tail),
    /// its last frame damaged in flight when `damaged`, and returns
    /// whether the destination accepted the round. A damaged round is
    /// naked: nothing of it lands.
    fn close(&mut self, s: &mut RoundScratch, round: u32, damaged: bool) -> Result<bool, HtpError>;

    /// Hands the destination a UISR blob: the restore's compatibility
    /// warnings, or `None` when its decode rejected the blob.
    fn uisr(&mut self, blob: &[u8]) -> Result<Option<Vec<String>>, HtpError>;

    /// Reconnects after a link drop, before round `round` is re-sent.
    fn reconnect(&mut self, _round: u32) -> Result<(), HtpError> {
        Ok(())
    }

    /// Gives the migration up once the link-retry budget is spent.
    fn abandon(&mut self) -> Result<(), HtpError> {
        Ok(())
    }

    /// The cut-over check, once the VM's state has landed: whether the
    /// destination holds the source's word at every gfn the paused
    /// source's memory map `src_map` covers. `total` is the migration's
    /// simulated time.
    fn verify(
        &mut self,
        src: &Machine,
        src_map: &[(Gfn, Extent)],
        total: SimDuration,
    ) -> Result<bool, HtpError>;
}

/// The round buffers the driver lends a sink with each part, kept in the
/// engine's shared `EngineScratch`: cleared and refilled per round, never
/// shrunk. The ring and the gfn, word and current-word vectors hold one
/// part of a round ([`crate::proxy::PART_PAGES`] pages) whatever the
/// guest's size; `writes` holds the pages a round changes on a local
/// destination.
#[derive(Debug, Default)]
pub(crate) struct RoundScratch {
    /// Serialized frames of the part in flight; its frame count spans the
    /// round.
    pub(crate) ring: FrameRing,
    /// The part's gfns, in round order.
    pub(crate) gfns: Vec<Gfn>,
    /// Source content words of the part's gfns.
    pub(crate) words: Vec<u64>,
    /// A local destination's current words at the part's gfns (write
    /// elision and delta bases).
    pub(crate) current: Vec<u64>,
    /// The round's changed pages on a local destination, landed with one
    /// [`Hypervisor::write_guest_many`] when the round closes.
    pub(crate) writes: Vec<(Gfn, u64)>,
    /// The round's wire accounting, merged into the report once the round
    /// is accepted.
    pub(crate) stats: WireStats,
    /// Rounds encoded and vector growth events (the ring counts its own).
    pub(crate) probe: ScratchStats,
}

impl RoundScratch {
    /// Capacities of the vectors; a change is a growth event.
    pub(crate) fn capacities(&self) -> [usize; 4] {
        [
            self.gfns.capacity(),
            self.words.capacity(),
            self.current.capacity(),
            self.writes.capacity(),
        ]
    }

    /// The vectors whose capacity moved since `caps`.
    pub(crate) fn grown_since(&self, caps: [usize; 4]) -> u64 {
        let now = self.capacities();
        caps.iter().zip(now).filter(|&(a, b)| *a != b).count() as u64
    }
}

/// The destination machine in this process and its incoming VM, under
/// either [`WireMode`]. Each part resolves at once against the current
/// words, into the pages it changes; the round's close lands them with
/// one [`Hypervisor::write_guest_many`] and accepts, or naks a damaged
/// round and drops them.
pub(crate) struct LocalSink<'a> {
    machine: &'a mut Machine,
    hv: &'a mut dyn Hypervisor,
    /// The prepared incoming shell.
    id: VmId,
    /// Its memory map, sorted by gfn and fetched once: the current words
    /// are read through it.
    map: Vec<(Gfn, Extent)>,
    /// The wire cache content-aware frames resolve against; `None` under
    /// [`WireMode::Raw`], where each page lands as sent.
    cache: Option<&'a TransferCache>,
    /// The VM's name, for an integrity error.
    vm_name: &'a str,
    /// Whether the cut-over compares the guests
    /// ([`crate::MigrationConfig::verify_contents`]).
    verify: bool,
}

impl<'a> LocalSink<'a> {
    /// The incoming VM `id` on `hv`, fed by `tp`.
    pub(crate) fn new(
        tp: &'a MigrationTp,
        machine: &'a mut Machine,
        hv: &'a mut dyn Hypervisor,
        id: VmId,
        vm_name: &'a str,
    ) -> Result<Self, HtpError> {
        let content_aware = tp.config.wire_mode == WireMode::ContentAware;
        Ok(LocalSink {
            map: sorted_map(&*hv, id)?,
            machine,
            hv,
            id,
            cache: content_aware.then_some(&tp.cache),
            vm_name,
            verify: tp.config.verify_contents,
        })
    }

    /// Resolves a part of round `round` in `s` into `s.writes`: reads the
    /// current words at its gfns into `s.current`, then takes each page's
    /// word as sent in Raw mode or applies its frame in content-aware
    /// mode, and keeps each page whose word changes. Round 0 is the full
    /// copy, in memory-map order: its words come off the sink's own map a
    /// run of consecutive gfns at a time ([`map_runs`]), translating no
    /// gfn. A later round's scattered dirty gfns are read through
    /// [`Hypervisor::read_guest_into`], whose walk keeps the extent the
    /// previous gfn landed in.
    fn resolve(&self, s: &mut RoundScratch, round: u32) -> Result<(), HtpError> {
        if round > 0 {
            self.hv
                .read_guest_into(self.machine, self.id, &s.gfns, &mut s.current)?;
        } else {
            s.current.clear();
            let mut rest = &s.gfns[..];
            while let Some(&first) = rest.first() {
                let run = 1 + rest.windows(2).take_while(|w| w[1].0 == w[0].0 + 1).count();
                for (g, backing, k) in map_runs(&self.map, first.0, run as u64) {
                    match backing {
                        Some(mfn) => self.machine.ram().append_content(mfn, k, &mut s.current)?,
                        None => {
                            s.current
                                .push(self.hv.read_guest(self.machine, self.id, Gfn(g))?)
                        }
                    }
                }
                rest = &rest[run..];
            }
        }
        // Room for the whole part, so the capacity moves only a part at a
        // time, not with each change.
        let room = s.writes.len() + s.gfns.len();
        reserve_doubling(&mut s.writes, room);
        let mut views = s.ring.iter();
        for ((&g, &word), &cur) in s.gfns.iter().zip(&s.words).zip(&s.current) {
            let word = match (self.cache, views.next()) {
                (None, _) => word,
                (Some(_), Some(view)) if view.kind == FrameKind::Zero => 0,
                (Some(cache), view) => view
                    .and_then(|view| cache.apply_view(&view, cur))
                    .ok_or_else(|| integrity(self.vm_name))?,
            };
            if word != cur {
                s.writes.push((g, word));
            }
        }
        Ok(())
    }
}

impl Sink for LocalSink<'_> {
    fn kind(&self) -> HypervisorKind {
        self.hv.kind()
    }

    fn part(&mut self, s: &mut RoundScratch, round: u32) -> Result<(), HtpError> {
        self.resolve(s, round)
    }

    /// Resolves the tail, then lands the round's changed pages: its first
    /// write to the guest's memory. A damaged round drops them instead, as
    /// a [`crate::DestProxy`] naks a corrupt `Round`.
    fn close(&mut self, s: &mut RoundScratch, round: u32, damaged: bool) -> Result<bool, HtpError> {
        if damaged {
            s.writes.clear();
            return Ok(false);
        }
        self.resolve(s, round)?;
        self.hv.write_guest_many(self.machine, self.id, &s.writes)?;
        s.writes.clear();
        Ok(true)
    }

    fn uisr(&mut self, blob: &[u8]) -> Result<Option<Vec<String>>, HtpError> {
        match hypertp_uisr::decode(blob) {
            Ok(vm) => Ok(Some(
                self.hv.restore_uisr(self.machine, self.id, &vm)?.warnings,
            )),
            Err(_) => Ok(None),
        }
    }

    /// Tears the half-built shell down; the source VM keeps running.
    fn abandon(&mut self) -> Result<(), HtpError> {
        self.hv.destroy_vm(self.machine, self.id)
    }

    /// Under `verify_contents`, walks the source's extents and, for each,
    /// the destination extents over the same gfns ([`map_runs`]),
    /// comparing the RAM backing slice by slice; a gfn the destination's
    /// map does not cover is read through its hypervisor, which fails as a
    /// gather of it would. Otherwise passes.
    fn verify(
        &mut self,
        src: &Machine,
        src_map: &[(Gfn, Extent)],
        _: SimDuration,
    ) -> Result<bool, HtpError> {
        if !self.verify {
            return Ok(true);
        }
        let dst_map = sorted_map(&*self.hv, self.id)?;
        let (src_ram, dst_ram) = (src.ram(), self.machine.ram());
        for &(gfn, e) in src_map {
            let src = src_ram.content_slice(e.base, e.pages())?;
            for (at, backing, n) in map_runs(&dst_map, gfn.0, e.pages()) {
                let words = &src[(at - gfn.0) as usize..][..n as usize];
                let same = match backing {
                    Some(mfn) => *words == *dst_ram.content_slice(mfn, n)?,
                    None => words[0] == self.hv.read_guest(self.machine, self.id, Gfn(at))?,
                };
                if !same {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }
}

/// The stretches of the gfns `gfn..gfn + pages` in a gfn-sorted memory
/// map, in gfn order: `(first gfn, Some(first frame), pages)` for a
/// stretch one extent backs, `(gfn, None, 1)` for a gfn the map does not
/// cover. The two maps of a migration need not share extent boundaries,
/// so the walk finds, for each stretch, the extent holding its first gfn.
fn map_runs(
    map: &[(Gfn, Extent)],
    gfn: u64,
    pages: u64,
) -> impl Iterator<Item = (u64, Option<Mfn>, u64)> + '_ {
    let (mut at, end) = (gfn, gfn + pages);
    std::iter::from_fn(move || {
        if at >= end {
            return None;
        }
        let k = map.partition_point(|&(g, d)| g.0 + d.pages() <= at);
        let run = match map.get(k).filter(|(g, _)| g.0 <= at) {
            Some(&(g, d)) => {
                let off = at - g.0;
                (at, Some(d.base + off), (d.pages() - off).min(end - at))
            }
            None => (at, None, 1),
        };
        at += run.2;
        Some(run)
    })
}

/// A VM's memory map sorted by gfn, as [`map_runs`] walks it.
pub(crate) fn sorted_map(hv: &dyn Hypervisor, id: VmId) -> Result<Vec<(Gfn, Extent)>, HtpError> {
    let mut map = hv.guest_memory_map(id)?;
    map.sort_unstable_by_key(|&(g, _)| g.0);
    Ok(map)
}
