//! The §4.2 source/destination proxy pair over a pluggable transport.
//!
//! The paper runs a *proxy* on each machine: the source proxy drives
//! pre-copy and streams serialized frames, the destination proxy
//! materialises them and translates the VMi State through UISR. Here the
//! source proxy is the engine's own pre-copy driver
//! ([`crate::engine::MigrationTp`]) landing the VM through a
//! `RemoteSink` — same rounds, controller, stop rule, fault policy,
//! encode path and sink contract (a damaged round is naked before any
//! guest write; the sink owns its cut-over check, here `Done`/`DoneAck`)
//! — so a proxy run, fault-free or not, produces a destination RAM image,
//! [`WireStats`], timings and fault log **byte-identical** to the
//! in-process engine's. This module holds only the protocol.
//!
//! **Protocol.** Each transport frame is one message, tag byte first:
//!
//! | tag  | message   | payload |
//! |------|-----------|---------|
//! | 0x10 | Hello     | resume flag, round, [`VmConfig`] |
//! | 0x11 | HelloAck  | destination hypervisor kind |
//! | 0x12 | Round     | stop flag, round, frame count of the whole round, the round's last serialized frames |
//! | 0x13 | Ack       | round (`u32::MAX` acks the UISR blob) |
//! | 0x14 | Nak       | round (`u32::MAX` = UISR decode rejected) |
//! | 0x15 | Uisr      | encoded UISR blob |
//! | 0x16 | Done      | source RAM checksum, total duration |
//! | 0x17 | DoneAck   | destination RAM checksum, wire bytes, frames |
//! | 0x18 | RoundPart | round, serialized frames |
//!
//! A round travels as zero or more `RoundPart`s of `PART_PAGES` frames
//! each, sent while the source is still encoding the rest, then
//! one closing `Round` with the ring's tail. A round that fits in one
//! part is a lone `Round`. Parts get no reply; the closing `Round` gets
//! the round's one `Ack` or `Nak`.
//!
//! **Commit discipline: stage per part, apply at the closing `Round`.**
//! The destination stages each part as it arrives — its writes and
//! dedup-mirror inserts — while validating the stream, and touches guest
//! RAM only once the closing `Round` verifies: every part parsed to its
//! last byte and named the closing round, and the staged frames number
//! the closing `count`. It then applies atomically and acks; anything
//! else naks and drops the staging. The source commits its cache journal
//! and ring watermark only on the ack. A mid-stream disconnect therefore
//! loses the round wholesale (the resume `Hello` drops whatever its parts
//! staged), and the source re-encodes against what the destination still
//! holds.
//!
//! **Hostile peers.** One codec reads and writes every message, and
//! [`DestProxy`] takes one at a time, trusting nothing: a malformed or
//! non-canonical message (an undefined flag bit, a non-zero stop byte,
//! trailing bytes), a `Hello` for a VM of no size or larger than the
//! host's RAM, or a `Done` that would overflow its clock is an
//! [`HtpError`], never a panic.

use std::borrow::Cow;

use hypertp_core::{HtpError, Hypervisor, HypervisorKind, VmConfig, VmId};
use hypertp_machine::{Extent, Gfn, Machine};
use hypertp_sim::hash::{Digest128, WordDigest};
use hypertp_sim::SimDuration;

use crate::engine::{integrity, MigrationConfig, MigrationTp, WireMode};
use crate::framing::{FrameIter, FrameRing};
use crate::network::{FrameKind, WireStats};
use crate::sink::{RoundScratch, Sink};
use crate::transport::Transport;
use crate::wire::{content_key, SlotIndex};

mod msg;
use msg::Msg;

/// Pages per part of a round: the unit either destination takes while
/// the source encodes the rest (a remote one as a `RoundPart`, so encode,
/// transfer and staging overlap), and the bound on every message and
/// round buffer (≈ 50 KB of `Raw` frames). On the benchmark's
/// `proxy_raw_uds` (a 1 GiB guest, every resident page unique, a Unix
/// socket, 2 hardware threads), parts of 1 024 to 8 192 pages ran within
/// ≈ 1 ms of each other per op, 16 384 and 32 768 about 1.5 ms slower,
/// whole-round messages ≈ 10 ms slower; 2 048 beat 4 096 in six of six
/// alternating pairs, by 0.6 ms.
pub(crate) const PART_PAGES: usize = 2048;

/// Round number that acks/naks the UISR blob instead of a page round.
const UISR_ROUND: u32 = u32::MAX;

/// Maps a transport failure to the engine's link-failure error.
fn link_err(vm_name: &str) -> HtpError {
    HtpError::LinkFailure {
        vm_name: vm_name.to_string(),
        retries: 0,
    }
}

/// Sends `msg` and flushes it to the peer; a failure is VM `vm`'s.
fn send(transport: &mut dyn Transport, msg: &[u8], vm: &str) -> Result<(), HtpError> {
    transport
        .send_frame(msg)
        .and_then(|_| transport.flush())
        .map_err(|_| link_err(vm))
}

/// Sends `msg`, then replaces it with the peer's reply.
fn exchange(transport: &mut dyn Transport, msg: &mut Vec<u8>, vm: &str) -> Result<(), HtpError> {
    send(transport, msg, vm)?;
    transport.recv_frame(msg).map_err(|_| link_err(vm))
}

/// Writes the `Round` closing round `round`: the round's frame count, which
/// `ring` keeps across the parts it handed off, and the tail it still
/// holds, the last frame corrupted in the message when `truncate`.
fn encode_round(out: &mut Vec<u8>, ring: &FrameRing, round: u32, truncate: bool) {
    Msg::Round(round, ring.frame_count(), ring.bytes_from(0)).write(out);
    if let (true, Some(last)) = (truncate, ring.iter().last()) {
        let last_start = out.len() - last.frame_bytes();
        out[last_start] ^= 0x7f;
    }
}

/// Report of a source-proxy migration — the over-the-wire analogue of
/// [`crate::engine::MigrationReport`], plus both sides' RAM checksums.
#[derive(Debug, Clone)]
pub struct ProxyReport {
    /// Migrated VM's name.
    pub vm_name: String,
    /// Pre-copy rounds sent (excluding the stop-and-copy set).
    pub rounds: u32,
    /// Accounted wire bytes sent (frames + payloads).
    pub bytes_sent: u64,
    /// Encoded UISR bytes.
    pub uisr_bytes: u64,
    /// Per-frame-kind wire accounting (matches the in-process engine's).
    pub wire: WireStats,
    /// Pre-copy duration (simulated).
    pub precopy: SimDuration,
    /// Downtime (simulated stop-and-copy).
    pub downtime: SimDuration,
    /// Total migration time (simulated).
    pub total: SimDuration,
    /// Source guest-RAM checksum at pause time.
    pub src_checksum: u64,
    /// Destination guest-RAM checksum after resume (from `DoneAck`).
    pub dst_checksum: u64,
    /// Frames the destination reported applying.
    pub dst_frames: u64,
}

/// Report of a destination-proxy session.
#[derive(Debug, Clone)]
pub struct DestReport {
    /// The VM received.
    pub vm_name: String,
    /// Rounds applied (including the stop-and-copy set).
    pub rounds: u32,
    /// Frames applied.
    pub frames: u64,
    /// Accounted wire bytes received.
    pub wire_bytes: u64,
    /// Guest-RAM checksum after resume.
    pub checksum: u64,
    /// Compatibility warnings from UISR restore.
    pub warnings: Vec<String>,
}

/// Folds a VM's guest pages into a 64-bit checksum (two-lane FNV over
/// the content words; both proxies compute it the same way), gathered a
/// bounded chunk of `gfns` at a time into one reused buffer.
pub fn guest_checksum(
    machine: &Machine,
    hv: &dyn Hypervisor,
    id: VmId,
    gfns: &[Gfn],
) -> Result<u64, HtpError> {
    let mut digest = WordDigest::new();
    let mut words = Vec::with_capacity(CHECKSUM_CHUNK.min(gfns.len()));
    for chunk in gfns.chunks(CHECKSUM_CHUNK) {
        hv.read_guest_into(machine, id, chunk, &mut words)?;
        digest.update(&words);
    }
    let d = digest.finish();
    Ok(d.hi ^ d.lo)
}

/// Pages per read of [`guest_checksum`]: 32 KiB of words, whatever the
/// guest's size.
const CHECKSUM_CHUNK: usize = 4096;

/// [`guest_checksum`] over every page of VM `id`, in map order — the
/// `Done`/`DoneAck` cut-over check. It folds the RAM backing of each
/// memory-map extent in turn, which is the word sequence a gather of the
/// map's gfns yields, without listing or translating a gfn.
pub fn vm_checksum(machine: &Machine, hv: &dyn Hypervisor, id: VmId) -> Result<u64, HtpError> {
    map_checksum(machine, &hv.guest_memory_map(id)?)
}

/// [`vm_checksum`] over the memory map `map`.
fn map_checksum(machine: &Machine, map: &[(Gfn, Extent)]) -> Result<u64, HtpError> {
    let ram = machine.ram();
    let mut digest = WordDigest::new();
    for &(_, e) in map {
        digest.update(ram.content_slice(e.base, e.pages())?);
    }
    let d = digest.finish();
    Ok(d.hi ^ d.lo)
}

/// Runs the source proxy: opens a session with the destination proxy
/// across `transport` and lands VM `id` through the engine's pre-copy
/// driver — rounds, stop rule, controller, fault recovery and the
/// cut-over check are [`MigrationTp::migrate`]'s, the check being the
/// remote sink's `Done`/`DoneAck` exchange. Advances the source clock and
/// destroys the source VM on success.
///
/// The frame ring is the proxy's wire format, so it is always
/// content-aware ([`WireMode`] does not apply), and the `DoneAck`
/// checksum stands in for [`MigrationConfig::verify_contents`]. Faults
/// map onto the protocol: `LinkDrop` tears the transport down (the retry
/// re-handshakes with a resume `Hello`), `TruncatedPage` corrupts a frame
/// in flight (the destination naks the round, the source re-encodes it),
/// `UisrCorruption` damages the blob (nak → re-send).
pub fn run_source(
    tp: &MigrationTp,
    machine: &mut Machine,
    hv: &mut dyn Hypervisor,
    id: VmId,
    transport: &mut dyn Transport,
) -> Result<ProxyReport, HtpError> {
    let tp = tp.clone().with_config(MigrationConfig {
        wire_mode: WireMode::ContentAware,
        ..tp.config
    });
    let cfg = hv.vm_config(id)?.clone();
    let mut dst = RemoteSink::open(transport, &cfg)?;
    let phase = tp.migrate_data(machine, hv, id, &cfg, &mut dst, 1, None)?;
    let report = phase.report;

    machine.clock().advance(report.total);
    hv.destroy_vm(machine, id)?;
    Ok(ProxyReport {
        vm_name: report.vm_name,
        rounds: report.rounds.len() as u32,
        bytes_sent: report.bytes_sent,
        uisr_bytes: report.uisr_bytes,
        wire: report.wire,
        precopy: phase.precopy,
        downtime: report.downtime,
        total: report.total,
        src_checksum: dst.src_checksum,
        dst_checksum: dst.dst_checksum,
        dst_frames: dst.dst_frames,
    })
}

/// The source's end of a session with a [`DestProxy`] across a
/// [`Transport`]: the remote sink of the engine's pre-copy driver. It
/// speaks the protocol and nothing else; every decision — rounds, stop,
/// retries, re-sends — is the driver's. Its cut-over check is the
/// `Done`/`DoneAck` exchange, whose checksums and frame count it keeps
/// for the [`ProxyReport`].
pub(crate) struct RemoteSink<'a> {
    transport: &'a mut dyn Transport,
    /// The migrating VM (re-sent in resume `Hello`s).
    cfg: VmConfig,
    /// The destination hypervisor, from `HelloAck`.
    kind: HypervisorKind,
    /// Message scratch, reused for every exchange.
    msg: Vec<u8>,
    /// The source's RAM checksum sent in `Done`, and the destination's
    /// checksum and applied frames from `DoneAck`.
    src_checksum: u64,
    dst_checksum: u64,
    dst_frames: u64,
}

impl<'a> RemoteSink<'a> {
    /// Opens a session: `Hello` → `HelloAck`, which names the destination
    /// hypervisor. A name or storage backend longer than `Hello`'s `u16`
    /// length prefix is refused, not sent for the peer to misparse.
    pub(crate) fn open(transport: &'a mut dyn Transport, cfg: &VmConfig) -> Result<Self, HtpError> {
        if cfg.name.len().max(cfg.storage_backend.len()) > usize::from(u16::MAX) {
            return Err(HtpError::Unsupported(
                "Hello string longer than 65535 bytes",
            ));
        }
        let mut dst = RemoteSink {
            transport,
            cfg: cfg.clone(),
            kind: HypervisorKind::Xen, // until the `HelloAck` names it
            msg: Vec::new(),
            src_checksum: 0,
            dst_checksum: 0,
            dst_frames: 0,
        };
        dst.kind = dst.hello(false, 0)?;
        Ok(dst)
    }

    fn hello(&mut self, resume: bool, round: u32) -> Result<HypervisorKind, HtpError> {
        Msg::Hello(resume, round, Cow::Borrowed(&self.cfg)).write(&mut self.msg);
        exchange(&mut *self.transport, &mut self.msg, &self.cfg.name)?;
        match Msg::parse(&self.msg) {
            Some(Msg::HelloAck(kind)) => Ok(kind),
            _ => Err(integrity(&self.cfg.name)),
        }
    }

    /// Sends the message built in `msg` and reads the verdict on `round`.
    fn verdict(&mut self, round: u32) -> Result<bool, HtpError> {
        exchange(&mut *self.transport, &mut self.msg, &self.cfg.name)?;
        match Msg::parse(&self.msg) {
            Some(Msg::Ack(r)) if r == round => Ok(true),
            Some(Msg::Nak(r)) if r == round => Ok(false),
            _ => Err(integrity(&self.cfg.name)),
        }
    }
}

impl Sink for RemoteSink<'_> {
    fn kind(&self) -> HypervisorKind {
        self.kind
    }

    /// Ships the part as a `RoundPart`; the destination stages it without
    /// a reply.
    fn part(&mut self, s: &mut RoundScratch, round: u32) -> Result<(), HtpError> {
        Msg::RoundPart(round, s.ring.bytes_from(0)).write(&mut self.msg);
        send(&mut *self.transport, &self.msg, &self.cfg.name)
    }

    /// Ships the tail as the closing `Round` — its last frame corrupted in
    /// the outgoing copy when `damaged` (the ring itself stays intact) —
    /// and returns the verdict: `true` on `Ack`, `false` on `Nak`.
    fn close(&mut self, s: &mut RoundScratch, round: u32, damaged: bool) -> Result<bool, HtpError> {
        encode_round(&mut self.msg, &s.ring, round, damaged);
        self.verdict(round)
    }

    /// Ships the blob; the destination acks it once decoded and restored.
    fn uisr(&mut self, blob: &[u8]) -> Result<Option<Vec<String>>, HtpError> {
        Msg::Uisr(blob).write(&mut self.msg);
        Ok(self.verdict(UISR_ROUND)?.then(Vec::new))
    }

    /// Tears the transport down and re-establishes it, then a resume
    /// `Hello` tells the destination which round is re-sent, so it drops
    /// any staged state.
    fn reconnect(&mut self, round: u32) -> Result<(), HtpError> {
        self.transport
            .reset()
            .map_err(|_| link_err(&self.cfg.name))?;
        self.hello(true, round).map(drop)
    }

    /// `Done` carries the paused source's RAM checksum over `src_map` and
    /// the migration's `total` time; the destination resumes the VM and
    /// answers `DoneAck` with its own checksum, which must be the source's.
    fn verify(
        &mut self,
        src: &Machine,
        src_map: &[(Gfn, Extent)],
        total: SimDuration,
    ) -> Result<bool, HtpError> {
        self.src_checksum = map_checksum(src, src_map)?;
        Msg::Done(self.src_checksum, total.as_nanos()).write(&mut self.msg);
        exchange(&mut *self.transport, &mut self.msg, &self.cfg.name)?;
        let Some(Msg::DoneAck(sum, _, frames)) = Msg::parse(&self.msg) else {
            return Ok(false);
        };
        (self.dst_checksum, self.dst_frames) = (sum, frames);
        Ok(sum == self.src_checksum)
    }
}

/// The destination's copy of the content the source's dedup cache
/// believes it holds: content words in arrival order, entry `i` indexed
/// under slot id `i + 1` (0 marks an empty bucket) by its word's digest,
/// which the index recomputes ([`content_key`]). Entries from `committed`
/// on are the in-flight round's staging: a `Dup` later in the round
/// already resolves them, `Ack` commits them and `Nak` drops them. Content
/// already held is not staged again, as the source's cache does.
#[derive(Debug, Default)]
struct ContentMirror {
    entries: Vec<u64>,
    index: SlotIndex,
    /// Entries below this belong to acked rounds.
    committed: usize,
}

/// The index's `key`: the digest of the word slot id `id` names.
fn entry_digest(entries: &[u64]) -> impl Fn(u32) -> Digest128 + '_ {
    move |id| content_key(entries[id as usize - 1])
}

impl ContentMirror {
    /// The word held under `digest`, committed or staged.
    fn get(&self, digest: Digest128) -> Option<u64> {
        let id = self.index.find(digest, entry_digest(&self.entries))?;
        Some(self.entries[id as usize - 1])
    }

    /// Opens a round. Staging an earlier round left uncommitted — it
    /// returned an error before its verdict — is dropped first, so it can
    /// neither resolve this round's `Dup`s nor a later session's.
    fn begin_round(&mut self) {
        self.rollback();
    }

    /// Stages `word` for the round. `false` when the mirror has no slot id
    /// left to give: the round must be naked.
    fn stage(&mut self, word: u64) -> bool {
        let digest = content_key(word);
        if self.get(digest).is_some() {
            return true;
        }
        let Ok(id) = u32::try_from(self.entries.len() + 1) else {
            return false;
        };
        self.entries.push(word);
        self.index.insert(digest, id, entry_digest(&self.entries));
        true
    }

    /// The round was acked: its staging becomes committed.
    fn commit(&mut self) {
        self.committed = self.entries.len();
    }

    /// Drops the round's staging, newest first.
    fn rollback(&mut self) {
        while let Some(&word) = self.entries[self.committed..].last() {
            self.index
                .remove(content_key(word), entry_digest(&self.entries));
            self.entries.pop();
        }
    }
}

/// The round the destination is staging across its messages — its
/// `RoundPart`s, then the closing `Round` — in buffers reused from round
/// to round. The mirror stages the round's inserts.
#[derive(Debug, Default)]
struct Staging {
    /// The round the staged messages name; `None` between rounds.
    round: Option<u32>,
    /// Every message of the round so far named it, parsed to its last
    /// byte and resolved. Once `false`, the round's later messages are
    /// not staged and its closing `Round` naks.
    ok: bool,
    /// Frames staged so far.
    frames: u64,
    /// Their accounted wire bytes.
    wire_bytes: u64,
    /// The guest writes the closing `Round` applies.
    writes: Vec<(Gfn, u64)>,
    /// One message's gfns and their current words.
    gfns: Vec<Gfn>,
    current: Vec<u64>,
}

impl Staging {
    /// Drops the round being staged, if any.
    fn drop_round(&mut self, mirror: &mut ContentMirror) {
        self.round = None;
        mirror.rollback();
    }

    /// Stages `stream`, the frames one message of round `round` carries,
    /// for VM `id` of `pages` pages: one batched read of their gfns'
    /// current words (nothing is written until the round closes, so a gfn
    /// repeated within the round sees the same word either way), then
    /// each frame resolved as Raw, Zero, Dup or Delta, its mirror insert
    /// staged and its write appended. A message that names another round
    /// than the one staging, does not parse to its last byte, fails to
    /// resolve a frame or would take the round past `pages` frames stages
    /// nothing more of the round.
    #[allow(clippy::too_many_arguments)]
    fn stage(
        &mut self,
        machine: &Machine,
        hv: &dyn Hypervisor,
        id: VmId,
        mirror: &mut ContentMirror,
        round: u32,
        stream: &[u8],
        pages: u64,
    ) -> Result<(), HtpError> {
        match self.round {
            None => {
                (self.round, self.ok, self.frames, self.wire_bytes) = (Some(round), true, 0, 0);
                self.writes.clear();
                mirror.begin_round();
            }
            Some(staging) if staging != round => self.ok = false,
            Some(_) => {}
        }
        if !self.ok {
            return Ok(());
        }
        // At most one frame past the guest's size is parsed: enough to
        // refuse the message without growing anything past that bound.
        let room = pages.saturating_sub(self.frames);
        let take = usize::try_from(room)
            .unwrap_or(usize::MAX)
            .saturating_add(1);
        self.gfns.clear();
        let mut parsed = 0;
        for view in FrameIter::over(stream).take(take) {
            parsed += view.frame_bytes();
            self.gfns.push(Gfn(view.gfn));
        }
        if parsed != stream.len() || self.gfns.len() as u64 > room {
            self.ok = false;
            return Ok(());
        }
        hv.read_guest_into(machine, id, &self.gfns, &mut self.current)?;
        for (view, &cur) in FrameIter::over(stream).zip(&self.current) {
            let Some(w) = view.resolve(cur, |digest| mirror.get(digest)) else {
                self.ok = false;
                return Ok(());
            };
            self.wire_bytes += view.wire_bytes();
            if w != cur {
                self.writes.push((Gfn(view.gfn), w));
            }
            // Mirror what the source's cache journalled: Raw and Delta
            // frames insert their content; Zero and Dup do not.
            if matches!(view.kind, FrameKind::Raw | FrameKind::Delta) && w != 0 && !mirror.stage(w)
            {
                self.ok = false;
                return Ok(());
            }
        }
        self.frames += self.gfns.len() as u64;
        Ok(())
    }

    /// Closes the round staged so far with a `Round` of `count` frames:
    /// when every message staged and the frames number `count`, lands the
    /// writes with one `write_guest_many` and commits the mirror;
    /// otherwise drops the staging. Returns whether the round landed.
    fn close(
        &mut self,
        machine: &mut Machine,
        hv: &mut dyn Hypervisor,
        id: VmId,
        mirror: &mut ContentMirror,
        count: u64,
    ) -> Result<bool, HtpError> {
        if !(self.ok && self.frames == count) {
            self.drop_round(mirror);
            return Ok(false);
        }
        self.round = None;
        hv.write_guest_many(machine, id, &self.writes)?;
        mirror.commit();
        Ok(true)
    }
}

/// One incoming migration's state, from its `Hello` to its `Done`.
#[derive(Debug, Default)]
struct Session {
    /// The incoming VM, once a `Hello` announced it.
    vm: Option<(VmId, VmConfig)>,
    /// Rounds applied, their frames and their accounted wire bytes.
    rounds: u32,
    frames: u64,
    wire_bytes: u64,
    /// Compatibility warnings from the UISR restore.
    warnings: Vec<String>,
    staging: Staging,
}

impl Session {
    /// The incoming VM's name for errors: `<handshake>` before its `Hello`.
    fn vm_name(&self) -> &str {
        self.vm.as_ref().map_or("<handshake>", |(_, c)| &c.name)
    }
}

/// What [`DestProxy::step`] did: no reply (a `RoundPart`), a reply
/// written, or the `DoneAck` written and the session over.
pub(crate) enum Step {
    Silent,
    Reply,
    Done(DestReport),
}

/// The destination proxy: the §4.2 sink, stepped one message at a time.
/// Its `ContentMirror` of the source's dedup cache outlives sessions,
/// insert-only across acked rounds: evictions on the source only downgrade
/// future `Dup`s to `Raw`, and a fleet's later VMs reference content first
/// shipped in earlier VMs' sessions.
#[derive(Debug, Default)]
pub struct DestProxy {
    mirror: ContentMirror,
    session: Session,
}

impl DestProxy {
    /// Creates a destination proxy with an empty dedup mirror.
    pub fn new() -> Self {
        DestProxy::default()
    }

    /// Serves one incoming migration to completion (`Done`): a transport
    /// loop around `step` that survives mid-stream disconnects. Returns
    /// after resuming the VM and reporting its RAM checksum to the source.
    pub fn serve(
        &mut self,
        machine: &mut Machine,
        hv: &mut dyn Hypervisor,
        transport: &mut dyn Transport,
    ) -> Result<DestReport, HtpError> {
        self.session = Session::default();
        let (mut msg, mut reply) = (Vec::new(), Vec::new());
        loop {
            if transport.recv_frame(&mut msg).is_err() {
                // Mid-stream disconnect: the round in flight died unacked.
                // Re-accept and wait for the source's resume `Hello`.
                let name = self.session.vm_name();
                transport.reset().map_err(|_| link_err(name))?;
                continue;
            }
            match self.step(machine, hv, &msg, &mut reply)? {
                Step::Silent => {}
                Step::Reply => send(transport, &reply, self.session.vm_name())?,
                Step::Done(report) => {
                    send(transport, &reply, &report.vm_name)?;
                    return Ok(report);
                }
            }
        }
    }

    /// Takes one message from the source, `buf`, and writes its reply, if
    /// any, into `reply`. A message that does not parse, or that the
    /// session does not expect, is an integrity error.
    pub(crate) fn step(
        &mut self,
        machine: &mut Machine,
        hv: &mut dyn Hypervisor,
        buf: &[u8],
        reply: &mut Vec<u8>,
    ) -> Result<Step, HtpError> {
        let (mirror, s) = (&mut self.mirror, &mut self.session);
        let msg = Msg::parse(buf);
        if let Some(Msg::Hello(resume, _, cfg)) = msg {
            // Refused before anything is allocated: a VM of no size runs
            // nothing, and sizing one larger than this host could abort.
            if cfg.memory_gb > machine.spec().ram_gb || cfg.vcpus == 0 || cfg.memory_gb == 0 {
                return Err(HtpError::Unsupported(
                    "incoming VM of no size or larger than the destination's RAM",
                ));
            }
            s.staging.drop_round(mirror);
            if !resume {
                s.vm = Some((hv.prepare_incoming(machine, &cfg)?, cfg.into_owned()));
            }
            Msg::HelloAck(hv.kind()).write(reply);
            return Ok(Step::Reply);
        }
        let Some((id, cfg)) = &s.vm else {
            return Err(integrity(s.vm_name()));
        };
        let (id, pages) = (*id, cfg.pages());
        let msg = msg.ok_or_else(|| integrity(&cfg.name))?;
        if let Msg::RoundPart(round, frames) | Msg::Round(round, _, frames) = msg {
            // A closing `Round`'s tail stages like any part.
            s.staging
                .stage(machine, &*hv, id, mirror, round, frames, pages)?;
        }
        let verdict = match msg {
            Msg::RoundPart(..) => return Ok(Step::Silent),
            // The whole round lands, or nothing of it.
            Msg::Round(round, count, _) => {
                if s.staging.close(machine, hv, id, mirror, count)? {
                    s.rounds += 1;
                    s.frames += count;
                    s.wire_bytes += s.staging.wire_bytes;
                    Msg::Ack(round)
                } else {
                    Msg::Nak(round)
                }
            }
            Msg::Uisr(blob) => match hypertp_uisr::decode(blob) {
                Ok(state) => {
                    s.warnings = hv.restore_uisr(machine, id, &state)?.warnings;
                    Msg::Ack(UISR_ROUND)
                }
                Err(_) => Msg::Nak(UISR_ROUND),
            },
            Msg::Done(_, nanos) => {
                // A duration past the end of the clock is no migration's:
                // advancing by it would panic, or wrap time backwards.
                let now = machine.clock().now().as_nanos();
                if now.checked_add(nanos).is_none() {
                    return Err(integrity(&cfg.name));
                }
                machine.clock().advance(SimDuration::from_nanos(nanos));
                hv.resume_vm(id)?;
                let checksum = vm_checksum(machine, &*hv, id)?;
                Msg::DoneAck(checksum, s.wire_bytes, s.frames).write(reply);
                let report = DestReport {
                    vm_name: cfg.name.clone(),
                    rounds: s.rounds,
                    frames: s.frames,
                    wire_bytes: s.wire_bytes,
                    checksum,
                    warnings: std::mem::take(&mut s.warnings),
                };
                self.session = Session::default();
                return Ok(Step::Done(report));
            }
            _ => return Err(integrity(&cfg.name)),
        };
        verdict.write(reply);
        Ok(Step::Reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{WIRE_DIGEST_BYTES, WIRE_FRAME_HEADER};
    use crate::transport::{InProcTransport, TransportError};
    use hypertp_core::testing::SimpleHv;
    use hypertp_core::VmState;
    use hypertp_machine::{Extent, MachineSpec};
    use hypertp_sim::fault::{FaultPlan, InjectionPoint};
    use hypertp_sim::hash::digest_words;
    use hypertp_sim::SimClock;

    /// Every GFN a guest memory map covers, in map order.
    fn map_gfns(map: &[(Gfn, Extent)]) -> impl Iterator<Item = Gfn> + '_ {
        map.iter()
            .flat_map(|&(gfn, e)| (gfn.0..gfn.0 + e.pages()).map(Gfn))
    }

    fn machine() -> Machine {
        let mut spec = MachineSpec::m1();
        spec.ram_gb = 4;
        Machine::with_clock(spec, SimClock::new())
    }

    /// A source host running the test VM, seeded with a deterministic page
    /// mix (zeros, duplicates, uniques) so every frame kind is exercised.
    fn source_host() -> (Machine, SimpleHv, VmId) {
        let (mut m, mut hv) = (machine(), SimpleHv::new(HypervisorKind::Xen));
        let id = hv.create_vm(&mut m, &VmConfig::small("vm0")).unwrap();
        for i in 0..512u64 {
            let word = match i % 3 {
                0 => 0xdead_beef,
                1 => i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
                _ => 0,
            };
            hv.write_guest(&mut m, id, Gfn(i * 7), word).unwrap();
        }
        hv.guest_tick(&mut m, id, 100).unwrap();
        (m, hv, id)
    }

    /// A 2000 pages/s guest: its steady-state dirty set stays above the
    /// static 64-page threshold, so only the round cap or the controller
    /// ends pre-copy.
    fn config() -> MigrationConfig {
        MigrationConfig {
            wire_mode: WireMode::ContentAware,
            dirty_rate_pages_per_sec: 2000.0,
            ..MigrationConfig::default()
        }
    }

    /// The proxy runs the engine's pre-copy driver: under every
    /// controller setting, fault-free, with a dropped round and with a
    /// truncated page, it makes the same rounds, wire traffic, timings and
    /// fault recoveries, and lands the same destination RAM, as the
    /// in-process engine.
    #[test]
    fn proxy_matches_engine_byte_for_byte() {
        let budget = MigrationConfig {
            downtime_budget: Some(SimDuration::from_millis(10)),
            ..config()
        };
        let auto_converge = MigrationConfig {
            auto_converge: true,
            ..config()
        };
        let inputs = [
            ("default", config()),
            ("budget", budget),
            ("auto_converge", auto_converge),
        ];
        for (label, cfg) in inputs {
            for fault in [
                None,
                Some(InjectionPoint::LinkDrop),
                Some(InjectionPoint::TruncatedPage),
            ] {
                let case = format!("{label}, {fault:?}");
                let points: Vec<_> = fault.into_iter().collect();

                // In-process engine run.
                let (mut src_m, mut src, id) = source_host();
                let DestHost {
                    m: mut dst_m,
                    hv: mut dst,
                    ..
                } = dest_host();
                let tp = MigrationTp::new()
                    .with_config(cfg)
                    .with_faults(armed(&points));
                let engine_report = tp
                    .migrate(&mut src_m, &mut src, id, &mut dst_m, &mut dst)
                    .unwrap();
                let e_id = dst.find_vm("vm0").unwrap();
                let e_gfns: Vec<Gfn> = map_gfns(&dst.guest_memory_map(e_id).unwrap()).collect();
                let engine_checksum = guest_checksum(&dst_m, &dst, e_id, &e_gfns).unwrap();
                if label == "default" {
                    assert_eq!(engine_report.rounds.len() as u32, cfg.max_rounds, "{case}");
                }

                // Proxy run over crossed in-process channels, fresh everything.
                let proxy_faults = armed(&points);
                let t = tapped_session(cfg, proxy_faults.clone());
                let sent = t.log.iter().filter(|(dir, _)| *dir == b'>');
                let sent: Vec<Msg> = sent.map(|(_, msg)| Msg::parse(msg).unwrap()).collect();

                // Round 0, the whole guest, spans more than two parts: its
                // `RoundPart`s and the closing `Round`.
                let round0_parts = sent[1..]
                    .iter()
                    .take_while(|m| matches!(m, Msg::RoundPart(..)))
                    .count();
                assert!(round0_parts + 1 > 2, "{case}: {round0_parts} part(s)");
                // No message holds more than one part: a `Round` header and
                // `PART_PAGES` of the largest frame, a `Dup`.
                let header = bytes(Msg::Round(0, 0, &[])).len();
                let part_bytes =
                    header + PART_PAGES * (WIRE_FRAME_HEADER + WIRE_DIGEST_BYTES) as usize;
                let largest = t.log.iter().map(|(_, msg)| msg.len()).max().unwrap();
                assert!(largest <= part_bytes, "{case}: {largest} bytes");
                // The drop hit a round whose parts had been shipped: the
                // resume `Hello` follows them.
                let resumed = sent[1..].iter().position(|m| matches!(m, Msg::Hello(..)));
                let drop = fault == Some(InjectionPoint::LinkDrop);
                assert_eq!(resumed.is_some(), drop, "{case}");
                if let Some(at) = resumed {
                    assert!(matches!(sent[at], Msg::RoundPart(..)), "{case}");
                }

                let (p, e) = (&t.src, &engine_report);
                assert_eq!(p.rounds as usize, e.rounds.len(), "{case}");
                assert_eq!(p.bytes_sent, e.bytes_sent, "{case}");
                assert_eq!(p.wire, e.wire, "{case}");
                assert_eq!(p.downtime, e.downtime, "{case}");
                assert_eq!(p.total, e.total, "{case}");
                assert_eq!(p.uisr_bytes, e.uisr_bytes, "{case}");
                let (p_log, e_log) = (proxy_faults.log(), tp.faults.log());
                assert_eq!(p_log.events(), e_log.events(), "{case}");
                assert_eq!(e_log.events().is_empty(), fault.is_none(), "{case}");
                assert_eq!(p.dst_checksum, engine_checksum, "{case}");
                assert_eq!(t.dst.checksum, engine_checksum, "{case}");
                assert_eq!(p.src_checksum, engine_checksum, "{case}");

                // Both sides converged on the same simulated time.
                let ((psrc_m, psrc), (pdst_m, pdst)) = (&t.src_host, &t.dst_host);
                assert_eq!(psrc_m.clock().now(), pdst_m.clock().now(), "{case}");
                assert!(psrc.vm_ids().is_empty(), "source VM destroyed");
                let landed = pdst.vm_state(pdst.find_vm("vm0").unwrap()).unwrap();
                assert_eq!(landed, VmState::Running, "{case}");
            }
        }
    }

    /// A source transport that logs every message it sends (`>`) or
    /// receives (`<`), in order.
    struct Tap<'a> {
        inner: &'a mut dyn Transport,
        log: Vec<(u8, Vec<u8>)>,
    }

    impl Transport for Tap<'_> {
        fn send_frame(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
            self.log.push((b'>', bytes.to_vec()));
            self.inner.send_frame(bytes)
        }
        fn flush(&mut self) -> Result<(), TransportError> {
            self.inner.flush()
        }
        fn recv_frame(&mut self, out: &mut Vec<u8>) -> Result<(), TransportError> {
            self.inner.recv_frame(out)?;
            self.log.push((b'<', out.clone()));
            Ok(())
        }
        fn reset(&mut self) -> Result<(), TransportError> {
            self.inner.reset()
        }
    }

    /// A proxy session run end to end through a `Tap`: both reports, the
    /// tap's log, and each side's machine and hypervisor afterwards.
    struct Tapped {
        src: ProxyReport,
        dst: DestReport,
        log: Vec<(u8, Vec<u8>)>,
        src_host: (Machine, SimpleHv),
        dst_host: (Machine, SimpleHv),
    }

    /// Migrates `source_host`'s guest under `cfg` and `faults` through a proxy
    /// pair over crossed in-process channels, tapping the source's end.
    fn tapped_session(cfg: MigrationConfig, faults: FaultPlan) -> Tapped {
        let (mut src_m, mut src, id) = source_host();
        let DestHost {
            m: mut dst_m,
            hv: mut dst,
            ..
        } = dest_host();
        let tp = MigrationTp::new().with_config(cfg).with_faults(faults);
        let (mut ta, mut tb) = InProcTransport::pair();
        let mut tap = Tap {
            inner: &mut ta,
            log: Vec::new(),
        };
        let (src_report, dst_report) = std::thread::scope(|s| {
            let dest = s.spawn(|| DestProxy::new().serve(&mut dst_m, &mut dst, &mut tb));
            let srcr = run_source(&tp, &mut src_m, &mut src, id, &mut tap).unwrap();
            (srcr, dest.join().unwrap().unwrap())
        });
        Tapped {
            src: src_report,
            dst: dst_report,
            log: tap.log,
            src_host: (src_m, src),
            dst_host: (dst_m, dst),
        }
    }

    /// A destination host: a `DestProxy` on a fresh machine with a
    /// KVM-kind hypervisor.
    struct DestHost {
        dest: DestProxy,
        m: Machine,
        hv: SimpleHv,
    }

    fn dest_host() -> DestHost {
        let (dest, hv) = (DestProxy::new(), SimpleHv::new(HypervisorKind::Kvm));
        DestHost {
            dest,
            m: machine(),
            hv,
        }
    }

    impl DestHost {
        /// Steps the destination through `msgs` as a hostile source would
        /// (never waiting for a reply) and returns what it served, with
        /// every reply it wrote. The script must end the session, with
        /// `Done` or a message the destination rejects.
        fn serve_scripted(
            &mut self,
            msgs: &[Vec<u8>],
        ) -> (Result<DestReport, HtpError>, Vec<Vec<u8>>) {
            let (mut replies, mut reply) = (Vec::new(), Vec::new());
            for msg in msgs {
                match self.dest.step(&mut self.m, &mut self.hv, msg, &mut reply) {
                    Ok(Step::Silent) => {}
                    Ok(Step::Reply) => replies.push(reply.clone()),
                    Ok(Step::Done(report)) => {
                        replies.push(reply.clone());
                        return (Ok(report), replies);
                    }
                    Err(e) => return (Err(e), replies),
                }
            }
            panic!("the script ended mid-session");
        }

        /// `gfn`'s word in the landed VM `name`.
        fn page(&self, name: &str, gfn: u64) -> u64 {
            let id = self.hv.find_vm(name).unwrap();
            self.hv.read_guest(&self.m, id, Gfn(gfn)).unwrap()
        }
    }

    /// `msg`'s bytes.
    fn bytes(msg: Msg<'_>) -> Vec<u8> {
        let mut out = Vec::new();
        msg.write(&mut out);
        out
    }

    fn hello(cfg: &VmConfig) -> Vec<u8> {
        bytes(Msg::Hello(false, 0, Cow::Borrowed(cfg)))
    }

    /// A session for `vm0` carrying `msgs`: its `Hello`, then `msgs`, then
    /// a `Done` with a zero checksum and duration (the destination echoes
    /// its own checksum whatever the source's).
    fn session(msgs: impl IntoIterator<Item = Vec<u8>>) -> Vec<Vec<u8>> {
        let mut script = vec![hello(&VmConfig::small("vm0"))];
        script.extend(msgs);
        script.push(bytes(Msg::Done(0, 0)));
        script
    }

    /// The `Ack`s and `Nak`s among `replies`.
    fn verdicts(replies: &[Vec<u8>]) -> Vec<Msg<'_>> {
        let msgs = replies.iter().filter_map(|r| Msg::parse(r));
        msgs.filter(|m| matches!(m, Msg::Ack(_) | Msg::Nak(_)))
            .collect()
    }

    /// A lone `Round` carrying the frames `frames` pushes; its last frame
    /// is corrupted when `corrupt`.
    fn round_msg(round: u32, corrupt: bool, mut frames: impl FnMut(&mut FrameRing)) -> Vec<u8> {
        round_parts(round, 1, corrupt, |_, r| frames(r)).remove(0)
    }

    /// Round `round` shipped as the source ships it: `parts - 1`
    /// `RoundPart`s, then the closing `Round` (its last frame corrupted
    /// when `corrupt`), with `frames(k, ring)` pushing message `k`'s frames.
    fn round_parts(
        round: u32,
        parts: usize,
        corrupt: bool,
        mut frames: impl FnMut(usize, &mut FrameRing),
    ) -> Vec<Vec<u8>> {
        let mut ring = FrameRing::new();
        (0..parts)
            .map(|k| {
                frames(k, &mut ring);
                let mut msg = Vec::new();
                if k + 1 < parts {
                    Msg::RoundPart(round, ring.bytes_from(0)).write(&mut msg);
                    ring.drain();
                } else {
                    encode_round(&mut msg, &ring, round, corrupt);
                }
                msg
            })
            .collect()
    }

    /// Content staged by a round that is naked never reaches the mirror:
    /// a later round's `Dup` of it is naked too, until an acked round
    /// carries the content itself.
    #[test]
    fn naked_rounds_leave_nothing_in_the_mirror() {
        let (a, b) = (0xaaaa_0001u64, 0xbbbb_0002u64);
        let dup_a = |r: &mut FrameRing| {
            r.push_dup(3, digest_words(&[a]));
        };
        let msgs = session([
            // Stages `a`, then its last frame fails to parse.
            round_msg(0, true, |r| {
                r.push_raw(1, a);
                r.push_raw(2, b);
            }),
            round_msg(1, false, dup_a),
            round_msg(2, false, |r| {
                r.push_raw(1, a);
            }),
            round_msg(3, false, dup_a),
        ]);
        let mut d = dest_host();
        let (served, replies) = d.serve_scripted(&msgs);
        let report = served.unwrap();
        let want = [Msg::Nak(0), Msg::Nak(1), Msg::Ack(2), Msg::Ack(3)];
        assert_eq!(verdicts(&replies), want);
        assert_eq!((report.rounds, report.frames), (2, 2));
        let pages = [1, 2, 3].map(|g| d.page("vm0", g));
        assert_eq!(pages, [a, 0, a], "naked rounds wrote nothing");
    }

    /// A round of three messages whose closing `Round` arrives with its
    /// last frame truncated naks, and nothing its earlier parts staged
    /// survives: no page is written, the mirror holds nothing, and a later
    /// `Dup` of their content naks too.
    #[test]
    fn truncated_multi_part_round_leaves_nothing_behind() {
        let words = [0xaaaa_0001u64, 0xbbbb_0002, 0xcccc_0003];
        let mut msgs = round_parts(0, 3, true, |k, r| {
            r.push_raw(k as u64 + 1, words[k]);
        });
        msgs.push(round_msg(1, false, |r| {
            r.push_dup(5, digest_words(&[words[0]]));
        }));
        let mut d = dest_host();
        let (served, replies) = d.serve_scripted(&session(msgs));
        let report = served.unwrap();
        assert_eq!(verdicts(&replies), [Msg::Nak(0), Msg::Nak(1)]);
        assert_eq!((report.rounds, report.frames), (0, 0));
        let pages = [1, 2, 3, 5].map(|g| d.page("vm0", g));
        assert_eq!(pages, [0; 4], "naked rounds wrote nothing");
        assert!(d.dest.mirror.entries.is_empty());
    }

    /// A `RoundPart` before any `Hello` names no VM: an integrity error,
    /// with nothing prepared and no reply.
    #[test]
    fn round_part_before_hello_is_an_integrity_error() {
        let part = round_parts(0, 2, false, |_, r| {
            r.push_raw(1, 0x5eed);
        })
        .remove(0);
        let mut d = dest_host();
        let (served, replies) = d.serve_scripted(&[part]);
        let err = served.unwrap_err();
        assert!(matches!(err, HtpError::IntegrityViolation { .. }), "{err}");
        assert!(replies.is_empty());
        assert!(d.hv.vm_ids().is_empty());
    }

    /// Parts of round 3 closed by a `Round` 4: round 4 naks and nothing
    /// the parts staged is written.
    #[test]
    fn parts_closed_by_another_round_nak() {
        let words = [0xaaaa_0001u64, 0xbbbb_0002, 0xcccc_0003];
        let mut round = round_parts(3, 3, false, |k, r| {
            r.push_raw(k as u64 + 1, words[k]);
        });
        let Some(Msg::Round(_, count, frames)) = Msg::parse(&round[2]) else {
            unreachable!("a closing `Round`");
        };
        round[2] = bytes(Msg::Round(4, count, frames));
        let mut d = dest_host();
        let (served, replies) = d.serve_scripted(&session(round));
        assert_eq!(served.unwrap().rounds, 0);
        assert_eq!(verdicts(&replies), [Msg::Nak(4)]);
        assert_eq!([1, 2, 3].map(|g| d.page("vm0", g)), [0; 3]);
    }

    /// A part that ends in a malformed frame naks its round even when
    /// later parts pad the staged frames up to the closing `count`; the
    /// same parts without the junk land.
    #[test]
    fn malformed_part_naks_even_when_padded_to_count() {
        let words = [0xaaaa_0001u64, 0xbbbb_0002, 0xcccc_0003];
        let round = round_parts(0, 3, false, |k, r| match k {
            0 => {
                r.push_raw(1, words[0]);
            }
            1 => {
                r.push_raw(2, words[1]);
                r.push_raw(3, words[2]);
            }
            _ => {}
        });
        for junk in [true, false] {
            let mut msgs = session(round.iter().cloned());
            if junk {
                // Part 0's frame, then 7 bytes no frame parses from: one
                // frame staged, and the next part brings the total to 3.
                msgs[1].extend_from_slice(&[0xff; 7]);
            }
            let mut d = dest_host();
            let (served, replies) = d.serve_scripted(&msgs);
            served.unwrap();
            let pages = [1, 2, 3].map(|g| d.page("vm0", g));
            if junk {
                assert_eq!(verdicts(&replies), [Msg::Nak(0)]);
                assert_eq!(pages, [0; 3]);
            } else {
                assert_eq!(verdicts(&replies), [Msg::Ack(0)]);
                assert_eq!(pages, words);
            }
        }
    }

    /// Parts whose frames would take a round past the announced guest's
    /// page count are refused before staging grows past it: the round
    /// naks and nothing is written, where a round of exactly that many
    /// frames lands.
    #[test]
    fn parts_past_the_guest_size_are_refused() {
        let cfg = VmConfig::small("vm0");
        let pages = cfg.pages();
        let half = pages / 2;
        let word = |g: u64| g.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        // Two parts fill the guest; a third brings one frame too many.
        let frames = |k: usize, r: &mut FrameRing| match k {
            0 | 1 => {
                for g in k as u64 * half..(k as u64 + 1) * half {
                    r.push_raw(g, word(g));
                }
            }
            _ => {
                r.push_raw(0, word(0));
            }
        };
        for (parts, verdict, want) in [(2, Msg::Ack(0), word(1)), (3, Msg::Nak(0), 0)] {
            let mut d = dest_host();
            let (served, replies) =
                d.serve_scripted(&session(round_parts(0, parts, false, frames)));
            served.unwrap();
            assert_eq!(verdicts(&replies), [verdict], "{parts} parts");
            assert_eq!(d.page("vm0", 1), want, "{parts} parts");
        }

        // The refusal comes before staging grows: the third message stages
        // nothing and parses at most one frame past the bound.
        let DestHost { mut m, mut hv, .. } = dest_host();
        let id = hv.prepare_incoming(&mut m, &cfg).unwrap();
        let (mut staging, mut mirror) = (Staging::default(), ContentMirror::default());
        for msg in round_parts(0, 3, false, frames) {
            let (Some(Msg::RoundPart(_, stream)) | Some(Msg::Round(_, _, stream))) =
                Msg::parse(&msg)
            else {
                unreachable!("a part or a closing `Round`");
            };
            staging
                .stage(&m, &hv, id, &mut mirror, 0, stream, pages)
                .unwrap();
        }
        assert!(!staging.ok);
        assert_eq!(staging.frames, pages);
        assert_eq!(staging.writes.len() as u64, pages);
        assert_eq!(mirror.entries.len() as u64, pages);
        assert!(staging.gfns.len() <= 1);
    }

    /// The mirror outlives a session: content an acked round shipped to
    /// one VM resolves a `Dup` in the next VM's session on the same
    /// `DestProxy` — and only there.
    #[test]
    fn acked_content_resolves_dups_in_a_later_session() {
        let word = 0x5eed_0003u64;
        let first = session([round_msg(0, false, |r| {
            r.push_raw(1, word);
        })]);
        let mut second = session([round_msg(0, false, |r| {
            r.push_dup(5, digest_words(&[word]));
        })]);
        second[0] = hello(&VmConfig::small("vm1"));
        let mut d = dest_host();
        d.serve_scripted(&first).0.unwrap();
        let (served, replies) = d.serve_scripted(&second);
        served.unwrap();
        assert_eq!(verdicts(&replies), [Msg::Ack(0)]);
        assert_eq!(d.page("vm1", 5), word);

        let (_, replies) = dest_host().serve_scripted(&second);
        assert_eq!(verdicts(&replies), [Msg::Nak(0)], "a fresh mirror lacks it");
    }

    /// Staging a round left uncommitted — it returned an error before its
    /// verdict — is gone once the next round begins; commit and rollback
    /// keep exactly the acked entries.
    #[test]
    fn content_mirror_drops_leftover_staging_before_a_round() {
        let d = |w: u64| digest_words(&[w]);
        let mut mirror = ContentMirror::default();
        mirror.begin_round();
        assert!(mirror.stage(1));
        mirror.commit();
        mirror.begin_round();
        for w in 2..40 {
            assert!(mirror.stage(w));
        }
        assert!(mirror.stage(1), "already held");
        assert_eq!(mirror.get(d(39)), Some(39), "staged content resolves");
        // No verdict: the round errored out. The next one starts clean.
        mirror.begin_round();
        assert_eq!(mirror.get(d(2)), None);
        assert_eq!((mirror.entries.len(), mirror.index.len()), (1, 1));
        assert!(mirror.stage(7));
        mirror.rollback();
        assert!(mirror.stage(8));
        mirror.commit();
        mirror.begin_round();
        let held: Vec<_> = (1..40).filter(|&w| mirror.get(d(w)).is_some()).collect();
        assert_eq!(held, [1, 8]);
    }

    /// Rounds that stage content and are naked, between rounds that are
    /// acked: a naked round's every staged word is gone, every acked word
    /// still resolves, and the index holds exactly the acked entries.
    #[test]
    fn a_naked_round_drops_exactly_its_staging() {
        let mut rng = hypertp_sim::SimRng::new(0x3a4e_0001);
        let mut mirror = ContentMirror::default();
        let mut acked: Vec<u64> = Vec::new();
        let mut naked = 0;
        for round in 0..300 {
            mirror.begin_round();
            let mut staged = Vec::new();
            for _ in 0..rng.gen_range(40) {
                // Mostly new content; some already acked or staged.
                let w = match rng.gen_range(4) {
                    0 if !acked.is_empty() => acked[rng.gen_range(acked.len() as u64) as usize],
                    _ => 1 + rng.gen_range(5_000),
                };
                assert!(mirror.stage(w));
                if !acked.contains(&w) && !staged.contains(&w) {
                    staged.push(w);
                }
            }
            if rng.gen_bool(0.5) {
                mirror.commit();
                acked.extend(staged);
            } else {
                mirror.rollback();
                naked += staged.len();
                for w in staged {
                    assert_eq!(mirror.get(content_key(w)), None, "{round}: {w} stayed");
                }
            }
            assert_eq!(mirror.entries, acked, "round {round}");
            assert_eq!(mirror.index.len(), acked.len(), "round {round}");
            for &w in &acked {
                assert_eq!(mirror.get(content_key(w)), Some(w), "{round}: lost {w}");
            }
        }
        assert!(
            naked > 1_000 && acked.len() > 1_000,
            "{naked} naked, {} acked",
            acked.len()
        );
    }

    /// A `Hello` for a VM larger than the destination's RAM is refused
    /// before anything is allocated — at 2^34 GiB sizing it would
    /// overflow (a 1 PiB one would abort the process in the allocator).
    #[test]
    fn hello_larger_than_host_ram_is_refused() {
        let mut d = dest_host();
        for memory_gb in [5, 1 << 20, 1 << 34, u64::MAX] {
            let huge = VmConfig::small("huge").with_memory_gb(memory_gb);
            let err = d.serve_scripted(&[hello(&huge)]).0.unwrap_err();
            assert!(
                matches!(err, HtpError::Unsupported(_)),
                "{memory_gb}: {err}"
            );
            assert!(d.hv.vm_ids().is_empty(), "{memory_gb} GiB prepared");
        }
    }

    /// A `Hello` for a VM with no vCPU or no memory is refused before
    /// anything is prepared: such a VM runs nothing.
    #[test]
    fn hello_with_a_zero_size_is_refused() {
        let mut d = dest_host();
        for (vcpus, memory_gb) in [(0, 1), (1, 0)] {
            let cfg = VmConfig::small("vm0")
                .with_vcpus(vcpus)
                .with_memory_gb(memory_gb);
            let err = d.serve_scripted(&[hello(&cfg)]).0.unwrap_err();
            assert!(matches!(err, HtpError::Unsupported(_)), "{cfg:?}: {err:?}");
            assert!(d.hv.vm_ids().is_empty(), "nothing prepared for {cfg:?}");
        }
    }

    /// A `Done` claiming a duration past the end of the destination's
    /// clock is refused, and the clock does not move (it would panic, or
    /// wrap time backwards).
    #[test]
    fn done_overflowing_the_clock_is_refused() {
        let mut d = dest_host();
        d.m.clock().advance(SimDuration::from_secs(1));
        let before = d.m.clock().now();
        let mut msgs = session([]);
        msgs[1] = bytes(Msg::Done(0, u64::MAX));
        let err = d.serve_scripted(&msgs).0.unwrap_err();
        assert!(matches!(err, HtpError::IntegrityViolation { .. }), "{err}");
        assert_eq!(d.m.clock().now(), before);
    }

    /// A destination whose source hangs up mid-session — after its
    /// `Hello`, before `Done` — returns a link failure instead of waiting
    /// forever for a resume `Hello` no one can send.
    #[test]
    fn serve_returns_when_the_source_hangs_up() {
        let (mut ta, mut tb) = InProcTransport::pair();
        let (served_tx, served_rx) = std::sync::mpsc::channel();
        // Not scoped: where `serve` spins, the thread outlives the test.
        let dest = std::thread::spawn(move || {
            let DestHost { mut m, mut hv, .. } = dest_host();
            let _ = served_tx.send(DestProxy::new().serve(&mut m, &mut hv, &mut tb));
        });
        ta.send_frame(&hello(&VmConfig::small("vm0"))).unwrap();
        ta.flush().unwrap();
        let mut reply = Vec::new();
        ta.recv_frame(&mut reply).unwrap();
        assert!(matches!(Msg::parse(&reply), Some(Msg::HelloAck(_))));
        drop(ta);
        let served = served_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the destination must give up on a dropped source");
        assert!(
            matches!(served, Err(HtpError::LinkFailure { .. })),
            "{served:?}"
        );
        dest.join().expect("destination thread panicked");
    }

    /// A name or storage backend longer than `Hello`'s `u16` length prefix
    /// is refused at the source instead of sent for the peer to misparse:
    /// nothing reaches the transport (whose peer is gone, so a send would
    /// fail as a link error) and the VM stays put.
    #[test]
    fn hello_strings_longer_than_the_length_prefix_are_refused() {
        let long = "x".repeat(usize::from(u16::MAX) + 1);
        let long_name = VmConfig::small(long.as_str());
        let long_backend = VmConfig {
            storage_backend: long.clone(),
            ..VmConfig::small("vm0")
        };
        for cfg in [long_name, long_backend] {
            let mut m = machine();
            let mut hv = SimpleHv::new(HypervisorKind::Xen);
            let id = hv.create_vm(&mut m, &cfg).unwrap();
            let (mut ta, tb) = InProcTransport::pair();
            drop(tb);
            let err = run_source(&MigrationTp::new(), &mut m, &mut hv, id, &mut ta).unwrap_err();
            assert!(matches!(err, HtpError::Unsupported(_)), "{err:?}");
            assert_eq!(hv.vm_state(id).unwrap(), VmState::Running);
        }
    }

    /// A fault plan with each of `points` armed once.
    fn armed(points: &[InjectionPoint]) -> FaultPlan {
        let plan = FaultPlan::new(42);
        for &point in points {
            plan.arm_once(point);
        }
        plan
    }

    /// The faulted session's faults: a mid-stream disconnect, a truncated
    /// frame and a corrupted UISR blob.
    const SESSION_FAULTS: [InjectionPoint; 3] = [
        InjectionPoint::LinkDrop,
        InjectionPoint::TruncatedPage,
        InjectionPoint::UisrCorruption,
    ];

    /// Every byte of two sessions, in both directions, is pinned: a
    /// fault-free one and `proxy_recovers_from_injected_faults`' session.
    /// A change to any message's layout, or to what either side sends
    /// when, moves a digest.
    #[test]
    fn session_transcripts_are_pinned() {
        for (faulted, want) in [
            (false, "45cdf55333c0d8209b4882b4708f3010"),
            (true, "f52a7878e9b74355f68aa2a046689626"),
        ] {
            let points: &[_] = if faulted { &SESSION_FAULTS } else { &[] };
            let mut transcript = Vec::new();
            for (dir, msg) in tapped_session(config(), armed(points)).log {
                transcript.push(dir);
                transcript.extend_from_slice(&(msg.len() as u32).to_le_bytes());
                transcript.extend_from_slice(&msg);
            }
            let got = hypertp_sim::hash::digest_bytes(&transcript).hex();
            assert_eq!(got, want, "faulted={faulted}, {} bytes", transcript.len());
        }
    }

    /// Chaos run: a mid-stream disconnect, a truncated frame, and a
    /// corrupted UISR blob all recover through the protocol (resume
    /// handshake, whole-round nak/re-send, blob re-send) and still land a
    /// byte-identical destination.
    #[test]
    fn proxy_recovers_from_injected_faults() {
        let faults = armed(&SESSION_FAULTS);
        let t = tapped_session(config(), faults.clone());
        assert_eq!(t.src.dst_checksum, t.dst.checksum);

        let log = faults.log();
        use hypertp_sim::fault::{InjectionPoint as P, RecoveryAction as A};
        assert!(log.recovered_via(P::LinkDrop, A::InvalidatedWireCache));
        assert!(log.recovered_via(P::LinkDrop, A::RetriedWithBackoff));
        assert!(log.recovered_via(P::LinkDrop, A::ResumedFromRound));
        assert!(log.recovered_via(P::TruncatedPage, A::ResentPages));
        assert!(log.recovered_via(P::UisrCorruption, A::ResentUisr));

        // The destination landed the source's exact pause-time RAM
        // (run_source verifies this internally too — the DoneAck checksum
        // must echo the source's — so getting here at all means the
        // recovered stream converged byte-identically).
        assert_eq!(t.src.src_checksum, t.dst.checksum);
        let dst = &t.dst_host.1;
        let id = dst.find_vm("vm0").unwrap();
        assert_eq!(dst.vm_state(id).unwrap(), VmState::Running);
    }
}
