//! The §4.2 source/destination proxy pair over a pluggable transport.
//!
//! The paper runs a *proxy* on each machine: the source proxy drives
//! pre-copy and streams serialized frames, the destination proxy
//! materialises them and translates the VMi State through UISR. Here the
//! source proxy is the engine's own pre-copy driver
//! ([`crate::engine::MigrationTp`]) landing the VM through a
//! `RemoteDest` — same rounds, controller, stop rule, fault policy and
//! encode path — so a fault-free proxy run produces a destination RAM
//! image, [`WireStats`] and timings **byte-identical** to the in-process
//! engine. This module holds only the protocol.
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
//! **Hostile peers.** The destination trusts nothing it receives: a
//! malformed message, a `Hello` for a VM larger than the host's RAM or a
//! `Done` that would overflow its clock is an [`HtpError`], never a panic.

use hypertp_core::{HtpError, Hypervisor, HypervisorKind, VmConfig, VmId};
use hypertp_machine::Gfn;
use hypertp_machine::Machine;
use hypertp_sim::hash::{Digest128, WordDigest};
use hypertp_sim::SimDuration;

use crate::engine::{integrity, Dest, MigrationConfig, MigrationTp, WireMode};
use crate::framing::{FrameIter, FrameRing};
use crate::network::{FrameKind, WireStats};
use crate::transport::Transport;
use crate::wire::{content_key, delta_apply_word, SlotIndex};

const MSG_HELLO: u8 = 0x10;
const MSG_HELLO_ACK: u8 = 0x11;
const MSG_ROUND: u8 = 0x12;
const MSG_ACK: u8 = 0x13;
const MSG_NAK: u8 = 0x14;
const MSG_UISR: u8 = 0x15;
const MSG_DONE: u8 = 0x16;
const MSG_DONE_ACK: u8 = 0x17;
const MSG_ROUND_PART: u8 = 0x18;

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

/// Sends `msg` and flushes it to the peer.
fn send(transport: &mut dyn Transport, msg: &[u8], vm_name: &str) -> Result<(), HtpError> {
    transport
        .send_frame(msg)
        .and_then(|_| transport.flush())
        .map_err(|_| link_err(vm_name))
}

/// Sends `msg`, then replaces it with the peer's reply.
fn exchange(
    transport: &mut dyn Transport,
    msg: &mut Vec<u8>,
    vm_name: &str,
) -> Result<(), HtpError> {
    send(transport, msg, vm_name)?;
    transport.recv_frame(msg).map_err(|_| link_err(vm_name))
}

/// Little-endian cursor over a received message.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let b = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(b)
    }
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.bytes(N)?.try_into().ok()
    }
    fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_le_bytes)
    }
    fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }
    fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }
    fn rest(&mut self) -> &'a [u8] {
        let b = &self.buf[self.pos..];
        self.pos = self.buf.len();
        b
    }
}

/// Appends `s` with its `u16` length; a string the prefix cannot describe
/// is refused rather than sent for the peer to misparse.
fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), HtpError> {
    let len = u16::try_from(s.len())
        .map_err(|_| HtpError::Unsupported("Hello string longer than 65535 bytes"))?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn get_str(r: &mut Reader<'_>) -> Option<String> {
    let n = u16::from_le_bytes(r.array()?) as usize;
    String::from_utf8(r.bytes(n)?.to_vec()).ok()
}

fn encode_hello(
    out: &mut Vec<u8>,
    cfg: &VmConfig,
    resume: bool,
    round: u32,
) -> Result<(), HtpError> {
    out.clear();
    out.push(MSG_HELLO);
    out.push(resume as u8);
    out.extend_from_slice(&round.to_le_bytes());
    out.extend_from_slice(&cfg.vcpus.to_le_bytes());
    out.extend_from_slice(&cfg.memory_gb.to_le_bytes());
    let flags = (cfg.huge_pages as u8)
        | ((cfg.inplace_compatible as u8) << 1)
        | ((cfg.has_network as u8) << 2);
    out.push(flags);
    put_str(out, &cfg.name)?;
    put_str(out, &cfg.storage_backend)
}

fn decode_hello(buf: &[u8]) -> Option<(VmConfig, bool, u32)> {
    let mut r = Reader::new(buf);
    if r.u8()? != MSG_HELLO {
        return None;
    }
    let resume = r.u8()? != 0;
    let round = r.u32()?;
    let vcpus = r.u32()?;
    let memory_gb = r.u64()?;
    let flags = r.u8()?;
    let name = get_str(&mut r)?;
    let storage_backend = get_str(&mut r)?;
    Some((
        VmConfig {
            name,
            vcpus,
            memory_gb,
            huge_pages: flags & 1 != 0,
            inplace_compatible: flags & 2 != 0,
            has_network: flags & 4 != 0,
            storage_backend,
        },
        resume,
        round,
    ))
}

fn kind_tag(kind: HypervisorKind) -> u8 {
    match kind {
        HypervisorKind::Xen => 0,
        HypervisorKind::Kvm => 1,
    }
}

fn kind_from_tag(tag: u8) -> Option<HypervisorKind> {
    match tag {
        0 => Some(HypervisorKind::Xen),
        1 => Some(HypervisorKind::Kvm),
        _ => None,
    }
}

/// Builds a `RoundPart` message of round `round`: the frames in `ring`.
fn encode_part(out: &mut Vec<u8>, ring: &FrameRing, round: u32) {
    out.clear();
    out.push(MSG_ROUND_PART);
    out.extend_from_slice(&round.to_le_bytes());
    out.extend_from_slice(ring.bytes_from(0));
}

/// Builds the `Round` message closing round `round`: the frame count of
/// the whole round, which `ring` keeps across the parts it handed off,
/// then the frames it still holds — the tail no `RoundPart` carried — the
/// last of them corrupted in the message when `truncate` (the ring itself
/// stays intact).
fn encode_round(out: &mut Vec<u8>, ring: &FrameRing, round: u32, truncate: bool) {
    out.clear();
    out.extend_from_slice(&[MSG_ROUND, 0]);
    out.extend_from_slice(&round.to_le_bytes());
    out.extend_from_slice(&ring.frame_count().to_le_bytes());
    out.extend_from_slice(ring.bytes_from(0));
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
    let ram = machine.ram();
    let mut digest = WordDigest::new();
    for (_, e) in hv.guest_memory_map(id)? {
        digest.update(ram.content_slice(e.base, e.pages())?);
    }
    let d = digest.finish();
    Ok(d.hi ^ d.lo)
}

/// Runs the source proxy: opens a session with the destination proxy
/// across `transport`, lands VM `id` through the engine's pre-copy driver
/// — rounds, stop rule, controller and fault recovery are
/// [`MigrationTp::migrate`]'s — then cuts over: `Done` carries the
/// source's pause-time RAM checksum, the destination resumes the VM and
/// echoes its own, and a mismatch fails the migration. Advances the
/// source clock and destroys the source VM on success.
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
    let mut dst = Dest::Remote(RemoteDest::open(transport, &cfg)?);
    let phase = tp.migrate_data(machine, hv, id, &cfg, &mut dst, 1, None)?;
    drop(dst); // Frees the session's message buffer before the checksum pass.
    let report = phase.report;

    let src_checksum = vm_checksum(machine, &*hv, id)?;
    let mut msg = vec![MSG_DONE];
    msg.extend_from_slice(&src_checksum.to_le_bytes());
    msg.extend_from_slice(&report.total.as_nanos().to_le_bytes());
    exchange(transport, &mut msg, &cfg.name)?;
    let mut r = Reader::new(&msg);
    let (dst_checksum, dst_frames) = match (r.u8(), r.u64(), r.u64(), r.u64()) {
        (Some(MSG_DONE_ACK), Some(sum), Some(_wire_bytes), Some(frames)) if sum == src_checksum => {
            (sum, frames)
        }
        _ => return Err(integrity(&cfg.name)),
    };

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
        src_checksum,
        dst_checksum,
        dst_frames,
    })
}

/// The source's end of a session with a [`DestProxy`] across a
/// [`Transport`]: the remote destination kind of the engine's pre-copy
/// driver. It speaks the protocol and nothing else; every decision —
/// rounds, stop, retries, re-sends — is the driver's.
pub(crate) struct RemoteDest<'a> {
    transport: &'a mut dyn Transport,
    /// The migrating VM (re-sent in resume `Hello`s).
    cfg: VmConfig,
    /// The destination hypervisor, from `HelloAck`.
    pub(crate) kind: HypervisorKind,
    /// Message scratch, reused for every exchange.
    msg: Vec<u8>,
}

impl<'a> RemoteDest<'a> {
    /// Opens a session: `Hello` → `HelloAck`, which names the
    /// destination hypervisor.
    pub(crate) fn open(transport: &'a mut dyn Transport, cfg: &VmConfig) -> Result<Self, HtpError> {
        let mut dst = RemoteDest {
            transport,
            cfg: cfg.clone(),
            kind: HypervisorKind::Xen, // until the `HelloAck` names it
            msg: Vec::new(),
        };
        dst.kind = dst.hello(false, 0)?;
        Ok(dst)
    }

    fn hello(&mut self, resume: bool, round: u32) -> Result<HypervisorKind, HtpError> {
        encode_hello(&mut self.msg, &self.cfg, resume, round)?;
        exchange(&mut *self.transport, &mut self.msg, &self.cfg.name)?;
        match *self.msg {
            [MSG_HELLO_ACK, tag, ..] => kind_from_tag(tag),
            _ => None,
        }
        .ok_or_else(|| integrity(&self.cfg.name))
    }

    /// Reconnects after a mid-stream disconnect: tears the transport down
    /// and re-establishes it, then a resume `Hello` tells the destination
    /// which round is re-sent, so it drops any staged state.
    pub(crate) fn resume(&mut self, round: u32) -> Result<(), HtpError> {
        self.transport
            .reset()
            .map_err(|_| link_err(&self.cfg.name))?;
        self.hello(true, round).map(drop)
    }

    /// Ships the frames in `ring` as a `RoundPart` of round `round`. The
    /// destination stages it without a reply.
    pub(crate) fn send_part(&mut self, ring: &FrameRing, round: u32) -> Result<(), HtpError> {
        encode_part(&mut self.msg, ring, round);
        send(&mut *self.transport, &self.msg, &self.cfg.name)
    }

    /// Closes round `round` with the frames `ring` holds, the parts before
    /// them already shipped — the last of them corrupted in the outgoing
    /// copy when `truncate` (the ring itself stays intact) — and returns
    /// the destination's verdict: `true` on `Ack`, `false` on `Nak`.
    pub(crate) fn send_round(
        &mut self,
        ring: &FrameRing,
        round: u32,
        truncate: bool,
    ) -> Result<bool, HtpError> {
        encode_round(&mut self.msg, ring, round, truncate);
        self.verdict(round)
    }

    /// Ships an encoded UISR blob: `true` when the destination decoded
    /// and restored it, `false` when its decode rejected the blob.
    pub(crate) fn send_uisr(&mut self, blob: &[u8]) -> Result<bool, HtpError> {
        self.msg.clear();
        self.msg.push(MSG_UISR);
        self.msg.extend_from_slice(blob);
        self.verdict(UISR_ROUND)
    }

    /// Sends the message built in `msg` and reads the `Ack`/`Nak` for
    /// `round`.
    fn verdict(&mut self, round: u32) -> Result<bool, HtpError> {
        exchange(&mut *self.transport, &mut self.msg, &self.cfg.name)?;
        let mut r = Reader::new(&self.msg);
        match (r.u8(), r.u32()) {
            (Some(MSG_ACK), Some(rr)) if rr == round => Ok(true),
            (Some(MSG_NAK), Some(rr)) if rr == round => Ok(false),
            _ => Err(integrity(&self.cfg.name)),
        }
    }
}

/// Runs the destination proxy for one incoming migration. Sugar over
/// [`DestProxy::serve`] with fresh dedup state — use a [`DestProxy`] when
/// several VMs arrive over one connection (the source's
/// [`crate::wire::TransferCache`] persists across VMs, so the
/// destination's mirror must too).
pub fn run_dest(
    machine: &mut Machine,
    hv: &mut dyn Hypervisor,
    transport: &mut dyn Transport,
) -> Result<DestReport, HtpError> {
    DestProxy::new().serve(machine, hv, transport)
}

/// The incoming VM's name for errors: `<handshake>` before its `Hello`.
fn session_name(vm: &Option<(VmId, VmConfig)>) -> &str {
    vm.as_ref().map_or("<handshake>", |(_, c)| &c.name)
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
            let word = match view.kind {
                FrameKind::Raw => view.raw_word(),
                FrameKind::Zero => Some(0),
                FrameKind::Dup => view.dup_digest().and_then(|d| mirror.get(d)),
                FrameKind::Delta => delta_apply_word(cur, view.payload),
            };
            let Some(w) = word else {
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

/// The destination proxy's cross-migration state: a `ContentMirror`
/// of the source's dedup cache, insert-only across acked rounds.
/// Evictions on the source only downgrade future `Dup`s to `Raw`, so
/// keeping more than the source can never disagree — and a fleet's later
/// VMs reference content first shipped during earlier VMs' sessions.
#[derive(Debug, Default)]
pub struct DestProxy {
    mirror: ContentMirror,
}

impl DestProxy {
    /// Creates a destination proxy with an empty dedup mirror.
    pub fn new() -> Self {
        DestProxy::default()
    }

    /// Serves one incoming migration to completion (`Done`), surviving
    /// mid-stream disconnects by re-accepting and waiting for the
    /// source's resume handshake. Returns after resuming the VM and
    /// reporting the RAM checksum back to the source.
    pub fn serve(
        &mut self,
        machine: &mut Machine,
        hv: &mut dyn Hypervisor,
        transport: &mut dyn Transport,
    ) -> Result<DestReport, HtpError> {
        let mirror = &mut self.mirror;
        let mut buf = Vec::new();
        let mut reply = Vec::new();
        // The incoming VM, once a `Hello` announced it.
        let mut vm: Option<(VmId, VmConfig)> = None;
        let mut rounds = 0u32;
        let mut frames = 0u64;
        let mut wire_bytes = 0u64;
        let mut warnings = Vec::new();
        let mut staging = Staging::default();

        loop {
            if transport.recv_frame(&mut buf).is_err() {
                // Mid-stream disconnect: any round in flight died unacked
                // (the resume `Hello` drops what its parts staged).
                // Re-accept and wait for the source's resume handshake.
                transport.reset().map_err(|_| link_err(session_name(&vm)))?;
                continue;
            }
            reply.clear();
            match buf.first().copied() {
                Some(MSG_HELLO) => {
                    let (cfg, resume, _round) =
                        decode_hello(&buf).ok_or_else(|| integrity(session_name(&vm)))?;
                    // A VM larger than this host's RAM can never land, and
                    // sizing its backing could overflow or abort: refuse it
                    // before anything is allocated.
                    if cfg.memory_gb > machine.spec().ram_gb {
                        return Err(HtpError::Unsupported(
                            "incoming VM larger than the destination's RAM",
                        ));
                    }
                    staging.drop_round(mirror);
                    if !resume {
                        vm = Some((hv.prepare_incoming(machine, &cfg)?, cfg));
                    }
                    reply.push(MSG_HELLO_ACK);
                    reply.push(kind_tag(hv.kind()));
                }
                Some(MSG_ROUND_PART) => {
                    let (id, cfg) = vm.as_ref().ok_or_else(|| integrity(session_name(&vm)))?;
                    let mut r = Reader::new(&buf);
                    let (Some(_), Some(round)) = (r.u8(), r.u32()) else {
                        return Err(integrity(&cfg.name));
                    };
                    let stream = r.rest();
                    staging.stage(machine, &*hv, *id, mirror, round, stream, cfg.pages())?;
                    // A part gets no reply: the round's verdict follows
                    // its closing `Round`.
                    continue;
                }
                Some(MSG_ROUND) => {
                    let (id, cfg) = vm.as_ref().ok_or_else(|| integrity(session_name(&vm)))?;
                    let mut r = Reader::new(&buf);
                    let (Some(_), Some(_stop), Some(round), Some(count)) =
                        (r.u8(), r.u8(), r.u32(), r.u64())
                    else {
                        return Err(integrity(&cfg.name));
                    };
                    let stream = r.rest();
                    // Stage the tail like any part, then land the whole
                    // round — or nothing of it.
                    staging.stage(machine, &*hv, *id, mirror, round, stream, cfg.pages())?;
                    if staging.close(machine, hv, *id, mirror, count)? {
                        rounds += 1;
                        frames += count;
                        wire_bytes += staging.wire_bytes;
                        reply.push(MSG_ACK);
                    } else {
                        reply.push(MSG_NAK);
                    }
                    reply.extend_from_slice(&round.to_le_bytes());
                }
                Some(MSG_UISR) => {
                    let id = vm.as_ref().ok_or_else(|| integrity(session_name(&vm)))?.0;
                    match hypertp_uisr::decode(&buf[1..]) {
                        Ok(state) => {
                            warnings = hv.restore_uisr(machine, id, &state)?.warnings;
                            reply.push(MSG_ACK);
                        }
                        Err(_) => reply.push(MSG_NAK),
                    }
                    reply.extend_from_slice(&UISR_ROUND.to_le_bytes());
                }
                Some(MSG_DONE) => {
                    let (id, cfg) = vm.take().ok_or_else(|| integrity(session_name(&vm)))?;
                    let mut r = Reader::new(&buf);
                    let (Some(_), Some(_src_checksum), Some(nanos)) = (r.u8(), r.u64(), r.u64())
                    else {
                        return Err(integrity(&cfg.name));
                    };
                    // A duration past the end of the clock is no
                    // migration's: advancing by it would panic, or wrap
                    // time backwards.
                    if machine
                        .clock()
                        .now()
                        .as_nanos()
                        .checked_add(nanos)
                        .is_none()
                    {
                        return Err(integrity(&cfg.name));
                    }
                    machine.clock().advance(SimDuration::from_nanos(nanos));
                    hv.resume_vm(id)?;
                    let checksum = vm_checksum(machine, &*hv, id)?;
                    reply.push(MSG_DONE_ACK);
                    reply.extend_from_slice(&checksum.to_le_bytes());
                    reply.extend_from_slice(&wire_bytes.to_le_bytes());
                    reply.extend_from_slice(&frames.to_le_bytes());
                    send(transport, &reply, &cfg.name)?;
                    return Ok(DestReport {
                        vm_name: cfg.name,
                        rounds,
                        frames,
                        wire_bytes,
                        checksum,
                        warnings,
                    });
                }
                _ => return Err(integrity(session_name(&vm))),
            }
            send(transport, &reply, session_name(&vm))?;
        }
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

    /// Creates the test VM and seeds a deterministic page mix (zeros,
    /// duplicates, uniques) so every frame kind is exercised.
    fn seed_vm(hv: &mut SimpleHv, m: &mut Machine) -> VmId {
        let id = hv.create_vm(m, &VmConfig::small("vm0")).unwrap();
        for i in 0..512u64 {
            let word = match i % 3 {
                0 => 0xdead_beef,
                1 => i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
                _ => 0,
            };
            hv.write_guest(m, id, Gfn(i * 7), word).unwrap();
        }
        hv.guest_tick(m, id, 100).unwrap();
        id
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
    /// controller setting, fault-free and with a dropped round, it makes
    /// the same rounds, wire traffic, timings and `LinkDrop` recoveries,
    /// and lands the same destination RAM, as the in-process engine.
    #[test]
    fn proxy_matches_engine_byte_for_byte() {
        let budget = MigrationConfig {
            downtime_budget: Some(SimDuration::from_millis(10)),
            ..config()
        };
        let mut auto_converge = config();
        auto_converge.control.auto_converge = true;
        let inputs = [
            ("default", config()),
            ("budget", budget),
            ("auto_converge", auto_converge),
        ];
        for (label, cfg) in inputs {
            for drop in [false, true] {
                let case = format!("{label}, drop={drop}");
                let faults = || {
                    let plan = FaultPlan::new(42);
                    if drop {
                        plan.arm_once(InjectionPoint::LinkDrop);
                    }
                    plan
                };

                // In-process engine run.
                let mut src_m = machine();
                let mut dst_m = machine();
                let mut src = SimpleHv::new(HypervisorKind::Xen);
                let mut dst = SimpleHv::new(HypervisorKind::Kvm);
                let id = seed_vm(&mut src, &mut src_m);
                let tp = MigrationTp::new().with_config(cfg).with_faults(faults());
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
                let mut psrc_m = machine();
                let mut pdst_m = machine();
                let mut psrc = SimpleHv::new(HypervisorKind::Xen);
                let mut pdst = SimpleHv::new(HypervisorKind::Kvm);
                let pid = seed_vm(&mut psrc, &mut psrc_m);
                let ptp = MigrationTp::new().with_config(cfg).with_faults(faults());
                let (mut ta, mut tb) = InProcTransport::pair();
                let mut tap = Tap::new(&mut ta);
                let (src_report, dst_report) = std::thread::scope(|s| {
                    let dest = s.spawn(|| run_dest(&mut pdst_m, &mut pdst, &mut tb));
                    let srcr = run_source(&ptp, &mut psrc_m, &mut psrc, pid, &mut tap).unwrap();
                    (srcr, dest.join().unwrap().unwrap())
                });

                // Round 0, the whole guest, spans more than two parts: its
                // `RoundPart`s and the closing `Round`.
                let round0_parts = tap.sent[1..]
                    .iter()
                    .take_while(|&&tag| tag == MSG_ROUND_PART)
                    .count();
                assert!(round0_parts + 1 > 2, "{case}: {round0_parts} part(s)");
                // No message holds more than one part: a `Round` header and
                // `PART_PAGES` of the largest frame, a `Dup`.
                let part_bytes = 14 + PART_PAGES * (WIRE_FRAME_HEADER + WIRE_DIGEST_BYTES) as usize;
                assert!(tap.largest <= part_bytes, "{case}: {} bytes", tap.largest);
                // The drop hit a round whose parts had been shipped: the
                // resume `Hello` follows them.
                let resumed = tap.sent[1..].iter().position(|&tag| tag == MSG_HELLO);
                assert_eq!(resumed.is_some(), drop, "{case}");
                if let Some(at) = resumed {
                    assert_eq!(tap.sent[at], MSG_ROUND_PART, "{case}");
                }

                assert_eq!(
                    src_report.rounds as usize,
                    engine_report.rounds.len(),
                    "{case}"
                );
                assert_eq!(src_report.bytes_sent, engine_report.bytes_sent, "{case}");
                assert_eq!(src_report.wire, engine_report.wire, "{case}");
                assert_eq!(src_report.downtime, engine_report.downtime, "{case}");
                assert_eq!(src_report.total, engine_report.total, "{case}");
                assert_eq!(src_report.uisr_bytes, engine_report.uisr_bytes, "{case}");
                let link_drops = |plan: &FaultPlan| -> Vec<_> {
                    let log = plan.log();
                    let drops = log
                        .events()
                        .iter()
                        .filter(|e| e.point() == InjectionPoint::LinkDrop);
                    drops.cloned().collect()
                };
                assert_eq!(link_drops(&ptp.faults), link_drops(&tp.faults), "{case}");
                assert_eq!(link_drops(&tp.faults).is_empty(), !drop, "{case}");
                assert_eq!(src_report.dst_checksum, engine_checksum, "{case}");
                assert_eq!(dst_report.checksum, engine_checksum, "{case}");
                assert_eq!(src_report.src_checksum, engine_checksum, "{case}");

                // Both sides converged on the same simulated time.
                assert_eq!(psrc_m.clock().now(), pdst_m.clock().now(), "{case}");
                assert!(psrc.vm_ids().is_empty(), "source VM destroyed");
                let landed = pdst.vm_state(pdst.find_vm("vm0").unwrap()).unwrap();
                assert_eq!(landed, VmState::Running, "{case}");
            }
        }
    }

    /// A source transport that records the tag of every message it sends,
    /// and the largest message's length.
    struct Tap<'a> {
        inner: &'a mut dyn Transport,
        sent: Vec<u8>,
        largest: usize,
    }

    impl<'a> Tap<'a> {
        fn new(inner: &'a mut dyn Transport) -> Self {
            Tap {
                inner,
                sent: Vec::new(),
                largest: 0,
            }
        }
    }

    impl Transport for Tap<'_> {
        fn send_frame(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
            self.sent.extend(bytes.first());
            self.largest = self.largest.max(bytes.len());
            self.inner.send_frame(bytes)
        }
        fn flush(&mut self) -> Result<(), TransportError> {
            self.inner.flush()
        }
        fn recv_frame(&mut self, out: &mut Vec<u8>) -> Result<(), TransportError> {
            self.inner.recv_frame(out)
        }
        fn reset(&mut self) -> Result<(), TransportError> {
            self.inner.reset()
        }
    }

    /// Plays `msgs` into `dest` on `m`/`hv` as a hostile source would
    /// (never waiting for a reply) and returns what it served, with every
    /// reply it sent. The script must end the session — with `Done` or a
    /// message the destination rejects — or `serve` waits for more.
    fn serve_scripted(
        dest: &mut DestProxy,
        m: &mut Machine,
        hv: &mut SimpleHv,
        msgs: &[Vec<u8>],
    ) -> (Result<DestReport, HtpError>, Vec<Vec<u8>>) {
        let (mut ta, mut tb) = InProcTransport::pair();
        let served = std::thread::scope(|s| {
            // `tb` moves in, so the replies end where the session does.
            let dest = s.spawn(move || dest.serve(m, hv, &mut tb));
            for msg in msgs {
                // The destination may already have hung up on us.
                let _ = ta.send_frame(msg).and_then(|_| ta.flush());
            }
            dest.join().expect("destination proxy panicked")
        });
        let (mut replies, mut reply) = (Vec::new(), Vec::new());
        while ta.recv_frame(&mut reply).is_ok() {
            replies.push(reply.clone());
        }
        (served, replies)
    }

    /// A `Round` message carrying `frames`, built by pushing them onto a
    /// ring; its last frame is corrupted when `corrupt`.
    fn round_msg(round: u32, corrupt: bool, frames: impl FnOnce(&mut FrameRing)) -> Vec<u8> {
        let mut ring = FrameRing::new();
        frames(&mut ring);
        let mut msg = Vec::new();
        encode_round(&mut msg, &ring, round, corrupt);
        msg
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
                    encode_part(&mut msg, &ring, round);
                    ring.drain();
                } else {
                    encode_round(&mut msg, &ring, round, corrupt);
                }
                msg
            })
            .collect()
    }

    /// A `Done` with a zero checksum and duration (the destination
    /// echoes its own checksum whatever the source's).
    fn done() -> Vec<u8> {
        let mut msg = vec![MSG_DONE];
        msg.extend_from_slice(&[0; 16]);
        msg
    }

    /// The tag and round of each `Ack`/`Nak` among `replies`.
    fn verdicts(replies: &[Vec<u8>]) -> Vec<(u8, u32)> {
        replies
            .iter()
            .filter(|r| matches!(r.first(), Some(&MSG_ACK | &MSG_NAK)))
            .map(|r| (r[0], u32::from_le_bytes(r[1..5].try_into().unwrap())))
            .collect()
    }

    /// `gfn`'s word in the landed VM `name`.
    fn landed(m: &Machine, hv: &SimpleHv, name: &str, gfn: u64) -> u64 {
        hv.read_guest(m, hv.find_vm(name).unwrap(), Gfn(gfn))
            .unwrap()
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
        let msgs = [
            hello(&VmConfig::small("vm0")),
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
            done(),
        ];
        let mut m = machine();
        let mut hv = SimpleHv::new(HypervisorKind::Kvm);
        let (served, replies) = serve_scripted(&mut DestProxy::new(), &mut m, &mut hv, &msgs);
        let report = served.unwrap();
        assert_eq!(
            verdicts(&replies),
            [(MSG_NAK, 0), (MSG_NAK, 1), (MSG_ACK, 2), (MSG_ACK, 3)]
        );
        assert_eq!((report.rounds, report.frames), (2, 2));
        let page = |gfn| landed(&m, &hv, "vm0", gfn);
        assert_eq!(
            (page(1), page(2), page(3)),
            (a, 0, a),
            "naked rounds wrote nothing"
        );
    }

    /// A round of three messages whose closing `Round` arrives with its
    /// last frame truncated naks, and nothing its earlier parts staged
    /// survives: no page is written, the mirror holds nothing, and a later
    /// `Dup` of their content naks too.
    #[test]
    fn truncated_multi_part_round_leaves_nothing_behind() {
        let words = [0xaaaa_0001u64, 0xbbbb_0002, 0xcccc_0003];
        let mut msgs = vec![hello(&VmConfig::small("vm0"))];
        msgs.extend(round_parts(0, 3, true, |k, r| {
            r.push_raw(k as u64 + 1, words[k]);
        }));
        msgs.push(round_msg(1, false, |r| {
            r.push_dup(5, digest_words(&[words[0]]));
        }));
        msgs.push(done());
        let mut m = machine();
        let mut hv = SimpleHv::new(HypervisorKind::Kvm);
        let mut dest = DestProxy::new();
        let (served, replies) = serve_scripted(&mut dest, &mut m, &mut hv, &msgs);
        let report = served.unwrap();
        assert_eq!(verdicts(&replies), [(MSG_NAK, 0), (MSG_NAK, 1)]);
        assert_eq!((report.rounds, report.frames), (0, 0));
        let pages: Vec<u64> = [1, 2, 3, 5].map(|g| landed(&m, &hv, "vm0", g)).into();
        assert_eq!(pages, [0; 4], "naked rounds wrote nothing");
        assert!(dest.mirror.entries.is_empty());
    }

    /// A `RoundPart` before any `Hello` names no VM: an integrity error,
    /// with nothing prepared and no reply.
    #[test]
    fn round_part_before_hello_is_an_integrity_error() {
        let part = round_parts(0, 2, false, |_, r| {
            r.push_raw(1, 0x5eed);
        })
        .remove(0);
        let mut m = machine();
        let mut hv = SimpleHv::new(HypervisorKind::Kvm);
        let (served, replies) = serve_scripted(&mut DestProxy::new(), &mut m, &mut hv, &[part]);
        let err = served.unwrap_err();
        assert!(
            matches!(err, HtpError::IntegrityViolation { .. }),
            "{err:?}"
        );
        assert!(replies.is_empty());
        assert!(hv.vm_ids().is_empty());
    }

    /// Parts of round 3 closed by a `Round` 4: round 4 naks and nothing
    /// the parts staged is written.
    #[test]
    fn parts_closed_by_another_round_nak() {
        let words = [0xaaaa_0001u64, 0xbbbb_0002, 0xcccc_0003];
        let mut round = round_parts(3, 3, false, |k, r| {
            r.push_raw(k as u64 + 1, words[k]);
        });
        round[2][2..6].copy_from_slice(&4u32.to_le_bytes());
        let mut msgs = vec![hello(&VmConfig::small("vm0"))];
        msgs.extend(round);
        msgs.push(done());
        let mut m = machine();
        let mut hv = SimpleHv::new(HypervisorKind::Kvm);
        let (served, replies) = serve_scripted(&mut DestProxy::new(), &mut m, &mut hv, &msgs);
        assert_eq!(served.unwrap().rounds, 0);
        assert_eq!(verdicts(&replies), [(MSG_NAK, 4)]);
        let pages: Vec<u64> = [1, 2, 3].map(|g| landed(&m, &hv, "vm0", g)).into();
        assert_eq!(pages, [0; 3]);
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
            let mut msgs = vec![hello(&VmConfig::small("vm0"))];
            msgs.extend(round.iter().cloned());
            if junk {
                // Part 0's frame, then 7 bytes no frame parses from: one
                // frame staged, and the next part brings the total to 3.
                msgs[1].extend_from_slice(&[0xff; 7]);
            }
            msgs.push(done());
            let mut m = machine();
            let mut hv = SimpleHv::new(HypervisorKind::Kvm);
            let (served, replies) = serve_scripted(&mut DestProxy::new(), &mut m, &mut hv, &msgs);
            served.unwrap();
            let pages: Vec<u64> = [1, 2, 3].map(|g| landed(&m, &hv, "vm0", g)).into();
            if junk {
                assert_eq!(verdicts(&replies), [(MSG_NAK, 0)]);
                assert_eq!(pages, [0; 3]);
            } else {
                assert_eq!(verdicts(&replies), [(MSG_ACK, 0)]);
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
        for (parts, verdict) in [(2, MSG_ACK), (3, MSG_NAK)] {
            let mut msgs = vec![hello(&cfg)];
            msgs.extend(round_parts(0, parts, false, frames));
            msgs.push(done());
            let mut m = machine();
            let mut hv = SimpleHv::new(HypervisorKind::Kvm);
            let mut dest = DestProxy::new();
            let (served, replies) = serve_scripted(&mut dest, &mut m, &mut hv, &msgs);
            served.unwrap();
            assert_eq!(verdicts(&replies), [(verdict, 0)], "{parts} parts");
            let want = if verdict == MSG_ACK { word(1) } else { 0 };
            assert_eq!(landed(&m, &hv, "vm0", 1), want, "{parts} parts");
        }

        // The refusal comes before staging grows: the third message stages
        // nothing and parses at most one frame past the bound.
        let mut m = machine();
        let mut hv = SimpleHv::new(HypervisorKind::Kvm);
        let id = hv.prepare_incoming(&mut m, &cfg).unwrap();
        let (mut staging, mut mirror) = (Staging::default(), ContentMirror::default());
        for msg in round_parts(0, 3, false, frames) {
            // Past the header: tag and round, and a `Round`'s stop flag
            // and count.
            let stream = &msg[if msg[0] == MSG_ROUND { 14 } else { 5 }..];
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
        let first = [
            hello(&VmConfig::small("vm0")),
            round_msg(0, false, |r| {
                r.push_raw(1, word);
            }),
            done(),
        ];
        let second = [
            hello(&VmConfig::small("vm1")),
            round_msg(0, false, |r| {
                r.push_dup(5, digest_words(&[word]));
            }),
            done(),
        ];
        let mut m = machine();
        let mut hv = SimpleHv::new(HypervisorKind::Kvm);
        let mut dest = DestProxy::new();
        let (served, _) = serve_scripted(&mut dest, &mut m, &mut hv, &first);
        served.unwrap();
        let (served, replies) = serve_scripted(&mut dest, &mut m, &mut hv, &second);
        served.unwrap();
        assert_eq!(verdicts(&replies), [(MSG_ACK, 0)]);
        assert_eq!(landed(&m, &hv, "vm1", 5), word);

        let mut fresh_m = machine();
        let mut fresh_hv = SimpleHv::new(HypervisorKind::Kvm);
        let (_, replies) =
            serve_scripted(&mut DestProxy::new(), &mut fresh_m, &mut fresh_hv, &second);
        assert_eq!(
            verdicts(&replies),
            [(MSG_NAK, 0)],
            "a fresh mirror lacks it"
        );
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
                    assert_eq!(
                        mirror.get(content_key(w)),
                        None,
                        "round {round}: {w} stayed"
                    );
                }
            }
            assert_eq!(mirror.entries, acked, "round {round}");
            assert_eq!(mirror.index.len(), acked.len(), "round {round}");
            for &w in &acked {
                assert_eq!(
                    mirror.get(content_key(w)),
                    Some(w),
                    "round {round}: lost {w}"
                );
            }
        }
        assert!(
            naked > 1_000 && acked.len() > 1_000,
            "{naked} naked, {} acked",
            acked.len()
        );
    }

    fn hello(cfg: &VmConfig) -> Vec<u8> {
        let mut msg = Vec::new();
        encode_hello(&mut msg, cfg, false, 0).expect("test names fit the prefix");
        msg
    }

    /// A `Hello` for a VM larger than the destination's RAM is refused
    /// before anything is allocated — at 2^34 GiB sizing it would
    /// overflow (a 1 PiB one would abort the process in the allocator).
    #[test]
    fn hello_larger_than_host_ram_is_refused() {
        let mut m = machine();
        let mut hv = SimpleHv::new(HypervisorKind::Kvm);
        for memory_gb in [5, 1 << 20, 1 << 34, u64::MAX] {
            let huge = VmConfig::small("huge").with_memory_gb(memory_gb);
            let err = serve_scripted(&mut DestProxy::new(), &mut m, &mut hv, &[hello(&huge)])
                .0
                .unwrap_err();
            assert!(
                matches!(err, HtpError::Unsupported(_)),
                "{memory_gb} GiB: {err:?}"
            );
            assert!(
                hv.vm_ids().is_empty(),
                "nothing prepared for {memory_gb} GiB"
            );
        }
    }

    /// A `Done` claiming a duration past the end of the destination's
    /// clock is refused, and the clock does not move (it would panic, or
    /// wrap time backwards).
    #[test]
    fn done_overflowing_the_clock_is_refused() {
        let mut m = machine();
        let mut hv = SimpleHv::new(HypervisorKind::Kvm);
        m.clock().advance(SimDuration::from_secs(1));
        let before = m.clock().now();
        let mut done = vec![MSG_DONE];
        done.extend_from_slice(&0u64.to_le_bytes());
        done.extend_from_slice(&u64::MAX.to_le_bytes());
        let msgs = [hello(&VmConfig::small("vm0")), done];
        let err = serve_scripted(&mut DestProxy::new(), &mut m, &mut hv, &msgs)
            .0
            .unwrap_err();
        assert!(
            matches!(err, HtpError::IntegrityViolation { .. }),
            "{err:?}"
        );
        assert_eq!(m.clock().now(), before);
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
            let mut m = machine();
            let mut hv = SimpleHv::new(HypervisorKind::Kvm);
            let _ = served_tx.send(run_dest(&mut m, &mut hv, &mut tb));
        });
        ta.send_frame(&hello(&VmConfig::small("vm0"))).unwrap();
        ta.flush().unwrap();
        let mut reply = Vec::new();
        ta.recv_frame(&mut reply).unwrap();
        assert_eq!(reply.first(), Some(&MSG_HELLO_ACK));
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

    /// Chaos run: a mid-stream disconnect, a truncated frame, and a
    /// corrupted UISR blob all recover through the protocol (resume
    /// handshake, whole-round nak/re-send, blob re-send) and still land a
    /// byte-identical destination.
    #[test]
    fn proxy_recovers_from_injected_faults() {
        let mut src_m = machine();
        let mut dst_m = machine();
        let mut src = SimpleHv::new(HypervisorKind::Xen);
        let mut dst = SimpleHv::new(HypervisorKind::Kvm);
        let id = seed_vm(&mut src, &mut src_m);
        let faults = FaultPlan::new(42);
        faults.arm_once(InjectionPoint::LinkDrop);
        faults.arm_once(InjectionPoint::TruncatedPage);
        faults.arm_once(InjectionPoint::UisrCorruption);
        let tp = MigrationTp::new().with_config(config()).with_faults(faults);
        let (mut ta, mut tb) = InProcTransport::pair();
        let (src_report, dst_report) = std::thread::scope(|s| {
            let dest = s.spawn(|| run_dest(&mut dst_m, &mut dst, &mut tb));
            let srcr = run_source(&tp, &mut src_m, &mut src, id, &mut ta).unwrap();
            (srcr, dest.join().unwrap().unwrap())
        });
        assert_eq!(src_report.dst_checksum, dst_report.checksum);

        let log = tp.faults.log();
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
        assert_eq!(src_report.src_checksum, dst_report.checksum);
        assert_eq!(
            dst.vm_state(dst.find_vm("vm0").unwrap()).unwrap(),
            VmState::Running
        );
    }
}
