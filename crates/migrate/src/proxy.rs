//! The §4.2 source/destination proxy pair over a pluggable transport.
//!
//! The in-process engine ([`crate::engine::MigrationTp`]) holds both
//! machines in one address space. The paper's deployment instead runs a
//! *proxy* on each machine: the source proxy drives the pre-copy loop and
//! streams serialized frames, the destination proxy materialises them and
//! translates the VMi State through UISR. This module is that split: the
//! exact same encode path (shared [`crate::wire::TransferCache`], shared
//! [`crate::framing::FrameRing`] scratch, same frame classification) with
//! a [`Transport`] in the middle — so a fault-free proxy run produces a
//! destination RAM image and [`WireStats`] **byte-identical** to the
//! in-process engine.
//!
//! **Protocol.** Each transport frame is one message, tag byte first:
//!
//! | tag  | message   | payload |
//! |------|-----------|---------|
//! | 0x10 | Hello     | resume flag, round, [`VmConfig`] |
//! | 0x11 | HelloAck  | destination hypervisor kind |
//! | 0x12 | Round     | stop flag, round, frame count, serialized frames |
//! | 0x13 | Ack       | round (`u32::MAX` acks the UISR blob) |
//! | 0x14 | Nak       | round (`u32::MAX` = UISR decode rejected) |
//! | 0x15 | Uisr      | encoded UISR blob |
//! | 0x16 | Done      | source RAM checksum, total duration |
//! | 0x17 | DoneAck   | destination RAM checksum, wire bytes, frames |
//!
//! **Commit discipline.** A round commits on `Ack` delivery: the
//! destination stages every write (and dedup-mirror insert) while
//! validating the stream, applies atomically, then acks; the source
//! commits its cache journal and ring watermark only on the ack. A
//! mid-stream disconnect therefore loses the round wholesale — the
//! destination drops its staged state, the source rolls back and
//! re-encodes against what the destination still holds, exactly like the
//! engine's `LinkDrop` recovery (and recorded through the same
//! [`RecoveryAction`]s). The destination's dedup mirror is insert-only
//! and content-addressed; the source's LRU evictions only downgrade
//! future `Dup`s, so a larger mirror can never disagree.

use hypertp_core::{HtpError, Hypervisor, HypervisorKind, VmConfig, VmId};
use hypertp_machine::Gfn;
use hypertp_machine::Machine;
use hypertp_sim::fault::{InjectionPoint, RecoveryAction};
use hypertp_sim::hash::digest_words;
use hypertp_sim::SimDuration;

use crate::engine::{backoff_delay, MigrationTp};
use crate::framing::FrameIter;
use crate::network::{FrameKind, WireStats};
use crate::transport::Transport;
use crate::wire::{delta_apply_word, DigestMap};

const MSG_HELLO: u8 = 0x10;
const MSG_HELLO_ACK: u8 = 0x11;
const MSG_ROUND: u8 = 0x12;
const MSG_ACK: u8 = 0x13;
const MSG_NAK: u8 = 0x14;
const MSG_UISR: u8 = 0x15;
const MSG_DONE: u8 = 0x16;
const MSG_DONE_ACK: u8 = 0x17;

/// Round number that acks/naks the UISR blob instead of a page round.
const UISR_ROUND: u32 = u32::MAX;

/// Maps a transport failure to the engine's link-failure error.
fn link_err(vm_name: &str, e: crate::transport::TransportError) -> HtpError {
    let _ = e;
    HtpError::LinkFailure {
        vm_name: vm_name.to_string(),
        retries: 0,
    }
}

fn integrity(vm_name: &str) -> HtpError {
    HtpError::IntegrityViolation {
        vm_name: vm_name.to_string(),
    }
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
    fn u8(&mut self) -> Option<u8> {
        let v = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }
    fn u16(&mut self) -> Option<u16> {
        let b = self.buf.get(self.pos..self.pos + 2)?;
        self.pos += 2;
        Some(u16::from_le_bytes(b.try_into().ok()?))
    }
    fn u32(&mut self) -> Option<u32> {
        let b = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(b.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        let b = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(b.try_into().ok()?))
    }
    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let b = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(b)
    }
    fn rest(&mut self) -> &'a [u8] {
        let b = &self.buf[self.pos..];
        self.pos = self.buf.len();
        b
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn get_str(r: &mut Reader<'_>) -> Option<String> {
    let n = r.u16()? as usize;
    String::from_utf8(r.bytes(n)?.to_vec()).ok()
}

fn encode_hello(out: &mut Vec<u8>, cfg: &VmConfig, resume: bool, round: u32) {
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
    put_str(out, &cfg.name);
    put_str(out, &cfg.storage_backend);
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
/// the content words; both proxies compute it the same way).
pub fn guest_checksum(
    machine: &Machine,
    hv: &dyn Hypervisor,
    id: VmId,
    gfns: &[Gfn],
) -> Result<u64, HtpError> {
    let words = hv.read_guest_many(machine, id, gfns)?;
    let d = digest_words(&words);
    Ok(d.hi ^ d.lo)
}

fn all_gfns(hv: &dyn Hypervisor, id: VmId) -> Result<Vec<Gfn>, HtpError> {
    Ok(hv
        .guest_memory_map(id)?
        .iter()
        .flat_map(|(gfn, e)| (gfn.0..gfn.0 + e.pages()).map(Gfn))
        .collect())
}

/// Runs the source proxy: drives the pre-copy loop against the local
/// (source) hypervisor, streaming each round's serialized frames through
/// `transport` and committing the shared cache/ring state on the
/// destination's acks. Advances the source clock through the migration
/// and destroys the source VM on success, like
/// [`crate::engine::MigrationTp::migrate`].
///
/// The proxy always speaks the serialized content-aware stream (the
/// frame ring is the wire format) — [`crate::engine::WireMode`] does not
/// apply — and drives the static pre-copy loop: the adaptive controller
/// ([`crate::control::PrecopyController`]) is not replicated across the
/// split, so equivalence against the engine holds for
/// controller-inactive configurations.
///
/// Fault injection points mirror the engine's, with the same labels and
/// [`RecoveryAction`]s: `LinkDrop` tears the transport down mid-stream
/// (the retry re-handshakes with a resume `Hello` and re-encodes against
/// the rolled-back cache), `TruncatedPage` corrupts a frame in flight
/// (the destination naks, the source re-encodes and re-sends), and
/// `UisrCorruption` damages the UISR blob (nak → re-send).
pub fn run_source(
    tp: &MigrationTp,
    machine: &mut Machine,
    hv: &mut dyn Hypervisor,
    id: VmId,
    transport: &mut dyn Transport,
) -> Result<ProxyReport, HtpError> {
    let cfg = hv.vm_config(id)?.clone();
    let vm_name = cfg.name.clone();
    let mut msg = Vec::new();
    encode_hello(&mut msg, &cfg, false, 0);
    transport
        .send_frame(&msg)
        .and_then(|_| transport.flush())
        .map_err(|e| link_err(&vm_name, e))?;
    transport
        .recv_frame(&mut msg)
        .map_err(|e| link_err(&vm_name, e))?;
    let dst_kind = (msg.first() == Some(&MSG_HELLO_ACK))
        .then(|| msg.get(1).copied())
        .flatten()
        .and_then(kind_from_tag)
        .ok_or_else(|| integrity(&vm_name))?;

    hv.enable_dirty_log(id)?;
    let everything = all_gfns(&*hv, id)?;
    let mut wire = WireStats::new();
    let cache_before = tp.cache.stats();
    let dirty_rate = tp.config.dirty_rate_pages_per_sec;
    let mut round = 0u32;
    let mut bytes_sent = 0u64;
    let mut precopy = SimDuration::ZERO;
    let mut to_send = everything.clone();
    let stop_set;
    loop {
        let (wb, duration) = send_round(
            tp, machine, hv, id, transport, &to_send, round, &vm_name, &mut wire,
        )?;
        bytes_sent += wb;
        precopy += duration;
        let dirtied = ((dirty_rate * duration.as_secs_f64()) as u64).min(cfg.pages());
        if dirtied > 0 {
            hv.guest_tick(machine, id, dirtied)?;
        }
        round += 1;
        let dirty = hv.collect_dirty(id)?;
        if dirty.len() as u64 <= tp.config.stop_threshold_pages || round >= tp.config.max_rounds {
            stop_set = dirty;
            break;
        }
        to_send = dirty;
    }

    // Stop-and-copy: quiesce, pause, ship the residual set and the UISR.
    precopy += hv.notify_prepare_transplant(machine, id)?;
    hv.pause_vm(id)?;
    let (final_bytes, _stop_dur) = send_round(
        tp, machine, hv, id, transport, &stop_set, round, &vm_name, &mut wire,
    )?;
    bytes_sent += final_bytes;

    let uisr = hv.save_uisr(machine, id)?;
    let blob = hypertp_uisr::encode(&uisr);
    let mut uisr_sends = 1u64;
    if tp
        .faults
        .should_inject(InjectionPoint::UisrCorruption, &vm_name)
    {
        // The blob is damaged in flight; the destination's decode rejects
        // it and naks, and the source re-sends.
        let mut damaged = blob.clone();
        damaged[0] ^= 0xff;
        msg.clear();
        msg.push(MSG_UISR);
        msg.extend_from_slice(&damaged);
        transport
            .send_frame(&msg)
            .and_then(|_| transport.flush())
            .map_err(|e| link_err(&vm_name, e))?;
        transport
            .recv_frame(&mut msg)
            .map_err(|e| link_err(&vm_name, e))?;
        let naked = msg.first() == Some(&MSG_NAK);
        debug_assert!(naked, "corrupted magic must not decode");
        if naked {
            uisr_sends = 2;
            tp.faults.record_recovery(
                InjectionPoint::UisrCorruption,
                RecoveryAction::ResentUisr,
                &format!(
                    "{vm_name}: decode rejected corrupted blob; re-sent {} bytes",
                    blob.len()
                ),
            );
        }
    }
    msg.clear();
    msg.push(MSG_UISR);
    msg.extend_from_slice(&blob);
    transport
        .send_frame(&msg)
        .and_then(|_| transport.flush())
        .map_err(|e| link_err(&vm_name, e))?;
    transport
        .recv_frame(&mut msg)
        .map_err(|e| link_err(&vm_name, e))?;
    if msg.first() != Some(&MSG_ACK) {
        return Err(integrity(&vm_name));
    }

    let stop_copy = tp.config.link.transfer(final_bytes, 1)
        + tp.config.link.transfer(blob.len() as u64 * uisr_sends, 1)
        + tp.cost.activate(dst_kind.boot_target(), cfg.vcpus);
    let total = precopy + stop_copy;

    let src_checksum = guest_checksum(machine, &*hv, id, &everything)?;
    msg.clear();
    msg.push(MSG_DONE);
    msg.extend_from_slice(&src_checksum.to_le_bytes());
    msg.extend_from_slice(&total.as_nanos().to_le_bytes());
    transport
        .send_frame(&msg)
        .and_then(|_| transport.flush())
        .map_err(|e| link_err(&vm_name, e))?;
    transport
        .recv_frame(&mut msg)
        .map_err(|e| link_err(&vm_name, e))?;
    let mut r = Reader::new(&msg);
    if r.u8() != Some(MSG_DONE_ACK) {
        return Err(integrity(&vm_name));
    }
    let dst_checksum = r.u64().ok_or_else(|| integrity(&vm_name))?;
    let _dst_wire_bytes = r.u64().ok_or_else(|| integrity(&vm_name))?;
    let dst_frames = r.u64().ok_or_else(|| integrity(&vm_name))?;
    if dst_checksum != src_checksum {
        return Err(integrity(&vm_name));
    }

    machine.clock().advance(total);
    hv.destroy_vm(machine, id)?;

    let cs = tp.cache.stats();
    wire.record_cache(
        cs.occupancy,
        cs.capacity,
        cs.evictions - cache_before.evictions,
        cs.dup_hits - cache_before.dup_hits,
        cs.dup_lookups - cache_before.dup_lookups,
    );

    Ok(ProxyReport {
        vm_name,
        rounds: round,
        bytes_sent,
        uisr_bytes: blob.len() as u64,
        wire,
        precopy,
        downtime: stop_copy,
        total,
        src_checksum,
        dst_checksum,
        dst_frames,
    })
}

/// Encodes one round through the engine's shared ring scratch, ships it,
/// and waits for the destination's verdict — retrying through injected
/// link drops (transport reset + resume handshake + cache/ring rollback)
/// and naks (re-encode + re-send). Returns (accounted wire bytes
/// including lost attempts, simulated round duration).
#[allow(clippy::too_many_arguments)]
fn send_round(
    tp: &MigrationTp,
    machine: &Machine,
    hv: &dyn Hypervisor,
    id: VmId,
    transport: &mut dyn Transport,
    to_send: &[Gfn],
    round: u32,
    vm_name: &str,
    wire: &mut WireStats,
) -> Result<(u64, SimDuration), HtpError> {
    let perf = machine.spec().perf();
    let pages = to_send.len() as u64;
    let cfg = hv.vm_config(id)?.clone();
    let mut duration = SimDuration::ZERO;
    let mut drops = 0u32;
    let mut naks = 0u32;
    let mut lost_bytes = 0u64;
    let mut msg = Vec::new();
    let wb = loop {
        let wb = tp.gather_encode_ring(machine, hv, id, to_send)?;

        // Mid-stream disconnect: the connection dies before the round is
        // acked. Nothing shipped was acked — roll the cache journal and
        // the ring back, tear the transport down, re-handshake, and
        // re-encode against what the destination actually holds.
        if tp.faults.should_inject(
            InjectionPoint::LinkDrop,
            &format!("{vm_name} round {round}"),
        ) {
            tp.cache.rollback_round();
            tp.scratch.round().ring.rollback();
            tp.faults.record_recovery(
                InjectionPoint::LinkDrop,
                RecoveryAction::InvalidatedWireCache,
                &format!("{vm_name} round {round}: rolled back dedup/delta journal"),
            );
            drops += 1;
            if drops > tp.config.max_link_retries {
                tp.faults.record_recovery(
                    InjectionPoint::LinkDrop,
                    RecoveryAction::GaveUp,
                    &format!(
                        "{vm_name} round {round}: {} retries exhausted",
                        tp.config.max_link_retries
                    ),
                );
                tp.cache.forget_vm(id.0);
                return Err(HtpError::LinkFailure {
                    vm_name: vm_name.to_string(),
                    retries: tp.config.max_link_retries,
                });
            }
            transport.reset().map_err(|e| link_err(vm_name, e))?;
            let wait = backoff_delay(tp.config.retry_backoff, drops);
            duration += tp.config.link.transfer(wb / 2, 1) + wait;
            tp.faults.record_recovery(
                InjectionPoint::LinkDrop,
                RecoveryAction::RetriedWithBackoff,
                &format!(
                    "{vm_name} round {round} attempt {drops} backoff {:.0}ms",
                    wait.as_millis_f64()
                ),
            );
            // Resume handshake: tell the destination which round we are
            // re-sending so it drops any staged state.
            encode_hello(&mut msg, &cfg, true, round);
            transport
                .send_frame(&msg)
                .and_then(|_| transport.flush())
                .map_err(|e| link_err(vm_name, e))?;
            transport
                .recv_frame(&mut msg)
                .map_err(|e| link_err(vm_name, e))?;
            if msg.first() != Some(&MSG_HELLO_ACK) {
                return Err(integrity(vm_name));
            }
            continue;
        }

        // Build the round message around the ring's serialized bytes.
        let truncate = to_send.last().is_some_and(|g| {
            tp.faults.should_inject(
                InjectionPoint::TruncatedPage,
                &format!("{vm_name} round {round} gfn {}", g.0),
            )
        });
        {
            let s = tp.scratch.round();
            msg.clear();
            msg.push(MSG_ROUND);
            msg.push(0);
            msg.extend_from_slice(&round.to_le_bytes());
            msg.extend_from_slice(&s.ring.frame_count().to_le_bytes());
            msg.extend_from_slice(s.ring.bytes());
            if truncate {
                // Corrupt the last frame's header in the outgoing copy
                // (the ring itself stays intact): the destination's parse
                // fails and it naks the whole round.
                let last_start = msg.len() - s.ring.iter().last().map_or(0, |v| v.frame_bytes());
                msg[last_start] ^= 0x7f;
            }
        }
        transport
            .send_frame(&msg)
            .and_then(|_| transport.flush())
            .map_err(|e| link_err(vm_name, e))?;
        transport
            .recv_frame(&mut msg)
            .map_err(|e| link_err(vm_name, e))?;
        let mut r = Reader::new(&msg);
        match (r.u8(), r.u32()) {
            (Some(MSG_ACK), Some(rr)) if rr == round => break wb,
            (Some(MSG_NAK), Some(rr)) if rr == round => {
                // The destination rejected the stream (corrupt frame):
                // everything staged was dropped, so roll back and
                // re-encode. The lost attempt's bytes were on the wire.
                tp.cache.rollback_round();
                tp.scratch.round().ring.rollback();
                naks += 1;
                if naks > tp.config.max_link_retries {
                    return Err(integrity(vm_name));
                }
                lost_bytes += wb;
                duration += tp.config.link.transfer(wb, 1);
                tp.faults.record_recovery(
                    InjectionPoint::TruncatedPage,
                    RecoveryAction::ResentPages,
                    &format!("{vm_name} round {round}: destination nak, re-sent {pages} page(s)"),
                );
                continue;
            }
            _ => return Err(integrity(vm_name)),
        }
    };
    if drops > 0 {
        tp.faults.record_recovery(
            InjectionPoint::LinkDrop,
            RecoveryAction::ResumedFromRound,
            &format!("{vm_name} resumed at round {round} after {drops} drop(s)"),
        );
    }

    duration += tp.config.link.transfer(wb, 1)
        + perf.cpu(tp.cost.migrate_ghz_s_per_page * pages as f64)
        + SimDuration::from_secs_f64(tp.cost.migrate_round_overhead_s);

    // The destination acked: record the round's frames and seal the
    // cache journal and ring watermark.
    {
        let s = tp.scratch.round();
        for view in s.ring.iter() {
            wire.record_parts(view.kind, view.wire_bytes());
        }
    }
    tp.cache.commit_round();
    tp.scratch.round().ring.commit();
    Ok((wb + lost_bytes, duration))
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

/// The destination proxy's cross-migration state: the insert-only mirror
/// of the source's dedup map. Evictions on the source only downgrade
/// future `Dup`s to `Raw`, so keeping more than the source can never
/// disagree — and a fleet's later VMs reference content first shipped
/// during earlier VMs' sessions.
#[derive(Debug, Default)]
pub struct DestProxy {
    mirror: DigestMap<u64>,
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
        serve_one(machine, hv, transport, &mut self.mirror)
    }
}

fn serve_one(
    machine: &mut Machine,
    hv: &mut dyn Hypervisor,
    transport: &mut dyn Transport,
    mirror: &mut DigestMap<u64>,
) -> Result<DestReport, HtpError> {
    let mut buf = Vec::new();
    let mut reply = Vec::new();
    let mut dst_id: Option<VmId> = None;
    let mut cfg: Option<VmConfig> = None;
    let mut rounds = 0u32;
    let mut frames = 0u64;
    let mut wire_bytes = 0u64;
    let mut warnings = Vec::new();
    // Per-round staging, reused from round to round: the round's gfns and
    // their current words, the guest writes to apply, the mirror inserts.
    let mut gfns: Vec<Gfn> = Vec::new();
    let mut current: Vec<u64> = Vec::new();
    let mut writes: Vec<(Gfn, u64)> = Vec::new();
    let mut inserts: DigestMap<u64> = DigestMap::default();
    let name = |cfg: &Option<VmConfig>| {
        cfg.as_ref()
            .map(|c| c.name.clone())
            .unwrap_or_else(|| "<handshake>".to_string())
    };

    loop {
        if transport.recv_frame(&mut buf).is_err() {
            // Mid-stream disconnect: any round in flight died unacked (we
            // stage per message, so nothing partial survives). Re-accept
            // and wait for the source's resume handshake.
            transport.reset().map_err(|e| link_err(&name(&cfg), e))?;
            continue;
        }
        match buf.first().copied() {
            Some(MSG_HELLO) => {
                let (hello_cfg, resume, _round) =
                    decode_hello(&buf).ok_or_else(|| integrity(&name(&cfg)))?;
                if !resume {
                    let id = hv.prepare_incoming(machine, &hello_cfg)?;
                    dst_id = Some(id);
                    cfg = Some(hello_cfg);
                }
                reply.clear();
                reply.push(MSG_HELLO_ACK);
                reply.push(kind_tag(hv.kind()));
                transport
                    .send_frame(&reply)
                    .and_then(|_| transport.flush())
                    .map_err(|e| link_err(&name(&cfg), e))?;
            }
            Some(MSG_ROUND) => {
                let id = dst_id.ok_or_else(|| integrity(&name(&cfg)))?;
                let mut r = Reader::new(&buf);
                let _ = r.u8();
                let _stop = r.u8().ok_or_else(|| integrity(&name(&cfg)))?;
                let round = r.u32().ok_or_else(|| integrity(&name(&cfg)))?;
                let count = r.u64().ok_or_else(|| integrity(&name(&cfg)))?;
                let stream = r.rest();

                // Stage the whole round before touching guest RAM: a
                // corrupt stream naks without side effects. The pages'
                // current words come from one batched read: nothing is
                // written until the round is staged, so a gfn repeated
                // within the round sees the same word either way.
                gfns.clear();
                gfns.extend(FrameIter::over(stream).map(|view| Gfn(view.gfn)));
                hv.read_guest_into(machine, id, &gfns, &mut current)?;
                writes.clear();
                inserts.clear();
                let mut batch_bytes = 0u64;
                let mut ok = true;
                for (view, &cur) in FrameIter::over(stream).zip(&current) {
                    let word = match view.kind {
                        FrameKind::Raw => view.raw_word(),
                        FrameKind::Zero => Some(0),
                        FrameKind::Dup => view
                            .dup_digest()
                            .and_then(|d| inserts.get(&d).or_else(|| mirror.get(&d)).copied()),
                        FrameKind::Delta => delta_apply_word(cur, view.payload),
                    };
                    match word {
                        Some(w) => {
                            batch_bytes += view.wire_bytes();
                            if w != cur {
                                writes.push((Gfn(view.gfn), w));
                            }
                            // Mirror what the source's cache journalled:
                            // Raw and Delta frames insert their content;
                            // Zero and Dup do not.
                            if matches!(view.kind, FrameKind::Raw | FrameKind::Delta) && w != 0 {
                                inserts.insert(digest_words(&[w]), w);
                            }
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                let seen = gfns.len() as u64;
                if !ok || seen != count {
                    reply.clear();
                    reply.push(MSG_NAK);
                    reply.extend_from_slice(&round.to_le_bytes());
                } else {
                    for &(gfn, w) in &writes {
                        hv.write_guest(machine, id, gfn, w)?;
                    }
                    mirror.extend(inserts.drain());
                    rounds += 1;
                    frames += seen;
                    wire_bytes += batch_bytes;
                    reply.clear();
                    reply.push(MSG_ACK);
                    reply.extend_from_slice(&round.to_le_bytes());
                }
                transport
                    .send_frame(&reply)
                    .and_then(|_| transport.flush())
                    .map_err(|e| link_err(&name(&cfg), e))?;
            }
            Some(MSG_UISR) => {
                let id = dst_id.ok_or_else(|| integrity(&name(&cfg)))?;
                reply.clear();
                match hypertp_uisr::decode(&buf[1..]) {
                    Ok(vm) => {
                        let restored = hv.restore_uisr(machine, id, &vm)?;
                        warnings = restored.warnings;
                        reply.push(MSG_ACK);
                    }
                    Err(_) => reply.push(MSG_NAK),
                }
                reply.extend_from_slice(&UISR_ROUND.to_le_bytes());
                transport
                    .send_frame(&reply)
                    .and_then(|_| transport.flush())
                    .map_err(|e| link_err(&name(&cfg), e))?;
            }
            Some(MSG_DONE) => {
                let id = dst_id.ok_or_else(|| integrity(&name(&cfg)))?;
                let vm_cfg = cfg.clone().ok_or_else(|| integrity(&name(&cfg)))?;
                let mut r = Reader::new(&buf);
                let _ = r.u8();
                let _src_checksum = r.u64().ok_or_else(|| integrity(&vm_cfg.name))?;
                let nanos = r.u64().ok_or_else(|| integrity(&vm_cfg.name))?;
                machine.clock().advance(SimDuration::from_nanos(nanos));
                hv.resume_vm(id)?;
                let gfns = all_gfns(&*hv, id)?;
                let checksum = guest_checksum(machine, &*hv, id, &gfns)?;
                reply.clear();
                reply.push(MSG_DONE_ACK);
                reply.extend_from_slice(&checksum.to_le_bytes());
                reply.extend_from_slice(&wire_bytes.to_le_bytes());
                reply.extend_from_slice(&frames.to_le_bytes());
                transport
                    .send_frame(&reply)
                    .and_then(|_| transport.flush())
                    .map_err(|e| link_err(&vm_cfg.name, e))?;
                return Ok(DestReport {
                    vm_name: vm_cfg.name,
                    rounds,
                    frames,
                    wire_bytes,
                    checksum,
                    warnings,
                });
            }
            _ => return Err(integrity(&name(&cfg))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MigrationConfig;
    use crate::transport::InProcTransport;
    use hypertp_core::testing::SimpleHv;
    use hypertp_machine::MachineSpec;
    use hypertp_sim::fault::FaultPlan;
    use hypertp_sim::SimClock;

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

    fn config() -> MigrationConfig {
        MigrationConfig {
            wire_mode: crate::engine::WireMode::ContentAware,
            dirty_rate_pages_per_sec: 2000.0,
            ..MigrationConfig::default()
        }
    }

    /// A fault-free proxy run over the in-process transport produces the
    /// same wire traffic, timings, and destination RAM as the engine.
    #[test]
    fn proxy_matches_engine_byte_for_byte() {
        // In-process engine run.
        let mut src_m = machine();
        let mut dst_m = machine();
        let mut src = SimpleHv::new(HypervisorKind::Xen);
        let mut dst = SimpleHv::new(HypervisorKind::Kvm);
        let id = seed_vm(&mut src, &mut src_m);
        let tp = MigrationTp::new().with_config(config());
        let engine_report = tp
            .migrate(&mut src_m, &mut src, id, &mut dst_m, &mut dst)
            .unwrap();
        let e_id = dst.find_vm("vm0").unwrap();
        let e_gfns = all_gfns(&dst, e_id).unwrap();
        let engine_checksum = guest_checksum(&dst_m, &dst, e_id, &e_gfns).unwrap();

        // Proxy run over crossed in-process channels, fresh everything.
        let mut psrc_m = machine();
        let mut pdst_m = machine();
        let mut psrc = SimpleHv::new(HypervisorKind::Xen);
        let mut pdst = SimpleHv::new(HypervisorKind::Kvm);
        let pid = seed_vm(&mut psrc, &mut psrc_m);
        let ptp = MigrationTp::new().with_config(config());
        let (mut ta, mut tb) = InProcTransport::pair();
        let (src_report, dst_report) = std::thread::scope(|s| {
            let dest = s.spawn(|| run_dest(&mut pdst_m, &mut pdst, &mut tb));
            let srcr = run_source(&ptp, &mut psrc_m, &mut psrc, pid, &mut ta).unwrap();
            (srcr, dest.join().unwrap().unwrap())
        });

        assert_eq!(src_report.bytes_sent, engine_report.bytes_sent);
        assert_eq!(src_report.wire, engine_report.wire);
        assert_eq!(src_report.rounds as usize, engine_report.rounds.len());
        assert_eq!(src_report.uisr_bytes, engine_report.uisr_bytes);
        assert_eq!(src_report.downtime, engine_report.downtime);
        assert_eq!(src_report.total, engine_report.total);
        assert_eq!(src_report.dst_checksum, engine_checksum);
        assert_eq!(dst_report.checksum, engine_checksum);
        assert_eq!(src_report.src_checksum, engine_checksum);

        // Both sides converged on the same simulated time.
        assert_eq!(psrc_m.clock().now(), pdst_m.clock().now());
        assert!(psrc.vm_ids().is_empty(), "source VM destroyed");
        assert_eq!(
            pdst.vm_state(pdst.find_vm("vm0").unwrap()).unwrap(),
            hypertp_core::VmState::Running
        );
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
            hypertp_core::VmState::Running
        );
    }
}
