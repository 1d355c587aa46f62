//! Staged replays: the same inputs as the whole op, driven from here
//! through each layer's public functions with one span per call (loops of
//! sub-microsecond calls get one span around the loop).
//!
//! A replay re-implements the orchestration the engine owns — the round
//! loop, the stop rule, the kexec sequence — so it can drift from it. Each
//! replay therefore returns what the engine's report would hold, the
//! caller compares the two, and a mismatch is a failed op.
//!
//! Span names are `<crate>.<module>.<what>`; the per-layer metric is the
//! name plus `_ms`. Counter names are the metric names themselves.

use hypertp_core::uisr_store;
use hypertp_core::{Hypervisor, HypervisorKind, HypervisorRegistry};
use hypertp_machine::{Gfn, KexecImage, Machine};
use hypertp_migrate::{FrameRing, FrameView, TransferCache, Transport, TransportError};
use hypertp_pram::{PramBuilder, PramImage};
use hypertp_sim::hash::{digest_pages_into, Digest128};
use hypertp_sim::{SimDuration, WorkerPool};

use crate::harness::Res;
use crate::trace::Trace;
use crate::workloads::MigrationWorld;

fn save_span(kind: HypervisorKind) -> &'static str {
    match kind {
        HypervisorKind::Xen => "xen.xlate.save",
        HypervisorKind::Kvm => "kvm.xlate.save",
    }
}

fn restore_span(kind: HypervisorKind) -> &'static str {
    match kind {
        HypervisorKind::Xen => "xen.xlate.restore",
        HypervisorKind::Kvm => "kvm.xlate.restore",
    }
}

/// `Transport` decorator for the source end of the proxy pair: one span
/// per call, frames and bytes counted in both directions. `recv_wait` is
/// the time the source spent blocked on the destination — its staging and
/// apply of the round, plus transit.
pub struct TracedTransport<'a> {
    pub inner: &'a mut dyn Transport,
    pub trace: &'a mut Trace,
}

/// Tag byte of the proxy protocol's `Nak` message (`migrate::proxy` docs).
const MSG_NAK: u8 = 0x14;

impl TracedTransport<'_> {
    fn count(&mut self, bytes: &[u8]) {
        self.trace.add("migrate.transport.frames", 1.0);
        self.trace
            .add("migrate.transport.bytes", bytes.len() as f64);
    }
}

impl Transport for TracedTransport<'_> {
    fn send_frame(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        self.count(bytes);
        let TracedTransport { inner, trace } = self;
        trace.span("migrate.transport.send", |_| inner.send_frame(bytes))
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        let TracedTransport { inner, trace } = self;
        trace.span("migrate.transport.send", |_| inner.flush())
    }

    fn recv_frame(&mut self, out: &mut Vec<u8>) -> Result<(), TransportError> {
        let TracedTransport { inner, trace } = self;
        trace.span("migrate.transport.recv_wait", |_| inner.recv_frame(out))?;
        self.count(out);
        if out.first() == Some(&MSG_NAK) {
            self.trace.add("migrate.proxy.naks", 1.0);
        }
        Ok(())
    }

    fn reset(&mut self) -> Result<(), TransportError> {
        self.inner.reset()
    }
}

/// What a migration did, in the terms `MigrationReport`, `ProxyReport` and
/// [`staged_migration`] share.
#[derive(Debug, PartialEq)]
pub struct MigrationSummary {
    pub rounds: u32,
    pub bytes_sent: u64,
    pub uisr_bytes: u64,
    /// Pages of the stop-and-copy set (`ProxyReport` does not say).
    pub stop_pages: Option<u64>,
    pub total: SimDuration,
    pub downtime: SimDuration,
}

/// Every guest frame number of `id`, in map order.
pub fn all_gfns(hv: &dyn Hypervisor, id: hypertp_core::VmId) -> Res<Vec<Gfn>> {
    Ok(hv
        .guest_memory_map(id)?
        .iter()
        .flat_map(|(gfn, e)| (gfn.0..gfn.0 + e.pages()).map(Gfn))
        .collect())
}

/// Reused buffers of the staged round pipeline (the engine's
/// `EngineScratch`, which is private to it).
#[derive(Default)]
struct RoundBuffers {
    ring: FrameRing,
    words: Vec<u64>,
    digests: Vec<Digest128>,
    current: Vec<u64>,
}

/// One round through gather → digest → encode → ring → apply. Returns the
/// round's accounted wire bytes.
#[allow(clippy::too_many_arguments)]
fn staged_round(
    t: &mut Trace,
    cache: &TransferCache,
    b: &mut RoundBuffers,
    src_m: &Machine,
    src: &dyn Hypervisor,
    src_id: hypertp_core::VmId,
    dst_m: &mut Machine,
    dst: &mut dyn Hypervisor,
    dst_id: hypertp_core::VmId,
    gfns: &[Gfn],
) -> Res<u64> {
    let pages = gfns.len() as f64;
    t.span("migrate.wire.encode", |_| cache.begin_round());
    t.span("migrate.framing.ring", |_| {
        b.ring.restart();
        b.ring.begin();
    });
    t.span("machine.ram.gather", |_| {
        src.read_guest_into(src_m, src_id, gfns, &mut b.words)
    })?;
    t.span("sim.hash.digest", |_| {
        digest_pages_into(&b.words, &mut b.digests)
    });
    t.add("sim.hash.pages", pages);
    let wire_bytes = t.span("migrate.wire.encode", |_| {
        cache.encode_batch_into(src_id.0, gfns, &b.words, &b.digests, &mut b.ring)
    });
    // The destination's view of the round: parse the serialized frames…
    let views: Vec<FrameView<'_>> = t.span("migrate.framing.ring", |_| b.ring.iter().collect());
    t.add("migrate.framing.bytes", b.ring.len_bytes() as f64);
    if views.len() != gfns.len() {
        return Err(format!("ring holds {} frames for {} pages", views.len(), gfns.len()).into());
    }
    // …probe what it holds, and apply, eliding no-op writes.
    t.span("machine.ram.gather", |_| {
        dst.read_guest_into(dst_m, dst_id, gfns, &mut b.current)
    })?;
    t.add("machine.ram.pages_read", 2.0 * pages);
    t.span("migrate.wire.apply", |_| -> Res<()> {
        for (view, (&g, &cur)) in views.iter().zip(gfns.iter().zip(&b.current)) {
            let word = cache
                .apply_view(view, cur)
                .ok_or("frame inconsistent with the destination's state")?;
            if word != cur {
                dst.write_guest(dst_m, dst_id, g, word)?;
            }
        }
        Ok(())
    })?;
    t.add("migrate.wire.frames_applied", pages);
    t.span("migrate.wire.encode", |_| cache.commit_round());
    t.span("migrate.framing.ring", |_| b.ring.commit());
    Ok(wire_bytes)
}

/// The content-aware pre-copy migration of `w`'s guest, stage by stage:
/// the loop `MigrationTp::migrate` and `run_source` share when the
/// adaptive controller is inactive (static stop threshold, no throttle).
pub fn staged_migration(w: &mut MigrationWorld, t: &mut Trace) -> Res<MigrationSummary> {
    let MigrationWorld {
        src_m,
        dst_m,
        src,
        dst,
        id,
        tp,
        ..
    } = w;
    let (src, dst, id) = (src.as_mut(), dst.as_mut(), *id);
    let (config, cost) = (tp.config, tp.cost.clone());
    let link = config.link;
    let perf = src_m.spec().perf();
    let cfg = src.vm_config(id)?.clone();
    let dst_id = dst.prepare_incoming(dst_m, &cfg)?;
    src.enable_dirty_log(id)?;

    let cache = TransferCache::new();
    let mut buffers = RoundBuffers::default();
    let mut to_send = all_gfns(src, id)?;
    let mut rounds = 0u32;
    let mut bytes_sent = 0u64;
    let mut precopy = SimDuration::ZERO;
    let stop_set = loop {
        let wire_bytes = staged_round(
            t,
            &cache,
            &mut buffers,
            src_m,
            src,
            id,
            dst_m,
            dst,
            dst_id,
            &to_send,
        )?;
        let duration = link.transfer(wire_bytes, 1)
            + perf.cpu(cost.migrate_ghz_s_per_page * to_send.len() as f64)
            + SimDuration::from_secs_f64(cost.migrate_round_overhead_s);
        bytes_sent += wire_bytes;
        precopy += duration;
        let dirtied =
            ((config.dirty_rate_pages_per_sec * duration.as_secs_f64()) as u64).min(cfg.pages());
        if dirtied > 0 {
            src.guest_tick(src_m, id, dirtied)?;
        }
        rounds += 1;
        let dirty = t.span("machine.ram.gather", |_| src.collect_dirty(id))?;
        if dirty.len() as u64 <= config.stop_threshold_pages || rounds >= config.max_rounds {
            break dirty;
        }
        to_send = dirty;
    };

    precopy += src.notify_prepare_transplant(src_m, id)?;
    src.pause_vm(id)?;
    let final_bytes = staged_round(
        t,
        &cache,
        &mut buffers,
        src_m,
        src,
        id,
        dst_m,
        dst,
        dst_id,
        &stop_set,
    )?;
    bytes_sent += final_bytes;

    let uisr = t.span(save_span(src.kind()), |_| src.save_uisr(src_m, id))?;
    let blob = t.span("uisr.codec.encode", |_| hypertp_uisr::encode(&uisr));
    let decoded = t.span("uisr.codec.decode", |_| hypertp_uisr::decode(&blob))?;
    t.span(restore_span(dst.kind()), |_| {
        dst.restore_uisr(dst_m, dst_id, &decoded)
    })?;
    let downtime = link.transfer(final_bytes, 1)
        + link.transfer(blob.len() as u64, 1)
        + cost.activate(dst.kind().boot_target(), cfg.vcpus);
    src_m.clock().advance(precopy + downtime);
    dst_m.clock().advance_to(src_m.clock().now());
    dst.resume_vm(dst_id)?;
    src.destroy_vm(src_m, id)?;

    Ok(MigrationSummary {
        rounds,
        bytes_sent,
        uisr_bytes: blob.len() as u64,
        stop_pages: Some(stop_set.len() as u64),
        total: precopy + downtime,
        downtime,
    })
}

/// What one [`staged_inplace_leg`] did, in the terms of `InPlaceReport`.
#[derive(Debug, PartialEq)]
pub struct StagedLeg {
    pub uisr_bytes: u64,
    pub pram_entries: u64,
    pub metadata_bytes: u64,
    pub scrubbed_frames: u64,
}

/// One InPlaceTP leg — every VM of `source` carried through a kexec into
/// `target` — stage by stage: the full-translate path of
/// `InPlaceTransplant::run` (no warm rounds, no strict pre-flight), on a
/// serial pool.
pub fn staged_inplace_leg(
    registry: &HypervisorRegistry,
    m: &mut Machine,
    mut source: Box<dyn Hypervisor>,
    target: HypervisorKind,
    t: &mut Trace,
) -> Res<(Box<dyn Hypervisor>, StagedLeg)> {
    let serial = WorkerPool::serial();
    let ids = source.vm_ids();
    for &id in &ids {
        source.notify_prepare_transplant(m, id)?;
    }
    for &id in &ids {
        source.pause_vm(id)?;
    }

    // Translate: per VM, the integrity baseline, to_uisr and the encode.
    let mut baselines = Vec::with_capacity(ids.len());
    let mut builder = PramBuilder::new().with_pool(serial);
    let mut uisr_bytes = 0u64;
    for &id in &ids {
        let name = source.vm_config(id)?.name.clone();
        let map = source.guest_memory_map(id)?;
        let extents: Vec<_> = map.iter().map(|(_, e)| *e).collect();
        let checksum = t.span("machine.ram.checksum", |_| {
            m.ram().checksum_with_pool(&extents, &serial)
        });
        let uisr = t.span(save_span(source.kind()), |_| source.save_uisr(m, id))?;
        let blob = t.span("uisr.codec.encode", |_| hypertp_uisr::encode(&uisr));
        uisr_bytes += blob.len() as u64;
        t.span("pram.fs.build", |_| {
            builder.add_file(name.clone(), 0o600, map);
            uisr_store::store_blob(m.ram_mut(), &mut builder, &name, &blob)
        })?;
        baselines.push((name, checksum));
    }
    let handle = t.span("pram.fs.build", |_| builder.write(m.ram_mut()))?;
    let stats = handle.stats();
    t.add("pram.fs.entries", stats.entries as f64);
    t.add("pram.fs.metadata_bytes", stats.metadata_bytes() as f64);
    // Pre-kexec verification: past the reboot nothing can rebuild it.
    t.span("pram.fs.parse", |_| {
        PramImage::parse(m.ram(), handle.pram_ptr)?.verify()
    })?;

    // Micro-reboot: HV State dies with the old kernel.
    t.span("machine.kexec", |_| {
        m.kexec_load(KexecImage {
            target: target.boot_target(),
            cmdline: format!("hypertp {}", handle.cmdline_arg()),
        });
        drop(source);
        m.kexec()
    })?;
    let pram_ptr = hypertp_pram::fs::pram_ptr_from_cmdline(m.booted_cmdline())
        .ok_or("no pram= argument on the booted command line")?;
    let image = t.span("pram.fs.parse", |_| -> Res<PramImage> {
        let image = PramImage::parse(m.ram(), pram_ptr)?;
        image.verify()?;
        image.reserve_all(m.ram_mut())?;
        Ok(image)
    })?;
    let scrubbed_frames = t.span("machine.kexec", |_| m.ram_mut().scrub_unreserved());
    t.add("machine.scrubbed_frames", scrubbed_frames as f64);

    // Boot the target and adopt each VM in PRAM directory order.
    let mut target_hv = registry.create(target, m)?;
    let mut adopted = Vec::with_capacity(ids.len());
    for file in image.files.iter().filter(|f| !uisr_store::is_uisr_file(f)) {
        let blob_file = image
            .file(&uisr_store::uisr_file_name(&file.name))
            .ok_or("guest file without a UISR blob")?;
        let blob = uisr_store::load_blob(m.ram(), blob_file)?;
        let uisr = t.span("uisr.codec.decode", |_| hypertp_uisr::decode(&blob))?;
        let restored = t.span(restore_span(target), |_| {
            target_hv.adopt_vm(m, &uisr, &file.mappings)
        })?;
        adopted.push(restored.id);
    }

    // Integrity: guest memory byte-identical and re-owned by the target.
    for (name, expected) in &baselines {
        let id = target_hv.find_vm(name).ok_or("VM lost across the reboot")?;
        let extents: Vec<_> = target_hv
            .guest_memory_map(id)?
            .iter()
            .map(|(_, e)| *e)
            .collect();
        let checksum = t.span("machine.ram.checksum", |_| {
            m.ram().checksum_with_pool(&extents, &serial)
        });
        if checksum != *expected || !extents.iter().all(|e| m.ram().is_allocated(e.base)) {
            return Err(format!("guest memory of '{name}' changed across the reboot").into());
        }
    }

    // Resume and free the ephemeral metadata.
    for &id in &adopted {
        target_hv.resume_vm(id)?;
    }
    for file in &image.files {
        if uisr_store::is_uisr_file(file) {
            uisr_store::release_blob(m.ram_mut(), file)?;
        }
    }
    image.release_metadata(m.ram_mut())?;
    for file in image.files.iter().filter(|f| !uisr_store::is_uisr_file(f)) {
        for (_, e) in &file.mappings {
            m.ram_mut().unreserve_and_free(e.base, e.pages())?;
        }
    }
    m.bring_up_nic();

    Ok((
        target_hv,
        StagedLeg {
            uisr_bytes,
            pram_entries: stats.entries,
            metadata_bytes: stats.metadata_bytes(),
            scrubbed_frames,
        },
    ))
}
