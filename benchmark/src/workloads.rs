//! The four workloads: pinned parameters, seed-derived inputs, the op,
//! and its verification.
//!
//! Parameters are constants, not flags: a workload's name is a contract
//! with every later issue that quotes a number measured on it. `--check`
//! pins a fingerprint of each so a silent change of size is caught.
//!
//! The seed derives the inputs — guest contents and names, vCPU mix, fleet
//! — once, in `new`; the program under test receives only those. Inputs
//! are chosen so the seed reaches every simulated metric but moves it
//! little (at most a part in a hundred), and moves host time not at all:
//! the driver requires both that equal code reads within a metric's bound
//! across seeds and that no time reads exactly the same on every run.

use std::os::unix::net::UnixStream;

use hypertp_cluster::exec::{execute_sharded_with, ExecConfig};
use hypertp_cluster::exposure::{ExposureConfig, ExposurePlanner};
use hypertp_cluster::{plan_upgrade, Cluster, ClusterView};
use hypertp_core::{
    Hypervisor, HypervisorKind, HypervisorRegistry, InPlaceReport, InPlaceTransplant, VmConfig,
    VmId, VmState,
};
use hypertp_machine::{Gfn, Machine, MachineSpec};
use hypertp_migrate::{
    guest_checksum, run_source, DestProxy, FrameKind, MigrationConfig, MigrationTp, UdsTransport,
    WireMode, WireStats,
};
use hypertp_sim::fault::FaultPlan;
use hypertp_sim::hash::digest_bytes;
use hypertp_sim::{SimClock, SimDuration, SimRng, WorkerPool};
use hypertp_vulndb::dataset::dataset;
use hypertp_vulndb::{decide_with_surface, Decision, HypervisorId, SurfaceWeights, VulnFeed};

use crate::harness::{Iteration, Outcome, Res, Scenario};
use crate::proc::process_cpu_ns;
use crate::staged::{
    all_gfns, staged_inplace_leg, staged_migration, MigrationSummary, TracedTransport,
};
use crate::trace::Trace;

// --- migrate_busy / proxy_raw_uds -----------------------------------------

/// Non-zero pages of the `migrate_busy` guest: the dedup cache's default
/// capacity, so the pages dirtied during pre-copy push the unique set
/// across it and LRU eviction runs.
pub const BUSY_RESIDENT_PAGES: u64 = 65_536;
/// Every this-many-th resident page holds the template word shared across
/// the guest; the rest are seed-unique.
pub const BUSY_TEMPLATE_EVERY: u64 = 4;
/// Guest write rate of `migrate_busy`, pages/second.
pub const BUSY_DIRTY_RATE: f64 = 5_000.0;
/// Non-zero pages of the `proxy_raw_uds` guest, all seed-unique: every
/// one ships as a Raw frame and the dedup cache never hits.
pub const PROXY_RESIDENT_PAGES: u64 = 16_384;
/// Guest write rate of `proxy_raw_uds`, pages/second.
pub const PROXY_DIRTY_RATE: f64 = 2_000.0;

// --- inplace_dense ----------------------------------------------------------

/// Guests on the M1 host: the paper's maximum density (12 × 1 GiB).
pub const DENSE_GUESTS: usize = 12;
/// vCPUs across the guests. Fixed, so UISR volume is comparable across
/// seeds; the seed decides how they are spread, which moves the LPT
/// translate makespan and the PRAM entry count.
pub const DENSE_VCPUS: u32 = 18;
/// Most vCPUs one guest may get (every guest has at least one).
pub const DENSE_VCPUS_MAX: u32 = 4;
/// Seeded pages per guest.
pub const DENSE_SEEDED_PAGES: usize = 4_096;

// --- campaign_feed ----------------------------------------------------------

/// Hosts of the synthetic fleet (10 VMs each).
pub const FLEET_HOSTS: usize = 10_000;
/// InPlaceTP-tolerant share of the fleet, percent.
pub const FLEET_COMPAT_PCT: u32 = 70;
/// The disclosure year is pinned, not seed-derived: 37 disclosures make
/// integrated exposure swing ±15% with the feed seed, which no bound the
/// driver accepts could gate. This is the year `BENCH_exposure.json`
/// replays; the seed derives the fleet it hits.
pub const FEED_SEED: u64 = 42;
/// Replayed horizon, days.
pub const FEED_DAYS: u64 = 365;
/// Offline group width of the rolling upgrade.
pub const GROUP_SIZE: usize = 25;
/// Contiguous host ranges the planner's cost table and the executor fan
/// out over.
pub const SHARDS: usize = 8;
/// Pool workers of the campaign — the only workload with more than one.
pub const CAMPAIGN_WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MigrateBusy,
    ProxyRawUds,
    InplaceDense,
    CampaignFeed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MigrateBusy,
        Workload::ProxyRawUds,
        Workload::InplaceDense,
        Workload::CampaignFeed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MigrateBusy => "migrate_busy",
            Workload::ProxyRawUds => "proxy_raw_uds",
            Workload::InplaceDense => "inplace_dense",
            Workload::CampaignFeed => "campaign_feed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generates the workload's inputs from `seed`.
    pub fn scenario(self, seed: u64) -> Box<dyn Scenario> {
        match self {
            Workload::MigrateBusy => Box::new(Migration::new(seed, false)),
            Workload::ProxyRawUds => Box::new(Migration::new(seed, true)),
            Workload::InplaceDense => Box::new(InplaceDense::new(seed)),
            Workload::CampaignFeed => Box::new(CampaignFeed { seed }),
        }
    }
}

/// The standard two-hypervisor pool.
fn registry() -> HypervisorRegistry {
    let mut registry = HypervisorRegistry::new();
    registry.register(HypervisorKind::Xen, |machine| {
        Box::new(hypertp_xen::XenHypervisor::new(machine))
    });
    registry.register(HypervisorKind::Kvm, |machine| {
        Box::new(hypertp_kvm::KvmHypervisor::new(machine))
    });
    registry.register_validator(HypervisorKind::Kvm, hypertp_kvm::xlate::preflight_validate);
    registry
}

fn digest_of(parts: &[u64]) -> u64 {
    let bytes: Vec<u8> = parts.iter().flat_map(|p| p.to_le_bytes()).collect();
    let d = digest_bytes(&bytes);
    d.hi ^ d.lo
}

/// VM-days of exposure when `vms` VMs stay vulnerable for `window`.
fn vm_days(vms: usize, window: SimDuration) -> f64 {
    vms as f64 * window.as_secs_f64() / 86_400.0
}

// ---------------------------------------------------------------------------
// migrate_busy and proxy_raw_uds: one 1 GiB guest, Xen → KVM, M1 pair.
// ---------------------------------------------------------------------------

/// Everything one migration needs: the M1 pair on one clock, both
/// hypervisors, the seeded guest and the engine (fresh cache and scratch).
pub struct MigrationWorld {
    pub src_m: Machine,
    pub dst_m: Machine,
    pub src: Box<dyn Hypervisor>,
    pub dst: Box<dyn Hypervisor>,
    pub id: VmId,
    pub tp: MigrationTp,
    /// The proxy pair's connection (`proxy_raw_uds` only).
    link: Option<(UdsTransport, UdsTransport)>,
}

struct Migration {
    proxy: bool,
    registry: HypervisorRegistry,
    /// `busy-` and 1–16 seed-drawn hex digits: the name travels in the
    /// UISR blob, so every simulated time and byte count depends on the
    /// seed in its last digits — and on nothing else, which keeps host
    /// time comparable across seeds. (`migrate_busy` sits on the edge of
    /// the eviction cliff: ±100 unique pages move `op_ms` by ±20%.)
    guest_name: String,
    /// The guest's non-zero pages.
    pages: Vec<(Gfn, u64)>,
    config: MigrationConfig,
}

impl Migration {
    fn new(seed: u64, proxy: bool) -> Migration {
        let mut rng = SimRng::new(seed ^ 0x6d69_6772_6174_6500);
        let (resident, dirty_rate) = if proxy {
            (PROXY_RESIDENT_PAGES, PROXY_DIRTY_RATE)
        } else {
            (BUSY_RESIDENT_PAGES, BUSY_DIRTY_RATE)
        };
        let stride = VmConfig::small("").pages() / resident;
        let template = rng.next_u64() | 1;
        let pages = (0..resident)
            .map(|k| {
                let word = if !proxy && k % BUSY_TEMPLATE_EVERY == 0 {
                    template
                } else {
                    rng.next_u64() | 1
                };
                (Gfn(k * stride), word)
            })
            .collect();
        let guest_name = format!("busy-{:x}", rng.next_u64() >> (4 * rng.gen_range(16)));
        let mut config = MigrationConfig {
            verify_contents: true,
            dirty_rate_pages_per_sec: dirty_rate,
            ..MigrationConfig::default()
        };
        // Only the engine has a wire mode. `run_source` never reads it: its
        // format is the serialized content-aware stream, digest and cache
        // included.
        if !proxy {
            config.wire_mode = WireMode::ContentAware;
        }
        Migration {
            proxy,
            registry: registry(),
            guest_name,
            pages,
            config,
        }
    }

    fn world(&self) -> Res<MigrationWorld> {
        let clock = SimClock::new();
        let mut src_m = Machine::with_clock(MachineSpec::m1(), clock.clone());
        let mut dst_m = Machine::with_clock(MachineSpec::m1(), clock);
        let mut src = self.registry.create(HypervisorKind::Xen, &mut src_m)?;
        let dst = self.registry.create(HypervisorKind::Kvm, &mut dst_m)?;
        let id = src.create_vm(&mut src_m, &VmConfig::small(self.guest_name.as_str()))?;
        for &(gfn, word) in &self.pages {
            src.write_guest(&mut src_m, id, gfn, word)?;
        }
        let tp = MigrationTp::new()
            .with_config(self.config)
            .with_pool(WorkerPool::serial());
        let link = if self.proxy {
            let (a, b) = UnixStream::pair()?;
            Some((UdsTransport::from_stream(a), UdsTransport::from_stream(b)))
        } else {
            None
        };
        Ok(MigrationWorld {
            src_m,
            dst_m,
            src,
            dst,
            id,
            tp,
            link,
        })
    }
}

/// What both migration ops report.
struct Migrated {
    summary: MigrationSummary,
    wire: WireStats,
}

impl Migrated {
    fn record(&self, t: &mut Trace) {
        for (kind, name) in [
            (FrameKind::Zero, "migrate.wire.frames_zero"),
            (FrameKind::Dup, "migrate.wire.frames_dup"),
            (FrameKind::Delta, "migrate.wire.frames_delta"),
            (FrameKind::Raw, "migrate.wire.frames_raw"),
        ] {
            t.add(name, self.wire.count(kind) as f64);
        }
        t.add("migrate.wire.dedup_hit_ratio", self.wire.dedup_hit_rate());
        t.add("migrate.wire.evictions", self.wire.cache_evictions() as f64);
        t.add(
            "migrate.wire.cache_occupancy",
            self.wire.cache_occupancy() as f64,
        );
        t.add("uisr.codec.bytes", self.summary.uisr_bytes as f64);
    }
}

/// The §4.2 proxy pair over `w`'s connection: the source on this thread,
/// the destination on a second one.
fn proxy_session(w: &mut MigrationWorld, t: &mut Trace) -> Res<Migrated> {
    let (mut client, mut server) = w.link.take().ok_or("world has no proxy connection")?;
    let (dst_m, dst) = (&mut w.dst_m, w.dst.as_mut());
    let (source, dest) = std::thread::scope(|s| {
        let dest = s.spawn(move || DestProxy::new().serve(dst_m, dst, &mut server));
        let source = t.span("migrate.proxy.session", |t| {
            let mut traced = TracedTransport {
                inner: &mut client,
                trace: t,
            };
            run_source(&w.tp, &mut w.src_m, w.src.as_mut(), w.id, &mut traced)
        });
        // Closing this end fails the destination's pending read, so a
        // failed source cannot leave the join below waiting forever.
        drop(client);
        (source, dest.join())
    });
    // `run_source` has already checked the DoneAck checksum against its own.
    let source = source?;
    let dest = dest.map_err(|_| "destination proxy thread panicked")??;
    if dest.checksum != source.src_checksum || dest.frames != source.dst_frames {
        return Err("destination proxy disagrees with the source's DoneAck".into());
    }
    t.add("migrate.proxy.rounds", f64::from(source.rounds));
    Ok(Migrated {
        summary: MigrationSummary {
            rounds: source.rounds,
            bytes_sent: source.bytes_sent,
            uisr_bytes: source.uisr_bytes,
            stop_pages: None,
            total: source.total,
            downtime: source.downtime,
        },
        wire: source.wire,
    })
}

/// The in-process engine; it compares both guests page by page before it
/// returns (`verify_contents`).
fn engine_migration(w: &mut MigrationWorld, t: &mut Trace) -> Res<Migrated> {
    let r = t.span("migrate.engine.migrate", |_| {
        w.tp.migrate(
            &mut w.src_m,
            w.src.as_mut(),
            w.id,
            &mut w.dst_m,
            w.dst.as_mut(),
        )
    })?;
    t.add("migrate.engine.rounds", r.rounds.len() as f64);
    t.add("migrate.engine.stop_pages", r.stop_pages as f64);
    t.add(
        "migrate.engine.forced_stop",
        f64::from(u8::from(r.forced_stop)),
    );
    Ok(Migrated {
        summary: MigrationSummary {
            rounds: r.rounds.len() as u32,
            bytes_sent: r.bytes_sent,
            uisr_bytes: r.uisr_bytes,
            stop_pages: Some(r.stop_pages),
            total: r.total,
            downtime: r.downtime,
        },
        wire: r.wire,
    })
}

impl Scenario for Migration {
    fn iterate(&mut self, it: &mut Iteration<'_>) -> Res<Outcome> {
        let mut w = it.build(|_| self.world())?;
        let done = if self.proxy {
            it.op(|t| proxy_session(&mut w, t))?
        } else {
            it.op(|t| engine_migration(&mut w, t))?
        };
        let dst_id = w
            .dst
            .find_vm(&self.guest_name)
            .ok_or("guest missing on the target")?;
        if !w.src.vm_ids().is_empty() || w.dst.vm_state(dst_id)? != VmState::Running {
            return Err("migration did not leave exactly one running guest on the target".into());
        }
        let gfns = all_gfns(w.dst.as_ref(), dst_id)?;
        let dst_checksum = guest_checksum(&w.dst_m, w.dst.as_ref(), dst_id, &gfns)?;
        done.record(it.trace());

        let Migrated {
            summary: done,
            wire,
        } = done;
        if it.tracing() {
            let mut replay = self.world()?;
            let mut staged = it.staged(|t| staged_migration(&mut replay, t))?;
            if done.stop_pages.is_none() {
                staged.stop_pages = None;
            }
            if staged != done {
                return Err(format!("staged replay diverged: {staged:?} vs {done:?}").into());
            }
        }

        Ok(Outcome {
            sim_window_s: done.total.as_secs_f64(),
            sim_downtime_ms: done.downtime.as_millis_f64(),
            wire_bytes: (done.bytes_sent + done.uisr_bytes) as f64,
            sim_exposure_vm_days: vm_days(1, done.total),
            digest: digest_of(&[dst_checksum, u64::from(done.rounds), wire.frames()]),
        })
    }
}

// ---------------------------------------------------------------------------
// inplace_dense: 12 guests on one M1, Xen → KVM → Xen.
// ---------------------------------------------------------------------------

struct Guest {
    vcpus: u32,
    pages: Vec<(Gfn, u64)>,
}

struct InplaceDense {
    registry: HypervisorRegistry,
    guests: Vec<Guest>,
    /// The guests' states before the cycle. Every world is built from the
    /// same inputs, so the first world's reading serves every op.
    before: Option<GuestStates>,
}

/// What must be equal before and after the out-and-back cycle.
type GuestStates = Vec<(String, u32, u64)>;

impl InplaceDense {
    fn new(seed: u64) -> InplaceDense {
        let mut rng = SimRng::new(seed ^ 0x696e_706c_6163_6500);
        let mut vcpus = [1u32; DENSE_GUESTS];
        let mut spare = DENSE_VCPUS - DENSE_GUESTS as u32;
        while spare > 0 {
            let g = rng.gen_range(DENSE_GUESTS as u64) as usize;
            if vcpus[g] < DENSE_VCPUS_MAX {
                vcpus[g] += 1;
                spare -= 1;
            }
        }
        let guest_pages = VmConfig::small("").pages();
        let guests = vcpus
            .into_iter()
            .map(|vcpus| Guest {
                vcpus,
                pages: (0..DENSE_SEEDED_PAGES)
                    .map(|_| (Gfn(rng.gen_range(guest_pages)), rng.next_u64() | 1))
                    .collect(),
            })
            .collect();
        InplaceDense {
            registry: registry(),
            guests,
            before: None,
        }
    }

    fn world(&self) -> Res<(Machine, Box<dyn Hypervisor>)> {
        let mut m = Machine::new(MachineSpec::m1());
        let mut hv = self.registry.create(HypervisorKind::Xen, &mut m)?;
        for (i, g) in self.guests.iter().enumerate() {
            let id = hv.create_vm(
                &mut m,
                &VmConfig::small(format!("vm{i}")).with_vcpus(g.vcpus),
            )?;
            for &(gfn, word) in &g.pages {
                hv.write_guest(&mut m, id, gfn, word)?;
            }
        }
        Ok((m, hv))
    }

    fn states(m: &Machine, hv: &dyn Hypervisor) -> Res<GuestStates> {
        let mut states = Vec::new();
        for id in hv.vm_ids() {
            let cfg = hv.vm_config(id)?;
            let gfns = all_gfns(hv, id)?;
            states.push((
                cfg.name.clone(),
                cfg.vcpus,
                guest_checksum(m, hv, id, &gfns)?,
            ));
        }
        states.sort();
        Ok(states)
    }
}

fn record_leg(t: &mut Trace, r: &InPlaceReport) {
    t.add("core.inplace.sim_pram_s", r.pram.as_secs_f64());
    t.add(
        "core.inplace.sim_translation_s",
        r.translation.as_secs_f64(),
    );
    t.add("core.inplace.sim_reboot_s", r.reboot.as_secs_f64());
    t.add(
        "core.inplace.sim_restoration_s",
        r.restoration.as_secs_f64(),
    );
    t.add("uisr.codec.bytes", r.uisr_bytes as f64);
}

impl Scenario for InplaceDense {
    fn iterate(&mut self, it: &mut Iteration<'_>) -> Res<Outcome> {
        let (mut m, hv) = it.build(|_| self.world())?;
        if self.before.is_none() {
            self.before = Some(Self::states(&m, hv.as_ref())?);
        }
        // `Optimizations::default()`, `CostModel::paper_calibrated()`.
        let engine = InPlaceTransplant::new(&self.registry);
        let (hv, out, back) = it.op(|t| {
            t.span("core.inplace.run", |_| {
                let (hv, out) = engine.run(&mut m, hv, HypervisorKind::Kvm)?;
                let (hv, back) = engine.run(&mut m, hv, HypervisorKind::Xen)?;
                Res::Ok((hv, out, back))
            })
        })?;
        let after = Self::states(&m, hv.as_ref())?;
        if Some(&after) != self.before.as_ref() || hv.kind() != HypervisorKind::Xen {
            return Err("guests changed across the out-and-back cycle".into());
        }

        record_leg(it.trace(), &out);
        record_leg(it.trace(), &back);

        if it.tracing() {
            let (mut m, hv) = self.world()?;
            it.staged(|t| {
                let (hv, there) =
                    staged_inplace_leg(&self.registry, &mut m, hv, HypervisorKind::Kvm, t)?;
                let (_, here) =
                    staged_inplace_leg(&self.registry, &mut m, hv, HypervisorKind::Xen, t)?;
                for (leg, r) in [(there, &out), (here, &back)] {
                    let same = leg.uisr_bytes == r.uisr_bytes
                        && leg.pram_entries == r.pram_stats.entries
                        && leg.metadata_bytes == r.pram_stats.metadata_bytes()
                        && leg.scrubbed_frames == r.scrubbed_frames;
                    if !same {
                        return Err(format!("staged replay diverged: {leg:?} vs {r:?}").into());
                    }
                }
                Ok(())
            })?;
        }

        let window = out.total() + back.total();
        let checksums: Vec<u64> = after.iter().map(|s| s.2).collect();
        Ok(Outcome {
            sim_window_s: window.as_secs_f64(),
            sim_downtime_ms: (out.downtime() + back.downtime()).as_millis_f64() / 2.0,
            wire_bytes: (out.uisr_bytes + back.uisr_bytes) as f64,
            sim_exposure_vm_days: vm_days(DENSE_GUESTS, window),
            digest: digest_of(&checksums),
        })
    }
}

// ---------------------------------------------------------------------------
// campaign_feed: disclosure → decide → plan → drain → remediated.
// ---------------------------------------------------------------------------

struct CampaignFeed {
    seed: u64,
}

impl Scenario for CampaignFeed {
    fn iterate(&mut self, it: &mut Iteration<'_>) -> Res<Outcome> {
        let pool = WorkerPool::new(CAMPAIGN_WORKERS);
        let view = it.build(|t| {
            Ok(t.span("cluster.model.synth", |_| {
                Cluster::synthetic(FLEET_HOSTS, self.seed).with_compat_percent(FLEET_COMPAT_PCT)
            }))
        })?;
        let (events, weights, planner) = it.build(|t| {
            let events = t.span("vulndb.feed.replay", |_| {
                VulnFeed::new(FEED_SEED).replay(SimDuration::from_secs(FEED_DAYS * 86_400))
            });
            let weights = SurfaceWeights::calibrated(&dataset());
            let cfg = ExposureConfig {
                weights,
                surface_aware: true,
                ..ExposureConfig::default()
            };
            let planner = t.span("cluster.exposure.table", |_| {
                ExposurePlanner::with_pool(&view, cfg, SHARDS, &pool)
            });
            Ok((events, weights, planner))
        })?;
        let (transplants, feed, plan, exec) = it.op(|t| {
            // Decide: would this fleet (on Xen, KVM in the pool) transplant?
            let transplants = t.span("vulndb.policy.decide", |_| {
                let repertoire = [HypervisorId::Xen, HypervisorId::Kvm];
                events
                    .iter()
                    .filter(|ev| {
                        matches!(
                            decide_with_surface(
                                &ev.vuln,
                                HypervisorId::Xen,
                                &repertoire,
                                &[],
                                &weights
                            ),
                            Decision::Transplant { .. }
                        )
                    })
                    .count()
            });
            // Plan every disclosure against the cached host-cost table.
            let feed = t.span("cluster.exposure.plan_event", |_| planner.replay(&events));
            // Plan and drain one fleet-wide rolling upgrade.
            let plan = t.span("cluster.planner.plan", |_| plan_upgrade(&view, GROUP_SIZE))?;
            let cpu = process_cpu_ns();
            let wall = std::time::Instant::now();
            let exec = t.span("cluster.exec.exec", |_| {
                execute_sharded_with(
                    &view,
                    &plan,
                    &ExecConfig::default(),
                    &FaultPlan::disarmed(),
                    SHARDS,
                    &pool,
                )
            });
            let busy = (process_cpu_ns() - cpu) as f64;
            let available = wall.elapsed().as_nanos() as f64 * CAMPAIGN_WORKERS as f64;
            t.gauge("sim.pool.parallel_eff", busy / available);
            Res::Ok((transplants, feed, plan, exec))
        })?;
        let vm_windows = feed.remediated_vms + feed.deferred_vms;
        if vm_windows != (events.len() * view.vm_count()) as u64 {
            return Err("remediated + deferred VM-windows do not cover fleet × disclosures".into());
        }

        let t = it.trace();
        t.add("vulndb.feed.events", events.len() as f64);
        t.add(
            "cluster.exposure.deferred_share",
            feed.deferred_vms as f64 / vm_windows as f64,
        );
        t.add("cluster.planner.migrations", plan.migration_count() as f64);
        t.add("cluster.planner.inplace", plan.inplace_count() as f64);
        t.add("cluster.exec.shards", SHARDS as f64);
        t.add("sim.pool.workers", CAMPAIGN_WORKERS as f64);

        let render = format!("{transplants} {}\n{}", feed.render(), exec.render());
        let d = digest_bytes(render.as_bytes());
        Ok(Outcome {
            sim_window_s: exec.total.as_secs_f64(),
            sim_downtime_ms: exec.mean_vm_ready.as_millis_f64(),
            wire_bytes: exec.wire_bytes_sent as f64,
            sim_exposure_vm_days: feed.exposure_vm_days,
            digest: d.hi ^ d.lo,
        })
    }
}
