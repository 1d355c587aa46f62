//! The cluster model: hosts and placed VMs.

use hypertp_core::{HypervisorKind, VmConfig};
use hypertp_machine::MachineSpec;
use hypertp_sim::SimRng;
use hypertp_workloads::WorkloadProfile;

/// A VM placed somewhere in the cluster.
#[derive(Debug, Clone)]
pub struct ClusterVm {
    /// Unique name.
    pub name: String,
    /// Configuration (size, InPlaceTP compatibility).
    pub config: VmConfig,
    /// Workload profile (drives migration dirty rates).
    pub profile: WorkloadProfile,
    /// Current host index.
    pub host: usize,
}

/// One host's state.
#[derive(Debug, Clone)]
pub struct HostState {
    /// Hardware description.
    pub spec: MachineSpec,
    /// Hypervisor currently running.
    pub hypervisor: HypervisorKind,
    /// True once the host has been upgraded to the target hypervisor.
    pub upgraded: bool,
}

/// The cluster: hosts plus VM placement.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Hosts by index.
    pub hosts: Vec<HostState>,
    /// All VMs.
    pub vms: Vec<ClusterVm>,
    /// GiB reserved per host for the administration OS.
    pub host_reserve_gb: u64,
}

impl Cluster {
    /// Builds the §5.4 testbed: 10 hosts (2× E5-2630 v3, 96 GB, 10 Gbps),
    /// 10 VMs each (1 vCPU / 4 GB) with the paper's mix — 30% video
    /// streaming, 30% CPU+memory intensive, 40% idle — and
    /// `compat_percent` of the VMs marked InPlaceTP-compatible (assigned
    /// deterministically from `seed`).
    pub fn paper_testbed(compat_percent: u32, seed: u64) -> Cluster {
        let mut rng = SimRng::new(seed);
        let hosts = (0..10)
            .map(|_| HostState {
                spec: MachineSpec::cluster_node(),
                hypervisor: HypervisorKind::Xen,
                upgraded: false,
            })
            .collect();
        let mut vms = Vec::new();
        let total = 100usize;
        // Deterministic compatibility assignment: choose exactly
        // compat_percent% of the VM indices.
        let compat_count = (total as u64 * compat_percent as u64 / 100) as usize;
        let compat_idx = rng.sample_indices(total, compat_count);
        let is_compat = {
            let mut v = vec![false; total];
            for &i in &compat_idx {
                v[i] = true;
            }
            v
        };
        for host in 0..10 {
            for slot in 0..10 {
                let idx = host * 10 + slot;
                let profile = match slot % 10 {
                    0..=2 => WorkloadProfile::video_stream(),
                    3..=5 => WorkloadProfile::cpu_mem(),
                    _ => WorkloadProfile::idle(),
                };
                let config = VmConfig::small(format!("vm-{host}-{slot}"))
                    .with_memory_gb(4)
                    .with_inplace_compatible(is_compat[idx]);
                vms.push(ClusterVm {
                    name: config.name.clone(),
                    config,
                    profile,
                    host,
                });
            }
        }
        Cluster {
            hosts,
            vms,
            host_reserve_gb: 8,
        }
    }

    /// A lazy datacenter-scale fleet: `n_hosts` G5K-class hosts with 10
    /// VMs each, derived on demand from `seed` (see [`SyntheticCluster`]).
    /// No host or VM is ever materialized: the view is a few words plus
    /// the workload classes' numbers.
    pub fn synthetic(n_hosts: usize, seed: u64) -> SyntheticCluster {
        SyntheticCluster {
            hosts: n_hosts,
            vms_per_host: 10,
            compat_percent: 80,
            seed,
            spec: MachineSpec::cluster_node(),
            host_reserve_gb: 8,
            slots: std::array::from_fn(|slot| {
                let profile = SyntheticCluster::profile_for_slot(slot);
                SlotClass {
                    dirty_rate_pages_per_sec: profile.dirty_rate_pages_per_sec,
                    peak_qps: profile.peak_qps(),
                    migration_degradation: profile.migration_degradation,
                }
            }),
        }
    }
}

/// The planner/executor's read-only view of a VM — just the fields the
/// scheduling and cost models consume, cheap to derive on the fly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmView {
    /// Memory footprint in GiB.
    pub memory_gb: u64,
    /// Workload dirty rate (drives the pre-copy extension).
    pub dirty_rate_pages_per_sec: f64,
    /// Whether the VM can ride through an InPlaceTP micro-reboot.
    pub inplace_compatible: bool,
    /// The host the VM lives on before the plan runs.
    pub home: usize,
    /// Peak request rate of the VM's workload class, queries/second
    /// (zero for latency-metric and batch classes). Anchors the
    /// executor's opt-in SLO accounting.
    pub peak_qps: f64,
    /// Fractional capacity lost while a pre-copy stream degrades the
    /// guest ([`WorkloadProfile::migration_degradation`]).
    pub migration_degradation: f64,
}

/// Read-only cluster access for the planner and executor.
///
/// [`Cluster`] materializes hosts and VMs as `Vec`s — fine for testbeds,
/// hopeless for 10k-host fleets. This trait is the seam that lets the
/// same planner/executor run over either a materialized [`Cluster`] or a
/// lazy [`SyntheticCluster`] whose per-VM state is a pure function of
/// `(seed, index)`: O(1) memory per untouched entity.
///
/// `Sync` is required so sharded execution can read the view from pool
/// workers.
pub trait ClusterView: Sync {
    /// Number of hosts.
    fn host_count(&self) -> usize;
    /// Number of VMs.
    fn vm_count(&self) -> usize;
    /// GiB reserved per host for the administration OS.
    fn host_reserve_gb(&self) -> u64;
    /// Hardware description of a host.
    fn host_spec(&self, host: usize) -> &MachineSpec;
    /// The VM's scheduling-relevant fields.
    fn vm(&self, vm: usize) -> VmView;
    /// The VM's name (error reporting only — may allocate).
    fn vm_name(&self, vm: usize) -> String;
    /// `Some(spec)` when every host shares one hardware spec — the
    /// executor then memoizes per-class cost evaluations instead of
    /// recomputing them per host/VM.
    fn uniform_spec(&self) -> Option<&MachineSpec>;

    /// VM slots (by GiB) available on a host.
    fn host_capacity_gb(&self, host: usize) -> u64 {
        self.host_spec(host)
            .ram_gb
            .saturating_sub(self.host_reserve_gb())
    }
}

impl ClusterView for Cluster {
    fn host_count(&self) -> usize {
        self.hosts.len()
    }

    fn vm_count(&self) -> usize {
        self.vms.len()
    }

    fn host_reserve_gb(&self) -> u64 {
        self.host_reserve_gb
    }

    fn host_spec(&self, host: usize) -> &MachineSpec {
        &self.hosts[host].spec
    }

    fn vm(&self, vm: usize) -> VmView {
        let v = &self.vms[vm];
        VmView {
            memory_gb: v.config.memory_gb,
            dirty_rate_pages_per_sec: v.profile.dirty_rate_pages_per_sec,
            inplace_compatible: v.config.inplace_compatible,
            home: v.host,
            peak_qps: v.profile.peak_qps(),
            migration_degradation: v.profile.migration_degradation,
        }
    }

    fn vm_name(&self, vm: usize) -> String {
        self.vms[vm].name.clone()
    }

    fn uniform_spec(&self) -> Option<&MachineSpec> {
        let first = &self.hosts.first()?.spec;
        self.hosts[1..]
            .iter()
            .all(|h| h.spec == *first)
            .then_some(first)
    }
}

/// A datacenter-scale fleet that never materializes: host and VM state is
/// derived on first touch as a pure function of `(seed, index)`.
///
/// Layout mirrors [`Cluster::paper_testbed`] scaled out: every host is a
/// G5K-class node carrying `vms_per_host` 4 GiB VMs; each VM's workload
/// class (30% video-stream, 30% cpu-mem, 40% idle by slot) is fixed by
/// its slot and its InPlaceTP compatibility is an independent seeded coin
/// flip at `compat_percent`. [`SyntheticCluster::materialize`] builds the
/// equivalent `Vec`-backed [`Cluster`] for equivalence testing (don't do
/// this at 10k hosts).
///
/// The planner and executor call [`ClusterView::vm`] several times per VM
/// per campaign, so the view reads its three workload classes' numbers
/// from the [`WorkloadProfile`] constructors once, at construction, into
/// a table over the slot cycle, and `vm()` is two hashes and a table
/// lookup — it never allocates.
#[derive(Debug, Clone)]
pub struct SyntheticCluster {
    hosts: usize,
    vms_per_host: usize,
    compat_percent: u32,
    seed: u64,
    spec: MachineSpec,
    host_reserve_gb: u64,
    /// The workload class of slot `s` is entry `s % 10`.
    slots: [SlotClass; 10],
}

/// What a [`VmView`] takes from its slot's [`WorkloadProfile`].
#[derive(Debug, Clone, Copy)]
struct SlotClass {
    dirty_rate_pages_per_sec: f64,
    peak_qps: f64,
    migration_degradation: f64,
}

/// SplitMix64 finalizer: the per-index hash behind the lazy derivation.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-VM dirty-rate spread of the synthetic fleet: each VM draws one of
/// these multipliers (seeded, deterministic) around its workload class's
/// calibrated rate, so dirty rates vary per VM while staying anchored to
/// the class. The set is deliberately small and discrete — the executor
/// memoizes migration estimates per `(memory, dirty-rate, sharers)` key,
/// and `classes × 4` distinct rates keep that memo a handful of entries
/// fleet-wide instead of one per VM.
const DIRTY_MULTIPLIERS: [f64; 4] = [0.5, 0.8, 1.0, 1.6];

/// Salt decorrelating the dirty-rate draw from the compat coin flip.
const DIRTY_SALT: u64 = 0xd1a7_0b5e_ed5a_17ed;

impl SyntheticCluster {
    /// Sets the VM count per host (default 10).
    pub fn with_vms_per_host(mut self, n: usize) -> Self {
        self.vms_per_host = n;
        self
    }

    /// Sets the InPlaceTP-compatible share of VMs (default 80%).
    pub fn with_compat_percent(mut self, pct: u32) -> Self {
        self.compat_percent = pct.min(100);
        self
    }

    /// The seed the fleet derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The workload profile of a VM's slot — same 30/30/40
    /// video/cpu/idle mix as the paper testbed.
    fn profile_for_slot(slot: usize) -> WorkloadProfile {
        match slot % 10 {
            0..=2 => WorkloadProfile::video_stream(),
            3..=5 => WorkloadProfile::cpu_mem(),
            _ => WorkloadProfile::idle(),
        }
    }

    /// The VM's seeded dirty-rate multiplier (see [`DIRTY_MULTIPLIERS`]).
    fn dirty_multiplier(&self, vm: usize) -> f64 {
        DIRTY_MULTIPLIERS[(mix(self.seed ^ DIRTY_SALT, vm as u64) % 4) as usize]
    }

    fn is_compat(&self, vm: usize) -> bool {
        (mix(self.seed, vm as u64) % 100) < self.compat_percent as u64
    }

    /// Builds the equivalent materialized [`Cluster`] — equivalence
    /// testing only; allocates every host and VM.
    pub fn materialize(&self) -> Cluster {
        let hosts = (0..self.hosts)
            .map(|_| HostState {
                spec: self.spec.clone(),
                hypervisor: HypervisorKind::Xen,
                upgraded: false,
            })
            .collect();
        let vms = (0..self.vm_count())
            .map(|i| {
                let host = i / self.vms_per_host;
                let slot = i % self.vms_per_host;
                let config = VmConfig::small(format!("vm-{host}-{slot}"))
                    .with_memory_gb(4)
                    .with_inplace_compatible(self.is_compat(i));
                // The materialized profile carries the same seeded per-VM
                // dirty rate the lazy view derives, so both sides of the
                // equivalence tests see identical VMs.
                let mut profile = Self::profile_for_slot(slot);
                profile.dirty_rate_pages_per_sec *= self.dirty_multiplier(i);
                ClusterVm {
                    name: config.name.clone(),
                    config,
                    profile,
                    host,
                }
            })
            .collect();
        Cluster {
            hosts,
            vms,
            host_reserve_gb: self.host_reserve_gb,
        }
    }
}

impl ClusterView for SyntheticCluster {
    fn host_count(&self) -> usize {
        self.hosts
    }

    fn vm_count(&self) -> usize {
        self.hosts * self.vms_per_host
    }

    fn host_reserve_gb(&self) -> u64 {
        self.host_reserve_gb
    }

    fn host_spec(&self, _host: usize) -> &MachineSpec {
        &self.spec
    }

    fn vm(&self, vm: usize) -> VmView {
        debug_assert!(vm < self.vm_count());
        let class = &self.slots[(vm % self.vms_per_host) % 10];
        VmView {
            memory_gb: 4,
            dirty_rate_pages_per_sec: class.dirty_rate_pages_per_sec * self.dirty_multiplier(vm),
            inplace_compatible: self.is_compat(vm),
            home: vm / self.vms_per_host,
            peak_qps: class.peak_qps,
            migration_degradation: class.migration_degradation,
        }
    }

    fn vm_name(&self, vm: usize) -> String {
        format!("vm-{}-{}", vm / self.vms_per_host, vm % self.vms_per_host)
    }

    fn uniform_spec(&self) -> Option<&MachineSpec> {
        Some(&self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Cluster {
        /// GiB currently used by VMs on a host.
        pub(crate) fn host_used_gb(&self, host: usize) -> u64 {
            self.vms
                .iter()
                .filter(|v| v.host == host)
                .map(|v| v.config.memory_gb)
                .sum()
        }

        /// Free GiB on a host: [`ClusterView::host_capacity_gb`] (0 for a host
        /// with less RAM than the reserve) less what its VMs use.
        pub(crate) fn host_free_gb(&self, host: usize) -> u64 {
            self.host_capacity_gb(host)
                .saturating_sub(self.host_used_gb(host))
        }

        /// Indices of the VMs on a host.
        pub(crate) fn vms_on(&self, host: usize) -> Vec<usize> {
            (0..self.vms.len())
                .filter(|&i| self.vms[i].host == host)
                .collect()
        }
    }

    #[test]
    fn testbed_shape() {
        let c = Cluster::paper_testbed(0, 1);
        assert_eq!(c.hosts.len(), 10);
        assert_eq!(c.vms.len(), 100);
        for h in 0..10 {
            assert_eq!(c.vms_on(h).len(), 10);
            assert_eq!(c.host_used_gb(h), 40);
            assert_eq!(c.host_capacity_gb(h), 88);
        }
        // Mix: 30 streaming, 30 cpu, 40 idle.
        let streaming = c
            .vms
            .iter()
            .filter(|v| v.profile.name == "video-stream")
            .count();
        let cpu = c.vms.iter().filter(|v| v.profile.name == "cpu-mem").count();
        let idle = c.vms.iter().filter(|v| v.profile.name == "idle").count();
        assert_eq!((streaming, cpu, idle), (30, 30, 40));
    }

    /// A host with less RAM than the reserve has no capacity and no free
    /// GiB, rather than an underflow.
    #[test]
    fn host_below_the_reserve_has_no_capacity() {
        let mut c = Cluster::paper_testbed(0, 1);
        c.hosts[3].spec.ram_gb = c.host_reserve_gb - 1;
        assert_eq!(c.host_capacity_gb(3), 0);
        assert_eq!(c.host_free_gb(3), 0);
        assert_eq!(c.host_capacity_gb(4), 88);
    }

    #[test]
    fn compat_percent_is_exact() {
        for pct in [0u32, 20, 40, 60, 80] {
            let c = Cluster::paper_testbed(pct, 7);
            let n = c.vms.iter().filter(|v| v.config.inplace_compatible).count();
            assert_eq!(n as u32, pct, "compat at {pct}%");
        }
    }

    #[test]
    fn deterministic_assignment() {
        let a = Cluster::paper_testbed(40, 9);
        let b = Cluster::paper_testbed(40, 9);
        let fa: Vec<bool> = a.vms.iter().map(|v| v.config.inplace_compatible).collect();
        let fb: Vec<bool> = b.vms.iter().map(|v| v.config.inplace_compatible).collect();
        assert_eq!(fa, fb);
    }

    #[test]
    fn synthetic_view_matches_its_materialization() {
        let syn = Cluster::synthetic(37, 0xfee1).with_compat_percent(60);
        let mat = syn.materialize();
        assert_eq!(syn.host_count(), mat.host_count());
        assert_eq!(syn.vm_count(), mat.vm_count());
        assert_eq!(syn.host_reserve_gb(), mat.host_reserve_gb());
        for h in 0..syn.host_count() {
            assert_eq!(syn.host_spec(h), mat.host_spec(h));
            assert_eq!(
                ClusterView::host_capacity_gb(&syn, h),
                ClusterView::host_capacity_gb(&mat, h)
            );
        }
        for v in 0..syn.vm_count() {
            assert_eq!(syn.vm(v), mat.vm(v), "vm {v}");
            assert_eq!(syn.vm_name(v), mat.vm_name(v));
        }
    }

    #[test]
    fn synthetic_dirty_rates_spread_per_vm_but_stay_class_anchored() {
        let syn = Cluster::synthetic(50, 0xd1ff);
        let mat = syn.materialize();
        let mut distinct: Vec<u64> = Vec::new();
        for v in 0..syn.vm_count() {
            let view = syn.vm(v);
            // Materialize-identity: the lazy view and the Vec-backed
            // cluster derive the same per-VM dirty rate.
            assert_eq!(
                view.dirty_rate_pages_per_sec,
                mat.vm(v).dirty_rate_pages_per_sec,
                "vm {v}"
            );
            // Class-anchored: the rate is the slot profile's rate scaled
            // by one of the discrete multipliers.
            let base = SyntheticCluster::profile_for_slot(v % 10).dirty_rate_pages_per_sec;
            assert!(
                DIRTY_MULTIPLIERS
                    .iter()
                    .any(|m| (view.dirty_rate_pages_per_sec - base * m).abs() < 1e-9),
                "vm {v}: rate {} not a multiplier of class base {base}",
                view.dirty_rate_pages_per_sec
            );
            distinct.push(view.dirty_rate_pages_per_sec.to_bits());
        }
        distinct.sort_unstable();
        distinct.dedup();
        // Spread exists (more rates than classes) but the executor memo
        // stays bounded (at most classes × multipliers keys).
        assert!(distinct.len() > 3, "only {} distinct rates", distinct.len());
        assert!(
            distinct.len() <= 3 * DIRTY_MULTIPLIERS.len(),
            "{} distinct rates would bloat the exec memo",
            distinct.len()
        );
        // Same class, different VMs: slots 0 and 10 are both video-stream
        // on this seed spread — scan for at least one differing pair.
        let video_rates: Vec<f64> = (0..syn.vm_count())
            .filter(|v| v % 10 <= 2)
            .map(|v| syn.vm(v).dirty_rate_pages_per_sec)
            .collect();
        assert!(
            video_rates.iter().any(|&r| r != video_rates[0]),
            "per-VM spread missing within the video class"
        );
    }

    #[test]
    fn synthetic_vm_matches_profile_constructors() {
        // Every field of the lazy view, rebuilt from the `workloads`
        // constructors: what the view caches cannot drift from that crate.
        for per_host in [10usize, 3, 13] {
            let syn = Cluster::synthetic(23, 0xc1a5)
                .with_compat_percent(55)
                .with_vms_per_host(per_host);
            for v in 0..syn.vm_count() {
                let slot = v % per_host;
                let profile = match slot % 10 {
                    0..=2 => WorkloadProfile::video_stream(),
                    3..=5 => WorkloadProfile::cpu_mem(),
                    _ => WorkloadProfile::idle(),
                };
                let want = VmView {
                    memory_gb: 4,
                    dirty_rate_pages_per_sec: profile.dirty_rate_pages_per_sec
                        * syn.dirty_multiplier(v),
                    inplace_compatible: syn.is_compat(v),
                    home: v / per_host,
                    peak_qps: profile.peak_qps(),
                    migration_degradation: profile.migration_degradation,
                };
                let got = syn.vm(v);
                assert_eq!(got, want, "vm {v} of {per_host}/host");
                assert_eq!(
                    got.dirty_rate_pages_per_sec.to_bits(),
                    want.dirty_rate_pages_per_sec.to_bits()
                );
            }
        }
    }

    #[test]
    fn synthetic_compat_share_tracks_the_percent() {
        let syn = Cluster::synthetic(1000, 7).with_compat_percent(80);
        let n = (0..syn.vm_count())
            .filter(|&v| syn.vm(v).inplace_compatible)
            .count();
        let share = n as f64 / syn.vm_count() as f64;
        assert!((0.77..0.83).contains(&share), "share = {share}");
        // Seeds decorrelate the assignment.
        let other = Cluster::synthetic(1000, 8).with_compat_percent(80);
        let flips: Vec<bool> = (0..100).map(|v| syn.vm(v).inplace_compatible).collect();
        let flips2: Vec<bool> = (0..100).map(|v| other.vm(v).inplace_compatible).collect();
        assert_ne!(flips, flips2);
    }

    #[test]
    fn synthetic_uniform_spec_enables_memoization() {
        let syn = Cluster::synthetic(5, 1);
        assert!(syn.uniform_spec().is_some());
        // The paper testbed is uniform too; a mixed fleet is not.
        let mut c = Cluster::paper_testbed(0, 1);
        assert!(c.uniform_spec().is_some());
        c.hosts[3].spec = MachineSpec::m1();
        assert!(c.uniform_spec().is_none());
    }
}
