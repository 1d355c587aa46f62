//! The BtrPlace-like reconfiguration planner.
//!
//! §5.4 divides the cluster into groups, sequentially takes each group
//! offline (its VMs placed on other hosts), and records the resulting
//! plans. We reproduce that structure: for each group, every VM on a
//! group host that cannot ride through InPlaceTP is migrated to the host
//! with the most free capacity outside the group (preferring
//! already-upgraded hosts so it never has to move again); compatible VMs
//! stay and are carried through the host's in-place transplant.
//!
//! The planner is generic over [`ClusterView`], so it runs unchanged over
//! a materialized [`crate::model::Cluster`] or a lazy
//! [`crate::model::SyntheticCluster`]. Placement state is an overlay:
//! per-host used GiB, a CSR index of the VMs each host must evacuate, and
//! arrival lists for hosts still awaiting their turn. The migration targets
//! sit in two bucket queues, one per tier: hosts grouped by free GiB, each
//! bucket a bitset of hosts. A pick takes the highest host of the highest
//! bucket with room, and a charge moves it `need` buckets down. Planning is
//! one pass over the VMs, a sort of those that move (one pass when the view
//! lists VMs host by host), a pick per migration that reads the top
//! bucket's highest word (O(H/64) at worst), and O(C) per group for C GiB
//! of the largest host. The produced [`Plan`] is byte-identical to the
//! original O(H·V)-per-pick scan planner's (the test module keeps that one
//! as an oracle).
//!
//! A [`Plan`] is two flat columns of 12-byte [`Migration`]s and
//! [`Upgrade`]s, sized up front and cut into offline groups: a plan costs a
//! few allocations, not one per group.

use crate::model::ClusterView;

/// One step of a reconfiguration plan, in action order: a [`Migration`]
/// or an [`Upgrade`] with its fields widened.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Live-migrate (MigrationTP) a VM between hosts.
    Migrate { vm: usize, from: usize, to: usize },
    /// Upgrade a host in place (InPlaceTP), carrying `vm_count` resident
    /// compatible VMs through the micro-reboot.
    InPlaceUpgrade { host: usize, vm_count: usize },
}

/// One live migration of a [`Plan`]: VM `vm` moves from host `from` to
/// host `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    pub vm: u32,
    pub from: u32,
    pub to: u32,
}

/// One in-place upgrade of a [`Plan`]: host `host` carries `vm_count` VMs
/// through its micro-reboot, after the first `after` of its group's
/// migrations in action order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Upgrade {
    pub host: u32,
    pub vm_count: u32,
    pub after: u32,
}

/// A reconfiguration plan, to execute group by group: a migration column
/// and an upgrade column, both cut into the offline groups.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Plan {
    migrations: Vec<Migration>,
    upgrades: Vec<Upgrade>,
    /// Per group, where its runs of the two columns end.
    group_ends: Vec<(u32, u32)>,
}

impl Plan {
    /// The plan of `groups`, each an action list in execution order: the
    /// inverse of [`Plan::group_actions`].
    pub fn from_groups(groups: impl IntoIterator<Item = impl IntoIterator<Item = Action>>) -> Plan {
        let mut plan = Plan::default();
        for group in groups {
            group.into_iter().for_each(|action| plan.push(action));
            plan.group_ends
                .push((plan.migrations.len() as u32, plan.upgrades.len() as u32));
        }
        plan
    }

    /// Appends `action` to the group not yet ended.
    fn push(&mut self, action: Action) {
        let idx = |i: usize| u32::try_from(i).expect("indices are kept in 32 bits");
        match action {
            Action::Migrate { vm, from, to } => {
                let (vm, from, to) = (idx(vm), idx(from), idx(to));
                self.migrations.push(Migration { vm, from, to });
            }
            Action::InPlaceUpgrade { host, vm_count } => {
                let start = self.group_ends.last().map_or(0, |&(m, _)| m as usize);
                let after = idx(self.migrations.len() - start);
                self.upgrades.push(Upgrade {
                    host: idx(host),
                    vm_count: idx(vm_count),
                    after,
                });
            }
        }
    }

    /// Total number of migrations in the plan.
    pub fn migration_count(&self) -> usize {
        self.migrations.len()
    }

    /// Total number of in-place host upgrades.
    pub fn inplace_count(&self) -> usize {
        self.upgrades.len()
    }

    /// Number of offline groups.
    pub fn group_count(&self) -> usize {
        self.group_ends.len()
    }

    /// Group `g`'s migrations and upgrades, each in execution order.
    pub fn group(&self, g: usize) -> (&[Migration], &[Upgrade]) {
        let (m, u) = g.checked_sub(1).map_or((0, 0), |p| self.group_ends[p]);
        let (m_end, u_end) = self.group_ends[g];
        let migrations = &self.migrations[m as usize..m_end as usize];
        (migrations, &self.upgrades[u as usize..u_end as usize])
    }

    /// Group `g`'s actions in execution order: each upgrade follows the
    /// first `after` of the group's migrations.
    pub fn group_actions(&self, g: usize) -> impl Iterator<Item = Action> + '_ {
        let (migrations, upgrades) = self.group(g);
        let (mut m, mut u) = (0, 0);
        std::iter::from_fn(move || match upgrades.get(u) {
            Some(up) if up.after as usize == m => {
                u += 1;
                let (host, vm_count) = (up.host as usize, up.vm_count as usize);
                Some(Action::InPlaceUpgrade { host, vm_count })
            }
            _ => {
                let &Migration { vm, from, to } = migrations.get(m)?;
                m += 1;
                let (vm, from, to) = (vm as usize, from as usize, to as usize);
                Some(Action::Migrate { vm, from, to })
            }
        })
    }

    /// All actions flattened in execution order.
    pub fn actions(&self) -> impl Iterator<Item = Action> + '_ {
        (0..self.group_count()).flat_map(|g| self.group_actions(g))
    }
}

/// Errors from planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A VM could not be placed anywhere (cluster over capacity).
    NoCapacity {
        /// The VM that could not be placed.
        vm: String,
    },
    /// Invalid group size.
    BadGroupSize,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NoCapacity { vm } => write!(f, "no capacity to place {vm}"),
            PlanError::BadGroupSize => write!(f, "group size must be in 1..=hosts"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Plans a rolling cluster upgrade with offline groups of `group_size`
/// hosts. The input view is read-only; placement is tracked in an
/// overlay.
pub fn plan_upgrade<V: ClusterView + ?Sized>(
    view: &V,
    group_size: usize,
) -> Result<Plan, PlanError> {
    plan_upgrade_excluding(view, group_size, &[])
}

/// One tier's migration targets: its hosts bucketed by free GiB, each
/// bucket a bitset over host indices. The highest host of the highest
/// bucket is the largest `(free, host)` pair: the forward-scan
/// `max_by_key((upgraded, free))` winner within the tier, ties included.
struct Targets {
    /// `u64` words per bucket.
    stride: usize,
    /// Bucket `b`'s bitset is `bits[b * stride..(b + 1) * stride]`.
    bits: Vec<u64>,
    /// Hosts per bucket.
    len: Vec<u32>,
    /// Per bucket, a word no set bit lies above.
    high: Vec<u32>,
    /// No bucket above this one holds a host.
    top: usize,
}

impl Targets {
    /// Buckets `0..=max_gb` over hosts `0..hosts`, all empty.
    fn new(max_gb: u64, hosts: usize) -> Self {
        let (buckets, stride) = (max_gb as usize + 1, hosts.div_ceil(64));
        Targets {
            stride,
            bits: vec![0; buckets * stride],
            len: vec![0; buckets],
            high: vec![0; buckets],
            top: 0,
        }
    }

    fn insert(&mut self, host: usize, free_gb: u64) {
        let (b, w) = (free_gb as usize, host / 64);
        self.bits[b * self.stride + w] |= 1 << (host % 64);
        self.len[b] += 1;
        self.high[b] = self.high[b].max(w as u32);
        self.top = self.top.max(b);
    }

    /// `free_gb` must be the host's bucket: its free GiB when last moved.
    fn remove(&mut self, host: usize, free_gb: u64) {
        let b = free_gb as usize;
        self.bits[b * self.stride + host / 64] &= !(1 << (host % 64));
        self.len[b] -= 1;
    }

    /// Charges `need_gb` to the best host of the tier, iff it has room.
    fn place(&mut self, need_gb: u64) -> Option<usize> {
        while self.len[self.top] == 0 {
            self.top = self.top.checked_sub(1)?;
        }
        let free = self.top as u64;
        if free < need_gb {
            return None;
        }
        let row = &self.bits[self.top * self.stride..][..self.stride];
        let mut w = self.high[self.top] as usize;
        while row[w] == 0 {
            w -= 1;
        }
        self.high[self.top] = w as u32;
        let host = w * 64 + 63 - row[w].leading_zeros() as usize;
        self.remove(host, free);
        self.insert(host, free - need_gb);
        Some(host)
    }
}

/// VMs that migrated onto hosts still awaiting their turn: one
/// `(vm, next)` list per host, threaded through one arena.
struct Arrivals {
    first: Vec<u32>,
    links: Vec<(u32, u32)>,
}

impl Arrivals {
    fn push(&mut self, host: usize, vm: u32) {
        self.links.push((vm, self.first[host]));
        self.first[host] = (self.links.len() - 1) as u32;
    }

    /// The host's arrivals, newest first.
    fn of(&self, host: usize) -> impl Iterator<Item = u32> + '_ {
        let mut at = self.first[host];
        std::iter::from_fn(move || {
            let (vm, next) = *self.links.get(at as usize)?;
            at = next;
            Some(vm)
        })
    }
}

/// [`plan_upgrade`] over a degraded cluster: `excluded` hosts (failed or
/// quarantined by the campaign's fault policy) are neither upgraded nor
/// used as migration targets. VMs resident on an excluded host stay put —
/// the host keeps serving on its old hypervisor and its exposure is
/// accounted at the campaign level, not the plan level.
pub(crate) fn plan_upgrade_excluding<V: ClusterView + ?Sized>(
    view: &V,
    group_size: usize,
    excluded: &[usize],
) -> Result<Plan, PlanError> {
    let n_hosts = view.host_count();
    let n_vms = view.vm_count();
    assert!(
        n_hosts.max(n_vms) <= u32::MAX as usize,
        "indices are kept in 32 bits"
    );
    let mut is_eligible = vec![true; n_hosts];
    for &h in excluded {
        if let Some(e) = is_eligible.get_mut(h) {
            *e = false;
        }
    }
    let mut eligible = Vec::with_capacity(n_hosts);
    eligible.extend((0..n_hosts).filter(|&h| is_eligible[h]));
    if group_size == 0 || group_size > eligible.len() {
        return Err(PlanError::BadGroupSize);
    }

    // Per-host used GiB and staying count, and a CSR index of the VMs each
    // host must evacuate at its turn: `(home, vm)` keys, sorted. A
    // compatible VM never moves, so only its count is kept. The keys are
    // compacted without branching on the (coin-flip) compatibility bit,
    // and sorting them is one pass when the view lists VMs host by host,
    // as both views in this crate do.
    let mut used = vec![0u64; n_hosts];
    let mut staying = vec![0u32; n_hosts];
    let mut offsets = vec![0u32; n_hosts + 1];
    let mut leaving = vec![0u64; n_vms];
    let mut n_leaving = 0;
    for i in 0..n_vms {
        let vm = view.vm(i);
        let moves = !vm.inplace_compatible;
        used[vm.home] += vm.memory_gb;
        staying[vm.home] += u32::from(!moves);
        offsets[vm.home + 1] += u32::from(moves);
        leaving[n_leaving] = (vm.home as u64) << 32 | i as u64;
        n_leaving += usize::from(moves);
    }
    leaving.truncate(n_leaving);
    leaving.sort_unstable();
    for h in 0..n_hosts {
        offsets[h + 1] += offsets[h];
    }

    let capacity = |host: usize| view.host_capacity_gb(host);
    let free = |host: usize, used: &[u64]| capacity(host).saturating_sub(used[host]);
    let max_gb = eligible.iter().map(|&h| capacity(h)).max().unwrap_or(0);

    // Targets: every non-excluded host in one of two tiers —
    // already-upgraded hosts are always preferred over fresh ones,
    // matching `max_by_key((upgraded, free_gb))`.
    let mut fresh = Targets::new(max_gb, n_hosts);
    for &h in &eligible {
        fresh.insert(h, free(h, &used));
    }
    let mut upgraded = Targets::new(max_gb, n_hosts);
    // A host is drained exactly once and a VM only ever leaves the host
    // being drained. So when a host's turn comes, every home VM is still
    // there and every VM that arrived has stayed — and arrivals at hosts
    // that already had their turn are never read.
    let mut arrivals = Arrivals {
        first: vec![u32::MAX; n_hosts],
        links: Vec::new(),
    };

    // The first group's leavers all land on hosts still awaiting their
    // turn, so they move twice; later groups mostly find upgraded room.
    let first_group = eligible[..group_size].iter();
    let twice: u32 = first_group.map(|&h| offsets[h + 1] - offsets[h]).sum();
    let mut plan = Plan {
        migrations: Vec::with_capacity(n_leaving + twice as usize),
        upgrades: Vec::with_capacity(eligible.len()),
        group_ends: Vec::with_capacity(eligible.len().div_ceil(group_size)),
    };
    let mut movers: Vec<u64> = Vec::new();
    for group in eligible.chunks(group_size) {
        // The offline group cannot receive evacuated VMs.
        for &g in group {
            fresh.remove(g, free(g, &used));
        }
        for &host in group {
            // Leaving VMs in ascending order: home VMs, then arrivals.
            let home = &leaving[offsets[host] as usize..offsets[host + 1] as usize];
            let ordered = if arrivals.of(host).next().is_none() {
                home
            } else {
                movers.clear();
                movers.extend_from_slice(home);
                movers.extend(
                    arrivals
                        .of(host)
                        .map(|vm| (host as u64) << 32 | u64::from(vm)),
                );
                movers.sort_unstable();
                &movers
            };
            for &key in ordered {
                let vm = key as u32 as usize;
                let need = view.vm(vm).memory_gb;
                let to = match upgraded.place(need) {
                    Some(to) => to,
                    None => {
                        let to = fresh.place(need).ok_or_else(|| PlanError::NoCapacity {
                            vm: view.vm_name(vm),
                        })?;
                        arrivals.push(to, vm as u32);
                        to
                    }
                };
                plan.push(Action::Migrate { vm, from: host, to });
                used[to] += need;
                used[host] -= need;
            }
            plan.push(Action::InPlaceUpgrade {
                host,
                vm_count: staying[host] as usize,
            });
        }
        // The group is back online, upgraded, with its evacuations freed.
        for &g in group {
            upgraded.insert(g, free(g, &used));
        }
        plan.group_ends
            .push((plan.migrations.len() as u32, plan.upgrades.len() as u32));
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use hypertp_core::{HypervisorKind, VmConfig};
    use hypertp_machine::MachineSpec;
    use hypertp_sim::SimRng;
    use hypertp_workloads::WorkloadProfile;

    use super::*;
    use crate::model::{Cluster, ClusterVm, HostState};

    /// The original O(H·V)-per-host scan planner, kept verbatim as an
    /// oracle: the indexed planner must reproduce its plans byte for
    /// byte.
    mod oracle {
        use super::super::{Action, Plan, PlanError};
        use crate::model::Cluster;

        pub fn plan_upgrade_excluding(
            cluster: &Cluster,
            group_size: usize,
            excluded: &[usize],
        ) -> Result<Plan, PlanError> {
            let eligible: Vec<usize> = (0..cluster.hosts.len())
                .filter(|h| !excluded.contains(h))
                .collect();
            if group_size == 0 || group_size > eligible.len() {
                return Err(PlanError::BadGroupSize);
            }
            let mut state = cluster.clone();
            let mut groups = Vec::new();
            let mut group_start = 0usize;
            while group_start < eligible.len() {
                let group: Vec<usize> =
                    eligible[group_start..(group_start + group_size).min(eligible.len())].to_vec();
                let mut actions = Vec::new();
                for &host in &group {
                    let resident = state.vms_on(host);
                    let mut staying = 0usize;
                    for vm in resident {
                        if state.vms[vm].config.inplace_compatible {
                            staying += 1;
                            continue;
                        }
                        let to =
                            best_target(&state, &group, excluded, state.vms[vm].config.memory_gb)
                                .ok_or_else(|| PlanError::NoCapacity {
                                vm: state.vms[vm].name.clone(),
                            })?;
                        actions.push(Action::Migrate { vm, from: host, to });
                        state.vms[vm].host = to;
                    }
                    actions.push(Action::InPlaceUpgrade {
                        host,
                        vm_count: staying,
                    });
                    state.hosts[host].upgraded = true;
                }
                groups.push(actions);
                group_start += group_size;
            }
            Ok(Plan::from_groups(groups))
        }

        fn best_target(
            cluster: &Cluster,
            group: &[usize],
            excluded: &[usize],
            need_gb: u64,
        ) -> Option<usize> {
            (0..cluster.hosts.len())
                .filter(|h| !group.contains(h) && !excluded.contains(h))
                .filter(|&h| cluster.host_free_gb(h) >= need_gb)
                .max_by_key(|&h| (cluster.hosts[h].upgraded, cluster.host_free_gb(h)))
        }
    }

    /// Checks that a plan never overflows any host's capacity when executed
    /// step by step.
    fn validate_capacity<V: ClusterView + ?Sized>(view: &V, plan: &Plan) -> Result<(), PlanError> {
        let n_hosts = view.host_count();
        let n_vms = view.vm_count();
        let mut used = vec![0u64; n_hosts];
        let mut cur = vec![0usize; n_vms];
        for (i, cur_home) in cur.iter_mut().enumerate() {
            let vm = view.vm(i);
            used[vm.home] += vm.memory_gb;
            *cur_home = vm.home;
        }
        for action in plan.actions() {
            if let Action::Migrate { vm, from, to } = &action {
                assert_eq!(cur[*vm], *from, "plan is self-consistent");
                let need = view.vm(*vm).memory_gb;
                if view.host_capacity_gb(*to).saturating_sub(used[*to]) < need {
                    return Err(PlanError::NoCapacity {
                        vm: view.vm_name(*vm),
                    });
                }
                used[*from] -= need;
                used[*to] += need;
                cur[*vm] = *to;
            }
        }
        Ok(())
    }

    #[test]
    fn zero_host_plan_is_rejected_not_planned() {
        // A fleet with no hosts cannot satisfy any group size — the
        // planner must say so up front instead of emitting an empty plan
        // that an executor would happily "complete".
        let empty = Cluster {
            hosts: vec![],
            vms: vec![],
            host_reserve_gb: 0,
        };
        assert_eq!(plan_upgrade(&empty, 1), Err(PlanError::BadGroupSize));
        assert_eq!(plan_upgrade(&empty, 0), Err(PlanError::BadGroupSize));
        let syn = Cluster::synthetic(0, 7);
        assert_eq!(plan_upgrade(&syn, 1), Err(PlanError::BadGroupSize));
    }

    #[test]
    fn indexed_planner_matches_the_scan_oracle() {
        for seed in [3u64, 42, 99] {
            for pct in [0u32, 20, 50, 80, 100] {
                for group in [1usize, 2, 3, 7] {
                    let c = Cluster::paper_testbed(pct, seed);
                    // Compare Results: large groups over-fill the
                    // remaining hosts, and the two planners must fail on
                    // the same VM in that case.
                    let fast = plan_upgrade(&c, group);
                    let slow = oracle::plan_upgrade_excluding(&c, group, &[]);
                    assert_eq!(fast, slow, "seed={seed} pct={pct} group={group}");
                }
            }
        }
    }

    #[test]
    fn indexed_planner_matches_oracle_with_exclusions() {
        for excluded in [vec![0usize], vec![3, 7], vec![9, 1, 5]] {
            let c = Cluster::paper_testbed(30, 42);
            let fast = plan_upgrade_excluding(&c, 2, &excluded).unwrap();
            let slow = oracle::plan_upgrade_excluding(&c, 2, &excluded).unwrap();
            assert_eq!(fast, slow, "excluded={excluded:?}");
        }
    }

    #[test]
    fn indexed_planner_matches_oracle_on_synthetic_fleets() {
        for hosts in [5usize, 24, 100] {
            let syn = Cluster::synthetic(hosts, 0xbeef).with_compat_percent(50);
            let mat = syn.materialize();
            let via_view = plan_upgrade(&syn, 2).unwrap();
            let via_cluster = plan_upgrade(&mat, 2).unwrap();
            let slow = oracle::plan_upgrade_excluding(&mat, 2, &[]).unwrap();
            assert_eq!(via_view, via_cluster, "hosts={hosts}");
            assert_eq!(via_view, slow, "hosts={hosts}");
            validate_capacity(&syn, &via_view).unwrap();
        }
    }

    /// A near-full heterogeneous fleet: two host sizes, VM footprints of
    /// 1–16 GiB packed until every host is at least 90 % used, then
    /// `spare` empty hosts spliced in at seeded positions.
    fn packed_fleet(seed: u64, hosts: usize, spare: usize, compat_pct: u64) -> Cluster {
        let mut rng = SimRng::new(seed);
        let mut c = Cluster {
            hosts: Vec::new(),
            vms: Vec::new(),
            host_reserve_gb: 8,
        };
        let spare_at = rng.sample_indices(hosts + spare, spare);
        for host in 0..hosts + spare {
            let spec = if rng.gen_bool(0.5) {
                MachineSpec::cluster_node()
            } else {
                MachineSpec::m2()
            };
            c.hosts.push(HostState {
                spec,
                hypervisor: HypervisorKind::Xen,
                upgraded: false,
            });
            if spare_at.contains(&host) {
                continue;
            }
            let capacity = c.host_capacity_gb(host);
            let mut used = 0u64;
            while used * 10 < capacity * 9 {
                let gb = [1u64, 2, 4, 8, 16][rng.gen_range(5) as usize].min(capacity - used);
                let name = format!("vm-{host}-{}", c.vms.len());
                c.vms.push(ClusterVm {
                    config: VmConfig::small(name.clone())
                        .with_memory_gb(gb)
                        .with_inplace_compatible(rng.gen_range(100) < compat_pct),
                    name,
                    profile: WorkloadProfile::idle(),
                    host,
                });
                used += gb;
            }
        }
        c
    }

    /// What a plan exercised: picks that fell through to a not-yet-upgraded
    /// host although upgraded ones existed, and VMs that moved back onto a
    /// host they had left.
    fn fallthroughs_and_returns(plan: &Plan) -> (usize, usize) {
        let mut upgraded: Vec<usize> = Vec::new();
        let mut left: HashMap<usize, Vec<usize>> = HashMap::new();
        let (mut fell_through, mut returned) = (0, 0);
        for g in 0..plan.group_count() {
            let (migrations, upgrades) = plan.group(g);
            for m in migrations {
                let (vm, from, to) = (m.vm as usize, m.from as usize, m.to as usize);
                fell_through += usize::from(!upgraded.is_empty() && !upgraded.contains(&to));
                let left = left.entry(vm).or_default();
                returned += usize::from(left.contains(&to));
                left.push(from);
            }
            upgraded.extend(upgrades.iter().map(|u| u.host as usize));
        }
        (fell_through, returned)
    }

    #[test]
    fn indexed_planner_matches_oracle_on_near_full_mixed_fleets() {
        let (mut planned, mut refused, mut fell_through, mut returned) = (0, 0, 0, 0);
        for seed in [3u64, 42, 99] {
            for spare in [0usize, 1, 3, 6] {
                for group in [1usize, 2, 4] {
                    let c = packed_fleet(seed, 24, spare, 60);
                    for h in 0..c.hosts.len() {
                        let used = c.host_used_gb(h);
                        assert!(used == 0 || used * 10 >= c.host_capacity_gb(h) * 9);
                    }
                    let fast = plan_upgrade(&c, group);
                    let slow = oracle::plan_upgrade_excluding(&c, group, &[]);
                    assert_eq!(fast, slow, "seed={seed} spare={spare} group={group}");
                    match fast {
                        Ok(plan) => {
                            validate_capacity(&c, &plan).unwrap();
                            let (f, r) = fallthroughs_and_returns(&plan);
                            planned += 1;
                            fell_through += f;
                            returned += r;
                        }
                        Err(PlanError::NoCapacity { .. }) => refused += 1,
                        Err(e) => panic!("seed={seed} spare={spare} group={group}: {e}"),
                    }
                }
            }
        }
        // The sweep must reach every regime the target index can differ in.
        assert!(planned > 0, "no packed fleet planned");
        assert!(refused > 0, "no packed fleet ran out of capacity");
        assert!(fell_through > 0, "no pick fell through to the fresh tier");
        assert!(returned > 0, "no VM returned to a host it had left");
    }

    #[test]
    fn indexed_planner_matches_oracle_with_wide_exclusions() {
        let hosts = 200usize;
        let group = 8usize;
        for seed in [7u64, 42] {
            let syn = Cluster::synthetic(hosts, seed).with_compat_percent(60);
            let mat = syn.materialize();
            let one = vec![(seed as usize * 31) % hosts];
            let half: Vec<usize> = (0..hosts).filter(|h| h % 2 == 1).rev().collect();
            // All but one group's worth of hosts: the survivors go offline
            // together, so anything that must move has nowhere to go.
            let all_but_group: Vec<usize> =
                (0..hosts).filter(|h| h % (hosts / group) != 3).collect();
            assert_eq!(all_but_group.len(), hosts - group);
            for excluded in [one, half, all_but_group] {
                let at = format!("seed={seed} excluded={}", excluded.len());
                let via_view = plan_upgrade_excluding(&syn, group, &excluded);
                let via_cluster = plan_upgrade_excluding(&mat, group, &excluded);
                let slow = oracle::plan_upgrade_excluding(&mat, group, &excluded);
                assert_eq!(via_view, via_cluster, "{at}");
                assert_eq!(via_view, slow, "{at}");
                if let Ok(plan) = &via_view {
                    validate_capacity(&syn, plan).unwrap();
                    assert_eq!(plan.inplace_count(), hosts - excluded.len(), "{at}");
                    for a in plan.actions() {
                        if let Action::Migrate { to, .. } = a {
                            assert!(!excluded.contains(&to), "{at}: moved onto excluded {to}");
                        }
                    }
                }
            }
        }
    }

    /// A fleet of degenerate capacities: hosts whose RAM the reserve
    /// covers exactly (capacity 0, so the VMs homed there over-commit
    /// them), VMs of 0 GiB, and one host of far more capacity than the
    /// rest, alone in the top buckets.
    fn degenerate_fleet(seed: u64, hosts: usize) -> Cluster {
        let mut rng = SimRng::new(seed);
        let mut c = Cluster {
            hosts: Vec::new(),
            vms: Vec::new(),
            host_reserve_gb: 8,
        };
        let giant = rng.gen_range(hosts as u64) as usize;
        for host in 0..hosts {
            let mut spec = MachineSpec::cluster_node();
            spec.ram_gb = if host == giant {
                4096
            } else {
                [8u64, 8, 16, 24][rng.gen_range(4) as usize]
            };
            c.hosts.push(HostState {
                spec,
                hypervisor: HypervisorKind::Xen,
                upgraded: false,
            });
            for _ in 0..rng.gen_range(6) {
                let gb = [0u64, 0, 1, 2, 4, 8][rng.gen_range(6) as usize];
                let name = format!("vm-{host}-{}", c.vms.len());
                c.vms.push(ClusterVm {
                    config: VmConfig::small(name.clone())
                        .with_memory_gb(gb)
                        .with_inplace_compatible(rng.gen_range(100) < 40),
                    name,
                    profile: WorkloadProfile::idle(),
                    host,
                });
            }
        }
        c
    }

    #[test]
    fn indexed_planner_matches_oracle_on_degenerate_capacities() {
        let (mut planned, mut refused) = (0, 0);
        let (mut onto_zero_capacity, mut onto_giant, mut without_giant) = (0, 0, 0);
        for seed in [1u64, 5, 42, 77] {
            let c = degenerate_fleet(seed, 40);
            let giant = (0..c.hosts.len())
                .max_by_key(|&h| c.host_capacity_gb(h))
                .unwrap();
            let zero: Vec<usize> = (0..c.hosts.len())
                .filter(|&h| c.host_capacity_gb(h) == 0)
                .collect();
            assert!(!zero.is_empty(), "seed={seed}: no zero-capacity host");
            assert!(c.vms.iter().any(|v| v.config.memory_gb == 0));
            let exclusions = [vec![], vec![giant], zero[..zero.len() / 2].to_vec()];
            for excluded in exclusions {
                for group in [1usize, 3, 8] {
                    let at = format!("seed={seed} excluded={excluded:?} group={group}");
                    let fast = plan_upgrade_excluding(&c, group, &excluded);
                    let slow = oracle::plan_upgrade_excluding(&c, group, &excluded);
                    assert_eq!(fast, slow, "{at}");
                    let plan = match fast {
                        Ok(plan) => plan,
                        Err(PlanError::NoCapacity { .. }) => {
                            refused += 1;
                            continue;
                        }
                        Err(e) => panic!("{at}: {e}"),
                    };
                    validate_capacity(&c, &plan).unwrap();
                    planned += 1;
                    without_giant += usize::from(excluded.contains(&giant));
                    for a in plan.actions() {
                        if let Action::Migrate { to, .. } = a {
                            onto_zero_capacity += usize::from(zero.contains(&to));
                            onto_giant += usize::from(to == giant);
                        }
                    }
                }
            }
        }
        // The sweep must reach every degenerate regime it is named for.
        assert!(
            planned > 0 && refused > 0,
            "{planned} planned, {refused} refused"
        );
        assert!(onto_zero_capacity > 0, "no 0 GiB VM landed on a full host");
        assert!(onto_giant > 0, "no VM landed on the sparse top bucket");
        assert!(without_giant > 0, "no plan succeeded without the giant");
    }

    #[test]
    fn all_migration_plan_size_matches_paper() {
        // §5.4: the all-migration plan has 154 migration operations. Our
        // planner's rolling groups-of-two produce the same regime
        // (displaced VMs early in the roll must move again later).
        let c = Cluster::paper_testbed(0, 42);
        let plan = plan_upgrade(&c, 2).unwrap();
        let m = plan.migration_count();
        assert!((120..=180).contains(&m), "migrations = {m}");
        assert_eq!(plan.inplace_count(), 10, "every host still gets upgraded");
        validate_capacity(&c, &plan).unwrap();
    }

    #[test]
    fn migrations_decrease_with_compatibility() {
        let mut prev = usize::MAX;
        for pct in [0u32, 20, 40, 60, 80] {
            let c = Cluster::paper_testbed(pct, 42);
            let plan = plan_upgrade(&c, 2).unwrap();
            let m = plan.migration_count();
            assert!(m < prev, "at {pct}%: {m} !< {prev}");
            prev = m;
        }
    }

    #[test]
    fn eighty_percent_compat_needs_few_migrations() {
        // Paper: 25 migrations at 80% InPlaceTP-compatible.
        let c = Cluster::paper_testbed(80, 42);
        let plan = plan_upgrade(&c, 2).unwrap();
        let m = plan.migration_count();
        assert!((18..=40).contains(&m), "migrations = {m}");
    }

    #[test]
    fn fully_compatible_needs_no_migrations() {
        let c = Cluster::paper_testbed(100, 42);
        let plan = plan_upgrade(&c, 2).unwrap();
        assert_eq!(plan.migration_count(), 0);
        assert_eq!(plan.inplace_count(), 10);
    }

    #[test]
    fn every_host_upgraded_once() {
        let c = Cluster::paper_testbed(50, 3);
        let plan = plan_upgrade(&c, 3).unwrap();
        let mut hosts: Vec<usize> = plan
            .actions()
            .filter_map(|a| match a {
                Action::InPlaceUpgrade { host, .. } => Some(host),
                _ => None,
            })
            .collect();
        hosts.sort_unstable();
        assert_eq!(hosts, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn excluded_hosts_are_neither_upgraded_nor_targets() {
        let c = Cluster::paper_testbed(0, 42);
        let excluded = [3usize, 7];
        let plan = plan_upgrade_excluding(&c, 2, &excluded).unwrap();
        for a in plan.actions() {
            match &a {
                Action::InPlaceUpgrade { host, .. } => {
                    assert!(!excluded.contains(host), "excluded host {host} upgraded");
                }
                Action::Migrate { from, to, .. } => {
                    assert!(
                        !excluded.contains(from),
                        "migrated off excluded host {from}"
                    );
                    assert!(!excluded.contains(to), "migrated onto excluded host {to}");
                }
            }
        }
        assert_eq!(plan.inplace_count(), 8, "only the eligible hosts upgrade");
        validate_capacity(&c, &plan).unwrap();
    }

    #[test]
    fn excluding_every_host_is_a_bad_group_size() {
        let c = Cluster::paper_testbed(0, 42);
        let all: Vec<usize> = (0..10).collect();
        assert!(matches!(
            plan_upgrade_excluding(&c, 1, &all),
            Err(PlanError::BadGroupSize)
        ));
    }

    #[test]
    fn bad_group_size_rejected() {
        let c = Cluster::paper_testbed(0, 1);
        assert!(matches!(plan_upgrade(&c, 0), Err(PlanError::BadGroupSize)));
        assert!(matches!(plan_upgrade(&c, 11), Err(PlanError::BadGroupSize)));
    }

    #[test]
    fn empty_cluster_has_no_valid_plan() {
        let c = Cluster {
            hosts: Vec::new(),
            vms: Vec::new(),
            host_reserve_gb: 0,
        };
        // No hosts means no admissible group size at all.
        assert!(matches!(plan_upgrade(&c, 1), Err(PlanError::BadGroupSize)));
        assert!(matches!(plan_upgrade(&c, 0), Err(PlanError::BadGroupSize)));
    }

    #[test]
    fn single_host_with_incompatible_vm_has_no_evacuation_target() {
        // One host, one VM that cannot ride through InPlaceTP: there is
        // nowhere to evacuate it while its host is offline.
        let mut c = Cluster::paper_testbed(0, 7);
        c.hosts.truncate(1);
        c.vms.retain(|v| v.host == 0);
        assert!(!c.vms.is_empty(), "testbed host 0 carries VMs");
        assert!(c.vms.iter().any(|v| !v.config.inplace_compatible));
        assert!(matches!(
            plan_upgrade(&c, 1),
            Err(PlanError::NoCapacity { .. })
        ));
    }

    #[test]
    fn single_host_all_compatible_plans_without_migrations() {
        // The degenerate fleet still upgrades when every VM can ride the
        // micro-reboot: one group, one in-place action, no migrations.
        let mut c = Cluster::paper_testbed(100, 7);
        c.hosts.truncate(1);
        c.vms.retain(|v| v.host == 0);
        let plan = plan_upgrade(&c, 1).unwrap();
        assert_eq!(plan.migration_count(), 0);
        assert_eq!(plan.inplace_count(), 1);
        assert_eq!(plan.group_count(), 1);
    }

    #[test]
    fn compatible_vms_never_migrate() {
        let c = Cluster::paper_testbed(60, 5);
        let plan = plan_upgrade(&c, 2).unwrap();
        for a in plan.actions() {
            if let Action::Migrate { vm, .. } = a {
                assert!(
                    !c.vms[vm].config.inplace_compatible,
                    "{} is compatible but was migrated",
                    c.vms[vm].name
                );
            }
        }
    }

    /// A plan's groups as interleaved action lists.
    fn group_lists(plan: &Plan) -> Vec<Vec<Action>> {
        (0..plan.group_count())
            .map(|g| plan.group_actions(g).collect())
            .collect()
    }

    #[test]
    fn action_lists_round_trip_through_the_columns() {
        let round_trip = |groups: Vec<Vec<Action>>| {
            let plan = Plan::from_groups(groups.clone());
            assert_eq!(group_lists(&plan), groups);
            assert_eq!(plan.actions().collect::<Vec<_>>(), groups.concat());
            let n = |f: fn(&Action) -> bool| groups.iter().flatten().filter(|a| f(a)).count();
            assert_eq!(
                plan.migration_count(),
                n(|a| matches!(a, Action::Migrate { .. }))
            );
            assert_eq!(
                plan.inplace_count(),
                n(|a| matches!(a, Action::InPlaceUpgrade { .. }))
            );
        };
        let mut rng = SimRng::new(0x5eed);
        for (c, group) in [
            (Cluster::paper_testbed(30, 42), 2),
            (
                Cluster::synthetic(100, 0xbeef)
                    .with_compat_percent(50)
                    .materialize(),
                4,
            ),
        ] {
            let plan = plan_upgrade(&c, group).unwrap();
            let planned = group_lists(&plan);
            assert_eq!(Plan::from_groups(planned.clone()), plan);
            round_trip(planned.clone());
            // `drain_pinned`'s plan: each group's actions reversed.
            round_trip(
                planned
                    .iter()
                    .map(|g| g.iter().rev().cloned().collect())
                    .collect(),
            );
            let shuffled = planned.iter().map(|g| {
                let mut g = g.clone();
                for i in (1..g.len()).rev() {
                    g.swap(i, rng.gen_range(i as u64 + 1) as usize);
                }
                g
            });
            round_trip(shuffled.collect());
            // Each group split in two: its migrations, then its upgrades.
            let split = planned.iter().flat_map(|g| {
                let (m, u): (Vec<Action>, Vec<Action>) = g
                    .iter()
                    .cloned()
                    .partition(|a| matches!(a, Action::Migrate { .. }));
                [m, u]
            });
            round_trip(split.collect());
        }
        round_trip(Vec::new());
        round_trip(vec![Vec::new(), Vec::new()]);
    }
}
