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
//! [`crate::model::SyntheticCluster`]. Placement state is an overlay
//! (per-host used GiB, a home-placement index, arrival lists for hosts
//! still awaiting their turn) and the migration targets sit in two
//! max-heaps of packed `(free GiB, host)` keys, one per tier. A pick reads
//! the heap's top and charges the VM to it in place — one sift, no entry
//! added — and a host going offline is a byte write: its entry is dropped
//! when it surfaces. Planning is O(V + M log H) for M migrations, with
//! every buffer sized up front. The produced [`Plan`] is byte-identical to
//! the original O(H·V)-per-pick scan planner's (the test module keeps that
//! one as an oracle).

use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::model::ClusterView;

/// One step of a reconfiguration plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Live-migrate (MigrationTP) a VM between hosts.
    Migrate {
        /// VM index into `Cluster::vms`.
        vm: usize,
        /// Source host.
        from: usize,
        /// Destination host.
        to: usize,
    },
    /// Upgrade a host in place (InPlaceTP), carrying `vm_count` resident
    /// compatible VMs through the micro-reboot.
    InPlaceUpgrade {
        /// Host index.
        host: usize,
        /// Number of VMs transplanted with the host.
        vm_count: usize,
    },
}

/// A reconfiguration plan: actions grouped by offline group, to execute
/// group-by-group.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Plan {
    /// Per-group action lists, in execution order.
    pub groups: Vec<Vec<Action>>,
}

impl Plan {
    /// Total number of migrations in the plan.
    pub fn migration_count(&self) -> usize {
        self.groups
            .iter()
            .flatten()
            .filter(|a| matches!(a, Action::Migrate { .. }))
            .count()
    }

    /// Total number of in-place host upgrades.
    pub fn inplace_count(&self) -> usize {
        self.groups
            .iter()
            .flatten()
            .filter(|a| matches!(a, Action::InPlaceUpgrade { .. }))
            .count()
    }

    /// All actions flattened in execution order.
    pub fn actions(&self) -> impl Iterator<Item = &Action> {
        self.groups.iter().flatten()
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

/// Where a host stands in the roll. A target heap's entry is live iff its
/// host is still in that heap's tier.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// Excluded, or in the group that is offline right now.
    Offline,
    /// Not upgraded yet.
    Fresh,
    /// Upgraded: preferred, so the VM never has to move again.
    Upgraded,
}

/// Bits of a target key holding the host index; the free GiB sit above
/// them, so keys order by `(free, host)`.
const HOST_BITS: u32 = 32;

fn target_key(free_gb: u64, host: usize) -> u64 {
    assert!(
        free_gb >> HOST_BITS == 0 && host as u64 >> HOST_BITS == 0,
        "free GiB and host index are packed into 32 bits each"
    );
    free_gb << HOST_BITS | host as u64
}

/// Places `need_gb` on the best target of one tier: the live entry with
/// the largest `(free, host)` pair, iff it has room — exactly the
/// `max_by_key((upgraded, free))` winner restricted to this tier,
/// including the highest-host-index tie-break of a forward `max_by_key`
/// scan. The winner's key is charged in place, so a live host keeps one
/// entry with its current free GiB.
fn place(targets: &mut BinaryHeap<u64>, tiers: &[Tier], tier: Tier, need_gb: u64) -> Option<usize> {
    loop {
        let mut top = targets.peek_mut()?;
        let host = (*top & ((1 << HOST_BITS) - 1)) as usize;
        if tiers[host] != tier {
            PeekMut::pop(top);
        } else if *top >> HOST_BITS < need_gb {
            return None;
        } else {
            *top -= need_gb << HOST_BITS;
            return Some(host);
        }
    }
}

/// [`plan_upgrade`] over a degraded cluster: `excluded` hosts (failed or
/// quarantined by the campaign's fault policy) are neither upgraded nor
/// used as migration targets. VMs resident on an excluded host stay put —
/// the host keeps serving on its old hypervisor and its exposure is
/// accounted at the campaign level, not the plan level.
pub fn plan_upgrade_excluding<V: ClusterView + ?Sized>(
    view: &V,
    group_size: usize,
    excluded: &[usize],
) -> Result<Plan, PlanError> {
    let n_hosts = view.host_count();
    let n_vms = view.vm_count();
    let mut tiers = vec![Tier::Fresh; n_hosts];
    for &h in excluded {
        if let Some(tier) = tiers.get_mut(h) {
            *tier = Tier::Offline;
        }
    }
    let eligible: Vec<usize> = (0..n_hosts).filter(|&h| tiers[h] == Tier::Fresh).collect();
    if group_size == 0 || group_size > eligible.len() {
        return Err(PlanError::BadGroupSize);
    }

    // One pass over the VMs: per-host used GiB and a CSR index of home
    // placements (ascending VM order per host).
    let mut used = vec![0u64; n_hosts];
    let mut offsets = vec![0usize; n_hosts + 1];
    let mut home = vec![0u32; n_vms];
    for (i, home) in home.iter_mut().enumerate() {
        let vm = view.vm(i);
        used[vm.home] += vm.memory_gb;
        offsets[vm.home + 1] += 1;
        *home = vm.home as u32;
    }
    for h in 0..n_hosts {
        offsets[h + 1] += offsets[h];
    }
    let mut home_vms = vec![0u32; n_vms];
    let mut fill = offsets.clone();
    for (i, &home) in home.iter().enumerate() {
        home_vms[fill[home as usize]] = i as u32;
        fill[home as usize] += 1;
    }
    drop((home, fill));

    let free = |host: usize, used: &[u64]| view.host_capacity_gb(host).saturating_sub(used[host]);

    // Targets: every non-excluded host in one of two tiers —
    // already-upgraded hosts are always preferred over fresh ones,
    // matching `max_by_key((upgraded, free_gb))`. Every eligible host
    // enters each heap at most once, so neither ever regrows.
    let mut fresh: BinaryHeap<u64> = eligible
        .iter()
        .map(|&h| target_key(free(h, &used), h))
        .collect();
    let mut upgraded: BinaryHeap<u64> = BinaryHeap::with_capacity(eligible.len());
    // A host is drained exactly once and a VM only ever leaves the host
    // being drained. So when a host's turn comes, every home VM is still
    // there and every VM that arrived has stayed — and arrivals at hosts
    // that already had their turn are never read, so they are not kept.
    let mut arrivals: Vec<Vec<u32>> = vec![Vec::new(); n_hosts];

    let mut plan = Plan {
        groups: Vec::with_capacity(eligible.len().div_ceil(group_size)),
    };
    let mut actions = Vec::new();
    let mut resident: Vec<u32> = Vec::new();
    for group in eligible.chunks(group_size) {
        // The offline group cannot receive evacuated VMs.
        for &g in group {
            tiers[g] = Tier::Offline;
        }
        for &host in group {
            // Resident VMs in ascending order: home VMs, then arrivals.
            resident.clear();
            resident.extend_from_slice(&home_vms[offsets[host]..offsets[host + 1]]);
            resident.extend_from_slice(&arrivals[host]);
            resident.sort_unstable();
            let mut staying = 0usize;
            for &vm32 in &resident {
                let vm = vm32 as usize;
                let info = view.vm(vm);
                if info.inplace_compatible {
                    staying += 1;
                    continue;
                }
                let need = info.memory_gb;
                let to = place(&mut upgraded, &tiers, Tier::Upgraded, need)
                    .or_else(|| place(&mut fresh, &tiers, Tier::Fresh, need))
                    .ok_or_else(|| PlanError::NoCapacity {
                        vm: view.vm_name(vm),
                    })?;
                actions.push(Action::Migrate { vm, from: host, to });
                used[to] += need;
                used[host] -= need;
                if tiers[to] == Tier::Fresh {
                    arrivals[to].push(vm32);
                }
            }
            actions.push(Action::InPlaceUpgrade {
                host,
                vm_count: staying,
            });
        }
        // The group is back online, upgraded, with its evacuations freed.
        for &g in group {
            tiers[g] = Tier::Upgraded;
            upgraded.push(target_key(free(g, &used), g));
        }
        // An exact-size copy: the plan holds no spare capacity.
        plan.groups.push(actions.clone());
        actions.clear();
    }
    Ok(plan)
}

/// Checks that a plan never overflows any host's capacity when executed
/// step by step (test support).
pub fn validate_capacity<V: ClusterView + ?Sized>(view: &V, plan: &Plan) -> Result<(), PlanError> {
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
        if let Action::Migrate { vm, from, to } = action {
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
            let mut plan = Plan::default();
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
                plan.groups.push(actions);
                group_start += group_size;
            }
            Ok(plan)
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
        for group in &plan.groups {
            for action in group {
                if let Action::Migrate { vm, from, to } = action {
                    fell_through += usize::from(!upgraded.is_empty() && !upgraded.contains(to));
                    let left = left.entry(*vm).or_default();
                    returned += usize::from(left.contains(to));
                    left.push(*from);
                }
            }
            upgraded.extend(group.iter().filter_map(|a| match a {
                Action::InPlaceUpgrade { host, .. } => Some(*host),
                Action::Migrate { .. } => None,
            }));
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
                            assert!(!excluded.contains(to), "{at}: moved onto excluded {to}");
                        }
                    }
                }
            }
        }
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
                Action::InPlaceUpgrade { host, .. } => Some(*host),
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
            match a {
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
        assert_eq!(plan.groups.len(), 1);
    }

    #[test]
    fn compatible_vms_never_migrate() {
        let c = Cluster::paper_testbed(60, 5);
        let plan = plan_upgrade(&c, 2).unwrap();
        for a in plan.actions() {
            if let Action::Migrate { vm, .. } = a {
                assert!(
                    !c.vms[*vm].config.inplace_compatible,
                    "{} is compatible but was migrated",
                    c.vms[*vm].name
                );
            }
        }
    }
}
