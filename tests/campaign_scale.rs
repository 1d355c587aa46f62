//! Determinism and identity contracts of the sharded campaign engine.
//!
//! The tentpole guarantee: sharding is a *performance* knob, never a
//! semantics knob. For any seed, the planner and the executor must
//! produce byte-identical reports across every shard count, worker-pool
//! size and `HYPERTP_WORKERS` setting — and a lazily-derived
//! [`SyntheticCluster`] must behave exactly like its materialized twin.

use hypertp_cluster::exec::{execute, execute_sharded_with, ExecConfig, ExecReport};
use hypertp_cluster::{plan_upgrade, Cluster, ClusterView, Plan};
use hypertp_sim::fault::FaultPlan;
use hypertp_sim::pool::WorkerPool;

fn fleet_plan(hosts: usize, seed: u64) -> (impl ClusterView, Plan) {
    let view = Cluster::synthetic(hosts, seed).with_compat_percent(80);
    let plan = plan_upgrade(&view, 4).expect("synthetic fleet plans");
    (view, plan)
}

#[test]
fn exec_report_is_byte_identical_across_shards_and_workers() {
    let (view, plan) = fleet_plan(200, 0x5ca1_e001);
    let cfg = ExecConfig::default();
    let base = execute(&view, &plan, &cfg);
    let mut renders: Vec<String> = Vec::new();
    for shards in [1usize, 2, 7, 32, 200] {
        for workers in [1usize, 2, 8] {
            let r = execute_sharded_with(
                &view,
                &plan,
                &cfg,
                &FaultPlan::disarmed(),
                shards,
                &WorkerPool::new(workers),
            );
            assert_eq!(r, base, "shards={shards} workers={workers}");
            renders.push(r.render());
        }
    }
    renders.push(base.render());
    renders.dedup();
    assert_eq!(renders.len(), 1, "all renders collapse to one byte string");
}

#[test]
fn hypertp_workers_env_does_not_change_the_report() {
    let (view, plan) = fleet_plan(120, 0x5ca1_e002);
    let cfg = ExecConfig::default();
    let base = execute(&view, &plan, &cfg);
    // `WorkerPool::from_env` sizes the pool from the environment;
    // whatever HYPERTP_WORKERS says, the folded report must not move.
    // (Identity across pool sizes is proven above; this pins the
    // env-driven pool specifically.)
    let env_sharded = || {
        execute_sharded_with(
            &view,
            &plan,
            &cfg,
            &FaultPlan::disarmed(),
            16,
            &WorkerPool::from_env(),
        )
    };
    for workers in ["1", "2", "5"] {
        std::env::set_var("HYPERTP_WORKERS", workers);
        assert_eq!(env_sharded(), base, "HYPERTP_WORKERS={workers}");
    }
    std::env::remove_var("HYPERTP_WORKERS");
    assert_eq!(env_sharded(), base, "HYPERTP_WORKERS unset");
}

#[test]
fn same_seed_same_fleet_same_report() {
    let run = |seed: u64| {
        let (view, plan) = fleet_plan(150, seed);
        let r = execute_sharded_with(
            &view,
            &plan,
            &ExecConfig::default(),
            &FaultPlan::disarmed(),
            8,
            &WorkerPool::from_env(),
        );
        r.render()
    };
    assert_eq!(run(0xd5_0001), run(0xd5_0001));
    assert_ne!(
        run(0xd5_0001),
        run(0xd5_0002),
        "distinct seeds derive distinct fleets"
    );
}

#[test]
fn synthetic_fleet_matches_its_materialization_end_to_end() {
    for seed in [0x3_0001u64, 0x3_0002] {
        let syn = Cluster::synthetic(64, seed)
            .with_compat_percent(60)
            .with_vms_per_host(8);
        let mat = syn.materialize();
        assert_eq!(syn.host_count(), mat.host_count());
        assert_eq!(syn.vm_count(), mat.vm_count());
        let plan_syn = plan_upgrade(&syn, 4).unwrap();
        let plan_mat = plan_upgrade(&mat, 4).unwrap();
        assert_eq!(plan_syn, plan_mat, "seed {seed:#x}: plans diverge");
        let cfg = ExecConfig::default();
        let r_syn: ExecReport = execute_sharded_with(
            &syn,
            &plan_syn,
            &cfg,
            &FaultPlan::disarmed(),
            8,
            &WorkerPool::from_env(),
        );
        let r_mat = execute(&mat, &plan_mat, &cfg);
        assert_eq!(r_syn, r_mat, "seed {seed:#x}: reports diverge");
        assert_eq!(r_syn.render(), r_mat.render());
    }
}

#[test]
fn paper_testbed_still_reports_identically_through_the_sharded_path() {
    // The ISSUE's backstop: at current fleet sizes, shards=1 must be
    // byte-for-byte what the sequential executor reports, for the exact
    // cluster the fig. 13 experiments pin.
    let cluster = Cluster::paper_testbed(80, 42);
    let plan = plan_upgrade(&cluster, 2).unwrap();
    let cfg = ExecConfig::default();
    let sequential = execute(&cluster, &plan, &cfg);
    let sharded_one = execute_sharded_with(
        &cluster,
        &plan,
        &cfg,
        &FaultPlan::disarmed(),
        1,
        &WorkerPool::serial(),
    );
    assert_eq!(sequential, sharded_one);
    assert_eq!(sequential.render(), sharded_one.render());
}
