//! Cluster-scale transplant orchestration (§4.5 and §5.4).
//!
//! The paper's cluster experiment upgrades 10 hosts × 10 VMs (1 vCPU /
//! 4 GB) with a BtrPlace-generated reconfiguration plan, varying the
//! fraction of VMs that tolerate InPlaceTP downtime: at 0% everything is
//! migration-based (154 migrations, ≈19 minutes); at 80% only 25
//! migrations remain and the total time drops by ≈80% (Fig. 13).
//!
//! * [`model`] — hosts, placed VMs, and the cluster state.
//! * [`planner`] — the BtrPlace-like planner: rolling offline groups,
//!   capacity-constrained placement, InPlaceTP/MigrationTP mixing.
//! * [`exec`] — the plan executor: serializes migrations (the operator's
//!   concurrency cap), runs in-place upgrades per group, and reports
//!   per-plan timing for Fig. 13.
//! * [`openstack`] — the Nova-like integration (§4.5.2): a
//!   `ComputeDriver` extended with HyperTP operations, a manager with the
//!   "host live upgrade" API, and the HyperTP-aware scheduler filter.
//! * [`campaign`] — the full Fig. 1(b) vulnerability-window campaign:
//!   policy decision, fleet transplant to the refuge hypervisor, window
//!   elapse, transplant home after the patch.
//! * [`exposure`] — the exposure-minimizing planner over a live
//!   vulnerability feed: per-host InPlace/Migrate/Defer choices that
//!   minimize integrated exposure ∫ affected-VMs × criticality dt, and
//!   the single integrator every exposure figure in the workspace
//!   accrues through.

pub mod campaign;
pub mod exec;
pub mod exposure;
pub mod model;
pub mod openstack;
pub mod planner;

pub use campaign::{run_campaign, run_campaign_with, CampaignConfig};
pub use exec::{execute, execute_sharded_with, ExecConfig, ExecReport, SloExecConfig};
pub use exposure::{ExposureConfig, ExposurePlanner, FeedReport, HostAction};
pub use model::{Cluster, ClusterView, SyntheticCluster, VmView};
pub use planner::{plan_upgrade, Action, Plan};
