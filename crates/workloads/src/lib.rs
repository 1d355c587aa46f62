//! Synthetic models of the paper's evaluation workloads (§5.1, Table 3).
//!
//! The paper measures HyperTP's impact on four application classes: an
//! in-memory key-value store (Redis + redis-benchmark), a relational
//! database (MySQL + Sysbench), the SPECrate 2017 suite, and neural-network
//! training (Darknet on MNIST). Real guests cannot run inside the simulated
//! machine, so each workload is modelled by the two quantities the
//! evaluation actually observes:
//!
//! 1. its **metric over time** (QPS, latency, iteration time, run time),
//!    parameterized by which hypervisor hosts it and whether a transplant
//!    or migration is disrupting it; and
//! 2. its **dirty-page rate**, which is what couples the workload to the
//!    pre-copy migration engine.
//!
//! Baselines are calibrated to the paper's reported numbers (e.g. Redis
//! ≈37% faster on KVM than Xen for the fig. 11 configuration; MySQL
//! latency +252% during migration).
//!
//! Modules: [`WorkloadProfile`] (per-workload parameters), [`timeline`]
//! (QPS/latency series for Figs. 11–12), [`spec`] (Table 5),
//! [`darknet`] (Table 6), [`runner`] (drives a real transplant/migration
//! on the simulated machines and assembles the series), [`slo`] (per-VM
//! SLO specs and the deterministic diurnal traffic mix feeding the
//! SLO-aware fleet scheduler).

pub mod darknet;
mod profiles;
pub mod runner;
pub mod slo;
pub mod spec;
pub mod timeline;

pub use profiles::WorkloadProfile;
pub use slo::{derive_curve, SloSpec, TrafficModel, VmTraffic};
