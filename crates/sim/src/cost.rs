//! The calibrated cost model mapping simulated operations to simulated time.
//!
//! The paper evaluates HyperTP on two machines (Table 3): M1 (Intel i5-8400H,
//! 4C/8T @ 2.5 GHz, 16 GB RAM) and M2 (2× Xeon E5-2650L v4, 14C/28T @
//! 1.7 GHz, 64 GB RAM). Every cost below is expressed in one of three
//! machine-independent units and scaled by a [`MachinePerf`] description:
//!
//! * **GHz-seconds** (`*_ghz_s`): CPU-bound work; elapsed = cost / freq_ghz.
//! * **seconds** (`*_s`): memory- or device-bound work, frequency-invariant.
//! * **per host GB** (`*_s_per_host_gb`): work proportional to the host's
//!   total physical RAM (boot-time RAM init, Xen boot scrubbing, P2M sweep).
//!
//! The constants are calibrated against the paper's Fig. 6 (time breakdown),
//! Fig. 7/10 (scalability), and Table 4 (migration), by solving the linear
//! system induced by the two machines' frequencies and RAM sizes. Each field
//! documents the targets it reproduces.

use crate::par;
use crate::time::SimDuration;

/// Performance-relevant description of a physical machine.
///
/// The full machine model (frames, kexec, NIC) lives in `hypertp-machine`;
/// this struct is the subset the cost model needs and is constructed from a
/// machine spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachinePerf {
    /// Core clock frequency in GHz (M1: 2.5, M2: 1.7).
    pub freq_ghz: f64,
    /// Total hardware threads (M1: 8, M2: 28).
    pub threads: usize,
    /// Threads reserved for the administration OS (§5.1 reserves 2).
    pub reserved_threads: usize,
    /// Total physical RAM in GiB (M1: 16, M2: 64).
    pub host_ram_gb: f64,
    /// NIC line rate in Gbit/s.
    pub nic_gbps: f64,
    /// NIC bring-up time after reboot (M1: 6.6 s, M2: 2.3 s — §5.2.1).
    pub nic_init: SimDuration,
}

impl MachinePerf {
    /// Threads available to HyperTP worker pools.
    pub fn worker_threads(&self) -> usize {
        self.threads.saturating_sub(self.reserved_threads).max(1)
    }

    /// Converts a CPU-bound cost in GHz-seconds to elapsed time.
    pub fn cpu(&self, ghz_s: f64) -> SimDuration {
        SimDuration::from_secs_f64(ghz_s / self.freq_ghz)
    }
}

/// One VM as the in-place stage costs see it. Every per-VM cost below
/// reads the fields it needs from this one shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmShape {
    /// Guest memory in GiB.
    pub gb: f64,
    /// Virtual CPUs.
    pub vcpus: u32,
    /// 8-byte PRAM page entries mapping the guest's memory.
    pub entries: u64,
    /// Share of the VM's translation work a warm or delta pass redoes
    /// (1.0 = all of it). The full translation, the PRAM build and the
    /// restoration ignore it.
    pub fraction: f64,
}

/// Which hypervisor kernel a micro-reboot boots into.
///
/// A type-1 target (Xen) boots two kernels — the hypervisor and the dom0
/// Linux — and scrubs free host memory, which is why KVM→Xen transplants are
/// ~5× slower than Xen→KVM (§5.2.2, Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BootTarget {
    /// Linux/KVM (type-2): one kernel.
    LinuxKvm,
    /// Xen + dom0 (type-1): hypervisor kernel plus dom0 kernel, with boot
    /// scrubbing of free memory.
    XenDom0,
}

/// Calibrated per-operation costs.
///
/// Use [`CostModel::paper_calibrated`] for the constants matching the
/// paper's testbed; construct a custom instance for sensitivity studies.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    // --- PRAM construction (pre-pause; Fig. 6 "PRAM") ---
    /// Memory-bound PRAM build cost per guest GB (frequency-invariant part).
    /// Calibrated with `pram_build_ghz_s_per_gb` to 0.45 s (M1) / 0.50 s
    /// (M2) per 1 GB VM.
    pub pram_build_s_per_gb: f64,
    /// CPU-bound PRAM build cost per guest GB.
    pub pram_build_ghz_s_per_gb: f64,
    /// CPU-bound PRAM build cost per page entry (dominates when huge pages
    /// are disabled: 262 144 4-KiB entries per GB instead of 512).
    pub pram_build_ghz_s_per_entry: f64,

    // --- UISR translation (pause → kexec; Fig. 6 "Translation") ---
    /// CPU-bound base translation cost per host. Calibrated with
    /// `translate_s_per_host_gb` to 0.08 s (M1) / 0.24 s (M2).
    pub translate_base_ghz_s: f64,
    /// Host-RAM-proportional translation cost (final P2M sweep).
    pub translate_s_per_host_gb: f64,
    /// CPU-bound translation cost per vCPU (platform state serialization).
    pub translate_ghz_s_per_vcpu: f64,
    /// CPU-bound PRAM finalization cost per guest GB (the slight growth of
    /// Translation with VM size in Fig. 7b).
    pub translate_ghz_s_per_gb: f64,
    /// CPU-bound finalization cost per PRAM entry.
    pub translate_ghz_s_per_entry: f64,

    // --- Micro-reboot (Fig. 6 "Reboot") ---
    /// CPU-bound kexec shutdown + purgatory cost.
    pub kexec_ghz_s: f64,
    /// CPU-bound Linux/KVM kernel boot cost. Calibrated with
    /// `boot_s_per_host_gb` to reboot = 1.52 s (M1) / 2.40 s (M2).
    pub linux_boot_ghz_s: f64,
    /// Host-RAM-proportional Linux boot cost (memmap init).
    pub boot_s_per_host_gb: f64,
    /// CPU-bound Xen+dom0 boot cost. Calibrated with
    /// `xen_scrub_s_per_host_gb` to KVM→Xen totals of ≈7.6 s (M1) /
    /// ≈17.8 s (M2) — Fig. 10.
    pub xen_boot_ghz_s: f64,
    /// Host-RAM-proportional Xen boot scrubbing cost.
    pub xen_scrub_s_per_host_gb: f64,
    /// CPU-bound early-boot PRAM parse cost per entry (sequential; the
    /// growth of Reboot with memory size and #VMs in Fig. 7b/7c).
    pub pram_parse_ghz_s_per_entry: f64,
    /// Memory-reservation cost per guest GB covered by PRAM (page-size
    /// independent part of the parse).
    pub pram_parse_s_per_gb: f64,

    // --- UISR restoration (Fig. 6 "Restoration") ---
    /// CPU-bound base restoration cost. Calibrated with
    /// `restore_s_per_host_gb` to 0.12 s (M1) / 0.34 s (M2).
    pub restore_base_ghz_s: f64,
    /// Host-RAM-proportional restoration cost (VM service init sweep).
    pub restore_s_per_host_gb: f64,
    /// CPU-bound restoration cost per vCPU (ioctl storm per vCPU).
    pub restore_ghz_s_per_vcpu: f64,
    /// CPU-bound guest-memory mapping cost per guest GB (mmap of the PRAM
    /// file into the VMM).
    pub restore_ghz_s_per_gb: f64,
    /// Extra wait when the early-restoration optimization (§4.2.5) is
    /// disabled: restoration then waits for the full host userspace boot.
    pub late_restore_wait_s: f64,

    // --- VM lifecycle ---
    /// Cost of pausing one VM.
    pub pause_ghz_s_per_vm: f64,
    /// Cost of resuming one VM.
    pub resume_ghz_s_per_vm: f64,

    // --- Migration (Table 4, Figs. 8/9) ---
    /// Fraction of NIC line rate achievable for page streaming (TCP +
    /// framing efficiency). 1 GB over 1 Gbit/s at 0.93 → ≈9.2 s of copy,
    /// matching the ≈9.6 s total of Table 4.
    pub net_efficiency: f64,
    /// Per-page CPU overhead on the sender (dirty scan + packing).
    pub migrate_ghz_s_per_page: f64,
    /// Per-round protocol overhead.
    pub migrate_round_overhead_s: f64,
    /// Destination activation cost when the receiving VMM is kvmtool
    /// (Table 4: 4.96 ms downtime).
    pub kvmtool_activate_s: f64,
    /// Destination activation cost when the receiving hypervisor is Xen
    /// (Table 4: 133.59 ms downtime, 27× kvmtool).
    pub xen_activate_s: f64,
    /// Additional activation cost per vCPU (slight downtime growth with
    /// vCPUs in Fig. 8).
    pub activate_s_per_vcpu: f64,
}

impl CostModel {
    /// Returns the cost model calibrated against the paper's testbed.
    pub fn paper_calibrated() -> Self {
        CostModel {
            pram_build_s_per_gb: 0.344,
            pram_build_ghz_s_per_gb: 0.265,
            pram_build_ghz_s_per_entry: 1.2e-6,

            translate_base_ghz_s: 0.079,
            translate_s_per_host_gb: 0.003,
            translate_ghz_s_per_vcpu: 0.002,
            translate_ghz_s_per_gb: 0.02,
            translate_ghz_s_per_entry: 0.4e-6,

            kexec_ghz_s: 0.25,
            linux_boot_ghz_s: 3.18,
            boot_s_per_host_gb: 0.0044,
            xen_boot_ghz_s: 11.84,
            xen_scrub_s_per_host_gb: 0.156,
            pram_parse_ghz_s_per_entry: 4.0e-6,
            pram_parse_s_per_gb: 0.075,

            restore_base_ghz_s: 0.138,
            restore_s_per_host_gb: 0.004,
            restore_ghz_s_per_vcpu: 0.003,
            restore_ghz_s_per_gb: 0.01,
            late_restore_wait_s: 2.1,

            pause_ghz_s_per_vm: 0.01,
            resume_ghz_s_per_vm: 0.02,

            net_efficiency: 0.93,
            migrate_ghz_s_per_page: 1.0e-6,
            migrate_round_overhead_s: 0.05,
            kvmtool_activate_s: 0.003,
            xen_activate_s: 0.128,
            activate_s_per_vcpu: 0.002,
        }
    }

    /// Elapsed time to build PRAM structures for a set of VMs, run on the
    /// machine's worker pool (one task per VM — the §4.2.5 parallelization).
    pub fn pram_build(&self, perf: &MachinePerf, vms: &[VmShape]) -> SimDuration {
        let tasks: Vec<SimDuration> = vms
            .iter()
            .map(|v| {
                SimDuration::from_secs_f64(self.pram_build_s_per_gb * v.gb)
                    + perf.cpu(
                        self.pram_build_ghz_s_per_gb * v.gb
                            + self.pram_build_ghz_s_per_entry * v.entries as f64,
                    )
            })
            .collect();
        par::makespan(&tasks, perf.worker_threads())
    }

    /// Elapsed time of the UISR translation phase (VMs paused).
    ///
    /// Per-VM translation tasks run on the worker pool; the host-wide sweep
    /// is serial.
    pub fn translate(&self, perf: &MachinePerf, vms: &[VmShape]) -> SimDuration {
        let tasks: Vec<SimDuration> = vms
            .iter()
            .map(|v| {
                perf.cpu(
                    self.translate_ghz_s_per_vcpu * v.vcpus as f64
                        + self.translate_ghz_s_per_gb * v.gb
                        + self.translate_ghz_s_per_entry * v.entries as f64,
                )
            })
            .collect();
        let parallel = par::makespan(&tasks, perf.worker_threads());
        let serial = perf.cpu(self.translate_base_ghz_s)
            + SimDuration::from_secs_f64(self.translate_s_per_host_gb * perf.host_ram_gb);
        serial + parallel
    }

    /// Elapsed time of one *warm* translation pass over a set of VMs while
    /// they keep running (the incremental-translate pre-pause phase).
    ///
    /// Each VM's `fraction` is the share of its state this pass
    /// re-translates (1.0 for the initial snapshot, the redirty ratio for
    /// refresh rounds). The work is the same per-VM translation task as
    /// [`CostModel::translate`] scaled by `fraction` — but it runs *below
    /// the time axis*: no host-wide serial sweep (that only happens once,
    /// at pause) and no guest pause.
    pub fn warm_translate(&self, perf: &MachinePerf, vms: &[VmShape]) -> SimDuration {
        let tasks: Vec<SimDuration> = vms
            .iter()
            .map(|v| {
                perf.cpu(
                    self.translate_ghz_s_per_vcpu * v.vcpus as f64
                        + (self.translate_ghz_s_per_gb * v.gb
                            + self.translate_ghz_s_per_entry * v.entries as f64)
                            * v.fraction.clamp(0.0, 1.0),
                )
            })
            .collect();
        par::makespan(&tasks, perf.worker_threads())
    }

    /// Elapsed time of the *delta* translation phase (VMs paused) after an
    /// incremental warm phase left per-VM UISR snapshots and per-extent
    /// checksum partials behind.
    ///
    /// Each VM's `fraction` is its dirty share: only that fraction of the
    /// per-GB and per-entry work is redone inside the blackout, and the
    /// host-wide serial sweep (final P2M pass) skips clean ranges whose
    /// warm-cached translations are still valid, so it scales with the
    /// memory-weighted mean dirty share. Only the per-vCPU platform
    /// serialization and the fixed base cost are irreducible. With
    /// `fraction = 1.0` for every VM this equals [`CostModel::translate`]
    /// exactly — the fallback path.
    pub fn delta_translate(&self, perf: &MachinePerf, vms: &[VmShape]) -> SimDuration {
        let tasks: Vec<SimDuration> = vms
            .iter()
            .map(|v| {
                perf.cpu(
                    self.translate_ghz_s_per_vcpu * v.vcpus as f64
                        + (self.translate_ghz_s_per_gb * v.gb
                            + self.translate_ghz_s_per_entry * v.entries as f64)
                            * v.fraction.clamp(0.0, 1.0),
                )
            })
            .collect();
        let parallel = par::makespan(&tasks, perf.worker_threads());
        // The sweep walks per-frame metadata; dirty logging lets it skip
        // every clean frame, so it scales with the overall dirty share of
        // guest memory (gb-weighted across VMs).
        let total_gb: f64 = vms.iter().map(|v| v.gb).sum();
        let mean_dirty = if total_gb > 0.0 {
            vms.iter()
                .map(|v| v.gb * v.fraction.clamp(0.0, 1.0))
                .sum::<f64>()
                / total_gb
        } else {
            1.0
        };
        let serial = perf.cpu(self.translate_base_ghz_s)
            + SimDuration::from_secs_f64(
                self.translate_s_per_host_gb * perf.host_ram_gb * mean_dirty,
            );
        serial + parallel
    }

    /// Elapsed time of the micro-reboot into `target`, including the
    /// sequential early-boot PRAM parse over `total_entries` entries
    /// covering `total_guest_gb` of guest memory.
    pub fn reboot(
        &self,
        perf: &MachinePerf,
        target: BootTarget,
        total_guest_gb: f64,
        total_entries: u64,
    ) -> SimDuration {
        let kexec = perf.cpu(self.kexec_ghz_s);
        let boot = match target {
            BootTarget::LinuxKvm => {
                perf.cpu(self.linux_boot_ghz_s)
                    + SimDuration::from_secs_f64(self.boot_s_per_host_gb * perf.host_ram_gb)
            }
            BootTarget::XenDom0 => {
                perf.cpu(self.xen_boot_ghz_s)
                    + SimDuration::from_secs_f64(self.xen_scrub_s_per_host_gb * perf.host_ram_gb)
            }
        };
        let parse = perf.cpu(self.pram_parse_ghz_s_per_entry * total_entries as f64)
            + SimDuration::from_secs_f64(self.pram_parse_s_per_gb * total_guest_gb);
        kexec + boot + parse
    }

    /// Elapsed time of the UISR restoration phase.
    pub fn restore(
        &self,
        perf: &MachinePerf,
        vms: &[VmShape],
        early_restoration: bool,
    ) -> SimDuration {
        let tasks: Vec<SimDuration> = vms
            .iter()
            .map(|v| {
                perf.cpu(
                    self.restore_ghz_s_per_vcpu * v.vcpus as f64 + self.restore_ghz_s_per_gb * v.gb,
                )
            })
            .collect();
        let parallel = par::makespan(&tasks, perf.worker_threads());
        let serial = perf.cpu(self.restore_base_ghz_s)
            + SimDuration::from_secs_f64(self.restore_s_per_host_gb * perf.host_ram_gb);
        let wait = if early_restoration {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(self.late_restore_wait_s)
        };
        wait + serial + parallel
    }

    /// Time to transfer `bytes` over the machine's NIC at streaming
    /// efficiency.
    pub fn net_transfer(&self, perf: &MachinePerf, bytes: u64) -> SimDuration {
        let gbps = perf.nic_gbps * self.net_efficiency;
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / (gbps * 1e9))
    }

    /// Destination activation cost for a migration, by receiving VMM kind.
    pub fn activate(&self, dest: BootTarget, vcpus: u32) -> SimDuration {
        let base = match dest {
            BootTarget::LinuxKvm => self.kvmtool_activate_s,
            BootTarget::XenDom0 => self.xen_activate_s,
        };
        SimDuration::from_secs_f64(base + self.activate_s_per_vcpu * vcpus as f64)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// M1 from Table 3: i5-8400H, 4C/8T @2.5 GHz, 16 GB, 1 Gbps.
    fn m1() -> MachinePerf {
        MachinePerf {
            freq_ghz: 2.5,
            threads: 8,
            reserved_threads: 2,
            host_ram_gb: 16.0,
            nic_gbps: 1.0,
            nic_init: SimDuration::from_secs_f64(6.6),
        }
    }

    /// M2 from Table 3: 2× E5-2650L v4, 14C/28T @1.7 GHz, 64 GB, 1 Gbps.
    fn m2() -> MachinePerf {
        MachinePerf {
            freq_ghz: 1.7,
            threads: 28,
            reserved_threads: 2,
            host_ram_gb: 64.0,
            nic_gbps: 1.0,
            nic_init: SimDuration::from_secs_f64(2.3),
        }
    }

    /// 1 GB VM with 2 MiB pages -> 512 PRAM entries.
    const ENTRIES_1GB: u64 = 512;

    /// The Fig. 6 VM: 1 vCPU, 1 GB, 2 MiB pages.
    const VM_1GB: VmShape = VmShape {
        gb: 1.0,
        vcpus: 1,
        entries: ENTRIES_1GB,
        fraction: 1.0,
    };

    fn close(d: SimDuration, target: f64, tol: f64) -> bool {
        (d.as_secs_f64() - target).abs() <= tol
    }

    #[test]
    fn fig6_m1_pram_phase() {
        let m = CostModel::paper_calibrated();
        let d = m.pram_build(&m1(), &[VM_1GB]);
        assert!(close(d, 0.45, 0.03), "PRAM M1 = {d}");
    }

    #[test]
    fn fig6_m2_pram_phase() {
        let m = CostModel::paper_calibrated();
        let d = m.pram_build(&m2(), &[VM_1GB]);
        assert!(close(d, 0.50, 0.03), "PRAM M2 = {d}");
    }

    #[test]
    fn fig6_translation() {
        let m = CostModel::paper_calibrated();
        let d1 = m.translate(&m1(), &[VM_1GB]);
        let d2 = m.translate(&m2(), &[VM_1GB]);
        assert!(close(d1, 0.08, 0.02), "Translation M1 = {d1}");
        assert!(close(d2, 0.24, 0.04), "Translation M2 = {d2}");
    }

    #[test]
    fn fig6_reboot_kvm() {
        let m = CostModel::paper_calibrated();
        let d1 = m.reboot(&m1(), BootTarget::LinuxKvm, 1.0, ENTRIES_1GB);
        let d2 = m.reboot(&m2(), BootTarget::LinuxKvm, 1.0, ENTRIES_1GB);
        assert!(close(d1, 1.52, 0.08), "Reboot M1 = {d1}");
        assert!(close(d2, 2.40, 0.12), "Reboot M2 = {d2}");
    }

    #[test]
    fn fig6_restoration() {
        let m = CostModel::paper_calibrated();
        let d1 = m.restore(&m1(), &[VM_1GB], true);
        let d2 = m.restore(&m2(), &[VM_1GB], true);
        assert!(close(d1, 0.12, 0.03), "Restoration M1 = {d1}");
        assert!(close(d2, 0.34, 0.05), "Restoration M2 = {d2}");
    }

    #[test]
    fn fig6_downtime_totals() {
        // Downtime = Translation + Reboot + Restoration: 1.7 s (M1),
        // 3.01 s (M2).
        let m = CostModel::paper_calibrated();
        for (perf, target, tol) in [(m1(), 1.7, 0.12), (m2(), 3.01, 0.2)] {
            let d = m.translate(&perf, &[VM_1GB])
                + m.reboot(&perf, BootTarget::LinuxKvm, 1.0, ENTRIES_1GB)
                + m.restore(&perf, &[VM_1GB], true);
            assert!(close(d, target, tol), "downtime = {d}, want {target}");
        }
    }

    #[test]
    fn delta_translate_full_dirty_equals_translate() {
        let m = CostModel::paper_calibrated();
        let full = m.translate(&m1(), &[VM_1GB]);
        let delta = m.delta_translate(&m1(), &[VM_1GB]);
        assert_eq!(full, delta);
    }

    #[test]
    fn delta_translate_scales_with_dirty_fraction() {
        let m = CostModel::paper_calibrated();
        // A large VM with a small dirty set must translate much faster than
        // from scratch, but never below the irreducible base + vCPU terms.
        let big = |fraction| {
            [VmShape {
                gb: 12.0,
                vcpus: 4,
                entries: 512 * 12,
                fraction,
            }]
        };
        let full = m.delta_translate(&m1(), &big(1.0));
        let dirty10 = m.delta_translate(&m1(), &big(0.1));
        let clean = m.delta_translate(&m1(), &big(0.0));
        assert!(dirty10 < full, "10% dirty {dirty10} vs full {full}");
        assert!(clean < dirty10);
        // The host-wide sweep skips clean frames, but the base cost and
        // the per-vCPU serialization never go away.
        let floor = m1()
            .cpu(m.translate_base_ghz_s + m.translate_ghz_s_per_vcpu * 4.0)
            .as_secs_f64();
        assert!(clean.as_secs_f64() >= floor - 1e-12);
        // At 10% dirty the sweep contributes 10% of its full cost.
        let sweep = m.translate_s_per_host_gb * m1().host_ram_gb;
        let expected_sweep_cut = sweep * 0.9;
        let modeled_cut = full.as_secs_f64() - dirty10.as_secs_f64();
        assert!(
            modeled_cut > expected_sweep_cut,
            "cut {modeled_cut} must include 90% of the {sweep} sweep"
        );
    }

    #[test]
    fn warm_translate_has_no_serial_sweep() {
        let m = CostModel::paper_calibrated();
        // A warm pass at the same fraction is strictly cheaper than the
        // paused delta pass: it skips the host-wide serial term.
        let warm = m.warm_translate(&m1(), &[VM_1GB]);
        let paused = m.delta_translate(&m1(), &[VM_1GB]);
        assert!(warm < paused);
        assert_eq!(
            paused - warm,
            m1().cpu(m.translate_base_ghz_s)
                + SimDuration::from_secs_f64(m.translate_s_per_host_gb * m1().host_ram_gb)
        );
    }

    #[test]
    fn fig10_xen_reboot_dominates() {
        // KVM→Xen reboot ≈ 7.4 s on M1, and the M2/M1 ratio exceeds the
        // frequency ratio because of boot scrubbing of the larger RAM.
        let m = CostModel::paper_calibrated();
        let d1 = m.reboot(&m1(), BootTarget::XenDom0, 1.0, ENTRIES_1GB);
        let d2 = m.reboot(&m2(), BootTarget::XenDom0, 1.0, ENTRIES_1GB);
        assert!(close(d1, 7.4, 0.4), "Xen reboot M1 = {d1}");
        assert!(close(d2, 17.1, 0.8), "Xen reboot M2 = {d2}");
        assert!(d2.as_secs_f64() / d1.as_secs_f64() > 2.0);
    }

    #[test]
    fn fig7b_reboot_slope_with_memory() {
        // Reboot grows from ≈1.55 s (1 GB) to ≈2.46 s (12 GB) on M1.
        let m = CostModel::paper_calibrated();
        let d1 = m.reboot(&m1(), BootTarget::LinuxKvm, 1.0, 512);
        let d12 = m.reboot(&m1(), BootTarget::LinuxKvm, 12.0, 512 * 12);
        assert!(close(d12 - d1, 0.91, 0.15), "slope = {}", d12 - d1);
    }

    #[test]
    fn fig7a_vcpus_have_negligible_impact() {
        let m = CostModel::paper_calibrated();
        let ten = [VmShape {
            vcpus: 10,
            ..VM_1GB
        }];
        let d1 = m.translate(&m1(), &[VM_1GB]) + m.restore(&m1(), &[VM_1GB], true);
        let d10 = m.translate(&m1(), &ten) + m.restore(&m1(), &ten, true);
        assert!((d10.as_secs_f64() - d1.as_secs_f64()) < 0.05);
    }

    #[test]
    fn fig7cf_pram_parallelizes_better_on_m2() {
        // 12 VMs: M1 has 6 workers, M2 has 26, so M1's PRAM phase grows
        // much faster than M2's (§5.2.2).
        let m = CostModel::paper_calibrated();
        let vms = [VM_1GB; 12];
        let one = m.pram_build(&m1(), &vms[..1]);
        let m1_12 = m.pram_build(&m1(), &vms);
        let m2_12 = m.pram_build(&m2(), &vms);
        let m1_growth = m1_12.as_secs_f64() / one.as_secs_f64();
        let m2_growth = m2_12.as_secs_f64() / m.pram_build(&m2(), &vms[..1]).as_secs_f64();
        assert!(m1_growth > 1.8, "M1 growth {m1_growth}");
        assert!(m2_growth < 1.2, "M2 growth {m2_growth}");
    }

    #[test]
    fn table4_migration_costs() {
        let m = CostModel::paper_calibrated();
        // 1 GB over 1 Gbps: ≈9.2 s of raw copy.
        let copy = m.net_transfer(&m1(), 1 << 30);
        assert!(close(copy, 9.24, 0.2), "copy = {copy}");
        // Downtime gap: Xen activation ≈ 27× kvmtool.
        let xen = m.activate(BootTarget::XenDom0, 1);
        let kvm = m.activate(BootTarget::LinuxKvm, 1);
        let ratio = xen.as_secs_f64() / kvm.as_secs_f64();
        assert!(ratio > 20.0 && ratio < 35.0, "ratio = {ratio}");
    }

    #[test]
    fn hugepage_ablation_is_visible() {
        // Without huge pages a 1 GB VM has 262 144 entries instead of 512;
        // build and parse must get measurably slower.
        let m = CostModel::paper_calibrated();
        let small = m.pram_build(&m1(), &[VM_1GB]);
        let large = m.pram_build(
            &m1(),
            &[VmShape {
                entries: 262_144,
                ..VM_1GB
            }],
        );
        assert!(large.as_secs_f64() > small.as_secs_f64() + 0.1);
        let p_small = m.reboot(&m1(), BootTarget::LinuxKvm, 1.0, 512);
        let p_large = m.reboot(&m1(), BootTarget::LinuxKvm, 1.0, 262_144);
        assert!(p_large.as_secs_f64() > p_small.as_secs_f64() + 0.3);
    }

    #[test]
    fn late_restoration_penalty() {
        let m = CostModel::paper_calibrated();
        let early = m.restore(&m1(), &[VM_1GB], true);
        let late = m.restore(&m1(), &[VM_1GB], false);
        assert!(close(late - early, m.late_restore_wait_s, 1e-9));
    }

    #[test]
    fn worker_threads_floor() {
        let mut p = m1();
        p.threads = 1;
        p.reserved_threads = 2;
        assert_eq!(p.worker_threads(), 1);
    }
}
