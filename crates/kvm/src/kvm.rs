//! The KVM kernel-module state and ioctl dispatch surface.
//!
//! Userspace (kvmtool) interacts with KVM exclusively through file
//! descriptors and ioctls: a system fd creates VM fds, a VM fd creates
//! vCPU fds and registers memory slots, and state moves through the
//! containers in [`crate::ioctl`]. §2.1 attributes 27% of KVM's critical
//! vulnerabilities to exactly this ioctl surface.
//!
//! Guest memory: each memory slot covers a contiguous guest-physical
//! range backed by a list of machine extents (the VMM's mmap'ed backing).
//! Dirty tracking is per-slot bitmaps with `KVM_GET_DIRTY_LOG`
//! read-and-clear semantics — a different design from Xen's P2M log-dirty,
//! though UISR never needs to know.

use std::collections::BTreeMap;

use hypertp_machine::{Extent, Gfn, Mfn};

use crate::ioctl::{
    Errno, KvmFpu, KvmIoapicState, KvmLapicState, KvmMsrEntry, KvmPitState2, KvmRegs, KvmSregs,
    KvmXcrs, KvmXsave,
};

/// A guest memory slot (`kvm_userspace_memory_region`).
#[derive(Debug, Clone)]
pub(crate) struct MemSlot {
    /// Slot number.
    pub slot: u32,
    /// First guest-physical byte address.
    pub guest_phys_addr: u64,
    /// Length in bytes.
    pub memory_size: u64,
    /// Backing machine extents, covering the slot contiguously (the model
    /// of the VMM's mmap'ed anonymous memory).
    pub backing: Vec<Extent>,
    /// Dirty bitmap (one bit per 4 KiB page), present when dirty logging
    /// is enabled for the slot.
    pub dirty_bitmap: Option<Vec<u64>>,
    /// First slot page of each `backing` extent, ascending — recorded once
    /// at registration so a lookup binary-searches instead of walking the
    /// backing (512 extents for a 1 GiB guest of 2 MiB pages).
    starts: Vec<u64>,
}

impl MemSlot {
    fn pages(&self) -> u64 {
        self.memory_size / 4096
    }

    fn first_page(&self) -> u64 {
        self.guest_phys_addr / 4096
    }

    /// Whether guest page `gfn` lies in this slot.
    fn holds(&self, gfn: u64) -> bool {
        gfn >= self.first_page() && gfn - self.first_page() < self.pages()
    }

    /// The span of the backing extent holding guest page `gfn` (which
    /// must lie in this slot), and that extent's index. Extent `try_first`
    /// is checked before a binary search over `starts` — callers pass the
    /// extent after the previous lookup's, where an ascending walk lands
    /// next.
    fn span_at(&self, gfn: u64, try_first: usize) -> Option<(usize, Span)> {
        let page_offset = gfn - self.first_page();
        let covers = |i: usize| match (self.starts.get(i), self.backing.get(i)) {
            (Some(&start), Some(e)) => page_offset >= start && page_offset - start < e.pages(),
            _ => false,
        };
        let i = if covers(try_first) {
            try_first
        } else {
            // The last extent starting at or below the page.
            let i = self
                .starts
                .partition_point(|&s| s <= page_offset)
                .checked_sub(1)?;
            if !covers(i) {
                return None;
            }
            i
        };
        let e = self.backing[i];
        let span = Span {
            first: self.first_page() + self.starts[i],
            pages: e.pages(),
            base: e.base,
        };
        Some((i, span))
    }
}

/// One backing extent in guest terms: guest pages `first..first + pages`
/// are machine frames `base..`. A batch walk keeps the span of the previous
/// page, so the next page of the same extent translates with a subtraction
/// and a compare.
#[derive(Debug, Clone, Copy)]
struct Span {
    first: u64,
    pages: u64,
    base: Mfn,
}

impl Span {
    /// Holds no page: a walk's state before its first lookup.
    const NONE: Span = Span {
        first: 0,
        pages: 0,
        base: Mfn(0),
    };

    fn frame(&self, gfn: u64) -> Option<Mfn> {
        let off = gfn.wrapping_sub(self.first);
        (off < self.pages).then(|| self.base + off)
    }
}

/// Per-vCPU state held by the kernel module.
#[derive(Debug, Clone, Default)]
pub struct VcpuState {
    /// General-purpose registers.
    pub regs: KvmRegs,
    /// Special registers.
    pub sregs: KvmSregs,
    /// FPU state.
    pub fpu: KvmFpu,
    /// MSR store.
    pub msrs: BTreeMap<u32, u64>,
    /// XSAVE region.
    pub xsave: KvmXsave,
    /// Extended control registers.
    pub xcrs: KvmXcrs,
    /// LAPIC register page.
    pub lapic: KvmLapicState,
}

/// Per-VM state held by the kernel module.
#[derive(Debug, Default)]
pub struct VmState {
    /// Registered memory slots.
    pub slots: BTreeMap<u32, MemSlot>,
    /// vCPU states by vCPU fd.
    pub vcpus: BTreeMap<u32, VcpuState>,
    /// In-kernel IOAPIC, present after `KVM_CREATE_IRQCHIP`.
    pub irqchip: Option<KvmIoapicState>,
    /// In-kernel PIT, present after `KVM_CREATE_PIT2`.
    pub pit: Option<KvmPitState2>,
}

/// The KVM kernel module (the `/dev/kvm` side of the ioctl interface).
#[derive(Debug, Default)]
pub struct Kvm {
    vms: BTreeMap<u32, VmState>,
    next_fd: u32,
}

impl Kvm {
    /// Loads the module.
    pub fn new() -> Self {
        Kvm {
            vms: BTreeMap::new(),
            next_fd: 3, // fds 0-2 are stdio, naturally.
        }
    }

    fn vm(&self, vm_fd: u32) -> Result<&VmState, Errno> {
        self.vms.get(&vm_fd).ok_or(Errno::Ebadf)
    }

    fn vm_mut(&mut self, vm_fd: u32) -> Result<&mut VmState, Errno> {
        self.vms.get_mut(&vm_fd).ok_or(Errno::Ebadf)
    }

    fn vcpu(&self, vm_fd: u32, vcpu_fd: u32) -> Result<&VcpuState, Errno> {
        self.vm(vm_fd)?.vcpus.get(&vcpu_fd).ok_or(Errno::Ebadf)
    }

    fn vcpu_mut(&mut self, vm_fd: u32, vcpu_fd: u32) -> Result<&mut VcpuState, Errno> {
        self.vm_mut(vm_fd)?
            .vcpus
            .get_mut(&vcpu_fd)
            .ok_or(Errno::Ebadf)
    }

    /// `KVM_CREATE_VM`.
    pub fn create_vm(&mut self) -> u32 {
        let fd = self.next_fd;
        self.next_fd += 1;
        self.vms.insert(fd, VmState::default());
        fd
    }

    /// Destroys a VM (closing its fd). Returns its backing extents so the
    /// VMM can unmap them.
    pub fn destroy_vm(&mut self, vm_fd: u32) -> Result<Vec<Extent>, Errno> {
        let vm = self.vms.remove(&vm_fd).ok_or(Errno::Ebadf)?;
        Ok(vm
            .slots
            .into_values()
            .flat_map(|s| s.backing.into_iter())
            .collect())
    }

    /// `KVM_CREATE_VCPU`.
    pub(crate) fn create_vcpu(&mut self, vm_fd: u32) -> Result<u32, Errno> {
        let fd = self.next_fd;
        self.next_fd += 1;
        self.vm_mut(vm_fd)?.vcpus.insert(fd, VcpuState::default());
        Ok(fd)
    }

    /// `KVM_SET_USER_MEMORY_REGION`.
    pub(crate) fn set_user_memory_region(
        &mut self,
        vm_fd: u32,
        slot: u32,
        guest_phys_addr: u64,
        backing: Vec<Extent>,
    ) -> Result<(), Errno> {
        if !guest_phys_addr.is_multiple_of(4096) {
            return Err(Errno::Einval);
        }
        let memory_size: u64 = backing.iter().map(|e| e.bytes()).sum();
        let vm = self.vm_mut(vm_fd)?;
        // Reject overlap with existing slots.
        for s in vm.slots.values() {
            if s.slot != slot
                && guest_phys_addr < s.guest_phys_addr + s.memory_size
                && s.guest_phys_addr < guest_phys_addr + memory_size
            {
                return Err(Errno::Eexist);
            }
        }
        let mut next = 0;
        let starts = backing
            .iter()
            .map(|e| {
                let start = next;
                next += e.pages();
                start
            })
            .collect();
        vm.slots.insert(
            slot,
            MemSlot {
                slot,
                guest_phys_addr,
                memory_size,
                backing,
                dirty_bitmap: None,
                starts,
            },
        );
        Ok(())
    }

    /// Batched NPT walk: translates `gfns` in order and delivers
    /// coalesced physically-contiguous `(base MFN, pages)` runs instead of
    /// one MFN per page, allocating nothing — the zero-copy gather turns
    /// each run into one RAM slice borrow. One VM lookup per batch; a page
    /// in the previous page's backing extent costs a compare, one in the
    /// next extent O(1), any other a binary search (`MemSlot::span_at`).
    /// Per-page translations and `EFAULT` behaviour match
    /// [`Kvm::gfn_to_mfn`] exactly; runs before a faulting GFN may
    /// already have been delivered.
    pub(crate) fn gfn_runs(
        &self,
        vm_fd: u32,
        gfns: &[Gfn],
        visit: &mut dyn FnMut(Mfn, u64),
    ) -> Result<(), Errno> {
        let vm = self.vm(vm_fd)?;
        let mut slot: Option<&MemSlot> = None;
        let (mut next, mut span) = (0, Span::NONE);
        let mut run: Option<(Mfn, u64)> = None;
        for &g in gfns {
            let m = match span.frame(g.0) {
                Some(m) => m,
                None => {
                    if !slot.is_some_and(|s| s.holds(g.0)) {
                        slot = vm.slots.values().find(|s| s.holds(g.0));
                        next = 0;
                    }
                    let s = slot.ok_or(Errno::Efault)?;
                    let (i, found) = s.span_at(g.0, next).ok_or(Errno::Efault)?;
                    (next, span) = (i + 1, found);
                    span.frame(g.0).ok_or(Errno::Efault)?
                }
            };
            run = match run {
                Some((b, n)) if b.0 + n == m.0 => Some((b, n + 1)),
                Some((b, n)) => {
                    visit(b, n);
                    Some((m, 1))
                }
                None => Some((m, 1)),
            };
        }
        if let Some((b, n)) = run {
            visit(b, n);
        }
        Ok(())
    }

    /// Translates a guest frame to a machine frame (the NPT walk).
    pub(crate) fn gfn_to_mfn(&self, vm_fd: u32, gfn: Gfn) -> Result<Mfn, Errno> {
        let vm = self.vm(vm_fd)?;
        let s = vm.slots.values().find(|s| s.holds(gfn.0));
        s.and_then(|s| s.span_at(gfn.0, 0))
            .and_then(|(_, span)| span.frame(gfn.0))
            .ok_or(Errno::Efault)
    }

    /// Guest writes through the NPT, in order: translates each
    /// `(gfn, word)` of `writes` like [`Kvm::gfn_runs`], hands the frame
    /// and word to `store`, then sets the page's bit in its slot's dirty
    /// bitmap if logging is on (a write fault). Stops with `EFAULT` at
    /// the first unmapped gfn, or as soon as `store` returns `false`
    /// (that page left unmarked); every earlier page is stored and marked.
    pub fn write_pages(
        &mut self,
        vm_fd: u32,
        writes: &[(Gfn, u64)],
        store: &mut dyn FnMut(Mfn, u64) -> bool,
    ) -> Result<(), Errno> {
        let vm = self.vm_mut(vm_fd)?;
        let mut slot: Option<&mut MemSlot> = None;
        let (mut next, mut span) = (0, Span::NONE);
        for &(g, word) in writes {
            let mfn = match span.frame(g.0) {
                Some(m) => m,
                None => {
                    if !slot.as_ref().is_some_and(|s| s.holds(g.0)) {
                        slot = vm.slots.values_mut().find(|s| s.holds(g.0));
                        next = 0;
                    }
                    let s = slot.as_deref().ok_or(Errno::Efault)?;
                    let (i, found) = s.span_at(g.0, next).ok_or(Errno::Efault)?;
                    (next, span) = (i + 1, found);
                    span.frame(g.0).ok_or(Errno::Efault)?
                }
            };
            if !store(mfn, word) {
                return Ok(());
            }
            // `span` came from `slot`, so the page is the slot's.
            if let Some(s) = slot.as_deref_mut() {
                let bit = g.0 - s.first_page();
                if let Some(bm) = &mut s.dirty_bitmap {
                    bm[(bit / 64) as usize] |= 1 << (bit % 64);
                }
            }
        }
        Ok(())
    }

    /// Enables dirty logging on every slot (`KVM_MEM_LOG_DIRTY_PAGES`).
    pub fn enable_dirty_log(&mut self, vm_fd: u32) -> Result<(), Errno> {
        let vm = self.vm_mut(vm_fd)?;
        for s in vm.slots.values_mut() {
            let words = s.pages().div_ceil(64) as usize;
            s.dirty_bitmap = Some(vec![0; words]);
        }
        Ok(())
    }

    /// `KVM_GET_DIRTY_LOG` over all slots: returns dirty GFNs and clears
    /// the bitmaps.
    pub(crate) fn get_dirty_log(&mut self, vm_fd: u32) -> Result<Vec<Gfn>, Errno> {
        let vm = self.vm_mut(vm_fd)?;
        let mut out = Vec::new();
        for s in vm.slots.values_mut() {
            if let Some(bm) = &mut s.dirty_bitmap {
                for (w, word) in bm.iter_mut().enumerate() {
                    let mut v = std::mem::take(word);
                    while v != 0 {
                        let b = v.trailing_zeros() as u64;
                        v &= v - 1;
                        out.push(Gfn(s.guest_phys_addr / 4096 + w as u64 * 64 + b));
                    }
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// `KVM_CREATE_IRQCHIP`.
    pub(crate) fn create_irqchip(&mut self, vm_fd: u32) -> Result<(), Errno> {
        let vm = self.vm_mut(vm_fd)?;
        if vm.irqchip.is_some() {
            return Err(Errno::Eexist);
        }
        vm.irqchip = Some(KvmIoapicState::default());
        Ok(())
    }

    /// `KVM_GET_IRQCHIP`.
    pub(crate) fn get_irqchip(&self, vm_fd: u32) -> Result<KvmIoapicState, Errno> {
        self.vm(vm_fd)?.irqchip.clone().ok_or(Errno::Enodev)
    }

    /// `KVM_SET_IRQCHIP`.
    pub(crate) fn set_irqchip(&mut self, vm_fd: u32, state: KvmIoapicState) -> Result<(), Errno> {
        let vm = self.vm_mut(vm_fd)?;
        if vm.irqchip.is_none() {
            return Err(Errno::Enodev);
        }
        vm.irqchip = Some(state);
        Ok(())
    }

    /// `KVM_CREATE_PIT2`.
    pub(crate) fn create_pit2(&mut self, vm_fd: u32) -> Result<(), Errno> {
        let vm = self.vm_mut(vm_fd)?;
        if vm.pit.is_some() {
            return Err(Errno::Eexist);
        }
        vm.pit = Some(KvmPitState2::default());
        Ok(())
    }

    /// `KVM_GET_PIT2`.
    pub(crate) fn get_pit2(&self, vm_fd: u32) -> Result<KvmPitState2, Errno> {
        self.vm(vm_fd)?.pit.ok_or(Errno::Enodev)
    }

    /// `KVM_SET_PIT2`.
    pub(crate) fn set_pit2(&mut self, vm_fd: u32, state: KvmPitState2) -> Result<(), Errno> {
        let vm = self.vm_mut(vm_fd)?;
        if vm.pit.is_none() {
            return Err(Errno::Enodev);
        }
        vm.pit = Some(state);
        Ok(())
    }

    /// `KVM_GET_REGS` / `KVM_SET_REGS`.
    pub(crate) fn get_regs(&self, vm_fd: u32, vcpu_fd: u32) -> Result<KvmRegs, Errno> {
        Ok(self.vcpu(vm_fd, vcpu_fd)?.regs)
    }

    /// Sets general-purpose registers.
    pub(crate) fn set_regs(
        &mut self,
        vm_fd: u32,
        vcpu_fd: u32,
        regs: KvmRegs,
    ) -> Result<(), Errno> {
        self.vcpu_mut(vm_fd, vcpu_fd)?.regs = regs;
        Ok(())
    }

    /// `KVM_GET_SREGS` / `KVM_SET_SREGS`.
    pub(crate) fn get_sregs(&self, vm_fd: u32, vcpu_fd: u32) -> Result<KvmSregs, Errno> {
        Ok(self.vcpu(vm_fd, vcpu_fd)?.sregs)
    }

    /// Sets special registers.
    pub(crate) fn set_sregs(
        &mut self,
        vm_fd: u32,
        vcpu_fd: u32,
        sregs: KvmSregs,
    ) -> Result<(), Errno> {
        self.vcpu_mut(vm_fd, vcpu_fd)?.sregs = sregs;
        Ok(())
    }

    /// `KVM_SET_MSRS`; returns the number of MSRs set (KVM semantics).
    pub(crate) fn set_msrs(
        &mut self,
        vm_fd: u32,
        vcpu_fd: u32,
        msrs: &[KvmMsrEntry],
    ) -> Result<usize, Errno> {
        let v = self.vcpu_mut(vm_fd, vcpu_fd)?;
        for m in msrs {
            v.msrs.insert(m.index, m.data);
        }
        Ok(msrs.len())
    }

    /// `KVM_GET_MSRS` for the requested indices; unknown MSRs read as 0.
    pub(crate) fn get_msrs(
        &self,
        vm_fd: u32,
        vcpu_fd: u32,
        indices: &[u32],
    ) -> Result<Vec<KvmMsrEntry>, Errno> {
        let v = self.vcpu(vm_fd, vcpu_fd)?;
        Ok(indices
            .iter()
            .map(|&index| KvmMsrEntry {
                index,
                data: v.msrs.get(&index).copied().unwrap_or(0),
            })
            .collect())
    }

    /// `KVM_GET_FPU` / `KVM_SET_FPU`.
    pub(crate) fn get_fpu(&self, vm_fd: u32, vcpu_fd: u32) -> Result<KvmFpu, Errno> {
        Ok(self.vcpu(vm_fd, vcpu_fd)?.fpu.clone())
    }

    /// Sets FPU state.
    pub(crate) fn set_fpu(&mut self, vm_fd: u32, vcpu_fd: u32, fpu: KvmFpu) -> Result<(), Errno> {
        self.vcpu_mut(vm_fd, vcpu_fd)?.fpu = fpu;
        Ok(())
    }

    /// `KVM_GET_XSAVE` / `KVM_SET_XSAVE`.
    pub(crate) fn get_xsave(&self, vm_fd: u32, vcpu_fd: u32) -> Result<KvmXsave, Errno> {
        Ok(self.vcpu(vm_fd, vcpu_fd)?.xsave.clone())
    }

    /// Sets the XSAVE region.
    pub(crate) fn set_xsave(&mut self, vm_fd: u32, vcpu_fd: u32, x: KvmXsave) -> Result<(), Errno> {
        self.vcpu_mut(vm_fd, vcpu_fd)?.xsave = x;
        Ok(())
    }

    /// `KVM_GET_XCRS` / `KVM_SET_XCRS`.
    pub(crate) fn get_xcrs(&self, vm_fd: u32, vcpu_fd: u32) -> Result<KvmXcrs, Errno> {
        Ok(self.vcpu(vm_fd, vcpu_fd)?.xcrs.clone())
    }

    /// Sets extended control registers.
    pub(crate) fn set_xcrs(&mut self, vm_fd: u32, vcpu_fd: u32, x: KvmXcrs) -> Result<(), Errno> {
        self.vcpu_mut(vm_fd, vcpu_fd)?.xcrs = x;
        Ok(())
    }

    /// `KVM_GET_LAPIC` / `KVM_SET_LAPIC`.
    pub(crate) fn get_lapic(&self, vm_fd: u32, vcpu_fd: u32) -> Result<KvmLapicState, Errno> {
        Ok(self.vcpu(vm_fd, vcpu_fd)?.lapic.clone())
    }

    /// Sets the LAPIC register page.
    pub(crate) fn set_lapic(
        &mut self,
        vm_fd: u32,
        vcpu_fd: u32,
        l: KvmLapicState,
    ) -> Result<(), Errno> {
        if l.regs.len() != 1024 {
            return Err(Errno::Einval);
        }
        self.vcpu_mut(vm_fd, vcpu_fd)?.lapic = l;
        Ok(())
    }

    /// vCPU fds of a VM, in creation order.
    pub(crate) fn vcpu_fds(&self, vm_fd: u32) -> Result<Vec<u32>, Errno> {
        Ok(self.vm(vm_fd)?.vcpus.keys().copied().collect())
    }

    /// Memory-slot view (for accounting and tests).
    pub fn slots(&self, vm_fd: u32) -> Result<Vec<&MemSlot>, Errno> {
        Ok(self.vm(vm_fd)?.slots.values().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertp_machine::PageOrder;

    fn ext(base: u64, order: u8) -> Extent {
        Extent::new(Mfn(base), PageOrder(order))
    }

    #[test]
    fn vm_and_vcpu_lifecycle() {
        let mut k = Kvm::new();
        let vm = k.create_vm();
        let v0 = k.create_vcpu(vm).unwrap();
        let v1 = k.create_vcpu(vm).unwrap();
        assert_ne!(v0, v1);
        assert_eq!(k.vcpu_fds(vm).unwrap(), vec![v0, v1]);
        assert_eq!(k.create_vcpu(999), Err(Errno::Ebadf));
        k.destroy_vm(vm).unwrap();
        assert_eq!(k.get_regs(vm, v0), Err(Errno::Ebadf));
    }

    #[test]
    fn memslots_translate() {
        let mut k = Kvm::new();
        let vm = k.create_vm();
        k.set_user_memory_region(vm, 0, 0, vec![ext(512, 9), ext(2048, 9)])
            .unwrap();
        assert_eq!(k.gfn_to_mfn(vm, Gfn(0)).unwrap(), Mfn(512));
        assert_eq!(k.gfn_to_mfn(vm, Gfn(511)).unwrap(), Mfn(1023));
        assert_eq!(k.gfn_to_mfn(vm, Gfn(512)).unwrap(), Mfn(2048));
        assert_eq!(k.gfn_to_mfn(vm, Gfn(1024)), Err(Errno::Efault));
    }

    /// Flattens `gfn_runs` back to one MFN per page.
    fn flat_runs(k: &Kvm, vm: u32, gfns: &[Gfn]) -> Result<Vec<Mfn>, Errno> {
        let mut flat = Vec::new();
        k.gfn_runs(vm, gfns, &mut |m, n| flat.extend((0..n).map(|i| m + i)))?;
        Ok(flat)
    }

    fn per_page(k: &Kvm, vm: u32, gfns: &[Gfn]) -> Result<Vec<Mfn>, Errno> {
        gfns.iter().map(|&g| k.gfn_to_mfn(vm, g)).collect()
    }

    #[test]
    fn batched_translate_matches_per_page_walk() {
        let mut k = Kvm::new();
        let vm = k.create_vm();
        // Two slots, the higher-addressed one registered first, each with
        // fragmented backing.
        k.set_user_memory_region(vm, 1, 1024 * 4096, vec![ext(4096, 9), ext(8192, 9)])
            .unwrap();
        k.set_user_memory_region(vm, 0, 0, vec![ext(512, 9), ext(2048, 9)])
            .unwrap();
        // Sorted input across both slots and both backing extents, then
        // out-of-order input: the same answers either way.
        for gfns in [
            vec![0u64, 1, 511, 512, 1023, 1024, 1536, 2047],
            vec![2047, 0, 1024, 512, 511],
        ] {
            let gfns: Vec<Gfn> = gfns.into_iter().map(Gfn).collect();
            assert_eq!(flat_runs(&k, vm, &gfns), per_page(&k, vm, &gfns));
            assert!(flat_runs(&k, vm, &gfns).is_ok());
        }
        // Unmapped GFNs fault exactly like the per-page walk (the slots
        // end at page 2048).
        assert_eq!(flat_runs(&k, vm, &[Gfn(0), Gfn(2048)]), Err(Errno::Efault));
        assert_eq!(flat_runs(&k, vm, &[]), Ok(vec![]));
    }

    #[test]
    fn gfn_runs_coalesce_across_backing_extents() {
        // One slot, and the same memory split over two slots: both must
        // flatten to the per-page walk, with runs coalesced across
        // backing-extent (and slot) boundaries when frames abut.
        let mut single = Kvm::new();
        let vm1 = single.create_vm();
        // 2048..2560 and 2560..3072 are physically adjacent: one run.
        single
            .set_user_memory_region(vm1, 0, 0, vec![ext(2048, 9), ext(2560, 9), ext(8192, 9)])
            .unwrap();
        let mut multi = Kvm::new();
        let vm2 = multi.create_vm();
        multi
            .set_user_memory_region(vm2, 1, 1024 * 4096, vec![ext(8192, 9)])
            .unwrap();
        multi
            .set_user_memory_region(vm2, 0, 0, vec![ext(2048, 9), ext(2560, 9)])
            .unwrap();
        for (k, vm) in [(&single, vm1), (&multi, vm2)] {
            for gfns in [
                (0u64..1536).collect::<Vec<_>>(),
                vec![0, 1, 513, 1025, 1030],
                vec![1535, 0, 512, 511],
            ] {
                let gfns: Vec<Gfn> = gfns.into_iter().map(Gfn).collect();
                assert_eq!(flat_runs(k, vm, &gfns), per_page(k, vm, &gfns));
            }
            // The adjacent extents coalesce into a single visited run.
            let gfns: Vec<Gfn> = (0..1024).map(Gfn).collect();
            let mut visits = 0;
            k.gfn_runs(vm, &gfns, &mut |_, n| {
                assert_eq!(n, 1024);
                visits += 1;
            })
            .unwrap();
            assert_eq!(visits, 1);
            // Faults match.
            assert_eq!(
                k.gfn_runs(vm, &[Gfn(4096)], &mut |_, _| {}),
                Err(Errno::Efault)
            );
        }
    }

    /// The binary-searched, hinted lookup answers exactly like a walk over
    /// the backing, on seeded non-uniform backings (orders 0–9), for every
    /// page of every slot, for pages past each slot's end, and in
    /// ascending, descending and random order.
    #[test]
    fn frame_lookup_matches_a_linear_scan() {
        let oracle = |slots: &[(u64, Vec<Extent>)], gfn: u64| -> Result<Mfn, Errno> {
            for (first, backing) in slots {
                let mut page = *first;
                for e in backing {
                    if gfn >= page && gfn < page + e.pages() {
                        return Ok(e.base + (gfn - page));
                    }
                    page += e.pages();
                }
            }
            Err(Errno::Efault)
        };
        let mut rng = hypertp_sim::SimRng::new(0xf4a3_e0a7);
        for case in 0..24 {
            let mut k = Kvm::new();
            let vm = k.create_vm();
            let mut slots = Vec::new();
            let mut first = rng.gen_range(64);
            let mut mfn = 0u64;
            for slot in 0..1 + case % 3 {
                let backing: Vec<Extent> = (0..1 + rng.gen_range(12))
                    .map(|_| {
                        let order = rng.gen_range(10) as u8;
                        mfn = (mfn + rng.gen_range(3) * 512).next_multiple_of(1 << order);
                        let e = ext(mfn, order);
                        mfn += e.pages();
                        e
                    })
                    .collect();
                let pages: u64 = backing.iter().map(|e| e.pages()).sum();
                k.set_user_memory_region(vm, slot, first * 4096, backing.clone())
                    .unwrap();
                slots.push((first, backing));
                // A hole of 0–2 pages before the next slot.
                first += pages + rng.gen_range(3);
            }
            let end = first + 600;
            let ascending: Vec<u64> = (0..end).collect();
            let descending = ascending.iter().rev().copied().collect();
            let random = (0..end).map(|_| rng.gen_range(end)).collect();
            for order in [ascending, descending, random] {
                for &g in &order {
                    assert_eq!(
                        k.gfn_to_mfn(vm, Gfn(g)),
                        oracle(&slots, g),
                        "case {case} gfn {g}"
                    );
                    let got = flat_runs(&k, vm, &[Gfn(g)]).map(|m| m[0]);
                    assert_eq!(got, oracle(&slots, g), "case {case} gfn {g}");
                }
                // One batch over the mapped pages, in this order.
                let mapped: Vec<u64> = order
                    .into_iter()
                    .filter(|&g| oracle(&slots, g).is_ok())
                    .collect();
                let batch: Vec<Gfn> = mapped.iter().map(|&g| Gfn(g)).collect();
                let want: Vec<Mfn> = mapped.iter().map(|&g| oracle(&slots, g).unwrap()).collect();
                assert_eq!(flat_runs(&k, vm, &batch), Ok(want), "case {case}");
            }
        }
    }

    #[test]
    fn overlapping_slots_rejected() {
        let mut k = Kvm::new();
        let vm = k.create_vm();
        k.set_user_memory_region(vm, 0, 0, vec![ext(0, 9)]).unwrap();
        assert_eq!(
            k.set_user_memory_region(vm, 1, 4096, vec![ext(512, 9)]),
            Err(Errno::Eexist)
        );
        // Replacing the same slot is fine.
        k.set_user_memory_region(vm, 0, 0, vec![ext(1024, 9)])
            .unwrap();
    }

    #[test]
    fn unaligned_gpa_rejected() {
        let mut k = Kvm::new();
        let vm = k.create_vm();
        assert_eq!(
            k.set_user_memory_region(vm, 0, 17, vec![ext(0, 0)]),
            Err(Errno::Einval)
        );
    }

    #[test]
    fn dirty_log_read_and_clear() {
        let mut k = Kvm::new();
        let vm = k.create_vm();
        k.set_user_memory_region(vm, 0, 0, vec![ext(0, 9)]).unwrap();
        let writes = [(Gfn(5), 1), (Gfn(200), 2), (Gfn(5), 3)];
        // Not logging yet: writes leave no trace.
        k.write_pages(vm, &writes, &mut |_, _| true).unwrap();
        k.enable_dirty_log(vm).unwrap();
        assert!(k.get_dirty_log(vm).unwrap().is_empty());
        k.write_pages(vm, &writes, &mut |_, _| true).unwrap();
        assert_eq!(k.get_dirty_log(vm).unwrap(), vec![Gfn(5), Gfn(200)]);
        assert!(k.get_dirty_log(vm).unwrap().is_empty());
    }

    #[test]
    fn irqchip_and_pit_lifecycle() {
        let mut k = Kvm::new();
        let vm = k.create_vm();
        assert_eq!(k.get_irqchip(vm), Err(Errno::Enodev));
        k.create_irqchip(vm).unwrap();
        assert_eq!(k.create_irqchip(vm), Err(Errno::Eexist));
        let mut io = k.get_irqchip(vm).unwrap();
        io.redirtbl[3] = 0x31;
        k.set_irqchip(vm, io.clone()).unwrap();
        assert_eq!(k.get_irqchip(vm).unwrap(), io);
        k.create_pit2(vm).unwrap();
        let mut pit = k.get_pit2(vm).unwrap();
        pit.channels[0].count = 0x1234;
        k.set_pit2(vm, pit).unwrap();
        assert_eq!(k.get_pit2(vm).unwrap().channels[0].count, 0x1234);
    }

    #[test]
    fn msr_store() {
        let mut k = Kvm::new();
        let vm = k.create_vm();
        let v = k.create_vcpu(vm).unwrap();
        let n = k
            .set_msrs(
                vm,
                v,
                &[
                    KvmMsrEntry {
                        index: 0xc000_0080,
                        data: 0xd01,
                    },
                    KvmMsrEntry {
                        index: 0x10,
                        data: 999,
                    },
                ],
            )
            .unwrap();
        assert_eq!(n, 2);
        let got = k.get_msrs(vm, v, &[0x10, 0xc000_0080, 0x1b]).unwrap();
        assert_eq!(got[0].data, 999);
        assert_eq!(got[1].data, 0xd01);
        assert_eq!(got[2].data, 0, "unknown MSR reads as zero");
    }

    #[test]
    fn lapic_size_validated() {
        let mut k = Kvm::new();
        let vm = k.create_vm();
        let v = k.create_vcpu(vm).unwrap();
        assert_eq!(
            k.set_lapic(vm, v, KvmLapicState { regs: vec![0; 100] }),
            Err(Errno::Einval)
        );
    }
}
