//! `Hypervisor::write_guest_many` is *exactly* a loop of `write_guest`:
//! for Xen, KVM (one memory slot and several) and the trait's default
//! implementation (`SimpleHv`), two identical worlds take the same writes,
//! one page at a time and as one batch, and must end with the same RAM,
//! the same byte-backed frames, the same dirty log and the same result —
//! on seeded fragmented layouts (extents of orders 0–9, hole-punched
//! machine memory, holes in guest-physical space), for ascending,
//! out-of-order and repeated gfns, with dirty logging on and off, and with
//! an unmapped gfn in mid-batch (same error, same prefix written).

use hypertp::core::testing::SimpleHv;
use hypertp::core::HtpError;
use hypertp::machine::{Mfn, PageOrder, PAGE_SIZE};
use hypertp::prelude::*;
use hypertp::sim::SimRng;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Target {
    Xen,
    /// One KVM memory slot: the guest-physical space has no holes.
    KvmOneSlot,
    /// One KVM memory slot per contiguous guest-physical run.
    KvmSlots,
    /// The trait's default `write_guest_many`.
    Default,
}

impl Target {
    fn hypervisor(self, m: &mut Machine) -> Box<dyn Hypervisor> {
        match self {
            Target::Xen => Box::new(XenHypervisor::new(m)),
            Target::KvmOneSlot | Target::KvmSlots => Box::new(KvmHypervisor::new(m)),
            Target::Default => Box::new(SimpleHv::new(HypervisorKind::Kvm)),
        }
    }

    fn holes(self) -> bool {
        self != Target::KvmOneSlot
    }
}

/// RAM contents, the byte-backed frames' buffers and the dirty log.
type Observed = (Vec<u64>, Vec<Option<Vec<u8>>>, Result<Vec<Gfn>, HtpError>);

/// One world: a 1 GiB machine and a guest adopted onto `seed`'s
/// fragmented layout, some of its frames byte-backed.
struct World {
    m: Machine,
    hv: Box<dyn Hypervisor>,
    id: VmId,
    /// `(gfn, mfn)` of every mapped page, ascending by gfn.
    pages: Vec<(Gfn, Mfn)>,
    /// Guest-physical pages past the last mapping or in a hole.
    unmapped: Vec<Gfn>,
    /// Frames carrying a byte buffer before the writes.
    byte_backed: Vec<Mfn>,
}

impl World {
    fn new(target: Target, seed: u64) -> World {
        let mut spec = MachineSpec::m1();
        spec.ram_gb = 1;
        let mut m = Machine::new(spec);
        let mut hv = target.hypervisor(&mut m);
        let uisr = {
            // The adopted VM's state comes from one of the same kind.
            let mut spec = MachineSpec::m1();
            spec.ram_gb = 2;
            let mut scratch = Machine::new(spec);
            let mut donor = target.hypervisor(&mut scratch);
            let id = donor
                .create_vm(&mut scratch, &VmConfig::small("diff"))
                .unwrap();
            donor.pause_vm(id).unwrap();
            donor.save_uisr(&scratch, id).unwrap()
        };

        // Extents of orders 0–9, allocated between punched holes so the
        // machine frames fragment, then mapped in shuffled order.
        let mut rng = SimRng::new(seed);
        let mut extents = Vec::new();
        for i in 0..48 {
            let order = PageOrder(rng.gen_range(10) as u8);
            extents.push(m.ram_mut().alloc(order).unwrap());
            if i % 3 == 0 {
                let hole = m
                    .ram_mut()
                    .alloc(PageOrder(rng.gen_range(4) as u8))
                    .unwrap();
                m.ram_mut().free(hole).unwrap();
            }
        }
        for i in (1..extents.len()).rev() {
            extents.swap(i, rng.gen_range(i as u64 + 1) as usize);
        }
        let mut mappings = Vec::new();
        let mut pages = Vec::new();
        let mut unmapped = Vec::new();
        let mut gfn = 0;
        for e in extents {
            if target.holes() && rng.gen_range(4) == 0 {
                unmapped.push(Gfn(gfn));
                gfn += 1 + rng.gen_range(3);
            }
            // Adoption takes over frames a PRAM reservation holds.
            m.ram_mut().free(e).unwrap();
            m.ram_mut().reserve_range(e.base, e.pages()).unwrap();
            mappings.push((Gfn(gfn), e));
            pages.extend((0..e.pages()).map(|i| (Gfn(gfn + i), e.base + i)));
            gfn += e.pages();
        }
        unmapped.push(Gfn(gfn));
        let id = hv.adopt_vm(&mut m, &uisr, &mappings).unwrap().id;

        let mut byte_backed = Vec::new();
        for &(_, mfn) in pages.iter().step_by(37) {
            let page: Vec<u8> = (0..PAGE_SIZE).map(|b| (b ^ mfn.0) as u8).collect();
            m.ram_mut().write_bytes(mfn, &page).unwrap();
            byte_backed.push(mfn);
        }
        World {
            m,
            hv,
            id,
            pages,
            unmapped,
            byte_backed,
        }
    }

    /// Everything the writes may have touched.
    fn observe(&mut self) -> Observed {
        let ram = self.m.ram();
        let contents = ram
            .content_slice(Mfn(0), ram.total_frames())
            .unwrap()
            .to_vec();
        let bytes = self
            .byte_backed
            .iter()
            .map(|&mfn| ram.read_bytes(mfn).map(<[u8]>::to_vec))
            .collect();
        (contents, bytes, self.hv.collect_dirty(self.id))
    }
}

/// The write batches one world is put through: ascending, out-of-order,
/// every byte-backed page (some twice) in reverse, and each of those with
/// an unmapped gfn in the middle.
fn batches(w: &World, rng: &mut SimRng) -> Vec<Vec<(Gfn, u64)>> {
    let word = |rng: &mut SimRng| match rng.gen_range(4) {
        0 => 0,
        _ => rng.next_u64(),
    };
    let n = w.pages.len() as u64;
    let mut ascending = Vec::new();
    for &(g, _) in &w.pages {
        if rng.gen_range(3) == 0 {
            ascending.push((g, word(rng)));
        }
    }
    let mut shuffled = Vec::new();
    for _ in 0..n / 2 {
        shuffled.push((w.pages[rng.gen_range(n) as usize].0, word(rng)));
    }
    let mut repeated = Vec::new();
    for &(g, _) in w
        .pages
        .iter()
        .step_by(37)
        .rev()
        .chain(w.pages.iter().step_by(74))
    {
        repeated.push((g, word(rng)));
    }
    let mut out = vec![ascending, shuffled, repeated];
    for i in 0..out.len() {
        let mut faulting = out[i].clone();
        let hole = w.unmapped[rng.gen_range(w.unmapped.len() as u64) as usize];
        faulting.insert(faulting.len() / 2, (hole, 0xbad));
        out.push(faulting);
    }
    out
}

#[test]
fn write_guest_many_equals_the_write_guest_loop() {
    for target in [
        Target::Xen,
        Target::KvmOneSlot,
        Target::KvmSlots,
        Target::Default,
    ] {
        for seed in 0..3u64 {
            let mut rng = SimRng::new(0xd1ff_0000 + seed);
            let plan = batches(&World::new(target, seed), &mut rng);
            for (b, writes) in plan.iter().enumerate() {
                for dirty_log in [false, true] {
                    let case = format!("{target:?} seed {seed} batch {b} dirty_log {dirty_log}");
                    let mut looped = World::new(target, seed);
                    let mut batched = World::new(target, seed);
                    if dirty_log {
                        looped.hv.enable_dirty_log(looped.id).unwrap();
                        batched.hv.enable_dirty_log(batched.id).unwrap();
                    }
                    let by_page = writes.iter().try_for_each(|&(g, word)| {
                        looped.hv.write_guest(&mut looped.m, looped.id, g, word)
                    });
                    let as_batch = batched
                        .hv
                        .write_guest_many(&mut batched.m, batched.id, writes);
                    assert_eq!(as_batch, by_page, "{case}");
                    assert_eq!(as_batch.is_err(), b >= 3, "{case}: only the holes fault");
                    let (after_loop, after_batch) = (looped.observe(), batched.observe());
                    assert!(after_batch.0 == after_loop.0, "{case}: RAM contents differ");
                    assert!(
                        after_batch.1 == after_loop.1,
                        "{case}: byte-backed frames differ"
                    );
                    assert_eq!(after_batch.2, after_loop.2, "{case}: dirty logs differ");
                    if dirty_log && b < 3 {
                        assert!(!after_batch.2.as_ref().unwrap().is_empty(), "{case}");
                    }
                }
            }
        }
    }
}

/// The batch's lookups come first: an unknown VM fails like the loop's
/// first write would, and an empty batch is a no-op even then.
#[test]
fn write_guest_many_on_an_unknown_vm() {
    for target in [Target::Xen, Target::KvmSlots, Target::Default] {
        let mut w = World::new(target, 9);
        let ghost = VmId(w.id.0 + 100);
        let writes = [(Gfn(0), 1), (Gfn(1), 2)];
        let by_page = w.hv.write_guest(&mut w.m, ghost, Gfn(0), 1);
        assert!(by_page.is_err(), "{target:?}");
        assert_eq!(
            w.hv.write_guest_many(&mut w.m, ghost, &writes),
            by_page,
            "{target:?}"
        );
        assert_eq!(w.hv.write_guest_many(&mut w.m, ghost, &[]), Ok(()));
        // Writing nothing to a real VM changes nothing either.
        let before = w.m.ram().content_slice(Mfn(0), 64).unwrap().to_vec();
        w.hv.write_guest_many(&mut w.m, w.id, &[]).unwrap();
        assert_eq!(w.m.ram().content_slice(Mfn(0), 64).unwrap(), &before[..]);
    }
}

/// The layouts really are what the differential test claims to cover.
#[test]
fn layouts_are_fragmented_and_holed() {
    let orders = |w: &World| {
        let mut seen = [false; 10];
        for (_, e) in w.hv.guest_memory_map(w.id).unwrap() {
            seen[e.order.0 as usize] = true;
        }
        seen.iter().filter(|&&s| s).count()
    };
    let slots = World::new(Target::KvmSlots, 0);
    let one = World::new(Target::KvmOneSlot, 0);
    assert!(orders(&slots) >= 7, "most orders 0–9 appear");
    assert!(slots.unmapped.len() > 1, "guest-physical holes");
    assert_eq!(one.unmapped.len(), 1, "only the page past the end");
    // Machine frames are out of guest-physical order.
    let mfns: Vec<Mfn> = slots.pages.iter().map(|&(_, m)| m).collect();
    assert!(mfns.windows(2).any(|w| w[1].0 < w[0].0));
}
