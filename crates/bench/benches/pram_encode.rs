//! Bench: PRAM encode and parse throughput, with and without huge pages
//! (the 2 MiB-page optimization's 512× entry-count effect).
//!
//! Runs on the in-tree timing harness (`hypertp_bench::harness`) so the
//! workspace builds offline; same group/bench ids as the old Criterion
//! bench.

use hypertp_bench::harness::{self, Group};
use hypertp_machine::{Gfn, PageOrder, PhysicalMemory};
use hypertp_pram::{PramBuilder, PramImage};

fn build_map(
    ram: &mut PhysicalMemory,
    gib: u64,
    huge: bool,
) -> Vec<(Gfn, hypertp_machine::Extent)> {
    let order = if huge { PageOrder(9) } else { PageOrder(0) };
    let chunks = gib * (1 << 30) / 4096 / order.pages();
    (0..chunks)
        .map(|i| (Gfn(i * order.pages()), ram.alloc(order).expect("capacity")))
        .collect()
}

fn main() {
    harness::header();
    let mut g = Group::new("pram");
    for (label, gib, huge) in [
        ("1GiB_huge", 1u64, true),
        ("1GiB_4k", 1, false),
        ("12GiB_huge", 12, true),
    ] {
        g.bench_with_setup(
            format!("encode/{label}"),
            || {
                let mut ram = PhysicalMemory::with_gib(gib + 1);
                let map = build_map(&mut ram, gib, huge);
                (ram, map)
            },
            |(mut ram, map)| {
                let mut builder = PramBuilder::new();
                builder.add_file("vm", 0, map);
                std::hint::black_box(builder.write(&mut ram).expect("encode"));
            },
        );
        let mut ram = PhysicalMemory::with_gib(gib + 1);
        let map = build_map(&mut ram, gib, huge);
        let mut builder = PramBuilder::new();
        builder.add_file("vm", 0, map);
        let handle = builder.write(&mut ram).expect("encode");
        g.bench(format!("parse/{label}"), || {
            std::hint::black_box(PramImage::parse(&ram, handle.pram_ptr).expect("parse"));
        });
    }
    g.finish();
}
