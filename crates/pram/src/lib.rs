//! PRAM: a persistent-over-kexec memory filesystem.
//!
//! InPlaceTP keeps guest memory in place across the micro-reboot. The new
//! hypervisor must learn *which* frames hold guest memory before its
//! allocator or boot scrubber touches them; the paper adapts the PRAM
//! patchset (Fig. 4) for this: a page-aligned metadata structure, reachable
//! from a single **PRAM pointer** passed on the target kernel's command
//! line, records each VM's memory as a file.
//!
//! This crate implements the structure at byte level inside the simulated
//! physical RAM:
//!
//! * a linked list of **root directory pages** holding pointers to file-info
//!   pages;
//! * one **file-info page** per VM (name, mode, total pages, pointer to the
//!   first node);
//! * a chain of **node pages** per file, each carrying a base GFN and up to
//!   508 packed 8-byte **page entries** (`mfn | order`), GFN-contiguous
//!   within a node — a hole in the guest address space starts a new node.
//!
//! The paper's reported metadata overheads (Fig. 14: 16 KB for a 1 GB VM,
//! 60 KB for a 12 GB VM, 148 KB for 12×1 GB VMs, 8 bytes per page entry)
//! fall out of this encoding rather than being asserted; the `fig14` bench
//! measures them from [`PramHandle::stats`].

pub mod entry;
pub mod fs;

pub use fs::{PramBuilder, PramError, PramFile, PramHandle, PramImage, PramStats};
