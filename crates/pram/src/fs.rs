//! The PRAM filesystem: builder (source side) and parser (target side).
//!
//! The builder runs in the source hypervisor's userspace *before* VMs are
//! paused (the §4.2.5 "preparation work" optimization); it encodes each VM's
//! guest memory map into metadata pages and returns the PRAM pointer that
//! InPlaceTP passes on the kexec command line. The parser runs in the target
//! hypervisor's early boot: it walks the structure, reconstructs every VM's
//! memory map, and reserves the frames before the allocator or boot
//! scrubber can recycle them.

use std::collections::HashSet;

use hypertp_machine::{
    frame_runs, Extent, Gfn, MemError, Mfn, PageOrder, PhysicalMemory, PAGE_SIZE,
};
use hypertp_sim::WorkerPool;

use crate::entry::{pack_entry, unpack_entry, PackedEntry, FLAG_GUEST};

const MAGIC: u32 = 0x4D41_5250; // "PRAM" little-endian.
const VERSION: u8 = 1;

const KIND_ROOT: u8 = 1;
const KIND_FILE: u8 = 2;
const KIND_NODE: u8 = 3;

const ROOT_CAPACITY: usize = (PAGE_SIZE as usize - 24) / 8;
const NODE_CAPACITY: usize = (PAGE_SIZE as usize - 32) / 8;
const NAME_MAX: usize = 64;
/// Byte offset of the per-file checksum inside a file-info page (after
/// header, node pointer, totals, mode, name length and 64-byte name).
const CHECKSUM_OFF: usize = 104;

/// Content checksum of one file: FNV-1a over the sorted `(gfn, entry)`
/// stream plus name, mode and total pages. Independent of the node-page
/// split, so both the builder (pre-split) and the parser (post-walk)
/// compute the same value.
fn file_checksum(name: &str, mode: u32, total_pages: u64, mappings: &[(Gfn, Extent)]) -> u64 {
    let mut digest = Vec::with_capacity(mappings.len() * 16 + name.len() + 16);
    for (g, e) in mappings {
        digest.extend_from_slice(&g.0.to_le_bytes());
        digest.extend_from_slice(&pack_entry(e.base, e.order, FLAG_GUEST).to_le_bytes());
    }
    digest.extend_from_slice(name.as_bytes());
    digest.extend_from_slice(&mode.to_le_bytes());
    digest.extend_from_slice(&total_pages.to_le_bytes());
    hypertp_machine::ram::fnv1a(&digest)
}

/// Errors from PRAM encoding or parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PramError {
    /// Underlying memory error (allocation failure, out-of-range frame).
    Mem(MemError),
    /// A metadata page did not carry the PRAM magic — it was scrubbed,
    /// overwritten, or the pointer is wrong.
    BadMagic {
        /// The frame that failed validation.
        mfn: Mfn,
    },
    /// A metadata page had an unexpected kind or version.
    BadKind {
        /// The frame that failed validation.
        mfn: Mfn,
        /// Expected kind.
        expected: u8,
        /// Found kind.
        found: u8,
    },
    /// File name longer than the 64-byte field.
    NameTooLong,
    /// Guest mappings overlap in GFN space.
    OverlappingMappings {
        /// The GFN where the overlap was detected.
        gfn: Gfn,
    },
    /// A pointer inside a metadata page is not page-aligned.
    UnalignedPointer {
        /// The offending byte address.
        addr: u64,
    },
    /// A metadata page carries the right magic and kind but says something
    /// no builder writes: a count beyond the page, an entry that is not a
    /// valid extent, a chain that returns to a page already walked.
    Malformed {
        /// The metadata frame that failed validation.
        mfn: Mfn,
        /// What was wrong with it.
        what: &'static str,
    },
    /// A file's stored checksum does not match the checksum recomputed
    /// from its entries — the metadata was corrupted between build and
    /// parse (or a storage bit flipped).
    ChecksumMismatch {
        /// The file-info frame whose checksum failed.
        mfn: Mfn,
        /// The checksum stored in the file-info page.
        stored: u64,
        /// The checksum recomputed from the parsed entries.
        computed: u64,
    },
}

impl std::fmt::Display for PramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PramError::Mem(e) => write!(f, "memory error: {e}"),
            PramError::BadMagic { mfn } => write!(f, "bad PRAM magic at {mfn}"),
            PramError::BadKind {
                mfn,
                expected,
                found,
            } => write!(
                f,
                "bad PRAM page kind at {mfn}: want {expected}, got {found}"
            ),
            PramError::NameTooLong => write!(f, "file name exceeds 64 bytes"),
            PramError::OverlappingMappings { gfn } => {
                write!(f, "overlapping guest mappings at {gfn}")
            }
            PramError::UnalignedPointer { addr } => {
                write!(f, "unaligned metadata pointer {addr:#x}")
            }
            PramError::Malformed { mfn, what } => {
                write!(f, "malformed PRAM page at {mfn}: {what}")
            }
            PramError::ChecksumMismatch {
                mfn,
                stored,
                computed,
            } => write!(
                f,
                "PRAM checksum mismatch at {mfn}: stored {stored:#018x}, computed {computed:#018x}"
            ),
        }
    }
}

impl std::error::Error for PramError {}

impl From<MemError> for PramError {
    fn from(e: MemError) -> Self {
        PramError::Mem(e)
    }
}

/// One VM's memory map, as recorded in (or recovered from) PRAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PramFile {
    /// File name (the VM identifier).
    pub name: String,
    /// File mode bits (kept for fidelity with the patchset's API).
    pub mode: u32,
    /// The guest memory map: `(gfn, extent)` pairs sorted by GFN.
    pub mappings: Vec<(Gfn, Extent)>,
}

impl PramFile {
    /// Total guest pages covered by the file.
    pub fn total_pages(&self) -> u64 {
        self.mappings.iter().map(|(_, e)| e.pages()).sum()
    }

    /// The file's machine extents, in mapping order.
    pub fn extents(&self) -> impl Iterator<Item = Extent> + '_ {
        self.mappings.iter().map(|&(_, e)| e)
    }

    /// Total number of 8-byte page entries the file encodes to.
    pub fn total_entries(&self) -> u64 {
        self.mappings.len() as u64
    }

    /// Total guest bytes covered.
    pub fn total_bytes(&self) -> u64 {
        self.total_pages() * PAGE_SIZE
    }
}

/// Size statistics of an encoded PRAM structure (drives Fig. 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PramStats {
    /// Number of files (VMs).
    pub files: u64,
    /// Total 8-byte page entries across all files.
    pub entries: u64,
    /// Metadata pages allocated (root + file-info + node pages).
    pub metadata_pages: u64,
}

impl PramStats {
    /// Metadata footprint in bytes.
    pub fn metadata_bytes(&self) -> u64 {
        self.metadata_pages * PAGE_SIZE
    }
}

/// Result of building a PRAM structure: the pointer to pass on the kexec
/// command line plus bookkeeping for cleanup.
#[derive(Debug, Clone)]
pub struct PramHandle {
    /// Physical byte address of the first root directory page — the "PRAM
    /// pointer" of Fig. 4.
    pub pram_ptr: u64,
    /// All metadata frames, for the cleanup step.
    pub meta_frames: Vec<Mfn>,
    stats: PramStats,
}

impl PramHandle {
    /// Size statistics of the encoded structure.
    pub fn stats(&self) -> PramStats {
        self.stats
    }

    /// Renders the PRAM pointer as the kernel command-line argument used by
    /// the micro-reboot.
    pub fn cmdline_arg(&self) -> String {
        format!("pram={:#x}", self.pram_ptr)
    }
}

/// Parses `pram=<addr>` from a kernel command line.
pub fn pram_ptr_from_cmdline(cmdline: &str) -> Option<u64> {
    for tok in cmdline.split_whitespace() {
        if let Some(v) = tok.strip_prefix("pram=") {
            let v = v.strip_prefix("0x").unwrap_or(v);
            if let Ok(addr) = u64::from_str_radix(v, 16) {
                return Some(addr);
            }
        }
    }
    None
}

/// Builds PRAM structures into physical memory.
#[derive(Debug, Default)]
pub struct PramBuilder {
    files: Vec<PramFile>,
    pool: WorkerPool,
}

/// One file's metadata, fully prepared for serial emission: mappings
/// sorted and validated, entries packed and split into node pages. This is
/// the per-VM unit of the §4.2.5 parallelization — preparation is pure and
/// runs one file per pool worker; only frame allocation and the actual
/// page writes stay serial.
struct PreparedFile {
    name: String,
    mode: u32,
    total_pages: u64,
    /// Node pages, front-to-back: (first GFN of the run, packed entries).
    nodes: Vec<(Gfn, Vec<PackedEntry>)>,
    /// Content checksum stored in the file-info page and re-verified by
    /// [`PramImage::verify`].
    checksum: u64,
}

fn prepare_file(mut file: PramFile) -> Result<PreparedFile, PramError> {
    file.mappings.sort_by_key(|(g, _)| *g);
    // Validate for overlap.
    let mut prev_end: Option<u64> = None;
    for (g, e) in &file.mappings {
        if let Some(end) = prev_end {
            if g.0 < end {
                return Err(PramError::OverlappingMappings { gfn: *g });
            }
        }
        prev_end = Some(g.0 + e.pages());
    }
    if file.name.len() > NAME_MAX {
        return Err(PramError::NameTooLong);
    }

    // Split into GFN-contiguous runs, then into capacity-bounded node
    // pages.
    let mut nodes: Vec<(Gfn, Vec<PackedEntry>)> = Vec::new();
    let mut cur: Option<(Gfn, u64, Vec<PackedEntry>)> = None; // (base, next_gfn, entries)
    for (g, e) in &file.mappings {
        let entry = pack_entry(e.base, e.order, FLAG_GUEST);
        match &mut cur {
            Some((base, next, entries)) if *next == g.0 && entries.len() < NODE_CAPACITY => {
                entries.push(entry);
                *next += e.pages();
                let _ = base;
            }
            _ => {
                if let Some((base, _, entries)) = cur.take() {
                    nodes.push((base, entries));
                }
                cur = Some((*g, g.0 + e.pages(), vec![entry]));
            }
        }
    }
    if let Some((base, _, entries)) = cur.take() {
        nodes.push((base, entries));
    }

    let total_pages = file.total_pages();
    let checksum = file_checksum(&file.name, file.mode, total_pages, &file.mappings);
    Ok(PreparedFile {
        total_pages,
        name: file.name,
        mode: file.mode,
        nodes,
        checksum,
    })
}

impl PramBuilder {
    /// Creates an empty builder on the default worker pool
    /// ([`WorkerPool::from_env`]).
    pub fn new() -> Self {
        PramBuilder::default()
    }

    /// Replaces the worker pool used for per-file preparation at
    /// [`PramBuilder::write`] time. The encoded structure is identical for
    /// any pool.
    pub fn with_pool(mut self, pool: WorkerPool) -> Self {
        self.pool = pool;
        self
    }

    /// Adds a VM's memory map as a file.
    ///
    /// Mappings may be given in any order; they are sorted by GFN and
    /// validated for overlap at [`PramBuilder::write`] time. The map is
    /// taken by value — no per-VM clone happens on the build path.
    pub fn add_file(
        &mut self,
        name: impl Into<String>,
        mode: u32,
        mappings: Vec<(Gfn, Extent)>,
    ) -> &mut Self {
        self.files.push(PramFile {
            name: name.into(),
            mode,
            mappings,
        });
        self
    }

    /// Encodes the structure into metadata pages allocated from `ram` and
    /// returns the handle carrying the PRAM pointer.
    ///
    /// Per-file preparation (sort, validation, entry packing, node-page
    /// split) runs on the builder's worker pool, one file per task; frame
    /// allocation and page writes are serial, in file order, so the
    /// resulting structure is byte-identical for any worker count. Errors
    /// surface in file order.
    pub fn write(self, ram: &mut PhysicalMemory) -> Result<PramHandle, PramError> {
        let mut stats = PramStats {
            files: self.files.len() as u64,
            ..PramStats::default()
        };
        let prepared_results = self.pool.map(self.files, prepare_file).results;
        let mut prepared = Vec::with_capacity(prepared_results.len());
        for p in prepared_results {
            prepared.push(p?);
        }

        let mut meta_frames: Vec<Mfn> = Vec::new();
        let alloc_page =
            |ram: &mut PhysicalMemory, meta: &mut Vec<Mfn>| -> Result<Mfn, PramError> {
                let e = ram.alloc(PageOrder(0))?;
                meta.push(e.base);
                Ok(e.base)
            };

        // Emit each file: node chain first, then the file-info page.
        let mut file_ptrs: Vec<u64> = Vec::new();
        for file in &prepared {
            // Write node pages back-to-front so each can point at the next.
            let mut next_ptr = 0u64;
            for (base, entries) in file.nodes.iter().rev() {
                let mfn = alloc_page(ram, &mut meta_frames)?;
                let mut page = vec![0u8; PAGE_SIZE as usize];
                write_header(&mut page, KIND_NODE, next_ptr);
                page[16..24].copy_from_slice(&base.0.to_le_bytes());
                page[24..32].copy_from_slice(&(entries.len() as u64).to_le_bytes());
                for (i, e) in entries.iter().enumerate() {
                    let off = 32 + i * 8;
                    page[off..off + 8].copy_from_slice(&e.to_le_bytes());
                }
                ram.write_bytes(mfn, &page)?;
                next_ptr = mfn.addr();
                stats.entries += entries.len() as u64;
            }

            // File-info page.
            let mfn = alloc_page(ram, &mut meta_frames)?;
            let mut page = vec![0u8; PAGE_SIZE as usize];
            write_header(&mut page, KIND_FILE, 0);
            page[16..24].copy_from_slice(&next_ptr.to_le_bytes());
            page[24..32].copy_from_slice(&file.total_pages.to_le_bytes());
            page[32..36].copy_from_slice(&file.mode.to_le_bytes());
            page[36..40].copy_from_slice(&(file.name.len() as u32).to_le_bytes());
            page[40..40 + file.name.len()].copy_from_slice(file.name.as_bytes());
            page[CHECKSUM_OFF..CHECKSUM_OFF + 8].copy_from_slice(&file.checksum.to_le_bytes());
            ram.write_bytes(mfn, &page)?;
            file_ptrs.push(mfn.addr());
        }

        // Root directory pages, back-to-front.
        let mut root_ptr = 0u64;
        for chunk in file_ptrs.chunks(ROOT_CAPACITY).rev() {
            let mfn = alloc_page(ram, &mut meta_frames)?;
            let mut page = vec![0u8; PAGE_SIZE as usize];
            write_header(&mut page, KIND_ROOT, root_ptr);
            page[16..24].copy_from_slice(&(chunk.len() as u64).to_le_bytes());
            for (i, p) in chunk.iter().enumerate() {
                let off = 24 + i * 8;
                page[off..off + 8].copy_from_slice(&p.to_le_bytes());
            }
            ram.write_bytes(mfn, &page)?;
            root_ptr = mfn.addr();
        }
        // An empty builder still produces one (empty) root page so the
        // pointer is always valid.
        if root_ptr == 0 {
            let mfn = alloc_page(ram, &mut meta_frames)?;
            let mut page = vec![0u8; PAGE_SIZE as usize];
            write_header(&mut page, KIND_ROOT, 0);
            ram.write_bytes(mfn, &page)?;
            root_ptr = mfn.addr();
        }

        stats.metadata_pages = meta_frames.len() as u64;
        Ok(PramHandle {
            pram_ptr: root_ptr,
            meta_frames,
            stats,
        })
    }
}

fn write_header(page: &mut [u8], kind: u8, next: u64) {
    page[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    page[4] = VERSION;
    page[5] = kind;
    page[8..16].copy_from_slice(&next.to_le_bytes());
}

/// The metadata pages a parse has walked, in walk order.
#[derive(Default)]
struct MetaWalk {
    frames: Vec<Mfn>,
    seen: HashSet<Mfn>,
}

impl MetaWalk {
    /// Fetches the metadata page at `addr`, checks its header for `kind`
    /// and records it; a page already walked is refused.
    fn page<'r>(
        &mut self,
        ram: &'r PhysicalMemory,
        addr: u64,
        kind: u8,
    ) -> Result<(&'r [u8], Mfn), PramError> {
        if !addr.is_multiple_of(PAGE_SIZE) {
            return Err(PramError::UnalignedPointer { addr });
        }
        let mfn = Mfn(addr / PAGE_SIZE);
        let page = ram.read_bytes(mfn).ok_or(PramError::BadMagic { mfn })?;
        let magic = u32::from_le_bytes(page[0..4].try_into().expect("page is 4 KiB"));
        if magic != MAGIC || page[4] != VERSION {
            return Err(PramError::BadMagic { mfn });
        }
        if page[5] != kind {
            return Err(PramError::BadKind {
                mfn,
                expected: kind,
                found: page[5],
            });
        }
        if !self.seen.insert(mfn) {
            return Err(PramError::Malformed {
                mfn,
                what: "page reached twice",
            });
        }
        self.frames.push(mfn);
        Ok((page, mfn))
    }
}

/// A parsed PRAM structure, as seen by the target hypervisor at early boot.
#[derive(Debug, Clone)]
pub struct PramImage {
    /// Recovered files, in directory order.
    pub files: Vec<PramFile>,
    /// Frames holding the metadata itself.
    pub meta_frames: Vec<Mfn>,
    /// Per-file `(file-info frame, stored checksum)`, parallel to
    /// [`PramImage::files`]. Checked by [`PramImage::verify`].
    pub checksums: Vec<(Mfn, u64)>,
}

impl PramImage {
    /// Parses the structure rooted at `pram_ptr` out of physical memory.
    ///
    /// The pages are whatever survived in RAM, so nothing read from them is
    /// trusted: counts are held to the page, entries to valid extents, and
    /// a page reached twice — pointer chains of a built image never share
    /// a page — ends the walk instead of looping.
    pub fn parse(ram: &PhysicalMemory, pram_ptr: u64) -> Result<PramImage, PramError> {
        let word = |page: &[u8], off: usize| {
            u64::from_le_bytes(page[off..off + 8].try_into().expect("page is 4 KiB"))
        };
        let mut files = Vec::new();
        let mut walk = MetaWalk::default();
        let mut checksums = Vec::new();
        let mut root_addr = pram_ptr;
        while root_addr != 0 {
            let (root, root_mfn) = walk.page(ram, root_addr, KIND_ROOT)?;
            let count = word(root, 16);
            if count > ROOT_CAPACITY as u64 {
                return Err(PramError::Malformed {
                    mfn: root_mfn,
                    what: "file count exceeds the root page",
                });
            }
            for i in 0..count as usize {
                let (fpage, fmfn) = walk.page(ram, word(root, 24 + i * 8), KIND_FILE)?;
                let mut node_addr = word(fpage, 16);
                let mode = u32::from_le_bytes(fpage[32..36].try_into().expect("page"));
                let name_len = u32::from_le_bytes(fpage[36..40].try_into().expect("page")) as usize;
                let name =
                    String::from_utf8_lossy(&fpage[40..40 + name_len.min(NAME_MAX)]).into_owned();
                checksums.push((fmfn, word(fpage, CHECKSUM_OFF)));
                let mut mappings = Vec::new();
                while node_addr != 0 {
                    let (node, nmfn) = walk.page(ram, node_addr, KIND_NODE)?;
                    let malformed = |what| PramError::Malformed { mfn: nmfn, what };
                    let n = word(node, 24);
                    if n > NODE_CAPACITY as u64 {
                        return Err(malformed("entry count exceeds the node page"));
                    }
                    let mut gfn = word(node, 16);
                    for i in 0..n as usize {
                        let (mfn, order, _flags) = unpack_entry(word(node, 32 + i * 8));
                        if order > PageOrder::MAX || !mfn.is_aligned(order) {
                            return Err(malformed("entry is not an aligned extent"));
                        }
                        mappings.push((Gfn(gfn), Extent::new(mfn, order)));
                        gfn = gfn
                            .checked_add(order.pages())
                            .ok_or_else(|| malformed("guest frame numbers overflow"))?;
                    }
                    node_addr = word(node, 8);
                }
                files.push(PramFile {
                    name,
                    mode,
                    mappings,
                });
            }
            root_addr = word(root, 8);
        }
        Ok(PramImage {
            files,
            meta_frames: walk.frames,
            checksums,
        })
    }

    /// Recomputes every file's content checksum from the parsed entries
    /// and compares it against the stored value; the first mismatch is
    /// returned as [`PramError::ChecksumMismatch`].
    ///
    /// Kept separate from [`PramImage::parse`] so recovery code can still
    /// inspect a structurally sound image whose checksum failed (e.g. to
    /// rebuild its metadata after cross-checking against the live source).
    pub fn verify(&self) -> Result<(), PramError> {
        for (f, &(mfn, stored)) in self.files.iter().zip(&self.checksums) {
            let computed = file_checksum(&f.name, f.mode, f.total_pages(), &f.mappings);
            if computed != stored {
                return Err(PramError::ChecksumMismatch {
                    mfn,
                    stored,
                    computed,
                });
            }
        }
        Ok(())
    }

    /// Flips the stored checksum word of file `index`'s file-info page —
    /// a deterministic stand-in for a storage bit flip. Used by the fault
    /// injector; the damage is exactly what [`PramImage::verify`] detects
    /// and what a metadata rebuild repairs.
    pub fn corrupt_checksum(
        &self,
        ram: &mut PhysicalMemory,
        index: usize,
    ) -> Result<(), PramError> {
        let (mfn, stored) = self.checksums[index];
        let mut page = ram
            .read_bytes(mfn)
            .ok_or(PramError::BadMagic { mfn })?
            .to_vec();
        page[CHECKSUM_OFF..CHECKSUM_OFF + 8]
            .copy_from_slice(&(stored ^ 0xdead_beef_dead_beef).to_le_bytes());
        ram.write_bytes(mfn, &page)?;
        Ok(())
    }

    /// Reserves every guest frame and metadata frame so the booting
    /// hypervisor cannot recycle them (Fig. 3 step between ❹ and ❺): files
    /// in directory order, then the metadata, one reservation per
    /// physically contiguous run.
    pub fn reserve_all(&self, ram: &mut PhysicalMemory) -> Result<u64, PramError> {
        let files = self.files.iter().flat_map(PramFile::extents);
        let mut reserved = 0;
        for (base, pages) in frame_runs(files.chain(self.meta_extents())) {
            reserved += ram.reserve_range(base, pages)?;
        }
        Ok(reserved)
    }

    /// Releases the metadata pages back to the allocator (Fig. 3 step ❼:
    /// "the portions of the RAM which were used to store ephemeral data are
    /// freed"). Guest frames stay reserved until the hypervisor adopts them.
    pub fn release_metadata(&self, ram: &mut PhysicalMemory) -> Result<(), PramError> {
        for (base, pages) in frame_runs(self.meta_extents()) {
            ram.unreserve_and_free(base, pages)?;
        }
        Ok(())
    }

    /// The metadata pages as single-frame extents, in walk order.
    fn meta_extents(&self) -> impl Iterator<Item = Extent> + '_ {
        self.meta_frames
            .iter()
            .map(|&m| Extent::new(m, PageOrder(0)))
    }

    /// Total 8-byte entries across all files.
    pub fn total_entries(&self) -> u64 {
        self.files.iter().map(PramFile::total_entries).sum()
    }

    /// Looks up a file by name.
    pub fn file(&self, name: &str) -> Option<&PramFile> {
        self.files.iter().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertp_machine::HUGE_PAGE_SIZE;

    fn ram_mb(mb: u64) -> PhysicalMemory {
        PhysicalMemory::new(mb * 256)
    }

    /// Allocates `n` huge-page extents for a fake guest and returns the
    /// (gfn, extent) map.
    fn alloc_guest(ram: &mut PhysicalMemory, n: u64) -> Vec<(Gfn, Extent)> {
        (0..n)
            .map(|i| {
                let e = ram.alloc(PageOrder(9)).unwrap();
                (Gfn(i * 512), e)
            })
            .collect()
    }

    #[test]
    fn roundtrip_single_file() {
        let mut ram = ram_mb(64);
        let map = alloc_guest(&mut ram, 8);
        let mut b = PramBuilder::new();
        b.add_file("vm0", 0o600, map.clone());
        let h = b.write(&mut ram).unwrap();
        let img = PramImage::parse(&ram, h.pram_ptr).unwrap();
        assert_eq!(img.files.len(), 1);
        assert_eq!(img.files[0].name, "vm0");
        assert_eq!(img.files[0].mode, 0o600);
        assert_eq!(img.files[0].mappings, map);
        assert_eq!(img.total_entries(), 8);
        assert_eq!(img.files[0].total_bytes(), 8 * HUGE_PAGE_SIZE);
    }

    #[test]
    fn roundtrip_many_files_and_holes() {
        let mut ram = ram_mb(64);
        let mut b = PramBuilder::new();
        let mut maps = Vec::new();
        for v in 0..5 {
            let mut map = Vec::new();
            for i in 0..6u64 {
                let e = ram.alloc(PageOrder(0)).unwrap();
                // Introduce GFN holes every 3 pages.
                let gfn = i + (i / 3) * 100;
                map.push((Gfn(gfn), e));
            }
            b.add_file(format!("vm{v}"), 0, map.clone());
            maps.push(map);
        }
        let h = b.write(&mut ram).unwrap();
        let img = PramImage::parse(&ram, h.pram_ptr).unwrap();
        assert_eq!(img.files.len(), 5);
        for (v, map) in maps.iter().enumerate() {
            assert_eq!(&img.files[v].mappings, map, "vm{v}");
        }
    }

    #[test]
    fn node_capacity_spill() {
        let mut ram = ram_mb(64);
        // 1200 contiguous entries > 2 * NODE_CAPACITY forces 3 node pages.
        let map: Vec<(Gfn, Extent)> = (0..1200u64)
            .map(|i| (Gfn(i), ram.alloc(PageOrder(0)).unwrap()))
            .collect();
        let mut b = PramBuilder::new();
        b.add_file("big", 0, map.clone());
        let h = b.write(&mut ram).unwrap();
        // 3 nodes + 1 file info + 1 root.
        assert_eq!(h.stats().metadata_pages, 5);
        let img = PramImage::parse(&ram, h.pram_ptr).unwrap();
        assert_eq!(img.files[0].mappings, map);
    }

    #[test]
    fn fig14_metadata_sizes_match_paper() {
        // A 1 GB VM with 2 MiB pages -> 512 entries -> 16 KB of metadata;
        // a 12 GB VM -> 6144 entries -> 60 KB (Fig. 14).
        for (gb, want_kb) in [(1u64, 16u64), (12, 60)] {
            let mut ram = PhysicalMemory::with_gib(gb + 1);
            let map = alloc_guest(&mut ram, gb * 512);
            let mut b = PramBuilder::new();
            b.add_file("vm", 0, map);
            let h = b.write(&mut ram).unwrap();
            assert_eq!(
                h.stats().metadata_bytes(),
                want_kb * 1024,
                "{gb} GB VM metadata"
            );
        }
    }

    #[test]
    fn fig14_twelve_vms_metadata() {
        // 12 × 1 GB VMs -> 148 KB of metadata (Fig. 14).
        let mut ram = PhysicalMemory::with_gib(14);
        let mut b = PramBuilder::new();
        for v in 0..12 {
            let map: Vec<(Gfn, Extent)> = (0..512u64)
                .map(|i| (Gfn(i * 512), ram.alloc(PageOrder(9)).unwrap()))
                .collect();
            b.add_file(format!("vm{v}"), 0, map);
        }
        let h = b.write(&mut ram).unwrap();
        assert_eq!(h.stats().metadata_bytes(), 148 * 1024);
    }

    #[test]
    fn overlap_detected() {
        let mut ram = ram_mb(16);
        let e1 = ram.alloc(PageOrder(1)).unwrap();
        let e2 = ram.alloc(PageOrder(1)).unwrap();
        let mut b = PramBuilder::new();
        b.add_file("vm", 0, vec![(Gfn(0), e1), (Gfn(1), e2)]);
        assert!(matches!(
            b.write(&mut ram),
            Err(PramError::OverlappingMappings { .. })
        ));
    }

    #[test]
    fn name_too_long_detected() {
        let mut ram = ram_mb(16);
        let mut b = PramBuilder::new();
        b.add_file("x".repeat(65), 0, vec![]);
        assert!(matches!(b.write(&mut ram), Err(PramError::NameTooLong)));
    }

    #[test]
    fn scrubbed_metadata_fails_parse() {
        let mut ram = ram_mb(16);
        let map = alloc_guest(&mut ram, 1);
        let mut b = PramBuilder::new();
        b.add_file("vm", 0, map);
        let h = b.write(&mut ram).unwrap();
        ram.forget_ownership();
        // No reservation: scrubbing destroys the metadata.
        ram.scrub_unreserved();
        assert!(matches!(
            PramImage::parse(&ram, h.pram_ptr),
            Err(PramError::BadMagic { .. })
        ));
    }

    #[test]
    fn survives_kexec_with_reservation() {
        let mut ram = ram_mb(64);
        let map = alloc_guest(&mut ram, 4);
        for (_, e) in &map {
            ram.write(e.base, 0x1234).unwrap();
        }
        let mut b = PramBuilder::new();
        b.add_file("vm", 0, map.clone());
        let h = b.write(&mut ram).unwrap();
        // Simulated kexec: ownership forgotten, then the new kernel parses
        // PRAM, reserves and scrubs the rest.
        ram.forget_ownership();
        let img = PramImage::parse(&ram, h.pram_ptr).unwrap();
        img.reserve_all(&mut ram).unwrap();
        ram.scrub_unreserved();
        // Guest contents intact.
        for (_, e) in &map {
            assert_eq!(ram.read(e.base).unwrap(), 0x1234);
        }
        // Metadata can be released after restoration.
        img.release_metadata(&mut ram).unwrap();
    }

    #[test]
    fn cmdline_roundtrip() {
        let mut ram = ram_mb(16);
        let b = PramBuilder::new();
        let h = b.write(&mut ram).unwrap();
        let arg = h.cmdline_arg();
        assert_eq!(pram_ptr_from_cmdline(&arg), Some(h.pram_ptr));
        assert_eq!(
            pram_ptr_from_cmdline(&format!("console=ttyS0 {arg} quiet")),
            Some(h.pram_ptr)
        );
        assert_eq!(pram_ptr_from_cmdline("console=ttyS0"), None);
    }

    #[test]
    fn empty_builder_produces_empty_image() {
        let mut ram = ram_mb(16);
        let h = PramBuilder::new().write(&mut ram).unwrap();
        assert_eq!(h.stats().metadata_pages, 1);
        let img = PramImage::parse(&ram, h.pram_ptr).unwrap();
        assert!(img.files.is_empty());
        assert_eq!(img.total_entries(), 0);
    }

    #[test]
    fn unaligned_pointer_rejected() {
        let ram = ram_mb(16);
        assert!(matches!(
            PramImage::parse(&ram, 0x1001),
            Err(PramError::UnalignedPointer { .. })
        ));
    }

    /// A valid 3-file image whose metadata has every shape: a root page,
    /// file pages, and a node chain three pages long.
    fn three_file_image(ram: &mut PhysicalMemory) -> PramHandle {
        let mut b = PramBuilder::new();
        for (v, entries) in [(0u64, 1200u64), (1, 40), (2, 7)] {
            let map: Vec<(Gfn, Extent)> = (0..entries)
                .map(|i| {
                    let order = PageOrder(if v > 0 && i % 3 == 0 { 2 } else { 0 });
                    // File 0 is one contiguous run (it spills node pages on
                    // capacity); the others have a hole every fifth entry.
                    let gfn = if v == 0 { i } else { i * 8 + i / 5 };
                    (Gfn(gfn), ram.alloc(order).unwrap())
                })
                .collect();
            b.add_file(format!("vm{v}"), 0o600, map);
        }
        b.write(ram).unwrap()
    }

    /// Overwrites `bytes` at `off` in a metadata page.
    fn poke(ram: &mut PhysicalMemory, mfn: Mfn, off: usize, bytes: &[u8]) {
        let mut page = ram.read_bytes(mfn).unwrap().to_vec();
        page[off..off + bytes.len()].copy_from_slice(bytes);
        ram.write_bytes(mfn, &page).unwrap();
    }

    #[test]
    fn hostile_metadata_is_refused_not_trusted() {
        let mut ram = ram_mb(16);
        let h = three_file_image(&mut ram);
        let root = *h.meta_frames.last().unwrap();
        // File 0's chain was written back to front: its head is the third
        // page allocated, its file page the fourth.
        let (tail, head, file0) = (h.meta_frames[0], h.meta_frames[2], h.meta_frames[3]);
        let parse = |ram: &PhysicalMemory| PramImage::parse(ram, h.pram_ptr).map(|_| ());
        let malformed = |mfn, what| Err(PramError::Malformed { mfn, what });
        let mut check = |mfn: Mfn, off: usize, bytes: &[u8], want: Result<(), PramError>| {
            let saved = ram.read_bytes(mfn).unwrap().to_vec();
            poke(&mut ram, mfn, off, bytes);
            assert_eq!(parse(&ram), want, "{mfn} +{off}");
            ram.write_bytes(mfn, &saved).unwrap();
            assert_eq!(parse(&ram), Ok(()));
        };

        let count = (ROOT_CAPACITY as u64 + 1).to_le_bytes();
        check(
            root,
            16,
            &count,
            malformed(root, "file count exceeds the root page"),
        );
        let n = (NODE_CAPACITY as u64 + 1).to_le_bytes();
        check(
            head,
            24,
            &n,
            malformed(head, "entry count exceeds the node page"),
        );
        check(
            head,
            24,
            &u64::MAX.to_le_bytes(),
            malformed(head, "entry count exceeds the node page"),
        );
        // Order 10, then order 2 at an odd frame.
        let entry = (pack_entry(Mfn(0), PageOrder(0), FLAG_GUEST) | 10 << 52).to_le_bytes();
        check(
            head,
            32,
            &entry,
            malformed(head, "entry is not an aligned extent"),
        );
        let entry = (pack_entry(Mfn(0), PageOrder(0), FLAG_GUEST) | 2 << 52 | 3).to_le_bytes();
        check(
            head,
            32,
            &entry,
            malformed(head, "entry is not an aligned extent"),
        );
        let gfn = (u64::MAX - 5).to_le_bytes();
        check(
            head,
            16,
            &gfn,
            malformed(head, "guest frame numbers overflow"),
        );
        // The last node points back at the first; the root at itself; two
        // directory slots at one file.
        check(
            tail,
            8,
            &head.addr().to_le_bytes(),
            malformed(head, "page reached twice"),
        );
        check(
            root,
            8,
            &root.addr().to_le_bytes(),
            malformed(root, "page reached twice"),
        );
        check(
            root,
            32,
            &file0.addr().to_le_bytes(),
            malformed(file0, "page reached twice"),
        );
    }

    /// Seeded mutations of a valid image's metadata pages — stray bytes,
    /// header and count fields, pointers spliced to other metadata pages —
    /// never panic the parser or the verifier and never hang them.
    /// `HYPERTP_SEED` (decimal or `0x` hex) probes another seed.
    #[test]
    fn mutated_metadata_never_panics_or_hangs() {
        let seed = match std::env::var("HYPERTP_SEED") {
            Ok(s) => {
                let s = s.trim();
                let (digits, radix) = s.strip_prefix("0x").map_or((s, 10), |hex| (hex, 16));
                u64::from_str_radix(digits, radix).expect("HYPERTP_SEED is a number")
            }
            Err(_) => 0x99a8_0002,
        };
        let mut rng = hypertp_sim::SimRng::new(seed);
        let mut ram = ram_mb(16);
        let h = three_file_image(&mut ram);
        PramImage::parse(&ram, h.pram_ptr)
            .unwrap()
            .verify()
            .unwrap();
        let (mut refused, mut accepted) = (0, 0);
        for case in 0..10_000 {
            let victims = 1 + rng.gen_range(2);
            let mut saved = Vec::new();
            for _ in 0..victims {
                let mfn = h.meta_frames[rng.gen_range(h.meta_frames.len() as u64) as usize];
                saved.push((mfn, ram.read_bytes(mfn).unwrap().to_vec()));
                match rng.gen_range(4) {
                    // A pointer field aimed at some other metadata page.
                    0 => {
                        let to = h.meta_frames[rng.gen_range(h.meta_frames.len() as u64) as usize];
                        let off = [8usize, 16, 24, 32][rng.gen_range(4) as usize];
                        poke(&mut ram, mfn, off, &to.addr().to_le_bytes());
                    }
                    // A whole word of the header, counts or first entries.
                    1 => {
                        let off = 8 * rng.gen_range(8) as usize;
                        poke(&mut ram, mfn, off, &rng.next_u64().to_le_bytes());
                    }
                    // One to eight bytes, in the fields or anywhere.
                    _ => {
                        let span = if rng.gen_bool(0.7) { 112 } else { PAGE_SIZE };
                        for _ in 0..1 + rng.gen_range(8) {
                            let off = rng.gen_range(span) as usize;
                            poke(&mut ram, mfn, off, &[rng.next_u64() as u8]);
                        }
                    }
                }
            }
            match PramImage::parse(&ram, h.pram_ptr).and_then(|img| img.verify()) {
                Ok(()) => accepted += 1,
                Err(_) => refused += 1,
            }
            for (mfn, page) in saved.into_iter().rev() {
                ram.write_bytes(mfn, &page).unwrap();
            }
            assert!(
                PramImage::parse(&ram, h.pram_ptr).is_ok(),
                "seed {seed:#x} case {case}: image not restored"
            );
        }
        // Most mutations land in a field that matters; some in slack.
        assert!(
            refused > 5_000 && accepted > 100,
            "{refused} refused, {accepted} accepted"
        );
    }

    #[test]
    fn write_identical_for_any_worker_count() {
        // The encoded PRAM structure (pointer, frame list, stats and the
        // metadata page bytes) must not depend on the pool width used for
        // per-file preparation.
        let build = |pool: WorkerPool| {
            let mut ram = ram_mb(64);
            let mut b = PramBuilder::new().with_pool(pool);
            for v in 0..6u64 {
                let map: Vec<(Gfn, Extent)> = (0..40u64)
                    .map(|i| {
                        let order = PageOrder((i % 3) as u8);
                        // Holes every 5 entries.
                        (Gfn(i * 16 + (i / 5)), ram.alloc(order).unwrap())
                    })
                    .collect();
                b.add_file(format!("vm{v}"), 0o600, map);
            }
            let h = b.write(&mut ram).unwrap();
            let pages: Vec<Vec<u8>> = h
                .meta_frames
                .iter()
                .map(|&m| ram.read_bytes(m).unwrap().to_vec())
                .collect();
            (h.pram_ptr, h.meta_frames.clone(), h.stats(), pages)
        };
        let serial = build(WorkerPool::serial());
        for workers in [2usize, 4, 16] {
            assert_eq!(serial, build(WorkerPool::new(workers)), "workers={workers}");
        }
    }

    #[test]
    fn verify_passes_on_clean_image() {
        let mut ram = ram_mb(64);
        let map = alloc_guest(&mut ram, 8);
        let mut b = PramBuilder::new();
        b.add_file("vm0", 0o600, map);
        let h = b.write(&mut ram).unwrap();
        let img = PramImage::parse(&ram, h.pram_ptr).unwrap();
        assert_eq!(img.checksums.len(), 1);
        img.verify().unwrap();
    }

    #[test]
    fn corrupted_checksum_word_fails_verify_and_rebuild_repairs() {
        let mut ram = ram_mb(64);
        let mut b = PramBuilder::new();
        let mut maps = Vec::new();
        for v in 0..3 {
            let map = alloc_guest(&mut ram, 4);
            b.add_file(format!("vm{v}"), 0o600, map.clone());
            maps.push(map);
        }
        let h = b.write(&mut ram).unwrap();
        let img = PramImage::parse(&ram, h.pram_ptr).unwrap();
        img.corrupt_checksum(&mut ram, 1).unwrap();

        // Re-parse sees the corrupted word; verify pinpoints the file.
        let img = PramImage::parse(&ram, h.pram_ptr).unwrap();
        let err = img.verify().unwrap_err();
        let PramError::ChecksumMismatch {
            stored, computed, ..
        } = err
        else {
            panic!("want ChecksumMismatch, got {err}");
        };
        assert_ne!(stored, computed);

        // Recovery: entries are intact, so rebuilding metadata from the
        // parsed structure (after releasing the old pages) yields a clean
        // image over the very same guest frames.
        for &m in &h.meta_frames {
            ram.free(Extent::new(m, PageOrder(0))).unwrap();
        }
        let mut rb = PramBuilder::new();
        for f in &img.files {
            rb.add_file(f.name.clone(), f.mode, f.mappings.clone());
        }
        let h2 = rb.write(&mut ram).unwrap();
        let img2 = PramImage::parse(&ram, h2.pram_ptr).unwrap();
        img2.verify().unwrap();
        for (v, map) in maps.iter().enumerate() {
            assert_eq!(&img2.files[v].mappings, map, "vm{v}");
        }
    }

    #[test]
    fn checksum_depends_on_every_field() {
        let mut ram = ram_mb(16);
        let e = ram.alloc(PageOrder(0)).unwrap();
        let base = file_checksum("vm0", 0o600, 1, &[(Gfn(5), e)]);
        assert_ne!(base, file_checksum("vm1", 0o600, 1, &[(Gfn(5), e)]));
        assert_ne!(base, file_checksum("vm0", 0o400, 1, &[(Gfn(5), e)]));
        assert_ne!(base, file_checksum("vm0", 0o600, 2, &[(Gfn(5), e)]));
        assert_ne!(base, file_checksum("vm0", 0o600, 1, &[(Gfn(6), e)]));
        assert_ne!(base, file_checksum("vm0", 0o600, 1, &[]));
    }

    #[test]
    fn randomized_roundtrip_random_layouts() {
        // Deterministic randomized loop (formerly proptest, 64 cases).
        let mut meta = hypertp_sim::SimRng::new(0x99a8_0001);
        for _ in 0..64 {
            let seed = meta.next_u64();
            let n_files = 1 + meta.gen_range(3) as usize;
            let per_file = 1 + meta.gen_range(39) as usize;
            let mut ram = PhysicalMemory::new(64 * 256);
            let mut rng = hypertp_sim::SimRng::new(seed);
            let mut b = PramBuilder::new();
            let mut maps = Vec::new();
            for v in 0..n_files {
                let mut map = Vec::new();
                let mut gfn = 0u64;
                for _ in 0..per_file {
                    let order = PageOrder(if rng.gen_bool(0.3) { 2 } else { 0 });
                    let Ok(e) = ram.alloc(order) else { break };
                    gfn += rng.gen_range(4); // Random holes (0 = contiguous).
                    map.push((Gfn(gfn), e));
                    gfn += e.pages();
                }
                b.add_file(format!("vm{v}"), 0, map.clone());
                maps.push(map);
            }
            let h = b.write(&mut ram).unwrap();
            let img = PramImage::parse(&ram, h.pram_ptr).unwrap();
            assert_eq!(img.files.len(), n_files);
            for (v, map) in maps.iter().enumerate() {
                assert_eq!(&img.files[v].mappings, map);
            }
        }
    }
}
