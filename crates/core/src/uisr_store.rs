//! Persisting encoded UISR blobs in RAM across the micro-reboot.
//!
//! InPlaceTP "translates VM states into the UISR neutral format, followed by
//! the saving of the latter in RAM" (§4.2). We persist each VM's encoded
//! UISR as an extra PRAM file named `uisr/<vm>`: the blob is chunked into
//! freshly allocated frames whose byte contents carry the encoding, and the
//! PRAM reservation machinery then protects them across the kexec exactly
//! like guest memory.
//!
//! Blob file layout: the first page starts with an 8-byte little-endian
//! length, followed by the blob bytes; subsequent pages are raw
//! continuation bytes. File GFNs are the sequential chunk index (the blob
//! is a file, not guest-physical memory).

use hypertp_machine::{frame_runs, Extent, Gfn, PageOrder, PhysicalMemory, PAGE_SIZE};
use hypertp_pram::{PramBuilder, PramFile};

use crate::error::HtpError;

/// Name prefix distinguishing UISR blob files from guest-memory files
/// inside the same PRAM directory.
pub(crate) const UISR_FILE_PREFIX: &str = "uisr/";

/// Returns the PRAM file name for a VM's UISR blob.
pub fn uisr_file_name(vm_name: &str) -> String {
    format!("{UISR_FILE_PREFIX}{vm_name}")
}

/// True if a PRAM file carries a UISR blob rather than guest memory.
pub fn is_uisr_file(file: &PramFile) -> bool {
    file.name.starts_with(UISR_FILE_PREFIX)
}

/// The VM name a UISR blob file belongs to (inverse of
/// [`uisr_file_name`]), or `None` for guest-memory files. The post-kexec
/// tail pairs each blob with its guest file by this name — after a
/// hypervisor crash there is no live source left to ask.
pub(crate) fn vm_name_from_uisr_file(file: &PramFile) -> Option<&str> {
    file.name.strip_prefix(UISR_FILE_PREFIX)
}

/// Writes `blob` into freshly allocated frames and returns the chunk
/// mappings (without recording a PRAM file). The warm checkpointer reuses
/// this to re-encode one VM's blob while keeping the other VMs' existing
/// frames in place.
pub(crate) fn write_blob(
    ram: &mut PhysicalMemory,
    blob: &[u8],
) -> Result<Vec<(Gfn, Extent)>, HtpError> {
    let total = 8 + blob.len();
    let pages = total.div_ceil(PAGE_SIZE as usize);
    let mut mappings = Vec::with_capacity(pages);
    let mut cursor = 0usize;
    for chunk_idx in 0..pages {
        let extent = ram.alloc(PageOrder(0))?;
        let mut page = vec![0u8; PAGE_SIZE as usize];
        let mut off = 0usize;
        if chunk_idx == 0 {
            page[0..8].copy_from_slice(&(blob.len() as u64).to_le_bytes());
            off = 8;
        }
        let n = (PAGE_SIZE as usize - off).min(blob.len() - cursor);
        page[off..off + n].copy_from_slice(&blob[cursor..cursor + n]);
        cursor += n;
        ram.write_bytes(extent.base, &page)?;
        mappings.push((Gfn(chunk_idx as u64), extent));
    }
    Ok(mappings)
}

/// Stores `blob` into freshly allocated frames and records them as a PRAM
/// file on `builder`.
pub fn store_blob(
    ram: &mut PhysicalMemory,
    builder: &mut PramBuilder,
    vm_name: &str,
    blob: &[u8],
) -> Result<(), HtpError> {
    let mappings = write_blob(ram, blob)?;
    builder.add_file(uisr_file_name(vm_name), 0o400, mappings);
    Ok(())
}

/// Loads a blob back from a parsed PRAM file.
pub fn load_blob(ram: &PhysicalMemory, file: &PramFile) -> Result<Vec<u8>, HtpError> {
    let mut pages = file.mappings.clone();
    pages.sort_by_key(|(g, _)| *g);
    let mut raw = Vec::with_capacity(pages.len() * PAGE_SIZE as usize);
    for (_, e) in &pages {
        for mfn in e.frames() {
            let bytes = ram
                .read_bytes(mfn)
                .ok_or(HtpError::Pram(hypertp_pram::PramError::BadMagic { mfn }))?;
            raw.extend_from_slice(bytes);
        }
    }
    // The length word was read back from RAM: compare it with what is
    // there rather than adding to it (`u64::MAX` would wrap the sum).
    raw.split_first_chunk::<8>()
        .and_then(|(len, body)| body.get(..usize::try_from(u64::from_le_bytes(*len)).ok()?))
        .map(<[u8]>::to_vec)
        .ok_or(HtpError::Codec(hypertp_uisr::CodecError::Truncated))
}

/// Frees a UISR blob file's frames (cleanup step ❼).
pub fn release_blob(ram: &mut PhysicalMemory, file: &PramFile) -> Result<(), HtpError> {
    for (base, pages) in frame_runs(file.extents()) {
        ram.unreserve_and_free(base, pages)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertp_pram::PramImage;

    #[test]
    fn blob_roundtrip_through_kexec() {
        let mut ram = PhysicalMemory::new(4096);
        let blob: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let mut builder = PramBuilder::new();
        store_blob(&mut ram, &mut builder, "vm0", &blob).unwrap();
        let handle = builder.write(&mut ram).unwrap();

        // Simulate the micro-reboot.
        ram.forget_ownership();
        let img = PramImage::parse(&ram, handle.pram_ptr).unwrap();
        img.reserve_all(&mut ram).unwrap();
        ram.scrub_unreserved();

        let file = img.file(&uisr_file_name("vm0")).unwrap();
        assert!(is_uisr_file(file));
        let back = load_blob(&ram, file).unwrap();
        assert_eq!(back, blob);

        // Cleanup returns frames to the allocator.
        let free_before = ram.free_frames();
        release_blob(&mut ram, file).unwrap();
        assert!(ram.free_frames() > free_before);
    }

    #[test]
    fn vm_name_roundtrips_through_file_name() {
        let mut ram = PhysicalMemory::new(64);
        let mut builder = PramBuilder::new();
        store_blob(&mut ram, &mut builder, "web-01", b"x").unwrap();
        let handle = builder.write(&mut ram).unwrap();
        let img = PramImage::parse(&ram, handle.pram_ptr).unwrap();
        let file = img.file("uisr/web-01").unwrap();
        assert_eq!(vm_name_from_uisr_file(file), Some("web-01"));
        // A guest-memory file is not a UISR file.
        let guest = PramFile {
            name: "web-01".to_string(),
            mode: 0o600,
            mappings: Vec::new(),
        };
        assert_eq!(vm_name_from_uisr_file(&guest), None);
    }

    #[test]
    fn empty_blob() {
        let mut ram = PhysicalMemory::new(64);
        let mut builder = PramBuilder::new();
        store_blob(&mut ram, &mut builder, "vm0", &[]).unwrap();
        let handle = builder.write(&mut ram).unwrap();
        let img = PramImage::parse(&ram, handle.pram_ptr).unwrap();
        let back = load_blob(&ram, img.file("uisr/vm0").unwrap()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn page_boundary_blob_sizes() {
        for len in [4087usize, 4088, 4089, 8184, 8192] {
            let mut ram = PhysicalMemory::new(4096);
            let blob: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let mut builder = PramBuilder::new();
            store_blob(&mut ram, &mut builder, "vm0", &blob).unwrap();
            let handle = builder.write(&mut ram).unwrap();
            let img = PramImage::parse(&ram, handle.pram_ptr).unwrap();
            let back = load_blob(&ram, img.file("uisr/vm0").unwrap()).unwrap();
            assert_eq!(back, blob, "len {len}");
        }
    }

    #[test]
    fn corrupt_length_word_is_truncation() {
        let mut ram = PhysicalMemory::new(64);
        let mut builder = PramBuilder::new();
        store_blob(&mut ram, &mut builder, "vm0", b"hello").unwrap();
        let handle = builder.write(&mut ram).unwrap();
        let img = PramImage::parse(&ram, handle.pram_ptr).unwrap();
        let file = img.file("uisr/vm0").unwrap();
        let first = file.mappings[0].1.base;
        let raw_len = PAGE_SIZE; // One page holds the length word and "hello".
        for len in [u64::MAX, raw_len - 7] {
            let mut page = ram.read_bytes(first).unwrap().to_vec();
            page[0..8].copy_from_slice(&len.to_le_bytes());
            ram.write_bytes(first, &page).unwrap();
            assert!(
                matches!(
                    load_blob(&ram, file),
                    Err(HtpError::Codec(hypertp_uisr::CodecError::Truncated))
                ),
                "length word {len:#x}"
            );
        }
        // The largest length the page can hold still loads.
        let mut page = ram.read_bytes(first).unwrap().to_vec();
        page[0..8].copy_from_slice(&(raw_len - 8).to_le_bytes());
        ram.write_bytes(first, &page).unwrap();
        assert_eq!(load_blob(&ram, file).unwrap().len() as u64, raw_len - 8);
    }

    #[test]
    fn scrubbed_blob_fails_cleanly() {
        let mut ram = PhysicalMemory::new(64);
        let mut builder = PramBuilder::new();
        store_blob(&mut ram, &mut builder, "vm0", b"hello").unwrap();
        let handle = builder.write(&mut ram).unwrap();
        let img = PramImage::parse(&ram, handle.pram_ptr).unwrap();
        ram.forget_ownership();
        ram.scrub_unreserved(); // No reservation -> blob destroyed.
        assert!(load_blob(&ram, img.file("uisr/vm0").unwrap()).is_err());
    }
}
