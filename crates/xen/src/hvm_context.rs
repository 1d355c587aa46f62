//! The HVM context record stream (`xc_domain_hvm_get/setcontext`).
//!
//! Xen serializes a domain's platform state as a sequence of typed records,
//! each preceded by a `hvm_save_descriptor { typecode, instance, length }`.
//! The paper integrates these functions directly into InPlaceTP "as part of
//! the VM save/load process" (§4.2.1); our `to_uisr` path therefore starts
//! from this byte stream, exactly as the prototype's userspace tooling does
//! via libxenctrl.

use hypertp_uisr::layout::{Layout, Reader};
use hypertp_uisr::{layout_struct, CodecError};

use crate::hvm_types::{
    HvmHwCpu, HvmHwIoapic, HvmHwLapic, HvmHwMtrr, HvmHwPit, HvmHwXsave, HvmPitChannel, HvmSegment,
};

/// Record typecodes (Xen's `HVM_SAVE_CODE(...)` values).
pub(crate) mod typecode {
    /// Stream header.
    pub(crate) const HEADER: u16 = 1;
    /// Per-vCPU CPU state.
    pub const CPU: u16 = 2;
    /// Virtual IOAPIC.
    pub const IOAPIC: u16 = 4;
    /// Per-vCPU LAPIC bookkeeping.
    pub const LAPIC: u16 = 5;
    /// Per-vCPU LAPIC register page.
    pub const LAPIC_REGS: u16 = 6;
    /// Virtual PIT.
    pub const PIT: u16 = 10;
    /// Per-vCPU MTRRs.
    pub const MTRR: u16 = 14;
    /// Per-vCPU XSAVE area.
    pub const XSAVE: u16 = 16;
    /// End of stream.
    pub(crate) const END: u16 = 0;
}

/// Stream header (Xen's `hvm_save_header`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HvmSaveHeader {
    /// Magic value ("HVM2" little-endian).
    pub magic: u32,
    /// Xen version that produced the stream.
    pub version: u32,
    /// Changeset (unused here, kept for layout fidelity).
    pub changeset: u64,
    /// CPUID signature of the saving host.
    pub cpuid: u32,
    /// Guest TSC frequency in kHz.
    pub gtsc_khz: u32,
}

/// The header magic: "HVM2".
pub(crate) const HVM_MAGIC: u32 = 0x3254_4d48;

impl Default for HvmSaveHeader {
    fn default() -> Self {
        HvmSaveHeader {
            magic: HVM_MAGIC,
            version: 2,
            changeset: 0,
            cpuid: 0x000_906ea, // Arbitrary but stable host signature.
            gtsc_khz: 2_500_000,
        }
    }
}

/// One parsed record from an HVM context stream.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum HvmRecord {
    /// Stream header.
    Header(HvmSaveHeader),
    /// Per-vCPU CPU state; the `u16` is the vCPU instance.
    Cpu(u16, Box<HvmHwCpu>),
    /// Per-vCPU LAPIC bookkeeping.
    Lapic(u16, HvmHwLapic),
    /// Per-vCPU LAPIC register page.
    LapicRegs(u16, Vec<u8>),
    /// Per-vCPU MTRRs.
    Mtrr(u16, Box<HvmHwMtrr>),
    /// Per-vCPU XSAVE area.
    Xsave(u16, HvmHwXsave),
    /// The domain's IOAPIC.
    Ioapic(HvmHwIoapic),
    /// The domain's PIT.
    Pit(HvmHwPit),
}

/// Errors from HVM context parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ContextError {
    /// Stream shorter than a descriptor or record body.
    Truncated,
    /// Missing or malformed header.
    BadHeader,
    /// A record's length field disagrees with its typecode.
    BadLength {
        /// Record typecode.
        typecode: u16,
        /// Length found in the descriptor.
        length: u32,
    },
    /// Unknown record typecode.
    UnknownTypecode(u16),
    /// Stream did not terminate with an END record.
    MissingEnd,
}

impl std::fmt::Display for ContextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContextError::Truncated => write!(f, "truncated HVM context"),
            ContextError::BadHeader => write!(f, "bad HVM context header"),
            ContextError::BadLength { typecode, length } => {
                write!(f, "bad length {length} for typecode {typecode}")
            }
            ContextError::UnknownTypecode(t) => write!(f, "unknown typecode {t}"),
            ContextError::MissingEnd => write!(f, "missing END record"),
        }
    }
}

impl std::error::Error for ContextError {}

/// The record bodies here hold only fixed-width fields, so the one error
/// the shared decoder can return for them is running out of bytes.
impl From<CodecError> for ContextError {
    fn from(_: CodecError) -> Self {
        ContextError::Truncated
    }
}

// The field tables of the fixed-layout records, in Xen's wire order
// (declaration order). LAPIC_REGS (a raw page), XSAVE (a raw area filling
// the rest of its body) and IOAPIC (a `u8` pin count) are framed by hand.

layout_struct! { HvmSaveHeader { magic, version, changeset, cpuid, gtsc_khz } }
layout_struct! { HvmSegment { sel, limit, base, arbytes } }
layout_struct! { HvmHwCpu {
    gprs, rip, rflags, crs, drs, segs, gdtr_base, gdtr_limit, idtr_base, idtr_limit, sysenter,
    shadow_gs, msr_flags, msr_lstar, msr_star, msr_cstar, msr_syscall_mask, msr_efer,
    msr_tsc_aux, tsc, fpu_regs, pending_event, error_code,
} }
layout_struct! { HvmHwLapic { apic_base_msr, disabled, timer_divisor, tdt_msr } }
layout_struct! { HvmHwMtrr {
    msr_pat_cr, msr_mtrr_var, msr_mtrr_fixed, msr_mtrr_cap, msr_mtrr_def_type,
} }
layout_struct! { HvmPitChannel {
    count, latched_count, count_latched, status_latched, status, read_state, write_state,
    write_latch, rw_mode, mode, bcd, gate,
} }
layout_struct! { HvmHwPit { channels, speaker_data_on } }

/// Appends one record: its descriptor, then the body `body` writes, whose
/// length goes back into the descriptor.
fn put_record(out: &mut Vec<u8>, typecode: u16, instance: u16, body: impl FnOnce(&mut Vec<u8>)) {
    typecode.put(out);
    instance.put(out);
    let len_pos = out.len();
    0u32.put(out);
    body(out);
    let len = (out.len() - len_pos - 4) as u32;
    out[len_pos..len_pos + 4].copy_from_slice(&len.to_le_bytes());
}

/// Serializes records into an HVM context byte stream (with header and END
/// record).
pub(crate) fn save_context(header: &HvmSaveHeader, records: &[HvmRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    put_record(&mut out, typecode::HEADER, 0, |o| header.put(o));
    for rec in records {
        let o = &mut out;
        match rec {
            HvmRecord::Header(_) => {} // Header is written once, above.
            HvmRecord::Cpu(i, c) => put_record(o, typecode::CPU, *i, |o| c.put(o)),
            HvmRecord::Lapic(i, l) => put_record(o, typecode::LAPIC, *i, |o| l.put(o)),
            HvmRecord::LapicRegs(i, page) => {
                put_record(o, typecode::LAPIC_REGS, *i, |o| o.extend_from_slice(page))
            }
            HvmRecord::Mtrr(i, m) => put_record(o, typecode::MTRR, *i, |o| m.put(o)),
            HvmRecord::Xsave(i, x) => put_record(o, typecode::XSAVE, *i, |o| {
                (x.xcr0, x.xcr0_accum).put(o);
                o.extend_from_slice(&x.area);
            }),
            HvmRecord::Ioapic(io) => put_record(o, typecode::IOAPIC, 0, |o| {
                let pins = io.redirtbl.len() as u8;
                (io.base_address, io.ioregsel, io.id, pins).put(o);
                u64::put_slice(&io.redirtbl, o);
            }),
            HvmRecord::Pit(p) => put_record(o, typecode::PIT, 0, |o| p.put(o)),
        }
    }
    put_record(&mut out, typecode::END, 0, |_| {});
    out
}

/// Decodes a record body with `get`, which must take exactly the body: a
/// fixed-layout record is exactly its size and an IOAPIC exactly
/// `14 + 8 × pins`, and a body short or long of that is
/// [`ContextError::BadLength`].
fn exact<T>(
    typecode: u16,
    body: &[u8],
    get: impl FnOnce(&mut Reader<'_>) -> Result<T, CodecError>,
) -> Result<T, ContextError> {
    let mut r = Reader::new(body);
    match get(&mut r) {
        Ok(value) if r.is_empty() => Ok(value),
        _ => Err(ContextError::BadLength {
            typecode,
            length: body.len() as u32,
        }),
    }
}

/// Parses an HVM context byte stream into records. The header is returned
/// as the first record.
pub(crate) fn load_context(buf: &[u8]) -> Result<Vec<HvmRecord>, ContextError> {
    let mut r = Reader::new(buf);
    let mut out = Vec::new();
    let mut saw_header = false;
    let mut saw_end = false;
    while !r.is_empty() {
        let (typecode, instance) = (u16::get(&mut r)?, u16::get(&mut r)?);
        let length = u32::get(&mut r)?;
        let body = r.take(length as usize)?;
        out.push(match typecode {
            typecode::END => {
                saw_end = true;
                break;
            }
            typecode::HEADER => {
                let h = exact(typecode, body, HvmSaveHeader::get)?;
                if h.magic != HVM_MAGIC {
                    return Err(ContextError::BadHeader);
                }
                saw_header = true;
                HvmRecord::Header(h)
            }
            typecode::CPU => {
                HvmRecord::Cpu(instance, Box::new(exact(typecode, body, Layout::get)?))
            }
            typecode::LAPIC => HvmRecord::Lapic(instance, exact(typecode, body, Layout::get)?),
            typecode::LAPIC_REGS => HvmRecord::LapicRegs(instance, body.to_vec()),
            typecode::MTRR => {
                HvmRecord::Mtrr(instance, Box::new(exact(typecode, body, Layout::get)?))
            }
            typecode::XSAVE => {
                let mut br = Reader::new(body);
                let (xcr0, xcr0_accum) = <(u64, u64)>::get(&mut br)?;
                let area = br.rest().to_vec();
                HvmRecord::Xsave(
                    instance,
                    HvmHwXsave {
                        xcr0,
                        xcr0_accum,
                        area,
                    },
                )
            }
            typecode::IOAPIC => HvmRecord::Ioapic(exact(typecode, body, |r| {
                let (base_address, ioregsel, id, pins) = <(u64, u32, u8, u8)>::get(r)?;
                let redirtbl = u64::get_vec(r, usize::from(pins))?;
                Ok(HvmHwIoapic {
                    base_address,
                    ioregsel,
                    id,
                    redirtbl,
                })
            })?),
            typecode::PIT => HvmRecord::Pit(exact(typecode, body, Layout::get)?),
            t => return Err(ContextError::UnknownTypecode(t)),
        });
    }
    if !saw_header {
        return Err(ContextError::BadHeader);
    }
    if !saw_end {
        return Err(ContextError::MissingEnd);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::field_reassign_with_default)]
    fn sample_records() -> Vec<HvmRecord> {
        let mut cpu = HvmHwCpu::default();
        cpu.rip = 0xffff_8000_0010_0000;
        cpu.gprs[0] = 42;
        cpu.msr_efer = 0xd01;
        cpu.fpu_regs[24] = 0x80; // mxcsr low byte
        vec![
            HvmRecord::Cpu(0, Box::new(cpu)),
            HvmRecord::Lapic(
                0,
                HvmHwLapic {
                    apic_base_msr: 0xfee0_0900,
                    disabled: 0,
                    timer_divisor: 3,
                    tdt_msr: 0,
                },
            ),
            HvmRecord::LapicRegs(0, vec![0xaa; 1024]),
            HvmRecord::Mtrr(0, Box::default()),
            HvmRecord::Xsave(
                0,
                HvmHwXsave {
                    xcr0: 7,
                    xcr0_accum: 7,
                    area: vec![1, 2, 3, 4],
                },
            ),
            HvmRecord::Ioapic(HvmHwIoapic::default()),
            HvmRecord::Pit(HvmHwPit::default()),
        ]
    }

    #[test]
    fn roundtrip() {
        let recs = sample_records();
        let buf = save_context(&HvmSaveHeader::default(), &recs);
        let back = load_context(&buf).unwrap();
        assert!(matches!(back[0], HvmRecord::Header(_)));
        assert_eq!(&back[1..], &recs[..]);
    }

    #[test]
    fn cpu_record_length_constant_matches() {
        let recs = vec![HvmRecord::Cpu(0, Box::default())];
        let buf = save_context(&HvmSaveHeader::default(), &recs);
        // Header record: 8 desc + 24 body. CPU descriptor at offset 32.
        let len = u32::from_le_bytes(buf[36..40].try_into().unwrap());
        assert_eq!(len as usize, HvmHwCpu::default().size());
        // Xen's `hvm_hw_cpu`, counted by hand: 40 words of registers and
        // syscall MSRs, 8 segments of 20 bytes, GDTR/IDTR (24), the
        // 512-byte FXSAVE image and the pending event (8).
        assert_eq!(len, 40 * 8 + 8 * 20 + 24 + 512 + 8);
        assert_eq!(len, 1_024);
    }

    /// A record body one byte longer or shorter than its layout (a fixed
    /// record's size, IOAPIC's `14 + 8 × pins`) is refused with its length,
    /// the header's included.
    #[test]
    fn a_record_a_byte_off_its_layout_is_bad_length() {
        let cases = [
            (typecode::HEADER, None),
            (typecode::CPU, Some(HvmRecord::Cpu(0, Box::default()))),
            (
                typecode::LAPIC,
                Some(HvmRecord::Lapic(0, HvmHwLapic::default())),
            ),
            (typecode::MTRR, Some(HvmRecord::Mtrr(0, Box::default()))),
            (typecode::PIT, Some(HvmRecord::Pit(HvmHwPit::default()))),
            (
                typecode::IOAPIC,
                Some(HvmRecord::Ioapic(HvmHwIoapic::default())),
            ),
        ];
        for (typecode, record) in cases {
            let clean = save_context(&HvmSaveHeader::default(), record.as_slice());
            // The header record is first; any other follows its 32 bytes.
            let at = if record.is_some() { 32 } else { 0 };
            let len = u32::from_le_bytes(clean[at + 4..at + 8].try_into().unwrap());
            for length in [len + 1, len - 1] {
                let mut buf = clean.clone();
                buf[at + 4..at + 8].copy_from_slice(&length.to_le_bytes());
                if length > len {
                    buf.insert(at + 8 + len as usize, 0);
                } else {
                    buf.remove(at + 8 + length as usize);
                }
                let verdict = load_context(&buf);
                assert_eq!(verdict, Err(ContextError::BadLength { typecode, length }));
            }
        }
    }

    #[test]
    fn truncated_stream_rejected() {
        let buf = save_context(&HvmSaveHeader::default(), &sample_records());
        for cut in [3, 8, 40, buf.len() - 9] {
            assert!(load_context(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn missing_end_rejected() {
        let buf = save_context(&HvmSaveHeader::default(), &[]);
        // Strip the END record (8 bytes descriptor, empty body).
        let no_end = &buf[..buf.len() - 8];
        assert_eq!(load_context(no_end), Err(ContextError::MissingEnd));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = save_context(&HvmSaveHeader::default(), &[]);
        buf[8] ^= 0xff; // Corrupt the magic inside the header body.
        assert_eq!(load_context(&buf), Err(ContextError::BadHeader));
    }

    #[test]
    fn unknown_typecode_rejected() {
        let mut buf = Vec::new();
        put_record(&mut buf, typecode::HEADER, 0, |o| {
            HvmSaveHeader::default().put(o)
        });
        put_record(&mut buf, 99, 0, |_| {});
        assert_eq!(load_context(&buf), Err(ContextError::UnknownTypecode(99)));
    }

    #[test]
    fn multi_vcpu_instances() {
        let recs: Vec<HvmRecord> = (0..4)
            .map(|i| {
                let mut c = HvmHwCpu::default();
                c.gprs[0] = i as u64;
                HvmRecord::Cpu(i, Box::new(c))
            })
            .collect();
        let buf = save_context(&HvmSaveHeader::default(), &recs);
        let back = load_context(&buf).unwrap();
        for (i, rec) in back[1..].iter().enumerate() {
            match rec {
                HvmRecord::Cpu(inst, c) => {
                    assert_eq!(*inst, i as u16);
                    assert_eq!(c.gprs[0], i as u64);
                }
                other => panic!("unexpected record {other:?}"),
            }
        }
    }
}

#[cfg(test)]
mod pinned {
    //! Pins the record stream itself: `save_context`'s bytes, and
    //! `load_context`'s verdict on damaged streams (the records' `Debug`
    //! when one parses, the error text when not). A round trip passes
    //! under any symmetric encode/decode mistake; these digests do not.

    use super::*;
    use hypertp_sim::hash::digest_bytes;
    use hypertp_sim::SimRng;
    use std::array::from_fn;

    fn fold(acc: &mut u64, bytes: &[u8]) {
        let d = digest_bytes(bytes);
        *acc = (acc.rotate_left(7) ^ d.hi).wrapping_add(d.lo);
    }

    fn gen_cpu(rng: &mut SimRng) -> HvmHwCpu {
        let mut w = || rng.next_u64();
        HvmHwCpu {
            gprs: from_fn(|_| w()),
            rip: w(),
            rflags: w(),
            crs: from_fn(|_| w()),
            drs: from_fn(|_| w()),
            segs: from_fn(|_| HvmSegment {
                sel: w() as u32,
                limit: w() as u32,
                base: w(),
                arbytes: w() as u32,
            }),
            gdtr_base: w(),
            gdtr_limit: w() as u32,
            idtr_base: w(),
            idtr_limit: w() as u32,
            sysenter: from_fn(|_| w()),
            shadow_gs: w(),
            msr_flags: w(),
            msr_lstar: w(),
            msr_star: w(),
            msr_cstar: w(),
            msr_syscall_mask: w(),
            msr_efer: w(),
            msr_tsc_aux: w(),
            tsc: w(),
            fpu_regs: from_fn(|_| w() as u8),
            pending_event: w() as u32,
            error_code: w() as u32,
        }
    }

    fn gen_pit_channel(rng: &mut SimRng) -> HvmPitChannel {
        let mut w = || rng.next_u64();
        HvmPitChannel {
            count: w() as u32,
            latched_count: w() as u16,
            count_latched: w() as u8,
            status_latched: w() as u8,
            status: w() as u8,
            read_state: w() as u8,
            write_state: w() as u8,
            write_latch: w() as u8,
            rw_mode: w() as u8,
            mode: w() as u8,
            bcd: w() as u8,
            gate: w() as u8,
        }
    }

    /// A seeded domain's stream: every field random (the magic aside), one
    /// record of each per-vCPU kind per vCPU, 48 random RTEs and an XSAVE
    /// area whose length varies from vCPU to vCPU.
    fn gen_stream(rng: &mut SimRng, vcpus: u16) -> Vec<u8> {
        let header = HvmSaveHeader {
            magic: HVM_MAGIC,
            version: rng.next_u64() as u32,
            changeset: rng.next_u64(),
            cpuid: rng.next_u64() as u32,
            gtsc_khz: rng.next_u64() as u32,
        };
        let mut records = Vec::new();
        for i in 0..vcpus {
            records.push(HvmRecord::Cpu(i, Box::new(gen_cpu(rng))));
            let lapic = HvmHwLapic {
                apic_base_msr: rng.next_u64(),
                disabled: rng.next_u64() as u32,
                timer_divisor: rng.next_u64() as u32,
                tdt_msr: rng.next_u64(),
            };
            records.push(HvmRecord::Lapic(i, lapic));
            let page = (0..1024).map(|_| rng.next_u64() as u8).collect();
            records.push(HvmRecord::LapicRegs(i, page));
            let mtrr = HvmHwMtrr {
                msr_pat_cr: rng.next_u64(),
                msr_mtrr_var: from_fn(|_| rng.next_u64()),
                msr_mtrr_fixed: from_fn(|_| rng.next_u64()),
                msr_mtrr_cap: rng.next_u64(),
                msr_mtrr_def_type: rng.next_u64(),
            };
            records.push(HvmRecord::Mtrr(i, Box::new(mtrr)));
            let len = [0, 1, 64, 576, 833, 2_696][rng.gen_range(6) as usize];
            let xsave = HvmHwXsave {
                xcr0: rng.next_u64(),
                xcr0_accum: rng.next_u64(),
                area: (0..len).map(|_| rng.next_u64() as u8).collect(),
            };
            records.push(HvmRecord::Xsave(i, xsave));
        }
        records.push(HvmRecord::Ioapic(HvmHwIoapic {
            base_address: rng.next_u64(),
            ioregsel: rng.next_u64() as u32,
            id: rng.next_u64() as u8,
            redirtbl: (0..48).map(|_| rng.next_u64()).collect(),
        }));
        records.push(HvmRecord::Pit(HvmHwPit {
            channels: from_fn(|_| gen_pit_channel(rng)),
            speaker_data_on: rng.next_u64() as u8,
        }));
        let buf = save_context(&header, &records);
        let back = load_context(&buf).expect("a saved stream loads");
        assert_eq!(
            (&back[0], &back[1..]),
            (&HvmRecord::Header(header), &records[..])
        );
        buf
    }

    fn verdict(acc: &mut u64, buf: &[u8]) {
        match load_context(buf) {
            Ok(records) => fold(acc, format!("{records:?}").as_bytes()),
            Err(e) => fold(acc, e.to_string().as_bytes()),
        }
    }

    /// The streams of eight seeded domains, 1 to 8 vCPUs.
    fn streams() -> impl Iterator<Item = (SimRng, Vec<u8>)> {
        (1..=8u16).map(|vcpus| {
            let mut rng = SimRng::new(0x4856_4d00 + u64::from(vcpus));
            let buf = gen_stream(&mut rng, vcpus);
            (rng, buf)
        })
    }

    #[test]
    fn saved_bytes_are_pinned() {
        let mut bytes = 0u64;
        for (_, buf) in streams() {
            fold(&mut bytes, &buf);
        }
        assert_eq!(bytes, 0x9b75_1298_e213_d9a4, "HVM context layout moved");
    }

    #[test]
    fn load_verdicts_are_pinned() {
        let mut verdicts = 0u64;
        for (mut rng, buf) in streams() {
            for cut in (0..buf.len()).step_by(7) {
                verdict(&mut verdicts, &buf[..cut]);
            }
            for _ in 0..64 {
                let mut mutant = buf.clone();
                let pos = rng.gen_range(mutant.len() as u64) as usize;
                mutant[pos] = rng.next_u64() as u8;
                verdict(&mut verdicts, &mutant);
            }
        }
        assert_eq!(
            verdicts, 0xe456_f1b3_d5c1_ca35,
            "HVM context loader's verdicts moved"
        );
    }
}

#[cfg(test)]
mod fuzz {
    use super::*;
    use hypertp_sim::SimRng;

    /// `load_context` over arbitrary bytes is total: Xen's record
    /// parser must never panic on a corrupted save stream.
    /// (Formerly proptest, 256 cases.)
    #[test]
    fn load_arbitrary_bytes_is_total() {
        let mut rng = SimRng::new(0xc0f7_0001);
        for _ in 0..256 {
            let len = rng.gen_range(600) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let _ = load_context(&bytes);
        }
    }

    /// Single-byte corruption of a valid stream is either detected or
    /// still yields structurally valid records — never a panic.
    #[test]
    fn load_mutated_stream_is_total() {
        let recs = vec![HvmRecord::Cpu(0, Box::default())];
        let clean = save_context(&HvmSaveHeader::default(), &recs);
        let mut rng = SimRng::new(0xc0f7_0002);
        for _ in 0..256 {
            let mut buf = clean.clone();
            let pos = rng.gen_range(buf.len() as u64) as usize;
            buf[pos] = rng.next_u64() as u8;
            let _ = load_context(&buf);
        }
    }
}
