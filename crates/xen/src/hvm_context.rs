//! The HVM context record stream (`xc_domain_hvm_get/setcontext`).
//!
//! Xen serializes a domain's platform state as a sequence of typed records,
//! each preceded by a `hvm_save_descriptor { typecode, instance, length }`.
//! The paper integrates these functions directly into InPlaceTP "as part of
//! the VM save/load process" (§4.2.1); our `to_uisr` path therefore starts
//! from this byte stream, exactly as the prototype's userspace tooling does
//! via libxenctrl.

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

struct W(Vec<u8>);

impl W {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.0.extend_from_slice(b);
    }
}

struct R<'a> {
    b: &'a [u8],
    p: usize,
}

impl<'a> R<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ContextError> {
        if self.p + n > self.b.len() {
            return Err(ContextError::Truncated);
        }
        let s = &self.b[self.p..self.p + n];
        self.p += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, ContextError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, ContextError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }
    fn u32(&mut self) -> Result<u32, ContextError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn u64(&mut self) -> Result<u64, ContextError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
}

fn put_cpu(w: &mut W, c: &HvmHwCpu) {
    for g in c.gprs {
        w.u64(g);
    }
    w.u64(c.rip);
    w.u64(c.rflags);
    for cr in c.crs {
        w.u64(cr);
    }
    for dr in c.drs {
        w.u64(dr);
    }
    for s in &c.segs {
        w.u32(s.sel);
        w.u32(s.limit);
        w.u64(s.base);
        w.u32(s.arbytes);
    }
    w.u64(c.gdtr_base);
    w.u32(c.gdtr_limit);
    w.u64(c.idtr_base);
    w.u32(c.idtr_limit);
    for v in c.sysenter {
        w.u64(v);
    }
    w.u64(c.shadow_gs);
    for v in [
        c.msr_flags,
        c.msr_lstar,
        c.msr_star,
        c.msr_cstar,
        c.msr_syscall_mask,
        c.msr_efer,
        c.msr_tsc_aux,
        c.tsc,
    ] {
        w.u64(v);
    }
    w.bytes(&c.fpu_regs);
    w.u32(c.pending_event);
    w.u32(c.error_code);
}

/// Byte length of an encoded `hvm_hw_cpu` record body.
pub(crate) const CPU_RECORD_LEN: u32 =
    (16 + 2 + 4 + 6) as u32 * 8 + 8 * 20 + (8 + 4 + 8 + 4) + 3 * 8 + 8 + 8 * 8 + 512 + 8;

fn get_cpu(r: &mut R) -> Result<HvmHwCpu, ContextError> {
    let mut c = HvmHwCpu::default();
    for g in &mut c.gprs {
        *g = r.u64()?;
    }
    c.rip = r.u64()?;
    c.rflags = r.u64()?;
    for cr in &mut c.crs {
        *cr = r.u64()?;
    }
    for dr in &mut c.drs {
        *dr = r.u64()?;
    }
    for s in &mut c.segs {
        *s = HvmSegment {
            sel: r.u32()?,
            limit: r.u32()?,
            base: r.u64()?,
            arbytes: r.u32()?,
        };
    }
    c.gdtr_base = r.u64()?;
    c.gdtr_limit = r.u32()?;
    c.idtr_base = r.u64()?;
    c.idtr_limit = r.u32()?;
    for v in &mut c.sysenter {
        *v = r.u64()?;
    }
    c.shadow_gs = r.u64()?;
    c.msr_flags = r.u64()?;
    c.msr_lstar = r.u64()?;
    c.msr_star = r.u64()?;
    c.msr_cstar = r.u64()?;
    c.msr_syscall_mask = r.u64()?;
    c.msr_efer = r.u64()?;
    c.msr_tsc_aux = r.u64()?;
    c.tsc = r.u64()?;
    c.fpu_regs = r.take(512)?.try_into().expect("512");
    c.pending_event = r.u32()?;
    c.error_code = r.u32()?;
    Ok(c)
}

fn put_record(w: &mut W, typecode: u16, instance: u16, body: impl FnOnce(&mut W)) {
    w.u16(typecode);
    w.u16(instance);
    let len_pos = w.0.len();
    w.u32(0);
    let start = w.0.len();
    body(w);
    let len = (w.0.len() - start) as u32;
    w.0[len_pos..len_pos + 4].copy_from_slice(&len.to_le_bytes());
}

/// Serializes records into an HVM context byte stream (with header and END
/// record).
pub(crate) fn save_context(header: &HvmSaveHeader, records: &[HvmRecord]) -> Vec<u8> {
    let mut w = W(Vec::new());
    put_record(&mut w, typecode::HEADER, 0, |w| {
        w.u32(header.magic);
        w.u32(header.version);
        w.u64(header.changeset);
        w.u32(header.cpuid);
        w.u32(header.gtsc_khz);
    });
    for rec in records {
        match rec {
            HvmRecord::Header(_) => {} // Header is written once, above.
            HvmRecord::Cpu(inst, c) => put_record(&mut w, typecode::CPU, *inst, |w| {
                put_cpu(w, c);
            }),
            HvmRecord::Lapic(inst, l) => put_record(&mut w, typecode::LAPIC, *inst, |w| {
                w.u64(l.apic_base_msr);
                w.u32(l.disabled);
                w.u32(l.timer_divisor);
                w.u64(l.tdt_msr);
            }),
            HvmRecord::LapicRegs(inst, page) => {
                put_record(&mut w, typecode::LAPIC_REGS, *inst, |w| {
                    w.bytes(page);
                })
            }
            HvmRecord::Mtrr(inst, m) => put_record(&mut w, typecode::MTRR, *inst, |w| {
                w.u64(m.msr_pat_cr);
                for v in m.msr_mtrr_var {
                    w.u64(v);
                }
                for v in m.msr_mtrr_fixed {
                    w.u64(v);
                }
                w.u64(m.msr_mtrr_cap);
                w.u64(m.msr_mtrr_def_type);
            }),
            HvmRecord::Xsave(inst, x) => put_record(&mut w, typecode::XSAVE, *inst, |w| {
                w.u64(x.xcr0);
                w.u64(x.xcr0_accum);
                w.bytes(&x.area);
            }),
            HvmRecord::Ioapic(io) => put_record(&mut w, typecode::IOAPIC, 0, |w| {
                w.u64(io.base_address);
                w.u32(io.ioregsel);
                w.u8(io.id);
                w.u8(io.redirtbl.len() as u8);
                for rte in &io.redirtbl {
                    w.u64(*rte);
                }
            }),
            HvmRecord::Pit(p) => put_record(&mut w, typecode::PIT, 0, |w| {
                for ch in &p.channels {
                    w.u32(ch.count);
                    w.u16(ch.latched_count);
                    w.u8(ch.count_latched);
                    w.u8(ch.status_latched);
                    w.u8(ch.status);
                    w.u8(ch.read_state);
                    w.u8(ch.write_state);
                    w.u8(ch.write_latch);
                    w.u8(ch.rw_mode);
                    w.u8(ch.mode);
                    w.u8(ch.bcd);
                    w.u8(ch.gate);
                }
                w.u8(p.speaker_data_on);
            }),
        }
    }
    put_record(&mut w, typecode::END, 0, |_| {});
    w.0
}

/// Parses an HVM context byte stream into records. The header is returned
/// as the first record.
pub(crate) fn load_context(buf: &[u8]) -> Result<Vec<HvmRecord>, ContextError> {
    let mut r = R { b: buf, p: 0 };
    let mut out = Vec::new();
    let mut saw_header = false;
    let mut saw_end = false;
    while r.p < r.b.len() {
        let typecode = r.u16()?;
        let instance = r.u16()?;
        let length = r.u32()?;
        let body = r.take(length as usize)?;
        let mut br = R { b: body, p: 0 };
        match typecode {
            typecode::END => {
                saw_end = true;
                break;
            }
            typecode::HEADER => {
                let h = HvmSaveHeader {
                    magic: br.u32()?,
                    version: br.u32()?,
                    changeset: br.u64()?,
                    cpuid: br.u32()?,
                    gtsc_khz: br.u32()?,
                };
                if h.magic != HVM_MAGIC {
                    return Err(ContextError::BadHeader);
                }
                saw_header = true;
                out.push(HvmRecord::Header(h));
            }
            typecode::CPU => {
                if length != CPU_RECORD_LEN {
                    return Err(ContextError::BadLength { typecode, length });
                }
                out.push(HvmRecord::Cpu(instance, Box::new(get_cpu(&mut br)?)));
            }
            typecode::LAPIC => out.push(HvmRecord::Lapic(
                instance,
                HvmHwLapic {
                    apic_base_msr: br.u64()?,
                    disabled: br.u32()?,
                    timer_divisor: br.u32()?,
                    tdt_msr: br.u64()?,
                },
            )),
            typecode::LAPIC_REGS => {
                out.push(HvmRecord::LapicRegs(instance, body.to_vec()));
            }
            typecode::MTRR => {
                let mut m = HvmHwMtrr {
                    msr_pat_cr: br.u64()?,
                    ..HvmHwMtrr::default()
                };
                for v in &mut m.msr_mtrr_var {
                    *v = br.u64()?;
                }
                for v in &mut m.msr_mtrr_fixed {
                    *v = br.u64()?;
                }
                m.msr_mtrr_cap = br.u64()?;
                m.msr_mtrr_def_type = br.u64()?;
                out.push(HvmRecord::Mtrr(instance, Box::new(m)));
            }
            typecode::XSAVE => {
                let xcr0 = br.u64()?;
                let xcr0_accum = br.u64()?;
                let area = br.b[br.p..].to_vec();
                out.push(HvmRecord::Xsave(
                    instance,
                    HvmHwXsave {
                        xcr0,
                        xcr0_accum,
                        area,
                    },
                ));
            }
            typecode::IOAPIC => {
                let base_address = br.u64()?;
                let ioregsel = br.u32()?;
                let id = br.u8()?;
                let pins = br.u8()? as usize;
                let mut redirtbl = Vec::with_capacity(pins);
                for _ in 0..pins {
                    redirtbl.push(br.u64()?);
                }
                out.push(HvmRecord::Ioapic(HvmHwIoapic {
                    base_address,
                    ioregsel,
                    id,
                    redirtbl,
                }));
            }
            typecode::PIT => {
                let mut p = HvmHwPit::default();
                for ch in &mut p.channels {
                    *ch = HvmPitChannel {
                        count: br.u32()?,
                        latched_count: br.u16()?,
                        count_latched: br.u8()?,
                        status_latched: br.u8()?,
                        status: br.u8()?,
                        read_state: br.u8()?,
                        write_state: br.u8()?,
                        write_latch: br.u8()?,
                        rw_mode: br.u8()?,
                        mode: br.u8()?,
                        bcd: br.u8()?,
                        gate: br.u8()?,
                    };
                }
                p.speaker_data_on = br.u8()?;
                out.push(HvmRecord::Pit(p));
            }
            t => return Err(ContextError::UnknownTypecode(t)),
        }
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
        assert_eq!(len, CPU_RECORD_LEN);
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
        let mut w = W(Vec::new());
        put_record(&mut w, typecode::HEADER, 0, |w| {
            let h = HvmSaveHeader::default();
            w.u32(h.magic);
            w.u32(h.version);
            w.u64(h.changeset);
            w.u32(h.cpuid);
            w.u32(h.gtsc_khz);
        });
        put_record(&mut w, 99, 0, |_| {});
        assert_eq!(load_context(&w.0), Err(ContextError::UnknownTypecode(99)));
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
