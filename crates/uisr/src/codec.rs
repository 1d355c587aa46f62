//! Binary codec for UISR.
//!
//! InPlaceTP saves encoded UISR blobs in RAM across the micro-reboot;
//! MigrationTP ships them over the network. The encoding is a compact,
//! versioned little-endian format. Its size is measured (not asserted) by
//! the Fig. 14 experiment: ≈5 KB for a 1-vCPU VM growing by ≈3.8 KB per
//! additional vCPU, matching the paper's 5 KB → 38 KB range over 1–10
//! vCPUs.
//!
//! A JSON encoding ([`to_json`]/[`from_json`]) is provided for debugging
//! and for the codec-cost ablation bench.
//!
//! # One description per type
//!
//! Every [`crate::state`] type is described once, by a field table at the
//! bottom of this file that names its fields in wire order. The binary
//! encoder, the decoder, the exact size and both JSON directions are all
//! derived from that table through the private `Wire` trait, which is
//! implemented by hand only for the scalars and containers below. A blob
//! is `b"UISR"`, the `u16` `VERSION`, then the [`UisrVm`]:
//!
//! | Rust type              | binary                                         | JSON                       |
//! |------------------------|------------------------------------------------|----------------------------|
//! | `u8 u16 u32 u64`       | little-endian, natural width                   | unsigned integer           |
//! | `bool`                 | one byte, written 0/1, any non-zero reads true | `true`/`false`             |
//! | `String`               | `u16` byte length, then UTF-8                  | string                     |
//! | `Option<T>`            | presence byte (1 = some, else none), then `T`  | `null` or `T`              |
//! | `[T; N]`               | the `N` items, no prefix                       | array of `N`               |
//! | `Vec<T>`               | `u32` count, then the items                    | array                      |
//! | `(u64, u64)`           | the two words                                  | `[a, b]`                   |
//! | struct                 | its fields, in table order                     | object keyed by field name |
//! | enum ([`DeviceState`]) | `u8` tag, then the variant's fields            | object, `"kind"` key first |
//!
//! A field name's trailing underscore (Rust's keyword escape) is dropped
//! from its JSON key: `type_` is `"type"`. The device tags and kinds are
//! the rows of the `DeviceState` table.
//!
//! **To add a field:** add it to the struct in `state.rs` and name it in
//! the struct's table here; leaving it out of the table is a compile
//! error (the derived decoder builds a struct literal). Bump `VERSION`
//! if blobs written before the change must stay readable — readers reject
//! any other version.

use hypertp_sim::json::Json;

use crate::state::{
    CpuRegisters, DescriptorTable, DeviceState, FpuState, IoApicState, LapicState, MemoryRegion,
    MemorySpec, MsrEntry, MtrrState, PitChannel, PitState, RedirectionEntry, SegmentRegister,
    SpecialRegisters, UisrVm, VcpuState, XsaveState,
};

const MAGIC: &[u8; 4] = b"UISR";
const VERSION: u16 = 1;

/// Errors from UISR decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Buffer ended before the structure was complete.
    Truncated,
    /// The magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Unknown device tag.
    BadTag(u8),
    /// Bytes left over after a complete decode.
    TrailingBytes(usize),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// The JSON debug encoding was malformed.
    BadJson(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated UISR blob"),
            CodecError::BadMagic => write!(f, "bad UISR magic"),
            CodecError::BadVersion(v) => write!(f, "unsupported UISR version {v}"),
            CodecError::BadTag(t) => write!(f, "unknown device tag {t}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after UISR"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in UISR string"),
            CodecError::BadJson(msg) => write!(f, "malformed UISR JSON: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Exact size in bytes of [`encode`]'s output for `vm`.
///
/// Used by [`encode_into`] to pre-size the destination so the hot
/// per-VM encode path performs at most one allocation.
pub(crate) fn encoded_size(vm: &UisrVm) -> usize {
    MAGIC.len() + VERSION.size() + vm.size()
}

/// Encodes a VM's UISR description to the binary wire/RAM format.
pub fn encode(vm: &UisrVm) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_into(vm, &mut buf);
    buf
}

/// Encodes into a caller-provided buffer, clearing it first.
///
/// The buffer is grown at most once (to `encoded_size`), so a worker
/// that encodes many VMs can reuse one allocation across calls.
pub fn encode_into(vm: &UisrVm, buf: &mut Vec<u8>) {
    buf.clear();
    buf.reserve(encoded_size(vm));
    buf.extend_from_slice(MAGIC);
    VERSION.put(buf);
    vm.put(buf);
    debug_assert_eq!(buf.len(), encoded_size(vm), "size hint must be exact");
}

/// Decodes a binary UISR blob.
pub fn decode(buf: &[u8]) -> Result<UisrVm, CodecError> {
    let mut r = Reader(buf);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let ver = u16::get(&mut r)?;
    if ver != VERSION {
        return Err(CodecError::BadVersion(ver));
    }
    let vm = UisrVm::get(&mut r)?;
    if !r.0.is_empty() {
        return Err(CodecError::TrailingBytes(r.0.len()));
    }
    Ok(vm)
}

/// Encodes a VM's UISR to JSON (debugging / ablation bench).
pub fn to_json(vm: &UisrVm) -> String {
    Wire::to_json(vm).encode()
}

/// Decodes a VM's UISR from JSON.
pub fn from_json(text: &str) -> Result<UisrVm, CodecError> {
    Json::parse(text)
        .map_err(|e| e.to_string())
        .and_then(|v| Wire::from_json(&v))
        .map_err(CodecError::BadJson)
}

/// The bytes of a blob not yet decoded.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.0.len() {
            return Err(CodecError::Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }
}

/// Most bytes a decoder reserves on the strength of a count it has read
/// but not yet verified by decoding that many items.
const RESERVE_BUDGET: usize = 64 << 10;

/// The five passes over one UISR type. Scalars and containers implement
/// it below; structs and [`DeviceState`] get it from their field tables.
trait Wire: Sized {
    /// Appends the binary encoding.
    fn put(&self, out: &mut Vec<u8>);
    /// Decodes one value from the front of `r`.
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError>;
    /// Exact number of bytes [`Wire::put`] appends.
    fn size(&self) -> usize;
    /// The JSON debug form.
    fn to_json(&self) -> Json;
    /// Parses the JSON debug form; the error is [`CodecError::BadJson`]'s
    /// message.
    fn from_json(v: &Json) -> Result<Self, String>;

    // Slice hooks, in the style of `Hash::hash_slice`: containers move
    // their items through these, and `u8` overrides them so a byte run
    // (the XSAVE area, the LAPIC page, an XMM register) is one copy
    // rather than a call per byte.

    /// Appends every item of `items`.
    fn put_slice(items: &[Self], out: &mut Vec<u8>) {
        items.iter().for_each(|item| item.put(out));
    }
    /// Decodes `items.len()` values into `items`.
    fn get_slice(r: &mut Reader<'_>, items: &mut [Self]) -> Result<(), CodecError> {
        items.iter_mut().try_for_each(|item| {
            *item = Self::get(r)?;
            Ok(())
        })
    }
    /// Decodes `n` values, `n` being a count read from the blob. Reserves
    /// no more than `n`, the bytes still unread (an item is at least one)
    /// and [`RESERVE_BUDGET`] allow; a longer run grows as it is verified.
    fn get_vec(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>, CodecError> {
        let budget = RESERVE_BUDGET / std::mem::size_of::<Self>();
        let mut items = Vec::with_capacity(n.min(r.0.len()).min(budget));
        for _ in 0..n {
            items.push(Self::get(r)?);
        }
        Ok(items)
    }
}

/// The JSON key of a field: its name less the keyword-escape underscore.
fn json_key(field: &str) -> &str {
    field.trim_end_matches('_')
}

/// Parses the member of object `v` that holds `field`, prefixing any
/// error with the key so a failure names its path.
fn json_field<T: Wire>(v: &Json, field: &str) -> Result<T, String> {
    let key = json_key(field);
    let slot = v.get(key).ok_or_else(|| format!("missing key {key}"))?;
    T::from_json(slot).map_err(|msg| format!("{key}: {msg}"))
}

fn json_items(v: &Json) -> Result<&[Json], String> {
    Ok(v.as_arr().ok_or("expected array")?)
}

/// Little-endian unsigned integers; `$hooks` are slice-hook overrides.
macro_rules! wire_uint {
    ($ty:ty $(, $($hooks:tt)+)?) => {
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let bytes = r.take(std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("take(n) is n bytes")))
            }
            fn size(&self) -> usize {
                std::mem::size_of::<$ty>()
            }
            fn to_json(&self) -> Json {
                Json::U64(u64::from(*self))
            }
            fn from_json(v: &Json) -> Result<Self, String> {
                let n = v.as_u64().ok_or("expected unsigned integer")?;
                Ok(<$ty>::try_from(n).map_err(|_| concat!("out of ", stringify!($ty), " range"))?)
            }
            $($($hooks)+)?
        }
    };
}

wire_uint!(u16);
wire_uint!(u32);
wire_uint!(u64);
wire_uint! {
    u8,
    fn put_slice(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
    fn get_slice(r: &mut Reader<'_>, items: &mut [u8]) -> Result<(), CodecError> {
        items.copy_from_slice(r.take(items.len())?);
        Ok(())
    }
    fn get_vec(r: &mut Reader<'_>, n: usize) -> Result<Vec<u8>, CodecError> {
        Ok(r.take(n)?.to_vec())
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(u8::get(r)? != 0)
    }
    fn size(&self) -> usize {
        1
    }
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(v.as_bool().ok_or("expected bool")?)
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u16).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = usize::from(u16::get(r)?);
        String::from_utf8(r.take(n)?.to_vec()).map_err(|_| CodecError::BadUtf8)
    }
    fn size(&self) -> usize {
        2 + self.len()
    }
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(v.as_str().ok_or("expected string")?.to_string())
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(value) = self {
            value.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(if u8::get(r)? == 1 {
            Some(T::get(r)?)
        } else {
            None
        })
    }
    fn size(&self) -> usize {
        1 + self.as_ref().map_or(0, T::size)
    }
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    fn put(&self, out: &mut Vec<u8>) {
        T::put_slice(self, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut items = [T::default(); N];
        T::get_slice(r, &mut items)?;
        Ok(items)
    }
    fn size(&self) -> usize {
        self.iter().map(T::size).sum()
    }
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        let slots = json_items(v)?;
        if slots.len() != N {
            return Err(format!("expected {N} entries"));
        }
        let mut items = [T::default(); N];
        for (item, slot) in items.iter_mut().zip(slots) {
            *item = T::from_json(slot)?;
        }
        Ok(items)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        T::put_slice(self, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = u32::get(r)? as usize;
        T::get_vec(r, n)
    }
    fn size(&self) -> usize {
        4 + self.iter().map(T::size).sum::<usize>()
    }
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        json_items(v)?.iter().map(T::from_json).collect()
    }
}

impl Wire for (u64, u64) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((u64::get(r)?, u64::get(r)?))
    }
    fn size(&self) -> usize {
        self.0.size() + self.1.size()
    }
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        match json_items(v)? {
            [a, b] => Ok((u64::from_json(a)?, u64::from_json(b)?)),
            _ => Err("expected a pair".to_string()),
        }
    }
}

/// Derives [`Wire`] for a struct from its field names, in wire order.
/// The field types come from `state.rs`; a field missing here fails to
/// compile in the struct literals below.
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)+
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok($ty { $($field: Wire::get(r)?),+ })
            }
            fn size(&self) -> usize {
                0 $(+ self.$field.size())+
            }
            fn to_json(&self) -> Json {
                Json::Obj(vec![
                    $((json_key(stringify!($field)).to_string(), self.$field.to_json())),+
                ])
            }
            fn from_json(v: &Json) -> Result<Self, String> {
                Ok($ty { $($field: json_field(v, stringify!($field))?),+ })
            }
        }
    };
}

/// Derives [`Wire`] for an enum of struct-like variants from one row per
/// variant: binary tag, JSON `"kind"`, variant name and field names.
macro_rules! wire_enum {
    ($ty:ident { $($tag:literal, $kind:literal, $variant:ident { $($field:ident),+ });+ $(;)? }) => {
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant { $($field),+ } => {
                        out.push($tag);
                        $($field.put(out);)+
                    })+
                }
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                match u8::get(r)? {
                    $($tag => Ok($ty::$variant { $($field: Wire::get(r)?),+ }),)+
                    tag => Err(CodecError::BadTag(tag)),
                }
            }
            fn size(&self) -> usize {
                match self {
                    $($ty::$variant { $($field),+ } => 1 $(+ $field.size())+,)+
                }
            }
            fn to_json(&self) -> Json {
                match self {
                    $($ty::$variant { $($field),+ } => Json::Obj(vec![
                        ("kind".to_string(), Json::Str($kind.to_string())),
                        $((json_key(stringify!($field)).to_string(), $field.to_json())),+
                    ]),)+
                }
            }
            fn from_json(v: &Json) -> Result<Self, String> {
                match json_field::<String>(v, "kind")?.as_str() {
                    $($kind => Ok($ty::$variant {
                        $($field: json_field(v, stringify!($field))?),+
                    }),)+
                    other => Err(format!("unknown device kind {other:?}")),
                }
            }
        }
    };
}

// The field tables: every field of every `state.rs` type, once, in wire
// order (which is declaration order). Brace-delimited so rustfmt keeps
// one table to a line or two.

wire_struct! { CpuRegisters {
    rax, rbx, rcx, rdx, rsi, rdi, rsp, rbp, r8, r9, r10, r11, r12, r13, r14, r15, rip, rflags,
} }
wire_struct! { SegmentRegister { base, limit, selector, type_, present, dpl, db, s, l, g, avl } }
wire_struct! { DescriptorTable { base, limit } }
wire_struct! { SpecialRegisters {
    cs, ds, es, fs, gs, ss, tr, ldt, gdt, idt, cr0, cr2, cr3, cr4, cr8, efer, apic_base,
} }
wire_struct! { FpuState {
    fcw, fsw, ftw, last_opcode, last_ip, last_dp, mxcsr, mxcsr_mask, st, xmm,
} }
wire_struct! { MsrEntry { index, data } }
wire_struct! { XsaveState { xcr0, area } }
wire_struct! { LapicState {
    apic_id, apic_base_msr, tpr, timer_divide, timer_initial, timer_current, timer_pending,
} }
wire_struct! { MtrrState { def_type, fixed, variable } }
wire_struct! { VcpuState { id, regs, sregs, fpu, msrs, xsave, lapic, lapic_regs, mtrr } }
wire_struct! { RedirectionEntry {
    vector, delivery_mode, dest_mode, masked, trigger_level, remote_irr, dest,
} }
wire_struct! { IoApicState { id, base, redirection } }
wire_struct! { PitChannel {
    count, latched_count, status, read_state, write_state, mode, bcd, gate,
} }
wire_struct! { PitState { channels, speaker } }
wire_enum! { DeviceState {
    1, "network", Network { mac, unplugged };
    2, "block", Block { backend, sectors, pending_requests };
    3, "console", Console { tx_buffered };
    4, "pass_through", PassThrough { bdf, guest_paused };
} }
wire_struct! { MemoryRegion { gfn_start, pages } }
wire_struct! { MemorySpec { regions, pram_file } }
wire_struct! { UisrVm { name, vcpus, ioapic, pit, devices, memory } }

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::VcpuState;

    fn sample_vm(vcpus: u32) -> UisrVm {
        let mut vm = UisrVm::new("test-vm");
        for i in 0..vcpus {
            let mut v = VcpuState::reset(i);
            v.regs.rip = 0xffff_8000_0000_0000 + i as u64;
            v.regs.rax = 42 + i as u64;
            v.msrs = (0..40)
                .map(|k| MsrEntry {
                    index: 0xc000_0080 + k,
                    data: k as u64 * 7,
                })
                .collect();
            vm.vcpus.push(v);
        }
        vm.devices.push(DeviceState::Network {
            mac: [2, 0, 0, 0, 0, 1],
            unplugged: false,
        });
        vm.devices.push(DeviceState::Block {
            backend: "nbd://storage/vm0".into(),
            sectors: 2 << 20,
            pending_requests: 3,
        });
        vm.memory.regions.push(MemoryRegion {
            gfn_start: 0,
            pages: 262_144,
        });
        vm.memory.pram_file = Some("test-vm".into());
        vm
    }

    #[test]
    fn binary_roundtrip() {
        let vm = sample_vm(2);
        let buf = encode(&vm);
        let back = decode(&buf).unwrap();
        assert_eq!(back, vm);
    }

    #[test]
    fn truncation_detected() {
        let buf = encode(&sample_vm(1));
        for cut in [0, 3, 10, buf.len() / 2, buf.len() - 1] {
            assert!(
                decode(&buf[..cut]).is_err(),
                "decode of {cut}-byte prefix must fail"
            );
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut buf = encode(&sample_vm(1));
        buf.push(0);
        assert_eq!(decode(&buf), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn bad_magic_detected() {
        let mut buf = encode(&sample_vm(1));
        buf[0] = b'X';
        assert_eq!(decode(&buf), Err(CodecError::BadMagic));
    }

    #[test]
    fn bad_version_detected() {
        let mut buf = encode(&sample_vm(1));
        buf[4] = 99;
        assert_eq!(decode(&buf), Err(CodecError::BadVersion(99)));
    }

    #[test]
    fn fig14_uisr_sizes() {
        // Fig. 14: UISR memory footprint grows from ≈5 KB at 1 vCPU to
        // ≈38 KB at 10 vCPUs. Allow ±25% — the shape is the claim.
        let s1 = encode(&sample_vm(1)).len() as f64;
        let s10 = encode(&sample_vm(10)).len() as f64;
        assert!((3_800.0..6_300.0).contains(&s1), "1 vCPU = {s1} B");
        assert!((28_000.0..48_000.0).contains(&s10), "10 vCPUs = {s10} B");
        // Growth is linear in vCPUs.
        let s5 = encode(&sample_vm(5)).len() as f64;
        let slope_low = (s5 - s1) / 4.0;
        let slope_high = (s10 - s5) / 5.0;
        assert!((slope_low - slope_high).abs() < 1.0);
    }

    #[test]
    fn json_roundtrip() {
        let vm = sample_vm(2);
        let back = from_json(&to_json(&vm)).unwrap();
        assert_eq!(back, vm);
    }

    #[test]
    fn binary_encoding_is_much_smaller_than_json() {
        let vm = sample_vm(4);
        let bin = encode(&vm).len();
        let json = to_json(&vm).len();
        assert!(json > 2 * bin, "bin={bin} json={json}");
    }

    #[test]
    fn randomized_roundtrip_register_values() {
        // Deterministic randomized loop (formerly proptest, 32 cases).
        let mut rng = hypertp_sim::SimRng::new(0x5eed_0001);
        for _ in 0..32 {
            let mut vm = sample_vm(1);
            vm.vcpus[0].regs.rip = rng.next_u64();
            vm.vcpus[0].regs.rax = rng.next_u64();
            vm.vcpus[0].sregs.cr3 = rng.next_u64();
            let n = rng.gen_range(64) as usize;
            for i in 0..n {
                vm.vcpus[0].lapic_regs[i] = rng.next_u64() as u8;
            }
            let back = decode(&encode(&vm)).unwrap();
            assert_eq!(back, vm);
        }
    }

    /// Pins the wire format itself: the binary bytes, the JSON text and
    /// the decoder's verdict (error text included) on damaged blobs, over
    /// 3 seeds x 256 generated VMs. Round-trip tests pass under any
    /// symmetric encode/decode mistake; these digests do not.
    #[test]
    fn wire_format_is_pinned() {
        use hypertp_sim::hash::digest_bytes;
        use hypertp_sim::SimRng;
        fn fold(acc: &mut u64, bytes: &[u8]) {
            let d = digest_bytes(bytes);
            *acc = (acc.rotate_left(7) ^ d.hi).wrapping_add(d.lo);
        }
        fn verdict(acc: &mut u64, buf: &[u8]) {
            match decode(buf) {
                Ok(_) => fold(acc, b"ok"),
                Err(e) => fold(acc, e.to_string().as_bytes()),
            }
        }
        let (mut bytes, mut text, mut verdicts) = (0u64, 0u64, 0u64);
        let mut kinds = [false; 4];
        for seed in [7, 42, 0x0150_c0de] {
            let mut rng = SimRng::new(seed);
            for case in 0..256 {
                let mut vm = props::gen_vm(&mut rng);
                if case % 2 == 0 {
                    vm.memory.pram_file = Some(vm.name.clone());
                }
                for d in &vm.devices {
                    kinds[match d {
                        DeviceState::Network { .. } => 0,
                        DeviceState::Block { .. } => 1,
                        DeviceState::Console { .. } => 2,
                        DeviceState::PassThrough { .. } => 3,
                    }] = true;
                }
                let blob = encode(&vm);
                assert_eq!(blob.len(), encoded_size(&vm));
                fold(&mut bytes, &blob);
                fold(&mut text, to_json(&vm).as_bytes());
                for cut in (0..blob.len()).step_by(97) {
                    verdict(&mut verdicts, &blob[..cut]);
                }
                for _ in 0..64 {
                    let mut buf = blob.clone();
                    let pos = rng.gen_range(buf.len() as u64) as usize;
                    buf[pos] = rng.next_u64() as u8;
                    verdict(&mut verdicts, &buf);
                }
            }
        }
        assert_eq!(kinds, [true; 4], "every device kind is generated");
        assert_eq!(
            (bytes, text, verdicts),
            (
                0xe6ff_279b_bd95_04d6,
                0x46bc_b4fc_eb98_11a1,
                0xe37b_8336_bff4_ee86
            ),
            "wire format moved: bump VERSION or undo the change"
        );
    }

    #[test]
    fn encode_into_matches_encode_and_reuses_buffer() {
        let vm1 = sample_vm(2);
        let vm2 = sample_vm(5);
        let mut buf = Vec::new();
        encode_into(&vm1, &mut buf);
        assert_eq!(buf, encode(&vm1));
        assert_eq!(buf.len(), encoded_size(&vm1));
        let cap = buf.capacity();
        // Re-encoding a smaller VM into the same buffer must not grow it.
        encode_into(&vm1, &mut buf);
        assert_eq!(buf.capacity(), cap);
        // A larger VM grows it exactly once.
        encode_into(&vm2, &mut buf);
        assert_eq!(buf, encode(&vm2));
        assert_eq!(buf.len(), encoded_size(&vm2));
    }
}

#[cfg(test)]
mod fuzz {
    use super::*;
    use hypertp_sim::SimRng;

    /// Decoding arbitrary bytes never panics — it returns an error or
    /// a structurally valid VM. (Formerly proptest, 256 cases.)
    #[test]
    fn decode_arbitrary_bytes_is_total() {
        let mut rng = SimRng::new(0xdec0_de01);
        for _ in 0..256 {
            let len = rng.gen_range(512) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let _ = decode(&bytes);
        }
        // Also exercise prefixes of a valid blob with a plausible header.
        let mut vm = UisrVm::new("fuzz");
        vm.vcpus.push(crate::state::VcpuState::reset(0));
        let blob = encode(&vm);
        for _ in 0..64 {
            let cut = rng.gen_range(blob.len() as u64) as usize;
            let _ = decode(&blob[..cut]);
        }
    }

    /// The same random buffers behind a valid magic and version, so they
    /// reach the names, counts, tags and nested structs that the 4-byte
    /// magic otherwise shields (2^-32 odds of getting past it).
    #[test]
    fn decode_arbitrary_body_is_total() {
        let mut rng = SimRng::new(0xdec0_de03);
        for _ in 0..256 {
            let len = rng.gen_range(512) as usize;
            let mut bytes = MAGIC.to_vec();
            VERSION.put(&mut bytes);
            bytes.extend((0..len).map(|_| rng.next_u64() as u8));
            let _ = decode(&bytes);
        }
    }

    /// A count of `u32::MAX` at each of the eight sequence positions, over
    /// an otherwise valid prefix, is reported as truncation (and, per
    /// `tests/alloc_probe.rs`, without reserving for the claimed count).
    #[test]
    fn hostile_counts_are_truncation() {
        let mut vm = UisrVm::new("fuzz");
        vm.vcpus.push(crate::state::VcpuState::reset(0));
        let blob = encode(&vm);
        // Offsets of the eight count words, summed from the derived sizes
        // (the `4` steps over the vCPU count itself).
        let v = &vm.vcpus[0];
        let vcpus = MAGIC.len() + VERSION.size() + vm.name.size();
        let msrs = vcpus + 4 + v.id.size() + v.regs.size() + v.sregs.size() + v.fpu.size();
        let area = msrs + v.msrs.size() + v.xsave.xcr0.size();
        let lapic_regs = area + v.xsave.area.size() + v.lapic.size();
        let variable =
            lapic_regs + v.lapic_regs.size() + v.mtrr.def_type.size() + v.mtrr.fixed.size();
        let pins = variable + v.mtrr.variable.size() + vm.ioapic.id.size() + vm.ioapic.base.size();
        let devices = pins + vm.ioapic.redirection.size() + vm.pit.size();
        let regions = devices + vm.devices.size();
        assert_eq!(regions + vm.memory.size(), blob.len());
        for (what, at) in [
            ("vcpus", vcpus),
            ("msrs", msrs),
            ("xsave.area", area),
            ("lapic_regs", lapic_regs),
            ("mtrr.variable", variable),
            ("ioapic.redirection", pins),
            ("devices", devices),
            ("memory.regions", regions),
        ] {
            let mut buf = blob.clone();
            buf[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            // With the tail kept, what follows is read as items: it runs
            // out, or (devices) hits a byte that is no tag.
            assert!(decode(&buf).is_err(), "{what} at {at}");
            buf.truncate(at + 4);
            assert_eq!(decode(&buf), Err(CodecError::Truncated), "{what} at {at}");
        }
    }

    /// Mutating one byte of a valid blob never panics; when the mutation
    /// still decodes, re-encoding and re-decoding is a fixed point
    /// (decoding normalizes, e.g. any non-zero bool byte becomes 1).
    #[test]
    fn decode_mutated_blob_is_total() {
        let mut vm = UisrVm::new("fuzz");
        vm.vcpus.push(crate::state::VcpuState::reset(0));
        let blob = encode(&vm);
        let mut rng = SimRng::new(0xdec0_de02);
        for _ in 0..256 {
            let mut buf = blob.clone();
            let pos = rng.gen_range(buf.len() as u64) as usize;
            buf[pos] = rng.next_u64() as u8;
            if let Ok(decoded) = decode(&buf) {
                let renorm = decode(&encode(&decoded)).expect("re-decode");
                assert_eq!(renorm, decoded);
            }
        }
    }
}

#[cfg(test)]
mod props {
    //! Seeded roundtrip properties, restoring the coverage the proptest
    //! suites provided before the workspace went dependency-free. Every
    //! assertion carries the seed and case number, so a failure is
    //! replayable by pasting the seed into [`SimRng::new`].

    use super::*;
    use crate::state::{DeviceState, MemoryRegion, MsrEntry, RedirectionEntry, UisrVm, VcpuState};
    use hypertp_sim::SimRng;

    /// Cases per property (the proptest suites ran 256).
    const CASES: u64 = 256;
    /// The property seed; change it and the failing-case messages follow.
    const SEED: u64 = 0x0150_c0de;

    pub(super) fn gen_vm(rng: &mut SimRng) -> UisrVm {
        let mut vm = UisrVm::new(format!("prop-{}", rng.gen_range(1_000)));
        for i in 0..1 + rng.gen_range(4) {
            let mut v = VcpuState::reset(i as u32);
            v.regs.rip = rng.next_u64();
            v.regs.rsp = rng.next_u64();
            v.regs.rax = rng.next_u64();
            v.regs.rflags = rng.next_u64();
            v.sregs.cr3 = rng.next_u64();
            v.fpu.fcw = rng.next_u64() as u16;
            v.fpu.st[(rng.gen_range(8)) as usize][(rng.gen_range(16)) as usize] =
                rng.next_u64() as u8;
            v.fpu.xmm[(rng.gen_range(16)) as usize][(rng.gen_range(16)) as usize] =
                rng.next_u64() as u8;
            v.msrs = (0..rng.gen_range(40))
                .map(|_| MsrEntry {
                    index: rng.next_u64() as u32,
                    data: rng.next_u64(),
                })
                .collect();
            v.xsave.xcr0 = rng.next_u64();
            for _ in 0..8 {
                let pos = rng.gen_range(v.xsave.area.len() as u64) as usize;
                v.xsave.area[pos] = rng.next_u64() as u8;
            }
            for _ in 0..8 {
                let pos = rng.gen_range(v.lapic_regs.len() as u64) as usize;
                v.lapic_regs[pos] = rng.next_u64() as u8;
            }
            v.lapic.apic_id = i as u32;
            v.lapic.timer_initial = rng.next_u64() as u32;
            v.lapic.timer_pending = rng.gen_bool(0.5);
            v.mtrr.def_type = rng.next_u64();
            v.mtrr.variable = (0..rng.gen_range(9))
                .map(|_| (rng.next_u64(), rng.next_u64()))
                .collect();
            vm.vcpus.push(v);
        }
        vm.ioapic.resize_pins(1 + rng.gen_range(48) as usize);
        for e in &mut vm.ioapic.redirection {
            *e = RedirectionEntry {
                vector: rng.next_u64() as u8,
                delivery_mode: (rng.gen_range(8)) as u8,
                dest_mode: rng.gen_bool(0.5),
                masked: rng.gen_bool(0.5),
                trigger_level: rng.gen_bool(0.5),
                remote_irr: rng.gen_bool(0.5),
                dest: rng.next_u64() as u8,
            };
        }
        vm.pit.channels[(rng.gen_range(3)) as usize].count = rng.next_u64() as u32;
        vm.pit.speaker = rng.next_u64() as u8;
        for _ in 0..rng.gen_range(4) {
            let dev = match rng.gen_range(4) {
                0 => DeviceState::Network {
                    mac: [
                        2,
                        0,
                        rng.next_u64() as u8,
                        rng.next_u64() as u8,
                        rng.next_u64() as u8,
                        rng.next_u64() as u8,
                    ],
                    unplugged: rng.gen_bool(0.5),
                },
                1 => DeviceState::Block {
                    backend: format!("nbd://pool/{}", rng.gen_range(1_000)),
                    sectors: rng.next_u64() >> 16,
                    pending_requests: (rng.gen_range(64)) as u32,
                },
                2 => DeviceState::Console {
                    tx_buffered: rng.next_u64() as u32,
                },
                _ => DeviceState::PassThrough {
                    bdf: format!(
                        "{:02x}:{:02x}.{}",
                        rng.gen_range(256),
                        rng.gen_range(32),
                        rng.gen_range(8)
                    ),
                    guest_paused: rng.gen_bool(0.5),
                },
            };
            vm.devices.push(dev);
        }
        for _ in 0..1 + rng.gen_range(4) {
            vm.memory.regions.push(MemoryRegion {
                gfn_start: rng.gen_range(1 << 40),
                pages: 1 + rng.gen_range(1 << 20),
            });
        }
        vm
    }

    /// The binary codec roundtrips any structurally valid VM exactly.
    #[test]
    fn binary_codec_roundtrips_random_vms() {
        let mut rng = SimRng::new(SEED);
        for case in 0..CASES {
            let vm = gen_vm(&mut rng);
            let blob = encode(&vm);
            assert_eq!(blob.len(), encoded_size(&vm), "seed {SEED:#x} case {case}");
            let back = decode(&blob)
                .unwrap_or_else(|e| panic!("seed {SEED:#x} case {case}: decode failed: {e}"));
            assert_eq!(back, vm, "seed {SEED:#x} case {case}");
        }
    }

    /// The JSON codec agrees with the binary codec on the same VMs.
    #[test]
    fn json_codec_roundtrips_random_vms() {
        let mut rng = SimRng::new(SEED ^ 0x150);
        for case in 0..CASES / 4 {
            let vm = gen_vm(&mut rng);
            let text = to_json(&vm);
            let back = from_json(&text).unwrap_or_else(|e| {
                panic!(
                    "seed {:#x} case {case}: from_json failed: {e}",
                    SEED ^ 0x150
                )
            });
            assert_eq!(back, vm, "seed {:#x} case {case}", SEED ^ 0x150);
        }
    }

    /// Regression corpus carried over from the proptest era:
    /// `pos_seed = 13878943932095113043, val = 2` once drove the mutation
    /// fuzzer into a decode path that panicked instead of erroring.
    #[test]
    fn corpus_pos_seed_13878943932095113043_val_2() {
        let mut vm = UisrVm::new("corpus");
        vm.vcpus.push(VcpuState::reset(0));
        let blob = encode(&vm);
        let mut pos_rng = SimRng::new(13_878_943_932_095_113_043);
        let pos = pos_rng.gen_range(blob.len() as u64) as usize;
        let mut buf = blob;
        buf[pos] = 2;
        // Must not panic; a normalizing decode must be a fixed point.
        if let Ok(decoded) = decode(&buf) {
            let renorm = decode(&encode(&decoded)).expect("re-decode");
            assert_eq!(renorm, decoded);
        }
    }
}
