//! The proxy's message codec: [`Msg`], with one parser and one writer for
//! every layout in the protocol table of the parent module's doc. Nothing
//! outside this file names a tag or reads a message's bytes.

use std::borrow::Cow;

use hypertp_core::{HypervisorKind, VmConfig};
use hypertp_uisr::layout::{Layout, Reader};

const MSG_HELLO: u8 = 0x10;
const MSG_HELLO_ACK: u8 = 0x11;
const MSG_ROUND: u8 = 0x12;
const MSG_ACK: u8 = 0x13;
const MSG_NAK: u8 = 0x14;
const MSG_UISR: u8 = 0x15;
const MSG_DONE: u8 = 0x16;
const MSG_DONE_ACK: u8 = 0x17;
const MSG_ROUND_PART: u8 = 0x18;

/// One protocol message, holding the payload of its row in the protocol
/// table, in order (less `Round`'s stop flag, always 0), and borrowing
/// frames or a UISR blob from the bytes it was parsed from. `parse`
/// accepts exactly what `write` writes.
#[derive(Debug, Clone, PartialEq)]
pub(super) enum Msg<'a> {
    Hello(bool, u32, Cow<'a, VmConfig>),
    HelloAck(HypervisorKind),
    RoundPart(u32, &'a [u8]),
    Round(u32, u64, &'a [u8]),
    Ack(u32),
    Nak(u32),
    Uisr(&'a [u8]),
    Done(u64, u64),
    DoneAck(u64, u64, u64),
}

impl<'a> Msg<'a> {
    /// Parses one message: `None` unless `buf` is exactly what `write`
    /// writes for some message. A bool is 0 or 1, a flag byte holds only
    /// its defined bits, `Round`'s stop byte is 0 and nothing trails a
    /// message.
    pub(super) fn parse(buf: &'a [u8]) -> Option<Msg<'a>> {
        let r = &mut Reader::new(buf);
        let msg = match get(r)? {
            MSG_HELLO => {
                let resume = get::<u8>(r).filter(|&b| b <= 1)? == 1;
                let (round, vcpus, memory_gb) = get(r)?;
                let flags = get::<u8>(r).filter(|f| f & !7 == 0)?;
                let (name, storage_backend) = get(r)?;
                let cfg = VmConfig {
                    name,
                    vcpus,
                    memory_gb,
                    huge_pages: flags & 1 != 0,
                    inplace_compatible: flags & 2 != 0,
                    has_network: flags & 4 != 0,
                    storage_backend,
                };
                Msg::Hello(resume, round, Cow::Owned(cfg))
            }
            MSG_HELLO_ACK => match get(r)? {
                0u8 => Msg::HelloAck(HypervisorKind::Xen),
                1 => Msg::HelloAck(HypervisorKind::Kvm),
                _ => return None,
            },
            MSG_ROUND_PART => Msg::RoundPart(get(r)?, r.rest()),
            MSG_ROUND => {
                get::<u8>(r).filter(|&stop| stop == 0)?;
                let (round, count) = get(r)?;
                Msg::Round(round, count, r.rest())
            }
            MSG_ACK => Msg::Ack(get(r)?),
            MSG_NAK => Msg::Nak(get(r)?),
            MSG_UISR => Msg::Uisr(r.rest()),
            MSG_DONE => {
                let (sum, ns) = get(r)?;
                Msg::Done(sum, ns)
            }
            MSG_DONE_ACK => {
                let (sum, bytes, frames) = get(r)?;
                Msg::DoneAck(sum, bytes, frames)
            }
            _ => return None,
        };
        r.is_empty().then_some(msg)
    }

    /// Clears `out` and writes the message into it. A `Hello`'s strings
    /// must fit their `u16` lengths, which `RemoteSink::open` checks.
    pub(super) fn write(&self, out: &mut Vec<u8>) {
        out.clear();
        match self {
            Msg::Hello(resume, round, cfg) => {
                let flags = (cfg.huge_pages as u8)
                    | ((cfg.inplace_compatible as u8) << 1)
                    | ((cfg.has_network as u8) << 2);
                (MSG_HELLO, *resume, *round).put(out);
                (cfg.vcpus, cfg.memory_gb, flags).put(out);
                cfg.name.put(out);
                cfg.storage_backend.put(out);
            }
            Msg::HelloAck(HypervisorKind::Xen) => (MSG_HELLO_ACK, 0u8).put(out),
            Msg::HelloAck(HypervisorKind::Kvm) => (MSG_HELLO_ACK, 1u8).put(out),
            Msg::RoundPart(round, frames) => {
                (MSG_ROUND_PART, *round).put(out);
                out.extend_from_slice(frames);
            }
            Msg::Round(round, count, frames) => {
                // The byte after the tag is the stop byte, always 0.
                (MSG_ROUND, 0u8, *round, *count).put(out);
                out.extend_from_slice(frames);
            }
            Msg::Ack(round) => (MSG_ACK, *round).put(out),
            Msg::Nak(round) => (MSG_NAK, *round).put(out),
            Msg::Uisr(blob) => {
                MSG_UISR.put(out);
                out.extend_from_slice(blob);
            }
            Msg::Done(sum, ns) => (MSG_DONE, *sum, *ns).put(out),
            Msg::DoneAck(sum, bytes, frames) => (MSG_DONE_ACK, *sum, *bytes, *frames).put(out),
        }
    }
}

/// Reads one scalar, string or tuple through the shared layout codec.
fn get<T: Layout>(r: &mut Reader<'_>) -> Option<T> {
    T::get(r).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::FrameRing;
    use hypertp_sim::hash::digest_words;

    /// Messages are canonical. One valid encoding of each kind, with each
    /// byte set in turn to 0x00, 0x01, 0x02, 0x80 and 0xff, and cut at
    /// each length: every mutant either fails to parse or writes back to
    /// exactly its own bytes, so a flag, a bool, the stop byte and a
    /// message's end each have one accepted form.
    #[test]
    fn a_message_that_parses_writes_back_to_its_bytes() {
        let mut ring = FrameRing::new();
        ring.push_raw(1, 0x5eed);
        ring.push_dup(2, digest_words(&[0x5eed]));
        let (frames, cfg) = (ring.bytes_from(0), VmConfig::small("vm0"));
        let valid = [
            Msg::Hello(true, 3, Cow::Borrowed(&cfg)),
            Msg::HelloAck(HypervisorKind::Kvm),
            Msg::RoundPart(3, frames),
            Msg::Round(3, 2, frames),
            Msg::Ack(3),
            Msg::Nak(u32::MAX),
            Msg::Uisr(b"blob"),
            Msg::Done(0x5eed, 1_000),
            Msg::DoneAck(0x5eed, 64, 2),
        ];
        let (mut parsed, mut out) = (0, Vec::new());
        for msg in valid {
            let mut b = Vec::new();
            msg.write(&mut b);
            let set = (0..b.len()).flat_map(|i| [0x00, 0x01, 0x02, 0x80, 0xff].map(|v| (i, v)));
            let set = set.map(|(i, v)| [&b[..i], &[v], &b[i + 1..]].concat());
            for mutant in set.chain((0..b.len()).map(|n| b[..n].to_vec())) {
                if let Some(m) = Msg::parse(&mutant) {
                    m.write(&mut out);
                    assert_eq!(out, mutant, "{m:?}");
                    parsed += 1;
                }
            }
        }
        assert!(parsed > 500, "only {parsed} mutants parsed");
    }
}
