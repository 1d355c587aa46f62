//! The proxy's message codec: [`Msg`], with one parser and one writer for
//! every layout in the protocol table of the parent module's doc. Nothing
//! outside this file names a tag or reads a message's bytes.

use std::borrow::Cow;

use hypertp_core::{HypervisorKind, VmConfig};

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
    /// writes for some message. A flag byte holds only its defined bits,
    /// `Round`'s stop byte is 0 and nothing trails a message.
    pub(super) fn parse(buf: &'a [u8]) -> Option<Msg<'a>> {
        let mut r = Reader { buf, pos: 0 };
        let msg = match r.u8()? {
            MSG_HELLO => {
                let resume = r.bool()?;
                let (round, vcpus, memory_gb) = (r.u32()?, r.u32()?, r.u64()?);
                let flags = r.u8().filter(|f| f & !7 == 0)?;
                let (name, storage_backend) = (r.str()?, r.str()?);
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
            MSG_HELLO_ACK => match r.u8()? {
                0 => Msg::HelloAck(HypervisorKind::Xen),
                1 => Msg::HelloAck(HypervisorKind::Kvm),
                _ => return None,
            },
            MSG_ROUND_PART => Msg::RoundPart(r.u32()?, r.rest()),
            MSG_ROUND => {
                r.u8().filter(|&stop| stop == 0)?;
                Msg::Round(r.u32()?, r.u64()?, r.rest())
            }
            MSG_ACK => Msg::Ack(r.u32()?),
            MSG_NAK => Msg::Nak(r.u32()?),
            MSG_UISR => Msg::Uisr(r.rest()),
            MSG_DONE => Msg::Done(r.u64()?, r.u64()?),
            MSG_DONE_ACK => Msg::DoneAck(r.u64()?, r.u64()?, r.u64()?),
            _ => return None,
        };
        (r.pos == buf.len()).then_some(msg)
    }

    /// Clears `out` and writes the message into it. A `Hello`'s strings
    /// must fit their `u16` lengths, which `RemoteSink::open` checks.
    pub(super) fn write(&self, out: &mut Vec<u8>) {
        out.clear();
        let mut put = |fields: &[&[u8]]| fields.iter().for_each(|f| out.extend_from_slice(f));
        match self {
            Msg::Hello(resume, round, cfg) => {
                let flags = (cfg.huge_pages as u8)
                    | ((cfg.inplace_compatible as u8) << 1)
                    | ((cfg.has_network as u8) << 2);
                put(&[&[MSG_HELLO, *resume as u8], &round.to_le_bytes()]);
                put(&[&cfg.vcpus.to_le_bytes(), &cfg.memory_gb.to_le_bytes()]);
                put(&[&[flags]]);
                for s in [&cfg.name, &cfg.storage_backend] {
                    put(&[&(s.len() as u16).to_le_bytes(), s.as_bytes()]);
                }
            }
            Msg::HelloAck(HypervisorKind::Xen) => put(&[&[MSG_HELLO_ACK, 0]]),
            Msg::HelloAck(HypervisorKind::Kvm) => put(&[&[MSG_HELLO_ACK, 1]]),
            Msg::RoundPart(round, frames) => {
                put(&[&[MSG_ROUND_PART], &round.to_le_bytes(), frames])
            }
            Msg::Round(round, count, frames) => {
                // The byte after the tag is the stop byte, always 0.
                put(&[
                    &[MSG_ROUND, 0],
                    &round.to_le_bytes(),
                    &count.to_le_bytes(),
                    frames,
                ])
            }
            Msg::Ack(round) => put(&[&[MSG_ACK], &round.to_le_bytes()]),
            Msg::Nak(round) => put(&[&[MSG_NAK], &round.to_le_bytes()]),
            Msg::Uisr(blob) => put(&[&[MSG_UISR], blob]),
            Msg::Done(sum, ns) => put(&[&[MSG_DONE], &sum.to_le_bytes(), &ns.to_le_bytes()]),
            Msg::DoneAck(sum, bytes, frames) => {
                put(&[&[MSG_DONE_ACK], &sum.to_le_bytes()]);
                put(&[&bytes.to_le_bytes(), &frames.to_le_bytes()]);
            }
        }
    }
}

/// Little-endian cursor over a received message.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let b = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(b)
    }
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.bytes(N)?.try_into().ok()
    }
    fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_le_bytes)
    }
    fn bool(&mut self) -> Option<bool> {
        self.u8().filter(|&b| b <= 1).map(|b| b == 1)
    }
    fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }
    fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }
    /// A UTF-8 string after its `u16` length.
    fn str(&mut self) -> Option<String> {
        let n = u16::from_le_bytes(self.array()?) as usize;
        String::from_utf8(self.bytes(n)?.to_vec()).ok()
    }
    fn rest(&mut self) -> &'a [u8] {
        let b = &self.buf[self.pos..];
        self.pos = self.buf.len();
        b
    }
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
