//! Pluggable byte transports for the serialized wire path.
//!
//! The engine's in-process path hands [`crate::framing::FrameRing`] bytes
//! straight to the destination hypervisor; the §4.2 proxy pair instead
//! ships the same bytes through a [`Transport`]: a bidirectional,
//! length-prefixed frame pipe. Two backends:
//!
//! * [`InProcTransport`] — deterministic crossed in-memory channels, the
//!   default for tests and the simulator (no I/O, no timing noise).
//! * [`UdsTransport`] / [`UdsServerTransport`] — a real Unix-domain
//!   socket (std-only), carrying the identical byte stream between two
//!   processes; used by the `proxy` CLI subcommand.
//!
//! The wire encoding is one `u32` little-endian length prefix per frame,
//! followed by the frame's bytes. A frame here is one *protocol message*
//! (see [`crate::proxy`]) — a serialized round rides in bounded parts, one
//! frame each. Both socket ends queue frames until [`Transport::flush`]
//! and put the queue on the socket with one write.
//!
//! [`Transport::reset`] models a connection teardown + re-establish: the
//! UDS client redials (with bounded retries), the UDS server re-accepts,
//! and the in-proc pipe — which cannot lose data — only drops its unsent
//! frames, or fails once its peer is gone, since nothing can reconnect
//! to a dropped endpoint. The proxy's mid-stream-disconnect recovery
//! drives this.

use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, Sender};
use std::time::Duration;

/// Defensive ceiling on a single frame (16 MiB): a corrupt length prefix
/// fails fast instead of attempting a huge allocation.
pub(crate) const MAX_FRAME_BYTES: u32 = 16 << 20;

/// Transport failure modes.
#[derive(Debug)]
pub enum TransportError {
    /// The peer hung up (EOF / channel closed).
    Closed,
    /// A length prefix exceeded `MAX_FRAME_BYTES`.
    FrameTooLarge(u32),
    /// Underlying socket error.
    Io(std::io::Error),
    /// Reconnect attempts exhausted.
    ReconnectFailed(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Closed => write!(f, "transport closed by peer"),
            TransportError::FrameTooLarge(n) => {
                write!(f, "frame length {n} exceeds cap {MAX_FRAME_BYTES}")
            }
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
            TransportError::ReconnectFailed(s) => write!(f, "reconnect failed: {s}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == ErrorKind::UnexpectedEof {
            TransportError::Closed
        } else {
            TransportError::Io(e)
        }
    }
}

/// A bidirectional, length-prefixed frame pipe between the two proxies.
/// `Send` so a test or CLI can run the destination half on its own
/// thread, as the real deployment runs it in its own process.
pub trait Transport: Send {
    /// Queues one frame (sent as `[len: u32 le][bytes]`).
    fn send_frame(&mut self, bytes: &[u8]) -> Result<(), TransportError>;

    /// Pushes every queued frame to the peer.
    fn flush(&mut self) -> Result<(), TransportError>;

    /// Blocks for the next frame, clearing and refilling `out`.
    fn recv_frame(&mut self, out: &mut Vec<u8>) -> Result<(), TransportError>;

    /// Tears the connection down and re-establishes it (client redials,
    /// server re-accepts). Queued unflushed frames are discarded — they
    /// model bytes lost mid-stream. Lossless in-proc pipes no-op.
    fn reset(&mut self) -> Result<(), TransportError> {
        Ok(())
    }
}

/// Deterministic in-process transport: a pair of crossed channels.
/// Frames queue locally until [`Transport::flush`]; `reset` leaves the
/// channel as it is but still discards the unflushed queue, so drop
/// semantics match the socket backend. Once a `flush` or `recv_frame` has
/// found the peer endpoint dropped, `reset` fails with
/// [`TransportError::Closed`]: a peer that is gone never comes back, and
/// succeeding would send a destination proxy round its receive loop
/// forever.
pub struct InProcTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    queued: Vec<Vec<u8>>,
    /// The peer endpoint was found dropped.
    closed: bool,
}

impl fmt::Debug for InProcTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InProcTransport")
            .field("queued", &self.queued.len())
            .finish()
    }
}

impl InProcTransport {
    /// A connected pair of endpoints (source, destination).
    pub fn pair() -> (InProcTransport, InProcTransport) {
        let (a_tx, b_rx) = std::sync::mpsc::channel();
        let (b_tx, a_rx) = std::sync::mpsc::channel();
        let end = |tx, rx| InProcTransport {
            tx,
            rx,
            queued: Vec::new(),
            closed: false,
        };
        (end(a_tx, a_rx), end(b_tx, b_rx))
    }
}

impl Transport for InProcTransport {
    fn send_frame(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        self.queued.push(bytes.to_vec());
        Ok(())
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        for frame in self.queued.drain(..) {
            if self.tx.send(frame).is_err() {
                self.closed = true;
                return Err(TransportError::Closed);
            }
        }
        Ok(())
    }

    fn recv_frame(&mut self, out: &mut Vec<u8>) -> Result<(), TransportError> {
        let Ok(frame) = self.rx.recv() else {
            self.closed = true;
            return Err(TransportError::Closed);
        };
        out.clear();
        out.extend_from_slice(&frame);
        Ok(())
    }

    fn reset(&mut self) -> Result<(), TransportError> {
        self.queued.clear();
        if self.closed {
            return Err(TransportError::Closed);
        }
        Ok(())
    }
}

/// Appends one length-prefixed frame to a socket end's send queue.
fn queue_frame(queued: &mut Vec<u8>, bytes: &[u8]) -> Result<(), TransportError> {
    if bytes.len() as u64 > MAX_FRAME_BYTES as u64 {
        return Err(TransportError::FrameTooLarge(bytes.len() as u32));
    }
    queued.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    queued.extend_from_slice(bytes);
    Ok(())
}

/// Puts a socket end's send queue on the stream with one write.
fn flush_queue(stream: &mut impl Write, queued: &mut Vec<u8>) -> Result<(), TransportError> {
    if !queued.is_empty() {
        stream.write_all(queued)?;
        queued.clear();
    }
    stream.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame from a stream into `out`.
fn read_frame(stream: &mut impl Read, out: &mut Vec<u8>) -> Result<(), TransportError> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(TransportError::FrameTooLarge(len));
    }
    out.clear();
    out.resize(len as usize, 0);
    stream.read_exact(out)?;
    Ok(())
}

/// Client (source-proxy) end of a Unix-domain-socket transport.
#[derive(Debug)]
pub struct UdsTransport {
    path: PathBuf,
    stream: UnixStream,
    /// Length-prefixed frames queued until `flush` — one socket write
    /// per flush, and `reset` can discard unsent frames wholesale.
    queued: Vec<u8>,
}

impl UdsTransport {
    /// Connects to the destination proxy's socket, retrying for up to
    /// ~5 s so the two processes can start in either order.
    pub fn connect(path: impl AsRef<Path>) -> Result<UdsTransport, TransportError> {
        let path = path.as_ref().to_path_buf();
        let stream = Self::dial(&path)?;
        Ok(UdsTransport {
            path,
            stream,
            queued: Vec::new(),
        })
    }

    fn dial(path: &Path) -> Result<UnixStream, TransportError> {
        let mut last = None;
        for attempt in 0..100 {
            match UnixStream::connect(path) {
                Ok(s) => return Ok(s),
                Err(e) => last = Some(e),
            }
            std::thread::sleep(Duration::from_millis(10 + attempt));
        }
        Err(TransportError::ReconnectFailed(format!(
            "{}: {}",
            path.display(),
            last.map(|e| e.to_string()).unwrap_or_default()
        )))
    }

    /// Wraps an already-connected stream (tests use
    /// `UnixStream::pair()`); `reset` cannot redial without a path and
    /// reports `ReconnectFailed`.
    pub fn from_stream(stream: UnixStream) -> UdsTransport {
        UdsTransport {
            path: PathBuf::new(),
            stream,
            queued: Vec::new(),
        }
    }
}

impl Transport for UdsTransport {
    fn send_frame(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        queue_frame(&mut self.queued, bytes)
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        flush_queue(&mut self.stream, &mut self.queued)
    }

    fn recv_frame(&mut self, out: &mut Vec<u8>) -> Result<(), TransportError> {
        read_frame(&mut self.stream, out)
    }

    fn reset(&mut self) -> Result<(), TransportError> {
        self.queued.clear();
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if self.path.as_os_str().is_empty() {
            return Err(TransportError::ReconnectFailed(
                "transport wraps a raw stream pair; no path to redial".to_string(),
            ));
        }
        self.stream = Self::dial(&self.path)?;
        Ok(())
    }
}

/// Server (destination-proxy) end: owns the listener, accepts one
/// connection at a time, and re-accepts on [`Transport::reset`] — the
/// mid-stream-disconnect recovery path.
#[derive(Debug)]
pub struct UdsServerTransport {
    listener: UnixListener,
    stream: UnixStream,
    /// Length-prefixed frames queued until `flush`, as on the client end.
    queued: Vec<u8>,
}

impl UdsServerTransport {
    /// Binds `path` (removing any stale socket file) and blocks for the
    /// first connection.
    pub fn bind(path: impl AsRef<Path>) -> Result<UdsServerTransport, TransportError> {
        let path = path.as_ref();
        if path.exists() {
            let _ = std::fs::remove_file(path);
        }
        let listener = UnixListener::bind(path)?;
        let (stream, _) = listener.accept()?;
        Ok(UdsServerTransport {
            listener,
            stream,
            queued: Vec::new(),
        })
    }
}

impl Transport for UdsServerTransport {
    fn send_frame(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        queue_frame(&mut self.queued, bytes)
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        flush_queue(&mut self.stream, &mut self.queued)
    }

    fn recv_frame(&mut self, out: &mut Vec<u8>) -> Result<(), TransportError> {
        read_frame(&mut self.stream, out)
    }

    fn reset(&mut self) -> Result<(), TransportError> {
        self.queued.clear();
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        let (stream, _) = self.listener.accept()?;
        self.stream = stream;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inproc_pair_round_trips_frames_in_order() {
        let (mut a, mut b) = InProcTransport::pair();
        a.send_frame(b"round 0").unwrap();
        a.send_frame(&[0u8; 0]).unwrap();
        a.send_frame(b"round 1").unwrap();
        a.flush().unwrap();
        let mut buf = Vec::new();
        b.recv_frame(&mut buf).unwrap();
        assert_eq!(buf, b"round 0");
        b.recv_frame(&mut buf).unwrap();
        assert_eq!(buf, b"");
        b.recv_frame(&mut buf).unwrap();
        assert_eq!(buf, b"round 1");
        // Reverse direction.
        b.send_frame(b"ack").unwrap();
        b.flush().unwrap();
        a.recv_frame(&mut buf).unwrap();
        assert_eq!(buf, b"ack");
    }

    #[test]
    fn inproc_reset_discards_unflushed_frames() {
        let (mut a, mut b) = InProcTransport::pair();
        a.send_frame(b"lost").unwrap();
        a.reset().unwrap();
        a.send_frame(b"kept").unwrap();
        a.flush().unwrap();
        let mut buf = Vec::new();
        b.recv_frame(&mut buf).unwrap();
        assert_eq!(buf, b"kept");
    }

    #[test]
    fn inproc_closed_peer_reports_closed() {
        let (mut a, b) = InProcTransport::pair();
        // A live peer: reset succeeds (the source's drop recovery).
        a.reset().unwrap();
        drop(b);
        a.send_frame(b"x").unwrap();
        assert!(matches!(a.flush(), Err(TransportError::Closed)));
        let mut buf = Vec::new();
        assert!(matches!(
            a.recv_frame(&mut buf),
            Err(TransportError::Closed)
        ));
        // A dropped peer cannot be reconnected to.
        assert!(matches!(a.reset(), Err(TransportError::Closed)));
    }

    #[test]
    fn uds_stream_pair_round_trips_and_rejects_oversize() {
        let (s1, s2) = UnixStream::pair().expect("socketpair");
        let mut a = UdsTransport::from_stream(s1);
        let mut b = UdsTransport::from_stream(s2);
        a.send_frame(b"hello over af_unix").unwrap();
        a.send_frame(b"second").unwrap();
        a.flush().unwrap();
        let mut buf = Vec::new();
        b.recv_frame(&mut buf).unwrap();
        assert_eq!(buf, b"hello over af_unix");
        b.recv_frame(&mut buf).unwrap();
        assert_eq!(buf, b"second");
        // A corrupt (oversize) length prefix fails fast.
        use std::io::Write as _;
        let mut raw = b.stream.try_clone().unwrap();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        assert!(matches!(
            a.recv_frame(&mut buf),
            Err(TransportError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn uds_eof_maps_to_closed() {
        let (s1, s2) = UnixStream::pair().expect("socketpair");
        let mut a = UdsTransport::from_stream(s1);
        drop(s2);
        let mut buf = Vec::new();
        assert!(matches!(
            a.recv_frame(&mut buf),
            Err(TransportError::Closed)
        ));
    }

    #[test]
    fn uds_connect_reconnects_after_server_reset() {
        let dir = std::env::temp_dir().join(format!("htp-uds-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("reset.sock");
        let sock2 = sock.clone();
        let server = std::thread::spawn(move || {
            let mut srv = UdsServerTransport::bind(&sock2).unwrap();
            let mut buf = Vec::new();
            srv.recv_frame(&mut buf).unwrap();
            assert_eq!(buf, b"before drop");
            // Simulate a mid-stream disconnect, then serve the retry.
            srv.reset().unwrap();
            srv.recv_frame(&mut buf).unwrap();
            assert_eq!(buf, b"after drop");
            srv.send_frame(b"ack").unwrap();
            srv.flush().unwrap();
        });
        let mut cli = UdsTransport::connect(&sock).unwrap();
        cli.send_frame(b"before drop").unwrap();
        cli.flush().unwrap();
        // The server tears the connection down; the client redials.
        cli.reset().unwrap();
        cli.send_frame(b"after drop").unwrap();
        cli.flush().unwrap();
        let mut buf = Vec::new();
        cli.recv_frame(&mut buf).unwrap();
        assert_eq!(buf, b"ack");
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The server end honours the `Transport` contract the client end
    /// does: a frame queued but not flushed never reaches the socket, and
    /// `reset` discards it.
    #[test]
    fn uds_server_reset_discards_unflushed_frames() {
        let dir = std::env::temp_dir().join(format!("htp-uds-srv-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("server-reset.sock");
        let sock2 = sock.clone();
        let server = std::thread::spawn(move || {
            let mut srv = UdsServerTransport::bind(&sock2).unwrap();
            srv.send_frame(b"lost").unwrap();
            srv.reset().unwrap();
            srv.send_frame(b"kept").unwrap();
            srv.flush().unwrap();
        });
        let mut cli = UdsTransport::connect(&sock).unwrap();
        let mut buf = Vec::new();
        // The first connection ends without a frame on it.
        assert!(matches!(
            cli.recv_frame(&mut buf),
            Err(TransportError::Closed)
        ));
        cli.reset().unwrap();
        cli.recv_frame(&mut buf).unwrap();
        assert_eq!(buf, b"kept");
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
