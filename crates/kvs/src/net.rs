//! Real TCP transport: length-prefixed framing over loopback or a LAN.
//!
//! Where [`crate::transport::Fabric`] *models* the paper's InfiniBand EDR
//! link, this module ships the same [`crate::protocol`] messages over real
//! sockets, so a [`crate::kvsd::Kvsd`] server and the networked memslap
//! client measure actual kernel/network-stack cost instead of an analytic
//! wire charge.
//!
//! ## Framing
//!
//! Each protocol message travels as one frame:
//!
//! ```text
//! +----------------+------------------------+
//! | u32 LE length  |  payload (length bytes)|
//! +----------------+------------------------+
//! ```
//!
//! The payload is exactly the output of `Request::encode` /
//! `Response::encode`, reused verbatim. Frames larger than
//! [`MAX_FRAME_BYTES`] are rejected on read *before* allocating, so a
//! corrupt or hostile length prefix cannot balloon memory. The prefix's
//! bytes and its cap belong to [`crate::protocol`], which owns the whole
//! wire format; [`write_frame`], [`read_frame`] and [`FrameDecoder`] are
//! the I/O around its two prefix functions.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

use bytes::Bytes;

use crate::protocol::{frame_len, frame_prefix};
use crate::transport::{ClientConn, Transport};

pub use crate::protocol::{FrameTooLarge, MAX_FRAME_BYTES};

/// Write one length-prefixed frame. The caller flushes.
///
/// # Errors
///
/// I/O errors from `w`, or [`io::ErrorKind::InvalidInput`] carrying a
/// [`FrameTooLarge`] source if the payload exceeds [`MAX_FRAME_BYTES`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame_prefix(payload.len())?)?;
    w.write_all(payload)
}

/// Read one length-prefixed frame.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer closed
/// between messages).
///
/// # Errors
///
/// I/O errors from `r`; [`io::ErrorKind::UnexpectedEof`] if the stream
/// ends mid-frame; [`io::ErrorKind::InvalidData`] carrying a
/// [`FrameTooLarge`] source if the length prefix exceeds
/// [`MAX_FRAME_BYTES`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Bytes>> {
    let mut len_buf = [0u8; 4];
    // A clean close arrives as EOF on the first header byte; EOF anywhere
    // later is a truncated frame.
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                ))
            }
            n => filled += n,
        }
    }
    let mut payload = vec![0u8; frame_len(len_buf)?];
    r.read_exact(&mut payload)?;
    Ok(Some(Bytes::from(payload)))
}

/// Incremental, resumable frame decoder for nonblocking sockets.
///
/// The blocking [`read_frame`] owns the socket until a whole frame
/// arrives; a reactor cannot afford that. `FrameDecoder` instead accepts
/// whatever bytes a readiness event delivered ([`FrameDecoder::extend`]),
/// yielding complete frames as they materialize and carrying partial
/// header/payload state across events.
///
/// ## Parity with [`read_frame`]
///
/// The decoder enforces the exact same contract, byte for byte:
///
/// * a length prefix above [`MAX_FRAME_BYTES`] is rejected **at header
///   time** — before any payload byte is buffered — with
///   [`io::ErrorKind::InvalidData`] carrying a typed [`FrameTooLarge`]
///   source (the blocking path's behavior; an early design buffered the
///   oversized payload first, which let a hostile prefix pin 16 MiB);
/// * EOF at a frame boundary is clean ([`FrameDecoder::finish`] returns
///   `Ok`), EOF mid-frame is [`io::ErrorKind::UnexpectedEof`];
/// * frame payloads come out identical to what `read_frame` returns for
///   the same byte stream, regardless of how the stream was split.
///
/// A corrupt prefix poisons the decoder: after an error, the stream has
/// no recoverable framing, so every later call returns the same error
/// class and the connection must be dropped (mirroring the blocking
/// server, which closes on the first bad frame).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Bytes of the 4-byte length prefix received so far.
    header: [u8; 4],
    header_filled: usize,
    /// Payload in progress; allocated only after the prefix passes the
    /// size check.
    payload: Vec<u8>,
    /// Declared payload length once the prefix is complete.
    want: Option<usize>,
    poisoned: bool,
}

impl FrameDecoder {
    /// A decoder at a frame boundary.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` while no byte of the next frame has arrived — the only
    /// state where EOF is a clean close.
    pub fn at_boundary(&self) -> bool {
        self.header_filled == 0 && self.want.is_none() && !self.poisoned
    }

    /// Feed `bytes` received from the socket, appending decoded frames to
    /// `out`. Returns how many frames were appended.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] with a [`FrameTooLarge`] source when
    /// a length prefix exceeds [`MAX_FRAME_BYTES`]; the decoder is then
    /// poisoned and the connection should be closed.
    pub fn extend(&mut self, mut bytes: &[u8], out: &mut Vec<Bytes>) -> io::Result<usize> {
        if self.poisoned {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame decoder poisoned by an earlier oversized prefix",
            ));
        }
        let mut produced = 0;
        while !bytes.is_empty() {
            match self.want {
                None => {
                    let take = (4 - self.header_filled).min(bytes.len());
                    self.header[self.header_filled..self.header_filled + take]
                        .copy_from_slice(&bytes[..take]);
                    self.header_filled += take;
                    bytes = &bytes[take..];
                    if self.header_filled == 4 {
                        let len = frame_len(self.header).inspect_err(|_| self.poisoned = true)?;
                        self.want = Some(len);
                        self.payload.clear();
                        self.payload.reserve(len);
                    }
                }
                Some(len) => {
                    let take = (len - self.payload.len()).min(bytes.len());
                    self.payload.extend_from_slice(&bytes[..take]);
                    bytes = &bytes[take..];
                    if self.payload.len() == len {
                        out.push(Bytes::from(std::mem::take(&mut self.payload)));
                        produced += 1;
                        self.want = None;
                        self.header_filled = 0;
                    }
                }
            }
        }
        Ok(produced)
    }

    /// Signal EOF.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] if the stream ended inside a frame
    /// (partial header or partial payload), exactly like [`read_frame`].
    pub fn finish(&self) -> io::Result<()> {
        if self.at_boundary() {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                if self.want.is_some() {
                    "eof inside frame payload"
                } else {
                    "eof inside frame header"
                },
            ))
        }
    }
}

/// A [`Transport`] that opens TCP connections to one server address.
#[derive(Debug, Clone)]
pub struct TcpTransport {
    addr: SocketAddr,
}

impl TcpTransport {
    /// Resolve `addr` (e.g. `"127.0.0.1:11411"`) once, up front.
    ///
    /// # Errors
    ///
    /// Resolution failures.
    pub fn new(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved empty"))?;
        Ok(TcpTransport { addr })
    }

    /// The server address connections are opened to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Transport for TcpTransport {
    fn connect(&self) -> io::Result<Box<dyn ClientConn>> {
        Ok(Box::new(TcpConn::connect(self.addr)?))
    }
}

/// A framed TCP connection implementing [`ClientConn`].
///
/// Writes are buffered so a pipelined window of requests coalesces into
/// few syscalls; [`ClientConn::recv`] flushes before blocking.
#[derive(Debug)]
pub struct TcpConn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl TcpConn {
    /// Connect and disable Nagle (request frames are latency-sensitive).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(TcpConn {
            reader,
            writer: BufWriter::new(stream),
        })
    }
}

impl ClientConn for TcpConn {
    fn send(&mut self, frame: Bytes) -> io::Result<u64> {
        write_frame(&mut self.writer, &frame)?;
        Ok(0) // real wire: its cost is in the measured latency
    }

    fn recv(&mut self) -> io::Result<(Bytes, u64)> {
        self.writer.flush()?;
        match read_frame(&mut self.reader)? {
            Some(frame) => Ok((frame, 0)),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    fn set_recv_timeout(&mut self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[0xAB; 1000]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), &b"hello"[..]);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), &b""[..]);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), &[0xAB; 1000][..]);
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn eof_mid_header_and_mid_payload_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        for cut in 1..buf.len() {
            let err = read_frame(&mut &buf[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocating() {
        let bad = u32::MAX.to_le_bytes();
        let err = read_frame(&mut &bad[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let inner = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<FrameTooLarge>())
            .expect("typed FrameTooLarge source");
        assert_eq!(inner.len, u32::MAX as usize);
        assert_eq!(inner.limit, MAX_FRAME_BYTES);
    }

    #[test]
    fn oversized_write_rejected() {
        let huge = vec![0u8; MAX_FRAME_BYTES + 1];
        let err = write_frame(&mut Vec::new(), &huge).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let inner = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<FrameTooLarge>())
            .expect("typed FrameTooLarge source");
        assert_eq!(inner.len, MAX_FRAME_BYTES + 1);
    }

    #[test]
    fn frame_decoder_single_byte_feed_matches_blocking() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, &[0xAB; 300]).unwrap();
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for b in &wire {
            dec.extend(std::slice::from_ref(b), &mut frames).unwrap();
        }
        dec.finish().unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(&frames[0][..], b"hello");
        assert_eq!(&frames[1][..], b"");
        assert_eq!(&frames[2][..], &[0xAB; 300][..]);
    }

    #[test]
    fn frame_decoder_whole_pipeline_in_one_feed() {
        let mut wire = Vec::new();
        for i in 0..10u8 {
            write_frame(&mut wire, &[i; 17]).unwrap();
        }
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        assert_eq!(dec.extend(&wire, &mut frames).unwrap(), 10);
        dec.finish().unwrap();
        assert_eq!(frames.len(), 10);
    }

    #[test]
    fn frame_decoder_rejects_oversized_prefix_at_header_time() {
        let bad = u32::MAX.to_le_bytes();
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        let err = dec.extend(&bad, &mut frames).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let inner = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<FrameTooLarge>())
            .expect("typed FrameTooLarge source");
        assert_eq!(inner.len, u32::MAX as usize);
        assert_eq!(inner.limit, MAX_FRAME_BYTES);
        // Poisoned: later feeds keep failing instead of misparsing.
        assert!(dec.extend(b"more", &mut frames).is_err());
        assert!(frames.is_empty(), "no payload byte was buffered");
    }

    #[test]
    fn frame_decoder_eof_mid_frame_is_unexpected_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        for cut in 1..wire.len() {
            let mut dec = FrameDecoder::new();
            let mut frames = Vec::new();
            dec.extend(&wire[..cut], &mut frames).unwrap();
            let err = dec.finish().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        // And a clean boundary is a clean close.
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        dec.extend(&wire, &mut frames).unwrap();
        assert!(dec.at_boundary());
        dec.finish().unwrap();
    }

    #[test]
    fn recv_timeout_fires_on_silent_server() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Accept but never respond.
        let silent = std::thread::spawn(move || listener.accept().unwrap());
        let mut conn = TcpConn::connect(addr).unwrap();
        conn.set_recv_timeout(Some(std::time::Duration::from_millis(50)))
            .unwrap();
        conn.send(Bytes::from_static(b"ping")).unwrap();
        let err = conn.recv().unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "unexpected kind {:?}",
            err.kind()
        );
        drop(silent.join().unwrap());
    }

    #[test]
    fn tcp_conn_roundtrip_against_echo_server() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            while let Some(frame) = read_frame(&mut reader).unwrap() {
                write_frame(&mut writer, &frame).unwrap();
                writer.flush().unwrap();
            }
        });
        let transport = TcpTransport::new(addr).unwrap();
        let mut conn = transport.connect().unwrap();
        // Pipelined: both frames in flight before the first recv.
        conn.send(Bytes::from_static(b"one")).unwrap();
        conn.send(Bytes::from_static(b"two")).unwrap();
        assert_eq!(&conn.recv().unwrap().0[..], b"one");
        assert_eq!(&conn.recv().unwrap().0[..], b"two");
        drop(conn);
        echo.join().unwrap();
    }
}
