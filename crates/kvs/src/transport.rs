//! The two traits a KVS client drives a server through.
//!
//! [`Transport`] opens connections and [`ClientConn`] carries encoded
//! [`crate::protocol`] frames over one. There is one real implementation,
//! the TCP transport in [`crate::net`]. The traits stay so the fault layer
//! ([`crate::fault`]) can wrap any transport, and so test doubles can stand
//! in for a server. The networked memslap client
//! ([`crate::memslap::run_memslap_over`]) and [`crate::client::RetryClient`]
//! are written against them.

use std::io;

use bytes::Bytes;

/// A client's connection to a KVS server: a bidirectional stream of
/// encoded request/response frames (see [`crate::protocol`]).
///
/// Implementations may buffer writes; [`ClientConn::recv`] must flush any
/// buffered requests before blocking, so a send/recv loop can never
/// deadlock on its own unflushed window.
pub trait ClientConn: Send {
    /// Send one encoded request frame.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying link.
    fn send(&mut self, frame: Bytes) -> io::Result<()>;

    /// Block for the next response frame.
    ///
    /// # Errors
    ///
    /// I/O errors, including clean connection close
    /// ([`io::ErrorKind::UnexpectedEof`]).
    fn recv(&mut self) -> io::Result<Bytes>;

    /// Flush any buffered request frames toward the server.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying link.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Bound how long [`ClientConn::recv`] may block; `None` restores
    /// blocking forever. A timed-out `recv` returns
    /// [`io::ErrorKind::TimedOut`] or [`io::ErrorKind::WouldBlock`]
    /// (platform-dependent for real sockets); after a timeout mid-frame
    /// the connection may hold partial state, so callers should drop it
    /// rather than retry on the same stream.
    ///
    /// The default implementation ignores the timeout (suitable only for
    /// transports that cannot stall, e.g. in-process test doubles).
    ///
    /// # Errors
    ///
    /// I/O errors applying the timeout to the underlying link.
    fn set_recv_timeout(&mut self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        let _ = timeout;
        Ok(())
    }
}

/// Something a KVS client can open connections to.
pub trait Transport: Send + Sync {
    /// Open a new connection.
    ///
    /// # Errors
    ///
    /// I/O errors establishing the connection.
    fn connect(&self) -> io::Result<Box<dyn ClientConn>>;
}
