//! The readiness poller behind the reactor event loop and the multiplexed
//! memslap client: one level-triggered Linux `epoll` instance.
//!
//! The offline-build constraint rules out `mio`/`libc`, so this module
//! declares the three syscalls it needs directly (`std` already links
//! the platform libc). Wakeups cost O(ready), not O(registered).
//!
//! Registrations are level-triggered: a socket that still has unread
//! bytes (or writable buffer space while write interest is registered)
//! shows up again on the next wait, so the reactor never needs
//! edge-triggered re-arm bookkeeping.
//!
//! There is no portable fallback. The served store is built, tested and
//! measured on Linux only — its arenas already need Linux `madvise`
//! (`MADV_COLLAPSE`) — and the crate refuses to compile elsewhere, so a
//! second backend would be code no target runs.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::c_int;
use std::time::Duration;

/// Which readiness classes a registration wants.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd has bytes to read (or EOF/hangup to report).
    pub readable: bool,
    /// Wake when the fd can accept more written bytes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Copy, Clone, Debug)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: usize,
    /// Bytes (or EOF) are available to read.
    pub readable: bool,
    /// The socket can accept writes.
    pub writable: bool,
    /// Error or hangup was signaled; the owner should drain and close.
    pub closed: bool,
}

// On x86_64 the kernel ABI packs epoll_event to 12 bytes; other
// architectures use natural (aligned) layout.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Copy, Clone)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x1;
const EPOLLOUT: u32 = 0x4;
const EPOLLERR: u32 = 0x8;
const EPOLLHUP: u32 = 0x10;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLL_CLOEXEC: c_int = 0o2000000;

/// Events one [`Poller::wait`] can report; more stay pending for the next.
const EVENT_BUF: usize = 1024;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
}

/// A level-triggered readiness poller: one epoll instance, whose fd
/// closes on drop, and the buffer its waits fill.
pub struct Poller {
    epfd: OwnedFd,
    buf: Vec<EpollEvent>,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller")
            .field("epfd", &self.epfd.as_raw_fd())
            .finish()
    }
}

impl Poller {
    /// A new epoll instance.
    ///
    /// # Errors
    ///
    /// `epoll_create1` failures.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall, no pointers.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            // SAFETY: `fd` is a freshly created, owned epoll fd.
            epfd: unsafe { OwnedFd::from_raw_fd(fd) },
            buf: vec![EpollEvent { events: 0, data: 0 }; EVENT_BUF],
        })
    }

    /// One `epoll_ctl`; `interest` is `None` for a delete.
    fn ctl(&self, op: c_int, fd: RawFd, interest: Option<(usize, Interest)>) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        if let Some((token, want)) = interest {
            ev.events = EPOLLRDHUP
                | if want.readable { EPOLLIN } else { 0 }
                | if want.writable { EPOLLOUT } else { 0 };
            ev.data = token as u64;
        }
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Start watching `fd` with `token` and `want` interest.
    ///
    /// # Errors
    ///
    /// `EEXIST` if the fd is already registered, plus `epoll_ctl` errors.
    pub fn register(&mut self, fd: RawFd, token: usize, want: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, Some((token, want)))
    }

    /// Change an existing registration's token or interest.
    ///
    /// # Errors
    ///
    /// `ENOENT` if the fd is not registered, plus `epoll_ctl` errors.
    pub fn modify(&mut self, fd: RawFd, token: usize, want: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, Some((token, want)))
    }

    /// Stop watching `fd`. Call **before** closing the fd.
    ///
    /// # Errors
    ///
    /// `ENOENT` if the fd is not registered, plus `epoll_ctl` errors.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, None)
    }

    /// Wait up to `timeout` (forever if `None`) and append readiness
    /// events to `out` (which is cleared first). Returns the event count.
    /// `Some(Duration::ZERO)` is a nonblocking check; sub-millisecond
    /// timeouts round down (the reactor's micro-deadline logic handles
    /// the final sub-millisecond slice with zero-timeout waits).
    ///
    /// # Errors
    ///
    /// `epoll_wait` failures (`EINTR` is retried internally).
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        out.clear();
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(c_int::MAX as u128) as c_int,
        };
        let n = loop {
            // SAFETY: `buf` is a live allocation of `buf.len()` events.
            let rc = unsafe {
                epoll_wait(
                    self.epfd.as_raw_fd(),
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &self.buf[..n] {
            let bits = ev.events;
            out.push(Event {
                token: ev.data as usize,
                readable: bits & (EPOLLIN | EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0,
                writable: bits & EPOLLOUT != 0,
                closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    /// A connected nonblocking socket pair over loopback.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();
        server.set_nonblocking(true).unwrap();
        (client, server)
    }

    #[test]
    fn readable_only_after_bytes_arrive() {
        let mut poller = Poller::new().unwrap();
        let (mut client, server) = pair();
        poller
            .register(server.as_raw_fd(), 7, Interest::READ)
            .unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.is_empty(), "nothing sent yet");

        client.write_all(b"ping").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Level-triggered: unread bytes keep reporting.
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        poller.deregister(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn peer_close_reports_readable_eof() {
        let mut poller = Poller::new().unwrap();
        let (client, mut server) = pair();
        poller
            .register(server.as_raw_fd(), 3, Interest::READ)
            .unwrap();
        drop(client);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 3 && e.readable),
            "EOF must wake the reader"
        );
        let mut buf = [0u8; 16];
        assert_eq!(server.read(&mut buf).unwrap(), 0, "clean EOF");
    }

    #[test]
    fn write_interest_toggles_with_modify() {
        let mut poller = Poller::new().unwrap();
        let (_client, server) = pair();
        poller
            .register(server.as_raw_fd(), 1, Interest::READ)
            .unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(
            !events.iter().any(|e| e.writable),
            "write interest not registered"
        );
        poller
            .modify(server.as_raw_fd(), 1, Interest::READ_WRITE)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 1 && e.writable),
            "idle socket is writable"
        );
    }

    #[test]
    fn deregister_stops_events_and_rejects_unknown_fd() {
        let mut poller = Poller::new().unwrap();
        let (mut client, server) = pair();
        poller
            .register(server.as_raw_fd(), 9, Interest::READ)
            .unwrap();
        poller.deregister(server.as_raw_fd()).unwrap();
        client.write_all(b"x").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.is_empty(), "deregistered fd reported");
        assert!(poller.deregister(server.as_raw_fd()).is_err());
    }
}
