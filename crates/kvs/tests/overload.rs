//! `simdht-kvsd` at the limits of its process: out of file descriptors and
//! out of address space for another thread. Each case runs the daemon as a
//! child process and, once it listens, lowers one of its resource limits
//! with `prlimit` (util-linux) to a few connections' worth above what it
//! uses, and holds it to the overload contract: a connection the accept thread cannot
//! serve is closed and counted in the drain report's `accept:` line, the
//! accept thread neither spins nor dies, and the daemon keeps accepting.
//! Neither case opens more than a dozen sockets or starts more than a few
//! threads. Both read `/proc`, so they run on Linux only.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, ErrorKind, Read};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use bytes::Bytes;
use simdht_kvs::net::TcpConn;
use simdht_kvs::protocol::{Request, Response};
use simdht_kvs::transport::ClientConn;

const KVSD: &str = env!("CARGO_BIN_EXE_simdht-kvsd");
/// Ticks per second of `/proc/<pid>/task/<tid>/stat` (`USER_HZ`, 100 on
/// every Linux target).
const USER_HZ: u64 = 100;

/// A daemon child, its address, and its stdout after the listening line.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Run `simdht-kvsd <args>` with `env` added to its environment.
    fn start(args: &[&str], env: &[(&str, &str)]) -> Daemon {
        let mut child = Command::new(KVSD)
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .envs(env.iter().copied())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn simdht-kvsd");
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        stdout.read_line(&mut line).expect("listening line");
        let addr = line
            .split_whitespace()
            .nth(3)
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("no address in {line:?}"));
        Daemon {
            child,
            addr,
            stdout,
        }
    }

    /// Set the daemon's `resource` limit (a `prlimit` option such as
    /// `--as` or `--nofile`) to `value`.
    fn limit(&self, resource: &str, value: u64) {
        let status = Command::new("prlimit")
            .arg(format!("--pid={}", self.child.id()))
            .arg(format!("{resource}={value}"))
            .status()
            .expect("run prlimit (util-linux)");
        assert!(status.success(), "prlimit {resource}={value}");
    }

    /// Descriptors the daemon has open.
    fn open_descriptors(&self) -> u64 {
        let fds = std::fs::read_dir(format!("/proc/{}/fd", self.child.id())).unwrap();
        fds.count() as u64
    }

    /// Wait for the drain and return the report's `accept:` error count
    /// (0 when the line is absent).
    fn accept_errors(mut self) -> u64 {
        let mut report = String::new();
        self.stdout.read_to_string(&mut report).unwrap();
        assert!(self.child.wait().unwrap().success(), "{report}");
        report
            .lines()
            .find_map(|l| l.strip_prefix("accept: ")?.strip_suffix(" errors"))
            .map_or(0, |n| n.parse().unwrap())
    }

    /// `(thread id and name, user + system ticks)` of every thread.
    fn thread_ticks(&self) -> Vec<(String, u64)> {
        let tasks = format!("/proc/{}/task", self.child.id());
        std::fs::read_dir(tasks)
            .unwrap()
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("stat")).ok())
            .map(|stat| {
                let (head, tail) = stat.rsplit_once(") ").unwrap();
                let name = head.replacen(" (", " ", 1);
                let fields: Vec<&str> = tail.split_whitespace().collect();
                // utime and stime are fields 14 and 15; `tail` starts at 3.
                let ticks = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
                (name, ticks)
            })
            .collect()
    }

    /// Kibibytes of address space the daemon has mapped.
    fn vm_size_kib(&self) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).unwrap();
        let line = status.lines().find(|l| l.starts_with("VmSize:")).unwrap();
        line.split_whitespace().nth(1).unwrap().parse().unwrap()
    }
}

/// One Multi-Get for an absent key: `true` if it was answered, `false` if
/// the daemon closed the connection first.
fn answered(addr: SocketAddr, id: u64) -> (bool, TcpConn) {
    let mut conn = TcpConn::connect(addr).unwrap();
    conn.set_recv_timeout(Some(Duration::from_secs(5))).unwrap();
    let keys = vec![Bytes::from_static(b"absent")];
    let sent = conn.send(Request::MGet { id, keys }.encode()).is_ok();
    let ok = sent
        && match conn.recv() {
            Ok(frame) => matches!(Response::decode(frame), Ok(Response::MGet { .. })),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                panic!("no answer in 5 s")
            }
            Err(_) => false,
        };
    (ok, conn)
}

#[test]
fn accept_thread_backs_off_when_out_of_descriptors() {
    // Room for four connections of two descriptors each (the stream and
    // the drain's clone) above what the listening daemon holds: the fifth
    // `accept` fails with EMFILE, and keeps failing while the rest of a
    // dozen wait in the backlog. Retrying at once spins the accept thread
    // on a whole CPU.
    let daemon = Daemon::start(&["--duration", "6"], &[]);
    daemon.limit("--nofile", daemon.open_descriptors() + 2 * 4);
    let idle: Vec<TcpStream> = (0..12)
        .map(|_| TcpStream::connect(daemon.addr).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    let before = daemon.thread_ticks();
    let window = Duration::from_secs(2);
    std::thread::sleep(window);
    let after = daemon.thread_ticks();
    let budget = USER_HZ * window.as_secs() / 10;
    for (name, ticks) in &after {
        let start = before.iter().find(|(n, _)| n == name).map_or(0, |t| t.1);
        assert!(
            ticks - start < budget,
            "thread {name} took {} of {} ticks over {window:?}",
            ticks - start,
            USER_HZ * window.as_secs()
        );
    }
    drop(idle);
    assert!(daemon.accept_errors() > 0, "EMFILE was never counted");
}

#[test]
fn a_refused_handler_thread_closes_its_connection_and_accepting_goes_on() {
    // One malloc arena, so a handler thread costs its stack and no more;
    // then an address-space limit a few stacks above what the daemon maps
    // once listening. The first connections get threads, later ones find
    // none: each must be closed and counted while the accept thread lives
    // on to serve the next connection once a thread has been joined.
    let daemon = Daemon::start(&["--duration", "6"], &[("MALLOC_ARENA_MAX", "1")]);
    daemon.limit("--as", (daemon.vm_size_kib() + 5 * 1024) * 1024);

    let mut served = Vec::new();
    let mut refused = 0;
    for id in 0..8 {
        let (ok, conn) = answered(daemon.addr, id);
        if ok {
            served.push(conn);
        } else {
            refused += 1;
        }
    }
    assert!(!served.is_empty(), "no connection was served at all");
    assert!(
        refused > 0,
        "every connection got a thread: the limit is too loose"
    );
    drop(served);
    // Closed handlers are joined (their stacks unmapped) on the next
    // accept; one that has not quite returned is refused once more.
    let deadline = Instant::now() + Duration::from_secs(3);
    let mut id = 100;
    while !answered(daemon.addr, id).0 {
        assert!(
            Instant::now() < deadline,
            "nothing served after the refusals"
        );
        refused += 1;
        id += 1;
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(daemon.accept_errors() >= refused, "refused {refused}");
}
