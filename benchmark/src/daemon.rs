//! Lifecycle of the spawned `simdht-kvsd`: it cannot hang the run and
//! cannot outlive it.
//!
//! The daemon gets **sizing flags only**, so the server loop, index, shard
//! count and read mode are whatever the shipped binary defaults to; a later
//! change of default is measured without editing the benchmark. It binds
//! port 0 and the address is parsed from its start-up line, which is also
//! kept in the run record because it names the defaults actually measured.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use crate::spec::Spec;

/// How long the daemon may take to print its start-up line.
const STARTUP_TIMEOUT: Duration = Duration::from_secs(10);

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

pub struct Daemon {
    child: Child,
    /// Drains the daemon's stdout; ends when the pipe closes.
    reader: Option<std::thread::JoinHandle<()>>,
    pub addr: SocketAddr,
    pub argv: Vec<String>,
    /// The `simdht-kvsd listening on …` line.
    pub startup_line: String,
}

impl Daemon {
    pub fn spawn(kvsd: &Path, spec: &Spec) -> io::Result<Daemon> {
        let args = [
            "--addr".to_string(),
            "127.0.0.1:0".to_string(),
            "--capacity".to_string(),
            spec.capacity.to_string(),
            "--memory-mb".to_string(),
            spec.memory_mb.to_string(),
        ];
        let mut cmd = Command::new(kvsd);
        cmd.args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        // SAFETY: the closure runs in the forked child before exec and makes
        // one async-signal-safe syscall that touches no memory. It asks the
        // kernel to kill the daemon when the benchmark dies by any route
        // Drop cannot cover (SIGKILL, abort).
        unsafe {
            cmd.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) != 0 {
                    return Err(io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let mut child = cmd.spawn().map_err(|e| {
            io::Error::new(e.kind(), format!("cannot start {}: {e}", kvsd.display()))
        })?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // Read on a thread so a silent daemon times out instead of hanging;
        // the thread then drains the pipe until the daemon exits.
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                // Nobody listens after the start-up line; keep draining so
                // the daemon never blocks on a full pipe.
                let _ = tx.send(line);
            }
        });
        let mut daemon = Daemon {
            child,
            reader: Some(reader),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            argv: std::iter::once(kvsd.display().to_string())
                .chain(args)
                .collect(),
            startup_line: String::new(),
        };
        // From here on an early return drops `daemon`, which kills the child.
        let line = rx.recv_timeout(STARTUP_TIMEOUT).map_err(|_| {
            let status = daemon.exit_status();
            io::Error::other(format!("daemon printed no start-up line ({status})"))
        })?;
        daemon.addr = parse_listen_addr(&line)
            .ok_or_else(|| io::Error::other(format!("unrecognized start-up line: {line}")))?;
        daemon.startup_line = line;
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// "still running" or how it ended — for error messages when a
    /// connection dies under the generator.
    pub fn exit_status(&mut self) -> String {
        match self.child.try_wait() {
            Ok(Some(status)) => format!("daemon exited early: {status}"),
            Ok(None) => "daemon still running".to_string(),
            Err(e) => format!("daemon state unknown: {e}"),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Runs on every exit path including a panic's unwind. Errors mean
        // the child is already gone.
        let _ = self.child.kill();
        let _ = self.child.wait();
        // The daemon's death closed the pipe, so the reader is at EOF.
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// The address in `simdht-kvsd listening on 127.0.0.1:40123 (index …)`.
pub fn parse_listen_addr(line: &str) -> Option<SocketAddr> {
    let rest = line.split_once("listening on ")?.1;
    rest.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_start_up_line() {
        let line = "simdht-kvsd listening on 127.0.0.1:40123 (index MemC3, 1 shard(s), capacity 1048576, 256 MiB slab, prefetch depth 8, locked reads)";
        assert_eq!(
            parse_listen_addr(line),
            Some("127.0.0.1:40123".parse().unwrap())
        );
        assert_eq!(parse_listen_addr("error: cannot bind"), None);
        assert_eq!(parse_listen_addr("listening on nowhere"), None);
    }

    #[test]
    fn a_missing_binary_is_an_error_not_a_hang() {
        let spec = Spec::by_name("wire_get1", true).unwrap();
        let err = Daemon::spawn(Path::new("/nonexistent/simdht-kvsd"), &spec)
            .err()
            .unwrap();
        assert!(err.to_string().contains("cannot start"));
    }

    #[test]
    fn a_daemon_that_exits_early_fails_the_spawn() {
        // `true` exits at once without a start-up line.
        let spec = Spec::by_name("wire_get1", true).unwrap();
        let err = Daemon::spawn(Path::new("true"), &spec).err().unwrap();
        assert!(err.to_string().contains("no start-up line"), "{err}");
    }
}
