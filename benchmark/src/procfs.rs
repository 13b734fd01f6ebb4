//! CPU, context-switch, thread and memory counters of a process, read from
//! `/proc/<pid>/{stat,status,task/*/status}` — how the benchmark measures
//! the daemon from outside.

use std::fs;
use std::io;

/// `/proc/<pid>/stat` counts CPU time in USER_HZ ticks, which the Linux ABI
/// fixes at 100 per second on every mainstream architecture.
const TICKS_PER_SEC: f64 = 100.0;

#[derive(Copy, Clone, Debug, Default)]
pub struct ProcSample {
    pub user_s: f64,
    pub sys_s: f64,
    /// Voluntary + involuntary context switches, summed over live threads.
    pub ctxsw: u64,
    pub threads: u64,
    pub rss_kib: u64,
    /// Peak resident set (`VmHWM`).
    pub hwm_kib: u64,
}

impl ProcSample {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

fn status_field(status: &str, name: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

fn ctxsw_of(status: &str) -> u64 {
    status_field(status, "voluntary_ctxt_switches")
        + status_field(status, "nonvoluntary_ctxt_switches")
}

/// Sample process `pid` (`None` = this process).
pub fn sample(pid: Option<u32>) -> io::Result<ProcSample> {
    let root = match pid {
        Some(p) => format!("/proc/{p}"),
        None => "/proc/self".to_string(),
    };
    let stat = fs::read_to_string(format!("{root}/stat"))?;
    // The command name (field 2) may hold spaces; fields resume after its
    // closing parenthesis with field 3, so utime/stime (14/15) are 11/12.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let status = fs::read_to_string(format!("{root}/status"))?;
    // The process-level status file counts only the main thread's switches.
    let ctxsw = fs::read_dir(format!("{root}/task"))?
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|s| ctxsw_of(&s))
        .sum();
    Ok(ProcSample {
        user_s: ticks(11) / TICKS_PER_SEC,
        sys_s: ticks(12) / TICKS_PER_SEC,
        ctxsw,
        threads: status_field(&status, "Threads"),
        rss_kib: status_field(&status, "VmRSS"),
        hwm_kib: status_field(&status, "VmHWM"),
    })
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread — and every thread and process it starts
/// from now on — to the lowest-numbered CPU it may run on. Returns that
/// CPU.
///
/// Every workload runs on one CPU. A closed loop over one connection
/// alternates between daemon and generator, so a second CPU adds no
/// throughput; what it adds on a small shared VM is a halted vCPU to wake
/// on every message, whose cost swings with the host's state (measured
/// here: 23 k to 490 k keys/s on two CPUs within minutes, 330 k to 490 k on
/// one). Two busy threads fare no better there: each gets anywhere from
/// 0.4 to 1.0 of a CPU, second by second, while one is steady to ±1 %.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    // A kernel cpu_set_t: 1024 bits.
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live buffer of the size passed; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let word = mask
        .iter()
        .position(|&w| w != 0)
        .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
    let bit = mask[word].trailing_zeros() as usize;
    mask = [0; 16];
    mask[word] = 1 << bit;
    // SAFETY: as above; the kernel only reads the buffer.
    if unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(word * 64 + bit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_this_process() {
        let a = sample(None).unwrap();
        assert!(a.threads >= 1);
        assert!(a.rss_kib > 0 && a.hwm_kib >= a.rss_kib / 2);
        // Burn ~50 ms of CPU: user time must not go backwards and the
        // explicit-pid form must agree with /proc/self.
        let t = std::time::Instant::now();
        let mut x = 1u64;
        while t.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let b = sample(Some(std::process::id())).unwrap();
        assert!(b.cpu_s() >= a.cpu_s());
        assert!(b.cpu_s() - a.cpu_s() < 5.0);
    }

    #[test]
    fn pinning_leaves_one_allowed_cpu_and_children_inherit_it() {
        // On its own thread: the test harness's other threads stay free.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().unwrap();
            assert_eq!(pin_to_one_cpu().unwrap(), cpu, "idempotent");
            let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
            let allowed = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .unwrap()
                .trim()
                .to_string();
            assert_eq!(allowed, cpu.to_string());
            let child = std::process::Command::new("sh")
                .args(["-c", "grep Cpus_allowed_list /proc/self/status"])
                .output()
                .unwrap();
            let line = String::from_utf8_lossy(&child.stdout);
            assert_eq!(line.split_whitespace().last(), Some(allowed.as_str()));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn parses_status_fields() {
        let s = "Name:\tx\nVmHWM:\t  1234 kB\nThreads:\t3\nvoluntary_ctxt_switches:\t10\nnonvoluntary_ctxt_switches:\t5\n";
        assert_eq!(status_field(s, "VmHWM"), 1234);
        assert_eq!(status_field(s, "Threads"), 3);
        assert_eq!(ctxsw_of(s), 15);
        assert_eq!(status_field(s, "Missing"), 0);
    }
}
