//! What the timed windows of a run accumulate, and the end-to-end metrics
//! computed from them. Rates, latency percentiles and CPU per key are
//! computed per window and reported as the quiet-decile window (see
//! `stats::quiet_decile`), with the windows' median and quartiles kept
//! beside it; ratios that act as tripwires (`ok_frac`, `hit_frac`) cover
//! the whole run, so a bad window cannot hide.

use crate::procfs::ProcSample;
use crate::stats::{median, percentile, quiet_decile, Summary};

#[derive(Clone, Debug, Default)]
pub struct WindowAcc {
    pub reqs: u64,
    pub keys_read: u64,
    pub pairs_written: u64,
    pub hits: u64,
    /// Request latencies in ns (saturating at ~4.29 s).
    pub lat_ns: Vec<u32>,
    pub bytes_out: u64,
    pub bytes_in: u64,
}

impl WindowAcc {
    pub fn keys(&self) -> u64 {
        self.keys_read + self.pairs_written
    }

    pub fn absorb(&mut self, other: WindowAcc) {
        self.reqs += other.reqs;
        self.keys_read += other.keys_read;
        self.pairs_written += other.pairs_written;
        self.hits += other.hits;
        self.lat_ns.extend(other.lat_ns);
        self.bytes_out += other.bytes_out;
        self.bytes_in += other.bytes_in;
    }
}

/// The timed part of one run.
#[derive(Clone, Debug, Default)]
pub struct Timed {
    pub window_s: f64,
    pub windows: Vec<WindowAcc>,
    /// The process hosting the store, sampled at each of the
    /// `windows + 1` window boundaries.
    pub server: Vec<ProcSample>,
    /// The benchmark process at the same boundaries.
    pub own: Vec<ProcSample>,
    /// Operations (requests) sent, over warm-up, windows and drain.
    pub attempted: u64,
    /// Shed, rejected, timed out — and wrong answers, which also clear
    /// `correct`.
    pub failed: u64,
    pub wrong: u64,
}

/// One reported metric: the value, its unit, and the per-window (or
/// per-set-up) samples it was taken from.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Metric {
    fn new(name: &str, unit: &'static str, value: f64, samples: &[f64]) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples: samples.to_vec(),
        }
    }

    /// A per-window metric, reported as its quiet-decile window.
    pub fn windowed(name: &str, unit: &'static str, v: &[f64], higher_is_better: bool) -> Metric {
        Metric::new(name, unit, quiet_decile(v, higher_is_better), v)
    }

    /// A metric repeated a few times in a run, reported as the median.
    pub fn median_of(name: &str, unit: &'static str, v: &[f64]) -> Metric {
        Metric::new(name, unit, median(v), v)
    }

    pub fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric::new(name, unit, value, &[value])
    }

    /// Median, quartiles and count of the samples, for the record.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.samples)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Timed {
    pub fn total(&self, f: impl Fn(&WindowAcc) -> u64) -> u64 {
        self.windows.iter().map(f).sum()
    }

    /// Per-window deltas of a server-process counter.
    pub fn server_deltas(&self, f: impl Fn(&ProcSample) -> f64) -> Vec<f64> {
        self.server
            .windows(2)
            .map(|w| f(&w[1]) - f(&w[0]))
            .collect()
    }

    /// The eight end-to-end metrics. `setups_s` holds one entry per set-up
    /// the run performed; `hwm_kib` is the store host's peak resident set.
    pub fn end_to_end(&mut self, setups_s: &[f64], hwm_kib: u64) -> Vec<Metric> {
        let window_s = self.window_s;
        let keys_per_s: Vec<f64> = self
            .windows
            .iter()
            .map(|w| w.keys() as f64 / window_s)
            .collect();
        let pct = |windows: &mut [WindowAcc], p: f64| -> Vec<f64> {
            windows
                .iter_mut()
                .map(|w| f64::from(percentile(&mut w.lat_ns, p)) / 1e3)
                .collect()
        };
        let p50 = pct(&mut self.windows, 50.0);
        let p99 = pct(&mut self.windows, 99.0);
        let cpu_us_per_key: Vec<f64> = self
            .server_deltas(ProcSample::cpu_s)
            .iter()
            .zip(&self.windows)
            .map(|(cpu_s, w)| ratio(cpu_s * 1e6, w.keys() as f64))
            .collect();
        vec![
            Metric::windowed("keys_per_s", "1/s", &keys_per_s, true),
            Metric::windowed("req_p50_us", "us", &p50, false),
            Metric::windowed("req_p99_us", "us", &p99, false),
            Metric::single(
                "ok_frac",
                "ratio",
                1.0 - ratio(self.failed as f64, self.attempted as f64),
            ),
            Metric::single(
                "hit_frac",
                "ratio",
                ratio(
                    self.total(|w| w.hits) as f64,
                    self.total(|w| w.keys_read) as f64,
                ),
            ),
            Metric::windowed("server_cpu_us_per_key", "us", &cpu_us_per_key, false),
            Metric::single("server_rss_mib", "MiB", hwm_kib as f64 / 1024.0),
            Metric::median_of("setup_s", "s", setups_s),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(keys: u64, lat: &[u32]) -> WindowAcc {
        WindowAcc {
            reqs: lat.len() as u64,
            keys_read: keys,
            hits: keys * 9 / 10,
            lat_ns: lat.to_vec(),
            ..WindowAcc::default()
        }
    }

    fn cpu(user_s: f64) -> ProcSample {
        ProcSample {
            user_s,
            ..ProcSample::default()
        }
    }

    #[test]
    fn reports_the_quiet_window_and_keeps_the_median() {
        let mut t = Timed {
            window_s: 2.0,
            // The third window was hit by a noisy neighbour.
            windows: vec![
                window(2000, &[10_000, 20_000, 30_000]),
                window(2200, &[11_000, 21_000, 31_000]),
                window(400, &[90_000, 95_000, 99_000]),
            ],
            server: vec![cpu(0.0), cpu(1.0), cpu(2.1), cpu(2.3)],
            attempted: 9,
            ..Timed::default()
        };
        let m = t.end_to_end(&[0.5, 0.7, 0.6], 2048);
        let by = |n: &str| m.iter().find(|m| m.name == n).unwrap();
        // With three windows the quiet decile is the best one.
        assert_eq!(by("keys_per_s").value, 1100.0);
        assert_eq!(by("keys_per_s").summary().median, 1000.0);
        assert_eq!(by("keys_per_s").summary().n, 3);
        assert_eq!(by("req_p50_us").value, 20.0);
        assert_eq!(by("req_p99_us").value, 30.0);
        assert_eq!(by("req_p99_us").summary().median, 31.0);
        assert_eq!(by("ok_frac").value, 1.0);
        assert!((by("hit_frac").value - 0.9).abs() < 1e-12);
        assert!((by("server_cpu_us_per_key").value - 500.0).abs() < 1e-6);
        assert_eq!(by("server_rss_mib").value, 2.0);
        assert_eq!(by("setup_s").value, 0.6, "set-up reports its median");
        assert_eq!(m.len(), 8);
    }

    #[test]
    fn failures_count_against_the_whole_run() {
        let mut t = Timed {
            window_s: 1.0,
            windows: vec![window(10, &[1])],
            server: vec![cpu(0.0), cpu(0.0)],
            attempted: 200,
            failed: 1,
            ..Timed::default()
        };
        let m = t.end_to_end(&[1.0], 1);
        assert_eq!(m[3].name, "ok_frac");
        assert_eq!(m[3].value, 0.995);
    }
}
