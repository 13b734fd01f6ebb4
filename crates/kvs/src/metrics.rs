//! The servers' counters: one block per worker, merged on read.
//!
//! Every connection's handler thread owns one [`Counters`] block, and the
//! accept thread owns one; each alone writes its block. A block is a
//! cache-line-aligned array of [`AtomicU64`], one per [`Counter`]; a bump is a `Relaxed` load and a `Relaxed` store, so the
//! hot path issues no `lock`-prefixed instruction and shares no line with
//! another worker. Readers take a [`Snapshot`] of each block and add them
//! up: per location, atomics are read in their single modification order,
//! so every counter a reader sees only grows (DESIGN.md §8).

use std::fmt;
use std::ops::{Add, AddAssign, Index};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::store::PhaseNanos;

/// One server counter; indexes a [`Snapshot`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Multi-Get requests served.
    Requests,
    /// Keys those Multi-Gets looked up.
    Keys,
    /// Keys found.
    Found,
    /// Pairs or point operations the write verbs applied.
    Writes,
    /// Requests answered `ServerBusy` / `DeadlineExceeded` instead of run.
    Shed,
    /// Nanoseconds workers spent on store calls, each counted once: a
    /// Multi-Get store call up to its return, split over the requests it
    /// served (`share`) from the first frame's decode, and decode → seal
    /// for any other verb. A shed adds none.
    BusyNs,
    /// Pre-processing phase nanoseconds (Fig. 11(b)).
    PreNs,
    /// Hash-table lookup phase nanoseconds.
    LookupNs,
    /// Post-processing phase nanoseconds.
    PostNs,
    /// Connections closed.
    ConnsClosed,
    /// Of those, connections closed because their output made no progress
    /// for the stall grace (`idle_timeout` where set, else the drain
    /// grace): a client that stopped reading its replies.
    StalledCloses,
    /// Connections the accept thread lost: a failed `accept`, or an
    /// accepted stream it could not clone or start a handler thread for,
    /// which it closes unserved.
    AcceptErrors,
    /// Multi-Get store calls: runs of pipelined requests already in one
    /// connection's read buffer.
    Batches,
    /// Keys over those calls (`/ Batches` = mean width).
    BatchKeys,
}

/// How many counters there are.
const N: usize = Counter::BatchKeys as usize + 1;

/// One worker's counters. Exactly one thread writes a block, through
/// [`Counters::add`]; any thread may read it.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct Counters([AtomicU64; N]);

impl Counters {
    /// Add `n` to `counter`. Only the block's owning thread may call this:
    /// with a single writer, the load always sees the writer's own last
    /// store, so load-then-store adds exactly without a read-modify-write.
    /// A second writer would lose counts (never memory safety).
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        let cell = &self.0[counter as usize];
        cell.store(cell.load(Relaxed).wrapping_add(n), Relaxed);
    }

    /// Count one request that ran against the store: a Multi-Get's
    /// `(keys, found)` as `lookup`, the pairs or point operations a write
    /// applied as `writes`, and its share of busy time.
    pub(crate) fn served(&self, lookup: Option<(usize, usize)>, writes: usize, busy_ns: u64) {
        if let Some((keys, found)) = lookup {
            self.add(Counter::Requests, 1);
            self.add(Counter::Keys, keys as u64);
            self.add(Counter::Found, found as u64);
        }
        self.add(Counter::Writes, writes as u64);
        self.add(Counter::BusyNs, busy_ns);
    }

    /// Add one store call's phase split.
    pub(crate) fn add_phases(&self, phases: PhaseNanos) {
        self.add(Counter::PreNs, phases.pre);
        self.add(Counter::LookupNs, phases.lookup);
        self.add(Counter::PostNs, phases.post);
    }

    /// Read every counter.
    pub(crate) fn snapshot(&self) -> Snapshot {
        Snapshot(std::array::from_fn(|i| self.0[i].load(Relaxed)))
    }
}

/// Counter values read from one or more blocks, indexed by [`Counter`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot([u64; N]);

impl Snapshot {
    /// `num / den`, or 0 when `den` is 0: a mean batch width, or keys per
    /// busy nanosecond.
    pub fn ratio(&self, num: Counter, den: Counter) -> f64 {
        match self[den] {
            0 => 0.0,
            d => self[num] as f64 / d as f64,
        }
    }

    /// The pre / lookup / post split.
    pub fn phases(&self) -> PhaseNanos {
        PhaseNanos {
            pre: self[Counter::PreNs],
            lookup: self[Counter::LookupNs],
            post: self[Counter::PostNs],
        }
    }
}

impl Index<Counter> for Snapshot {
    type Output = u64;
    fn index(&self, counter: Counter) -> &u64 {
        &self.0[counter as usize]
    }
}

impl AddAssign for Snapshot {
    fn add_assign(&mut self, other: Snapshot) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a = a.wrapping_add(b);
        }
    }
}

impl Add for Snapshot {
    type Output = Snapshot;
    fn add(mut self, other: Snapshot) -> Snapshot {
        self += other;
        self
    }
}

impl std::iter::Sum for Snapshot {
    fn sum<I: Iterator<Item = Snapshot>>(iter: I) -> Snapshot {
        iter.fold(Snapshot::default(), Add::add)
    }
}

/// The server report: a `server:` line, a `batches:` line when a Multi-Get
/// store call ran, an `accept:` line when the accept thread lost a connection, a
/// `stalled:` line when a client stopped reading its replies, and a
/// `server phases:` line when a store call was timed.
impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Counter::*;
        writeln!(
            f,
            "server: {} mgets, {} keys ({} found), {} writes, {} shed, {:.3} ms busy",
            self[Requests],
            self[Keys],
            self[Found],
            self[Writes],
            self[Shed],
            self[BusyNs] as f64 / 1e6,
        )?;
        if self[Batches] > 0 {
            writeln!(
                f,
                "batches: {} mget calls, mean width {:.2}",
                self[Batches],
                self.ratio(BatchKeys, Batches),
            )?;
        }
        if self[AcceptErrors] > 0 {
            writeln!(f, "accept: {} errors", self[AcceptErrors])?;
        }
        if self[StalledCloses] > 0 {
            writeln!(
                f,
                "stalled: {} connections closed with replies unread",
                self[StalledCloses]
            )?;
        }
        let phases = self.phases();
        if phases.total() > 0 {
            let pct = |ns: u64| ns as f64 / phases.total() as f64 * 100.0;
            writeln!(
                f,
                "server phases: pre {:.1}%  lookup {:.1}%  post {:.1}%  ({:.2} Mkeys per busy-sec)",
                pct(phases.pre),
                pct(phases.lookup),
                pct(phases.post),
                self.ratio(Keys, BusyNs) * 1e3,
            )?;
        }
        Ok(())
    }
}

/// Request `i`'s part of a store call's `busy` nanoseconds, split evenly
/// over the call's `n` requests so that the parts sum to `busy` exactly:
/// each store call's time is counted once, in the blocks of the connections
/// it served.
pub(crate) fn share(busy: u64, i: usize, n: usize) -> u64 {
    let upto = |i: usize| (u128::from(busy) * i as u128 / n as u128) as u64;
    upto(i + 1) - upto(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn a_block_fills_a_whole_number_of_cache_lines() {
        assert_eq!(std::mem::align_of::<Counters>(), 64);
        assert_eq!(std::mem::size_of::<Counters>() % 64, 0);
    }

    #[test]
    fn two_writers_and_a_reader_see_monotone_counters_and_exact_totals() {
        const BUMPS: u64 = 1_000_000;
        let blocks = [Counters::default(), Counters::default()];
        let done = AtomicBool::new(false);
        let merged = || blocks.iter().map(Counters::snapshot).sum::<Snapshot>();
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut last = Snapshot::default();
                let mut reads = 0u64;
                while !done.load(Relaxed) {
                    let now = merged();
                    assert!(
                        last.0.iter().zip(now.0).all(|(a, b)| *a <= b),
                        "a counter went backwards: {last:?} then {now:?}"
                    );
                    last = now;
                    reads += 1;
                }
                reads
            });
            let writers: Vec<_> = blocks
                .iter()
                .map(|block| {
                    s.spawn(move || {
                        for _ in 0..BUMPS {
                            block.served(Some((3, 2)), 1, 5);
                            block.add(Counter::Batches, 1);
                        }
                    })
                })
                .collect();
            for w in writers {
                w.join().expect("writer");
            }
            done.store(true, Relaxed);
            assert!(reader.join().expect("reader") > 0);
        });
        let total = merged();
        for (counter, per_bump) in [
            (Counter::Requests, 1),
            (Counter::Keys, 3),
            (Counter::Found, 2),
            (Counter::Writes, 1),
            (Counter::BusyNs, 5),
            (Counter::Batches, 1),
            (Counter::Shed, 0),
        ] {
            assert_eq!(total[counter], 2 * BUMPS * per_bump, "{counter:?}");
        }
    }

    #[test]
    fn snapshots_add_index_and_render() {
        let block = Counters::default();
        block.served(Some((16, 12)), 0, 2_000);
        block.add_phases(PhaseNanos {
            pre: 1,
            lookup: 1,
            post: 2,
        });
        let one = block.snapshot();
        let two = one + one;
        assert_eq!(two[Counter::Keys], 32);
        assert_eq!(two.ratio(Counter::Found, Counter::Keys), 0.75);
        assert_eq!(two.ratio(Counter::BatchKeys, Counter::Batches), 0.0);
        let report = two.to_string();
        assert!(
            report.starts_with(
                "server: 2 mgets, 32 keys (24 found), 0 writes, 0 shed, 0.004 ms busy\n"
            ),
            "{report}"
        );
        assert!(
            report.ends_with(
                "server phases: pre 25.0%  lookup 25.0%  post 50.0%  (8.00 Mkeys per busy-sec)\n"
            ),
            "{report}"
        );
        // Counted store calls render a `batches:` line.
        block.add(Counter::Batches, 2);
        block.add(Counter::BatchKeys, 32);
        let report = block.snapshot().to_string();
        assert!(
            report.contains("\nbatches: 2 mget calls, mean width 16.00\n"),
            "{report}"
        );
    }
}
