//! `store_mget64`: the paper's Fig. 11 server-side measurement. No sockets;
//! `spec.threads` threads (one, on the recording host) loop `KvStore::mget`
//! on one shard, each with its own `MGetResponse`, so the hash kernel, index
//! probe, item fetch and the shard read lock do all the work. Also home of
//! the store construction the replay shares, so both build what the daemon
//! builds.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use simdht_kvs::index;
use simdht_kvs::store::{KvStore, MGetResponse, PhaseNanos, StoreConfig};

use crate::check::Checker;
use crate::gen::{fill_value, key_bytes, key_stream, KeyTable, ABSENT};
use crate::procfs;
use crate::spec::Spec;
use crate::timed::{Timed, WindowAcc};
use crate::trace::{Name, Tracer};
use crate::wire::Phases;

/// The index `simdht-kvsd` uses when given no `--index` flag. The in-process
/// store cannot ask the binary for its default, so the run record also
/// carries the daemon's start-up line to show when the two have diverged.
pub const DAEMON_DEFAULT_INDEX: &str = "memc3";

/// A store sized like the daemon's for `spec`: one shard and every other
/// field at `StoreConfig::default()`, as `simdht-kvsd` builds it from
/// sizing flags alone.
pub fn build_store(spec: &Spec) -> KvStore {
    KvStore::with_shards(
        StoreConfig {
            memory_budget: spec.memory_mb << 20,
            capacity_items: spec.capacity,
            ..StoreConfig::default()
        },
        |cap| index::by_short_name(DAEMON_DEFAULT_INDEX, cap).expect("known index name"),
    )
}

/// Preload generation 0 of every item with `KvStore::set`. Returns the
/// time spent inside `set`.
pub fn preload_store(store: &KvStore, spec: &Spec, seed: u64) -> Result<Duration, String> {
    let mut value = vec![0u8; spec.value_len];
    let mut in_set = Duration::ZERO;
    for idx in 0..spec.items as u32 {
        let key = key_bytes(idx);
        fill_value(seed, idx, 0, &mut value);
        let t = Instant::now();
        let stored = store.set(&key, &value);
        in_set += t.elapsed();
        stored.map_err(|e| format!("preload of item {idx} failed: {e}"))?;
    }
    Ok(in_set)
}

/// The store's own counters that per-layer metrics are computed from
/// (`ShardStats` summed over shards, `OptimisticStats`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreCounters {
    pub sets: u64,
    pub evictions: u64,
    pub mget_keys: u64,
    pub mget_hits: u64,
    pub optimistic_attempts: u64,
    pub optimistic_retries: u64,
    pub optimistic_fallbacks: u64,
}

impl StoreCounters {
    pub fn of(store: &KvStore) -> StoreCounters {
        let (stats, opt) = (store.totals(), store.optimistic_stats());
        StoreCounters {
            sets: stats.sets,
            evictions: stats.evictions,
            mget_keys: stats.mget_keys,
            mget_hits: stats.mget_hits,
            optimistic_attempts: opt.attempts,
            optimistic_retries: opt.retries,
            optimistic_fallbacks: opt.fallbacks,
        }
    }

    /// What was counted since the `earlier` snapshot.
    pub fn since(self, earlier: StoreCounters) -> StoreCounters {
        StoreCounters {
            sets: self.sets - earlier.sets,
            evictions: self.evictions - earlier.evictions,
            mget_keys: self.mget_keys - earlier.mget_keys,
            mget_hits: self.mget_hits - earlier.mget_hits,
            optimistic_attempts: self.optimistic_attempts - earlier.optimistic_attempts,
            optimistic_retries: self.optimistic_retries - earlier.optimistic_retries,
            optimistic_fallbacks: self.optimistic_fallbacks - earlier.optimistic_fallbacks,
        }
    }
}

/// What one `mget` thread brings back.
#[derive(Default)]
struct ThreadOut {
    windows: Vec<WindowAcc>,
    attempted: u64,
    wrong: u64,
    timed: CallTimes,
    tracer: Tracer,
}

/// Clock sums over the calls that completed inside timed windows.
#[derive(Copy, Clone, Debug, Default)]
pub struct CallTimes {
    pub calls: u64,
    pub keys: u64,
    /// Building the key-slice list for a call.
    pub prep_ns: u64,
    /// Inside `KvStore::mget`.
    pub mget_ns: u64,
    /// Checking the answers.
    pub check_ns: u64,
    /// Recording spans (traced runs only).
    pub record_ns: u64,
    pub phases: PhaseNanos,
}

impl CallTimes {
    fn absorb(&mut self, o: CallTimes) {
        self.calls += o.calls;
        self.keys += o.keys;
        self.prep_ns += o.prep_ns;
        self.mget_ns += o.mget_ns;
        self.check_ns += o.check_ns;
        self.record_ns += o.record_ns;
        self.phases.add(o.phases);
    }
}

pub struct StoreOutcome {
    pub timed: Timed,
    pub calls: CallTimes,
    pub tracer: Tracer,
}

/// What every `mget` thread of one run shares.
pub struct Loops<'a> {
    pub store: &'a KvStore,
    pub keys: &'a KeyTable,
    pub spec: &'a Spec,
    pub seed: u64,
    pub phases: Phases,
    /// Record spans (traced runs).
    pub trace: bool,
    /// Thread 0 expects the opposite presence of the first key it asks for.
    pub sabotage: bool,
}

impl Loops<'_> {
    /// Run one closed loop of `mget` per stream through warm-up and the
    /// timed windows while the calling thread samples this process at every
    /// window boundary.
    pub fn run(&self, streams: &[Vec<u32>]) -> std::io::Result<StoreOutcome> {
        let phases = self.phases;
        let barrier = Barrier::new(streams.len() + 1);
        let mut timed = Timed {
            window_s: phases.window.as_secs_f64(),
            windows: vec![WindowAcc::default(); phases.windows],
            ..Timed::default()
        };
        let mut calls = CallTimes::default();
        let mut tracer = Tracer::new();
        let clock = Instant::now();
        std::thread::scope(|scope| -> std::io::Result<()> {
            let handles: Vec<_> = streams
                .iter()
                .enumerate()
                .map(|(t, ids)| {
                    let barrier = &barrier;
                    scope
                        .spawn(move || self.mget_loop(ids, self.sabotage && t == 0, barrier, clock))
                })
                .collect();
            barrier.wait();
            for k in 0..=phases.windows {
                let due = Duration::from_nanos(phases.boundary_ns(k));
                std::thread::sleep(due.saturating_sub(clock.elapsed()));
                let sample = procfs::sample(None)?;
                timed.server.push(sample);
                timed.own.push(sample);
            }
            for h in handles {
                let out = h.join().expect("mget thread panicked");
                for (acc, w) in timed.windows.iter_mut().zip(out.windows) {
                    acc.absorb(w);
                }
                timed.attempted += out.attempted;
                timed.wrong += out.wrong;
                timed.failed += out.wrong;
                calls.absorb(out.timed);
                tracer.merge(out.tracer);
            }
            Ok(())
        })?;
        Ok(StoreOutcome {
            timed,
            calls,
            tracer,
        })
    }

    fn mget_loop(
        &self,
        ids: &[u32],
        sabotage: bool,
        barrier: &Barrier,
        clock: Instant,
    ) -> ThreadOut {
        let (spec, phases) = (self.spec, self.phases);
        let mut out = ThreadOut {
            windows: vec![WindowAcc::default(); phases.windows],
            ..ThreadOut::default()
        };
        let mut checker = Checker::new(spec, self.seed);
        let mut resp = MGetResponse::new();
        let mut slices: Vec<&[u8]> = Vec::with_capacity(spec.width);
        let now_ns = || clock.elapsed().as_nanos() as u64;
        let end_ns = phases.boundary_ns(phases.windows);
        barrier.wait();
        for call in 0usize.. {
            let req = call % spec.ring;
            let asked = &ids[req * spec.width..(req + 1) * spec.width];
            let t_prep = now_ns();
            slices.clear();
            slices.extend(asked.iter().map(|&id| self.keys.key(id)));
            let t0 = now_ns();
            let outcome = self.store.mget(&slices, &mut resp);
            let t1 = now_ns();
            let mut hits = 0u64;
            let mut wrong = false;
            for (j, &id) in asked.iter().enumerate() {
                let expect = if sabotage && call == 0 && j == 0 {
                    id ^ ABSENT
                } else {
                    id
                };
                match checker.entry(expect, req * spec.width + j, resp.value(j), None) {
                    Ok(hit) => hits += u64::from(hit),
                    Err(()) => wrong = true,
                }
            }
            wrong |= outcome.found as u64 != hits;
            let t2 = now_ns();
            out.attempted += 1;
            out.wrong += u64::from(wrong);
            if let Some(w) = phases.window_of(t1) {
                let acc = &mut out.windows[w];
                acc.reqs += 1;
                acc.keys_read += asked.len() as u64;
                acc.hits += hits;
                acc.lat_ns.push(u32::try_from(t1 - t0).unwrap_or(u32::MAX));
                let c = &mut out.timed;
                c.calls += 1;
                c.keys += asked.len() as u64;
                c.prep_ns += t0 - t_prep;
                c.mget_ns += t1 - t0;
                c.check_ns += t2 - t1;
                c.phases.add(outcome.phases);
                if self.trace {
                    // The phases come from the `PhaseNanos` every mget
                    // returns; they are laid end to end from the call's
                    // start.
                    let p = outcome.phases;
                    let id = call as u32;
                    let span = out.tracer.span(Name::StoreMget, id, None, t0, t1);
                    let parent = Some((Name::StoreMget, span));
                    let (a, b) = (t0 + p.pre, t0 + p.pre + p.lookup);
                    out.tracer.span(Name::StorePre, id, parent, t0, a);
                    out.tracer.span(Name::StoreLookup, id, parent, a, b);
                    out.tracer
                        .span(Name::StorePost, id, parent, b, t0 + p.total());
                    out.timed.record_ns += now_ns() - t2;
                }
            }
            if t1 >= end_ns {
                break;
            }
        }
        out
    }
}

/// Untimed read-back: a spread of preloaded keys must come back with every
/// byte intact. Returns the number of wrong answers.
pub fn read_back(store: &KvStore, keys: &KeyTable, spec: &Spec, seed: u64) -> u64 {
    let mut checker = Checker::new(spec, seed);
    let mut resp = MGetResponse::new();
    let step = (spec.items / 1024).max(1);
    let ids: Vec<u32> = (0..spec.items as u32).step_by(step).collect();
    let mut wrong = 0;
    for batch in ids.chunks(64) {
        let slices: Vec<&[u8]> = batch.iter().map(|&id| keys.key(id)).collect();
        store.mget(&slices, &mut resp);
        for (j, &id) in batch.iter().enumerate() {
            wrong += u64::from(checker.entry(id, 0, resp.value(j), None) != Ok(true));
        }
    }
    wrong
}

/// The per-thread key-id streams of `spec`.
pub fn streams(spec: &Spec, seed: u64) -> Vec<Vec<u32>> {
    (0..spec.threads)
        .map(|t| key_stream(spec, seed, t))
        .collect()
}
