//! The four workloads. Names are fixed: later issues cite them, and
//! `BENCHMARK.json` lists the same four with the same reasons.

/// Where the store under test runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A spawned `simdht-kvsd` driven over loopback TCP.
    Wire,
    /// A `KvStore` inside the benchmark process, no sockets.
    Store,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Index capacity (`--capacity` / `StoreConfig::capacity_items`).
    pub capacity: usize,
    /// Slab budget in MiB (`--memory-mb` / `StoreConfig::memory_budget`).
    pub memory_mb: usize,
    /// Keys preloaded before the first request.
    pub items: usize,
    pub value_len: usize,
    /// Zipfian θ=0.99 popularity of the keys read; uniform otherwise. Keys
    /// written sweep the whole key space (see `KeySampler::write_key`).
    pub zipf: bool,
    /// Distinct keys the reads draw from (the most popular ranks; all
    /// `items` unless the workload wants its lookups cache-resident).
    pub read_span: usize,
    /// Keys per MGet and pairs per SetMulti.
    pub width: usize,
    /// Share of requested keys drawn from the preloaded set; the rest are
    /// keys nobody ever wrote.
    pub present_frac: f64,
    /// Share of request slots that are SetMulti.
    pub write_frac: f64,
    /// Wire: connections, all driven by one generator thread.
    pub conns: usize,
    /// Wire: requests in flight per connection (closed loop).
    pub depth: usize,
    /// Store: threads each looping `KvStore::mget`.
    pub threads: usize,
    /// Pre-generated requests the closed loop cycles through (per thread on
    /// the store workload).
    pub ring: usize,
}

pub const NAMES: [&str; 4] = ["wire_mget16", "wire_get1", "wire_mixed", "store_mget64"];

impl Spec {
    /// With no writes nothing is ever evicted, so whether a requested key
    /// comes back is known from the stream alone.
    pub fn deterministic_hits(&self) -> bool {
        self.write_frac == 0.0
    }

    /// `smoke` shrinks the data set so all four workloads finish in seconds;
    /// smoke records are marked and never compared.
    pub fn by_name(name: &str, smoke: bool) -> Option<Spec> {
        let mut spec = match name {
            "wire_mget16" => Spec {
                name: "wire_mget16",
                why: "The paper's MGet shape over real loopback TCP: socket, framing/CRC, store \
                      and index all carry a visible share, so every claim must not hurt it.",
                kind: Kind::Wire,
                capacity: 1 << 20,
                memory_mb: 256,
                items: 500_000,
                value_len: 32,
                zipf: true,
                read_span: 500_000,
                width: 16,
                present_frac: 0.9,
                write_frac: 0.0,
                conns: 1,
                depth: 8,
                threads: 0,
                ring: 1 << 17,
            },
            "wire_get1" => Spec {
                name: "wire_get1",
                why: "Smallest message over a 4096-key hot set: per-request cost (frame decode, \
                      CRC, dispatch, syscalls) is nearly all the work and the lookup stays in L2; \
                      index changes predict no change here.",
                kind: Kind::Wire,
                capacity: 1 << 20,
                memory_mb: 256,
                items: 500_000,
                value_len: 32,
                zipf: false,
                read_span: 4096,
                width: 1,
                present_frac: 1.0,
                write_frac: 0.0,
                conns: 1,
                depth: 1,
                threads: 0,
                ring: 1 << 17,
            },
            "wire_mixed" => Spec {
                name: "wire_mixed",
                why: "Skewed reads beside sweeping writes through one shard lock on a slab 2.5x \
                      too small: BFS insert, steady CLOCK eviction and fat frames; a read gain \
                      paid for by writes or hit rate shows only here.",
                kind: Kind::Wire,
                capacity: 1 << 18,
                memory_mb: 32,
                items: 1 << 18,
                value_len: 256,
                zipf: true,
                read_span: 1 << 18,
                width: 16,
                present_frac: 1.0,
                write_frac: 0.5,
                conns: 2,
                depth: 4,
                threads: 0,
                ring: 1 << 15,
            },
            "store_mget64" => Spec {
                name: "store_mget64",
                why: "The paper's Fig. 11 server-side measurement, no sockets: hash kernel, index \
                      probe, item fetch and the shard read lock do all the work on a table ~100x \
                      L2; wire-path changes predict no change here.",
                kind: Kind::Store,
                capacity: 1 << 22,
                memory_mb: 512,
                items: 2_000_000,
                value_len: 32,
                zipf: false,
                read_span: 2_000_000,
                width: 64,
                present_frac: 0.9,
                write_frac: 0.0,
                conns: 0,
                depth: 0,
                threads: 1,
                ring: 1 << 15,
            },
            _ => return None,
        };
        if smoke {
            spec.items = 20_000;
            spec.read_span = spec.read_span.min(spec.items);
            spec.ring = spec.ring.min(1 << 13);
        }
        Some(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_fits_the_contract() {
        for name in NAMES {
            let spec = Spec::by_name(name, false).unwrap();
            assert_eq!(spec.name, name);
            assert!(
                spec.why.len() <= 200,
                "{name}: why has {} chars",
                spec.why.len()
            );
            assert!(!spec.why.contains('\n'));
        }
        assert!(Spec::by_name("nope", false).is_none());
    }
}
