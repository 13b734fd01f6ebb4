//! Differential test (satellite of the sharded-store PR): a sharded
//! `KvStore` configured with **S = 1** must be bit-for-bit identical to
//! the classic single-lock store — same responses, same eviction victims,
//! same final contents — across a 10k-op seeded mixed workload that
//! includes eviction pressure.
//!
//! The baseline below reimplements the pre-sharding store verbatim from
//! the same public components (`SlabAllocator` + `ItemTable` +
//! `HashIndex` + `Clock`, one lock, one arena). Because both sides are
//! deterministic given the same op sequence, *any* divergence — a
//! differently chosen eviction victim, an extra miss, a different
//! replace path — fails the test.

use rand::{Rng, SeedableRng};
use simdht_kvs::clock::{Clock, Standing};
use simdht_kvs::index::{by_short_name, hash_key, HashIndex, IndexError};
use simdht_kvs::item::{item_key, item_value, write_item, ItemTable, NO_ITEM};
use simdht_kvs::slab::{SlabAllocator, SlabError};
use simdht_kvs::store::{KvStore, MGetResponse, StoreConfig};

/// The pre-sharding single-lock store: one slab arena, one item table,
/// one index, one pair of eviction queues. Mirrors `KvStore`'s per-shard
/// logic exactly (replace-then-insert with the old item's queue and
/// reference bit handed to the new one, evict-on-pressure in both the slab
/// and index loops, verify-against-slab on lookup, CLOCK touch on hit,
/// a want on miss).
struct Baseline {
    slab: SlabAllocator,
    items: ItemTable,
    index: Box<dyn HashIndex>,
    clock: Clock,
    evictions: u64,
}

impl Baseline {
    fn new(which: &str, capacity: usize, budget: usize) -> Self {
        Baseline {
            slab: SlabAllocator::new(budget),
            items: ItemTable::new(),
            index: by_short_name(which, capacity).expect("known index"),
            clock: Clock::new(capacity),
            evictions: 0,
        }
    }

    fn find_verified(&self, hash: u32, key: &[u8]) -> Option<u32> {
        let mut candidates = Vec::new();
        self.index.lookup_all(hash, &mut candidates);
        candidates.into_iter().find(|&c| {
            self.items
                .get(c)
                .is_some_and(|r| item_key(self.slab.chunk(r)) == key)
        })
    }

    fn delete_item(&mut self, hash: u32, item: u32) -> Option<Standing> {
        self.index.remove(hash, item);
        let standing = self.clock.remove(item);
        if let Some(r) = self.items.unregister(item) {
            self.slab.free(r);
        }
        standing
    }

    fn evict_one(&mut self) -> bool {
        let Some(item) = self.clock.evict() else {
            return false;
        };
        if let Some(r) = self.items.unregister(item) {
            let hash = hash_key(item_key(self.slab.chunk(r)));
            self.index.remove(hash, item);
            self.slab.free(r);
        }
        self.evictions += 1;
        true
    }

    fn set(&mut self, key: &[u8], value: &[u8]) -> Result<(), ()> {
        let hash = hash_key(key);
        let replaces = self
            .find_verified(hash, key)
            .and_then(|existing| self.delete_item(hash, existing));
        let slab_ref = loop {
            match write_item(&mut self.slab, key, value) {
                Ok(r) => break r,
                Err(SlabError::ObjectTooLarge { .. }) => return Err(()),
                Err(SlabError::OutOfMemory) => {
                    if !self.evict_one() {
                        return Err(());
                    }
                }
            }
        };
        let item = self.items.register(slab_ref);
        loop {
            match self.index.insert(hash, item) {
                Ok(()) => break,
                Err(IndexError::Full) => {
                    if !self.evict_one() {
                        let r = self.items.unregister(item).expect("just registered");
                        self.slab.free(r);
                        return Err(());
                    }
                }
            }
        }
        self.clock.admit(item, hash, replaces);
        Ok(())
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let hash = hash_key(key);
        // Single-key path through the batched pipeline, like the old store:
        // primary candidate first, then the lookup_all slow path.
        let mut candidates = vec![NO_ITEM];
        self.index.lookup_batch(&[hash], &mut candidates);
        let cand = candidates[0];
        let mut resolved = None;
        if cand != NO_ITEM {
            if let Some(r) = self.items.get(cand) {
                if item_key(self.slab.chunk(r)) == key {
                    resolved = Some((cand, r));
                }
            }
        }
        if resolved.is_none() && cand != NO_ITEM {
            let mut fallback = Vec::new();
            self.index.lookup_all(hash, &mut fallback);
            for &c in &fallback {
                if let Some(r) = self.items.get(c) {
                    if item_key(self.slab.chunk(r)) == key {
                        resolved = Some((c, r));
                        break;
                    }
                }
            }
        }
        if resolved.is_none() {
            // A miss marks the key wanted, so its next fresh insert enters
            // the FIFO referenced.
            self.clock.want(hash);
        }
        resolved.map(|(item, r)| {
            self.clock.touch(item);
            item_value(self.slab.chunk(r)).to_vec()
        })
    }

    fn delete(&mut self, key: &[u8]) -> bool {
        let hash = hash_key(key);
        match self.find_verified(hash, key) {
            Some(item) => {
                self.delete_item(hash, item);
                true
            }
            None => false,
        }
    }
}

const OPS: usize = 10_000;
const KEYSPACE: usize = 600;

fn differential_run(which: &str, seed: u64) {
    // 1 MiB budget — exactly the per-shard floor at S=1. Nine values in
    // ten are 3600–4000 B, items of the 4096-byte class, 256 to a page,
    // so its page fills over 600 keys and both sides evict; the rest
    // spread over the smaller classes, each of which gets its first page
    // past the budget.
    let budget = 1 << 20;
    let capacity = 2 * KEYSPACE;
    let store = KvStore::new(
        by_short_name(which, capacity).expect("known index"),
        StoreConfig {
            memory_budget: budget,
            capacity_items: capacity,
            shards: 1,
        },
    );
    let mut base = Baseline::new(which, capacity, budget);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

    for op in 0..OPS {
        let k = rng.gen_range(0..KEYSPACE);
        let key = format!("diff-key-{k:05}");
        let roll = rng.gen_range(0..100);
        if roll < 50 {
            let len = rng.gen_range(1..=4000usize).max(3600);
            let fill = (k & 0xFF) as u8;
            let value = vec![fill; len];
            let s = store.set(key.as_bytes(), &value).is_ok();
            let b = base.set(key.as_bytes(), &value).is_ok();
            assert_eq!(s, b, "op {op}: set outcome diverged for {key}");
        } else if roll < 85 {
            let s = store.get(key.as_bytes());
            let b = base.get(key.as_bytes());
            assert_eq!(s, b, "op {op}: get diverged for {key}");
        } else {
            let s = store.delete(key.as_bytes());
            let b = base.delete(key.as_bytes());
            assert_eq!(s, b, "op {op}: delete diverged for {key}");
        }
    }

    // Eviction victims were identical iff the eviction *counts* and the
    // final contents agree (both sides are deterministic functions of the
    // victim sequence).
    assert!(
        base.evictions > 0,
        "workload must trigger eviction to be a meaningful differential"
    );
    assert_eq!(
        store.totals().evictions,
        base.evictions,
        "eviction counts diverged"
    );
    assert_eq!(store.len(), base.items.len(), "final sizes diverged");

    // Final scan over the whole keyspace, batched through the real MGet
    // path on the sharded side.
    let keys: Vec<String> = (0..KEYSPACE).map(|k| format!("diff-key-{k:05}")).collect();
    let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
    let mut resp = MGetResponse::new();
    store.mget(&refs, &mut resp);
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(
            resp.value(i),
            base.get(key.as_bytes()).as_deref(),
            "final state diverged for {key}"
        );
    }
}

#[test]
fn single_shard_matches_baseline_memc3() {
    differential_run("memc3", 0xD1FF_0001);
}

#[test]
fn single_shard_matches_baseline_hor() {
    differential_run("hor", 0xD1FF_0002);
}

#[test]
fn single_shard_matches_baseline_ver() {
    differential_run("ver", 0xD1FF_0003);
}
