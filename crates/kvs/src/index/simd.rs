//! SIMD-aware hash indexes: the two designs the paper's performance studies
//! selected for KVS integration (§VI-B).
//!
//! Both store the full 32-bit key hash as the table key and `item id + 1`
//! as the payload (the `+1` keeps payloads clear of the table's empty
//! sentinel). Unlike MemC3's 8-bit tags, a 32-bit key match is almost
//! always the right item, so `lookup_batch` rarely needs the multi-
//! candidate fallback — but hash collisions between distinct application
//! keys are still possible, so the store verifies full keys either way.

use simdht_core::dispatch::run_design;
use simdht_core::validate::{Approach, DesignChoice, GatherMode};
use simdht_simd::{Backend, CpuFeatures, Width};
use simdht_table::{CuckooTable, InsertError, Layout};

use super::{HashIndex, IndexError};

/// Which of the paper's two selected SIMD designs to use.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SimdIndexKind {
    /// "(2,4) BCHT with horizontal SIMD support", AVX2
    /// (`Bucket-Cuckoo-Hor(AVX-256)` in Fig. 11).
    HorizontalBcht,
    /// "3-way Cuckoo HT with vertical SIMD support over AVX-512"
    /// (`Cuckoo-Ver(AVX-512)` in Fig. 11).
    VerticalNway,
}

/// A SIMD-probed hash index over a `CuckooTable<u32, u32>`.
pub struct SimdIndex {
    table: CuckooTable<u32, u32>,
    /// Items whose 32-bit hash collided with an already-indexed item. The
    /// primary stays on the SIMD fast path; colliders are reached through
    /// the store's `lookup_all` + full-key-verify fallback. With random
    /// hashes this holds ~n²/2³³ entries (a few hundred per million items).
    overflow: std::collections::HashMap<u32, Vec<u32>>,
    choice: DesignChoice,
    backend: Backend,
    kind: SimdIndexKind,
}

impl std::fmt::Debug for SimdIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimdIndex")
            .field("kind", &self.kind)
            .field("choice", &self.choice)
            .field("backend", &self.backend)
            .field("len", &self.table.len())
            .finish()
    }
}

impl SimdIndex {
    /// Create an index able to hold at least `capacity_items` entries at a
    /// ~85 % load factor, choosing the widest natively supported vector
    /// width (falling back to the emulated backend if none).
    pub fn with_capacity(kind: SimdIndexKind, capacity_items: usize) -> Self {
        let caps = CpuFeatures::detect();
        let (layout, preferred) = match kind {
            SimdIndexKind::HorizontalBcht => (Layout::bcht(2, 4), Width::W256),
            SimdIndexKind::VerticalNway => (Layout::n_way(3), Width::W512),
        };
        let (backend, width) = if caps.supports(preferred) {
            (Backend::Native, preferred)
        } else if let Some(&w) = caps.native_widths().last() {
            (Backend::Native, w)
        } else {
            (Backend::Emulated, preferred)
        };
        let choice = match kind {
            SimdIndexKind::HorizontalBcht => DesignChoice {
                approach: Approach::Horizontal,
                width,
                parallelism: match width {
                    Width::W512 => 2,
                    _ => 1,
                },
                gather: GatherMode::NarrowSplit,
            },
            SimdIndexKind::VerticalNway => {
                let w = if width == Width::W128 {
                    Width::W256
                } else {
                    width
                };
                DesignChoice {
                    approach: Approach::Vertical,
                    width: w,
                    parallelism: w.bits() / 32, // keys per iteration
                    gather: GatherMode::PairedWide,
                }
            }
        };
        // Horizontal at W128 cannot fit a (2,4) 32-bit bucket; clamp.
        let choice = if kind == SimdIndexKind::HorizontalBcht && width == Width::W128 {
            DesignChoice {
                width: Width::W256,
                ..choice
            }
        } else {
            choice
        };
        let needed_slots = ((capacity_items as f64 / 0.85).ceil() as usize).max(16);
        let per_bucket = layout.slots_per_bucket() as usize;
        let log2 = ((needed_slots / per_bucket + 1).next_power_of_two())
            .trailing_zeros()
            .max(1);
        let table = CuckooTable::new(layout, log2).expect("32/32 layout is always valid");
        SimdIndex {
            table,
            overflow: std::collections::HashMap::new(),
            choice,
            backend,
            kind,
        }
    }

    /// The design choice this index probes with.
    pub fn design(&self) -> DesignChoice {
        self.choice
    }

    /// The index kind.
    pub fn kind(&self) -> SimdIndexKind {
        self.kind
    }
}

impl HashIndex for SimdIndex {
    fn name(&self) -> &'static str {
        match self.kind {
            SimdIndexKind::HorizontalBcht => "Bucket-Cuckoo-Hor (2,4) BCHT [SIMD]",
            SimdIndexKind::VerticalNway => "Cuckoo-Ver 3-way [SIMD]",
        }
    }

    fn insert(&mut self, hash: u32, item: u32) -> Result<(), IndexError> {
        debug_assert_ne!(hash, 0, "hash_key never yields 0");
        match self.table.get(hash) {
            Some(existing) if existing != item.wrapping_add(1) => {
                // Distinct application keys colliding on the 32-bit hash:
                // keep the primary on the fast path, shelve the new item.
                let bucket = self.overflow.entry(hash).or_default();
                if !bucket.contains(&item) {
                    bucket.push(item);
                }
                Ok(())
            }
            _ => match self.table.insert(hash, item.wrapping_add(1)) {
                Ok(()) => Ok(()),
                Err(InsertError::TableFull) => Err(IndexError::Full),
                Err(InsertError::SentinelKey) => unreachable!("hash 0 is remapped"),
            },
        }
    }

    fn remove(&mut self, hash: u32, item: u32) {
        if self.table.get(hash) == Some(item.wrapping_add(1)) {
            self.table.remove(hash);
            // Promote a shelved collider onto the fast path, if any.
            if let Some(bucket) = self.overflow.get_mut(&hash) {
                if let Some(promoted) = bucket.pop() {
                    let _ = self.table.insert(hash, promoted.wrapping_add(1));
                }
                if bucket.is_empty() {
                    self.overflow.remove(&hash);
                }
            }
        } else if let Some(bucket) = self.overflow.get_mut(&hash) {
            bucket.retain(|&i| i != item);
            if bucket.is_empty() {
                self.overflow.remove(&hash);
            }
        }
    }

    fn lookup_batch(&self, hashes: &[u32], out: &mut [u32]) {
        assert_eq!(hashes.len(), out.len(), "output slice length mismatch");
        run_design(self.backend, &self.choice, &self.table, hashes, out)
            .expect("design validated at construction");
        for o in out.iter_mut() {
            *o = o.wrapping_sub(1); // 0 (miss sentinel) becomes NO_ITEM
        }
    }

    fn lookup_batch_prefetched(&self, hashes: &[u32], out: &mut [u32], depth: usize) {
        // The SIMD kernels consume the whole batch in one pass, so there is
        // no per-hash probe to interleave with. Instead, sweep the batch
        // once and request every candidate bucket line up front: by the
        // time `run_design`'s gathers reach hash `i`, its lines have had
        // the preceding probes' worth of latency to arrive. `depth` only
        // gates the sweep on/off (0 = off); distance is the batch itself.
        if depth > 0 {
            for &h in hashes {
                self.table.prefetch_candidates(h);
            }
        }
        self.lookup_batch(hashes, out);
    }

    fn prefetch_hash(&self, hash: u32) {
        self.table.prefetch_candidates(hash);
    }

    fn lookup_all(&self, hash: u32, out: &mut Vec<u32>) {
        if let Some(v) = self.table.get(hash) {
            out.push(v.wrapping_sub(1));
        }
        if let Some(bucket) = self.overflow.get(&hash) {
            out.extend_from_slice(bucket);
        }
    }

    fn len(&self) -> usize {
        self.table.len() + self.overflow.values().map(Vec::len).sum::<usize>()
    }

    /// The table's key and value arrays; the collider map is left out.
    fn storage_bytes(&self) -> usize {
        self.table.capacity() * 2 * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::hash_key;
    use crate::item::NO_ITEM;

    fn kinds() -> [SimdIndexKind; 2] {
        [SimdIndexKind::HorizontalBcht, SimdIndexKind::VerticalNway]
    }

    #[test]
    fn insert_lookup_roundtrip() {
        for kind in kinds() {
            let mut idx = SimdIndex::with_capacity(kind, 2000);
            for i in 0..1500u32 {
                idx.insert(hash_key(&i.to_le_bytes()), i).unwrap();
            }
            let hashes: Vec<u32> = (0..1500u32).map(|i| hash_key(&i.to_le_bytes())).collect();
            let mut out = vec![0u32; 1500];
            idx.lookup_batch(&hashes, &mut out);
            for (i, &item) in out.iter().enumerate() {
                assert_eq!(item, i as u32, "{kind:?} item {i}");
            }
        }
    }

    #[test]
    fn item_zero_is_representable() {
        // The +1 payload shift must keep item 0 distinguishable from a miss.
        for kind in kinds() {
            let mut idx = SimdIndex::with_capacity(kind, 10);
            idx.insert(hash_key(b"zero"), 0).unwrap();
            let mut out = [77u32; 2];
            idx.lookup_batch(&[hash_key(b"zero"), hash_key(b"nope")], &mut out);
            assert_eq!(out[0], 0, "{kind:?}");
            assert_eq!(out[1], NO_ITEM, "{kind:?}");
        }
    }

    #[test]
    fn remove_requires_matching_item() {
        for kind in kinds() {
            let mut idx = SimdIndex::with_capacity(kind, 10);
            let h = hash_key(b"k");
            idx.insert(h, 5).unwrap();
            idx.remove(h, 6);
            assert_eq!(idx.len(), 1, "{kind:?}");
            idx.remove(h, 5);
            assert_eq!(idx.len(), 0, "{kind:?}");
        }
    }

    #[test]
    fn lookup_all_returns_single_candidate() {
        let mut idx = SimdIndex::with_capacity(SimdIndexKind::VerticalNway, 10);
        let h = hash_key(b"abc");
        idx.insert(h, 9).unwrap();
        let mut all = vec![];
        idx.lookup_all(h, &mut all);
        assert_eq!(all, [9]);
        all.clear();
        idx.lookup_all(hash_key(b"other"), &mut all);
        assert!(all.is_empty());
    }

    #[test]
    fn hash_collisions_keep_both_items_reachable() {
        for kind in kinds() {
            let mut idx = SimdIndex::with_capacity(kind, 100);
            let h = hash_key(b"collider");
            // Two distinct application keys that (by construction here)
            // share one 32-bit hash.
            idx.insert(h, 1).unwrap();
            idx.insert(h, 2).unwrap();
            idx.insert(h, 3).unwrap();
            assert_eq!(idx.len(), 3, "{kind:?}");
            let mut all = vec![];
            idx.lookup_all(h, &mut all);
            all.sort_unstable();
            assert_eq!(all, [1, 2, 3], "{kind:?}");
            // Removing the primary promotes a collider to the fast path.
            idx.remove(h, 1);
            let mut out = [0u32; 1];
            idx.lookup_batch(&[h], &mut out);
            assert!(out[0] == 2 || out[0] == 3, "{kind:?}: {}", out[0]);
            idx.remove(h, 2);
            idx.remove(h, 3);
            assert_eq!(idx.len(), 0, "{kind:?}");
            idx.lookup_batch(&[h], &mut out);
            assert_eq!(out[0], NO_ITEM, "{kind:?}");
        }
    }

    #[test]
    fn agrees_with_memc3_on_hits() {
        let mut simd = SimdIndex::with_capacity(SimdIndexKind::HorizontalBcht, 500);
        let mut memc3 = crate::index::Memc3Index::with_capacity(500);
        let hashes: Vec<u32> = (0..400u32).map(|i| hash_key(&i.to_be_bytes())).collect();
        for (i, &h) in hashes.iter().enumerate() {
            simd.insert(h, i as u32).unwrap();
            memc3.insert(h, i as u32).unwrap();
        }
        let mut a = vec![0u32; hashes.len()];
        simd.lookup_batch(&hashes, &mut a);
        for (i, &item) in a.iter().enumerate() {
            assert_eq!(item, i as u32);
            let mut cands = vec![];
            memc3.lookup_all(hashes[i], &mut cands);
            assert!(cands.contains(&(i as u32)));
        }
    }
}
