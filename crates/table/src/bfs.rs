//! The one breadth-first relocation search every bucketized cuckoo table in
//! the workspace shares ([`crate::CuckooTable`] and the key-value store's
//! tag-cuckoo index core).
//!
//! The search runs over "evict the occupant of slot X" states. It knows
//! nothing about storage: the caller supplies the geometry (start buckets,
//! slots per bucket) and two closures — where a slot's occupant could move
//! to, and whether a bucket has a free slot.

use std::collections::HashSet;

/// Bound on BFS nodes expanded per insert before declaring the table full.
/// 2048 nodes covers relocation paths far beyond the depth at which cuckoo
/// insertion has effectively failed.
pub const MAX_BFS_NODES: usize = 2048;

struct Node {
    slot: usize,
    /// Index into the node list; `usize::MAX` for roots.
    parent: usize,
}

/// Shortest chain of slots `[root, …, free]` along which each occupant can
/// move one step toward `free`, letting a new entry land in `root`.
///
/// Slots are global indexes, `bucket * slots_per_bucket + s`. Every slot
/// of each distinct bucket in `start_buckets` is a root (a repeated start
/// bucket is expanded once). `alts_of(slot)` yields the buckets the
/// occupant of `slot` may move to; it is only called on slots of buckets
/// for which `empty_in` returned `None`, i.e. full ones — start buckets
/// are taken to be full, the caller having tried them first.
/// `empty_in(bucket)` returns a free slot of `bucket`, if any.
///
/// Expansion is first-in-first-out over slots in ascending order within a
/// bucket and over alternates in the order `alts_of` yields them, each
/// bucket visited at most once, so the result is deterministic. Returns
/// `None` once every reachable bucket is visited or [`MAX_BFS_NODES`]
/// nodes are queued.
pub fn relocation_path<A: IntoIterator<Item = usize>>(
    start_buckets: &[usize],
    slots_per_bucket: usize,
    mut alts_of: impl FnMut(usize) -> A,
    mut empty_in: impl FnMut(usize) -> Option<usize>,
) -> Option<Vec<usize>> {
    let mut nodes: Vec<Node> = Vec::with_capacity(256);
    let mut visited = HashSet::new();
    let enqueue = |nodes: &mut Vec<Node>, bucket: usize, parent: usize| {
        let first = bucket * slots_per_bucket;
        nodes.extend((first..first + slots_per_bucket).map(|slot| Node { slot, parent }));
    };
    for &b in start_buckets {
        if visited.insert(b) {
            enqueue(&mut nodes, b, usize::MAX);
        }
    }
    let mut head = 0;
    while head < nodes.len() && nodes.len() < MAX_BFS_NODES {
        for alt in alts_of(nodes[head].slot) {
            if !visited.insert(alt) {
                continue;
            }
            if let Some(free) = empty_in(alt) {
                // Reconstruct: free ← head ← … ← root.
                let mut path = vec![free];
                let mut at = head;
                while at != usize::MAX {
                    path.push(nodes[at].slot);
                    at = nodes[at].parent;
                }
                path.reverse();
                return Some(path);
            }
            enqueue(&mut nodes, alt, head);
        }
        head += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four buckets of two slots. `alt[slot]` is the one bucket the
    /// occupant of `slot` may move to; `free[bucket]` a free slot.
    fn search(start: &[usize], alt: [usize; 8], free: [Option<usize>; 4]) -> Option<Vec<usize>> {
        relocation_path(start, 2, |slot| [alt[slot]], |b| free[b])
    }

    #[test]
    fn shortest_path_is_chosen() {
        // Slot 0 (bucket 0) reaches free bucket 3 only through bucket 2
        // (two moves); slot 3 (bucket 1) reaches it directly (one move).
        let alt = [2, 0, 1, 3, 3, 3, 0, 0];
        let free = [None, None, None, Some(7)];
        assert_eq!(search(&[0, 1], alt, free), Some(vec![3, 7]));
        // Without the shortcut the two-move chain through bucket 2 wins.
        let alt = [2, 0, 1, 1, 3, 3, 0, 0];
        assert_eq!(search(&[0, 1], alt, free), Some(vec![0, 4, 7]));
    }

    #[test]
    fn ties_break_by_start_order_then_slot_order() {
        // Both start buckets reach a free bucket in one move; the first
        // start bucket's lowest slot wins.
        let alt = [2, 2, 3, 3, 0, 0, 0, 0];
        let free = [None, None, Some(5), Some(6)];
        assert_eq!(search(&[0, 1], alt, free), Some(vec![0, 5]));
        assert_eq!(search(&[1, 0], alt, free), Some(vec![2, 6]));
    }

    #[test]
    fn repeated_start_bucket_is_expanded_once() {
        let mut expanded = Vec::new();
        let path = relocation_path(
            &[1, 1],
            2,
            |slot| {
                expanded.push(slot);
                [0]
            },
            |_| None,
        );
        assert_eq!(path, None);
        // Bucket 1's two slots, then bucket 0's two — each exactly once.
        assert_eq!(expanded, [2, 3, 0, 1]);
    }

    #[test]
    fn closed_graph_without_a_free_slot_is_full() {
        let alt = [1, 1, 0, 0, 0, 0, 0, 0];
        assert_eq!(search(&[0, 1], alt, [None; 4]), None);
    }

    #[test]
    fn node_budget_bounds_the_search() {
        // An unbounded chain: the occupant of `slot` may only move to a
        // bucket nobody else leads to. The only free slot sits in bucket
        // `target`; whether it is found depends on the budget alone.
        let run = |target: usize| {
            let mut probed = 0usize;
            let path = relocation_path(
                &[0],
                4,
                |slot| [slot + 1],
                |b| {
                    probed += 1;
                    (b == target).then_some(b * 4)
                },
            );
            (path, probed)
        };
        // Every expansion queues four nodes, so the budget is spent after
        // `MAX_BFS_NODES / 4` buckets are queued (the root included).
        let reach = MAX_BFS_NODES / 4 - 1;
        let (path, _) = run(reach);
        let path = path.expect("the last bucket inside the budget is reached");
        assert_eq!(path.last(), Some(&(reach * 4)));
        assert!(path[0] < 4, "the chain starts in the root bucket");
        assert!(path.windows(2).all(|w| w[1] / 4 == w[0] + 1));
        let (path, probed) = run(reach + 1);
        assert_eq!(path, None);
        assert_eq!(probed, reach);
    }
}
