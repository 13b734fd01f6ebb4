//! # simdht-table
//!
//! `(N, m)` cuckoo hash tables for **SimdHT-Bench** (IISWC 2019
//! reproduction): the memory-layout design dimension of the paper (§III-A).
//!
//! * [`Layout`] describes the `(N, m)` geometry and the bucket
//!   [`Arrangement`] (interleaved `[k v k v …]` as in the paper's Fig. 3, or
//!   split `[k…k][v…v]`).
//! * [`CuckooTable`] stores fixed-width hash keys/payloads with BFS-based
//!   cuckoo insertion and a scalar probe; its raw slot arrays are exposed to
//!   the SIMD lookup kernels in `simdht-core`.
//! * [`relocation_path`] is the breadth-first relocation search itself,
//!   storage-agnostic, shared with the key-value store's tag-cuckoo index.
//! * [`HashFamily`] is the multiply-shift family shared verbatim between the
//!   scalar and in-vector hash computations.
//! * [`loadfactor`] measures achievable load factors empirically
//!   (regenerates the paper's Fig. 2).
//! * [`sharded`] is a sharded reader-writer-locked variant for the mixed
//!   read/write future-work studies.
//! * [`swiss`] is a SwissTable-style SIMD-friendly open-addressing table —
//!   the "beyond cuckoo hashing" extension the paper's conclusion names as
//!   future work.
//!
//! ## Example
//!
//! ```
//! use simdht_table::{CuckooTable, Layout};
//!
//! // A (2,4) bucketized cuckoo table — the MemC3 layout.
//! let mut table: CuckooTable<u32, u32> = CuckooTable::with_bytes(Layout::bcht(2, 4), 64 * 1024)?;
//! for key in 1..=1000u32 {
//!     table.insert(key, key * 2)?;
//! }
//! assert_eq!(table.get(500), Some(1000));
//! assert!(table.load_factor() < 0.2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod aligned;
mod bfs;
mod hash;
mod layout;
pub mod loadfactor;
pub mod sharded;
pub mod swiss;
mod table;

pub use bfs::{relocation_path, MAX_BFS_NODES};
pub use hash::HashFamily;
pub use layout::{Arrangement, Layout};
pub use table::{CuckooTable, InsertError, InsertStats, TableError};

/// Upper bound on `N` as a `usize`, for stack-allocated bucket scratch.
pub const MAX_WAYS_USIZE: usize = Layout::MAX_WAYS as usize;
