//! # SimdHT-Bench
//!
//! A production-quality Rust reproduction of *"SimdHT-Bench: Characterizing
//! SIMD-Aware Hash Table Designs on Emerging CPU Architectures"*
//! (Shankar, Lu, Panda — IISWC 2019).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`simd`] — the SIMD abstraction layer (portable emulated backend +
//!   SSE/AVX2/AVX-512 intrinsic backends).
//! * [`table`] — `(N, m)` cuckoo hash tables with SIMD-friendly layouts.
//! * [`workload`] — uniform/Zipfian traces, hit-rate mixing, Multi-Get
//!   batching, memslap-style string workloads.
//! * [`core`] — the paper's contribution: the validation engine
//!   (Listing 1), the horizontal/vertical/hybrid lookup templates
//!   (Algorithms 1 & 2), and the performance engine.
//! * [`kvs`] — the Memcached-like key-value store used to validate the
//!   suite (MemC3 baseline vs. SIMD indexes, served over loopback TCP).
//!
//! ## Quickstart
//!
//! ```
//! use simdht::core::validate::{enumerate_designs, ValidationOptions};
//! use simdht::table::Layout;
//!
//! // Which SIMD designs can probe a (2,4) BCHT with 32-bit keys/payloads?
//! let designs = enumerate_designs(Layout::bcht(2, 4), 32, 32, &ValidationOptions::default());
//! let entries: Vec<String> = designs.iter().map(|d| d.listing_entry()).collect();
//! assert_eq!(entries, ["256 bit - 1 bucket/vec", "512 bit - 2 bucket/vec"]);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! experiment runners that regenerate every table and figure of the paper.

#![warn(missing_docs)]

pub use simdht_core as core;
pub use simdht_kvs as kvs;
pub use simdht_simd as simd;
pub use simdht_table as table;
pub use simdht_workload as workload;
