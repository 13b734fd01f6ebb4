//! Criterion benches for the future-work extensions: SwissTable probes vs.
//! cuckoo probes, the mixed read/write engine's lookup path, and the wire
//! trailer's CRC-32 kernel.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use simdht_core::dispatch::{run_design, run_scalar};
use simdht_core::engine::{prepare_table_and_traces, BenchSpec};
use simdht_core::validate::{enumerate_designs, ValidationOptions};
use simdht_simd::crc::{crc32, crc32_portable};
use simdht_simd::Backend;
use simdht_table::swiss::SwissTable;
use simdht_table::Layout;
use simdht_workload::{AccessPattern, KeySet, QueryTrace, TraceSpec};

/// SwissTable batch probe vs. cuckoo scalar/vector at matched item counts.
fn bench_swiss_vs_cuckoo(c: &mut Criterion) {
    let mut group = c.benchmark_group("ext_swiss_vs_cuckoo");
    let n_queries = 1 << 14;

    // Cuckoo side: 3-way vertical at 1 MiB.
    let spec = BenchSpec {
        queries_per_thread: n_queries,
        ..BenchSpec::new(Layout::n_way(3), 1 << 20, AccessPattern::Uniform)
    };
    let (cuckoo, traces) = prepare_table_and_traces::<u32, u32>(&spec).expect("cuckoo");
    let trace = &traces[0];
    let mut out = vec![0u32; trace.len()];
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function(BenchmarkId::new("cuckoo", "scalar"), |b| {
        b.iter(|| run_scalar(&cuckoo, trace, &mut out));
    });
    let design = enumerate_designs(Layout::n_way(3), 32, 32, &ValidationOptions::default())
        .pop()
        .expect("vertical design");
    group.bench_function(BenchmarkId::new("cuckoo", "vertical"), |b| {
        b.iter(|| run_design(Backend::Native, &design, &cuckoo, trace, &mut out).expect("native"));
    });

    // Swiss side at the same item count.
    let n = cuckoo.len();
    let keys: KeySet<u32> = KeySet::generate(n, n / 4, 0xBE);
    let mut swiss: SwissTable<u32, u32> =
        SwissTable::with_capacity_slots((n as f64 / 0.85) as usize);
    for (i, &k) in keys.present().iter().enumerate() {
        swiss.insert(k, i as u32 + 1).expect("below max LF");
    }
    let strace = QueryTrace::generate(
        &keys,
        &TraceSpec::new(n_queries, AccessPattern::Uniform).with_hit_rate(0.9),
    );
    let mut sout = vec![0u32; strace.len()];
    group.bench_function(BenchmarkId::new("swiss", "group-probe"), |b| {
        b.iter(|| swiss.get_batch(strace.queries(), &mut sout));
    });
    group.finish();
}

/// The frame-trailer checksum at the served store's real frame sizes
/// (`wire_get1` request / reply, `wire_mget16` request / reply, one
/// `wire_mixed` SetMulti-16 frame): the dispatching kernel against its
/// portable slicing-by-8 tier (EXPERIMENTS.md, "SIMD CRC-32").
fn bench_crc32(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32");
    for len in [33usize, 48, 371, 553, 4608] {
        let frame: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::new("dispatch", len), &frame, |b, f| {
            b.iter(|| crc32(black_box(f)));
        });
        group.bench_with_input(BenchmarkId::new("portable", len), &frame, |b, f| {
            b.iter(|| crc32_portable(black_box(f)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_swiss_vs_cuckoo, bench_crc32);
criterion_main!(benches);
