//! Criterion benchmarks for the paged persistence layer: snapshot save
//! and load throughput (nodes/s, entries/s), and the checksum every
//! format and wire frame verifies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use phtree::key::point_to_key;
use phtree::PhTree;

fn build(n: usize) -> PhTree<u32, 3> {
    let data = datasets::cube::<3>(n, 42);
    let mut t = PhTree::new();
    for (i, p) in data.iter().enumerate() {
        t.insert(point_to_key(p), i as u32);
    }
    t
}

fn bench_store(c: &mut Criterion) {
    let dir = std::env::temp_dir().join("phstore-bench");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bench.pht");
    let tree = build(50_000);
    let mut g = c.benchmark_group("phstore");
    g.sample_size(10);
    g.bench_function("save_50k", |b| {
        b.iter(|| {
            let stats = phstore::save(&tree, &path).unwrap();
            std::hint::black_box(stats.pages)
        })
    });
    phstore::save(&tree, &path).unwrap();
    g.bench_function("load_50k", |b| {
        b.iter(|| {
            let t: PhTree<u32, 3> = phstore::load(&path).unwrap();
            std::hint::black_box(t.len())
        })
    });
    g.finish();
    std::fs::remove_file(&path).ok();
}

/// FNV-1a, the byte-serial checksum `phstore::checksum` replaced; timed
/// here only as the baseline the replacement is measured against.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// `phstore::checksum` against FNV-1a at the sizes the stack sums: a
/// durable WAL frame (40 B), an average window-query reply (2.3 KiB),
/// a packed page (4 KiB) and a preload BulkLoad frame (640 KiB).
fn bench_checksum(c: &mut Criterion) {
    for (label, n) in [
        ("40B", 40),
        ("2.3KiB", 2355),
        ("4KiB", 4096),
        ("640KiB", 640 << 10),
    ] {
        let bytes: Vec<u8> = (0..n as u64)
            .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
            .collect();
        let mut g = c.benchmark_group("checksum");
        g.throughput(Throughput::Bytes(n as u64));
        g.bench_with_input(BenchmarkId::new("checksum", label), &bytes, |b, x| {
            b.iter(|| phstore::checksum(std::hint::black_box(x)))
        });
        g.bench_with_input(BenchmarkId::new("fnv1a", label), &bytes, |b, x| {
            b.iter(|| fnv1a(std::hint::black_box(x)))
        });
        g.finish();
    }
}

criterion_group!(benches, bench_store, bench_checksum);
criterion_main!(benches);
