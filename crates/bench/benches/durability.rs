//! The store's put path, and recovery (reopen) cost.
//!
//! Two groups:
//!
//! * `durability_put/volatile` — one materialization (encode + write +
//!   rename + ledger commit) of a fixed ~8 KB collection. The store's
//!   put path is the same in every durability tier, so one row covers
//!   them all; the CI gate holds it within 1.05x of the committed
//!   baseline.
//! * `durability_recovery` — wall time of `StoreOptions::open` over a
//!   directory holding several hundred committed entries (the open
//!   scan): the restart latency a served deployment pays before it can
//!   answer.
//!
//! Run with `cargo bench -p helix-bench --bench durability`. Set
//! `HELIX_BENCH_FAST=1` for the reduced CI configuration and
//! `HELIX_BENCH_JSON=path.json` to capture machine-readable results.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use helix_core::signature::Signature;
use helix_core::store::StoreOptions;
use helix_core::NodeOutput;
use helix_dataflow::{DataCollection, DataType, Row, Schema, Value};
use std::path::PathBuf;

fn fast_mode() -> bool {
    std::env::var_os("HELIX_BENCH_FAST").is_some_and(|v| v != "0")
}

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("helix-bench-durab-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A ~8 KB collection: big enough that encode/write dominate fixed
/// syscall overhead, small enough that thousands of puts fit any runner.
fn payload() -> NodeOutput {
    let schema = Schema::of(&[("x", DataType::Int), ("y", DataType::Float)]);
    let rows = (0..500)
        .map(|i| Row(vec![Value::Int(i), Value::Float(i as f64 * 0.5)]))
        .collect();
    NodeOutput::Data(DataCollection::new(schema, rows).unwrap())
}

fn bench_durability(c: &mut Criterion) {
    let samples = if fast_mode() { 10 } else { 20 };

    let mut group = c.benchmark_group("durability_put");
    group.sample_size(samples);
    let store = StoreOptions::new(bench_dir("put-volatile"))
        .budget_bytes(1 << 30)
        .open()
        .unwrap();
    let output = payload();
    // Fresh signatures per put: every sample is a first-time
    // materialization, never an overwrite.
    let mut next_sig = 1u64;
    group.bench_function("volatile", |b| {
        b.iter(|| {
            next_sig += 1;
            store.put(Signature(next_sig), &output).unwrap()
        })
    });
    group.finish();

    // Reopen cost over a populated store directory: one scan of its
    // entry files.
    let mut group = c.benchmark_group("durability_recovery");
    group.sample_size(samples);
    let entries = if fast_mode() { 128u64 } else { 512 };
    let dir = bench_dir("recovery");
    {
        let store = StoreOptions::new(&dir)
            .budget_bytes(1 << 30)
            .open()
            .unwrap();
        let output = payload();
        for sig in 1..=entries {
            store.put(Signature(sig), &output).unwrap();
        }
    }
    group.bench_with_input(
        BenchmarkId::new("open", entries),
        &entries,
        |b, &entries| {
            b.iter(|| {
                let store = StoreOptions::new(&dir)
                    .budget_bytes(1 << 30)
                    .open()
                    .unwrap();
                assert_eq!(store.len(), entries as usize);
                store
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_durability);
criterion_main!(benches);
