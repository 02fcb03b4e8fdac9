//! Per-insert cost across the filter family (Table III "IT", Fig. 7).
//!
//! Three fill regimes per filter — 50 % (cheap, few kicks), 75 %, and
//! 95 % (the insertion-intensive regime where VCF's extra candidates pay
//! off) — plus an `insert/batch` group that pits the pipelined
//! [`Filter::insert_batch`] path (hash + prefetch a window up front)
//! against the plain serial loop on the same key set. Both cover the
//! sequential filters and the lock-free `ConcurrentVcf` the server runs.
//! An `insert/router` group bulk-loads a sharded router through
//! [`ShardRouter::insert_batch`], which spreads a large batch's shard
//! groups over the cores, against a per-shard serial loop.

use std::cell::OnceCell;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use vcf_baselines::{BloomConfig, BloomFilter, CuckooFilter, DaryCuckooFilter};
use vcf_bench::{bench_keys, BATCH_SLOTS_LOG2, BENCH_SLOTS_LOG2};
use vcf_core::{
    ConcurrentVcf, CuckooConfig, Dvcf, KVcf, ShardRouter, ShardedConcurrentVcf,
    VerticalCuckooFilter,
};
use vcf_traits::{ConcurrentFilter, Filter, InsertError};

fn config() -> CuckooConfig {
    CuckooConfig::with_total_slots(1 << BENCH_SLOTS_LOG2).with_seed(42)
}

fn bench_fill<F: Filter>(
    c: &mut Criterion,
    group: &str,
    label: &str,
    fraction: f64,
    make: impl Fn() -> F,
) {
    let slots = 1usize << BENCH_SLOTS_LOG2;
    let n = (slots as f64 * fraction) as usize;
    let mut g = c.benchmark_group(group);
    g.throughput(criterion::Throughput::Elements(n as u64));
    g.bench_function(BenchmarkId::from_parameter(label), |b| {
        let keys = bench_keys(n, 7);
        b.iter_batched(
            &make,
            |mut filter| {
                for key in &keys {
                    let _ = filter.insert(key);
                }
                filter
            },
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

/// Pipelined batch insert vs. the serial loop, same keys, same filter.
/// The `_loop` rows are the baseline the prefetching path must beat.
/// Runs on a [`BATCH_SLOTS_LOG2`] table (16 MiB, past L2 but
/// LLC-resident) at 50 % fill: direct placements bound by L2 misses,
/// where hiding the last-level-cache latency is the whole game. Both ids
/// share one key set, built by the first of them that runs.
fn bench_batch<F: Filter>(c: &mut Criterion, label: &str, fraction: f64, make: impl Fn() -> F) {
    let slots = 1usize << BATCH_SLOTS_LOG2;
    let n = (slots as f64 * fraction) as usize;
    let keys = OnceCell::new();
    let mut g = c.benchmark_group("insert/batch");
    g.throughput(criterion::Throughput::Elements(n as u64));
    g.bench_function(BenchmarkId::from_parameter(label), |b| {
        let refs = key_refs(&keys, n);
        b.iter_batched(
            &make,
            |mut filter| {
                std::hint::black_box(filter.insert_batch(&refs));
                filter
            },
            BatchSize::LargeInput,
        );
    });
    g.bench_function(BenchmarkId::from_parameter(format!("{label}_loop")), |b| {
        let refs = key_refs(&keys, n);
        b.iter_batched(
            &make,
            |mut filter| {
                for key in &refs {
                    let _ = filter.insert(key);
                }
                filter
            },
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

/// Bulk load of a 2^20-slot, 16-shard [`ShardedConcurrentVcf`] to 90 %
/// in 65,536-key batches. The first row goes through
/// [`ShardRouter::insert_batch`]; the `_shard_loop` row is the serial
/// reference written out here: group each batch by shard, run one
/// `insert_batch` per shard in turn, and put the results back in input
/// order.
fn bench_router(c: &mut Criterion) {
    const SLOTS: usize = 1 << 20;
    const BATCH: usize = 1 << 16;
    let n = SLOTS * 9 / 10;
    let make = || {
        ShardedConcurrentVcf::new(CuckooConfig::with_total_slots(SLOTS).with_seed(42), 4).unwrap()
    };
    let label = "ShardedConcurrentVCF[16]";
    let keys = OnceCell::new();
    let mut g = c.benchmark_group("insert/router");
    g.throughput(criterion::Throughput::Elements(n as u64));
    g.bench_function(BenchmarkId::from_parameter(label), |b| {
        let refs = key_refs(&keys, n);
        b.iter_batched(
            make,
            |filter| {
                for batch in refs.chunks(BATCH) {
                    std::hint::black_box(filter.insert_batch(batch));
                }
                filter
            },
            BatchSize::LargeInput,
        );
    });
    g.bench_function(
        BenchmarkId::from_parameter(format!("{label}_shard_loop")),
        |b| {
            let refs = key_refs(&keys, n);
            b.iter_batched(
                make,
                |filter| {
                    for batch in refs.chunks(BATCH) {
                        std::hint::black_box(shard_loop(&filter, batch));
                    }
                    filter
                },
                BatchSize::LargeInput,
            );
        },
    );
    g.finish();
}

/// Borrows of a group's `n` keys, generating them on first use so a
/// filtered run that skips every id of the group never pays for them.
fn key_refs(keys: &OnceCell<Vec<Vec<u8>>>, n: usize) -> Vec<&[u8]> {
    keys.get_or_init(|| bench_keys(n, 7))
        .iter()
        .map(Vec::as_slice)
        .collect()
}

/// One batch through each shard's own `insert_batch`, shard after shard.
fn shard_loop<F: ConcurrentFilter>(
    router: &ShardRouter<F>,
    batch: &[&[u8]],
) -> Vec<Result<(), InsertError>> {
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); router.shard_count()];
    for (pos, key) in batch.iter().enumerate() {
        groups[router.shard_of(key)].push(pos);
    }
    let mut out = vec![Ok(()); batch.len()];
    for (shard, group) in router.shards().iter().zip(&groups) {
        let keys: Vec<&[u8]> = group.iter().map(|&pos| batch[pos]).collect();
        for (&pos, result) in group.iter().zip(shard.insert_batch(&keys)) {
            out[pos] = result;
        }
    }
    out
}

fn insert_benches(c: &mut Criterion) {
    for &(group, fraction) in &[
        ("insert/fill50", 0.5),
        ("insert/fill75", 0.75),
        ("insert/fill95", 0.95),
    ] {
        bench_fill(c, group, "CF", fraction, || {
            CuckooFilter::new(config()).unwrap()
        });
        bench_fill(c, group, "VCF", fraction, || {
            VerticalCuckooFilter::new(config()).unwrap()
        });
        bench_fill(c, group, "IVCF3", fraction, || {
            VerticalCuckooFilter::with_mask_ones(config(), 3).unwrap()
        });
        bench_fill(c, group, "DVCF_r0.5", fraction, || {
            Dvcf::with_r(config(), 0.5).unwrap()
        });
        bench_fill(c, group, "DCF", fraction, || {
            DaryCuckooFilter::new(config()).unwrap()
        });
        bench_fill(c, group, "ConcurrentVCF", fraction, || {
            ConcurrentVcf::new(config()).unwrap()
        });
        bench_fill(c, group, "BF", fraction, || {
            BloomFilter::new(BloomConfig::for_items(1 << BENCH_SLOTS_LOG2, 5e-4)).unwrap()
        });
    }

    let batch_config = || CuckooConfig::with_total_slots(1 << BATCH_SLOTS_LOG2).with_seed(42);
    bench_batch(c, "CF", 0.5, move || {
        CuckooFilter::new(batch_config()).unwrap()
    });
    bench_batch(c, "VCF", 0.5, move || {
        VerticalCuckooFilter::new(batch_config()).unwrap()
    });
    bench_batch(c, "DVCF_r0.5", 0.5, move || {
        Dvcf::with_r(batch_config(), 0.5).unwrap()
    });
    bench_batch(c, "KVCF_k4", 0.5, move || {
        KVcf::new(batch_config(), 4).unwrap()
    });
    bench_batch(c, "ConcurrentVCF", 0.5, move || {
        ConcurrentVcf::new(batch_config()).unwrap()
    });
    bench_router(c);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = insert_benches
}
criterion_main!(benches);
