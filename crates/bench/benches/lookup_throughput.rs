//! Per-lookup cost: positive hits and negative (alien) probes, at 90 %
//! load (Table III "QT", Fig. 6), plus the batched-lookup comparison at
//! 95 % load.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vcf_baselines::{BloomConfig, BloomFilter, CuckooFilter, DaryCuckooFilter, VacuumFilter};
use vcf_bench::{bench_keys, BENCH_SLOTS_LOG2, LOADED_FRACTION};
use vcf_core::{ConcurrentVcf, CuckooConfig, Dvcf, KVcf, VerticalCuckooFilter};
use vcf_traits::Filter;

fn config() -> CuckooConfig {
    CuckooConfig::with_total_slots(1 << BENCH_SLOTS_LOG2).with_seed(42)
}

fn loaded<F: Filter>(mut filter: F, keys: &[Vec<u8>]) -> F {
    for key in keys {
        let _ = filter.insert(key);
    }
    filter
}

fn bench_lookups<F: Filter>(c: &mut Criterion, label: &str, filter: F) {
    let slots = 1usize << BENCH_SLOTS_LOG2;
    let n = (slots as f64 * LOADED_FRACTION) as usize;
    let keys = bench_keys(n, 7);
    let aliens = bench_keys(n, 0xa11e4);
    let filter = loaded(filter, &keys);

    let mut g = c.benchmark_group("lookup/positive");
    g.bench_function(BenchmarkId::from_parameter(label), |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % n;
            std::hint::black_box(filter.contains(&keys[i]))
        });
    });
    g.finish();

    let mut g = c.benchmark_group("lookup/negative");
    g.bench_function(BenchmarkId::from_parameter(label), |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % n;
            std::hint::black_box(filter.contains(&aliens[i]))
        });
    });
    g.finish();
}

/// Slot count for the batch benches. 2^24 slots make a ~32 MiB
/// fingerprint table — past the cache hierarchy — so the prefetch
/// window in `contains_batch` has real misses to overlap. The
/// single-lookup benches above keep the smaller, cache-resident table.
const BATCH_SLOTS_LOG2: u32 = 24;

fn batch_config() -> CuckooConfig {
    CuckooConfig::with_total_slots(1 << BATCH_SLOTS_LOG2).with_seed(42)
}

/// Batched vs one-at-a-time lookups over a 50/50 hit/miss mix at 95 %
/// load: `lookup/batch` drives `contains_batch`, `lookup/batch_loop` the
/// same batch through single `contains` calls.
fn bench_batch<F: Filter>(c: &mut Criterion, label: &str, filter: F) {
    const BATCH: usize = 256;
    let slots = 1usize << BATCH_SLOTS_LOG2;
    let n = (slots as f64 * 0.95) as usize;
    let keys = bench_keys(n, 7);
    let aliens = bench_keys(n, 0xa11e4);
    let filter = loaded(filter, &keys);

    // Interleave hits and misses so each batch is a 50/50 mix.
    let mixed: Vec<&[u8]> = keys
        .iter()
        .zip(aliens.iter())
        .flat_map(|(hit, miss)| [hit.as_slice(), miss.as_slice()])
        .collect();
    let batches: Vec<&[&[u8]]> = mixed.chunks_exact(BATCH).collect();

    let mut g = c.benchmark_group("lookup/batch");
    g.throughput(Throughput::Elements(BATCH as u64));
    g.bench_function(BenchmarkId::from_parameter(label), |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % batches.len();
            std::hint::black_box(filter.contains_batch(batches[i]))
        });
    });
    g.finish();

    let mut g = c.benchmark_group("lookup/batch_loop");
    g.throughput(Throughput::Elements(BATCH as u64));
    g.bench_function(BenchmarkId::from_parameter(label), |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % batches.len();
            let mut hits = 0usize;
            for item in batches[i] {
                hits += usize::from(filter.contains(item));
            }
            std::hint::black_box(hits)
        });
    });
    g.finish();
}

fn lookup_benches(c: &mut Criterion) {
    bench_lookups(c, "CF", CuckooFilter::new(config()).unwrap());
    bench_lookups(c, "VCF", VerticalCuckooFilter::new(config()).unwrap());
    bench_lookups(
        c,
        "IVCF3",
        VerticalCuckooFilter::with_mask_ones(config(), 3).unwrap(),
    );
    bench_lookups(c, "DVCF_r0.5", Dvcf::with_r(config(), 0.5).unwrap());
    bench_lookups(c, "DCF", DaryCuckooFilter::new(config()).unwrap());
    bench_lookups(
        c,
        "8-VCF",
        KVcf::new(config().with_fingerprint_bits(16), 8).unwrap(),
    );
    bench_lookups(
        c,
        "BF",
        BloomFilter::new(BloomConfig::for_items(1 << BENCH_SLOTS_LOG2, 5e-4)).unwrap(),
    );
    bench_lookups(
        c,
        "VF",
        VacuumFilter::new((1 << (BENCH_SLOTS_LOG2 - 2)) + 192, 64, 4, 14, 500, 42).unwrap(),
    );

    bench_batch(c, "CF", CuckooFilter::new(batch_config()).unwrap());
    bench_batch(c, "VCF", VerticalCuckooFilter::new(batch_config()).unwrap());
    bench_batch(c, "DVCF_r0.5", Dvcf::with_r(batch_config(), 0.5).unwrap());
    bench_batch(c, "DCF", DaryCuckooFilter::new(batch_config()).unwrap());
    bench_batch(
        c,
        "8-VCF",
        KVcf::new(batch_config().with_fingerprint_bits(16), 8).unwrap(),
    );
    bench_batch(
        c,
        "ConcurrentVCF",
        ConcurrentVcf::new(batch_config()).unwrap(),
    );
    bench_batch(
        c,
        "ShardedVCF",
        vcf_core::ShardedVcf::new(batch_config(), 3).unwrap(),
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = lookup_benches
}
criterion_main!(benches);
