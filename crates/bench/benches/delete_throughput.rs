//! Per-delete cost at high load across the deletable structures.
//!
//! Deletion is the operation Bloom filters cannot do at all and the reason
//! the cuckoo family exists; this bench shows it costs roughly the same as
//! a positive lookup for every cuckoo variant.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use vcf_baselines::{
    BloomConfig, CountingBloomFilter, CuckooFilter, DaryCuckooFilter, VacuumFilter,
};
use vcf_bench::{bench_keys, BENCH_SLOTS_LOG2, LOADED_FRACTION};
use vcf_core::{CuckooConfig, Dvcf, KVcf, VerticalCuckooFilter};
use vcf_traits::Filter;

fn config() -> CuckooConfig {
    CuckooConfig::with_total_slots(1 << BENCH_SLOTS_LOG2).with_seed(42)
}

fn bench_delete<F: Filter + Clone>(c: &mut Criterion, label: &str, filter: F) {
    let slots = 1usize << BENCH_SLOTS_LOG2;
    let n = (slots as f64 * LOADED_FRACTION) as usize;
    let keys = bench_keys(n, 7);
    let mut loaded = filter;
    for key in &keys {
        let _ = loaded.insert(key);
    }

    let mut g = c.benchmark_group("delete/loaded");
    g.bench_function(BenchmarkId::from_parameter(label), |b| {
        b.iter_batched(
            || loaded.clone(),
            |mut filter| {
                // Delete a block of keys; batch keeps setup out of timing.
                for key in keys.iter().take(1024) {
                    std::hint::black_box(filter.delete(key));
                }
                filter
            },
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

fn delete_benches(c: &mut Criterion) {
    bench_delete(c, "CF", CuckooFilter::new(config()).unwrap());
    bench_delete(c, "VCF", VerticalCuckooFilter::new(config()).unwrap());
    bench_delete(c, "DVCF_r0.5", Dvcf::with_r(config(), 0.5).unwrap());
    bench_delete(c, "DCF", DaryCuckooFilter::new(config()).unwrap());
    bench_delete(
        c,
        "8-VCF",
        KVcf::new(config().with_fingerprint_bits(16), 8).unwrap(),
    );
    bench_delete(
        c,
        "VF",
        VacuumFilter::new((1 << (BENCH_SLOTS_LOG2 - 2)) + 192, 64, 4, 14, 500, 42).unwrap(),
    );
    bench_delete(
        c,
        "CBF",
        CountingBloomFilter::new(BloomConfig::for_items(1 << BENCH_SLOTS_LOG2, 5e-4)).unwrap(),
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = delete_benches
}
criterion_main!(benches);
