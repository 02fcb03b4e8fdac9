//! The hot/cold tiered lifecycle: what frozen generations cost at
//! lookup time, and what a rotation costs to build.
//!
//! * `tiered/lookup/hot_only` vs `tiered/lookup/hot_plus_2frozen` —
//!   the same mixed batch probed against a filter with no frozen
//!   generations and one carrying two, isolating the per-generation
//!   fan-out cost of `contains_batch`.
//! * `tiered/lookup/fuse8_positive` vs `tiered/lookup/vcf_positive` —
//!   the acceptance-bar comparison: a positive probe of the frozen
//!   fuse tier against the VCF's single-probe positive lookup, on the
//!   same stored population.
//! * `tiered/rotate/build_2^20` — the full drain of one rotation at
//!   2^20 items: bucket collection, peeling construction and install.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use vcf_bench::{bench_keys, BENCH_SLOTS_LOG2, LOADED_FRACTION};
use vcf_core::{CuckooConfig, ScalableVcf, TieredFilter, VerticalCuckooFilter};
use vcf_sketches::BinaryFuse8;
use vcf_traits::Filter;

type Tiered = TieredFilter<BinaryFuse8>;

fn config() -> CuckooConfig {
    CuckooConfig::with_total_slots(1 << BENCH_SLOTS_LOG2).with_seed(42)
}

/// Keys per generation: the loaded fraction of one hot tier.
fn generation_len() -> usize {
    ((1usize << BENCH_SLOTS_LOG2) as f64 * LOADED_FRACTION) as usize
}

fn drain(filter: &mut Tiered) {
    while filter.rotation_backlog() > 0 {
        filter.rotate_step(usize::MAX);
    }
}

/// A tiered filter with `generations` frozen generations plus a loaded
/// hot tier, and the key population of every tier.
fn tiered_with_generations(generations: usize) -> (Tiered, Vec<Vec<u8>>) {
    let mut filter = Tiered::new(config()).expect("bench config must be valid");
    let per_gen = generation_len();
    let keys = bench_keys(per_gen * (generations + 1), 0x7e);
    for (round, chunk) in keys.chunks(per_gen).enumerate() {
        for key in chunk {
            filter.insert(key).expect("bench fill must fit");
        }
        if round < generations {
            assert!(filter.rotate(), "rotation must start");
            drain(&mut filter);
        }
    }
    assert_eq!(filter.generations(), generations);
    (filter, keys)
}

/// Mixed probe batch: half stored keys (spread across every tier), half
/// absent — the steady-state read mix a tiered deployment serves.
fn probe_batch(keys: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let total = 4096usize;
    let stride = (keys.len() / (total / 2)).max(1);
    let mut probes: Vec<Vec<u8>> = keys
        .iter()
        .step_by(stride)
        .take(total / 2)
        .cloned()
        .collect();
    let absent = bench_keys(total - probes.len(), 0xab5e);
    probes.extend(absent);
    probes
}

fn lookup_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("tiered/lookup");

    for (label, generations) in [("hot_only", 0usize), ("hot_plus_2frozen", 2)] {
        let (filter, keys) = tiered_with_generations(generations);
        let probes = probe_batch(&keys);
        let refs: Vec<&[u8]> = probes.iter().map(Vec::as_slice).collect();
        g.throughput(criterion::Throughput::Elements(refs.len() as u64));
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| std::hint::black_box(filter.contains_batch(&refs)));
        });
    }

    // Positive-lookup latency, frozen fuse vs VCF single probe, on the
    // same stored population at the same load.
    let per_gen = generation_len();
    let keys = bench_keys(per_gen, 0x7e);
    let mut vcf = VerticalCuckooFilter::new(config()).expect("bench config must be valid");
    let mut source = ScalableVcf::new(config()).expect("bench config must be valid");
    for key in &keys {
        vcf.insert(key).expect("bench fill must fit");
        source.insert(key).expect("bench fill must fit");
    }
    let canonical: Vec<u64> = source.canonical_keys().collect();
    let fuse = BinaryFuse8::from_keys(&canonical, 42).expect("fuse build must converge");

    g.throughput(criterion::Throughput::Elements(canonical.len() as u64));
    g.bench_function(BenchmarkId::from_parameter("fuse8_positive"), |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &key in &canonical {
                hits += usize::from(fuse.contains_key(key));
            }
            std::hint::black_box(hits)
        });
    });
    g.throughput(criterion::Throughput::Elements(keys.len() as u64));
    g.bench_function(BenchmarkId::from_parameter("vcf_positive"), |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for key in &keys {
                hits += usize::from(vcf.contains(key));
            }
            std::hint::black_box(hits)
        });
    });
    g.finish();
}

/// One full rotation at 2^20 items: collection of every bucket's
/// canonical keys, the peeling construction, and the install. The fill
/// and the `rotate()` arming (fresh hot allocation) happen in setup;
/// only the drain is timed.
fn rotate_benches(c: &mut Criterion) {
    let items = 1usize << 20;
    let keys = bench_keys(items, 0xf0);
    let config = CuckooConfig::with_total_slots(1 << 21).with_seed(42);

    let mut g = c.benchmark_group("tiered/rotate");
    g.sample_size(10);
    g.throughput(criterion::Throughput::Elements(items as u64));
    g.bench_function(BenchmarkId::from_parameter("build_2^20"), |b| {
        b.iter_batched(
            || {
                let mut filter =
                    TieredFilter::<BinaryFuse8>::new(config).expect("bench config must be valid");
                for key in &keys {
                    filter.insert(key).expect("bench fill must fit");
                }
                assert!(filter.rotate(), "rotation must start");
                filter
            },
            |mut filter| {
                drain(&mut filter);
                assert_eq!(filter.generations(), 1);
                filter
            },
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = lookup_benches, rotate_benches
}
criterion_main!(benches);
