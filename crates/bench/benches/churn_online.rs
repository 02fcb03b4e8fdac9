//! The paper's motivating scenario: a sustained online workload that
//! inserts and deletes at high occupancy (Section I, "online applications
//! wherein the items join and leave frequently").
//!
//! Each iteration replays a fixed churn trace (delete one, insert one,
//! look up two) against a filter pre-filled to 90 %. VCF's advantage here
//! is the headline claim of the paper.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use vcf_baselines::{CuckooFilter, DaryCuckooFilter};
use vcf_bench::{bench_keys, BENCH_SLOTS_LOG2};
use vcf_core::{CuckooConfig, Dvcf, ScalableVcf, VerticalCuckooFilter};
use vcf_traits::Filter;
use vcf_workloads::{ChurnConfig, ChurnTrace, Op};

fn config() -> CuckooConfig {
    CuckooConfig::with_total_slots(1 << BENCH_SLOTS_LOG2).with_seed(42)
}

fn replay<F: Filter>(filter: &mut F, trace: &ChurnTrace) -> usize {
    let mut positives = 0usize;
    for op in trace.iter() {
        match op {
            Op::Insert(key) => {
                let _ = filter.insert(key);
            }
            Op::Delete(key) => {
                filter.delete(key);
            }
            Op::Lookup { key, .. } => {
                if filter.contains(key) {
                    positives += 1;
                }
            }
        }
    }
    positives
}

fn bench_churn<F: Filter + Clone>(c: &mut Criterion, label: &str, base: F, trace: &ChurnTrace) {
    bench_churn_group(c, "churn/steady_state", label, base, trace);
}

fn bench_churn_group<F: Filter + Clone>(
    c: &mut Criterion,
    group: &str,
    label: &str,
    base: F,
    trace: &ChurnTrace,
) {
    // Pre-fill with the trace warm-up once; each iteration replays only
    // the churn rounds against a clone.
    let warmup = trace.config().working_set;
    let mut warm = base;
    for op in trace.ops().iter().take(warmup) {
        if let Op::Insert(key) = op {
            let _ = warm.insert(key);
        }
    }
    let churn_ops = &trace.ops()[warmup..];
    let rounds = trace.config().rounds;

    let mut g = c.benchmark_group(group);
    g.throughput(criterion::Throughput::Elements(churn_ops.len() as u64));
    g.bench_function(BenchmarkId::from_parameter(label), |b| {
        b.iter_batched(
            || warm.clone(),
            |mut filter| {
                for op in churn_ops {
                    match op {
                        Op::Insert(key) => {
                            let _ = filter.insert(key);
                        }
                        Op::Delete(key) => {
                            filter.delete(key);
                        }
                        Op::Lookup { key, .. } => {
                            std::hint::black_box(filter.contains(key));
                        }
                    }
                }
                filter
            },
            BatchSize::LargeInput,
        );
    });
    g.finish();
    let _ = rounds;
}

fn churn_benches(c: &mut Criterion) {
    let slots = 1usize << BENCH_SLOTS_LOG2;
    let trace = ChurnTrace::generate(ChurnConfig {
        working_set: slots * 90 / 100,
        rounds: 4096,
        lookups_per_round: 2,
        positive_fraction: 0.5,
        seed: 0xc4,
    });

    bench_churn(c, "CF", CuckooFilter::new(config()).unwrap(), &trace);
    bench_churn(
        c,
        "VCF",
        VerticalCuckooFilter::new(config()).unwrap(),
        &trace,
    );
    bench_churn(c, "DVCF_r0.5", Dvcf::with_r(config(), 0.5).unwrap(), &trace);
    bench_churn(c, "DCF", DaryCuckooFilter::new(config()).unwrap(), &trace);

    // The insertion-intensive regime: churn at 95 % occupancy, where
    // kick chains lengthen (Fig. 8's territory).
    let trace95 = ChurnTrace::generate(ChurnConfig {
        working_set: slots * 95 / 100,
        rounds: 4096,
        lookups_per_round: 2,
        positive_fraction: 0.5,
        seed: 0xc4,
    });
    bench_churn_group(
        c,
        "churn/load95",
        "VCF",
        VerticalCuckooFilter::new(config()).unwrap(),
        &trace95,
    );

    // Sanity outside timing: replay must produce every expected positive.
    let mut vcf = VerticalCuckooFilter::new(config()).unwrap();
    let positives = replay(&mut vcf, &trace);
    assert!(positives > 0);
}

/// The elastic filter's growth economics, in three measurements:
///
/// * `grow_2^12_to_2^22` — amortized insert cost over a full sustained
///   growth sweep (every doubling and all migration included; each insert
///   performs at most one bucket-range of drain work).
/// * `insert_quiescent` / `insert_migrating` — the same insert batch
///   against a pre-grown filter with a fully-drained chain vs one with a
///   drain in flight, isolating the per-op migration amortization that
///   the sweep averages away.
fn autoscale_benches(c: &mut Criterion) {
    let base = CuckooConfig::new(1 << 10).with_seed(42); // 2^12 slots

    // Dry run with the *same* key sequence the bench replays, to fix the
    // op count: inserts needed to grow to 2^22 slots.
    let keys = bench_keys(3 << 20, 0xa5);
    let mut probe = ScalableVcf::new(base).unwrap();
    let mut sweep_len = 0usize;
    while probe.capacity() < 1 << 22 {
        probe
            .insert(&keys[sweep_len])
            .expect("growth sweep insert failed");
        sweep_len += 1;
    }
    let sweep = &keys[..sweep_len];

    let mut g = c.benchmark_group("churn/autoscale");
    g.throughput(criterion::Throughput::Elements(sweep_len as u64));
    g.bench_function(BenchmarkId::from_parameter("grow_2^12_to_2^22"), |b| {
        b.iter_batched(
            || ScalableVcf::new(base).unwrap(),
            |mut filter| {
                for key in sweep {
                    let _ = filter.insert(key);
                }
                assert!(filter.capacity() >= 1 << 22, "sweep failed to grow");
                filter
            },
            BatchSize::LargeInput,
        );
    });

    // Pre-grow to 2^18 slots and flatten the chain completely.
    let mut warm = ScalableVcf::new(base).unwrap();
    let mut fill = 0usize;
    while warm.capacity() < 1 << 18 {
        let _ = warm.insert(&keys[fill]);
        fill += 1;
    }
    while warm.migration_backlog() > 0 {
        if warm.migrate_step(64) == 0 && warm.migration_backlog() > 0 {
            warm.grow().expect("grow to unblock a stalled drain");
        }
    }
    // One more doubling puts the whole old active segment on the drain
    // cursor: the "migrating" variant pays one bucket-range per insert.
    let mut draining = warm.clone();
    draining.grow().expect("grow to arm the drain");
    assert!(draining.migration_backlog() > 0);

    let batch = &keys[fill..fill + 4096];
    g.throughput(criterion::Throughput::Elements(batch.len() as u64));
    for (label, filter) in [("insert_quiescent", &warm), ("insert_migrating", &draining)] {
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter_batched(
                || filter.clone(),
                |mut filter| {
                    for key in batch {
                        let _ = filter.insert(key);
                    }
                    filter
                },
                BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = churn_benches, autoscale_benches
}
criterion_main!(benches);
