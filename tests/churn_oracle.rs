//! End-to-end churn correctness: replay generated online workloads
//! against every deletable filter and check each lookup against the
//! trace's ground truth. A positive-expected lookup answering `false` is
//! a false negative — forbidden for every structure in the workspace.

use vertical_cuckoo_filters::baselines::{CuckooFilter, DaryCuckooFilter};
use vertical_cuckoo_filters::traits::Filter;
use vertical_cuckoo_filters::vcf::{CuckooConfig, Dvcf, KVcf, VerticalCuckooFilter};
use vertical_cuckoo_filters::workloads::{ChurnConfig, ChurnTrace, Op};

fn replay_and_check(filter: &mut dyn Filter, trace: &ChurnTrace) {
    let name = filter.name();
    let mut false_positives = 0u64;
    let mut negative_lookups = 0u64;
    for (i, op) in trace.iter().enumerate() {
        match op {
            Op::Insert(key) => {
                // The working set is sized well under capacity, so churn
                // inserts must always succeed.
                filter
                    .insert(key)
                    .unwrap_or_else(|e| panic!("{name}: insert {i} failed: {e}"));
            }
            Op::Delete(key) => {
                assert!(filter.delete(key), "{name}: delete {i} missed a live key");
            }
            Op::Lookup {
                key,
                expected_present,
            } => {
                let answer = filter.contains(key);
                if *expected_present {
                    assert!(answer, "{name}: false negative at op {i}");
                } else {
                    negative_lookups += 1;
                    if answer {
                        false_positives += 1;
                    }
                }
            }
        }
    }
    // False positives are allowed but must stay rare at 60 % occupancy.
    let fpr = false_positives as f64 / negative_lookups.max(1) as f64;
    assert!(fpr < 0.02, "{name}: churn FPR suspiciously high: {fpr}");
}

fn trace(seed: u64, working_set: usize) -> ChurnTrace {
    ChurnTrace::generate(ChurnConfig {
        working_set,
        rounds: 20_000,
        lookups_per_round: 2,
        positive_fraction: 0.5,
        seed,
    })
}

#[test]
fn churn_cf() {
    let config = CuckooConfig::with_total_slots(1 << 13).with_seed(1);
    let working_set = (1usize << 13) * 60 / 100;
    replay_and_check(
        &mut CuckooFilter::new(config).unwrap(),
        &trace(1, working_set),
    );
}

#[test]
fn churn_vcf() {
    let config = CuckooConfig::with_total_slots(1 << 13).with_seed(2);
    let working_set = (1usize << 13) * 60 / 100;
    replay_and_check(
        &mut VerticalCuckooFilter::new(config).unwrap(),
        &trace(2, working_set),
    );
}

#[test]
fn churn_ivcf() {
    let config = CuckooConfig::with_total_slots(1 << 13).with_seed(3);
    let working_set = (1usize << 13) * 60 / 100;
    replay_and_check(
        &mut VerticalCuckooFilter::with_mask_ones(config, 2).unwrap(),
        &trace(3, working_set),
    );
}

#[test]
fn churn_dvcf() {
    let config = CuckooConfig::with_total_slots(1 << 13).with_seed(4);
    let working_set = (1usize << 13) * 60 / 100;
    replay_and_check(
        &mut Dvcf::with_r(config, 0.5).unwrap(),
        &trace(4, working_set),
    );
}

#[test]
fn churn_kvcf() {
    let config = CuckooConfig::with_total_slots(1 << 13)
        .with_seed(5)
        .with_fingerprint_bits(16);
    let working_set = (1usize << 13) * 60 / 100;
    replay_and_check(&mut KVcf::new(config, 6).unwrap(), &trace(5, working_set));
}

#[test]
fn churn_dcf() {
    // DCF needs a power-of-4 bucket count: 2^12 slots → 4^5 buckets.
    let config = CuckooConfig::with_total_slots(1 << 12).with_seed(6);
    let working_set = (1usize << 12) * 60 / 100;
    replay_and_check(
        &mut DaryCuckooFilter::new(config).unwrap(),
        &trace(6, working_set),
    );
}

/// Sustained churn at 90 % occupancy — the paper's hard regime. Kick
/// cascades happen constantly; correctness must hold throughout.
#[test]
fn churn_at_high_occupancy_vcf_vs_cf() {
    let slots = 1usize << 12;
    let working_set = slots * 90 / 100;
    let config = CuckooConfig::with_total_slots(slots).with_seed(9);
    let high_trace = trace(9, working_set);

    let mut vcf = VerticalCuckooFilter::new(config).unwrap();
    replay_and_check(&mut vcf, &high_trace);

    let mut cf = CuckooFilter::new(config).unwrap();
    replay_and_check(&mut cf, &high_trace);

    // And the headline: same trace, far fewer relocations for VCF.
    assert!(
        vcf.stats().kicks < cf.stats().kicks / 2,
        "VCF churn kicks {} should be well below CF's {}",
        vcf.stats().kicks,
        cf.stats().kicks
    );
}
