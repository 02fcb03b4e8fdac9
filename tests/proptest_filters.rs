//! Property-based end-to-end tests: arbitrary operation sequences against
//! a multiset oracle, for each filter family member.
//!
//! These complement the deterministic contract tests by letting proptest
//! hunt for adversarial interleavings (duplicate-heavy streams, deletes of
//! absent keys, re-inserts after deletes).

use proptest::prelude::*;
use std::collections::HashMap;
use vertical_cuckoo_filters::baselines::{CuckooFilter, DaryCuckooFilter};
use vertical_cuckoo_filters::traits::Filter;
use vertical_cuckoo_filters::vcf::{CuckooConfig, Dvcf, KVcf, VerticalCuckooFilter};

#[derive(Debug, Clone)]
enum FilterOp {
    Insert(u16),
    Delete(u16),
    Query(u16),
}

fn op_strategy() -> impl Strategy<Value = FilterOp> {
    prop_oneof![
        (0u16..400).prop_map(FilterOp::Insert),
        (0u16..400).prop_map(FilterOp::Delete),
        (0u16..400).prop_map(FilterOp::Query),
    ]
}

/// Drives `filter` through `ops`, checking against a multiset oracle:
/// * a key the oracle holds must always be reported present;
/// * `delete` must succeed exactly when the oracle holds at least one copy
///   *or* the filter has a (legal) colliding fingerprint — so we only
///   assert the one-directional guarantees that AMQ semantics give.
fn check_against_oracle(mut filter: Box<dyn Filter>, ops: &[FilterOp]) {
    let name = filter.name();
    let mut oracle: HashMap<u16, usize> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            FilterOp::Insert(k) => {
                if filter.insert(&k.to_le_bytes()).is_ok() {
                    *oracle.entry(*k).or_insert(0) += 1;
                }
            }
            FilterOp::Delete(k) => {
                // Cuckoo-family deletion is only safe for items that were
                // actually inserted (paper Section III-B); deleting an
                // absent key may legally strip a colliding fingerprint
                // from another item. The oracle therefore only issues
                // deletes for keys it holds.
                let held = oracle.get(k).copied().unwrap_or(0);
                if held > 0 {
                    let deleted = filter.delete(&k.to_le_bytes());
                    assert!(deleted, "{name}: op {i}: failed to delete stored key {k}");
                    *oracle.get_mut(k).unwrap() -= 1;
                }
            }
            FilterOp::Query(k) => {
                let held = oracle.get(k).copied().unwrap_or(0);
                if held > 0 {
                    assert!(
                        filter.contains(&k.to_le_bytes()),
                        "{name}: op {i}: false negative for {k}"
                    );
                }
            }
        }
    }
    // Final sweep: everything the oracle still holds must be present.
    for (k, &count) in &oracle {
        if count > 0 {
            assert!(
                filter.contains(&k.to_le_bytes()),
                "{name}: key {k} lost by the end of the sequence"
            );
        }
    }
}

fn config() -> CuckooConfig {
    CuckooConfig::new(1 << 8).with_seed(1234)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn vcf_respects_oracle(ops in prop::collection::vec(op_strategy(), 1..400)) {
        check_against_oracle(Box::new(VerticalCuckooFilter::new(config()).unwrap()), &ops);
    }

    #[test]
    fn ivcf_respects_oracle(ops in prop::collection::vec(op_strategy(), 1..400)) {
        check_against_oracle(
            Box::new(VerticalCuckooFilter::with_mask_ones(config(), 2).unwrap()),
            &ops,
        );
    }

    #[test]
    fn dvcf_respects_oracle(ops in prop::collection::vec(op_strategy(), 1..400)) {
        check_against_oracle(Box::new(Dvcf::with_r(config(), 0.5).unwrap()), &ops);
    }

    #[test]
    fn kvcf_respects_oracle(ops in prop::collection::vec(op_strategy(), 1..400)) {
        check_against_oracle(
            Box::new(KVcf::new(config().with_fingerprint_bits(16), 6).unwrap()),
            &ops,
        );
    }

    #[test]
    fn cf_respects_oracle(ops in prop::collection::vec(op_strategy(), 1..400)) {
        check_against_oracle(Box::new(CuckooFilter::new(config()).unwrap()), &ops);
    }

    #[test]
    fn dcf_respects_oracle(ops in prop::collection::vec(op_strategy(), 1..400)) {
        check_against_oracle(Box::new(DaryCuckooFilter::new(config()).unwrap()), &ops);
    }
}
