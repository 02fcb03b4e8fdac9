//! Cross-crate contract tests: every filter in the workspace must satisfy
//! the AMQ contract — no false negatives, multiset deletion semantics,
//! sane accounting — verified against a ground-truth oracle.

use std::collections::HashMap;
use vertical_cuckoo_filters::baselines::{
    BloomConfig, CountingBloomFilter, CuckooFilter, DaryCuckooFilter, DlCbfConfig,
    DlCountingBloomFilter, VacuumFilter,
};
use vertical_cuckoo_filters::traits::Filter;
use vertical_cuckoo_filters::vcf::{
    ConcurrentVcf, CuckooConfig, Dvcf, KVcf, ShardedConcurrentVcf, ShardedVcf, VerticalCuckooFilter,
};
use vertical_cuckoo_filters::workloads::KeyStream;

fn config() -> CuckooConfig {
    CuckooConfig::new(1 << 8).with_seed(17)
}

/// Every deletable filter in the workspace, freshly built.
fn deletable_filters() -> Vec<Box<dyn Filter>> {
    vec![
        Box::new(CuckooFilter::new(config()).unwrap()),
        Box::new(VerticalCuckooFilter::new(config()).unwrap()),
        Box::new(VerticalCuckooFilter::with_mask_ones(config(), 3).unwrap()),
        Box::new(Dvcf::with_r(config(), 0.5).unwrap()),
        Box::new(KVcf::new(config().with_fingerprint_bits(16), 6).unwrap()),
        Box::new(DaryCuckooFilter::new(config()).unwrap()),
        Box::new(CountingBloomFilter::new(BloomConfig::for_items(1024, 1e-3)).unwrap()),
        Box::new(DlCountingBloomFilter::new(DlCbfConfig::for_items(1024)).unwrap()),
        Box::new(ShardedVcf::new(CuckooConfig::new(1 << 8).with_seed(17), 2).unwrap()),
        Box::new(ConcurrentVcf::new(config()).unwrap()),
        Box::new(ShardedConcurrentVcf::new(CuckooConfig::new(1 << 8).with_seed(17), 2).unwrap()),
        Box::new(VacuumFilter::new(192, 64, 4, 14, 500, 17).unwrap()),
    ]
}

#[test]
fn no_false_negatives_for_every_filter() {
    for mut filter in deletable_filters() {
        let keys = KeyStream::new(5).take_vec(700);
        let mut stored = Vec::new();
        for key in &keys {
            if filter.insert(key).is_ok() {
                stored.push(key.clone());
            }
        }
        for key in &stored {
            assert!(filter.contains(key), "{}: lost {key:?}", filter.name());
        }
    }
}

#[test]
fn delete_removes_exactly_one_copy() {
    for mut filter in deletable_filters() {
        let name = filter.name();
        filter.insert(b"dup").unwrap();
        filter.insert(b"dup").unwrap();
        filter.insert(b"dup").unwrap();
        assert!(filter.delete(b"dup"), "{name}");
        assert!(filter.contains(b"dup"), "{name}: copy 2 must survive");
        assert!(filter.delete(b"dup"), "{name}");
        assert!(filter.contains(b"dup"), "{name}: copy 3 must survive");
        assert!(filter.delete(b"dup"), "{name}");
        assert!(!filter.contains(b"dup"), "{name}: all copies deleted");
        assert!(!filter.delete(b"dup"), "{name}: nothing left to delete");
    }
}

#[test]
fn deleting_never_hides_other_items() {
    for mut filter in deletable_filters() {
        let name = filter.name();
        let keys = KeyStream::new(9).take_vec(600);
        let mut stored = Vec::new();
        for key in &keys {
            if filter.insert(key).is_ok() {
                stored.push(key.clone());
            }
        }
        let (to_delete, to_keep) = stored.split_at(stored.len() / 2);
        for key in to_delete {
            assert!(filter.delete(key), "{name}: failed to delete {key:?}");
        }
        for key in to_keep {
            assert!(
                filter.contains(key),
                "{name}: {key:?} hidden by unrelated delete"
            );
        }
    }
}

#[test]
fn len_tracks_oracle_under_interleaving() {
    // Random interleaving of inserts and deletes, checked against a
    // multiset oracle. Uses distinct keys with duplicates.
    for mut filter in deletable_filters() {
        let name = filter.name();
        let mut oracle: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut rng = vertical_cuckoo_filters::hash::SplitMix64::new(3);
        for step in 0..2000u64 {
            let key = format!("k{}", rng.next_below(300)).into_bytes();
            if rng.next_below(3) == 0 {
                // Deletion is only safe for previously inserted items
                // (paper Section III-B), so the oracle only deletes keys
                // it actually holds.
                if oracle.get(&key).copied().unwrap_or(0) > 0 {
                    assert!(
                        filter.delete(&key),
                        "{name}: failed to delete held key at step {step}: {key:?}"
                    );
                    *oracle.get_mut(&key).unwrap() -= 1;
                }
            } else if filter.insert(&key).is_ok() {
                *oracle.entry(key).or_insert(0) += 1;
            }
        }
        let oracle_len: usize = oracle.values().sum();
        assert_eq!(filter.len(), oracle_len, "{name}: len diverged from oracle");
        // Everything the oracle says is present must be found.
        for (key, &count) in &oracle {
            if count > 0 {
                assert!(filter.contains(key), "{name}: oracle item {key:?} missing");
            }
        }
    }
}

#[test]
fn contains_batch_agrees_with_single_lookups() {
    // The batched API is an optimisation, never a semantic change: for a
    // mixed present/absent batch every filter must answer exactly as its
    // one-at-a-time `contains` does, and leave the lookup counters with
    // one recorded call per item.
    for mut filter in deletable_filters() {
        let name = filter.name();
        let keys = KeyStream::new(23).take_vec(400);
        let mut stored = Vec::new();
        for key in &keys {
            if filter.insert(key).is_ok() {
                stored.push(key.clone());
            }
        }
        let aliens = KeyStream::new(777).take_vec(200);
        let mut batch: Vec<&[u8]> = Vec::new();
        for (present, absent) in stored.iter().zip(aliens.iter()) {
            batch.push(present);
            batch.push(absent);
        }
        let singles: Vec<bool> = batch.iter().map(|item| filter.contains(item)).collect();
        filter.reset_stats();
        let batched = filter.contains_batch(&batch);
        assert_eq!(batched, singles, "{name}: batch diverged from singles");
        assert_eq!(
            filter.stats().lookups.calls,
            batch.len() as u64,
            "{name}: batch must record one lookup per item"
        );
    }
}

#[test]
fn contains_batch_handles_empty_and_duplicate_batches() {
    for mut filter in deletable_filters() {
        let name = filter.name();
        assert!(
            filter.contains_batch(&[]).is_empty(),
            "{name}: empty batch must yield empty answers"
        );
        filter.insert(b"present").unwrap();
        let batch: Vec<&[u8]> = vec![b"present", b"absent", b"present", b"present"];
        assert_eq!(
            filter.contains_batch(&batch),
            vec![true, false, true, true],
            "{name}: duplicates in a batch must answer independently"
        );
    }
}

#[test]
fn bloom_filter_has_no_deletion_but_no_false_negatives() {
    use vertical_cuckoo_filters::baselines::BloomFilter;
    let mut bf = BloomFilter::new(BloomConfig::for_items(2000, 1e-3)).unwrap();
    assert!(!bf.supports_deletion());
    let keys = KeyStream::new(2).take_vec(2000);
    for key in &keys {
        bf.insert(key).unwrap();
    }
    for key in &keys {
        assert!(bf.contains(key));
    }
    assert!(!bf.delete(&keys[0]), "bloom delete must be a refused no-op");
    assert!(bf.contains(&keys[0]));
}

#[test]
fn failed_inserts_leave_filters_unchanged() {
    // Atomic-insert contract: fill each cuckoo filter to failure, snapshot
    // membership of all stored keys, slam more inserts, verify nothing
    // changed.
    let cuckoo_filters: Vec<Box<dyn Filter>> = vec![
        Box::new(CuckooFilter::new(CuckooConfig::new(1 << 5).with_seed(1)).unwrap()),
        Box::new(VerticalCuckooFilter::new(CuckooConfig::new(1 << 5).with_seed(1)).unwrap()),
        Box::new(Dvcf::with_r(CuckooConfig::new(1 << 5).with_seed(1), 0.75).unwrap()),
        Box::new(DaryCuckooFilter::new(CuckooConfig::new(1 << 6).with_seed(1)).unwrap()),
        Box::new(
            KVcf::new(
                CuckooConfig::new(1 << 5)
                    .with_fingerprint_bits(16)
                    .with_seed(1),
                5,
            )
            .unwrap(),
        ),
    ];
    for mut filter in cuckoo_filters {
        let name = filter.name();
        let mut stored = Vec::new();
        let mut saw_failure = false;
        for i in 0..(filter.capacity() as u64 * 2) {
            let key = format!("fill-{i}").into_bytes();
            if filter.insert(&key).is_ok() {
                stored.push(key);
            } else {
                saw_failure = true;
            }
        }
        assert!(saw_failure, "{name}: test needs the filter to overflow");
        let len_before = filter.len();
        for i in 0..64u64 {
            let _ = filter.insert(format!("extra-{i}").as_bytes());
        }
        // len may have grown if an extra insert legitimately found room,
        // but no stored key may ever disappear.
        assert!(filter.len() >= len_before, "{name}: len shrank");
        for key in &stored {
            assert!(
                filter.contains(key),
                "{name}: {key:?} lost to failed inserts"
            );
        }
    }
}
