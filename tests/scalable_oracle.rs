//! Differential oracle for the elastic `ScalableVcf`: replay a long
//! mixed insert/delete/lookup stream against a `HashSet` ground truth,
//! forcing growth, explicit migration steps and shrink-to-fit mid-stream.
//!
//! Invariants checked throughout:
//!
//! * **Zero false negatives** — every live key answers `true`, on every
//!   lookup and in periodic full-membership sweeps.
//! * **Exact occupancy** — `len()` equals the oracle's size after every
//!   operation and after every migration step (migration moves
//!   fingerprints, never duplicates or drops them).
//! * **Bounded per-op migration work** — no insert drains more than one
//!   cold bucket-range (`migration_stats().last_op_buckets <= 1`).
//!
//! The filter runs at `fingerprint_bits = 32`, which makes a cross-key
//! fingerprint-plus-coset collision (~2e-5 per pair per bucket) rare
//! enough that exact-occupancy accounting through 1M ops is sound.

use std::collections::HashMap;

use vertical_cuckoo_filters::traits::Filter;
use vertical_cuckoo_filters::vcf::{CuckooConfig, ScalableVcf};

/// SplitMix64: deterministic op stream without external dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn key(i: u64) -> Vec<u8> {
    format!("oracle-{i}").into_bytes()
}

/// Live-set oracle supporting O(1) insert, remove and uniform sampling.
#[derive(Default)]
struct Oracle {
    live: Vec<u64>,
    pos: HashMap<u64, usize>,
}

impl Oracle {
    fn insert(&mut self, k: u64) -> bool {
        if self.pos.contains_key(&k) {
            return false;
        }
        self.pos.insert(k, self.live.len());
        self.live.push(k);
        true
    }

    fn remove_at(&mut self, index: usize) -> u64 {
        let k = self.live.swap_remove(index);
        self.pos.remove(&k);
        if index < self.live.len() {
            self.pos.insert(self.live[index], index);
        }
        k
    }

    fn len(&self) -> usize {
        self.live.len()
    }
}

fn assert_exact_occupancy(filter: &ScalableVcf, oracle: &Oracle, context: &str) {
    assert_eq!(
        filter.len(),
        oracle.len(),
        "{context}: filter occupancy diverged from oracle"
    );
}

fn full_sweep(filter: &ScalableVcf, oracle: &Oracle, context: &str) {
    for &k in &oracle.live {
        assert!(
            filter.contains(&key(k)),
            "{context}: false negative for live key {k}"
        );
    }
}

/// The headline satellite: 1M mixed ops with growth, explicit migration
/// and shrink forced mid-stream.
#[test]
fn scalable_vcf_matches_hashset_through_one_million_ops() {
    let config = CuckooConfig::new(1 << 6)
        .with_fingerprint_bits(32)
        .with_seed(0xac7e);
    let mut filter = ScalableVcf::new(config).unwrap();
    let mut oracle = Oracle::default();
    let mut rng = Rng(0x5ca1_ab1e);
    let mut next_key = 0u64;
    let mut negative_lookups = 0u64;
    let mut false_positives = 0u64;

    const TOTAL_OPS: usize = 1_000_000;
    for op in 0..TOTAL_OPS {
        // Phase mix: grow-heavy, then delete-heavy (sets up shrink), then
        // balanced churn.
        let (insert_w, delete_w) = match op {
            0..=399_999 => (60, 10),
            400_000..=599_999 => (10, 60),
            _ => (40, 40),
        };
        let roll = rng.below(100);
        if roll < insert_w {
            let k = next_key;
            next_key += 1;
            assert!(oracle.insert(k));
            filter
                .insert(&key(k))
                .unwrap_or_else(|e| panic!("op {op}: insert failed: {e}"));
            assert!(
                filter.migration_stats().last_op_buckets <= 1,
                "op {op}: insert drained more than one bucket-range"
            );
        } else if roll < insert_w + delete_w {
            if oracle.len() == 0 {
                continue;
            }
            let index = rng.below(oracle.len() as u64) as usize;
            let k = oracle.remove_at(index);
            assert!(filter.delete(&key(k)), "op {op}: delete of live key {k}");
        } else if oracle.len() > 0 && rng.below(2) == 0 {
            let index = rng.below(oracle.len() as u64) as usize;
            let k = oracle.live[index];
            assert!(filter.contains(&key(k)), "op {op}: false negative for {k}");
        } else {
            // Never-inserted key: false positives allowed, bounded below.
            let k = u64::MAX - rng.below(1 << 40);
            negative_lookups += 1;
            if filter.contains(&key(k)) {
                false_positives += 1;
            }
        }
        assert_exact_occupancy(&filter, &oracle, &format!("op {op}"));

        // Interleave explicit migration steps and check exact occupancy
        // after every one.
        if op % 97 == 0 && filter.migration_backlog() > 0 {
            filter.migrate_step(2);
            assert_exact_occupancy(&filter, &oracle, &format!("op {op} migrate_step"));
        }
        // Periodic full no-false-negative sweeps.
        if op % 100_000 == 99_999 {
            full_sweep(&filter, &oracle, &format!("op {op} sweep"));
        }
        // Force shrink right after the delete-heavy phase and again near
        // the end, mid-churn.
        if op == 600_000 || op == 900_000 {
            let before = filter.capacity();
            let shrunk = filter.shrink_to_fit();
            assert_exact_occupancy(&filter, &oracle, &format!("op {op} shrink"));
            full_sweep(&filter, &oracle, &format!("op {op} shrink sweep"));
            if shrunk {
                assert!(filter.capacity() < before, "shrink reported but no change");
                assert_eq!(filter.segments(), 1, "shrink must flatten the chain");
            }
        }
    }

    assert!(
        filter.capacity() > 256,
        "the stream must have forced growth beyond the base segment"
    );
    full_sweep(&filter, &oracle, "final");
    // f = 32: a false positive needs a 32-bit fingerprint match inside a
    // candidate bucket — a handful in 300k negative lookups would already
    // be suspicious.
    assert!(
        false_positives * 1000 < negative_lookups.max(1),
        "FPR too high at f=32: {false_positives}/{negative_lookups}"
    );
}

/// Drain the whole backlog through `migrate_step`, checking exact
/// occupancy and zero false negatives after **every** step.
#[test]
fn every_migration_step_preserves_membership_and_occupancy() {
    let config = CuckooConfig::new(1 << 6)
        .with_fingerprint_bits(32)
        .with_seed(42);
    let mut filter = ScalableVcf::new(config).unwrap();
    filter.set_migrate_budget(0); // all migration happens explicitly below
    let mut oracle = Oracle::default();
    for k in 0..3_000u64 {
        oracle.insert(k);
        filter.insert(&key(k)).unwrap();
    }
    assert!(filter.segments() > 1);

    let mut guard = 0;
    while filter.migration_backlog() > 0 {
        if filter.migrate_step(4) == 0 && filter.migration_backlog() > 0 {
            // Stalled on a saturated partition: grow to unblock, per the
            // ScalableVcf contract.
            filter.grow().unwrap();
        }
        assert_exact_occupancy(&filter, &oracle, "migrate_step");
        full_sweep(&filter, &oracle, "migrate_step");
        guard += 1;
        assert!(guard < 100_000, "migration never converged");
    }
    assert_eq!(filter.segments(), 1);
}

/// Sustained-insert growth sweep. The default variant covers 2^12 → 2^16
/// slots so it stays fast in debug; the `--ignored` variant runs the full
/// acceptance-criteria range 2^12 → 2^22 in release mode.
fn growth_sweep(target_slots: usize) {
    let config = CuckooConfig::new(1 << 10).with_seed(7); // 2^12 slots
    let mut filter = ScalableVcf::new(config).unwrap();
    assert_eq!(filter.capacity(), 1 << 12);
    let mut inserted = 0u64;
    while filter.capacity() < target_slots {
        filter
            .insert(&key(inserted))
            .unwrap_or_else(|e| panic!("insert {inserted} failed while growing: {e}"));
        assert!(
            filter.migration_stats().last_op_buckets <= 1,
            "insert {inserted} exceeded the one-bucket-range migration budget"
        );
        inserted += 1;
    }
    assert!(filter.capacity() >= target_slots);
    // Spot-check then fully sweep: zero false negatives throughout.
    for k in 0..inserted {
        assert!(filter.contains(&key(k)), "key {k} lost during growth");
    }
    assert_eq!(filter.len(), inserted as usize);
}

#[test]
fn grows_2_12_to_2_16_slots_with_bounded_op_work() {
    growth_sweep(1 << 16);
}

#[test]
#[ignore = "multi-minute growth sweep to 2^22 slots; run with --ignored --release"]
fn grows_2_12_to_2_22_slots_with_bounded_op_work() {
    growth_sweep(1 << 22);
}
