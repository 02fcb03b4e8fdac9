//! Property tests pinning the SWAR bucket kernels to the scalar slot loop
//! they replaced.
//!
//! The bucket engine answers every probe with broadcast-compare word
//! tricks; a single wrong carry would surface as false negatives (lost
//! items) or phantom matches (false positives beyond the design rate) far
//! above the storage layer. Each property below drives a kernel and its
//! scalar oracle — a plain `for slot in 0..b` loop over `lane()` — with
//! random geometry and random contents including the zero sentinel and
//! duplicate lanes, and demands exact agreement.
//!
//! The second section checks the lock-free atomic engine against the
//! sequential one, slot for slot.

use proptest::prelude::*;
use vcf_table::{BucketEngine, FingerprintTable};

/// Builds an engine plus one bucket's worth of words holding `lanes`
/// (truncated to the lane width, list truncated/padded to `slots`).
fn build_bucket(slots: usize, width: u32, lanes: &[u64]) -> (BucketEngine, Vec<u64>) {
    let engine = BucketEngine::new(slots, width).unwrap();
    let mut words = vec![0u64; engine.storage_words(1)];
    for slot in 0..slots {
        let value = lanes.get(slot).copied().unwrap_or(0) & engine.lane_mask();
        engine.set_slot(&mut words, 0, slot, value);
    }
    (engine, words)
}

/// The scalar oracle: first slot whose lane equals `pattern`.
fn scalar_find(engine: &BucketEngine, words: &[u64], pattern: u64) -> Option<usize> {
    let bucket = engine.read_bucket(words, 0);
    (0..engine.slots()).find(|&slot| engine.lane(&bucket, slot) == pattern)
}

proptest! {
    /// `find_in_bucket` and `contains_in_bucket` agree with the scalar
    /// loop for random widths, bucket sizes, contents and probes.
    #[test]
    fn find_and_contains_match_scalar(
        width in 1u32..=32,
        slots in 1usize..=8,
        lanes in prop::collection::vec(any::<u64>(), 8),
        probe in any::<u64>(),
    ) {
        let (engine, words) = build_bucket(slots, width, &lanes);
        let bucket = engine.read_bucket(&words, 0);
        let probe = probe & engine.lane_mask();
        let expected = scalar_find(&engine, &words, probe);
        prop_assert_eq!(engine.find_in_bucket(&bucket, probe), expected);
        prop_assert_eq!(engine.contains_in_bucket(&bucket, probe), expected.is_some());
    }

    /// Probing each resident lane (duplicates included) always finds the
    /// first copy, and a probe for a value forced absent never matches.
    #[test]
    fn every_resident_is_found(
        width in 1u32..=32,
        slots in 1usize..=8,
        lanes in prop::collection::vec(any::<u64>(), 8),
    ) {
        let (engine, words) = build_bucket(slots, width, &lanes);
        let bucket = engine.read_bucket(&words, 0);
        for slot in 0..slots {
            let resident = engine.lane(&bucket, slot);
            let first = (0..slots).find(|&s| engine.lane(&bucket, s) == resident);
            prop_assert_eq!(engine.find_in_bucket(&bucket, resident), first);
        }
    }

    /// Zero-sentinel duplicates: `first_empty_slot` agrees with the
    /// scalar loop when lanes are forced to be mostly zero/dup.
    #[test]
    fn first_empty_matches_scalar(
        width in 1u32..=32,
        slots in 1usize..=8,
        // Small value domain: lots of zeros and collisions.
        lanes in prop::collection::vec(0u64..3, 8),
    ) {
        let (engine, words) = build_bucket(slots, width, &lanes);
        let bucket = engine.read_bucket(&words, 0);
        prop_assert_eq!(engine.first_empty_slot(&bucket), scalar_find(&engine, &words, 0));
    }

    /// The masked-field kernel (k-VCF's empty test) agrees with a scalar
    /// masked compare for arbitrary field masks.
    #[test]
    fn find_field_matches_scalar(
        width in 2u32..=32,
        slots in 1usize..=8,
        lanes in prop::collection::vec(any::<u64>(), 8),
        pattern in any::<u64>(),
        field in any::<u64>(),
    ) {
        let (engine, words) = build_bucket(slots, width, &lanes);
        let field = {
            let f = field & engine.lane_mask();
            if f == 0 { 1 } else { f }
        };
        let pattern = pattern & field;
        let bucket = engine.read_bucket(&words, 0);
        let expected = (0..slots)
            .find(|&slot| engine.lane(&bucket, slot) & field == pattern);
        prop_assert_eq!(engine.find_field(&bucket, pattern, field), expected);
    }

    /// `set_slot` + kernels behave exactly like a `Vec<u64>` model: after
    /// a random write sequence, every probe agrees lane-for-lane.
    #[test]
    fn table_state_matches_vec_model(
        width in 2u32..=32,
        slots in 1usize..=8,
        ops in prop::collection::vec((0usize..8, 0u64..16), 1..60),
    ) {
        let engine = BucketEngine::new(slots, width).unwrap();
        let mut words = vec![0u64; engine.storage_words(4)];
        let mut model = vec![0u64; 4 * slots];
        for (raw_slot, value) in ops {
            let bucket = raw_slot % 4;
            let slot = raw_slot % slots;
            let value = value & engine.lane_mask();
            engine.set_slot(&mut words, bucket, slot, value);
            model[bucket * slots + slot] = value;
        }
        for bucket in 0..4 {
            let loaded = engine.read_bucket(&words, bucket);
            for slot in 0..slots {
                prop_assert_eq!(engine.lane(&loaded, slot), model[bucket * slots + slot]);
            }
        }
    }

    /// FingerprintTable (SWAR-probed) behaves like a Vec-of-buckets model
    /// under random insert/remove interleavings — byte-level state is
    /// checked through `get`, answers through `contains`/`find`.
    #[test]
    fn fingerprint_table_matches_model(
        fp_bits in 2u32..=32,
        ops in prop::collection::vec((0u8..2, 0usize..8, 1u64..64), 1..120),
    ) {
        let slots = 4usize;
        let mut table = FingerprintTable::new(8, slots, fp_bits).unwrap();
        let mut model: Vec<Vec<u64>> = vec![vec![0; slots]; 8];
        for (op, bucket, fp) in ops {
            let fp = (fp & ((1u64 << fp_bits) - 1)).max(1);
            match op {
                0 => {
                    let slot = table.try_insert(bucket, fp);
                    let model_slot = model[bucket].iter().position(|&v| v == 0);
                    prop_assert_eq!(slot, model_slot, "insert diverged");
                    if let Some(s) = model_slot {
                        model[bucket][s] = fp;
                    }
                }
                _ => {
                    let removed = table.remove_one(bucket, fp);
                    let model_slot = model[bucket].iter().position(|&v| v == fp);
                    prop_assert_eq!(removed, model_slot.is_some(), "remove diverged");
                    if let Some(s) = model_slot {
                        model[bucket][s] = 0;
                    }
                }
            }
        }
        for (bucket, model_bucket) in model.iter().enumerate() {
            for (slot, &model_fp) in model_bucket.iter().enumerate() {
                prop_assert_eq!(table.get(bucket, slot), model_fp);
            }
            for fp in 1u64..64 {
                let fp = fp & ((1u64 << fp_bits) - 1);
                if fp == 0 {
                    continue;
                }
                prop_assert_eq!(
                    table.contains(bucket, fp),
                    model_bucket.contains(&fp),
                    "contains diverged for fp {} in bucket {}",
                    fp,
                    bucket
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Atomic engine differential: the lock-free table must be slot-for-slot
// identical to the sequential one under any single-threaded op sequence.
// ---------------------------------------------------------------------

proptest! {
    /// `AtomicFingerprintTable` (CAS claim / CAS replace) and
    /// `FingerprintTable` (plain read-modify-write), driven by the same
    /// single-threaded insert/remove sequence, end in bit-identical slot
    /// states with identical occupancy — both pick the first empty slot
    /// on insert and the first match on remove, so any divergence means
    /// a lane-shift or CAS-retry bug in the atomic path. Geometries whose
    /// lanes straddle a word boundary are rejected by the atomic
    /// constructor and skipped.
    #[test]
    fn atomic_table_matches_sequential_table(
        slots in 1usize..=8,
        fp_bits in 2u32..=32,
        ops in prop::collection::vec((0u8..2, 0usize..8, 1u64..0xffff_ffff), 1..150),
    ) {
        use vcf_table::AtomicFingerprintTable;

        let buckets = 8usize;
        let Ok(atomic) = AtomicFingerprintTable::new(buckets, slots, fp_bits) else {
            // Straddling lane layout: not constructible atomically.
            return Ok(());
        };
        let mut sequential = FingerprintTable::new(buckets, slots, fp_bits).unwrap();

        for &(op, bucket, fp) in &ops {
            let fp = ((fp & ((1u64 << fp_bits) - 1)) as u32).max(1);
            match op {
                0 => {
                    let claimed = atomic.try_claim(bucket, fp);
                    let inserted = sequential.try_insert(bucket, u64::from(fp));
                    prop_assert_eq!(claimed, inserted, "insert slot choice diverged");
                }
                _ => {
                    let atomic_removed = atomic
                        .find(bucket, fp)
                        .is_some_and(|slot| atomic.replace_expect(bucket, slot, fp, 0));
                    let sequential_removed = sequential.remove_one(bucket, u64::from(fp));
                    prop_assert_eq!(atomic_removed, sequential_removed, "remove diverged");
                }
            }
        }

        prop_assert_eq!(atomic.occupied(), sequential.occupied(), "occupancy diverged");
        for bucket in 0..buckets {
            for slot in 0..slots {
                prop_assert_eq!(
                    u64::from(atomic.get(bucket, slot)),
                    sequential.get(bucket, slot),
                    "slot ({}, {}) diverged", bucket, slot
                );
            }
            prop_assert_eq!(
                atomic.bucket_is_full(bucket),
                sequential.bucket_is_full(bucket)
            );
        }
    }

    /// The atomic engine's SWAR probe (`contains`/`find` over
    /// relaxed-loaded words) agrees with the sequential engine's on
    /// identical contents, for every representable probe value.
    #[test]
    fn atomic_probes_match_sequential_probes(
        slots in 1usize..=8,
        fp_bits in 2u32..=16,
        lanes in prop::collection::vec(1u64..0xffff, 8),
    ) {
        use vcf_table::AtomicFingerprintTable;

        let Ok(atomic) = AtomicFingerprintTable::new(2, slots, fp_bits) else {
            return Ok(());
        };
        let mut sequential = FingerprintTable::new(2, slots, fp_bits).unwrap();
        for &lane in lanes.iter().take(slots) {
            let fp = ((lane & ((1u64 << fp_bits) - 1)) as u32).max(1);
            // Fill bucket 1 of both tables identically.
            assert_eq!(atomic.try_claim(1, fp), sequential.try_insert(1, u64::from(fp)));
        }
        for probe in 1u32..128 {
            let probe = (probe & (((1u64 << fp_bits) - 1) as u32)).max(1);
            prop_assert_eq!(atomic.contains(1, probe), sequential.contains(1, u64::from(probe)));
            prop_assert_eq!(atomic.find(1, probe), sequential.find(1, u64::from(probe)));
            prop_assert_eq!(atomic.contains(0, probe), false, "empty bucket matched");
        }
    }
}
