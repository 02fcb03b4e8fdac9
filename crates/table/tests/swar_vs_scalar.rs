//! Property tests pinning the SWAR bucket probes to the scalar slot loop
//! they replaced, through the two public slot tables.
//!
//! Both tables answer every probe with broadcast-compare word tricks; a
//! single wrong carry would surface as false negatives (lost items) or
//! phantom matches (false positives beyond the design rate) far above
//! the storage layer. Each property below drives a probe and its scalar
//! oracle — a plain `for slot in 0..b` loop over `get` — with random
//! geometry, marks and contents including the zero sentinel and
//! duplicate lanes, and demands exact agreement.
//!
//! The second section checks the lock-free table against the sequential
//! one, slot for slot: exhaustively over every `(b, f)` geometry, and
//! under random op sequences.

use proptest::prelude::*;
use vcf_table::{AtomicFingerprintTable, FingerprintTable};

/// A two-bucket table of `slots` lanes of `fingerprint_bits + mark_bits`
/// bits whose bucket 1 holds `lanes` (masked to the lane, list
/// truncated/padded to `slots`).
fn build_bucket(
    slots: usize,
    fingerprint_bits: u32,
    mark_bits: u32,
    lanes: &[u64],
) -> FingerprintTable {
    let mut table =
        FingerprintTable::with_mark_bits(2, slots, fingerprint_bits, mark_bits).unwrap();
    let mask = lane_mask(fingerprint_bits + mark_bits);
    for slot in 0..slots {
        table.set(1, slot, lanes.get(slot).copied().unwrap_or(0) & mask);
    }
    table
}

fn lane_mask(width: u32) -> u64 {
    (1u64 << width) - 1
}

/// The scalar oracle: first slot of bucket 1 whose lane passes `hit`.
fn scalar_find(table: &FingerprintTable, hit: impl Fn(u64) -> bool) -> Option<usize> {
    (0..table.slots_per_bucket()).find(|&slot| hit(table.get(1, slot)))
}

proptest! {
    /// `find` and `contains` agree with the scalar loop for random
    /// fingerprint and mark widths (lanes of 2..=63 bits), bucket sizes,
    /// contents and probes.
    #[test]
    fn find_and_contains_match_scalar(
        fingerprint_bits in 2u32..=32,
        mark_bits in 0u32..=31,
        slots in 1usize..=8,
        lanes in prop::collection::vec(any::<u64>(), 8),
        probe in any::<u64>(),
    ) {
        let table = build_bucket(slots, fingerprint_bits, mark_bits, &lanes);
        let probe = probe & lane_mask(fingerprint_bits + mark_bits);
        let expected = scalar_find(&table, |lane| lane == probe);
        prop_assert_eq!(table.find(1, probe), expected);
        prop_assert_eq!(table.contains(1, probe), expected.is_some());
        prop_assert!(!table.contains(0, probe) || probe == 0, "empty bucket matched");
    }

    /// Probing each resident lane (duplicates included) always finds the
    /// first copy.
    #[test]
    fn every_resident_is_found(
        fingerprint_bits in 2u32..=32,
        mark_bits in 0u32..=31,
        slots in 1usize..=8,
        lanes in prop::collection::vec(any::<u64>(), 8),
    ) {
        let table = build_bucket(slots, fingerprint_bits, mark_bits, &lanes);
        for slot in 0..slots {
            let resident = table.get(1, slot);
            prop_assert_eq!(table.find(1, resident), scalar_find(&table, |lane| lane == resident));
        }
    }

    /// The empty test looks at the fingerprint field alone: with mark
    /// bits set on empty slots and a small fingerprint domain (lots of
    /// zeros and collisions), `bucket_is_full` and the slot each
    /// `try_insert` takes agree with the scalar loop until the bucket is
    /// full.
    #[test]
    fn first_empty_matches_scalar(
        fingerprint_bits in 2u32..=32,
        mark_bits in 0u32..=31,
        slots in 1usize..=8,
        fingerprints in prop::collection::vec(0u64..3, 8),
        marks in prop::collection::vec(any::<u64>(), 8),
    ) {
        let marks = marks.iter().map(|&m| m << fingerprint_bits);
        let lanes: Vec<u64> = fingerprints.iter().zip(marks).map(|(&f, m)| f | m).collect();
        let mut table = build_bucket(slots, fingerprint_bits, mark_bits, &lanes);
        loop {
            let expected = scalar_find(&table, |lane| table.fingerprint(lane) == 0);
            prop_assert_eq!(table.bucket_is_full(1), expected.is_none());
            prop_assert_eq!(table.try_insert(1, 1), expected);
            if expected.is_none() {
                break;
            }
        }
    }

    /// `set` + `get` behave exactly like a `Vec<u64>` model: after a
    /// random write sequence, every lane and the occupancy agree.
    #[test]
    fn table_state_matches_vec_model(
        fingerprint_bits in 2u32..=32,
        mark_bits in 0u32..=8,
        slots in 1usize..=8,
        ops in prop::collection::vec((0usize..32, any::<u64>()), 1..60),
    ) {
        let mut table = FingerprintTable::with_mark_bits(4, slots, fingerprint_bits, mark_bits)
            .unwrap();
        let mut model = vec![0u64; 4 * slots];
        for (raw_slot, value) in ops {
            let (bucket, slot) = (raw_slot % 4, raw_slot / 4 % slots);
            let value = value & lane_mask(fingerprint_bits + mark_bits);
            table.set(bucket, slot, value);
            model[bucket * slots + slot] = value;
        }
        for bucket in 0..4 {
            for slot in 0..slots {
                prop_assert_eq!(table.get(bucket, slot), model[bucket * slots + slot]);
            }
        }
        let occupied = model.iter().filter(|&&lane| table.fingerprint(lane) != 0).count();
        prop_assert_eq!(table.occupied(), occupied);
    }

    /// FingerprintTable behaves like a Vec-of-buckets model under random
    /// insert/remove interleavings — lane state is checked through `get`,
    /// answers through `contains`/`find`.
    #[test]
    fn fingerprint_table_matches_model(
        fp_bits in 2u32..=32,
        ops in prop::collection::vec((0u8..2, 0usize..8, 1u64..64), 1..120),
    ) {
        let slots = 4usize;
        let mut table = FingerprintTable::new(8, slots, fp_bits).unwrap();
        let mut model: Vec<Vec<u64>> = vec![vec![0; slots]; 8];
        for (op, bucket, fp) in ops {
            let fp = (fp & lane_mask(fp_bits)).max(1);
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
                let fp = fp & lane_mask(fp_bits);
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
// Atomic table differential: the lock-free table must be slot-for-slot
// identical to the sequential one under any single-threaded op sequence.
// ---------------------------------------------------------------------

proptest! {
    /// `AtomicFingerprintTable` (CAS claim / CAS replace) and
    /// `FingerprintTable` (plain read-modify-write), driven by the same
    /// single-threaded insert/remove sequence, end in identical slot
    /// states with identical occupancy — both pick the first empty slot
    /// on insert and the first match on remove, so any divergence means
    /// a lane-shift or CAS-retry bug in the atomic path.
    #[test]
    fn atomic_table_matches_sequential_table(
        slots in 1usize..=8,
        fp_bits in 2u32..=32,
        ops in prop::collection::vec((0u8..2, 0usize..8, 1u64..0xffff_ffff), 1..150),
    ) {
        let buckets = 8usize;
        let atomic = AtomicFingerprintTable::new(buckets, slots, fp_bits).unwrap();
        let mut sequential = FingerprintTable::new(buckets, slots, fp_bits).unwrap();

        for &(op, bucket, fp) in &ops {
            let fp = ((fp & lane_mask(fp_bits)) as u32).max(1);
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

    /// The atomic table's probes (`contains`/`find` over relaxed-loaded
    /// words) agree with the sequential table's on identical contents,
    /// for every representable probe value.
    #[test]
    fn atomic_probes_match_sequential_probes(
        slots in 1usize..=8,
        fp_bits in 2u32..=16,
        lanes in prop::collection::vec(1u64..0xffff, 8),
    ) {
        let atomic = AtomicFingerprintTable::new(2, slots, fp_bits).unwrap();
        let mut sequential = FingerprintTable::new(2, slots, fp_bits).unwrap();
        for &lane in lanes.iter().take(slots) {
            let fp = ((lane & lane_mask(fp_bits)) as u32).max(1);
            // Fill bucket 1 of both tables identically.
            prop_assert_eq!(atomic.try_claim(1, fp), sequential.try_insert(1, u64::from(fp)));
        }
        for probe in 1u32..128 {
            let probe = (probe & lane_mask(fp_bits) as u32).max(1);
            prop_assert_eq!(atomic.contains(1, probe), sequential.contains(1, u64::from(probe)));
            prop_assert_eq!(atomic.find(1, probe), sequential.find(1, u64::from(probe)));
            prop_assert_eq!(atomic.contains(0, probe), false, "empty bucket matched");
        }
    }
}

/// 64-bit LCG for the exhaustive differential below (proptest would
/// sample the geometry; this covers all of it).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    /// A lane value: often zero (empty) or 1 (duplicates), else random.
    fn lane(&mut self, mask: u64) -> u64 {
        match self.next() % 4 {
            0 => 0,
            1 => 1,
            _ => self.next() & mask,
        }
    }
}

/// Every slot of every bucket, and the occupancy, agree.
fn assert_same_state(atomic: &AtomicFingerprintTable, sequential: &FingerprintTable, ctx: &str) {
    assert_eq!(atomic.occupied(), sequential.occupied(), "occupancy {ctx}");
    for bucket in 0..sequential.buckets() {
        for slot in 0..sequential.slots_per_bucket() {
            assert_eq!(
                u64::from(atomic.get(bucket, slot)),
                sequential.get(bucket, slot),
                "slot ({bucket}, {slot}) {ctx}"
            );
        }
    }
}

/// The atomic table against the sequential one on random contents (holes
/// and duplicates included) of the middle bucket of three, for every
/// `(b, f)` geometry: `contains`, `find`, `bucket_is_full`, `get`, the
/// slot `try_claim` takes and `replace_expect` all agree, and every slot
/// stays identical, neighbours included.
#[test]
fn atomic_table_matches_sequential_table_at_every_geometry() {
    let mut rng = Lcg(0x5eed);
    let mut geometries = 0;
    for slots in 1..=8usize {
        for fp_bits in 2..=32u32 {
            geometries += 1;
            let mask = lane_mask(fp_bits);
            assert_eq!(
                AtomicFingerprintTable::new(3, slots, fp_bits)
                    .unwrap()
                    .storage_bytes(),
                FingerprintTable::new(3, slots, fp_bits)
                    .unwrap()
                    .storage_bytes(),
                "b={slots} f={fp_bits}"
            );
            for _trial in 0..64 {
                let atomic = AtomicFingerprintTable::new(3, slots, fp_bits).unwrap();
                let mut sequential = FingerprintTable::new(3, slots, fp_bits).unwrap();
                let lanes: Vec<u64> = (0..3 * slots).map(|_| rng.lane(mask)).collect();
                // Claim every slot in order, then punch the holes.
                for (i, &lane) in lanes.iter().enumerate() {
                    let (bucket, slot) = (i / slots, i % slots);
                    assert_eq!(atomic.try_claim(bucket, lane.max(1) as u32), Some(slot));
                    sequential.set(bucket, slot, lane);
                }
                for (i, _) in lanes.iter().enumerate().filter(|&(_, &lane)| lane == 0) {
                    assert!(atomic.replace_expect(i / slots, i % slots, 1, 0));
                }
                let ctx = format!("b={slots} f={fp_bits} lanes={lanes:x?}");
                assert_same_state(&atomic, &sequential, &ctx);

                let resident = sequential.get(1, rng.next() as usize % slots);
                for probe in [0, 1, resident, rng.next() & mask, mask] {
                    let want = sequential.find(1, probe);
                    assert_eq!(atomic.find(1, probe as u32), want, "find {probe:#x} {ctx}");
                    assert_eq!(atomic.contains(1, probe as u32), want.is_some(), "{ctx}");
                }
                assert_eq!(
                    atomic.bucket_is_full(1),
                    sequential.bucket_is_full(1),
                    "{ctx}"
                );

                let value = (rng.next() & mask).max(1);
                assert_eq!(
                    atomic.try_claim(1, value as u32),
                    sequential.try_insert(1, value),
                    "claim {value:#x} {ctx}"
                );
                assert_same_state(&atomic, &sequential, &ctx);

                let slot = rng.next() as usize % slots;
                let held = sequential.get(1, slot);
                let expected = if rng.next().is_multiple_of(2) {
                    held
                } else {
                    rng.lane(mask)
                }
                .max(1);
                let new = rng.lane(mask);
                let swapped = held == expected;
                if swapped {
                    sequential.set(1, slot, new);
                }
                assert_eq!(
                    atomic.replace_expect(1, slot, expected as u32, new as u32),
                    swapped,
                    "replace slot {slot} {expected:#x} -> {new:#x} {ctx}"
                );
                assert_same_state(&atomic, &sequential, &ctx);
            }
        }
    }
    assert_eq!(geometries, 248);
}
