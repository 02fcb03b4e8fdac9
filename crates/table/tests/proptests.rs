//! Property-based tests for the bit-packed table substrate.
//!
//! The packed table is the foundation every filter stands on; a single
//! off-by-one in the bit arithmetic would corrupt neighbouring slots and
//! surface as impossible-to-debug false negatives far above. These tests
//! model the table against plain `Vec`-backed references under random
//! operation sequences.

use proptest::prelude::*;
use vcf_table::{FingerprintTable, PackedTable};

/// A 16-bit-fingerprint lane with `mark` in its mark field.
fn lane(fingerprint: u32, mark: u8) -> u64 {
    u64::from(mark) << 16 | u64::from(fingerprint)
}

proptest! {
    /// PackedTable must behave exactly like a Vec<u64> of masked values.
    #[test]
    fn packed_matches_vec_model(
        width in 1u32..=63,
        ops in prop::collection::vec((0usize..200, any::<u64>()), 1..200),
    ) {
        let count = 200;
        let mask = (1u64 << width) - 1;
        let mut table = PackedTable::new(count, width).unwrap();
        let mut model = vec![0u64; count];
        for (index, value) in ops {
            let value = value & mask;
            table.set(index, value);
            model[index] = value;
            prop_assert_eq!(table.get(index), value);
        }
        for (i, &expected) in model.iter().enumerate() {
            prop_assert_eq!(table.get(i), expected, "slot {} diverged", i);
        }
    }

    /// Writing one slot never disturbs any other slot, across widths that
    /// straddle word boundaries.
    #[test]
    fn packed_writes_are_isolated(
        width in 1u32..=63,
        target in 0usize..100,
        value in any::<u64>(),
    ) {
        let mask = (1u64 << width) - 1;
        let mut table = PackedTable::new(100, width).unwrap();
        // Paint a recognizable background.
        for i in 0..100 {
            table.set(i, (i as u64 * 0x5555_5555_5555) & mask);
        }
        table.set(target, value & mask);
        for i in 0..100 {
            let expected = if i == target { value & mask } else { (i as u64 * 0x5555_5555_5555) & mask };
            prop_assert_eq!(table.get(i), expected, "slot {} disturbed", i);
        }
    }

    /// FingerprintTable occupancy always equals the number of non-zero
    /// slots, under arbitrary interleavings of insert/remove/set/swap.
    #[test]
    fn fingerprint_occupancy_invariant(
        ops in prop::collection::vec((0u8..4, 0usize..16, 1u32..1 << 12), 1..300),
    ) {
        let mut t = FingerprintTable::new(16, 4, 12).unwrap();
        for (op, bucket, fp) in ops {
            let fp = u64::from(fp);
            match op {
                0 => { let _ = t.try_insert(bucket, fp); }
                1 => { let _ = t.remove_one(bucket, fp); }
                2 => { t.set(bucket, fp as usize % 4, fp); }
                _ => { let _ = t.swap(bucket, fp as usize % 4, fp); }
            }
            let counted = t.iter().count();
            prop_assert_eq!(t.occupied(), counted, "occupancy counter diverged");
        }
    }

    /// Everything inserted into a FingerprintTable (and not removed) is
    /// findable: the no-false-negative property at the storage layer.
    #[test]
    fn fingerprint_inserted_items_found(
        items in prop::collection::vec((0usize..32, 1u32..1 << 10), 1..120),
    ) {
        let mut t = FingerprintTable::new(32, 4, 10).unwrap();
        let mut stored: Vec<(usize, u64)> = Vec::new();
        for (bucket, fp) in items {
            let fp = u64::from(fp);
            if t.try_insert(bucket, fp).is_some() {
                stored.push((bucket, fp));
            }
        }
        for (bucket, fp) in stored {
            prop_assert!(t.contains(bucket, fp), "lost fingerprint {fp:#x} in bucket {bucket}");
        }
    }

    /// Removing an item removes exactly one copy.
    #[test]
    fn fingerprint_remove_is_single_copy(
        bucket in 0usize..8,
        fp in 1u32..1 << 12,
        copies in 1usize..4,
    ) {
        let mut t = FingerprintTable::new(8, 4, 12).unwrap();
        let fp = u64::from(fp);
        for _ in 0..copies {
            t.try_insert(bucket, fp).unwrap();
        }
        for remaining in (0..copies).rev() {
            prop_assert!(t.remove_one(bucket, fp));
            let count = (0..4).filter(|&s| t.get(bucket, s) == fp).count();
            prop_assert_eq!(count, remaining);
        }
        prop_assert!(!t.remove_one(bucket, fp));
    }

    /// A marked table (k = 8: three mark bits) roundtrips arbitrary
    /// (fingerprint, mark) lanes and matches exactly.
    #[test]
    fn marked_roundtrip(
        entries in prop::collection::vec((0usize..16, 1u32..1 << 16, 0u8..8), 1..60),
    ) {
        let mut t = FingerprintTable::with_mark_bits(16, 4, 16, 3).unwrap();
        let mut stored = Vec::new();
        for (bucket, fingerprint, mark) in entries {
            let entry = lane(fingerprint, mark);
            if t.try_insert(bucket, entry).is_some() {
                stored.push((bucket, entry));
            }
        }
        for (bucket, entry) in &stored {
            prop_assert!(t.contains(*bucket, *entry));
        }
        // Remove everything; table must end empty.
        for (bucket, entry) in stored {
            prop_assert!(t.remove_one(bucket, entry));
        }
        prop_assert_eq!(t.occupied(), 0);
    }

    /// Swap in a marked table (k = 4: two mark bits) conserves the
    /// multiset of entries plus the incoming one.
    #[test]
    fn marked_swap_conserves_entries(
        seed_entries in prop::collection::vec((1u32..100, 0u8..4), 1..=4),
        incoming_fp in 100u32..200,
    ) {
        let mut t = FingerprintTable::with_mark_bits(4, 4, 16, 2).unwrap();
        for (fp, mark) in &seed_entries {
            t.try_insert(0, lane(*fp, *mark)).unwrap();
        }
        let before = t.occupied();
        let incoming = lane(incoming_fp, 1);
        let victim = t.swap(0, 0, incoming);
        prop_assert!(victim.is_some(), "seeded slot 0 must have been occupied");
        prop_assert_eq!(t.occupied(), before);
        prop_assert!(t.contains(0, incoming));
    }
}
