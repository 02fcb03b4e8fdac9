//! One slot interface over both sequential table layouts.

use crate::{FingerprintTable, MarkedEntry, MarkedTable};
use core::fmt::Debug;

/// The slot operations a sequential cuckoo engine performs, over either
/// table layout. [`Entry`](Self::Entry) is what one slot stores — a bare
/// fingerprint in [`FingerprintTable`], a fingerprint plus its candidate
/// mark in [`MarkedTable`] — so the engine never sees how lanes are
/// packed.
///
/// # Examples
///
/// ```
/// use vcf_table::{FingerprintTable, SlotTable};
///
/// fn place<T: SlotTable>(t: &mut T, bucket: usize, entry: T::Entry) -> bool {
///     t.try_insert(bucket, entry).is_some() && t.contains(bucket, entry)
/// }
/// let mut t = FingerprintTable::new(8, 4, 12)?;
/// assert!(place(&mut t, 3, 0x5a5));
/// # Ok::<(), vcf_traits::BuildError>(())
/// ```
pub trait SlotTable: Clone + Debug {
    /// One occupied slot's contents.
    type Entry: Copy + PartialEq + Debug;

    /// The fingerprint field of `entry`.
    fn fingerprint(entry: Self::Entry) -> u32;
    /// Number of buckets.
    fn buckets(&self) -> usize;
    /// Slots per bucket.
    fn slots_per_bucket(&self) -> usize;
    /// Fingerprint width in bits.
    fn fingerprint_bits(&self) -> u32;
    /// Total slot capacity.
    fn capacity(&self) -> usize;
    /// Number of occupied slots.
    fn occupied(&self) -> usize;
    /// Heap size of the packed storage in bytes.
    fn storage_bytes(&self) -> usize;
    /// Stores `entry` in the first empty slot of `bucket`; `None` when
    /// the bucket is full.
    fn try_insert(&mut self, bucket: usize, entry: Self::Entry) -> Option<usize>;
    /// Writes `entry` into `(bucket, slot)` and returns the previous
    /// resident (`None` if the slot was empty).
    fn swap(&mut self, bucket: usize, slot: usize, entry: Self::Entry) -> Option<Self::Entry>;
    /// Whether `bucket` stores `entry`.
    fn contains(&self, bucket: usize, entry: Self::Entry) -> bool;
    /// Removes one copy of `entry` from `bucket`.
    fn remove_one(&mut self, bucket: usize, entry: Self::Entry) -> bool;
    /// Software prefetch of `bucket`'s words (no load).
    fn prefetch_bucket(&self, bucket: usize);
}

/// Forwards the layout-independent methods to the inherent ones.
macro_rules! forward_geometry {
    ($table:ty) => {
        fn buckets(&self) -> usize {
            <$table>::buckets(self)
        }
        fn slots_per_bucket(&self) -> usize {
            <$table>::slots_per_bucket(self)
        }
        fn fingerprint_bits(&self) -> u32 {
            <$table>::fingerprint_bits(self)
        }
        fn capacity(&self) -> usize {
            <$table>::capacity(self)
        }
        fn occupied(&self) -> usize {
            <$table>::occupied(self)
        }
        fn storage_bytes(&self) -> usize {
            <$table>::storage_bytes(self)
        }
        fn try_insert(&mut self, bucket: usize, entry: Self::Entry) -> Option<usize> {
            <$table>::try_insert(self, bucket, entry)
        }
        fn contains(&self, bucket: usize, entry: Self::Entry) -> bool {
            <$table>::contains(self, bucket, entry)
        }
        fn remove_one(&mut self, bucket: usize, entry: Self::Entry) -> bool {
            <$table>::remove_one(self, bucket, entry)
        }
        fn prefetch_bucket(&self, bucket: usize) {
            <$table>::prefetch_bucket(self, bucket);
        }
    };
}

impl SlotTable for FingerprintTable {
    type Entry = u32;

    fn fingerprint(entry: u32) -> u32 {
        entry
    }

    fn swap(&mut self, bucket: usize, slot: usize, entry: u32) -> Option<u32> {
        let old = FingerprintTable::swap(self, bucket, slot, entry);
        (old != 0).then_some(old)
    }

    forward_geometry!(FingerprintTable);
}

impl SlotTable for MarkedTable {
    type Entry = MarkedEntry;

    fn fingerprint(entry: MarkedEntry) -> u32 {
        entry.fingerprint
    }

    fn swap(&mut self, bucket: usize, slot: usize, entry: MarkedEntry) -> Option<MarkedEntry> {
        MarkedTable::swap(self, bucket, slot, entry)
    }

    forward_geometry!(MarkedTable);
}
