//! Bucketed storage of fingerprint lanes, with an optional mark field.
//!
//! Section III-C: k-VCF "must add the mark bits to label the bitmasks
//! […] Consequently, each slot must have two fields, the fingerprint
//! field and the counter field." Every other variant stores the
//! fingerprint alone. Both are one table here: the mark field is a width
//! fixed at construction, `0` for the unmarked variants.

use crate::bucket::BucketEngine;
use crate::{MAX_BUCKET_SLOTS, MAX_FINGERPRINT_BITS, MIN_FINGERPRINT_BITS};
use vcf_traits::BuildError;

/// The table geometry checks [`FingerprintTable`] and
/// [`AtomicFingerprintTable`](crate::AtomicFingerprintTable) share: a
/// positive bucket count, `1..=8` slots and a fingerprint width in range.
pub(crate) fn check_geometry(
    buckets: usize,
    slots_per_bucket: usize,
    fingerprint_bits: u32,
) -> Result<(), BuildError> {
    if buckets == 0 {
        return Err(BuildError::InvalidBucketCount {
            got: 0,
            requirement: "positive",
        });
    }
    if slots_per_bucket == 0 || slots_per_bucket > MAX_BUCKET_SLOTS {
        return Err(BuildError::InvalidBucketSize {
            got: slots_per_bucket,
        });
    }
    if !(MIN_FINGERPRINT_BITS..=MAX_FINGERPRINT_BITS).contains(&fingerprint_bits) {
        return Err(BuildError::InvalidFingerprintBits {
            got: fingerprint_bits,
            min: MIN_FINGERPRINT_BITS,
            max: MAX_FINGERPRINT_BITS,
        });
    }
    Ok(())
}

/// A table of `buckets × slots_per_bucket` slots, the storage layout of
/// every sequential cuckoo filter in this workspace.
///
/// Each slot holds one *lane* `mark << f | fingerprint`: an `f`-bit
/// fingerprint field plus a mark field of [`mark_bits`](Self::mark_bits)
/// bits (none for an unmarked table, where the lane is the bare
/// fingerprint). Lanes are passed as `u64`, since `f = 32` plus a mark
/// is wider than 32 bits. A slot is empty exactly when its fingerprint
/// field is zero, whatever its mark bits say, which is why the filter
/// layer remaps a zero fingerprint to `1` before storing (see
/// `vcf_core`).
///
/// Buckets use the layout and per-word SWAR probes it shares with
/// [`AtomicFingerprintTable`](crate::AtomicFingerprintTable): every
/// bucket-wide operation (`find`, `contains`, `try_insert`,
/// `bucket_is_full`, `remove_one`) tests all lanes of a word with a
/// handful of branch-free word operations. A lookup is a full-lane
/// compare, so a marked entry matches only with its mark; the empty test
/// compares the fingerprint field alone.
///
/// # Examples
///
/// ```
/// use vcf_table::FingerprintTable;
///
/// let mut t = FingerprintTable::new(16, 4, 8)?;
/// let slot = t.try_insert(5, 0xab).expect("bucket 5 has room");
/// assert_eq!(t.get(5, slot), 0xab);
/// assert_eq!(t.occupied(), 1);
///
/// // A 3-bit mark beside a 16-bit fingerprint.
/// let mut marked = FingerprintTable::with_mark_bits(8, 4, 16, 3)?;
/// let lane = 5 << 16 | 0xbeef;
/// marked.try_insert(2, lane).expect("room");
/// assert!(marked.contains(2, lane));
/// assert!(!marked.contains(2, 4 << 16 | 0xbeef));
/// assert_eq!(marked.fingerprint(lane), 0xbeef);
/// # Ok::<(), vcf_traits::BuildError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FingerprintTable {
    words: Vec<u64>,
    engine: BucketEngine,
    buckets: usize,
    fingerprint_bits: u32,
    occupied: usize,
}

impl FingerprintTable {
    /// Creates an empty table without a mark field.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when `buckets` is zero, `slots_per_bucket`
    /// is outside `1..=8`, or `fingerprint_bits` is outside `2..=32`.
    pub fn new(
        buckets: usize,
        slots_per_bucket: usize,
        fingerprint_bits: u32,
    ) -> Result<Self, BuildError> {
        Self::with_mark_bits(buckets, slots_per_bucket, fingerprint_bits, 0)
    }

    /// Creates an empty table whose lanes carry a `mark_bits`-bit mark
    /// above the fingerprint field.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new), plus a lane wider than
    /// [`MAX_LANE_BITS`](crate::MAX_LANE_BITS).
    pub fn with_mark_bits(
        buckets: usize,
        slots_per_bucket: usize,
        fingerprint_bits: u32,
        mark_bits: u32,
    ) -> Result<Self, BuildError> {
        check_geometry(buckets, slots_per_bucket, fingerprint_bits)?;
        let engine = BucketEngine::new(
            slots_per_bucket,
            fingerprint_bits.saturating_add(mark_bits),
            (1u64 << fingerprint_bits) - 1,
        )?;
        Ok(Self {
            words: vec![0u64; engine.storage_words(buckets)],
            engine,
            buckets,
            fingerprint_bits,
            occupied: 0,
        })
    }

    /// Number of buckets (`m`).
    #[inline]
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Slots per bucket (`b`).
    #[inline]
    pub fn slots_per_bucket(&self) -> usize {
        self.engine.slots()
    }

    /// Fingerprint width in bits (`f`).
    #[inline]
    pub fn fingerprint_bits(&self) -> u32 {
        self.fingerprint_bits
    }

    /// Mark field width in bits (the paper's "extra three bits […] when
    /// k = 7" is `mark_bits = 3`); `0` for an unmarked table.
    #[inline]
    pub fn mark_bits(&self) -> u32 {
        self.engine.width() - self.fingerprint_bits
    }

    /// Total slot capacity (`m · b`).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.buckets * self.engine.slots()
    }

    /// Number of occupied slots.
    #[inline]
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Current load factor `α = occupied / capacity`.
    pub fn load_factor(&self) -> f64 {
        self.occupied as f64 / self.capacity() as f64
    }

    /// Heap size of the packed storage in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// The fingerprint field of `lane`; `0` means an empty slot.
    #[inline]
    pub fn fingerprint(&self, lane: u64) -> u32 {
        (lane & ((1u64 << self.fingerprint_bits) - 1)) as u32
    }

    /// Issues a software prefetch for `bucket`'s storage words — the
    /// batch pipelines' warm-up hook. It performs no load, so it cannot
    /// stall even when the line is cold.
    #[inline]
    pub fn prefetch_bucket(&self, bucket: usize) {
        debug_assert!(bucket < self.buckets, "bucket {bucket} out of range");
        self.engine.prefetch_bucket(&self.words, bucket);
    }

    /// Reads the lane in `(bucket, slot)`; a zero
    /// [`fingerprint`](Self::fingerprint) field means empty.
    #[inline]
    pub fn get(&self, bucket: usize, slot: usize) -> u64 {
        debug_assert!(bucket < self.buckets, "bucket {bucket} out of range");
        self.engine.get(&self.words, bucket, slot)
    }

    /// Overwrites `(bucket, slot)` with `lane` (a zero fingerprint field
    /// clears it), maintaining the occupancy count.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the lane does not fit or the position is out
    /// of range; release builds truncate. Callers mask fingerprints to
    /// `f` bits and snapshot decoders reject wider words, so an oversized
    /// value is an internal bug, not input.
    pub fn set(&mut self, bucket: usize, slot: usize, lane: u64) {
        self.debug_assert_fits(lane);
        let old = self.engine.get(&self.words, bucket, slot);
        self.engine.set(&mut self.words, bucket, slot, lane);
        match (self.fingerprint(old) == 0, self.fingerprint(lane) == 0) {
            (true, false) => self.occupied += 1,
            (false, true) => self.occupied -= 1,
            _ => {}
        }
    }

    /// Inserts `lane` into the first empty slot of `bucket`. Returns the
    /// slot used, or `None` when the bucket is full.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the fingerprint field is zero (the empty
    /// sentinel) or the lane does not fit; fingerprint derivation remaps
    /// 0 and the policies bound marks before they reach the table.
    pub fn try_insert(&mut self, bucket: usize, lane: u64) -> Option<usize> {
        self.debug_assert_occupied(lane);
        let slot = self.engine.first_empty(&self.words, bucket)?;
        self.engine.set(&mut self.words, bucket, slot, lane);
        self.occupied += 1;
        Some(slot)
    }

    /// Returns the slot holding `lane` in `bucket`, if any.
    #[inline]
    pub fn find(&self, bucket: usize, lane: u64) -> Option<usize> {
        self.engine.find(&self.words, bucket, lane)
    }

    /// Whether `bucket` holds at least one copy of `lane`.
    #[inline]
    pub fn contains(&self, bucket: usize, lane: u64) -> bool {
        self.find(bucket, lane).is_some()
    }

    /// Whether any bucket of `buckets` holds `lane` — the batched
    /// candidate probe, stopping at the first bucket that matches.
    pub fn contains_any(&self, buckets: &[usize], lane: u64) -> bool {
        buckets.iter().any(|&b| self.contains(b, lane))
    }

    /// Removes one copy of `lane` from `bucket`; returns whether a copy
    /// was found.
    pub fn remove_one(&mut self, bucket: usize, lane: u64) -> bool {
        if self.fingerprint(lane) == 0 {
            return false;
        }
        match self.find(bucket, lane) {
            Some(slot) => {
                self.engine.set(&mut self.words, bucket, slot, 0);
                self.occupied -= 1;
                true
            }
            None => false,
        }
    }

    /// Whether `bucket` has no empty slot.
    pub fn bucket_is_full(&self, bucket: usize) -> bool {
        self.engine.first_empty(&self.words, bucket).is_none()
    }

    /// Swaps `lane` with the resident of `(bucket, slot)` and returns the
    /// previous resident (`None` if the slot was empty). Used by the
    /// eviction ("kick") walk, which reads a marked victim's mark to
    /// relocate it.
    ///
    /// # Panics
    ///
    /// As [`try_insert`](Self::try_insert).
    pub fn swap(&mut self, bucket: usize, slot: usize, lane: u64) -> Option<u64> {
        self.debug_assert_occupied(lane);
        let old = self.engine.get(&self.words, bucket, slot);
        self.engine.set(&mut self.words, bucket, slot, lane);
        if self.fingerprint(old) == 0 {
            self.occupied += 1;
            return None;
        }
        Some(old)
    }

    /// Iterates `(bucket, slot, lane)` over occupied slots.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        (0..self.buckets).flat_map(move |bucket| {
            (0..self.engine.slots()).filter_map(move |slot| {
                let lane = self.get(bucket, slot);
                (self.fingerprint(lane) != 0).then_some((bucket, slot, lane))
            })
        })
    }

    #[inline]
    fn debug_assert_fits(&self, lane: u64) {
        debug_assert!(
            lane <= self.engine.lane_mask(),
            "lane {lane:#x} does not fit in {} bits",
            self.engine.width()
        );
    }

    #[inline]
    fn debug_assert_occupied(&self, lane: u64) {
        debug_assert!(
            self.fingerprint(lane) != 0,
            "fingerprint 0 is the empty sentinel"
        );
        self.debug_assert_fits(lane);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> FingerprintTable {
        FingerprintTable::new(8, 4, 12).unwrap()
    }

    /// 16-bit fingerprints with a 3-bit mark (k = 7).
    fn marked() -> FingerprintTable {
        FingerprintTable::with_mark_bits(8, 4, 16, 3).unwrap()
    }

    fn lane(fingerprint: u32, mark: u64) -> u64 {
        mark << 16 | u64::from(fingerprint)
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(FingerprintTable::new(0, 4, 12).is_err());
        assert!(FingerprintTable::new(8, 0, 12).is_err());
        assert!(FingerprintTable::new(8, 9, 12).is_err());
        assert!(FingerprintTable::new(8, 4, 1).is_err());
        assert!(FingerprintTable::new(8, 4, 33).is_err());
        assert!(FingerprintTable::with_mark_bits(8, 4, 32, 32).is_err());
    }

    #[test]
    fn unmarked_table_builds_the_plain_engine() {
        let t = table();
        assert_eq!(t.mark_bits(), 0);
        assert_eq!(t.engine, BucketEngine::new(4, 12, 0xfff).unwrap());
    }

    #[test]
    fn widest_lane_holds_f32_and_an_8_bit_mark() {
        let mut t = FingerprintTable::with_mark_bits(4, 4, 32, 8).unwrap();
        let wide = lane(u32::MAX, 0) | 0xff << 32;
        t.try_insert(1, wide).unwrap();
        assert_eq!(t.get(1, 0), wide);
        assert!(!t.contains(1, u64::from(u32::MAX) | 0xfe << 32));
        assert!(t.remove_one(1, wide));
    }

    #[test]
    fn insert_fills_slots_in_order() {
        let mut t = table();
        assert_eq!(t.try_insert(2, 10), Some(0));
        assert_eq!(t.try_insert(2, 11), Some(1));
        assert_eq!(t.try_insert(2, 12), Some(2));
        assert_eq!(t.try_insert(2, 13), Some(3));
        assert_eq!(t.try_insert(2, 14), None);
        assert!(t.bucket_is_full(2));
        assert_eq!(t.occupied(), 4);
    }

    #[test]
    fn duplicate_fingerprints_coexist() {
        let mut t = table();
        t.try_insert(1, 7).unwrap();
        t.try_insert(1, 7).unwrap();
        assert!(t.remove_one(1, 7));
        assert!(t.contains(1, 7), "second copy must survive");
        assert!(t.remove_one(1, 7));
        assert!(!t.contains(1, 7));
    }

    #[test]
    fn remove_missing_returns_false() {
        let mut t = table();
        assert!(!t.remove_one(0, 9));
        t.try_insert(0, 9).unwrap();
        assert!(!t.remove_one(1, 9), "wrong bucket");
        assert!(!t.remove_one(0, 8), "wrong fingerprint");
        assert_eq!(t.occupied(), 1);
    }

    #[test]
    fn remove_zero_is_never_found() {
        let mut t = table();
        assert!(!t.remove_one(0, 0));
        assert!(!marked().remove_one(0, lane(0, 2)));
    }

    #[test]
    fn swap_returns_victim() {
        let mut t = table();
        t.try_insert(3, 100).unwrap();
        assert_eq!(t.swap(3, 0, 200), Some(100));
        assert_eq!(t.get(3, 0), 200);
        assert_eq!(t.occupied(), 1, "swap must not change occupancy");
    }

    #[test]
    fn swap_into_empty_slot_increases_occupancy() {
        let mut t = table();
        assert_eq!(t.swap(3, 1, 50), None);
        assert_eq!(t.occupied(), 1);
    }

    #[test]
    fn marked_swap_preserves_occupancy_and_returns_victim() {
        let mut t = marked();
        let (a, b) = (lane(1, 1), lane(2, 4));
        t.try_insert(5, a).unwrap();
        assert_eq!(t.swap(5, 0, b), Some(a));
        assert_eq!(t.occupied(), 1);
        assert_eq!(t.swap(5, 1, a), None);
        assert_eq!(t.occupied(), 2);
    }

    #[test]
    // The check is a `debug_assert!`: release builds skip it.
    #[cfg(debug_assertions)]
    #[should_panic(expected = "empty sentinel")]
    fn inserting_zero_panics() {
        table().try_insert(0, 0);
    }

    #[test]
    // The check is a `debug_assert!`: release builds skip it.
    #[cfg(debug_assertions)]
    #[should_panic(expected = "empty sentinel")]
    fn inserting_a_marked_zero_fingerprint_panics() {
        marked().try_insert(0, lane(0, 1));
    }

    #[test]
    // The check is a `debug_assert!`: release builds skip it.
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not fit")]
    fn oversized_mark_panics() {
        marked().try_insert(0, lane(1, 8));
    }

    #[test]
    fn occupancy_tracks_set() {
        let mut t = table();
        t.set(0, 0, 5);
        assert_eq!(t.occupied(), 1);
        t.set(0, 0, 6); // overwrite occupied with occupied
        assert_eq!(t.occupied(), 1);
        t.set(0, 0, 0); // clear
        assert_eq!(t.occupied(), 0);
        t.set(0, 0, 0); // clear empty
        assert_eq!(t.occupied(), 0);
    }

    #[test]
    fn load_factor_tracks_occupancy() {
        let mut t = table();
        assert_eq!(t.load_factor(), 0.0);
        for bucket in 0..8 {
            for fp in 1..=4 {
                t.try_insert(bucket, fp).unwrap();
            }
        }
        assert!((t.load_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn iter_yields_occupied_only() {
        let mut t = table();
        t.try_insert(0, 1).unwrap();
        t.try_insert(7, 2).unwrap();
        let all: Vec<_> = t.iter().collect();
        assert_eq!(all, vec![(0, 0, 1), (7, 0, 2)]);
        let mut m = marked();
        m.try_insert(7, lane(77, 5)).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(7, 0, lane(77, 5))]);
    }

    #[test]
    fn max_width_fingerprints_roundtrip() {
        let mut t = FingerprintTable::new(4, 4, 32).unwrap();
        t.try_insert(0, u64::from(u32::MAX)).unwrap();
        assert!(t.contains(0, u64::from(u32::MAX)));
    }

    #[test]
    fn buckets_are_word_aligned() {
        // f = 12, b = 4 → one word per bucket.
        let t = FingerprintTable::new(10, 4, 12).unwrap();
        assert_eq!(t.storage_bytes(), 10 * 8);
        // f = 16, b = 8 → two words per bucket.
        let t = FingerprintTable::new(10, 8, 16).unwrap();
        assert_eq!(t.storage_bytes(), 10 * 16);
    }

    #[test]
    fn marked_roundtrip_entry() {
        let mut t = marked();
        let e = lane(0xffff, 6);
        let slot = t.try_insert(3, e).unwrap();
        assert_eq!(t.get(3, slot), e);
        assert_eq!((t.fingerprint(e), t.mark_bits()), (0xffff, 3));
        assert_eq!(t.occupied(), 1);
    }

    #[test]
    fn exact_match_requires_mark() {
        let mut t = marked();
        let e = lane(0xab, 2);
        t.try_insert(0, e).unwrap();
        assert!(t.contains(0, e));
        assert!(!t.contains(0, lane(0xab, 3)));
        assert!(!t.remove_one(0, lane(0xab, 3)));
        assert!(t.remove_one(0, e));
        assert_eq!(t.occupied(), 0);
    }

    #[test]
    fn mark_zero_is_valid_for_occupied_slot() {
        let mut t = marked();
        t.try_insert(0, lane(5, 0)).unwrap();
        assert!(t.contains(0, lane(5, 0)));
    }

    #[test]
    fn marked_bucket_fills_and_rejects() {
        let mut t = marked();
        for fp in 1..=4 {
            t.try_insert(1, lane(fp, 0)).unwrap();
        }
        assert!(t.bucket_is_full(1));
        assert!(t.try_insert(1, lane(9, 0)).is_none());
    }

    #[test]
    fn residual_mark_with_zero_fingerprint_is_still_empty() {
        // A slot is empty iff its fingerprint field is zero: mark bits
        // left behind must not make it read as occupied.
        let mut t = marked();
        for slot in 0..4 {
            t.set(0, slot, lane(0, 7));
        }
        assert_eq!(t.occupied(), 0);
        assert!(!t.bucket_is_full(0));
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.swap(0, 2, lane(9, 1)), None);
        assert_eq!(t.try_insert(0, lane(8, 1)), Some(0));
        assert_eq!(t.occupied(), 2);
    }
}
