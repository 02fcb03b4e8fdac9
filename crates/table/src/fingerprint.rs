//! Bucketed storage of non-zero fingerprints.

use crate::bucket::{BucketEngine, BucketWords};
use crate::{MAX_BUCKET_SLOTS, MAX_FINGERPRINT_BITS, MIN_FINGERPRINT_BITS};
use vcf_traits::BuildError;

/// A table of `buckets × slots_per_bucket` fingerprint slots, the storage
/// layout of every 2-ary and 4-ary cuckoo filter in this workspace.
///
/// Fingerprints are `u32` values in `1..2^f` — zero is reserved as the
/// empty sentinel, which is why the filter layer remaps a zero fingerprint
/// to `1` before storing (see `vcf_core`).
///
/// Buckets are word-aligned and probed through the SWAR kernels of
/// [`BucketEngine`]: every bucket-wide operation (`find`, `contains`,
/// `try_insert`, `bucket_is_full`, `bucket_len`, `remove_one`) loads the
/// bucket's one or two words once and tests all slots with a handful of
/// branch-free word operations instead of a per-slot bit-extraction loop.
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
/// # Ok::<(), vcf_traits::BuildError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FingerprintTable {
    words: Vec<u64>,
    engine: BucketEngine,
    buckets: usize,
    occupied: usize,
}

impl FingerprintTable {
    /// Creates an empty table.
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
        let engine = BucketEngine::new(slots_per_bucket, fingerprint_bits)?;
        Ok(Self {
            words: vec![0u64; engine.storage_words(buckets)],
            engine,
            buckets,
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
        self.engine.width()
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

    /// The bucket engine probing this table (geometry + SWAR kernels).
    #[inline]
    pub fn engine(&self) -> &BucketEngine {
        &self.engine
    }

    /// Loads `bucket`'s words once for repeated kernel probes.
    #[inline]
    pub fn read_bucket(&self, bucket: usize) -> BucketWords {
        debug_assert!(bucket < self.buckets, "bucket {bucket} out of range");
        self.engine.read_bucket(&self.words, bucket)
    }

    /// Issues a software prefetch for `bucket`'s storage words — the
    /// batch pipelines' warm-up hook. It performs no load, so it cannot
    /// stall even when the line is cold.
    #[inline]
    pub fn prefetch_bucket(&self, bucket: usize) {
        debug_assert!(bucket < self.buckets, "bucket {bucket} out of range");
        self.engine.prefetch_bucket(&self.words, bucket);
    }

    /// Reads the fingerprint in `(bucket, slot)`; `0` means empty.
    #[inline]
    pub fn get(&self, bucket: usize, slot: usize) -> u32 {
        debug_assert!(bucket < self.buckets, "bucket {bucket} out of range");
        self.engine.get_slot(&self.words, bucket, slot) as u32
    }

    /// Overwrites `(bucket, slot)` with `fingerprint` (may be `0` to
    /// clear), maintaining the occupancy count.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the fingerprint does not fit in `f` bits or
    /// the position is out of range; release builds truncate. Callers
    /// mask fingerprints to `f` bits and snapshot decoders reject wider
    /// words, so an oversized value is an internal bug, not input.
    pub fn set(&mut self, bucket: usize, slot: usize, fingerprint: u32) {
        debug_assert!(
            u64::from(fingerprint) <= self.engine.lane_mask(),
            "fingerprint {fingerprint:#x} exceeds {} bits",
            self.engine.width()
        );
        let old = self.engine.get_slot(&self.words, bucket, slot);
        self.engine
            .set_slot(&mut self.words, bucket, slot, u64::from(fingerprint));
        match (old == 0, fingerprint == 0) {
            (true, false) => self.occupied += 1,
            (false, true) => self.occupied -= 1,
            _ => {}
        }
    }

    /// Inserts `fingerprint` into the first empty slot of `bucket`.
    /// Returns the slot used, or `None` when the bucket is full.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `fingerprint` is zero (the empty sentinel);
    /// fingerprint derivation remaps 0 before it reaches the table.
    pub fn try_insert(&mut self, bucket: usize, fingerprint: u32) -> Option<usize> {
        debug_assert!(fingerprint != 0, "fingerprint 0 is the empty sentinel");
        let slot = self.engine.first_empty_slot(&self.read_bucket(bucket))?;
        self.engine
            .set_slot(&mut self.words, bucket, slot, u64::from(fingerprint));
        self.occupied += 1;
        Some(slot)
    }

    /// Returns the slot holding `fingerprint` in `bucket`, if any.
    #[inline]
    pub fn find(&self, bucket: usize, fingerprint: u32) -> Option<usize> {
        self.engine
            .find_in_bucket(&self.read_bucket(bucket), u64::from(fingerprint))
    }

    /// Whether `bucket` holds at least one copy of `fingerprint`.
    #[inline]
    pub fn contains(&self, bucket: usize, fingerprint: u32) -> bool {
        self.engine
            .contains_in_bucket(&self.read_bucket(bucket), u64::from(fingerprint))
    }

    /// Whether any bucket of `buckets` holds `fingerprint` — the batched
    /// candidate probe, stopping at the first bucket that matches.
    pub fn contains_any(&self, buckets: &[usize], fingerprint: u32) -> bool {
        buckets.iter().any(|&b| self.contains(b, fingerprint))
    }

    /// Removes one copy of `fingerprint` from `bucket`; returns whether a
    /// copy was found.
    pub fn remove_one(&mut self, bucket: usize, fingerprint: u32) -> bool {
        if fingerprint == 0 {
            return false;
        }
        match self.find(bucket, fingerprint) {
            Some(slot) => {
                self.engine.set_slot(&mut self.words, bucket, slot, 0);
                self.occupied -= 1;
                true
            }
            None => false,
        }
    }

    /// Whether `bucket` has no empty slot.
    pub fn bucket_is_full(&self, bucket: usize) -> bool {
        self.engine
            .first_empty_slot(&self.read_bucket(bucket))
            .is_none()
    }

    /// Number of occupied slots in `bucket`.
    pub fn bucket_len(&self, bucket: usize) -> usize {
        self.engine.bucket_len(&self.read_bucket(bucket))
    }

    /// Swaps `fingerprint` with the resident of `(bucket, slot)` and
    /// returns the previous resident. Used by the eviction ("kick") loops.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `fingerprint` is zero; fingerprint
    /// derivation remaps 0 before it reaches the table.
    pub fn swap(&mut self, bucket: usize, slot: usize, fingerprint: u32) -> u32 {
        debug_assert!(fingerprint != 0, "fingerprint 0 is the empty sentinel");
        let old = self.engine.get_slot(&self.words, bucket, slot) as u32;
        self.engine
            .set_slot(&mut self.words, bucket, slot, u64::from(fingerprint));
        if old == 0 {
            self.occupied += 1;
        }
        old
    }

    /// Removes every stored fingerprint.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.occupied = 0;
    }

    /// Iterates `(bucket, slot, fingerprint)` over occupied slots.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, u32)> + '_ {
        (0..self.buckets).flat_map(move |bucket| {
            let loaded = self.read_bucket(bucket);
            (0..self.engine.slots()).filter_map(move |slot| {
                let fp = self.engine.lane(&loaded, slot) as u32;
                (fp != 0).then_some((bucket, slot, fp))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> FingerprintTable {
        FingerprintTable::new(8, 4, 12).unwrap()
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(FingerprintTable::new(0, 4, 12).is_err());
        assert!(FingerprintTable::new(8, 0, 12).is_err());
        assert!(FingerprintTable::new(8, 9, 12).is_err());
        assert!(FingerprintTable::new(8, 4, 1).is_err());
        assert!(FingerprintTable::new(8, 4, 33).is_err());
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
        assert_eq!(t.bucket_len(2), 4);
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
    }

    #[test]
    fn swap_returns_victim() {
        let mut t = table();
        t.try_insert(3, 100).unwrap();
        let victim = t.swap(3, 0, 200);
        assert_eq!(victim, 100);
        assert_eq!(t.get(3, 0), 200);
        assert_eq!(t.occupied(), 1, "swap must not change occupancy");
    }

    #[test]
    fn swap_into_empty_slot_increases_occupancy() {
        let mut t = table();
        let victim = t.swap(3, 1, 50);
        assert_eq!(victim, 0);
        assert_eq!(t.occupied(), 1);
    }

    #[test]
    // The check is a `debug_assert!`: release builds skip it.
    #[cfg(debug_assertions)]
    #[should_panic(expected = "empty sentinel")]
    fn inserting_zero_panics() {
        table().try_insert(0, 0);
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
    }

    #[test]
    fn clear_empties_table() {
        let mut t = table();
        t.try_insert(0, 1).unwrap();
        t.clear();
        assert_eq!(t.occupied(), 0);
        assert!(!t.contains(0, 1));
    }

    #[test]
    fn max_width_fingerprints_roundtrip() {
        let mut t = FingerprintTable::new(4, 4, 32).unwrap();
        t.try_insert(0, u32::MAX).unwrap();
        assert!(t.contains(0, u32::MAX));
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
}
