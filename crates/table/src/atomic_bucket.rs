//! The lock-free slot table: the shared bucket layout over `AtomicU64`
//! words, with single-word CAS updates.
//!
//! The probes are the `bucket` module's, reading each word with one
//! `Relaxed` load, so a probe never assembles a bucket-wide view. A
//! multi-word bucket may thus be read *torn across words* under
//! concurrent writes, which is indistinguishable from some interleaving
//! of the racing operations: no lane straddles a word, so each lane is
//! still consistent. [`try_claim`](AtomicFingerprintTable::try_claim) ORs
//! a value into the first empty lane (empty lanes are zero) of the first
//! word that has one with a CAS of the whole word;
//! [`replace_expect`](AtomicFingerprintTable::replace_expect) swaps a
//! lane only while it still holds the expected value.
//!
//! Data loads are `Relaxed` — the stored fingerprints *are* the data —
//! and successful CAS uses `AcqRel`, so claim/replace chains order across
//! threads. Stronger visibility ("a miss means absent while a relocation
//! is in flight") is the caller's: `vcf-core`'s `ConcurrentVcf` layers
//! striped seqlocks on top. [`AtomicFingerprintTable`] owns the buffer
//! and an exact occupancy counter, and mirrors the sequential
//! [`FingerprintTable`](crate::FingerprintTable) with `&self` mutators.

use crate::bucket::{BucketEngine, WordRead};
use crate::fingerprint::check_geometry;
use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use vcf_traits::BuildError;

impl WordRead for AtomicU64 {
    #[inline]
    fn read(&self) -> u64 {
        self.load(Ordering::Relaxed)
    }
}

/// Bucketed `AtomicU64` storage of non-zero fingerprints with `&self`
/// mutators — the concurrent sibling of [`FingerprintTable`].
///
/// All mutation goes through single-word CAS ([`try_claim`] /
/// [`replace_expect`]); the `occupied` counter is adjusted on exactly the
/// operations that change the number of non-empty lanes, so at quiescence
/// `occupied()` equals the number of stored fingerprints exactly.
///
/// [`FingerprintTable`]: crate::FingerprintTable
/// [`try_claim`]: AtomicFingerprintTable::try_claim
/// [`replace_expect`]: AtomicFingerprintTable::replace_expect
///
/// # Examples
///
/// ```
/// use vcf_table::AtomicFingerprintTable;
///
/// let t = AtomicFingerprintTable::new(16, 4, 8)?;
/// let slot = t.try_claim(5, 0xab).expect("bucket 5 has room");
/// assert_eq!(t.get(5, slot), 0xab);
/// assert_eq!(t.occupied(), 1);
/// assert!(t.replace_expect(5, slot, 0xab, 0));
/// assert_eq!(t.occupied(), 0);
/// # Ok::<(), vcf_traits::BuildError>(())
/// ```
#[derive(Debug)]
pub struct AtomicFingerprintTable {
    words: Vec<AtomicU64>,
    engine: BucketEngine,
    buckets: usize,
    occupied: AtomicUsize,
}

impl AtomicFingerprintTable {
    /// Creates an empty table.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for the same geometry errors as
    /// [`FingerprintTable::new`](crate::FingerprintTable::new).
    pub fn new(
        buckets: usize,
        slots_per_bucket: usize,
        fingerprint_bits: u32,
    ) -> Result<Self, BuildError> {
        check_geometry(buckets, slots_per_bucket, fingerprint_bits)?;
        let engine = BucketEngine::new(
            slots_per_bucket,
            fingerprint_bits,
            (1u64 << fingerprint_bits) - 1,
        )?;
        let words = (0..engine.storage_words(buckets))
            .map(|_| AtomicU64::new(0))
            .collect();
        Ok(Self {
            words,
            engine,
            buckets,
            occupied: AtomicUsize::new(0),
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

    /// Number of occupied slots (exact at quiescence; momentarily lags
    /// in-flight claims by at most the number of racing threads).
    #[inline]
    pub fn occupied(&self) -> usize {
        self.occupied.load(Ordering::Relaxed)
    }

    /// Current load factor `α = occupied / capacity`.
    pub fn load_factor(&self) -> f64 {
        self.occupied() as f64 / self.capacity() as f64
    }

    /// Heap size of the atomic word storage in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Issues a software prefetch for `bucket`'s words — the batch
    /// pipelines' warm-up hook. It loads nothing, so it neither stalls nor
    /// takes part in any atomic protocol: the operation that later reads
    /// the bucket re-loads every word it decides on.
    #[inline]
    pub fn prefetch_bucket(&self, bucket: usize) {
        debug_assert!(bucket < self.buckets, "bucket {bucket} out of range");
        self.engine.prefetch_bucket(&self.words, bucket);
    }

    /// Reads the fingerprint in `(bucket, slot)` with one `Relaxed` load;
    /// `0` means empty.
    #[inline]
    pub fn get(&self, bucket: usize, slot: usize) -> u32 {
        debug_assert!(bucket < self.buckets, "bucket {bucket} out of range");
        self.engine.get(&self.words, bucket, slot) as u32
    }

    /// Whether `bucket` holds at least one copy of `fingerprint` (one
    /// `Relaxed` load per word; see the module docs for the consistency
    /// contract).
    #[inline]
    pub fn contains(&self, bucket: usize, fingerprint: u32) -> bool {
        self.find(bucket, fingerprint).is_some()
    }

    /// The slot currently holding `fingerprint` in `bucket`, if any.
    #[inline]
    pub fn find(&self, bucket: usize, fingerprint: u32) -> Option<usize> {
        self.engine
            .find(&self.words, bucket, u64::from(fingerprint))
    }

    /// Whether `bucket` currently has no empty slot.
    #[inline]
    pub fn bucket_is_full(&self, bucket: usize) -> bool {
        self.engine.first_empty(&self.words, bucket).is_none()
    }

    /// CAS-claims the first empty lane of the first word of `bucket` that
    /// has one for `fingerprint`, with a CAS loop per word. Returns the
    /// slot, or `None` when every word was full when read. Never
    /// overwrites a non-empty lane.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `fingerprint` is zero (the empty sentinel);
    /// fingerprint derivation remaps 0 before it reaches the table.
    #[inline]
    pub fn try_claim(&self, bucket: usize, fingerprint: u32) -> Option<usize> {
        debug_assert!(fingerprint != 0, "fingerprint 0 is the empty sentinel");
        debug_assert!(u64::from(fingerprint) <= self.engine.lane_mask());
        let range = self.engine.bucket_words(bucket);
        debug_assert!(
            range.end <= self.words.len(),
            "bucket {bucket} out of range"
        );
        let value = u64::from(fingerprint);
        for (k, word) in self.words[range].iter().enumerate() {
            let kernel = self.engine.kernel(k);
            let mut old = word.load(Ordering::Relaxed);
            loop {
                let empty = kernel.empty_mask(old);
                if empty == 0 {
                    break;
                }
                // The lowest empty lane starts `width − 1` bits below its MSB.
                let new = old | value << (empty.trailing_zeros() + 1 - self.engine.width());
                match word.compare_exchange_weak(old, new, Ordering::AcqRel, Ordering::Relaxed) {
                    Ok(_) => {
                        self.occupied.fetch_add(1, Ordering::Relaxed);
                        return Some(self.engine.slot_of(k, empty));
                    }
                    // Re-derive emptiness from the freshest word.
                    Err(current) => old = current,
                }
            }
        }
        None
    }

    /// Replaces `(bucket, slot)` with `new` iff it still holds `expected`,
    /// retrying while *other* lanes of the same word churn, and keeping
    /// the occupancy count exact (`expected → 0` decrements; `expected →
    /// new` with both non-zero is a pure swap). Returns `false` as soon as
    /// the lane no longer holds `expected`.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `expected` is zero: empty slots are claimed
    /// through [`try_claim`](AtomicFingerprintTable::try_claim), so that
    /// occupancy stays first-empty-slot consistent.
    #[inline]
    pub fn replace_expect(&self, bucket: usize, slot: usize, expected: u32, new: u32) -> bool {
        debug_assert!(expected != 0, "claim empty slots via try_claim");
        debug_assert!(u64::from(new) <= self.engine.lane_mask());
        let (index, shift) = self.engine.slot_word(bucket, slot);
        debug_assert!(index < self.words.len(), "bucket {bucket} out of range");
        let target = &self.words[index];
        let mask = self.engine.lane_mask() << shift;
        let (expected, new) = (u64::from(expected) << shift, u64::from(new) << shift);
        loop {
            let old = target.load(Ordering::Relaxed);
            if old & mask != expected {
                return false;
            }
            let updated = (old & !mask) | new;
            if target
                .compare_exchange_weak(old, updated, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                break;
            }
        }
        if new == 0 {
            self.occupied.fetch_sub(1, Ordering::Relaxed);
        }
        true
    }

    /// Iterates `(bucket, slot, fingerprint)` over occupied slots. Only
    /// meaningful at quiescence (no concurrent writers).
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, u32)> + '_ {
        (0..self.buckets).flat_map(move |bucket| {
            (0..self.engine.slots()).filter_map(move |slot| {
                let fp = self.get(bucket, slot);
                (fp != 0).then_some((bucket, slot, fp))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_fills_slots_in_order_and_rejects_when_full() {
        let t = AtomicFingerprintTable::new(8, 4, 12).unwrap();
        assert_eq!(t.try_claim(2, 10), Some(0));
        assert_eq!(t.try_claim(2, 11), Some(1));
        assert_eq!(t.try_claim(2, 12), Some(2));
        assert_eq!(t.try_claim(2, 13), Some(3));
        assert_eq!(t.try_claim(2, 14), None);
        assert!(t.bucket_is_full(2));
        assert_eq!(t.occupied(), 4);
        assert_eq!(t.get(2, 1), 11);
        assert_eq!(t.find(2, 13), Some(3));
    }

    #[test]
    fn replace_expect_validates_the_lane() {
        let t = AtomicFingerprintTable::new(4, 4, 14).unwrap();
        t.try_claim(1, 77).unwrap();
        assert!(!t.replace_expect(1, 0, 88, 99), "wrong expected value");
        assert!(t.replace_expect(1, 0, 77, 99), "swap in place");
        assert_eq!(t.occupied(), 1, "swap must not change occupancy");
        assert!(t.replace_expect(1, 0, 99, 0), "clear");
        assert_eq!(t.occupied(), 0);
        assert!(!t.contains(1, 99));
    }

    #[test]
    fn concurrent_claims_never_collide() {
        use std::sync::Arc;
        let t = Arc::new(AtomicFingerprintTable::new(64, 4, 16).unwrap());
        let handles: Vec<_> = (0..4u32)
            .map(|thread| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    let mut claimed = Vec::new();
                    for i in 0..64u32 {
                        let fp = (thread << 8) | i | 1;
                        if let Some(slot) = t.try_claim((i % 64) as usize, fp) {
                            claimed.push(((i % 64) as usize, slot, fp));
                        }
                    }
                    claimed
                })
            })
            .collect();
        let mut all: Vec<(usize, usize, u32)> = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        // No two threads may have claimed the same (bucket, slot).
        let mut coords: Vec<(usize, usize)> = all.iter().map(|&(b, s, _)| (b, s)).collect();
        coords.sort_unstable();
        coords.dedup();
        assert_eq!(coords.len(), all.len(), "two claims landed on one slot");
        assert_eq!(t.occupied(), all.len());
        for &(b, s, fp) in &all {
            assert_eq!(t.get(b, s), fp, "claimed value lost");
        }
    }

    #[test]
    fn iter_matches_claims() {
        let t = AtomicFingerprintTable::new(8, 2, 8).unwrap();
        t.try_claim(0, 3).unwrap();
        t.try_claim(7, 9).unwrap();
        let got: Vec<_> = t.iter().collect();
        assert_eq!(got, vec![(0, 0, 3), (7, 0, 9)]);
    }
}
