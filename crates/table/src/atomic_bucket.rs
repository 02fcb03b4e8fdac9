//! Atomic counterpart of the bucket engine: lock-free word-level probing
//! and CAS-based slot updates over `AtomicU64` storage.
//!
//! [`AtomicBucketEngine`] reuses the [`BucketEngine`] layout and SWAR
//! kernels but operates on `&[AtomicU64]` words, so concurrent filters can
//! probe and mutate buckets without a table-wide lock:
//!
//! * **Loads are per-word atomic.** A bucket view assembled from several
//!   words may be *torn across words* under concurrent writes — each lane
//!   is still internally consistent because the engine only accepts
//!   geometries where every lane fits inside one 64-bit word
//!   (`slot_word_shift` is `Some` for every slot). A torn multi-word view
//!   is indistinguishable from some interleaving of the racing operations,
//!   which is exactly the consistency a lock-free probe needs.
//! * **Writes are single-word CAS.** [`try_claim`](AtomicBucketEngine::try_claim)
//!   fills the first empty lane by CAS-ing the whole word (empty lanes are
//!   zero, so the claim is an OR); [`replace_expect`](AtomicBucketEngine::replace_expect)
//!   swaps a lane only while it still holds the expected value, retrying
//!   when *other* lanes of the same word changed underneath.
//!
//! Memory ordering: data loads are `Relaxed` — the stored fingerprints
//! *are* the data, nothing is published through them — and successful CAS
//! uses `AcqRel` so that claim/replace chains order across threads. Any
//! stronger visibility contract (e.g. "a miss really means absent while a
//! relocation is in flight") belongs to the caller; `vcf-core`'s
//! `ConcurrentVcf` layers striped seqlock versions on top for that.
//!
//! [`AtomicFingerprintTable`] owns the `AtomicU64` buffer plus an exact
//! occupancy counter and mirrors the sequential [`FingerprintTable`] API
//! with `&self` mutators.

use crate::bucket::{BucketEngine, BucketWords};
use crate::prefetch::prefetch_read;
use crate::{MAX_BUCKET_SLOTS, MAX_FINGERPRINT_BITS, MIN_FINGERPRINT_BITS};
use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use vcf_traits::BuildError;

/// Upper bound on `u64` words per bucket (4 segments × 2 words).
const MAX_BUCKET_WORDS: usize = 8;

/// Lock-free probing and CAS mutation over `AtomicU64` bucket words.
///
/// Owns no storage, exactly like [`BucketEngine`]; callers hand it their
/// `&[AtomicU64]` buffer laid out by the wrapped engine. Construction
/// fails for geometries where a lane would straddle two words, because a
/// straddling lane cannot be claimed or cleared with one CAS.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::AtomicU64;
/// use vcf_table::AtomicBucketEngine;
///
/// let engine = AtomicBucketEngine::new(4, 12)?;
/// let words: Vec<AtomicU64> = (0..engine.storage_words(8))
///     .map(|_| AtomicU64::new(0))
///     .collect();
/// assert_eq!(engine.try_claim(&words, 3, 0xabc), Some(0));
/// assert!(engine.contains(&words, 3, 0xabc));
/// assert!(engine.replace_expect(&words, 3, 0, 0xabc, 0));
/// assert!(!engine.contains(&words, 3, 0xabc));
/// # Ok::<(), vcf_traits::BuildError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AtomicBucketEngine {
    engine: BucketEngine,
    /// Per-slot `(word-in-bucket, shift)`; straddle-free by construction.
    slot_words: [(u8, u8); MAX_BUCKET_SLOTS],
}

impl AtomicBucketEngine {
    /// Builds an atomic engine for buckets of `slots` lanes of `width`
    /// bits.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidConfig`] for geometry the sequential
    /// engine rejects, and additionally when any lane straddles a 64-bit
    /// word boundary (e.g. 8 slots × 12 bits), since single-word CAS
    /// could not update such a lane atomically.
    pub fn new(slots: usize, width: u32) -> Result<Self, BuildError> {
        let engine = BucketEngine::new(slots, width)?;
        let mut slot_words = [(0u8, 0u8); MAX_BUCKET_SLOTS];
        for (slot, out) in slot_words.iter_mut().enumerate().take(slots) {
            match engine.slot_word_shift(slot) {
                Some((word, shift)) => *out = (word as u8, shift as u8),
                None => {
                    return Err(BuildError::InvalidConfig {
                        reason: format!(
                            "slot {slot} of a {slots}x{width}-bit bucket straddles a word \
                             boundary; the atomic engine needs single-word lanes"
                        ),
                    })
                }
            }
        }
        Ok(Self { engine, slot_words })
    }

    /// The wrapped sequential engine (geometry + SWAR kernels).
    #[inline]
    pub fn engine(&self) -> &BucketEngine {
        &self.engine
    }

    /// Slots per bucket.
    #[inline]
    pub fn slots(&self) -> usize {
        self.engine.slots()
    }

    /// Lane width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.engine.width()
    }

    /// All-ones mask of one lane.
    #[inline]
    pub fn lane_mask(&self) -> u64 {
        self.engine.lane_mask()
    }

    /// `AtomicU64` words a table of `buckets` buckets must allocate.
    pub fn storage_words(&self, buckets: usize) -> usize {
        self.engine.storage_words(buckets)
    }

    /// Loads all of `bucket`'s words (one `Relaxed` atomic load each) into
    /// a [`BucketWords`] view for the SWAR kernels.
    #[inline]
    pub fn load_bucket(&self, words: &[AtomicU64], bucket: usize) -> BucketWords {
        let wpb = self.engine.words_per_bucket();
        let base = bucket * wpb;
        let mut buf = [0u64; MAX_BUCKET_WORDS];
        for (out, word) in buf.iter_mut().zip(&words[base..base + wpb]) {
            *out = word.load(Ordering::Relaxed);
        }
        self.engine.read_bucket(&buf[..wpb], 0)
    }

    /// Reads one lane with a single `Relaxed` atomic load.
    #[inline]
    pub fn get_slot(&self, words: &[AtomicU64], bucket: usize, slot: usize) -> u64 {
        debug_assert!(slot < self.slots(), "slot {slot} out of range");
        let (word, shift) = self.slot_words[slot];
        let base = bucket * self.engine.words_per_bucket();
        let raw = words[base + word as usize].load(Ordering::Relaxed);
        (raw >> shift) & self.lane_mask()
    }

    /// Whether any lane of `bucket` currently equals `pattern` (one torn
    /// load per word; see the module docs for the consistency contract).
    #[inline]
    pub fn contains(&self, words: &[AtomicU64], bucket: usize, pattern: u64) -> bool {
        let loaded = self.load_bucket(words, bucket);
        self.engine.contains_in_bucket(&loaded, pattern)
    }

    /// Claims the first empty lane of `bucket` for `value` with a CAS
    /// loop. Returns the slot claimed, or `None` when the bucket stayed
    /// full throughout. Never overwrites a non-empty lane.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `value` is zero — zero is the empty sentinel.
    #[inline]
    pub fn try_claim(&self, words: &[AtomicU64], bucket: usize, value: u64) -> Option<usize> {
        debug_assert!(value != 0, "value 0 is the empty sentinel");
        debug_assert!(value <= self.lane_mask(), "value {value:#x} exceeds lane");
        let base = bucket * self.engine.words_per_bucket();
        loop {
            let loaded = self.load_bucket(words, bucket);
            let slot = self.engine.first_empty_slot(&loaded)?;
            let (word, shift) = self.slot_words[slot];
            let target = &words[base + word as usize];
            let old = target.load(Ordering::Relaxed);
            // Re-derive emptiness from the freshest word: `loaded` may be
            // stale. If the lane filled meanwhile, loop and look again.
            if (old >> shift) & self.lane_mask() != 0 {
                continue;
            }
            let new = old | (value << shift);
            if target
                .compare_exchange_weak(old, new, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return Some(slot);
            }
        }
    }

    /// Replaces the lane at `(bucket, slot)` with `new` iff it still holds
    /// `expected`, retrying while *other* lanes of the same word churn.
    /// Returns `false` as soon as the lane no longer holds `expected`.
    /// `new` may be zero (clearing the slot).
    #[inline]
    pub fn replace_expect(
        &self,
        words: &[AtomicU64],
        bucket: usize,
        slot: usize,
        expected: u64,
        new: u64,
    ) -> bool {
        debug_assert!(slot < self.slots(), "slot {slot} out of range");
        debug_assert!(new <= self.lane_mask(), "value {new:#x} exceeds lane");
        let (word, shift) = self.slot_words[slot];
        let mask = self.lane_mask();
        let base = bucket * self.engine.words_per_bucket();
        let target = &words[base + word as usize];
        loop {
            let old = target.load(Ordering::Relaxed);
            if (old >> shift) & mask != expected {
                return false;
            }
            let updated = (old & !(mask << shift)) | (new << shift);
            if target
                .compare_exchange_weak(old, updated, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        }
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
    engine: AtomicBucketEngine,
    buckets: usize,
    occupied: AtomicUsize,
}

impl AtomicFingerprintTable {
    /// Creates an empty table.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for the same geometry errors as
    /// [`FingerprintTable::new`](crate::FingerprintTable::new), plus
    /// word-straddling lanes (see [`AtomicBucketEngine::new`]).
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
        let engine = AtomicBucketEngine::new(slots_per_bucket, fingerprint_bits)?;
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

    /// The atomic engine probing this table.
    #[inline]
    pub fn engine(&self) -> &AtomicBucketEngine {
        &self.engine
    }

    /// Loads `bucket`'s words for repeated kernel probes.
    #[inline]
    pub fn load_bucket(&self, bucket: usize) -> BucketWords {
        debug_assert!(bucket < self.buckets, "bucket {bucket} out of range");
        self.engine.load_bucket(&self.words, bucket)
    }

    /// Issues a software prefetch for `bucket`'s words — the batch
    /// pipelines' warm-up hook. It loads nothing, so it neither stalls nor
    /// takes part in any atomic protocol: the operation that later reads
    /// the bucket re-loads every word it decides on.
    #[inline]
    pub fn prefetch_bucket(&self, bucket: usize) {
        debug_assert!(bucket < self.buckets, "bucket {bucket} out of range");
        let wpb = self.engine.engine().words_per_bucket();
        let base = bucket * wpb;
        prefetch_read(&self.words[base]);
        if wpb > 1 {
            prefetch_read(&self.words[base + wpb - 1]);
        }
    }

    /// Reads the fingerprint in `(bucket, slot)`; `0` means empty.
    #[inline]
    pub fn get(&self, bucket: usize, slot: usize) -> u32 {
        debug_assert!(bucket < self.buckets, "bucket {bucket} out of range");
        self.engine.get_slot(&self.words, bucket, slot) as u32
    }

    /// Whether `bucket` holds at least one copy of `fingerprint`.
    #[inline]
    pub fn contains(&self, bucket: usize, fingerprint: u32) -> bool {
        self.engine
            .contains(&self.words, bucket, u64::from(fingerprint))
    }

    /// The slot currently holding `fingerprint` in `bucket`, if any.
    #[inline]
    pub fn find(&self, bucket: usize, fingerprint: u32) -> Option<usize> {
        let loaded = self.load_bucket(bucket);
        self.engine
            .engine()
            .find_in_bucket(&loaded, u64::from(fingerprint))
    }

    /// Whether `bucket` currently has no empty slot.
    #[inline]
    pub fn bucket_is_full(&self, bucket: usize) -> bool {
        let loaded = self.load_bucket(bucket);
        self.engine.engine().first_empty_slot(&loaded).is_none()
    }

    /// CAS-claims the first empty slot of `bucket` for `fingerprint`.
    /// Returns the slot, or `None` when the bucket is full.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `fingerprint` is zero (the empty sentinel);
    /// fingerprint derivation remaps 0 before it reaches the table.
    pub fn try_claim(&self, bucket: usize, fingerprint: u32) -> Option<usize> {
        debug_assert!(fingerprint != 0, "fingerprint 0 is the empty sentinel");
        let slot = self
            .engine
            .try_claim(&self.words, bucket, u64::from(fingerprint))?;
        self.occupied.fetch_add(1, Ordering::Relaxed);
        Some(slot)
    }

    /// Replaces `(bucket, slot)` with `new` iff it still holds `expected`,
    /// keeping the occupancy count exact (`expected → 0` decrements;
    /// `expected → new` with both non-zero is a pure swap).
    ///
    /// # Panics
    ///
    /// Debug builds panic if `expected` is zero — claiming empty slots
    /// must go through
    /// [`try_claim`](AtomicFingerprintTable::try_claim) so occupancy
    /// stays first-empty-slot consistent.
    pub fn replace_expect(&self, bucket: usize, slot: usize, expected: u32, new: u32) -> bool {
        debug_assert!(expected != 0, "claim empty slots via try_claim");
        if !self.engine.replace_expect(
            &self.words,
            bucket,
            slot,
            u64::from(expected),
            u64::from(new),
        ) {
            return false;
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
            let loaded = self.load_bucket(bucket);
            (0..self.engine.slots()).filter_map(move |slot| {
                let fp = self.engine.engine().lane(&loaded, slot) as u32;
                (fp != 0).then_some((bucket, slot, fp))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_straddling_lanes() {
        // 8 slots × 12 bits: lane 5 spans bits 60..72 of its segment.
        assert!(AtomicBucketEngine::new(8, 12).is_err());
        assert!(AtomicFingerprintTable::new(8, 8, 12).is_err());
        // The paper's default (4 × 14 = 56 bits) and the two-word
        // power-of-two shapes are all single-word-lane clean.
        assert!(AtomicBucketEngine::new(4, 14).is_ok());
        assert!(AtomicBucketEngine::new(8, 16).is_ok());
        assert!(AtomicBucketEngine::new(4, 32).is_ok());
    }

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
