//! Atomic counterpart of the bucket engine: lock-free probing and
//! single-word CAS updates over `AtomicU64` storage.
//!
//! [`AtomicBucketEngine`] accepts only [`BucketEngine`] layouts in which
//! no lane straddles a 64-bit word, so every word holds a run of whole
//! lanes from bit 0. A probe loads one word at a time (`Relaxed`) and
//! tests all its lanes with one `u64` broadcast-compare, the `bucket`
//! module's SWAR trick with per-word constants; no probe assembles a
//! bucket-wide view. A multi-word bucket may thus be read *torn across
//! words* under concurrent writes, which is indistinguishable from some
//! interleaving of the racing operations: each lane is still consistent.
//! [`try_claim`](AtomicBucketEngine::try_claim) ORs a value into the
//! first empty lane (empty lanes are zero) of the first word that has one
//! with a CAS of the whole word; [`replace_expect`](AtomicBucketEngine::replace_expect)
//! swaps a lane only while it still holds the expected value.
//!
//! Data loads are `Relaxed` — the stored fingerprints *are* the data —
//! and successful CAS uses `AcqRel`, so claim/replace chains order across
//! threads. Stronger visibility ("a miss means absent while a relocation
//! is in flight") is the caller's: `vcf-core`'s `ConcurrentVcf` layers
//! striped seqlocks on top. [`AtomicFingerprintTable`] owns the buffer
//! and an exact occupancy counter, and mirrors the sequential
//! [`FingerprintTable`](crate::FingerprintTable) with `&self` mutators.

use crate::bucket::BucketEngine;
use crate::fingerprint::check_geometry;
use crate::prefetch::prefetch_read;
use crate::MAX_BUCKET_SLOTS;
use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use vcf_traits::BuildError;

/// SWAR constants for one word of `lanes` lanes from bit 0.
#[derive(Debug, Clone, Copy)]
struct WordKernel {
    ones: u64,
    lows: u64,
    highs: u64,
}

impl WordKernel {
    fn new(lanes: usize, width: u32) -> Self {
        let ones = (0..lanes as u32).fold(0, |ones, lane| ones | 1u64 << (lane * width));
        let highs = ones << (width - 1);
        let lows = highs - ones;
        Self { ones, lows, highs }
    }

    /// MSB-per-lane mask of the lanes of `x` equal to `pattern`; padding is outside `highs`.
    #[inline]
    fn match_mask(&self, x: u64, pattern: u64) -> u64 {
        let y = x ^ self.ones.wrapping_mul(pattern);
        !((y & self.lows).wrapping_add(self.lows) | y) & self.highs
    }
}

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
/// assert_eq!(engine.find(&words, 3, 0xabc), Some(0));
/// assert!(engine.replace_expect(&words, 3, 0, 0xabc, 0));
/// assert!(!engine.contains(&words, 3, 0xabc));
/// # Ok::<(), vcf_traits::BuildError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AtomicBucketEngine {
    engine: BucketEngine,
    /// Leading words of a bucket that hold lanes (a 5 × 32-bit bucket
    /// pads a fourth); word `k` holds slots `k · lanes_per_word ..`.
    lane_words: usize,
    lanes_per_word: usize,
    /// `⌈2^16 / width⌉`, so that `bit · width_recip >> 16 = bit / width`
    /// for every bit of a word.
    width_recip: u32,
    /// The kernel of each lane word (at most 8 lanes of 32 bits: 4).
    kernels: [WordKernel; 4],
    /// Per-slot `(word-in-bucket, shift)`.
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
            let Some((word, shift)) = engine.slot_word_shift(slot) else {
                return Err(BuildError::InvalidConfig {
                    reason: format!(
                        "slot {slot} of a {slots}x{width}-bit bucket straddles a word \
                         boundary; the atomic engine needs single-word lanes"
                    ),
                });
            };
            *out = (word as u8, shift as u8);
        }
        // No lane straddles, so all lanes share one word, or each word
        // holds 64 / width of them.
        let lanes_per_word = slots.min(64 / width as usize);
        let lanes = |k: usize| slots.saturating_sub(k * lanes_per_word).min(lanes_per_word);
        Ok(Self {
            engine,
            lane_words: slots.div_ceil(lanes_per_word),
            lanes_per_word,
            width_recip: (1u32 << 16).div_ceil(width),
            kernels: [0, 1, 2, 3].map(|k| WordKernel::new(lanes(k), width)),
            slot_words,
        })
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

    /// The slot of lane word `k` whose MSB is the lowest set bit of `mask`.
    #[inline]
    fn slot_of(&self, k: usize, mask: u64) -> usize {
        k * self.lanes_per_word + ((mask.trailing_zeros() * self.width_recip) >> 16) as usize
    }

    /// Reads one lane with a single `Relaxed` atomic load.
    #[inline]
    pub fn get_slot(&self, words: &[AtomicU64], bucket: usize, slot: usize) -> u64 {
        debug_assert!(slot < self.slots(), "slot {slot} out of range");
        let (word, shift) = self.slot_words[slot];
        let raw =
            words[bucket * self.engine.words_per_bucket() + word as usize].load(Ordering::Relaxed);
        (raw >> shift) & self.lane_mask()
    }

    /// Whether any lane of `bucket` currently equals `pattern` (one
    /// `Relaxed` load per word; see the module docs for the consistency
    /// contract).
    #[inline]
    pub fn contains(&self, words: &[AtomicU64], bucket: usize, pattern: u64) -> bool {
        self.find(words, bucket, pattern).is_some()
    }

    /// The first slot of `bucket` whose lane equals `pattern`, word by
    /// word; `pattern` 0 finds the first empty slot.
    #[inline]
    pub fn find(&self, words: &[AtomicU64], bucket: usize, pattern: u64) -> Option<usize> {
        debug_assert!(
            pattern <= self.lane_mask(),
            "pattern {pattern:#x} exceeds lane"
        );
        let base = bucket * self.engine.words_per_bucket();
        (0..self.lane_words).find_map(|k| {
            let x = words[base + k].load(Ordering::Relaxed);
            let mask = self.kernels[k].match_mask(x, pattern);
            (mask != 0).then(|| self.slot_of(k, mask))
        })
    }

    /// Claims the first empty lane of the first word of `bucket` that has
    /// one for `value`, with a CAS loop per word. Returns the slot
    /// claimed, or `None` when every word was full when read. Never
    /// overwrites a non-empty lane.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `value` is zero — zero is the empty sentinel.
    #[inline]
    pub fn try_claim(&self, words: &[AtomicU64], bucket: usize, value: u64) -> Option<usize> {
        debug_assert!(value != 0, "value 0 is the empty sentinel");
        debug_assert!(value <= self.lane_mask(), "value {value:#x} exceeds lane");
        let base = bucket * self.engine.words_per_bucket();
        for (k, word) in words[base..base + self.lane_words].iter().enumerate() {
            let mut old = word.load(Ordering::Relaxed);
            loop {
                let empty = self.kernels[k].match_mask(old, 0);
                if empty == 0 {
                    break;
                }
                // The lowest empty lane starts `width − 1` bits below its MSB.
                let new = old | value << (empty.trailing_zeros() + 1 - self.width());
                match word.compare_exchange_weak(old, new, Ordering::AcqRel, Ordering::Relaxed) {
                    Ok(_) => return Some(self.slot_of(k, empty)),
                    // Re-derive emptiness from the freshest word.
                    Err(current) => old = current,
                }
            }
        }
        None
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
        let target = &words[bucket * self.engine.words_per_bucket() + word as usize];
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
        check_geometry(buckets, slots_per_bucket, fingerprint_bits)?;
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

    /// Issues a software prefetch for `bucket`'s words — the batch
    /// pipelines' warm-up hook. It loads nothing, so it neither stalls nor
    /// takes part in any atomic protocol: the operation that later reads
    /// the bucket re-loads every word it decides on.
    #[inline]
    pub fn prefetch_bucket(&self, bucket: usize) {
        debug_assert!(bucket < self.buckets, "bucket {bucket} out of range");
        let wpb = self.engine.engine.words_per_bucket();
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
        self.engine
            .find(&self.words, bucket, u64::from(fingerprint))
    }

    /// Whether `bucket` currently has no empty slot.
    #[inline]
    pub fn bucket_is_full(&self, bucket: usize) -> bool {
        self.engine.find(&self.words, bucket, 0).is_none()
    }

    /// CAS-claims the first empty slot of `bucket` for `fingerprint`.
    /// Returns the slot, or `None` when the bucket is full.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `fingerprint` is zero (the empty sentinel);
    /// fingerprint derivation remaps 0 before it reaches the table.
    #[inline]
    pub fn try_claim(&self, bucket: usize, fingerprint: u32) -> Option<usize> {
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
    /// Debug builds panic if `expected` is zero: empty slots are claimed
    /// through [`try_claim`](AtomicFingerprintTable::try_claim), so that
    /// occupancy stays first-empty-slot consistent.
    #[inline]
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
