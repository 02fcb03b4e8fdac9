//! The bucket layout and per-word SWAR probes both slot tables share.
//!
//! Every cuckoo-family filter in this workspace probes buckets of `b`
//! fixed-width lanes. A bucket of lanes `w` bits wide is
//! `⌈b / L⌉` consecutive `u64` words, `L = min(b, ⌊64 / w⌋)`: word `k`
//! holds slots `k·L ..` as whole lanes from bit 0, so no lane straddles
//! a word. A probe loads one word at a time and tests all its lanes in
//! O(1) word operations with a SWAR (SIMD-within-a-register)
//! broadcast-compare instead of a per-slot bit-extraction loop, and a
//! lane can be claimed or replaced with one single-word CAS.
//!
//! # The compare trick
//!
//! For lane width `w` and `L` lanes in a word, precompute
//!
//! ```text
//! ones  = Σ_{i<L} 1 << (i·w)        (lane LSBs)
//! highs = ones << (w-1)             (lane MSBs)
//! lows  = highs - ones              (all lane bits below the MSB)
//! ```
//!
//! To find lanes of `x` equal to `p`: broadcast with `P = ones · p`, let
//! `y = (x ^ P) & field`, then
//!
//! ```text
//! t          = (y & lows) + lows     // per-lane carry into the MSB
//! match_mask = !(t | y) & highs
//! ```
//!
//! `match_mask` has the MSB of lane `i` set **iff** lane `i` of `y` is
//! entirely zero. Unlike the classic `(x - ones) & ~x & highs` haszero
//! trick, the `lows`-masked addition cannot carry across lanes, so the
//! result is exact per lane — `trailing_zeros / w` gives the first
//! matching lane. `field` selects which lane bits participate: all of
//! them for lane equality, or just the fingerprint field of a
//! `(fingerprint, mark)` lane for the empty-slot test.
//!
//! Padding bits above a word's last lane are kept zero by the mutators
//! and lie outside `highs`, so they can never produce a phantom match.
//!
//! The probes read words through [`WordRead`]: plain `u64`s for
//! [`FingerprintTable`](crate::FingerprintTable), `Relaxed` atomic loads
//! for [`AtomicFingerprintTable`](crate::AtomicFingerprintTable). Only the
//! mutators differ between the two tables.

use crate::prefetch::prefetch_read;
use crate::MAX_BUCKET_SLOTS;
use core::ops::Range;
use vcf_traits::BuildError;

/// Widest supported lane in bits.
pub const MAX_LANE_BITS: u32 = 63;

/// A storage word the shared probes can read.
pub(crate) trait WordRead {
    /// The word's current value.
    fn read(&self) -> u64;
}

impl WordRead for u64 {
    #[inline]
    fn read(&self) -> u64 {
        *self
    }
}

/// SWAR constants for one word of lanes from bit 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct WordKernel {
    ones: u64,
    lows: u64,
    highs: u64,
    /// The empty-test field of every lane: a lane is empty iff its bits
    /// under `empty` are zero.
    empty: u64,
}

impl WordKernel {
    fn new(lanes: usize, width: u32, empty_field: u64) -> Self {
        let ones = (0..lanes as u32).fold(0, |ones, lane| ones | 1u64 << (lane * width));
        let highs = ones << (width - 1);
        Self {
            ones,
            lows: highs - ones,
            highs,
            empty: ones * empty_field,
        }
    }

    /// MSB-per-lane mask of the all-zero lanes of `y`.
    #[inline]
    fn zero_mask(&self, y: u64) -> u64 {
        !((y & self.lows).wrapping_add(self.lows) | y) & self.highs
    }

    /// MSB-per-lane mask of the lanes of `x` equal to `lane`.
    #[inline]
    fn match_mask(&self, x: u64, lane: u64) -> u64 {
        self.zero_mask(x ^ self.ones.wrapping_mul(lane))
    }

    /// MSB-per-lane mask of the empty lanes of `x`.
    #[inline]
    pub(crate) fn empty_mask(&self, x: u64) -> u64 {
        self.zero_mask(x & self.empty)
    }
}

/// Geometry and kernel constants for probing one table's buckets.
///
/// The engine owns no storage; tables hand it their word buffer. All
/// per-slot coordinates are `(bucket, slot)` with `slot < slots()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BucketEngine {
    width: u32,
    slots: usize,
    lane_mask: u64,
    /// Lanes in every word of a bucket but the last.
    lanes_per_word: usize,
    words_per_bucket: usize,
    /// `⌈2^16 / width⌉`, so that `bit · width_recip >> 16 = bit / width`
    /// for every bit of a word.
    width_recip: u32,
    /// Kernel of words `0..words_per_bucket - 1`.
    full: WordKernel,
    /// Kernel of the last word, which may hold fewer lanes.
    last: WordKernel,
    /// Per-slot `(word-in-bucket, shift)`.
    slot_words: [(u8, u8); MAX_BUCKET_SLOTS],
}

impl BucketEngine {
    /// Engine for buckets of `slots` lanes of `width` bits, where a slot
    /// is empty iff `lane & empty_field == 0`. The tables check `slots`
    /// and `empty_field` (their fingerprint field) before calling.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidConfig`] when `width` is outside
    /// `1..=63`.
    pub(crate) fn new(slots: usize, width: u32, empty_field: u64) -> Result<Self, BuildError> {
        if width == 0 || width > MAX_LANE_BITS {
            return Err(BuildError::InvalidConfig {
                reason: format!("lane width must be 1..={MAX_LANE_BITS} bits, got {width}"),
            });
        }
        let lane_mask = (1u64 << width) - 1;
        debug_assert!((1..=MAX_BUCKET_SLOTS).contains(&slots));
        debug_assert!(empty_field != 0 && empty_field <= lane_mask);
        let lanes_per_word = slots.min((64 / width) as usize);
        let words_per_bucket = slots.div_ceil(lanes_per_word);
        let mut slot_words = [(0u8, 0u8); MAX_BUCKET_SLOTS];
        for (slot, out) in slot_words.iter_mut().enumerate().take(slots) {
            let lane = (slot % lanes_per_word) as u32;
            *out = ((slot / lanes_per_word) as u8, (lane * width) as u8);
        }
        let last_lanes = slots - (words_per_bucket - 1) * lanes_per_word;
        Ok(Self {
            width,
            slots,
            lane_mask,
            lanes_per_word,
            words_per_bucket,
            width_recip: (1u32 << 16).div_ceil(width),
            full: WordKernel::new(lanes_per_word, width, empty_field),
            last: WordKernel::new(last_lanes, width, empty_field),
            slot_words,
        })
    }

    /// Lane width in bits.
    #[inline]
    pub(crate) fn width(&self) -> u32 {
        self.width
    }

    /// Slots per bucket.
    #[inline]
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    /// All-ones mask of one lane.
    #[inline]
    pub(crate) fn lane_mask(&self) -> u64 {
        self.lane_mask
    }

    /// Words a table of `buckets` buckets must allocate.
    ///
    /// # Panics
    ///
    /// Panics on arithmetic overflow (a table that large cannot be
    /// allocated anyway).
    pub(crate) fn storage_words(&self, buckets: usize) -> usize {
        buckets
            .checked_mul(self.words_per_bucket)
            // lint: allow(panic-reachability) — construction-time sizing
            // (reachable from hot paths only through segment growth's
            // table allocation); overflow is documented under `# Panics`
            .expect("bucket storage size overflows usize")
    }

    /// The indices of `bucket`'s words in the table's buffer.
    #[inline]
    pub(crate) fn bucket_words(&self, bucket: usize) -> Range<usize> {
        let base = bucket * self.words_per_bucket;
        base..base + self.words_per_bucket
    }

    /// The kernel of word `k` of a bucket.
    #[inline]
    pub(crate) fn kernel(&self, k: usize) -> &WordKernel {
        if k + 1 == self.words_per_bucket {
            &self.last
        } else {
            &self.full
        }
    }

    /// The slot of word `k` whose MSB is the lowest set bit of `mask`.
    #[inline]
    pub(crate) fn slot_of(&self, k: usize, mask: u64) -> usize {
        k * self.lanes_per_word + ((mask.trailing_zeros() * self.width_recip) >> 16) as usize
    }

    /// The buffer index of the word holding `(bucket, slot)`, and the
    /// lane's shift within it.
    #[inline]
    pub(crate) fn slot_word(&self, bucket: usize, slot: usize) -> (usize, u32) {
        debug_assert!(slot < self.slots, "slot {slot} out of range");
        let (word, shift) = self.slot_words[slot];
        (
            bucket * self.words_per_bucket + usize::from(word),
            u32::from(shift),
        )
    }

    /// Issues a software prefetch for `bucket`'s storage words without
    /// reading them.
    ///
    /// A bucket spans up to 8 consecutive words (64 bytes). Buckets start
    /// on word — not cache-line — boundaries, so a wide bucket can
    /// straddle two lines; hinting the first and last word covers both.
    /// It performs no load at all: it never stalls the pipeline, which is
    /// what the batch paths want when they warm a window of candidate
    /// buckets ahead of probing or placing fingerprints.
    #[inline]
    pub(crate) fn prefetch_bucket<T>(&self, words: &[T], bucket: usize) {
        let range = self.bucket_words(bucket);
        debug_assert!(range.end <= words.len(), "bucket {bucket} out of range");
        prefetch_read(&words[range.start]);
        if self.words_per_bucket > 1 {
            prefetch_read(&words[range.end - 1]);
        }
    }

    /// The first slot of `bucket` whose word passes `hits`, which maps
    /// `(kernel, word)` to an MSB-per-lane mask.
    #[inline]
    fn first_hit<W: WordRead>(
        &self,
        words: &[W],
        bucket: usize,
        hits: impl Fn(&WordKernel, u64) -> u64,
    ) -> Option<usize> {
        let range = self.bucket_words(bucket);
        debug_assert!(range.end <= words.len(), "bucket {bucket} out of range");
        range.enumerate().find_map(|(k, index)| {
            let mask = hits(self.kernel(k), words[index].read());
            (mask != 0).then(|| self.slot_of(k, mask))
        })
    }

    /// The first slot of `bucket` whose full lane equals `lane`, word by
    /// word.
    #[inline]
    pub(crate) fn find<W: WordRead>(&self, words: &[W], bucket: usize, lane: u64) -> Option<usize> {
        debug_assert!(lane <= self.lane_mask, "lane {lane:#x} exceeds the width");
        self.first_hit(words, bucket, |kernel, x| kernel.match_mask(x, lane))
    }

    /// The first empty slot of `bucket`, or `None` when it is full.
    #[inline]
    pub(crate) fn first_empty<W: WordRead>(&self, words: &[W], bucket: usize) -> Option<usize> {
        self.first_hit(words, bucket, WordKernel::empty_mask)
    }

    /// Reads one lane with a single word read.
    #[inline]
    pub(crate) fn get<W: WordRead>(&self, words: &[W], bucket: usize, slot: usize) -> u64 {
        let (index, shift) = self.slot_word(bucket, slot);
        debug_assert!(index < words.len(), "bucket {bucket} out of range");
        (words[index].read() >> shift) & self.lane_mask
    }

    /// Writes one lane, keeping the padding bits zero.
    #[inline]
    pub(crate) fn set(&self, words: &mut [u64], bucket: usize, slot: usize, lane: u64) {
        debug_assert!(lane <= self.lane_mask, "lane {lane:#x} exceeds the width");
        let (index, shift) = self.slot_word(bucket, slot);
        debug_assert!(index < words.len(), "bucket {bucket} out of range");
        words[index] = (words[index] & !(self.lane_mask << shift)) | (lane << shift);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(slots: usize, width: u32) -> BucketEngine {
        BucketEngine::new(slots, width, (1u64 << width) - 1).unwrap()
    }

    #[test]
    fn rejects_bad_width() {
        assert!(BucketEngine::new(4, 0, 1).is_err());
        assert!(BucketEngine::new(4, 64, 1).is_err());
    }

    #[test]
    fn layout_packs_whole_lanes_into_each_word() {
        for slots in 1..=8usize {
            for width in 1..=63u32 {
                let e = engine(slots, width);
                let per_word = slots.min(64 / width as usize);
                assert_eq!(e.words_per_bucket, slots.div_ceil(per_word));
                let mut seen = Vec::new();
                for slot in 0..slots {
                    let (index, shift) = e.slot_word(2, slot);
                    let word = index - 2 * e.words_per_bucket;
                    assert!(word < e.words_per_bucket, "b={slots} w={width}");
                    assert!(shift + width <= 64, "b={slots} w={width} slot={slot}");
                    assert_eq!(
                        (word, shift),
                        (slot / per_word, (slot % per_word) as u32 * width)
                    );
                    seen.push((word, shift));
                }
                seen.dedup();
                assert_eq!(seen.len(), slots);
            }
        }
    }

    #[test]
    fn width_reciprocal_divides_every_bit_of_a_word() {
        for width in 1..=63u32 {
            let e = engine(1, width);
            for bit in 0..64u32 {
                assert_eq!(
                    (bit * e.width_recip) >> 16,
                    bit / width,
                    "w={width} bit={bit}"
                );
            }
        }
    }

    #[test]
    fn kernels_agree_with_scalar_loop() {
        let mut state = 0xdead_beefu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 16
        };
        for width in 1..=63u32 {
            let mask = (1u64 << width) - 1;
            for slots in 1..=8usize {
                let e = engine(slots, width);
                let mut words = vec![0u64; e.storage_words(3)];
                // Mix zeros (empty sentinel) and duplicates in.
                let values: Vec<u64> = (0..slots)
                    .map(|_| match next() % 4 {
                        0 => 0,
                        1 => 1 & mask,
                        _ => next() & mask,
                    })
                    .collect();
                for (slot, &v) in values.iter().enumerate() {
                    e.set(&mut words, 1, slot, v);
                }
                for (slot, &v) in values.iter().enumerate() {
                    assert_eq!(e.get(&words, 1, slot), v, "w={width} b={slots} slot={slot}");
                }
                let scalar = |pattern| (0..slots).find(|&s| e.get(&words, 1, s) == pattern);
                for probe in [0, 1 & mask, next() & mask, mask] {
                    assert_eq!(
                        e.find(&words, 1, probe),
                        scalar(probe),
                        "w={width} b={slots}"
                    );
                }
                assert_eq!(e.first_empty(&words, 1), scalar(0), "w={width} b={slots}");
                assert!(
                    words[..e.words_per_bucket].iter().all(|&w| w == 0),
                    "bucket 0 disturbed"
                );
            }
        }
    }

    #[test]
    fn padding_never_matches() {
        // 3 slots of 20 bits: one word with 4 padding bits.
        let e = engine(3, 20);
        let mut words = vec![0u64; e.storage_words(1)];
        for (slot, value) in [5, 6, 7].into_iter().enumerate() {
            e.set(&mut words, 0, slot, value);
        }
        assert_eq!(
            e.first_empty(&words, 0),
            None,
            "padding must not look empty"
        );
        assert_eq!(e.find(&words, 0, 0), None);
    }

    #[test]
    fn masked_empty_field_ignores_mark_bits() {
        // 16-bit fingerprint + 3 mark bits per lane.
        let e = BucketEngine::new(4, 19, 0xffff).unwrap();
        let mut words = vec![0u64; e.storage_words(1)];
        // Mark bits set but fingerprint zero: still an empty slot.
        e.set(&mut words, 0, 0, 0b101 << 16);
        e.set(&mut words, 0, 1, (0b001 << 16) | 0xabcd);
        assert_eq!(e.first_empty(&words, 0), Some(0));
        assert_eq!(e.find(&words, 0, (0b001 << 16) | 0xabcd), Some(1));
        assert_eq!(e.find(&words, 0, (0b010 << 16) | 0xabcd), None);
    }

    #[test]
    fn neighbouring_buckets_are_isolated() {
        let e = engine(4, 13);
        let mut words = vec![0u64; e.storage_words(3)];
        for slot in 0..4 {
            e.set(&mut words, 1, slot, 0x1fff);
        }
        for bucket in [0usize, 2] {
            assert_eq!(e.first_empty(&words, bucket), Some(0), "bucket {bucket}");
            assert_eq!(e.find(&words, bucket, 0x1fff), None, "bucket {bucket}");
        }
        e.set(&mut words, 0, 3, 0x0aaa);
        e.set(&mut words, 2, 0, 0x1555);
        assert_eq!(e.first_empty(&words, 1), None);
        assert_eq!(e.find(&words, 1, 0x1fff), Some(0));
    }
}
