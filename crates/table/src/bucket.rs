//! Word-level bucket engine: aligned bucket layout + SWAR probe kernels.
//!
//! Every cuckoo-family filter in this workspace probes buckets of `b`
//! fixed-width lanes. The engine lays buckets out so that each bucket
//! starts on a 64-bit word boundary and is grouped into *segments* of
//! whole lanes, where a segment spans at most two `u64` words (read as one
//! `u128`). A probe then tests all lanes of a segment in O(1) word
//! operations with a SWAR (SIMD-within-a-register) broadcast-compare
//! instead of a per-slot bit-extraction loop.
//!
//! # The compare trick
//!
//! For lane width `w` and `L` active lanes, precompute
//!
//! ```text
//! ones  = Σ_{i<L} 1 << (i·w)        (lane LSBs)
//! highs = ones << (w-1)             (lane MSBs)
//! lows  = highs - ones              (all lane bits below the MSB)
//! ```
//!
//! To find lanes of `x` equal to `p`: broadcast with `P = ones · p`, let
//! `y = (x ^ P) & (ones · field)`, then
//!
//! ```text
//! t          = (y & lows) + lows     // per-lane carry into the MSB
//! match_mask = ((t | y) & highs) ^ highs
//! ```
//!
//! `match_mask` has the MSB of lane `i` set **iff** lane `i` of `y` is
//! entirely zero. Unlike the classic `(x - ones) & ~x & highs` haszero
//! trick, the `lows`-masked addition cannot carry across lanes, so the
//! result is exact per lane — `count_ones` gives the match count and
//! `trailing_zeros / w` the first matching slot. `field` selects which
//! lane bits participate: the full lane for fingerprint equality, or just
//! the fingerprint field of a `(fingerprint, mark)` lane for the
//! empty-slot test.
//!
//! Padding lanes (beyond the bucket's `b` slots) and padding bits are
//! kept zero by [`BucketEngine::set_slot`]; the kernels mask their result
//! to active lanes so padding can never produce a phantom match.

use crate::prefetch::prefetch_read;
use crate::MAX_BUCKET_SLOTS;
use vcf_traits::BuildError;

/// Upper bound on segments per bucket: `slots ≤ 8` lanes of width
/// `≤ 63` bits, at `≥ 2` lanes per 128-bit segment, need at most 4.
pub const MAX_BUCKET_SEGMENTS: usize = 4;

/// Widest supported lane in bits.
pub const MAX_LANE_BITS: u32 = 63;

/// One bucket's lanes, loaded as up to [`MAX_BUCKET_SEGMENTS`] aligned
/// 128-bit segments. Produced by [`BucketEngine::read_bucket`]; all probe
/// kernels run on this value without touching memory again.
#[derive(Debug, Clone, Copy)]
pub struct BucketWords {
    segs: [u128; MAX_BUCKET_SEGMENTS],
}

/// Per-segment SWAR constants for a fixed `(lanes, width)` shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SegKernel {
    ones: u128,
    lows: u128,
    highs: u128,
}

impl SegKernel {
    fn new(lanes: usize, width: u32) -> Self {
        let mut ones = 0u128;
        for lane in 0..lanes {
            ones |= 1u128 << (lane as u32 * width);
        }
        let highs = ones << (width - 1);
        Self {
            ones,
            lows: highs - ones,
            highs,
        }
    }

    /// MSB-per-lane mask of lanes whose `field` bits equal `pattern`.
    #[inline]
    fn match_mask(&self, x: u128, pattern: u64, field: u64) -> u128 {
        let y = (x ^ self.ones.wrapping_mul(u128::from(pattern)))
            & self.ones.wrapping_mul(u128::from(field));
        let t = (y & self.lows).wrapping_add(self.lows);
        ((t | y) & self.highs) ^ self.highs
    }
}

/// Geometry + kernel constants for probing one table's buckets.
///
/// The engine owns no storage; tables hand it their `&[u64]` word buffer.
/// All per-slot coordinates are `(bucket, slot)` with `slot < slots()`.
///
/// # Examples
///
/// ```
/// use vcf_table::BucketEngine;
///
/// let engine = BucketEngine::new(4, 12)?;
/// let mut words = vec![0u64; engine.storage_words(8)];
/// engine.set_slot(&mut words, 3, 2, 0xabc);
/// let bucket = engine.read_bucket(&words, 3);
/// assert_eq!(engine.find_in_bucket(&bucket, 0xabc), Some(2));
/// assert_eq!(engine.first_empty_slot(&bucket), Some(0));
/// # Ok::<(), vcf_traits::BuildError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BucketEngine {
    width: u32,
    slots: usize,
    lane_mask: u64,
    /// A slot is empty iff `lane & empty_field == 0`.
    empty_field: u64,
    lanes_per_seg: usize,
    segs: usize,
    words_per_seg: usize,
    words_per_bucket: usize,
    /// Kernel for segments `0..segs-1` (all hold `lanes_per_seg` lanes).
    full: SegKernel,
    /// Kernel for the final segment (may hold fewer lanes).
    last: SegKernel,
}

impl BucketEngine {
    /// Engine for buckets of `slots` lanes of `width` bits, where the
    /// whole lane must be zero for a slot to count as empty.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidConfig`] when `slots` is outside
    /// `1..=8` or `width` outside `1..=63`.
    pub fn new(slots: usize, width: u32) -> Result<Self, BuildError> {
        // Invalid widths get a placeholder field so the shared validation
        // in `with_empty_field` reports the width error.
        let lane_mask = if width == 0 || width > MAX_LANE_BITS {
            1
        } else {
            (1u64 << width) - 1
        };
        Self::with_empty_field(slots, width, lane_mask)
    }

    /// Engine whose empty-slot test only inspects `lane & empty_field`
    /// (e.g. just the fingerprint field of a `(fingerprint, mark)` lane).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidConfig`] for invalid geometry or an
    /// `empty_field` that is zero or wider than the lane.
    pub fn with_empty_field(
        slots: usize,
        width: u32,
        empty_field: u64,
    ) -> Result<Self, BuildError> {
        if slots == 0 || slots > MAX_BUCKET_SLOTS {
            return Err(BuildError::InvalidConfig {
                reason: format!("bucket slots must be 1..={MAX_BUCKET_SLOTS}, got {slots}"),
            });
        }
        if width == 0 || width > MAX_LANE_BITS {
            return Err(BuildError::InvalidConfig {
                reason: format!("lane width must be 1..={MAX_LANE_BITS} bits, got {width}"),
            });
        }
        let lane_mask = (1u64 << width) - 1;
        if empty_field == 0 || empty_field > lane_mask {
            return Err(BuildError::InvalidConfig {
                reason: format!("empty field {empty_field:#x} must be non-zero and fit the lane"),
            });
        }
        let lanes_per_seg = slots.min((128 / width) as usize);
        let segs = slots.div_ceil(lanes_per_seg);
        debug_assert!(segs <= MAX_BUCKET_SEGMENTS);
        let words_per_seg = (lanes_per_seg * width as usize).div_ceil(64);
        let last_lanes = slots - (segs - 1) * lanes_per_seg;
        Ok(Self {
            width,
            slots,
            lane_mask,
            empty_field,
            lanes_per_seg,
            segs,
            words_per_seg,
            words_per_bucket: segs * words_per_seg,
            full: SegKernel::new(lanes_per_seg, width),
            last: SegKernel::new(last_lanes, width),
        })
    }

    /// Lane width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Slots per bucket.
    #[inline]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// All-ones mask of one lane.
    #[inline]
    pub fn lane_mask(&self) -> u64 {
        self.lane_mask
    }

    /// `u64` words each bucket occupies (aligned stride).
    #[inline]
    pub fn words_per_bucket(&self) -> usize {
        self.words_per_bucket
    }

    /// Words a table of `buckets` buckets must allocate.
    ///
    /// # Panics
    ///
    /// Panics on arithmetic overflow (a table that large cannot be
    /// allocated anyway).
    pub fn storage_words(&self, buckets: usize) -> usize {
        buckets
            .checked_mul(self.words_per_bucket)
            // lint: allow(panic-reachability) — construction-time sizing
            // (reachable from hot paths only through segment growth's
            // table allocation); overflow is documented under `# Panics`
            .expect("bucket storage size overflows usize")
    }

    #[inline]
    fn kernel(&self, seg: usize) -> &SegKernel {
        if seg + 1 == self.segs {
            &self.last
        } else {
            &self.full
        }
    }

    /// Issues a software prefetch for `bucket`'s storage words without
    /// reading them.
    ///
    /// A bucket spans [`words_per_bucket`](Self::words_per_bucket)
    /// consecutive `u64`s (≤ 64 bytes at the widest supported geometry).
    /// Buckets start on word — not cache-line — boundaries, so a wide
    /// bucket can straddle two lines; hinting the first and last word
    /// covers both. It performs no load at all: it never stalls the
    /// pipeline, which is what the batch paths want when they warm a
    /// window of candidate buckets ahead of probing or placing
    /// fingerprints.
    #[inline]
    pub fn prefetch_bucket(&self, words: &[u64], bucket: usize) {
        let base = bucket * self.words_per_bucket;
        debug_assert!(base < words.len(), "bucket {bucket} out of range");
        prefetch_read(&words[base]);
        if self.words_per_bucket > 1 {
            prefetch_read(&words[base + self.words_per_bucket - 1]);
        }
    }

    /// Loads all of `bucket`'s segments — one or two `u64` reads each.
    #[inline]
    pub fn read_bucket(&self, words: &[u64], bucket: usize) -> BucketWords {
        let base = bucket * self.words_per_bucket;
        debug_assert!(
            base + self.words_per_bucket <= words.len(),
            "bucket {bucket} out of range"
        );
        let mut segs = [0u128; MAX_BUCKET_SEGMENTS];
        for (seg, out) in segs.iter_mut().enumerate().take(self.segs) {
            let w = base + seg * self.words_per_seg;
            *out = if self.words_per_seg == 2 {
                u128::from(words[w]) | (u128::from(words[w + 1]) << 64)
            } else {
                u128::from(words[w])
            };
        }
        BucketWords { segs }
    }

    /// First slot whose full lane equals `pattern` (`pattern` may be the
    /// zero sentinel), or `None`.
    #[inline]
    pub fn find_in_bucket(&self, bucket: &BucketWords, pattern: u64) -> Option<usize> {
        self.find_field(bucket, pattern, self.lane_mask)
    }

    /// Whether any slot's full lane equals `pattern`.
    #[inline]
    pub fn contains_in_bucket(&self, bucket: &BucketWords, pattern: u64) -> bool {
        debug_assert!(pattern <= self.lane_mask);
        for seg in 0..self.segs {
            if self
                .kernel(seg)
                .match_mask(bucket.segs[seg], pattern, self.lane_mask)
                != 0
            {
                return true;
            }
        }
        false
    }

    /// First empty slot (lane zero under the engine's empty field), or
    /// `None` when the bucket is full.
    #[inline]
    pub fn first_empty_slot(&self, bucket: &BucketWords) -> Option<usize> {
        self.find_field(bucket, 0, self.empty_field)
    }

    /// First slot where `lane & field == pattern & field`, or `None`.
    #[inline]
    pub fn find_field(&self, bucket: &BucketWords, pattern: u64, field: u64) -> Option<usize> {
        debug_assert!(pattern <= self.lane_mask && field <= self.lane_mask);
        for seg in 0..self.segs {
            let mask = self
                .kernel(seg)
                .match_mask(bucket.segs[seg], pattern, field);
            if mask != 0 {
                let lane = (mask.trailing_zeros() / self.width) as usize;
                return Some(seg * self.lanes_per_seg + lane);
            }
        }
        None
    }

    /// The `(word, shift)` coordinates of `slot` within its bucket: the
    /// lane occupies bits `shift..shift + width` of the `word`-th `u64` of
    /// the bucket. Returns `None` when the lane straddles two words — the
    /// geometry the atomic engine rejects, because a straddling lane
    /// cannot be updated with a single-word compare-and-swap.
    pub fn slot_word_shift(&self, slot: usize) -> Option<(usize, u32)> {
        debug_assert!(slot < self.slots, "slot {slot} out of range");
        let seg = slot / self.lanes_per_seg;
        let seg_shift = (slot % self.lanes_per_seg) as u32 * self.width;
        let word_in_seg = (seg_shift / 64) as usize;
        let shift = seg_shift % 64;
        if shift + self.width > 64 {
            return None;
        }
        Some((seg * self.words_per_seg + word_in_seg, shift))
    }

    /// Extracts one lane from an already-loaded bucket.
    #[inline]
    pub fn lane(&self, bucket: &BucketWords, slot: usize) -> u64 {
        debug_assert!(slot < self.slots, "slot {slot} out of range");
        let seg = slot / self.lanes_per_seg;
        let shift = (slot % self.lanes_per_seg) as u32 * self.width;
        ((bucket.segs[seg] >> shift) as u64) & self.lane_mask
    }

    /// Reads one lane straight from the word buffer.
    #[inline]
    pub fn get_slot(&self, words: &[u64], bucket: usize, slot: usize) -> u64 {
        debug_assert!(slot < self.slots, "slot {slot} out of range");
        let seg = slot / self.lanes_per_seg;
        let shift = (slot % self.lanes_per_seg) as u32 * self.width;
        let base = bucket * self.words_per_bucket + seg * self.words_per_seg;
        // A lane with `shift + width <= 64` lives entirely in the low word;
        // anything else (straddling or high-word) needs the 128-bit view.
        let value = if shift + self.width > 64 {
            let seg128 = u128::from(words[base]) | (u128::from(words[base + 1]) << 64);
            (seg128 >> shift) as u64
        } else {
            words[base] >> shift
        };
        value & self.lane_mask
    }

    /// Writes one lane, preserving the zero-padding invariant.
    #[inline]
    pub fn set_slot(&self, words: &mut [u64], bucket: usize, slot: usize, value: u64) {
        debug_assert!(slot < self.slots, "slot {slot} out of range");
        debug_assert!(value <= self.lane_mask, "value {value:#x} exceeds lane");
        let seg = slot / self.lanes_per_seg;
        let shift = (slot % self.lanes_per_seg) as u32 * self.width;
        let base = bucket * self.words_per_bucket + seg * self.words_per_seg;
        if self.words_per_seg == 2 && shift + self.width > 64 && shift < 64 {
            // Lane straddles the segment's two words.
            let mut seg128 = u128::from(words[base]) | (u128::from(words[base + 1]) << 64);
            seg128 =
                (seg128 & !(u128::from(self.lane_mask) << shift)) | (u128::from(value) << shift);
            words[base] = seg128 as u64;
            words[base + 1] = (seg128 >> 64) as u64;
        } else if shift >= 64 {
            let shift = shift - 64;
            words[base + 1] = (words[base + 1] & !(self.lane_mask << shift)) | (value << shift);
        } else {
            words[base] = (words[base] & !(self.lane_mask << shift)) | (value << shift);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar oracle: the per-slot loop the kernels replace.
    fn scalar_find(engine: &BucketEngine, bucket: &BucketWords, pattern: u64) -> Option<usize> {
        (0..engine.slots()).find(|&slot| engine.lane(bucket, slot) == pattern)
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(BucketEngine::new(0, 12).is_err());
        assert!(BucketEngine::new(9, 12).is_err());
        assert!(BucketEngine::new(4, 0).is_err());
        assert!(BucketEngine::new(4, 64).is_err());
        assert!(BucketEngine::with_empty_field(4, 12, 0).is_err());
        assert!(BucketEngine::with_empty_field(4, 12, 1 << 12).is_err());
    }

    #[test]
    fn layout_is_word_aligned_and_two_words_per_segment() {
        for slots in 1..=8usize {
            for width in 1..=63u32 {
                let e = BucketEngine::new(slots, width).unwrap();
                assert!(e.words_per_bucket() >= 1);
                // Segments span at most two words.
                assert!(e.words_per_seg <= 2, "slots {slots} width {width}");
                // Every lane fits inside its segment.
                assert!(e.lanes_per_seg as u32 * width <= 128);
                // All slots are addressable.
                assert!(e.segs * e.lanes_per_seg >= slots);
                assert!(e.segs <= MAX_BUCKET_SEGMENTS);
            }
        }
    }

    #[test]
    fn slot_word_shift_agrees_with_get_slot() {
        for slots in 1..=8usize {
            for width in 1..=63u32 {
                let e = BucketEngine::new(slots, width).unwrap();
                let mut words = vec![0u64; e.storage_words(3)];
                for slot in 0..slots {
                    let v = (0xa5a5_5a5a_u64.wrapping_mul(slot as u64 + 1)) & e.lane_mask();
                    e.set_slot(&mut words, 2, slot, v);
                    if let Some((word, shift)) = e.slot_word_shift(slot) {
                        assert!(shift + width <= 64, "b={slots} w={width}");
                        let raw = words[2 * e.words_per_bucket() + word];
                        assert_eq!(
                            (raw >> shift) & e.lane_mask(),
                            v,
                            "b={slots} w={width} slot={slot}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn classic_config_is_one_word_per_bucket() {
        // f = 12, b = 4: 48 bits, word-aligned in a single u64.
        let e = BucketEngine::new(4, 12).unwrap();
        assert_eq!(e.words_per_bucket(), 1);
        // f = 16, b = 8: exactly two words, one segment.
        let e = BucketEngine::new(8, 16).unwrap();
        assert_eq!(e.words_per_bucket(), 2);
    }

    #[test]
    fn slot_roundtrip_all_widths() {
        for width in 1..=63u32 {
            let mask = (1u64 << width) - 1;
            let e = BucketEngine::new(8, width).unwrap();
            let mut words = vec![0u64; e.storage_words(5)];
            for bucket in 0..5 {
                for slot in 0..8 {
                    let v = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul((bucket * 8 + slot) as u64 + 1)
                        & mask;
                    e.set_slot(&mut words, bucket, slot, v);
                }
            }
            for bucket in 0..5 {
                let bw = e.read_bucket(&words, bucket);
                for slot in 0..8 {
                    let v = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul((bucket * 8 + slot) as u64 + 1)
                        & mask;
                    assert_eq!(e.get_slot(&words, bucket, slot), v, "w={width}");
                    assert_eq!(e.lane(&bw, slot), v, "w={width}");
                }
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
                let e = BucketEngine::new(slots, width).unwrap();
                let mut words = vec![0u64; e.storage_words(1)];
                for slot in 0..slots {
                    // Mix zeros (empty sentinel) and duplicates in.
                    let v = match next() % 4 {
                        0 => 0,
                        1 => 1 & mask,
                        _ => next() & mask,
                    };
                    e.set_slot(&mut words, 0, slot, v);
                }
                let bw = e.read_bucket(&words, 0);
                for probe in [0, 1 & mask, next() & mask, mask] {
                    let expected = scalar_find(&e, &bw, probe);
                    assert_eq!(
                        e.find_in_bucket(&bw, probe),
                        expected,
                        "w={width} b={slots}"
                    );
                    assert_eq!(
                        e.contains_in_bucket(&bw, probe),
                        expected.is_some(),
                        "w={width} b={slots}"
                    );
                }
                assert_eq!(e.first_empty_slot(&bw), scalar_find(&e, &bw, 0));
            }
        }
    }

    #[test]
    fn padding_never_matches() {
        // 3 slots of 20 bits: one 64-bit word with 4 padding bits, plus
        // room for phantom lanes if masks were sloppy.
        let e = BucketEngine::new(3, 20).unwrap();
        let mut words = vec![0u64; e.storage_words(1)];
        e.set_slot(&mut words, 0, 0, 5);
        e.set_slot(&mut words, 0, 1, 6);
        e.set_slot(&mut words, 0, 2, 7);
        let bw = e.read_bucket(&words, 0);
        assert_eq!(e.first_empty_slot(&bw), None, "padding must not look empty");
        assert_eq!(e.find_in_bucket(&bw, 0), None);
    }

    #[test]
    fn masked_empty_field_ignores_mark_bits() {
        // 16-bit fingerprint + 3 mark bits per lane.
        let e = BucketEngine::with_empty_field(4, 19, 0xffff).unwrap();
        let mut words = vec![0u64; e.storage_words(1)];
        // Mark bits set but fingerprint zero: still an empty slot.
        e.set_slot(&mut words, 0, 0, 0b101 << 16);
        e.set_slot(&mut words, 0, 1, (0b001 << 16) | 0xabcd);
        let bw = e.read_bucket(&words, 0);
        assert_eq!(e.first_empty_slot(&bw), Some(0));
        assert!(e.contains_in_bucket(&bw, (0b001 << 16) | 0xabcd));
        assert!(!e.contains_in_bucket(&bw, (0b010 << 16) | 0xabcd));
    }

    #[test]
    fn duplicate_lanes_report_first_match() {
        let e = BucketEngine::new(8, 9).unwrap();
        let mut words = vec![0u64; e.storage_words(1)];
        e.set_slot(&mut words, 0, 2, 0x1ab);
        e.set_slot(&mut words, 0, 5, 0x1ab);
        let bw = e.read_bucket(&words, 0);
        assert_eq!(e.find_in_bucket(&bw, 0x1ab), Some(2));
    }

    #[test]
    fn neighbouring_buckets_are_isolated() {
        let e = BucketEngine::new(4, 13).unwrap();
        let mut words = vec![0u64; e.storage_words(3)];
        for slot in 0..4 {
            e.set_slot(&mut words, 1, slot, 0x1fff);
        }
        for bucket in [0usize, 2] {
            let bw = e.read_bucket(&words, bucket);
            assert_eq!(
                e.first_empty_slot(&bw),
                Some(0),
                "bucket {bucket} disturbed"
            );
            assert_eq!(
                e.find_in_bucket(&bw, 0x1fff),
                None,
                "bucket {bucket} disturbed"
            );
        }
        e.set_slot(&mut words, 0, 3, 0x0aaa);
        e.set_slot(&mut words, 2, 0, 0x1555);
        let bw = e.read_bucket(&words, 1);
        assert_eq!(e.first_empty_slot(&bw), None);
        assert_eq!(e.find_in_bucket(&bw, 0x1fff), Some(0));
    }
}
