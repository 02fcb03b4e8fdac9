//! Raw bit-packed fixed-width slot array.

use vcf_traits::BuildError;

/// A flat array of `count` slots, each `width` bits wide (1..=63), packed
/// contiguously into `u64` words.
///
/// `PackedTable` knows nothing about buckets or fingerprints; it is the
/// raw bit-level substrate under [`FingerprintTable`](crate::FingerprintTable)
/// and [`MarkedTable`](crate::MarkedTable). A slot value of `0` is used by
/// the higher layers as the empty sentinel.
///
/// # Examples
///
/// ```
/// use vcf_table::PackedTable;
///
/// let mut t = PackedTable::new(100, 13)?;
/// t.set(42, 0x1abc);
/// assert_eq!(t.get(42), 0x1abc);
/// assert_eq!(t.get(41), 0);
/// # Ok::<(), vcf_traits::BuildError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PackedTable {
    words: Vec<u64>,
    count: usize,
    width: u32,
    mask: u64,
}

impl PackedTable {
    /// Creates a table of `count` zeroed slots of `width` bits each.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidConfig`] when `width` is 0 or ≥ 64, or
    /// when `count` is 0.
    pub fn new(count: usize, width: u32) -> Result<Self, BuildError> {
        if width == 0 || width >= 64 {
            return Err(BuildError::InvalidConfig {
                reason: format!("slot width must be 1..=63 bits, got {width}"),
            });
        }
        if count == 0 {
            return Err(BuildError::InvalidConfig {
                reason: "slot count must be positive".into(),
            });
        }
        let total_bits =
            count
                .checked_mul(width as usize)
                .ok_or_else(|| BuildError::InvalidConfig {
                    reason: "table too large".into(),
                })?;
        let words = vec![0u64; total_bits.div_ceil(64)];
        Ok(Self {
            words,
            count,
            width,
            mask: (1u64 << width) - 1,
        })
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Returns `true` when the table has zero slots (never true for a
    /// successfully constructed table).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Slot width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Heap size of the packed storage in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Reads slot `index`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `index` is out of bounds. Release
    /// builds skip the explicit check on this hot path — callers (the
    /// bucketed tables, counting Bloom) validate geometry at
    /// construction — but an out-of-range read beyond the final word
    /// still panics via the slice bounds check.
    #[inline]
    pub fn get(&self, index: usize) -> u64 {
        debug_assert!(
            index < self.count,
            "slot index {index} out of bounds ({})",
            self.count
        );
        let bit = index * self.width as usize;
        let word = bit / 64;
        let shift = (bit % 64) as u32;
        let mut value = self.words[word] >> shift;
        let taken = 64 - shift;
        if taken < self.width {
            value |= self.words[word + 1] << taken;
        }
        value & self.mask
    }

    /// Writes `value` (truncated to the slot width) into slot `index`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `index` is out of bounds or `value`
    /// does not fit in the slot width. Release builds skip both explicit
    /// checks on this hot path — callers validate geometry at
    /// construction — and instead truncate the value to the slot width,
    /// so neighbouring slots can never be corrupted.
    #[inline]
    pub fn set(&mut self, index: usize, value: u64) {
        debug_assert!(
            index < self.count,
            "slot index {index} out of bounds ({})",
            self.count
        );
        debug_assert!(
            value <= self.mask,
            "value {value:#x} exceeds slot width {}",
            self.width
        );
        let value = value & self.mask;
        let bit = index * self.width as usize;
        let word = bit / 64;
        let shift = (bit % 64) as u32;
        self.words[word] = (self.words[word] & !(self.mask << shift)) | (value << shift);
        let taken = 64 - shift;
        if taken < self.width {
            let hi_mask = self.mask >> taken;
            self.words[word + 1] = (self.words[word + 1] & !hi_mask) | (value >> taken);
        }
    }

    /// Resets every slot to zero.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterates over all slot values in index order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.count).map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_geometry() {
        assert!(PackedTable::new(0, 8).is_err());
        assert!(PackedTable::new(8, 0).is_err());
        assert!(PackedTable::new(8, 64).is_err());
        assert!(PackedTable::new(8, 63).is_ok());
    }

    #[test]
    fn starts_zeroed() {
        let t = PackedTable::new(77, 11).unwrap();
        assert!(t.iter().all(|v| v == 0));
    }

    #[test]
    fn roundtrip_all_widths() {
        for width in 1..=63u32 {
            let mut t = PackedTable::new(65, width).unwrap();
            let mask = (1u64 << width) - 1;
            for i in 0..65usize {
                let v = (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)) & mask;
                t.set(i, v);
            }
            for i in 0..65usize {
                let v = (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)) & mask;
                assert_eq!(t.get(i), v, "width {width} slot {i}");
            }
        }
    }

    #[test]
    fn neighbours_are_not_disturbed() {
        let mut t = PackedTable::new(10, 13).unwrap();
        t.set(3, 0x1fff);
        t.set(5, 0x0aaa);
        t.set(4, 0x1555);
        assert_eq!(t.get(3), 0x1fff);
        assert_eq!(t.get(4), 0x1555);
        assert_eq!(t.get(5), 0x0aaa);
        t.set(4, 0);
        assert_eq!(t.get(3), 0x1fff);
        assert_eq!(t.get(5), 0x0aaa);
    }

    #[test]
    fn word_boundary_straddle() {
        // width 9: slot 7 spans bits 63..72, crossing the first word edge.
        let mut t = PackedTable::new(16, 9).unwrap();
        t.set(7, 0x1ab);
        assert_eq!(t.get(7), 0x1ab);
        t.set(6, 0x155);
        t.set(8, 0x0ff);
        assert_eq!(t.get(7), 0x1ab);
    }

    #[test]
    // The check is a `debug_assert!`: release builds skip it.
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let t = PackedTable::new(4, 8).unwrap();
        t.get(4);
    }

    #[test]
    // The check is a `debug_assert!`: release builds skip it.
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeds slot width")]
    fn set_oversized_value_panics() {
        let mut t = PackedTable::new(4, 8).unwrap();
        t.set(0, 256);
    }

    #[test]
    fn clear_resets_everything() {
        let mut t = PackedTable::new(50, 7).unwrap();
        for i in 0..50 {
            t.set(i, (i as u64) & 0x7f);
        }
        t.clear();
        assert!(t.iter().all(|v| v == 0));
    }

    #[test]
    fn storage_is_compact() {
        let t = PackedTable::new(1024, 12).unwrap();
        // 1024 * 12 bits = 1536 bytes = 192 words.
        assert_eq!(t.storage_bytes(), 192 * 8);
    }
}
