//! The Vacuum filter (Wang, Zhou, Shi, Qian, VLDB 2019) — reference [14]
//! of the VCF paper — as CF's two-candidate policy confined to chunks.
//!
//! Standard CF "can only achieve its claimed advantage in
//! memory-efficiency when the size of the table is restricted to a power
//! of two" (Section II-B). The Vacuum filter fixes this by dividing the
//! table into equal-size power-of-two **chunks** and keeping both
//! candidate buckets of every item inside one chunk: the XOR alternate is
//! computed on the *offset within the chunk*, so the total bucket count
//! only needs to be a multiple of the chunk size.

use crate::cf::CfPolicy;
use crate::config::CuckooConfig;
use crate::cuckoo::{CandidatePolicy, CuckooCore};
use rand::rngs::SmallRng;
use vcf_table::FingerprintTable;
use vcf_traits::BuildError;

/// A Vacuum filter: chunked two-candidate cuckoo hashing over an
/// arbitrary multiple-of-chunk bucket count.
/// `vcf_baselines::VacuumFilter` re-exports it.
///
/// # Examples
///
/// ```
/// use vcf_core::VacuumFilter;
/// use vcf_traits::Filter;
///
/// // 3 · 64 = 192 buckets — NOT a power of two.
/// let mut vf = VacuumFilter::new(192, 64, 4, 14, 500, 7)?;
/// vf.insert(b"object")?;
/// assert!(vf.contains(b"object"));
/// assert!(vf.delete(b"object"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type VacuumFilter = CuckooCore<VacuumPolicy>;

/// CF's pair `{B1, B1 ⊕ hash(η)}` under the chunk mask: chunk bases have
/// zero low bits, so XOR-ing the chunk offset keeps both candidates in
/// B1's chunk. The primary bucket is `h mod m`, as `m` need not be a
/// power of two.
#[derive(Debug, Clone, Copy)]
pub struct VacuumPolicy(CfPolicy);

impl CandidatePolicy for VacuumPolicy {
    #[inline]
    fn primary_bucket(&self, h: u64, buckets: usize) -> usize {
        (h % buckets as u64) as usize
    }

    #[inline]
    fn candidate_count(&self, fingerprint: u32) -> usize {
        self.0.candidate_count(fingerprint)
    }

    #[inline]
    fn candidate(&self, b1: usize, hfp: u64, fingerprint: u32, e: usize) -> (usize, u64) {
        self.0.candidate(b1, hfp, fingerprint, e)
    }

    #[inline]
    fn alternate(&self, bucket: usize, hfp: u64, resident: u64, i: usize) -> (usize, u64) {
        self.0.alternate(bucket, hfp, resident, i)
    }

    fn pick_start(&self, rng: &mut SmallRng, k: usize) -> usize {
        self.0.pick_start(rng, k)
    }
}

impl VacuumFilter {
    /// Builds a Vacuum filter of `buckets` buckets grouped into chunks of
    /// `chunk_size` (a power of two dividing `buckets`), hashing with
    /// FNV-1a.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when `chunk_size` is not a power of two,
    /// does not divide `buckets`, or the slot geometry is invalid.
    pub fn new(
        buckets: usize,
        chunk_size: usize,
        slots_per_bucket: usize,
        fingerprint_bits: u32,
        max_kicks: u32,
        seed: u64,
    ) -> Result<Self, BuildError> {
        if chunk_size == 0 || !chunk_size.is_power_of_two() {
            return Err(BuildError::InvalidConfig {
                reason: format!("chunk size must be a power of two, got {chunk_size}"),
            });
        }
        if buckets == 0 || !buckets.is_multiple_of(chunk_size) {
            return Err(BuildError::InvalidBucketCount {
                got: buckets,
                requirement: "a positive multiple of the chunk size",
            });
        }
        let config = CuckooConfig::new(buckets)
            .with_slots_per_bucket(slots_per_bucket)
            .with_fingerprint_bits(fingerprint_bits)
            .with_max_kicks(max_kicks)
            .with_seed(seed);
        let table = FingerprintTable::new(buckets, slots_per_bucket, fingerprint_bits)?;
        let policy = VacuumPolicy(CfPolicy::new(chunk_size));
        Ok(Self::from_parts(&config, table, policy, "VF".to_owned()))
    }

    /// Sizes a filter for `items` items at ~95 % load with 64-bucket
    /// chunks — demonstrating the non-power-of-two capability.
    ///
    /// # Errors
    ///
    /// Propagates geometry errors.
    pub fn for_items(items: usize, fingerprint_bits: u32, seed: u64) -> Result<Self, BuildError> {
        let buckets_needed = (items as f64 / 0.95 / 4.0).ceil() as usize;
        let chunk = 64usize;
        let buckets = buckets_needed.div_ceil(chunk).max(1) * chunk;
        Self::new(buckets, chunk, 4, fingerprint_bits, 500, seed)
    }

    /// Number of chunks in the table.
    pub fn chunks(&self) -> usize {
        let chunk_size = self.policy().0.index_mask() as usize + 1;
        self.buckets() / chunk_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcf_traits::Filter;

    fn key(i: u64) -> Vec<u8> {
        format!("vf-{i}").into_bytes()
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(VacuumFilter::new(100, 64, 4, 14, 500, 1).is_err()); // not multiple
        assert!(VacuumFilter::new(192, 48, 4, 14, 500, 1).is_err()); // chunk not pow2
        assert!(VacuumFilter::new(0, 64, 4, 14, 500, 1).is_err());
        assert!(VacuumFilter::new(192, 64, 4, 14, 500, 1).is_ok());
    }

    #[test]
    fn non_power_of_two_table_roundtrips() {
        // 3 · 256 buckets = 768: impossible for standard CF.
        let mut vf = VacuumFilter::new(768, 256, 4, 14, 500, 2).unwrap();
        assert_eq!(vf.chunks(), 3);
        for i in 0..2500 {
            vf.insert(&key(i)).unwrap();
        }
        for i in 0..2500 {
            assert!(vf.contains(&key(i)), "item {i} lost");
        }
        for i in 0..1000 {
            assert!(vf.delete(&key(i)));
        }
        for i in 1000..2500 {
            assert!(vf.contains(&key(i)));
        }
    }

    #[test]
    fn fills_high_like_cf() {
        let mut vf = VacuumFilter::for_items(10_000, 14, 4).unwrap();
        let mut stored = 0usize;
        for i in 0..vf.capacity() as u64 {
            if vf.insert(&key(i)).is_ok() {
                stored += 1;
            }
        }
        let alpha = stored as f64 / vf.capacity() as f64;
        assert!(alpha > 0.93, "vacuum filter load factor {alpha}");
    }

    #[test]
    fn failed_inserts_roll_back() {
        let mut vf = VacuumFilter::new(192, 64, 4, 14, 100, 5).unwrap();
        let mut acknowledged = Vec::new();
        for i in 0..(vf.capacity() as u64 + 60) {
            if vf.insert(&key(i)).is_ok() {
                acknowledged.push(i);
            }
        }
        for i in acknowledged {
            assert!(vf.contains(&key(i)), "acknowledged {i} lost");
        }
    }

    #[test]
    fn for_items_uses_tight_non_pow2_sizing() {
        let vf = VacuumFilter::for_items(100_000, 14, 6).unwrap();
        // A power-of-two CF would need 2^15 buckets = 131072 slots;
        // the vacuum filter sizes within ~5 % of demand instead.
        let waste = vf.capacity() as f64 / (100_000.0 / 0.95);
        assert!(waste < 1.05, "vacuum sizing should be tight: {waste}");
        assert!(!vf.buckets().is_power_of_two());
    }
}
