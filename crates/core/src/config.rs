//! Shared configuration for all cuckoo-family filters in this workspace.

use vcf_hash::HashKind;
use vcf_traits::BuildError;

/// Geometry and policy parameters for a cuckoo-family filter, written in
/// the paper's vocabulary: `m` buckets × `b` slots, `f`-bit fingerprints,
/// `MAX` relocation threshold.
///
/// Defaults match the paper's experimental setup (Section VI-A):
/// `b = 4`, `f = 14`, `MAX = 500`, FNV hashing.
///
/// `CuckooConfig` is a non-consuming builder: chain the `with_*` methods
/// and pass the result to a filter constructor.
///
/// # Examples
///
/// ```
/// use vcf_core::{CuckooConfig, VerticalCuckooFilter};
///
/// let config = CuckooConfig::new(1 << 12)
///     .with_fingerprint_bits(16)
///     .with_max_kicks(500)
///     .with_seed(7);
/// let filter = VerticalCuckooFilter::new(config)?;
/// # Ok::<(), vcf_traits::BuildError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CuckooConfig {
    /// Number of buckets `m`; must be a power of two.
    pub buckets: usize,
    /// Slots per bucket `b` (the paper fixes 4 for all VCF variants).
    pub slots_per_bucket: usize,
    /// Fingerprint width `f` in bits.
    pub fingerprint_bits: u32,
    /// Relocation threshold `MAX`; `0` disables eviction entirely (the
    /// Table V k-VCF regime).
    pub max_kicks: u32,
    /// Hash function applied to item bytes and fingerprints.
    pub hash: HashKind,
    /// Seed for the filter's victim-selection PRNG; experiments are
    /// reproducible for a fixed seed.
    pub seed: u64,
}

impl CuckooConfig {
    /// Creates a configuration for `buckets` buckets with the paper's
    /// default parameters (`b = 4`, `f = 14`, `MAX = 500`, FNV).
    pub fn new(buckets: usize) -> Self {
        Self {
            buckets,
            slots_per_bucket: 4,
            fingerprint_bits: 14,
            max_kicks: 500,
            hash: HashKind::Fnv1a,
            seed: 0x5eed_cafe_f00d_d00d,
        }
    }

    /// Creates a configuration sized for (at least) `slots` total slots at
    /// `b = 4`, rounding the bucket count up to a power of two. The
    /// paper's experiments are parameterized by total slot count
    /// (`n = 2^θ`), so the harness uses this constructor.
    pub fn with_total_slots(slots: usize) -> Self {
        let buckets = (slots.div_ceil(4)).next_power_of_two();
        Self::new(buckets)
    }

    /// Sets the slots-per-bucket `b`.
    #[must_use]
    pub fn with_slots_per_bucket(mut self, b: usize) -> Self {
        self.slots_per_bucket = b;
        self
    }

    /// Sets the fingerprint width `f` in bits.
    #[must_use]
    pub fn with_fingerprint_bits(mut self, f: u32) -> Self {
        self.fingerprint_bits = f;
        self
    }

    /// Sets the relocation threshold `MAX`.
    #[must_use]
    pub fn with_max_kicks(mut self, max: u32) -> Self {
        self.max_kicks = max;
        self
    }

    /// Sets the hash function.
    #[must_use]
    pub fn with_hash(mut self, hash: HashKind) -> Self {
        self.hash = hash;
        self
    }

    /// Sets the PRNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total slot capacity `m · b`.
    pub fn capacity(&self) -> usize {
        self.buckets * self.slots_per_bucket
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Rejects non-power-of-two or zero bucket counts (the XOR group
    /// structure of partial-key/vertical hashing needs a power-of-two
    /// index space) and out-of-range `b`/`f`.
    pub fn validate(&self) -> Result<(), BuildError> {
        if self.buckets == 0 || !self.buckets.is_power_of_two() {
            return Err(BuildError::InvalidBucketCount {
                got: self.buckets,
                requirement: "a power of two",
            });
        }
        if self.slots_per_bucket == 0 || self.slots_per_bucket > vcf_table::MAX_BUCKET_SLOTS {
            return Err(BuildError::InvalidBucketSize {
                got: self.slots_per_bucket,
            });
        }
        if !(vcf_table::MIN_FINGERPRINT_BITS..=vcf_table::MAX_FINGERPRINT_BITS)
            .contains(&self.fingerprint_bits)
        {
            return Err(BuildError::InvalidFingerprintBits {
                got: self.fingerprint_bits,
                min: vcf_table::MIN_FINGERPRINT_BITS,
                max: vcf_table::MAX_FINGERPRINT_BITS,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CuckooConfig::new(1 << 10);
        assert_eq!(c.slots_per_bucket, 4);
        assert_eq!(c.fingerprint_bits, 14);
        assert_eq!(c.max_kicks, 500);
        assert_eq!(c.hash, HashKind::Fnv1a);
    }

    #[test]
    fn with_total_slots_rounds_up() {
        let c = CuckooConfig::with_total_slots(1 << 20);
        assert_eq!(c.buckets, 1 << 18);
        assert_eq!(c.capacity(), 1 << 20);
        let c = CuckooConfig::with_total_slots((1 << 20) + 1);
        assert_eq!(c.buckets, 1 << 19);
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        assert!(CuckooConfig::new(0).validate().is_err());
        assert!(CuckooConfig::new(12).validate().is_err());
        assert!(CuckooConfig::new(16)
            .with_slots_per_bucket(0)
            .validate()
            .is_err());
        assert!(CuckooConfig::new(16)
            .with_slots_per_bucket(9)
            .validate()
            .is_err());
        assert!(CuckooConfig::new(16)
            .with_fingerprint_bits(1)
            .validate()
            .is_err());
        assert!(CuckooConfig::new(16)
            .with_fingerprint_bits(33)
            .validate()
            .is_err());
        assert!(CuckooConfig::new(16).validate().is_ok());
    }

    #[test]
    fn builder_methods_chain() {
        let c = CuckooConfig::new(8)
            .with_slots_per_bucket(2)
            .with_fingerprint_bits(10)
            .with_max_kicks(0)
            .with_hash(HashKind::Djb2)
            .with_seed(1);
        assert_eq!(c.slots_per_bucket, 2);
        assert_eq!(c.fingerprint_bits, 10);
        assert_eq!(c.max_kicks, 0);
        assert_eq!(c.hash, HashKind::Djb2);
        assert_eq!(c.seed, 1);
    }
}
