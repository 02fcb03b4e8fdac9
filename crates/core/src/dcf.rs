//! The D-ary Cuckoo filter (Xie et al., ICPADS 2017) — the paper's DCF
//! baseline, as the four-candidate base-4 policy of the shared engine.

use crate::base_d::{add_mul_mixed, radices_for};
use crate::config::CuckooConfig;
use crate::cuckoo::{CandidatePolicy, CuckooCore};
use vcf_table::FingerprintTable;
use vcf_traits::BuildError;

/// Candidate buckets per item: the paper fixes `d = 4` for DCF.
const D: usize = 4;

/// The D-ary Cuckoo filter: `d = 4` candidate buckets linked by base-4
/// digit-wise modular addition (Equ. 2).
///
/// Candidate `e` of an item with primary bucket `B1` and fingerprint-hash
/// offset `H` is `B1 ⊕_4 e·H` (digit-wise, mod 4), and applying the
/// offset four times cycles back — so, like VCF, a stored fingerprint can
/// be relocated without the original key. Unlike VCF, **every** candidate
/// derivation pays a base conversion (binary → base-4 → binary), which
/// is exactly the insertion/lookup overhead the paper measures in
/// Table III and Figs. 6–7.
///
/// Any power-of-two bucket count of at least 2 works: `2^odd` buckets
/// take one leading base-2 digit ([`radices_for`]).
/// `vcf_baselines::DaryCuckooFilter` re-exports it.
///
/// # Examples
///
/// ```
/// use vcf_core::{CuckooConfig, DaryCuckooFilter};
/// use vcf_traits::Filter;
///
/// // 4^5 buckets.
/// let mut dcf = DaryCuckooFilter::new(CuckooConfig::new(1024))?;
/// dcf.insert(b"flow:10.0.0.1")?;
/// assert!(dcf.contains(b"flow:10.0.0.1"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type DaryCuckooFilter = CuckooCore<DcfPolicy>;

/// Equ. 2: the cycle `{B1 ⊕_4 e·H : e < 4}` over the table's mixed-radix
/// digits.
#[derive(Debug, Clone)]
pub struct DcfPolicy {
    radices: Vec<usize>,
    index_mask: u64,
}

impl DcfPolicy {
    /// The base-4 offset `H` of a fingerprint hash.
    #[inline]
    fn offset(&self, hfp: u64) -> usize {
        (hfp & self.index_mask) as usize
    }
}

impl CandidatePolicy for DcfPolicy {
    #[inline]
    fn candidate_count(&self, _fingerprint: u32) -> usize {
        D
    }

    #[inline]
    fn candidate(&self, b1: usize, hfp: u64, fingerprint: u32, e: usize) -> (usize, u64) {
        let bucket = if e == 0 {
            b1
        } else {
            add_mul_mixed(b1, self.offset(hfp), e, &self.radices)
        };
        (bucket, u64::from(fingerprint))
    }

    #[inline]
    fn alternate(&self, bucket: usize, hfp: u64, resident: u64, i: usize) -> (usize, u64) {
        (
            add_mul_mixed(bucket, self.offset(hfp), i + 1, &self.radices),
            resident,
        )
    }
}

impl DaryCuckooFilter {
    /// Builds a DCF from `config`.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for invalid geometry, including a single
    /// bucket, which has no base-4 digits.
    pub fn new(config: CuckooConfig) -> Result<Self, BuildError> {
        config.validate()?;
        let radices = radices_for(config.buckets, D).ok_or(BuildError::InvalidBucketCount {
            got: config.buckets,
            requirement: "a power of two of at least 2",
        })?;
        let table = FingerprintTable::new(
            config.buckets,
            config.slots_per_bucket,
            config.fingerprint_bits,
        )?;
        let policy = DcfPolicy {
            radices,
            index_mask: config.buckets as u64 - 1,
        };
        Ok(Self::from_parts(&config, table, policy, "DCF".to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcf_traits::Filter;

    fn config() -> CuckooConfig {
        CuckooConfig::new(1 << 10).with_seed(5) // 4^5 buckets
    }

    fn key(i: u64) -> Vec<u8> {
        format!("dcf-{i}").into_bytes()
    }

    #[test]
    fn accepts_every_pow2_size_from_two() {
        assert!(DaryCuckooFilter::new(CuckooConfig::new(1 << 10)).is_ok());
        // 2^11 = 2 · 4^5: a mixed-radix table.
        assert!(DaryCuckooFilter::new(CuckooConfig::new(1 << 11)).is_ok());
        assert!(DaryCuckooFilter::new(CuckooConfig::new(2)).is_ok());
        assert!(DaryCuckooFilter::new(CuckooConfig::new(1)).is_err());
        assert!(DaryCuckooFilter::new(CuckooConfig::new(243)).is_err());
    }

    #[test]
    fn mixed_radix_table_roundtrips() {
        // Odd exponent: 2^9 buckets = 2 · 4^4.
        let mut dcf = DaryCuckooFilter::new(CuckooConfig::new(1 << 9).with_seed(9)).unwrap();
        for i in 0..1500 {
            dcf.insert(&key(i)).unwrap();
        }
        for i in 0..1500 {
            assert!(dcf.contains(&key(i)), "item {i} lost in mixed-radix table");
        }
        for i in 0..1500 {
            assert!(dcf.delete(&key(i)));
        }
        assert_eq!(dcf.len(), 0);
    }

    #[test]
    fn roundtrip_and_no_false_negatives() {
        let mut dcf = DaryCuckooFilter::new(config()).unwrap();
        for i in 0..3000 {
            dcf.insert(&key(i)).unwrap();
        }
        for i in 0..3000 {
            assert!(dcf.contains(&key(i)), "item {i} lost");
        }
        for i in 0..1000 {
            assert!(dcf.delete(&key(i)));
        }
        for i in 1000..3000 {
            assert!(dcf.contains(&key(i)), "item {i} vanished after deletes");
        }
    }

    #[test]
    fn fills_very_high_like_paper() {
        // Table III: DCF reaches 99.94 % load.
        let mut dcf = DaryCuckooFilter::new(config()).unwrap();
        let mut stored = 0u64;
        for i in 0..dcf.capacity() as u64 {
            if dcf.insert(&key(i)).is_ok() {
                stored += 1;
            }
        }
        let alpha = stored as f64 / dcf.capacity() as f64;
        assert!(alpha > 0.97, "DCF load factor {alpha}");
    }

    #[test]
    fn no_false_negatives_after_overflow() {
        let mut dcf = DaryCuckooFilter::new(CuckooConfig::new(64).with_seed(1)).unwrap();
        let mut acknowledged = Vec::new();
        for i in 0..(dcf.capacity() as u64 + 40) {
            if dcf.insert(&key(i)).is_ok() {
                acknowledged.push(i);
            }
        }
        for i in acknowledged {
            assert!(dcf.contains(&key(i)), "acknowledged {i} lost");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let mut dcf = DaryCuckooFilter::new(config()).unwrap();
            let mut stored = 0u32;
            for i in 0..4500 {
                if dcf.insert(&key(i)).is_ok() {
                    stored += 1;
                }
            }
            (stored, dcf.stats().kicks)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn name_is_dcf() {
        let dcf = DaryCuckooFilter::new(config()).unwrap();
        assert_eq!(dcf.name(), "DCF");
    }
}
