//! The standard Cuckoo filter (Fan et al., CoNEXT 2014) — the paper's
//! primary baseline, as the two-candidate policy of the shared engine.

use crate::config::CuckooConfig;
use crate::cuckoo::{CandidatePolicy, CuckooCore};
use crate::vertical::cf_alternate;
use rand::rngs::SmallRng;
use rand::Rng;
use vcf_table::FingerprintTable;
use vcf_traits::BuildError;

/// The standard two-candidate Cuckoo filter with partial-key cuckoo
/// hashing (Equ. 1):
///
/// ```text
/// B1 = hash(x)
/// B2 = B1 ⊕ hash(η_x)
/// ```
///
/// Insertion evicts a random resident when both candidates are full and
/// relocates it to its single alternate, cascading up to `MAX` kicks —
/// the behaviour whose cost near full load motivates the VCF redesign.
/// It runs on the same engine, table, hash functions and rollback as
/// the VCF family, so head-to-head measurements isolate the candidate
/// rule. `vcf_baselines::CuckooFilter` re-exports it.
///
/// # Examples
///
/// ```
/// use vcf_core::{CuckooConfig, CuckooFilter};
/// use vcf_traits::Filter;
///
/// let mut cf = CuckooFilter::new(CuckooConfig::new(1 << 8))?;
/// cf.insert(b"packet-12")?;
/// assert!(cf.contains(b"packet-12"));
/// assert!(cf.delete(b"packet-12"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type CuckooFilter = CuckooCore<CfPolicy>;

/// Equ. 1: the pair `{B1, B1 ⊕ hash(η)}`.
#[derive(Debug, Clone, Copy)]
pub struct CfPolicy {
    index_mask: u64,
}

impl CfPolicy {
    pub(crate) fn new(buckets: usize) -> Self {
        Self {
            index_mask: buckets as u64 - 1,
        }
    }
}

impl CandidatePolicy for CfPolicy {
    type Table = FingerprintTable;

    #[inline]
    fn candidate_count(&self, _fingerprint: u32) -> usize {
        2
    }

    #[inline]
    fn candidate(&self, b1: usize, hfp: u64, fingerprint: u32, e: usize) -> (usize, u32) {
        if e == 0 {
            (b1, fingerprint)
        } else {
            (cf_alternate(b1, hfp, self.index_mask), fingerprint)
        }
    }

    #[inline]
    fn alternate(&self, bucket: usize, hfp: u64, resident: u32, _i: usize) -> (usize, u32) {
        (cf_alternate(bucket, hfp, self.index_mask), resident)
    }

    /// Fan et al. start the walk from either bucket with a fair coin:
    /// the draw's top bit, which is exactly `gen_bool(0.5)`.
    fn pick_start(&self, rng: &mut SmallRng, _k: usize) -> usize {
        (rng.next_u64() >> 63) as usize
    }
}

impl CuckooFilter {
    /// Builds a standard CF from `config` (CF has no bitmasks).
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for invalid geometry.
    pub fn new(config: CuckooConfig) -> Result<Self, BuildError> {
        config.validate()?;
        let table = FingerprintTable::new(
            config.buckets,
            config.slots_per_bucket,
            config.fingerprint_bits,
        )?;
        let policy = CfPolicy::new(config.buckets);
        Ok(Self::from_parts(&config, table, policy, "CF".to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VerticalCuckooFilter;
    use vcf_traits::Filter;

    fn key(i: u64) -> Vec<u8> {
        format!("cf-{i}").into_bytes()
    }

    #[test]
    fn roundtrip() {
        let mut cf = CuckooFilter::new(CuckooConfig::new(1 << 8).with_seed(1)).unwrap();
        cf.insert(b"a").unwrap();
        assert!(cf.contains(b"a"));
        assert!(cf.delete(b"a"));
        assert!(!cf.contains(b"a"));
    }

    #[test]
    fn no_false_negatives_at_90_percent() {
        let mut cf = CuckooFilter::new(CuckooConfig::new(1 << 10).with_seed(5)).unwrap();
        let n = (cf.capacity() as f64 * 0.9) as u64;
        for i in 0..n {
            cf.insert(&key(i)).unwrap();
        }
        for i in 0..n {
            assert!(cf.contains(&key(i)), "item {i} lost");
        }
    }

    #[test]
    fn fills_to_roughly_95_percent() {
        let mut cf = CuckooFilter::new(CuckooConfig::new(1 << 10).with_seed(7)).unwrap();
        let mut stored = 0u64;
        for i in 0..cf.capacity() as u64 {
            if cf.insert(&key(i)).is_ok() {
                stored += 1;
            }
        }
        let alpha = stored as f64 / cf.capacity() as f64;
        assert!(alpha > 0.9, "CF load factor {alpha}");
    }

    #[test]
    fn cf_kicks_more_than_vcf_near_full() {
        let config = CuckooConfig::new(1 << 10).with_seed(3);
        let mut cf = CuckooFilter::new(config).unwrap();
        let mut vcf = VerticalCuckooFilter::new(config).unwrap();
        for i in 0..(1u64 << 12) {
            let _ = cf.insert(&key(i));
            let _ = vcf.insert(&key(i));
        }
        let cf_kicks = cf.stats().kicks_per_insert();
        let vcf_kicks = vcf.stats().kicks_per_insert();
        assert!(
            vcf_kicks < cf_kicks,
            "VCF must evict less than CF: vcf={vcf_kicks} cf={cf_kicks}"
        );
    }

    #[test]
    fn no_false_negatives_after_overflow() {
        let mut cf = CuckooFilter::new(CuckooConfig::new(1 << 6).with_seed(2)).unwrap();
        let mut acknowledged = Vec::new();
        for i in 0..(cf.capacity() as u64 + 64) {
            if cf.insert(&key(i)).is_ok() {
                acknowledged.push(i);
            }
        }
        for i in acknowledged {
            assert!(cf.contains(&key(i)), "acknowledged {i} lost");
        }
    }

    #[test]
    fn duplicate_copies_survive_single_delete() {
        let mut cf = CuckooFilter::new(CuckooConfig::new(1 << 8)).unwrap();
        cf.insert(b"dup").unwrap();
        cf.insert(b"dup").unwrap();
        assert!(cf.delete(b"dup"));
        assert!(cf.contains(b"dup"));
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let mut cf = CuckooFilter::new(CuckooConfig::new(1 << 8).with_seed(42)).unwrap();
            let mut stored = 0u32;
            for i in 0..1100 {
                if cf.insert(&key(i)).is_ok() {
                    stored += 1;
                }
            }
            (stored, cf.stats().kicks)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn name_is_cf() {
        let cf = CuckooFilter::new(CuckooConfig::new(8)).unwrap();
        assert_eq!(cf.name(), "CF");
    }
}
