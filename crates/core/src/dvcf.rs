//! The Differentiated Vertical Cuckoo Filter (Section IV-B).

use crate::bitmask::MaskPair;
use crate::cf::CfPolicy;
use crate::config::CuckooConfig;
use crate::cuckoo::{CandidatePolicy, CuckooCore};
use crate::vcf::VcfPolicy;
use crate::vertical::VerticalParams;
use vcf_table::FingerprintTable;
use vcf_traits::BuildError;

/// The Differentiated VCF: a *continuous* trade-off between CF and VCF.
///
/// DVCF splits the fingerprint value range `[0, T)` (`T = 2^f`) at a
/// threshold `Δt`: fingerprints inside `In₁ = [T/2 − Δt, T/2 + Δt]`
/// receive **four** candidate buckets by vertical hashing (Equ. 3), all
/// others receive **two** candidates by plain partial-key hashing
/// (Equ. 1). The fraction of four-candidate items is
///
/// ```text
/// p = 2Δt / T           (Equ. 9)
/// ```
///
/// so `Δt` tunes `r = p` continuously where IVCF can only hit the discrete
/// ladder of Equ. 8 — at the cost of one extra interval judgment on every
/// operation (Algorithms 4–6), including the judgment about each victim
/// during relocation.
///
/// # Examples
///
/// ```
/// use vcf_core::{CuckooConfig, Dvcf};
/// use vcf_traits::Filter;
///
/// // r = 0.5: half the items get four candidate buckets.
/// let mut dvcf = Dvcf::with_r(CuckooConfig::new(1 << 10), 0.5)?;
/// dvcf.insert(b"stream-event-1")?;
/// assert!(dvcf.contains(b"stream-event-1"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type Dvcf = CuckooCore<DvcfPolicy>;

/// Algorithms 4–6: the VCF rule inside the interval `[lo, hi]`
/// (inclusive), the CF rule outside it.
#[derive(Debug, Clone, Copy)]
pub struct DvcfPolicy {
    four: VcfPolicy,
    two: CfPolicy,
    interval_lo: u32,
    interval_hi: u32,
}

impl DvcfPolicy {
    /// Whether `fingerprint` falls in the four-candidate interval `In₁`.
    #[inline]
    fn is_four(&self, fingerprint: u32) -> bool {
        (self.interval_lo..=self.interval_hi).contains(&fingerprint)
    }
}

impl CandidatePolicy for DvcfPolicy {
    type Table = FingerprintTable;

    #[inline]
    fn candidate_count(&self, fingerprint: u32) -> usize {
        if self.is_four(fingerprint) {
            4
        } else {
            2
        }
    }

    #[inline]
    fn candidate(&self, b1: usize, hfp: u64, fingerprint: u32, e: usize) -> (usize, u32) {
        if self.is_four(fingerprint) {
            self.four.candidate(b1, hfp, fingerprint, e)
        } else {
            self.two.candidate(b1, hfp, fingerprint, e)
        }
    }

    #[inline]
    fn alternate(&self, bucket: usize, hfp: u64, resident: u32, i: usize) -> (usize, u32) {
        if self.is_four(resident) {
            self.four.alternate(bucket, hfp, resident, i)
        } else {
            self.two.alternate(bucket, hfp, resident, i)
        }
    }
}

impl Dvcf {
    /// Builds a DVCF with an explicit threshold `Δt` (in fingerprint-value
    /// units, `0 ..= 2^(f−1)`).
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for invalid geometry or `Δt > T/2`.
    pub fn new(config: CuckooConfig, delta_t: u32) -> Result<Self, BuildError> {
        config.validate()?;
        let t = 1u64 << config.fingerprint_bits;
        if u64::from(delta_t) > t / 2 {
            return Err(BuildError::InvalidConfig {
                reason: format!("Δt = {delta_t} exceeds T/2 = {}", t / 2),
            });
        }
        let masks = MaskPair::balanced(config.fingerprint_bits)?;
        let table = FingerprintTable::new(
            config.buckets,
            config.slots_per_bucket,
            config.fingerprint_bits,
        )?;
        let params = VerticalParams::new(masks, config.buckets);
        let half = (t / 2) as u32;
        let policy = DvcfPolicy {
            four: VcfPolicy { params, masks },
            two: CfPolicy::new(config.buckets),
            interval_lo: half - delta_t,
            interval_hi: half.saturating_add(delta_t).min((t - 1) as u32),
        };
        let r = f64::from(policy.interval_hi - policy.interval_lo) / t as f64;
        Ok(Self::from_parts(
            &config,
            table,
            policy,
            format!("DVCF(r={r:.3})"),
        ))
    }

    /// Builds a DVCF whose four-candidate fraction is (approximately) `r`
    /// by choosing `Δt = r · T / 2` (Equ. 9).
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for invalid geometry or `r` outside
    /// `[0, 1]`.
    pub fn with_r(config: CuckooConfig, r: f64) -> Result<Self, BuildError> {
        if !(0.0..=1.0).contains(&r) {
            return Err(BuildError::InvalidConfig {
                reason: format!("r must lie in [0, 1], got {r}"),
            });
        }
        let t = 1u64 << config.fingerprint_bits;
        let delta_t = ((r * t as f64) / 2.0).round() as u32;
        Self::new(config, delta_t)
    }

    /// The configured four-candidate fraction `p = 2Δt / T` (Equ. 9).
    pub fn expected_r(&self) -> f64 {
        let t = (1u64 << self.fingerprint_bits()) as f64;
        let p = self.policy();
        f64::from(p.interval_hi - p.interval_lo) / t
    }

    /// Whether `fingerprint` falls in the four-candidate interval `In₁`.
    #[inline]
    pub fn uses_four_candidates(&self, fingerprint: u32) -> bool {
        self.policy().is_four(fingerprint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcf_traits::Filter;

    fn key(i: u64) -> Vec<u8> {
        format!("dvcf-{i}").into_bytes()
    }

    #[test]
    fn r_zero_behaves_like_cf_interval() {
        let f = Dvcf::with_r(CuckooConfig::new(1 << 8), 0.0).unwrap();
        assert!(f.expected_r() < 1e-3);
        // Almost no fingerprint is in In1 (only exactly T/2).
        let hits = (1u32..1 << 14)
            .filter(|&fp| f.uses_four_candidates(fp))
            .count();
        assert!(hits <= 1);
    }

    #[test]
    fn r_one_gives_everyone_four_candidates() {
        let f = Dvcf::with_r(CuckooConfig::new(1 << 8), 1.0).unwrap();
        assert!((f.expected_r() - 1.0).abs() < 1e-3);
        for fp in [1u32, 100, 8000, (1 << 14) - 1] {
            assert!(f.uses_four_candidates(fp), "fp={fp}");
        }
    }

    #[test]
    fn interval_fraction_matches_r() {
        for r in [0.125, 0.25, 0.5, 0.75] {
            let f = Dvcf::with_r(CuckooConfig::new(1 << 8), r).unwrap();
            let total = 1u32 << 14;
            let hits = (0..total).filter(|&fp| f.uses_four_candidates(fp)).count();
            let measured = hits as f64 / f64::from(total);
            assert!((measured - r).abs() < 0.01, "r={r} measured={measured}");
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Dvcf::with_r(CuckooConfig::new(1 << 8), -0.1).is_err());
        assert!(Dvcf::with_r(CuckooConfig::new(1 << 8), 1.1).is_err());
        assert!(Dvcf::new(CuckooConfig::new(1 << 8), 1 << 13).is_ok());
        assert!(Dvcf::new(CuckooConfig::new(1 << 8), (1 << 13) + 1).is_err());
        assert!(Dvcf::new(CuckooConfig::new(12), 0).is_err());
    }

    #[test]
    fn roundtrip_and_no_false_negatives() {
        let mut f = Dvcf::with_r(CuckooConfig::new(1 << 8).with_seed(4), 0.5).unwrap();
        for i in 0..700 {
            f.insert(&key(i)).unwrap();
        }
        for i in 0..700 {
            assert!(f.contains(&key(i)), "item {i} lost");
        }
        for i in 0..350 {
            assert!(f.delete(&key(i)), "item {i} not deletable");
        }
        for i in 350..700 {
            assert!(f.contains(&key(i)), "item {i} vanished after deletes");
        }
    }

    #[test]
    fn no_false_negatives_after_overflow() {
        let mut f = Dvcf::with_r(CuckooConfig::new(1 << 6).with_seed(11), 0.75).unwrap();
        let mut acknowledged = Vec::new();
        for i in 0..(f.capacity() as u64 + 60) {
            if f.insert(&key(i)).is_ok() {
                acknowledged.push(i);
            }
        }
        for i in acknowledged {
            assert!(f.contains(&key(i)), "acknowledged {i} lost");
        }
    }

    #[test]
    fn higher_r_fills_further() {
        let fill = |r: f64| {
            let mut f = Dvcf::with_r(CuckooConfig::new(1 << 10).with_seed(13), r).unwrap();
            let mut stored = 0u32;
            for i in 0..f.capacity() as u64 {
                if f.insert(&key(i)).is_ok() {
                    stored += 1;
                }
            }
            f64::from(stored) / f.capacity() as f64
        };
        let low = fill(0.125);
        let high = fill(1.0);
        assert!(
            high > low,
            "four-candidate items must raise the load factor: low={low} high={high}"
        );
        assert!(high > 0.98, "DVCF(r=1) should approach VCF load: {high}");
    }

    #[test]
    fn name_reports_r() {
        let f = Dvcf::with_r(CuckooConfig::new(1 << 8), 0.25).unwrap();
        assert!(f.name().starts_with("DVCF"));
        assert!(f.name().contains("0.250"));
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let run = || {
            let mut f = Dvcf::with_r(CuckooConfig::new(1 << 8).with_seed(21), 0.5).unwrap();
            let mut stored = 0u32;
            for i in 0..1100 {
                if f.insert(&key(i)).is_ok() {
                    stored += 1;
                }
            }
            (stored, f.stats().kicks)
        };
        assert_eq!(run(), run());
    }
}
