//! The generalized k-VCF (Section III-C): `k ≥ 2` candidate buckets with
//! per-slot mark bits.

use crate::config::CuckooConfig;
use crate::cuckoo::{CandidatePolicy, CuckooCore};
use crate::vertical::{masked_candidate, masked_relocate};
use rand::rngs::SmallRng;
use rand::Rng;
use vcf_hash::SplitMix64;
use vcf_table::{MarkedEntry, MarkedTable};
use vcf_traits::BuildError;

/// Largest supported `k`: a slot's mark and the `VCK1` header hold a
/// candidate index in one byte.
const MAX_K: usize = u8::MAX as usize;

/// The generalized Vertical Cuckoo Filter with `k` candidate buckets.
///
/// Generalized vertical hashing (Equ. 6) derives the candidates from
/// `k − 2` bitmasks plus the two trivial ones (`bm = 0` for `B1`,
/// `bm = all-ones` for `Bk`):
///
/// ```text
/// B_e = B1 ⊕ (hash(η) ∧ bm_e)          e = 1..k
/// ```
///
/// Unlike the 4-candidate VCF, the masks are not mutually complementary,
/// so a resident fingerprint alone does not reveal *which* candidate its
/// bucket is. Each slot therefore stores a **mark** — the index `e` of its
/// current candidate (the paper's "counter field") — and relocation uses
/// Theorem 2 / Equ. 7:
///
/// ```text
/// B_e = B_g ⊕ (hash(η) ∧ bm_g) ⊕ (hash(η) ∧ bm_e)
/// ```
///
/// With `max_kicks = 0` (the paper's Table V regime) insertion never
/// relocates: a larger `k` alone pushes the load factor toward ~97 %.
///
/// # Examples
///
/// ```
/// use vcf_core::{CuckooConfig, KVcf};
/// use vcf_traits::Filter;
///
/// let config = CuckooConfig::new(1 << 8).with_fingerprint_bits(16);
/// let mut filter = KVcf::new(config, 8)?;
/// filter.insert(b"k-vcf item")?;
/// assert!(filter.contains(b"k-vcf item"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type KVcf = CuckooCore<KVcfPolicy>;

/// Equ. 6/7: candidate `e` is `B1 ⊕ (hash(η) ∧ bm_e)`, and the stored
/// mark `g` names the candidate a resident occupies.
#[derive(Debug, Clone)]
pub struct KVcfPolicy {
    /// `masks[e]` for `e = 0..k`; `masks[0] = 0`, `masks[k-1]` = full
    /// domain. Already restricted to the index range.
    masks: Vec<u64>,
    index_mask: u64,
}

impl CandidatePolicy for KVcfPolicy {
    type Table = MarkedTable;

    #[inline]
    fn candidate_count(&self, _fingerprint: u32) -> usize {
        self.masks.len()
    }

    /// Equ. 6, marked with its candidate index.
    #[inline]
    fn candidate(&self, b1: usize, hfp: u64, fingerprint: u32, e: usize) -> (usize, MarkedEntry) {
        debug_assert!(e < self.masks.len());
        let bucket = masked_candidate(b1, hfp, self.masks[e], self.index_mask);
        let mark = e as u8;
        (bucket, MarkedEntry { fingerprint, mark })
    }

    /// Equ. 7 from the resident's mark `g` to the `i`-th other candidate.
    #[inline]
    fn alternate(
        &self,
        bucket: usize,
        hfp: u64,
        resident: MarkedEntry,
        i: usize,
    ) -> (usize, MarkedEntry) {
        let g = usize::from(resident.mark);
        let e = if i >= g { i + 1 } else { i };
        debug_assert!(g < self.masks.len() && e < self.masks.len());
        let moved = masked_relocate(bucket, hfp, self.masks[g], self.masks[e], self.index_mask);
        let mark = e as u8;
        (moved, MarkedEntry { mark, ..resident })
    }

    /// The paper's walk draws among the `k − 1` other candidates on
    /// every kick, even when only one exists.
    fn pick_next(&self, rng: &mut SmallRng, n: usize) -> usize {
        rng.gen_range(0..n)
    }
}

impl KVcf {
    /// Builds a k-VCF with `k` candidate buckets per item.
    ///
    /// The `k − 2` intermediate bitmasks are generated deterministically
    /// from `config.seed`, distinct, and neither empty nor full (those two
    /// are reserved for `B1` and `Bk`).
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for invalid geometry, `k < 2`, `k > 255`
    /// (a mark is one byte), or a table too small to host `k − 2`
    /// distinct intermediate masks.
    pub fn new(config: CuckooConfig, k: usize) -> Result<Self, BuildError> {
        config.validate()?;
        if !(2..=MAX_K).contains(&k) {
            return Err(BuildError::InvalidConfig {
                reason: format!("k-VCF needs 2 <= k <= {MAX_K} candidate buckets, got {k}"),
            });
        }
        let index_bits = config.buckets.trailing_zeros().max(1);
        let domain_bits = config.fingerprint_bits.min(index_bits);
        let domain = (1u64 << domain_bits) - 1;
        // 2^domain − 2 non-trivial masks exist.
        if k > 2 && (k - 2) as u64 > domain.saturating_sub(1) {
            return Err(BuildError::InvalidConfig {
                reason: format!(
                    "cannot generate {} distinct intermediate masks over {domain_bits} bits",
                    k - 2
                ),
            });
        }

        let mut masks = Vec::with_capacity(k);
        masks.push(0u64);
        // lint: allow(theorem1-confinement) — seed whitening for the mask
        // generator, not candidate-bucket arithmetic
        let mut gen = SplitMix64::new(config.seed ^ 0x6b76_6366); // "kvcf"
        while masks.len() < k - 1 {
            let candidate = gen.next_u64() & domain;
            if candidate != 0 && candidate != domain && !masks.contains(&candidate) {
                masks.push(candidate);
            }
        }
        masks.push(domain);

        let table = MarkedTable::new(
            config.buckets,
            config.slots_per_bucket,
            config.fingerprint_bits,
            k,
        )?;
        let policy = KVcfPolicy {
            masks,
            index_mask: config.buckets as u64 - 1,
        };
        Ok(Self::from_parts(&config, table, policy, format!("{k}-VCF")))
    }

    /// Number of candidate buckets `k`.
    pub fn k(&self) -> usize {
        self.policy().masks.len()
    }

    /// Mark-field width in bits (storage overhead per slot).
    pub fn mark_bits(&self) -> u32 {
        self.table().mark_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcf_traits::Filter;

    fn config() -> CuckooConfig {
        CuckooConfig::new(1 << 8)
            .with_fingerprint_bits(16)
            .with_seed(17)
    }

    fn key(i: u64) -> Vec<u8> {
        format!("kvcf-{i}").into_bytes()
    }

    #[test]
    fn rejects_invalid_k() {
        assert!(KVcf::new(config(), 0).is_err());
        assert!(KVcf::new(config(), 1).is_err());
        assert!(KVcf::new(config(), 2).is_ok());
        assert!(KVcf::new(config(), 10).is_ok());
    }

    /// Marks and the `VCK1` header store `k` in a byte: `k = 256` would
    /// wrap a kicked entry's mark and lose the key, so it is refused.
    #[test]
    fn rejects_k_beyond_the_mark_byte() {
        let wide = CuckooConfig::new(1 << 10).with_fingerprint_bits(16);
        assert!(matches!(
            KVcf::new(wide, 256),
            Err(BuildError::InvalidConfig { .. })
        ));
        assert!(KVcf::new(wide, MAX_K).is_ok());
    }

    #[test]
    fn k255_fills_past_full_without_false_negatives_and_round_trips() {
        let config = CuckooConfig::new(1 << 10)
            .with_fingerprint_bits(16)
            .with_seed(5);
        let mut f = KVcf::new(config, 255).unwrap();
        let mut acknowledged = Vec::new();
        for i in 0..(f.capacity() as u64 + 64) {
            if f.insert(&key(i)).is_ok() {
                acknowledged.push(i);
            }
        }
        assert!(f.stats().kicks > 0, "the fill must relocate marked entries");
        for &i in &acknowledged {
            assert!(f.contains(&key(i)), "acknowledged {i} lost");
        }
        let restored = KVcf::from_snapshot(&f.to_snapshot()).unwrap();
        assert_eq!(restored.k(), 255);
        assert_eq!(restored.len(), f.len());
        for &i in &acknowledged {
            assert!(restored.contains(&key(i)), "{i} lost by VCK1");
        }
    }

    #[test]
    fn masks_are_distinct_and_bounded() {
        let f = KVcf::new(config(), 9).unwrap();
        let mut masks = f.policy().masks.clone();
        assert_eq!(masks[0], 0);
        assert_eq!(
            *masks.last().unwrap(),
            f.policy().index_mask.min((1 << 16) - 1)
        );
        masks.sort_unstable();
        masks.dedup();
        assert_eq!(masks.len(), 9, "masks must be pairwise distinct");
    }

    #[test]
    fn roundtrip_and_no_false_negatives() {
        let mut f = KVcf::new(config(), 6).unwrap();
        for i in 0..800 {
            f.insert(&key(i)).unwrap();
        }
        for i in 0..800 {
            assert!(f.contains(&key(i)), "item {i} lost");
        }
        for i in 0..400 {
            assert!(f.delete(&key(i)));
        }
        for i in 400..800 {
            assert!(f.contains(&key(i)), "item {i} vanished after deletes");
        }
    }

    #[test]
    fn zero_kicks_regime_never_evicts() {
        let mut f = KVcf::new(config().with_max_kicks(0), 8).unwrap();
        for i in 0..f.capacity() as u64 {
            let _ = f.insert(&key(i));
        }
        assert_eq!(f.stats().kicks, 0, "MAX=0 must not relocate");
        // Table V: k = 8 without kicks should still fill well past 90 %.
        assert!(
            f.table_load_factor() > 0.90,
            "α = {}",
            f.table_load_factor()
        );
    }

    #[test]
    fn larger_k_fills_further_without_kicks() {
        let fill = |k: usize| {
            let mut f = KVcf::new(config().with_max_kicks(0), k).unwrap();
            for i in 0..f.capacity() as u64 {
                let _ = f.insert(&key(i));
            }
            f.table_load_factor()
        };
        let a2 = fill(2);
        let a4 = fill(4);
        let a9 = fill(9);
        assert!(a2 < a4 && a4 < a9, "α must grow with k: {a2} {a4} {a9}");
        assert!(a9 > 0.94, "k=9, MAX=0 should approach 97%: {a9}");
    }

    #[test]
    fn no_false_negatives_after_overflow_with_kicks() {
        let mut f = KVcf::new(
            CuckooConfig::new(1 << 5)
                .with_fingerprint_bits(16)
                .with_seed(3),
            5,
        )
        .unwrap();
        let mut acknowledged = Vec::new();
        for i in 0..(f.capacity() as u64 + 40) {
            if f.insert(&key(i)).is_ok() {
                acknowledged.push(i);
            }
        }
        for i in acknowledged {
            assert!(f.contains(&key(i)), "acknowledged {i} lost");
        }
    }

    #[test]
    fn k2_behaves_like_standard_cf() {
        let mut f = KVcf::new(config(), 2).unwrap();
        for i in 0..600 {
            let _ = f.insert(&key(i));
        }
        for i in 0..600 {
            assert!(f.contains(&key(i)));
        }
        assert_eq!(f.name(), "2-VCF");
    }

    #[test]
    fn mark_bits_scale_with_k() {
        assert_eq!(KVcf::new(config(), 4).unwrap().mark_bits(), 2);
        assert_eq!(KVcf::new(config(), 7).unwrap().mark_bits(), 3);
        assert_eq!(KVcf::new(config(), 10).unwrap().mark_bits(), 4);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let run = || {
            let mut f = KVcf::new(config(), 6).unwrap();
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
