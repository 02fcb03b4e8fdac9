//! The Vertical Cuckoo Filter (Algorithms 1–3) — also covers IVCF.

use crate::bitmask::MaskPair;
use crate::config::CuckooConfig;
use crate::cuckoo::{CandidatePolicy, CuckooCore};
use crate::key;
use crate::vertical::{Candidates, VerticalParams};
use vcf_table::FingerprintTable;
use vcf_traits::BuildError;

/// The Vertical Cuckoo Filter of Section III — and, by choosing the
/// bitmask shape, every `IVCF_i` of Section IV-A.
///
/// Each item receives four candidate buckets derived by vertical hashing
/// from its fingerprint alone:
///
/// ```text
/// B1 = hash(x)                         B2 = B1 ⊕ (hash(η) ∧ bm1)
/// B3 = B1 ⊕ (hash(η) ∧ bm2)            B4 = B1 ⊕ hash(η)
/// ```
///
/// Insertion follows the paper's Algorithm 1: try all four candidates for
/// an empty slot; otherwise evict a random resident and relocate it along
/// *its own* candidate cycle, up to `MAX` kicks. Lookup and deletion probe
/// the four candidate buckets (Algorithms 2–3). The guarantees are the
/// shared engine's (see [`CuckooCore`]).
///
/// # IVCF
///
/// [`VerticalCuckooFilter::with_mask_ones`] builds the paper's `IVCF_i`:
/// `i` one-bits in the first bitmask, trading load factor against false
/// positive rate through the four-candidate probability `r` (Equ. 8).
/// The plain constructor uses the balanced split, i.e. the standard VCF.
///
/// # Examples
///
/// ```
/// use vcf_core::{CuckooConfig, VerticalCuckooFilter};
/// use vcf_traits::Filter;
///
/// let mut vcf = VerticalCuckooFilter::new(CuckooConfig::new(1 << 8))?;
/// for i in 0u32..500 {
///     vcf.insert(&i.to_le_bytes())?;
/// }
/// assert!(vcf.contains(&42u32.to_le_bytes()));
/// assert!(vcf.load_factor() > 0.45);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type VerticalCuckooFilter = CuckooCore<VcfPolicy>;

/// Equ. 3/4: four candidates `B1 ⊕ (hash(η) ∧ bm)` for
/// `bm ∈ {0, bm1, bm2, bm1 ∨ bm2}`, closed under relocation by
/// Theorem 1, so a resident needs no mark.
#[derive(Debug, Clone, Copy)]
pub struct VcfPolicy {
    pub(crate) params: VerticalParams,
    pub(crate) masks: MaskPair,
}

impl CandidatePolicy for VcfPolicy {
    #[inline]
    fn candidate_count(&self, _fingerprint: u32) -> usize {
        4
    }

    #[inline]
    fn candidate(&self, b1: usize, hfp: u64, fingerprint: u32, e: usize) -> (usize, u64) {
        debug_assert!(e < 4, "VCF has four candidates");
        (
            self.params.candidates(b1, hfp).buckets[e],
            u64::from(fingerprint),
        )
    }

    #[inline]
    fn alternate(&self, bucket: usize, hfp: u64, resident: u64, i: usize) -> (usize, u64) {
        debug_assert!(i < 3, "VCF has three alternates");
        (self.params.alternates(bucket, hfp)[i], resident)
    }
}

impl VerticalCuckooFilter {
    /// Builds a standard VCF (balanced bitmasks) from `config`.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for invalid geometry (see
    /// [`CuckooConfig::validate`]).
    pub fn new(config: CuckooConfig) -> Result<Self, BuildError> {
        let masks = MaskPair::balanced(config.fingerprint_bits)?;
        Self::with_masks(config, masks, "VCF".to_owned())
    }

    /// Builds the paper's `IVCF_i`: `ones` one-bits in the first bitmask.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for invalid geometry or a degenerate mask
    /// (`ones` must be in `1..config.fingerprint_bits`).
    pub fn with_mask_ones(config: CuckooConfig, ones: u32) -> Result<Self, BuildError> {
        let masks = MaskPair::with_ones(ones, config.fingerprint_bits)?;
        Self::with_masks(config, masks, format!("IVCF{ones}"))
    }

    /// Builds a VCF with an explicit mask pair.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for invalid geometry.
    pub fn with_masks(
        config: CuckooConfig,
        masks: MaskPair,
        label: String,
    ) -> Result<Self, BuildError> {
        config.validate()?;
        let table = FingerprintTable::new(
            config.buckets,
            config.slots_per_bucket,
            config.fingerprint_bits,
        )?;
        let params = VerticalParams::new(masks, config.buckets);
        Ok(Self::from_parts(
            &config,
            table,
            VcfPolicy { params, masks },
            label,
        ))
    }

    /// The bitmask pair in use.
    pub fn masks(&self) -> MaskPair {
        self.policy().masks
    }

    /// The effective vertical-hashing parameters (masks restricted to the
    /// index domain).
    pub fn params(&self) -> VerticalParams {
        self.policy().params
    }

    /// Expected probability `r` of four distinct candidate buckets
    /// (Equ. 8) for this filter's effective mask geometry.
    pub fn expected_r(&self) -> f64 {
        let index_bits = (self.buckets().trailing_zeros()).max(2);
        match self.masks().restricted_to(index_bits) {
            Some(m) => m.expected_r(),
            None => 0.0,
        }
    }

    /// Canonical coset key of a query item: `(min candidate bucket) <<
    /// 32 | fingerprint`. Theorem 1 closure makes the minimum identical
    /// from every member bucket, so the same key is derivable from
    /// stored bits alone (see [`canonical_keys`](Self::canonical_keys))
    /// — the freeze-boundary representation used by the tiered
    /// lifecycle. Two items hashing to the same `(coset, fingerprint)`
    /// pair share a key — exactly the pairs this filter already cannot
    /// tell apart.
    pub fn canonical_key(&self, item: &[u8]) -> u64 {
        let index_mask = self.params().index_mask();
        let (fp, b1) = key::hash_item(self.hash_kind(), item, self.fingerprint_bits(), index_mask);
        canonical(self.candidates_of(fp, b1), fp)
    }

    /// Canonical coset keys of every stored fingerprint, derived from
    /// stored bits alone (no original items needed) — the partial-key
    /// invariant extended across the freeze boundary.
    pub fn canonical_keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.table().iter().map(|(bucket, _slot, lane)| {
            let fp = self.table().fingerprint(lane);
            canonical(self.candidates_of(fp, bucket), fp)
        })
    }

    #[inline]
    fn candidates_of(&self, fingerprint: u32, b1: usize) -> Candidates {
        let hfp = self.hash_kind().hash_fingerprint(fingerprint);
        self.params().candidates(b1, hfp)
    }
}

fn canonical(cands: Candidates, fp: u32) -> u64 {
    ((cands.canonical_low() as u64) << 32) | u64::from(fp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcf_hash::HashKind;
    use vcf_traits::{Filter, Stats};

    fn small() -> VerticalCuckooFilter {
        VerticalCuckooFilter::new(CuckooConfig::new(1 << 8).with_seed(1)).unwrap()
    }

    fn key(i: u64) -> Vec<u8> {
        format!("item-{i}").into_bytes()
    }

    #[test]
    fn insert_lookup_delete_roundtrip() {
        let mut f = small();
        f.insert(b"x").unwrap();
        assert!(f.contains(b"x"));
        assert_eq!(f.len(), 1);
        assert!(f.delete(b"x"));
        assert!(!f.contains(b"x"));
        assert_eq!(f.len(), 0);
        assert!(!f.delete(b"x"));
    }

    #[test]
    fn no_false_negatives_when_half_full() {
        let mut f = small();
        for i in 0..512 {
            f.insert(&key(i)).unwrap();
        }
        for i in 0..512 {
            assert!(f.contains(&key(i)), "item {i} lost");
        }
    }

    #[test]
    fn fills_past_95_percent() {
        let mut f = VerticalCuckooFilter::new(CuckooConfig::new(1 << 10).with_seed(3)).unwrap();
        let capacity = f.capacity();
        let mut stored = 0;
        for i in 0..capacity as u64 {
            if f.insert(&key(i)).is_ok() {
                stored += 1;
            }
        }
        let alpha = stored as f64 / capacity as f64;
        assert!(alpha > 0.95, "VCF load factor only {alpha}");
    }

    #[test]
    fn no_false_negatives_even_after_insert_failures() {
        let mut f = VerticalCuckooFilter::new(CuckooConfig::new(1 << 6).with_seed(9)).unwrap();
        let mut acknowledged = Vec::new();
        for i in 0..(f.capacity() as u64 + 50) {
            if f.insert(&key(i)).is_ok() {
                acknowledged.push(i);
            }
        }
        for i in acknowledged {
            assert!(
                f.contains(&key(i)),
                "acknowledged item {i} lost after overflow"
            );
        }
    }

    #[test]
    fn failed_insert_rolls_back_exactly() {
        let mut f = VerticalCuckooFilter::new(CuckooConfig::new(1 << 5).with_seed(7)).unwrap();
        // Fill until the first failure.
        let mut i = 0u64;
        loop {
            if f.insert(&key(i)).is_err() {
                break;
            }
            i += 1;
            assert!(i < 10_000, "filter never filled");
        }
        let before = f.clone();
        // Ten more failing inserts must leave the table untouched.
        for j in 0..10u64 {
            let _ = f.insert(&key(1_000_000 + j));
        }
        assert_eq!(f.len(), before.len());
        for n in 0..i {
            assert_eq!(
                f.contains(&key(n)),
                before.contains(&key(n)),
                "item {n} flipped"
            );
        }
    }

    #[test]
    fn delete_then_reinsert_succeeds() {
        let mut f = small();
        let capacity = f.capacity() as u64;
        for i in 0..capacity {
            let _ = f.insert(&key(i));
        }
        for i in 0..32 {
            f.delete(&key(i));
        }
        let mut ok = 0;
        for i in capacity..capacity + 16 {
            if f.insert(&key(i)).is_ok() {
                ok += 1;
            }
        }
        assert!(ok > 0, "freed space must be reusable");
    }

    #[test]
    fn duplicate_inserts_are_independent_copies() {
        let mut f = small();
        f.insert(b"dup").unwrap();
        f.insert(b"dup").unwrap();
        assert!(f.delete(b"dup"));
        assert!(f.contains(b"dup"), "second copy must survive one delete");
        assert!(f.delete(b"dup"));
        assert!(!f.contains(b"dup"));
    }

    #[test]
    fn deleting_one_item_never_hides_another() {
        let mut f = small();
        for i in 0..300 {
            f.insert(&key(i)).unwrap();
        }
        for i in 0..100 {
            f.delete(&key(i));
        }
        for i in 100..300 {
            assert!(
                f.contains(&key(i)),
                "item {i} vanished after unrelated deletes"
            );
        }
    }

    #[test]
    fn ivcf_constructor_sets_label_and_r() {
        let f = VerticalCuckooFilter::with_mask_ones(CuckooConfig::new(1 << 16), 3).unwrap();
        assert_eq!(f.name(), "IVCF3");
        // IVCF3 at f=14: r = 1 − 2^-3 − 2^-11 + 2^-14 ≈ 0.8746
        assert!(
            (f.expected_r() - 0.8746).abs() < 1e-3,
            "r={}",
            f.expected_r()
        );
    }

    #[test]
    fn stats_count_inserts_and_kicks() {
        let mut f = small();
        for i in 0..900 {
            let _ = f.insert(&key(i));
        }
        let s = f.stats();
        assert_eq!(s.inserts.calls, 900);
        assert!(s.hash_computations >= 1800);
        assert!(s.inserts.slot_probes > 0);
        // Near-full fills must have triggered evictions.
        assert!(s.kicks > 0);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut f = small();
        f.insert(b"a").unwrap();
        f.reset_stats();
        assert_eq!(f.stats(), Stats::default());
    }

    #[test]
    fn len_and_capacity_consistent() {
        let mut f = small();
        assert_eq!(f.capacity(), 1 << 10);
        assert!(f.is_empty());
        f.insert(b"one").unwrap();
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let run = || {
            let mut f = VerticalCuckooFilter::new(CuckooConfig::new(1 << 8).with_seed(77)).unwrap();
            let mut stored = 0u32;
            for i in 0..1200 {
                if f.insert(&key(i)).is_ok() {
                    stored += 1;
                }
            }
            (stored, f.stats().kicks)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn works_with_every_hash_kind() {
        for kind in HashKind::ALL {
            let mut f =
                VerticalCuckooFilter::new(CuckooConfig::new(1 << 8).with_hash(kind).with_seed(5))
                    .unwrap();
            for i in 0..400 {
                f.insert(&key(i)).unwrap();
            }
            for i in 0..400 {
                assert!(f.contains(&key(i)), "{kind}: item {i} lost");
            }
        }
    }

    #[test]
    fn false_positive_rate_is_bounded() {
        let mut f = VerticalCuckooFilter::new(
            CuckooConfig::new(1 << 12)
                .with_fingerprint_bits(14)
                .with_seed(2),
        )
        .unwrap();
        let n = (f.capacity() as f64 * 0.9) as u64;
        for i in 0..n {
            let _ = f.insert(&key(i));
        }
        let mut false_positives = 0u64;
        let aliens = 100_000u64;
        for i in 0..aliens {
            if f.contains(&key(1_000_000 + i)) {
                false_positives += 1;
            }
        }
        let fpr = false_positives as f64 / aliens as f64;
        // Equ. 10 upper bound: 2(r+1)bα/2^f ≈ 2·2·4·0.9/2^14 ≈ 8.8e-4.
        assert!(fpr < 2.5e-3, "fpr={fpr}");
    }

    #[test]
    fn filter_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VerticalCuckooFilter>();
    }
}
