//! Candidate-bucket derivation: the vertical hashing kernel.

use crate::bitmask::MaskPair;

/// The (up to four) candidate buckets of an item, in the paper's order
/// `B1, B2, B3, B4` (Equ. 3). Entries may coincide when the masked
/// fragments of `hash(η)` are zero — the paper's "two candidate buckets"
/// degenerate case; lookup deliberately probes all four entries anyway,
/// duplicates included, matching the constant-overhead lookup behaviour
/// reported in Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Candidates {
    /// `[B1, B2, B3, B4]` as bucket indices.
    pub buckets: [usize; 4],
}

impl Candidates {
    /// Number of *distinct* candidate buckets (4, or 2 in the degenerate
    /// case, or 1 when `hash(η)` reduces to zero in the index domain).
    pub fn distinct(&self) -> usize {
        let mut seen = [usize::MAX; 4];
        let mut n = 0;
        for &b in &self.buckets {
            if !seen[..n].contains(&b) {
                seen[n] = b;
                n += 1;
            }
        }
        n
    }

    /// Whether `bucket` is one of the candidates.
    pub fn contains(&self, bucket: usize) -> bool {
        self.buckets.contains(&bucket)
    }

    /// Iterates the four entries (duplicates included).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.buckets.iter().copied()
    }

    /// The smallest candidate bucket index — a member-independent
    /// representative of the coset. Theorem 1 closure means every member
    /// bucket yields the same candidate *set*, so the minimum is the same
    /// no matter which member it is computed from; pairing it with the
    /// fingerprint gives a canonical 64-bit key derivable from stored
    /// bits alone (the freeze-boundary representation used by
    /// `TieredFilter`).
    pub fn canonical_low(&self) -> usize {
        let mut low = self.buckets[0];
        for &b in &self.buckets {
            if b < low {
                low = b;
            }
        }
        low
    }
}

/// Precomputed vertical-hashing parameters for a concrete table geometry:
/// the three XOR offset masks, already restricted to the bucket-index
/// range.
///
/// # Examples
///
/// ```
/// use vcf_core::{MaskPair, VerticalParams};
///
/// let masks = MaskPair::balanced(14)?;
/// let params = VerticalParams::new(masks, 1 << 16);
/// let cands = params.candidates(3, 0xabcd);
/// // Theorem 1: the candidate set is closed under relocation.
/// for &b in &cands.buckets {
///     assert_eq!(params.candidates(b, 0xabcd).distinct(), cands.distinct());
/// }
/// # Ok::<(), vcf_traits::BuildError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerticalParams {
    mask1: u64,
    mask2: u64,
    index_mask: u64,
}

impl VerticalParams {
    /// Builds parameters for a table of `buckets` buckets (must be a power
    /// of two; validated by the filter constructors) using `masks`.
    ///
    /// When the mask domain is wider than the index range the masks are
    /// restricted to the index bits (see [`MaskPair::restricted_to`]); if
    /// the restriction degenerates, the filter behaves like CF for every
    /// item (`r = 0`), which is the paper's own fallback semantics.
    pub fn new(masks: MaskPair, buckets: usize) -> Self {
        debug_assert!(buckets.is_power_of_two());
        let index_bits = buckets.trailing_zeros();
        let index_mask = buckets as u64 - 1;
        match masks.restricted_to(index_bits.max(2)) {
            Some(m) => Self {
                mask1: m.bm1() & index_mask,
                mask2: m.bm2() & index_mask,
                index_mask,
            },
            // Degenerate restriction: fragment 1 vanished; fall back to
            // CF-style hashing (B2 = B3 = B1, B4 = the CF alternate).
            None => Self {
                mask1: 0,
                mask2: index_mask,
                index_mask,
            },
        }
    }

    /// All-ones mask over the bucket-index bits.
    #[inline]
    pub fn index_mask(&self) -> u64 {
        self.index_mask
    }

    /// Effective first fragment mask (within index bits).
    #[inline]
    pub fn mask1(&self) -> u64 {
        self.mask1
    }

    /// Effective second fragment mask (within index bits).
    #[inline]
    pub fn mask2(&self) -> u64 {
        self.mask2
    }

    /// The three XOR offsets for a given fingerprint hash: fragments
    /// `hash(η)∧bm1`, `hash(η)∧bm2` and the full `hash(η)`, all reduced to
    /// the index domain. `o1 ^ o2 == o_full` always holds (complementary
    /// masks), which is what makes the candidate set closed.
    #[inline]
    pub fn offsets(&self, fingerprint_hash: u64) -> (u64, u64, u64) {
        let o1 = fingerprint_hash & self.mask1;
        let o2 = fingerprint_hash & self.mask2;
        (o1, o2, o1 | o2)
    }

    /// Equ. 3: the four candidate buckets of an item whose primary bucket
    /// is `b1` and whose fingerprint hashes to `fingerprint_hash`.
    #[inline]
    pub fn candidates(&self, b1: usize, fingerprint_hash: u64) -> Candidates {
        let (o1, o2, of) = self.offsets(fingerprint_hash);
        let b1 = b1 & self.index_mask as usize;
        Candidates {
            buckets: [b1, b1 ^ o1 as usize, b1 ^ o2 as usize, b1 ^ of as usize],
        }
    }

    /// Equ. 4: the three alternate buckets reachable from `current` for a
    /// resident fingerprint hashing to `fingerprint_hash` — the relocation
    /// rule used by the eviction loop. By Theorem 1 this reaches exactly
    /// the other members of the item's candidate set.
    #[inline]
    pub fn alternates(&self, current: usize, fingerprint_hash: u64) -> [usize; 3] {
        let (o1, o2, of) = self.offsets(fingerprint_hash);
        [
            current ^ o1 as usize,
            current ^ o2 as usize,
            current ^ of as usize,
        ]
    }

    /// CF-compatible two-candidate alternate: `current ⊕ hash(η)` reduced
    /// to the index domain (Equ. 1), as the free `cf_alternate` computes
    /// it.
    #[inline]
    pub fn cf_alternate(&self, current: usize, fingerprint_hash: u64) -> usize {
        cf_alternate(current, fingerprint_hash, self.index_mask)
    }
}

/// Equ. 1: the partial-key alternate `current ⊕ hash(η)` of the standard
/// cuckoo filter, reduced to the index domain — CF's and DVCF's
/// two-candidate rule. It is an involution, so the pair `{B1, B2}` is
/// closed under relocation.
#[inline]
#[must_use]
pub fn cf_alternate(current: usize, fingerprint_hash: u64, index_mask: u64) -> usize {
    current ^ (fingerprint_hash & index_mask) as usize
}

/// Equ. 6: candidate bucket `B_e = B_1 ⊕ (hash(η) ∧ bm_e)` of the
/// generalized k-VCF, reduced to the index domain. `mask` is the
/// per-candidate fragment mask `bm_e` (the zero mask yields `b1`
/// itself).
///
/// This and [`masked_relocate`] are the *only* places k-VCF bucket
/// arithmetic may live: Theorem 2 extends Theorem 1's coset-closure
/// argument to arbitrary mask families, and the proof obligation —
/// relocation never leaves the candidate set — holds exactly because
/// every derivation routes through these two expressions.
#[inline]
#[must_use]
pub fn masked_candidate(b1: usize, fingerprint_hash: u64, mask: u64, index_mask: u64) -> usize {
    b1 ^ (fingerprint_hash & mask & index_mask) as usize
}

/// Equ. 7: relocation from candidate `g` (bucket `bg`) to candidate `e`
/// of the generalized k-VCF: `B_e = B_g ⊕ ((hash(η) ∧ bm_g) ⊕
/// (hash(η) ∧ bm_e))`, reduced to the index domain.
///
/// By Theorem 2, composing this with [`masked_candidate`] satisfies
/// `masked_relocate(masked_candidate(b1, h, bm_g, m), h, bm_g, bm_e, m)
/// == masked_candidate(b1, h, bm_e, m)` — relocation is closed over the
/// candidate coset.
#[inline]
#[must_use]
pub fn masked_relocate(
    bg: usize,
    fingerprint_hash: u64,
    mask_g: u64,
    mask_e: u64,
    index_mask: u64,
) -> usize {
    bg ^ (((fingerprint_hash & mask_g) ^ (fingerprint_hash & mask_e)) & index_mask) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcf_hash::mix64;

    fn params() -> VerticalParams {
        VerticalParams::new(MaskPair::balanced(14).unwrap(), 1 << 16)
    }

    #[test]
    fn candidate_zero_offset_collapse() {
        let p = params();
        // hash(η) = 0 in the index domain: all four candidates coincide.
        let c = p.candidates(123, 0);
        assert_eq!(c.distinct(), 1);
        assert!(c.iter().all(|b| b == 123));
    }

    #[test]
    fn degenerate_two_candidates_when_one_fragment_zero() {
        let p = params();
        // Fingerprint hash with bits only in mask2's range.
        let h = p.mask2();
        assert_ne!(h, 0);
        let c = p.candidates(0, h);
        assert_eq!(
            c.distinct(),
            2,
            "only B1 and B1^h should be distinct: {c:?}"
        );
    }

    #[test]
    fn offsets_satisfy_xor_identity() {
        let p = params();
        for i in 0..1000u64 {
            let h = mix64(i).wrapping_mul(0x9e37);
            let (o1, o2, of) = p.offsets(h);
            assert_eq!(o1 ^ o2, of);
            assert_eq!(o1 & o2, 0, "fragments must be disjoint");
        }
    }

    #[test]
    fn candidates_stay_in_range() {
        let buckets = 1 << 10;
        let p = VerticalParams::new(MaskPair::balanced(14).unwrap(), buckets);
        for i in 0..5000u64 {
            let h = mix64(i);
            for b in p.candidates((i as usize) % buckets, h).iter() {
                assert!(b < buckets);
            }
        }
    }

    #[test]
    fn four_distinct_frequency_matches_expected_r() {
        // Empirical P(4 distinct candidates) over random fingerprint
        // hashes must match Equ. 8 computed on the *effective* domain.
        let buckets = 1usize << 16; // index_bits=16 > domain 14: no loss
        let masks = MaskPair::balanced(14).unwrap();
        let p = VerticalParams::new(masks, buckets);
        let trials = 200_000u64;
        let mut four = 0u64;
        for i in 0..trials {
            // restrict to the 14-bit domain like a real fingerprint hash
            let h = mix64(i);
            if p.candidates(0, h).distinct() == 4 {
                four += 1;
            }
        }
        let measured = four as f64 / trials as f64;
        let expected = masks.expected_r();
        assert!(
            (measured - expected).abs() < 0.01,
            "measured {measured}, Equ.8 gives {expected}"
        );
    }

    #[test]
    fn small_table_falls_back_gracefully() {
        // 4 buckets → 2 index bits; balanced 14-bit masks restrict to 2 bits.
        let p = VerticalParams::new(MaskPair::balanced(14).unwrap(), 4);
        for h in 0..64u64 {
            for b in p.candidates(1, h).iter() {
                assert!(b < 4);
            }
        }
    }

    #[test]
    fn theorem2_masked_relocation_closure() {
        // Theorem 2: for any mask family {bm_e}, relocating from
        // candidate g to candidate e lands exactly on masked_candidate's
        // bucket for e — the generalized coset is closed.
        let index_mask = (1u64 << 12) - 1;
        let masks = [0u64, 0x0f3, 0xa0c, 0x5a5, 0xfff];
        for i in 0..2000u64 {
            let h = mix64(i);
            let b1 = (mix64(i ^ 0xdead) & index_mask) as usize;
            for g in 0..masks.len() {
                let bg = masked_candidate(b1, h, masks[g], index_mask);
                for e in 0..masks.len() {
                    let via_relocate = masked_relocate(bg, h, masks[g], masks[e], index_mask);
                    let direct = masked_candidate(b1, h, masks[e], index_mask);
                    assert_eq!(via_relocate, direct, "h={h:#x} g={g} e={e}");
                }
            }
        }
    }

    #[test]
    fn masked_candidate_generalizes_equ3() {
        // With the pair masks (0, bm1, bm2, bm1|bm2) the generalized
        // Equ. 6 reproduces the four Equ. 3 candidates.
        let p = params();
        let index_mask = (1u64 << 16) - 1;
        for i in 0..500u64 {
            let h = mix64(i);
            let c = p.candidates(77, h);
            let family = [0u64, p.mask1(), p.mask2(), p.mask1() | p.mask2()];
            for (e, &m) in family.iter().enumerate() {
                assert_eq!(c.buckets[e], masked_candidate(77, h, m, index_mask));
            }
        }
    }

    #[test]
    fn distinct_counts_duplicates_correctly() {
        let c = Candidates {
            buckets: [1, 1, 2, 2],
        };
        assert_eq!(c.distinct(), 2);
        let c = Candidates {
            buckets: [5, 5, 5, 5],
        };
        assert_eq!(c.distinct(), 1);
        let c = Candidates {
            buckets: [1, 2, 3, 4],
        };
        assert_eq!(c.distinct(), 4);
    }
}
