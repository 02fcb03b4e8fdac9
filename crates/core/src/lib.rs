//! # Vertical Cuckoo Filters
//!
//! A from-scratch implementation of the filter family introduced by
//! *"The Vertical Cuckoo Filters: A Family of Insertion-friendly Sketches
//! for Online Applications"* (ICDCS 2021):
//!
//! * [`VerticalCuckooFilter`] — the VCF: four candidate buckets per item
//!   derived by **vertical hashing** (Section III). Configuring the bitmask
//!   ones-count yields the paper's **IVCF** variants (Section IV-A).
//! * [`Dvcf`] — the Differentiated VCF: a fingerprint-value threshold `Δt`
//!   decides per item between four candidates (VCF rule) and two
//!   candidates (CF rule), making the trade-off knob `r` continuous
//!   (Section IV-B, Algorithms 4–6).
//! * [`KVcf`] — the generalized k-VCF with `k ≥ 4` candidate buckets and
//!   per-slot mark bits (Section III-C, Theorem 2).
//! * [`CuckooFilter`] — the standard two-candidate CF (Equ. 1), the
//!   paper's baseline.
//! * [`DaryCuckooFilter`] — the D-ary cuckoo filter (Equ. 2, `d = 4`),
//!   the paper's DCF baseline, over [`base_d`] digit arithmetic.
//! * [`VacuumFilter`] — the chunked two-candidate Vacuum filter
//!   (related work \[14\]) over non-power-of-two tables.
//!
//! All six are aliases of one engine, [`CuckooCore`], over a
//! [`CandidatePolicy`] that derives the candidate buckets; insertion,
//! the random-walk eviction with rollback, lookup and deletion exist
//! once. `vcf-baselines` re-exports the three baselines.
//!
//! ## Vertical hashing in one paragraph
//!
//! A cuckoo filter stores an `f`-bit fingerprint `η` of each item and must
//! be able to move that fingerprint between its candidate buckets *without
//! access to the original item*. Standard CF supports exactly two
//! candidates (`B2 = B1 ⊕ hash(η)`). Vertical hashing splits `hash(η)`
//! with two complementary bitmasks `bm1 = ¬bm2` into fragments and XORs
//! each fragment (and their union) onto the bucket index:
//!
//! ```text
//! B1 = hash(x)          B2 = B1 ⊕ (hash(η) ∧ bm1)
//! B4 = B1 ⊕ hash(η)     B3 = B1 ⊕ (hash(η) ∧ bm2)
//! ```
//!
//! The set `{B1, B2, B3, B4}` is closed under these offsets (Theorem 1),
//! so any resident fingerprint can be relocated to any of its alternates
//! knowing only its current bucket and stored bits — the property that
//! makes the eviction cascade cheap and rare.
//!
//! ## Quick start
//!
//! ```
//! use vcf_core::{CuckooConfig, VerticalCuckooFilter};
//! use vcf_traits::Filter;
//!
//! let mut filter = VerticalCuckooFilter::new(CuckooConfig::new(1 << 10))?;
//! filter.insert(b"alice")?;
//! assert!(filter.contains(b"alice"));
//! assert!(filter.delete(b"alice"));
//! assert!(!filter.contains(b"alice"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Base-`d` digit-wise modular arithmetic behind DCF's Equ. 2.
pub mod base_d;
mod bitmask;
mod cf;
mod concurrent;
mod config;
mod cuckoo;
mod dcf;
mod dvcf;
mod kvcf;
mod scalable;
mod sharded;
/// Versioned binary persistence: `VCF1`/`VCK1` filter snapshots and the
/// `FUZ1` frozen-generation record.
pub mod snapshot;
mod tiered;
mod vacuum;
mod vcf;
mod vertical;

pub use bitmask::MaskPair;
pub use cf::{CfPolicy, CuckooFilter};
pub use concurrent::ConcurrentVcf;
pub use config::CuckooConfig;
pub use cuckoo::{CandidatePolicy, CuckooCore};
pub use dcf::{DaryCuckooFilter, DcfPolicy};
pub use dvcf::{Dvcf, DvcfPolicy};
pub use kvcf::{KVcf, KVcfPolicy};
pub use scalable::{MigrationStats, ScalableVcf};
pub use sharded::{ShardRouter, ShardedConcurrentVcf, ShardedScalableVcf, ShardedVcf};
pub use snapshot::SnapshotError;
pub use tiered::{RotationStats, TieredFilter};
pub use vacuum::{VacuumFilter, VacuumPolicy};
pub use vcf::{VcfPolicy, VerticalCuckooFilter};
pub use vertical::{Candidates, VerticalParams};

pub(crate) mod key {
    //! Key-to-(fingerprint, index) derivation shared by the whole family.

    use vcf_hash::HashKind;

    /// Derives the `f`-bit fingerprint and the primary bucket index from
    /// one 64-bit hash of the item: the fingerprint comes from the high
    /// half, the index from the low half, so the two stay (nearly)
    /// independent even for small tables.
    ///
    /// A zero fingerprint is remapped to 1 because zero is the empty-slot
    /// sentinel in `vcf-table`.
    #[inline]
    pub fn derive(h: u64, fingerprint_bits: u32, index_mask: u64) -> (u32, usize) {
        (fingerprint(h, fingerprint_bits), (h & index_mask) as usize)
    }

    /// The `f`-bit fingerprint half of [`derive`].
    #[inline]
    pub fn fingerprint(h: u64, fingerprint_bits: u32) -> u32 {
        let fp_mask = if fingerprint_bits == 32 {
            u32::MAX
        } else {
            (1u32 << fingerprint_bits) - 1
        };
        let fp = ((h >> 32) as u32) & fp_mask;
        fp.max(1)
    }

    /// Hashes an item with `kind` and derives `(fingerprint, primary
    /// bucket)`.
    #[inline]
    pub fn hash_item(
        kind: HashKind,
        item: &[u8],
        fingerprint_bits: u32,
        index_mask: u64,
    ) -> (u32, usize) {
        derive(kind.hash64(item), fingerprint_bits, index_mask)
    }
}

#[cfg(test)]
mod tests {
    use super::key;

    #[test]
    fn zero_fingerprint_is_remapped() {
        // Craft h with zero high half: fingerprint must become 1.
        let (fp, _) = key::derive(0x0000_0000_1234_5678, 14, 0xff);
        assert_eq!(fp, 1);
    }

    #[test]
    fn index_uses_low_bits() {
        let (_, idx) = key::derive(0xabcd_ef01_0000_00ff, 14, 0x3f);
        assert_eq!(idx, 0x3f);
    }

    #[test]
    fn fingerprint_uses_high_bits() {
        let (fp, _) = key::derive(0x0000_3fff_0000_0000, 14, 0xff);
        assert_eq!(fp, 0x3fff);
    }

    #[test]
    fn full_width_fingerprint_supported() {
        let (fp, _) = key::derive(u64::MAX, 32, 0xff);
        assert_eq!(fp, u32::MAX);
    }
}
