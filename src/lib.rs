//! # vertical-cuckoo-filters
//!
//! Facade crate for the Vertical Cuckoo Filter workspace — a from-scratch
//! Rust reproduction of *"The Vertical Cuckoo Filters: A Family of
//! Insertion-friendly Sketches for Online Applications"* (ICDCS 2021).
//!
//! Each member crate is re-exported under a short module name; the
//! [`prelude`] pulls in the handful of types most applications need.
//!
//! ```
//! use vertical_cuckoo_filters::prelude::*;
//!
//! let mut filter = VerticalCuckooFilter::new(CuckooConfig::new(1 << 10))?;
//! filter.insert(b"key")?;
//! assert!(filter.contains(b"key"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`vcf`] | `vcf-core` | VCF, IVCF, DVCF, k-VCF, sharded variants, snapshots |
//! | [`baselines`] | `vcf-baselines` | CF, DCF, Vacuum filter, Bloom, CBF, dlCBF |
//! | [`table`] | `vcf-table` | bit-packed slot storage |
//! | [`hash`] | `vcf-hash` | FNV, MurmurHash3, DJB2, SplitMix64 |
//! | [`traits`] | `vcf-traits` | the `Filter` trait, errors, stats |
//! | [`workloads`] | `vcf-workloads` | HIGGS-like datasets, key streams, churn traces |
//! | [`analysis`] | `vcf-analysis` | Section V analytic model |
//! | [`sketches`] | `vcf-sketches` | vertical-hashing Count-Min sketch, binary fuse filters |

#![forbid(unsafe_code)]

pub use vcf_analysis as analysis;
pub use vcf_baselines as baselines;
pub use vcf_core as vcf;
pub use vcf_hash as hash;
pub use vcf_sketches as sketches;
pub use vcf_table as table;
pub use vcf_traits as traits;
pub use vcf_workloads as workloads;

/// Hot/cold tiered filter in the working configuration: a `ScalableVcf`
/// hot tier rotating into frozen 8-bit binary fuse generations
/// (ε ≈ 2⁻⁸ cold tier at ~9 bits/key).
pub type TieredVcf = vcf_core::TieredFilter<vcf_sketches::BinaryFuse8>;

/// Tiered filter with 16-bit fuse lanes: a lower cold-tier false
/// positive rate (ε ≈ 2⁻¹⁶) at ~18 bits/key.
pub type TieredVcf16 = vcf_core::TieredFilter<vcf_sketches::BinaryFuse16>;

/// The types most applications need, in one import.
pub mod prelude {
    pub use crate::{TieredVcf, TieredVcf16};
    pub use vcf_baselines::CuckooFilter;
    pub use vcf_core::{
        ConcurrentVcf, CuckooConfig, Dvcf, KVcf, ScalableVcf, ShardedConcurrentVcf,
        ShardedScalableVcf, ShardedVcf, TieredFilter, VerticalCuckooFilter,
    };
    pub use vcf_hash::HashKind;
    pub use vcf_sketches::{BinaryFuse16, BinaryFuse8};
    pub use vcf_traits::{
        BuildError, ConcurrentFilter, Filter, FilterExt, FrozenBuilder, FrozenSet, InsertError,
        Stats,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_the_basics() {
        let mut filter =
            VerticalCuckooFilter::new(CuckooConfig::new(64).with_hash(HashKind::Djb2)).unwrap();
        filter.insert(b"a").unwrap();
        assert!(filter.contains(b"a"));
        let keys: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i]).collect();
        assert_eq!(
            filter.insert_best_effort(keys.iter().map(Vec::as_slice)),
            10
        );
    }

    #[test]
    fn tiered_alias_rotates_end_to_end() {
        let mut filter = TieredVcf::new(CuckooConfig::new(1 << 8)).unwrap();
        for i in 0..500u32 {
            filter.insert(&i.to_le_bytes()).unwrap();
        }
        assert!(filter.rotate());
        while filter.rotation_backlog() > 0 {
            filter.rotate_step(64);
        }
        assert_eq!(filter.generations(), 1);
        for i in 0..500u32 {
            assert!(filter.contains(&i.to_le_bytes()), "key {i} lost");
        }
    }
}
