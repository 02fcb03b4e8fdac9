//! Baseline approximate-membership structures the paper evaluates against.
//!
//! Everything here is implemented from scratch on the same substrates as
//! the VCF family (`vcf-table` storage, `vcf-hash` hash functions), so the
//! comparisons in the benchmark harness measure *algorithms*, not
//! incidental implementation differences:
//!
//! * [`CuckooFilter`] — the standard two-candidate cuckoo filter of Fan et
//!   al. (paper's primary baseline, Equ. 1), re-exported from `vcf-core`,
//!   where it runs on the same engine as the VCF family.
//! * [`DaryCuckooFilter`] — the D-ary cuckoo filter of Xie et al. with
//!   base-`d` digit-wise modular offsets (the paper's DCF baseline, d = 4,
//!   Equ. 2).
//! * [`BloomFilter`] — the classic Bloom filter (Table I row 1).
//! * [`CountingBloomFilter`] — 4-bit-counter CBF (Table I row 2).
//! * [`DlCountingBloomFilter`] — the d-left counting Bloom filter of
//!   Bonomi et al. (related work, Section II-A).
//! * [`QuotientFilter`] — the quotient filter of Bender et al. (related
//!   work, Section I).
//! * [`AdaptiveCuckooFilter`] — Mitzenmacher et al.'s ACF (related work
//!   [10]): detected false positives are adapted away at run time.
//! * [`VacuumFilter`] — Wang et al.'s chunked filter (related work [14]):
//!   two-candidate cuckoo hashing over non-power-of-two tables.
//!
//! # Examples
//!
//! ```
//! use vcf_baselines::CuckooFilter;
//! use vcf_core::CuckooConfig;
//! use vcf_traits::Filter;
//!
//! let mut cf = CuckooFilter::new(CuckooConfig::new(1 << 10))?;
//! cf.insert(b"hello")?;
//! assert!(cf.contains(b"hello"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
pub mod base_d;
mod bloom;
mod counting_bloom;
mod dary;
mod dlcbf;
mod quotient;
mod vacuum;

pub use adaptive::AdaptiveCuckooFilter;
pub use bloom::{BloomConfig, BloomFilter};
pub use counting_bloom::CountingBloomFilter;
pub use dary::DaryCuckooFilter;
pub use dlcbf::{DlCbfConfig, DlCountingBloomFilter};
pub use quotient::QuotientFilter;
pub use vacuum::VacuumFilter;
pub use vcf_core::CuckooFilter;
