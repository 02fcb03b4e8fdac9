//! Baseline approximate-membership structures the paper evaluates against.
//!
//! Everything here is implemented from scratch on the same substrates as
//! the VCF family (`vcf-table` storage, `vcf-hash` hash functions), so the
//! comparisons in the benchmark harness measure *algorithms*, not
//! incidental implementation differences:
//!
//! * [`CuckooFilter`] — the standard two-candidate cuckoo filter of Fan et
//!   al. (paper's primary baseline, Equ. 1).
//! * [`DaryCuckooFilter`] — the D-ary cuckoo filter of Xie et al. with
//!   base-4 digit-wise modular offsets ([`base_d`]; the paper's DCF
//!   baseline, d = 4, Equ. 2).
//! * [`BloomFilter`] — the classic Bloom filter (Table I row 1).
//! * [`CountingBloomFilter`] — 4-bit-counter CBF (Table I row 2).
//! * [`DlCountingBloomFilter`] — the d-left counting Bloom filter of
//!   Bonomi et al. (related work, Section II-A).
//! * [`VacuumFilter`] — Wang et al.'s chunked filter (related work \[14\]):
//!   two-candidate cuckoo hashing over non-power-of-two tables.
//!
//! CF, DCF and VF are re-exported from `vcf-core`, where they run as
//! candidate policies on the same engine as the VCF family: they share
//! its insert, eviction walk with rollback, lookup, delete and counters,
//! so a head-to-head measurement isolates the candidate rule.
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

mod bloom;
mod counting_bloom;
mod dlcbf;

pub use bloom::{BloomConfig, BloomFilter};
pub use counting_bloom::CountingBloomFilter;
pub use dlcbf::{DlCbfConfig, DlCountingBloomFilter};
pub use vcf_core::{base_d, CuckooFilter, DaryCuckooFilter, VacuumFilter};
