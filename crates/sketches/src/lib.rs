//! Vertical-hashing variants of classic frequency sketches.
//!
//! Section III-C of the VCF paper observes that "most current sketch data
//! structures, such as Count-Min Sketch […] have to execute two or more
//! hash calculations to index the corresponding blocks. By contrast,
//! k-VCF only requires one hash computation", and positions generalized
//! vertical hashing as "a methodology to replace independent hash
//! functions used by other sketches while still guaranteeing the
//! randomness of the output."
//!
//! This crate realizes that claim:
//!
//! * [`ClassicCountMin`] — the textbook Count-Min sketch (Cormode &
//!   Muthukrishnan 2005) with `d` independent row hashes.
//! * [`VerticalCountMin`] — a Count-Min sketch whose `d` row columns are
//!   all derived from **one** hash computation via generalized vertical
//!   hashing (Equ. 6): row `e` uses column `c1 ⊕ (hᶠ ∧ bm_e)`.
//!
//! * [`VerticalBloomFilter`] — a Bloom filter whose `k` probe positions
//!   come from one hash computation via the same masking trick.
//!
//! All variants keep their structural guarantees (Count-Min never
//! undercounts; Bloom never false-negatives); the tests and the
//! `sketch_ablation` bench quantify the accuracy/speed trade.
//!
//! The crate also hosts the **frozen tier** of the filter lifecycle:
//!
//! * [`BinaryFuse8`] / [`BinaryFuse16`] — immutable 3-wise binary fuse
//!   filters built incrementally ([`FuseBuilder`]) from a VCF's
//!   canonical coset keys, ~9 (resp. ~18) bits/key — the generation
//!   type behind `vcf-core`'s `TieredFilter`.

#![forbid(unsafe_code)]

mod bloom_vertical;
mod count_min;
mod fuse;

pub use bloom_vertical::VerticalBloomFilter;
pub use count_min::{ClassicCountMin, CountMin, VerticalCountMin};
pub use fuse::{BinaryFuse, BinaryFuse16, BinaryFuse8, FuseBuilder, FuseLane};
