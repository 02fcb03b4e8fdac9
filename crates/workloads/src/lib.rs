//! Workload generators for the VCF experiments.
//!
//! The paper evaluates on the UCI **HIGGS** dataset: 28 kinematic features
//! per event, with features 3 and 4 merged and the result deduplicated to
//! obtain unique keys. The filters only ever see those keys as opaque byte
//! strings — all structure beyond *uniqueness* is destroyed by hashing —
//! so this crate substitutes a deterministic synthetic generator with the
//! same shape ([`higgs`]), plus generic unique-key streams ([`keys`]),
//! a Zipf sampler for skewed-access extensions ([`zipf`]), and the
//! insert/delete churn traces that model the paper's "online applications
//! wherein the items join and leave frequently" ([`churn`]).
//!
//! Everything is seeded and reproducible.
//!
//! # Examples
//!
//! ```
//! use vcf_workloads::higgs::HiggsDataset;
//!
//! let dataset = HiggsDataset::generate(1000, 42);
//! assert_eq!(dataset.keys().len(), 1000);
//! // Deterministic: same seed, same keys.
//! assert_eq!(dataset.keys()[5], HiggsDataset::generate(1000, 42).keys()[5]);
//! ```

#![forbid(unsafe_code)]

pub mod churn;
pub mod higgs;
pub mod keys;
pub mod zipf;

pub use churn::{ChurnConfig, ChurnTrace, Op};
pub use higgs::{HiggsDataset, HiggsRecord};
pub use keys::KeyStream;
pub use zipf::Zipf;
