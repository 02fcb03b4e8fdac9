//! Common traits and error types shared by every approximate-membership
//! (AMQ) filter in this workspace.
//!
//! The [`Filter`] trait gives the benchmark harness, the integration tests
//! and the examples a single uniform surface over the Vertical Cuckoo
//! filter family (`vcf-core`) and all baselines (`vcf-baselines`): standard
//! Cuckoo, D-ary Cuckoo, Bloom, Counting Bloom and d-left Counting Bloom
//! filters.
//!
//! Items are opaque byte strings (`&[u8]`). Every filter in the workspace
//! hashes the raw bytes with one of the from-scratch hash functions in
//! `vcf-hash`, exactly as the paper's evaluation does with the (serialized)
//! HIGGS records.
//!
//! # Examples
//!
//! ```
//! use vcf_traits::{Filter, InsertError};
//!
//! fn fill(filter: &mut dyn Filter, keys: &[Vec<u8>]) -> Result<usize, InsertError> {
//!     let mut stored = 0;
//!     for key in keys {
//!         filter.insert(key)?;
//!         stored += 1;
//!     }
//!     Ok(stored)
//! }
//! ```

#![forbid(unsafe_code)]

use core::fmt;

mod concurrent;
mod counters;
mod ext;
mod frozen;
mod service;
mod stats;

pub use concurrent::ConcurrentFilter;
pub use counters::Counters;
pub use ext::FilterExt;
pub use frozen::{FrozenBuilder, FrozenSet};
pub use service::BatchOpKind;
pub use stats::{OpCounters, Stats};

/// Error returned when an item cannot be inserted.
///
/// For cuckoo-family filters this happens when the eviction cascade reaches
/// the configured kick limit (`MAX` in the paper, 500 in its evaluation);
/// the filter is then "considered too full to insert more items"
/// (Algorithm 1). For counting filters it signals counter saturation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum InsertError {
    /// The eviction cascade hit the kick limit; the filter is effectively
    /// full. `kicks` reports how many relocations were attempted for this
    /// insertion before giving up.
    Full {
        /// Number of fingerprint relocations attempted before giving up.
        kicks: u64,
    },
    /// A counter in a counting filter would overflow its field width.
    CounterOverflow,
}

impl fmt::Display for InsertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InsertError::Full { kicks } => {
                write!(
                    f,
                    "filter is too full to insert (gave up after {kicks} relocations)"
                )
            }
            InsertError::CounterOverflow => write!(f, "counter field would overflow"),
        }
    }
}

impl std::error::Error for InsertError {}

/// Error returned by filter constructors when the requested geometry is
/// invalid (e.g. a bucket count that is not a power of two, or a
/// fingerprint width of zero).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// The bucket count must be a power of two (cuckoo family) or a power
    /// of `d` (D-ary cuckoo filter).
    InvalidBucketCount {
        /// The rejected bucket count.
        got: usize,
        /// Human-readable requirement, e.g. `"a power of two"`.
        requirement: &'static str,
    },
    /// The fingerprint width in bits is outside the supported range.
    InvalidFingerprintBits {
        /// The rejected width.
        got: u32,
        /// Supported minimum (inclusive).
        min: u32,
        /// Supported maximum (inclusive).
        max: u32,
    },
    /// The number of slots per bucket is outside the supported range.
    InvalidBucketSize {
        /// The rejected slots-per-bucket value.
        got: usize,
    },
    /// A configuration parameter combination is inconsistent.
    InvalidConfig {
        /// Explanation of the inconsistency.
        reason: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::InvalidBucketCount { got, requirement } => {
                write!(f, "invalid bucket count {got}: must be {requirement}")
            }
            BuildError::InvalidFingerprintBits { got, min, max } => {
                write!(
                    f,
                    "invalid fingerprint width {got} bits: supported range is {min}..={max}"
                )
            }
            BuildError::InvalidBucketSize { got } => {
                write!(
                    f,
                    "invalid bucket size {got}: must be between 1 and 8 slots"
                )
            }
            BuildError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// A dynamic set-membership sketch over opaque byte keys.
///
/// All implementations in this workspace guarantee **no false negatives**:
/// an item that has been inserted (and not deleted) is always reported
/// present. False positives occur at a structure-specific, tunable rate.
///
/// Deletion support varies: plain Bloom filters return `false` from
/// [`supports_deletion`](Filter::supports_deletion) and ignore deletes;
/// every other structure deletes for real.
pub trait Filter {
    /// Inserts `item` into the filter.
    ///
    /// # Errors
    ///
    /// Returns [`InsertError::Full`] when the structure cannot accommodate
    /// the item (cuckoo eviction limit reached), or
    /// [`InsertError::CounterOverflow`] for saturated counting filters.
    fn insert(&mut self, item: &[u8]) -> Result<(), InsertError>;

    /// Inserts many items at once, returning one result per item in
    /// order. Equivalent to calling [`insert`](Filter::insert) on each
    /// item — including on failure: an [`InsertError::Full`] for one item
    /// does not stop the batch, exactly as a serial loop that records
    /// per-item results would behave.
    ///
    /// Table-backed implementations override this with a pipelined
    /// two-phase pass: hash a window of keys and prefetch all their
    /// candidate buckets first, then place fingerprints against warm
    /// cache lines. Overrides must preserve the serial semantics bit for
    /// bit (same final table state, same per-item results) so the
    /// differential tests in `tests/insert_batch_differential.rs` hold.
    fn insert_batch(&mut self, items: &[&[u8]]) -> Vec<Result<(), InsertError>> {
        items.iter().map(|item| self.insert(item)).collect()
    }

    /// Tests membership of `item`. May return false positives, never false
    /// negatives.
    fn contains(&self, item: &[u8]) -> bool;

    /// Tests membership of many items at once, returning one answer per
    /// item in order. Equivalent to calling [`contains`](Filter::contains)
    /// on each item; table-backed implementations override this with a
    /// two-pass probe (hash all candidate buckets first, then probe) so
    /// bucket loads overlap instead of serialising on cache misses.
    fn contains_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        items.iter().map(|item| self.contains(item)).collect()
    }

    /// Removes one copy of `item`; returns `true` if a matching entry was
    /// found and removed.
    ///
    /// Filters that do not support deletion return `false` without
    /// modifying the structure.
    fn delete(&mut self, item: &[u8]) -> bool;

    /// Number of entries currently stored (for Bloom filters: number of
    /// successful insertions).
    fn len(&self) -> usize;

    /// Returns `true` when no entries are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entry capacity (`m * b` slots for cuckoo-family filters,
    /// the design capacity for Bloom-family filters).
    fn capacity(&self) -> usize;

    /// Current load factor `α = len / capacity`.
    fn load_factor(&self) -> f64 {
        if self.capacity() == 0 {
            0.0
        } else {
            self.len() as f64 / self.capacity() as f64
        }
    }

    /// Whether this structure supports true deletion.
    fn supports_deletion(&self) -> bool {
        true
    }

    /// Snapshot of the operation counters (probes, kicks, hash calls).
    fn stats(&self) -> Stats;

    /// Resets the operation counters (does not touch stored items).
    fn reset_stats(&mut self);

    /// Short human-readable name used by the benchmark harness, e.g.
    /// `"CF"`, `"IVCF4"`, `"DVCF3"`.
    fn name(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_error_display_mentions_kicks() {
        let err = InsertError::Full { kicks: 500 };
        let text = err.to_string();
        assert!(
            text.contains("500"),
            "display should include kick count: {text}"
        );
    }

    #[test]
    fn insert_error_counter_overflow_display() {
        let text = InsertError::CounterOverflow.to_string();
        assert!(text.contains("overflow"));
    }

    #[test]
    fn build_error_display_variants() {
        let e = BuildError::InvalidBucketCount {
            got: 7,
            requirement: "a power of two",
        };
        assert!(e.to_string().contains("7"));
        let e = BuildError::InvalidFingerprintBits {
            got: 99,
            min: 2,
            max: 32,
        };
        assert!(e.to_string().contains("99"));
        let e = BuildError::InvalidBucketSize { got: 0 };
        assert!(e.to_string().contains("0"));
        let e = BuildError::InvalidConfig {
            reason: "bm1 must equal !bm2".into(),
        };
        assert!(e.to_string().contains("bm1"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<InsertError>();
        assert_send_sync::<BuildError>();
    }

    #[test]
    fn insert_error_is_std_error() {
        fn takes_err<E: std::error::Error>(_: E) {}
        takes_err(InsertError::Full { kicks: 1 });
        takes_err(BuildError::InvalidBucketSize { got: 9 });
    }
}
