//! Bit-packed bucket/slot tables — the storage substrate shared by every
//! cuckoo-family filter in this workspace.
//!
//! The paper's filters are all "a table of `m` buckets, each of which
//! contains `b` slots", where each slot stores an `f`-bit fingerprint
//! (Section II-B). For k-VCF each slot additionally carries a *mark* field
//! recording which bitmask produced the fingerprint's current residence
//! (Section III-C). This crate provides:
//!
//! * [`PackedTable`] — a raw bit-packed array of fixed-width slots,
//! * [`FingerprintTable`] — the one sequential slot table. Each slot is
//!   a lane `mark << f | fingerprint` whose mark field has a width fixed
//!   at construction: none for CF, DCF, VCF, IVCF, DVCF and the elastic
//!   segments, `ceil(log2(k))` bits for k-VCF. The cuckoo engine in
//!   `vcf-core` drives every variant through it,
//! * [`AtomicFingerprintTable`] — its lock-free sibling over `AtomicU64`
//!   words, with CAS-based slot claim/replace for concurrent filters
//!   (`ConcurrentVcf` in `vcf-core`).
//!
//! Both slot tables share one bucket layout and one set of probes: a
//! bucket of `b` lanes of `w` bits is `⌈b / ⌊64/w⌋⌉` words, each holding
//! whole lanes from bit 0, so no lane straddles a word. A probe tests all
//! lanes of a word with one SWAR broadcast-compare, and a lane can be
//! claimed or replaced with a single-word CAS, at every geometry.
//!
//! All tables use a zero fingerprint field as the empty-slot sentinel, so
//! the filter layer maps real fingerprints into `1..2^f` (the standard
//! trick from the reference cuckoo filter implementation).
//!
//! # Examples
//!
//! ```
//! use vcf_table::FingerprintTable;
//!
//! let mut table = FingerprintTable::new(8, 4, 12)?;
//! assert!(table.try_insert(3, 0x5a5).is_some());
//! assert!(table.contains(3, 0x5a5));
//! assert!(table.remove_one(3, 0x5a5));
//! assert!(!table.contains(3, 0x5a5));
//! # Ok::<(), vcf_traits::BuildError>(())
//! ```

// No `#![forbid(unsafe_code)]` here: the cfg-gated prefetch intrinsic in
// `prefetch.rs` carries a scoped `#[allow(unsafe_code)]` item against the
// workspace's `deny`; everything else in the crate still rejects `unsafe`.

mod atomic_bucket;
mod bucket;
mod fingerprint;
mod packed;
mod prefetch;

pub use atomic_bucket::AtomicFingerprintTable;
pub use bucket::MAX_LANE_BITS;
pub use fingerprint::FingerprintTable;
pub use packed::PackedTable;

/// Maximum supported slots per bucket.
pub const MAX_BUCKET_SLOTS: usize = 8;

/// Maximum supported fingerprint width in bits.
pub const MAX_FINGERPRINT_BITS: u32 = 32;

/// Minimum supported fingerprint width in bits.
pub const MIN_FINGERPRINT_BITS: u32 = 2;
