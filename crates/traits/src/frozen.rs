//! The freeze surface: immutable frozen generations and their
//! incremental builders.
//!
//! A churn-heavy filter earns its cuckoo machinery while data is *hot*;
//! a generation that has stopped mutating pays cuckoo rent (partial
//! occupancy, eviction headroom, per-slot alignment) forever. The traits
//! here let a mutable filter drain its stored fingerprints into an
//! immutable *frozen set* — typically a binary fuse filter, ~25% smaller
//! and faster to query than any cuckoo variant for the same error rate.
//! `vcf_core::TieredFilter` rotates its hot tiers into such sets; these
//! stay traits so its tests can substitute an exact set for the fuse.
//!
//! Keys cross the freeze boundary as **canonical keys**: 64-bit values a
//! cuckoo-family filter can derive from its *stored bits alone* (bucket
//! coset + fingerprint, Theorem 1), so freezing never needs the original
//! items — the paper's partial-key invariant extended to the lifecycle.

use crate::BuildError;

/// An immutable approximate-membership set over 64-bit canonical keys.
///
/// Frozen sets are built once — via the incremental [`FrozenBuilder`] —
/// and never mutated: no inserts, no deletes, no false negatives for any
/// key that was staged. Queries may return false positives at a rate of
/// roughly `2^-fingerprint_bits` (plus whatever identity collisions the
/// canonical-key derivation already carries).
pub trait FrozenSet: Sized {
    /// The staged, incremental construction state for this set.
    type Builder: FrozenBuilder<Set = Self>;

    /// Starts an empty builder. `seed` makes construction deterministic;
    /// implementations may internally advance it when a construction
    /// attempt fails (e.g. binary-fuse peeling retries).
    fn begin(seed: u64) -> Self::Builder;

    /// Membership test for a canonical key. No false negatives for
    /// staged keys.
    fn contains_key(&self, key: u64) -> bool;

    /// Batched membership: one answer per key, in order. The default
    /// delegates to [`contains_key`](Self::contains_key); implementations
    /// override with a two-pass early-touch pipeline so lane loads
    /// overlap instead of serialising on cache misses.
    fn contains_keys(&self, keys: &[u64]) -> Vec<bool> {
        // lint: allow(panic-reachability) — dispatch to an implementor of
        // this very trait; impls live above this crate (vcf-sketches) and
        // their lookup paths carry their own hot-path annotations
        keys.iter().map(|&k| self.contains_key(k)).collect()
    }

    /// Number of distinct canonical keys frozen into the set.
    fn len(&self) -> usize;

    /// Whether the set holds no keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes backing the set — the numerator of the bits-per-item
    /// comparison against the mutable tier.
    fn storage_bytes(&self) -> usize;

    /// Width of the stored per-key fingerprint in bits; the structural
    /// false-positive rate is ≈ `2^-fingerprint_bits`.
    fn fingerprint_bits(&self) -> u32;
}

/// Incremental construction of a [`FrozenSet`], split into bounded work
/// units so a rotation never blocks a serving thread on a full build.
///
/// Lifecycle: [`push`](Self::push) every canonical key (duplicates are
/// deduplicated internally — a frozen generation has set semantics),
/// then [`seal`](Self::seal), then call [`step`](Self::step) until
/// [`backlog`](Self::backlog) reaches zero, then [`finish`](Self::finish).
pub trait FrozenBuilder {
    /// The set this builder produces.
    type Set;

    /// Stages one canonical key. O(1) amortized; duplicate keys are
    /// ignored. Must not be called after [`seal`](Self::seal).
    fn push(&mut self, key: u64);

    /// Marks staging complete; construction work becomes available to
    /// [`step`](Self::step).
    fn seal(&mut self);

    /// Performs at most `units` bounded chunks of construction work and
    /// returns the number actually performed (0 once construction is
    /// complete, or before the builder is sealed). Each unit touches a
    /// bounded number of staged keys, so callers can amortize a build
    /// across serving operations exactly like segment migration.
    fn step(&mut self, units: usize) -> usize;

    /// Estimated construction work units remaining (0 ⇔ the build is
    /// complete and [`finish`](Self::finish) will succeed). A sealed
    /// builder whose construction attempt failed internally re-seeds and
    /// restarts, so the backlog can grow transiently; it reaches zero
    /// with probability 1 for distinct staged keys.
    fn backlog(&self) -> usize;

    /// Number of distinct keys staged so far.
    fn staged(&self) -> usize;

    /// Consumes the builder and returns the finished set.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when called before construction is
    /// complete ([`backlog`](Self::backlog) non-zero).
    fn finish(self) -> Result<Self::Set, BuildError>;
}
