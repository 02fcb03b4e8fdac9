//! Hot/cold tiering: one mutable [`ScalableVcf`] hot tier plus N
//! immutable frozen generations behind the plain [`Filter`] API.
//!
//! VCF earns its insertion-friendliness on churn-heavy hot data; a
//! generation that has stopped mutating pays cuckoo rent (partial
//! occupancy, eviction headroom) forever. [`TieredFilter`] closes that
//! gap: inserts and deletes hit the hot tier only, lookups fan across
//! all generations newest-first, and an explicit
//! [`rotate`](TieredFilter::rotate) freezes the current hot tier into an
//! immutable generation — typically a binary fuse filter from
//! `vcf-sketches`, ~25% smaller at the same error rate.
//!
//! The freeze crosses the partial-key boundary: the hot tier exports
//! **canonical coset keys** derived from its stored bits alone
//! ([`ScalableVcf::canonical_keys`]), so rotation never needs the
//! original items. The drain is *budgeted* exactly like segment
//! migration: each unit collects one source bucket or runs one bounded
//! construction chunk, amortized across serving operations (or driven
//! explicitly with [`rotate_step`](TieredFilter::rotate_step)), and the
//! rotating tier keeps answering lookups until its frozen replacement is
//! installed — zero false negatives at every intermediate step. Only
//! the frozen side is a trait ([`FrozenSet`]), so tests can swap in an
//! exact set.

use crate::config::CuckooConfig;
use crate::scalable::ScalableVcf;
use vcf_traits::{BuildError, Filter, FrozenBuilder, FrozenSet, InsertError, Stats};

/// Default rotation work units amortized onto each insert (same spirit
/// as the migration budget: one bounded unit per insert drains a
/// rotation faster than the hot tier refills).
const DEFAULT_ROTATE_BUDGET: usize = 1;

/// Work counters for the rotation machinery — separate from
/// [`Filter::stats`], which stays an exact account of the *hot tier's*
/// hash/probe work (`hashes = 2·inserts + kicks` is preserved because
/// rotation work never touches the hot tier's counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RotationStats {
    /// Rotations begun via [`TieredFilter::rotate`].
    pub rotations_started: u64,
    /// Rotations whose frozen generation has been installed.
    pub rotations_completed: u64,
    /// Source buckets drained into a frozen builder.
    pub buckets_collected: u64,
    /// Bounded construction chunks executed.
    pub build_units: u64,
    /// Peel-failure restarts observed across all rotations (a restart
    /// re-collects from the intact source under a fresh seed).
    pub restarts: u64,
    /// Work units performed by the most recent operation that advanced
    /// a rotation (insert-amortized or explicit) — the bounded-work
    /// observable the lifecycle tests assert on.
    pub last_op_units: u64,
}

/// An in-flight rotation: the frozen-out hot tier (still serving
/// lookups) plus the staged builder draining it.
struct Rotation<G: FrozenSet> {
    /// The former hot tier. Intact — and probed by every lookup — until
    /// the frozen generation is installed, so rotation never introduces
    /// false negatives.
    source: ScalableVcf,
    builder: G::Builder,
    /// Collect cursor: next segment to drain.
    segment: usize,
    /// Collect cursor: next bucket within `segment`.
    bucket: usize,
    /// `true` while source buckets are still being collected; `false`
    /// once the builder is sealed and construction chunks remain.
    collecting: bool,
    /// Reused per-bucket key scratch.
    scratch: Vec<u64>,
}

/// A [`Filter`] with a hot/cold lifecycle: one mutable [`ScalableVcf`]
/// hot tier plus N immutable frozen generations of type `G`.
///
/// The concrete frozen representation is generic so the façade lives in
/// `vcf-core` without depending on `vcf-sketches`; the root crate
/// exports `TieredVcf = TieredFilter<BinaryFuse8>` as the working
/// configuration.
///
/// # Lookup order
///
/// `contains`/`contains_batch` consult the hot tier, then (mid-rotation)
/// the rotating source, then frozen generations newest-first, stopping
/// at the first hit — recently-written keys resolve without ever
/// touching cold lanes. Batched lookups group the still-unresolved
/// items per generation so each tier sees one batch, mirroring the
/// shard router's group-dispatch shape.
///
/// # Rotation contract
///
/// Every key acknowledged before a [`rotate`](Self::rotate) is found at
/// every intermediate step and after the generation freezes, and
/// `rotate_step(n)` performs at most `n` bounded work units.
///
/// # Deletion semantics
///
/// Frozen generations are append-frozen: [`Filter::delete`] removes
/// keys still in the hot tier and returns `false` for keys that have
/// been frozen — the lifecycle analogue of expiring a cold partition
/// rather than editing it.
pub struct TieredFilter<G: FrozenSet> {
    hot: ScalableVcf,
    config: CuckooConfig,
    /// Frozen generations, oldest first (lookups iterate in reverse).
    frozen: Vec<G>,
    rotation: Option<Rotation<G>>,
    rotate_budget: usize,
    freeze_seed: u64,
    stats: RotationStats,
}

impl<G: FrozenSet> TieredFilter<G> {
    /// Creates an empty tiered filter whose hot tier (and every future
    /// hot tier installed by [`rotate`](Self::rotate)) uses `config`.
    ///
    /// # Errors
    ///
    /// Propagates [`ScalableVcf::new`] geometry errors.
    pub fn new(config: CuckooConfig) -> Result<Self, BuildError> {
        let hot = ScalableVcf::new(config)?;
        Ok(Self {
            hot,
            config,
            frozen: Vec::new(),
            rotation: None,
            rotate_budget: DEFAULT_ROTATE_BUDGET,
            freeze_seed: config.seed,
            stats: RotationStats::default(),
        })
    }

    /// The mutable hot tier (for inspection; mutating it directly is
    /// fine — it is an ordinary filter).
    pub fn hot(&self) -> &ScalableVcf {
        &self.hot
    }

    /// Rotation work counters.
    pub fn rotation_stats(&self) -> RotationStats {
        self.stats
    }

    /// Rotation work units amortized onto each insert (0 disables
    /// amortization; [`rotate_step`](Self::rotate_step) still works).
    pub fn rotate_budget(&self) -> usize {
        self.rotate_budget
    }

    /// Sets the per-insert rotation budget in work units.
    pub fn set_rotate_budget(&mut self, units_per_insert: usize) {
        self.rotate_budget = units_per_insert;
    }

    /// Heap bytes across all tiers (hot tables + rotating source +
    /// frozen lane arrays).
    pub fn storage_bytes(&self) -> usize {
        let rotating = self
            .rotation
            .as_ref()
            .map_or(0, |r| r.source.storage_bytes());
        self.hot.storage_bytes() + rotating + self.frozen_storage_bytes()
    }

    /// Begins rotating the current hot tier into a new frozen
    /// generation and installs a fresh, empty hot tier. Returns `false`
    /// (and changes nothing) when the hot tier is empty or a rotation is
    /// already in flight.
    pub fn rotate(&mut self) -> bool {
        if self.rotation.is_some() || self.hot.len() == 0 {
            return false;
        }
        let Ok(fresh) = ScalableVcf::new(self.config) else {
            return false; // config was valid at construction; defensive
        };
        let source = core::mem::replace(&mut self.hot, fresh);
        self.freeze_seed = self.freeze_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.rotation = Some(Rotation {
            source,
            builder: G::begin(self.freeze_seed),
            segment: 0,
            bucket: 0,
            collecting: true,
            scratch: Vec::new(),
        });
        self.stats.rotations_started += 1;
        true
    }

    /// Drives an in-flight rotation by at most `units` bounded work
    /// units (hot bucket-ranges collected or construction chunks built),
    /// returning the number performed and recording it in
    /// [`RotationStats::last_op_units`]. Returns 0 when no rotation is
    /// in flight.
    pub fn rotate_step(&mut self, units: usize) -> usize {
        let mut done = 0;
        while done < units && self.advance_one() {
            done += 1;
        }
        self.stats.last_op_units = done as u64;
        done
    }

    /// Work units remaining in the in-flight rotation (0 ⇔ idle).
    pub fn rotation_backlog(&self) -> usize {
        let Some(rot) = &self.rotation else {
            return 0;
        };
        let mut remaining = rot.builder.backlog();
        if rot.collecting {
            remaining += 1; // the seal unit
            let mut segment = rot.segment;
            let mut from = rot.bucket;
            loop {
                let buckets = rot.source.segment_buckets(segment);
                if buckets == 0 {
                    break;
                }
                remaining += buckets.saturating_sub(from);
                from = 0;
                segment += 1;
            }
        }
        remaining.max(1)
    }

    /// Number of fully-frozen generations (excludes the hot tier and
    /// any generation still rotating).
    pub fn generations(&self) -> usize {
        self.frozen.len()
    }

    /// Distinct canonical keys per frozen generation, newest first.
    pub fn generation_lens(&self) -> Vec<usize> {
        self.frozen.iter().rev().map(FrozenSet::len).collect()
    }

    /// Heap bytes backing the frozen generations.
    pub fn frozen_storage_bytes(&self) -> usize {
        self.frozen.iter().map(FrozenSet::storage_bytes).sum()
    }

    /// Drives an in-flight rotation by one unit: collect one source
    /// bucket (or seal the builder), or run one construction chunk —
    /// installing the frozen generation when construction completes.
    /// Returns `false` when no rotation is in flight.
    fn advance_one(&mut self) -> bool {
        let Some(rot) = self.rotation.as_mut() else {
            return false;
        };
        if rot.collecting {
            let buckets = rot.source.segment_buckets(rot.segment);
            if buckets == 0 {
                // lint: allow(panic-reachability) — dyn FrozenBuilder dispatch: the impl lives in vcf-sketches, dependency-inverted above this crate, and its build path is panic-checked by that crate's tests
                rot.builder.seal();
                rot.collecting = false;
            } else {
                rot.scratch.clear();
                rot.source
                    .bucket_canonical_keys(rot.segment, rot.bucket, &mut rot.scratch);
                for &key in &rot.scratch {
                    rot.builder.push(key);
                }
                rot.bucket += 1;
                if rot.bucket >= buckets {
                    rot.bucket = 0;
                    rot.segment += 1;
                }
                self.stats.buckets_collected += 1;
            }
            return true;
        }
        // lint: allow(panic-reachability) — dyn FrozenBuilder dispatch: the impl lives in vcf-sketches, dependency-inverted above this crate, and its build path is panic-checked by that crate's tests
        let did = rot.builder.step(1);
        self.stats.build_units += did as u64;
        // lint: allow(panic-reachability) — dyn FrozenBuilder dispatch: the impl lives in vcf-sketches, dependency-inverted above this crate, and its build path is panic-checked by that crate's tests
        if rot.builder.backlog() == 0 {
            if let Some(rot) = self.rotation.take() {
                self.install(rot);
            }
            return true;
        }
        did > 0
    }

    /// Finalizes a drained rotation: installs the frozen generation and
    /// drops the source. A `finish` failure (possible only if the
    /// builder's backlog estimate lied — cryptographically improbable
    /// for the fuse builder) recovers without panicking: the rotation
    /// restarts from the still-intact source under a fresh seed.
    fn install(&mut self, rot: Rotation<G>) {
        let Rotation {
            source,
            builder,
            scratch,
            ..
        } = rot;
        match builder.finish() {
            Ok(generation) => {
                self.frozen.push(generation);
                self.stats.rotations_completed += 1;
            }
            Err(_) => {
                self.stats.restarts += 1;
                self.freeze_seed = self.freeze_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                self.rotation = Some(Rotation {
                    source,
                    builder: G::begin(self.freeze_seed),
                    segment: 0,
                    bucket: 0,
                    collecting: true,
                    scratch,
                });
            }
        }
    }

    /// Canonical coset key of `item` for probing frozen generations.
    /// Hot tiers across rotations share one base geometry (the config
    /// is stored), so the derivation is stable for the filter's life.
    fn frozen_key(&self, item: &[u8]) -> u64 {
        self.hot.canonical_key(item)
    }
}

impl<G: FrozenSet> Filter for TieredFilter<G> {
    // lint: hot-path
    fn insert(&mut self, item: &[u8]) -> Result<(), InsertError> {
        let result = self.hot.insert(item);
        self.rotate_step(self.rotate_budget);
        result
    }

    // lint: hot-path
    fn insert_batch(&mut self, items: &[&[u8]]) -> Vec<Result<(), InsertError>> {
        let results = self.hot.insert_batch(items);
        self.rotate_step(self.rotate_budget.saturating_mul(items.len()));
        results
    }

    // lint: hot-path
    fn contains(&self, item: &[u8]) -> bool {
        if self.hot.contains(item) {
            return true;
        }
        if let Some(rot) = &self.rotation {
            if rot.source.contains(item) {
                return true;
            }
        }
        if self.frozen.is_empty() {
            return false;
        }
        let key = self.frozen_key(item);
        self.frozen.iter().rev().any(|g| g.contains_key(key))
    }

    // lint: hot-path
    fn contains_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        let mut out = self.hot.contains_batch(items);
        if let Some(rot) = &self.rotation {
            let pending: Vec<usize> = (0..items.len()).filter(|&i| !out[i]).collect();
            if !pending.is_empty() {
                let sub: Vec<&[u8]> = pending.iter().map(|&i| items[i]).collect();
                for (&i, hit) in pending.iter().zip(rot.source.contains_batch(&sub)) {
                    // `pending` indices come from `0..items.len()`.
                    debug_assert!(i < out.len());
                    out[i] = hit;
                }
            }
        }
        if self.frozen.is_empty() {
            return out;
        }
        // Group the still-unresolved items into one batch per frozen
        // generation, newest first; each hit shrinks the next batch.
        let mut pending: Vec<usize> = (0..items.len()).filter(|&i| !out[i]).collect();
        if pending.is_empty() {
            return out;
        }
        let mut keys: Vec<u64> = pending.iter().map(|&i| self.frozen_key(items[i])).collect();
        for generation in self.frozen.iter().rev() {
            let hits = generation.contains_keys(&keys);
            let mut next_pending = Vec::with_capacity(pending.len());
            let mut next_keys = Vec::with_capacity(keys.len());
            for (slot, &i) in pending.iter().enumerate() {
                debug_assert!(slot < hits.len() && i < out.len() && slot < keys.len());
                if hits[slot] {
                    out[i] = true;
                } else {
                    next_pending.push(i);
                    next_keys.push(keys[slot]);
                }
            }
            pending = next_pending;
            keys = next_keys;
            if pending.is_empty() {
                break;
            }
        }
        out
    }

    // lint: hot-path
    fn delete(&mut self, item: &[u8]) -> bool {
        self.hot.delete(item)
    }

    fn len(&self) -> usize {
        let rotating = self.rotation.as_ref().map_or(0, |r| r.source.len());
        let frozen: usize = self.frozen.iter().map(FrozenSet::len).sum();
        self.hot.len() + rotating + frozen
    }

    fn capacity(&self) -> usize {
        // Frozen generations are immutable and exactly full; the
        // rotating source no longer accepts inserts.
        let rotating = self.rotation.as_ref().map_or(0, |r| r.source.len());
        let frozen: usize = self.frozen.iter().map(FrozenSet::len).sum();
        self.hot.capacity() + rotating + frozen
    }

    fn stats(&self) -> Stats {
        // Hot tier pass-through: rotation work never touches these
        // counters, so `hashes = 2·inserts + kicks` stays exact.
        self.hot.stats()
    }

    fn reset_stats(&mut self) {
        self.hot.reset_stats();
    }

    fn name(&self) -> String {
        format!("Tiered[{} | {} frozen]", self.hot.name(), self.frozen.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// A trivially correct frozen set for exercising the façade without
    /// depending on `vcf-sketches`: an exact `HashSet` behind the
    /// incremental-builder surface (three fake construction chunks).
    struct ExactSet {
        keys: HashSet<u64>,
    }

    struct ExactBuilder {
        keys: HashSet<u64>,
        sealed: bool,
        chunks_left: usize,
    }

    impl FrozenSet for ExactSet {
        type Builder = ExactBuilder;

        fn begin(_seed: u64) -> ExactBuilder {
            ExactBuilder {
                keys: HashSet::new(),
                sealed: false,
                chunks_left: 3,
            }
        }

        fn contains_key(&self, key: u64) -> bool {
            self.keys.contains(&key)
        }

        fn len(&self) -> usize {
            self.keys.len()
        }

        fn storage_bytes(&self) -> usize {
            self.keys.len() * 8
        }

        fn fingerprint_bits(&self) -> u32 {
            64
        }
    }

    impl FrozenBuilder for ExactBuilder {
        type Set = ExactSet;

        fn push(&mut self, key: u64) {
            if !self.sealed {
                self.keys.insert(key);
            }
        }

        fn seal(&mut self) {
            self.sealed = true;
        }

        fn step(&mut self, units: usize) -> usize {
            if !self.sealed {
                return 0;
            }
            let did = units.min(self.chunks_left);
            self.chunks_left -= did;
            did
        }

        fn backlog(&self) -> usize {
            if self.sealed {
                self.chunks_left
            } else {
                self.chunks_left + 1
            }
        }

        fn staged(&self) -> usize {
            self.keys.len()
        }

        fn finish(self) -> Result<ExactSet, BuildError> {
            if self.sealed && self.chunks_left == 0 {
                Ok(ExactSet { keys: self.keys })
            } else {
                Err(BuildError::InvalidConfig {
                    reason: "exact-set build incomplete".into(),
                })
            }
        }
    }

    fn tiered() -> TieredFilter<ExactSet> {
        TieredFilter::new(CuckooConfig::new(1 << 8).with_seed(42)).unwrap()
    }

    fn key(i: u64) -> Vec<u8> {
        format!("tiered-{i}").into_bytes()
    }

    #[test]
    fn rotation_freezes_and_keys_stay_found() {
        let mut f = tiered();
        for i in 0..300 {
            f.insert(&key(i)).unwrap();
        }
        assert!(f.rotate());
        assert!(!f.rotate(), "second rotate while in flight is a no-op");
        while f.rotation_backlog() > 0 {
            assert!(f.rotate_step(8) > 0);
            for i in (0..300).step_by(37) {
                assert!(f.contains(&key(i)), "key {i} lost mid-rotation");
            }
        }
        assert_eq!(f.generations(), 1);
        for i in 0..300 {
            assert!(f.contains(&key(i)), "key {i} lost after rotation");
        }
        assert_eq!(f.hot().len(), 0);
    }

    #[test]
    fn empty_hot_tier_does_not_rotate() {
        let mut f = tiered();
        assert!(!f.rotate());
        f.insert(&key(1)).unwrap();
        assert!(f.delete(&key(1)));
        assert!(!f.rotate());
    }

    #[test]
    fn inserts_amortize_the_rotation() {
        let mut f = tiered();
        for i in 0..200 {
            f.insert(&key(i)).unwrap();
        }
        assert!(f.rotate());
        let backlog = f.rotation_backlog();
        assert!(backlog > 0);
        // Every insert performs at most `rotate_budget` units.
        let mut inserts = 0;
        while f.rotation_backlog() > 0 {
            f.insert(&key(10_000 + inserts)).unwrap();
            assert!(f.rotation_stats().last_op_units <= f.rotate_budget() as u64);
            inserts += 1;
            assert!(inserts < 10_000, "rotation never drained");
        }
        assert_eq!(f.generations(), 1);
        for i in 0..200 {
            assert!(f.contains(&key(i)));
        }
        for i in 0..inserts {
            assert!(f.contains(&key(10_000 + i)));
        }
    }

    #[test]
    fn deletes_only_touch_the_hot_tier() {
        let mut f = tiered();
        for i in 0..100 {
            f.insert(&key(i)).unwrap();
        }
        assert!(f.rotate());
        while f.rotation_backlog() > 0 {
            f.rotate_step(16);
        }
        // Frozen keys are append-frozen: delete is a no-op miss…
        assert!(!f.delete(&key(5)));
        assert!(f.contains(&key(5)));
        // …while hot keys delete normally.
        f.insert(&key(500)).unwrap();
        assert!(f.delete(&key(500)));
        assert!(!f.contains(&key(500)));
    }

    #[test]
    fn contains_batch_matches_serial_across_generations() {
        let mut f = tiered();
        for round in 0..3u64 {
            for i in 0..120 {
                f.insert(&key(round * 1000 + i)).unwrap();
            }
            assert!(f.rotate());
            while f.rotation_backlog() > 0 {
                f.rotate_step(32);
            }
        }
        for i in 0..60 {
            f.insert(&key(9000 + i)).unwrap();
        }
        assert_eq!(f.generations(), 3);
        let probe: Vec<Vec<u8>> = (0..4000).map(|i| key(i * 7)).collect();
        let refs: Vec<&[u8]> = probe.iter().map(Vec::as_slice).collect();
        let batch = f.contains_batch(&refs);
        for (i, item) in refs.iter().enumerate() {
            assert_eq!(batch[i], f.contains(item), "probe {i} diverged");
        }
    }

    #[test]
    fn stats_stay_hot_tier_exact() {
        let mut f = tiered();
        for i in 0..150 {
            f.insert(&key(i)).unwrap();
        }
        assert!(f.rotate());
        // Rotation resets the observable stats surface to the fresh hot
        // tier; inserts from here on keep the exact identity.
        f.reset_stats();
        for i in 1000..1100 {
            f.insert(&key(i)).unwrap();
        }
        while f.rotation_backlog() > 0 {
            f.rotate_step(64);
        }
        let stats = f.stats();
        assert_eq!(
            stats.hash_computations,
            2 * stats.inserts.calls + stats.kicks,
            "hot-tier hash accounting must stay exact through rotation: {stats:?}"
        );
    }

    #[test]
    fn generation_metadata_is_newest_first() {
        let mut f = tiered();
        for i in 0..50 {
            f.insert(&key(i)).unwrap();
        }
        f.rotate();
        while f.rotation_backlog() > 0 {
            f.rotate_step(64);
        }
        for i in 0..80 {
            f.insert(&key(1000 + i)).unwrap();
        }
        f.rotate();
        while f.rotation_backlog() > 0 {
            f.rotate_step(64);
        }
        assert_eq!(f.generations(), 2);
        let lens = f.generation_lens();
        assert_eq!(lens.len(), 2);
        assert!(
            lens[0] >= lens[1],
            "newest (larger) generation first: {lens:?}"
        );
        assert!(f.frozen_storage_bytes() > 0);
        assert!(f.name().contains("2 frozen"));
    }

    #[test]
    fn len_spans_all_tiers() {
        let mut f = tiered();
        for i in 0..90 {
            f.insert(&key(i)).unwrap();
        }
        let before = f.len();
        // Freezing dedups to *distinct canonical keys* — items the hot
        // tier already cannot tell apart collapse into one frozen entry.
        let distinct = f.hot().canonical_keys().collect::<HashSet<_>>().len();
        assert!(distinct <= before);
        f.rotate();
        // Mid-rotation the keys live in the source, not the hot tier.
        assert_eq!(f.len(), before);
        while f.rotation_backlog() > 0 {
            f.rotate_step(16);
            assert!(
                f.len() == before || f.len() == distinct,
                "len mid-rotation is source-counted or frozen-counted"
            );
        }
        assert_eq!(f.len(), distinct);
    }
}
