//! Online auto-scaling VCF: exponentially-sized segments, incremental
//! migration, shrink-to-fit.
//!
//! A production filter serving unpredictable traffic cannot be pre-sized,
//! and the classic dynamic-filter answer — chain homogeneous filters and
//! consult every link (the Dynamic Cuckoo Filter of Chen et al.) — lets the
//! lookup fan-out grow without bound. [`ScalableVcf`] instead keeps a
//! *short* chain of exponentially-sized segments and continuously drains
//! the older ones into the newest, so the chain length stays O(1) in
//! steady state and every byte of an old segment is eventually reclaimed.
//!
//! # Segment geometry: cosets confined to the base index space
//!
//! Relocating or migrating a stored fingerprint must not need the
//! original item, so a fingerprint's candidate set has to be derivable
//! from its stored bits in *every* segment size. The filter therefore
//! fixes the vertical-hashing coset arithmetic (Equ. 3, Theorem 1) to the
//! **base** index space of the first segment — `base_bits` index bits,
//! one [`VerticalParams`] for the filter's lifetime — and derives the
//! extra index bits of larger segments from `hash(η)` itself:
//!
//! ```text
//! segment with p extra bits:  bucket = coset_low | (part << base_bits)
//! part = (hash(η) >> 32) & (2^p - 1)         (the "partition selector")
//! ```
//!
//! The coset low bits are segment-invariant (Theorem-1 closure holds per
//! partition: the XOR offsets live entirely below `base_bits`, so
//! relocation never leaves a partition), and the partition selector is a
//! pure function of the fingerprint. Any stored `(bucket, η)` pair can
//! therefore be re-placed into any segment — the property that makes
//! incremental migration and shrink-to-fit possible at all. The cost is
//! that within one segment a fingerprint's four candidates share the
//! partition `part` of `2^p` buckets; the selector is a multiplicative
//! mix of the bits above bit 32 of `hash(η)` — disjoint from the offset
//! bits — so partitions fill uniformly (see [`part_base`]).
//!
//! # The FPR price of elasticity
//!
//! Because the partition selector is a function of the fingerprint, a
//! query only ever probes the partition populated by residents whose
//! fingerprints *share its selector*: conditioning on "same partition"
//! already matches `p` bits worth of fingerprint hash. The per-slot
//! collision probability in a segment `p` doublings above the base is
//! therefore `2^−(f − p)`, not `2^−f` — each partition bit is one
//! effective fingerprint bit spent on addressing, the classic
//! fingerprint-vs-index trade of segmented cuckoo-filter growth. Size
//! `fingerprint_bits` for the *final* capacity you expect to reach
//! (e.g. growing 2^12 → 2^22 slots costs 10 effective bits), exactly as
//! a statically pre-sized filter would spend them as index bits. The
//! k-segment chain bound is `Σ_i fpr_upper_bound(r, b, α_i, f − p_i)`;
//! `tests/fpr_regression.rs` pins the empirical rate to it after every
//! doubling.
//!
//! # Migration protocol
//!
//! Growth appends a segment with one more partition bit (double the
//! buckets) and makes it the insert target. A cursor then drains the
//! *oldest* segment bucket-by-bucket: each drained fingerprint is
//! re-placed into the active segment first and only then cleared from the
//! cold bucket, so a lookup racing the (single-threaded) drain can never
//! miss it. The drain is budgeted — by default each insert performs at
//! most **one** bucket-range of migration work (`migrate_budget`), and
//! [`ScalableVcf::migrate_step`] exposes the same bounded step for
//! explicit maintenance loops. A drain that finds the active segment full
//! stalls without losing ground and resumes after the next growth.

use crate::bitmask::MaskPair;
use crate::config::CuckooConfig;
use crate::cuckoo::{CandidatePolicy, Key, Tally, Walk, WINDOW};
use crate::key;
use crate::vertical::VerticalParams;
use vcf_hash::HashKind;
use vcf_table::FingerprintTable;
use vcf_traits::{BuildError, Counters, Filter, InsertError, OpCounters, Stats};

/// Bit position in `hash(η)` where the partition selector starts. The
/// XOR offsets consume at most `base_bits < 32` low bits, so selector
/// and offsets never overlap.
const PART_SHIFT: u32 = 32;

/// Hard cap on partition bits (2^24 × base buckets ≥ billions of slots).
const DEFAULT_MAX_PART_BITS: u32 = 24;

/// Active-segment load factor that triggers proactive growth: past this
/// point eviction walks lengthen sharply, so the filter doubles *before*
/// inserts start failing.
const GROW_LOAD: f64 = 0.95;

/// Target load factor a shrink-to-fit repack aims for — high enough to
/// actually reclaim memory, low enough that the placement loop almost
/// always succeeds on the first attempt.
const SHRINK_TARGET_LOAD: f64 = 0.85;

/// Migration work and bookkeeping counters, separate from the per-op
/// [`Stats`] so maintenance traffic never pollutes the paper-facing
/// probe/kick accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Bounded migration steps executed (per-insert amortized ones and
    /// explicit [`ScalableVcf::migrate_step`] calls).
    pub steps: u64,
    /// Cold buckets fully drained into the active segment.
    pub drained_buckets: u64,
    /// Fingerprints moved out of cold segments.
    pub moved_fingerprints: u64,
    /// Drain attempts aborted because the active segment could not take
    /// the displaced fingerprint (resumes after the next growth).
    pub stalls: u64,
    /// Cold buckets drained by the most recent insert — the bounded
    /// per-operation migration work the tests assert on (at most the
    /// configured budget).
    pub last_op_buckets: u64,
}

/// One link of the chain: a fingerprint table whose bucket ids are
/// `coset_low | (partition << base_bits)` with `part_bits` partition
/// bits, plus the migration cursor (buckets `< drained` are empty).
#[derive(Debug, Clone)]
struct Segment {
    table: FingerprintTable,
    part_bits: u32,
    drained: usize,
}

/// Fibonacci-hashing multiplier (2^64 / φ): one `wrapping_mul` whose
/// *top* bits mix every input bit — the standard multiplicative-hash
/// finalizer.
const PART_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Partition base offset for a fingerprint hash in a segment with
/// `part_bits` partition bits.
///
/// The raw selector half `hash(η) >> 32` is *not* used directly: for
/// short inputs the workspace hash functions leave their high bits
/// poorly avalanched, which clusters fingerprints into a handful of
/// partitions and starves the rest (observed empirically: <3% of
/// partitions populated). A multiplicative mix whose top `part_bits`
/// bits are taken instead distributes the selectors uniformly while
/// remaining a pure function of the stored fingerprint.
#[inline]
fn part_base(hfp: u64, part_bits: u32, base_bits: u32) -> usize {
    if part_bits == 0 {
        return 0;
    }
    let selector = (hfp >> PART_SHIFT).wrapping_mul(PART_MIX) >> (64 - part_bits);
    (selector as usize) << base_bits
}

/// The VCF rule inside one segment: Equ. 3's coset lows over the base
/// index space, OR-ed with the fingerprint's partition base. The XOR
/// offsets of [`VerticalParams::alternates`] live below `base_bits`, so
/// relocation never leaves the partition (Theorem-1 closure per
/// partition) and the shared eviction walk runs unchanged.
#[derive(Debug, Clone, Copy)]
struct SegmentPolicy {
    params: VerticalParams,
    part_bits: u32,
    base_bits: u32,
}

impl SegmentPolicy {
    /// The four candidate buckets of coset low `low` in this segment.
    #[inline]
    fn buckets(&self, low: usize, hfp: u64) -> [usize; 4] {
        let part = part_base(hfp, self.part_bits, self.base_bits);
        self.params
            .candidates(low, hfp)
            .buckets
            .map(|low| low | part)
    }
}

impl CandidatePolicy for SegmentPolicy {
    #[inline]
    fn candidate_count(&self, _fingerprint: u32) -> usize {
        4
    }

    #[inline]
    fn candidate(&self, low: usize, hfp: u64, fingerprint: u32, e: usize) -> (usize, u64) {
        debug_assert!(e < 4, "four candidates per segment");
        (self.buckets(low, hfp)[e], u64::from(fingerprint))
    }

    #[inline]
    fn alternate(&self, bucket: usize, hfp: u64, resident: u64, i: usize) -> (usize, u64) {
        debug_assert!(i < 3, "three alternates per segment");
        (self.params.alternates(bucket, hfp)[i], resident)
    }
}

/// Outcome of draining one cold bucket.
enum DrainOutcome {
    /// The cursor advanced one bucket.
    Advanced,
    /// A fully-drained (or emptied) segment was popped; no budget spent.
    SegmentDone,
    /// The active segment is full; the cursor holds its position.
    Stalled,
}

/// An elastic Vertical Cuckoo Filter that grows and shrinks online.
///
/// DESIGN.md §12 describes the segment geometry and migration
/// protocol. In steady state the chain is one segment and every
/// operation behaves like a fixed-size [`VerticalCuckooFilter`]
/// (modulo the partition confinement); during a growth phase lookups and
/// deletes fan across the short chain and each insert additionally
/// drains at most [`migrate_budget`](Self::migrate_budget) cold
/// bucket-ranges.
///
/// # Contract
///
/// [`grow`](Self::grow), [`migrate_step`](Self::migrate_step) and
/// [`shrink_to_fit`](Self::shrink_to_fit) never change a lookup answer
/// or [`Filter::len`]; `migrate_step(n)` does at most `n` bucket-ranges
/// of work; a zero [`migration_backlog`](Self::migration_backlog) means
/// a single segment.
///
/// [`VerticalCuckooFilter`]: crate::VerticalCuckooFilter
///
/// # Examples
///
/// ```
/// use vcf_core::{CuckooConfig, ScalableVcf};
/// use vcf_traits::Filter;
///
/// // Starts at 2^6 buckets (256 slots) and grows as needed.
/// let mut filter = ScalableVcf::new(CuckooConfig::new(1 << 6))?;
/// for i in 0u32..10_000 {
///     filter.insert(&i.to_le_bytes())?; // grows online, never blocks long
/// }
/// assert!(filter.contains(&9_999u32.to_le_bytes()));
/// while filter.migration_backlog() > 0 {
///     filter.migrate_step(64);
/// }
/// assert_eq!(filter.segments(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScalableVcf {
    /// Oldest first; the last segment is the insert target.
    segments: Vec<Segment>,
    /// Vertical-hashing parameters over the *base* index space — fixed
    /// for the filter's lifetime (see module docs).
    params: VerticalParams,
    masks: MaskPair,
    hash: HashKind,
    base_bits: u32,
    slots_per_bucket: usize,
    fingerprint_bits: u32,
    seed: u64,
    max_part_bits: u32,
    migrate_budget: usize,
    walk: Walk,
    counters: Counters,
    migration: MigrationStats,
}

impl ScalableVcf {
    /// Builds a scalable VCF whose first (base) segment uses `config`'s
    /// geometry; `config.buckets` fixes the coset index space for the
    /// filter's lifetime.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for invalid geometry (see
    /// [`CuckooConfig::validate`]).
    pub fn new(config: CuckooConfig) -> Result<Self, BuildError> {
        let masks = MaskPair::balanced(config.fingerprint_bits)?;
        Self::with_masks(config, masks)
    }

    /// Builds a scalable VCF with an explicit mask pair.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for invalid geometry.
    pub fn with_masks(config: CuckooConfig, masks: MaskPair) -> Result<Self, BuildError> {
        config.validate()?;
        let base_bits = config.buckets.trailing_zeros();
        if base_bits >= PART_SHIFT {
            return Err(BuildError::InvalidConfig {
                reason: format!(
                    "base segment of {} buckets leaves no partition-selector bits",
                    config.buckets
                ),
            });
        }
        let table = FingerprintTable::new(
            config.buckets,
            config.slots_per_bucket,
            config.fingerprint_bits,
        )?;
        let params = VerticalParams::new(masks, config.buckets);
        Ok(Self {
            segments: vec![Segment {
                table,
                part_bits: 0,
                drained: 0,
            }],
            params,
            masks,
            hash: config.hash,
            base_bits,
            slots_per_bucket: config.slots_per_bucket,
            fingerprint_bits: config.fingerprint_bits,
            seed: config.seed,
            max_part_bits: DEFAULT_MAX_PART_BITS.min(31 - base_bits),
            migrate_budget: 1,
            walk: Walk::new(config.seed, config.max_kicks),
            counters: Counters::new(),
            migration: MigrationStats::default(),
        })
    }

    /// The bitmask pair in use.
    pub fn masks(&self) -> MaskPair {
        self.masks
    }

    /// The base-space vertical-hashing parameters (fixed for life).
    pub fn params(&self) -> VerticalParams {
        self.params
    }

    /// The hash function in use.
    pub fn hash_kind(&self) -> HashKind {
        self.hash
    }

    /// Seed of the eviction/placement PRNG.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Expected probability `r` of four distinct candidate buckets
    /// (Equ. 8) for the base-space mask geometry shared by every
    /// segment — the coset arithmetic never changes as the filter grows.
    pub fn expected_r(&self) -> f64 {
        let index_bits = self.base_bits.max(2);
        match self.masks.restricted_to(index_bits) {
            Some(m) => m.expected_r(),
            None => 0.0,
        }
    }

    /// Fingerprint width `f` in bits.
    pub fn fingerprint_bits(&self) -> u32 {
        self.fingerprint_bits
    }

    /// Bucket count of the base (coset index space) segment.
    pub fn base_buckets(&self) -> usize {
        1 << self.base_bits
    }

    /// Cold bucket-ranges each insert drains (0 disables amortized
    /// migration; [`migrate_step`](Self::migrate_step) still works).
    pub fn migrate_budget(&self) -> usize {
        self.migrate_budget
    }

    /// Sets the per-insert migration budget in bucket-ranges. The
    /// default of 1 already drains faster than growth accumulates
    /// backlog (an active segment absorbs ~4× its bucket count in
    /// inserts before the next doubling, while the whole cold chain
    /// holds fewer buckets than the active segment).
    pub fn set_migrate_budget(&mut self, buckets_per_insert: usize) {
        self.migrate_budget = buckets_per_insert;
    }

    /// Caps growth at `max_part_bits` doublings over the base segment;
    /// at the cap inserts fail with [`InsertError::Full`] once the
    /// chain saturates, exactly like a fixed-size filter.
    pub fn set_growth_limit(&mut self, max_part_bits: u32) {
        self.max_part_bits = max_part_bits.min(31 - self.base_bits);
    }

    /// Migration work counters (separate from [`Filter::stats`]).
    pub fn migration_stats(&self) -> MigrationStats {
        self.migration
    }

    /// Heap bytes used by all segment tables.
    pub fn storage_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.table.storage_bytes()).sum()
    }

    /// Every stored `(segment, bucket, fingerprint)` triple, oldest
    /// segment first — introspection for tests and differential
    /// harnesses.
    pub fn stored(&self) -> impl Iterator<Item = (usize, usize, u32)> + '_ {
        self.segments.iter().enumerate().flat_map(|(i, seg)| {
            seg.table
                .iter()
                .map(move |(bucket, _slot, lane)| (i, bucket, seg.table.fingerprint(lane)))
        })
    }

    /// Hashes an item: `b1` is its coset low in the base index space.
    #[inline]
    fn key_of(&self, item: &[u8]) -> Key {
        let mask = self.params.index_mask();
        let (fp, b1) = key::hash_item(self.hash, item, self.fingerprint_bits, mask);
        Key::new(self.hash, fp, b1)
    }

    /// Canonical coset key for a `(coset low, fingerprint)` pair:
    /// `(min candidate bucket) << 32 | fingerprint`. Theorem 1 closure
    /// makes the minimum identical from every member bucket, so the same
    /// key is derivable from a query item *and* from stored bits alone —
    /// the partial-key invariant extended across the freeze boundary.
    #[inline]
    fn canonical_of(&self, fp: u32, low: usize) -> u64 {
        let hfp = self.hash.hash_fingerprint(fp);
        let lows = self.params.candidates(low, hfp);
        ((lows.canonical_low() as u64) << 32) | u64::from(fp)
    }

    /// Canonical coset key of a query item (see
    /// [`canonical_keys`](Self::canonical_keys)). Two items hashing to
    /// the same `(coset, fingerprint)` pair share a key — exactly the
    /// pairs this filter already cannot tell apart.
    pub fn canonical_key(&self, item: &[u8]) -> u64 {
        let key = self.key_of(item);
        self.canonical_of(key.fp, key.b1)
    }

    /// Canonical coset keys of every stored fingerprint, derived from
    /// stored bits alone (no original items needed): the freeze-boundary
    /// export that lets a [`crate::TieredFilter`] drain this filter into
    /// an immutable frozen generation.
    pub fn canonical_keys(&self) -> impl Iterator<Item = u64> + '_ {
        let mask = self.params.index_mask();
        self.stored()
            .map(move |(_seg, bucket, fp)| self.canonical_of(fp, bucket & (mask as usize)))
    }

    /// Number of physical buckets in segment `segment` (0 for an
    /// out-of-range index) — the bound for
    /// [`bucket_canonical_keys`](Self::bucket_canonical_keys) sweeps.
    pub fn segment_buckets(&self, segment: usize) -> usize {
        self.segments.get(segment).map_or(0, |s| s.table.buckets())
    }

    /// Appends the canonical coset keys stored in one physical bucket of
    /// one segment to `out` — the bounded unit of rotation work, sized
    /// exactly like PR 7's migration bucket-ranges so a tiered drain can
    /// amortize across serving operations.
    pub fn bucket_canonical_keys(&self, segment: usize, bucket: usize, out: &mut Vec<u64>) {
        let mask = self.params.index_mask() as usize;
        let Some(seg) = self.segments.get(segment) else {
            return;
        };
        if bucket >= seg.table.buckets() {
            return;
        }
        for slot in 0..seg.table.slots_per_bucket() {
            let fp = seg.table.fingerprint(seg.table.get(bucket, slot));
            if fp != 0 {
                out.push(self.canonical_of(fp, bucket & mask));
            }
        }
    }

    /// Whether the active segment has hit the proactive-growth
    /// watermark.
    fn active_wants_growth(&self) -> bool {
        self.segments
            .last()
            .is_some_and(|a| a.table.load_factor() >= GROW_LOAD)
    }

    /// Appends a segment with one more partition bit (double the
    /// buckets) as the new insert target, scheduling the older segments
    /// for incremental migration.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when the growth limit (see
    /// [`set_growth_limit`](Self::set_growth_limit)) is reached or the
    /// new segment cannot be allocated.
    pub fn grow(&mut self) -> Result<(), BuildError> {
        let part_bits = match self.segments.last() {
            Some(active) => active.part_bits + 1,
            None => 0,
        };
        if part_bits > self.max_part_bits {
            return Err(BuildError::InvalidConfig {
                reason: format!(
                    "growth limit reached: {part_bits} partition bits exceeds the cap of {}",
                    self.max_part_bits
                ),
            });
        }
        let buckets = 1usize << (self.base_bits + part_bits);
        let table = FingerprintTable::new(buckets, self.slots_per_bucket, self.fingerprint_bits)?;
        self.segments.push(Segment {
            table,
            part_bits,
            drained: 0,
        });
        Ok(())
    }

    /// The candidate policy of a segment with `part_bits` partition
    /// bits.
    fn policy(&self, part_bits: u32) -> SegmentPolicy {
        SegmentPolicy {
            params: self.params,
            part_bits,
            base_bits: self.base_bits,
        }
    }

    /// Places `key` into the active segment through the shared eviction
    /// walk, adding its work to `work`.
    fn place_active(&mut self, key: Key, work: &mut Tally) -> Result<(), InsertError> {
        let Some(part_bits) = self.segments.last().map(|a| a.part_bits) else {
            return Err(InsertError::Full { kicks: 0 });
        };
        let policy = self.policy(part_bits);
        let Some(active) = self.segments.last_mut() else {
            return Err(InsertError::Full { kicks: 0 });
        };
        let (result, t) = self.walk.place(&policy, &mut active.table, self.hash, key);
        work.probes += t.probes;
        work.accesses += t.accesses;
        work.kicks += t.kicks;
        work.hashes += t.hashes;
        result
    }

    /// Hashes `chunk` into `window`, issuing a software prefetch for each
    /// key's candidate buckets in every segment of `segments`.
    #[inline]
    fn prefetch_window<'a>(
        &self,
        chunk: &[&[u8]],
        segments: impl IntoIterator<Item = &'a Segment> + Clone,
        window: &mut Vec<Key>,
    ) {
        window.clear();
        for item in chunk {
            let key = self.key_of(item);
            for seg in segments.clone() {
                for bucket in self.policy(seg.part_bits).buckets(key.b1, key.hfp) {
                    seg.table.prefetch_bucket(bucket);
                }
            }
            window.push(key);
        }
    }

    /// Probes the chain newest-first for `key`, returning the answer and
    /// the lookup's counts.
    fn lookup(&self, key: Key) -> (bool, OpCounters) {
        let mut probes = 0u64;
        let mut accesses = 0u64;
        let mut found = false;
        for seg in self.segments.iter().rev() {
            let buckets = self.policy(seg.part_bits).buckets(key.b1, key.hfp);
            probes += (buckets.len() * seg.table.slots_per_bucket()) as u64;
            accesses += buckets.len() as u64;
            if seg.table.contains_any(&buckets, u64::from(key.fp)) {
                found = true;
                break;
            }
        }
        (found, OpCounters::one_call(probes, accesses))
    }

    /// One insert's worth of work: amortized migration, proactive
    /// growth, placement, reactive growth + retry on a full active
    /// segment. Returns the work of exactly one logical insert.
    fn insert_key(&mut self, key: Key) -> (Result<(), InsertError>, Tally) {
        self.migration.last_op_buckets = 0;
        if self.migrate_budget > 0 && self.segments.len() > 1 {
            let drained = self.migrate_step(self.migrate_budget);
            self.migration.last_op_buckets = drained as u64;
        }
        if self.active_wants_growth() {
            // At the growth cap the active segment simply keeps filling.
            let _ = self.grow();
        }
        let mut work = Tally::default();
        let first = self.place_active(key, &mut work);
        let result = match first {
            Err(InsertError::Full { kicks }) => {
                if self.grow().is_ok() {
                    self.place_active(key, &mut work)
                } else {
                    Err(InsertError::Full { kicks })
                }
            }
            other => other,
        };
        (result, work)
    }

    /// Drains up to `budget` bucket-ranges from the oldest segments
    /// into the active one, returning how many were fully drained.
    /// Stops early when the chain is already flat or the active segment
    /// cannot currently accept the displaced fingerprints (the next
    /// [`grow`](Self::grow) unblocks it).
    pub fn migrate_step(&mut self, budget: usize) -> usize {
        if self.segments.len() < 2 {
            return 0;
        }
        self.migration.steps += 1;
        let mut drained = 0usize;
        while drained < budget && self.segments.len() > 1 {
            match self.drain_one_bucket() {
                DrainOutcome::Advanced => drained += 1,
                DrainOutcome::SegmentDone => {}
                DrainOutcome::Stalled => break,
            }
        }
        drained
    }

    /// Drains the bucket under the oldest segment's cursor. Each
    /// fingerprint is placed in the active segment *before* being
    /// cleared from the cold bucket, so membership answers never flicker
    /// mid-drain.
    fn drain_one_bucket(&mut self) -> DrainOutcome {
        let Some(part_bits) = self.segments.last().map(|a| a.part_bits) else {
            return DrainOutcome::SegmentDone;
        };
        let policy = self.policy(part_bits);
        let Self {
            segments,
            walk,
            migration,
            hash,
            ..
        } = self;
        let Some(oldest) = segments.first() else {
            return DrainOutcome::SegmentDone;
        };
        if oldest.drained >= oldest.table.buckets() || oldest.table.occupied() == 0 {
            segments.remove(0);
            return DrainOutcome::SegmentDone;
        }
        let (cold_head, rest) = segments.split_at_mut(1);
        let cold = &mut cold_head[0];
        let Some(active) = rest.last_mut() else {
            return DrainOutcome::Stalled;
        };
        let bucket = cold.drained;
        for slot in 0..cold.table.slots_per_bucket() {
            let fp = cold.table.fingerprint(cold.table.get(bucket, slot));
            if fp == 0 {
                continue;
            }
            // Theorem 1: the coset lows are recoverable from the
            // resident bucket alone (candidates() reduces the bucket id
            // to the base domain internally).
            let key = Key::new(*hash, fp, bucket);
            match walk.place(&policy, &mut active.table, *hash, key).0 {
                Ok(()) => {
                    cold.table.set(bucket, slot, 0);
                    migration.moved_fingerprints += 1;
                }
                Err(_) => {
                    migration.stalls += 1;
                    return DrainOutcome::Stalled;
                }
            }
        }
        cold.drained = bucket + 1;
        migration.drained_buckets += 1;
        // Pop the segment as soon as it is exhausted so "backlog 0"
        // always coincides with a flat chain.
        if cold.drained >= cold.table.buckets() || cold.table.occupied() == 0 {
            segments.remove(0);
        }
        DrainOutcome::Advanced
    }

    /// Attempts to re-pack every stored fingerprint into a single fresh
    /// segment with `part_bits` partition bits, one placement per stored
    /// fingerprint. Commits only when every fingerprint was placed. The
    /// placement work is maintenance, so none of it reaches the per-op
    /// counters.
    fn try_repack(&mut self, part_bits: u32) -> bool {
        let buckets = 1usize << (self.base_bits + part_bits);
        let Ok(mut table) =
            FingerprintTable::new(buckets, self.slots_per_bucket, self.fingerprint_bits)
        else {
            return false;
        };
        let policy = self.policy(part_bits);
        for seg in &self.segments {
            for (bucket, _slot, lane) in seg.table.iter() {
                // Theorem 1: the coset lows follow from the resident
                // bucket alone, as in the migration drain.
                let key = Key::new(self.hash, seg.table.fingerprint(lane), bucket);
                let (placed, _) = self.walk.place(&policy, &mut table, self.hash, key);
                if placed.is_err() {
                    return false;
                }
            }
        }
        self.segments = vec![Segment {
            table,
            part_bits,
            drained: 0,
        }];
        true
    }

    /// Re-packs the chain into the smallest single segment that holds
    /// the current occupancy at ≤ `SHRINK_TARGET_LOAD`, retrying one bit
    /// larger on placement overflow. Returns `true` when the footprint
    /// shrank, `false` when no smaller geometry exists.
    ///
    /// This is an explicit maintenance operation — unlike growth it is
    /// *not* amortized across other operations, so callers invoke it
    /// when a latency spike is acceptable (e.g. per shard, off-peak).
    pub fn shrink_to_fit(&mut self) -> bool {
        let live = self.len();
        let needed_slots = ((live as f64 / SHRINK_TARGET_LOAD).ceil() as usize).max(1);
        let needed_buckets = needed_slots
            .div_ceil(self.slots_per_bucket)
            .next_power_of_two()
            .max(self.base_buckets());
        let mut part_bits = needed_buckets.trailing_zeros() - self.base_bits;
        let current_capacity = self.capacity();
        loop {
            let buckets = 1usize << (self.base_bits + part_bits);
            if buckets * self.slots_per_bucket >= current_capacity {
                return false;
            }
            if self.try_repack(part_bits) {
                return true;
            }
            part_bits += 1;
        }
    }

    /// Bucket-ranges still awaiting migration (0 ⇔ a single segment).
    pub fn migration_backlog(&self) -> usize {
        let cold = self.segments.len().saturating_sub(1);
        self.segments
            .iter()
            .take(cold)
            .map(|s| s.table.buckets() - s.drained)
            .sum()
    }

    /// Number of segments currently in the chain.
    pub fn segments(&self) -> usize {
        self.segments.len()
    }

    /// Stored entries per segment, oldest first.
    pub fn segment_lens(&self) -> Vec<usize> {
        self.segments.iter().map(|s| s.table.occupied()).collect()
    }

    /// Slot capacity per segment, oldest first.
    pub fn segment_capacities(&self) -> Vec<usize> {
        self.segments.iter().map(|s| s.table.capacity()).collect()
    }
}

impl Filter for ScalableVcf {
    // lint: hot-path
    /// Insert into the active segment, draining at most
    /// [`migrate_budget`](Self::migrate_budget) cold bucket-ranges first
    /// and growing the chain when the active segment is (nearly) full.
    fn insert(&mut self, item: &[u8]) -> Result<(), InsertError> {
        let key = self.key_of(item);
        self.counters.add_hashes(2); // hash(x) + hash(η)
        let (result, work) = self.insert_key(key);
        work.publish(&self.counters, &result);
        result
    }

    // lint: hot-path
    /// Pipelined insert: hashes and prefetches a window of items against
    /// the active segment, then places in item order through the exact
    /// serial path (same PRNG consumption, same growth/migration
    /// schedule), and publishes the batch's counters once.
    fn insert_batch(&mut self, items: &[&[u8]]) -> Vec<Result<(), InsertError>> {
        let mut out = Vec::with_capacity(items.len());
        let mut window = Vec::with_capacity(WINDOW);
        let mut stats = Stats::new();
        stats.hash_computations = 2 * items.len() as u64; // hash(x) + hash(η)
        for chunk in items.chunks(WINDOW) {
            self.prefetch_window(chunk, self.segments.last(), &mut window);
            for &key in &window {
                let (result, work) = self.insert_key(key);
                work.charge(&mut stats, &result);
                out.push(result);
            }
        }
        self.counters.add(&stats);
        out
    }

    // lint: hot-path
    /// Probes the chain newest-first: an item's four candidate buckets
    /// in each segment (coset lows OR the segment's partition base).
    fn contains(&self, item: &[u8]) -> bool {
        let (found, op) = self.lookup(self.key_of(item));
        self.counters
            .record_lookup(op.slot_probes, op.bucket_accesses);
        found
    }

    // lint: hot-path
    /// Batched lookup over the whole chain: hashes and prefetches a
    /// window of items against *every* segment, then probes each
    /// newest-first — the fixed-size filter's pipeline extended with the
    /// segment fan-out — and publishes the batch's counters once.
    fn contains_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        let mut out = Vec::with_capacity(items.len());
        let mut window = Vec::with_capacity(WINDOW);
        let mut stats = Stats::new();
        for chunk in items.chunks(WINDOW) {
            self.prefetch_window(chunk, &self.segments, &mut window);
            out.extend(window.iter().map(|&key| {
                let (found, op) = self.lookup(key);
                stats.lookups += op;
                found
            }));
        }
        self.counters.add(&stats);
        out
    }

    // lint: hot-path
    /// Removes one copy, scanning segments newest-first (mirroring
    /// insert preference) with per-segment bucket deduplication, so
    /// exactly one stored fingerprint is removed per successful call —
    /// multiset semantics across the chain.
    fn delete(&mut self, item: &[u8]) -> bool {
        let key = self.key_of(item);
        let (params, base_bits) = (self.params, self.base_bits);
        let mut probes = 0u64;
        let mut accesses = 0u64;
        let mut removed = false;
        'segments: for seg in self.segments.iter_mut().rev() {
            let policy = SegmentPolicy {
                params,
                part_bits: seg.part_bits,
                base_bits,
            };
            let buckets = policy.buckets(key.b1, key.hfp);
            for (e, &bucket) in buckets.iter().enumerate() {
                // Deduplicate degenerate candidates: removing from the
                // same physical bucket twice would delete two copies.
                if buckets[..e].contains(&bucket) {
                    continue;
                }
                probes += seg.table.slots_per_bucket() as u64;
                accesses += 1;
                if seg.table.remove_one(bucket, u64::from(key.fp)) {
                    removed = true;
                    break 'segments;
                }
            }
        }
        self.counters.record_delete(probes, accesses);
        removed
    }

    fn len(&self) -> usize {
        self.segments.iter().map(|s| s.table.occupied()).sum()
    }

    fn capacity(&self) -> usize {
        self.segments.iter().map(|s| s.table.capacity()).sum()
    }

    fn stats(&self) -> Stats {
        self.counters.snapshot()
    }

    fn reset_stats(&mut self) {
        self.counters.reset();
    }

    fn name(&self) -> String {
        format!("ScalableVCF[{}]", self.segments.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Vec<u8> {
        format!("scale-{i}").into_bytes()
    }

    fn small() -> ScalableVcf {
        ScalableVcf::new(CuckooConfig::new(1 << 6).with_seed(7)).unwrap()
    }

    #[test]
    fn roundtrip_within_base_segment() {
        let mut f = small();
        f.insert(b"x").unwrap();
        assert!(f.contains(b"x"));
        assert_eq!(f.len(), 1);
        assert!(f.delete(b"x"));
        assert!(!f.contains(b"x"));
        assert_eq!(f.len(), 0);
        assert_eq!(f.segments(), 1);
    }

    #[test]
    fn grows_under_sustained_inserts_with_no_false_negatives() {
        let mut f = small();
        let n = 20_000u64;
        for i in 0..n {
            f.insert(&key(i)).unwrap();
            // The bounded-latency guarantee: one bucket-range per op.
            assert!(
                f.migration_stats().last_op_buckets <= 1,
                "insert {i} did {} bucket-ranges of migration work",
                f.migration_stats().last_op_buckets
            );
        }
        assert_eq!(f.len(), n as usize);
        assert!(f.capacity() >= n as usize);
        for i in 0..n {
            assert!(f.contains(&key(i)), "item {i} lost during growth");
        }
    }

    #[test]
    fn amortized_migration_keeps_chain_short() {
        let mut f = small();
        for i in 0..50_000u64 {
            f.insert(&key(i)).unwrap();
        }
        // With budget 1 the drain outpaces growth: at most the active
        // segment, one draining predecessor, and a freshly-grown target.
        assert!(
            f.segments() <= 3,
            "chain should stay short: {} segments",
            f.segments()
        );
    }

    #[test]
    fn explicit_migration_flattens_the_chain() {
        let mut f = small();
        f.set_migrate_budget(0); // growth only, no amortized draining
        for i in 0..5_000u64 {
            f.insert(&key(i)).unwrap();
        }
        assert!(f.segments() > 1);
        assert_eq!(f.len(), 5_000);
        let mut guard = 0;
        while f.migration_backlog() > 0 {
            // Per the ScalableVcf contract a step may stall when the
            // active segment cannot take a displaced fingerprint; a grow
            // unblocks it.
            if f.migrate_step(16) == 0 && f.migration_backlog() > 0 {
                f.grow().unwrap();
            }
            guard += 1;
            assert!(guard < 100_000, "migration never converged");
        }
        assert_eq!(f.segments(), 1);
        assert_eq!(f.len(), 5_000, "migration must preserve occupancy");
        for i in 0..5_000u64 {
            assert!(f.contains(&key(i)), "item {i} lost by migration");
        }
    }

    #[test]
    fn migrate_step_respects_budget() {
        let mut f = small();
        f.set_migrate_budget(0);
        for i in 0..3_000u64 {
            f.insert(&key(i)).unwrap();
        }
        let backlog = f.migration_backlog();
        assert!(backlog > 4);
        assert!(f.migrate_step(3) <= 3);
        assert!(f.migration_backlog() >= backlog - 3 - 1);
    }

    #[test]
    fn delete_works_across_segments_after_partial_migration() {
        let mut f = small();
        f.set_migrate_budget(0);
        for i in 0..4_000u64 {
            f.insert(&key(i)).unwrap();
        }
        f.migrate_step(f.migration_backlog() / 2); // leave the chain mid-drain
        for i in 0..4_000u64 {
            assert!(f.delete(&key(i)), "failed to delete {i} mid-migration");
        }
        assert_eq!(f.len(), 0, "every copy must be deleted exactly once");
    }

    #[test]
    fn duplicate_copies_follow_multiset_semantics() {
        let mut f = small();
        for i in 0..2_000u64 {
            f.insert(&key(i)).unwrap();
        }
        f.insert(b"dup").unwrap();
        f.insert(b"dup").unwrap();
        assert!(f.delete(b"dup"));
        assert!(f.contains(b"dup"), "second copy must survive one delete");
        assert!(f.delete(b"dup"));
        assert!(!f.contains(b"dup"));
    }

    #[test]
    fn shrink_to_fit_reclaims_after_mass_deletes() {
        let mut f = small();
        for i in 0..20_000u64 {
            f.insert(&key(i)).unwrap();
        }
        for i in 500..20_000u64 {
            assert!(f.delete(&key(i)));
        }
        let before = f.capacity();
        assert!(f.shrink_to_fit(), "shrink must find a smaller geometry");
        assert!(f.capacity() < before, "capacity must drop");
        assert_eq!(f.segments(), 1);
        assert_eq!(f.len(), 500, "repack must preserve occupancy");
        for i in 0..500u64 {
            assert!(f.contains(&key(i)), "item {i} lost by shrink");
        }
        // Already-minimal chains refuse to shrink further.
        assert!(!f.shrink_to_fit());
    }

    #[test]
    fn shrink_to_fit_repack_is_not_charged_to_per_op_counters() {
        let mut f = small();
        for i in 0..20_000u64 {
            f.insert(&key(i)).unwrap();
        }
        for i in 1_000..20_000u64 {
            assert!(f.delete(&key(i)));
        }
        let before = f.stats();
        assert!(f.shrink_to_fit(), "shrink must find a smaller geometry");
        let after = f.stats();
        assert_eq!(after, before, "repack work leaked into per-op stats");
        assert_eq!(
            after.hash_computations,
            2 * after.inserts.calls + after.kicks
        );
        assert_eq!(f.segments(), 1);
        assert_eq!(f.len(), 1_000);
        for i in 0..1_000u64 {
            assert!(f.contains(&key(i)), "survivor {i} lost by the repack");
        }
    }

    #[test]
    fn shrink_on_minimal_filter_is_a_noop() {
        let mut f = small();
        f.insert(b"one").unwrap();
        assert!(!f.shrink_to_fit());
        assert!(f.contains(b"one"));
    }

    #[test]
    fn growth_limit_is_enforced() {
        let mut f = small();
        f.set_growth_limit(1); // base + one doubling = 768 slots total
        let mut stored = 0u64;
        let mut failed = false;
        for i in 0..4_000u64 {
            match f.insert(&key(i)) {
                Ok(()) => stored += 1,
                Err(InsertError::Full { .. }) => {
                    failed = true;
                    break;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(failed, "capped filter must eventually refuse");
        // With only two 64-bucket partitions the per-partition load
        // variance is high; require at least one partition's worth.
        assert!(
            stored >= 256,
            "segments should fill substantially: {stored}"
        );
        // Everything acknowledged must still be present.
        for i in 0..stored {
            assert!(f.contains(&key(i)), "item {i} lost at the growth cap");
        }
    }

    #[test]
    fn insert_batch_matches_serial_exactly() {
        let keys: Vec<Vec<u8>> = (0..6_000).map(key).collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let config = CuckooConfig::new(1 << 6).with_seed(42);

        let mut serial = ScalableVcf::new(config).unwrap();
        let serial_results: Vec<_> = refs.iter().map(|k| serial.insert(k)).collect();
        let mut batched = ScalableVcf::new(config).unwrap();
        let batch_results = batched.insert_batch(&refs);

        assert_eq!(serial_results, batch_results);
        assert_eq!(serial.len(), batched.len());
        assert_eq!(serial.segments(), batched.segments());
        let a: Vec<_> = serial.stored().collect();
        let b: Vec<_> = batched.stored().collect();
        assert_eq!(a, b, "batched insert must be bit-identical to serial");
    }

    #[test]
    fn contains_batch_matches_serial_contains() {
        let mut f = small();
        for i in 0..4_000u64 {
            f.insert(&key(i)).unwrap();
        }
        let queries: Vec<Vec<u8>> = (0..8_000).map(key).collect();
        let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
        let batched = f.contains_batch(&refs);
        for (q, got) in refs.iter().zip(&batched) {
            assert_eq!(*got, f.contains(q));
        }
    }

    #[test]
    fn counters_record_one_logical_insert_per_call() {
        let mut f = small();
        for i in 0..3_000u64 {
            f.insert(&key(i)).unwrap();
        }
        let s = f.stats();
        assert_eq!(s.inserts.calls, 3_000);
        // Random walk: 2 hashes per insert + 1 per kick, with migration
        // work deliberately excluded from the per-op accounting.
        assert_eq!(s.hash_computations, 2 * s.inserts.calls + s.kicks);
    }

    #[test]
    fn migration_stats_track_drained_work() {
        let mut f = small();
        for i in 0..5_000u64 {
            f.insert(&key(i)).unwrap();
        }
        let m = f.migration_stats();
        assert!(m.steps > 0);
        assert!(m.drained_buckets > 0);
        assert!(m.moved_fingerprints > 0);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let run = || {
            let mut f = ScalableVcf::new(CuckooConfig::new(1 << 6).with_seed(77)).unwrap();
            for i in 0..8_000u64 {
                f.insert(&key(i)).unwrap();
            }
            let stored: Vec<_> = f.stored().collect();
            (f.segments(), f.stats().kicks, stored)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn name_reports_segment_count() {
        let mut f = small();
        assert_eq!(f.name(), "ScalableVCF[1]");
        f.grow().unwrap();
        assert_eq!(f.name(), "ScalableVCF[2]");
    }

    #[test]
    fn rejects_geometry_without_selector_bits() {
        assert!(ScalableVcf::new(CuckooConfig::new(1 << 6)).is_ok());
        // A 2^32-bucket base would leave no partition-selector bits; we
        // cannot allocate that in a test, but the validation must reject
        // non-power-of-two geometry the same way the fixed filter does.
        assert!(ScalableVcf::new(CuckooConfig::new(12)).is_err());
    }

    #[test]
    fn filter_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ScalableVcf>();
    }

    #[test]
    fn partition_confinement_invariant_holds() {
        // Every resident must sit in a bucket whose partition bits equal
        // the selector derived from its own fingerprint hash — the
        // invariant that makes relocation and migration exact.
        let mut f = small();
        for i in 0..20_000u64 {
            f.insert(&key(i)).unwrap();
        }
        let base_bits = f.base_buckets().trailing_zeros();
        let stored: Vec<_> = f.stored().collect();
        for (seg, bucket, fp) in stored {
            let seg_buckets = f.segments[seg].table.buckets();
            let part_bits = seg_buckets.trailing_zeros() - base_bits;
            let hfp = f.hash_kind().hash_fingerprint(fp);
            let expected = part_base(hfp, part_bits, base_bits);
            assert_eq!(
                bucket >> base_bits << base_bits,
                expected,
                "resident {fp:#x} in segment {seg} bucket {bucket} violates confinement"
            );
        }
    }
}
