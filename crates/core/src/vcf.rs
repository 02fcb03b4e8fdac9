//! The Vertical Cuckoo Filter (Algorithms 1–3) — also covers IVCF.

use crate::bitmask::MaskPair;
use crate::config::CuckooConfig;
use crate::key;
use crate::vertical::{Candidates, VerticalParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vcf_hash::HashKind;
use vcf_table::FingerprintTable;
use vcf_traits::{BuildError, Counters, Filter, InsertError, Stats};

/// The Vertical Cuckoo Filter of Section III — and, by choosing the
/// bitmask shape, every `IVCF_i` of Section IV-A.
///
/// Each item receives four candidate buckets derived by vertical hashing
/// from its fingerprint alone:
///
/// ```text
/// B1 = hash(x)                         B2 = B1 ⊕ (hash(η) ∧ bm1)
/// B3 = B1 ⊕ (hash(η) ∧ bm2)            B4 = B1 ⊕ hash(η)
/// ```
///
/// Insertion follows the paper's Algorithm 1: try all four candidates for
/// an empty slot; otherwise evict a random resident and relocate it along
/// *its own* candidate cycle, up to `MAX` kicks. Lookup and deletion probe
/// the four candidate buckets (Algorithms 2–3).
///
/// # IVCF
///
/// [`VerticalCuckooFilter::with_mask_ones`] builds the paper's `IVCF_i`:
/// `i` one-bits in the first bitmask, trading load factor against false
/// positive rate through the four-candidate probability `r` (Equ. 8).
/// The plain constructor uses the balanced split, i.e. the standard VCF.
///
/// # Guarantees
///
/// * **No false negatives**: inserted, un-deleted items are always found.
/// * **Atomic insertion**: an insertion that fails with
///   [`InsertError::Full`] rolls the eviction chain back, leaving the
///   table byte-identical to its pre-insert state (an undo log of the
///   kick walk is kept and replayed in reverse).
/// * **Safe deletion** of items that were actually inserted, with
///   fingerprint-multiset semantics exactly like CF.
///
/// # Examples
///
/// ```
/// use vcf_core::{CuckooConfig, VerticalCuckooFilter};
/// use vcf_traits::Filter;
///
/// let mut vcf = VerticalCuckooFilter::new(CuckooConfig::new(1 << 8))?;
/// for i in 0u32..500 {
///     vcf.insert(&i.to_le_bytes())?;
/// }
/// assert!(vcf.contains(&42u32.to_le_bytes()));
/// assert!(vcf.load_factor() > 0.45);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct VerticalCuckooFilter {
    table: FingerprintTable,
    params: VerticalParams,
    masks: MaskPair,
    hash: HashKind,
    max_kicks: u32,
    seed: u64,
    rng: SmallRng,
    /// Undo log for the current eviction walk: `(bucket, slot, previous
    /// fingerprint)` per swap, replayed in reverse on failure. Kept as a
    /// field to avoid reallocating on every deep insertion.
    undo: Vec<(usize, usize, u32)>,
    counters: Counters,
    label: String,
}

impl VerticalCuckooFilter {
    /// Builds a standard VCF (balanced bitmasks) from `config`.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for invalid geometry (see
    /// [`CuckooConfig::validate`]).
    pub fn new(config: CuckooConfig) -> Result<Self, BuildError> {
        let masks = MaskPair::balanced(config.fingerprint_bits)?;
        Self::with_masks(config, masks, "VCF".to_owned())
    }

    /// Builds the paper's `IVCF_i`: `ones` one-bits in the first bitmask.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for invalid geometry or a degenerate mask
    /// (`ones` must be in `1..config.fingerprint_bits`).
    pub fn with_mask_ones(config: CuckooConfig, ones: u32) -> Result<Self, BuildError> {
        let masks = MaskPair::with_ones(ones, config.fingerprint_bits)?;
        Self::with_masks(config, masks, format!("IVCF{ones}"))
    }

    /// Builds a VCF with an explicit mask pair.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for invalid geometry.
    pub fn with_masks(
        config: CuckooConfig,
        masks: MaskPair,
        label: String,
    ) -> Result<Self, BuildError> {
        config.validate()?;
        let table = FingerprintTable::new(
            config.buckets,
            config.slots_per_bucket,
            config.fingerprint_bits,
        )?;
        let params = VerticalParams::new(masks, config.buckets);
        Ok(Self {
            table,
            params,
            masks,
            hash: config.hash,
            max_kicks: config.max_kicks,
            seed: config.seed,
            rng: SmallRng::seed_from_u64(config.seed),
            undo: Vec::new(),
            counters: Counters::new(),
            label,
        })
    }

    /// The bitmask pair in use.
    pub fn masks(&self) -> MaskPair {
        self.masks
    }

    /// The effective vertical-hashing parameters (masks restricted to the
    /// index domain).
    pub fn params(&self) -> VerticalParams {
        self.params
    }

    /// Expected probability `r` of four distinct candidate buckets
    /// (Equ. 8) for this filter's effective mask geometry.
    pub fn expected_r(&self) -> f64 {
        let index_bits = (self.table.buckets().trailing_zeros()).max(2);
        match self.masks.restricted_to(index_bits) {
            Some(m) => m.expected_r(),
            None => 0.0,
        }
    }

    /// Number of buckets `m`.
    pub fn buckets(&self) -> usize {
        self.table.buckets()
    }

    /// Slots per bucket `b`.
    pub fn slots_per_bucket(&self) -> usize {
        self.table.slots_per_bucket()
    }

    /// Fingerprint width `f` in bits.
    pub fn fingerprint_bits(&self) -> u32 {
        self.table.fingerprint_bits()
    }

    /// Heap bytes used by the fingerprint table.
    pub fn storage_bytes(&self) -> usize {
        self.table.storage_bytes()
    }

    /// The hash function in use.
    pub fn hash_kind(&self) -> HashKind {
        self.hash
    }

    /// The relocation threshold `MAX`.
    pub fn max_kicks(&self) -> u32 {
        self.max_kicks
    }

    /// The PRNG seed the filter was configured with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Raw fingerprint stored in `(bucket, slot)`; `0` = empty. Used by
    /// snapshot persistence.
    pub(crate) fn slot_value(&self, bucket: usize, slot: usize) -> u32 {
        self.table.get(bucket, slot)
    }

    /// Overwrites `(bucket, slot)` with a raw fingerprint value. Used by
    /// snapshot restore.
    pub(crate) fn set_slot_value(&mut self, bucket: usize, slot: usize, value: u32) {
        self.table.set(bucket, slot, value);
    }

    /// Occupancy of the slot table — `α` as the paper measures it.
    pub fn table_load_factor(&self) -> f64 {
        self.table.load_factor()
    }

    /// Canonical coset key of a query item: `(min candidate bucket) <<
    /// 32 | fingerprint`. Theorem 1 closure makes the minimum identical
    /// from every member bucket, so the same key is derivable from
    /// stored bits alone (see [`canonical_keys`](Self::canonical_keys))
    /// — the freeze-boundary representation used by the tiered
    /// lifecycle. Two items hashing to the same `(coset, fingerprint)`
    /// pair share a key — exactly the pairs this filter already cannot
    /// tell apart.
    pub fn canonical_key(&self, item: &[u8]) -> u64 {
        let (fp, b1) = self.key_of(item);
        let cands = self.candidates_of(fp, b1);
        ((cands.canonical_low() as u64) << 32) | u64::from(fp)
    }

    /// Canonical coset keys of every stored fingerprint, derived from
    /// stored bits alone (no original items needed) — the partial-key
    /// invariant extended across the freeze boundary.
    pub fn canonical_keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.table.iter().map(|(bucket, _slot, fp)| {
            let cands = self.candidates_of(fp, bucket);
            ((cands.canonical_low() as u64) << 32) | u64::from(fp)
        })
    }

    #[inline]
    fn key_of(&self, item: &[u8]) -> (u32, usize) {
        key::hash_item(
            self.hash,
            item,
            self.fingerprint_bits(),
            self.params.index_mask(),
        )
    }

    #[inline]
    fn candidates_of(&self, fingerprint: u32, b1: usize) -> Candidates {
        let hfp = self.hash.hash_fingerprint(fingerprint);
        self.params.candidates(b1, hfp)
    }

    /// Places an already-hashed item: Algorithm 1 with
    /// rollback-on-failure. `add_hashes(2)` for `hash(x)`/`hash(η)` has
    /// already been charged by the caller. Bucket accesses are counted
    /// as they happen (candidate probes, eviction swaps, alternate
    /// probes) instead of the old closed-form `4 + 3·kicks`.
    fn insert_prehashed(&mut self, fingerprint: u32, cands: Candidates) -> Result<(), InsertError> {
        let slots = self.table.slots_per_bucket();
        let mut probes = 0u64;
        let mut accesses = 0u64;
        for bucket in cands.iter() {
            probes += slots as u64;
            accesses += 1;
            if self.table.try_insert(bucket, fingerprint).is_some() {
                self.counters.record_insert(probes, accesses);
                return Ok(());
            }
        }

        // All candidates full: relocate existing fingerprints, logging
        // every swap so a failed walk can be undone.
        self.undo.clear();
        let mut current_fp = fingerprint;
        let mut current_bucket = cands.buckets[self.rng.gen_range(0..4)];
        let mut kicks = 0u64;
        for _ in 0..self.max_kicks {
            let slot = self.rng.gen_range(0..slots);
            let victim = self.table.swap(current_bucket, slot, current_fp);
            accesses += 1;
            self.undo.push((current_bucket, slot, victim));
            current_fp = victim;
            kicks += 1;

            let victim_hash = self.hash.hash_fingerprint(current_fp);
            self.counters.add_hashes(1);
            let alts = self.params.alternates(current_bucket, victim_hash);
            let mut placed = false;
            for &alt in &alts {
                probes += slots as u64;
                accesses += 1;
                if self.table.try_insert(alt, current_fp).is_some() {
                    placed = true;
                    break;
                }
            }
            if placed {
                self.counters.add_kicks(kicks);
                self.counters.record_insert(probes, accesses);
                return Ok(());
            }
            current_bucket = alts[self.rng.gen_range(0..3)];
        }

        // Kick limit reached: the table is considered full. Replay the
        // undo log backwards so the failed insertion leaves no trace.
        for &(bucket, slot, previous) in self.undo.iter().rev() {
            self.table.set(bucket, slot, previous);
        }
        self.undo.clear();
        self.counters.add_kicks(kicks);
        self.counters.record_insert(probes, accesses);
        self.counters.add_failed_insert();
        Err(InsertError::Full { kicks })
    }
}

impl Filter for VerticalCuckooFilter {
    // lint: hot-path
    /// Algorithm 1: random walk with rollback-on-failure.
    fn insert(&mut self, item: &[u8]) -> Result<(), InsertError> {
        let (fingerprint, b1) = self.key_of(item);
        let hfp = self.hash.hash_fingerprint(fingerprint);
        self.counters.add_hashes(2); // hash(x) + hash(η)
        let cands = self.params.candidates(b1, hfp);
        self.insert_prehashed(fingerprint, cands)
    }

    // lint: hot-path
    /// Pipelined Algorithm 1: hashes a window of items up front, issuing
    /// a software prefetch for every candidate bucket as each key is
    /// derived, then places fingerprints against warm cache lines.
    /// Placement runs in item order through the same
    /// [`insert_prehashed`](Self::insert_prehashed) as the serial path —
    /// the eviction PRNG is consumed identically, so batch and serial
    /// inserts produce bit-identical tables.
    fn insert_batch(&mut self, items: &[&[u8]]) -> Vec<Result<(), InsertError>> {
        const WINDOW: usize = 16;
        let mut out = Vec::with_capacity(items.len());
        let mut window = Vec::with_capacity(WINDOW);
        for chunk in items.chunks(WINDOW) {
            window.clear();
            for item in chunk {
                let (fingerprint, b1) = self.key_of(item);
                let hfp = self.hash.hash_fingerprint(fingerprint);
                self.counters.add_hashes(2);
                let cands = self.params.candidates(b1, hfp);
                for bucket in cands.iter() {
                    self.table.prefetch_bucket(bucket);
                }
                window.push((fingerprint, cands));
            }
            for &(fingerprint, cands) in &window {
                out.push(self.insert_prehashed(fingerprint, cands));
            }
        }
        out
    }

    // lint: hot-path
    /// Algorithm 2 — probes all four candidate entries (duplicates
    /// included, matching the paper's constant-time lookup behaviour).
    fn contains(&self, item: &[u8]) -> bool {
        let (fingerprint, b1) = self.key_of(item);
        let cands = self.candidates_of(fingerprint, b1);
        let mut probes = 0u64;
        let mut found = false;
        for bucket in cands.iter() {
            probes += self.table.slots_per_bucket() as u64;
            if self.table.contains(bucket, fingerprint) {
                found = true;
                break;
            }
        }
        self.counters
            .record_lookup(probes, cands.buckets.len() as u64);
        found
    }

    // lint: hot-path
    /// Batched Algorithm 2: hashes every item up front, touching each
    /// item's primary bucket as its key is produced, then probes the four
    /// candidates per item in a second pass. Hashing and the early bucket
    /// reads overlap the cache misses of later items instead of
    /// serialising hash → miss → hash → miss per lookup.
    fn contains_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        let mut keys = Vec::with_capacity(items.len());
        for item in items {
            let (fingerprint, b1) = self.key_of(item);
            let cands = self.candidates_of(fingerprint, b1);
            // Early touch of every candidate bucket: starts the lines
            // toward the cache while the remaining keys hash.
            for bucket in cands.iter() {
                self.table.touch_bucket(bucket);
            }
            keys.push((fingerprint, cands));
        }
        let slots = self.table.slots_per_bucket() as u64;
        let mut out = Vec::with_capacity(items.len());
        for &(fingerprint, cands) in &keys {
            // One early-exit probe over the four candidates; the counters
            // charge all four whatever the probe finds.
            let found = self.table.contains_any(&cands.buckets, fingerprint);
            self.counters.record_lookup(
                cands.buckets.len() as u64 * slots,
                cands.buckets.len() as u64,
            );
            out.push(found);
        }
        out
    }

    // lint: hot-path
    /// Algorithm 3.
    fn delete(&mut self, item: &[u8]) -> bool {
        let (fingerprint, b1) = self.key_of(item);
        let cands = self.candidates_of(fingerprint, b1);
        let mut probes = 0u64;
        let mut removed = false;
        // Deduplicate on the fly: removing from the same physical bucket
        // twice would delete two copies.
        let mut tried = [usize::MAX; 4];
        let mut tried_len = 0;
        for bucket in cands.iter() {
            if tried[..tried_len].contains(&bucket) {
                continue;
            }
            // Four candidates at most, so the scratch array cannot fill.
            debug_assert!(tried_len < tried.len(), "at most 4 distinct candidates");
            tried[tried_len] = bucket;
            tried_len += 1;
            probes += self.table.slots_per_bucket() as u64;
            if self.table.remove_one(bucket, fingerprint) {
                removed = true;
                break;
            }
        }
        self.counters.record_delete(probes, tried_len as u64);
        removed
    }

    fn len(&self) -> usize {
        self.table.occupied()
    }

    fn capacity(&self) -> usize {
        self.table.capacity()
    }

    fn stats(&self) -> Stats {
        self.counters.snapshot()
    }

    fn reset_stats(&mut self) {
        self.counters.reset();
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> VerticalCuckooFilter {
        VerticalCuckooFilter::new(CuckooConfig::new(1 << 8).with_seed(1)).unwrap()
    }

    fn key(i: u64) -> Vec<u8> {
        format!("item-{i}").into_bytes()
    }

    #[test]
    fn insert_lookup_delete_roundtrip() {
        let mut f = small();
        f.insert(b"x").unwrap();
        assert!(f.contains(b"x"));
        assert_eq!(f.len(), 1);
        assert!(f.delete(b"x"));
        assert!(!f.contains(b"x"));
        assert_eq!(f.len(), 0);
        assert!(!f.delete(b"x"));
    }

    #[test]
    fn no_false_negatives_when_half_full() {
        let mut f = small();
        for i in 0..512 {
            f.insert(&key(i)).unwrap();
        }
        for i in 0..512 {
            assert!(f.contains(&key(i)), "item {i} lost");
        }
    }

    #[test]
    fn fills_past_95_percent() {
        let mut f = VerticalCuckooFilter::new(CuckooConfig::new(1 << 10).with_seed(3)).unwrap();
        let capacity = f.capacity();
        let mut stored = 0;
        for i in 0..capacity as u64 {
            if f.insert(&key(i)).is_ok() {
                stored += 1;
            }
        }
        let alpha = stored as f64 / capacity as f64;
        assert!(alpha > 0.95, "VCF load factor only {alpha}");
    }

    #[test]
    fn no_false_negatives_even_after_insert_failures() {
        let mut f = VerticalCuckooFilter::new(CuckooConfig::new(1 << 6).with_seed(9)).unwrap();
        let mut acknowledged = Vec::new();
        for i in 0..(f.capacity() as u64 + 50) {
            if f.insert(&key(i)).is_ok() {
                acknowledged.push(i);
            }
        }
        for i in acknowledged {
            assert!(
                f.contains(&key(i)),
                "acknowledged item {i} lost after overflow"
            );
        }
    }

    #[test]
    fn failed_insert_rolls_back_exactly() {
        let mut f = VerticalCuckooFilter::new(CuckooConfig::new(1 << 5).with_seed(7)).unwrap();
        // Fill until the first failure.
        let mut i = 0u64;
        loop {
            if f.insert(&key(i)).is_err() {
                break;
            }
            i += 1;
            assert!(i < 10_000, "filter never filled");
        }
        let before = f.clone();
        // Ten more failing inserts must leave the table untouched.
        for j in 0..10u64 {
            let _ = f.insert(&key(1_000_000 + j));
        }
        assert_eq!(f.len(), before.len());
        for n in 0..i {
            assert_eq!(
                f.contains(&key(n)),
                before.contains(&key(n)),
                "item {n} flipped"
            );
        }
    }

    #[test]
    fn delete_then_reinsert_succeeds() {
        let mut f = small();
        let capacity = f.capacity() as u64;
        for i in 0..capacity {
            let _ = f.insert(&key(i));
        }
        for i in 0..32 {
            f.delete(&key(i));
        }
        let mut ok = 0;
        for i in capacity..capacity + 16 {
            if f.insert(&key(i)).is_ok() {
                ok += 1;
            }
        }
        assert!(ok > 0, "freed space must be reusable");
    }

    #[test]
    fn duplicate_inserts_are_independent_copies() {
        let mut f = small();
        f.insert(b"dup").unwrap();
        f.insert(b"dup").unwrap();
        assert!(f.delete(b"dup"));
        assert!(f.contains(b"dup"), "second copy must survive one delete");
        assert!(f.delete(b"dup"));
        assert!(!f.contains(b"dup"));
    }

    #[test]
    fn deleting_one_item_never_hides_another() {
        let mut f = small();
        for i in 0..300 {
            f.insert(&key(i)).unwrap();
        }
        for i in 0..100 {
            f.delete(&key(i));
        }
        for i in 100..300 {
            assert!(
                f.contains(&key(i)),
                "item {i} vanished after unrelated deletes"
            );
        }
    }

    #[test]
    fn ivcf_constructor_sets_label_and_r() {
        let f = VerticalCuckooFilter::with_mask_ones(CuckooConfig::new(1 << 16), 3).unwrap();
        assert_eq!(f.name(), "IVCF3");
        // IVCF3 at f=14: r = 1 − 2^-3 − 2^-11 + 2^-14 ≈ 0.8746
        assert!(
            (f.expected_r() - 0.8746).abs() < 1e-3,
            "r={}",
            f.expected_r()
        );
    }

    #[test]
    fn stats_count_inserts_and_kicks() {
        let mut f = small();
        for i in 0..900 {
            let _ = f.insert(&key(i));
        }
        let s = f.stats();
        assert_eq!(s.inserts.calls, 900);
        assert!(s.hash_computations >= 1800);
        assert!(s.inserts.slot_probes > 0);
        // Near-full fills must have triggered evictions.
        assert!(s.kicks > 0);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut f = small();
        f.insert(b"a").unwrap();
        f.reset_stats();
        assert_eq!(f.stats(), Stats::default());
    }

    #[test]
    fn len_and_capacity_consistent() {
        let mut f = small();
        assert_eq!(f.capacity(), 1 << 10);
        assert!(f.is_empty());
        f.insert(b"one").unwrap();
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let run = || {
            let mut f = VerticalCuckooFilter::new(CuckooConfig::new(1 << 8).with_seed(77)).unwrap();
            let mut stored = 0u32;
            for i in 0..1200 {
                if f.insert(&key(i)).is_ok() {
                    stored += 1;
                }
            }
            (stored, f.stats().kicks)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn works_with_every_hash_kind() {
        for kind in HashKind::ALL {
            let mut f =
                VerticalCuckooFilter::new(CuckooConfig::new(1 << 8).with_hash(kind).with_seed(5))
                    .unwrap();
            for i in 0..400 {
                f.insert(&key(i)).unwrap();
            }
            for i in 0..400 {
                assert!(f.contains(&key(i)), "{kind}: item {i} lost");
            }
        }
    }

    #[test]
    fn false_positive_rate_is_bounded() {
        let mut f = VerticalCuckooFilter::new(
            CuckooConfig::new(1 << 12)
                .with_fingerprint_bits(14)
                .with_seed(2),
        )
        .unwrap();
        let n = (f.capacity() as f64 * 0.9) as u64;
        for i in 0..n {
            let _ = f.insert(&key(i));
        }
        let mut false_positives = 0u64;
        let aliens = 100_000u64;
        for i in 0..aliens {
            if f.contains(&key(1_000_000 + i)) {
                false_positives += 1;
            }
        }
        let fpr = false_positives as f64 / aliens as f64;
        // Equ. 10 upper bound: 2(r+1)bα/2^f ≈ 2·2·4·0.9/2^14 ≈ 8.8e-4.
        assert!(fpr < 2.5e-3, "fpr={fpr}");
    }

    #[test]
    fn filter_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VerticalCuckooFilter>();
    }

    #[test]
    fn insert_batch_matches_serial_exactly() {
        let keys: Vec<Vec<u8>> = (0..1100).map(key).collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let config = CuckooConfig::new(1 << 8).with_seed(42);

        let mut serial = VerticalCuckooFilter::new(config).unwrap();
        let serial_results: Vec<_> = refs.iter().map(|k| serial.insert(k)).collect();
        let mut batched = VerticalCuckooFilter::new(config).unwrap();
        let batch_results = batched.insert_batch(&refs);

        assert_eq!(serial_results, batch_results);
        assert_eq!(serial.len(), batched.len());
        assert_eq!(serial.stats().kicks, batched.stats().kicks);
        for b in 0..serial.buckets() {
            for s in 0..serial.slots_per_bucket() {
                assert_eq!(
                    serial.slot_value(b, s),
                    batched.slot_value(b, s),
                    "table diverged at ({b}, {s})"
                );
            }
        }
    }

    #[test]
    fn random_walk_hash_count_matches_actual_calls() {
        // Under the random walk, every insert hashes the item and its
        // fingerprint (2), plus one fingerprint hash per kick. The
        // counters must reproduce that exactly — no closed-form drift.
        let mut f = small();
        for i in 0..900 {
            let _ = f.insert(&key(i));
        }
        let s = f.stats();
        assert_eq!(s.hash_computations, 2 * s.inserts.calls + s.kicks);
    }
}
