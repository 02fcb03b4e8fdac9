//! The generalized k-VCF (Section III-C): `k ≥ 2` candidate buckets with
//! per-slot mark bits.

use crate::config::CuckooConfig;
use crate::key;
use crate::vertical::{masked_candidate, masked_relocate};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vcf_hash::{HashKind, SplitMix64};
use vcf_table::{MarkedEntry, MarkedTable};
use vcf_traits::{BuildError, Counters, Filter, InsertError, Stats};

/// The generalized Vertical Cuckoo Filter with `k` candidate buckets.
///
/// Generalized vertical hashing (Equ. 6) derives the candidates from
/// `k − 2` bitmasks plus the two trivial ones (`bm = 0` for `B1`,
/// `bm = all-ones` for `Bk`):
///
/// ```text
/// B_e = B1 ⊕ (hash(η) ∧ bm_e)          e = 1..k
/// ```
///
/// Unlike the 4-candidate VCF, the masks are not mutually complementary,
/// so a resident fingerprint alone does not reveal *which* candidate its
/// bucket is. Each slot therefore stores a **mark** — the index `e` of its
/// current candidate (the paper's "counter field") — and relocation uses
/// Theorem 2 / Equ. 7:
///
/// ```text
/// B_e = B_g ⊕ (hash(η) ∧ bm_g) ⊕ (hash(η) ∧ bm_e)
/// ```
///
/// With `max_kicks = 0` (the paper's Table V regime) insertion never
/// relocates: a larger `k` alone pushes the load factor toward ~97 %.
///
/// # Examples
///
/// ```
/// use vcf_core::{CuckooConfig, KVcf};
/// use vcf_traits::Filter;
///
/// let config = CuckooConfig::new(1 << 8).with_fingerprint_bits(16);
/// let mut filter = KVcf::new(config, 8)?;
/// filter.insert(b"k-vcf item")?;
/// assert!(filter.contains(b"k-vcf item"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct KVcf {
    table: MarkedTable,
    /// `masks[e]` for `e = 0..k`; `masks[0] = 0`, `masks[k-1]` = full
    /// domain. Already restricted to the index range.
    masks: Vec<u64>,
    hash: HashKind,
    max_kicks: u32,
    seed: u64,
    index_mask: u64,
    rng: SmallRng,
    /// Undo log for the current eviction walk: `(bucket, slot, previous
    /// entry)` per swap, replayed in reverse on failure.
    undo: Vec<(usize, usize, MarkedEntry)>,
    counters: Counters,
}

impl KVcf {
    /// Builds a k-VCF with `k` candidate buckets per item.
    ///
    /// The `k − 2` intermediate bitmasks are generated deterministically
    /// from `config.seed`, distinct, and neither empty nor full (those two
    /// are reserved for `B1` and `Bk`).
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for invalid geometry, `k < 2`, or a table
    /// too small to host `k − 2` distinct intermediate masks.
    pub fn new(config: CuckooConfig, k: usize) -> Result<Self, BuildError> {
        config.validate()?;
        if k < 2 {
            return Err(BuildError::InvalidConfig {
                reason: format!("k-VCF needs k >= 2 candidate buckets, got {k}"),
            });
        }
        let index_bits = config.buckets.trailing_zeros().max(1);
        let domain_bits = config.fingerprint_bits.min(index_bits);
        let domain = (1u64 << domain_bits) - 1;
        // 2^domain − 2 non-trivial masks exist.
        if k > 2 && (k - 2) as u64 > domain.saturating_sub(1) {
            return Err(BuildError::InvalidConfig {
                reason: format!(
                    "cannot generate {} distinct intermediate masks over {domain_bits} bits",
                    k - 2
                ),
            });
        }

        let mut masks = Vec::with_capacity(k);
        masks.push(0u64);
        // lint: allow(theorem1-confinement) — seed whitening for the mask
        // generator, not candidate-bucket arithmetic
        let mut gen = SplitMix64::new(config.seed ^ 0x6b76_6366); // "kvcf"
        while masks.len() < k - 1 {
            let candidate = gen.next_u64() & domain;
            if candidate != 0 && candidate != domain && !masks.contains(&candidate) {
                masks.push(candidate);
            }
        }
        masks.push(domain);

        let table = MarkedTable::new(
            config.buckets,
            config.slots_per_bucket,
            config.fingerprint_bits,
            k,
        )?;
        Ok(Self {
            table,
            masks,
            hash: config.hash,
            max_kicks: config.max_kicks,
            seed: config.seed,
            index_mask: config.buckets as u64 - 1,
            rng: SmallRng::seed_from_u64(config.seed),
            undo: Vec::new(),
            counters: Counters::new(),
        })
    }

    /// Number of candidate buckets `k`.
    pub fn k(&self) -> usize {
        self.masks.len()
    }

    /// Mark-field width in bits (storage overhead per slot).
    pub fn mark_bits(&self) -> u32 {
        self.table.mark_bits()
    }

    /// Occupancy of the slot table only — `α` as the paper measures it.
    pub fn table_load_factor(&self) -> f64 {
        self.table.load_factor()
    }

    /// The hash function in use.
    pub fn hash_kind(&self) -> HashKind {
        self.hash
    }

    /// The relocation threshold `MAX`.
    pub fn max_kicks(&self) -> u32 {
        self.max_kicks
    }

    /// The PRNG seed the filter was configured with (also regenerates the
    /// intermediate bitmasks deterministically).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Read access to the marked table (snapshot persistence).
    pub(crate) fn table(&self) -> &MarkedTable {
        &self.table
    }

    /// Write access to the marked table (snapshot restore).
    pub(crate) fn table_mut(&mut self) -> &mut MarkedTable {
        &mut self.table
    }

    #[inline]
    fn key_of(&self, item: &[u8]) -> (u32, usize) {
        key::hash_item(
            self.hash,
            item,
            self.table.fingerprint_bits(),
            self.index_mask,
        )
    }

    /// Equ. 6: candidate bucket `B_e` anchored at `b1`. Delegates to
    /// [`masked_candidate`] so the Theorem-2 arithmetic stays confined
    /// to `vertical.rs`.
    #[inline]
    fn candidate(&self, b1: usize, hfp: u64, e: usize) -> usize {
        debug_assert!(e < self.masks.len());
        masked_candidate(b1, hfp, self.masks[e], self.index_mask)
    }

    /// Equ. 7: move from candidate `g` (bucket `bg`) to candidate `e`.
    /// Delegates to [`masked_relocate`]; closure over the candidate
    /// coset is proven (and tested) at the definition site.
    #[inline]
    fn relocate(&self, bg: usize, hfp: u64, g: usize, e: usize) -> usize {
        debug_assert!(g < self.masks.len() && e < self.masks.len());
        masked_relocate(bg, hfp, self.masks[g], self.masks[e], self.index_mask)
    }

    /// Places an already-hashed item: the paper's random-walk relocation
    /// over Equ. 7, with rollback-on-failure and bucket accesses counted
    /// as they happen.
    fn insert_prehashed(
        &mut self,
        fingerprint: u32,
        b1: usize,
        hfp: u64,
    ) -> Result<(), InsertError> {
        let k = self.k();
        let slots = self.table.slots_per_bucket();

        let mut probes = 0u64;
        for e in 0..k {
            let bucket = self.candidate(b1, hfp, e);
            probes += slots as u64;
            let entry = MarkedEntry {
                fingerprint,
                mark: e as u8,
            };
            if self.table.try_insert(bucket, entry).is_some() {
                self.counters.record_insert(probes, (e + 1) as u64);
                return Ok(());
            }
        }

        if self.max_kicks == 0 {
            // Table V regime: no relocation at all.
            self.counters.record_insert(probes, k as u64);
            self.counters.add_failed_insert();
            return Err(InsertError::Full { kicks: 0 });
        }

        self.undo.clear();
        let mut cur_mark = self.rng.gen_range(0..k);
        let mut cur_bucket = self.candidate(b1, hfp, cur_mark);
        let mut cur_entry = MarkedEntry {
            fingerprint,
            mark: cur_mark as u8,
        };
        let mut kicks = 0u64;
        let mut bucket_accesses = k as u64;
        for _ in 0..self.max_kicks {
            let slot = self.rng.gen_range(0..slots);
            bucket_accesses += 1;
            let Some(victim) = self.table.swap(cur_bucket, slot, cur_entry) else {
                // Eviction targets full buckets, but a slot freed by the
                // relocation attempts above is fair game: the entry just
                // landed in it, so the walk is done.
                self.counters.add_kicks(kicks + 1);
                self.counters.record_insert(probes, bucket_accesses);
                return Ok(());
            };
            self.undo.push((cur_bucket, slot, victim));
            kicks += 1;

            // Access both the fingerprint field and the counter field,
            // then compute the victim's other candidates via Equ. 7.
            let victim_hash = self.hash.hash_fingerprint(victim.fingerprint);
            self.counters.add_hashes(1);
            let g = usize::from(victim.mark);
            let mut placed = false;
            for e in (0..k).filter(|&e| e != g) {
                let bucket = self.relocate(cur_bucket, victim_hash, g, e);
                probes += slots as u64;
                bucket_accesses += 1;
                let entry = MarkedEntry {
                    fingerprint: victim.fingerprint,
                    mark: e as u8,
                };
                if self.table.try_insert(bucket, entry).is_some() {
                    placed = true;
                    break;
                }
            }
            if placed {
                self.counters.add_kicks(kicks);
                self.counters.record_insert(probes, bucket_accesses);
                return Ok(());
            }
            // Carry the victim to a random other candidate.
            let e = {
                let mut e = self.rng.gen_range(0..k - 1);
                if e >= g {
                    e += 1;
                }
                e
            };
            cur_bucket = self.relocate(cur_bucket, victim_hash, g, e);
            cur_mark = e;
            cur_entry = MarkedEntry {
                fingerprint: victim.fingerprint,
                mark: cur_mark as u8,
            };
        }

        for &(bucket, slot, previous) in self.undo.iter().rev() {
            self.table.swap(bucket, slot, previous);
        }
        self.undo.clear();
        self.counters.add_kicks(kicks);
        self.counters.record_insert(probes, bucket_accesses);
        self.counters.add_failed_insert();
        Err(InsertError::Full { kicks })
    }
}

impl Filter for KVcf {
    fn insert(&mut self, item: &[u8]) -> Result<(), InsertError> {
        let (fingerprint, b1) = self.key_of(item);
        let hfp = self.hash.hash_fingerprint(fingerprint);
        self.counters.add_hashes(2);
        self.insert_prehashed(fingerprint, b1, hfp)
    }

    /// Pipelined insertion: hashes a window of items and prefetches all
    /// `k` candidate buckets per item first, then places entries in item
    /// order through the same path as serial [`insert`](Self::insert)
    /// (identical PRNG consumption, so batch ≡ serial exactly).
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
                for e in 0..self.k() {
                    self.table.prefetch_bucket(self.candidate(b1, hfp, e));
                }
                window.push((fingerprint, b1, hfp));
            }
            for &(fingerprint, b1, hfp) in &window {
                out.push(self.insert_prehashed(fingerprint, b1, hfp));
            }
        }
        out
    }

    fn contains(&self, item: &[u8]) -> bool {
        let (fingerprint, b1) = self.key_of(item);
        let hfp = self.hash.hash_fingerprint(fingerprint);
        let k = self.k();
        let mut probes = 0u64;
        let mut found = false;
        for e in 0..k {
            let bucket = self.candidate(b1, hfp, e);
            probes += self.table.slots_per_bucket() as u64;
            if self.table.contains(
                bucket,
                MarkedEntry {
                    fingerprint,
                    mark: e as u8,
                },
            ) {
                found = true;
                break;
            }
        }
        self.counters.record_lookup(probes, k as u64);
        found
    }

    /// Batched lookup: hashes every item and touches its primary bucket
    /// (`B1`, candidate `e = 0`) first, then probes the `k` candidates per
    /// item with exact `(fingerprint, mark)` SWAR matches.
    fn contains_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        let mut keys = Vec::with_capacity(items.len());
        for item in items {
            let (fingerprint, b1) = self.key_of(item);
            let hfp = self.hash.hash_fingerprint(fingerprint);
            for e in 0..self.k() {
                self.table.touch_bucket(self.candidate(b1, hfp, e));
            }
            keys.push((fingerprint, b1, hfp));
        }
        let k = self.k();
        let slots = self.table.slots_per_bucket() as u64;
        let mut out = Vec::with_capacity(items.len());
        let mut buckets = Vec::with_capacity(k);
        let mut entries = Vec::with_capacity(k);
        for &(fingerprint, b1, hfp) in &keys {
            // One early-exit probe over all k candidates, each with its
            // own (fingerprint, mark) pattern; the counters charge every
            // candidate whatever the probe finds.
            buckets.clear();
            entries.clear();
            for e in 0..k {
                buckets.push(self.candidate(b1, hfp, e));
                entries.push(MarkedEntry {
                    fingerprint,
                    mark: e as u8,
                });
            }
            let found = self.table.contains_any(&buckets, &entries);
            self.counters.record_lookup(k as u64 * slots, k as u64);
            out.push(found);
        }
        out
    }

    fn delete(&mut self, item: &[u8]) -> bool {
        let (fingerprint, b1) = self.key_of(item);
        let hfp = self.hash.hash_fingerprint(fingerprint);
        let k = self.k();
        let mut probes = 0u64;
        let mut removed = false;
        for e in 0..k {
            let bucket = self.candidate(b1, hfp, e);
            probes += self.table.slots_per_bucket() as u64;
            if self.table.remove_one(
                bucket,
                MarkedEntry {
                    fingerprint,
                    mark: e as u8,
                },
            ) {
                removed = true;
                break;
            }
        }
        self.counters.record_delete(probes, k as u64);
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
        format!("{}-VCF", self.k())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> CuckooConfig {
        CuckooConfig::new(1 << 8)
            .with_fingerprint_bits(16)
            .with_seed(17)
    }

    fn key(i: u64) -> Vec<u8> {
        format!("kvcf-{i}").into_bytes()
    }

    #[test]
    fn rejects_invalid_k() {
        assert!(KVcf::new(config(), 0).is_err());
        assert!(KVcf::new(config(), 1).is_err());
        assert!(KVcf::new(config(), 2).is_ok());
        assert!(KVcf::new(config(), 10).is_ok());
    }

    #[test]
    fn masks_are_distinct_and_bounded() {
        let f = KVcf::new(config(), 9).unwrap();
        let mut masks = f.masks.clone();
        assert_eq!(masks[0], 0);
        assert_eq!(*masks.last().unwrap(), f.index_mask.min((1 << 16) - 1));
        masks.sort_unstable();
        masks.dedup();
        assert_eq!(masks.len(), 9, "masks must be pairwise distinct");
    }

    #[test]
    fn theorem2_relocation_reaches_all_candidates() {
        let f = KVcf::new(config(), 7).unwrap();
        let hfp = 0xdead_beef_1234_5678;
        let b1 = 99 & f.index_mask as usize;
        let all: Vec<usize> = (0..7).map(|e| f.candidate(b1, hfp, e)).collect();
        // From any candidate g, Equ. 7 must land exactly on candidate e.
        for g in 0..7 {
            for e in 0..7 {
                assert_eq!(
                    f.relocate(all[g], hfp, g, e),
                    all[e],
                    "Equ. 7 broken for g={g} e={e}"
                );
            }
        }
    }

    #[test]
    fn roundtrip_and_no_false_negatives() {
        let mut f = KVcf::new(config(), 6).unwrap();
        for i in 0..800 {
            f.insert(&key(i)).unwrap();
        }
        for i in 0..800 {
            assert!(f.contains(&key(i)), "item {i} lost");
        }
        for i in 0..400 {
            assert!(f.delete(&key(i)));
        }
        for i in 400..800 {
            assert!(f.contains(&key(i)), "item {i} vanished after deletes");
        }
    }

    #[test]
    fn zero_kicks_regime_never_evicts() {
        let mut f = KVcf::new(config().with_max_kicks(0), 8).unwrap();
        for i in 0..f.capacity() as u64 {
            let _ = f.insert(&key(i));
        }
        assert_eq!(f.stats().kicks, 0, "MAX=0 must not relocate");
        // Table V: k = 8 without kicks should still fill well past 90 %.
        assert!(
            f.table_load_factor() > 0.90,
            "α = {}",
            f.table_load_factor()
        );
    }

    #[test]
    fn larger_k_fills_further_without_kicks() {
        let fill = |k: usize| {
            let mut f = KVcf::new(config().with_max_kicks(0), k).unwrap();
            for i in 0..f.capacity() as u64 {
                let _ = f.insert(&key(i));
            }
            f.table_load_factor()
        };
        let a2 = fill(2);
        let a4 = fill(4);
        let a9 = fill(9);
        assert!(a2 < a4 && a4 < a9, "α must grow with k: {a2} {a4} {a9}");
        assert!(a9 > 0.94, "k=9, MAX=0 should approach 97%: {a9}");
    }

    #[test]
    fn no_false_negatives_after_overflow_with_kicks() {
        let mut f = KVcf::new(
            CuckooConfig::new(1 << 5)
                .with_fingerprint_bits(16)
                .with_seed(3),
            5,
        )
        .unwrap();
        let mut acknowledged = Vec::new();
        for i in 0..(f.capacity() as u64 + 40) {
            if f.insert(&key(i)).is_ok() {
                acknowledged.push(i);
            }
        }
        for i in acknowledged {
            assert!(f.contains(&key(i)), "acknowledged {i} lost");
        }
    }

    #[test]
    fn k2_behaves_like_standard_cf() {
        let mut f = KVcf::new(config(), 2).unwrap();
        for i in 0..600 {
            let _ = f.insert(&key(i));
        }
        for i in 0..600 {
            assert!(f.contains(&key(i)));
        }
        assert_eq!(f.name(), "2-VCF");
    }

    #[test]
    fn mark_bits_scale_with_k() {
        assert_eq!(KVcf::new(config(), 4).unwrap().mark_bits(), 2);
        assert_eq!(KVcf::new(config(), 7).unwrap().mark_bits(), 3);
        assert_eq!(KVcf::new(config(), 10).unwrap().mark_bits(), 4);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let run = || {
            let mut f = KVcf::new(config(), 6).unwrap();
            let mut stored = 0u32;
            for i in 0..1100 {
                if f.insert(&key(i)).is_ok() {
                    stored += 1;
                }
            }
            (stored, f.stats().kicks)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn insert_batch_matches_serial_exactly() {
        let keys: Vec<Vec<u8>> = (0..1100).map(key).collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();

        let mut serial = KVcf::new(config(), 6).unwrap();
        let serial_results: Vec<_> = refs.iter().map(|k| serial.insert(k)).collect();
        let mut batched = KVcf::new(config(), 6).unwrap();
        let batch_results = batched.insert_batch(&refs);

        assert_eq!(serial_results, batch_results);
        assert_eq!(serial.len(), batched.len());
        assert_eq!(serial.stats().kicks, batched.stats().kicks);
        for k in &refs {
            assert_eq!(serial.contains(k), batched.contains(k));
        }
    }
}
