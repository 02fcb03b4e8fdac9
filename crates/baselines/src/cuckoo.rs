//! The standard Cuckoo filter (Fan et al., CoNEXT 2014) — the paper's
//! primary baseline.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vcf_core::CuckooConfig;
use vcf_hash::HashKind;
use vcf_table::FingerprintTable;
use vcf_traits::{BuildError, Counters, Filter, InsertError, Stats};

/// The standard two-candidate Cuckoo filter with partial-key cuckoo
/// hashing (Equ. 1):
///
/// ```text
/// B1 = hash(x)
/// B2 = B1 ⊕ hash(η_x)
/// ```
///
/// Insertion evicts a random resident when both candidates are full and
/// relocates it to its single alternate, cascading up to `MAX` kicks —
/// the behaviour whose cost near full load motivates the VCF redesign.
///
/// Shares the storage substrate ([`FingerprintTable`]), hash functions and
/// atomic rollback-on-failure semantics with `vcf_core`, so head-to-head
/// measurements isolate the algorithmic difference.
///
/// # Examples
///
/// ```
/// use vcf_baselines::CuckooFilter;
/// use vcf_core::CuckooConfig;
/// use vcf_traits::Filter;
///
/// let mut cf = CuckooFilter::new(CuckooConfig::new(1 << 8))?;
/// cf.insert(b"packet-12")?;
/// assert!(cf.contains(b"packet-12"));
/// assert!(cf.delete(b"packet-12"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CuckooFilter {
    table: FingerprintTable,
    hash: HashKind,
    max_kicks: u32,
    index_mask: u64,
    rng: SmallRng,
    /// Undo log for the current eviction walk, replayed in reverse when
    /// the kick limit is reached so failed insertions leave no trace.
    undo: Vec<(usize, usize, u32)>,
    counters: Counters,
}

impl CuckooFilter {
    /// Builds a standard CF from `config` (the bitmask-related fields are
    /// ignored; CF has no masks).
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for invalid geometry.
    pub fn new(config: CuckooConfig) -> Result<Self, BuildError> {
        config.validate()?;
        let table = FingerprintTable::new(
            config.buckets,
            config.slots_per_bucket,
            config.fingerprint_bits,
        )?;
        Ok(Self {
            table,
            hash: config.hash,
            max_kicks: config.max_kicks,
            index_mask: config.buckets as u64 - 1,
            rng: SmallRng::seed_from_u64(config.seed),
            undo: Vec::new(),
            counters: Counters::new(),
        })
    }

    /// Number of buckets `m`.
    pub fn buckets(&self) -> usize {
        self.table.buckets()
    }

    /// Occupancy of the slot table only — `α` as the paper measures it.
    pub fn table_load_factor(&self) -> f64 {
        self.table.load_factor()
    }

    /// Heap bytes used by the fingerprint table.
    pub fn storage_bytes(&self) -> usize {
        self.table.storage_bytes()
    }

    #[inline]
    fn key_of(&self, item: &[u8]) -> (u32, usize) {
        let h = self.hash.hash64(item);
        let fp_bits = self.table.fingerprint_bits();
        let fp_mask = if fp_bits == 32 {
            u32::MAX
        } else {
            (1u32 << fp_bits) - 1
        };
        let mut fp = ((h >> 32) as u32) & fp_mask;
        if fp == 0 {
            fp = 1;
        }
        (fp, (h & self.index_mask) as usize)
    }

    #[inline]
    fn alternate(&self, bucket: usize, fingerprint: u32) -> usize {
        bucket ^ (self.hash.hash_fingerprint(fingerprint) & self.index_mask) as usize
    }

    /// Places an already-hashed item: Fan et al.'s random-walk
    /// relocation, with rollback-on-failure and bucket accesses counted
    /// as they happen.
    fn insert_prehashed(
        &mut self,
        fingerprint: u32,
        b1: usize,
        b2: usize,
    ) -> Result<(), InsertError> {
        let slots = self.table.slots_per_bucket();
        let mut probes = 0u64;
        let mut accesses = 0u64;
        for bucket in [b1, b2] {
            probes += slots as u64;
            accesses += 1;
            if self.table.try_insert(bucket, fingerprint).is_some() {
                self.counters.record_insert(probes, accesses);
                return Ok(());
            }
        }

        self.undo.clear();
        let mut current_fp = fingerprint;
        let mut current_bucket = if self.rng.gen_bool(0.5) { b1 } else { b2 };
        let mut kicks = 0u64;
        for _ in 0..self.max_kicks {
            let slot = self.rng.gen_range(0..slots);
            let victim = self.table.swap(current_bucket, slot, current_fp);
            accesses += 1;
            self.undo.push((current_bucket, slot, victim));
            current_fp = victim;
            kicks += 1;

            // One fresh hash computation per relocation — the cost VCF's
            // vertical hashing amortizes away by needing fewer kicks.
            self.counters.add_hashes(1);
            current_bucket = self.alternate(current_bucket, current_fp);
            probes += slots as u64;
            accesses += 1;
            if self.table.try_insert(current_bucket, current_fp).is_some() {
                self.counters.add_kicks(kicks);
                self.counters.record_insert(probes, accesses);
                return Ok(());
            }
        }

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

impl Filter for CuckooFilter {
    fn insert(&mut self, item: &[u8]) -> Result<(), InsertError> {
        let (fingerprint, b1) = self.key_of(item);
        self.counters.add_hashes(2); // hash(x) + hash(η)
        let b2 = self.alternate(b1, fingerprint);
        self.insert_prehashed(fingerprint, b1, b2)
    }

    /// Pipelined insertion: derives `(fingerprint, B1, B2)` and
    /// prefetches both buckets for a window of items first, then places
    /// in item order through the same path as serial
    /// [`insert`](Self::insert) (identical PRNG consumption, so batch ≡
    /// serial exactly).
    fn insert_batch(&mut self, items: &[&[u8]]) -> Vec<Result<(), InsertError>> {
        const WINDOW: usize = 16;
        let mut out = Vec::with_capacity(items.len());
        let mut window = Vec::with_capacity(WINDOW);
        for chunk in items.chunks(WINDOW) {
            window.clear();
            for item in chunk {
                let (fingerprint, b1) = self.key_of(item);
                self.counters.add_hashes(2);
                let b2 = self.alternate(b1, fingerprint);
                self.table.prefetch_bucket(b1);
                self.table.prefetch_bucket(b2);
                window.push((fingerprint, b1, b2));
            }
            for &(fingerprint, b1, b2) in &window {
                out.push(self.insert_prehashed(fingerprint, b1, b2));
            }
        }
        out
    }

    fn contains(&self, item: &[u8]) -> bool {
        let (fingerprint, b1) = self.key_of(item);
        let b2 = self.alternate(b1, fingerprint);
        let slots = self.table.slots_per_bucket() as u64;
        let mut probes = slots;
        let mut found = self.table.contains(b1, fingerprint);
        if !found {
            probes += slots;
            found = self.table.contains(b2, fingerprint);
        }
        self.counters.record_lookup(probes, 2);
        found
    }

    /// Batched lookup: derives `(fingerprint, B1, B2)` for every item up
    /// front, touching both buckets as each key is produced, then probes
    /// the pair per item in a second pass.
    fn contains_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        let mut keys = Vec::with_capacity(items.len());
        for item in items {
            let (fingerprint, b1) = self.key_of(item);
            let b2 = self.alternate(b1, fingerprint);
            self.table.touch_bucket(b1);
            self.table.touch_bucket(b2);
            keys.push((fingerprint, b1, b2));
        }
        let slots = self.table.slots_per_bucket() as u64;
        let mut out = Vec::with_capacity(items.len());
        for &(fingerprint, b1, b2) in &keys {
            // One early-exit probe over the pair; the counters charge
            // both buckets whatever the probe finds.
            let found = self.table.contains_any(&[b1, b2], fingerprint);
            self.counters.record_lookup(2 * slots, 2);
            out.push(found);
        }
        out
    }

    fn delete(&mut self, item: &[u8]) -> bool {
        let (fingerprint, b1) = self.key_of(item);
        let b2 = self.alternate(b1, fingerprint);
        let slots = self.table.slots_per_bucket() as u64;
        let mut probes = slots;
        let mut removed = self.table.remove_one(b1, fingerprint);
        if !removed && b2 != b1 {
            probes += slots;
            removed = self.table.remove_one(b2, fingerprint);
        }
        self.counters.record_delete(probes, 2);
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
        "CF".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Vec<u8> {
        format!("cf-{i}").into_bytes()
    }

    #[test]
    fn roundtrip() {
        let mut cf = CuckooFilter::new(CuckooConfig::new(1 << 8).with_seed(1)).unwrap();
        cf.insert(b"a").unwrap();
        assert!(cf.contains(b"a"));
        assert!(cf.delete(b"a"));
        assert!(!cf.contains(b"a"));
    }

    #[test]
    fn alternate_is_involution() {
        let cf = CuckooFilter::new(CuckooConfig::new(1 << 10)).unwrap();
        for fp in 1..200u32 {
            let b = (fp as usize * 37) % (1 << 10);
            assert_eq!(cf.alternate(cf.alternate(b, fp), fp), b);
        }
    }

    #[test]
    fn no_false_negatives_at_90_percent() {
        let mut cf = CuckooFilter::new(CuckooConfig::new(1 << 10).with_seed(5)).unwrap();
        let n = (cf.capacity() as f64 * 0.9) as u64;
        for i in 0..n {
            cf.insert(&key(i)).unwrap();
        }
        for i in 0..n {
            assert!(cf.contains(&key(i)), "item {i} lost");
        }
    }

    #[test]
    fn fills_to_roughly_95_percent() {
        let mut cf = CuckooFilter::new(CuckooConfig::new(1 << 10).with_seed(7)).unwrap();
        let mut stored = 0u64;
        for i in 0..cf.capacity() as u64 {
            if cf.insert(&key(i)).is_ok() {
                stored += 1;
            }
        }
        let alpha = stored as f64 / cf.capacity() as f64;
        assert!(alpha > 0.9, "CF load factor {alpha}");
    }

    #[test]
    fn cf_kicks_more_than_vcf_near_full() {
        use vcf_core::VerticalCuckooFilter;

        let config = CuckooConfig::new(1 << 10).with_seed(3);
        let mut cf = CuckooFilter::new(config).unwrap();
        let mut vcf = VerticalCuckooFilter::new(config).unwrap();
        for i in 0..(1u64 << 12) {
            let _ = cf.insert(&key(i));
            let _ = vcf.insert(&key(i));
        }
        let cf_kicks = cf.stats().kicks_per_insert();
        let vcf_kicks = vcf.stats().kicks_per_insert();
        assert!(
            vcf_kicks < cf_kicks,
            "VCF must evict less than CF: vcf={vcf_kicks} cf={cf_kicks}"
        );
    }

    #[test]
    fn no_false_negatives_after_overflow() {
        let mut cf = CuckooFilter::new(CuckooConfig::new(1 << 6).with_seed(2)).unwrap();
        let mut acknowledged = Vec::new();
        for i in 0..(cf.capacity() as u64 + 64) {
            if cf.insert(&key(i)).is_ok() {
                acknowledged.push(i);
            }
        }
        for i in acknowledged {
            assert!(cf.contains(&key(i)), "acknowledged {i} lost");
        }
    }

    #[test]
    fn duplicate_copies_survive_single_delete() {
        let mut cf = CuckooFilter::new(CuckooConfig::new(1 << 8)).unwrap();
        cf.insert(b"dup").unwrap();
        cf.insert(b"dup").unwrap();
        assert!(cf.delete(b"dup"));
        assert!(cf.contains(b"dup"));
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let mut cf = CuckooFilter::new(CuckooConfig::new(1 << 8).with_seed(42)).unwrap();
            let mut stored = 0u32;
            for i in 0..1100 {
                if cf.insert(&key(i)).is_ok() {
                    stored += 1;
                }
            }
            (stored, cf.stats().kicks)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn name_is_cf() {
        let cf = CuckooFilter::new(CuckooConfig::new(8)).unwrap();
        assert_eq!(cf.name(), "CF");
    }

    #[test]
    fn insert_batch_matches_serial_exactly() {
        let config = CuckooConfig::new(1 << 8).with_seed(9);
        let mut serial = CuckooFilter::new(config).unwrap();
        let mut batched = CuckooFilter::new(config).unwrap();

        let keys: Vec<Vec<u8>> = (0..1000).map(key).collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();

        let serial_results: Vec<_> = refs.iter().map(|k| serial.insert(k)).collect();
        let batch_results = batched.insert_batch(&refs);

        assert_eq!(serial_results, batch_results);
        assert_eq!(serial.len(), batched.len());
        assert_eq!(serial.stats().kicks, batched.stats().kicks);
        for bucket in 0..serial.table.buckets() {
            for slot in 0..serial.table.slots_per_bucket() {
                assert_eq!(
                    serial.table.get(bucket, slot),
                    batched.table.get(bucket, slot),
                    "tables diverge at ({bucket}, {slot})"
                );
            }
        }
    }
}
