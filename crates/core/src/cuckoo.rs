//! One sequential cuckoo engine for the whole family.
//!
//! CF, VCF/IVCF, DVCF, k-VCF and the DCF and Vacuum filter baselines
//! differ only in how an item's candidate buckets are derived (Equ. 1,
//! Equ. 3/4, Algorithms 4–6, Equ. 6/7, Equ. 2, chunked Equ. 1).
//! Insertion, the random-walk eviction with rollback, lookup and
//! deletion are one algorithm over those candidates, so they live here
//! once, generic over a [`CandidatePolicy`].

use crate::config::CuckooConfig;
use crate::key;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vcf_hash::HashKind;
use vcf_table::FingerprintTable;
use vcf_traits::{Counters, Filter, InsertError, Stats};

/// Keys hashed, and their candidate buckets prefetched, ahead of the
/// first probe or placement of a batch window — in every batch pipeline
/// of the crate. 16 keys × 2–8 candidates cover DRAM latency.
pub(crate) const WINDOW: usize = 16;

/// How one filter variant derives candidate buckets.
///
/// A policy's one proof obligation is closure (Theorems 1 and 2): from
/// any candidate bucket of an item, that bucket plus the resident's
/// [`alternate`](Self::alternate)s is exactly the item's candidate set.
/// Bucket arithmetic stays in `vertical.rs`.
///
/// Entries are [`FingerprintTable`] lanes: the bare fingerprint, or for
/// k-VCF the fingerprint with its candidate mark packed above it.
pub trait CandidatePolicy: Clone + core::fmt::Debug {
    /// Primary bucket `B1` of an item whose 64-bit hash is `h`, in a table
    /// of `buckets` buckets: the low bits, as the table is a power of two.
    #[inline]
    fn primary_bucket(&self, h: u64, buckets: usize) -> usize {
        (h & (buckets as u64 - 1)) as usize
    }

    /// Number of candidate buckets of a fingerprint (`k`).
    fn candidate_count(&self, fingerprint: u32) -> usize;

    /// Candidate `e < k` of an item with primary bucket `b1`,
    /// fingerprint `fingerprint` and fingerprint hash `hfp`: the bucket
    /// and the lane stored there.
    fn candidate(&self, b1: usize, hfp: u64, fingerprint: u32, e: usize) -> (usize, u64);

    /// Alternate `i < k − 1` of the lane `resident`, stored in `bucket`:
    /// one of the other candidates, derived from the stored bits alone.
    fn alternate(&self, bucket: usize, hfp: u64, resident: u64, i: usize) -> (usize, u64);

    /// Index of the candidate the eviction walk starts from.
    fn pick_start(&self, rng: &mut SmallRng, k: usize) -> usize {
        rng.gen_range(0..k)
    }

    /// Index of the alternate a kicked-out victim is carried to when
    /// none of its `n` alternates had room. A lone alternate costs no
    /// draw.
    fn pick_next(&self, rng: &mut SmallRng, n: usize) -> usize {
        if n > 1 {
            rng.gen_range(0..n)
        } else {
            0
        }
    }
}

/// A hashed item: fingerprint, primary bucket, fingerprint hash.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Key {
    pub(crate) fp: u32,
    pub(crate) b1: usize,
    pub(crate) hfp: u64,
}

impl Key {
    pub(crate) fn new(hash: HashKind, fp: u32, b1: usize) -> Self {
        let hfp = hash.hash_fingerprint(fp);
        Self { fp, b1, hfp }
    }
}

/// Work one placement did; the caller flushes it into its counters.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Tally {
    pub(crate) probes: u64,
    pub(crate) accesses: u64,
    pub(crate) kicks: u64,
    pub(crate) hashes: u64,
}

/// The eviction walk's state: the victim-selection PRNG, the kick limit
/// `MAX` and the undo log replayed in reverse when a walk fails.
#[derive(Debug, Clone)]
pub(crate) struct Walk {
    rng: SmallRng,
    pub(crate) max_kicks: u32,
    undo: Vec<(usize, usize, u64)>,
}

impl Walk {
    pub(crate) fn new(seed: u64, max_kicks: u32) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            max_kicks,
            undo: Vec::new(),
        }
    }

    /// Algorithm 1: first fit over the candidates, then a random walk
    /// that evicts a random resident and relocates it to one of its own
    /// alternates, up to `MAX` kicks. A failed walk is rolled back, so
    /// the table is byte-identical to its state before the call.
    pub(crate) fn place<P: CandidatePolicy>(
        &mut self,
        policy: &P,
        table: &mut FingerprintTable,
        hash: HashKind,
        key: Key,
    ) -> (Result<(), InsertError>, Tally) {
        let slots = table.slots_per_bucket();
        let mut t = Tally::default();
        let k = policy.candidate_count(key.fp);
        for e in 0..k {
            let (bucket, entry) = policy.candidate(key.b1, key.hfp, key.fp, e);
            t.probes += slots as u64;
            t.accesses += 1;
            if table.try_insert(bucket, entry).is_some() {
                return (Ok(()), t);
            }
        }

        self.undo.clear();
        let start = policy.pick_start(&mut self.rng, k);
        let (mut bucket, mut entry) = policy.candidate(key.b1, key.hfp, key.fp, start);
        for _ in 0..self.max_kicks {
            let slot = self.rng.gen_range(0..slots);
            t.accesses += 1;
            t.kicks += 1;
            let Some(victim) = table.swap(bucket, slot, entry) else {
                // The slot was free after all: the entry just landed.
                return (Ok(()), t);
            };
            self.undo.push((bucket, slot, victim));
            let fingerprint = table.fingerprint(victim);
            let hfp = hash.hash_fingerprint(fingerprint);
            t.hashes += 1;
            let n = policy.candidate_count(fingerprint) - 1;
            for i in 0..n {
                let (alt, moved) = policy.alternate(bucket, hfp, victim, i);
                t.probes += slots as u64;
                t.accesses += 1;
                if table.try_insert(alt, moved).is_some() {
                    return (Ok(()), t);
                }
            }
            (bucket, entry) =
                policy.alternate(bucket, hfp, victim, policy.pick_next(&mut self.rng, n));
        }

        for &(bucket, slot, previous) in self.undo.iter().rev() {
            table.swap(bucket, slot, previous);
        }
        self.undo.clear();
        (Err(InsertError::Full { kicks: t.kicks }), t)
    }
}

/// The sequential cuckoo filter over candidate policy `P`.
///
/// Every variant is an alias of this type —
/// [`VerticalCuckooFilter`](crate::VerticalCuckooFilter),
/// [`Dvcf`](crate::Dvcf), [`KVcf`](crate::KVcf),
/// [`CuckooFilter`](crate::CuckooFilter),
/// [`DaryCuckooFilter`](crate::DaryCuckooFilter) and
/// [`VacuumFilter`](crate::VacuumFilter) — with the paper's
/// constructors on top.
///
/// # Guarantees
///
/// * **No false negatives**: inserted, un-deleted items are always found.
/// * **Atomic insertion**: an insertion that fails with
///   [`InsertError::Full`] rolls the eviction chain back, leaving the
///   table byte-identical to its pre-insert state.
/// * **Safe deletion** of items that were actually inserted, with
///   fingerprint-multiset semantics.
/// * **Batch ≡ serial**: [`Filter::insert_batch`] consumes the eviction
///   PRNG in item order, so it leaves the same table as serial inserts.
#[derive(Debug, Clone)]
pub struct CuckooCore<P: CandidatePolicy> {
    table: FingerprintTable,
    policy: P,
    hash: HashKind,
    seed: u64,
    walk: Walk,
    counters: Counters,
    label: String,
}

impl<P: CandidatePolicy> CuckooCore<P> {
    /// Assembles a filter; the variant constructors validate `config`
    /// and build `table` first.
    pub(crate) fn from_parts(
        config: &CuckooConfig,
        table: FingerprintTable,
        policy: P,
        label: String,
    ) -> Self {
        Self {
            table,
            policy,
            hash: config.hash,
            seed: config.seed,
            walk: Walk::new(config.seed, config.max_kicks),
            counters: Counters::new(),
            label,
        }
    }

    /// The candidate policy in use.
    pub(crate) fn policy(&self) -> &P {
        &self.policy
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

    /// Heap bytes used by the slot table.
    pub fn storage_bytes(&self) -> usize {
        self.table.storage_bytes()
    }

    /// The hash function in use.
    pub fn hash_kind(&self) -> HashKind {
        self.hash
    }

    /// The relocation threshold `MAX`.
    pub fn max_kicks(&self) -> u32 {
        self.walk.max_kicks
    }

    /// The PRNG seed the filter was configured with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Occupancy of the slot table — `α` as the paper measures it.
    pub fn table_load_factor(&self) -> f64 {
        self.table.occupied() as f64 / self.table.capacity() as f64
    }

    /// The slot table (snapshot persistence).
    pub(crate) fn table(&self) -> &FingerprintTable {
        &self.table
    }

    /// The slot table, writable (snapshot restore).
    pub(crate) fn table_mut(&mut self) -> &mut FingerprintTable {
        &mut self.table
    }

    #[inline]
    fn key(&self, item: &[u8]) -> Key {
        let h = self.hash.hash64(item);
        let fp = key::fingerprint(h, self.fingerprint_bits());
        let b1 = self.policy.primary_bucket(h, self.table.buckets());
        Key::new(self.hash, fp, b1)
    }

    #[inline]
    fn candidate(&self, key: Key, e: usize) -> (usize, u64) {
        self.policy.candidate(key.b1, key.hfp, key.fp, e)
    }

    /// Hashes `chunk` into `window`, issuing a software prefetch for
    /// every candidate bucket as each key is derived, so the window's
    /// bucket misses overlap instead of serialising hash → miss → hash.
    #[inline]
    fn prefetch_window(&self, chunk: &[&[u8]], window: &mut Vec<Key>) {
        window.clear();
        for item in chunk {
            let key = self.key(item);
            for e in 0..self.policy.candidate_count(key.fp) {
                self.table.prefetch_bucket(self.candidate(key, e).0);
            }
            window.push(key);
        }
    }

    /// Places a hashed item and records the insert.
    fn insert_key(&mut self, key: Key) -> Result<(), InsertError> {
        let (result, t) = self
            .walk
            .place(&self.policy, &mut self.table, self.hash, key);
        // Both skip a zero delta: first fit, the common case, kicks
        // nothing and hashes nothing more.
        self.counters.add_kicks(t.kicks);
        self.counters.add_hashes(t.hashes);
        self.counters.record_insert(t.probes, t.accesses);
        if result.is_err() {
            self.counters.add_failed_insert();
        }
        result
    }
}

impl<P: CandidatePolicy> Filter for CuckooCore<P> {
    // lint: hot-path
    /// Algorithm 1: first fit, then the random walk with rollback.
    fn insert(&mut self, item: &[u8]) -> Result<(), InsertError> {
        let key = self.key(item);
        self.counters.add_hashes(2); // hash(x) + hash(η)
        self.insert_key(key)
    }

    // lint: hot-path
    /// Pipelined Algorithm 1: hashes and prefetches a window of items
    /// (`prefetch_window`), then places them in item order
    /// through the serial path.
    fn insert_batch(&mut self, items: &[&[u8]]) -> Vec<Result<(), InsertError>> {
        let mut out = Vec::with_capacity(items.len());
        let mut window = Vec::with_capacity(WINDOW);
        for chunk in items.chunks(WINDOW) {
            self.prefetch_window(chunk, &mut window);
            self.counters.add_hashes(2 * chunk.len() as u64);
            for &key in &window {
                out.push(self.insert_key(key));
            }
        }
        out
    }

    // lint: hot-path
    /// Algorithm 2: probes the candidates until one holds the entry; all
    /// `k` count as accessed (the paper's constant-time lookup).
    fn contains(&self, item: &[u8]) -> bool {
        let key = self.key(item);
        let k = self.policy.candidate_count(key.fp);
        let hit = (0..k).position(|e| {
            let (bucket, entry) = self.candidate(key, e);
            self.table.contains(bucket, entry)
        });
        let probed = hit.map_or(k, |e| e + 1);
        let slots = self.table.slots_per_bucket();
        self.counters
            .record_lookup((probed * slots) as u64, k as u64);
        hit.is_some()
    }

    // lint: hot-path
    /// Batched Algorithm 2: probes each window of items
    /// (`prefetch_window`) against lines already in flight;
    /// every candidate is charged whatever the probe finds.
    fn contains_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        let slots = self.table.slots_per_bucket() as u64;
        let mut out = Vec::with_capacity(items.len());
        let mut window = Vec::with_capacity(WINDOW);
        for chunk in items.chunks(WINDOW) {
            self.prefetch_window(chunk, &mut window);
            for &key in &window {
                let k = self.policy.candidate_count(key.fp);
                let found = (0..k).any(|e| {
                    let (bucket, entry) = self.candidate(key, e);
                    self.table.contains(bucket, entry)
                });
                self.counters.record_lookup(k as u64 * slots, k as u64);
                out.push(found);
            }
        }
        out
    }

    // lint: hot-path
    /// Algorithm 3: removes one copy from the first candidate holding
    /// it. A repeated `(bucket, entry)` candidate is skipped — removing
    /// it twice would delete two copies — and only the candidates
    /// actually probed are charged.
    fn delete(&mut self, item: &[u8]) -> bool {
        let key = self.key(item);
        let slots = self.table.slots_per_bucket() as u64;
        let mut probed = 0u64;
        let mut removed = false;
        for e in 0..self.policy.candidate_count(key.fp) {
            let (bucket, entry) = self.candidate(key, e);
            if (0..e).any(|d| self.candidate(key, d) == (bucket, entry)) {
                continue;
            }
            probed += 1;
            if self.table.remove_one(bucket, entry) {
                removed = true;
                break;
            }
        }
        self.counters.record_delete(probed * slots, probed);
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
    //! Cross-policy properties, each checked once over every policy.

    use super::*;
    use crate::{CuckooFilter, DaryCuckooFilter, Dvcf, KVcf, VacuumFilter, VerticalCuckooFilter};
    use vcf_hash::mix64;

    fn config() -> CuckooConfig {
        CuckooConfig::new(1 << 8).with_seed(42)
    }

    /// DCF over pure base-4 digits (2^10 buckets) and mixed radix
    /// (2^11 = 2 · 4^5).
    fn dcf(buckets_log2: u32) -> DaryCuckooFilter {
        DaryCuckooFilter::new(CuckooConfig::new(1 << buckets_log2).with_seed(42)).unwrap()
    }

    /// VF over 3 · 256 buckets: not a power of two.
    fn vf() -> VacuumFilter {
        VacuumFilter::new(768, 256, 4, 14, 500, 42).unwrap()
    }

    /// Theorem 1 (VCF, IVCF, DVCF, CF, VF), Theorem 2 (k-VCF) and the
    /// ⊕_4 cycle (DCF): from every candidate, the resident's alternates
    /// plus the candidate itself are exactly the candidate list. Returns
    /// each item's candidate buckets.
    fn assert_closure<P: CandidatePolicy>(f: &CuckooCore<P>) -> Vec<Vec<usize>> {
        let mut sets = Vec::new();
        for i in 0..2000u64 {
            let h = mix64(i);
            let fp = key::fingerprint(h, f.fingerprint_bits());
            let b1 = f.policy().primary_bucket(h, f.buckets());
            let hfp = f.hash_kind().hash_fingerprint(fp);
            let k = f.policy().candidate_count(fp);
            let mut all: Vec<_> = (0..k)
                .map(|e| f.policy().candidate(b1, hfp, fp, e))
                .collect();
            sort(&mut all);
            for &(bucket, resident) in &all {
                assert!(bucket < f.buckets(), "{}: bucket out of range", f.name());
                let mut reach: Vec<_> = (0..k - 1)
                    .map(|j| f.policy().alternate(bucket, hfp, resident, j))
                    .collect();
                reach.push((bucket, resident));
                sort(&mut reach);
                assert_eq!(reach, all, "{}: closure broken at fp={fp:#x}", f.name());
            }
            sets.push(all.iter().map(|c| c.0).collect());
        }
        sets
    }

    fn sort<E: core::fmt::Debug>(v: &mut [(usize, E)]) {
        v.sort_by_key(|c| format!("{c:?}"));
    }

    #[test]
    fn every_policy_is_closed_under_relocation() {
        assert_closure(&CuckooFilter::new(config()).unwrap());
        assert_closure(&VerticalCuckooFilter::new(config()).unwrap());
        assert_closure(&VerticalCuckooFilter::with_mask_ones(config(), 3).unwrap());
        assert_closure(&Dvcf::with_r(config(), 0.5).unwrap());
        for k in [2, 3, 7] {
            assert_closure(&KVcf::new(config().with_fingerprint_bits(16), k).unwrap());
        }
        for log2 in [10, 11] {
            for set in assert_closure(&dcf(log2)) {
                assert_eq!(set.len(), 4);
            }
        }
        // VF's candidates never leave B1's 256-bucket chunk.
        for set in assert_closure(&vf()) {
            assert!(set.iter().all(|b| b / 256 == set[0] / 256), "{set:?}");
        }
    }

    /// Fills one filter serially and one batched to 110% of capacity and
    /// compares results, every slot, and the counters.
    fn assert_batch_is_serial<P: CandidatePolicy>(make: impl Fn() -> CuckooCore<P>) {
        let (mut serial, mut batched) = (make(), make());
        let keys: Vec<Vec<u8>> = (0..serial.capacity() as u32 * 11 / 10)
            .map(|i| i.to_le_bytes().to_vec())
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let serial_results: Vec<_> = refs.iter().map(|k| serial.insert(k)).collect();
        assert_eq!(
            serial_results,
            batched.insert_batch(&refs),
            "{}",
            serial.name()
        );
        assert!(
            serial.table() == batched.table(),
            "{}: tables diverge",
            serial.name()
        );
        assert_eq!(serial.stats(), batched.stats(), "{}", serial.name());
    }

    #[test]
    fn insert_batch_matches_serial_exactly() {
        assert_batch_is_serial(|| CuckooFilter::new(config()).unwrap());
        assert_batch_is_serial(|| VerticalCuckooFilter::new(config()).unwrap());
        assert_batch_is_serial(|| Dvcf::with_r(config(), 0.5).unwrap());
        assert_batch_is_serial(|| KVcf::new(config().with_fingerprint_bits(16), 6).unwrap());
        assert_batch_is_serial(|| dcf(10));
        assert_batch_is_serial(|| dcf(11));
        assert_batch_is_serial(vf);
    }

    fn b1_hit_accesses<P: CandidatePolicy>(mut f: CuckooCore<P>) -> u64 {
        f.insert(b"only").unwrap();
        f.reset_stats();
        assert!(f.delete(b"only"));
        f.stats().deletes.bucket_accesses
    }

    #[test]
    fn delete_charges_only_probed_candidates() {
        // An empty table places the first item in B1, so its delete
        // hits on the first probe.
        assert_eq!(b1_hit_accesses(CuckooFilter::new(config()).unwrap()), 1);
        assert_eq!(
            b1_hit_accesses(VerticalCuckooFilter::new(config()).unwrap()),
            1
        );
        assert_eq!(b1_hit_accesses(Dvcf::with_r(config(), 0.5).unwrap()), 1);
        assert_eq!(
            b1_hit_accesses(KVcf::new(config().with_fingerprint_bits(16), 6).unwrap()),
            1
        );
        assert_eq!(b1_hit_accesses(dcf(10)), 1);
        assert_eq!(b1_hit_accesses(dcf(11)), 1);
        assert_eq!(b1_hit_accesses(vf()), 1);
    }

    #[test]
    fn hashes_are_two_per_insert_plus_one_per_kick() {
        fn check<P: CandidatePolicy>(mut f: CuckooCore<P>) {
            for i in 0..f.capacity() as u32 * 11 / 10 {
                let _ = f.insert(&i.to_le_bytes());
            }
            let s = f.stats();
            assert!(s.kicks > 0, "{}: fill must evict", f.name());
            assert_eq!(
                s.hash_computations,
                2 * s.inserts.calls + s.kicks,
                "{}",
                f.name()
            );
        }
        check(CuckooFilter::new(config()).unwrap());
        check(VerticalCuckooFilter::new(config()).unwrap());
        check(Dvcf::with_r(config(), 0.5).unwrap());
        check(KVcf::new(config().with_fingerprint_bits(16), 6).unwrap());
        check(dcf(10));
        check(dcf(11));
        check(vf());
    }
}
