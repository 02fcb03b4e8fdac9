//! `ConcurrentVcf` — a lock-free(-reader) concurrent Vertical Cuckoo
//! Filter on atomic bucket words.
//!
//! The sequential [`VerticalCuckooFilter`](crate::VerticalCuckooFilter)
//! owns its table through `&mut self`; the only way to share it was a
//! coarse lock per shard. This module shares one table between threads:
//!
//! * **Insert (fast path)** is lock-free: an empty lane is claimed with a
//!   single-word CAS ([`AtomicFingerprintTable::try_claim`]). Threads
//!   claiming different lanes of the same word retry each other's CAS but
//!   never block. The per-key body is this first fit alone; the kick walk
//!   is a separate cold function it calls only when every candidate is
//!   full.
//! * **Relocation** (the kick walk) is the only part that locks, and it
//!   locks exactly two buckets at a time, in ascending (stripe) order,
//!   for one copy-then-clear move. The item being moved is visible in the
//!   source or destination bucket at every instant — relocation *never*
//!   makes an item homeless, so a failed walk needs no undo log.
//! * **Lookup** is wait-free in the common case: probe the four candidate
//!   buckets with the SWAR kernels on `Relaxed`-loaded words, and only on
//!   a *miss* validate the candidates' seqlock versions to rule out the
//!   classic "moved behind the probe" false negative. A bounded number of
//!   optimistic retries falls back to briefly locking the candidates.
//! * **Delete** locks the candidate buckets (ascending order) so it can
//!   never race a relocation of the same fingerprint into removing two
//!   copies (or zero).
//! * **Batches** (`insert_batch`, `contains_batch`, `delete_batch`)
//!   prefetch a window of keys' candidate buckets, then run each key
//!   through the same per-key body as the single-key op, and publish
//!   their counters once.
//!
//! Insert, lookup and delete visit the candidates in the paper's order,
//! `B1`, `B1⊕o1`, `B1⊕o2`, `B1⊕o1⊕o2` (Algorithms 1–3), repeats
//! skipped. Ascending order is kept only where stripes are locked.
//!
//! The seqlocks are *striped*: bucket `i` is guarded by stripe
//! `i & (stripes − 1)`, one stripe per [`BUCKETS_PER_STRIPE`] buckets.
//! Locking a bucket locks its whole stripe, and a version bump on the
//! stripe invalidates optimistic reads of every bucket in it, so every
//! argument below holds with "bucket lock" read as "stripe lock". Locks
//! are always taken in ascending *stripe* order, each stripe once. For
//! the default 4 × 14-bit geometry (one `u64` per bucket) the lock array
//! is 1/128 of the bucket words: 256 KiB for a 2^24-slot table, small
//! enough to stay in L2 while the table does not. A version word per
//! bucket would be half the size of the bucket words and would cost
//! each lookup up to four more cache misses.
//!
//! Theorem 1's closure is what makes the two-bucket lock sufficient: the
//! four candidate buckets of a fingerprint form the XOR coset
//! `B1 ⊕ {0, o1, o2, o1⊕o2}`, so any relocation of a fingerprint a
//! deleter might alias moves it *within the deleter's own candidate set*,
//! and holding all four candidate locks excludes every such move.
//!
//! See `DESIGN.md` §7 for the full memory-ordering argument.

use crate::bitmask::MaskPair;
use crate::config::CuckooConfig;
use crate::cuckoo::WINDOW;
use crate::key;
use crate::vertical::{Candidates, VerticalParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use vcf_hash::{mix64, HashKind};
use vcf_table::AtomicFingerprintTable;
use vcf_traits::{BuildError, ConcurrentFilter, Counters, Filter, InsertError, OpCounters, Stats};

/// Maximum length of one unlocked relocation path. Longer cascades are
/// split across retries of the outer kick loop, so this bounds how much
/// speculative (unlocked) scanning a single attempt performs, not how far
/// an insert can relocate in total.
const MAX_PATH: usize = 5;

/// Optimistic lookup retries before falling back to locking the
/// candidate buckets.
const CONTAINS_RETRIES: usize = 8;

/// Failed attempts on a stripe lock between yields of the CPU. With more
/// runnable threads than cores, a lock holder can be preempted; a waiter
/// that only spins then burns its whole time slice before the holder
/// runs again.
const SPINS_PER_YIELD: u32 = 64;

/// Buckets sharing one seqlock stripe. At 64, a 2^24-slot table (2^22
/// buckets) has 65,536 stripes of 4 bytes: 256 KiB.
const BUCKETS_PER_STRIPE: usize = 64;

/// Seqlock stripes for a table of `buckets` buckets (a power of two): one
/// per [`BUCKETS_PER_STRIPE`] buckets, at least one.
fn stripe_count(buckets: usize) -> usize {
    (buckets / BUCKETS_PER_STRIPE).max(1)
}

/// The entries of `indices` in their given order, repeats dropped; the
/// first `len` entries of the returned array are valid. Over
/// `Candidates::buckets` that is Algorithm 1's first-fit order `B1`,
/// `B1⊕o1`, `B1⊕o2`, `B1⊕o1⊕o2`; over sorted stripes, the lock order.
fn distinct(indices: [usize; 4]) -> ([usize; 4], usize) {
    // No bucket or stripe index is `usize::MAX`, so it marks a free entry.
    let mut out = [usize::MAX; 4];
    let mut len = 0;
    for index in indices {
        if !out.contains(&index) {
            if let Some(entry) = out.get_mut(len) {
                *entry = index;
            }
            len += 1;
        }
    }
    (out, len)
}

/// One hop of a relocation chain: `(bucket, slot, fingerprint)` — the
/// fingerprint observed in that slot at scan time.
type PathStep = (usize, usize, u32);

/// A thread-safe Vertical Cuckoo Filter: every operation takes `&self`,
/// so the filter can sit in an `Arc` and be hammered from many threads.
///
/// Functionally it matches
/// [`VerticalCuckooFilter`](crate::VerticalCuckooFilter): the same
/// vertical candidate derivation (`B1`, `B1⊕o1`, `B1⊕o2`, `B1⊕o1⊕o2`),
/// the same no-false-negative and multiset-deletion guarantees, and the
/// same FPR model. The differences are operational:
///
/// * `insert`/`delete`/`contains` take `&self` ([`ConcurrentFilter`]).
/// * The relocation walk is path-based (libcuckoo-style): it first finds
///   a chain of moves ending in an empty slot *without* locking, then
///   executes the chain in reverse so each move copies into an
///   already-empty slot. A concurrent mutation invalidates the chain and
///   the walk retries; the table is consistent at every step.
/// * Occupancy accounting is exact: `len()` equals successful inserts
///   minus successful deletes (relocation is occupancy-neutral).
/// * It takes every geometry the sequential filter takes: the shared
///   bucket layout keeps every lane inside one `u64` word, so any lane
///   can be claimed or replaced with a single CAS.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use vcf_core::{ConcurrentVcf, CuckooConfig};
///
/// let filter = Arc::new(ConcurrentVcf::new(CuckooConfig::new(1 << 8))?);
/// let handles: Vec<_> = (0..4u32)
///     .map(|t| {
///         let filter = Arc::clone(&filter);
///         std::thread::spawn(move || {
///             for i in 0..100u32 {
///                 filter.insert(&(t * 1000 + i).to_le_bytes()).unwrap();
///             }
///         })
///     })
///     .collect();
/// for h in handles {
///     h.join().unwrap();
/// }
/// assert_eq!(filter.len(), 400);
/// assert!(filter.contains(&1042u32.to_le_bytes()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ConcurrentVcf {
    table: AtomicFingerprintTable,
    /// Striped seqlock words, bucket `i` under `stripes[i & stripe_mask]`:
    /// even = unlocked, odd = locked. Bumped twice per critical section,
    /// so an unchanged even value brackets a quiescent window of every
    /// bucket in the stripe.
    stripes: Vec<AtomicU32>,
    /// `stripes.len() − 1`; the length is a power of two.
    stripe_mask: usize,
    params: VerticalParams,
    masks: MaskPair,
    hash: HashKind,
    max_kicks: u32,
    seed: u64,
    /// Per-walk PRNG derivation counter; `fetch_add` gives each
    /// relocation attempt a distinct deterministic stream.
    rng_salt: AtomicU64,
    counters: Counters,
    label: String,
}

impl ConcurrentVcf {
    /// Builds a standard concurrent VCF (balanced bitmasks) from `config`.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for invalid geometry.
    pub fn new(config: CuckooConfig) -> Result<Self, BuildError> {
        let masks = MaskPair::balanced(config.fingerprint_bits)?;
        Self::with_masks(config, masks, "ConcurrentVCF".to_owned())
    }

    /// Builds the concurrent analogue of `IVCF_i`: `ones` one-bits in the
    /// first bitmask.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for invalid geometry or a degenerate mask.
    pub fn with_mask_ones(config: CuckooConfig, ones: u32) -> Result<Self, BuildError> {
        let masks = MaskPair::with_ones(ones, config.fingerprint_bits)?;
        Self::with_masks(config, masks, format!("ConcurrentIVCF{ones}"))
    }

    /// Builds a concurrent VCF with an explicit mask pair.
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
        let table = AtomicFingerprintTable::new(
            config.buckets,
            config.slots_per_bucket,
            config.fingerprint_bits,
        )?;
        let params = VerticalParams::new(masks, config.buckets);
        let stripe_count = stripe_count(config.buckets);
        let stripes = (0..stripe_count).map(|_| AtomicU32::new(0)).collect();
        Ok(Self {
            table,
            stripes,
            stripe_mask: stripe_count - 1,
            params,
            masks,
            hash: config.hash,
            max_kicks: config.max_kicks,
            seed: config.seed,
            rng_salt: AtomicU64::new(config.seed),
            counters: Counters::new(),
            label,
        })
    }

    /// The bitmask pair in use.
    pub fn masks(&self) -> MaskPair {
        self.masks
    }

    /// The effective vertical-hashing parameters.
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

    /// Heap bytes used by the fingerprint words plus the seqlock stripes.
    pub fn storage_bytes(&self) -> usize {
        self.table.storage_bytes() + self.stripes.len() * std::mem::size_of::<AtomicU32>()
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

    /// Occupancy of the slot table — `α` as the paper measures it.
    pub fn table_load_factor(&self) -> f64 {
        self.table.load_factor()
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

    /// The seqlock stripe guarding `bucket`.
    #[inline]
    fn stripe_of(&self, bucket: usize) -> usize {
        bucket & self.stripe_mask
    }

    /// The seqlock version word of `bucket`'s stripe.
    #[inline]
    fn version(&self, bucket: usize) -> &AtomicU32 {
        debug_assert!(self.stripe_of(bucket) < self.stripes.len());
        &self.stripes[self.stripe_of(bucket)]
    }

    /// Runs `section` holding the seqlock stripes of every candidate
    /// bucket, taken in ascending stripe order, each stripe once — the
    /// global order every multi-stripe critical section uses.
    fn locked<T>(&self, cands: &Candidates, section: impl FnOnce() -> T) -> T {
        let mut sorted = cands.buckets.map(|bucket| self.stripe_of(bucket));
        sorted.sort_unstable();
        let (stripes, len) = distinct(sorted);
        let stripes = &stripes[..len];
        for &stripe in stripes {
            self.lock(stripe);
        }
        let out = section();
        for &stripe in stripes.iter().rev() {
            self.unlock(stripe);
        }
        out
    }

    // ---- striped seqlock ----------------------------------------------

    /// Acquires `stripe`'s lock by CASing its version from even to odd.
    ///
    /// The success ordering is `Acquire`, which keeps the critical
    /// section's accesses from floating above the version bump; paired
    /// with the `Release` in [`Self::unlock`], the version word brackets
    /// the section for optimistic readers.
    fn lock(&self, stripe: usize) {
        debug_assert!(stripe < self.stripes.len());
        let v = &self.stripes[stripe];
        let mut spins = 0u32;
        loop {
            // CAS pre-read (checked structurally by seqlock-protocol):
            // the compare_exchange's Acquire success ordering is what
            // synchronizes, this load only picks the expected value.
            let cur = v.load(Ordering::Relaxed);
            if cur & 1 == 0
                && v.compare_exchange_weak(
                    cur,
                    cur.wrapping_add(1),
                    Ordering::Acquire,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                return;
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(SPINS_PER_YIELD) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Releases `stripe`'s lock, returning the version to even.
    fn unlock(&self, stripe: usize) {
        debug_assert!(stripe < self.stripes.len());
        self.stripes[stripe].fetch_add(1, Ordering::Release);
    }

    /// The stripes of buckets `a` and `b`, ascending.
    fn stripe_pair(&self, a: usize, b: usize) -> (usize, usize) {
        let (sa, sb) = (self.stripe_of(a), self.stripe_of(b));
        if sa <= sb {
            (sa, sb)
        } else {
            (sb, sa)
        }
    }

    /// Locks the stripes of buckets `a` and `b` in ascending stripe order
    /// (one CAS if they share a stripe). Every multi-stripe section in
    /// this module uses the same global ascending order, so lock
    /// acquisition cannot deadlock.
    fn lock_pair(&self, a: usize, b: usize) {
        let (lo, hi) = self.stripe_pair(a, b);
        self.lock(lo);
        if hi != lo {
            self.lock(hi);
        }
    }

    fn unlock_pair(&self, a: usize, b: usize) {
        let (lo, hi) = self.stripe_pair(a, b);
        if hi != lo {
            self.unlock(hi);
        }
        self.unlock(lo);
    }

    // ---- per-op plumbing ----------------------------------------------

    /// Runs `op` on `item`'s derived key, then publishes its counters.
    #[inline]
    fn run_one<T>(&self, item: &[u8], op: impl FnOnce(u32, &Candidates, &mut Stats) -> T) -> T {
        let (fingerprint, b1) = self.key_of(item);
        let cands = self.candidates_of(fingerprint, b1);
        let mut stats = Stats::new();
        let out = op(fingerprint, &cands, &mut stats);
        self.counters.add(&stats);
        out
    }

    /// Hashes `items` a window of [`WINDOW`] at a time, prefetching every
    /// candidate bucket of the window before `op` runs on its first key,
    /// then runs `op` — the single-key op's body — on each key in input
    /// order, and publishes the batch's counters once. The prefetch is
    /// only a hint: `op` re-reads every word it decides on under its own
    /// CAS or seqlock protocol, so a line that a concurrent writer
    /// changed in between costs a miss, never a wrong answer.
    #[inline]
    fn for_each_prefetched<T>(
        &self,
        items: &[&[u8]],
        mut op: impl FnMut(u32, &Candidates, &mut Stats) -> T,
    ) -> Vec<T> {
        let mut out = Vec::with_capacity(items.len());
        let mut stats = Stats::new();
        let mut window = Vec::with_capacity(WINDOW.min(items.len()));
        for chunk in items.chunks(WINDOW) {
            window.clear();
            for item in chunk {
                let (fingerprint, b1) = self.key_of(item);
                let cands = self.candidates_of(fingerprint, b1);
                for bucket in cands.iter() {
                    self.table.prefetch_bucket(bucket);
                }
                window.push((fingerprint, cands));
            }
            for (fingerprint, cands) in &window {
                out.push(op(*fingerprint, cands, &mut stats));
            }
        }
        self.counters.add(&stats);
        out
    }

    // ---- insert -------------------------------------------------------

    // lint: hot-path
    /// Inserts `item`; lock-free when any candidate bucket has room.
    ///
    /// # Errors
    ///
    /// Returns [`InsertError::Full`] when `max_kicks` relocation attempts
    /// cannot free a candidate slot.
    pub fn insert(&self, item: &[u8]) -> Result<(), InsertError> {
        self.run_one(item, |fingerprint, cands, stats| {
            self.insert_key(fingerprint, cands, stats)
        })
    }

    // lint: hot-path
    /// Batched insert: places each key in input order through the same
    /// walk as [`insert`](Self::insert). Results, table words, the
    /// relocation PRNG streams and [`stats`](Self::stats) match the
    /// serial loop bit for bit.
    pub fn insert_batch(&self, items: &[&[u8]]) -> Vec<Result<(), InsertError>> {
        self.for_each_prefetched(items, |fingerprint, cands, stats| {
            self.insert_key(fingerprint, cands, stats)
        })
    }

    /// Places one derived key: CAS-claim a free lane in the first
    /// candidate bucket, in candidate order, that has one (Algorithm 1's
    /// first fit), else run the relocation walk. Counts into `stats`.
    #[inline]
    fn insert_key(
        &self,
        fingerprint: u32,
        cands: &Candidates,
        stats: &mut Stats,
    ) -> Result<(), InsertError> {
        stats.hash_computations += 2; // hash(x) + hash(η)
        let (buckets, len) = distinct(cands.buckets);
        let slots = self.table.slots_per_bucket() as u64;
        for (tried, &bucket) in (1u64..).zip(&buckets[..len]) {
            if self.table.try_claim(bucket, fingerprint).is_some() {
                stats.inserts += OpCounters::one_call(tried * slots, 4);
                return Ok(());
            }
        }
        self.kick_walk(fingerprint, cands, &buckets[..len], stats)
    }

    /// The relocation walk of an insert whose first fit found every
    /// candidate in `buckets` full: find and execute a relocation chain,
    /// re-try the first fit after each failed chain (concurrent deletes
    /// may free slots meanwhile), and give up after `max_kicks` kicks.
    /// Charges the whole insert, first fit included, to `stats`.
    #[cold]
    #[inline(never)]
    fn kick_walk(
        &self,
        fingerprint: u32,
        cands: &Candidates,
        buckets: &[usize],
        stats: &mut Stats,
    ) -> Result<(), InsertError> {
        let slots = self.table.slots_per_bucket() as u64;
        let mut probes = buckets.len() as u64 * slots;
        let mut kicks = 0u64;
        let mut rng: Option<SmallRng> = None;
        let mut path = [(0, 0, 0); MAX_PATH];
        let result = 'walk: loop {
            if kicks >= u64::from(self.max_kicks) {
                stats.failed_inserts += 1;
                break Err(InsertError::Full { kicks });
            }

            let rng = rng.get_or_insert_with(|| {
                let salt = self.rng_salt.fetch_add(1, Ordering::Relaxed);
                SmallRng::seed_from_u64(mix64(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            });
            match self.find_path(cands, rng, &mut probes, &mut path) {
                Some((len, final_dst)) => {
                    kicks += len as u64;
                    stats.hash_computations += len as u64;
                    if self.execute_path(&path[..len], final_dst, fingerprint) {
                        break Ok(());
                    }
                    // A concurrent mutation invalidated the chain; the
                    // executed prefix (if any) already re-homed its
                    // fingerprints consistently. Retry from scratch.
                }
                None => kicks += 1,
            }
            for &bucket in buckets {
                probes += slots;
                if self.table.try_claim(bucket, fingerprint).is_some() {
                    break 'walk Ok(());
                }
            }
        };
        stats.kicks += kicks;
        stats.inserts += OpCounters::one_call(probes, 4 + 3 * kicks);
        result
    }

    /// Speculatively (without locks) finds a relocation chain: a sequence
    /// of `(bucket, slot, fingerprint)` moves, written to the front of
    /// `path`, where each fingerprint can hop to the *next* entry's
    /// bucket, ending in `final_dst` which had an empty slot at scan
    /// time. Returns `(chain length, final_dst)`, or `None` if no chain
    /// of length ≤ [`MAX_PATH`] was found on this walk.
    fn find_path(
        &self,
        cands: &Candidates,
        rng: &mut SmallRng,
        probes: &mut u64,
        path: &mut [PathStep; MAX_PATH],
    ) -> Option<(usize, usize)> {
        let slots = self.table.slots_per_bucket();
        let mut cur = cands.buckets[rng.gen_range(0..4)];
        for (len, step) in path.iter_mut().enumerate() {
            let slot = rng.gen_range(0..slots);
            let victim = self.table.get(cur, slot);
            if victim == 0 {
                // `cur` has room after all (someone deleted): end the
                // chain here; the previous hop claims into `cur`.
                return Some((len, cur));
            }
            *step = (cur, slot, victim);
            let alts = self
                .params
                .alternates(cur, self.hash.hash_fingerprint(victim));
            *probes += 3 * slots as u64;
            if let Some(&alt) = alts
                .iter()
                .find(|&&a| a != cur && !self.table.bucket_is_full(a))
            {
                return Some((len + 1, alt));
            }
            // All of the victim's alternates are full too: walk onward
            // through a random one and kick deeper.
            let mut choices = [0usize; 3];
            let mut n = 0;
            for alt in alts.into_iter().filter(|&a| a != cur) {
                if let Some(choice) = choices.get_mut(n) {
                    *choice = alt;
                }
                n += 1;
            }
            if n == 0 {
                // Degenerate masks (offsets all zero): nowhere to go.
                return None;
            }
            cur = choices[rng.gen_range(0..n)];
        }
        None
    }

    /// Executes a relocation chain in reverse: the last fingerprint moves
    /// into the empty slot first, freeing its own slot for its
    /// predecessor, and so on; the head move installs `new_fp` into the
    /// vacated slot in the same CAS that evicts the head victim. Every
    /// move holds the two bucket locks involved, so each fingerprint is
    /// continuously visible in source or destination. Returns `false`
    /// (leaving a consistent table) if any move's precondition was
    /// invalidated by a concurrent mutation.
    fn execute_path(&self, path: &[PathStep], final_dst: usize, new_fp: u32) -> bool {
        debug_assert!(path.iter().all(|step| step.0 < self.table.buckets()));
        for i in (0..path.len()).rev() {
            let (src_bucket, src_slot, fp) = path[i];
            let dst_bucket = if i + 1 < path.len() {
                path[i + 1].0
            } else {
                final_dst
            };
            let replacement = if i == 0 { new_fp } else { 0 };
            if !self.move_one(src_bucket, src_slot, fp, dst_bucket, replacement) {
                return false;
            }
        }
        // An empty chain means `find_path` saw an empty slot in a
        // candidate bucket; let the caller's fast path re-claim it.
        !path.is_empty()
    }

    /// One locked relocation hop: copy `fp` from `(src_bucket, src_slot)`
    /// into an empty slot of `dst_bucket`, then overwrite the source lane
    /// with `replacement` (`0` for intermediate hops, the inserted
    /// fingerprint for the head hop). Fails without side effects when the
    /// source lane changed or `dst_bucket` filled up since path
    /// discovery.
    fn move_one(
        &self,
        src_bucket: usize,
        src_slot: usize,
        fp: u32,
        dst_bucket: usize,
        replacement: u32,
    ) -> bool {
        self.lock_pair(src_bucket, dst_bucket);
        let ok = 'section: {
            if self.table.get(src_bucket, src_slot) != fp {
                break 'section false;
            }
            let Some(claimed) = self.table.try_claim(dst_bucket, fp) else {
                break 'section false;
            };
            // Both bucket locks are held and the source lane re-validated
            // above; lock-free claims only write empty lanes, so the
            // source lane (non-zero) cannot change and the replace must
            // succeed. Undo the claim defensively if it somehow fails.
            if self
                .table
                .replace_expect(src_bucket, src_slot, fp, replacement)
            {
                break 'section true;
            }
            debug_assert!(false, "source lane changed under two-bucket lock");
            let undone = self.table.replace_expect(dst_bucket, claimed, fp, 0);
            debug_assert!(undone, "claimed lane changed under bucket lock");
            false
        };
        self.unlock_pair(src_bucket, dst_bucket);
        ok
    }

    // ---- lookup -------------------------------------------------------

    /// Probes `buckets` in order (Algorithm 2). Returns whether one holds
    /// `fingerprint`, and the slots probed.
    fn probe(&self, fingerprint: u32, buckets: &[usize]) -> (bool, u64) {
        let slots = self.table.slots_per_bucket() as u64;
        let mut probes = 0u64;
        for &bucket in buckets {
            probes += slots;
            if self.table.contains(bucket, fingerprint) {
                return (true, probes);
            }
        }
        (false, probes)
    }

    /// Membership probe for an already-derived key. Wait-free on hits;
    /// misses validate the candidate buckets' seqlock stripes so a
    /// relocation hopping the fingerprint "behind" the probe order cannot
    /// manufacture a false negative. Counts into `stats`.
    fn contains_key(&self, fingerprint: u32, cands: &Candidates, stats: &mut Stats) -> bool {
        let (buckets, len) = distinct(cands.buckets);
        let buckets = &buckets[..len];
        let mut before = [0u32; 4];
        for _attempt in 0..CONTAINS_RETRIES {
            // Versions in candidate order, unsorted: no lock is taken, so
            // a stripe shared by two candidates is just read twice.
            for (version, &bucket) in before.iter_mut().zip(&cands.buckets) {
                *version = self.version(bucket).load(Ordering::Acquire);
            }
            let (found, probes) = self.probe(fingerprint, buckets);
            // A miss is only definitive if no candidate stripe was locked
            // or bumped while we probed. The fence orders the probe loads
            // before the version re-reads.
            fence(Ordering::Acquire);
            if found
                || before
                    .iter()
                    .zip(&cands.buckets)
                    .all(|(&version, &bucket)| {
                        // Validation re-read paired with the fence(Acquire)
                        // above (Boehm's seqlock pattern, checked structurally
                        // by the seqlock-protocol rule).
                        version & 1 == 0 && self.version(bucket).load(Ordering::Relaxed) == version
                    })
            {
                stats.lookups += OpCounters::one_call(probes, len as u64);
                return found;
            }
            std::hint::spin_loop();
        }

        // Heavy contention on these buckets: decide under their locks.
        let (found, probes) = self.locked(cands, || self.probe(fingerprint, buckets));
        stats.lookups += OpCounters::one_call(probes, len as u64);
        found
    }

    // lint: hot-path
    /// Tests membership of `item`. No false negatives for items whose
    /// insertion happened-before this call.
    pub fn contains(&self, item: &[u8]) -> bool {
        self.run_one(item, |fingerprint, cands, stats| {
            self.contains_key(fingerprint, cands, stats)
        })
    }

    // lint: hot-path
    /// Batched lookup: probes each key through the same optimistic read
    /// as [`contains`](Self::contains), behind the batch prefetch window.
    pub fn contains_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        self.for_each_prefetched(items, |fingerprint, cands, stats| {
            self.contains_key(fingerprint, cands, stats)
        })
    }

    // ---- delete -------------------------------------------------------

    // lint: hot-path
    /// Removes one copy of `item`; returns `true` if a copy was removed.
    pub fn delete(&self, item: &[u8]) -> bool {
        self.run_one(item, |fingerprint, cands, stats| {
            self.delete_key(fingerprint, cands, stats)
        })
    }

    // lint: hot-path
    /// Batched delete: deletes each key in input order through the same
    /// body as [`delete`](Self::delete), so a key repeated in the batch
    /// removes one copy per occurrence.
    pub fn delete_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        self.for_each_prefetched(items, |fingerprint, cands, stats| {
            self.delete_key(fingerprint, cands, stats)
        })
    }

    /// Removes one copy of a derived key from the first candidate, in
    /// candidate order, holding it (Algorithm 3), under every candidate
    /// stripe. By Theorem 1 closure any concurrent relocation of this
    /// fingerprint moves it between two of *these* buckets, so holding
    /// their stripes gives an exact answer: exactly one copy removed if
    /// any exists. Counts into `stats`.
    fn delete_key(&self, fingerprint: u32, cands: &Candidates, stats: &mut Stats) -> bool {
        stats.hash_computations += 2; // hash(x) + hash(η)
        let (buckets, len) = distinct(cands.buckets);
        let slots = self.table.slots_per_bucket() as u64;
        let (removed, probes) = self.locked(cands, || {
            let mut probes = 0u64;
            for &bucket in &buckets[..len] {
                probes += slots;
                if let Some(slot) = self.table.find(bucket, fingerprint) {
                    let removed = self.table.replace_expect(bucket, slot, fingerprint, 0);
                    debug_assert!(removed, "found lane changed under candidate locks");
                    return (removed, probes);
                }
            }
            (false, probes)
        });
        stats.deletes += OpCounters::one_call(probes, len as u64);
        removed
    }

    /// Number of stored entries — exact: successful inserts minus
    /// successful deletes (relocation is occupancy-neutral; a transient
    /// over-count of one per in-flight move is possible mid-operation).
    pub fn len(&self) -> usize {
        self.table.occupied()
    }

    /// Returns `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slot capacity `m · b`.
    pub fn capacity(&self) -> usize {
        self.table.capacity()
    }

    /// Current load factor.
    pub fn load_factor(&self) -> f64 {
        self.table.load_factor()
    }

    /// Iterates `(bucket, slot, fingerprint)` over occupied slots. Only
    /// meaningful at quiescence (no concurrent writers).
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, u32)> + '_ {
        self.table.iter()
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> Stats {
        self.counters.snapshot()
    }

    /// Resets the operation counters.
    pub fn reset_stats(&self) {
        self.counters.reset();
    }

    /// Short human-readable name.
    pub fn name(&self) -> String {
        self.label.clone()
    }
}

impl ConcurrentFilter for ConcurrentVcf {
    fn insert(&self, item: &[u8]) -> Result<(), InsertError> {
        ConcurrentVcf::insert(self, item)
    }

    fn insert_batch(&self, items: &[&[u8]]) -> Vec<Result<(), InsertError>> {
        ConcurrentVcf::insert_batch(self, items)
    }

    fn contains(&self, item: &[u8]) -> bool {
        ConcurrentVcf::contains(self, item)
    }

    fn contains_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        ConcurrentVcf::contains_batch(self, items)
    }

    fn delete(&self, item: &[u8]) -> bool {
        ConcurrentVcf::delete(self, item)
    }

    fn delete_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        ConcurrentVcf::delete_batch(self, items)
    }

    fn len(&self) -> usize {
        ConcurrentVcf::len(self)
    }

    fn capacity(&self) -> usize {
        ConcurrentVcf::capacity(self)
    }

    fn stats(&self) -> Stats {
        ConcurrentVcf::stats(self)
    }

    fn reset_stats(&self) {
        ConcurrentVcf::reset_stats(self);
    }

    fn name(&self) -> String {
        ConcurrentVcf::name(self)
    }
}

/// The sequential [`Filter`] contract, for drop-in use anywhere a
/// `&mut`-style filter is expected (benches, the filter contract suite).
/// Methods simply delegate to the `&self` implementations.
impl Filter for ConcurrentVcf {
    fn insert(&mut self, item: &[u8]) -> Result<(), InsertError> {
        ConcurrentVcf::insert(self, item)
    }

    fn insert_batch(&mut self, items: &[&[u8]]) -> Vec<Result<(), InsertError>> {
        ConcurrentVcf::insert_batch(self, items)
    }

    fn contains(&self, item: &[u8]) -> bool {
        ConcurrentVcf::contains(self, item)
    }

    fn contains_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        ConcurrentVcf::contains_batch(self, items)
    }

    fn delete(&mut self, item: &[u8]) -> bool {
        ConcurrentVcf::delete(self, item)
    }

    fn len(&self) -> usize {
        ConcurrentVcf::len(self)
    }

    fn capacity(&self) -> usize {
        ConcurrentVcf::capacity(self)
    }

    fn stats(&self) -> Stats {
        ConcurrentVcf::stats(self)
    }

    fn reset_stats(&mut self) {
        ConcurrentVcf::reset_stats(self);
    }

    fn name(&self) -> String {
        ConcurrentVcf::name(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn small() -> ConcurrentVcf {
        ConcurrentVcf::new(CuckooConfig::new(1 << 8).with_seed(1)).unwrap()
    }

    fn key(i: u64) -> Vec<u8> {
        format!("item-{i}").into_bytes()
    }

    #[test]
    fn insert_lookup_delete_roundtrip() {
        let f = small();
        f.insert(b"x").unwrap();
        assert!(f.contains(b"x"));
        assert_eq!(f.len(), 1);
        assert!(f.delete(b"x"));
        assert!(!f.contains(b"x"));
        assert_eq!(f.len(), 0);
        assert!(!f.delete(b"x"));
    }

    #[test]
    fn eight_slots_of_twelve_bits_insert_lookup_delete() {
        // 8 × 12-bit lanes: five in a bucket's first word, three in its
        // second. Filled to 90 %, so the kick walk moves lanes of both.
        let config = CuckooConfig::new(1 << 8)
            .with_slots_per_bucket(8)
            .with_fingerprint_bits(12)
            .with_seed(3);
        let f = ConcurrentVcf::new(config).unwrap();
        assert_eq!(f.capacity(), 2048);
        let n = 1843;
        for i in 0..n {
            f.insert(&key(i)).unwrap();
        }
        assert_eq!(f.len(), n as usize);
        assert!((0..n).all(|i| f.contains(&key(i))));
        for i in (0..n).step_by(2) {
            assert!(f.delete(&key(i)), "delete {i}");
        }
        assert_eq!(f.len(), n as usize / 2);
        assert!((1..n).step_by(2).all(|i| f.contains(&key(i))));
    }

    #[test]
    fn lock_array_is_one_stripe_per_64_buckets() {
        // A 2^24-slot table: 2^22 buckets under 65,536 stripes, 256 KiB
        // of lock words next to 32 MiB of bucket words.
        assert_eq!(stripe_count(1 << 22), 1 << 16);
        assert_eq!(
            stripe_count(1 << 22) * std::mem::size_of::<AtomicU32>(),
            256 << 10
        );
        assert_eq!(stripe_count(1 << 7), 2);
        assert_eq!(stripe_count(1 << 6), 1);
        assert_eq!(stripe_count(1), 1);

        let f = ConcurrentVcf::new(CuckooConfig::new(1 << 12)).unwrap();
        assert_eq!(f.stripes.len(), 64);
        assert_eq!(f.stripe_mask, 63);
        assert_eq!(f.storage_bytes(), f.table.storage_bytes() + 64 * 4);
    }

    #[test]
    fn relocation_stays_inside_the_candidate_stripes() {
        // Delete's exactness needs every hop of a same-fingerprint copy to
        // stay under the stripes it holds: the candidate stripes are the
        // coset s1 ⊕ {0, o1, o2, o1⊕o2} mod S, closed under alternates().
        for (buckets, ones) in [(1 << 6, 7), (1 << 7, 7), (1 << 12, 7), (1 << 12, 3)] {
            let f = ConcurrentVcf::with_mask_ones(CuckooConfig::new(buckets), ones).unwrap();
            for i in 0..2_000 {
                let (fingerprint, b1) = f.key_of(&key(i));
                let hfp = f.hash.hash_fingerprint(fingerprint);
                let cands = f.params.candidates(b1, hfp);
                let stripes = cands.buckets.map(|bucket| f.stripe_of(bucket));
                let (o1, o2, of) = f.params.offsets(hfp);
                for o in [0, o1, o2, of] {
                    let s = f.stripe_of(b1) ^ (o as usize & f.stripe_mask);
                    assert!(stripes.contains(&s), "coset stripe {s} missing");
                }
                for &c in &cands.buckets {
                    for a in f.params.alternates(c, hfp) {
                        assert!(
                            stripes.contains(&f.stripe_of(a)),
                            "hop {c} -> {a} leaves the candidate stripes"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn first_fit_follows_candidate_order() {
        let f = ConcurrentVcf::new(CuckooConfig::new(1 << 10).with_seed(1)).unwrap();
        // A key whose B1 is not its lowest candidate, and whose B1⊕o1 is
        // not the lowest of the other three: ascending order would pick
        // neither.
        let (fingerprint, cands) = (0..)
            .map(|i| {
                let (fingerprint, b1) = f.key_of(&key(i));
                (fingerprint, f.candidates_of(fingerprint, b1))
            })
            .find(|(_, c)| {
                let [b1, b2, b3, b4] = c.buckets;
                c.distinct() == 4 && b1 > b2.min(b3).min(b4) && b2 > b3.min(b4)
            })
            .unwrap();
        let holders = |f: &ConcurrentVcf| -> Vec<usize> {
            cands
                .iter()
                .filter(|&b| f.table.contains(b, fingerprint))
                .collect()
        };

        f.insert_key(fingerprint, &cands, &mut Stats::new())
            .unwrap();
        assert_eq!(holders(&f), [cands.buckets[0]], "empty table: B1 first");

        assert!(f.delete_key(fingerprint, &cands, &mut Stats::new()));
        let filler = if fingerprint == 1 { 2 } else { 1 };
        for _ in 0..f.slots_per_bucket() {
            f.table.try_claim(cands.buckets[0], filler).unwrap();
        }
        f.insert_key(fingerprint, &cands, &mut Stats::new())
            .unwrap();
        assert_eq!(holders(&f), [cands.buckets[1]], "B1 full: B1⊕o1 next");
    }

    #[test]
    fn fill_kicks_track_the_sequential_vcf() {
        // Same geometry, seed and keys: with the same first-fit order the
        // lock-free walk kicks about as often as the sequential one.
        for seed in 1..=3u64 {
            let config = CuckooConfig::with_total_slots(1 << 14).with_seed(seed);
            let concurrent = ConcurrentVcf::new(config).unwrap();
            let mut sequential = crate::VerticalCuckooFilter::new(config).unwrap();
            for i in 0..(concurrent.capacity() as u64 * 95 / 100) {
                let k = key(seed << 32 | i);
                concurrent.insert(&k).unwrap();
                Filter::insert(&mut sequential, &k).unwrap();
            }
            let (c, s) = (concurrent.stats().kicks, Filter::stats(&sequential).kicks);
            assert!(
                c as f64 <= 1.25 * s as f64,
                "seed {seed}: {c} kicks against the sequential VCF's {s}"
            );
        }
    }

    #[test]
    fn fills_past_95_percent() {
        let f = ConcurrentVcf::new(CuckooConfig::new(1 << 10).with_seed(3)).unwrap();
        let capacity = f.capacity();
        let mut stored = 0;
        for i in 0..capacity as u64 {
            if f.insert(&key(i)).is_ok() {
                stored += 1;
            }
        }
        let alpha = stored as f64 / capacity as f64;
        assert!(alpha > 0.95, "ConcurrentVcf load factor only {alpha}");
        assert_eq!(f.len(), stored, "occupancy must equal successful inserts");
    }

    #[test]
    fn no_false_negatives_when_nearly_full() {
        let f = ConcurrentVcf::new(CuckooConfig::new(1 << 10).with_seed(5)).unwrap();
        let mut stored = Vec::new();
        for i in 0..f.capacity() as u64 {
            if f.insert(&key(i)).is_ok() {
                stored.push(i);
            }
        }
        for i in stored {
            assert!(f.contains(&key(i)), "item {i} lost");
        }
    }

    #[test]
    fn failed_insert_leaves_consistent_table() {
        let f = ConcurrentVcf::new(CuckooConfig::new(1 << 5).with_seed(7)).unwrap();
        let mut stored = Vec::new();
        for i in 0..(f.capacity() as u64 + 64) {
            if f.insert(&key(i)).is_ok() {
                stored.push(i);
            }
        }
        assert_eq!(f.len(), stored.len(), "occupancy drifted across failures");
        for i in stored {
            assert!(f.contains(&key(i)), "acknowledged item {i} lost");
        }
    }

    #[test]
    fn duplicate_inserts_are_independent_copies() {
        let f = small();
        f.insert(b"dup").unwrap();
        f.insert(b"dup").unwrap();
        assert_eq!(f.len(), 2);
        assert!(f.delete(b"dup"));
        assert!(f.contains(b"dup"), "second copy must survive one delete");
        assert!(f.delete(b"dup"));
        assert!(!f.contains(b"dup"));
    }

    #[test]
    fn concurrent_inserts_from_many_threads_are_all_found() {
        let f = Arc::new(ConcurrentVcf::new(CuckooConfig::new(1 << 10).with_seed(11)).unwrap());
        let threads = 8u64;
        let per_thread = 256u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        f.insert(&key(t * 1_000_000 + i)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(f.len(), (threads * per_thread) as usize);
        for t in 0..threads {
            for i in 0..per_thread {
                assert!(f.contains(&key(t * 1_000_000 + i)), "thread {t} item {i}");
            }
        }
    }

    #[test]
    fn concurrent_mixed_churn_keeps_occupancy_exact() {
        let f = Arc::new(ConcurrentVcf::new(CuckooConfig::new(1 << 9).with_seed(13)).unwrap());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || {
                    let mut net = 0i64;
                    for i in 0..400u64 {
                        let k = key(t * 1_000_000 + i);
                        if f.insert(&k).is_ok() {
                            net += 1;
                        }
                        if i % 3 == 0 && f.delete(&k) {
                            net -= 1;
                        }
                    }
                    net
                })
            })
            .collect();
        let net: i64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(f.len() as i64, net, "len must track inserts - deletes");
    }

    #[test]
    fn contains_batch_matches_scalar() {
        let f = small();
        for i in 0..300 {
            f.insert(&key(i)).unwrap();
        }
        let keys: Vec<Vec<u8>> = (0..600).map(key).collect();
        let refs: Vec<&[u8]> = keys.iter().map(std::vec::Vec::as_slice).collect();
        let batch = f.contains_batch(&refs);
        for (i, k) in refs.iter().enumerate() {
            assert_eq!(batch[i], f.contains(k), "batch diverged at {i}");
        }
    }

    /// Consecutive batches of 1, 16, 17 and 300 items, cycling: one
    /// key, one full window, a window plus one, and a long batch whose
    /// last window is ragged.
    fn ragged<'a>(mut items: &'a [&'a [u8]]) -> Vec<&'a [&'a [u8]]> {
        let mut out = Vec::new();
        for size in [1, 16, 17, 300].into_iter().cycle() {
            if items.is_empty() {
                break;
            }
            let (head, tail) = items.split_at(size.min(items.len()));
            out.push(head);
            items = tail;
        }
        out
    }

    /// Same occupied slots, occupancy and counters.
    fn assert_same_state(serial: &ConcurrentVcf, batched: &ConcurrentVcf, phase: &str) {
        let slots = |f: &ConcurrentVcf| f.table.iter().collect::<Vec<_>>();
        assert_eq!(slots(serial), slots(batched), "{phase}: table diverged");
        assert_eq!(serial.len(), batched.len(), "{phase}: len diverged");
        assert_eq!(serial.stats(), batched.stats(), "{phase}: stats diverged");
    }

    #[test]
    fn batches_match_the_serial_loop_exactly() {
        let make = || ConcurrentVcf::new(CuckooConfig::new(1 << 8).with_seed(21)).unwrap();
        let (serial, batched) = (make(), make());
        // 120% of capacity, every fifth key a repeat of the one before it
        // (so duplicates share a batch): walks run and the tail is Full.
        let n = serial.capacity() as u64 * 6 / 5;
        let keys: Vec<Vec<u8>> = (0..n).map(|i| key(i - u64::from(i % 5 == 4))).collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();

        let inserted: Vec<_> = refs.iter().map(|k| serial.insert(k)).collect();
        let got: Vec<_> = ragged(&refs)
            .into_iter()
            .flat_map(|batch| batched.insert_batch(batch))
            .collect();
        assert_eq!(inserted, got, "insert results diverged");
        assert!(
            inserted.iter().any(Result::is_err),
            "the fill never hit Full"
        );
        assert!(serial.stats().kicks > 0, "the fill never walked");
        assert_same_state(&serial, &batched, "insert");

        let probes: Vec<Vec<u8>> = (0..2 * n).map(key).collect();
        let probes: Vec<&[u8]> = probes.iter().map(Vec::as_slice).collect();
        let want: Vec<bool> = probes.iter().map(|k| serial.contains(k)).collect();
        let got: Vec<bool> = ragged(&probes)
            .into_iter()
            .flat_map(|batch| batched.contains_batch(batch))
            .collect();
        assert_eq!(want, got, "lookup answers diverged");
        assert_same_state(&serial, &batched, "lookup");

        // Every acknowledged copy once, then every key again: each
        // duplicate removes one copy, in order, and the second pass
        // finds an empty table.
        let acknowledged = refs.iter().zip(&inserted).filter(|(_, r)| r.is_ok());
        let deletes: Vec<&[u8]> = acknowledged
            .map(|(k, _)| *k)
            .chain(refs.iter().copied())
            .collect();
        let want: Vec<bool> = deletes.iter().map(|k| serial.delete(k)).collect();
        let got: Vec<bool> = ragged(&deletes)
            .into_iter()
            .flat_map(|batch| batched.delete_batch(batch))
            .collect();
        assert_eq!(want, got, "delete answers diverged");
        let first_pass = deletes.len() - refs.len();
        assert!(want[..first_pass].iter().all(|&removed| removed));
        assert!(!want[first_pass..].iter().any(|&removed| removed));
        assert_eq!(serial.len(), 0);
        assert_same_state(&serial, &batched, "delete");

        let before = batched.stats();
        assert!(batched.insert_batch(&[]).is_empty());
        assert!(batched.contains_batch(&[]).is_empty());
        assert!(batched.delete_batch(&[]).is_empty());
        assert_eq!(
            batched.stats(),
            before,
            "an empty batch touched the counters"
        );
    }

    #[test]
    fn stats_and_name() {
        let f = small();
        f.insert(b"a").unwrap();
        assert!(f.contains(b"a"));
        let s = f.stats();
        assert_eq!(s.inserts.calls, 1);
        assert_eq!(s.lookups.calls, 1);
        assert_eq!(f.name(), "ConcurrentVCF");
        f.reset_stats();
        assert_eq!(f.stats(), Stats::default());
    }

    #[test]
    fn filter_trait_delegation_works() {
        let mut f = small();
        Filter::insert(&mut f, b"via-filter").unwrap();
        assert!(Filter::contains(&f, b"via-filter"));
        assert!(Filter::delete(&mut f, b"via-filter"));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConcurrentVcf>();
    }
}
