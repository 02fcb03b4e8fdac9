//! Sharding as a *routing layer* over any concurrent filter.
//!
//! The paper motivates VCF with *online* applications; real deployments
//! of those (caches, flow tables, dedup front-ends) are concurrent.
//! [`ShardRouter`] partitions the key space across `2^s` independent
//! sub-filters — anything implementing [`ConcurrentFilter`] — so that
//! unrelated keys almost never contend:
//!
//! * [`ShardedVcf`] routes to sequential VCFs each behind an `RwLock`
//!   (the original coarse-locking design, and the single-lock baseline
//!   at `shard_bits = 0`),
//! * [`ShardedConcurrentVcf`] routes to lock-free [`ConcurrentVcf`]
//!   shards, stacking routing-level isolation on top of CAS-level
//!   parallelism *within* each shard.
//!
//! Section III-C notes that more candidate buckets "significantly
//! reduce" the endless-loop hazard concurrent cuckoo tables suffer from;
//! sharding narrows any remaining contention to a `1/2^s` slice of the
//! keyspace, whatever the per-shard concurrency story is.

use crate::concurrent::ConcurrentVcf;
use crate::config::CuckooConfig;
use crate::scalable::ScalableVcf;
use crate::vcf::VerticalCuckooFilter;
use std::num::NonZeroUsize;
use std::sync::{Mutex, OnceLock, PoisonError, RwLock};
use std::thread;
use vcf_hash::mix64;
use vcf_traits::{BuildError, ConcurrentFilter, Filter, InsertError, Stats};

/// Salt decorrelating shard routing from in-shard bucket hashing.
const SHARD_SALT: u64 = 0x5348_4152_4421; // "SHARD!"

/// Most shard bits a router accepts (65,536 shards).
const MAX_SHARD_BITS: u32 = 16;

/// Smallest batch [`ShardRouter`] spreads over threads. A scoped
/// spawn+join costs ~55 µs (median; ~250 µs at p99) on the 2-vCPU
/// reference host, while a lookup, the cheapest shard op, costs ~45 ns
/// of shard work at 2^20 slots: a batch this size has ~7× the spawn cost
/// to split. The 256- and 1,024-key batches of served frames and lookup
/// benches stay on the calling thread.
const MIN_PARALLEL_BATCH: usize = 1 << 14;

/// Top bits of the shard index that a batch is grouped by across
/// threads: each thread counts its keys into at most 2^8 buckets, however
/// many shards the router has, and a wider router's buckets are split
/// into their shards in place.
const BUCKET_BITS: u32 = 8;

/// Most keys one grouping pass holds: input positions are `u32`.
const MAX_BATCH: usize = u32::MAX as usize;

// Shard indices are grouped as `u16`.
const _: () = assert!(MAX_SHARD_BITS <= u16::BITS);

/// A keyspace router over `2^shard_bits` independent concurrent filters.
///
/// All methods take `&self`; the structure is `Send + Sync` and can be
/// shared across threads in an `Arc`. The shard for an item is chosen
/// from a remix of its full hash, using bits independent of the ones the
/// shard's internal hashing consumes, so shard choice does not bias
/// in-shard placement.
///
/// The batch ops group a batch by shard and hand each touched shard its
/// whole group, in input order, as one batch call. From 16,384 keys on,
/// the routing, the grouping and the shard groups are spread over the
/// cores; results, table words and `Stats` are still those of visiting
/// the shards one after another. Besides its results, a batch allocates
/// at most 6 bytes of scratch per key.
#[derive(Debug)]
pub struct ShardRouter<F> {
    shards: Vec<F>,
    shard_mask: u64,
    label: String,
}

/// The classic sharded VCF: sequential filters behind one `RwLock` each.
/// Lookups take shared locks, mutations exclusive ones. With
/// `shard_bits = 0` this is the single-global-lock baseline the
/// fine-grained [`ConcurrentVcf`] is benchmarked against.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use vcf_core::{CuckooConfig, ShardedVcf};
///
/// let filter = Arc::new(ShardedVcf::new(CuckooConfig::new(1 << 10), 3)?);
/// let handles: Vec<_> = (0..4)
///     .map(|t| {
///         let filter = Arc::clone(&filter);
///         std::thread::spawn(move || {
///             for i in 0..100u32 {
///                 filter.insert(format!("{t}-{i}").as_bytes()).unwrap();
///             }
///         })
///     })
///     .collect();
/// for handle in handles {
///     handle.join().unwrap();
/// }
/// assert_eq!(filter.len(), 400);
/// assert!(filter.contains(b"2-99"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type ShardedVcf = ShardRouter<RwLock<VerticalCuckooFilter>>;

/// Lock-free shards behind the same router: each shard is a
/// [`ConcurrentVcf`], so writers to the *same* shard still proceed in
/// parallel on distinct buckets. Prefer this over [`ShardedVcf`] for
/// write-heavy workloads; see the README concurrency table.
pub type ShardedConcurrentVcf = ShardRouter<ConcurrentVcf>;

/// Elastic shards behind the router: each shard is a [`ScalableVcf`]
/// behind an `RwLock`, so capacity management is **per shard** — one
/// shard growing (or being shrunk/migrated) only holds its own lock and
/// never stalls traffic to the other `2^s − 1` shards. Routing is by key
/// hash, so per-shard occupancy stays balanced and shards grow roughly
/// in step without any coordination. Per-shard maintenance
/// (`migrate_step`, `grow`, `shrink_to_fit`) goes through
/// [`shards`](ShardRouter::shards), one shard lock at a time.
pub type ShardedScalableVcf = ShardRouter<RwLock<ScalableVcf>>;

impl<F> ShardRouter<F> {
    /// Validates router geometry, splits `config` into per-shard configs
    /// and builds each shard with `make_shard`: `config.buckets` is the
    /// **total** bucket count, divided evenly, and shard `i` gets seed
    /// `config.seed + i` so shards do not mirror each other's eviction
    /// choices. `kind` prefixes the display name, e.g. `ShardedVCF[4]`.
    fn build(
        config: CuckooConfig,
        shard_bits: u32,
        kind: &str,
        make_shard: impl Fn(CuckooConfig) -> Result<F, BuildError>,
    ) -> Result<Self, BuildError> {
        config.validate()?;
        if shard_bits > MAX_SHARD_BITS {
            return Err(BuildError::InvalidConfig {
                reason: format!("{shard_bits} shard bits exceeds the cap of {MAX_SHARD_BITS}"),
            });
        }
        let shard_count = 1usize << shard_bits;
        let buckets = config.buckets / shard_count;
        if buckets < 4 {
            return Err(BuildError::InvalidConfig {
                reason: format!(
                    "{} buckets cannot be split into {shard_count} shards of >= 4 buckets",
                    config.buckets
                ),
            });
        }
        let shards = (0..shard_count)
            .map(|i| {
                make_shard(CuckooConfig {
                    buckets,
                    seed: config.seed.wrapping_add(i as u64),
                    ..config
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            shards,
            shard_mask: shard_count as u64 - 1,
            label: format!("{kind}[{shard_count}]"),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard filters, in routing order.
    pub fn shards(&self) -> &[F] {
        &self.shards
    }

    /// Routes a key to its shard index. Public so shard-affine callers
    /// (the `vcf-server` executor, loadgen clients) can pre-partition a
    /// batch onto the threads owning each shard; routing depends only on
    /// the key bytes and the shard count, never on the shard type.
    #[inline]
    pub fn shard_of(&self, item: &[u8]) -> usize {
        let h = vcf_hash::fnv1a_64(item);
        (mix64(h ^ SHARD_SALT) & self.shard_mask) as usize
    }

    /// Routes `items`, groups them by shard and runs each touched shard's
    /// group as **one** `run` call (one lock acquisition / one prefetch
    /// pipeline pass per shard), writing its results into the returned
    /// `Vec` in input order as soon as that shard finishes. Each group
    /// keeps input order, so duplicate keys behave exactly like the
    /// serial loop.
    ///
    /// One routine serves every batch size, in two phases: on the
    /// calling thread alone below [`MIN_PARALLEL_BATCH`] keys, and from
    /// there on over up to [`parallelism`] scoped threads, at most one per
    /// `MIN_PARALLEL_BATCH / 2` keys.
    ///
    /// 1. Each thread takes a contiguous input range. It routes it into a
    ///    `u16` shard index per key, counts its keys per bucket (the top,
    ///    at most [`BUCKET_BITS`], bits of the shard index) and writes
    ///    the range's `u32` input positions into the range's own part of
    ///    one position array, grouped by bucket and in input order. On a
    ///    router wider than a bucket it then splits each bucket by shard
    ///    in place.
    /// 2. The buckets are cut into contiguous parts by key count and each
    ///    part runs on one thread. A shard's group is its positions in
    ///    every range, taken range after range, so it stays in input
    ///    order.
    ///
    /// Phase 1 needs nothing from the other threads, so a batch joins its
    /// threads only twice, and a batch on one thread opens no scope.
    /// Besides the results, that is 6 bytes of scratch per key plus, per
    /// thread, a row of at most 2^8 + 1 bucket offsets and the keys of
    /// the group it runs. Shards are disjoint and each group runs whole
    /// on one thread, so results, table words, PRNG streams and `Stats`
    /// are those of visiting the shards one after another. If the OS
    /// refuses a thread, its part runs on the calling thread. A batch of
    /// more than `u32::MAX` keys runs in chunks of that many, one after
    /// another, so a shard may see its keys in more than one call.
    fn scatter<T: Clone + Send>(
        &self,
        items: &[&[u8]],
        fill: T,
        run: impl Fn(&F, &[&[u8]]) -> Vec<T> + Sync,
    ) -> Vec<T>
    where
        F: Sync,
    {
        if items.len() <= MAX_BATCH {
            return self.scatter_chunk(items, fill, &run);
        }
        items
            .chunks(MAX_BATCH)
            .flat_map(|chunk| self.scatter_chunk(chunk, fill.clone(), &run))
            .collect()
    }

    /// [`scatter`](Self::scatter) for a batch whose positions fit a `u32`.
    fn scatter_chunk<T: Clone + Send>(
        &self,
        items: &[&[u8]],
        fill: T,
        run: &(impl Fn(&F, &[&[u8]]) -> Vec<T> + Sync),
    ) -> Vec<T>
    where
        F: Sync,
    {
        debug_assert!(self.shard_mask as usize == self.shards.len() - 1);
        debug_assert!(items.len() <= MAX_BATCH);
        if items.is_empty() {
            return Vec::new();
        }
        let shard_bits = self.shard_mask.count_ones();
        // Shard bits below a bucket's: 0 unless the router is wider than
        // 2^BUCKET_BITS shards, in which case a bucket holds 2^shift shards.
        let shift = shard_bits.saturating_sub(BUCKET_BITS);
        let buckets = 1usize << (shard_bits - shift);
        // Each thread gets at least half of MIN_PARALLEL_BATCH keys: one
        // thread below it, two or more from it on.
        let threads = parallelism()
            .min(items.len() / (MIN_PARALLEL_BATCH / 2))
            .max(1);
        let chunk = items.len().div_ceil(threads);

        // Phase 1: thread `t` routes and groups input range `t`. Row `t`
        // of `starts` holds where each bucket's positions start in the
        // range's part of `positions`, then the range's length.
        let mut ids = vec![0u16; items.len()];
        let mut positions = vec![0u32; items.len()];
        let mut starts = vec![0usize; threads * (buckets + 1)];
        let parts: Vec<_> = items
            .chunks(chunk)
            .zip(ids.chunks_mut(chunk))
            .zip(positions.chunks_mut(chunk))
            .zip(starts.chunks_mut(buckets + 1))
            .enumerate()
            .collect();
        fork(parts, |(thread, (((keys, ids), positions), starts))| {
            let base = thread * chunk;
            // Counts, then each bucket's next free slot in `positions`.
            let mut next = [0; (1 << BUCKET_BITS) + 1];
            for (key, id) in keys.iter().zip(ids.iter_mut()) {
                // At most MAX_SHARD_BITS = 16 bits.
                *id = self.shard_of(key) as u16;
                next[usize::from(*id >> shift)] += 1;
            }
            let mut start = 0;
            for slot in &mut next[..=buckets] {
                (*slot, start) = (start, start + *slot);
            }
            starts.copy_from_slice(&next[..=buckets]);
            for (pos, &id) in (base..).zip(ids.iter()) {
                let slot = &mut next[usize::from(id >> shift)];
                positions[*slot] = pos as u32;
                *slot += 1;
            }
            if shift > 0 {
                for bucket in starts.windows(2) {
                    positions[bucket[0]..bucket[1]]
                        .sort_unstable_by_key(|&pos| (ids[pos as usize - base], pos));
                }
            }
        });

        // Phase 2: the buckets are cut into parts of about equal key
        // count; bucket `b` holds one segment of positions per range.
        let mut parts = Vec::with_capacity(threads);
        let (mut first, mut done) = (0, 0);
        for bucket in 0..buckets {
            done += starts
                .chunks(buckets + 1)
                .map(|row| row[bucket + 1] - row[bucket])
                .sum::<usize>();
            if done * threads >= (parts.len() + 1) * items.len() {
                parts.push(first..bucket + 1);
                first = bucket + 1;
            }
        }
        let rows = || positions.chunks(chunk).zip(starts.chunks(buckets + 1));
        let out = Mutex::new(vec![fill; items.len()]);
        fork(parts, |part| {
            let mut keys: Vec<&[u8]> = Vec::new();
            let mut segments: Vec<&[u32]> = Vec::with_capacity(threads);
            let mut group: Vec<&[u32]> = Vec::with_capacity(threads);
            let shard_at = |pos: &u32| ids[*pos as usize];
            for bucket in part {
                segments.clear();
                segments.extend(
                    rows().map(|(positions, row)| &positions[row[bucket]..row[bucket + 1]]),
                );
                // Each segment lists its shards in ascending order: take
                // the lowest shard's run from every segment, in range order.
                while let Some(shard) = segments
                    .iter()
                    .filter_map(|segment| segment.first())
                    .map(shard_at)
                    .min()
                {
                    group.clear();
                    group.extend(segments.iter_mut().map(|segment| {
                        let len = segment.partition_point(|pos| shard_at(pos) == shard);
                        let (run, rest) = segment.split_at(len);
                        *segment = rest;
                        run
                    }));
                    let positions = || group.iter().flat_map(|run| run.iter());
                    keys.clear();
                    keys.extend(positions().map(|&pos| items[pos as usize]));
                    let results = run(&self.shards[usize::from(shard)], &keys);
                    let mut out = out.lock().unwrap_or_else(PoisonError::into_inner);
                    for (&pos, result) in positions().zip(results) {
                        out[pos as usize] = result;
                    }
                }
            }
        });
        out.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Cores a batch may use, read once: `available_parallelism` reads
/// cgroup files on every call.
fn parallelism() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Runs `work` once on each part: the first on the calling thread, every
/// other on a scoped thread of its own. A part whose thread the OS
/// refuses runs on the calling thread instead, so every part runs exactly
/// once and nothing waits on a thread that never started.
fn fork<P: Send>(parts: Vec<P>, work: impl Fn(P) + Sync) {
    // A lone part needs no scope.
    if parts.len() <= 1 {
        parts.into_iter().for_each(work);
        return;
    }
    // A part moves into its thread's closure; the slot lets the calling
    // thread take it back when the spawn fails.
    let slots: Vec<Mutex<Option<P>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let run = |slot: &Mutex<Option<P>>| {
        let part = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(part) = part {
            work(part);
        }
    };
    thread::scope(|scope| {
        if let Some((first, rest)) = slots.split_first() {
            for slot in rest {
                if thread::Builder::new()
                    .spawn_scoped(scope, || run(slot))
                    .is_err()
                {
                    run(slot);
                }
            }
            run(first);
        }
    });
}

impl ShardedVcf {
    /// Builds a sharded filter over locked sequential VCFs.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when the per-shard geometry would be
    /// degenerate (each shard needs at least 4 buckets) or the underlying
    /// VCF construction fails.
    pub fn new(config: CuckooConfig, shard_bits: u32) -> Result<Self, BuildError> {
        Self::build(config, shard_bits, "ShardedVCF", |c| {
            VerticalCuckooFilter::new(c).map(RwLock::new)
        })
    }
}

impl ShardedConcurrentVcf {
    /// Builds a sharded filter over lock-free [`ConcurrentVcf`] shards.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when the per-shard geometry would be
    /// degenerate (each shard needs at least 4 buckets) or the
    /// underlying [`ConcurrentVcf`] construction fails.
    pub fn new(config: CuckooConfig, shard_bits: u32) -> Result<Self, BuildError> {
        Self::build(
            config,
            shard_bits,
            "ShardedConcurrentVCF",
            ConcurrentVcf::new,
        )
    }
}

impl ShardedScalableVcf {
    /// Builds a sharded elastic filter: `config.buckets` is the **base**
    /// total bucket count, split evenly; each shard then grows and
    /// shrinks on its own.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when the per-shard geometry would be
    /// degenerate (each shard needs at least 4 base buckets).
    pub fn new(config: CuckooConfig, shard_bits: u32) -> Result<Self, BuildError> {
        Self::build(config, shard_bits, "ShardedScalableVCF", |c| {
            ScalableVcf::new(c).map(RwLock::new)
        })
    }

    /// Total migration backlog across shards (0 ⇔ every shard is a
    /// single segment). A poisoned shard lock is recovered from, as on
    /// every router path.
    pub fn migration_backlog(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .migration_backlog()
            })
            .sum()
    }

    /// Segment-chain length per shard, in routing order (diagnostic).
    pub fn shard_segments(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .segments()
            })
            .collect()
    }
}

impl<F: ConcurrentFilter> ShardRouter<F> {
    /// Inserts `item` into its shard.
    ///
    /// # Errors
    ///
    /// Returns [`InsertError::Full`] when the target shard is full.
    pub fn insert(&self, item: &[u8]) -> Result<(), InsertError> {
        debug_assert!(self.shard_mask as usize == self.shards.len() - 1);
        self.shards[self.shard_of(item)].insert(item)
    }

    /// Batched insert: one grouped visit per touched shard, results in
    /// input order. A full shard fails only its own items, exactly like
    /// the serial loop.
    pub fn insert_batch(&self, items: &[&[u8]]) -> Vec<Result<(), InsertError>> {
        self.scatter(items, Ok(()), ConcurrentFilter::insert_batch)
    }

    /// Membership test.
    pub fn contains(&self, item: &[u8]) -> bool {
        debug_assert!(self.shard_mask as usize == self.shards.len() - 1);
        self.shards[self.shard_of(item)].contains(item)
    }

    /// Batched membership test: one grouped visit per touched shard —
    /// one lock acquisition or one cache-overlapped probe pass per shard
    /// instead of one per item — answers in input order.
    pub fn contains_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        self.scatter(items, false, ConcurrentFilter::contains_batch)
    }

    /// Removes one copy of `item`.
    pub fn delete(&self, item: &[u8]) -> bool {
        debug_assert!(self.shard_mask as usize == self.shards.len() - 1);
        self.shards[self.shard_of(item)].delete(item)
    }

    /// Batched delete: one grouped visit per touched shard, answers in
    /// input order. Duplicate keys remove one copy each, as in the serial
    /// loop.
    pub fn delete_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        self.scatter(items, false, ConcurrentFilter::delete_batch)
    }

    /// Total stored entries across shards (a racy-but-consistent-enough
    /// aggregate under concurrent mutation).
    pub fn len(&self) -> usize {
        self.shards.iter().map(ConcurrentFilter::len).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slot capacity across shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(ConcurrentFilter::capacity).sum()
    }

    /// Aggregate operation statistics across shards.
    pub fn stats(&self) -> Stats {
        self.shards
            .iter()
            .map(ConcurrentFilter::stats)
            .fold(Stats::default(), |acc, s| acc + s)
    }

    /// Current aggregate load factor.
    pub fn load_factor(&self) -> f64 {
        let capacity = self.capacity();
        if capacity == 0 {
            0.0
        } else {
            self.len() as f64 / capacity as f64
        }
    }

    /// Resets every shard's operation counters.
    pub fn reset_stats(&self) {
        for shard in &self.shards {
            shard.reset_stats();
        }
    }

    /// The router's display name, e.g. `ShardedVCF[4]`.
    pub fn name(&self) -> String {
        self.label.clone()
    }
}

/// The router is itself a [`ConcurrentFilter`], so routers can nest and
/// generic harnesses can treat `ShardedVcf`, `ShardedConcurrentVcf` and
/// bare `ConcurrentVcf` uniformly.
impl<F: ConcurrentFilter> ConcurrentFilter for ShardRouter<F> {
    fn insert(&self, item: &[u8]) -> Result<(), InsertError> {
        ShardRouter::insert(self, item)
    }

    fn insert_batch(&self, items: &[&[u8]]) -> Vec<Result<(), InsertError>> {
        ShardRouter::insert_batch(self, items)
    }

    fn contains(&self, item: &[u8]) -> bool {
        ShardRouter::contains(self, item)
    }

    fn contains_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        ShardRouter::contains_batch(self, items)
    }

    fn delete(&self, item: &[u8]) -> bool {
        ShardRouter::delete(self, item)
    }

    fn delete_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        ShardRouter::delete_batch(self, items)
    }

    fn len(&self) -> usize {
        ShardRouter::len(self)
    }

    fn capacity(&self) -> usize {
        ShardRouter::capacity(self)
    }

    fn stats(&self) -> Stats {
        ShardRouter::stats(self)
    }

    fn reset_stats(&self) {
        ShardRouter::reset_stats(self);
    }

    fn name(&self) -> String {
        ShardRouter::name(self)
    }
}

/// `Filter`-trait adapter: the router's native API takes `&self`
/// (interior locking); the trait's `&mut self` methods simply delegate,
/// so sharded filters can participate in every generic harness and test
/// that works over `dyn Filter`.
impl<F: ConcurrentFilter> Filter for ShardRouter<F> {
    fn insert(&mut self, item: &[u8]) -> Result<(), InsertError> {
        ShardRouter::insert(self, item)
    }

    fn insert_batch(&mut self, items: &[&[u8]]) -> Vec<Result<(), InsertError>> {
        ShardRouter::insert_batch(self, items)
    }

    fn contains(&self, item: &[u8]) -> bool {
        ShardRouter::contains(self, item)
    }

    fn contains_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        ShardRouter::contains_batch(self, items)
    }

    fn delete(&mut self, item: &[u8]) -> bool {
        ShardRouter::delete(self, item)
    }

    fn len(&self) -> usize {
        ShardRouter::len(self)
    }

    fn capacity(&self) -> usize {
        ShardRouter::capacity(self)
    }

    fn stats(&self) -> Stats {
        ShardRouter::stats(self)
    }

    fn reset_stats(&mut self) {
        ShardRouter::reset_stats(self);
    }

    fn name(&self) -> String {
        ShardRouter::name(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn key(i: u64) -> Vec<u8> {
        format!("sharded-{i}").into_bytes()
    }

    #[test]
    fn rejects_degenerate_sharding() {
        assert!(ShardedVcf::new(CuckooConfig::new(16), 3).is_err()); // 2 buckets/shard
        assert!(ShardedVcf::new(CuckooConfig::new(1 << 8), 20).is_err());
        assert!(ShardedVcf::new(CuckooConfig::new(1 << 8), 64).is_err());
        assert!(ShardedVcf::new(CuckooConfig::new(1 << 8), u32::MAX).is_err());
        assert!(ShardedVcf::new(CuckooConfig::new(1 << 8), 3).is_ok());
        assert!(ShardedConcurrentVcf::new(CuckooConfig::new(16), 3).is_err());
        assert!(ShardedConcurrentVcf::new(CuckooConfig::new(1 << 8), 3).is_ok());
    }

    #[test]
    fn single_threaded_contract() {
        let f = ShardedVcf::new(CuckooConfig::new(1 << 8).with_seed(1), 2).unwrap();
        for i in 0..500 {
            f.insert(&key(i)).unwrap();
        }
        for i in 0..500 {
            assert!(f.contains(&key(i)), "item {i} lost");
        }
        assert_eq!(f.len(), 500);
        for i in 0..250 {
            assert!(f.delete(&key(i)));
        }
        assert_eq!(f.len(), 250);
        for i in 250..500 {
            assert!(f.contains(&key(i)));
        }
    }

    #[test]
    fn concurrent_shards_follow_same_contract() {
        let f = ShardedConcurrentVcf::new(CuckooConfig::new(1 << 8).with_seed(1), 2).unwrap();
        for i in 0..500 {
            f.insert(&key(i)).unwrap();
        }
        for i in 0..500 {
            assert!(f.contains(&key(i)), "item {i} lost");
        }
        assert_eq!(f.len(), 500);
        for i in 0..250 {
            assert!(f.delete(&key(i)));
        }
        assert_eq!(f.len(), 250);
        assert_eq!(f.name(), "ShardedConcurrentVCF[4]");
    }

    #[test]
    fn shards_receive_balanced_load() {
        let f = ShardedVcf::new(CuckooConfig::new(1 << 8).with_seed(2), 2).unwrap();
        for i in 0..800 {
            f.insert(&key(i)).unwrap();
        }
        for shard in f.shards() {
            let len = shard.read().unwrap().len();
            // 800 keys over 4 shards: expect ~200 each; allow wide noise.
            assert!((120..=280).contains(&len), "unbalanced shard: {len}");
        }
    }

    #[test]
    fn routing_is_identical_across_shard_filter_types() {
        // Both routers must send a given key to the same shard index:
        // routing depends only on the key, never on the shard type.
        let locked = ShardedVcf::new(CuckooConfig::new(1 << 8).with_seed(3), 2).unwrap();
        let lockfree =
            ShardedConcurrentVcf::new(CuckooConfig::new(1 << 8).with_seed(3), 2).unwrap();
        for i in 0..200 {
            let k = key(i);
            assert_eq!(locked.shard_of(&k), lockfree.shard_of(&k));
        }
    }

    #[test]
    fn concurrent_inserts_and_lookups() {
        let filter = Arc::new(ShardedVcf::new(CuckooConfig::new(1 << 10).with_seed(3), 3).unwrap());
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let filter = Arc::clone(&filter);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        filter.insert(&key(t * 10_000 + i)).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(filter.len(), 2000);
        let readers: Vec<_> = (0..4u64)
            .map(|t| {
                let filter = Arc::clone(&filter);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        assert!(filter.contains(&key(t * 10_000 + i)), "lost {t}/{i}");
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn concurrent_churn_has_no_false_negatives() {
        let filter = Arc::new(ShardedVcf::new(CuckooConfig::new(1 << 10).with_seed(4), 3).unwrap());
        // Each thread owns a disjoint key range and churns it.
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let filter = Arc::clone(&filter);
                std::thread::spawn(move || {
                    let base = t * 1_000_000;
                    for round in 0..50u64 {
                        for i in 0..50u64 {
                            filter.insert(&key(base + round * 100 + i)).unwrap();
                        }
                        for i in 0..50u64 {
                            let k = key(base + round * 100 + i);
                            assert!(filter.contains(&k), "thread {t} lost its own key");
                            assert!(filter.delete(&k), "thread {t} failed deleting own key");
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(filter.is_empty(), "churn must drain completely");
    }

    #[test]
    fn batched_mutations_match_serial_ops() {
        // The grouped batch paths must agree bit-for-bit with a serial
        // loop over the same ops on an identically-configured router.
        let batched = ShardedVcf::new(CuckooConfig::new(1 << 8).with_seed(7), 2).unwrap();
        let serial = ShardedVcf::new(CuckooConfig::new(1 << 8).with_seed(7), 2).unwrap();
        let keys: Vec<Vec<u8>> = (0..600).map(key).collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();

        let batch_results = batched.insert_batch(&refs);
        let serial_results: Vec<_> = refs.iter().map(|k| serial.insert(k)).collect();
        assert_eq!(batch_results, serial_results);
        assert_eq!(batched.len(), serial.len());
        assert_eq!(batched.contains_batch(&refs), vec![true; refs.len()]);

        let half: Vec<&[u8]> = refs[..300].to_vec();
        let batch_deleted = batched.delete_batch(&half);
        let serial_deleted: Vec<_> = half.iter().map(|k| serial.delete(k)).collect();
        assert_eq!(batch_deleted, serial_deleted);
        assert_eq!(batched.len(), serial.len());
    }

    #[test]
    fn small_batches_on_the_widest_router_match_serial_ops() {
        // 2^16 shards: grouping must not cost a pass over every shard,
        // and a few keys (one repeated) still land exactly as the serial
        // loop puts them.
        let config = CuckooConfig::new(1 << 18).with_seed(9);
        let batched = ShardedVcf::new(config, MAX_SHARD_BITS).unwrap();
        let serial = ShardedVcf::new(config, MAX_SHARD_BITS).unwrap();
        let keys: Vec<Vec<u8>> = [1, 2, 3, 2, 4].into_iter().map(key).collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        assert_eq!(
            batched.insert_batch(&refs),
            refs.iter().map(|k| serial.insert(k)).collect::<Vec<_>>()
        );
        assert_eq!(batched.insert_batch(&refs[..1]), vec![Ok(())]);
        serial.insert(refs[0]).unwrap();
        assert_eq!(batched.len(), serial.len());
        assert_eq!(batched.contains_batch(&refs), vec![true; refs.len()]);
        assert!(refs.iter().all(|k| serial.contains_batch(&[k]) == [true]));
        let deleted = batched.delete_batch(&refs);
        assert_eq!(
            deleted,
            refs.iter().map(|k| serial.delete(k)).collect::<Vec<_>>()
        );
        assert_eq!(
            (batched.len(), batched.stats()),
            (serial.len(), serial.stats())
        );
        assert_eq!(batched.contains_batch(&[]), Vec::<bool>::new());

        // 256 keys, 128 distinct ones twice, 128 positions apart: some of
        // the 2^8 buckets hold several shards, which the grouping splits
        // in place, and each shard must still see its keys in input order.
        let keys: Vec<Vec<u8>> = (0..256).map(|i| key(100 + i % 128)).collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let mut shards: Vec<usize> = refs.iter().map(|k| batched.shard_of(k)).collect();
        shards.sort_unstable();
        shards.dedup();
        assert!(
            shards.windows(2).any(|w| w[0] >> 8 == w[1] >> 8),
            "no bucket holds two shards"
        );
        assert_eq!(
            batched.insert_batch(&refs),
            refs.iter().map(|k| serial.insert(k)).collect::<Vec<_>>()
        );
        assert_eq!(
            batched.delete_batch(&refs[64..]),
            refs[64..]
                .iter()
                .map(|k| serial.delete(k))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            (batched.len(), batched.stats()),
            (serial.len(), serial.stats())
        );
    }

    #[test]
    fn batched_duplicate_deletes_remove_one_copy_each() {
        let f = ShardedVcf::new(CuckooConfig::new(1 << 8).with_seed(8), 2).unwrap();
        let k = key(1);
        f.insert(&k).unwrap();
        f.insert(&k).unwrap();
        // Two stored copies: the batch removes both, the third miss is
        // reported in-order, as the serial loop would.
        assert_eq!(
            f.delete_batch(&[k.as_slice(), k.as_slice(), k.as_slice()]),
            vec![true, true, false]
        );
        assert!(f.is_empty());
    }

    #[test]
    fn aggregate_stats_and_capacity() {
        let f = ShardedVcf::new(CuckooConfig::new(1 << 8).with_seed(5), 2).unwrap();
        assert_eq!(f.capacity(), (1 << 8) * 4);
        assert_eq!(f.shard_count(), 4);
        f.insert(b"a").unwrap();
        assert_eq!(f.stats().inserts.calls, 1);
        assert!(f.load_factor() > 0.0);
    }

    #[test]
    fn filter_trait_adapter_works() {
        let mut f: Box<dyn Filter> =
            Box::new(ShardedVcf::new(CuckooConfig::new(1 << 8).with_seed(6), 2).unwrap());
        f.insert(b"via-trait").unwrap();
        assert!(f.contains(b"via-trait"));
        assert!(f.delete(b"via-trait"));
        assert_eq!(f.name(), "ShardedVCF[4]");
        f.reset_stats();
        assert_eq!(f.stats().inserts.calls, 0);
    }

    #[test]
    fn sharded_filter_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedVcf>();
        assert_send_sync::<ShardedConcurrentVcf>();
        assert_send_sync::<ShardedScalableVcf>();
    }

    #[test]
    fn scalable_shards_grow_independently() {
        // 4 shards of 64 base buckets each.
        let f = ShardedScalableVcf::new(CuckooConfig::new(1 << 8).with_seed(11), 2).unwrap();
        let target = f.shard_of(b"hot-0");
        // Hammer keys routed to one shard only.
        let mut stored = Vec::new();
        let mut i = 0u64;
        while stored.len() < 2_000 {
            let k = format!("hot-{i}").into_bytes();
            if f.shard_of(&k) == target {
                f.insert(&k).unwrap();
                stored.push(k);
            }
            i += 1;
        }
        let segments = f.shard_segments();
        assert!(
            segments[target] >= 1 && f.shards()[target].read().unwrap().capacity() > 256,
            "hot shard must have grown: {segments:?}"
        );
        for (shard, &segs) in segments.iter().enumerate() {
            if shard != target {
                assert_eq!(segs, 1, "cold shard {shard} must not grow: {segments:?}");
                assert_eq!(f.shards()[shard].read().unwrap().capacity(), 256);
            }
        }
        for k in &stored {
            assert!(f.contains(k), "hot-shard key lost");
        }
    }

    /// A panic under one shard's write guard poisons that lock; the
    /// diagnostics and the batch paths recover the guard rather than
    /// propagate another thread's panic.
    #[test]
    fn poisoned_shard_lock_is_recovered() {
        let f =
            Arc::new(ShardedScalableVcf::new(CuckooConfig::new(1 << 8).with_seed(14), 2).unwrap());
        let poisoner = Arc::clone(&f);
        let joined = thread::spawn(move || {
            let _guard = poisoner.shards()[0].write().unwrap();
            panic!("poisoning shard 0");
        })
        .join();
        assert!(joined.is_err() && f.shards()[0].is_poisoned());
        assert_eq!(f.migration_backlog(), 0);
        assert_eq!(f.shard_segments(), vec![1; 4]);
        let keys: Vec<Vec<u8>> = (0..64).map(key).collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        assert!(f.insert_batch(&refs).iter().all(Result::is_ok));
        assert!(f.contains_batch(&refs).iter().all(|&hit| hit));
    }

    #[test]
    fn scalable_router_maintenance_flattens_and_shrinks() {
        let f = ShardedScalableVcf::new(CuckooConfig::new(1 << 8).with_seed(12), 2).unwrap();
        for i in 0..8_000u64 {
            f.insert(&key(i)).unwrap();
        }
        // Drive migration to completion, one shard lock at a time.
        let mut guard = 0;
        while f.migration_backlog() > 0 {
            let drained: usize = f
                .shards()
                .iter()
                .map(|shard| shard.write().unwrap().migrate_step(16))
                .sum();
            if drained == 0 {
                for shard in f.shards() {
                    shard.write().unwrap().grow().unwrap();
                }
            }
            guard += 1;
            assert!(guard < 100_000, "router migration never converged");
        }
        assert!(f.shard_segments().iter().all(|&s| s == 1));
        assert_eq!(f.len(), 8_000);
        // Mass delete, then per-shard shrink-to-fit.
        for i in 200..8_000u64 {
            assert!(f.delete(&key(i)));
        }
        let before = f.capacity();
        let shrunk = f
            .shards()
            .iter()
            .filter(|shard| shard.write().unwrap().shrink_to_fit())
            .count();
        assert!(shrunk > 0, "at least one shard must shrink");
        assert!(f.capacity() < before);
        for i in 0..200u64 {
            assert!(f.contains(&key(i)), "item {i} lost by sharded shrink");
        }
    }

    #[test]
    fn scalable_shards_serve_concurrent_traffic_while_growing() {
        let filter =
            Arc::new(ShardedScalableVcf::new(CuckooConfig::new(1 << 8).with_seed(13), 2).unwrap());
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let filter = Arc::clone(&filter);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        filter.insert(&key(t * 1_000_000 + i)).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(filter.len(), 8_000);
        for t in 0..4u64 {
            for i in 0..2_000u64 {
                assert!(filter.contains(&key(t * 1_000_000 + i)), "lost {t}/{i}");
            }
        }
    }
}
