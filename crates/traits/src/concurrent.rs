//! The shared-reference filter trait for concurrent callers.

use crate::{Filter, InsertError, Stats};
use std::sync::RwLock;

/// A thread-safe set-membership sketch: the [`Filter`] contract with
/// `&self` mutators, so many threads can insert, look up and delete
/// through a plain shared reference (`Arc<F>`).
///
/// Implementations choose their own concurrency story — a single lock
/// (see the blanket impl for [`RwLock`]), per-shard locks (`ShardRouter`
/// in `vcf-core`), or lock-free CAS on atomic bucket words
/// (`ConcurrentVcf`). All of them keep the family-wide guarantee that an
/// item whose insertion *happens-before* a lookup and is not deleted is
/// always reported present; transient in-flight relocations may only ever
/// add false positives, never false negatives, by the time the mutating
/// operation returns.
///
/// # Examples
///
/// ```
/// use std::sync::RwLock;
/// use vcf_traits::ConcurrentFilter;
///
/// fn churn<F: ConcurrentFilter>(filter: &F) {
///     filter.insert(b"key").unwrap();
///     assert!(filter.contains(b"key"));
///     assert!(filter.delete(b"key"));
/// }
/// ```
pub trait ConcurrentFilter: Send + Sync {
    /// Inserts `item` into the filter.
    ///
    /// # Errors
    ///
    /// Returns [`InsertError::Full`] when the structure cannot accommodate
    /// the item, or [`InsertError::CounterOverflow`] for saturated
    /// counting filters.
    fn insert(&self, item: &[u8]) -> Result<(), InsertError>;

    /// Inserts many items at once, returning one result per item in
    /// order. Like [`Filter::insert_batch`], a full filter does not stop
    /// the batch: each item reports its own outcome. Implementations
    /// override this to batch lock acquisitions, reuse the sequential
    /// prefetch pipelines under a single exclusive section, or prefetch
    /// a window of candidate buckets ahead of lock-free placement.
    fn insert_batch(&self, items: &[&[u8]]) -> Vec<Result<(), InsertError>> {
        items.iter().map(|item| self.insert(item)).collect()
    }

    /// Tests membership of `item`. May return false positives, never
    /// false negatives for items whose insertion happens-before the call.
    fn contains(&self, item: &[u8]) -> bool;

    /// Tests membership of many items at once, returning one answer per
    /// item in order. Implementations override this to batch lock
    /// acquisitions or overlap bucket loads.
    fn contains_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        items.iter().map(|item| self.contains(item)).collect()
    }

    /// Removes one copy of `item`; returns `true` if a matching entry was
    /// found and removed.
    fn delete(&self, item: &[u8]) -> bool;

    /// Removes one copy of each item, returning one answer per item in
    /// order. Implementations override this to take their exclusive
    /// section once per batch instead of once per item.
    fn delete_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        items.iter().map(|item| self.delete(item)).collect()
    }

    /// Number of entries currently stored (exact at quiescence).
    fn len(&self) -> usize;

    /// Returns `true` when no entries are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entry capacity.
    fn capacity(&self) -> usize;

    /// Current load factor `α = len / capacity`.
    fn load_factor(&self) -> f64 {
        if self.capacity() == 0 {
            0.0
        } else {
            self.len() as f64 / self.capacity() as f64
        }
    }

    /// Whether this structure supports true deletion.
    fn supports_deletion(&self) -> bool {
        true
    }

    /// Snapshot of the operation counters.
    fn stats(&self) -> Stats;

    /// Resets the operation counters (does not touch stored items).
    fn reset_stats(&self);

    /// Short human-readable name used by benches and reports.
    fn name(&self) -> String;
}

/// Any sequential [`Filter`] behind one `RwLock` is a (coarsely locked)
/// concurrent filter: lookups share the lock, mutations serialize. This is
/// the baseline the fine-grained implementations are measured against,
/// and what `ShardedVcf` wraps per shard.
///
/// Lock poisoning is recovered from rather than propagated: an
/// approximate filter left mid-mutation by a panicking writer can at
/// worst misreport membership, which is within the structure's error
/// contract, and a query path that panics on someone else's panic
/// would take the whole service down with it.
impl<F: Filter + Send + Sync> ConcurrentFilter for RwLock<F> {
    fn insert(&self, item: &[u8]) -> Result<(), InsertError> {
        self.write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(item)
    }

    fn insert_batch(&self, items: &[&[u8]]) -> Vec<Result<(), InsertError>> {
        // One lock acquisition for the whole batch, and the sequential
        // filter's own pipelined (prefetching) batch insert underneath.
        self.write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert_batch(items)
    }

    fn contains(&self, item: &[u8]) -> bool {
        self.read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .contains(item)
    }

    fn contains_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        // One lock acquisition for the whole batch.
        self.read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .contains_batch(items)
    }

    fn delete(&self, item: &[u8]) -> bool {
        self.write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .delete(item)
    }

    fn delete_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        // One lock acquisition for the whole batch.
        let mut filter = self
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        items.iter().map(|item| filter.delete(item)).collect()
    }

    fn len(&self) -> usize {
        self.read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    fn capacity(&self) -> usize {
        self.read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .capacity()
    }

    fn supports_deletion(&self) -> bool {
        self.read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .supports_deletion()
    }

    fn stats(&self) -> Stats {
        self.read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .stats()
    }

    fn reset_stats(&self) {
        self.write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .reset_stats();
    }

    fn name(&self) -> String {
        self.read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Counters;

    /// Minimal in-memory filter for exercising the blanket impl.
    struct ToyFilter {
        items: Vec<Vec<u8>>,
        counters: Counters,
    }

    impl Filter for ToyFilter {
        fn insert(&mut self, item: &[u8]) -> Result<(), InsertError> {
            self.items.push(item.to_vec());
            self.counters.record_insert(1, 1);
            Ok(())
        }

        fn contains(&self, item: &[u8]) -> bool {
            self.items.iter().any(|i| i == item)
        }

        fn delete(&mut self, item: &[u8]) -> bool {
            match self.items.iter().position(|i| i == item) {
                Some(at) => {
                    self.items.swap_remove(at);
                    true
                }
                None => false,
            }
        }

        fn len(&self) -> usize {
            self.items.len()
        }

        fn capacity(&self) -> usize {
            1024
        }

        fn stats(&self) -> Stats {
            self.counters.snapshot()
        }

        fn reset_stats(&mut self) {
            self.counters.reset();
        }

        fn name(&self) -> String {
            "Toy".to_owned()
        }
    }

    fn toy() -> RwLock<ToyFilter> {
        RwLock::new(ToyFilter {
            items: Vec::new(),
            counters: Counters::new(),
        })
    }

    #[test]
    fn rwlock_blanket_impl_round_trips() {
        let filter = toy();
        ConcurrentFilter::insert(&filter, b"a").unwrap();
        assert!(ConcurrentFilter::contains(&filter, b"a"));
        assert_eq!(
            ConcurrentFilter::contains_batch(&filter, &[b"a".as_slice(), b"b".as_slice()]),
            vec![true, false]
        );
        assert_eq!(ConcurrentFilter::len(&filter), 1);
        assert_eq!(ConcurrentFilter::capacity(&filter), 1024);
        assert!(ConcurrentFilter::load_factor(&filter) > 0.0);
        assert!(ConcurrentFilter::delete(&filter, b"a"));
        assert!(ConcurrentFilter::is_empty(&filter));
        assert_eq!(ConcurrentFilter::name(&filter), "Toy");
        ConcurrentFilter::reset_stats(&filter);
        assert_eq!(ConcurrentFilter::stats(&filter).inserts.calls, 0);
    }

    #[test]
    fn rwlock_batched_mutations_match_serial_semantics() {
        let filter = toy();
        let keys: Vec<&[u8]> = vec![b"x", b"y", b"x"];
        let results = ConcurrentFilter::insert_batch(&filter, &keys);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(ConcurrentFilter::len(&filter), 3);
        // Deleting x twice removes both copies; a fourth delete misses.
        assert_eq!(
            ConcurrentFilter::delete_batch(&filter, &[b"x".as_slice(), b"x", b"y", b"y"]),
            vec![true, true, true, false]
        );
        assert!(ConcurrentFilter::is_empty(&filter));
    }

    #[test]
    fn rwlock_filter_is_shareable_across_threads() {
        use std::sync::Arc;
        let filter = Arc::new(toy());
        let handles: Vec<_> = (0..4u8)
            .map(|t| {
                let filter = Arc::clone(&filter);
                std::thread::spawn(move || {
                    ConcurrentFilter::insert(filter.as_ref(), &[t]).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ConcurrentFilter::len(filter.as_ref()), 4);
    }
}
