//! Interior-mutable instrumentation counters.
//!
//! Lookup methods take `&self` but still need to count slot probes for the
//! paper's time-cost analysis (Section V-C measures lookup cost in memory
//! accesses). `Counters` therefore uses relaxed atomics, so the filters
//! stay `Send + Sync`. Each add is still a lock-prefixed read-modify-write
//! on x86, so hot batch paths count into a local [`Stats`] and publish it
//! with one [`Counters::add`] per batch.

use crate::{OpCounters, Stats};
use core::sync::atomic::{AtomicU64, Ordering};

/// Atomic mirror of one [`OpCounters`] group.
#[derive(Debug, Default)]
pub(crate) struct AtomicOpCounters {
    calls: AtomicU64,
    slot_probes: AtomicU64,
    bucket_accesses: AtomicU64,
}

impl AtomicOpCounters {
    #[inline]
    fn add(&self, op: &OpCounters) {
        add_nonzero(&self.calls, op.calls);
        add_nonzero(&self.slot_probes, op.slot_probes);
        add_nonzero(&self.bucket_accesses, op.bucket_accesses);
    }

    fn snapshot(&self) -> OpCounters {
        OpCounters {
            calls: self.calls.load(Ordering::Relaxed),
            slot_probes: self.slot_probes.load(Ordering::Relaxed),
            bucket_accesses: self.bucket_accesses.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.slot_probes.store(0, Ordering::Relaxed);
        self.bucket_accesses.store(0, Ordering::Relaxed);
    }
}

/// One relaxed `fetch_add`, skipped when `n` is zero: each add is a
/// lock-prefixed read-modify-write, so a zero delta is not free.
#[inline]
fn add_nonzero(counter: &AtomicU64, n: u64) {
    if n != 0 {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// Atomic instrumentation block embedded in every filter.
///
/// All mutators use relaxed ordering: the counters are statistics, not
/// synchronization, and single-filter experiments read them only after the
/// timed region.
///
/// # Examples
///
/// ```
/// use vcf_traits::Counters;
///
/// let counters = Counters::new();
/// counters.record_insert(3, 1);
/// counters.add_kicks(2);
/// let stats = counters.snapshot();
/// assert_eq!(stats.inserts.calls, 1);
/// assert_eq!(stats.kicks, 2);
/// ```
#[derive(Debug, Default)]
pub struct Counters {
    inserts: AtomicOpCounters,
    lookups: AtomicOpCounters,
    deletes: AtomicOpCounters,
    kicks: AtomicU64,
    failed_inserts: AtomicU64,
    hash_computations: AtomicU64,
}

impl Counters {
    /// Creates a zeroed counter block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one insert call that probed `slot_probes` slots across
    /// `bucket_accesses` buckets.
    #[inline]
    pub fn record_insert(&self, slot_probes: u64, bucket_accesses: u64) {
        self.inserts
            .add(&OpCounters::one_call(slot_probes, bucket_accesses));
    }

    /// Records one lookup call.
    #[inline]
    pub fn record_lookup(&self, slot_probes: u64, bucket_accesses: u64) {
        self.lookups
            .add(&OpCounters::one_call(slot_probes, bucket_accesses));
    }

    /// Records one delete call.
    #[inline]
    pub fn record_delete(&self, slot_probes: u64, bucket_accesses: u64) {
        self.deletes
            .add(&OpCounters::one_call(slot_probes, bucket_accesses));
    }

    /// Adds `n` fingerprint relocations (paper: kick-outs).
    #[inline]
    pub fn add_kicks(&self, n: u64) {
        add_nonzero(&self.kicks, n);
    }

    /// Records one insertion failure (kick limit reached).
    #[inline]
    pub fn add_failed_insert(&self) {
        self.failed_inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` full hash computations (over item bytes or fingerprints).
    #[inline]
    pub fn add_hashes(&self, n: u64) {
        add_nonzero(&self.hash_computations, n);
    }

    /// Adds every field of `delta` — the flush for callers that count
    /// into a local [`Stats`] and publish once per operation or batch.
    /// Zero fields are skipped, so a first-fit insert costs four atomic
    /// adds however it was counted, and a batch costs at most twelve.
    ///
    /// # Examples
    ///
    /// ```
    /// use vcf_traits::{Counters, Stats};
    ///
    /// let counters = Counters::new();
    /// let mut delta = Stats::new();
    /// delta.inserts.calls = 16;
    /// delta.hash_computations = 32;
    /// counters.add(&delta);
    /// assert_eq!(counters.snapshot(), delta);
    /// ```
    #[inline]
    pub fn add(&self, delta: &Stats) {
        self.inserts.add(&delta.inserts);
        self.lookups.add(&delta.lookups);
        self.deletes.add(&delta.deletes);
        add_nonzero(&self.kicks, delta.kicks);
        add_nonzero(&self.failed_inserts, delta.failed_inserts);
        add_nonzero(&self.hash_computations, delta.hash_computations);
    }

    /// Takes a consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> Stats {
        Stats {
            inserts: self.inserts.snapshot(),
            lookups: self.lookups.snapshot(),
            deletes: self.deletes.snapshot(),
            kicks: self.kicks.load(Ordering::Relaxed),
            failed_inserts: self.failed_inserts.load(Ordering::Relaxed),
            hash_computations: self.hash_computations.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        self.inserts.reset();
        self.lookups.reset();
        self.deletes.reset();
        self.kicks.store(0, Ordering::Relaxed);
        self.failed_inserts.store(0, Ordering::Relaxed);
        self.hash_computations.store(0, Ordering::Relaxed);
    }
}

impl Clone for Counters {
    fn clone(&self) -> Self {
        let new = Counters::new();
        new.add(&self.snapshot());
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let c = Counters::new();
        c.record_insert(4, 2);
        c.record_insert(8, 4);
        c.record_lookup(16, 4);
        c.record_delete(3, 1);
        c.add_kicks(5);
        c.add_failed_insert();
        c.add_hashes(7);
        let s = c.snapshot();
        assert_eq!(s.inserts.calls, 2);
        assert_eq!(s.inserts.slot_probes, 12);
        assert_eq!(s.inserts.bucket_accesses, 6);
        assert_eq!(s.lookups.calls, 1);
        assert_eq!(s.deletes.slot_probes, 3);
        assert_eq!(s.kicks, 5);
        assert_eq!(s.failed_inserts, 1);
        assert_eq!(s.hash_computations, 7);
    }

    #[test]
    fn reset_zeroes() {
        let c = Counters::new();
        c.record_insert(1, 1);
        c.add_kicks(9);
        c.reset();
        assert_eq!(c.snapshot(), Stats::default());
    }

    #[test]
    fn clone_preserves_snapshot() {
        let c = Counters::new();
        c.record_lookup(2, 2);
        c.add_hashes(3);
        let d = c.clone();
        assert_eq!(c.snapshot(), d.snapshot());
    }

    /// A delta with every field distinct and non-zero, scaled by `k`.
    fn delta(k: u64) -> Stats {
        Stats {
            inserts: OpCounters {
                calls: k,
                slot_probes: 2 * k,
                bucket_accesses: 3 * k,
            },
            lookups: OpCounters {
                calls: 4 * k,
                slot_probes: 5 * k,
                bucket_accesses: 6 * k,
            },
            deletes: OpCounters {
                calls: 7 * k,
                slot_probes: 8 * k,
                bucket_accesses: 9 * k,
            },
            kicks: 10 * k,
            failed_inserts: 11 * k,
            hash_computations: 12 * k,
        }
    }

    #[test]
    fn flushes_accumulate_fieldwise() {
        let (a, mut b) = (delta(1), delta(100));
        b.kicks = 0;
        let c = Counters::new();
        c.add(&a);
        c.add(&b);
        assert_eq!(c.snapshot(), a + b);
    }

    #[test]
    fn zero_flush_is_a_no_op() {
        let c = Counters::new();
        c.add(&Stats::new());
        assert_eq!(c.snapshot(), Stats::new());
        c.add(&delta(3));
        c.add(&Stats::new());
        assert_eq!(c.snapshot(), delta(3));
    }

    /// Asserts that `record` on a fresh block leaves the same snapshot
    /// as flushing `op`, and that the snapshot is `op`.
    fn assert_record_is_flush(record: impl Fn(&Counters), op: Stats) {
        let (recorded, flushed) = (Counters::new(), Counters::new());
        record(&recorded);
        flushed.add(&op);
        assert_eq!(recorded.snapshot(), flushed.snapshot());
        assert_eq!(recorded.snapshot(), op);
    }

    #[test]
    fn each_record_equals_flushing_its_one_op_stats() {
        let one = OpCounters::one_call(5, 2);
        let zero = Stats::new();
        let inserts = Stats {
            inserts: one,
            ..zero
        };
        assert_record_is_flush(|c| c.record_insert(5, 2), inserts);
        let lookups = Stats {
            lookups: one,
            ..zero
        };
        assert_record_is_flush(|c| c.record_lookup(5, 2), lookups);
        let deletes = Stats {
            deletes: one,
            ..zero
        };
        assert_record_is_flush(|c| c.record_delete(5, 2), deletes);
        assert_record_is_flush(|c| c.add_kicks(7), Stats { kicks: 7, ..zero });
        let failed = Stats {
            failed_inserts: 1,
            ..zero
        };
        assert_record_is_flush(Counters::add_failed_insert, failed);
        let hashes = Stats {
            hash_computations: 3,
            ..zero
        };
        assert_record_is_flush(|c| c.add_hashes(3), hashes);
    }

    #[test]
    fn counters_are_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Counters>();
    }
}
