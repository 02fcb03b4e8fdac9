//! Interior-mutable instrumentation counters.
//!
//! Lookup methods take `&self` but still need to count slot probes for the
//! paper's time-cost analysis (Section V-C measures lookup cost in memory
//! accesses). `Counters` therefore uses relaxed atomics: negligible cost on
//! the hot path, and the filters stay `Send + Sync`.

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
        self.inserts.calls.fetch_add(1, Ordering::Relaxed);
        self.inserts
            .slot_probes
            .fetch_add(slot_probes, Ordering::Relaxed);
        self.inserts
            .bucket_accesses
            .fetch_add(bucket_accesses, Ordering::Relaxed);
    }

    /// Records one lookup call.
    #[inline]
    pub fn record_lookup(&self, slot_probes: u64, bucket_accesses: u64) {
        self.lookups.calls.fetch_add(1, Ordering::Relaxed);
        self.lookups
            .slot_probes
            .fetch_add(slot_probes, Ordering::Relaxed);
        self.lookups
            .bucket_accesses
            .fetch_add(bucket_accesses, Ordering::Relaxed);
    }

    /// Records one delete call.
    #[inline]
    pub fn record_delete(&self, slot_probes: u64, bucket_accesses: u64) {
        self.deletes.calls.fetch_add(1, Ordering::Relaxed);
        self.deletes
            .slot_probes
            .fetch_add(slot_probes, Ordering::Relaxed);
        self.deletes
            .bucket_accesses
            .fetch_add(bucket_accesses, Ordering::Relaxed);
    }

    /// Adds `n` fingerprint relocations (paper: kick-outs).
    #[inline]
    pub fn add_kicks(&self, n: u64) {
        self.kicks.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one insertion failure (kick limit reached).
    #[inline]
    pub fn add_failed_insert(&self) {
        self.failed_inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` full hash computations (over item bytes or fingerprints).
    #[inline]
    pub fn add_hashes(&self, n: u64) {
        self.hash_computations.fetch_add(n, Ordering::Relaxed);
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
        let snap = self.snapshot();
        let new = Counters::new();
        new.inserts
            .calls
            .store(snap.inserts.calls, Ordering::Relaxed);
        new.inserts
            .slot_probes
            .store(snap.inserts.slot_probes, Ordering::Relaxed);
        new.inserts
            .bucket_accesses
            .store(snap.inserts.bucket_accesses, Ordering::Relaxed);
        new.lookups
            .calls
            .store(snap.lookups.calls, Ordering::Relaxed);
        new.lookups
            .slot_probes
            .store(snap.lookups.slot_probes, Ordering::Relaxed);
        new.lookups
            .bucket_accesses
            .store(snap.lookups.bucket_accesses, Ordering::Relaxed);
        new.deletes
            .calls
            .store(snap.deletes.calls, Ordering::Relaxed);
        new.deletes
            .slot_probes
            .store(snap.deletes.slot_probes, Ordering::Relaxed);
        new.deletes
            .bucket_accesses
            .store(snap.deletes.bucket_accesses, Ordering::Relaxed);
        new.kicks.store(snap.kicks, Ordering::Relaxed);
        new.failed_inserts
            .store(snap.failed_inserts, Ordering::Relaxed);
        new.hash_computations
            .store(snap.hash_computations, Ordering::Relaxed);
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

    #[test]
    fn counters_are_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Counters>();
    }
}
