//! Operation counters used by the experiment harness.
//!
//! The paper's Figure 8 reports the *average number of evicted fingerprints*
//! per insertion (`E0`), and Section V compares hash-computation counts
//! between VCF and CF. Every filter in the workspace therefore maintains a
//! small set of `u64` counters ([`Counters`](crate::Counters), relaxed
//! atomics) that the harness snapshots via [`Stats`].

use core::fmt;
use core::ops::{Add, AddAssign};

/// Counters for one class of operation (inserts, lookups or deletes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct OpCounters {
    /// Number of operations of this class issued.
    pub calls: u64,
    /// Number of slot probes (fingerprint comparisons or empty-slot checks).
    pub slot_probes: u64,
    /// Number of bucket accesses.
    pub bucket_accesses: u64,
}

impl OpCounters {
    /// Creates zeroed counters.
    pub const fn new() -> Self {
        Self {
            calls: 0,
            slot_probes: 0,
            bucket_accesses: 0,
        }
    }

    /// The counters of one call that probed `slot_probes` slots across
    /// `bucket_accesses` buckets.
    pub const fn one_call(slot_probes: u64, bucket_accesses: u64) -> Self {
        Self {
            calls: 1,
            slot_probes,
            bucket_accesses,
        }
    }

    /// Average slot probes per call; `0.0` when no calls were recorded.
    pub fn probes_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.slot_probes as f64 / self.calls as f64
        }
    }
}

impl Add for OpCounters {
    type Output = OpCounters;

    fn add(self, rhs: OpCounters) -> OpCounters {
        OpCounters {
            calls: self.calls + rhs.calls,
            slot_probes: self.slot_probes + rhs.slot_probes,
            bucket_accesses: self.bucket_accesses + rhs.bucket_accesses,
        }
    }
}

impl AddAssign for OpCounters {
    fn add_assign(&mut self, rhs: OpCounters) {
        *self = *self + rhs;
    }
}

/// Snapshot of a filter's instrumentation counters.
///
/// # Examples
///
/// ```
/// use vcf_traits::Stats;
///
/// let mut stats = Stats::default();
/// stats.inserts.calls = 100;
/// stats.kicks = 27;
/// assert!((stats.kicks_per_insert() - 0.27).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Stats {
    /// Insert-side counters (successful and failed inserts both count).
    pub inserts: OpCounters,
    /// Lookup-side counters.
    pub lookups: OpCounters,
    /// Delete-side counters.
    pub deletes: OpCounters,
    /// Fingerprint relocations ("kick-outs") performed by cuckoo-family
    /// filters. The paper's `E0` metric is `kicks / inserts.calls`.
    pub kicks: u64,
    /// Insertions that failed because the kick limit was reached.
    pub failed_inserts: u64,
    /// Full hash computations over item bytes or fingerprints. VCF's
    /// headline claim is that it needs *fewer* of these per insert than CF
    /// because relocation reuses masked fragments of `hash(fp)`.
    pub hash_computations: u64,
}

impl Stats {
    /// Creates zeroed statistics.
    pub const fn new() -> Self {
        Self {
            inserts: OpCounters::new(),
            lookups: OpCounters::new(),
            deletes: OpCounters::new(),
            kicks: 0,
            failed_inserts: 0,
            hash_computations: 0,
        }
    }

    /// Average number of fingerprint evictions per issued insertion — the
    /// measured counterpart of the paper's `E0` (Fig. 8 / Equ. 15).
    pub fn kicks_per_insert(&self) -> f64 {
        if self.inserts.calls == 0 {
            0.0
        } else {
            self.kicks as f64 / self.inserts.calls as f64
        }
    }

    /// Average hash computations per issued insertion.
    pub fn hashes_per_insert(&self) -> f64 {
        if self.inserts.calls == 0 {
            0.0
        } else {
            self.hash_computations as f64 / self.inserts.calls as f64
        }
    }
}

impl Add for Stats {
    type Output = Stats;

    fn add(self, rhs: Stats) -> Stats {
        Stats {
            inserts: self.inserts + rhs.inserts,
            lookups: self.lookups + rhs.lookups,
            deletes: self.deletes + rhs.deletes,
            kicks: self.kicks + rhs.kicks,
            failed_inserts: self.failed_inserts + rhs.failed_inserts,
            hash_computations: self.hash_computations + rhs.hash_computations,
        }
    }
}

impl AddAssign for Stats {
    fn add_assign(&mut self, rhs: Stats) {
        *self = *self + rhs;
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "inserts={} (failed={}) kicks={} ({:.3}/insert) lookups={} deletes={} hashes={}",
            self.inserts.calls,
            self.failed_inserts,
            self.kicks,
            self.kicks_per_insert(),
            self.lookups.calls,
            self.deletes.calls,
            self.hash_computations,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_by_default() {
        let s = Stats::default();
        assert_eq!(s, Stats::new());
        assert_eq!(s.kicks_per_insert(), 0.0);
        assert_eq!(s.hashes_per_insert(), 0.0);
        assert_eq!(s.inserts.probes_per_call(), 0.0);
    }

    #[test]
    fn kicks_per_insert_divides_by_calls() {
        let mut s = Stats::new();
        s.inserts.calls = 8;
        s.kicks = 4;
        assert!((s.kicks_per_insert() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn add_sums_fieldwise() {
        let mut a = Stats::new();
        a.inserts.calls = 1;
        a.kicks = 2;
        a.lookups.slot_probes = 3;
        let mut b = Stats::new();
        b.inserts.calls = 10;
        b.kicks = 20;
        b.lookups.slot_probes = 30;
        let c = a + b;
        assert_eq!(c.inserts.calls, 11);
        assert_eq!(c.kicks, 22);
        assert_eq!(c.lookups.slot_probes, 33);
    }

    #[test]
    fn add_assign_matches_add() {
        let mut a = Stats::new();
        a.failed_inserts = 5;
        let mut b = Stats::new();
        b.failed_inserts = 7;
        let sum = a + b;
        a += b;
        assert_eq!(a, sum);
    }

    #[test]
    fn op_counters_probes_per_call() {
        let c = OpCounters {
            calls: 4,
            slot_probes: 10,
            bucket_accesses: 8,
        };
        assert!((c.probes_per_call() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Stats::new().to_string().is_empty());
    }
}
