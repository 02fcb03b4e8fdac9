//! Shared helpers for the Criterion benchmark suite.
//!
//! The benches complement the `vcf-repro` harness: the harness regenerates
//! the paper's tables and figures end-to-end (whole fills, averaged wall
//! clock), while these Criterion benches measure individual operations
//! with statistical rigor and concrete (non-`dyn`) types, one bench target
//! per table/figure family:
//!
//! * `insert_throughput` — Table III "IT" / Fig. 7 per-insert cost.
//! * `lookup_throughput` — Table III "QT" / Fig. 6 positive & negative.
//! * `delete_throughput` — deletion cost across the family.
//! * `hash_functions`   — Table IV's FNV / Murmur3 / DJB2 comparison.
//! * `eviction_cost`    — Fig. 8's kick cascades near full load.
//! * `kvcf_scaling`     — Table V's k sweep.
//! * `churn_online`     — the paper's motivating online insert/delete mix.
//!
//! The [`summary`] module (and its `bench_summary` binary) condenses the
//! harness's report lines into the committed `BENCH_insert.json`.

#![forbid(unsafe_code)]

pub mod summary;

use vcf_workloads::KeyStream;

/// Default bench filter size: `2^14` slots keeps each iteration fast while
/// still being large enough to exercise eviction cascades.
pub const BENCH_SLOTS_LOG2: u32 = 14;

/// Generates `n` deterministic unique keys for benchmarking.
pub fn bench_keys(n: usize, seed: u64) -> Vec<Vec<u8>> {
    KeyStream::new(seed).take_vec(n)
}

/// Fill fraction used for "loaded filter" benches (high enough that
/// cuckoo relocations matter, low enough that every insert succeeds).
pub const LOADED_FRACTION: f64 = 0.90;

/// Table size for the `insert/batch` group: `2^23` slots. At f = 14 and
/// b = 4 that is 2^21 one-word buckets, 16 MiB: far past a 2 MiB L2, so
/// bucket reads miss it and software prefetching has misses to overlap,
/// but small enough for a large shared L3 to hold (LLC-resident, not
/// DRAM-resident; that needs ~2^28 slots). At [`BENCH_SLOTS_LOG2`] the
/// whole table is L2-resident and prefetch hints cannot help.
pub const BATCH_SLOTS_LOG2: u32 = 23;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_deterministic_and_unique() {
        let a = bench_keys(1000, 1);
        let b = bench_keys(1000, 1);
        assert_eq!(a, b);
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), 1000);
    }
}
