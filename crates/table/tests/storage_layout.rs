//! Pins how many `u64` words a bucket occupies, through the public
//! `storage_bytes()` of both slot tables.
//!
//! A bucket of `b` lanes of `w` bits packs `⌊64 / w⌋` whole lanes into
//! each word, so it takes `⌈b / ⌊64/w⌋⌉` words. The geometries pinned
//! here — `b ∈ {1, 2, 4}` at every lane width, and every `b` with lanes
//! of at most 16 bits — cover every table the harness, the server and
//! the benchmarks build; their stride must not change, or memory use and
//! the cache-line footprint of a probe change with it.

use vcf_table::{AtomicFingerprintTable, FingerprintTable};

const BUCKETS: usize = 16;

/// Words per bucket with `⌊64 / width⌋` whole lanes in each word.
fn words_per_bucket(slots: usize, width: u32) -> usize {
    slots.div_ceil(slots.min(64 / width as usize))
}

/// The `(slots, width)` pairs whose stride is pinned.
fn pinned(slots: usize, width: u32) -> bool {
    matches!(slots, 1 | 2 | 4) || width <= 16
}

#[test]
fn fingerprint_table_words_per_bucket_are_pinned() {
    let mut checked = 0;
    for mark_bits in 0..=8u32 {
        for fingerprint_bits in 2..=32u32 {
            let width = fingerprint_bits + mark_bits;
            for slots in (1..=8).filter(|&b| pinned(b, width)) {
                let table =
                    FingerprintTable::with_mark_bits(BUCKETS, slots, fingerprint_bits, mark_bits)
                        .unwrap();
                assert_eq!(
                    table.storage_bytes(),
                    BUCKETS * 8 * words_per_bucket(slots, width),
                    "b={slots} f={fingerprint_bits} mark={mark_bits}"
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 1332, "pinned geometry count changed");
}

#[test]
fn atomic_table_words_per_bucket_are_pinned() {
    for fingerprint_bits in 2..=32u32 {
        for slots in (1..=8).filter(|&b| pinned(b, fingerprint_bits)) {
            let table = AtomicFingerprintTable::new(BUCKETS, slots, fingerprint_bits).unwrap();
            assert_eq!(
                table.storage_bytes(),
                BUCKETS * 8 * words_per_bucket(slots, fingerprint_bits),
                "b={slots} f={fingerprint_bits}"
            );
        }
    }
}
