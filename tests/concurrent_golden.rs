//! Golden-state pins for `ConcurrentVcf` driven from one thread.
//!
//! With a single caller the lock-free filter is deterministic: every
//! claim lands where the first-fit order says, and every relocation walk
//! draws its PRNG stream from the filter's seed. Each geometry below is
//! filled to 110% of its slot capacity twice, once through
//! [`ConcurrentVcf::insert`] and once through
//! [`ConcurrentVcf::insert_batch`]; each fill is followed by
//! [`ConcurrentVcf::contains_batch`] over a probe set four times the fill
//! and [`ConcurrentVcf::delete_batch`] of every third key. One FNV-1a
//! digest per run covers:
//!
//! * every per-op result (insert outcomes with their kick counts, lookup
//!   answers including false positives, delete outcomes);
//! * every stored lane, as [`ConcurrentVcf::iter`] yields it, and `len`;
//! * every [`Stats`] field.
//!
//! The serial and batched fills must reach the same digest, so these pin
//! the first fit, the kick walk and the counter accounting bit for bit.

use vertical_cuckoo_filters::traits::{InsertError, Stats};
use vertical_cuckoo_filters::vcf::{ConcurrentVcf, CuckooConfig};

/// Streaming 64-bit FNV-1a.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn stats(&mut self, s: &Stats) {
        for v in [
            s.inserts.calls,
            s.inserts.slot_probes,
            s.inserts.bucket_accesses,
            s.lookups.calls,
            s.lookups.slot_probes,
            s.lookups.bucket_accesses,
            s.deletes.calls,
            s.deletes.slot_probes,
            s.deletes.bucket_accesses,
            s.kicks,
            s.failed_inserts,
            s.hash_computations,
        ] {
            self.u64(v);
        }
    }
}

fn key(i: usize) -> Vec<u8> {
    format!("golden-{i}").into_bytes()
}

/// 110% of `capacity` slots: 1126 keys for a 2^10-slot table.
fn fill(capacity: usize) -> usize {
    capacity * 11 / 10
}

/// Fills `filter` serially or batched, probes and deletes in batches, and
/// digests results, stored lanes and counters.
fn run(filter: &ConcurrentVcf, batched: bool) -> u64 {
    let keys: Vec<Vec<u8>> = (0..4 * fill(filter.capacity())).map(key).collect();
    let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    let inserted = &refs[..fill(filter.capacity())];
    let results = if batched {
        filter.insert_batch(inserted)
    } else {
        inserted.iter().map(|k| filter.insert(k)).collect()
    };
    let mut d = Digest::new();
    for r in &results {
        d.u64(match r {
            Ok(()) => 0,
            Err(InsertError::Full { kicks }) => 1 + kicks,
            Err(_) => u64::MAX,
        });
    }
    for found in filter.contains_batch(&refs) {
        d.u64(u64::from(found));
    }
    let deletes: Vec<&[u8]> = inserted.iter().step_by(3).copied().collect();
    for removed in filter.delete_batch(&deletes) {
        d.u64(u64::from(removed));
    }
    for (bucket, slot, fp) in filter.iter() {
        d.u64(bucket as u64);
        d.u64(slot as u64);
        d.u64(u64::from(fp));
    }
    d.u64(filter.len() as u64);
    d.stats(&filter.stats());
    d.0
}

/// Every geometry holds 2^10 slots.
type Make = fn(u64) -> ConcurrentVcf;

const MEMBERS: &[(&str, Make)] = &[
    ("ConcurrentVCF", |s| {
        ConcurrentVcf::new(CuckooConfig::new(1 << 8).with_seed(s)).unwrap()
    }),
    ("ConcurrentIVCF3", |s| {
        ConcurrentVcf::with_mask_ones(CuckooConfig::new(1 << 8).with_seed(s), 3).unwrap()
    }),
    // Two words per bucket: lanes 0..4 in the first, 4..8 in the second.
    ("ConcurrentVCF/b=8,f=16", |s| {
        let config = CuckooConfig::new(1 << 7)
            .with_slots_per_bucket(8)
            .with_fingerprint_bits(16)
            .with_seed(s);
        ConcurrentVcf::new(config).unwrap()
    }),
];

/// Digests captured before the first fit and the kick walk were split.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("ConcurrentVCF", 1, 0xd745_2dcb_ecfa_df89),
    ("ConcurrentIVCF3", 1, 0x2e26_cd05_7e84_bc61),
    ("ConcurrentVCF/b=8,f=16", 1, 0xdce8_5115_d3ec_b637),
    ("ConcurrentVCF", 7, 0x4e0b_8440_ed72_4b58),
    ("ConcurrentIVCF3", 7, 0x1e8e_dfbd_0118_0728),
    ("ConcurrentVCF/b=8,f=16", 7, 0x1c55_e7d9_3e04_0765),
    ("ConcurrentVCF", 42, 0x8d7c_0ba1_3b3d_357e),
    ("ConcurrentIVCF3", 42, 0xfb1a_ead8_0c70_e4d7),
    ("ConcurrentVCF/b=8,f=16", 42, 0x9925_9deb_fea0_ade3),
];

#[test]
fn concurrent_state_matches_golden_digests() {
    let mut actual = Vec::new();
    for seed in [1u64, 7, 42] {
        for &(name, make) in MEMBERS {
            let filter = make(seed);
            assert_eq!(filter.capacity(), 1 << 10, "{name}");
            let serial = run(&filter, false);
            let batched = run(&make(seed), true);
            assert_eq!(serial, batched, "{name} seed {seed}: batch ≠ serial");
            assert!(filter.stats().kicks > 0, "{name} seed {seed}: no walk ran");
            assert!(
                filter.stats().failed_inserts > 0,
                "{name} seed {seed}: no Full"
            );
            actual.push((name, seed, serial));
        }
    }
    assert_eq!(actual.len(), GOLDEN.len());
    for (&(name, seed, digest), &(gname, gseed, golden)) in actual.iter().zip(GOLDEN) {
        assert_eq!((name, seed), (gname, gseed));
        assert_eq!(
            digest, golden,
            "{name} seed {seed}: digest {digest:#018x} moved"
        );
    }
}
