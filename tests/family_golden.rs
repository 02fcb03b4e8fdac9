//! Golden-state pins for the sequential cuckoo family.
//!
//! Every filter below is filled to 110% of a 2^10-slot table twice,
//! once through [`Filter::insert`] and once through
//! [`Filter::insert_batch`], and then a third of the keys is deleted.
//! One FNV-1a digest per run covers:
//!
//! * every per-op result (insert outcomes with their kick counts, delete
//!   outcomes);
//! * every stored slot: the `VCF1`/`VCK1` snapshot bytes where the filter
//!   has a snapshot format, [`ScalableVcf::stored`] for the elastic
//!   filter, and the lookup answer (false positives included) for every
//!   key of a probe set four times the fill for CF and DVCF, which expose
//!   no slot view;
//! * every [`Stats`] field except `deletes.bucket_accesses`, plus
//!   [`MigrationStats`] for the elastic filter.
//!
//! The PRNG draw sequence is part of the table state, so these digests
//! pin the eviction walk of every variant exactly: a refactor that keeps
//! them keeps the paper's behaviour bit for bit.

use vertical_cuckoo_filters::baselines::CuckooFilter;
use vertical_cuckoo_filters::traits::{Filter, InsertError, Stats};
use vertical_cuckoo_filters::vcf::{
    CuckooConfig, Dvcf, KVcf, MigrationStats, ScalableVcf, VerticalCuckooFilter,
};

/// Streaming 64-bit FNV-1a.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
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
            s.kicks,
            s.failed_inserts,
            s.hash_computations,
        ] {
            self.u64(v);
        }
    }
}

/// How a family member exposes its stored slots to the digest.
type DigestState<F> = fn(&F, &mut Digest);

fn key(i: usize) -> Vec<u8> {
    format!("golden-{i}").into_bytes()
}

/// 110% of a 2^10-slot table.
const FILL: usize = 1126;

fn config(seed: u64) -> CuckooConfig {
    CuckooConfig::new(1 << 8).with_seed(seed)
}

/// Fills `filter` serially or batched, deletes every third key, and
/// digests results, stored state and counters.
fn run<F: Filter>(mut filter: F, batched: bool, state: DigestState<F>) -> u64 {
    let keys: Vec<Vec<u8>> = (0..FILL).map(key).collect();
    let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    let results = if batched {
        filter.insert_batch(&refs)
    } else {
        refs.iter().map(|k| filter.insert(k)).collect()
    };
    let mut d = Digest::new();
    for r in &results {
        d.u64(match r {
            Ok(()) => 0,
            Err(InsertError::Full { kicks }) => 1 + kicks,
            Err(_) => u64::MAX,
        });
    }
    for k in refs.iter().step_by(3) {
        d.u64(u64::from(filter.delete(k)));
    }
    d.u64(filter.len() as u64);
    state(&filter, &mut d);
    d.stats(&filter.stats());
    d.0
}

/// Lookup answers over a probe set four times the fill (inserted,
/// deleted and never-inserted keys alike).
fn probe_state<F: Filter>(filter: &F, d: &mut Digest) {
    for i in 0..4 * FILL {
        d.u64(u64::from(filter.contains(&key(i))));
    }
}

fn vcf_state(filter: &VerticalCuckooFilter, d: &mut Digest) {
    d.bytes(&filter.to_snapshot());
}

fn kvcf_state(filter: &KVcf, d: &mut Digest) {
    d.bytes(&filter.to_snapshot());
}

fn scalable_state(filter: &ScalableVcf, d: &mut Digest) {
    for (segment, bucket, fp) in filter.stored() {
        d.u64(segment as u64);
        d.u64(bucket as u64);
        d.u64(u64::from(fp));
    }
    let MigrationStats {
        steps,
        drained_buckets,
        moved_fingerprints,
        stalls,
        last_op_buckets,
    } = filter.migration_stats();
    for v in [
        steps,
        drained_buckets,
        moved_fingerprints,
        stalls,
        last_op_buckets,
    ] {
        d.u64(v);
    }
}

/// `[serial, batched]` digests of one family member under one seed.
fn digests<F: Filter>(make: impl Fn(u64) -> F, seed: u64, state: DigestState<F>) -> [u64; 2] {
    [run(make(seed), false, state), run(make(seed), true, state)]
}

fn all_digests() -> Vec<(&'static str, u64, [u64; 2])> {
    let mut out = Vec::new();
    for seed in [1u64, 7, 42] {
        out.push((
            "CF",
            seed,
            digests(|s| CuckooFilter::new(config(s)).unwrap(), seed, probe_state),
        ));
        out.push((
            "VCF",
            seed,
            digests(
                |s| VerticalCuckooFilter::new(config(s)).unwrap(),
                seed,
                vcf_state,
            ),
        ));
        out.push((
            "IVCF3",
            seed,
            digests(
                |s| VerticalCuckooFilter::with_mask_ones(config(s), 3).unwrap(),
                seed,
                vcf_state,
            ),
        ));
        out.push((
            "DVCF(r=0.5)",
            seed,
            digests(|s| Dvcf::with_r(config(s), 0.5).unwrap(), seed, probe_state),
        ));
        for k in [2usize, 6] {
            out.push((
                if k == 2 { "2-VCF" } else { "6-VCF" },
                seed,
                digests(
                    |s| KVcf::new(config(s).with_fingerprint_bits(16), k).unwrap(),
                    seed,
                    kvcf_state,
                ),
            ));
        }
        out.push((
            "8-VCF/MAX=0",
            seed,
            digests(
                |s| KVcf::new(config(s).with_fingerprint_bits(16).with_max_kicks(0), 8).unwrap(),
                seed,
                kvcf_state,
            ),
        ));
        out.push((
            "ScalableVCF",
            seed,
            digests(
                |s| ScalableVcf::new(config(s)).unwrap(),
                seed,
                scalable_state,
            ),
        ));
    }
    out
}

/// Digests captured before the variants shared one cuckoo core.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("CF", 1, 0x3727_4cec_2e2b_cd41),
    ("VCF", 1, 0xd190_bc65_1509_bb13),
    ("IVCF3", 1, 0x180b_5942_f533_8312),
    ("DVCF(r=0.5)", 1, 0x4a6b_5f1b_b0ad_6603),
    ("2-VCF", 1, 0xbd13_8ce6_360c_d427),
    ("6-VCF", 1, 0xa5b3_5e8b_49f8_697a),
    ("8-VCF/MAX=0", 1, 0x1790_518d_3703_df51),
    ("ScalableVCF", 1, 0x633d_a733_5244_7f4d),
    ("CF", 7, 0xd7e8_0e94_0adc_23f2),
    ("VCF", 7, 0x022e_5777_6369_e788),
    ("IVCF3", 7, 0x987f_8b5c_d514_90e0),
    ("DVCF(r=0.5)", 7, 0x833c_0ee8_132c_0895),
    ("2-VCF", 7, 0x7b52_33ba_f3c7_a7e7),
    ("6-VCF", 7, 0x5e2d_ec55_240b_deb1),
    ("8-VCF/MAX=0", 7, 0x8825_1b64_3acc_d2c7),
    ("ScalableVCF", 7, 0xd84b_f2f9_5a82_2c5a),
    ("CF", 42, 0xc491_3d75_52fe_0204),
    ("VCF", 42, 0x8a9e_1810_c4bb_2108),
    ("IVCF3", 42, 0xa79b_b360_3c05_0bac),
    ("DVCF(r=0.5)", 42, 0x0a18_e326_5559_f74c),
    ("2-VCF", 42, 0x76a5_b1e4_829b_00b4),
    ("6-VCF", 42, 0x333d_1393_4479_bb50),
    ("8-VCF/MAX=0", 42, 0x3e6d_bffd_af0a_f0c5),
    ("ScalableVCF", 42, 0xf10b_0110_f0bf_5e6a),
];

#[test]
fn family_state_matches_golden_digests() {
    let actual = all_digests();
    assert_eq!(actual.len(), GOLDEN.len());
    for ((name, seed, [serial, batched]), &(gname, gseed, golden)) in actual.iter().zip(GOLDEN) {
        assert_eq!((*name, *seed), (gname, gseed));
        assert_eq!(
            *serial, golden,
            "{name} seed {seed}: serial digest {serial:#018x} moved"
        );
        assert_eq!(
            *batched, golden,
            "{name} seed {seed}: batched digest {batched:#018x} moved"
        );
    }
}
