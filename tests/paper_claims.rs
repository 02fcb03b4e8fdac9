//! Integration tests pinning the paper's headline comparative claims at
//! reduced scale. These are the "shape" assertions EXPERIMENTS.md reports
//! at full scale; here they run fast enough for CI.

use vertical_cuckoo_filters::analysis;
use vertical_cuckoo_filters::baselines::{CuckooFilter, DaryCuckooFilter};
use vertical_cuckoo_filters::traits::Filter;
use vertical_cuckoo_filters::vcf::{CuckooConfig, Dvcf, KVcf, VerticalCuckooFilter};
use vertical_cuckoo_filters::workloads::KeyStream;

const SLOTS_LOG2: u32 = 14;

fn config(seed: u64) -> CuckooConfig {
    CuckooConfig::with_total_slots(1 << SLOTS_LOG2).with_seed(seed)
}

fn fill_all(filter: &mut dyn Filter, seed: u64) -> (f64, f64) {
    let slots = 1usize << SLOTS_LOG2;
    let keys = KeyStream::new(seed).take_vec(slots);
    let mut stored = 0usize;
    for key in &keys {
        if filter.insert(key).is_ok() {
            stored += 1;
        }
    }
    (
        stored as f64 / filter.capacity() as f64,
        filter.stats().kicks_per_insert(),
    )
}

/// Section I / Table III: VCF achieves a higher load factor than CF.
#[test]
fn claim_vcf_load_factor_beats_cf() {
    let mut cf_lf = 0.0;
    let mut vcf_lf = 0.0;
    for seed in 0..3u64 {
        cf_lf += fill_all(&mut CuckooFilter::new(config(seed)).unwrap(), seed).0;
        vcf_lf += fill_all(&mut VerticalCuckooFilter::new(config(seed)).unwrap(), seed).0;
    }
    assert!(
        vcf_lf > cf_lf + 0.01,
        "VCF LF {:.4} must clearly beat CF LF {:.4}",
        vcf_lf / 3.0,
        cf_lf / 3.0
    );
    assert!(
        vcf_lf / 3.0 > 0.99,
        "VCF should approach full load, got {}",
        vcf_lf / 3.0
    );
}

/// Fig. 8: VCF's eviction count is an order of magnitude below CF's.
#[test]
fn claim_vcf_cuts_evictions_by_roughly_10x() {
    let (_, cf_kicks) = fill_all(&mut CuckooFilter::new(config(1)).unwrap(), 1);
    let (_, vcf_kicks) = fill_all(&mut VerticalCuckooFilter::new(config(1)).unwrap(), 1);
    // Paper: CF ≈ 12.8, VCF ≈ 1.27.
    assert!(cf_kicks > 5.0 * vcf_kicks, "cf={cf_kicks} vcf={vcf_kicks}");
    assert!(
        cf_kicks > 8.0,
        "CF near-full should evict heavily: {cf_kicks}"
    );
    assert!(vcf_kicks < 2.5, "VCF should evict rarely: {vcf_kicks}");
}

/// Section V-C worked examples: measured E0 matches Equ. 14/15 within a
/// reasonable band for both CF and VCF.
#[test]
fn claim_model_predicts_measured_evictions() {
    let mut cf = CuckooFilter::new(config(2)).unwrap();
    let (cf_lf, cf_kicks) = fill_all(&mut cf, 2);
    let cf_model = analysis::e0(cf_lf, analysis::avg_insert_cost(cf_lf, 0.0, 4));
    assert!(
        (cf_kicks - cf_model).abs() / cf_model < 0.5,
        "CF: measured {cf_kicks}, model {cf_model}"
    );

    let mut vcf = VerticalCuckooFilter::new(config(2)).unwrap();
    let r = vcf.expected_r();
    let (vcf_lf, vcf_kicks) = fill_all(&mut vcf, 2);
    let vcf_model = analysis::e0(vcf_lf, analysis::avg_insert_cost(vcf_lf, r, 4));
    assert!(
        (vcf_kicks - vcf_model).abs() < 1.0,
        "VCF: measured {vcf_kicks}, model {vcf_model}"
    );
}

/// Fig. 9 / Equ. 10: FPR grows with r and roughly doubles from CF to VCF.
#[test]
fn claim_fpr_scales_with_r() {
    let slots = 1usize << SLOTS_LOG2;
    let measure = |filter: &mut dyn Filter| {
        let keys = KeyStream::new(3).take_vec(slots);
        for key in &keys {
            let _ = filter.insert(key);
        }
        let aliens = KeyStream::new(0xbad).take_vec(400_000);
        aliens.iter().filter(|k| filter.contains(k)).count() as f64 / aliens.len() as f64
    };
    let cf_fpr = measure(&mut CuckooFilter::new(config(3)).unwrap());
    let vcf_fpr = measure(&mut VerticalCuckooFilter::new(config(3)).unwrap());
    let ratio = vcf_fpr / cf_fpr;
    assert!(
        (1.5..=3.2).contains(&ratio),
        "VCF/CF FPR ratio should be ≈2 (paper: 0.974/0.485): cf={cf_fpr} vcf={vcf_fpr}"
    );
}

/// Table III orderings: DVCF sits between CF and VCF in load factor.
#[test]
fn claim_dvcf_interpolates_between_cf_and_vcf() {
    let (cf, _) = fill_all(&mut CuckooFilter::new(config(4)).unwrap(), 4);
    let (dvcf_low, _) = fill_all(&mut Dvcf::with_r(config(4), 0.25).unwrap(), 4);
    let (dvcf_high, _) = fill_all(&mut Dvcf::with_r(config(4), 0.875).unwrap(), 4);
    let (vcf, _) = fill_all(&mut VerticalCuckooFilter::new(config(4)).unwrap(), 4);
    assert!(cf < dvcf_low + 0.005, "cf={cf} dvcf(0.25)={dvcf_low}");
    assert!(
        dvcf_low < dvcf_high + 0.003,
        "dvcf(0.25)={dvcf_low} dvcf(0.875)={dvcf_high}"
    );
    assert!(
        dvcf_high <= vcf + 0.005,
        "dvcf(0.875)={dvcf_high} vcf={vcf}"
    );
}

/// Section III-B: VCF needs fewer hash computations per insert than CF
/// (each CF relocation re-hashes; VCF relocates far less often).
#[test]
fn claim_vcf_needs_fewer_hashes_per_insert() {
    let mut cf = CuckooFilter::new(config(5)).unwrap();
    fill_all(&mut cf, 5);
    let mut vcf = VerticalCuckooFilter::new(config(5)).unwrap();
    fill_all(&mut vcf, 5);
    let cf_hashes = cf.stats().hashes_per_insert();
    let vcf_hashes = vcf.stats().hashes_per_insert();
    assert!(
        vcf_hashes < cf_hashes,
        "VCF {vcf_hashes} hashes/insert must be below CF {cf_hashes}"
    );
}

/// Table V: k-VCF at MAX = 0 reaches ≈97 % load once k ≥ 9.
#[test]
fn claim_kvcf_high_load_without_relocation() {
    let mut kvcf = KVcf::new(config(6).with_fingerprint_bits(16).with_max_kicks(0), 9).unwrap();
    let (lf, kicks) = fill_all(&mut kvcf, 6);
    assert_eq!(kicks, 0.0, "MAX=0 must never relocate");
    assert!(lf > 0.94, "k=9 without kicks should approach 97%: {lf}");
}

/// Fig. 6: DCF lookups are the slowest of the family in probe count
/// terms (it always walks d buckets with base-d arithmetic).
#[test]
fn claim_dcf_pays_more_for_lookups() {
    let slots = 1usize << SLOTS_LOG2;
    let keys = KeyStream::new(7).take_vec(slots * 9 / 10);
    let aliens = KeyStream::new(0x7777).take_vec(20_000);

    let mut cf = CuckooFilter::new(config(7)).unwrap();
    let mut dcf = DaryCuckooFilter::new(config(7)).unwrap();
    for key in &keys {
        let _ = cf.insert(key);
        let _ = dcf.insert(key);
    }
    cf.reset_stats();
    dcf.reset_stats();
    for alien in &aliens {
        cf.contains(alien);
        dcf.contains(alien);
    }
    let cf_probes = cf.stats().lookups.probes_per_call();
    let dcf_probes = dcf.stats().lookups.probes_per_call();
    assert!(
        dcf_probes > 1.8 * cf_probes,
        "DCF negative lookups must probe ~2x CF: dcf={dcf_probes} cf={cf_probes}"
    );
}
