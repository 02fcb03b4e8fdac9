//! False-positive-rate regression against the analytic model.
//!
//! Fills CF, VCF and `ConcurrentVcf` to ~95% load with 8-bit
//! fingerprints, measures the empirical FPR over a large alien probe
//! set, and pins it to within 2× of `vcf_analysis::fpr_upper_bound`
//! (Equ. 10, with `r = 0` degenerating to the classic two-candidate CF
//! bound). A silent fingerprint-width, masking or probe-set bug moves
//! the empirical rate by integer factors, which this window catches —
//! including on the atomic word path, where a lane-shift bug would
//! match against the wrong bits.

use vertical_cuckoo_filters::analysis::fpr_upper_bound;
use vertical_cuckoo_filters::baselines::CuckooFilter;
use vertical_cuckoo_filters::hash::mix64;
use vertical_cuckoo_filters::sketches::BinaryFuse8;
use vertical_cuckoo_filters::traits::Filter;
use vertical_cuckoo_filters::vcf::{
    ConcurrentVcf, CuckooConfig, ScalableVcf, VerticalCuckooFilter,
};

const ALIENS: u64 = 150_000;

fn config() -> CuckooConfig {
    CuckooConfig::new(1 << 12)
        .with_fingerprint_bits(8)
        .with_seed(42)
}

fn stored_key(i: u64) -> Vec<u8> {
    format!("member-{i}").into_bytes()
}

fn alien_key(i: u64) -> Vec<u8> {
    format!("alien-{i}").into_bytes()
}

/// Fills `filter` toward 95% load, measures the empirical FPR, and
/// checks it against the model with the *measured* load factor.
fn assert_fpr_tracks_model(filter: &mut dyn Filter, r: f64) {
    let target = (filter.capacity() as f64 * 0.95).ceil() as u64;
    let mut stored = 0u64;
    let mut i = 0u64;
    while stored < target {
        if filter.insert(&stored_key(i)).is_ok() {
            stored += 1;
        }
        i += 1;
        assert!(
            i < 2 * filter.capacity() as u64,
            "{}: could not reach 95% load",
            filter.name()
        );
    }
    let alpha = stored as f64 / filter.capacity() as f64;
    assert!(alpha >= 0.95, "{}: alpha only {alpha}", filter.name());

    let mut false_positives = 0u64;
    for a in 0..ALIENS {
        if filter.contains(&alien_key(a)) {
            false_positives += 1;
        }
    }
    let empirical = false_positives as f64 / ALIENS as f64;
    let bound = fpr_upper_bound(r, 4, alpha, 8);
    assert!(
        empirical < 2.0 * bound,
        "{}: empirical FPR {empirical:.4} exceeds 2x model bound {bound:.4}",
        filter.name()
    );
    // And not suspiciously low either: a filter quietly using wider
    // fingerprints (or probing too few buckets) would undershoot the
    // model by integer factors.
    assert!(
        empirical > bound / 4.0,
        "{}: empirical FPR {empirical:.4} implausibly below model bound {bound:.4}",
        filter.name()
    );
}

#[test]
fn cuckoo_filter_fpr_matches_two_candidate_model() {
    // CF probes two candidate buckets: Equ. 10 with r = 0.
    let mut cf = CuckooFilter::new(config()).unwrap();
    assert_fpr_tracks_model(&mut cf, 0.0);
}

#[test]
fn sequential_vcf_fpr_matches_model() {
    let mut vcf = VerticalCuckooFilter::new(config()).unwrap();
    let r = vcf.expected_r();
    assert!(r > 0.5, "balanced 8-bit masks should give r near 0.88");
    assert_fpr_tracks_model(&mut vcf, r);
}

#[test]
fn concurrent_vcf_fpr_matches_model() {
    let mut cvcf = ConcurrentVcf::new(config()).unwrap();
    let r = cvcf.expected_r();
    assert!(r > 0.5, "balanced 8-bit masks should give r near 0.88");
    assert_fpr_tracks_model(&mut cvcf, r);
}

/// Growth leg: the elastic filter's FPR, measured **immediately after
/// each doubling**, stays within 2× of the k-segment analysis model.
///
/// A `ScalableVcf` lookup probes the query's four candidate buckets in
/// *every* segment of the chain, so the chain FPR is a union bound over
/// per-segment terms. But the per-segment term is **not** the plain
/// single-segment model: a segment `p_i` doublings above the base is
/// split into `2^p_i` partitions, and the partition is *selected from
/// the fingerprint's own hash* (it must be — migration can only recompute
/// placement from stored bits, Theorem 1 style). A query therefore only
/// ever probes the partition that holds residents whose fingerprints
/// share its `p_i` selector bits, which enriches the per-slot match
/// probability from `2^−f` to `2^−(f − p_i)`: every partition bit is one
/// effective fingerprint bit spent on addressing — the same
/// fingerprint-vs-index trade recorded for segmented growth in the
/// smaller-and-more-flexible line of cuckoo-filter work. Hence:
///
/// ```text
/// FPR_chain(α_1..α_k) ≤ Σ_{i=1..k} fpr_upper_bound(r, b, α_i, f − p_i)
/// ```
///
/// where `α_i` is segment `i`'s load and `p_i = log2(buckets_i / base)`
/// (Equ. 10 per segment at the effective width). The fan-out cost is
/// shared: right after a doubling the fresh active segment is nearly
/// empty and contributes almost nothing, and drained cold segments fall
/// out of the sum — so the chain tracks this model within small constant
/// factors instead of degrading linearly in k forever. The window is
/// two-sided: a filter quietly probing fewer segments (false negatives
/// waiting to happen) or comparing wider fingerprints would undershoot
/// the model by integer factors.
#[test]
fn scalable_vcf_fpr_tracks_k_segment_model_after_each_doubling() {
    // f = 12 keeps the effective width `f − p_i` comfortably positive
    // through four doublings while the absolute FPR stays large enough
    // (hundreds of hits over the alien set) to measure above noise.
    const F: u32 = 12;
    let mut filter = ScalableVcf::new(
        CuckooConfig::new(1 << 10)
            .with_fingerprint_bits(F)
            .with_seed(42),
    )
    .unwrap();
    let r = filter.expected_r();
    assert!(r > 0.5, "balanced 12-bit masks should give r near 0.88");

    let mut i = 0u64;
    let mut doublings = 0u32;
    // Drained cold segments pop off the chain, so total capacity can dip;
    // a new *peak* capacity is exactly "a larger active segment exists".
    let mut peak_capacity = filter.capacity();
    while doublings < 4 {
        filter
            .insert(&stored_key(i))
            .unwrap_or_else(|e| panic!("growth-leg insert {i} failed: {e}"));
        i += 1;
        if filter.capacity() <= peak_capacity {
            continue;
        }
        // A doubling just happened: measure while the chain is at its
        // longest and the model sum at its most pessimistic.
        peak_capacity = filter.capacity();
        doublings += 1;
        let mut false_positives = 0u64;
        for a in 0..ALIENS {
            if filter.contains(&alien_key(a)) {
                false_positives += 1;
            }
        }
        let empirical = false_positives as f64 / ALIENS as f64;
        let lens = filter.segment_lens();
        let caps = filter.segment_capacities();
        let base_bits = filter.base_buckets().trailing_zeros();
        let bound: f64 = lens
            .iter()
            .zip(&caps)
            .map(|(&len, &cap)| {
                // Effective fingerprint width: each partition bit of this
                // segment is spent on addressing (see the doc comment).
                let p = (cap / 4).trailing_zeros() - base_bits;
                assert!(p < F, "segment outgrew the fingerprint: p = {p}");
                fpr_upper_bound(r, 4, len as f64 / cap as f64, F - p)
            })
            .sum();
        assert!(
            empirical < 2.0 * bound,
            "doubling {doublings}: empirical FPR {empirical:.4} exceeds 2x the \
             k-segment bound {bound:.4} (lens {lens:?}, caps {caps:?})"
        );
        assert!(
            empirical > bound / 4.0,
            "doubling {doublings}: empirical FPR {empirical:.4} implausibly below \
             the k-segment bound {bound:.4} (lens {lens:?}, caps {caps:?})"
        );
    }
}

/// Frozen-tier leg: the binary fuse filter's measured FPR sits within
/// 2× of the `ε ≈ 1.23·2⁻ᶠ` model (the constant is conservative — a
/// fuse query XORs three uniformly-assigned lanes, so the structural
/// rate is `2⁻ᶠ` in expectation; 1.23 absorbs construction skew). The
/// window is two-sided, like every other leg: quietly comparing wider
/// lanes would undershoot by integer factors.
#[test]
fn binary_fuse_fpr_matches_lane_model() {
    let members: Vec<u64> = (0..20_000u64).map(|i| mix64(i ^ 0xf00d)).collect();
    let fuse = BinaryFuse8::from_keys(&members, 42).unwrap();
    let mut false_positives = 0u64;
    for a in 0..ALIENS {
        if fuse.contains_key(mix64(a ^ 0xdead_beef_0000)) {
            false_positives += 1;
        }
    }
    let empirical = false_positives as f64 / ALIENS as f64;
    let model = 1.23 * (2.0f64).powi(-8);
    assert!(
        empirical < 2.0 * model,
        "fuse8: empirical FPR {empirical:.5} exceeds 2x model {model:.5}"
    );
    assert!(
        empirical > model / 4.0,
        "fuse8: empirical FPR {empirical:.5} implausibly below model {model:.5}"
    );
}

/// Acceptance bar for the frozen tier: a fuse generation drained from a
/// 16-bit-fingerprint VCF beats an equivalently-loaded 11-bit VCF on
/// **both** axes — ≤ 0.85× bits per stored item at equal-or-better FPR.
///
/// The comparison is honest about the freeze path: the fuse holds
/// *canonical coset keys* derived from the source's stored bits (never
/// the original items), so its end-to-end FPR is the canonical-key
/// identity-collision rate of the f = 16 source (≈ 2⁻¹³·n/cosets,
/// negligible here) plus the structural `2⁻⁸` lane rate — still below
/// the 11-bit VCF's `≈ 16·α·2⁻¹¹`, while the lane array stores ~9.5
/// bits/item against the VCF's `11/α`.
#[test]
fn frozen_fuse_beats_equally_loaded_vcf_on_bits_and_fpr() {
    const BUCKETS: usize = 1 << 15;
    let mut source = VerticalCuckooFilter::new(
        CuckooConfig::new(BUCKETS)
            .with_fingerprint_bits(16)
            .with_seed(42),
    )
    .unwrap();
    let mut comparator = VerticalCuckooFilter::new(
        CuckooConfig::new(BUCKETS)
            .with_fingerprint_bits(11)
            .with_seed(42),
    )
    .unwrap();
    let target = (source.capacity() as f64 * 0.95).ceil() as u64;
    let mut stored = 0u64;
    let mut i = 0u64;
    while stored < target {
        if source.insert(&stored_key(i)).is_ok() && comparator.insert(&stored_key(i)).is_ok() {
            stored += 1;
        }
        i += 1;
        assert!(i < 3 * source.capacity() as u64, "could not reach 95% load");
    }

    // Freeze: drain the source's stored bits into a fuse generation.
    let canonical: Vec<u64> = source.canonical_keys().collect();
    assert_eq!(canonical.len() as u64, stored);
    let fuse = BinaryFuse8::from_keys(&canonical, 7).unwrap();

    let mut fuse_fp = 0u64;
    let mut vcf_fp = 0u64;
    for a in 0..ALIENS {
        let alien = alien_key(a);
        if fuse.contains_key(source.canonical_key(&alien)) {
            fuse_fp += 1;
        }
        if comparator.contains(&alien) {
            vcf_fp += 1;
        }
    }
    let fuse_fpr = fuse_fp as f64 / ALIENS as f64;
    let vcf_fpr = vcf_fp as f64 / ALIENS as f64;
    let fuse_bits = fuse.storage_bytes() as f64 * 8.0 / stored as f64;
    let vcf_bits = (comparator.capacity() as f64 * 11.0) / stored as f64;

    assert!(
        fuse_fpr <= vcf_fpr,
        "frozen fuse FPR {fuse_fpr:.5} worse than the 11-bit VCF's {vcf_fpr:.5}"
    );
    assert!(
        fuse_bits <= 0.85 * vcf_bits,
        "frozen fuse spends {fuse_bits:.2} bits/item, more than 0.85x the \
         equivalently-loaded VCF's {vcf_bits:.2}"
    );
}

/// The two VCF paths are the same algorithm over different storage; at
/// identical configuration their empirical FPRs must agree closely, not
/// just both sit under the bound.
#[test]
fn concurrent_and_sequential_vcf_fpr_agree() {
    let measure = |filter: &mut dyn Filter| {
        let target = (filter.capacity() as f64 * 0.95) as u64;
        let mut stored = 0u64;
        let mut i = 0u64;
        while stored < target {
            if filter.insert(&stored_key(i)).is_ok() {
                stored += 1;
            }
            i += 1;
        }
        let mut fp = 0u64;
        for a in 0..ALIENS {
            if filter.contains(&alien_key(a)) {
                fp += 1;
            }
        }
        fp as f64 / ALIENS as f64
    };
    let sequential = measure(&mut VerticalCuckooFilter::new(config()).unwrap());
    let concurrent = measure(&mut ConcurrentVcf::new(config()).unwrap());
    let ratio = sequential.max(concurrent) / sequential.min(concurrent).max(1e-9);
    assert!(
        ratio < 1.25,
        "FPR diverged between storage paths: sequential {sequential:.4} vs concurrent {concurrent:.4}"
    );
}
