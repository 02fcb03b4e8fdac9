//! Analytic model of the paper's Section V: closed-form predictions for
//! load factor behaviour, false positive rate, space cost and insertion
//! cost, used by the harness to print model-vs-measured comparisons.
//!
//! All functions are direct transcriptions of the paper's equations, with
//! the equation number in each doc comment. `r` is the probability that an
//! item receives four candidate buckets (the paper's unified trade-off
//! knob: `r = P` of Equ. 8 for IVCF, `r = p` of Equ. 9 for DVCF, `r = 0`
//! for CF).
//!
//! # Examples
//!
//! ```
//! use vcf_analysis as model;
//!
//! // CF at b=4, α=0.95 evicts ~11 fingerprints per insert near full
//! // (the paper's Section V-C worked example: E0 ≈ 11.3).
//! let e = model::avg_insert_cost(0.95, 0.0, 4);
//! let e0 = model::e0(0.98, e);
//! assert!((e0 - 11.3).abs() < 1.0, "E0 = {e0}");
//! ```

#![forbid(unsafe_code)]

/// Equ. 5 — probability that standard vertical hashing (balanced masks
/// over an `f`-bit domain) yields four distinct candidate buckets:
/// `P = 1 + 2^−f − 2^(1 − f/2)`.
pub fn p_four_standard(fingerprint_bits: u32) -> f64 {
    let f = f64::from(fingerprint_bits);
    1.0 + 2f64.powf(-f) - 2f64.powf(1.0 - f / 2.0)
}

/// Equ. 8 — probability of four distinct candidates when `bm1` has
/// `zeros` zero-bits over an `f`-bit domain:
/// `P = 1 − (2^l + 2^(f−l) − 1) / 2^f`.
pub fn p_four(fingerprint_bits: u32, zeros: u32) -> f64 {
    let f = f64::from(fingerprint_bits);
    let l = f64::from(zeros);
    1.0 - (2f64.powf(l) + 2f64.powf(f - l) - 1.0) / 2f64.powf(f)
}

/// Equ. 9 — DVCF's four-candidate fraction for threshold `Δt`:
/// `p = 2Δt / 2^f`.
pub fn dvcf_p(delta_t: u32, fingerprint_bits: u32) -> f64 {
    2.0 * f64::from(delta_t) / 2f64.powi(fingerprint_bits as i32)
}

/// Equ. 10 (exact form) — upper bound on the false positive rate:
/// `ξ = 1 − (1 − 2^−f)^((2r+2)·b·α)`.
pub fn fpr_upper_bound(r: f64, slots_per_bucket: usize, alpha: f64, fingerprint_bits: u32) -> f64 {
    let comparisons = (2.0 * r + 2.0) * slots_per_bucket as f64 * alpha;
    1.0 - (1.0 - 2f64.powi(-(fingerprint_bits as i32))).powf(comparisons)
}

/// Equ. 10 (approximate form) — `ξ ≈ 2(r+1)·b·α / 2^f`.
pub fn fpr_approx(r: f64, slots_per_bucket: usize, alpha: f64, fingerprint_bits: u32) -> f64 {
    2.0 * (r + 1.0) * slots_per_bucket as f64 * alpha / 2f64.powi(fingerprint_bits as i32)
}

/// Equ. 11 — minimal fingerprint width for a target false positive rate:
/// `f ≥ ⌈log2(2(r+1)·b·α / ξ)⌉`.
///
/// # Panics
///
/// Panics if `target_fpr` is not in `(0, 1)`.
pub fn min_fingerprint_bits(r: f64, slots_per_bucket: usize, alpha: f64, target_fpr: f64) -> u32 {
    assert!(
        target_fpr > 0.0 && target_fpr < 1.0,
        "target FPR must be in (0, 1)"
    );
    let value = 2.0 * (r + 1.0) * slots_per_bucket as f64 * alpha / target_fpr;
    value.log2().ceil().max(1.0) as u32
}

/// Equ. 12 — average bits per stored item:
/// `C = ⌈log2(2(r+1)·b·α / ξ)⌉ / α`.
pub fn bits_per_item(r: f64, slots_per_bucket: usize, alpha: f64, target_fpr: f64) -> f64 {
    f64::from(min_fingerprint_bits(r, slots_per_bucket, alpha, target_fpr)) / alpha
}

/// Equ. 13 — expected evictions for one insertion at instantaneous load
/// `α`: `E(π_α) = 1 / (1 − α^((2r+1)·b))`.
///
/// Diverges as `α → 1`; callers should keep `α < 1`.
pub fn expected_evictions_at(alpha: f64, r: f64, slots_per_bucket: usize) -> f64 {
    let exponent = (2.0 * r + 1.0) * slots_per_bucket as f64;
    1.0 / (1.0 - alpha.powf(exponent))
}

/// Equ. 14 — average insertion cost for serial fills from empty to `α`:
/// `E = (1/α)·∫₀^α dx / (1 − x^((2r+1)b))`, evaluated by Simpson's rule.
///
/// The paper writes the integral without the leading `1/α`; dividing by
/// `α` converts "total evictions over the fill" into "evictions per
/// inserted item", which is the quantity its worked example (`E0 ≈ 11.3`
/// at `α = 0.95`) and Fig. 8 actually report.
pub fn avg_insert_cost(alpha: f64, r: f64, slots_per_bucket: usize) -> f64 {
    if alpha <= 0.0 {
        return 1.0;
    }
    let alpha = alpha.min(0.9999);
    let exponent = (2.0 * r + 1.0) * slots_per_bucket as f64;
    let f = |x: f64| 1.0 / (1.0 - x.powf(exponent));
    // Simpson's rule with enough panels for the near-singular tail.
    let panels = 20_000usize;
    let h = alpha / panels as f64;
    let mut sum = f(0.0) + f(alpha);
    for i in 1..panels {
        let x = i as f64 * h;
        sum += if i % 2 == 1 { 4.0 * f(x) } else { 2.0 * f(x) };
    }
    let integral = sum * h / 3.0;
    integral / alpha
}

/// Equ. 15 — the experiment-facing average eviction count, charging
/// failed insertions at the `MAX = 500` kick limit:
/// `E0 = (λ0/λ)·E + 500·(1 − λ0/λ)`, where `λ0/λ` is the fraction of
/// items successfully stored.
pub fn e0(stored_fraction: f64, avg_cost: f64) -> f64 {
    stored_fraction * avg_cost + 500.0 * (1.0 - stored_fraction)
}

/// Classic Bloom filter false positive rate: `ξ = (1 − e^(−kn/m))^k`
/// (Section II-A).
pub fn bloom_fpr(hashes: u32, items: usize, bits: usize) -> f64 {
    if bits == 0 {
        return 1.0;
    }
    let k = f64::from(hashes);
    let exponent = -k * items as f64 / bits as f64;
    (1.0 - exponent.exp()).powf(k)
}

/// Standard CF false positive rate bound:
/// `ξ = 1 − (1 − 2^−f)^(2b) ≈ 2b / 2^f` (Section II-B).
pub fn cf_fpr(slots_per_bucket: usize, fingerprint_bits: u32) -> f64 {
    1.0 - (1.0 - 2f64.powi(-(fingerprint_bits as i32))).powf(2.0 * slots_per_bucket as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equ5_is_equ8_at_balanced_split() {
        for f in [8u32, 10, 14, 16] {
            assert!(
                (p_four_standard(f) - p_four(f, f / 2)).abs() < 1e-12,
                "f={f}"
            );
        }
    }

    #[test]
    fn equ8_matches_paper_f8_ladder() {
        // "P ≈ {0, 0.49, 0.73, 0.84, 0.87} when f = 8" for l = 7..4.
        assert!((p_four(8, 7) - 0.49).abs() < 0.01);
        assert!((p_four(8, 6) - 0.73).abs() < 0.02);
        assert!((p_four(8, 5) - 0.84).abs() < 0.01);
        assert!((p_four(8, 4) - 0.87).abs() < 0.01);
    }

    #[test]
    fn equ8_f16_balanced_matches_paper() {
        // "f = 16 and l = 8, then P ≈ 0.9922".
        assert!((p_four(16, 8) - 0.9922).abs() < 1e-3);
    }

    #[test]
    fn equ9_fraction() {
        // DVCF_8: 2Δt = 2^14 → p = 1.
        assert!((dvcf_p(1 << 13, 14) - 1.0).abs() < 1e-12);
        // DVCF_4: 2Δt = 0.5·2^14 → p = 0.5.
        assert!((dvcf_p(1 << 12, 14) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn equ10_approx_tracks_exact() {
        for r in [0.0, 0.5, 1.0] {
            for f in [10u32, 14, 18] {
                let exact = fpr_upper_bound(r, 4, 0.95, f);
                let approx = fpr_approx(r, 4, 0.95, f);
                assert!(
                    (exact - approx).abs() / approx < 0.01,
                    "r={r} f={f}: exact={exact} approx={approx}"
                );
            }
        }
    }

    #[test]
    fn equ10_fpr_grows_with_r() {
        let low = fpr_approx(0.0, 4, 0.95, 14);
        let high = fpr_approx(1.0, 4, 0.95, 14);
        assert!(
            (high / low - 2.0).abs() < 1e-9,
            "r=1 doubles the FPR bound vs r=0"
        );
    }

    #[test]
    fn equ11_equ12_worked_example() {
        // Section V-B: b=4, CF (r=0), α=0.95 → C = 3.08 + 1.05·log2(1/ξ)
        // at ξ = 2^-10-ish values the ceil form matches within a bit.
        let bits = min_fingerprint_bits(0.0, 4, 0.95, 0.001);
        // 2·1·4·0.95/0.001 = 7600 → log2 ≈ 12.89 → 13 bits.
        assert_eq!(bits, 13);
        let c = bits_per_item(0.0, 4, 0.95, 0.001);
        assert!((c - 13.0 / 0.95).abs() < 1e-9);
    }

    #[test]
    fn equ13_diverges_toward_full() {
        let near_empty = expected_evictions_at(0.1, 0.0, 4);
        let near_full = expected_evictions_at(0.99, 0.0, 4);
        assert!(near_empty < 1.01);
        assert!(near_full > 20.0);
    }

    #[test]
    fn equ13_more_candidates_fewer_evictions() {
        let cf = expected_evictions_at(0.95, 0.0, 4);
        let vcf = expected_evictions_at(0.95, 1.0, 4);
        assert!(
            vcf < cf,
            "r=1 must reduce expected evictions: {vcf} vs {cf}"
        );
    }

    #[test]
    fn equ14_equ15_match_paper_worked_examples() {
        // "let r=0, b=4, α=0.95 and λ0/λ=0.98, then E0 = 11.3"
        let e_cf = avg_insert_cost(0.95, 0.0, 4);
        let e0_cf = e0(0.98, e_cf);
        assert!(
            (e0_cf - 11.3).abs() < 1.2,
            "CF E0 = {e0_cf}, paper says ≈11.3"
        );
        // "with r≈1, b=4, α=0.995 and λ0/λ≈1, we have E0 = 1.22 for VCF"
        let e_vcf = avg_insert_cost(0.995, 1.0, 4);
        let e0_vcf = e0(1.0, e_vcf);
        assert!(
            (e0_vcf - 1.22).abs() < 0.25,
            "VCF E0 = {e0_vcf}, paper says ≈1.22"
        );
    }

    #[test]
    fn equ14_monotone_in_alpha() {
        let mut last = 0.0;
        for alpha in [0.1, 0.5, 0.8, 0.9, 0.95, 0.99] {
            let e = avg_insert_cost(alpha, 0.5, 4);
            assert!(e > last, "insert cost must grow with fill: α={alpha} E={e}");
            last = e;
        }
    }

    #[test]
    fn bloom_fpr_optimal_geometry() {
        // k=10, m/n=14.4 → ξ ≈ 0.1%.
        let fpr = bloom_fpr(10, 1_000_000, 14_400_000);
        assert!((fpr - 0.001).abs() < 3e-4, "fpr={fpr}");
    }

    #[test]
    fn cf_fpr_matches_approx() {
        // ξ ≈ 2b/2^f = 8/2^14.
        let fpr = cf_fpr(4, 14);
        assert!((fpr - 8.0 / 16384.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "target FPR")]
    fn min_bits_rejects_bad_fpr() {
        min_fingerprint_bits(0.0, 4, 0.95, 0.0);
    }

    #[test]
    fn avg_insert_cost_handles_edge_alphas() {
        assert_eq!(avg_insert_cost(0.0, 0.0, 4), 1.0);
        assert!(avg_insert_cost(1.0, 0.0, 4).is_finite());
    }
}
