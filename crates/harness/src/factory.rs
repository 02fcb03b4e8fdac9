//! Uniform construction of every filter the paper compares.

use vcf_baselines::{CuckooFilter, DaryCuckooFilter};
use vcf_core::{CuckooConfig, Dvcf, VerticalCuckooFilter};
use vcf_traits::{BuildError, Filter};

/// Which filter to build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FilterKind {
    /// Standard Cuckoo filter.
    Cf,
    /// D-ary Cuckoo filter with the paper's `d = 4` candidates.
    Dcf,
    /// Standard VCF (balanced bitmasks).
    Vcf,
    /// `IVCF_i`: `ones` one-bits in the first bitmask.
    Ivcf {
        /// One-bits in `bm1`.
        ones: u32,
    },
    /// DVCF with four-candidate fraction `r`.
    Dvcf {
        /// Target fraction of four-candidate items.
        r: f64,
    },
}

/// A labelled filter specification, the row identity in every table.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterSpec {
    /// How to build the filter.
    pub kind: FilterKind,
    /// Row label, e.g. `"IVCF3"`.
    pub label: String,
    /// The nominal trade-off knob `r` this spec targets (0 for CF; DCF has
    /// no `r`, recorded as `NaN`).
    pub r: f64,
}

impl FilterSpec {
    /// Standard CF baseline (`r = 0`).
    pub fn cf() -> Self {
        Self {
            kind: FilterKind::Cf,
            label: "CF".into(),
            r: 0.0,
        }
    }

    /// DCF baseline with `d = 4` as in the paper.
    pub fn dcf() -> Self {
        Self {
            kind: FilterKind::Dcf,
            label: "DCF".into(),
            r: f64::NAN,
        }
    }

    /// Standard VCF (balanced masks); `r` per Equ. 8 at `fingerprint_bits`.
    pub fn vcf(fingerprint_bits: u32) -> Self {
        Self {
            kind: FilterKind::Vcf,
            label: "VCF".into(),
            r: vcf_analysis::p_four_standard(fingerprint_bits),
        }
    }

    /// `IVCF_i` with `r` per Equ. 8.
    pub fn ivcf(ones: u32, fingerprint_bits: u32) -> Self {
        Self {
            kind: FilterKind::Ivcf { ones },
            label: format!("IVCF{ones}"),
            r: vcf_analysis::p_four(fingerprint_bits, fingerprint_bits - ones),
        }
    }

    /// `DVCF_j` with `r = j/8` (the paper's `2Δt = j · 0.125 · 2^14`).
    pub fn dvcf_j(j: u32) -> Self {
        Self {
            kind: FilterKind::Dvcf {
                r: f64::from(j) / 8.0,
            },
            label: format!("DVCF{j}"),
            r: f64::from(j) / 8.0,
        }
    }

    /// Builds the filter over `config`.
    ///
    /// # Errors
    ///
    /// Propagates the constructor's [`BuildError`].
    pub fn build(&self, config: CuckooConfig) -> Result<Box<dyn Filter>, BuildError> {
        Ok(match self.kind {
            FilterKind::Cf => Box::new(CuckooFilter::new(config)?),
            FilterKind::Dcf => Box::new(DaryCuckooFilter::new(config)?),
            FilterKind::Vcf => Box::new(VerticalCuckooFilter::new(config)?),
            FilterKind::Ivcf { ones } => {
                Box::new(VerticalCuckooFilter::with_mask_ones(config, ones)?)
            }
            FilterKind::Dvcf { r } => Box::new(Dvcf::with_r(config, r)?),
        })
    }

    /// The paper's Section VI line-up: CF, DCF, `IVCF_1..6` plus VCF
    /// (`IVCF_7` at `f = 14`), and `DVCF_1..8`.
    pub fn paper_lineup(fingerprint_bits: u32) -> Vec<FilterSpec> {
        let mut specs = vec![FilterSpec::cf(), FilterSpec::dcf()];
        for ones in 1..=6 {
            specs.push(FilterSpec::ivcf(ones, fingerprint_bits));
        }
        specs.push(FilterSpec::vcf(fingerprint_bits));
        for j in 1..=8 {
            specs.push(FilterSpec::dvcf_j(j));
        }
        specs
    }

    /// Just the IVCF ladder plus VCF (Fig. 5(a), 7(a)).
    pub fn ivcf_ladder(fingerprint_bits: u32) -> Vec<FilterSpec> {
        let mut specs: Vec<FilterSpec> = (1..=6)
            .map(|ones| FilterSpec::ivcf(ones, fingerprint_bits))
            .collect();
        specs.push(FilterSpec::vcf(fingerprint_bits));
        specs
    }

    /// Just the DVCF ladder (Fig. 5(b), 7(b)).
    pub fn dvcf_ladder() -> Vec<FilterSpec> {
        (1..=8).map(FilterSpec::dvcf_j).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_kind() {
        let config = CuckooConfig::new(1 << 8);
        for spec in FilterSpec::paper_lineup(14) {
            let mut filter = spec.build(config).unwrap();
            filter.insert(b"smoke").unwrap();
            assert!(filter.contains(b"smoke"), "{}", spec.label);
        }
    }

    #[test]
    fn lineup_matches_paper() {
        let specs = FilterSpec::paper_lineup(14);
        let labels: Vec<&str> = specs.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels[0], "CF");
        assert_eq!(labels[1], "DCF");
        assert_eq!(labels[2], "IVCF1");
        assert_eq!(labels[8], "VCF");
        assert_eq!(labels[9], "DVCF1");
        assert_eq!(labels[16], "DVCF8");
        assert_eq!(specs.len(), 17);
    }

    #[test]
    fn r_values_are_monotone_in_the_ladders() {
        let ivcf = FilterSpec::ivcf_ladder(14);
        for pair in ivcf.windows(2) {
            assert!(pair[0].r < pair[1].r, "IVCF r must increase with ones");
        }
        let dvcf = FilterSpec::dvcf_ladder();
        for pair in dvcf.windows(2) {
            assert!(pair[0].r < pair[1].r, "DVCF r must increase with j");
        }
        assert!((dvcf.last().unwrap().r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cf_has_r_zero_and_dcf_nan() {
        assert_eq!(FilterSpec::cf().r, 0.0);
        assert!(FilterSpec::dcf().r.is_nan());
    }

    #[test]
    fn vcf_r_matches_paper_quote() {
        // Balanced split at f = 14 → 0.9844.
        assert!((FilterSpec::vcf(14).r - 0.9844).abs() < 1e-3);
    }
}
