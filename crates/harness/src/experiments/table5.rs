//! Table V — k-VCF with `k` from 2 to 10: load factor and total insertion
//! time, with the relocation threshold set to **zero** and `f = 16`.
//!
//! Expected shape: load factor grows with `k` (≈97 % by `k = 9` without a
//! single relocation), at the cost of increasing insertion time (more
//! candidate buckets probed per insert).

use crate::report::{Cell, Report, Table};
use crate::runner::fill;
use crate::timing::Summary;
use crate::ExpOptions;
use vcf_core::{CuckooConfig, KVcf};
use vcf_traits::Filter;
use vcf_workloads::KeyStream;

/// The `k` values of the paper's Table V.
pub const KS: [usize; 8] = [2, 4, 5, 6, 7, 8, 9, 10];

/// Runs the experiment.
pub fn run(opts: &ExpOptions) -> Report {
    let theta = opts.theta();
    let slots = 1usize << theta;
    let reps = opts.repetitions().max(1);

    let mut table = Table::new(
        &format!("Table V: k-VCF comparison (2^{theta} slots, f=16, MAX=0)"),
        &["k", "LF(%)", "total time (s)", "mark bits/slot"],
    );

    for k in KS {
        let mut lf = Vec::new();
        let mut secs = Vec::new();
        let mut mark_bits = 0;
        for rep in 0..reps {
            let seed = opts.seed.wrapping_add(rep as u64);
            let keys = KeyStream::new(seed).take_vec(slots);
            let config = CuckooConfig::with_total_slots(slots)
                .with_seed(seed)
                .with_fingerprint_bits(16)
                .with_max_kicks(0);
            let mut filter = KVcf::new(config, k).expect("k-VCF geometry");
            let outcome = fill(&mut filter, &keys);
            assert_eq!(
                filter.stats().kicks,
                0,
                "MAX=0 regime must never relocate (k={k})"
            );
            lf.push(outcome.load_factor);
            secs.push(outcome.seconds);
            mark_bits = filter.mark_bits();
        }
        table.row(vec![
            Cell::Int(k as i64),
            Cell::Float(Summary::of(&lf).mean * 100.0, 2),
            Cell::Float(Summary::of(&secs).mean, 4),
            Cell::Int(i64::from(mark_bits)),
        ]);
    }

    let mut report = Report::new();
    report.push(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_factor_monotone_in_k() {
        let opts = ExpOptions {
            slots_log2: 12,
            reps: 1,
            csv_dir: None,
            ..Default::default()
        };
        let report = run(&opts);
        let csv = report.tables()[0].to_csv();
        let lfs: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert_eq!(lfs.len(), KS.len());
        // Allow small noise but require the overall trend.
        assert!(
            lfs[0] < lfs[3],
            "k=2 ({}) must trail k=6 ({})",
            lfs[0],
            lfs[3]
        );
        assert!(
            lfs[3] < lfs[7] + 1.0,
            "k=6 vs k=10: {} vs {}",
            lfs[3],
            lfs[7]
        );
        assert!(
            *lfs.last().unwrap() > 90.0,
            "k=10 must approach full: {}",
            lfs[7]
        );
    }
}
