//! Table I — the cross-family comparison: space, insertion throughput
//! (relative to a plain Bloom filter) and deletion support for BF, CBF,
//! dlCBF, CF, 4-ary CF (DCF) and VCF, plus the Vacuum filter (VF) as an
//! extension row.
//!
//! Expected shape: CF/VCF below 1× BF space at equal false-positive
//! target with high load; CBF ≈ 4× BF; cuckoo-family insertion throughput
//! well above BF's k-probe inserts; VCF the fastest inserter; BF the only
//! structure without deletion.

use crate::factory::FilterSpec;
use crate::report::{Cell, Report, Table};
use crate::runner::fill;
use crate::timing::Summary;
use crate::ExpOptions;
use vcf_baselines::{
    BloomConfig, BloomFilter, CountingBloomFilter, DlCbfConfig, DlCountingBloomFilter, VacuumFilter,
};
use vcf_core::CuckooConfig;
use vcf_traits::Filter;
use vcf_workloads::KeyStream;

struct RowOutcome {
    bits_per_item: f64,
    inserts_per_sec: f64,
    deletion: bool,
}

fn measure(filter: &mut dyn Filter, keys: &[Vec<u8>], total_bits: usize) -> RowOutcome {
    let outcome = fill(filter, keys);
    RowOutcome {
        bits_per_item: total_bits as f64 / outcome.stored.max(1) as f64,
        inserts_per_sec: outcome.attempted as f64 / outcome.seconds.max(1e-12),
        deletion: filter.supports_deletion(),
    }
}

/// Runs the experiment.
pub fn run(opts: &ExpOptions) -> Report {
    let theta = opts.theta();
    let slots = 1usize << theta;
    // Insert to 95% of slot capacity so every cuckoo variant succeeds.
    let n = slots * 95 / 100;
    let reps = opts.repetitions().max(1);
    // Common false-positive target: standard CF at f=14, b=4
    // (ξ ≈ 2b/2^f ≈ 4.9e-4); BF/CBF geometry is derived from it.
    let target_fpr = vcf_analysis::cf_fpr(4, 14);

    let mut rows: Vec<(String, Vec<RowOutcome>)> = Vec::new();
    for rep in 0..reps {
        let seed = opts.seed.wrapping_add(rep as u64);
        let keys = KeyStream::new(seed).take_vec(n);
        let cuckoo_config = CuckooConfig::with_total_slots(slots).with_seed(seed);

        let mut outcomes: Vec<(String, RowOutcome)> = Vec::new();

        let bloom_config = BloomConfig::for_items(n, target_fpr);
        let mut bf = BloomFilter::new(bloom_config).expect("bloom geometry");
        outcomes.push(("BF".into(), measure(&mut bf, &keys, bloom_config.bits)));

        let mut cbf = CountingBloomFilter::new(bloom_config).expect("cbf geometry");
        outcomes.push((
            "CBF".into(),
            measure(&mut cbf, &keys, bloom_config.bits * 4),
        ));

        let dl_config = DlCbfConfig::for_items(n);
        let mut dlcbf = DlCountingBloomFilter::new(dl_config).expect("dlcbf geometry");
        let dl_bits = dlcbf.cells() * (dl_config.fingerprint_bits as usize + 8);
        outcomes.push(("dlCBF".into(), measure(&mut dlcbf, &keys, dl_bits)));

        let cuckoo_bits = cuckoo_config.capacity() * cuckoo_config.fingerprint_bits as usize;
        for spec in [FilterSpec::cf(), FilterSpec::dcf(), FilterSpec::vcf(14)] {
            let mut filter = spec.build(cuckoo_config).expect("cuckoo spec");
            outcomes.push((
                spec.label.clone(),
                measure(filter.as_mut(), &keys, cuckoo_bits),
            ));
        }

        // Extension row: the related-work Vacuum filter the paper cites.
        let mut vf = VacuumFilter::for_items(n, 14, seed).expect("vf geometry");
        let vf_bits = vf.capacity() * 14;
        outcomes.push(("VF".into(), measure(&mut vf, &keys, vf_bits)));

        if rows.is_empty() {
            rows = outcomes.into_iter().map(|(l, o)| (l, vec![o])).collect();
        } else {
            for (slot, (_, o)) in rows.iter_mut().zip(outcomes) {
                slot.1.push(o);
            }
        }
    }

    let bf_bits = Summary::of(
        &rows[0]
            .1
            .iter()
            .map(|o| o.bits_per_item)
            .collect::<Vec<_>>(),
    )
    .mean;
    let bf_tput = Summary::of(
        &rows[0]
            .1
            .iter()
            .map(|o| o.inserts_per_sec)
            .collect::<Vec<_>>(),
    )
    .mean;

    let mut table = Table::new(
        &format!("Table I: data-structure comparison (n={n}, target FPR {target_fpr:.2e})"),
        &[
            "structure",
            "bits/item",
            "space (xBF)",
            "insert Mops",
            "throughput (xBF)",
            "deletion",
        ],
    );
    for (label, outcomes) in &rows {
        let bits = Summary::of(&outcomes.iter().map(|o| o.bits_per_item).collect::<Vec<_>>()).mean;
        let tput = Summary::of(
            &outcomes
                .iter()
                .map(|o| o.inserts_per_sec)
                .collect::<Vec<_>>(),
        )
        .mean;
        table.row(vec![
            Cell::from(label.clone()),
            Cell::Float(bits, 2),
            Cell::Float(bits / bf_bits, 2),
            Cell::Float(tput / 1e6, 2),
            Cell::Float(tput / bf_tput, 2),
            Cell::from(if outcomes[0].deletion { "yes" } else { "no" }),
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
    fn table_shape_and_deletion_column() {
        let opts = ExpOptions {
            slots_log2: 12,
            reps: 1,
            csv_dir: None,
            ..Default::default()
        };
        let report = run(&opts);
        let table = &report.tables()[0];
        assert_eq!(table.len(), 7, "BF, CBF, dlCBF, CF, DCF, VCF, VF");
        let csv = table.to_csv();
        // Exactly one structure (BF) lacks deletion.
        assert_eq!(
            csv.matches(",no").count(),
            1,
            "only BF lacks deletion:\n{csv}"
        );
    }
}
