//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **Mask placement** — Equ. 8 says the four-candidate probability
//!    depends only on the *popcount* of `bm1`, not where its bits sit.
//!    Compare low-packed vs evenly interleaved masks at equal popcount.
//! 2. **Rollback cost** — our insertion is atomic (failed kick walks are
//!    undone). Quantify what the undo log costs by comparing fills that
//!    never fail (95 %) against fills driven past capacity (110 %).
//! 3. **Chain growth** — a Dynamic-CF-style chain of equal VCFs: load
//!    factor and per-lookup bucket accesses as the chain grows, since a
//!    lookup "needs to check all linked CFs" (Section II-B).

use crate::factory::FilterSpec;
use crate::report::{Cell, Report, Table};
use crate::runner::{fill, measure_fpr};
use crate::ExpOptions;
use vcf_core::{CuckooConfig, MaskPair, VerticalCuckooFilter};
use vcf_traits::Filter;
use vcf_workloads::KeyStream;

fn mask_placement_table(opts: &ExpOptions) -> Table {
    let theta = opts.theta().min(16);
    let slots = 1usize << theta;
    let mut table = Table::new(
        &format!("Ablation: mask placement at equal popcount (2^{theta} slots, f=14)"),
        &[
            "ones",
            "low LF(%)",
            "spread LF(%)",
            "low FPR(x1e-3)",
            "spread FPR(x1e-3)",
        ],
    );
    for ones in [2u32, 4, 7] {
        let mut row = vec![Cell::Int(i64::from(ones))];
        let mut lfs = Vec::new();
        let mut fprs = Vec::new();
        for masks in [
            MaskPair::with_ones(ones, 14).expect("valid"),
            MaskPair::interleaved(ones, 14).expect("valid"),
        ] {
            let config = CuckooConfig::with_total_slots(slots).with_seed(opts.seed);
            let mut filter =
                VerticalCuckooFilter::with_masks(config, masks, format!("ablate{ones}"))
                    .expect("valid geometry");
            let keys = KeyStream::new(opts.seed).take_vec(slots);
            let outcome = fill(&mut filter, &keys);
            let aliens = KeyStream::new(opts.seed ^ 0xab1a7e).take_vec(200_000);
            lfs.push(outcome.load_factor);
            fprs.push(measure_fpr(&filter, &aliens).rate);
        }
        row.push(Cell::Float(lfs[0] * 100.0, 2));
        row.push(Cell::Float(lfs[1] * 100.0, 2));
        row.push(Cell::Float(fprs[0] * 1e3, 3));
        row.push(Cell::Float(fprs[1] * 1e3, 3));
        table.row(row);
    }
    table
}

fn rollback_cost_table(opts: &ExpOptions) -> Table {
    let theta = opts.theta().min(16);
    let slots = 1usize << theta;
    let mut table = Table::new(
        &format!("Ablation: rollback (atomic-insert) cost (2^{theta} slots)"),
        &["filter", "fill", "IT(us)", "failures", "kicks/insert"],
    );
    for spec in [FilterSpec::cf(), FilterSpec::vcf(14)] {
        for (label, fraction) in [("95% (no failures)", 0.95), ("110% (failure-heavy)", 1.10)] {
            let n = (slots as f64 * fraction) as usize;
            let config = CuckooConfig::with_total_slots(slots).with_seed(opts.seed);
            let mut filter = spec.build(config).expect("spec builds");
            let keys = KeyStream::new(opts.seed).take_vec(n);
            let outcome = fill(filter.as_mut(), &keys);
            table.row(vec![
                Cell::from(spec.label.clone()),
                Cell::from(label),
                Cell::Float(outcome.micros_per_insert, 3),
                Cell::Int(outcome.failures as i64),
                Cell::Float(outcome.kicks_per_insert, 2),
            ]);
        }
    }
    table
}

/// Inserts `key` into a chain of equal VCFs the way a Dynamic CF grows:
/// newest link first, then older links, then a fresh link seeded
/// `template.seed + links·0x9e37`.
fn chain_insert(chain: &mut Vec<VerticalCuckooFilter>, template: CuckooConfig, key: &[u8]) {
    if chain.iter_mut().rev().any(|link| link.insert(key).is_ok()) {
        return;
    }
    let seed = template.seed.wrapping_add(chain.len() as u64 * 0x9e37);
    let mut link =
        VerticalCuckooFilter::new(CuckooConfig { seed, ..template }).expect("template valid");
    link.insert(key).expect("a fresh link has room");
    chain.push(link);
}

fn dynamic_chain_table(opts: &ExpOptions) -> Table {
    let mut table = Table::new(
        "Ablation: dynamic VCF chain growth",
        &[
            "items (x link cap)",
            "links",
            "total LF(%)",
            "buckets/lookup",
        ],
    );
    let link_slots = 1usize << 10;
    for factor in [1usize, 2, 4, 8] {
        let template = CuckooConfig::with_total_slots(link_slots).with_seed(opts.seed);
        let mut chain = Vec::new();
        for key in &KeyStream::new(opts.seed).take_vec(link_slots * factor) {
            chain_insert(&mut chain, template, key);
        }
        chain.iter_mut().for_each(Filter::reset_stats);
        let probe_keys = KeyStream::new(opts.seed ^ 0x10).take_vec(10_000);
        for key in &probe_keys {
            chain.iter().any(|link| link.contains(key));
        }
        let stored: usize = chain.iter().map(Filter::len).sum();
        let capacity: usize = chain.iter().map(Filter::capacity).sum();
        let buckets: u64 = chain
            .iter()
            .map(|link| link.stats().lookups.bucket_accesses)
            .sum();
        table.row(vec![
            Cell::Int(factor as i64),
            Cell::Int(chain.len() as i64),
            Cell::Float(stored as f64 / capacity as f64 * 100.0, 2),
            Cell::Float(buckets as f64 / probe_keys.len() as f64, 2),
        ]);
    }
    table
}

/// Runs all three ablations.
pub fn run(opts: &ExpOptions) -> Report {
    let mut report = Report::new();
    report.push(mask_placement_table(opts));
    report.push(rollback_cost_table(opts));
    report.push(dynamic_chain_table(opts));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_placement_is_irrelevant() {
        let opts = ExpOptions {
            slots_log2: 13,
            reps: 1,
            csv_dir: None,
            ..Default::default()
        };
        let table = mask_placement_table(&opts);
        for line in table.to_csv().lines().skip(1) {
            let cols: Vec<f64> = line.split(',').map(|v| v.parse().unwrap()).collect();
            assert!(
                (cols[1] - cols[2]).abs() < 0.5,
                "LF diverged between placements: {line}"
            );
        }
    }

    #[test]
    fn dynamic_chain_grows_linearly() {
        let opts = ExpOptions {
            slots_log2: 10,
            reps: 1,
            csv_dir: None,
            ..Default::default()
        };
        let table = dynamic_chain_table(&opts);
        let links: Vec<i64> = table
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(links[0] <= 2);
        assert!(
            links[3] >= 8,
            "8x link capacity needs >= 8 links: {links:?}"
        );
    }
}
