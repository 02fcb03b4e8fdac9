//! Experiment harness regenerating every table and figure of the VCF
//! paper's evaluation (Section VI), plus the Section V model comparisons.
//!
//! Each experiment lives in [`experiments`] and is driven by the
//! `vcf-repro` binary:
//!
//! ```text
//! cargo run -p vcf-harness --release --bin vcf-repro -- table3
//! cargo run -p vcf-harness --release --bin vcf-repro -- all --paper
//! ```
//!
//! By default experiments run at a laptop-friendly reduced scale
//! (`2^16`-slot filters instead of the paper's `2^20`, fewer repetitions);
//! `--paper` restores the paper's sizes. Absolute timings differ from the
//! paper's 2021-era testbed, but the *shapes* — who wins, by what factor,
//! where curves cross — are the reproduction target; `EXPERIMENTS.md`
//! records both.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod factory;
pub mod report;
pub mod runner;
pub mod timing;

pub use factory::{FilterKind, FilterSpec};
pub use report::{Cell, Report, Table};
pub use runner::{FillOutcome, FprOutcome, LookupOutcome};

use std::path::PathBuf;

/// Options shared by every experiment.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// log2 of the filter slot count (`θ` in the paper's notation). The
    /// paper's main experiments use 20; the quick default is 16.
    pub slots_log2: u32,
    /// Repetitions per data point (the paper averages 1000 runs; quick
    /// default 3).
    pub reps: usize,
    /// Base PRNG seed; repetition `i` uses `seed + i`.
    pub seed: u64,
    /// Directory for CSV output; `None` disables CSV.
    pub csv_dir: Option<PathBuf>,
    /// Run at the paper's full scale (overrides `slots_log2`/`reps` in
    /// experiments that define a paper-scale configuration).
    pub paper_scale: bool,
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self {
            slots_log2: 16,
            reps: 3,
            seed: 0x0001_cdc5_2021_u64,
            csv_dir: Some(PathBuf::from("results")),
            paper_scale: false,
        }
    }
}

impl ExpOptions {
    /// Effective slot-count exponent for the main single-size experiments.
    pub fn theta(&self) -> u32 {
        if self.paper_scale {
            20
        } else {
            self.slots_log2
        }
    }

    /// Effective repetition count. (`--paper` governs sizes only; pass
    /// `--reps` explicitly for the paper's 1000-run averaging.)
    pub fn repetitions(&self) -> usize {
        self.reps
    }
}
