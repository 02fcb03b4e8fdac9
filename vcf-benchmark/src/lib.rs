//! End-to-end and per-layer benchmark of the wire-served Vertical
//! Cuckoo Filter.
//!
//! Each workload runs an in-process `vcf-server` over a Unix-domain
//! socket (2 workers, 16 shards) and drives it from 2 client
//! connections with one frame in flight each. See `README.md` in this
//! crate for the workloads, the metrics and how to read them.
//!
//! * [`workload`] — the four workloads and how much work a run does;
//! * `gen` — counter-based seeded keys and frames;
//! * `hist` — the log-linear latency histogram;
//! * `engine` — the served engine and the span-recording wrapper;
//! * `run` — the end-to-end run and its correctness gate;
//! * `trace` — the traced run behind the per-layer metrics;
//! * [`report`] — result lines, `BENCHMARK.json`, and `compare`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod gen;
mod hist;
pub mod report;
mod run;
mod trace;
pub mod workload;

use std::io;
use std::path::Path;

use report::Outcome;
use workload::Plan;

/// Runs `plan` once: the end-to-end metrics, or with `traced` the
/// per-layer ones. Sockets and span files go to `out_dir`.
///
/// # Errors
///
/// Socket, transport and file failures.
pub fn run_workload(plan: &Plan, seed: u64, traced: bool, out_dir: &Path) -> io::Result<Outcome> {
    std::fs::create_dir_all(out_dir)?;
    if traced {
        trace::run(plan, seed, out_dir)
    } else {
        run::run(plan, seed, out_dir)
    }
}
