//! Offline drop-in shim for the `criterion` crate.
//!
//! The build container cannot reach crates.io, so this crate implements
//! the benchmark-harness surface the workspace's benches use:
//! [`Criterion`], [`BenchmarkGroup`], [`Bencher::iter`],
//! [`Bencher::iter_batched`], [`Throughput::Elements`],
//! [`BenchmarkId::from_parameter`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros.
//!
//! Measurement is real: each benchmark is warmed up, then timed over
//! `sample_size` samples with enough iterations per sample to amortize
//! clock overhead. The median ns/iter (and derived element throughput,
//! when set) is printed in a criterion-like one-line format. There are
//! no statistical reports, baselines, or plots.
//!
//! As in criterion, the first command-line argument that is not a flag
//! is a substring filter: `cargo bench --bench insert_throughput --
//! insert/router` runs only the benchmarks whose `group/id` contains
//! `insert/router`, and skips the rest without running their closures.
//! Flags take no value here.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Target wall-clock time per recorded sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(5);
/// Warm-up budget before sampling starts.
const WARMUP_TARGET: Duration = Duration::from_millis(50);

/// The process's benchmark filter, set once by [`criterion_main!`].
static FILTER: OnceLock<Option<String>> = OnceLock::new();

/// The first argument that is not a flag, if any.
fn filter_from(mut args: impl Iterator<Item = String>) -> Option<String> {
    args.find(|arg| !arg.starts_with('-'))
}

/// Whether the benchmark `name` (`group/id`) passes `filter`.
fn selected(filter: Option<&str>, name: &str) -> bool {
    filter.is_none_or(|filter| name.contains(filter))
}

/// Reads the benchmark filter from the command line; [`criterion_main!`]
/// calls it before running any group.
#[doc(hidden)]
pub fn init_filter_from_args() {
    FILTER.get_or_init(|| filter_from(std::env::args().skip(1)));
}

/// How measured quantities relate to throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Each iteration processes this many logical elements.
    Elements(u64),
    /// Each iteration processes this many bytes.
    Bytes(u64),
}

/// Per-iteration batching policy for [`Bencher::iter_batched`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Setup output is large: one setup per timed call.
    LargeInput,
    /// Setup output is small; the shim still runs one setup per call.
    SmallInput,
    /// Explicit batch size; the shim still runs one setup per call.
    NumIterations(u64),
}

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Builds an id from a single parameter, e.g. a label or a size.
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }

    /// Builds a `function_name/parameter` id.
    pub fn new<S: Into<String>, P: Display>(function_name: S, parameter: P) -> Self {
        Self {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(id: &str) -> Self {
        Self { id: id.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        Self { id }
    }
}

/// Collects timing samples for one benchmark run.
pub struct Bencher {
    sample_size: usize,
    /// Mean ns/iter for each recorded sample.
    samples: Vec<f64>,
}

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Self {
            sample_size,
            samples: Vec::with_capacity(sample_size),
        }
    }

    /// Times `routine` directly, back to back.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm up and estimate cost per call.
        let mut iters_per_sample = 1u64;
        let warm_start = Instant::now();
        let mut calls = 0u64;
        while warm_start.elapsed() < WARMUP_TARGET && calls < 1_000_000 {
            std::hint::black_box(routine());
            calls += 1;
        }
        let per_call = warm_start.elapsed().as_nanos() as f64 / calls.max(1) as f64;
        if per_call > 0.0 {
            iters_per_sample =
                ((SAMPLE_TARGET.as_nanos() as f64 / per_call) as u64).clamp(1, 1 << 24);
        }

        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                std::hint::black_box(routine());
            }
            let elapsed = start.elapsed().as_nanos() as f64;
            self.samples.push(elapsed / iters_per_sample as f64);
        }
    }

    /// Times `routine` on fresh inputs from `setup`; setup time is
    /// excluded from the recorded samples.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // Warm up once so lazy initialization is outside timing.
        {
            let input = setup();
            std::hint::black_box(routine(input));
        }
        for _ in 0..self.sample_size {
            let input = setup();
            let start = Instant::now();
            let output = routine(input);
            let elapsed = start.elapsed().as_nanos() as f64;
            std::hint::black_box(output);
            self.samples.push(elapsed);
        }
    }

    /// Like [`Bencher::iter_batched`] but the routine takes `&mut I`.
    pub fn iter_batched_ref<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(&mut I) -> O,
    {
        {
            let mut input = setup();
            std::hint::black_box(routine(&mut input));
        }
        for _ in 0..self.sample_size {
            let mut input = setup();
            let start = Instant::now();
            let output = routine(&mut input);
            let elapsed = start.elapsed().as_nanos() as f64;
            std::hint::black_box(output);
            self.samples.push(elapsed);
        }
    }

    fn median_ns(&mut self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .sort_by(|a, b| a.partial_cmp(b).expect("sample times are finite"));
        self.samples[self.samples.len() / 2]
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declares the per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Overrides the group's sample count.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.criterion.sample_size = n.max(2);
        self
    }

    /// Runs and reports one benchmark, unless the filter skips it.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        let id = id.into();
        if !self.criterion.selects(&format!("{}/{}", self.name, id.id)) {
            return self;
        }
        let mut bencher = Bencher::new(self.criterion.sample_size);
        f(&mut bencher);
        let ns = bencher.median_ns();
        let mut line = format!("{}/{:<24} time: [{}]", self.name, id.id, fmt_ns(ns));
        if let Some(tp) = self.throughput {
            let (count, unit) = match tp {
                Throughput::Elements(n) => (n, "elem/s"),
                Throughput::Bytes(n) => (n, "B/s"),
            };
            if ns > 0.0 {
                use std::fmt::Write as _;
                let rate = count as f64 * 1e9 / ns;
                let _ = write!(line, " thrpt: [{} {unit}]", fmt_rate(rate));
            }
        }
        println!("{line}");
        self
    }

    /// Ends the group (reporting already happened per benchmark).
    pub fn finish(self) {}
}

/// The benchmark harness entry point.
pub struct Criterion {
    sample_size: usize,
    /// Substring a benchmark's name must contain to run.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_size: 20,
            filter: FILTER.get().cloned().flatten(),
        }
    }
}

impl Criterion {
    /// Sets how many samples each benchmark records.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    fn selects(&self, name: &str) -> bool {
        selected(self.filter.as_deref(), name)
    }

    /// Runs a single ungrouped benchmark, unless the filter skips it.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        let id = id.into();
        if !self.selects(&id.id) {
            return self;
        }
        let mut bencher = Bencher::new(self.sample_size);
        f(&mut bencher);
        let ns = bencher.median_ns();
        println!("{:<32} time: [{}]", id.id, fmt_ns(ns));
        self
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.4} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.4} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.4} µs", ns / 1e3)
    } else {
        format!("{ns:.4} ns")
    }
}

fn fmt_rate(rate: f64) -> String {
    if rate >= 1e9 {
        format!("{:.4} G", rate / 1e9)
    } else if rate >= 1e6 {
        format!("{:.4} M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.4} K", rate / 1e3)
    } else {
        format!("{rate:.4}")
    }
}

/// Opaque value barrier, re-exported for criterion API compatibility.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declares a benchmark group runner function, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = <$crate::Criterion as ::std::default::Default>::default();
            targets = $($target),+
        }
    };
}

/// Declares `main` running the listed benchmark groups, filtered by the
/// first non-flag command-line argument.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $crate::init_filter_from_args();
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_records_samples() {
        let mut b = Bencher::new(4);
        let mut acc = 0u64;
        b.iter(|| {
            acc = acc.wrapping_add(1);
            acc
        });
        assert_eq!(b.samples.len(), 4);
        assert!(b.median_ns() >= 0.0);
    }

    #[test]
    fn iter_batched_runs_setup_per_sample() {
        let mut b = Bencher::new(3);
        let mut setups = 0usize;
        b.iter_batched(
            || {
                setups += 1;
                vec![0u8; 64]
            },
            |v| v.len(),
            BatchSize::LargeInput,
        );
        // One warm-up setup plus one per sample.
        assert_eq!(setups, 4);
        assert_eq!(b.samples.len(), 3);
    }

    #[test]
    fn group_runs_benchmarks() {
        let mut c = Criterion::default().sample_size(2);
        let mut g = c.benchmark_group("shim/self_test");
        g.throughput(Throughput::Elements(10));
        g.bench_function(BenchmarkId::from_parameter("noop"), |b| {
            b.iter(|| std::hint::black_box(1 + 1));
        });
        g.bench_function("plain_str_id", |b| {
            b.iter(|| std::hint::black_box(2 + 2));
        });
        g.finish();
    }

    #[test]
    fn filter_is_the_first_non_flag_argument() {
        let args = |list: &[&str]| list.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>();
        assert_eq!(filter_from(args(&["--bench"]).into_iter()), None);
        assert_eq!(
            filter_from(args(&["--bench", "insert/router", "x"]).into_iter()),
            Some("insert/router".to_owned())
        );
        assert_eq!(
            filter_from(args(&["fill95", "--bench"]).into_iter()),
            Some("fill95".to_owned())
        );
    }

    #[test]
    fn filter_matches_a_substring_of_group_and_id() {
        let name = "insert/router/ShardedConcurrentVCF[16]_shard_loop";
        assert!(selected(None, name));
        assert!(selected(Some("insert/router"), name));
        assert!(selected(Some("VCF[16]_shard"), name));
        assert!(selected(Some(name), name));
        assert!(!selected(Some("insert/fill95"), name));
        assert!(!selected(Some("Insert/router"), name), "case-sensitive");
    }

    #[test]
    fn filtered_out_benchmarks_never_run() {
        let mut c = Criterion {
            sample_size: 2,
            filter: Some("keep".to_owned()),
        };
        let (mut kept, mut skipped) = (false, false);
        let mut g = c.benchmark_group("shim");
        g.bench_function("keep_me", |b| {
            kept = true;
            b.iter(|| 1);
        });
        g.bench_function("drop_me", |_| skipped = true);
        g.finish();
        c.bench_function("shim/drop_me_too", |_| skipped = true);
        c.bench_function("keep/ungrouped", |b| b.iter(|| 2));
        assert!(kept);
        assert!(!skipped, "a filtered-out closure ran");
    }

    #[test]
    fn macros_compile() {
        fn target(c: &mut Criterion) {
            c.bench_function("macro_target", |b| b.iter(|| black_box(3)));
        }
        criterion_group! {
            name = benches;
            config = Criterion::default().sample_size(2);
            targets = target
        }
        benches();
    }
}
