//! `vcf-benchmark` — end-to-end and per-layer benchmark of the
//! wire-served filter.
//!
//! ```text
//! vcf-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!               [--record FILE] [--out DIR]
//! vcf-benchmark trace [same options]
//! vcf-benchmark compare PARENT-RUNS CHANGE-RUNS [--bench BENCHMARK.json]
//! ```
//!
//! Without `--workload`, every workload runs in its own child process
//! and a summary follows. With it, the one workload runs in this
//! process, prints its table on stderr and its result as one JSON line
//! on stdout. `--record FILE` appends that line, tagged with workload
//! and seed, for `compare`. The exit code is 1 when a correctness check
//! failed and 2 when the run could not complete.

#![forbid(unsafe_code)]

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use vcf_benchmark::report::{self, BenchSpec, Record};
use vcf_benchmark::workload::{self, Plan, DEFAULT_SECONDS, WORKLOADS};

const USAGE: &str = "usage: vcf-benchmark [trace] [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--record FILE] [--out DIR]\n       \
                     vcf-benchmark compare PARENT-RUNS CHANGE-RUNS [--bench BENCHMARK.json]";

struct Cli {
    workload: Option<&'static workload::Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
    out: PathBuf,
}

fn parse_run(args: &[String], trace: bool) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace,
        record: None,
        out: PathBuf::from(".bench_out"),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{arg} requires a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload =
                    Some(workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--record" => cli.record = Some(PathBuf::from(value()?)),
            "--out" => cli.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// Runs one workload here; prints its table and its JSON line.
fn run_one(cli: &Cli, w: &'static workload::Workload) -> ExitCode {
    let plan = Plan::full(w, cli.seconds);
    let outcome = match vcf_benchmark::run_workload(&plan, cli.seed, cli.trace, &cli.out) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{}: run failed: {e}", w.name);
            return ExitCode::from(2);
        }
    };
    eprint!(
        "{}",
        outcome.table(&format!("{} (seed {})", w.name, cli.seed))
    );
    for c in outcome.checks.iter().filter(|c| !c.passed) {
        eprintln!("{}: check failed: {}: {}", w.name, c.name, c.detail);
    }
    if let Some(path) = &cli.record {
        let line = Record::line(w.name, cli.seed, &outcome);
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = written {
            eprintln!("cannot append to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", outcome.json_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every workload in its own child process, then a summary.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0u8;
    let mut rows: Vec<(&str, String)> = Vec::new();
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&cli.out)
            .stderr(Stdio::inherit());
        if let Some(record) = &cli.record {
            cmd.arg("--record").arg(record);
        }
        let (code, line) = match cmd.output() {
            Ok(out) => {
                let text = String::from_utf8_lossy(&out.stdout).into_owned();
                let line = text.lines().last().unwrap_or_default().to_owned();
                (out.status.code().unwrap_or(2), line)
            }
            Err(e) => {
                eprintln!("{}: cannot start: {e}", w.name);
                (2, String::new())
            }
        };
        worst = worst.max(u8::try_from(code.clamp(0, 2)).unwrap_or(2));
        rows.push((w.name, line));
    }
    println!("workload        result");
    for (name, line) in &rows {
        println!("{name:<15} {line}");
    }
    match worst {
        0 => println!("all checks passed"),
        1 => println!("FAILED: a correctness check failed (see above)"),
        _ => println!("FAILED: a run could not complete (see above)"),
    }
    ExitCode::from(worst)
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--bench" {
            bench = PathBuf::from(iter.next().ok_or("--bench requires a value")?);
        } else {
            files.push(PathBuf::from(arg));
        }
    }
    let [parent, change] = files.as_slice() else {
        return Err("compare takes exactly two record files".to_owned());
    };
    let read = |p: &PathBuf| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let spec = BenchSpec::parse(&read(&bench)?)?;
    let parent = Record::parse_all(&read(parent)?)?;
    let change = Record::parse_all(&read(change)?)?;
    let (table, worse) = report::compare(&spec, &parent, &change);
    print!("{table}");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("trace") => parse_run(&args[1..], true).map(|cli| dispatch(&cli)),
        _ => parse_run(&args, false).map(|cli| dispatch(&cli)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        ExitCode::from(2)
    })
}

fn dispatch(cli: &Cli) -> ExitCode {
    match cli.workload {
        Some(w) => run_one(cli, w),
        None => run_all(cli),
    }
}
