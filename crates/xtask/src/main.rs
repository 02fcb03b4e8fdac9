//! CLI for the workspace invariant linter.
//!
//! ```text
//! vcf-xtask lint [--format text|json|sarif] [--root PATH] [--rule ID]
//! vcf-xtask rules
//! vcf-xtask bench-check [--root PATH]
//! vcf-xtask loc [--root PATH] [--files]
//! ```
//!
//! `--json` is kept as an alias for `--format json`. Exit codes: 0
//! clean, 1 violations found, 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use vcf_xtask::{bench_check, diag, loc, rules, sarif, LintContext};

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("rules") => {
            list_rules();
            0
        }
        Some("bench-check") => bench_check_cmd(&args[1..]),
        Some("loc") => loc_cmd(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    }
}

const USAGE: &str =
    "usage: vcf-xtask lint [--format text|json|sarif] [--root PATH] [--rule ID]\n       \
     vcf-xtask rules\n       vcf-xtask bench-check [--root PATH]\n       \
     vcf-xtask loc [--root PATH] [--files]";

/// Output formats for `lint`.
enum Format {
    Text,
    Json,
    Sarif,
}

fn lint(args: &[String]) -> i32 {
    let mut format = Format::Text;
    let mut root: Option<PathBuf> = None;
    let mut rule: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => format = Format::Json,
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                Some(other) => {
                    return usage_error(&format!("unknown format `{other}` (text, json, or sarif)"))
                }
                None => return usage_error("--format needs a value (text, json, or sarif)"),
            },
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage_error("--root needs a path"),
            },
            "--rule" => match it.next() {
                Some(r) => rule = Some(r.clone()),
                None => return usage_error("--rule needs a rule id"),
            },
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }
    let Some(root) = root.or_else(find_workspace_root) else {
        eprintln!("error: not inside a workspace (no Cargo.toml + crates/ found); use --root");
        return 2;
    };
    let ctx = match LintContext::load(&root) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("error: failed to load workspace at {}: {e}", root.display());
            return 2;
        }
    };
    let diags = match ctx.run(rule.as_deref()) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let rule_ids: Vec<&str> = rules::all_rules().iter().map(|r| r.id()).collect();
    match format {
        Format::Json => print!("{}", diag::report_json(&diags, ctx.files.len(), &rule_ids)),
        Format::Sarif => print!("{}", sarif::report(&diags)),
        Format::Text if diags.is_empty() => {
            println!(
                "lint clean: {} files checked against {} rules",
                ctx.files.len(),
                rule_ids.len()
            );
        }
        Format::Text => {
            for d in &diags {
                println!("{}", d.render_text());
            }
            println!(
                "\n{} violation(s) across {} files",
                diags.len(),
                ctx.files.len()
            );
        }
    }
    i32::from(!diags.is_empty())
}

fn bench_check_cmd(args: &[String]) -> i32 {
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage_error("--root needs a path"),
            },
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }
    let Some(root) = root.or_else(find_workspace_root) else {
        eprintln!("error: not inside a workspace (no Cargo.toml + crates/ found); use --root");
        return 2;
    };
    let problems = bench_check::run(&root);
    if problems.is_empty() {
        println!(
            "bench-check clean: {} baseline file(s) validated",
            bench_check::SCHEMAS.len()
        );
        0
    } else {
        for p in &problems {
            println!("{p}");
        }
        println!("\n{} problem(s)", problems.len());
        1
    }
}

/// Prints non-test lines per crate under `crates/*/src` (and per file
/// with `--files`), then the total.
fn loc_cmd(args: &[String]) -> i32 {
    let mut root: Option<PathBuf> = None;
    let mut files = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage_error("--root needs a path"),
            },
            "--files" => files = true,
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }
    let Some(root) = root.or_else(find_workspace_root) else {
        eprintln!("error: not inside a workspace (no Cargo.toml + crates/ found); use --root");
        return 2;
    };
    let per_file = match loc::per_file(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!(
                "error: failed to read sources under {}: {e}",
                root.display()
            );
            return 2;
        }
    };
    if files {
        for (rel, lines) in &per_file {
            println!("{lines:>7}  {rel}");
        }
        println!();
    }
    for (name, lines) in loc::per_crate(&per_file) {
        println!("{lines:>7}  {name}");
    }
    let total: usize = per_file.iter().map(|(_, lines)| lines).sum();
    println!("{total:>7}  total (non-test lines under crates/*/src)");
    0
}

fn usage_error(msg: &str) -> i32 {
    eprintln!("error: {msg}\n{USAGE}");
    2
}

fn list_rules() {
    for rule in rules::all_rules() {
        println!("{:<22} {}", rule.id(), rule.summary());
    }
    println!(
        "{:<22} waivers must be well-formed with a reason",
        "lint-waiver"
    );
    println!(
        "{:<22} waivers must still suppress something",
        "stale-waiver"
    );
}

/// Ascends from the current directory to the first dir holding both a
/// `Cargo.toml` and a `crates/` directory.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
