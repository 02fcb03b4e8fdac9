//! End-to-end tests for the `vcf-xtask` binary: exit codes, text and
//! JSON output, argument validation. Synthetic one-crate workspaces are
//! materialised under the Cargo-provided tmpdir.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use vcf_xtask::json;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vcf-xtask"))
}

/// Build a minimal workspace: a root `Cargo.toml`, a `crates/` marker,
/// and one library crate whose root is `lib_src`.
fn make_workspace(name: &str, lib_src: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        fs::remove_dir_all(&root).unwrap();
    }
    let src = root.join("crates/demo/src");
    fs::create_dir_all(&src).unwrap();
    fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
    fs::write(src.join("lib.rs"), lib_src).unwrap();
    root
}

fn lint(root: &Path, extra: &[&str]) -> Output {
    bin()
        .arg("lint")
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("binary runs")
}

const CLEAN_LIB: &str = "#![forbid(unsafe_code)]\npub fn f() {}\n";
const DIRTY_LIB: &str = "#![deny(unsafe_code)]\npub fn f() {}\n";

#[test]
fn clean_workspace_exits_zero() {
    let root = make_workspace("cli-clean", CLEAN_LIB);
    let out = lint(&root, &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("lint clean"), "stdout: {stdout}");
}

#[test]
fn violating_workspace_exits_one_with_diagnostics() {
    let root = make_workspace("cli-dirty", DIRTY_LIB);
    let out = lint(&root, &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("[crate-unsafe-attr]") && stdout.contains("lib.rs:"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("hint:"), "stdout: {stdout}");
}

#[test]
fn json_mode_emits_parseable_report() {
    let root = make_workspace("cli-json", DIRTY_LIB);
    let out = lint(&root, &["--json"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let value = json::parse(&stdout).expect("stdout must be one JSON object");
    let diags = value
        .get("diagnostics")
        .and_then(json::Value::as_arr)
        .expect("diagnostics array");
    assert_eq!(diags.len(), 1);
    assert_eq!(
        diags[0].get("rule").and_then(json::Value::as_str),
        Some("crate-unsafe-attr")
    );

    // Clean workspaces still produce a report, just an empty one.
    let root = make_workspace("cli-json-clean", CLEAN_LIB);
    let out = lint(&root, &["--json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let value = json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(
        value
            .get("diagnostics")
            .and_then(json::Value::as_arr)
            .map(<[_]>::len),
        Some(0)
    );
}

#[test]
fn rule_filter_restricts_the_run() {
    let root = make_workspace("cli-filter", DIRTY_LIB);
    // Filtered to an unrelated rule, the attr violation is not reported.
    let out = lint(&root, &["--rule", "safety-comment"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = lint(&root, &["--rule", "crate-unsafe-attr"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

#[test]
fn usage_errors_exit_two() {
    let root = make_workspace("cli-usage", CLEAN_LIB);
    // Unknown rule id.
    let out = lint(&root, &["--rule", "no-such-rule"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // No subcommand.
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // Unknown subcommand.
    let out = bin().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // Nonexistent root.
    let out = lint(&root.join("does-not-exist"), &[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn sarif_format_emits_a_valid_log() {
    let root = make_workspace("cli-sarif", DIRTY_LIB);
    let out = lint(&root, &["--format", "sarif"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let value = json::parse(&stdout).expect("stdout must be a SARIF log");
    assert_eq!(
        value.get("version").and_then(json::Value::as_str),
        Some("2.1.0")
    );
    let runs = value.get("runs").and_then(json::Value::as_arr).unwrap();
    let results = runs[0]
        .get("results")
        .and_then(json::Value::as_arr)
        .unwrap();
    assert_eq!(results.len(), 1);
    assert_eq!(
        results[0].get("ruleId").and_then(json::Value::as_str),
        Some("crate-unsafe-attr")
    );

    // A clean run is still a structurally complete log (exit 0, empty results).
    let root = make_workspace("cli-sarif-clean", CLEAN_LIB);
    let out = lint(&root, &["--format", "sarif"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let value = json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let runs = value.get("runs").and_then(json::Value::as_arr).unwrap();
    assert_eq!(
        runs[0]
            .get("results")
            .and_then(json::Value::as_arr)
            .map(<[_]>::len),
        Some(0)
    );
}

#[test]
fn bench_check_validates_baselines() {
    // Baselines missing entirely: every schema reports a problem.
    let root = make_workspace("cli-bench-missing", CLEAN_LIB);
    let out = bin()
        .args(["bench-check", "--root"])
        .arg(&root)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("BENCH_insert.json"), "stdout: {stdout}");
    assert!(stdout.contains("BENCH_server.json"), "stdout: {stdout}");

    // A malformed value is pinpointed by key.
    let root = make_workspace("cli-bench-bad", CLEAN_LIB);
    fs::write(root.join("BENCH_insert.json"), r#"{"insert/x": -1.0}"#).unwrap();
    fs::write(root.join("BENCH_server.json"), r#"{"server/x": 1.0}"#).unwrap();
    let out = bin()
        .args(["bench-check", "--root"])
        .arg(&root)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("`insert/x` = -1 is not a positive finite"),
        "stdout: {stdout}"
    );
}

#[test]
fn rules_subcommand_lists_every_rule() {
    let out = bin().arg("rules").output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    for rule in [
        "safety-comment",
        "atomic-ordering",
        "seqlock-protocol",
        "panic-reachability",
        "format-exhaustiveness",
        "theorem1-confinement",
        "missing-docs-public",
        "crate-unsafe-attr",
        "tsan-suppressions",
    ] {
        assert!(stdout.contains(rule), "missing {rule} in: {stdout}");
    }
}

#[test]
fn loc_prints_per_crate_and_total_non_test_lines() {
    let root = make_workspace(
        "cli-loc",
        "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n",
    );
    let out = bin().arg("loc").arg("--root").arg(&root).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("      1  demo\n"), "stdout: {stdout}");
    assert!(stdout.contains("      1  total"), "stdout: {stdout}");
}
