//! Fixture-based rule tests: for every rule, one snippet that must fail
//! and one that must pass, plus JSON round-tripping of the report.
//!
//! The snippets live under `tests/fixtures/` — a directory the
//! workspace walker skips, so the deliberately-violating code never
//! reaches a real lint run. Each test mounts a snippet at a relative
//! path inside the rule's scope.

use vcf_xtask::diag::{report_json, Diagnostic};
use vcf_xtask::json;
use vcf_xtask::source::SourceFile;
use vcf_xtask::LintContext;

fn run_rule(rel: &str, src: &str, rule: &str) -> Vec<Diagnostic> {
    let ctx = LintContext::from_memory(vec![SourceFile::new(rel, src)]);
    ctx.run(Some(rule)).expect("rule id must be known")
}

fn assert_fails(rel: &str, src: &str, rule: &'static str) -> Vec<Diagnostic> {
    let diags = run_rule(rel, src, rule);
    assert!(
        !diags.is_empty(),
        "expected `{rule}` to fire on fixture mounted at {rel}"
    );
    assert!(diags.iter().all(|d| d.rule == rule));
    diags
}

fn assert_passes(rel: &str, src: &str, rule: &str) {
    let diags = run_rule(rel, src, rule);
    assert!(
        diags.is_empty(),
        "expected `{rule}` to stay quiet on fixture mounted at {rel}, got:\n{}",
        diags
            .iter()
            .map(Diagnostic::render_text)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn safety_comment_fixtures() {
    let diags = assert_fails(
        "crates/demo/src/raw.rs",
        include_str!("fixtures/safety_fail.rs"),
        "safety-comment",
    );
    assert_eq!(diags.len(), 1, "exactly the one unjustified block");
    assert_passes(
        "crates/demo/src/raw.rs",
        include_str!("fixtures/safety_pass.rs"),
        "safety-comment",
    );
}

#[test]
fn atomic_ordering_fixtures() {
    // Outside the whitelist the store's ordering argument fires…
    assert_fails(
        "crates/demo/src/worker.rs",
        include_str!("fixtures/atomic_fail.rs"),
        "atomic-ordering",
    );
    // …the same code inside a whitelisted module is fine…
    assert_passes(
        "crates/traits/src/counters.rs",
        include_str!("fixtures/atomic_fail.rs"),
        "atomic-ordering",
    );
    // …and cmp::Ordering never counts, wherever it appears.
    assert_passes(
        "crates/demo/src/worker.rs",
        include_str!("fixtures/atomic_pass.rs"),
        "atomic-ordering",
    );
}

#[test]
fn seqlock_protocol_fixtures() {
    let diags = assert_fails(
        "crates/core/src/concurrent.rs",
        include_str!("fixtures/seqlock_fail.rs"),
        "seqlock-protocol",
    );
    // One unsound Relaxed load + one unvalidated optimistic begin.
    assert_eq!(diags.len(), 2, "got:\n{diags:#?}");
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("neither a CAS pre-read")),
        "got:\n{diags:#?}"
    );
    assert!(
        diags.iter().any(|d| d.message.contains("never validated")),
        "got:\n{diags:#?}"
    );
    // Both sound shapes — CAS pre-read and the completed Boehm read —
    // pass structurally, with no waiver anywhere.
    assert_passes(
        "crates/core/src/concurrent.rs",
        include_str!("fixtures/seqlock_pass.rs"),
        "seqlock-protocol",
    );
    // Outside the seqlock modules the protocol rule is out of scope.
    assert_passes(
        "crates/demo/src/worker.rs",
        include_str!("fixtures/seqlock_fail.rs"),
        "seqlock-protocol",
    );
}

#[test]
fn panic_reachability_fixtures() {
    // The hot root is panic-free; the sinks sit two calls deep, so only
    // transitive propagation over the call graph can find them.
    let diags = assert_fails(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/panic_reach_fail.rs"),
        "panic-reachability",
    );
    // unwrap + release assert + dynamic index = three distinct findings.
    assert_eq!(diags.len(), 3, "got:\n{diags:#?}");
    for d in &diags {
        assert!(
            d.message.contains("reached via")
                && d.message.contains("stage_one")
                && d.message.contains("stage_two"),
            "finding must carry the full call chain, got: {}",
            d.message
        );
    }
    assert_passes(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/panic_reach_pass.rs"),
        "panic-reachability",
    );
    // Without the marker nothing is hot and nothing fires — the rule is
    // annotation-driven, not path-driven like v1.
    let unmarked = include_str!("fixtures/panic_reach_fail.rs").replace("// lint: hot-path", "");
    assert_passes("crates/demo/src/lib.rs", &unmarked, "panic-reachability");
    // A marker that binds to no fn is itself a finding.
    let diags = assert_fails(
        "crates/demo/src/lib.rs",
        "// lint: hot-path\npub struct NotAFn;\n",
        "panic-reachability",
    );
    assert!(diags[0].message.contains("dangling"), "got:\n{diags:#?}");
}

#[test]
fn format_exhaustiveness_fixtures() {
    let diags = assert_fails(
        "crates/demo/src/wire.rs",
        include_str!("fixtures/wire_fail.rs"),
        "format-exhaustiveness",
    );
    // `_` arm + two unmatched variants + unchecked `magic` + `let _ =`.
    assert_eq!(diags.len(), 5, "got:\n{diags:#?}");
    assert!(
        diags.iter().any(|d| d.message.contains("`_` arm")),
        "got:\n{diags:#?}"
    );
    for variant in ["`OpCode::Lookup`", "`OpCode::Delete`"] {
        assert!(
            diags.iter().any(|d| d.message.contains(variant)),
            "expected an unmatched-variant finding for {variant}, got:\n{diags:#?}"
        );
    }
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("`magic` is read but never used")),
        "got:\n{diags:#?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("discarded with `let _ =`")),
        "got:\n{diags:#?}"
    );
    assert_passes(
        "crates/demo/src/wire.rs",
        include_str!("fixtures/wire_pass.rs"),
        "format-exhaustiveness",
    );
    // A marker that binds to no item is itself a finding.
    let diags = assert_fails(
        "crates/demo/src/wire.rs",
        "// lint: wire-format\npub const X: u32 = 0;\n",
        "format-exhaustiveness",
    );
    assert!(diags[0].message.contains("dangling"), "got:\n{diags:#?}");
}

#[test]
fn server_atomics_confinement_fixtures() {
    // Atomics belong in the server's metrics module only…
    assert_passes(
        "crates/server/src/metrics.rs",
        include_str!("fixtures/atomic_fail.rs"),
        "atomic-ordering",
    );
    // …hand-rolled orderings anywhere else in the crate still fire.
    assert_fails(
        "crates/server/src/server.rs",
        include_str!("fixtures/atomic_fail.rs"),
        "atomic-ordering",
    );
    assert_fails(
        "crates/server/src/executor.rs",
        include_str!("fixtures/atomic_fail.rs"),
        "atomic-ordering",
    );
}

#[test]
fn theorem1_confinement_fixtures() {
    assert_fails(
        "crates/core/src/dvcf.rs",
        include_str!("fixtures/theorem1_fail.rs"),
        "theorem1-confinement",
    );
    // The same arithmetic is legal inside the Theorem-1 modules…
    assert_passes(
        "crates/core/src/vertical.rs",
        include_str!("fixtures/theorem1_fail.rs"),
        "theorem1-confinement",
    );
    // …and seed whitening outside them doesn't look like candidates.
    assert_passes(
        "crates/core/src/dvcf.rs",
        include_str!("fixtures/theorem1_pass.rs"),
        "theorem1-confinement",
    );
}

#[test]
fn missing_docs_public_fixtures() {
    let diags = assert_fails(
        "crates/core/src/options.rs",
        include_str!("fixtures/docs_fail.rs"),
        "missing-docs-public",
    );
    // fn + struct + field, all undocumented.
    assert_eq!(diags.len(), 3, "got:\n{diags:#?}");
    assert_passes(
        "crates/core/src/options.rs",
        include_str!("fixtures/docs_pass.rs"),
        "missing-docs-public",
    );
    // Crates outside the API list are not held to the doc standard.
    assert_passes(
        "crates/harness/src/options.rs",
        include_str!("fixtures/docs_fail.rs"),
        "missing-docs-public",
    );
}

#[test]
fn crate_unsafe_attr_fixtures() {
    assert_fails(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/crate_attrs_fail.rs"),
        "crate-unsafe-attr",
    );
    assert_passes(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/crate_attrs_pass.rs"),
        "crate-unsafe-attr",
    );
    // Non-root modules carry no crate attributes and are out of scope.
    assert_passes(
        "crates/demo/src/inner.rs",
        include_str!("fixtures/crate_attrs_fail.rs"),
        "crate-unsafe-attr",
    );
}

#[test]
fn tsan_suppressions_fixtures() {
    let source = SourceFile::new(
        "crates/demo/src/lib.rs",
        "pub fn existing_symbol_for_fixture() {}\n",
    );
    let mut ctx = LintContext::from_memory(vec![source]);
    ctx.suppressions = Some((
        ".github/tsan-suppressions.txt".to_owned(),
        include_str!("fixtures/tsan_fail.txt").to_owned(),
    ));
    let diags = ctx.run(Some("tsan-suppressions")).unwrap();
    // Stale symbol + unknown kind + missing colon.
    assert_eq!(diags.len(), 3, "got:\n{diags:#?}");

    let source = SourceFile::new(
        "crates/demo/src/lib.rs",
        "pub fn existing_symbol_for_fixture() {}\n",
    );
    let mut ctx = LintContext::from_memory(vec![source]);
    ctx.suppressions = Some((
        ".github/tsan-suppressions.txt".to_owned(),
        include_str!("fixtures/tsan_pass.txt").to_owned(),
    ));
    assert!(ctx.run(Some("tsan-suppressions")).unwrap().is_empty());
}

#[test]
fn waiver_fixtures() {
    // Full runs surface malformed and stale waivers.
    let ctx = LintContext::from_memory(vec![SourceFile::new(
        "crates/demo/src/waivers.rs",
        include_str!("fixtures/waiver_fail.rs"),
    )]);
    let diags = ctx.run(None).unwrap();
    let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
    assert_eq!(rules, ["lint-waiver", "stale-waiver"], "got:\n{diags:#?}");

    // A used waiver is neither a violation nor stale…
    let ctx = LintContext::from_memory(vec![SourceFile::new(
        "crates/demo/src/waived.rs",
        include_str!("fixtures/waiver_pass.rs"),
    )]);
    let diags = ctx.run(None).unwrap();
    assert!(
        diags
            .iter()
            .all(|d| d.rule != "stale-waiver" && d.rule != "lint-waiver"),
        "got:\n{diags:#?}"
    );
    // …and the waived finding itself is suppressed.
    assert!(
        diags.iter().all(|d| d.rule != "panic-reachability"),
        "got:\n{diags:#?}"
    );
}

#[test]
fn json_report_round_trips() {
    let diags = assert_fails(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/panic_reach_fail.rs"),
        "panic-reachability",
    );
    let rendered = report_json(&diags, 1, &["panic-reachability"]);
    let value = json::parse(&rendered).expect("report must be valid JSON");
    assert_eq!(
        value.get("checked_files").and_then(json::Value::as_num),
        Some(1.0)
    );
    let parsed = value
        .get("diagnostics")
        .and_then(json::Value::as_arr)
        .expect("diagnostics array");
    assert_eq!(parsed.len(), diags.len());
    for (obj, diag) in parsed.iter().zip(&diags) {
        assert_eq!(
            obj.get("rule").and_then(json::Value::as_str),
            Some(diag.rule)
        );
        assert_eq!(
            obj.get("file").and_then(json::Value::as_str),
            Some(diag.file.as_str())
        );
        assert_eq!(
            obj.get("line").and_then(json::Value::as_num),
            Some(f64::from(diag.line))
        );
        assert_eq!(
            obj.get("message").and_then(json::Value::as_str),
            Some(diag.message.as_str())
        );
    }
}

#[test]
fn unknown_rule_filter_is_an_error() {
    let ctx = LintContext::from_memory(vec![]);
    assert!(ctx.run(Some("no-such-rule")).is_err());
}

#[test]
fn loc_skips_cfg_test_module() {
    let file = SourceFile::new(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/loc_cfg_test.rs"),
    );
    assert_eq!(vcf_xtask::loc::non_test_lines(&file), 6);
}
