//! `vcf-xtask bench-check`: schema validation for the committed bench
//! baselines.
//!
//! The perf trajectory lives in two flat `"group/sub/name" → value`
//! maps: `BENCH_insert.json` holds mean ns per op, `BENCH_server.json`
//! ops/sec per sweep point. Two failure modes have bitten bench
//! baselines in other repos: a harness change silently *dropping*
//! groups (the file shrinks and nobody notices the lost coverage), and
//! a serialization bug committing zero/negative/NaN figures. This check
//! pins both: every key must live under a known group prefix, every
//! value must be a positive finite number, and the entry count must not
//! fall below the committed baseline floor. Raise the floor when benches are added.
//! Lower it only in the change that retires a bench group, and say in
//! that change which ids went and why.

use crate::json::{self, Value};
use std::fs;
use std::path::Path;

/// One bench baseline file's schema: name, allowed top-level groups,
/// and the committed entry-count floor.
pub struct BenchSchema {
    /// Workspace-relative file name.
    pub rel: &'static str,
    /// Allowed `group/` prefixes (first path segment of every key).
    pub groups: &'static [&'static str],
    /// Minimum entry count — the committed baseline. Lowered only by
    /// the change that retires a bench group.
    pub min_entries: usize,
}

/// The committed baselines and their schemas. Floors match the files:
/// 56 insert-side entries (45 until the BFS-eviction and bulk-build
/// rows were retired with the code they measured, then 39 until the
/// `insert/batch/ConcurrentVCF` pair was added, then 41 until the
/// `insert/fill*/ConcurrentVCF` legs were, then 44 until the ten
/// `sketch/*` classic-vs-vertical legs were, then 54 until the
/// `insert/router` pair was), 12 server sweep points.
pub const SCHEMAS: &[BenchSchema] = &[
    BenchSchema {
        rel: "BENCH_insert.json",
        groups: &["insert", "churn", "tiered", "sketch"],
        min_entries: 56,
    },
    BenchSchema {
        rel: "BENCH_server.json",
        groups: &["server"],
        min_entries: 12,
    },
];

/// Validates one bench document against its schema. Returns
/// human-readable problem strings (empty ⇒ valid).
pub fn check_doc(schema: &BenchSchema, text: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let doc = match json::parse(text) {
        Ok(v) => v,
        Err(e) => {
            problems.push(format!("{}: not valid JSON: {e}", schema.rel));
            return problems;
        }
    };
    let Value::Obj(pairs) = &doc else {
        problems.push(format!("{}: top level must be an object", schema.rel));
        return problems;
    };
    for (key, value) in pairs {
        let group = key.split('/').next().unwrap_or_default();
        if !schema.groups.contains(&group) {
            problems.push(format!(
                "{}: key `{key}` has unknown group `{group}` (expected one of {})",
                schema.rel,
                schema.groups.join(", ")
            ));
        }
        if key.split('/').count() < 2 {
            problems.push(format!(
                "{}: key `{key}` is not of the form `group/…/name`",
                schema.rel
            ));
        }
        match value {
            Value::Num(x) if x.is_finite() && *x > 0.0 => {}
            Value::Num(x) => problems.push(format!(
                "{}: `{key}` = {x} is not a positive finite value",
                schema.rel
            )),
            _ => problems.push(format!("{}: `{key}` must be a number", schema.rel)),
        }
    }
    if pairs.len() < schema.min_entries {
        problems.push(format!(
            "{}: {} entries, below the committed baseline of {} \u{2014} bench coverage \
             regressed (lower the floor in bench_check.rs only in the change that \
             retires a group, and say there which ids went and why)",
            schema.rel,
            pairs.len(),
            schema.min_entries
        ));
    }
    problems
}

/// Runs the check over every committed baseline under `root`. A missing
/// file is a failure — the baselines are part of the repo contract.
pub fn run(root: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    for schema in SCHEMAS {
        match fs::read_to_string(root.join(schema.rel)) {
            Ok(text) => problems.extend(check_doc(schema, &text)),
            Err(e) => problems.push(format!("{}: unreadable: {e}", schema.rel)),
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_schema() -> BenchSchema {
        BenchSchema {
            rel: "BENCH_test.json",
            groups: &["insert"],
            min_entries: 2,
        }
    }

    #[test]
    fn valid_doc_passes() {
        let doc = r#"{"insert/a/b": 12.5, "insert/c": 3.0}"#;
        assert!(check_doc(&tiny_schema(), doc).is_empty());
    }

    #[test]
    fn unknown_group_flagged() {
        let doc = r#"{"insert/a": 1.0, "mystery/b": 2.0}"#;
        let problems = check_doc(&tiny_schema(), doc);
        assert!(problems
            .iter()
            .any(|p| p.contains("unknown group `mystery`")));
    }

    #[test]
    fn non_positive_values_flagged() {
        let doc = r#"{"insert/a": 0, "insert/b": -4.0}"#;
        let problems = check_doc(&tiny_schema(), doc);
        assert_eq!(
            problems
                .iter()
                .filter(|p| p.contains("positive finite"))
                .count(),
            2
        );
    }

    #[test]
    fn entry_count_below_floor_flagged() {
        let doc = r#"{"insert/a": 1.0}"#;
        let problems = check_doc(&tiny_schema(), doc);
        assert!(problems
            .iter()
            .any(|p| p.contains("below the committed baseline")));
    }

    #[test]
    fn malformed_json_reported_not_panicking() {
        let problems = check_doc(&tiny_schema(), "{nope");
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("not valid JSON"));
    }

    #[test]
    fn flat_key_without_group_path_flagged() {
        let doc = r#"{"insert": 1.0, "insert/x": 2.0}"#;
        let problems = check_doc(&tiny_schema(), doc);
        assert!(problems.iter().any(|p| p.contains("not of the form")));
    }

    #[test]
    fn committed_baselines_validate() {
        // The real repo files must satisfy their own schemas; run from
        // the workspace root when available.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .to_path_buf();
        if root.join("BENCH_insert.json").is_file() {
            let problems = run(&root);
            assert!(problems.is_empty(), "{problems:?}");
        }
    }
}
