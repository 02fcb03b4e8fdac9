//! The documentation and unsafe-code policy is enforced by compiler
//! lints set in the root `[workspace.lints]`, not by `vcf-xtask` rules.
//! These tests keep that policy honest: the levels, read from the root
//! manifest, must make `rustc -D warnings` (as CI runs it) reject the
//! failing fixtures, and every manifest must inherit them. CI's clippy
//! job does the same for `undocumented_unsafe_blocks` on
//! `fixtures/safety_fail.rs`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The `name = "level"` entries of one `[section]` of a manifest.
fn section_entries(manifest: &str, section: &str) -> Vec<(String, String)> {
    let header = format!("[{section}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, value) = l.split_once('=').expect("`name = value` entry");
            (
                name.trim().to_owned(),
                value.trim().trim_matches('"').to_owned(),
            )
        })
        .collect()
}

/// Compiles `fixture` as a library crate with the workspace's rustc lint
/// levels plus `-D warnings`; returns (accepted, stderr).
fn rustc_with_workspace_levels(fixture: &str) -> (bool, String) {
    let manifest = fs::read_to_string(workspace_root().join("Cargo.toml")).unwrap();
    let levels = section_entries(&manifest, "workspace.lints.rust");
    assert!(!levels.is_empty(), "no [workspace.lints.rust] levels found");
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("compiler-lints");
    fs::create_dir_all(&out_dir).unwrap();
    let mut cmd = Command::new(std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into()));
    cmd.args([
        "--edition=2021",
        "--crate-type=lib",
        "--emit=metadata",
        "--out-dir",
    ])
    .arg(&out_dir);
    for (lint, level) in &levels {
        let flag = match level.as_str() {
            "allow" => "-A",
            "warn" => "-W",
            "deny" => "-D",
            "forbid" => "-F",
            other => panic!("unsupported level `{other}` for `{lint}`"),
        };
        cmd.args([flag, lint]);
    }
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let out = cmd.args(["-D", "warnings"]).arg(fixture).output().unwrap();
    (out.status.success(), String::from_utf8(out.stderr).unwrap())
}

#[test]
fn missing_docs_level_rejects_the_docs_fixture() {
    let (accepted, stderr) = rustc_with_workspace_levels("docs_fail.rs");
    assert!(!accepted, "rustc accepted docs_fail.rs:\n{stderr}");
    // The crate, the fn, the struct and its field.
    assert_eq!(
        stderr.matches("error: missing documentation for").count(),
        4,
        "{stderr}"
    );
}

#[test]
fn unsafe_levels_reject_an_unattributed_crate_root() {
    let (accepted, stderr) = rustc_with_workspace_levels("unsafe_op_fail.rs");
    assert!(!accepted, "rustc accepted unsafe_op_fail.rs:\n{stderr}");
    for lint in ["-D unsafe-code", "-D unsafe-op-in-unsafe-fn"] {
        assert!(stderr.contains(lint), "no `{lint}` finding in:\n{stderr}");
    }
}

#[test]
fn every_manifest_inherits_the_workspace_lints() {
    let root = workspace_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).unwrap() {
        let manifest = entry.unwrap().path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 10, "found only {manifests:?}");
    for manifest in manifests {
        let text = fs::read_to_string(&manifest).unwrap();
        assert_eq!(
            section_entries(&text, "lints"),
            [("workspace".to_owned(), "true".to_owned())],
            "{} must set `[lints] workspace = true`",
            manifest.display()
        );
    }
}
