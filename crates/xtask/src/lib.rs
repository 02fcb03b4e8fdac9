//! `vcf-xtask`: the workspace invariant linter.
//!
//! A dependency-free, source-level analysis that enforces the
//! disciplines the compiler cannot: atomic-ordering confinement, the
//! seqlock read protocol, panic-free hot paths, wire-format
//! exhaustiveness, Theorem-1 coset arithmetic confinement, and
//! TSan-suppression freshness. Documentation and unsafe-code policy are
//! compiler lints in the root `[workspace.lints]`. See `DESIGN.md` §10
//! for the rationale behind each rule.
//!
//! Run it as `cargo run -p vcf-xtask -- lint` (CI runs it as a
//! required job). Violations can be locally waived with
//! `// lint: allow(rule-id) — reason`; unused waivers are themselves
//! violations, so the allow-surface cannot rot.

#![forbid(unsafe_code)]

pub mod bench_check;
pub mod callgraph;
pub mod diag;
pub mod json;
pub mod lexer;
pub mod loc;
pub mod parser;
pub mod rules;
pub mod sarif;
pub mod source;

use callgraph::Analysis;
use diag::Diagnostic;
use source::SourceFile;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories (under the root and under each crate) that hold lintable
/// Rust sources.
const SOURCE_DIRS: &[&str] = &["src", "tests", "benches", "examples"];

/// Directory names the walker never descends into: build output and the
/// linter's own deliberately-failing fixtures.
const SKIP_DIRS: &[&str] = &["target", "fixtures"];

/// Workspace-relative location of the TSan suppressions file.
const SUPPRESSIONS_REL: &str = ".github/tsan-suppressions.txt";

/// The loaded workspace: every lintable file plus cross-file inputs.
pub struct LintContext {
    /// Workspace root the paths in [`Self::files`] are relative to.
    pub root: PathBuf,
    /// All lexed source files, sorted by relative path.
    pub files: Vec<SourceFile>,
    /// The TSan suppressions file (relative path, contents), if present.
    pub suppressions: Option<(String, String)>,
    /// The semantic front-end: parsed items + resolved call graph.
    pub analysis: Analysis,
}

impl LintContext {
    /// Loads every `.rs` file under the workspace's source directories.
    pub fn load(root: &Path) -> io::Result<Self> {
        if !root.join("Cargo.toml").is_file() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "no Cargo.toml at the given root",
            ));
        }
        let mut rels: Vec<String> = Vec::new();
        let mut dirs: Vec<PathBuf> = SOURCE_DIRS.iter().map(PathBuf::from).collect();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut names: Vec<String> = fs::read_dir(&crates_dir)?
                .filter_map(Result::ok)
                .filter(|e| e.path().is_dir())
                .filter_map(|e| e.file_name().into_string().ok())
                .collect();
            names.sort();
            for name in names {
                for d in SOURCE_DIRS {
                    dirs.push(PathBuf::from("crates").join(&name).join(d));
                }
            }
        }
        for dir in dirs {
            collect_rs(root, &dir, &mut rels)?;
        }
        rels.sort();
        let mut files = Vec::with_capacity(rels.len());
        for rel in rels {
            let text = fs::read_to_string(root.join(&rel))?;
            files.push(SourceFile::new(rel, text));
        }
        let suppressions = fs::read_to_string(root.join(SUPPRESSIONS_REL))
            .ok()
            .map(|c| (SUPPRESSIONS_REL.to_owned(), c));
        let analysis = Analysis::build(&files, Some(root));
        Ok(Self {
            root: root.to_path_buf(),
            files,
            suppressions,
            analysis,
        })
    }

    /// Builds a context from in-memory files — the fixture tests' entry
    /// point.
    pub fn from_memory(files: Vec<SourceFile>) -> Self {
        let analysis = Analysis::build(&files, None);
        Self {
            root: PathBuf::new(),
            files,
            suppressions: None,
            analysis,
        }
    }

    /// Runs the rules (all of them, or just `rule_filter`) and returns
    /// the surviving diagnostics, sorted. Waived diagnostics are
    /// dropped; malformed waivers surface as `lint-waiver` and unused
    /// ones as `stale-waiver` (the latter only on full runs, since
    /// filtering rules leaves other rules' waivers legitimately
    /// unused).
    pub fn run(&self, rule_filter: Option<&str>) -> Result<Vec<Diagnostic>, String> {
        let rules = rules::all_rules();
        if let Some(f) = rule_filter {
            let known =
                rules.iter().any(|r| r.id() == f) || f == "lint-waiver" || f == "stale-waiver";
            if !known {
                return Err(format!(
                    "unknown rule `{f}` (run `vcf-xtask rules` for the list)"
                ));
            }
        }
        let mut raw = Vec::new();
        for rule in &rules {
            if rule_filter.is_some_and(|f| f != rule.id()) {
                continue;
            }
            for file in &self.files {
                rule.check_file(file, &mut raw);
            }
            rule.check_workspace(self, &mut raw);
        }
        let mut kept = Vec::new();
        for d in raw {
            let waiver = self.files.iter().find(|f| f.rel == d.file).and_then(|f| {
                f.waivers.iter().find(|w| {
                    !w.malformed && w.rule == d.rule && w.line <= d.line && d.line <= w.last_line
                })
            });
            match waiver {
                Some(w) => w.used.set(true),
                None => kept.push(d),
            }
        }
        for f in &self.files {
            for w in &f.waivers {
                if w.malformed {
                    if rule_filter.is_none_or(|r| r == "lint-waiver") {
                        kept.push(Diagnostic {
                            rule: "lint-waiver",
                            file: f.rel.clone(),
                            line: w.line,
                            col: 1,
                            message: format!("malformed waiver `{}`", w.reason),
                            hint: "write `// lint: allow(rule-id) \u{2014} reason` \
                                   (the reason is mandatory)"
                                .to_owned(),
                        });
                    }
                } else if !w.used.get() && rule_filter.is_none() {
                    kept.push(Diagnostic {
                        rule: "stale-waiver",
                        file: f.rel.clone(),
                        line: w.line,
                        col: 1,
                        message: format!("waiver for `{}` no longer suppresses anything", w.rule),
                        hint: "delete the stale waiver (or restore whatever it was covering)"
                            .to_owned(),
                    });
                }
            }
        }
        diag::sort(&mut kept);
        Ok(kept)
    }
}

/// Recursively collects `.rs` files under `root/rel_dir` as
/// `/`-separated root-relative paths.
pub(crate) fn collect_rs(root: &Path, rel_dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let abs = root.join(rel_dir);
    if !abs.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = fs::read_dir(&abs)?.filter_map(Result::ok).collect();
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let Ok(name) = entry.file_name().into_string() else {
            continue;
        };
        let path = entry.path();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            collect_rs(root, &rel_dir.join(&name), out)?;
        } else if name.ends_with(".rs") {
            let mut rel = String::new();
            for comp in rel_dir.components() {
                rel.push_str(&comp.as_os_str().to_string_lossy());
                rel.push('/');
            }
            rel.push_str(&name);
            out.push(rel);
        }
    }
    Ok(())
}
