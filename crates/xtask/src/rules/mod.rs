//! The rule registry and the path allowlists every rule scopes itself
//! with.
//!
//! Allowlists are deliberately *path-based and explicit*: the point of
//! the linter is that concurrency primitives, panic paths, and the
//! Theorem-1 bucket arithmetic live only where a reviewer expects them.
//! Moving such code to a new module is supposed to fail the lint until
//! the allowlist (and DESIGN.md §10) is updated in the same commit.

pub mod atomics;
pub mod panic_reach;
pub mod seqlock;
pub mod suppressions;
pub mod theorem1;
pub mod wire;

use crate::diag::Diagnostic;
use crate::source::SourceFile;
use crate::LintContext;

/// Modules allowed to name `Ordering::*` atomic orderings. Everything
/// else must go through these modules' APIs instead of hand-rolling
/// atomics.
pub const ATOMIC_MODULES: &[&str] = &[
    "crates/table/src/atomic_bucket.rs",
    "crates/core/src/concurrent.rs",
    "crates/traits/src/counters.rs",
    "crates/server/src/metrics.rs",
];

/// Modules holding seqlock version words, where `Relaxed` loads need a
/// written justification.
pub const SEQLOCK_MODULES: &[&str] = &["crates/core/src/concurrent.rs"];

/// The only modules allowed to XOR bucket indices with fingerprint
/// masks — the Theorem-1 / Theorem-2 coset arithmetic.
pub const THEOREM1_MODULES: &[&str] =
    &["crates/core/src/vertical.rs", "crates/core/src/bitmask.rs"];

/// One invariant check. A rule inspects single files, the whole
/// workspace, or both.
pub trait Rule {
    /// Stable id used in output, `--rule` filters, and waivers.
    fn id(&self) -> &'static str;
    /// One-line description for `vcf-xtask rules`.
    fn summary(&self) -> &'static str;
    /// Per-file check. Default: nothing.
    fn check_file(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let _ = (file, out);
    }
    /// Workspace-level check (cross-file facts). Default: nothing.
    fn check_workspace(&self, ctx: &LintContext, out: &mut Vec<Diagnostic>) {
        let _ = (ctx, out);
    }
}

/// Every registered rule, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(atomics::AtomicOrdering),
        Box::new(seqlock::SeqlockProtocol),
        Box::new(panic_reach::PanicReachability),
        Box::new(wire::FormatExhaustiveness),
        Box::new(theorem1::TheoremOneConfinement),
        Box::new(suppressions::TsanSuppressions),
    ]
}

/// Whether `rel` is compiled non-test crate source (`crates/*/src/…`).
pub fn is_crate_src(rel: &str) -> bool {
    rel.starts_with("crates/") && rel.contains("/src/")
}
