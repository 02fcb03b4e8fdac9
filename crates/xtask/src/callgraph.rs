//! The workspace call graph: name-level call resolution scoped by crate
//! dependencies, plus the reachability engine the transitive rules run
//! on.
//!
//! # Resolution model
//!
//! The parser gives us call sites as *(name, shape)* pairs; no type
//! information exists. Resolution therefore over-approximates: a call
//! resolves to **every** workspace function the name could denote —
//! method calls to every method of that name, bare calls to every free
//! function of that name, path calls to either. Over-approximation is
//! sound for reachability rules (it can only add edges, never hide
//! one), and two scoping facts keep it tight in practice:
//!
//! * **Crate confinement** — a call in crate `C` can only resolve into
//!   `C` itself or crates `C` declares in `[dependencies]`
//!   (dev-dependencies are excluded: test-only code cannot sit on a
//!   production hot path). A panic in `vcf-baselines` (which nothing
//!   depends on) cannot contaminate `vcf-core`'s hot paths through an
//!   accidental name collision.
//! * **Qualifier matching** — a `Type::method` path call resolves only
//!   to methods of a workspace type named `Type` (`Self::` maps to the
//!   caller's own type), so `io::Error::new` does not fan out to every
//!   constructor in the workspace. A lowercase qualifier
//!   (`key::hash_item`) restricts to free functions.
//! * **Source candidacy** — only non-test functions in `crates/*/src`
//!   and the façade `src/` are resolution targets; test helpers and
//!   bench harness code never become edges.
//!
//! A method call whose name matches *only* bodyless trait declarations
//! falls back to **conservative may-panic**: any impl outside the graph
//! could panic, so the caller must treat the call as a potential sink
//! (ISSUE-10's trait-dispatch fallback). External names (std, shimmed
//! deps) resolve to nothing and are assumed panic-free — the panicky
//! std idioms (`unwrap`, indexing, …) are caught *at the call site* by
//! the sink scan instead.

use crate::parser::{CallKind, DanglingMarker, EnumInfo, FnInfo, ParsedFile};
use crate::source::SourceFile;
use std::collections::HashMap;
use std::fs;
use std::path::Path;

/// Crate-dependency map: for each crate key, the set of crate keys its
/// call sites may resolve into (always includes itself).
#[derive(Debug, Default)]
pub struct CrateDeps {
    /// `crate dir → allowed dep dirs`. Empty ⇒ unknown ⇒ allow all.
    map: HashMap<String, Vec<String>>,
}

/// Key of the workspace-root façade package in [`CrateDeps`].
const ROOT_CRATE: &str = ".";

/// Method names ubiquitous on std containers. A `.name()` call with one
/// of these names skips the conservative trait-decl fallback — it is
/// overwhelmingly a `Vec`/slice/iterator call, and flagging every one
/// as may-panic because some workspace trait shares the name would bury
/// real findings. Same-named *workspace bodies* still resolve normally.
const STD_COLLISION_METHODS: &[&str] = &[
    "push", "pop", "len", "is_empty", "capacity", "clear", "extend", "reserve",
];

impl CrateDeps {
    /// The crate key a workspace-relative path belongs to.
    pub fn crate_of(rel: &str) -> &str {
        if let Some(rest) = rel.strip_prefix("crates/") {
            if let Some(slash) = rest.find('/') {
                return &rest[..slash];
            }
        }
        ROOT_CRATE
    }

    /// Whether a call in `from` may resolve to a definition in `to`.
    pub fn allows(&self, from: &str, to: &str) -> bool {
        if from == to || self.map.is_empty() {
            return true;
        }
        self.map
            .get(from)
            .is_some_and(|deps| deps.iter().any(|d| d == to))
    }

    /// Loads the dependency map from the workspace's `Cargo.toml`s.
    /// Returns an empty (allow-all) map when manifests are unreadable —
    /// in-memory fixture contexts land here.
    pub fn load(root: &Path) -> Self {
        // Workspace dep name → crate dir, from [workspace.dependencies]
        // entries of the form `vcf-x = { path = "crates/x" }`.
        let mut name_to_dir: HashMap<String, String> = HashMap::new();
        let root_toml = fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
        for line in root_toml.lines() {
            let Some((name, rest)) = line.split_once('=') else {
                continue;
            };
            if let Some(idx) = rest.find("path = \"crates/") {
                let tail = &rest[idx + "path = \"crates/".len()..];
                if let Some(end) = tail.find('"') {
                    name_to_dir.insert(name.trim().to_owned(), tail[..end].to_owned());
                }
            }
        }
        let mut map = HashMap::new();
        // The façade package's own [dependencies] live in the root
        // manifest below the [workspace.*] sections.
        map.insert(
            ROOT_CRATE.to_owned(),
            deps_in_manifest(&root_toml, &name_to_dir),
        );
        let crates_dir = root.join("crates");
        if let Ok(entries) = fs::read_dir(&crates_dir) {
            for entry in entries.filter_map(Result::ok) {
                let Ok(dir) = entry.file_name().into_string() else {
                    continue;
                };
                let Ok(toml) = fs::read_to_string(entry.path().join("Cargo.toml")) else {
                    continue;
                };
                map.insert(dir, deps_in_manifest(&toml, &name_to_dir));
            }
        }
        Self { map }
    }
}

/// Crate dirs named under a manifest's `[dependencies]` section.
/// Dev-dependencies are deliberately skipped: they only link into test
/// binaries, which are never resolution targets anyway.
fn deps_in_manifest(toml: &str, name_to_dir: &HashMap<String, String>) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_deps = false;
    for line in toml.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if !in_deps {
            continue;
        }
        let Some((name, _)) = line.split_once('=') else {
            continue;
        };
        let name = name.trim().trim_end_matches(".workspace").trim();
        if let Some(dir) = name_to_dir.get(name) {
            if !out.contains(dir) {
                out.push(dir.clone());
            }
        }
    }
    out
}

/// The assembled workspace analysis: parsed items plus the resolved
/// call graph. Built once per lint run and shared by every rule.
#[derive(Debug)]
pub struct Analysis {
    /// Every parsed function, workspace-wide (arena; edges index this).
    pub fns: Vec<FnInfo>,
    /// Every parsed enum.
    pub enums: Vec<EnumInfo>,
    /// Markers that bound to no item.
    pub dangling: Vec<DanglingMarker>,
    /// `edges[f]` = indices of fns the body of `fns[f]` may call.
    pub edges: Vec<Vec<usize>>,
    /// Call sites that resolved only to bodyless trait declarations:
    /// `(caller fn index, call index within the caller)`.
    pub conservative_calls: Vec<(usize, usize)>,
    /// Crate-dependency scoping used during resolution.
    pub deps: CrateDeps,
}

impl Analysis {
    /// Parses every file and resolves the call graph. `root` enables
    /// crate-dependency scoping; `None` (fixtures) allows all edges.
    pub fn build(files: &[SourceFile], root: Option<&Path>) -> Self {
        let mut fns = Vec::new();
        let mut enums = Vec::new();
        let mut dangling = Vec::new();
        for (idx, file) in files.iter().enumerate() {
            let ParsedFile { fns: f, enums: e } =
                crate::parser::parse_file(file, idx, &mut dangling);
            fns.extend(f);
            enums.extend(e);
        }
        let deps = root.map(CrateDeps::load).unwrap_or_default();

        // Candidate indexes. Only live src fns with bodies are targets;
        // bodyless trait decls index separately for the conservative
        // fallback.
        let mut methods: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut free: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut trait_decls: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            if f.test {
                continue;
            }
            if f.trait_decl {
                trait_decls.entry(f.name.as_str()).or_default().push(i);
            } else if f.body.is_some() {
                if f.is_method {
                    methods.entry(f.name.as_str()).or_default().push(i);
                } else {
                    free.entry(f.name.as_str()).or_default().push(i);
                }
            }
        }

        // Trait names = owners of at least one bodyless declaration.
        // `Trait::method(x)` (UFCS dispatch) must fan out to every impl
        // candidate, unlike `Type::method` which pins one owner.
        let trait_names: std::collections::HashSet<&str> = fns
            .iter()
            .filter(|f| f.trait_decl)
            .filter_map(|f| f.owner.as_deref())
            .collect();

        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        let mut conservative_calls = Vec::new();
        for (i, f) in fns.iter().enumerate() {
            let from_crate = CrateDeps::crate_of(&files[f.file].rel);
            let mut out = Vec::new();
            for (ci, call) in f.calls.iter().enumerate() {
                let name = call.name.as_str();
                // Body candidates, plus the bodyless trait declarations
                // that trigger the conservative fallback if no body
                // resolves. A bare call can never be a trait method
                // (those need a receiver or a qualified path), so it
                // gets no fallback set.
                let mut cands: Vec<usize> = Vec::new();
                let mut decl_cands: Vec<usize> = Vec::new();
                let owner_is = |t: usize, owner: Option<&str>| fns[t].owner.as_deref() == owner;
                match call.kind {
                    CallKind::Macro => {}
                    CallKind::Method => {
                        cands.extend(methods.get(name).into_iter().flatten());
                        // Std-collision exemption: `.push()`, `.len()`
                        // and friends on std containers would otherwise
                        // hit every same-named bodyless trait decl and
                        // drown the conservative fallback in noise.
                        // Real workspace bodies still resolve above.
                        if !STD_COLLISION_METHODS.contains(&name) {
                            decl_cands.extend(trait_decls.get(name).into_iter().flatten());
                        }
                    }
                    CallKind::Bare => {
                        cands.extend(free.get(name).into_iter().flatten());
                    }
                    CallKind::Path => match call.qual.as_deref() {
                        // `Self::helper` — the caller's own type.
                        Some("Self") => {
                            let owner = f.owner.as_deref();
                            cands.extend(
                                methods
                                    .get(name)
                                    .into_iter()
                                    .flatten()
                                    .filter(|&&t| owner_is(t, owner)),
                            );
                            decl_cands.extend(
                                trait_decls
                                    .get(name)
                                    .into_iter()
                                    .flatten()
                                    .filter(|&&t| owner_is(t, owner)),
                            );
                        }
                        // `Trait::method(x)` — UFCS dispatch: any impl
                        // may run, so fan out to every same-named
                        // method body.
                        Some(q) if trait_names.contains(q) => {
                            cands.extend(methods.get(name).into_iter().flatten());
                            decl_cands.extend(
                                trait_decls
                                    .get(name)
                                    .into_iter()
                                    .flatten()
                                    .filter(|&&t| owner_is(t, Some(q))),
                            );
                        }
                        // `Type::method` — only methods of a workspace
                        // type with that exact name; `io::Error::new`
                        // resolves to nothing (external).
                        Some(q) if q.starts_with(char::is_uppercase) => {
                            cands.extend(
                                methods
                                    .get(name)
                                    .into_iter()
                                    .flatten()
                                    .filter(|&&t| owner_is(t, Some(q))),
                            );
                            decl_cands.extend(
                                trait_decls
                                    .get(name)
                                    .into_iter()
                                    .flatten()
                                    .filter(|&&t| owner_is(t, Some(q))),
                            );
                        }
                        // `module::helper` — free functions.
                        Some(_) => {
                            cands.extend(free.get(name).into_iter().flatten());
                        }
                        // Unrecognised qualifier shape (e.g.
                        // `<T as Trait>::f`): fan out to everything.
                        None => {
                            cands.extend(methods.get(name).into_iter().flatten());
                            cands.extend(free.get(name).into_iter().flatten());
                            decl_cands.extend(trait_decls.get(name).into_iter().flatten());
                        }
                    },
                }
                let mut resolved = false;
                for &target in &cands {
                    let to_crate = CrateDeps::crate_of(&files[fns[target].file].rel);
                    if deps.allows(from_crate, to_crate) {
                        resolved = true;
                        if !out.contains(&target) {
                            out.push(target);
                        }
                    }
                }
                // Conservative fallback: the name resolves only to
                // bodyless trait declarations, so some impl outside the
                // graph provides the body.
                if !resolved
                    && decl_cands.iter().any(|&d| {
                        deps.allows(from_crate, CrateDeps::crate_of(&files[fns[d].file].rel))
                    })
                {
                    conservative_calls.push((i, ci));
                }
            }
            edges[i] = out;
        }
        Self {
            fns,
            enums,
            dangling,
            edges,
            conservative_calls,
            deps,
        }
    }

    /// Forward reachability from `roots` over the call edges. Returns
    /// `parent[f] = Some(caller)` for every reached fn (roots map to
    /// themselves), `None` for unreached fns. Cycles are handled by the
    /// visited set — each node is expanded once.
    pub fn reachable_from(&self, roots: &[usize]) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.fns.len()];
        let mut queue: Vec<usize> = Vec::new();
        for &r in roots {
            if parent[r].is_none() {
                parent[r] = Some(r);
                queue.push(r);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let cur = queue[head];
            head += 1;
            for &next in &self.edges[cur] {
                if parent[next].is_none() {
                    parent[next] = Some(cur);
                    queue.push(next);
                }
            }
        }
        parent
    }

    /// The call chain `root → … → target` implied by a parent map from
    /// [`Self::reachable_from`], rendered with fn labels. Truncated in
    /// the middle past eight hops.
    pub fn chain(&self, parent: &[Option<usize>], target: usize, files: &[SourceFile]) -> String {
        let mut hops = vec![target];
        let mut cur = target;
        while let Some(p) = parent[cur] {
            if p == cur {
                break;
            }
            cur = p;
            hops.push(cur);
        }
        hops.reverse();
        let labels: Vec<String> = hops.iter().map(|&f| self.fns[f].label(files)).collect();
        if labels.len() > 8 {
            format!(
                "{} \u{2192} … \u{2192} {}",
                labels[..3].join(" \u{2192} "),
                labels[labels.len() - 3..].join(" \u{2192} ")
            )
        } else {
            labels.join(" \u{2192} ")
        }
    }

    /// Indices of hot-path-annotated root fns.
    pub fn hot_roots(&self) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&i| self.fns[i].hot_path && !self.fns[i].test)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(sources: &[(&str, &str)]) -> (Analysis, Vec<SourceFile>) {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(rel, src)| SourceFile::new(*rel, *src))
            .collect();
        let analysis = Analysis::build(&files, None);
        (analysis, files)
    }

    fn idx(a: &Analysis, name: &str) -> usize {
        a.fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn direct_and_two_deep_edges() {
        let (a, _) = analyze(&[(
            "crates/demo/src/lib.rs",
            "fn top() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\n",
        )]);
        let parent = a.reachable_from(&[idx(&a, "top")]);
        assert!(parent[idx(&a, "leaf")].is_some(), "leaf reachable two deep");
        assert_eq!(parent[idx(&a, "leaf")], Some(idx(&a, "mid")));
    }

    #[test]
    fn cycles_terminate_and_stay_reachable() {
        let (a, _) = analyze(&[(
            "crates/demo/src/lib.rs",
            "fn ping() { pong(); }\nfn pong() { ping(); }\nfn island() {}\n",
        )]);
        let parent = a.reachable_from(&[idx(&a, "ping")]);
        assert!(parent[idx(&a, "pong")].is_some());
        assert!(parent[idx(&a, "island")].is_none());
    }

    #[test]
    fn method_calls_resolve_to_all_same_named_methods() {
        let (a, _) = analyze(&[(
            "crates/demo/src/lib.rs",
            "struct A;\nimpl A {\n    fn probe(&self) {}\n}\n\
             struct B;\nimpl B {\n    fn probe(&self) {}\n}\n\
             fn caller(a: &A) { a.probe(); }\n",
        )]);
        let edges = &a.edges[idx(&a, "caller")];
        assert_eq!(edges.len(), 2, "both probe impls are candidates");
    }

    #[test]
    fn bare_calls_do_not_resolve_to_methods() {
        let (a, _) = analyze(&[(
            "crates/demo/src/lib.rs",
            "struct A;\nimpl A {\n    fn helper(&self) {}\n}\nfn caller() { helper(); }\n",
        )]);
        assert!(a.edges[idx(&a, "caller")].is_empty());
    }

    #[test]
    fn trait_decl_without_body_is_conservative() {
        let (a, _) = analyze(&[(
            "crates/demo/src/lib.rs",
            "trait Backend {\n    fn exec(&self);\n}\nfn run(b: &dyn Backend) { b.exec(); }\n",
        )]);
        let run = idx(&a, "run");
        assert!(a.edges[run].is_empty());
        assert_eq!(a.conservative_calls, [(run, 0)]);
    }

    #[test]
    fn trait_with_impl_resolves_to_body_not_conservative() {
        let (a, _) = analyze(&[(
            "crates/demo/src/lib.rs",
            "trait Backend {\n    fn exec(&self);\n}\n\
             struct Real;\nimpl Backend for Real {\n    fn exec(&self) {}\n}\n\
             fn run(b: &Real) { b.exec(); }\n",
        )]);
        let run = idx(&a, "run");
        assert_eq!(a.edges[run].len(), 1);
        assert!(a.conservative_calls.is_empty());
    }

    #[test]
    fn cross_crate_edges_resolve() {
        let (a, _) = analyze(&[
            (
                "crates/core/src/vcf.rs",
                "fn lookup(t: &Engine) { t.contains_fp(); }\n",
            ),
            (
                "crates/table/src/bucket.rs",
                "struct Engine;\nimpl Engine {\n    fn contains_fp(&self) {}\n}\n",
            ),
        ]);
        assert_eq!(a.edges[idx(&a, "lookup")].len(), 1, "core → table edge");
    }

    #[test]
    fn test_fns_are_not_candidates() {
        let (a, _) = analyze(&[
            (
                "crates/demo/src/lib.rs",
                "fn caller() { helper(); }\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n",
            ),
            ("crates/demo/tests/it.rs", "fn helper() {}\n"),
        ]);
        assert!(
            a.edges[idx(&a, "caller")].is_empty(),
            "test fns must not become resolution targets"
        );
    }

    #[test]
    fn chain_renders_root_to_target() {
        let (a, files) = analyze(&[(
            "crates/demo/src/lib.rs",
            "fn top() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\n",
        )]);
        let parent = a.reachable_from(&[idx(&a, "top")]);
        let chain = a.chain(&parent, idx(&a, "leaf"), &files);
        assert_eq!(chain, "lib::top \u{2192} lib::mid \u{2192} lib::leaf");
    }

    #[test]
    fn crate_of_maps_paths() {
        assert_eq!(CrateDeps::crate_of("crates/core/src/vcf.rs"), "core");
        assert_eq!(CrateDeps::crate_of("src/lib.rs"), ".");
        assert_eq!(CrateDeps::crate_of("tests/smoke.rs"), ".");
    }
}
