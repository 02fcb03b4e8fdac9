//! The item parser: per-function body extraction, call-site harvesting,
//! enum layouts, and `// lint: <marker>` item annotations — the semantic
//! layer between the token stream ([`crate::lexer`]) and the dataflow
//! rules ([`crate::callgraph`] and `rules/{panic_reach,format}`).
//!
//! The parser is *name-level*, not type-level: it knows which `fn`s
//! exist, which `impl`/`trait` block owns them, what they call (method,
//! path, bare, or macro call sites), and which enums declare which
//! variants. It deliberately does not attempt type inference; the call
//! graph compensates by resolving names to the union of candidates and
//! scoping that union by crate dependencies (see `callgraph.rs`).
//!
//! # Item annotations
//!
//! Besides waivers (`// lint: allow(…)`, parsed in [`crate::source`]),
//! items can carry *markers* that opt them into a rule's scope:
//!
//! ```text
//! // lint: hot-path
//! pub fn contains(&self, item: u64) -> bool { … }
//!
//! // lint: wire-format
//! pub enum OpCode { … }
//!
//! // lint: wire-format(decode)
//! pub fn decode(buffer: &[u8]) -> Result<Self, Error> { … }
//! ```
//!
//! A marker binds to the next `fn`/`enum` item, looking through doc
//! comments, attributes, and visibility qualifiers. A marker that binds
//! to nothing is a diagnostic (the owning rule reports it), so stale
//! annotations cannot rot in place.

use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// How a call site names its callee.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CallKind {
    /// `receiver.name(…)` — resolves against methods only.
    Method,
    /// `path::name(…)` or a `Path::name` value reference.
    Path,
    /// `name(…)` with no qualifier — resolves against free functions.
    Bare,
    /// `name!(…)` — macro invocation (panic/assert family matter).
    Macro,
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    /// Callee name (last path segment).
    pub name: String,
    /// Qualification shape, which picks the resolution candidate set.
    pub kind: CallKind,
    /// For [`CallKind::Path`]: the path segment immediately before the
    /// callee (`Error` in `io::Error::new`, `key` in
    /// `key::hash_item`). Lets resolution match the owner type
    /// instead of fanning out to every same-named method.
    pub qual: Option<String>,
    /// 1-based line of the callee token.
    pub line: u32,
    /// 1-based column of the callee token.
    pub col: u32,
}

/// One parsed function (or bodyless trait-method declaration).
#[derive(Debug)]
pub struct FnInfo {
    /// Index of the declaring file in the analysis' file list.
    pub file: usize,
    /// Bare function name.
    pub name: String,
    /// Name of the `impl` target type or `trait` that owns this fn.
    pub owner: Option<String>,
    /// Declared inside an `impl` or `trait` block (a method).
    pub is_method: bool,
    /// Bodyless declaration inside a `trait` block.
    pub trait_decl: bool,
    /// Code-token index range `(open_brace, close_brace)` of the body.
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Line of the body's closing brace (= `line` when bodyless).
    pub end_line: u32,
    /// Carries a `// lint: hot-path` marker.
    pub hot_path: bool,
    /// Carries a `// lint: wire-format(decode)` marker.
    pub wire_decode: bool,
    /// Lies inside `#[cfg(test)]` or a non-`src` tree (tests/benches).
    pub test: bool,
    /// Call sites harvested from the body, in source order.
    pub calls: Vec<Call>,
}

impl FnInfo {
    /// `file_stem::owner::name` — the human-readable node label used in
    /// reachability chains.
    pub fn label(&self, files: &[SourceFile]) -> String {
        let stem = files[self.file]
            .rel
            .rsplit('/')
            .next()
            .unwrap_or(&files[self.file].rel)
            .trim_end_matches(".rs");
        match &self.owner {
            Some(owner) => format!("{stem}::{owner}::{}", self.name),
            None => format!("{stem}::{}", self.name),
        }
    }
}

/// One parsed `enum` declaration.
#[derive(Debug)]
pub struct EnumInfo {
    /// Index of the declaring file.
    pub file: usize,
    /// Enum name.
    pub name: String,
    /// Variant names with their declaration lines.
    pub variants: Vec<(String, u32)>,
    /// 1-based line of the `enum` keyword.
    pub line: u32,
    /// Code-token index range of the declaration body braces.
    pub body: (usize, usize),
    /// Carries a `// lint: wire-format` marker.
    pub wire: bool,
}

/// A `// lint: <marker>` comment that failed to bind to an item.
#[derive(Debug)]
pub struct DanglingMarker {
    /// Index of the file holding the comment.
    pub file: usize,
    /// The marker text (`hot-path`, `wire-format`, …).
    pub marker: String,
    /// 1-based line of the comment.
    pub line: u32,
}

/// Everything the parser extracted from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Functions in declaration order.
    pub fns: Vec<FnInfo>,
    /// Enums in declaration order.
    pub enums: Vec<EnumInfo>,
}

/// Marker spellings the item annotations accept.
const MARKERS: &[&str] = &["hot-path", "wire-format", "wire-format(decode)"];

/// Keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "match", "return", "loop", "in", "let", "mut", "ref", "move",
    "break", "continue", "as", "where", "unsafe", "dyn", "impl", "fn", "pub", "crate", "super",
    "self", "Self", "use", "mod", "const", "static", "type", "struct", "enum", "trait", "extern",
    "async", "await", "box",
];

/// Qualifier tokens that may sit between a marker comment and its item.
const ITEM_QUALIFIERS: &[&str] = &[
    "pub", "crate", "super", "in", "unsafe", "const", "async", "extern", "default", "(", ")",
];

/// Parses `file` (at `file_idx` in the workspace list) into functions,
/// enums, and annotations. `dangling` collects markers that bound to no
/// item.
pub fn parse_file(
    file: &SourceFile,
    file_idx: usize,
    dangling: &mut Vec<DanglingMarker>,
) -> ParsedFile {
    let mut out = ParsedFile::default();
    let is_src = crate::rules::is_crate_src(&file.rel) || file.rel.starts_with("src/");

    // Scope stack of enclosing impl/trait blocks: (owner, kind, close_k).
    let mut scopes: Vec<(String, bool, usize)> = Vec::new(); // (owner, is_trait, close)

    let mut k = 0usize;
    while k < file.code.len() {
        while let Some(&(_, _, close)) = scopes.last() {
            if k > close {
                scopes.pop();
            } else {
                break;
            }
        }
        match file.code_tok(k) {
            "impl" => {
                if let Some((owner, body_open)) = parse_impl_header(file, k) {
                    let close = file.matching_close(body_open);
                    scopes.push((owner, false, close));
                    k = body_open + 1;
                    continue;
                }
            }
            "trait" => {
                if let Some((name, body_open)) = parse_named_block(file, k) {
                    let close = file.matching_close(body_open);
                    scopes.push((name, true, close));
                    k = body_open + 1;
                    continue;
                }
            }
            "enum" => {
                if let Some(info) = parse_enum(file, file_idx, k) {
                    let after = info.body.1 + 1;
                    out.enums.push(info);
                    k = after;
                    continue;
                }
            }
            "fn" => {
                if let Some(info) = parse_fn(file, file_idx, k, scopes.last(), is_src) {
                    // Continue scanning *inside* the body so nested fns
                    // (and nested impls) are found too.
                    out.fns.push(info);
                }
            }
            _ => {}
        }
        k += 1;
    }

    // Markers that no item claimed are stale annotations.
    let claimed: Vec<u32> = claimed_marker_lines(file, &out);
    for (line, marker) in marker_comments(file) {
        if !claimed.contains(&line) {
            dangling.push(DanglingMarker {
                file: file_idx,
                marker,
                line,
            });
        }
    }

    attach_calls(file, &mut out.fns);
    out
}

/// All `// lint: <marker>` comments in `file` as `(line, marker)`.
fn marker_comments(file: &SourceFile) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, tok) in file.tokens.iter().enumerate() {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        let body = file.tok(i).trim_start_matches('/').trim();
        if let Some(marker) = body.strip_prefix("lint: ") {
            let marker = marker.trim();
            if MARKERS.contains(&marker) {
                out.push((tok.line, marker.to_owned()));
            }
        }
    }
    out
}

/// Lines of marker comments that bound to a parsed item.
fn claimed_marker_lines(file: &SourceFile, parsed: &ParsedFile) -> Vec<u32> {
    let mut lines = Vec::new();
    for f in &parsed.fns {
        if f.hot_path || f.wire_decode {
            lines.extend(item_marker_lines(file, f.line));
        }
    }
    for e in &parsed.enums {
        if e.wire {
            lines.extend(item_marker_lines(file, e.line));
        }
    }
    lines
}

/// Finds the marker bound to the item whose keyword sits on
/// `item_line`, if any. Returns the markers' comment lines.
fn item_marker_lines(file: &SourceFile, item_line: u32) -> Vec<u32> {
    markers_above(file, item_line)
        .into_iter()
        .map(|(line, _)| line)
        .collect()
}

/// Markers directly above the item whose first keyword token is on
/// `item_line`, looking through attributes, doc comments, and
/// qualifiers. Returns `(comment_line, marker)` pairs.
fn markers_above(file: &SourceFile, item_line: u32) -> Vec<(u32, String)> {
    // Token index of the item keyword: first token on `item_line` that
    // is a code token. Walk backwards from there.
    let Some(start) = file.tokens.iter().position(|t| {
        t.line == item_line && !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut i = start;
    let mut budget = 256usize;
    while i > 0 && budget > 0 {
        budget -= 1;
        i -= 1;
        let tok = file.tokens[i];
        match tok.kind {
            TokenKind::LineComment | TokenKind::BlockComment => {
                let body = file.tok(i).trim_start_matches('/').trim();
                if let Some(marker) = body.strip_prefix("lint: ") {
                    let marker = marker.trim();
                    if MARKERS.contains(&marker) {
                        out.push((tok.line, marker.to_owned()));
                    }
                }
            }
            TokenKind::Str => {} // `extern "C"` ABI string
            TokenKind::Ident if ITEM_QUALIFIERS.contains(&file.tok(i)) => {}
            TokenKind::Punct if file.tok(i) == "]" => {
                // Skip a `#[…]` attribute group in reverse.
                let mut depth = 1usize;
                while i > 0 && depth > 0 {
                    i -= 1;
                    match file.tok(i) {
                        "]" => depth += 1,
                        "[" => depth -= 1,
                        _ => {}
                    }
                }
                // Step over the leading `#`.
                if i > 0 && file.tok(i - 1) == "#" {
                    i -= 1;
                }
            }
            TokenKind::Punct if ITEM_QUALIFIERS.contains(&file.tok(i)) => {}
            _ => break,
        }
    }
    out
}

/// Parses an `impl` header starting at code index `k`. Returns the
/// target type name and the code index of the body `{`.
fn parse_impl_header(file: &SourceFile, k: usize) -> Option<(String, usize)> {
    let mut j = k + 1;
    // Skip the generic parameter list `impl<…>`.
    if j < file.code.len() && file.code_tok(j) == "<" {
        j = skip_angles(file, j)?;
    }
    // Collect up to the body `{`, tracking a top-level `for`.
    let mut owner: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    let mut in_generics = 0usize;
    let mut delim = 0usize;
    while j < file.code.len() {
        let t = file.code_tok(j);
        match t {
            "<" => in_generics += 1,
            ">" => in_generics = in_generics.saturating_sub(1),
            "(" | "[" => delim += 1,
            ")" | "]" => delim = delim.saturating_sub(1),
            "{" if in_generics == 0 && delim == 0 => {
                let name = if saw_for { after_for } else { owner };
                return name.map(|n| (n, j));
            }
            ";" if in_generics == 0 && delim == 0 => return None,
            "for" if in_generics == 0 && delim == 0 => saw_for = true,
            "where" if in_generics == 0 && delim == 0 => {
                // The type path is complete; scan on for the `{` only.
                let name = if saw_for {
                    after_for.clone()
                } else {
                    owner.clone()
                };
                let body = find_body_open(file, j)?;
                return name.map(|n| (n, body));
            }
            "mut" | "dyn" | "ref" => {} // `impl T for &mut U` qualifiers
            _ => {
                if in_generics == 0
                    && delim == 0
                    && file.tokens[file.code[j]].kind == TokenKind::Ident
                {
                    if saw_for {
                        if after_for.is_none() || file.code_tok(j - 1) == ":" {
                            after_for = Some(t.to_owned());
                        }
                    } else if owner.is_none() || file.code_tok(j - 1) == ":" {
                        // Keep the *last path segment*: a new segment
                        // follows `::`; the first ident wins otherwise.
                        owner = Some(t.to_owned());
                    }
                }
            }
        }
        j += 1;
    }
    None
}

/// Parses `trait Name … {` / other named blocks: returns the name and
/// the body-`{` code index.
fn parse_named_block(file: &SourceFile, k: usize) -> Option<(String, usize)> {
    let name_k = k + 1;
    if name_k >= file.code.len() || file.tokens[file.code[name_k]].kind != TokenKind::Ident {
        return None;
    }
    let name = file.code_tok(name_k).to_owned();
    let body = find_body_open(file, name_k)?;
    Some((name, body))
}

/// First `{` at top delimiter level after code index `j`.
fn find_body_open(file: &SourceFile, j: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut angles = 0usize;
    for i in j..file.code.len() {
        match file.code_tok(i) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            "<" => angles += 1,
            ">" => angles = angles.saturating_sub(1),
            "{" if depth == 0 && angles == 0 => return Some(i),
            ";" if depth == 0 && angles == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Skips a balanced `<…>` group starting at code index `j` (which holds
/// `<`); returns the index just past the closing `>`.
fn skip_angles(file: &SourceFile, j: usize) -> Option<usize> {
    let mut depth = 0usize;
    for i in j..file.code.len() {
        match file.code_tok(i) {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            // `->` inside `Fn() -> T` bounds: the `>` above would
            // misbalance; treat the pair as neutral.
            "-" => {}
            "{" | ";" => return None,
            _ => {}
        }
    }
    None
}

/// Parses an `enum` declaration at code index `k`.
fn parse_enum(file: &SourceFile, file_idx: usize, k: usize) -> Option<EnumInfo> {
    let name_k = k + 1;
    if name_k >= file.code.len() || file.tokens[file.code[name_k]].kind != TokenKind::Ident {
        return None;
    }
    let name = file.code_tok(name_k).to_owned();
    let body_open = find_body_open(file, name_k)?;
    let close = file.matching_close(body_open);
    let line = file.tokens[file.code[k]].line;

    let mut variants = Vec::new();
    let mut j = body_open + 1;
    while j < close {
        // Skip attributes on the variant.
        while j + 1 < close && file.code_tok(j) == "#" && file.code_tok(j + 1) == "[" {
            j = file.matching_close(j + 1) + 1;
        }
        if j >= close {
            break;
        }
        if file.tokens[file.code[j]].kind == TokenKind::Ident {
            variants.push((file.code_tok(j).to_owned(), file.tokens[file.code[j]].line));
            // Skip the payload and discriminant up to the separating
            // comma at this level.
            let mut depth = 0usize;
            j += 1;
            while j < close {
                match file.code_tok(j) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth = depth.saturating_sub(1),
                    "," if depth == 0 => {
                        j += 1;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
        } else {
            j += 1;
        }
    }

    let wire = markers_above(file, line)
        .iter()
        .any(|(_, m)| m == "wire-format");
    Some(EnumInfo {
        file: file_idx,
        name,
        variants,
        line,
        body: (body_open, close),
        wire,
    })
}

/// Parses the `fn` at code index `k` into an [`FnInfo`] (calls are
/// attached later, once every fn's body range is known).
fn parse_fn(
    file: &SourceFile,
    file_idx: usize,
    k: usize,
    scope: Option<&(String, bool, usize)>,
    is_src: bool,
) -> Option<FnInfo> {
    let name_k = k + 1;
    if name_k >= file.code.len() || file.tokens[file.code[name_k]].kind != TokenKind::Ident {
        return None; // `fn(…)` pointer type
    }
    let name = file.code_tok(name_k).to_owned();
    let tok = file.tokens[file.code[k]];

    // Find the body `{` or terminating `;` at top delimiter level.
    let mut depth = 0usize;
    let mut j = name_k + 1;
    let mut body = None;
    while j < file.code.len() {
        match file.code_tok(j) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            "{" if depth == 0 => {
                body = Some((j, file.matching_close(j)));
                break;
            }
            ";" if depth == 0 => break,
            _ => {}
        }
        j += 1;
    }

    let (owner, in_trait) = match scope {
        Some((owner, is_trait, close)) if k < *close => (Some(owner.clone()), *is_trait),
        _ => (None, false),
    };
    let end_line = body.map_or(tok.line, |(_, c)| file.tokens[file.code[c]].line);
    let markers = markers_above(file, tok.line);
    let test = !is_src || file.is_test_line(tok.line);
    Some(FnInfo {
        file: file_idx,
        name,
        is_method: owner.is_some(),
        owner,
        trait_decl: in_trait && body.is_none(),
        body,
        line: tok.line,
        col: tok.col,
        end_line,
        hot_path: markers.iter().any(|(_, m)| m == "hot-path"),
        wire_decode: markers.iter().any(|(_, m)| m == "wire-format(decode)"),
        test,
        calls: Vec::new(),
    })
}

/// Harvests call sites for every fn, attributing tokens to the
/// *innermost* enclosing body so nested fns own their own calls.
fn attach_calls(file: &SourceFile, fns: &mut [FnInfo]) {
    for idx in 0..fns.len() {
        let Some((open, close)) = fns[idx].body else {
            continue;
        };
        // Code-index ranges of strictly nested fn bodies to skip.
        let nested: Vec<(usize, usize)> = fns
            .iter()
            .filter_map(|other| other.body)
            .filter(|&(o, c)| o > open && c < close)
            .collect();
        let mut calls = Vec::new();
        let mut j = open + 1;
        while j < close {
            if let Some(&(_, nc)) = nested.iter().find(|&&(no, nc)| no <= j && j <= nc) {
                j = nc + 1;
                continue;
            }
            let tok = file.tokens[file.code[j]];
            if tok.kind == TokenKind::Ident {
                let text = file.code_tok(j);
                let next = file
                    .code
                    .get(j + 1)
                    .map_or("", |&n| file.tokens[n].text(&file.text));
                let prev = j.checked_sub(1).map_or("", |p| file.code_tok(p));
                let prev2 = j.checked_sub(2).map_or("", |p| file.code_tok(p));
                if prev == "fn" {
                    // A nested fn's *name* token, not a call.
                    j += 1;
                    continue;
                }
                if next == "!" && !NON_CALL_KEYWORDS.contains(&text) {
                    // Macro invocation `name!(…)` / `name![…]` / `name!{…}`.
                    let after = file
                        .code
                        .get(j + 2)
                        .map_or("", |&n| file.tokens[n].text(&file.text));
                    if matches!(after, "(" | "[" | "{") {
                        calls.push(Call {
                            name: text.to_owned(),
                            kind: CallKind::Macro,
                            qual: None,
                            line: tok.line,
                            col: tok.col,
                        });
                    }
                } else if !NON_CALL_KEYWORDS.contains(&text) {
                    let qualified = prev == ":" && prev2 == ":";
                    // The path segment before `::name` (j-3 in code
                    // order), when it is an identifier.
                    let qual = if qualified {
                        j.checked_sub(3)
                            .filter(|&p| file.tokens[file.code[p]].kind == TokenKind::Ident)
                            .map(|p| file.code_tok(p).to_owned())
                    } else {
                        None
                    };
                    if next == "(" {
                        let kind = if prev == "." {
                            CallKind::Method
                        } else if qualified {
                            CallKind::Path
                        } else {
                            CallKind::Bare
                        };
                        calls.push(Call {
                            name: text.to_owned(),
                            kind,
                            qual,
                            line: tok.line,
                            col: tok.col,
                        });
                    } else if qualified && next != ":" {
                        // `Type::helper` passed as a value (no call
                        // parens): still an edge — the callee runs.
                        calls.push(Call {
                            name: text.to_owned(),
                            kind: CallKind::Path,
                            qual,
                            line: tok.line,
                            col: tok.col,
                        });
                    }
                }
            }
            j += 1;
        }
        fns[idx].calls = calls;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> (ParsedFile, Vec<DanglingMarker>) {
        let file = SourceFile::new("crates/demo/src/lib.rs", src);
        let mut dangling = Vec::new();
        let parsed = parse_file(&file, 0, &mut dangling);
        (parsed, dangling)
    }

    #[test]
    fn free_and_method_fns_with_owners() {
        let (p, _) = parse(
            "fn free() {}\n\
             struct S;\n\
             impl S {\n    fn method(&self) {}\n}\n\
             impl Clone for S {\n    fn clone(&self) -> S { S }\n}\n\
             trait T {\n    fn decl(&self);\n    fn with_default(&self) {}\n}\n",
        );
        let names: Vec<(&str, Option<&str>, bool)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.owner.as_deref(), f.trait_decl))
            .collect();
        assert_eq!(
            names,
            [
                ("free", None, false),
                ("method", Some("S"), false),
                ("clone", Some("S"), false),
                ("decl", Some("T"), true),
                ("with_default", Some("T"), false),
            ]
        );
    }

    #[test]
    fn generic_impl_headers_resolve_owner() {
        let (p, _) = parse(
            "impl<G: FrozenSet> TieredFilter<G> {\n    fn rotate(&mut self) {}\n}\n\
             impl<T> core::fmt::Display for Wrapper<T> where T: Copy {\n    fn fmt(&self) {}\n}\n",
        );
        assert_eq!(p.fns[0].owner.as_deref(), Some("TieredFilter"));
        assert_eq!(p.fns[1].owner.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn call_sites_classified() {
        let (p, _) = parse(
            "fn caller(x: &[u8]) {\n\
             \x20   helper();\n\
             \x20   self.table.probe(x);\n\
             \x20   Vec::with_capacity(4);\n\
             \x20   assert!(x.len() > 1);\n\
             \x20   let f = Self::mapper;\n\
             \x20   if x.is_empty() {}\n\
             }\n",
        );
        let calls: Vec<(&str, CallKind)> = p.fns[0]
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.kind))
            .collect();
        assert!(calls.contains(&("helper", CallKind::Bare)));
        assert!(calls.contains(&("probe", CallKind::Method)));
        assert!(calls.contains(&("with_capacity", CallKind::Path)));
        assert!(calls.contains(&("assert", CallKind::Macro)));
        assert!(calls.contains(&("mapper", CallKind::Path)));
        assert!(calls.contains(&("is_empty", CallKind::Method)));
        // Keywords are not calls.
        assert!(!calls.iter().any(|(n, _)| *n == "if"));
    }

    #[test]
    fn nested_fn_owns_its_calls() {
        let (p, _) = parse("fn outer() {\n    fn inner() { deep(); }\n    shallow();\n}\n");
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = p.fns.iter().find(|f| f.name == "inner").unwrap();
        assert!(outer.calls.iter().any(|c| c.name == "shallow"));
        assert!(!outer.calls.iter().any(|c| c.name == "deep"));
        assert!(inner.calls.iter().any(|c| c.name == "deep"));
    }

    #[test]
    fn hot_path_marker_binds_through_attrs_and_docs() {
        let (p, dangling) = parse(
            "// lint: hot-path\n\
             /// Probes the bucket.\n\
             #[inline]\n\
             #[must_use]\n\
             pub fn contains(&self) -> bool { true }\n\
             pub fn cold() {}\n",
        );
        assert!(p.fns[0].hot_path);
        assert!(!p.fns[1].hot_path);
        assert!(dangling.is_empty());
    }

    #[test]
    fn dangling_marker_is_reported() {
        let (_, dangling) = parse("// lint: hot-path\nconst X: u32 = 4;\n");
        assert_eq!(dangling.len(), 1);
        assert_eq!(dangling[0].marker, "hot-path");
    }

    #[test]
    fn enum_variants_with_payloads_and_markers() {
        let (p, _) = parse(
            "// lint: wire-format\n\
             pub enum WireError {\n\
             \x20   #[doc(hidden)]\n\
             \x20   BadMagic { got: u16 },\n\
             \x20   BadOpcode(u8, u32),\n\
             \x20   Empty = 3,\n\
             }\n\
             enum Plain { A, B }\n",
        );
        assert_eq!(p.enums.len(), 2);
        assert!(p.enums[0].wire);
        let names: Vec<&str> = p.enums[0]
            .variants
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, ["BadMagic", "BadOpcode", "Empty"]);
        assert!(!p.enums[1].wire);
    }

    #[test]
    fn cfg_test_fns_are_marked_test() {
        let (p, _) = parse("fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n");
        assert!(!p.fns[0].test);
        assert!(p.fns[1].test);
    }

    #[test]
    fn wire_decode_marker_on_fn() {
        let (p, _) = parse(
            "// lint: wire-format(decode)\n\
             pub fn decode(buffer: &[u8]) -> Result<(), ()> { Ok(()) }\n",
        );
        assert!(p.fns[0].wire_decode);
        assert!(!p.fns[0].hot_path);
    }
}
