//! A lexed source file plus the derived structure the rules share:
//! `#[cfg(test)]` line spans, function spans (with their `debug_assert`
//! usage), and inline lint waivers.
//!
//! # Waivers
//!
//! A rule violation can be locally allowed with a comment of the form:
//!
//! ```text
//! // lint: allow(rule-id) — reason the invariant still holds
//! // lint: allow(rule-id, item) — reason; covers the whole next item
//! ```
//!
//! The reason is mandatory: a waiver without one is itself a violation
//! (`lint-waiver`), and a waiver that suppresses nothing is flagged as
//! stale (`stale-waiver`) so allowlists cannot rot. The plain form covers
//! the waiver's own line and the next code line; the `item` form covers
//! the next item's entire body (through its closing brace).

use crate::lexer::{lex, Token, TokenKind};
use std::cell::Cell;

/// Line span of one `fn` body, with the facts the hot-path rule needs.
#[derive(Debug, Clone, Copy)]
pub struct FnSpan {
    /// Line of the `fn` keyword.
    pub first_line: u32,
    /// Line of the body's closing brace.
    pub last_line: u32,
    /// Whether the body calls any `debug_assert…` macro.
    pub has_debug_assert: bool,
}

/// One parsed `// lint: allow(…)` comment.
#[derive(Debug)]
pub struct Waiver {
    /// Rule id being waived.
    pub rule: String,
    /// Line of the waiver comment.
    pub line: u32,
    /// Last line (inclusive) the waiver covers.
    pub last_line: u32,
    /// Justification text (mandatory).
    pub reason: String,
    /// Set when the waiver suppressed at least one diagnostic.
    pub used: Cell<bool>,
    /// True when the comment was malformed (e.g. missing reason).
    pub malformed: bool,
}

/// A lexed workspace file with derived rule context.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Full file contents.
    pub text: String,
    /// All tokens, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens.
    pub code: Vec<usize>,
    /// Parsed lint waivers.
    pub waivers: Vec<Waiver>,
    test_lines: Vec<bool>,
    fns: Vec<FnSpan>,
}

impl SourceFile {
    /// Lexes `text` and derives spans and waivers.
    pub fn new(rel: impl Into<String>, text: impl Into<String>) -> Self {
        let text = text.into();
        let tokens = lex(&text);
        let code: Vec<usize> = (0..tokens.len())
            .filter(|&i| {
                !matches!(
                    tokens[i].kind,
                    TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .collect();
        let line_count = text.lines().count() + 2;
        let mut file = Self {
            rel: rel.into(),
            text,
            tokens,
            code,
            waivers: Vec::new(),
            test_lines: vec![false; line_count],
            fns: Vec::new(),
        };
        file.compute_test_lines();
        file.compute_fn_spans();
        file.compute_waivers();
        file
    }

    /// Text of token `i` (an index into [`Self::tokens`]).
    pub fn tok(&self, i: usize) -> &str {
        self.tokens[i].text(&self.text)
    }

    /// Text of the `k`-th *code* token.
    pub fn code_tok(&self, k: usize) -> &str {
        self.tok(self.code[k])
    }

    /// Whether `line` lies inside a `#[cfg(test)]` item.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines.get(line as usize).copied().unwrap_or(false)
    }

    /// The innermost `fn` span containing `line`, if any.
    pub fn enclosing_fn(&self, line: u32) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.first_line <= line && line <= f.last_line)
            .min_by_key(|f| f.last_line - f.first_line)
    }

    /// Starting at code index `k` (an opening delimiter `(`/`[`/`{`),
    /// returns the code index of its matching closing delimiter.
    pub fn matching_close(&self, k: usize) -> usize {
        let open = self.code_tok(k);
        let close = match open {
            "(" => ")",
            "[" => "]",
            "{" => "}",
            _ => return k,
        };
        let mut depth = 0usize;
        let mut j = k;
        while j < self.code.len() {
            let t = self.code_tok(j);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            j += 1;
        }
        self.code.len() - 1
    }

    /// Marks the line spans of items annotated `#[cfg(test)]` (or any
    /// `cfg` whose arguments mention `test` without a `not(..)`).
    fn compute_test_lines(&mut self) {
        let mut spans: Vec<(u32, u32)> = Vec::new();
        let mut k = 0usize;
        while k + 1 < self.code.len() {
            if !(self.code_tok(k) == "#" && self.code_tok(k + 1) == "[") {
                k += 1;
                continue;
            }
            let close = self.matching_close(k + 1);
            let inner: Vec<&str> = (k + 2..close).map(|j| self.code_tok(j)).collect();
            let is_cfg_test =
                inner.first() == Some(&"cfg") && inner.contains(&"test") && !inner.contains(&"not");
            if !is_cfg_test {
                k = close + 1;
                continue;
            }
            // Skip any further attributes between the cfg and the item.
            let mut j = close + 1;
            while j + 1 < self.code.len() && self.code_tok(j) == "#" && self.code_tok(j + 1) == "["
            {
                j = self.matching_close(j + 1) + 1;
            }
            // The item body is the first top-level `{ … }`; an item that
            // ends with `;` first (e.g. `use`) spans up to that line.
            let start_line = self.tokens[self.code[k]].line;
            let mut depth = 0usize;
            let mut end_line = start_line;
            while j < self.code.len() {
                match self.code_tok(j) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    "{" if depth == 0 => {
                        let body_close = self.matching_close(j);
                        end_line = self.tokens[self.code[body_close]].line;
                        break;
                    }
                    ";" if depth == 0 => {
                        end_line = self.tokens[self.code[j]].line;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            spans.push((start_line, end_line));
            k = close + 1;
        }
        for (a, z) in spans {
            for line in a..=z {
                if let Some(slot) = self.test_lines.get_mut(line as usize) {
                    *slot = true;
                }
            }
        }
    }

    /// Records every `fn` body span and whether it debug-asserts.
    fn compute_fn_spans(&mut self) {
        let mut fns = Vec::new();
        for k in 0..self.code.len() {
            if self.code_tok(k) != "fn" {
                continue;
            }
            // `fn(` is a function-pointer type, not a definition.
            let Some(name_k) = self.code.get(k + 1) else {
                continue;
            };
            if self.tokens[*name_k].kind != TokenKind::Ident {
                continue;
            }
            // Find the body `{` (or `;` for a bodyless trait method) at
            // top delimiter level after the signature.
            let mut depth = 0usize;
            let mut j = k + 2;
            let mut body = None;
            while j < self.code.len() {
                match self.code_tok(j) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    "{" if depth == 0 => {
                        body = Some(j);
                        break;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let Some(body) = body else { continue };
            let close = self.matching_close(body);
            let has_debug_assert = (body..=close).any(|idx| {
                self.tokens[self.code[idx]].kind == TokenKind::Ident
                    && self.code_tok(idx).starts_with("debug_assert")
            });
            fns.push(FnSpan {
                first_line: self.tokens[self.code[k]].line,
                last_line: self.tokens[self.code[close]].line,
                has_debug_assert,
            });
        }
        self.fns = fns;
    }

    /// Parses `// lint: allow(rule[, item]) — reason` comments.
    fn compute_waivers(&mut self) {
        let mut waivers = Vec::new();
        for (i, tok) in self.tokens.iter().enumerate() {
            if tok.kind != TokenKind::LineComment {
                continue;
            }
            let body = self.tok(i).trim_start_matches('/').trim();
            let Some(args) = body.strip_prefix("lint: allow(") else {
                continue;
            };
            let Some((inside, rest)) = args.split_once(')') else {
                waivers.push(malformed(tok.line, body));
                continue;
            };
            let mut parts = inside.split(',').map(str::trim);
            let rule = parts.next().unwrap_or_default().to_owned();
            let scope_item = match parts.next() {
                None => false,
                Some("item") => true,
                Some(_) => {
                    waivers.push(malformed(tok.line, body));
                    continue;
                }
            };
            let reason = rest
                .trim_start_matches([' ', '\u{2014}', '-', ':'])
                .trim()
                .to_owned();
            if rule.is_empty() || reason.is_empty() {
                waivers.push(malformed(tok.line, body));
                continue;
            }
            let last_line = if scope_item {
                self.item_end_after(tok.line)
            } else {
                self.next_code_line(tok.line)
            };
            waivers.push(Waiver {
                rule,
                line: tok.line,
                last_line,
                reason,
                used: Cell::new(false),
                malformed: false,
            });
        }
        self.waivers = waivers;
    }

    /// Line of the first code token after `line` (the statement a plain
    /// waiver covers); falls back to `line` itself at end of file.
    fn next_code_line(&self, line: u32) -> u32 {
        self.code
            .iter()
            .map(|&i| self.tokens[i].line)
            .find(|&l| l > line)
            .unwrap_or(line)
    }

    /// Closing-brace line of the first item starting after `line` (what
    /// an `item`-scoped waiver covers).
    fn item_end_after(&self, line: u32) -> u32 {
        let Some(first) = self.code.iter().position(|&i| self.tokens[i].line > line) else {
            return line;
        };
        let mut depth = 0usize;
        let mut j = first;
        while j < self.code.len() {
            match self.code_tok(j) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" if depth == 0 => {
                    let close = self.matching_close(j);
                    return self.tokens[self.code[close]].line;
                }
                ";" if depth == 0 => return self.tokens[self.code[j]].line,
                _ => {}
            }
            j += 1;
        }
        line
    }
}

fn malformed(line: u32, body: &str) -> Waiver {
    Waiver {
        rule: String::new(),
        line,
        last_line: line,
        reason: body.to_owned(),
        used: Cell::new(true),
        malformed: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_spans_cover_module_body() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let f = SourceFile::new("x.rs", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_span() {
        let src = "#[cfg(not(test))]\nfn live() { body(); }\n";
        let f = SourceFile::new("x.rs", src);
        assert!(!f.is_test_line(2));
    }

    #[test]
    fn fn_spans_track_debug_assert() {
        let src = "fn a(x: usize) {\n    debug_assert!(x < 4);\n    body();\n}\nfn b() {\n    body();\n}\n";
        let f = SourceFile::new("x.rs", src);
        assert!(f.enclosing_fn(3).is_some_and(|s| s.has_debug_assert));
        assert!(f.enclosing_fn(6).is_some_and(|s| !s.has_debug_assert));
        assert!(f.enclosing_fn(20).is_none());
    }

    #[test]
    fn waiver_parses_rule_scope_and_reason() {
        let src = "// lint: allow(panic-reachability) — index bounded by loop condition\nlet x = v[i];\n// lint: allow(atomic-ordering, item) — whole item justified\nfn f() {\n    body();\n}\n";
        let f = SourceFile::new("x.rs", src);
        assert_eq!(f.waivers.len(), 2);
        assert_eq!(f.waivers[0].rule, "panic-reachability");
        assert_eq!((f.waivers[0].line, f.waivers[0].last_line), (1, 2));
        assert!(f.waivers[0].reason.contains("bounded"));
        assert_eq!(f.waivers[1].rule, "atomic-ordering");
        assert_eq!((f.waivers[1].line, f.waivers[1].last_line), (3, 6));
    }

    #[test]
    fn waiver_without_reason_is_malformed() {
        let f = SourceFile::new("x.rs", "// lint: allow(some-rule)\nlet x = 1;\n");
        assert_eq!(f.waivers.len(), 1);
        assert!(f.waivers[0].malformed);
    }
}
