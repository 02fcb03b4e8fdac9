//! `loc`: non-test source lines per crate — the size figure each change
//! record quotes.
//!
//! A line counts when it lies outside every `#[cfg(test)]` item, as
//! [`SourceFile::is_test_line`] marks them; blank and comment lines
//! count too, so the figure tracks what a reader has to page through.
//! Only `crates/*/src` is measured: integration tests, benches and
//! examples are not library code.

use crate::source::SourceFile;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Non-test lines of one source file.
pub fn non_test_lines(file: &SourceFile) -> usize {
    let lines = file.text.lines().count() as u32;
    (1..=lines).filter(|&l| !file.is_test_line(l)).count()
}

/// `(relative path, non-test lines)` for every `.rs` file under
/// `root/crates/*/src`, sorted by path.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn per_file(root: &Path) -> io::Result<Vec<(String, usize)>> {
    let mut rels = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)?.filter_map(Result::ok) {
            if let Ok(name) = entry.file_name().into_string() {
                crate::collect_rs(
                    root,
                    &PathBuf::from("crates").join(name).join("src"),
                    &mut rels,
                )?;
            }
        }
    }
    rels.sort();
    rels.into_iter()
        .map(|rel| {
            let text = fs::read_to_string(root.join(&rel))?;
            let lines = non_test_lines(&SourceFile::new(rel.as_str(), text));
            Ok((rel, lines))
        })
        .collect()
}

/// Sums [`per_file`] counts by crate directory name, sorted by name.
pub fn per_crate(files: &[(String, usize)]) -> Vec<(String, usize)> {
    let mut out: Vec<(String, usize)> = Vec::new();
    for (rel, lines) in files {
        let name = rel
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or(rel);
        match out.last_mut() {
            Some((last, total)) if last == name => *total += lines,
            _ => out.push((name.to_owned(), *lines)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_crate_sums_sorted_files() {
        let files = vec![
            ("crates/a/src/lib.rs".to_owned(), 10),
            ("crates/a/src/x.rs".to_owned(), 5),
            ("crates/b/src/lib.rs".to_owned(), 7),
        ];
        assert_eq!(
            per_crate(&files),
            vec![("a".to_owned(), 15), ("b".to_owned(), 7)]
        );
    }
}
