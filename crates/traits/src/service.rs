//! The batched-op kinds a wire server dispatches.
//!
//! A filter server's data plane never sees single operations — frames
//! carry whole batches of one operation kind, and the per-key outcome is
//! a single bit on the wire (insert: stored?, lookup: present?, delete:
//! removed?). [`BatchOpKind`] names those three kinds; the server's
//! shard engine lowers each one onto a shard's batched entry point
//! (`insert_batch` / `contains_batch` / `delete_batch`) so the prefetch
//! pipelines underneath them stay on the hot path.

/// Kind of a data-plane batch operation, mirroring the wire opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchOpKind {
    /// Store every key; per-key bit = 1 when stored, 0 when the filter
    /// was too full.
    Insert,
    /// Membership-test every key; per-key bit = the (approximate) answer.
    Lookup,
    /// Remove one copy of every key; per-key bit = 1 when a matching
    /// entry was found and removed.
    Delete,
}

impl BatchOpKind {
    /// Short lowercase label used by metrics and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BatchOpKind::Insert => "insert",
            BatchOpKind::Lookup => "lookup",
            BatchOpKind::Delete => "delete",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_are_stable() {
        assert_eq!(BatchOpKind::Insert.label(), "insert");
        assert_eq!(BatchOpKind::Lookup.label(), "lookup");
        assert_eq!(BatchOpKind::Delete.label(), "delete");
    }
}
