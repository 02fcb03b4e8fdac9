//! Failing fixture for the workspace `unsafe_code` and
//! `unsafe_op_in_unsafe_fn` levels: a crate root that pins no unsafe
//! policy of its own, with an unsafe operation outside an `unsafe` block.

/// Reads through a raw pointer.
///
/// # Safety
///
/// `p` must be valid for reads.
pub unsafe fn read_unchecked(p: *const u64) -> u64 {
    *p
}
