// Failing fixture for clippy's `undocumented_unsafe_blocks`: an unsafe
// block with no `// SAFETY:` comment.
pub fn read_first(p: *const u64) -> u64 {
    unsafe { *p }
}
