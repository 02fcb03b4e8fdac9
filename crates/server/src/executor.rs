//! Connection-thread shard executor.
//!
//! The server owns one [`ShardExecutor`] shared by every connection.
//! The connection thread that decoded a frame also executes it: it
//! routes each key by [`ShardEngine::shard_of`], groups the frame's
//! keys by shard, runs each shard's keys as one
//! [`ShardEngine::shard_execute`] batch, and sets the per-key outcome
//! bits in the response bitmap. No other thread takes part: a hand-off
//! to worker threads costs two cross-thread wake-ups per frame, more
//! than the filter work of a small frame (DESIGN.md §13.2).
//!
//! Per-key ordering is preserved end to end: a key always maps to one
//! shard, a shard's run keeps the frame's input order, and frames on a
//! connection are strictly serialized by the one-in-flight protocol.
//! Frames from different connections may run on one shard at the same
//! time; both served engines are `Sync` (`ConcurrentVcf` claims slots
//! by CAS and relocates under stripe locks, and each `ScalableVcf`
//! shard sits behind its own `RwLock`, of which a connection thread
//! holds at most one at a time).
//!
//! This module is on the server hot path and is written panic-free
//! (checked by `vcf-xtask lint`'s no-panic rule).

use std::convert::Infallible;
use std::sync::Arc;

use vcf_core::ShardRouter;
use vcf_traits::{BatchOpKind, ConcurrentFilter};

use crate::protocol::{bitmap_set, KEY_LEN};

/// A sharded batched-op engine the executor can route over: shard
/// resolution plus per-shard batch execution, object-safe so the server
/// can hold `Arc<dyn ShardEngine>` regardless of the concrete filter.
pub trait ShardEngine: Send + Sync {
    /// Number of shards (a power of two).
    fn shard_count(&self) -> usize;

    /// Shard owning `key` — the same routing the filter itself uses.
    fn shard_of(&self, key: &[u8]) -> usize;

    /// Executes one single-kind batch entirely within `shard`,
    /// returning one outcome bit per key in input order. Out-of-range
    /// shards (impossible via [`Self::shard_of`]) yield all-false.
    fn shard_execute(&self, shard: usize, op: BatchOpKind, keys: &[&[u8]]) -> Vec<bool>;

    /// Entries stored across all shards.
    fn total_len(&self) -> usize;

    /// Entry capacity across all shards.
    fn total_capacity(&self) -> usize;

    /// Display name for logs and stats replies.
    fn engine_name(&self) -> String;
}

impl<F: ConcurrentFilter> ShardEngine for ShardRouter<F> {
    fn shard_count(&self) -> usize {
        ShardRouter::shard_count(self)
    }

    fn shard_of(&self, key: &[u8]) -> usize {
        ShardRouter::shard_of(self, key)
    }

    fn shard_execute(&self, shard: usize, op: BatchOpKind, keys: &[&[u8]]) -> Vec<bool> {
        let Some(filter) = self.shards().get(shard) else {
            return vec![false; keys.len()];
        };
        match op {
            BatchOpKind::Insert => filter
                .insert_batch(keys)
                .iter()
                .map(Result::is_ok)
                .collect(),
            BatchOpKind::Lookup => filter.contains_batch(keys),
            BatchOpKind::Delete => filter.delete_batch(keys),
        }
    }

    fn total_len(&self) -> usize {
        self.len()
    }

    fn total_capacity(&self) -> usize {
        self.capacity()
    }

    fn engine_name(&self) -> String {
        self.name()
    }
}

/// One routed key: its frame position, owning shard, and the 8 wire
/// bytes.
#[derive(Debug, Clone, Copy)]
struct Item {
    pos: u32,
    shard: u32,
    key: [u8; KEY_LEN],
}

/// Per-connection routing scratch: the frame's routed keys, reused so
/// steady-state frames do not regrow it.
pub struct ExecScratch {
    items: Vec<Item>,
}

/// Runs each frame's shard batches on the calling connection thread.
pub struct ShardExecutor {
    engine: Arc<dyn ShardEngine>,
}

impl ShardExecutor {
    /// An executor over `engine`. The `usize` (once the worker-thread
    /// count) is ignored: every frame runs on the thread that calls
    /// [`Self::execute`].
    #[must_use]
    pub fn new(engine: Arc<dyn ShardEngine>, _workers: usize) -> Self {
        Self { engine }
    }

    /// The engine frames execute against.
    #[must_use]
    pub fn engine(&self) -> &Arc<dyn ShardEngine> {
        &self.engine
    }

    /// Fresh per-connection scratch.
    #[must_use]
    pub fn scratch(&self) -> ExecScratch {
        ExecScratch { items: Vec::new() }
    }

    // lint: hot-path
    /// Executes one data frame on the calling thread: routes `payload`
    /// (concatenated 8-byte keys) to shards, runs each shard's keys as
    /// one batch in input order, and sets the per-key outcome bits in
    /// `bitmap` (which the caller supplies zeroed, sized
    /// `bitmap_len(count)`).
    ///
    /// # Errors
    ///
    /// None; the error type is [`Infallible`].
    pub fn execute(
        &self,
        op: BatchOpKind,
        payload: &[u8],
        scratch: &mut ExecScratch,
        bitmap: &mut [u8],
    ) -> Result<(), Infallible> {
        let items = &mut scratch.items;
        items.clear();
        for (pos, chunk) in payload.chunks_exact(KEY_LEN).enumerate() {
            let mut key = [0u8; KEY_LEN];
            key.copy_from_slice(chunk);
            let shard = self.engine.shard_of(&key) as u32;
            items.push(Item {
                pos: pos as u32,
                shard,
                key,
            });
        }
        // Positions are unique, so this orders each shard's run by
        // input position: the stable grouping, without a sort buffer.
        items.sort_unstable_by_key(|item| (item.shard, item.pos));
        let mut keys: Vec<&[u8]> = Vec::with_capacity(items.len());
        for run in items.chunk_by(|a, b| a.shard == b.shard) {
            let Some(first) = run.first() else { continue };
            keys.clear();
            keys.extend(run.iter().map(|item| &item.key[..]));
            let bits = self.engine.shard_execute(first.shard as usize, op, &keys);
            for (item, bit) in run.iter().zip(bits) {
                if bit {
                    bitmap_set(bitmap, item.pos as usize);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::bitmap_get;
    use vcf_core::{CuckooConfig, ShardedConcurrentVcf};

    fn test_engine() -> Arc<dyn ShardEngine> {
        let config = CuckooConfig::new(1 << 10).with_seed(7);
        Arc::new(ShardedConcurrentVcf::new(config, 3).expect("config is valid"))
    }

    fn keys_payload(keys: &[u64]) -> Vec<u8> {
        keys.iter().flat_map(|k| k.to_le_bytes()).collect()
    }

    fn run_bitmap(
        exec: &ShardExecutor,
        scratch: &mut ExecScratch,
        op: BatchOpKind,
        keys: &[u64],
    ) -> Vec<u8> {
        let payload = keys_payload(keys);
        let mut bitmap = vec![0u8; keys.len().div_ceil(8)];
        let Ok(()) = exec.execute(op, &payload, scratch, &mut bitmap);
        bitmap
    }

    #[test]
    fn executed_batches_match_direct_router_calls() {
        // A light key set, then one that overfills the 4,096-slot engine
        // so refused inserts must read as 0 bits, exactly as the oracle.
        let light: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        let overfill: Vec<u64> = (0..6_000u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        for (keys, overfills) in [(light, false), (overfill, true)] {
            let config = CuckooConfig::new(1 << 10).with_seed(7);
            let oracle = ShardedConcurrentVcf::new(config, 3).expect("config is valid");
            let exec = ShardExecutor::new(test_engine(), 0);
            let mut scratch = exec.scratch();
            let key_bytes: Vec<[u8; 8]> = keys.iter().map(|k| k.to_le_bytes()).collect();
            let key_refs: Vec<&[u8]> = key_bytes.iter().map(|k| &k[..]).collect();

            let inserted = run_bitmap(&exec, &mut scratch, BatchOpKind::Insert, &keys);
            let expected: Vec<bool> = oracle
                .insert_batch(&key_refs)
                .iter()
                .map(Result::is_ok)
                .collect();
            assert_eq!(expected.contains(&false), overfills, "refused inserts");
            for (i, want) in expected.iter().enumerate() {
                assert_eq!(bitmap_get(&inserted, i), *want, "insert bit {i}");
            }
            assert_eq!(exec.engine().total_len(), oracle.len());

            let looked = run_bitmap(&exec, &mut scratch, BatchOpKind::Lookup, &keys);
            for (i, want) in oracle.contains_batch(&key_refs).iter().enumerate() {
                assert_eq!(bitmap_get(&looked, i), *want, "lookup bit {i}");
            }

            let deleted = run_bitmap(&exec, &mut scratch, BatchOpKind::Delete, &keys);
            for (i, want) in oracle.delete_batch(&key_refs).iter().enumerate() {
                assert_eq!(bitmap_get(&deleted, i), *want, "delete bit {i}");
            }
            assert_eq!(exec.engine().total_len(), oracle.len());
        }
    }

    #[test]
    fn duplicate_keys_in_one_frame_keep_input_order() {
        let exec = ShardExecutor::new(test_engine(), 0);
        let mut scratch = exec.scratch();
        // Two copies inserted, then three deletes: exactly two succeed.
        let dup = [42u64, 42, 7];
        let inserted = run_bitmap(&exec, &mut scratch, BatchOpKind::Insert, &dup);
        assert!(bitmap_get(&inserted, 0));
        assert!(bitmap_get(&inserted, 1));
        let deletes = [42u64, 42, 42];
        let removed = run_bitmap(&exec, &mut scratch, BatchOpKind::Delete, &deletes);
        assert!(bitmap_get(&removed, 0));
        assert!(bitmap_get(&removed, 1));
        assert!(!bitmap_get(&removed, 2));
    }

    #[test]
    fn empty_payload_is_a_no_op() {
        let exec = ShardExecutor::new(test_engine(), 0);
        let mut scratch = exec.scratch();
        let mut bitmap = [0u8; 0];
        assert_eq!(
            exec.execute(BatchOpKind::Lookup, &[], &mut scratch, &mut bitmap),
            Ok(())
        );
    }
}
