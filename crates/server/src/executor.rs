//! Thread-per-core shard-affinity executor.
//!
//! The server owns one [`ShardExecutor`] shared by every connection.
//! Worker thread `w` exclusively executes operations for the shard
//! group `{s : s % workers == w}` — a key's ops always land on the
//! thread owning its shard, so shard-local cache lines stay hot on one
//! core and two workers never contend on the same shard's buckets.
//! (The offline workspace has no CPU-affinity syscall access, so the
//! pinning is *data* affinity: the OS may migrate the thread, but the
//! shard→thread ownership never changes.)
//!
//! A connection thread routes each frame's keys by
//! [`ShardEngine::shard_of`], dispatches one `Job` per involved
//! worker, then reassembles the per-key outcome bits into the response
//! bitmap in input order. Per-key ordering is preserved end to end:
//! a key always maps to one shard and hence one worker, workers keep a
//! frame's per-shard runs in input order (stable sort), and frames on a
//! connection are strictly serialized by the one-in-flight protocol.
//!
//! This module is on the server hot path and is written panic-free
//! (checked by `vcf-xtask lint`'s no-panic rule).

use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

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
/// bytes (kept by value so jobs borrow nothing from the frame buffer).
#[derive(Debug, Clone, Copy)]
struct Item {
    pos: u32,
    shard: u16,
    key: [u8; KEY_LEN],
}

/// One worker's slice of a frame.
struct Job {
    op: BatchOpKind,
    items: Vec<Item>,
    reply: mpsc::Sender<WorkerReply>,
}

/// A worker's answer: outcome bit per routed item, plus the (cleared)
/// item buffer handed back for reuse.
struct WorkerReply {
    worker: u32,
    results: Vec<(u32, bool)>,
    items: Vec<Item>,
}

/// The executor went away (worker threads stopped); the server reports
/// an internal error and closes the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorDown;

/// Per-connection routing scratch: a private reply channel plus one
/// reusable item buffer per worker, so steady-state frames allocate
/// nothing on the routing side.
pub struct ExecScratch {
    reply_tx: mpsc::Sender<WorkerReply>,
    reply_rx: mpsc::Receiver<WorkerReply>,
    per_worker: Vec<Vec<Item>>,
}

/// Thread-per-core batch executor over an [`ShardEngine`].
pub struct ShardExecutor {
    engine: Arc<dyn ShardEngine>,
    senders: Vec<mpsc::Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl ShardExecutor {
    /// Spawns `workers` worker threads over `engine`, clamped to
    /// `1..=shard_count` so every worker owns at least one shard.
    #[must_use]
    pub fn new(engine: Arc<dyn ShardEngine>, workers: usize) -> Self {
        let workers = workers.clamp(1, engine.shard_count().max(1));
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for worker in 0..workers {
            let (tx, rx) = mpsc::channel::<Job>();
            senders.push(tx);
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                worker_loop(&engine, worker as u32, &rx);
            }));
        }
        Self {
            engine,
            senders,
            handles,
        }
    }

    /// The engine the workers execute against.
    #[must_use]
    pub fn engine(&self) -> &Arc<dyn ShardEngine> {
        &self.engine
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// Fresh per-connection scratch sized for this executor.
    #[must_use]
    pub fn scratch(&self) -> ExecScratch {
        let (reply_tx, reply_rx) = mpsc::channel();
        ExecScratch {
            reply_tx,
            reply_rx,
            per_worker: (0..self.workers()).map(|_| Vec::new()).collect(),
        }
    }

    // lint: hot-path
    /// Executes one data frame: routes `payload` (concatenated 8-byte
    /// keys) to the owning workers, blocks for their replies, and sets
    /// the per-key outcome bits in `bitmap` (which the caller supplies
    /// zeroed, sized `bitmap_len(count)`).
    ///
    /// # Errors
    ///
    /// [`ExecutorDown`] if the worker threads have stopped.
    pub fn execute(
        &self,
        op: BatchOpKind,
        payload: &[u8],
        scratch: &mut ExecScratch,
        bitmap: &mut [u8],
    ) -> Result<(), ExecutorDown> {
        let workers = self.workers();
        if workers == 0 {
            return Err(ExecutorDown);
        }
        for (pos, chunk) in payload.chunks_exact(KEY_LEN).enumerate() {
            let mut key = [0u8; KEY_LEN];
            key.copy_from_slice(chunk);
            let shard = self.engine.shard_of(&key);
            let item = Item {
                pos: pos as u32,
                shard: shard as u16,
                key,
            };
            if let Some(bucket) = scratch.per_worker.get_mut(shard % workers) {
                bucket.push(item);
            }
        }

        let mut dispatched = 0usize;
        for (worker, bucket) in scratch.per_worker.iter_mut().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let job = Job {
                op,
                items: std::mem::take(bucket),
                reply: scratch.reply_tx.clone(),
            };
            match self.senders.get(worker) {
                Some(tx) if tx.send(job).is_ok() => dispatched += 1,
                _ => return Err(ExecutorDown),
            }
        }

        for _ in 0..dispatched {
            let Ok(mut reply) = scratch.reply_rx.recv() else {
                return Err(ExecutorDown);
            };
            for &(pos, bit) in &reply.results {
                if bit {
                    bitmap_set(bitmap, pos as usize);
                }
            }
            reply.items.clear();
            if let Some(bucket) = scratch.per_worker.get_mut(reply.worker as usize) {
                *bucket = reply.items;
            }
        }
        Ok(())
    }

    /// Stops the workers and joins them. Idempotent; also run by drop.
    pub fn shutdown(&mut self) {
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ShardExecutor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Worker body: drain jobs until every sender is gone. Items arrive in
/// frame order; a stable sort groups them by shard while preserving
/// input order within each shard, then each run executes as one batch
/// on the shard's prefetch pipeline.
fn worker_loop(engine: &Arc<dyn ShardEngine>, worker: u32, rx: &mpsc::Receiver<Job>) {
    while let Ok(mut job) = rx.recv() {
        job.items.sort_by_key(|item| item.shard);
        let mut results = Vec::with_capacity(job.items.len());
        let mut keys: Vec<&[u8]> = Vec::with_capacity(job.items.len());
        let mut rest: &[Item] = &job.items;
        while let Some(first) = rest.first() {
            let shard = first.shard;
            let run_len = rest.iter().take_while(|item| item.shard == shard).count();
            let (run, tail) = rest.split_at(run_len);
            rest = tail;
            keys.clear();
            keys.extend(run.iter().map(|item| &item.key[..]));
            let bits = engine.shard_execute(shard as usize, job.op, &keys);
            results.extend(run.iter().zip(bits).map(|(item, bit)| (item.pos, bit)));
        }
        let reply = WorkerReply {
            worker,
            results,
            items: job.items,
        };
        let _ = job.reply.send(reply);
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
        exec.execute(op, &payload, scratch, &mut bitmap)
            .expect("workers alive");
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
            let exec = ShardExecutor::new(test_engine(), 3);
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
        let exec = ShardExecutor::new(test_engine(), 2);
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
    fn worker_count_is_clamped_to_shard_count() {
        let exec = ShardExecutor::new(test_engine(), 64);
        assert_eq!(exec.workers(), 8); // 3 shard bits
        let exec = ShardExecutor::new(test_engine(), 0);
        assert_eq!(exec.workers(), 1);
    }

    #[test]
    fn shutdown_then_execute_reports_down() {
        let mut exec = ShardExecutor::new(test_engine(), 2);
        let mut scratch = exec.scratch();
        exec.shutdown();
        let payload = keys_payload(&[1, 2, 3]);
        let mut bitmap = vec![0u8; 1];
        assert_eq!(
            exec.execute(BatchOpKind::Insert, &payload, &mut scratch, &mut bitmap),
            Err(ExecutorDown)
        );
    }

    #[test]
    fn empty_payload_is_a_no_op() {
        let exec = ShardExecutor::new(test_engine(), 2);
        let mut scratch = exec.scratch();
        let mut bitmap = [0u8; 0];
        assert_eq!(
            exec.execute(BatchOpKind::Lookup, &[], &mut scratch, &mut bitmap),
            Ok(())
        );
    }
}
