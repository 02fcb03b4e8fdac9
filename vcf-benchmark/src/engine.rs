//! The served engine, kept concretely typed so the benchmark can read
//! its `stats()`, segment chain and migration backlog, plus the
//! [`TracedEngine`] wrapper that records one span per shard run.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use vcf_core::{ShardedConcurrentVcf, ShardedScalableVcf};
use vcf_server::{Endpoint, ServerConfig, ShardEngine};
use vcf_traits::{BatchOpKind, Stats};

use crate::gen::KeySpace;
use crate::workload::{Plan, CONNECTIONS, SHARD_BITS};

/// The two engines the server can serve.
pub enum Engine {
    /// Fixed-capacity lock-free shards.
    Fixed(Arc<ShardedConcurrentVcf>),
    /// Elastic, segment-growing shards.
    Elastic(Arc<ShardedScalableVcf>),
}

/// A freshly built engine after its prefill.
pub struct Prefilled {
    /// The engine.
    pub engine: Engine,
    /// Per connection, the prefill keys the engine refused.
    pub refused: Vec<Vec<u64>>,
    /// Per connection, how many data ids the prefill covered.
    pub per_conn: u64,
    /// Entries stored by the prefill.
    pub stored: u64,
}

/// The server configuration every run uses: UDS at `socket`, one worker
/// per connection, the default hash seed.
#[must_use]
pub fn server_config(plan: &Plan, socket: std::path::PathBuf) -> ServerConfig {
    let mut config = ServerConfig::new(Endpoint::Uds(socket));
    config.slots = plan.slots();
    config.shard_bits = SHARD_BITS;
    config.workers = CONNECTIONS;
    config.elastic = plan.workload.elastic;
    config
}

/// Keys per `insert_batch` call while prefilling; bounds the key buffer.
const PREFILL_CHUNK: u64 = 1 << 16;

impl Engine {
    /// Builds the plan's engine and inserts each connection's share of
    /// the prefill through `ShardRouter::insert_batch`.
    ///
    /// # Panics
    ///
    /// Panics if the plan's geometry is rejected, which is a bug in the
    /// workload table.
    #[must_use]
    pub fn build(plan: &Plan, config: &ServerConfig, seed: u64) -> Prefilled {
        let cuckoo = config.cuckoo_config();
        let engine = if config.elastic {
            Engine::Elastic(Arc::new(
                ShardedScalableVcf::new(cuckoo, config.shard_bits).expect("valid geometry"),
            ))
        } else {
            Engine::Fixed(Arc::new(
                ShardedConcurrentVcf::new(cuckoo, config.shard_bits).expect("valid geometry"),
            ))
        };
        let per_conn = plan.prefill_keys() / CONNECTIONS as u64;
        let mut refused = Vec::with_capacity(CONNECTIONS);
        let mut stored = 0;
        let mut bytes: Vec<[u8; 8]> = Vec::new();
        for conn in 0..CONNECTIONS {
            let space = KeySpace::new(seed, conn);
            let mut conn_refused = Vec::new();
            let mut start = 0;
            while start < per_conn {
                let end = (start + PREFILL_CHUNK).min(per_conn);
                bytes.clear();
                bytes.extend((start..end).map(|i| space.data(i).to_le_bytes()));
                let refs: Vec<&[u8]> = bytes.iter().map(|k| &k[..]).collect();
                for (key, result) in bytes.iter().zip(engine.insert_batch(&refs)) {
                    match result {
                        Ok(()) => stored += 1,
                        Err(_) => conn_refused.push(u64::from_le_bytes(*key)),
                    }
                }
                start = end;
            }
            refused.push(conn_refused);
        }
        Prefilled {
            engine,
            refused,
            per_conn,
            stored,
        }
    }

    fn insert_batch(&self, keys: &[&[u8]]) -> Vec<Result<(), vcf_traits::InsertError>> {
        match self {
            Engine::Fixed(e) => e.insert_batch(keys),
            Engine::Elastic(e) => e.insert_batch(keys),
        }
    }

    /// The engine as the server's object-safe routing surface.
    #[must_use]
    pub fn shard_engine(&self) -> Arc<dyn ShardEngine> {
        match self {
            Engine::Fixed(e) => Arc::clone(e) as Arc<dyn ShardEngine>,
            Engine::Elastic(e) => Arc::clone(e) as Arc<dyn ShardEngine>,
        }
    }

    /// Aggregate operation counters across shards.
    #[must_use]
    pub fn stats(&self) -> Stats {
        match self {
            Engine::Fixed(e) => e.stats(),
            Engine::Elastic(e) => e.stats(),
        }
    }

    /// Stored entries over slot capacity.
    #[must_use]
    pub fn load_factor(&self) -> f64 {
        match self {
            Engine::Fixed(e) => e.load_factor(),
            Engine::Elastic(e) => e.load_factor(),
        }
    }

    /// Longest segment chain of any shard (1 for fixed shards).
    #[must_use]
    pub fn segments_max(&self) -> usize {
        match self {
            Engine::Fixed(_) => 1,
            Engine::Elastic(e) => e.shard_segments().into_iter().max().unwrap_or(1),
        }
    }

    /// Cold buckets still to migrate, over all shards (0 for fixed).
    #[must_use]
    pub fn migration_backlog(&self) -> usize {
        match self {
            Engine::Fixed(_) => 0,
            Engine::Elastic(e) => e.migration_backlog(),
        }
    }
}

/// One `shard_execute` call as seen from outside the engine.
#[derive(Debug, Clone, Copy)]
pub struct ShardSpan {
    /// The batch kind.
    pub op: BatchOpKind,
    /// The shard it ran on.
    pub shard: usize,
    /// Keys in the run.
    pub keys: usize,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Small per-trace index of the executing thread.
    pub thread: usize,
}

#[derive(Default)]
struct SpanLog {
    spans: Vec<ShardSpan>,
    threads: Vec<ThreadId>,
}

/// A [`ShardEngine`] that times every `shard_execute` of the engine it
/// wraps and keeps the spans in memory until [`Self::take_spans`].
pub struct TracedEngine {
    inner: Arc<dyn ShardEngine>,
    epoch: Instant,
    log: Mutex<SpanLog>,
}

impl TracedEngine {
    /// Wraps `inner`; span times count from `epoch`.
    #[must_use]
    pub fn new(inner: Arc<dyn ShardEngine>, epoch: Instant) -> Self {
        Self {
            inner,
            epoch,
            log: Mutex::new(SpanLog::default()),
        }
    }

    /// Removes and returns the spans recorded so far, oldest first.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the log.
    pub fn take_spans(&self) -> Vec<ShardSpan> {
        std::mem::take(&mut self.log.lock().expect("span log poisoned").spans)
    }
}

/// Nanoseconds from `epoch` to `at`.
#[must_use]
pub fn since(epoch: Instant, at: Instant) -> u64 {
    u64::try_from(at.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

impl ShardEngine for TracedEngine {
    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn shard_of(&self, key: &[u8]) -> usize {
        self.inner.shard_of(key)
    }

    fn shard_execute(&self, shard: usize, op: BatchOpKind, keys: &[&[u8]]) -> Vec<bool> {
        let start = Instant::now();
        let bits = self.inner.shard_execute(shard, op, keys);
        let end = Instant::now();
        let me = std::thread::current().id();
        let mut log = self
            .log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let thread = match log.threads.iter().position(|&t| t == me) {
            Some(index) => index,
            None => {
                log.threads.push(me);
                log.threads.len() - 1
            }
        };
        log.spans.push(ShardSpan {
            op,
            shard,
            keys: keys.len(),
            start_ns: since(self.epoch, start),
            end_ns: since(self.epoch, end),
            thread,
        });
        bits
    }

    fn total_len(&self) -> usize {
        self.inner.total_len()
    }

    fn total_capacity(&self) -> usize {
        self.inner.total_capacity()
    }

    fn engine_name(&self) -> String {
        format!("Traced<{}>", self.inner.engine_name())
    }
}
