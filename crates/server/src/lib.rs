//! Filter-as-a-service: a batched binary wire server over the sharded
//! Vertical Cuckoo Filters.
//!
//! The crate splits into:
//!
//! * [`protocol`] — the little-endian frame format (`"VF"` requests,
//!   `"VR"` responses, 8-byte key hashes, per-key outcome bits) and its
//!   malformed-frame classification;
//! * [`codec`] — stream framing over TCP/Unix-domain sockets, plus the
//!   blocking [`codec::Client`];
//! * [`executor`] — the thread-per-core shard-affinity executor: each
//!   worker thread exclusively owns a shard group, so a key's ops always
//!   execute on the thread holding its shard's cache lines;
//! * [`server`] — accept loop, per-connection frame loop, engine
//!   construction ([`vcf_core::ShardedConcurrentVcf`] by default,
//!   [`vcf_core::ShardedScalableVcf`] with `--elastic`);
//! * [`loadgen`] — deterministic traffic generation (uniform, Zipf,
//!   churn, HIGGS) and the benchmark sweep behind `BENCH_server.json`;
//! * [`metrics`] — the crate's only atomics: counters and the stop
//!   flag.
//!
//! See `DESIGN.md` §13 for the wire format table and the threading and
//! backpressure model.

#![forbid(unsafe_code)]

pub mod codec;
pub mod executor;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use codec::{Client, Endpoint, Frame, FrameReader, Reply, WireStream};
pub use executor::{ExecScratch, ExecutorDown, ShardEngine, ShardExecutor};
pub use loadgen::{ConnCapture, LoadgenConfig, LoadgenReport, SweepPoint, WorkloadKind};
pub use metrics::{MetricsSnapshot, ServerMetrics, StopFlag};
pub use protocol::{OpCode, RequestHeader, ResponseHeader, WireError, MAX_BATCH};
pub use server::{build_engine, ServerConfig, ServerHandle};
