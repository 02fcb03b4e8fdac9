//! Deterministic wire-traffic generation and the benchmark sweep.
//!
//! Traces are generated *before* the clock starts, per connection, from
//! the run seed alone — so a run is reproducible, the server cost being
//! measured is frames (not key generation), and a capture of the same
//! trace can be replayed against an in-process oracle for differential
//! checking.
//!
//! Key ids embed the connection index in the top byte, so concurrent
//! connections never operate on each other's keys and per-connection
//! live/dead bookkeeping stays exact even under interleaving.

use std::io;
use std::time::Instant;

use vcf_hash::{fnv1a_64, mix64, SplitMix64};
use vcf_workloads::{ChurnConfig, ChurnTrace, HiggsDataset, Op, Zipf};

use crate::codec::{Client, Endpoint};
use crate::protocol::OpCode;

/// Which traffic shape a run generates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadKind {
    /// Uniform-random lookups over the live window.
    Uniform,
    /// Zipf-distributed lookups (skew `s`) over the live window.
    Zipf {
        /// Zipf skew parameter.
        s: f64,
    },
    /// The paper's insert/delete churn trace, packed into frames.
    Churn,
    /// HIGGS-derived keys (feature records hashed to 8 bytes).
    Higgs,
}

impl WorkloadKind {
    /// Parses a CLI name: `uniform`, `zipf[:s]`, `churn`, `higgs`.
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown names or a bad skew value.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "uniform" => Ok(WorkloadKind::Uniform),
            "churn" => Ok(WorkloadKind::Churn),
            "higgs" => Ok(WorkloadKind::Higgs),
            "zipf" => Ok(WorkloadKind::Zipf { s: 0.99 }),
            other => match other.strip_prefix("zipf:") {
                Some(skew) => skew
                    .parse::<f64>()
                    .map(|s| WorkloadKind::Zipf { s })
                    .map_err(|e| format!("bad zipf skew {skew:?}: {e}")),
                None => Err(format!(
                    "workload {other:?} is not uniform|zipf[:s]|churn|higgs"
                )),
            },
        }
    }
}

/// Parameters of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server to connect to.
    pub endpoint: Endpoint,
    /// Concurrent connections (each on its own thread).
    pub connections: usize,
    /// Keys per data frame.
    pub batch: usize,
    /// Total data-plane ops across all connections (rounded up to whole
    /// frames).
    pub total_ops: usize,
    /// Fraction of frames that are lookups (the rest alternate between
    /// inserts and window-trimming deletes).
    pub read_fraction: f64,
    /// Per-connection live-window cap; deletes kick in above it.
    pub keyspace: usize,
    /// Traffic shape.
    pub workload: WorkloadKind,
    /// Run seed; everything derives from it deterministically.
    pub seed: u64,
    /// Keep each connection's frames and reply bitmaps for differential
    /// checking (costs memory; off for throughput runs).
    pub capture: bool,
}

impl LoadgenConfig {
    /// A small mixed run against `endpoint`: 2 connections, 256-key
    /// frames, 50% reads.
    #[must_use]
    pub fn new(endpoint: Endpoint) -> Self {
        Self {
            endpoint,
            connections: 2,
            batch: 256,
            total_ops: 100_000,
            read_fraction: 0.5,
            keyspace: 1 << 16,
            workload: WorkloadKind::Uniform,
            seed: 0x10ad_6e40,
            capture: false,
        }
    }
}

/// One connection's captured traffic: the frames sent and the outcome
/// bitmap of each reply, in order.
#[derive(Debug, Clone)]
pub struct ConnCapture {
    /// `(opcode, keys)` per data frame sent.
    pub frames: Vec<(OpCode, Vec<u64>)>,
    /// The reply's outcome bitmap per frame.
    pub bitmaps: Vec<Vec<u8>>,
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Wall-clock seconds from first frame to last reply.
    pub elapsed_secs: f64,
    /// Data-plane keys executed.
    pub data_ops: u64,
    /// `data_ops / elapsed_secs`.
    pub ops_per_sec: f64,
    /// Per-connection captures (empty unless `capture`).
    pub captures: Vec<ConnCapture>,
}

/// Builds connection `conn`'s deterministic frame sequence.
#[must_use]
pub fn connection_trace(config: &LoadgenConfig, conn: usize) -> Vec<(OpCode, Vec<u64>)> {
    let trace = match config.workload {
        WorkloadKind::Churn => churn_trace(config, conn),
        WorkloadKind::Higgs => higgs_trace(config, conn),
        WorkloadKind::Uniform | WorkloadKind::Zipf { .. } => mixed_trace(config, conn),
    };
    // The churn/HIGGS generators derive their op counts from workload
    // structure (rounds, dataset splits) and overshoot; hold every
    // workload to the `total_ops` contract, whole frames kept.
    let per_conn = config.total_ops.div_ceil(config.connections.max(1));
    let mut kept = 0usize;
    let mut out = trace;
    out.retain(|(_, keys)| {
        let take = kept < per_conn;
        kept += keys.len();
        take
    });
    out
}

/// A connection-unique 8-byte key id: connection index in the top byte,
/// the rest a mixed counter.
fn conn_key(conn: usize, counter: u64) -> u64 {
    let body = mix64(counter.wrapping_add(0x9e37_79b9_7f4a_7c15)) >> 8;
    ((conn as u64) << 56) | body
}

fn unit_float(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Uniform/Zipf mixed traffic: lookup frames sample the live window,
/// insert frames mint fresh keys, delete frames trim the oldest keys
/// once the window exceeds `keyspace`.
fn mixed_trace(config: &LoadgenConfig, conn: usize) -> Vec<(OpCode, Vec<u64>)> {
    let per_conn = config.total_ops.div_ceil(config.connections.max(1));
    let frames = per_conn.div_ceil(config.batch.max(1)).max(1);
    let mut rng = SplitMix64::new(config.seed ^ mix64(conn as u64 + 1));
    let mut zipf = match config.workload {
        WorkloadKind::Zipf { s } => Zipf::new(config.keyspace.max(2), s, config.seed ^ 0x21f).ok(),
        _ => None,
    };
    let mut live: Vec<u64> = Vec::new();
    let mut window_start = 0usize; // live[window_start..] is the current window
    let mut counter = 0u64;
    let mut out = Vec::with_capacity(frames);
    for _ in 0..frames {
        let window = live.len() - window_start;
        let want_read = unit_float(&mut rng) < config.read_fraction && window > 0;
        if want_read {
            let keys: Vec<u64> = (0..config.batch)
                .map(|_| {
                    let idx = match zipf.as_mut() {
                        Some(z) => z.sample() % window,
                        None => rng.next_below(window as u64) as usize,
                    };
                    live.get(window_start + idx).copied().unwrap_or(0)
                })
                .collect();
            out.push((OpCode::Lookup, keys));
        } else if window >= config.keyspace.max(config.batch) {
            let keys: Vec<u64> = live
                .get(window_start..window_start + config.batch)
                .map(<[u64]>::to_vec)
                .unwrap_or_default();
            window_start += keys.len();
            out.push((OpCode::Delete, keys));
        } else {
            let keys: Vec<u64> = (0..config.batch)
                .map(|_| {
                    counter += 1;
                    conn_key(conn, counter)
                })
                .collect();
            live.extend_from_slice(&keys);
            out.push((OpCode::Insert, keys));
        }
    }
    out
}

/// The paper's churn trace, re-keyed per connection and packed into
/// same-opcode frames of at most `batch` keys.
fn churn_trace(config: &LoadgenConfig, conn: usize) -> Vec<(OpCode, Vec<u64>)> {
    let per_conn = config.total_ops.div_ceil(config.connections.max(1));
    let trace = ChurnTrace::generate(ChurnConfig {
        working_set: config.keyspace.min(per_conn.max(16)),
        rounds: 4,
        lookups_per_round: per_conn / 4,
        positive_fraction: config.read_fraction.clamp(0.0, 1.0),
        seed: config.seed ^ mix64(conn as u64 + 0x6368),
    });
    let rekey = |key: &[u8]| ((conn as u64) << 56) | (fnv1a_64(key) >> 8);
    let mut out: Vec<(OpCode, Vec<u64>)> = Vec::new();
    let mut pending: Option<(OpCode, Vec<u64>)> = None;
    for op in trace.iter() {
        let (opcode, key) = match op {
            Op::Insert(key) => (OpCode::Insert, rekey(key)),
            Op::Delete(key) => (OpCode::Delete, rekey(key)),
            Op::Lookup { key, .. } => (OpCode::Lookup, rekey(key)),
        };
        match &mut pending {
            Some((code, keys)) if *code == opcode && keys.len() < config.batch => keys.push(key),
            _ => {
                out.extend(pending.take());
                pending = Some((opcode, vec![key]));
            }
        }
    }
    out.extend(pending);
    out
}

/// HIGGS-derived traffic: insert the stored split, then look up a mix
/// of stored and alien records.
fn higgs_trace(config: &LoadgenConfig, conn: usize) -> Vec<(OpCode, Vec<u64>)> {
    let per_conn = config.total_ops.div_ceil(config.connections.max(1));
    let dataset = HiggsDataset::generate(per_conn.max(16), config.seed ^ mix64(conn as u64));
    let stored_n = (dataset.len() / 2).max(1);
    let (stored, alien) = dataset.split(stored_n);
    let rekey = |key: &[u8]| ((conn as u64) << 56) | (fnv1a_64(key) >> 8);
    let stored_keys: Vec<u64> = stored.iter().map(|k| rekey(k)).collect();
    let mut out: Vec<(OpCode, Vec<u64>)> = stored_keys
        .chunks(config.batch.max(1))
        .map(|chunk| (OpCode::Insert, chunk.to_vec()))
        .collect();
    let mut rng = SplitMix64::new(config.seed ^ 0x0048_4947_4753);
    let lookups: Vec<u64> = (0..stored_n)
        .map(|_| {
            if unit_float(&mut rng) < config.read_fraction {
                let i = rng.next_below(stored_keys.len() as u64) as usize;
                stored_keys.get(i).copied().unwrap_or(0)
            } else {
                let i = rng.next_below(alien.len().max(1) as u64) as usize;
                alien.get(i).map_or(1, |k| rekey(k))
            }
        })
        .collect();
    out.extend(
        lookups
            .chunks(config.batch.max(1))
            .map(|chunk| (OpCode::Lookup, chunk.to_vec())),
    );
    out
}

/// Runs the configured traffic against a live server and reports
/// throughput (plus captures when requested).
///
/// # Errors
///
/// Any connection's transport or protocol error aborts the run.
pub fn run(config: &LoadgenConfig) -> io::Result<LoadgenReport> {
    let traces: Vec<Vec<(OpCode, Vec<u64>)>> = (0..config.connections.max(1))
        .map(|conn| connection_trace(config, conn))
        .collect();
    let data_ops: u64 = traces
        .iter()
        .flatten()
        .map(|(_, keys)| keys.len() as u64)
        .sum();

    let started = Instant::now();
    let mut joins = Vec::new();
    for trace in traces {
        let endpoint = config.endpoint.clone();
        let capture = config.capture;
        joins.push(std::thread::spawn(move || -> io::Result<ConnCapture> {
            let mut client = Client::connect(&endpoint)?;
            let mut bitmaps = Vec::new();
            for (opcode, keys) in &trace {
                let reply = client.data_op(*opcode, keys)?;
                if capture {
                    bitmaps.push(reply.payload);
                }
            }
            Ok(ConnCapture {
                frames: if capture { trace } else { Vec::new() },
                bitmaps,
            })
        }));
    }
    let mut captures = Vec::new();
    for join in joins {
        let capture = join
            .join()
            .map_err(|_| io::Error::other("loadgen thread panicked"))??;
        if config.capture {
            captures.push(capture);
        }
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    Ok(LoadgenReport {
        elapsed_secs: elapsed,
        data_ops,
        ops_per_sec: data_ops as f64 / elapsed,
        captures,
    })
}

/// One benchmark sweep point.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Concurrent client connections.
    pub connections: usize,
    /// Keys per frame.
    pub batch: usize,
    /// Measured server-side throughput.
    pub ops_per_sec: f64,
}

/// Renders sweep points as the repo's flat `BENCH_*.json` map
/// (`id → ops/sec`, keys sorted).
#[must_use]
pub fn sweep_json(transport: &str, points: &[SweepPoint]) -> String {
    let mut entries: Vec<(String, f64)> = points
        .iter()
        .map(|p| {
            (
                format!("server/{transport}/mixed/c{}/b{}", p.connections, p.batch),
                p.ops_per_sec,
            )
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    use std::fmt::Write as _;
    let mut out = String::from("{\n");
    for (i, (key, value)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        let _ = writeln!(out, "  \"{key}\": {value:.1}{comma}");
    }
    out.push('}');
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config(workload: WorkloadKind) -> LoadgenConfig {
        let mut config = LoadgenConfig::new(Endpoint::Tcp("unused".into()));
        config.connections = 2;
        config.batch = 64;
        config.total_ops = 4096;
        config.keyspace = 512;
        config.workload = workload;
        config
    }

    #[test]
    fn traces_are_deterministic_and_conn_disjoint() {
        for workload in [
            WorkloadKind::Uniform,
            WorkloadKind::Zipf { s: 0.99 },
            WorkloadKind::Churn,
            WorkloadKind::Higgs,
        ] {
            let config = test_config(workload);
            let a = connection_trace(&config, 0);
            let b = connection_trace(&config, 0);
            assert_eq!(a, b, "{workload:?} trace not deterministic");
            let other = connection_trace(&config, 1);
            let tag = |trace: &[(OpCode, Vec<u64>)]| -> Vec<u64> {
                trace
                    .iter()
                    .flat_map(|(_, keys)| keys.iter().map(|k| k >> 56))
                    .collect()
            };
            assert!(tag(&a).iter().all(|&t| t == 0));
            assert!(tag(&other).iter().all(|&t| t == 1));
            assert!(!other.is_empty());
        }
    }

    #[test]
    fn mixed_trace_respects_frame_shape() {
        let config = test_config(WorkloadKind::Uniform);
        let trace = connection_trace(&config, 0);
        let ops: usize = trace.iter().map(|(_, keys)| keys.len()).sum();
        assert!(ops >= config.total_ops / config.connections);
        for (opcode, keys) in &trace {
            assert!(opcode.is_data());
            assert!(!keys.is_empty() && keys.len() <= config.batch);
        }
        // First frame must be an insert (window starts empty).
        assert_eq!(trace.first().map(|(op, _)| *op), Some(OpCode::Insert));
    }

    #[test]
    fn churn_trace_packs_same_opcode_runs() {
        let config = test_config(WorkloadKind::Churn);
        let trace = connection_trace(&config, 0);
        assert!(trace.iter().any(|(op, _)| *op == OpCode::Delete));
        for (_, keys) in &trace {
            assert!(keys.len() <= config.batch);
        }
    }

    #[test]
    fn workload_kind_parses() {
        assert_eq!(WorkloadKind::parse("uniform"), Ok(WorkloadKind::Uniform));
        assert_eq!(WorkloadKind::parse("churn"), Ok(WorkloadKind::Churn));
        assert_eq!(WorkloadKind::parse("higgs"), Ok(WorkloadKind::Higgs));
        assert_eq!(
            WorkloadKind::parse("zipf:1.2"),
            Ok(WorkloadKind::Zipf { s: 1.2 })
        );
        assert!(WorkloadKind::parse("nope").is_err());
    }

    #[test]
    fn sweep_json_is_flat_and_sorted() {
        let json = sweep_json(
            "uds",
            &[
                SweepPoint {
                    connections: 2,
                    batch: 256,
                    ops_per_sec: 1000.5,
                },
                SweepPoint {
                    connections: 1,
                    batch: 1,
                    ops_per_sec: 10.25,
                },
            ],
        );
        let first = json.find("server/uds/mixed/c1/b1").unwrap();
        let second = json.find("server/uds/mixed/c2/b256").unwrap();
        assert!(first < second);
        assert!(json.ends_with("}\n"));
    }
}
