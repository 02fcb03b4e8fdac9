//! End-to-end smoke test: a live `vcf-server` on a Unix-domain socket,
//! driven by the loadgen, differentially checked against an in-process
//! oracle.
//!
//! Three legs:
//!
//! 1. **Bit-for-bit** — one connection replays a captured ≥100k-op
//!    mixed trace; an identically-configured in-process
//!    `ShardedConcurrentVcf` executes the same frames and every outcome
//!    bit must match (false positives are table-order-dependent, so this
//!    only holds when the op order is identical — hence one connection).
//! 2. **Concurrent** — four connections run the same workload shape
//!    concurrently; interleaving makes exact bits non-deterministic, so
//!    the invariant checked is the filter's own: zero false negatives
//!    (every key the server acknowledged as stored-and-not-deleted is
//!    found afterwards) and zero protocol errors.
//! 3. **Kick race** — four connections churn their own keys over a
//!    4-shard engine prefilled to 95 %, so kick walks run by different
//!    connection threads race on the same shard. Every acknowledged key
//!    must be found (mid-race and afterwards), the stored count must
//!    equal prefill + acknowledged inserts − acknowledged deletes, and
//!    no frame may be a protocol error. Runs on both engines.

use std::path::PathBuf;
use std::sync::Arc;
use vcf_core::{CuckooConfig, ShardRouter, ShardedConcurrentVcf, ShardedScalableVcf};
use vcf_server::loadgen::{self, LoadgenConfig, WorkloadKind};
use vcf_server::protocol::{bitmap_get, OpCode};
use vcf_server::{Client, Endpoint, ServerConfig, ServerHandle};
use vcf_traits::ConcurrentFilter;

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vcf-smoke-{tag}-{}.sock", std::process::id()))
}

fn smoke_server_config(tag: &str) -> ServerConfig {
    let mut config = ServerConfig::new(Endpoint::Uds(socket_path(tag)));
    config.slots = 1 << 18;
    config.shard_bits = 3;
    config.seed = 0x5155_AC4E;
    config
}

fn key_bytes(keys: &[u64]) -> Vec<[u8; 8]> {
    keys.iter().map(|k| k.to_le_bytes()).collect()
}

#[test]
fn uds_single_connection_matches_oracle_bit_for_bit() {
    let server_config = smoke_server_config("oracle");
    let mut server = ServerHandle::spawn(&server_config).expect("spawn server");

    // The oracle: same slots, same seed, same shard count — identical
    // routing and identical per-shard table evolution.
    let oracle = ShardedConcurrentVcf::new(server_config.cuckoo_config(), server_config.shard_bits)
        .expect("oracle config");

    let mut load = LoadgenConfig::new(server.endpoint().clone());
    load.connections = 1;
    load.batch = 256;
    load.total_ops = 120_000;
    load.read_fraction = 0.4;
    load.keyspace = 1 << 14;
    load.workload = WorkloadKind::Uniform;
    load.capture = true;
    let report = loadgen::run(&load).expect("loadgen run");
    assert!(report.data_ops >= 100_000, "run is at least 100k ops");
    assert_eq!(report.captures.len(), 1);

    let capture = &report.captures[0];
    assert_eq!(capture.frames.len(), capture.bitmaps.len());
    for (frame_idx, ((opcode, keys), bitmap)) in
        capture.frames.iter().zip(&capture.bitmaps).enumerate()
    {
        let bytes = key_bytes(keys);
        let refs: Vec<&[u8]> = bytes.iter().map(|k| &k[..]).collect();
        let expected: Vec<bool> = match opcode {
            OpCode::Insert => oracle
                .insert_batch(&refs)
                .iter()
                .map(Result::is_ok)
                .collect(),
            OpCode::Lookup => oracle.contains_batch(&refs),
            OpCode::Delete => oracle.delete_batch(&refs),
            other => panic!("data trace contains control opcode {other:?}"),
        };
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(
                bitmap_get(bitmap, i),
                *want,
                "frame {frame_idx} ({opcode:?}) bit {i} diverges from oracle"
            );
        }
    }

    // The server's engine and the oracle agree on the final cardinality.
    assert_eq!(server.engine().total_len(), oracle.len());
    let snapshot = server.metrics();
    assert_eq!(snapshot.proto_errors, 0, "zero protocol errors");
    server.shutdown();
}

#[test]
fn uds_concurrent_burst_has_zero_false_negatives() {
    let server_config = smoke_server_config("burst");
    let mut server = ServerHandle::spawn(&server_config).expect("spawn server");

    let mut load = LoadgenConfig::new(server.endpoint().clone());
    load.connections = 4;
    load.batch = 256;
    load.total_ops = 120_000;
    load.read_fraction = 0.4;
    load.keyspace = 1 << 13;
    load.workload = WorkloadKind::Uniform;
    load.capture = true;
    let report = loadgen::run(&load).expect("loadgen run");
    assert!(report.data_ops >= 100_000);
    assert_eq!(report.captures.len(), 4);

    // From each connection's acknowledged outcomes, reconstruct its
    // live set: inserted (bit=1) and not later deleted (bit=1). Keys
    // are connection-disjoint by construction, so other connections
    // cannot have removed them.
    let mut live: Vec<u64> = Vec::new();
    for capture in &report.captures {
        let mut conn_live = std::collections::HashSet::new();
        for ((opcode, keys), bitmap) in capture.frames.iter().zip(&capture.bitmaps) {
            for (i, key) in keys.iter().enumerate() {
                match opcode {
                    OpCode::Insert if bitmap_get(bitmap, i) => {
                        conn_live.insert(*key);
                    }
                    OpCode::Delete if bitmap_get(bitmap, i) => {
                        conn_live.remove(key);
                    }
                    _ => {}
                }
            }
        }
        live.extend(conn_live);
    }
    assert!(!live.is_empty(), "burst left live keys to verify");

    // A cuckoo filter may lie "present" but never "absent": every live
    // key must be found.
    let mut client = Client::connect(server.endpoint()).expect("verify connection");
    for chunk in live.chunks(256) {
        let reply = client.data_op(OpCode::Lookup, chunk).expect("lookup");
        for (i, key) in chunk.iter().enumerate() {
            assert!(reply.bit(i), "false negative for acknowledged key {key:#x}");
        }
    }

    // Zero protocol errors, observed through the wire itself (stats
    // word 6) and via the handle.
    let stats = client.stats().expect("stats");
    assert_eq!(stats[6], 0, "proto_errors stats word");
    assert_eq!(server.metrics().proto_errors, 0);
    drop(client);
    server.shutdown();
}

#[test]
fn uds_malformed_frames_are_survivable_on_a_live_socket() {
    let server_config = smoke_server_config("malformed");
    let mut server = ServerHandle::spawn(&server_config).expect("spawn server");
    let mut client = Client::connect(server.endpoint()).expect("connect");

    // Drainable garbage (unknown opcode + payload): error reply, then
    // the same connection keeps working.
    let mut raw = Vec::new();
    raw.extend_from_slice(&vcf_server::protocol::REQ_MAGIC.to_le_bytes());
    raw.push(vcf_server::protocol::WIRE_VERSION);
    raw.push(0x7E); // unknown opcode
    raw.extend_from_slice(&2u32.to_le_bytes());
    raw.extend_from_slice(&[0xAB; 16]);
    client.send_raw(&raw).expect("send garbage");
    let reply = client.read_reply(OpCode::Ping).expect("error reply");
    assert_eq!(reply.status, vcf_server::protocol::status::BAD_OPCODE);
    assert!(client.ping().expect("connection recovered"));

    // Framing-destroying garbage (bad magic): error reply, then the
    // server closes this connection; a fresh one still works.
    client.send_raw(&[0u8; 8]).expect("send bad magic");
    let reply = client.read_reply(OpCode::Ping).expect("error reply");
    assert_eq!(reply.status, vcf_server::protocol::status::BAD_MAGIC);
    let eof = client.ping();
    assert!(eof.is_err(), "server closed the desynchronized connection");

    let mut fresh = Client::connect(server.endpoint()).expect("reconnect");
    assert!(fresh.ping().expect("fresh connection"));
    assert_eq!(server.metrics().proto_errors, 2);
    server.shutdown();
}

/// Keys per frame and rounds per connection in the kick race.
const RACE_BATCH: usize = 16;
const RACE_ROUNDS: usize = 150;
const RACE_CONNECTIONS: u64 = 4;

/// A key owned by `owner` (top byte), distinct for each `i`.
fn race_key(owner: u64, i: u64) -> u64 {
    (owner << 56) | (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 8)
}

/// One race connection's acknowledged outcomes.
struct RaceTally {
    /// Keys acknowledged as inserted and not yet deleted, oldest first.
    live: Vec<u64>,
    inserted: u64,
    deleted: u64,
}

/// Rounds of insert-fresh, look-up-all-live, delete-oldest on keys only
/// connection `conn` uses. Panics on any false negative or on a delete
/// of a live key that the server refuses.
fn race_connection(endpoint: &Endpoint, conn: u64) -> RaceTally {
    let mut client = Client::connect(endpoint).expect("connect");
    let mut tally = RaceTally {
        live: Vec::new(),
        inserted: 0,
        deleted: 0,
    };
    let mut next = 0u64;
    for _ in 0..RACE_ROUNDS {
        let fresh: Vec<u64> = (0..RACE_BATCH)
            .map(|_| {
                next += 1;
                race_key(0x10 | conn, next)
            })
            .collect();
        let reply = client.data_op(OpCode::Insert, &fresh).expect("insert");
        for (i, &key) in fresh.iter().enumerate() {
            if reply.bit(i) {
                tally.live.push(key);
                tally.inserted += 1;
            }
        }
        if !tally.live.is_empty() {
            let reply = client.data_op(OpCode::Lookup, &tally.live).expect("lookup");
            for (i, key) in tally.live.iter().enumerate() {
                assert!(reply.bit(i), "mid-race false negative for {key:#x}");
            }
        }
        if tally.live.len() > 2 * RACE_BATCH {
            let oldest: Vec<u64> = tally.live.drain(..RACE_BATCH).collect();
            let reply = client.data_op(OpCode::Delete, &oldest).expect("delete");
            for (i, key) in oldest.iter().enumerate() {
                assert!(reply.bit(i), "delete of live key {key:#x} refused");
            }
            tally.deleted += oldest.len() as u64;
        }
    }
    tally
}

/// Prefills `engine` to 95 % of its capacity, serves it, races
/// [`RACE_CONNECTIONS`] churning connections over it, and checks zero
/// false negatives, exact occupancy and zero protocol errors.
fn kick_race<F: ConcurrentFilter + 'static>(tag: &str, engine: Arc<ShardRouter<F>>) {
    let prefill: Vec<[u8; 8]> = (0..engine.capacity() as u64 * 95 / 100)
        .map(|i| race_key(0xF0, i).to_le_bytes())
        .collect();
    let refs: Vec<&[u8]> = prefill.iter().map(|k| &k[..]).collect();
    let stored = engine
        .insert_batch(&refs)
        .iter()
        .filter(|r| r.is_ok())
        .count() as u64;
    let kicks_before = engine.stats().kicks;

    let config = smoke_server_config(tag);
    let mut server =
        ServerHandle::spawn_with_engine(&config, Arc::clone(&engine) as _).expect("spawn server");
    let endpoint = server.endpoint().clone();
    let tallies: Vec<RaceTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..RACE_CONNECTIONS)
            .map(|conn| {
                let endpoint = &endpoint;
                scope.spawn(move || race_connection(endpoint, conn))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("race connection panicked"))
            .collect()
    });
    assert!(
        engine.stats().kicks > kicks_before,
        "the race ran no kick walk"
    );

    let mut client = Client::connect(server.endpoint()).expect("verify connection");
    let live: Vec<u64> = tallies
        .iter()
        .flat_map(|t| t.live.iter().copied())
        .collect();
    for chunk in live.chunks(256) {
        let reply = client.data_op(OpCode::Lookup, chunk).expect("lookup");
        for (i, key) in chunk.iter().enumerate() {
            assert!(reply.bit(i), "false negative for acknowledged key {key:#x}");
        }
    }
    let inserted: u64 = tallies.iter().map(|t| t.inserted).sum();
    let deleted: u64 = tallies.iter().map(|t| t.deleted).sum();
    assert!(deleted > 0, "the race deleted nothing");
    let stats = client.stats().expect("stats");
    assert_eq!(stats[0], stored + inserted - deleted, "occupancy");
    assert_eq!(stats[6], 0, "proto_errors stats word");
    assert_eq!(server.metrics().proto_errors, 0);
    drop(client);
    server.shutdown();
}

fn race_cuckoo_config() -> CuckooConfig {
    CuckooConfig::with_total_slots(1 << 12).with_seed(0x0B1C_4E55)
}

#[test]
fn uds_kick_walks_race_on_shared_shards_fixed_engine() {
    let engine = ShardedConcurrentVcf::new(race_cuckoo_config(), 2).expect("config");
    kick_race("race-fixed", Arc::new(engine));
}

#[test]
fn uds_kick_walks_race_on_shared_shards_elastic_engine() {
    let engine = ShardedScalableVcf::new(race_cuckoo_config(), 2).expect("config");
    kick_race("race-elastic", Arc::new(engine));
}
