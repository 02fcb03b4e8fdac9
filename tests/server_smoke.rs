//! End-to-end smoke test: a live `vcf-server` on a Unix-domain socket,
//! driven by the loadgen, differentially checked against an in-process
//! oracle.
//!
//! Two legs:
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

use std::path::PathBuf;
use vcf_core::ShardedConcurrentVcf;
use vcf_server::loadgen::{self, LoadgenConfig, WorkloadKind};
use vcf_server::protocol::{bitmap_get, OpCode};
use vcf_server::{Client, Endpoint, ServerConfig, ServerHandle};

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vcf-smoke-{tag}-{}.sock", std::process::id()))
}

fn smoke_server_config(tag: &str) -> ServerConfig {
    let mut config = ServerConfig::new(Endpoint::Uds(socket_path(tag)));
    config.slots = 1 << 18;
    config.shard_bits = 3;
    config.workers = 3;
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
