//! Wire-codec robustness: property-based round-trips plus a
//! malformed-frame corpus driven through the real frame loop.
//!
//! The contract under test (DESIGN.md §13): a malformed frame never
//! panics the server; it is answered with its error status, and the
//! connection either *recovers* (frame boundary still trustworthy:
//! unknown opcode, zero-length batch, control-with-payload) or *closes
//! cleanly after the error reply* (bad magic, bad version, oversized
//! count — framing can no longer be trusted).

use proptest::prelude::*;
use vcf_server::codec::{encode_request, Frame, FrameReader};
use vcf_server::protocol::{
    status, OpCode, RequestHeader, ResponseHeader, HEADER_LEN, KEY_LEN, MAX_BATCH, REQ_MAGIC,
    WIRE_VERSION,
};
use vcf_server::server::serve_bytes_for_test;
use vcf_server::{build_engine, Endpoint, ServerConfig, ShardExecutor};

fn test_executor() -> ShardExecutor {
    let mut config = ServerConfig::new(Endpoint::Tcp("unused".to_owned()));
    config.slots = 1 << 12;
    config.shard_bits = 2;
    config.seed = 99;
    ShardExecutor::new(build_engine(&config).expect("valid geometry"), 0)
}

fn header_bytes(magic: u16, version: u8, opcode: u8, count: u32) -> [u8; HEADER_LEN] {
    let mut out = [0u8; HEADER_LEN];
    out[0..2].copy_from_slice(&magic.to_le_bytes());
    out[2] = version;
    out[3] = opcode;
    out[4..8].copy_from_slice(&count.to_le_bytes());
    out
}

/// Splits the server's output back into response frames. Error and ping
/// replies are bare headers; data/stats payload lengths are implied by
/// the request stream, which corpus cases know statically.
fn response_statuses(output: &[u8]) -> Vec<(u8, u32)> {
    let mut frames = Vec::new();
    let mut rest = output;
    while rest.len() >= HEADER_LEN {
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&rest[..HEADER_LEN]);
        let resp = ResponseHeader::decode(&header).expect("server output is framed");
        frames.push((resp.status, resp.count));
        let payload = if resp.status == status::OK && resp.count > 0 {
            // Corpus cases only reach OK on data frames (bitmap) — the
            // stats shape (count*8) is covered by unit tests.
            resp.count.div_ceil(8) as usize
        } else {
            0
        };
        rest = &rest[HEADER_LEN + payload..];
    }
    assert!(rest.is_empty(), "trailing partial response frame");
    frames
}

#[test]
fn corpus_truncated_header_closes_without_response() {
    let exec = test_executor();
    for cut in 1..HEADER_LEN {
        let valid = RequestHeader {
            opcode: OpCode::Insert,
            count: 2,
        }
        .encode();
        let served = serve_bytes_for_test(&exec, &valid[..cut]);
        assert_eq!(served.error, Some(std::io::ErrorKind::UnexpectedEof));
        assert!(served.output.is_empty(), "no reply to a partial header");
        assert_eq!(served.metrics.frames, 0);
    }
}

#[test]
fn corpus_truncated_payload_closes_without_response() {
    let exec = test_executor();
    let mut input = Vec::new();
    encode_request(&mut input, OpCode::Insert, &[1, 2, 3, 4]);
    input.truncate(HEADER_LEN + 2 * KEY_LEN + 3);
    let served = serve_bytes_for_test(&exec, &input);
    assert_eq!(served.error, Some(std::io::ErrorKind::UnexpectedEof));
    assert!(served.output.is_empty());
}

#[test]
fn corpus_bad_magic_answers_then_closes() {
    let exec = test_executor();
    let mut input = header_bytes(0x4242, WIRE_VERSION, OpCode::Ping as u8, 0).to_vec();
    encode_request(&mut input, OpCode::Ping, &[]); // never reached
    let served = serve_bytes_for_test(&exec, &input);
    assert_eq!(served.error, None);
    assert_eq!(
        response_statuses(&served.output),
        vec![(status::BAD_MAGIC, 0)]
    );
    assert_eq!(served.metrics.proto_errors, 1);
}

#[test]
fn corpus_bad_version_answers_then_closes() {
    let exec = test_executor();
    let mut input = header_bytes(REQ_MAGIC, WIRE_VERSION + 1, OpCode::Lookup as u8, 1).to_vec();
    input.extend_from_slice(&7u64.to_le_bytes());
    let served = serve_bytes_for_test(&exec, &input);
    assert_eq!(served.error, None);
    assert_eq!(
        response_statuses(&served.output),
        vec![(status::BAD_VERSION, 0)]
    );
}

#[test]
fn corpus_oversized_count_answers_then_closes() {
    let exec = test_executor();
    let mut input =
        header_bytes(REQ_MAGIC, WIRE_VERSION, OpCode::Insert as u8, MAX_BATCH + 1).to_vec();
    // No payload follows; the server must refuse to drain it anyway.
    encode_request(&mut input, OpCode::Ping, &[]);
    let served = serve_bytes_for_test(&exec, &input);
    assert_eq!(served.error, None);
    assert_eq!(
        response_statuses(&served.output),
        vec![(status::OVERSIZED_BATCH, 0)]
    );
}

#[test]
fn corpus_zero_length_batch_answers_and_recovers() {
    let exec = test_executor();
    for opcode in [OpCode::Insert, OpCode::Lookup, OpCode::Delete] {
        let mut input = header_bytes(REQ_MAGIC, WIRE_VERSION, opcode as u8, 0).to_vec();
        encode_request(&mut input, OpCode::Lookup, &[5]);
        let served = serve_bytes_for_test(&exec, &input);
        assert_eq!(served.error, None);
        assert_eq!(
            response_statuses(&served.output),
            vec![(status::EMPTY_BATCH, 0), (status::OK, 1)],
            "{opcode:?}: lookup after the rejected empty batch still served"
        );
    }
}

#[test]
fn corpus_unknown_opcode_drains_payload_and_recovers() {
    let exec = test_executor();
    let mut input = header_bytes(REQ_MAGIC, WIRE_VERSION, 0xEE, 3).to_vec();
    input.extend_from_slice(&[0xAA; 3 * KEY_LEN]); // drained, not parsed
    encode_request(&mut input, OpCode::Lookup, &[5, 6]);
    let served = serve_bytes_for_test(&exec, &input);
    assert_eq!(served.error, None);
    assert_eq!(
        response_statuses(&served.output),
        vec![(status::BAD_OPCODE, 0), (status::OK, 2)]
    );
    assert_eq!(served.metrics.proto_errors, 1);
    assert_eq!(served.metrics.frames, 1);
}

#[test]
fn corpus_control_payload_drains_and_recovers() {
    let exec = test_executor();
    for opcode in [OpCode::Ping, OpCode::Stats] {
        let mut input = header_bytes(REQ_MAGIC, WIRE_VERSION, opcode as u8, 2).to_vec();
        input.extend_from_slice(&[0x55; 2 * KEY_LEN]);
        encode_request(&mut input, OpCode::Insert, &[11]);
        let served = serve_bytes_for_test(&exec, &input);
        assert_eq!(served.error, None);
        assert_eq!(
            response_statuses(&served.output),
            vec![(status::CONTROL_PAYLOAD, 0), (status::OK, 1)],
            "{opcode:?} with payload must drain and recover"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of well-formed data frames round-trips through the
    /// frame reader: same opcodes, same keys, then a clean close.
    #[test]
    fn request_frames_round_trip(
        frames in prop::collection::vec(
            (0u8..3, prop::collection::vec(any::<u64>(), 1..40)),
            1..12,
        )
    ) {
        let opcode_of = |tag: u8| match tag {
            0 => OpCode::Insert,
            1 => OpCode::Lookup,
            _ => OpCode::Delete,
        };
        let mut wire = Vec::new();
        for (tag, keys) in &frames {
            encode_request(&mut wire, opcode_of(*tag), keys);
        }
        let mut reader = FrameReader::new(wire.as_slice());
        for (tag, keys) in &frames {
            match reader.read_frame().expect("stream intact") {
                Frame::Request { opcode, payload } => {
                    prop_assert_eq!(opcode, opcode_of(*tag));
                    let decoded: Vec<u64> = payload
                        .chunks_exact(KEY_LEN)
                        .map(|c| {
                            let mut b = [0u8; 8];
                            b.copy_from_slice(c);
                            u64::from_le_bytes(b)
                        })
                        .collect();
                    prop_assert_eq!(&decoded, keys);
                }
                other => prop_assert!(false, "expected request, got {:?}", other),
            }
        }
        prop_assert!(matches!(reader.read_frame().expect("eof"), Frame::Closed));
    }

    /// Header decoding is total: any 8 bytes either decode or classify,
    /// and the drainable length never exceeds the MAX_BATCH payload cap.
    #[test]
    fn header_decode_is_total(bytes in prop::collection::vec(any::<u8>(), HEADER_LEN..=HEADER_LEN)) {
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&bytes);
        match RequestHeader::decode(&header) {
            Ok(req) => {
                prop_assert!(req.count <= MAX_BATCH);
                prop_assert_eq!(req.payload_len(), req.count as usize * KEY_LEN);
            }
            Err(err) => {
                if let Some(drain) = err.drainable_payload() {
                    prop_assert!(drain <= MAX_BATCH as usize * KEY_LEN);
                }
                prop_assert!(err.status() != status::OK);
            }
        }
    }

    /// Fuzzing the whole frame loop with arbitrary bytes: the server
    /// never panics, and everything it writes back is framed responses.
    #[test]
    fn arbitrary_bytes_never_panic_the_frame_loop(
        bytes in prop::collection::vec(any::<u8>(), 0..200)
    ) {
        let exec = test_executor();
        let served = serve_bytes_for_test(&exec, &bytes);
        // If the server replied at all, the reply starts with a
        // well-formed response header carrying a defined status. (Full
        // framing is checked by the corpus cases; fuzz input can form
        // valid stats requests whose payload length a byte-level parser
        // cannot infer.)
        if served.output.len() >= HEADER_LEN {
            let mut header = [0u8; HEADER_LEN];
            header.copy_from_slice(&served.output[..HEADER_LEN]);
            let resp = ResponseHeader::decode(&header).expect("reply framed");
            prop_assert!(resp.status <= status::INTERNAL);
        } else {
            prop_assert!(served.output.is_empty());
        }
    }
}
