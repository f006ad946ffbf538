//! Property tests hardening the frame codec: truncated, oversized,
//! bit-flipped and garbage frames must come back as typed
//! [`ProtoError`]s — never a panic, never silently-wrong data. The
//! server's contract is that a malformed frame closes only its own
//! connection; these properties pin the decoder half of that.

use phserve::proto::{
    decode_request, decode_response, encode_request, encode_response, frame, read_frame, ErrorCode,
    ProtoError, Request, Response, StatsReply, HEADER_LEN, MAX_FRAME,
};
use proptest::prelude::*;

const K: usize = 3;

fn key() -> impl Strategy<Value = [u64; K]> {
    [any::<u64>(), any::<u64>(), any::<u64>()]
}

fn request() -> impl Strategy<Value = Request<K>> {
    prop_oneof![
        (key(), any::<u64>()).prop_map(|(key, value)| Request::Insert { key, value }),
        key().prop_map(|key| Request::Get { key }),
        key().prop_map(|key| Request::Remove { key }),
        (key(), key()).prop_map(|(min, max)| Request::Query { min, max }),
        (key(), 0u32..64).prop_map(|(center, n)| Request::Knn { center, n }),
        proptest::collection::vec((key(), any::<u64>()), 0..16)
            .prop_map(|items| Request::BulkLoad { items }),
        (0u8..1).prop_map(|_| Request::Stats),
        (0u8..1).prop_map(|_| Request::Ping),
    ]
}

fn response() -> impl Strategy<Value = Response<K>> {
    prop_oneof![
        (0u8..1).prop_map(|_| Response::Ack),
        (any::<u64>(), 0u8..2).prop_map(|(v, tag)| Response::Value((tag == 1).then_some(v))),
        proptest::collection::vec((key(), any::<u64>()), 0..16).prop_map(Response::Entries),
        proptest::collection::vec((key(), any::<u64>(), 0u64..1 << 52), 0..8).prop_map(|hits| {
            Response::Neighbors(hits.into_iter().map(|(k, v, d)| (k, v, d as f64)).collect())
        }),
        any::<u32>().prop_map(|new| Response::Loaded { new }),
        (any::<u32>(), any::<u64>(), any::<u64>()).prop_map(|(shards, entries, epoch)| {
            Response::Stats(StatsReply {
                shards,
                entries,
                epoch,
                skew: 1.5,
            })
        }),
        (0u8..1).prop_map(|_| Response::Pong),
        proptest::collection::vec(0u8..128, 0..40).prop_map(|bytes| Response::Error {
            code: ErrorCode::Overloaded,
            detail: String::from_utf8(bytes).unwrap(),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Any request survives encode → frame → read_frame → decode.
    #[test]
    fn request_roundtrip(req in request(), id in any::<u64>()) {
        let body = encode_request(id, &req);
        let framed = frame(&body);
        let read = read_frame(&mut &framed[..]).unwrap().unwrap();
        let (rid, back) = decode_request::<K>(&read).unwrap();
        prop_assert_eq!(rid, id);
        prop_assert_eq!(back, req);
    }

    /// Any response survives the same loop (float distances use exact
    /// integer-valued doubles so equality is well-defined).
    #[test]
    fn response_roundtrip(resp in response(), id in any::<u64>()) {
        let body = encode_response(id, &resp);
        let framed = frame(&body);
        let read = read_frame(&mut &framed[..]).unwrap().unwrap();
        let (rid, back) = decode_response::<K>(&read).unwrap();
        prop_assert_eq!(rid, id);
        prop_assert_eq!(back, resp);
    }

    /// Cutting a frame anywhere mid-stream is a typed error (Truncated),
    /// and cutting at offset 0 is a clean EOF — never a panic either way.
    #[test]
    fn truncation_is_typed(req in request(), cut in 0usize..4096) {
        let framed = frame(&encode_request(7, &req));
        let cut = cut % framed.len();
        match read_frame(&mut &framed[..cut]) {
            Ok(None) => prop_assert_eq!(cut, 0, "clean EOF only at a frame boundary"),
            Err(ProtoError::Truncated) => prop_assert!(cut > 0),
            other => return Err(TestCaseError::Fail(format!("expected Truncated, got {other:?}"))),
        }
    }

    /// A single flipped bit in the checksum or body is always detected:
    /// `phstore::checksum` chains a bijection per word, so any one-word
    /// change in the body changes the sum, and a crc-field change breaks
    /// the match.
    #[test]
    fn bit_flips_are_detected(req in request(), bit in 0usize..1 << 16) {
        let framed = frame(&encode_request(9, &req));
        // Flip only past the length prefix: crc field or body.
        let span_bits = (framed.len() - 4) * 8;
        let bit = bit % span_bits;
        let mut evil = framed.clone();
        evil[4 + bit / 8] ^= 1 << (bit % 8);
        match read_frame(&mut &evil[..]) {
            Err(ProtoError::BadCrc { .. }) => {}
            other => return Err(TestCaseError::Fail(format!("expected BadCrc, got {other:?}"))),
        }
    }

    /// Flipping bits in the length prefix never panics and never yields
    /// a frame that decodes as valid: the reader sees a typed error
    /// (oversized, truncated, empty-frame, or checksum mismatch).
    #[test]
    fn length_flips_are_typed(req in request(), bit in 0usize..32) {
        let framed = frame(&encode_request(11, &req));
        let mut evil = framed.clone();
        evil[bit / 8] ^= 1 << (bit % 8);
        match read_frame(&mut &evil[..]) {
            Err(_) => {}
            Ok(body) => {
                return Err(TestCaseError::Fail(format!(
                    "length flip produced a readable frame: {body:?}"
                )))
            }
        }
    }

    /// Arbitrary garbage bytes: the reader drains to a typed error or a
    /// clean EOF, and anything it does hand over never panics decode.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut r = &bytes[..];
        loop {
            match read_frame(&mut r) {
                Ok(None) | Err(_) => break,
                Ok(Some(body)) => {
                    // A garbage frame that happens to checksum is fine —
                    // decode must still be typed, not a panic.
                    let _ = decode_request::<K>(&body);
                    let _ = decode_response::<K>(&body);
                }
            }
        }
    }

    /// Counts inside a checksummed body are still validated against the
    /// body length (a lying count is Malformed, not an allocation).
    #[test]
    fn lying_bulk_count_is_malformed(n in 2u32..1 << 20) {
        // Hand-build: valid header, bulk opcode, dims, huge count, one item.
        let mut body = Vec::new();
        body.extend_from_slice(&1u64.to_le_bytes());
        body.push(0x06); // OP_BULK
        body.push(K as u8);
        body.extend_from_slice(&n.to_le_bytes());
        for _ in 0..K + 1 {
            body.extend_from_slice(&5u64.to_le_bytes());
        }
        match decode_request::<K>(&body) {
            Err(ProtoError::Malformed(_)) => {}
            other => return Err(TestCaseError::Fail(format!("expected Malformed, got {other:?}"))),
        }
    }
}

/// The length bound itself: a frame body at MAX_FRAME passes, one byte
/// over is rejected before allocation.
#[test]
fn max_frame_boundary() {
    let body = vec![0xABu8; MAX_FRAME];
    let framed = frame(&body);
    assert_eq!(framed.len(), HEADER_LEN + MAX_FRAME);
    assert_eq!(read_frame(&mut &framed[..]).unwrap().unwrap(), body);

    let mut over = Vec::new();
    over.extend_from_slice(&((MAX_FRAME + 1) as u32).to_le_bytes());
    over.extend_from_slice(&0u64.to_le_bytes());
    match read_frame(&mut &over[..]) {
        Err(ProtoError::Oversized { len, max }) => {
            assert_eq!(len, MAX_FRAME + 1);
            assert_eq!(max, MAX_FRAME);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
}
