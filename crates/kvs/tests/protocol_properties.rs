//! Property tests over the wire protocol: arbitrary requests/responses
//! roundtrip exactly, and arbitrary byte soup never panics the decoders.

use bytes::Bytes;
use proptest::prelude::*;
use simdht_kvs::protocol::{DecodeScratch, ErrorCode, OpStatus, Request, Response};

fn arb_key() -> impl Strategy<Value = Bytes> {
    prop::collection::vec(any::<u8>(), 0..64).prop_map(Bytes::from)
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (any::<u64>(), prop::collection::vec(arb_key(), 0..40))
            .prop_map(|(id, keys)| Request::MGet { id, keys }),
        (
            any::<u64>(),
            arb_key(),
            prop::collection::vec(any::<u8>(), 0..200)
        )
            .prop_map(|(id, key, value)| Request::Set {
                id,
                key,
                value: Bytes::from(value)
            }),
        (
            any::<u64>(),
            prop::collection::vec(
                (arb_key(), prop::collection::vec(any::<u8>(), 0..120)),
                0..20
            )
        )
            .prop_map(|(id, pairs)| Request::SetMulti {
                id,
                pairs: pairs
                    .into_iter()
                    .map(|(k, v)| (k, Bytes::from(v)))
                    .collect(),
            }),
        (any::<u64>(), arb_key()).prop_map(|(id, key)| Request::Delete { id, key }),
        (
            any::<u64>(),
            arb_key(),
            any::<u64>(),
            prop::collection::vec(any::<u8>(), 0..200),
            any::<u32>(),
        )
            .prop_map(
                |(id, key, expected_version, value, ttl_secs)| Request::Cas {
                    id,
                    key,
                    expected_version,
                    value: Bytes::from(value),
                    ttl_secs,
                }
            ),
        (any::<u64>(), arb_key(), any::<u32>()).prop_map(|(id, key, ttl_secs)| Request::Touch {
            id,
            key,
            ttl_secs
        }),
        (
            any::<u64>(),
            arb_key(),
            prop::collection::vec(any::<u8>(), 0..200),
            any::<u32>(),
        )
            .prop_map(|(id, key, value, ttl_secs)| Request::SetEx {
                id,
                key,
                value: Bytes::from(value),
                ttl_secs,
            }),
        (
            any::<u64>(),
            prop::collection::vec(
                (arb_key(), prop::collection::vec(any::<u8>(), 0..120)),
                0..20
            ),
            any::<u32>(),
        )
            .prop_map(|(id, pairs, ttl_secs)| Request::SetMultiEx {
                id,
                pairs: pairs
                    .into_iter()
                    .map(|(k, v)| (k, Bytes::from(v)))
                    .collect(),
                ttl_secs,
            }),
        Just(Request::Shutdown),
    ]
}

/// Canonicalize a raw status byte through `from_wire`, as `arb_response`
/// does for error codes: known bytes map to their named statuses, so
/// every generated status roundtrips exactly.
fn arb_status() -> impl Strategy<Value = OpStatus> {
    any::<u8>().prop_map(OpStatus::from_wire)
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (
            any::<u64>(),
            prop::collection::vec(
                prop::option::of(prop::collection::vec(any::<u8>(), 0..100).prop_map(Bytes::from)),
                0..40
            )
        )
            .prop_map(|(id, entries)| Response::MGet { id, entries }),
        (any::<u64>(), any::<bool>()).prop_map(|(id, ok)| Response::Set { id, ok }),
        (any::<u64>(), prop::collection::vec(any::<bool>(), 0..40))
            .prop_map(|(id, ok)| Response::SetMulti { id, ok }),
        (any::<u64>(), arb_status()).prop_map(|(id, status)| Response::Delete { id, status }),
        (any::<u64>(), arb_status(), any::<u64>()).prop_map(|(id, status, version)| {
            Response::Cas {
                id,
                status,
                version,
            }
        }),
        (any::<u64>(), arb_status()).prop_map(|(id, status)| Response::Touch { id, status }),
        (any::<u64>(), arb_status(), any::<u64>()).prop_map(|(id, status, version)| {
            Response::SetEx {
                id,
                status,
                version,
            }
        }),
        // Canonicalize through `from_wire`: raw byte 1 means `ServerBusy`,
        // never `Unknown(1)`, so every generated code roundtrips exactly.
        (any::<u64>(), any::<u8>()).prop_map(|(id, code)| Response::Error {
            id,
            code: ErrorCode::from_wire(code),
        }),
    ]
}

/// Hand-written malformed frames: every entry must be *rejected* (never
/// panic, never mis-decode) by both decoders. Each case documents the
/// specific framing violation it probes.
const MALFORMED: &[(&str, &[u8])] = &[
    ("empty frame", &[]),
    ("unknown request opcode", &[0]),
    ("opcode from response space sent as request", &[200]),
    ("mget opcode alone, no header", &[1]),
    ("mget header cut inside the id", &[1, 9, 9, 9]),
    (
        "mget declares one key, provides no length",
        &[1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    ),
    (
        "mget key length larger than remaining bytes",
        &[1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 255, 255, b'x'],
    ),
    (
        "mget declares 65535 keys with no payload",
        &[1, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255],
    ),
    ("set header cut inside the id", &[2, 1, 2, 3]),
    (
        "set key length overruns the frame",
        &[2, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, b'k'],
    ),
    (
        "set value length u32::MAX with no value bytes",
        &[2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, b'k', 255, 255, 255, 255],
    ),
    ("set-multi header cut inside the id", &[4, 1, 2, 3]),
    (
        "set-multi declares one pair, provides no key length",
        &[4, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    ),
    (
        "set-multi pair key length overruns the frame",
        &[4, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 255, 255, b'x'],
    ),
    (
        "set-multi value length u32::MAX with no value bytes",
        &[
            4, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, b'k', 255, 255, 255, 255,
        ],
    ),
    (
        "set-multi declares 65535 pairs with no payload",
        &[4, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255],
    ),
    ("mget response cut inside the id", &[128, 1]),
    (
        "mget response entry flag is neither 0 nor 1",
        &[128, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 7],
    ),
    (
        "mget response value length overruns the frame",
        &[128, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 255, 255, 255, 255],
    ),
    (
        "set response missing the ok byte",
        &[129, 0, 0, 0, 0, 0, 0, 0, 0],
    ),
    (
        "set response ok byte is neither 0 nor 1",
        &[129, 0, 0, 0, 0, 0, 0, 0, 0, 2],
    ),
    (
        "set-multi response declares one status, provides none",
        &[131, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    ),
    (
        "set-multi response status byte is neither 0 nor 1",
        &[131, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 7],
    ),
];

#[test]
fn malformed_corpus_is_rejected() {
    let corpus = MALFORMED;
    for (what, bytes) in corpus {
        let b = Bytes::copy_from_slice(bytes);
        assert!(Request::decode(b.clone()).is_err(), "request: {what}");
        assert!(Response::decode(b).is_err(), "response: {what}");
    }
}

/// Systematic truncation of a real two-key MGet frame: because the key
/// count is declared up front, *every* strict prefix — cut mid-count,
/// mid-key-length, or mid-key-bytes — must be rejected; there is no
/// prefix that silently decodes to fewer keys.
#[test]
fn truncated_mget_frames_are_rejected() {
    let req = Request::MGet {
        id: 0xABCD,
        keys: vec![Bytes::from_static(b"alpha"), Bytes::from_static(b"seven77")],
    };
    let full = req.encode();
    // Layout: op(1) + id(8) + count(2) + [klen(2) + key]* + crc32(4).
    assert_eq!(full.len(), 1 + 8 + 2 + 2 + 5 + 2 + 7 + 4);
    for cut in 1..full.len() {
        assert!(
            Request::decode(full.slice(..cut)).is_err(),
            "prefix of {cut} bytes decoded"
        );
    }
    assert_eq!(Request::decode(full).unwrap(), req);
}

/// A batch may name the same key more than once; the frame decodes with
/// one slot per occurrence (the server answers per-key, it does not
/// dedupe or reject).
#[test]
fn duplicate_keys_in_batch_decode_per_slot() {
    let dup = Bytes::from_static(b"hot-key");
    let req = Request::MGet {
        id: 9,
        keys: vec![dup.clone(), Bytes::from_static(b"other"), dup.clone(), dup],
    };
    let decoded = Request::decode(req.encode()).unwrap();
    assert_eq!(decoded, req);
    let Request::MGet { keys, .. } = decoded else {
        unreachable!()
    };
    assert_eq!(keys.len(), 4, "duplicates must keep their slots");
    assert_eq!(keys[0], keys[2]);
}

/// End-to-end: a live `Kvsd` answers a duplicate-key Multi-Get per slot
/// (every occurrence filled, misses left empty) and keeps the connection
/// usable afterwards — duplicates are normal traffic, not a protocol
/// violation.
#[test]
fn kvsd_answers_duplicate_keys_per_slot() {
    use std::sync::Arc;

    use simdht_kvs::index::by_short_name;
    use simdht_kvs::kvsd::Kvsd;
    use simdht_kvs::net::TcpConn;
    use simdht_kvs::store::{KvStore, StoreConfig};
    use simdht_kvs::transport::ClientConn;

    let store = Arc::new(KvStore::new(
        by_short_name("memc3", 64).expect("known index"),
        StoreConfig {
            memory_budget: 4 << 20,
            capacity_items: 64,
            shards: 1,
        },
    ));
    store.set(b"hot-key", b"hot-value").expect("preload");
    let kvsd = Kvsd::bind(Arc::clone(&store), "127.0.0.1:0").expect("bind");
    let mut conn = TcpConn::connect(kvsd.local_addr()).expect("connect");

    let req = Request::MGet {
        id: 41,
        keys: vec![
            Bytes::from_static(b"hot-key"),
            Bytes::from_static(b"missing"),
            Bytes::from_static(b"hot-key"),
            Bytes::from_static(b"hot-key"),
        ],
    };
    conn.send(req.encode()).expect("send");
    let frame = conn.recv().expect("recv");
    let Response::MGet { id, entries } = Response::decode(frame).expect("decode") else {
        panic!("expected an MGet response");
    };
    assert_eq!(id, 41);
    assert_eq!(entries.len(), 4, "one entry per slot, duplicates included");
    let hot = Bytes::from_static(b"hot-value");
    assert_eq!(entries[0].as_ref(), Some(&hot));
    assert_eq!(entries[1], None, "miss slot stays empty");
    assert_eq!(entries[2].as_ref(), Some(&hot));
    assert_eq!(entries[3].as_ref(), Some(&hot));

    // The connection survives: a second request on the same socket works.
    let again = Request::MGet {
        id: 42,
        keys: vec![Bytes::from_static(b"hot-key")],
    };
    conn.send(again.encode()).expect("send again");
    let frame = conn.recv().expect("recv again");
    match Response::decode(frame).expect("decode again") {
        Response::MGet { id, entries } => {
            assert_eq!(id, 42);
            assert_eq!(entries[0].as_ref(), Some(&hot));
        }
        other => panic!("unexpected response {other:?}"),
    }
    drop(conn);
    kvsd.shutdown();
}

/// Valid messages survive having garbage appended only if decoding is
/// strict about opcodes — trailing bytes after a complete message are
/// tolerated by design (the frame layer delimits messages), but a frame
/// whose *first* byte is corrupted must always fail. The list includes
/// every *valid* opcode from both spaces (4–9, 130–135): the CRC seal
/// covers the opcode byte, so rewriting an MGet into a structurally
/// plausible Delete or Cas frame still dies at the checksum.
#[test]
fn corrupted_opcode_always_errors() {
    let req = Request::MGet {
        id: 3,
        keys: vec![Bytes::from_static(b"some-key")],
    };
    let good = req.encode();
    for bad_op in [0u8, 4, 5, 6, 7, 8, 9, 10, 42, 127, 130, 133, 135, 255] {
        let mut bytes = good.to_vec();
        bytes[0] = bad_op;
        assert!(
            Request::decode(Bytes::from(bytes.clone())).is_err(),
            "opcode {bad_op}"
        );
    }
}

/// Append a valid CRC-32 trailer to a hand-written body, producing a
/// frame that passes the checksum layer and reaches the structural
/// decoder — exactly what a version-skewed (but non-corrupting) peer
/// would send.
fn sealed(body: &[u8]) -> Bytes {
    let mut framed = body.to_vec();
    framed.extend_from_slice(&simdht_kvs::protocol::crc32(body).to_le_bytes());
    Bytes::from(framed)
}

/// Structural violations in the versioned verbs (Delete/Cas/Touch/SetEx/
/// SetMultiEx and their responses), sealed with a *valid* checksum so the
/// CRC layer cannot mask them: every entry must be rejected by both
/// decoders on framing grounds alone.
const SEALED_MALFORMED: &[(&str, &[u8])] = &[
    ("delete header cut inside the id", &[5, 1, 2, 3]),
    (
        "delete key length overruns the frame",
        &[5, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, b'k'],
    ),
    (
        "cas header cut inside expected_version",
        &[6, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3],
    ),
    (
        "cas key length overruns the frame",
        &[
            6, 0, 0, 0, 0, 0, 0, 0, 0, // id
            1, 0, 0, 0, 0, 0, 0, 0, // expected_version
            0, 0, 0, 0, // ttl_secs
            9, 0, b'k', // klen 9, one byte of key
        ],
    ),
    (
        "cas value length u32::MAX with no value bytes",
        &[
            6, 0, 0, 0, 0, 0, 0, 0, 0, // id
            1, 0, 0, 0, 0, 0, 0, 0, // expected_version
            0, 0, 0, 0, // ttl_secs
            1, 0, b'k', // key
            255, 255, 255, 255, // vlen with nothing behind it
        ],
    ),
    (
        "touch header cut inside the ttl",
        &[7, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2],
    ),
    (
        "touch key length overruns the frame",
        &[7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, b'k'],
    ),
    (
        "set-ex value length overruns the frame",
        &[
            8, 0, 0, 0, 0, 0, 0, 0, 0, // id
            0, 0, 0, 0, // ttl_secs
            1, 0, b'k', // key
            255, 255, 255, 255, // vlen with nothing behind it
        ],
    ),
    (
        "set-multi-ex declares 65535 pairs with no payload",
        &[9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255],
    ),
    (
        "delete response missing the status byte",
        &[132, 0, 0, 0, 0, 0, 0, 0, 0],
    ),
    (
        "cas response cut inside the version",
        &[133, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3],
    ),
    (
        "touch response missing the status byte",
        &[134, 0, 0, 0, 0, 0, 0, 0, 0],
    ),
    (
        "set-ex response cut inside the version",
        &[135, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3],
    ),
];

#[test]
fn sealed_malformed_versioned_frames_are_rejected() {
    let corpus = SEALED_MALFORMED;
    for (what, body) in corpus {
        let b = sealed(body);
        assert!(Request::decode(b.clone()).is_err(), "request: {what}");
        assert!(Response::decode(b).is_err(), "response: {what}");
    }
}

/// Version tolerance: a status byte this build has no name for decodes to
/// `OpStatus::Unknown(b)` instead of being rejected, so a newer server
/// can extend the status space without breaking older clients. The
/// carrier frame itself is still CRC-sealed — tolerance applies to the
/// *value*, never to damage.
#[test]
fn unknown_status_bytes_decode_as_unknown() {
    // Delete response, id 7, status byte 250 (unassigned).
    let mut delete_body = vec![132u8];
    delete_body.extend_from_slice(&7u64.to_le_bytes());
    delete_body.push(250);
    match Response::decode(sealed(&delete_body)).expect("unknown status must decode") {
        Response::Delete { id, status } => {
            assert_eq!(id, 7);
            assert_eq!(status, OpStatus::Unknown(250));
        }
        other => panic!("unexpected response {other:?}"),
    }

    // Cas response, id 9, status byte 200 (unassigned), version 31.
    let mut cas_body = vec![133u8];
    cas_body.extend_from_slice(&9u64.to_le_bytes());
    cas_body.push(200);
    cas_body.extend_from_slice(&31u64.to_le_bytes());
    let decoded = Response::decode(sealed(&cas_body)).expect("unknown status must decode");
    assert_eq!(
        decoded,
        Response::Cas {
            id: 9,
            status: OpStatus::Unknown(200),
            version: 31
        }
    );
    // And the tolerated value re-encodes to the identical sealed frame:
    // relaying an unknown status is lossless.
    assert_eq!(decoded.encode(), sealed(&cas_body));
}

/// Exhaustive damage sweep over a realistic encoded MGet response: a cut
/// at *every* byte boundary and a bit-flip at *every* position must leave
/// the decoder returning `Err` — never a panic, never a silently wrong
/// value. The CRC-32 trailer sealed onto every message is what turns
/// payload damage (which framing alone cannot see) into a typed error.
#[test]
fn every_damaged_mget_response_is_rejected() {
    let resp = Response::MGet {
        id: 0xFEED_BEEF,
        entries: vec![
            Some(Bytes::from_static(b"value-one")),
            None,
            Some(Bytes::from_static(b"a-somewhat-longer-second-value")),
            Some(Bytes::new()),
        ],
    };
    let full = resp.encode();
    for cut in 0..full.len() {
        assert!(
            Response::decode(full.slice(..cut)).is_err(),
            "truncation to {cut}/{} bytes decoded",
            full.len()
        );
    }
    for pos in 0..full.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut bytes = full.to_vec();
            bytes[pos] ^= mask;
            assert!(
                Response::decode(Bytes::from(bytes)).is_err(),
                "flip {mask:#04x} at byte {pos} decoded"
            );
        }
    }
    assert_eq!(Response::decode(full).unwrap(), resp);
}

/// Same exhaustive damage sweep over an encoded SetMulti *request*: the
/// batched write verb is non-idempotent, so a damaged frame that decoded
/// to a plausible-but-different batch would corrupt the store silently.
/// Every truncation and every bit-flip must yield `Err`.
#[test]
fn every_damaged_set_multi_request_is_rejected() {
    let req = Request::SetMulti {
        id: 0xDEAD_0008,
        pairs: vec![
            (Bytes::from_static(b"key-one"), Bytes::from_static(b"v1")),
            (Bytes::from_static(b"k2"), Bytes::new()),
            (
                Bytes::from_static(b"a-longer-third-key"),
                Bytes::from_static(b"a-somewhat-longer-third-value"),
            ),
        ],
    };
    let full = req.encode();
    for cut in 0..full.len() {
        assert!(
            Request::decode(full.slice(..cut)).is_err(),
            "truncation to {cut}/{} bytes decoded",
            full.len()
        );
    }
    for pos in 0..full.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut bytes = full.to_vec();
            bytes[pos] ^= mask;
            assert!(
                Request::decode(Bytes::from(bytes)).is_err(),
                "flip {mask:#04x} at byte {pos} decoded"
            );
        }
    }
    assert_eq!(Request::decode(full).unwrap(), req);
}

/// And over an encoded SetMulti *response*: a client pairing statuses
/// with a non-idempotent batch must never act on damaged acks — every
/// truncation and bit-flip (including flips that turn a status byte into
/// an out-of-range value) must be rejected.
#[test]
fn every_damaged_set_multi_response_is_rejected() {
    let resp = Response::SetMulti {
        id: 0xFACE_0008,
        ok: vec![true, false, true, true, false],
    };
    let full = resp.encode();
    for cut in 0..full.len() {
        assert!(
            Response::decode(full.slice(..cut)).is_err(),
            "truncation to {cut}/{} bytes decoded",
            full.len()
        );
    }
    for pos in 0..full.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut bytes = full.to_vec();
            bytes[pos] ^= mask;
            assert!(
                Response::decode(Bytes::from(bytes)).is_err(),
                "flip {mask:#04x} at byte {pos} decoded"
            );
        }
    }
    assert_eq!(Response::decode(full).unwrap(), resp);
}

/// Exhaustive damage sweep over an encoded Cas *request*: CAS is the one
/// verb the client never resends, so a damaged frame that decoded to a
/// different-but-plausible compare-and-swap (wrong expected version,
/// wrong key, wrong value) would silently linearize the wrong write.
/// Every truncation and every bit-flip must yield `Err`.
#[test]
fn every_damaged_cas_request_is_rejected() {
    let req = Request::Cas {
        id: 0xCA5_0013,
        key: Bytes::from_static(b"contended-key"),
        expected_version: 41,
        value: Bytes::from_static(b"the-replacement-value"),
        ttl_secs: 300,
    };
    let full = req.encode();
    for cut in 0..full.len() {
        assert!(
            Request::decode(full.slice(..cut)).is_err(),
            "truncation to {cut}/{} bytes decoded",
            full.len()
        );
    }
    for pos in 0..full.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut bytes = full.to_vec();
            bytes[pos] ^= mask;
            assert!(
                Request::decode(Bytes::from(bytes)).is_err(),
                "flip {mask:#04x} at byte {pos} decoded"
            );
        }
    }
    assert_eq!(Request::decode(full).unwrap(), req);
}

/// And over an encoded Cas *response*: the status byte decides whether
/// the client records a win or a conflict, and the version field seeds
/// its next attempt — a flipped bit in either must surface as a decode
/// error, not a wrong verdict.
#[test]
fn every_damaged_cas_response_is_rejected() {
    let resp = Response::Cas {
        id: 0xCA5_0014,
        status: OpStatus::ExistsConflict,
        version: 42,
    };
    let full = resp.encode();
    for cut in 0..full.len() {
        assert!(
            Response::decode(full.slice(..cut)).is_err(),
            "truncation to {cut}/{} bytes decoded",
            full.len()
        );
    }
    for pos in 0..full.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut bytes = full.to_vec();
            bytes[pos] ^= mask;
            assert!(
                Response::decode(Bytes::from(bytes)).is_err(),
                "flip {mask:#04x} at byte {pos} decoded"
            );
        }
    }
    assert_eq!(Response::decode(full).unwrap(), resp);
}

/// The 16 MiB frame cap surfaces as a *typed* [`FrameTooLarge`] error on
/// both sides: writers refuse before sending, and readers refuse from the
/// 4-byte header alone — before allocating — so a hostile length prefix
/// cannot balloon memory.
#[test]
fn oversized_frames_yield_typed_errors_on_both_sides() {
    use simdht_kvs::net::{read_frame, write_frame, FrameTooLarge, MAX_FRAME_BYTES};

    let huge = vec![0u8; MAX_FRAME_BYTES + 1];
    let mut sink = Vec::new();
    let err = write_frame(&mut sink, &huge).unwrap_err();
    let typed = err
        .get_ref()
        .and_then(|e| e.downcast_ref::<FrameTooLarge>())
        .expect("write side carries FrameTooLarge");
    assert_eq!(typed.len, MAX_FRAME_BYTES + 1);
    assert_eq!(typed.limit, MAX_FRAME_BYTES);
    assert!(sink.is_empty(), "nothing may hit the wire");

    let header = (u32::try_from(MAX_FRAME_BYTES).unwrap() + 1).to_le_bytes();
    let err = read_frame(&mut &header[..]).unwrap_err();
    let typed = err
        .get_ref()
        .and_then(|e| e.downcast_ref::<FrameTooLarge>())
        .expect("read side carries FrameTooLarge");
    assert_eq!(typed.len, MAX_FRAME_BYTES + 1);
}

/// What one decoder run produced: the frames it yielded, plus how the
/// stream ended — cleanly, truncated mid-frame, or rejected with a typed
/// oversize error (carrying the hostile length so both paths must agree
/// on *what* they rejected, not just that they rejected).
#[derive(Debug, PartialEq)]
struct StreamVerdict {
    frames: Vec<Bytes>,
    end: StreamEnd,
}

#[derive(Debug, PartialEq)]
enum StreamEnd {
    Clean,
    TruncatedEof,
    TooLarge { len: usize },
}

fn classify(err: &std::io::Error) -> StreamEnd {
    use simdht_kvs::net::FrameTooLarge;
    if let Some(t) = err
        .get_ref()
        .and_then(|e| e.downcast_ref::<FrameTooLarge>())
    {
        StreamEnd::TooLarge { len: t.len }
    } else {
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::UnexpectedEof,
            "only EOF and FrameTooLarge errors exist in this corpus: {err}"
        );
        StreamEnd::TruncatedEof
    }
}

/// Reference semantics: the blocking [`read_frame`] loop over the whole
/// stream, as the thread-per-connection server consumes it.
fn blocking_verdict(stream: &[u8]) -> StreamVerdict {
    use simdht_kvs::net::read_frame;
    let mut cur = std::io::Cursor::new(stream);
    let mut frames = Vec::new();
    let end = loop {
        match read_frame(&mut cur) {
            Ok(Some(f)) => frames.push(f),
            Ok(None) => break StreamEnd::Clean,
            Err(e) => break classify(&e),
        }
    };
    StreamVerdict { frames, end }
}

/// The resumable path: feed the stream to a [`FrameDecoder`] in the given
/// chunks (as readiness events would deliver them), then signal EOF.
fn incremental_verdict(chunks: &[&[u8]]) -> StreamVerdict {
    use simdht_kvs::net::FrameDecoder;
    let mut dec = FrameDecoder::new();
    let mut frames = Vec::new();
    for chunk in chunks {
        if let Err(e) = dec.extend(chunk, &mut frames) {
            // First error poisons the decoder; a server drops the
            // connection here, so nothing after it counts.
            return StreamVerdict {
                frames,
                end: classify(&e),
            };
        }
    }
    let end = match dec.finish() {
        Ok(()) => StreamEnd::Clean,
        Err(e) => classify(&e),
    };
    StreamVerdict { frames, end }
}

/// The incremental [`FrameDecoder`] must be byte-for-byte equivalent to
/// the blocking [`read_frame`] loop **no matter how the stream is split**:
/// for every corpus stream — healthy multi-frame pipelines, zero-length
/// frames, oversized length prefixes, truncations inside the header and
/// inside the payload — the whole stream is replayed split at *every*
/// byte boundary (and once byte-at-a-time), and the decoded frames plus
/// the end-of-stream classification must match the blocking reference
/// exactly. This is the contract that lets a reader of arbitrary chunks
/// and the blocking server share one wire protocol.
#[test]
fn frame_decoder_matches_blocking_reader_at_every_split() {
    use simdht_kvs::net::{write_frame, MAX_FRAME_BYTES};

    let seal = |msgs: &[&[u8]]| -> Vec<u8> {
        let mut out = Vec::new();
        for m in msgs {
            write_frame(&mut out, m).expect("corpus frames fit");
        }
        out
    };
    let mget = Request::MGet {
        id: 7,
        keys: vec![Bytes::from_static(b"alpha"), Bytes::from_static(b"beta")],
    }
    .encode();
    let set = Request::Set {
        id: 8,
        key: Bytes::from_static(b"k"),
        value: Bytes::from_static(b"a-value-of-some-length"),
    }
    .encode();
    let set_multi = Request::SetMulti {
        id: 9,
        pairs: vec![
            (Bytes::from_static(b"k1"), Bytes::from_static(b"v1")),
            (Bytes::from_static(b"k2"), Bytes::from_static(b"v2")),
        ],
    }
    .encode();
    let resp = Response::MGet {
        id: 7,
        entries: vec![Some(Bytes::from_static(b"hit")), None],
    }
    .encode();
    let oversize_header = ((MAX_FRAME_BYTES as u32) + 1).to_le_bytes();

    let healthy = seal(&[&mget, &set, &set_multi, &resp]);
    let with_empty = seal(&[&mget, b"", &resp]);
    let mut oversize_mid = seal(&[&set]);
    oversize_mid.extend_from_slice(&oversize_header);
    oversize_mid.extend_from_slice(b"garbage that must never be buffered");
    let mut cut_header = seal(&[&mget]);
    cut_header.extend_from_slice(&seal(&[&set])[..2]);
    let mut cut_payload = seal(&[&mget]);
    let sealed_set = seal(&[&set]);
    cut_payload.extend_from_slice(&sealed_set[..sealed_set.len() - 3]);

    let corpus: &[(&str, &[u8])] = &[
        ("empty stream", &[]),
        ("three healthy frames", &healthy),
        ("zero-length frame in the middle", &with_empty),
        ("oversized prefix after a good frame", &oversize_mid),
        ("oversized prefix first", &oversize_header),
        ("eof inside the second header", &cut_header),
        ("eof inside the second payload", &cut_payload),
    ];

    for (what, stream) in corpus {
        let want = blocking_verdict(stream);
        for split in 0..=stream.len() {
            let got = incremental_verdict(&[&stream[..split], &stream[split..]]);
            assert_eq!(got, want, "{what}: split at byte {split}/{}", stream.len());
        }
        let bytes: Vec<&[u8]> = stream.chunks(1).collect();
        assert_eq!(
            incremental_verdict(&bytes),
            want,
            "{what}: byte-at-a-time delivery"
        );
    }
}

/// What both decoders make of one sealed message: exactly one side is
/// `Some` for a valid frame, neither for a damaged one. The request side
/// is decoded both in place and owned, and the two must agree.
fn decode_both(msg: &[u8]) -> (Option<Request>, Option<Response>) {
    let req = decoders_agree(msg, &mut DecodeScratch::default());
    (req.ok(), Response::decode(Bytes::copy_from_slice(msg)).ok())
}

/// Decode `msg` in place (with `lists` as the reused list storage, as a
/// server connection does) and owned, and require one verdict: the same
/// error text, or the same fields — with every in-place key and value a
/// slice of `msg` itself. Returns the owned verdict.
fn decoders_agree(msg: &[u8], lists: &mut DecodeScratch) -> Result<Request, String> {
    let owned = Request::decode(Bytes::copy_from_slice(msg)).map_err(|e| e.to_string());
    let in_place = Request::decode_in_place(msg, lists);
    let frame = msg.as_ptr_range();
    let seen = in_place
        .as_ref()
        .map(|req| {
            req.map(|s| {
                let at = s.as_ptr_range();
                assert!(
                    frame.start <= at.start && at.end <= frame.end,
                    "not a slice of the frame"
                );
                Bytes::copy_from_slice(s)
            })
        })
        .map_err(|e| e.to_string());
    assert_eq!(
        seen, owned,
        "in-place and owned decodes of {msg:02x?} disagree"
    );
    if let Ok(req) = in_place {
        lists.reclaim(req);
    }
    owned
}

/// The in-place decoder and `Request::decode` return the same verdict —
/// accept or reject, error text, fields — on every golden frame, every
/// hand-written malformed frame, every truncation cut of each, and every
/// single-byte change of each body (re-sealed, so the structural decoder
/// answers), with one list storage reused across all of them as a
/// connection reuses it.
#[test]
fn in_place_and_owned_request_decoders_agree() {
    let mut lists = DecodeScratch::default();
    let mut frames: Vec<Vec<u8>> = Vec::new();
    for (_, stream) in golden_streams() {
        frames.extend(blocking_verdict(&stream).frames.iter().map(|f| f.to_vec()));
    }
    frames.extend(MALFORMED.iter().map(|(_, bytes)| bytes.to_vec()));
    frames.extend(
        SEALED_MALFORMED
            .iter()
            .map(|(_, body)| sealed(body).to_vec()),
    );
    let mut accepted = 0;
    for frame in &frames {
        accepted += usize::from(decoders_agree(frame, &mut lists).is_ok());
        for cut in 0..frame.len() {
            decoders_agree(&frame[..cut], &mut lists).expect_err("a strict prefix decoded");
        }
        let Some(body_len) = frame.len().checked_sub(4) else {
            continue;
        };
        let mut body = frame[..body_len].to_vec();
        for pos in 0..body.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                body[pos] ^= mask;
                let _ = decoders_agree(&sealed(&body), &mut lists);
                body[pos] ^= mask;
            }
        }
    }
    assert_eq!(accepted, 9, "the nine golden requests decode");
}

/// Slots the decoded message's lists reserved — what a hostile count field
/// could inflate.
fn reserved_slots((req, resp): &(Option<Request>, Option<Response>)) -> usize {
    let req = match req {
        Some(Request::MGet { keys, .. }) => keys.capacity(),
        Some(Request::SetMulti { pairs, .. } | Request::SetMultiEx { pairs, .. }) => {
            pairs.capacity()
        }
        _ => 0,
    };
    let resp = match resp {
        Some(Response::MGet { entries, .. }) => entries.capacity(),
        Some(Response::SetMulti { ok, .. }) => ok.capacity(),
        _ => 0,
    };
    req.max(resp)
}

/// The decoder-robustness corpus check (ROADMAP item 1(c)) for one valid
/// sealed message: (i) no strict prefix decodes; (ii) no body prefix and
/// no single-byte body change (each `xor` mask at every position),
/// **re-sealed with a valid CRC** so the structural decoder is what
/// answers, decodes to the original message — and whatever it does decode
/// to reserved no more list slots than the body has bytes.
fn assert_damage_never_passes_for_the_original(frame: &[u8], masks: &[u8], what: &str) {
    let original = decode_both(frame);
    assert!(
        original.0.is_some() != original.1.is_some(),
        "{what}: a corpus frame is one request or one response"
    );
    let check = |body: &[u8], how: &str| {
        let got = decode_both(&sealed(body));
        assert!(
            got.0.is_none() || got.0 != original.0,
            "{what}: {how} decoded to the original request"
        );
        assert!(
            got.1.is_none() || got.1 != original.1,
            "{what}: {how} decoded to the original response"
        );
        assert!(
            reserved_slots(&got) <= body.len(),
            "{what}: {how} reserved {} slots for a {}-byte body",
            reserved_slots(&got),
            body.len()
        );
    };
    let body = &frame[..frame.len() - 4];
    for cut in 0..frame.len() {
        assert_eq!(
            decode_both(&frame[..cut]),
            (None, None),
            "{what}: strict prefix of {cut} bytes decoded"
        );
        if cut < body.len() {
            check(&body[..cut], &format!("body cut to {cut} bytes"));
        }
    }
    let mut damaged = body.to_vec();
    for pos in 0..body.len() {
        for mask in masks {
            damaged[pos] ^= mask;
            check(&damaged, &format!("byte {pos} xor {mask:#04x}"));
            damaged[pos] ^= mask;
        }
    }
}

/// (iii) of the corpus check: `stream` fed to a [`FrameDecoder`] split at
/// every byte offset yields the payloads the blocking `read_frame` loop
/// does.
fn assert_every_split_frames_alike(stream: &[u8], what: &str) {
    let want = blocking_verdict(stream);
    assert_eq!(want.end, StreamEnd::Clean, "{what}");
    for split in 0..=stream.len() {
        let got = incremental_verdict(&[&stream[..split], &stream[split..]]);
        assert_eq!(got, want, "{what}: split at byte {split}");
    }
}

/// Every hex literal of `wire_golden.rs` as the byte stream a socket would
/// carry: the literal itself for a run's length-prefixed subframes,
/// the literal behind a `write_frame` prefix for a bare message. Read out
/// of that file's source — its constants are private to its own test
/// binary, and a second copy here could drift from the pinned one.
fn golden_streams() -> Vec<(String, Vec<u8>)> {
    include_str!("wire_golden.rs")
        .split("\nconst ")
        .skip(1)
        .map(|decl| {
            let name = decl.split(':').next().expect("const name").to_string();
            let literal = decl.split('"').nth(1).expect("string literal");
            let hex: Vec<u8> = literal.bytes().filter(u8::is_ascii_hexdigit).collect();
            let bytes: Vec<u8> = hex
                .chunks(2)
                .map(|pair| {
                    let pair = std::str::from_utf8(pair).expect("ascii");
                    u8::from_str_radix(pair, 16).expect("hex byte")
                })
                .collect();
            if name.starts_with("REACTOR") {
                return (name, bytes);
            }
            let mut stream = Vec::new();
            simdht_kvs::net::write_frame(&mut stream, &bytes).expect("golden frames fit");
            (name, stream)
        })
        .collect()
}

/// The corpus check over every frame `wire_golden.rs` pins, under every
/// one of the 255 possible changes to every body byte.
#[test]
fn golden_frames_survive_the_damage_corpus() {
    let all_masks: Vec<u8> = (1..=u8::MAX).collect();
    let streams = golden_streams();
    assert_eq!(streams.len(), 19, "9 requests, 8 responses, 2 store frames");
    let mut frames = 0;
    for (name, stream) in &streams {
        assert_every_split_frames_alike(stream, name);
        for payload in blocking_verdict(stream).frames {
            assert_damage_never_passes_for_the_original(&payload, &all_masks, name);
            frames += 1;
        }
    }
    assert_eq!(frames, 20, "the REACTOR_SUBFRAMES literal holds two frames");
}

/// A length that does not fit its wire field must never be encoded: the
/// field would wrap, and — trailing bytes being tolerated — the frame
/// would decode as a *different* valid request. The two cases below did
/// exactly that before the encoders checked: the 65 556-byte key arrived
/// as a Delete of its first 20 bytes, the 65 536-key MGet as an MGet of
/// nothing.
#[test]
fn lengths_that_overflow_their_field_are_refused_not_wrapped() {
    let long_key = Request::Delete {
        id: 1,
        key: Bytes::from(vec![b'k'; 65_556]),
    };
    let many_keys = Request::MGet {
        id: 2,
        keys: vec![Bytes::from_static(b"k"); 65_536],
    };
    let many_pairs = Request::SetMultiEx {
        id: 3,
        pairs: vec![(Bytes::from_static(b"k"), Bytes::new()); 65_536],
        ttl_secs: 9,
    };
    for req in [long_key, many_keys, many_pairs] {
        let err = req.try_encode().expect_err("must not encode");
        assert_eq!(
            std::io::Error::from(err).kind(),
            std::io::ErrorKind::InvalidInput
        );
        let panicked = std::panic::catch_unwind(|| req.encode());
        assert!(panicked.is_err(), "encode must panic, not wrap");
    }
    let wide = Response::SetMulti {
        id: 4,
        ok: vec![true; 65_536],
    };
    assert!(std::panic::catch_unwind(|| wide.encode()).is_err());
}

/// The widest lengths that do fit still round-trip: `u16::MAX` keys in one
/// MGet, and one key of `u16::MAX` bytes.
#[test]
fn lengths_at_their_field_maximum_round_trip() {
    let widest = [
        Request::MGet {
            id: 5,
            keys: vec![Bytes::from_static(b"k"); usize::from(u16::MAX)],
        },
        Request::Touch {
            id: 6,
            key: Bytes::from(vec![b'k'; usize::from(u16::MAX)]),
            ttl_secs: 1,
        },
    ];
    for req in widest {
        let frame = req.try_encode().expect("fits its fields");
        assert_eq!(frame, req.encode());
        assert_eq!(Request::decode(frame).unwrap(), req);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_roundtrip(req in arb_request()) {
        prop_assert_eq!(Request::decode(req.encode()).unwrap(), req);
    }

    #[test]
    fn in_place_and_owned_decoders_agree_on_generated_requests(
        req in arb_request(),
        cut in any::<prop::sample::Index>(),
    ) {
        let mut lists = DecodeScratch::default();
        let frame = req.encode();
        prop_assert_eq!(decoders_agree(&frame, &mut lists), Ok(req));
        let cut = cut.index(frame.len());
        prop_assert!(decoders_agree(&frame[..cut], &mut lists).is_err());
    }

    #[test]
    fn response_roundtrip(resp in arb_response()) {
        prop_assert_eq!(Response::decode(resp.encode()).unwrap(), resp);
    }

    #[test]
    fn decoders_never_panic_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let b = Bytes::from(bytes);
        let _ = Request::decode(b.clone());
        let _ = Response::decode(b);
    }

    #[test]
    fn truncated_responses_never_decode(resp in arb_response(), cut in any::<prop::sample::Index>()) {
        // With the CRC trailer there is no benign truncation left: every
        // strict prefix of a sealed response frame must fail to decode.
        let full = resp.encode();
        let cut = cut.index(full.len());
        prop_assert!(Response::decode(full.slice(..cut)).is_err());
    }

    #[test]
    fn corrupted_responses_never_decode(
        resp in arb_response(),
        pos in any::<prop::sample::Index>(),
        mask in 1u8..=255,
    ) {
        let full = resp.encode();
        let mut bytes = full.to_vec();
        let pos = pos.index(bytes.len());
        bytes[pos] ^= mask;
        prop_assert!(Response::decode(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn frame_decoder_split_equivalence(
        reqs in prop::collection::vec(arb_request(), 0..5),
        split in any::<prop::sample::Index>(),
        cut_tail in 0usize..4,
    ) {
        // Random pipelines, possibly truncated, split at a random byte:
        // incremental and blocking decoding must always agree.
        use simdht_kvs::net::write_frame;
        let mut stream = Vec::new();
        for r in &reqs {
            write_frame(&mut stream, &r.encode()).unwrap();
        }
        stream.truncate(stream.len().saturating_sub(cut_tail));
        let want = blocking_verdict(&stream);
        let cut = split.index(stream.len() + 1);
        let got = incremental_verdict(&[&stream[..cut], &stream[cut..]]);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn truncation_always_errors_or_shrinks(req in arb_request(), cut in any::<prop::sample::Index>()) {
        let full = req.encode();
        if full.len() > 1 {
            let cut = 1 + cut.index(full.len() - 1);
            if cut < full.len() {
                // A strict prefix either fails to decode, or (for MGet with
                // trailing keys cut at a record boundary) decodes to fewer
                // keys — it must never decode to the identical message.
                if let Ok(decoded) = Request::decode(full.slice(..cut)) {
                    prop_assert_ne!(decoded, req, "truncated bytes decoded identically");
                }
            }
        }
    }

    #[test]
    fn generated_messages_survive_the_damage_corpus(req in arb_request(), resp in arb_response()) {
        for (frame, what) in [(req.encode(), "request"), (resp.encode(), "response")] {
            assert_damage_never_passes_for_the_original(&frame, &[0x01, 0x80, 0xFF], what);
            let mut stream = Vec::new();
            simdht_kvs::net::write_frame(&mut stream, &frame).unwrap();
            assert_every_split_frames_alike(&stream, what);
        }
    }

    #[test]
    fn accepted_bodies_reencode_to_themselves(
        req in arb_request(),
        resp in arb_response(),
        pos in any::<prop::sample::Index>(),
        byte in any::<u8>(),
        tail in prop::collection::vec(any::<u8>(), 0..4),
    ) {
        // Decoding is strict where the encoding has a choice (flag bytes)
        // and total where it has none (status and error bytes relay as
        // `Unknown`), so whatever body a decoder accepts, the message it
        // returns encodes back to that body: byte for byte when nothing
        // trails the message, as its prefix when something does.
        for frame in [req.encode(), resp.encode()] {
            let mut body = frame[..frame.len() - 4].to_vec();
            let pos = pos.index(body.len());
            body[pos] = byte;
            body.extend_from_slice(&tail);
            let reencoded = match decode_both(&sealed(&body)) {
                (Some(req), None) => req.encode(),
                (None, Some(resp)) => resp.encode(),
                (None, None) => continue,
                both => panic!("one body decoded both ways: {both:?}"),
            };
            let canonical = &reencoded[..reencoded.len() - 4];
            prop_assert!(body.starts_with(canonical), "{body:?} -> {canonical:?}");
            if tail.is_empty() {
                prop_assert_eq!(&body[..], canonical);
            }
        }
    }
}
