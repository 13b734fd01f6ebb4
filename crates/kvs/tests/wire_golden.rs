//! Golden wire frames: one sealed frame of every request verb and every
//! response kind, as hex literals.
//!
//! Every other CRC pin in the tree is self-referential — the expected
//! trailer is computed with `protocol::crc32` itself, so swapping in a
//! kernel that is *consistently* wrong would pass them all while breaking
//! every peer built from an older commit. The literals below were recorded
//! at the commit before the table loop was replaced by the
//! `simdht_simd::crc` kernel (ISSUE 15); a change to them is a wire-format
//! change, not a refactor. Bodies range from 1 B (`Shutdown`) to 750 B
//! (`SetMultiEx`), so the short-input table tier, the 64 B folding
//! threshold and the 128 B fold-by-4 loop all sit under a literal.

use bytes::Bytes;
use simdht_kvs::index;
use simdht_kvs::protocol::{ErrorCode, OpStatus, Request, Response};
use simdht_kvs::store::{KvStore, MGetResponse, StoreConfig};

fn unhex(s: &str) -> Vec<u8> {
    s.as_bytes()
        .chunks(2)
        .map(|pair| {
            let pair = std::str::from_utf8(pair).expect("ascii literal");
            u8::from_str_radix(pair, 16).expect("hex byte")
        })
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

/// `n` deterministic pairs whose value lengths step through 0, 7, 14, …
/// bytes, so record boundaries land at many offsets within a frame.
fn pairs(n: usize) -> Vec<(Bytes, Bytes)> {
    (0..n)
        .map(|i| {
            let value: Vec<u8> = (0..i * 7).map(|j| (i * 31 + j * 7) as u8).collect();
            (b(&format!("golden-key-{i:02}")), Bytes::from(value))
        })
        .collect()
}

fn requests() -> Vec<(&'static str, Request, &'static str)> {
    vec![
        (
            "mget",
            Request::MGet {
                id: 0x0102_0304_0506_0708,
                keys: pairs(16).into_iter().map(|(k, _)| k).collect(),
            },
            REQ_MGET,
        ),
        (
            "set",
            Request::Set {
                id: 2,
                key: b("alpha"),
                value: b("the quick brown fox jumps over the lazy dog"),
            },
            REQ_SET,
        ),
        (
            "set-multi",
            Request::SetMulti {
                id: 3,
                pairs: pairs(6),
            },
            REQ_SET_MULTI,
        ),
        (
            "delete",
            Request::Delete {
                id: 4,
                key: b("alpha"),
            },
            REQ_DELETE,
        ),
        (
            "cas",
            Request::Cas {
                id: 5,
                key: b("alpha"),
                expected_version: 0x1122_3344_5566_7788,
                value: b("swapped"),
                ttl_secs: 90,
            },
            REQ_CAS,
        ),
        (
            "touch",
            Request::Touch {
                id: 6,
                key: b("alpha"),
                ttl_secs: 3600,
            },
            REQ_TOUCH,
        ),
        (
            "set-ex",
            Request::SetEx {
                id: 7,
                key: b("alpha"),
                value: b("expiring"),
                ttl_secs: 15,
            },
            REQ_SET_EX,
        ),
        (
            "set-multi-ex",
            Request::SetMultiEx {
                id: 8,
                pairs: pairs(12),
                ttl_secs: 300,
            },
            REQ_SET_MULTI_EX,
        ),
        ("shutdown", Request::Shutdown, REQ_SHUTDOWN),
    ]
}

fn responses() -> Vec<(&'static str, Response, &'static str)> {
    vec![
        (
            "mget",
            Response::MGet {
                id: 0x0102_0304_0506_0708,
                entries: vec![Some(b("one")), None, Some(Bytes::new()), Some(b("four"))],
            },
            RESP_MGET,
        ),
        ("set", Response::Set { id: 2, ok: true }, RESP_SET),
        (
            "set-multi",
            Response::SetMulti {
                id: 3,
                ok: vec![true, false, true, true, false],
            },
            RESP_SET_MULTI,
        ),
        (
            "delete",
            Response::Delete {
                id: 4,
                status: OpStatus::Deleted,
            },
            RESP_DELETE,
        ),
        (
            "cas",
            Response::Cas {
                id: 5,
                status: OpStatus::ExistsConflict,
                version: 0x8877_6655_4433_2211,
            },
            RESP_CAS,
        ),
        (
            "touch",
            Response::Touch {
                id: 6,
                status: OpStatus::NotFound,
            },
            RESP_TOUCH,
        ),
        (
            "set-ex",
            Response::SetEx {
                id: 7,
                status: OpStatus::Stored,
                version: 42,
            },
            RESP_SET_EX,
        ),
        (
            "error",
            Response::Error {
                id: 8,
                code: ErrorCode::DeadlineExceeded,
            },
            RESP_ERROR,
        ),
    ]
}

#[test]
fn every_request_verb_encodes_to_its_recorded_frame() {
    for (name, req, golden) in requests() {
        let frame = req.encode();
        assert_eq!(hex(&frame), golden, "request {name}");
        assert_eq!(
            Request::decode(Bytes::from(unhex(golden))),
            Ok(req),
            "request {name}"
        );
    }
}

#[test]
fn every_response_kind_encodes_to_its_recorded_frame() {
    for (name, resp, golden) in responses() {
        let frame = resp.encode();
        assert_eq!(hex(&frame), golden, "response {name}");
        assert_eq!(
            Response::decode(Bytes::from(unhex(golden))),
            Ok(resp),
            "response {name}"
        );
    }
}

/// A store holding the even-numbered `pairs(16)`, so a 16-key MGet of all
/// of them alternates hit and miss (and slot 0 is an empty-value hit).
fn half_loaded_store() -> KvStore {
    let store = KvStore::new(
        index::by_short_name("ver", 1024).expect("known index"),
        StoreConfig {
            memory_budget: 4 << 20,
            capacity_items: 1024,
            ..StoreConfig::default()
        },
    );
    for (k, v) in pairs(16).iter().step_by(2) {
        store.set(k, v).expect("preload");
    }
    store
}

#[test]
fn store_sealed_mget16_reply_matches_its_recorded_frame() {
    let store = half_loaded_store();
    let keys = pairs(16);
    let refs: Vec<&[u8]> = keys.iter().map(|(k, _)| &k[..]).collect();
    let mut resp = MGetResponse::new();
    store.mget(&refs, &mut resp);
    let frame = resp.seal_frame(0x0102_0304_0506_0708).to_vec();
    assert_eq!(hex(&frame), STORE_MGET16_REPLY);

    let entries = keys
        .iter()
        .enumerate()
        .map(|(i, (_, v))| (i % 2 == 0).then(|| v.clone()))
        .collect();
    assert_eq!(
        Response::decode(Bytes::from(unhex(STORE_MGET16_REPLY))),
        Ok(Response::MGet {
            id: 0x0102_0304_0506_0708,
            entries,
        })
    );
}

/// A run's scatter: one store call for two pipelined Multi-Gets (a 3-key
/// request followed by the 16-key request above) cut back into two
/// length-prefixed frames, as the server's connection loop sends them.
#[test]
fn reactor_subframes_of_a_coalesced_batch_match_their_recorded_bytes() {
    let store = half_loaded_store();
    let keys = pairs(16);
    let mut refs: Vec<&[u8]> = vec![b"golden-key-04", b"absent", b"golden-key-02"];
    refs.extend(keys.iter().map(|(k, _)| &k[..]));
    let mut batch = MGetResponse::new();
    store.mget(&refs, &mut batch);

    let mut out = Vec::new();
    let first = batch.append_subframe(0..3, 9, &mut out);
    let second = batch.append_subframe(3..19, 0x0102_0304_0506_0708, &mut out);
    assert_eq!(first + second, out.len());
    assert_eq!(hex(&out), REACTOR_SUBFRAMES);
    // The 16-key slice is the stand-alone reply behind a length prefix.
    assert_eq!(hex(&out[first + 4..]), STORE_MGET16_REPLY);
}

const REQ_MGET: &str = "\
    01080706050403020110000d00676f6c64656e2d6b65792d30300d00676f6c64656e2d6b65792d30310d0067\
    6f6c64656e2d6b65792d30320d00676f6c64656e2d6b65792d30330d00676f6c64656e2d6b65792d30340d00\
    676f6c64656e2d6b65792d30350d00676f6c64656e2d6b65792d30360d00676f6c64656e2d6b65792d30370d\
    00676f6c64656e2d6b65792d30380d00676f6c64656e2d6b65792d30390d00676f6c64656e2d6b65792d3130\
    0d00676f6c64656e2d6b65792d31310d00676f6c64656e2d6b65792d31320d00676f6c64656e2d6b65792d31\
    330d00676f6c64656e2d6b65792d31340d00676f6c64656e2d6b65792d3135196fd087";
const REQ_SET: &str = "\
    0202000000000000000500616c7068612b00000074686520717569636b2062726f776e20666f78206a756d70\
    73206f76657220746865206c617a7920646f67f386ef5e";
const REQ_SET_MULTI: &str = "\
    04030000000000000006000d00676f6c64656e2d6b65792d3030000000000d00676f6c64656e2d6b65792d30\
    31070000001f262d343b42490d00676f6c64656e2d6b65792d30320e0000003e454c535a61686f767d848b92\
    990d00676f6c64656e2d6b65792d3033150000005d646b727980878e959ca3aab1b8bfc6cdd4dbe2e90d0067\
    6f6c64656e2d6b65792d30341c0000007c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d242b3239\
    0d00676f6c64656e2d6b65792d3035230000009ba2a9b0b7bec5ccd3dae1e8eff6fd040b121920272e353c43\
    4a51585f666d747b828954743cbf";
const REQ_DELETE: &str = "0504000000000000000500616c706861f0126458";
const REQ_CAS: &str = "\
    06050000000000000088776655443322115a0000000500616c7068610700000073776170706564adb61872";
const REQ_TOUCH: &str = "070600000000000000100e00000500616c706861a5238887";
const REQ_SET_EX: &str = "\
    0807000000000000000f0000000500616c706861080000006578706972696e676c53a6ea";
const REQ_SET_MULTI_EX: &str = "\
    0908000000000000002c0100000c000d00676f6c64656e2d6b65792d3030000000000d00676f6c64656e2d6b\
    65792d3031070000001f262d343b42490d00676f6c64656e2d6b65792d30320e0000003e454c535a61686f76\
    7d848b92990d00676f6c64656e2d6b65792d3033150000005d646b727980878e959ca3aab1b8bfc6cdd4dbe2\
    e90d00676f6c64656e2d6b65792d30341c0000007c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d\
    242b32390d00676f6c64656e2d6b65792d3035230000009ba2a9b0b7bec5ccd3dae1e8eff6fd040b12192027\
    2e353c434a51585f666d747b82890d00676f6c64656e2d6b65792d30362a000000bac1c8cfd6dde4ebf2f900\
    070e151c232a31383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d90d00676f6c64656e2d6b65792d\
    303731000000d9e0e7eef5fc030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dc\
    e3eaf1f8ff060d141b22290d00676f6c64656e2d6b65792d303838000000f8ff060d141b222930373e454c53\
    5a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb020910171e252c333a41484f565d646b72790d00\
    676f6c64656e2d6b65792d30393f000000171e252c333a41484f565d646b727980878e959ca3aab1b8bfc6cd\
    d4dbe2e9f0f7fe050c131a21282f363d444b525960676e757c838a91989fa6adb4bbc2c90d00676f6c64656e\
    2d6b65792d313046000000363d444b525960676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f16\
    1d242b323940474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b12190d00676f6c6465\
    6e2d6b65792d31314d000000555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b121920272e\
    353c434a51585f666d747b828990979ea5acb3bac1c8cfd6dde4ebf2f900070e151c232a31383f464d545b62\
    69a7dca38d";
const REQ_SHUTDOWN: &str = "0337be0b4b";
const RESP_MGET: &str = "\
    800807060504030201040001030000006f6e650001000000000104000000666f7572e200a661";
const RESP_SET: &str = "810200000000000000015912bcb3";
const RESP_SET_MULTI: &str = "830300000000000000050001000101004b2572ff";
const RESP_DELETE: &str = "840400000000000000022df186bf";
const RESP_CAS: &str = "85050000000000000004112233445566778800cbf270";
const RESP_TOUCH: &str = "86060000000000000003003982e2";
const RESP_SET_EX: &str = "870700000000000000012a000000000000003e350177";
const RESP_ERROR: &str = "820800000000000000027e72ac54";
const STORE_MGET16_REPLY: &str = "\
    8008070605040302011000010000000000010e0000003e454c535a61686f767d848b929900011c0000007c83\
    8a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d242b323900012a000000bac1c8cfd6dde4ebf2f90007\
    0e151c232a31383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9000138000000f8ff060d141b2229\
    30373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb020910171e252c333a41484f565d\
    646b7279000146000000363d444b525960676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d\
    242b323940474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b1219000154000000747b\
    828990979ea5acb3bac1c8cfd6dde4ebf2f900070e151c232a31383f464d545b626970777e858c939aa1a8af\
    b6bdc4cbd2d9e0e7eef5fc030a11181f262d343b424950575e656c737a81888f969da4abb2b9000162000000\
    b2b9c0c7ced5dce3eaf1f8ff060d141b222930373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1d8df\
    e6edf4fb020910171e252c333a41484f565d646b727980878e959ca3aab1b8bfc6cdd4dbe2e9f0f7fe050c13\
    1a21282f363d444b525900286d84d3";
const REACTOR_SUBFRAMES: &str = "\
    440000008009000000000000000300011c0000007c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d\
    242b323900010e0000003e454c535a61686f767d848b9299cf1114ffc7010000800807060504030201100001\
    0000000000010e0000003e454c535a61686f767d848b929900011c0000007c838a91989fa6adb4bbc2c9d0d7\
    dee5ecf3fa01080f161d242b323900012a000000bac1c8cfd6dde4ebf2f900070e151c232a31383f464d545b\
    626970777e858c939aa1a8afb6bdc4cbd2d9000138000000f8ff060d141b222930373e454c535a61686f767d\
    848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb020910171e252c333a41484f565d646b7279000146000000363d\
    444b525960676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d242b323940474e555c636a71\
    787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b1219000154000000747b828990979ea5acb3bac1c8cf\
    d6dde4ebf2f900070e151c232a31383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc03\
    0a11181f262d343b424950575e656c737a81888f969da4abb2b9000162000000b2b9c0c7ced5dce3eaf1f8ff\
    060d141b222930373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb020910171e252c33\
    3a41484f565d646b727980878e959ca3aab1b8bfc6cdd4dbe2e9f0f7fe050c131a21282f363d444b52590028\
    6d84d3";
