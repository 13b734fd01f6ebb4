//! Wire protocol for the simulated RDMA-Memcached exchange — and the one
//! owner of its byte layout.
//!
//! RDMA-Memcached's Get protocol "batches the key/value data into multiple
//! small message transfers ... using fast two-sided RDMA SENDs" (§VI-A).
//! Here each Multi-Get request and its response are encoded into contiguous
//! byte messages; the fabric layer charges the modeled wire cost per
//! message byte, so response sizes matter exactly as they did on EDR.
//!
//! ## Layout
//!
//! DESIGN.md's "Wire format" table lists every verb's opcode and field
//! sequence; it mirrors [`Request`]'s and [`Response`]'s codec arms below,
//! where each layout appears once per direction as a run of `Writer` /
//! `Reader` calls. Nothing outside this module knows an opcode, a field
//! width, or where the CRC goes: the store builds its Multi-Get reply in
//! place through `mget_resp_header` / `mget_resp_entry` / `seal`, and
//! [`crate::net`] frames through `frame_prefix` / `frame_len`.
//!
//! Trailing bytes after a complete message are tolerated (the frame layer
//! delimits messages), so a decoder cannot notice a length that wrapped
//! its field on the way out. The encoders therefore refuse to produce one:
//! see [`Request::encode`]'s `# Panics` and [`Request::try_encode`].
//!
//! ## Integrity
//!
//! Every message carries a CRC-32 trailer over its body, verified before
//! any field is parsed. Transport checksums (TCP's 16-bit sum, the modeled
//! fabric's nothing-at-all) do not protect against corruption introduced
//! between encode and the socket — exactly where the fault-injection layer
//! ([`crate::fault`]) sits — and without end-to-end integrity a flipped
//! byte inside a key or value would be *acted on* rather than rejected
//! (the server would store or serve a value nobody ever wrote). The CRC
//! turns every single-byte corruption into a typed [`DecodeError`], which
//! closes the connection instead of propagating garbage.
//!
//! The checksum is [`simdht_simd::crc::crc32`], re-exported here as
//! [`crc32`]: IEEE CRC-32, computed by `pclmulqdq` folding for bodies of
//! 64 B and up and by slicing-by-8 below that. It is called from two
//! places, `seal` and the `Reader`'s constructor, and
//! `tests/wire_golden.rs` pins the resulting bytes against frames recorded
//! before the kernel existed.
//!
//! ## Version tolerance
//!
//! [`Response::Error`] carries a status byte ([`ErrorCode`]). Codes this
//! build does not know decode as [`ErrorCode::Unknown`] rather than
//! failing, so a newer server can introduce shedding reasons without
//! breaking older clients mid-connection.

use std::io;

use bytes::{Buf, Bytes};

/// CRC-32 (IEEE) of `bytes` — the per-message integrity trailer. Detects
/// every single-byte corruption and every burst shorter than 32 bits.
pub use simdht_simd::crc::crc32;

/// Upper bound on a single frame's payload. The largest legitimate message
/// is an MGet response of 65 535 values × 4 GiB each in theory, but in
/// practice values are small; 16 MiB leaves ample headroom while bounding
/// what a bad length prefix can allocate.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Typed error for a frame whose length exceeds [`MAX_FRAME_BYTES`].
///
/// Carried as the source of the [`std::io::Error`] returned by
/// [`crate::net::read_frame`] (kind `InvalidData`) and
/// [`crate::net::write_frame`] (kind `InvalidInput`), so callers can
/// distinguish "oversized frame" from other framing failures via
/// `err.get_ref().is_some_and(|e| e.is::<FrameTooLarge>())`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTooLarge {
    /// The offending frame length in bytes.
    pub len: usize,
    /// The limit it exceeded ([`MAX_FRAME_BYTES`]).
    pub limit: usize,
}

impl std::fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame of {} bytes exceeds the {}-byte limit",
            self.len, self.limit
        )
    }
}

impl std::error::Error for FrameTooLarge {}

fn check_frame_len(len: usize, kind: io::ErrorKind) -> io::Result<usize> {
    if len > MAX_FRAME_BYTES {
        let limit = MAX_FRAME_BYTES;
        return Err(io::Error::new(kind, FrameTooLarge { len, limit }));
    }
    Ok(len)
}

/// The 4-byte length prefix that frames a `len`-byte payload on a stream —
/// the only place a frame length becomes bytes.
///
/// # Errors
///
/// `InvalidInput` carrying [`FrameTooLarge`] above [`MAX_FRAME_BYTES`].
pub(crate) fn frame_prefix(len: usize) -> io::Result<[u8; 4]> {
    check_frame_len(len, io::ErrorKind::InvalidInput).map(|len| (len as u32).to_le_bytes())
}

/// The payload length a received prefix announces — the only place those
/// bytes become a length, checked before anything is allocated for it.
///
/// # Errors
///
/// `InvalidData` carrying [`FrameTooLarge`] above [`MAX_FRAME_BYTES`].
pub(crate) fn frame_len(prefix: [u8; 4]) -> io::Result<usize> {
    check_frame_len(
        u32::from_le_bytes(prefix) as usize,
        io::ErrorKind::InvalidData,
    )
}

/// Append the CRC-32 trailer over `out[body_at..]`, completing a message
/// whose body starts there.
pub(crate) fn seal(out: &mut Vec<u8>, body_at: usize) {
    let crc = crc32(&out[body_at..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Append one complete stream frame to `out`: `[len: u32 LE]`, the body
/// `write_body` appends, `[crc32]`. Returns the bytes appended, or leaves
/// `out` as it was when the frame would exceed [`MAX_FRAME_BYTES`].
pub(crate) fn append_frame(
    out: &mut Vec<u8>,
    write_body: impl FnOnce(&mut Vec<u8>),
) -> io::Result<usize> {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    write_body(out);
    seal(out, at + 4);
    match frame_prefix(out.len() - at - 4) {
        Ok(prefix) => out[at..at + 4].copy_from_slice(&prefix),
        Err(e) => {
            out.truncate(at);
            return Err(e);
        }
    }
    Ok(out.len() - at)
}

/// A client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Batched lookup of `keys`.
    MGet {
        /// Request id (echoed in the response).
        id: u64,
        /// Keys to fetch.
        keys: Vec<Bytes>,
    },
    /// Store one pair.
    Set {
        /// Request id.
        id: u64,
        /// Key bytes.
        key: Bytes,
        /// Value bytes.
        value: Bytes,
    },
    /// Store a batch of pairs in one request (applied in order, so
    /// duplicate keys resolve later-wins; non-idempotent — clients must
    /// never blind-retry it).
    SetMulti {
        /// Request id.
        id: u64,
        /// Key/value pairs, applied in order.
        pairs: Vec<(Bytes, Bytes)>,
    },
    /// Remove one key (idempotent: deleting an absent key answers
    /// [`OpStatus::NotFound`], so clients may blind-retry).
    Delete {
        /// Request id.
        id: u64,
        /// Key bytes.
        key: Bytes,
    },
    /// Compare-and-swap: store `value` only if the key's current version
    /// equals `expected_version`. Non-idempotent — a lost response leaves
    /// the outcome unknowable, so clients must never retry it.
    Cas {
        /// Request id.
        id: u64,
        /// Key bytes.
        key: Bytes,
        /// Version the caller last observed (from a versioned read/set).
        expected_version: u64,
        /// Replacement value bytes.
        value: Bytes,
        /// TTL in coarse seconds for the new value; 0 = never expires.
        ttl_secs: u32,
    },
    /// Reset a live key's TTL without touching its value (idempotent).
    Touch {
        /// Request id.
        id: u64,
        /// Key bytes.
        key: Bytes,
        /// New TTL in coarse seconds; 0 = never expires.
        ttl_secs: u32,
    },
    /// [`Request::Set`] with a TTL, answered with the stored version.
    /// Non-idempotent for the same reason as `Set` (later-wins replace).
    SetEx {
        /// Request id.
        id: u64,
        /// Key bytes.
        key: Bytes,
        /// Value bytes.
        value: Bytes,
        /// TTL in coarse seconds; 0 = never expires.
        ttl_secs: u32,
    },
    /// [`Request::SetMulti`] with one TTL applied to every pair in the
    /// batch. Answered by [`Response::SetMulti`] (per-pair acceptance);
    /// non-idempotent.
    SetMultiEx {
        /// Request id.
        id: u64,
        /// Key/value pairs, applied in order.
        pairs: Vec<(Bytes, Bytes)>,
        /// TTL in coarse seconds for every pair; 0 = never expires.
        ttl_secs: u32,
    },
    /// Shut a worker down (sent once per worker on drain).
    Shutdown,
}

/// A server response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Response to [`Request::MGet`]: one entry per requested key.
    MGet {
        /// Echoed request id.
        id: u64,
        /// `Some(value)` per found key, `None` per miss, in request order.
        entries: Vec<Option<Bytes>>,
    },
    /// Response to [`Request::Set`].
    Set {
        /// Echoed request id.
        id: u64,
        /// Whether the store accepted the pair.
        ok: bool,
    },
    /// Response to [`Request::SetMulti`]: one status per pair, in request
    /// order.
    SetMulti {
        /// Echoed request id.
        id: u64,
        /// Per-pair acceptance, in request order.
        ok: Vec<bool>,
    },
    /// Response to [`Request::Delete`]: [`OpStatus::Deleted`] when a live
    /// item was removed, [`OpStatus::NotFound`] otherwise.
    Delete {
        /// Echoed request id.
        id: u64,
        /// Outcome of the delete.
        status: OpStatus,
    },
    /// Response to [`Request::Cas`]: [`OpStatus::Stored`] with the new
    /// version on success, [`OpStatus::ExistsConflict`] with the current
    /// version on a version mismatch, [`OpStatus::NotFound`] (version 0)
    /// when the key is absent, [`OpStatus::Rejected`] when the store
    /// could not make room.
    Cas {
        /// Echoed request id.
        id: u64,
        /// Outcome of the compare-and-swap.
        status: OpStatus,
        /// New version on `Stored`, current version on `ExistsConflict`,
        /// 0 otherwise.
        version: u64,
    },
    /// Response to [`Request::Touch`]: [`OpStatus::Stored`] when a live
    /// item's TTL was reset, [`OpStatus::NotFound`] otherwise.
    Touch {
        /// Echoed request id.
        id: u64,
        /// Outcome of the touch.
        status: OpStatus,
    },
    /// Response to [`Request::SetEx`]: [`OpStatus::Stored`] with the
    /// item's new version, or [`OpStatus::Rejected`] (version 0) when the
    /// store could not make room.
    SetEx {
        /// Echoed request id.
        id: u64,
        /// Outcome of the store.
        status: OpStatus,
        /// Version assigned to the stored value; 0 on rejection.
        version: u64,
    },
    /// The server declined to process the request (graceful degradation:
    /// the request was *not* applied and, for idempotent operations, may
    /// safely be retried after backing off).
    Error {
        /// Echoed request id.
        id: u64,
        /// Why the request was declined.
        code: ErrorCode,
    },
}

/// Outcome byte carried by the versioned-operation responses
/// ([`Response::Delete`], [`Response::Cas`], [`Response::Touch`],
/// [`Response::SetEx`]).
///
/// Decoding is total and version-tolerant, like [`ErrorCode`]: a status
/// byte this build does not recognize becomes [`OpStatus::Unknown`]
/// rather than a [`DecodeError`], so newer servers can add outcomes
/// without breaking older clients mid-connection.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OpStatus {
    /// The value (or TTL, for touch) was applied.
    Stored,
    /// A live item was removed.
    Deleted,
    /// No live item under that key (absent, expired, or deleted).
    NotFound,
    /// CAS version mismatch: the item exists at a different version.
    ExistsConflict,
    /// The store declined the write (out of memory / index full).
    Rejected,
    /// A status byte from a future protocol revision.
    Unknown(u8),
}

impl OpStatus {
    /// Wire encoding of this status.
    pub fn to_wire(self) -> u8 {
        match self {
            OpStatus::Stored => 1,
            OpStatus::Deleted => 2,
            OpStatus::NotFound => 3,
            OpStatus::ExistsConflict => 4,
            OpStatus::Rejected => 5,
            OpStatus::Unknown(b) => b,
        }
    }

    /// Decode a wire status byte. Total: unknown bytes map to
    /// [`OpStatus::Unknown`], never an error.
    pub fn from_wire(b: u8) -> Self {
        match b {
            1 => OpStatus::Stored,
            2 => OpStatus::Deleted,
            3 => OpStatus::NotFound,
            4 => OpStatus::ExistsConflict,
            5 => OpStatus::Rejected,
            other => OpStatus::Unknown(other),
        }
    }
}

impl std::fmt::Display for OpStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpStatus::Stored => write!(f, "stored"),
            OpStatus::Deleted => write!(f, "deleted"),
            OpStatus::NotFound => write!(f, "not found"),
            OpStatus::ExistsConflict => write!(f, "exists (version conflict)"),
            OpStatus::Rejected => write!(f, "rejected"),
            OpStatus::Unknown(b) => write!(f, "unknown status {b}"),
        }
    }
}

/// Status byte carried by [`Response::Error`].
///
/// Decoding is version-tolerant: a code this build does not recognize
/// becomes [`ErrorCode::Unknown`] instead of a [`DecodeError`], so newer
/// servers can add shedding reasons without breaking older clients.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The server is overloaded and shed this request instead of queueing
    /// it further (load-shedding path). Retry after backoff.
    ServerBusy,
    /// The request waited past its deadline before processing began.
    DeadlineExceeded,
    /// A status byte from a future protocol revision.
    Unknown(u8),
}

impl ErrorCode {
    /// Wire encoding of this code.
    pub fn to_wire(self) -> u8 {
        match self {
            ErrorCode::ServerBusy => 1,
            ErrorCode::DeadlineExceeded => 2,
            ErrorCode::Unknown(b) => b,
        }
    }

    /// Decode a wire status byte. Total: unknown bytes map to
    /// [`ErrorCode::Unknown`], never an error.
    pub fn from_wire(b: u8) -> Self {
        match b {
            1 => ErrorCode::ServerBusy,
            2 => ErrorCode::DeadlineExceeded,
            other => ErrorCode::Unknown(other),
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErrorCode::ServerBusy => write!(f, "server busy"),
            ErrorCode::DeadlineExceeded => write!(f, "deadline exceeded"),
            ErrorCode::Unknown(b) => write!(f, "unknown server error {b}"),
        }
    }
}
/// Per-worker buffers [`execute`] reuses across requests, as a real
/// server does: the Multi-Get response frame is built in place in one,
/// batched writes stage through another, every other reply is encoded
/// into the third.
#[derive(Debug, Default)]
pub struct ExecScratch {
    pub(crate) resp: crate::store::MGetResponse,
    pub(crate) set_batch: crate::store::SetMultiBatch,
    reply: Vec<u8>,
}

/// What [`execute`] did: the response to send and the figures the serving
/// loops count.
#[derive(Debug)]
pub struct Executed<'a> {
    /// The encoded, CRC-sealed response payload, borrowed from the
    /// [`ExecScratch`]: a socket writer sends the slice as is (for a
    /// Multi-Get it is the frame the store built in place during Phase 3 —
    /// zero-copy responses, DESIGN.md §9).
    pub reply: &'a [u8],
    /// Keys looked up and the store's outcome, for a Multi-Get.
    pub mget: Option<(usize, crate::store::MGetOutcome)>,
    /// Pairs or point operations a write verb applied.
    pub writes: usize,
    /// Phase timing of a batched write (a Multi-Get's rides in `mget`).
    pub write_phases: crate::store::PhaseNanos,
}

/// Execute one request against the store and encode its response. This is
/// the single server-side semantics of the command surface — `kvsd`, the
/// fabric server, and the reactor's non-coalesced verbs all dispatch
/// through it so the verbs cannot drift apart. Returns `None` for
/// [`Request::Shutdown`], which has no response: the serving loop stops.
pub fn execute<'a>(
    store: &crate::store::KvStore,
    request: &Request,
    scratch: &'a mut ExecScratch,
) -> Option<Executed<'a>> {
    use crate::store::CasOutcome;
    // One point operation unless a batched write says otherwise.
    let mut writes = 1;
    let mut write_phases = crate::store::PhaseNanos::default();
    let response = match request {
        Request::Shutdown => return None,
        Request::MGet { id, keys } => {
            let key_slices: Vec<&[u8]> = keys.iter().map(|k| k.as_ref()).collect();
            let outcome = store.mget(&key_slices, &mut scratch.resp);
            return Some(Executed {
                reply: scratch.resp.seal_frame(*id),
                mget: Some((key_slices.len(), outcome)),
                writes: 0,
                write_phases,
            });
        }
        Request::Set { id, key, value } => Response::Set {
            id: *id,
            ok: store.set(key, value).is_ok(),
        },
        Request::SetMulti { id, pairs } | Request::SetMultiEx { id, pairs, .. } => {
            let ttl_secs = match request {
                Request::SetMultiEx { ttl_secs, .. } => *ttl_secs,
                _ => 0,
            };
            let pair_slices: Vec<(&[u8], &[u8])> = pairs
                .iter()
                .map(|(k, v)| (k.as_ref(), v.as_ref()))
                .collect();
            let outcome = store.set_multi_ttl(&pair_slices, ttl_secs, &mut scratch.set_batch);
            writes = pair_slices.len();
            write_phases = outcome.phases;
            Response::SetMulti {
                id: *id,
                ok: scratch
                    .set_batch
                    .results()
                    .iter()
                    .map(|r| r.is_ok())
                    .collect(),
            }
        }
        Request::Delete { id, key } => Response::Delete {
            id: *id,
            status: if store.delete(key) {
                OpStatus::Deleted
            } else {
                OpStatus::NotFound
            },
        },
        Request::Cas {
            id,
            key,
            expected_version,
            value,
            ttl_secs,
        } => {
            let (status, version) = match store.cas(key, *expected_version, value, *ttl_secs) {
                Ok(CasOutcome::Stored(v)) => (OpStatus::Stored, v),
                Ok(CasOutcome::Conflict(v)) => (OpStatus::ExistsConflict, v),
                Ok(CasOutcome::NotFound) => (OpStatus::NotFound, 0),
                Err(_) => (OpStatus::Rejected, 0),
            };
            Response::Cas {
                id: *id,
                status,
                version,
            }
        }
        Request::Touch { id, key, ttl_secs } => Response::Touch {
            id: *id,
            status: if store.set_ttl(key, *ttl_secs) {
                OpStatus::Stored
            } else {
                OpStatus::NotFound
            },
        },
        Request::SetEx {
            id,
            key,
            value,
            ttl_secs,
        } => {
            let (status, version) = match store.set_v(key, value, *ttl_secs) {
                Ok(v) => (OpStatus::Stored, v),
                Err(_) => (OpStatus::Rejected, 0),
            };
            Response::SetEx {
                id: *id,
                status,
                version,
            }
        }
    };
    response.encode_into(&mut scratch.reply);
    Some(Executed {
        reply: &scratch.reply,
        mget: None,
        writes,
        write_phases,
    })
}

/// Decode error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed message: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// A key, value or list too long for its wire length field (`u16` key
/// bytes, `u32` value bytes, `u16` list entries): the message cannot be
/// encoded. Converts into an [`std::io::Error`] of kind `InvalidInput`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodeError(pub &'static str);

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unencodable message: {}", self.0)
    }
}

impl std::error::Error for EncodeError {}

impl From<EncodeError> for io::Error {
    fn from(e: EncodeError) -> Self {
        io::Error::new(io::ErrorKind::InvalidInput, e)
    }
}

const OP_MGET: u8 = 1;
const OP_SET: u8 = 2;
const OP_SHUTDOWN: u8 = 3;
const OP_SET_MULTI: u8 = 4;
const OP_DELETE: u8 = 5;
const OP_CAS: u8 = 6;
const OP_TOUCH: u8 = 7;
const OP_SET_EX: u8 = 8;
const OP_SET_MULTI_EX: u8 = 9;
const OP_MGET_RESP: u8 = 128;
const OP_SET_RESP: u8 = 129;
const OP_ERR_RESP: u8 = 130;
const OP_SET_MULTI_RESP: u8 = 131;
const OP_DELETE_RESP: u8 = 132;
const OP_CAS_RESP: u8 = 133;
const OP_TOUCH_RESP: u8 = 134;
const OP_SET_EX_RESP: u8 = 135;

/// The one length check: `len` as its wire field's integer type, or what
/// overflowed.
fn fit<T: TryFrom<usize>>(len: usize, what: &'static str) -> Result<T, EncodeError> {
    T::try_from(len).map_err(|_| EncodeError(what))
}

const KEY_TOO_LONG: &str = "key longer than its u16 length field";
const VALUE_TOO_LONG: &str = "value longer than its u32 length field";
const LIST_TOO_LONG: &str = "list longer than its u16 count field";

/// Appends wire fields to a caller-supplied buffer: the vocabulary the
/// encode arms are written in. Every length method panics when the length
/// does not fit its field.
struct Writer<'a>(&'a mut Vec<u8>);

impl Writer<'_> {
    /// What every message but `Shutdown` starts with.
    fn head(&mut self, opcode: u8, id: u64) -> &mut Self {
        self.u8(opcode).u64(id)
    }

    fn u8(&mut self, v: u8) -> &mut Self {
        self.0.push(v);
        self
    }

    fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(u8::from(v))
    }

    fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.0.extend_from_slice(b);
        self
    }

    fn len16(&mut self, len: usize, what: &'static str) -> &mut Self {
        let len: u16 = fit(len, what).unwrap_or_else(|e| panic!("{e}"));
        self.bytes(&len.to_le_bytes())
    }

    /// `[len: u16][bytes]`.
    fn key(&mut self, k: &[u8]) -> &mut Self {
        self.len16(k.len(), KEY_TOO_LONG).bytes(k)
    }

    /// `[len: u32][bytes]`.
    fn value(&mut self, v: &[u8]) -> &mut Self {
        let len: u32 = fit(v.len(), VALUE_TOO_LONG).unwrap_or_else(|e| panic!("{e}"));
        self.u32(len).bytes(v)
    }

    /// One Multi-Get response record: `[1][value]` for a hit, `[0]` for a
    /// miss.
    fn entry(&mut self, entry: Option<&[u8]>) -> &mut Self {
        match entry {
            Some(v) => self.bool(true).value(v),
            None => self.bool(false),
        }
    }

    fn each<T>(&mut self, items: &[T], item: impl Fn(&mut Self, &T)) -> &mut Self {
        items.iter().for_each(|i| item(self, i));
        self
    }

    /// `[count: u16]` then each item's fields.
    fn list<T>(&mut self, items: &[T], item: impl Fn(&mut Self, &T)) -> &mut Self {
        self.len16(items.len(), LIST_TOO_LONG).each(items, item)
    }

    fn keys(&mut self, keys: &[Bytes]) -> &mut Self {
        self.list(keys, |w, k| {
            w.key(k);
        })
    }

    fn pairs(&mut self, pairs: &[(Bytes, Bytes)]) -> &mut Self {
        self.list(pairs, |w, (k, v)| {
            w.key(k).value(v);
        })
    }
}

/// Bytes before the first per-key record of a Multi-Get response:
/// `[opcode: u8] [request id: u64 LE] [key count: u16 LE]`.
pub(crate) const MGET_RESP_HEADER_BYTES: usize = 1 + 8 + 2;

/// Bytes of a Multi-Get hit record before its value:
/// `[found = 1: u8] [len: u32 LE]`.
pub(crate) const MGET_HIT_PREFIX_BYTES: usize = 1 + 4;

/// The header of a Multi-Get response to request `id` carrying `count`
/// records. An array, so the store can patch it over the placeholder its
/// in-place frame starts with.
///
/// # Panics
///
/// Panics if `count` exceeds `u16::MAX` (requests decode under the same
/// bound).
pub(crate) fn mget_resp_header(id: u64, count: usize) -> [u8; MGET_RESP_HEADER_BYTES] {
    let count: u16 = fit(count, LIST_TOO_LONG).unwrap_or_else(|e| panic!("{e}"));
    let mut header = [0; MGET_RESP_HEADER_BYTES];
    header[0] = OP_MGET_RESP;
    header[1..9].copy_from_slice(&id.to_le_bytes());
    header[9..].copy_from_slice(&count.to_le_bytes());
    header
}

/// Append one Multi-Get response record: `[1][len: u32][value]` for a hit,
/// `[0]` for a miss.
pub(crate) fn mget_resp_entry(out: &mut Vec<u8>, entry: Option<&[u8]>) {
    Writer(out).entry(entry);
}

const TRUNCATED: DecodeError = DecodeError("truncated message");

/// Consumes wire fields from a verified message body: the vocabulary the
/// decode arms are written in. The truncation check lives in
/// [`Reader::take`] and [`Reader::fixed`] and nowhere else.
struct Reader(Bytes);

impl Reader {
    /// Verify and strip the CRC trailer of `msg`, leaving its body.
    fn open(mut msg: Bytes) -> Result<Self, DecodeError> {
        let Some((body, trailer)) = msg.split_last_chunk::<4>().filter(|(b, _)| !b.is_empty())
        else {
            return Err(DecodeError("message too short for checksum"));
        };
        if crc32(body) != u32::from_le_bytes(*trailer) {
            return Err(DecodeError("checksum mismatch"));
        }
        msg.truncate(msg.len() - 4);
        Ok(Reader(msg))
    }

    fn take(&mut self, n: usize) -> Result<Bytes, DecodeError> {
        if self.0.len() < n {
            return Err(TRUNCATED);
        }
        Ok(self.0.split_to(n))
    }

    fn fixed<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let bytes = *self.0.first_chunk::<N>().ok_or(TRUNCATED)?;
        self.0.advance(N);
        Ok(bytes)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        self.fixed::<1>().map(|[b]| b)
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        self.fixed().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        self.fixed().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        self.fixed().map(u64::from_le_bytes)
    }

    /// Strict: only 0 and 1 are booleans.
    fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError("flag byte is neither 0 nor 1")),
        }
    }

    fn status(&mut self) -> Result<OpStatus, DecodeError> {
        self.u8().map(OpStatus::from_wire)
    }

    fn key(&mut self) -> Result<Bytes, DecodeError> {
        let len = self.u16()?;
        self.take(usize::from(len))
    }

    fn value(&mut self) -> Result<Bytes, DecodeError> {
        let len = self.u32()?;
        self.take(len as usize)
    }

    /// `[count: u16]` then each item's fields. Every item occupies at
    /// least one byte, so a count above the bytes left is truncation —
    /// caught before the list reserves a slot.
    fn list<T>(
        &mut self,
        item: impl Fn(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = usize::from(self.u16()?);
        if n > self.0.len() {
            return Err(TRUNCATED);
        }
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(item(self)?);
        }
        Ok(items)
    }

    fn entry(&mut self) -> Result<Option<Bytes>, DecodeError> {
        Ok(if self.bool()? {
            Some(self.value()?)
        } else {
            None
        })
    }

    fn pairs(&mut self) -> Result<Vec<(Bytes, Bytes)>, DecodeError> {
        self.list(|r| Ok((r.key()?, r.value()?)))
    }
}

impl Request {
    /// The request id a response echoes; `None` for [`Request::Shutdown`],
    /// which is never answered.
    pub fn id(&self) -> Option<u64> {
        match self {
            Request::MGet { id, .. }
            | Request::Set { id, .. }
            | Request::SetMulti { id, .. }
            | Request::Delete { id, .. }
            | Request::Cas { id, .. }
            | Request::Touch { id, .. }
            | Request::SetEx { id, .. }
            | Request::SetMultiEx { id, .. } => Some(*id),
            Request::Shutdown => None,
        }
    }

    /// Encode into a wire message.
    ///
    /// # Panics
    ///
    /// Panics if a key exceeds `u16::MAX` bytes, a value `u32::MAX` bytes,
    /// or a key/pair list `u16::MAX` entries: the length would wrap its
    /// field and the frame would decode as a *different* valid request.
    /// Callers encoding input they did not build use
    /// [`Request::try_encode`].
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::new();
        let mut w = Writer(&mut out);
        match self {
            Request::MGet { id, keys } => w.head(OP_MGET, *id).keys(keys),
            Request::Set { id, key, value } => w.head(OP_SET, *id).key(key).value(value),
            Request::SetMulti { id, pairs } => w.head(OP_SET_MULTI, *id).pairs(pairs),
            Request::Delete { id, key } => w.head(OP_DELETE, *id).key(key),
            Request::Cas {
                id,
                key,
                expected_version,
                value,
                ttl_secs,
            } => w
                .head(OP_CAS, *id)
                .u64(*expected_version)
                .u32(*ttl_secs)
                .key(key)
                .value(value),
            Request::Touch { id, key, ttl_secs } => w.head(OP_TOUCH, *id).u32(*ttl_secs).key(key),
            Request::SetEx {
                id,
                key,
                value,
                ttl_secs,
            } => w.head(OP_SET_EX, *id).u32(*ttl_secs).key(key).value(value),
            Request::SetMultiEx {
                id,
                pairs,
                ttl_secs,
            } => w.head(OP_SET_MULTI_EX, *id).u32(*ttl_secs).pairs(pairs),
            Request::Shutdown => w.u8(OP_SHUTDOWN),
        };
        seal(&mut out, 0);
        Bytes::from(out)
    }

    /// [`Request::encode`] for keys, values and batches that arrive from
    /// outside the program: what `encode` would panic on comes back as an
    /// error instead.
    ///
    /// # Errors
    ///
    /// [`EncodeError`] naming the field that does not fit.
    pub fn try_encode(&self) -> Result<Bytes, EncodeError> {
        let key = |k: &Bytes| fit::<u16>(k.len(), KEY_TOO_LONG).map(drop);
        let pair = |k: &Bytes, v: &Bytes| {
            key(k)?;
            fit::<u32>(v.len(), VALUE_TOO_LONG).map(drop)
        };
        match self {
            Request::MGet { keys, .. } => {
                fit::<u16>(keys.len(), LIST_TOO_LONG)?;
                keys.iter().try_for_each(key)?;
            }
            Request::SetMulti { pairs, .. } | Request::SetMultiEx { pairs, .. } => {
                fit::<u16>(pairs.len(), LIST_TOO_LONG)?;
                pairs.iter().try_for_each(|(k, v)| pair(k, v))?;
            }
            Request::Set { key: k, value, .. }
            | Request::Cas { key: k, value, .. }
            | Request::SetEx { key: k, value, .. } => pair(k, value)?,
            Request::Delete { key: k, .. } | Request::Touch { key: k, .. } => key(k)?,
            Request::Shutdown => {}
        }
        Ok(self.encode())
    }

    /// Decode from a wire message.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncated, corrupted (checksum mismatch), or
    /// unknown messages.
    pub fn decode(msg: Bytes) -> Result<Self, DecodeError> {
        let mut r = Reader::open(msg)?;
        Ok(match r.u8()? {
            OP_MGET => Request::MGet {
                id: r.u64()?,
                keys: r.list(Reader::key)?,
            },
            OP_SET => Request::Set {
                id: r.u64()?,
                key: r.key()?,
                value: r.value()?,
            },
            OP_SET_MULTI => Request::SetMulti {
                id: r.u64()?,
                pairs: r.pairs()?,
            },
            OP_DELETE => Request::Delete {
                id: r.u64()?,
                key: r.key()?,
            },
            OP_CAS => Request::Cas {
                id: r.u64()?,
                expected_version: r.u64()?,
                ttl_secs: r.u32()?,
                key: r.key()?,
                value: r.value()?,
            },
            OP_TOUCH => Request::Touch {
                id: r.u64()?,
                ttl_secs: r.u32()?,
                key: r.key()?,
            },
            OP_SET_EX => Request::SetEx {
                id: r.u64()?,
                ttl_secs: r.u32()?,
                key: r.key()?,
                value: r.value()?,
            },
            OP_SET_MULTI_EX => Request::SetMultiEx {
                id: r.u64()?,
                ttl_secs: r.u32()?,
                pairs: r.pairs()?,
            },
            OP_SHUTDOWN => Request::Shutdown,
            _ => return Err(DecodeError("unknown request opcode")),
        })
    }
}

impl Response {
    /// The id echoed from the request this answers.
    pub fn id(&self) -> u64 {
        match self {
            Response::MGet { id, .. }
            | Response::Set { id, .. }
            | Response::SetMulti { id, .. }
            | Response::Delete { id, .. }
            | Response::Cas { id, .. }
            | Response::Touch { id, .. }
            | Response::SetEx { id, .. }
            | Response::Error { id, .. } => *id,
        }
    }

    /// Encode into a wire message.
    ///
    /// # Panics
    ///
    /// Panics if a value exceeds `u32::MAX` bytes or an entry/status list
    /// `u16::MAX` entries (see [`Request::encode`]).
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        Bytes::from(out)
    }

    /// [`Response::encode`] into a buffer the caller reuses: `out` is
    /// cleared and left holding the sealed message.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        let mut w = Writer(out);
        match self {
            Response::MGet { id, entries } => {
                w.bytes(&mget_resp_header(*id, entries.len()))
                    .each(entries, |w, e| {
                        w.entry(e.as_deref());
                    })
            }
            Response::Set { id, ok } => w.head(OP_SET_RESP, *id).bool(*ok),
            Response::SetMulti { id, ok } => w.head(OP_SET_MULTI_RESP, *id).list(ok, |w, &ok| {
                w.bool(ok);
            }),
            Response::Delete { id, status } => w.head(OP_DELETE_RESP, *id).u8(status.to_wire()),
            Response::Cas {
                id,
                status,
                version,
            } => w.head(OP_CAS_RESP, *id).u8(status.to_wire()).u64(*version),
            Response::Touch { id, status } => w.head(OP_TOUCH_RESP, *id).u8(status.to_wire()),
            Response::SetEx {
                id,
                status,
                version,
            } => w
                .head(OP_SET_EX_RESP, *id)
                .u8(status.to_wire())
                .u64(*version),
            Response::Error { id, code } => w.head(OP_ERR_RESP, *id).u8(code.to_wire()),
        };
        seal(out, 0);
    }

    /// Decode from a wire message.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncated, corrupted (checksum mismatch), or
    /// unknown messages.
    pub fn decode(msg: Bytes) -> Result<Self, DecodeError> {
        let mut r = Reader::open(msg)?;
        Ok(match r.u8()? {
            OP_MGET_RESP => Response::MGet {
                id: r.u64()?,
                entries: r.list(Reader::entry)?,
            },
            OP_SET_RESP => Response::Set {
                id: r.u64()?,
                ok: r.bool()?,
            },
            OP_SET_MULTI_RESP => Response::SetMulti {
                id: r.u64()?,
                ok: r.list(Reader::bool)?,
            },
            OP_DELETE_RESP => Response::Delete {
                id: r.u64()?,
                status: r.status()?,
            },
            OP_CAS_RESP => Response::Cas {
                id: r.u64()?,
                status: r.status()?,
                version: r.u64()?,
            },
            OP_TOUCH_RESP => Response::Touch {
                id: r.u64()?,
                status: r.status()?,
            },
            OP_SET_EX_RESP => Response::SetEx {
                id: r.u64()?,
                status: r.status()?,
                version: r.u64()?,
            },
            OP_ERR_RESP => Response::Error {
                id: r.u64()?,
                code: ErrorCode::from_wire(r.u8()?),
            },
            _ => return Err(DecodeError("unknown response opcode")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mget_request_roundtrip() {
        let req = Request::MGet {
            id: 42,
            keys: vec![Bytes::from_static(b"alpha"), Bytes::from_static(b"beta")],
        };
        assert_eq!(Request::decode(req.encode()).unwrap(), req);
    }

    #[test]
    fn set_request_roundtrip() {
        let req = Request::Set {
            id: 7,
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"some value bytes"),
        };
        assert_eq!(Request::decode(req.encode()).unwrap(), req);
    }

    #[test]
    fn shutdown_roundtrip() {
        assert_eq!(
            Request::decode(Request::Shutdown.encode()).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn mget_response_roundtrip_with_misses() {
        let resp = Response::MGet {
            id: 9,
            entries: vec![Some(Bytes::from_static(b"v1")), None, Some(Bytes::new())],
        };
        assert_eq!(Response::decode(resp.encode()).unwrap(), resp);
    }

    #[test]
    fn fast_mget_encoder_matches_generic() {
        // `execute`'s sealed Multi-Get reply (zero-copy from the store
        // buffer) must emit bytes identical to the generic Response::encode.
        use crate::index::Memc3Index;
        use crate::store::{KvStore, StoreConfig};
        let store = KvStore::new(
            Box::new(Memc3Index::with_capacity(100)),
            StoreConfig::default(),
        );
        store.set(b"a", b"alpha").unwrap();
        store.set(b"c", b"").unwrap(); // empty value
        let request = Request::MGet {
            id: 9,
            keys: [b"a", b"b", b"c"].map(|k| Bytes::from_static(k)).to_vec(),
        };
        let mut scratch = ExecScratch::default();
        let done = execute(&store, &request, &mut scratch).unwrap();
        assert_eq!(done.mget.map(|(keys, o)| (keys, o.found)), Some((3, 2)));
        let fast = Bytes::copy_from_slice(done.reply);
        let generic = Response::MGet {
            id: 9,
            entries: vec![Some(Bytes::from_static(b"alpha")), None, Some(Bytes::new())],
        }
        .encode();
        assert_eq!(fast, generic);
        // And it decodes back through the standard decoder.
        assert!(matches!(Response::decode(fast), Ok(Response::MGet { .. })));
    }

    #[test]
    fn truncated_messages_error() {
        let req = Request::MGet {
            id: 1,
            keys: vec![Bytes::from_static(b"abcdef")],
        };
        let full = req.encode();
        for cut in 1..full.len() {
            assert!(
                Request::decode(full.slice(..cut)).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn unknown_opcode_errors() {
        assert!(Request::decode(Bytes::from_static(&[200])).is_err());
        assert!(Response::decode(Bytes::from_static(&[5])).is_err());
    }

    /// Re-seal arbitrary body bytes with a valid CRC trailer, so structural
    /// decode paths can be probed past the integrity check.
    fn sealed(body: &[u8]) -> Bytes {
        let mut b = body.to_vec();
        seal(&mut b, 0);
        Bytes::from(b)
    }

    #[test]
    fn versioned_verb_roundtrips() {
        let reqs = [
            Request::Delete {
                id: 11,
                key: Bytes::from_static(b"gone"),
            },
            Request::Cas {
                id: 12,
                key: Bytes::from_static(b"k"),
                expected_version: 7,
                value: Bytes::from_static(b"new value"),
                ttl_secs: 30,
            },
            Request::Touch {
                id: 13,
                key: Bytes::from_static(b"k"),
                ttl_secs: 0,
            },
            Request::SetEx {
                id: 14,
                key: Bytes::from_static(b"k"),
                value: Bytes::new(), // empty value is legal
                ttl_secs: 60,
            },
            Request::SetMultiEx {
                id: 15,
                pairs: vec![
                    (Bytes::from_static(b"a"), Bytes::from_static(b"1")),
                    (Bytes::from_static(b""), Bytes::from_static(b"")),
                ],
                ttl_secs: 5,
            },
        ];
        for req in reqs {
            assert_eq!(Request::decode(req.encode()).unwrap(), req, "{req:?}");
        }
        let resps = [
            Response::Delete {
                id: 11,
                status: OpStatus::Deleted,
            },
            Response::Cas {
                id: 12,
                status: OpStatus::ExistsConflict,
                version: 9,
            },
            Response::Touch {
                id: 13,
                status: OpStatus::NotFound,
            },
            Response::SetEx {
                id: 14,
                status: OpStatus::Stored,
                version: 3,
            },
        ];
        for resp in resps {
            assert_eq!(Response::decode(resp.encode()).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn op_status_wire_mapping_is_total() {
        for b in 0..=u8::MAX {
            let status = OpStatus::from_wire(b);
            assert_eq!(status.to_wire(), b, "status byte {b} must roundtrip");
        }
        // Named statuses keep their assigned bytes.
        assert_eq!(OpStatus::from_wire(1), OpStatus::Stored);
        assert_eq!(OpStatus::from_wire(2), OpStatus::Deleted);
        assert_eq!(OpStatus::from_wire(3), OpStatus::NotFound);
        assert_eq!(OpStatus::from_wire(4), OpStatus::ExistsConflict);
        assert_eq!(OpStatus::from_wire(5), OpStatus::Rejected);
        assert_eq!(OpStatus::from_wire(200), OpStatus::Unknown(200));
    }

    #[test]
    fn unknown_op_status_is_version_tolerant() {
        // A delete response with a status byte from a future revision
        // decodes as Unknown instead of failing the whole message.
        let msg = sealed(&[132, 4, 0, 0, 0, 0, 0, 0, 0, 250]);
        match Response::decode(msg).unwrap() {
            Response::Delete { id, status } => {
                assert_eq!(id, 4);
                assert_eq!(status, OpStatus::Unknown(250));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_response_roundtrip() {
        for code in [
            ErrorCode::ServerBusy,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Unknown(77),
        ] {
            let resp = Response::Error { id: 31, code };
            assert_eq!(Response::decode(resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn unknown_error_code_is_version_tolerant() {
        // A status byte from a future server revision decodes as Unknown
        // instead of failing the whole message.
        let msg = sealed(&[130, 9, 0, 0, 0, 0, 0, 0, 0, 99]);
        match Response::decode(msg).unwrap() {
            Response::Error { id, code } => {
                assert_eq!(id, 9);
                assert_eq!(code, ErrorCode::Unknown(99));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        // CRC-32 detects all single-byte errors: flip every byte of an
        // encoded message (including the trailer itself) through every
        // nonzero XOR of its low bits and assert rejection.
        let full = Request::MGet {
            id: 77,
            keys: vec![Bytes::from_static(b"alpha"), Bytes::from_static(b"bb")],
        }
        .encode();
        for pos in 0..full.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bytes = full.to_vec();
                bytes[pos] ^= mask;
                assert!(
                    Request::decode(Bytes::from(bytes)).is_err(),
                    "corruption at {pos} (xor {mask:#x}) must be rejected"
                );
            }
        }
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn structurally_bad_bodies_still_rejected_past_checksum() {
        // With a valid trailer, the structural checks must still fire.
        assert!(Request::decode(sealed(&[])).is_err(), "empty body");
        assert!(
            Request::decode(sealed(&[1, 9, 9])).is_err(),
            "truncated mget header"
        );
        assert!(
            Response::decode(sealed(&[128, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 7])).is_err(),
            "bad entry flag"
        );
    }
}
