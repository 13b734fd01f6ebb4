//! Wire protocol for the simulated RDMA-Memcached exchange.
//!
//! RDMA-Memcached's Get protocol "batches the key/value data into multiple
//! small message transfers ... using fast two-sided RDMA SENDs" (§VI-A).
//! Here each Multi-Get request and its response are encoded into contiguous
//! byte messages; the fabric layer charges the modeled wire cost per
//! message byte, so response sizes matter exactly as they did on EDR.
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
//! 64 B and up and by slicing-by-8 below that. Every sealer and verifier —
//! [`Request::encode`]/[`Request::decode`], their [`Response`] twins, the
//! store's `seal_frame` and the reactor's `append_subframe` — goes through
//! that one function, and `tests/wire_golden.rs` pins the resulting bytes
//! against frames recorded before the kernel existed.
//!
//! ## Version tolerance
//!
//! [`Response::Error`] carries a status byte ([`ErrorCode`]). Codes this
//! build does not know decode as [`ErrorCode::Unknown`] rather than
//! failing, so a newer server can introduce shedding reasons without
//! breaking older clients mid-connection.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// CRC-32 (IEEE) of `bytes` — the per-message integrity trailer. Detects
/// every single-byte corruption and every burst shorter than 32 bits.
pub use simdht_simd::crc::crc32;

/// Append the CRC trailer to a finished message body.
fn seal(mut b: BytesMut) -> Bytes {
    let crc = crc32(&b);
    b.put_u32_le(crc);
    b.freeze()
}

/// Strip and verify the CRC trailer, leaving `msg` as the bare body.
fn verify_checksum(msg: &mut Bytes) -> Result<(), DecodeError> {
    let n = msg.len();
    if n < 5 {
        return Err(DecodeError("message too short for checksum"));
    }
    let expect = u32::from_le_bytes([msg[n - 4], msg[n - 3], msg[n - 2], msg[n - 1]]);
    if crc32(&msg[..n - 4]) != expect {
        return Err(DecodeError("checksum mismatch"));
    }
    msg.truncate(n - 4);
    Ok(())
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
/// batched writes stage through the other.
#[derive(Debug, Default)]
pub struct ExecScratch {
    pub(crate) resp: crate::store::MGetResponse,
    pub(crate) set_batch: crate::store::SetMultiBatch,
}

/// An encoded response payload from [`execute`].
#[derive(Debug)]
pub enum Reply<'a> {
    /// A Multi-Get frame the store built in place during Phase 3 and
    /// sealed (header + CRC) inside the [`ExecScratch`] (zero-copy
    /// responses, DESIGN.md §9): a socket writer sends the slice as is.
    Sealed(&'a [u8]),
    /// Any other response, encoded into its own buffer.
    Owned(Bytes),
}

impl std::ops::Deref for Reply<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Reply::Sealed(frame) => frame,
            Reply::Owned(bytes) => bytes,
        }
    }
}

impl Reply<'_> {
    /// The payload as owned bytes, copying a sealed frame once (callers
    /// that hand the response to another thread, like the fabric server).
    pub fn into_bytes(self) -> Bytes {
        match self {
            Reply::Sealed(frame) => Bytes::copy_from_slice(frame),
            Reply::Owned(bytes) => bytes,
        }
    }
}

/// What [`execute`] did: the response to send and the figures the serving
/// loops count.
#[derive(Debug)]
pub struct Executed<'a> {
    /// The encoded response payload.
    pub reply: Reply<'a>,
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
                reply: Reply::Sealed(scratch.resp.seal_frame(*id)),
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
    Some(Executed {
        reply: Reply::Owned(response.encode()),
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

const OP_MGET: u8 = 1;
const OP_SET: u8 = 2;
const OP_SHUTDOWN: u8 = 3;
const OP_SET_MULTI: u8 = 4;
const OP_DELETE: u8 = 5;
const OP_CAS: u8 = 6;
const OP_TOUCH: u8 = 7;
const OP_SET_EX: u8 = 8;
const OP_SET_MULTI_EX: u8 = 9;
/// Also written by `crate::store::MGetResponse`, which builds the MGet
/// response frame in place during Phase 3 (zero-copy responses).
pub(crate) const OP_MGET_RESP: u8 = 128;
const OP_SET_RESP: u8 = 129;
const OP_ERR_RESP: u8 = 130;
const OP_SET_MULTI_RESP: u8 = 131;
const OP_DELETE_RESP: u8 = 132;
const OP_CAS_RESP: u8 = 133;
const OP_TOUCH_RESP: u8 = 134;
const OP_SET_EX_RESP: u8 = 135;

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
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        match self {
            Request::MGet { id, keys } => {
                b.put_u8(OP_MGET);
                b.put_u64_le(*id);
                b.put_u16_le(keys.len() as u16);
                for k in keys {
                    b.put_u16_le(k.len() as u16);
                    b.put_slice(k);
                }
            }
            Request::Set { id, key, value } => {
                b.put_u8(OP_SET);
                b.put_u64_le(*id);
                b.put_u16_le(key.len() as u16);
                b.put_slice(key);
                b.put_u32_le(value.len() as u32);
                b.put_slice(value);
            }
            Request::SetMulti { id, pairs } => {
                b.put_u8(OP_SET_MULTI);
                b.put_u64_le(*id);
                b.put_u16_le(pairs.len() as u16);
                for (k, v) in pairs {
                    b.put_u16_le(k.len() as u16);
                    b.put_slice(k);
                    b.put_u32_le(v.len() as u32);
                    b.put_slice(v);
                }
            }
            Request::Delete { id, key } => {
                b.put_u8(OP_DELETE);
                b.put_u64_le(*id);
                b.put_u16_le(key.len() as u16);
                b.put_slice(key);
            }
            Request::Cas {
                id,
                key,
                expected_version,
                value,
                ttl_secs,
            } => {
                b.put_u8(OP_CAS);
                b.put_u64_le(*id);
                b.put_u64_le(*expected_version);
                b.put_u32_le(*ttl_secs);
                b.put_u16_le(key.len() as u16);
                b.put_slice(key);
                b.put_u32_le(value.len() as u32);
                b.put_slice(value);
            }
            Request::Touch { id, key, ttl_secs } => {
                b.put_u8(OP_TOUCH);
                b.put_u64_le(*id);
                b.put_u32_le(*ttl_secs);
                b.put_u16_le(key.len() as u16);
                b.put_slice(key);
            }
            Request::SetEx {
                id,
                key,
                value,
                ttl_secs,
            } => {
                b.put_u8(OP_SET_EX);
                b.put_u64_le(*id);
                b.put_u32_le(*ttl_secs);
                b.put_u16_le(key.len() as u16);
                b.put_slice(key);
                b.put_u32_le(value.len() as u32);
                b.put_slice(value);
            }
            Request::SetMultiEx {
                id,
                pairs,
                ttl_secs,
            } => {
                b.put_u8(OP_SET_MULTI_EX);
                b.put_u64_le(*id);
                b.put_u32_le(*ttl_secs);
                b.put_u16_le(pairs.len() as u16);
                for (k, v) in pairs {
                    b.put_u16_le(k.len() as u16);
                    b.put_slice(k);
                    b.put_u32_le(v.len() as u32);
                    b.put_slice(v);
                }
            }
            Request::Shutdown => b.put_u8(OP_SHUTDOWN),
        }
        seal(b)
    }

    /// Decode from a wire message.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncated, corrupted (checksum mismatch), or
    /// unknown messages.
    pub fn decode(mut msg: Bytes) -> Result<Self, DecodeError> {
        verify_checksum(&mut msg)?;
        if msg.is_empty() {
            return Err(DecodeError("empty request"));
        }
        match msg.get_u8() {
            OP_MGET => {
                if msg.remaining() < 10 {
                    return Err(DecodeError("truncated mget header"));
                }
                let id = msg.get_u64_le();
                let n = msg.get_u16_le() as usize;
                let mut keys = Vec::with_capacity(n);
                for _ in 0..n {
                    if msg.remaining() < 2 {
                        return Err(DecodeError("truncated key length"));
                    }
                    let klen = msg.get_u16_le() as usize;
                    if msg.remaining() < klen {
                        return Err(DecodeError("truncated key bytes"));
                    }
                    keys.push(msg.split_to(klen));
                }
                Ok(Request::MGet { id, keys })
            }
            OP_SET => {
                if msg.remaining() < 10 {
                    return Err(DecodeError("truncated set header"));
                }
                let id = msg.get_u64_le();
                let klen = msg.get_u16_le() as usize;
                if msg.remaining() < klen + 4 {
                    return Err(DecodeError("truncated set key"));
                }
                let key = msg.split_to(klen);
                let vlen = msg.get_u32_le() as usize;
                if msg.remaining() < vlen {
                    return Err(DecodeError("truncated set value"));
                }
                let value = msg.split_to(vlen);
                Ok(Request::Set { id, key, value })
            }
            OP_SET_MULTI => {
                if msg.remaining() < 10 {
                    return Err(DecodeError("truncated set-multi header"));
                }
                let id = msg.get_u64_le();
                let n = msg.get_u16_le() as usize;
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    if msg.remaining() < 2 {
                        return Err(DecodeError("truncated pair key length"));
                    }
                    let klen = msg.get_u16_le() as usize;
                    if msg.remaining() < klen + 4 {
                        return Err(DecodeError("truncated pair key"));
                    }
                    let key = msg.split_to(klen);
                    let vlen = msg.get_u32_le() as usize;
                    if msg.remaining() < vlen {
                        return Err(DecodeError("truncated pair value"));
                    }
                    pairs.push((key, msg.split_to(vlen)));
                }
                Ok(Request::SetMulti { id, pairs })
            }
            OP_DELETE => {
                if msg.remaining() < 10 {
                    return Err(DecodeError("truncated delete header"));
                }
                let id = msg.get_u64_le();
                let klen = msg.get_u16_le() as usize;
                if msg.remaining() < klen {
                    return Err(DecodeError("truncated delete key"));
                }
                let key = msg.split_to(klen);
                Ok(Request::Delete { id, key })
            }
            OP_CAS => {
                if msg.remaining() < 22 {
                    return Err(DecodeError("truncated cas header"));
                }
                let id = msg.get_u64_le();
                let expected_version = msg.get_u64_le();
                let ttl_secs = msg.get_u32_le();
                let klen = msg.get_u16_le() as usize;
                if msg.remaining() < klen + 4 {
                    return Err(DecodeError("truncated cas key"));
                }
                let key = msg.split_to(klen);
                let vlen = msg.get_u32_le() as usize;
                if msg.remaining() < vlen {
                    return Err(DecodeError("truncated cas value"));
                }
                let value = msg.split_to(vlen);
                Ok(Request::Cas {
                    id,
                    key,
                    expected_version,
                    value,
                    ttl_secs,
                })
            }
            OP_TOUCH => {
                if msg.remaining() < 14 {
                    return Err(DecodeError("truncated touch header"));
                }
                let id = msg.get_u64_le();
                let ttl_secs = msg.get_u32_le();
                let klen = msg.get_u16_le() as usize;
                if msg.remaining() < klen {
                    return Err(DecodeError("truncated touch key"));
                }
                let key = msg.split_to(klen);
                Ok(Request::Touch { id, key, ttl_secs })
            }
            OP_SET_EX => {
                if msg.remaining() < 14 {
                    return Err(DecodeError("truncated set-ex header"));
                }
                let id = msg.get_u64_le();
                let ttl_secs = msg.get_u32_le();
                let klen = msg.get_u16_le() as usize;
                if msg.remaining() < klen + 4 {
                    return Err(DecodeError("truncated set-ex key"));
                }
                let key = msg.split_to(klen);
                let vlen = msg.get_u32_le() as usize;
                if msg.remaining() < vlen {
                    return Err(DecodeError("truncated set-ex value"));
                }
                let value = msg.split_to(vlen);
                Ok(Request::SetEx {
                    id,
                    key,
                    value,
                    ttl_secs,
                })
            }
            OP_SET_MULTI_EX => {
                if msg.remaining() < 14 {
                    return Err(DecodeError("truncated set-multi-ex header"));
                }
                let id = msg.get_u64_le();
                let ttl_secs = msg.get_u32_le();
                let n = msg.get_u16_le() as usize;
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    if msg.remaining() < 2 {
                        return Err(DecodeError("truncated pair key length"));
                    }
                    let klen = msg.get_u16_le() as usize;
                    if msg.remaining() < klen + 4 {
                        return Err(DecodeError("truncated pair key"));
                    }
                    let key = msg.split_to(klen);
                    let vlen = msg.get_u32_le() as usize;
                    if msg.remaining() < vlen {
                        return Err(DecodeError("truncated pair value"));
                    }
                    pairs.push((key, msg.split_to(vlen)));
                }
                Ok(Request::SetMultiEx {
                    id,
                    pairs,
                    ttl_secs,
                })
            }
            OP_SHUTDOWN => Ok(Request::Shutdown),
            _ => Err(DecodeError("unknown request opcode")),
        }
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
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        match self {
            Response::MGet { id, entries } => {
                b.put_u8(OP_MGET_RESP);
                b.put_u64_le(*id);
                b.put_u16_le(entries.len() as u16);
                for e in entries {
                    match e {
                        Some(v) => {
                            b.put_u8(1);
                            b.put_u32_le(v.len() as u32);
                            b.put_slice(v);
                        }
                        None => b.put_u8(0),
                    }
                }
            }
            Response::Set { id, ok } => {
                b.put_u8(OP_SET_RESP);
                b.put_u64_le(*id);
                b.put_u8(u8::from(*ok));
            }
            Response::SetMulti { id, ok } => {
                b.put_u8(OP_SET_MULTI_RESP);
                b.put_u64_le(*id);
                b.put_u16_le(ok.len() as u16);
                for &o in ok {
                    b.put_u8(u8::from(o));
                }
            }
            Response::Delete { id, status } => {
                b.put_u8(OP_DELETE_RESP);
                b.put_u64_le(*id);
                b.put_u8(status.to_wire());
            }
            Response::Cas {
                id,
                status,
                version,
            } => {
                b.put_u8(OP_CAS_RESP);
                b.put_u64_le(*id);
                b.put_u8(status.to_wire());
                b.put_u64_le(*version);
            }
            Response::Touch { id, status } => {
                b.put_u8(OP_TOUCH_RESP);
                b.put_u64_le(*id);
                b.put_u8(status.to_wire());
            }
            Response::SetEx {
                id,
                status,
                version,
            } => {
                b.put_u8(OP_SET_EX_RESP);
                b.put_u64_le(*id);
                b.put_u8(status.to_wire());
                b.put_u64_le(*version);
            }
            Response::Error { id, code } => {
                b.put_u8(OP_ERR_RESP);
                b.put_u64_le(*id);
                b.put_u8(code.to_wire());
            }
        }
        seal(b)
    }

    /// Decode from a wire message.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncated, corrupted (checksum mismatch), or
    /// unknown messages.
    pub fn decode(mut msg: Bytes) -> Result<Self, DecodeError> {
        verify_checksum(&mut msg)?;
        if msg.is_empty() {
            return Err(DecodeError("empty response"));
        }
        match msg.get_u8() {
            OP_MGET_RESP => {
                if msg.remaining() < 10 {
                    return Err(DecodeError("truncated mget response"));
                }
                let id = msg.get_u64_le();
                let n = msg.get_u16_le() as usize;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    if msg.remaining() < 1 {
                        return Err(DecodeError("truncated entry flag"));
                    }
                    match msg.get_u8() {
                        0 => entries.push(None),
                        1 => {
                            if msg.remaining() < 4 {
                                return Err(DecodeError("truncated value length"));
                            }
                            let vlen = msg.get_u32_le() as usize;
                            if msg.remaining() < vlen {
                                return Err(DecodeError("truncated value bytes"));
                            }
                            entries.push(Some(msg.split_to(vlen)));
                        }
                        _ => return Err(DecodeError("bad entry flag")),
                    }
                }
                Ok(Response::MGet { id, entries })
            }
            OP_SET_RESP => {
                if msg.remaining() < 9 {
                    return Err(DecodeError("truncated set response"));
                }
                let id = msg.get_u64_le();
                let ok = msg.get_u8() != 0;
                Ok(Response::Set { id, ok })
            }
            OP_SET_MULTI_RESP => {
                if msg.remaining() < 10 {
                    return Err(DecodeError("truncated set-multi response"));
                }
                let id = msg.get_u64_le();
                let n = msg.get_u16_le() as usize;
                if msg.remaining() < n {
                    return Err(DecodeError("truncated set-multi statuses"));
                }
                let mut ok = Vec::with_capacity(n);
                for _ in 0..n {
                    match msg.get_u8() {
                        0 => ok.push(false),
                        1 => ok.push(true),
                        _ => return Err(DecodeError("bad set-multi status byte")),
                    }
                }
                Ok(Response::SetMulti { id, ok })
            }
            OP_DELETE_RESP => {
                if msg.remaining() < 9 {
                    return Err(DecodeError("truncated delete response"));
                }
                let id = msg.get_u64_le();
                let status = OpStatus::from_wire(msg.get_u8());
                Ok(Response::Delete { id, status })
            }
            OP_CAS_RESP => {
                if msg.remaining() < 17 {
                    return Err(DecodeError("truncated cas response"));
                }
                let id = msg.get_u64_le();
                let status = OpStatus::from_wire(msg.get_u8());
                let version = msg.get_u64_le();
                Ok(Response::Cas {
                    id,
                    status,
                    version,
                })
            }
            OP_TOUCH_RESP => {
                if msg.remaining() < 9 {
                    return Err(DecodeError("truncated touch response"));
                }
                let id = msg.get_u64_le();
                let status = OpStatus::from_wire(msg.get_u8());
                Ok(Response::Touch { id, status })
            }
            OP_SET_EX_RESP => {
                if msg.remaining() < 17 {
                    return Err(DecodeError("truncated set-ex response"));
                }
                let id = msg.get_u64_le();
                let status = OpStatus::from_wire(msg.get_u8());
                let version = msg.get_u64_le();
                Ok(Response::SetEx {
                    id,
                    status,
                    version,
                })
            }
            OP_ERR_RESP => {
                if msg.remaining() < 9 {
                    return Err(DecodeError("truncated error response"));
                }
                let id = msg.get_u64_le();
                let code = ErrorCode::from_wire(msg.get_u8());
                Ok(Response::Error { id, code })
            }
            _ => Err(DecodeError("unknown response opcode")),
        }
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
        assert!(matches!(done.reply, Reply::Sealed(_)));
        assert_eq!(done.mget.map(|(keys, o)| (keys, o.found)), Some((3, 2)));
        let fast = done.reply.into_bytes();
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
        let mut b = BytesMut::new();
        b.put_slice(body);
        seal(b)
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
