//! The Multi-Get response buffer that **is** the wire frame (zero-copy
//! responses, DESIGN.md §9). The byte layout it fills in belongs to
//! [`crate::protocol`]; this file only decides *where* records go.

use super::BatchScratch;
use crate::protocol::{
    append_frame, mget_resp_entry, mget_resp_header, seal, MGET_HIT_PREFIX_BYTES,
    MGET_RESP_HEADER_BYTES,
};

/// Where one request slot's record lies in [`MGetResponse::buf`].
#[derive(Copy, Clone, Debug, Default)]
struct Record {
    /// Offset of the record's first byte, its `found` flag. Kept for misses
    /// too, so the byte span of any run of slots is two lookups
    /// ([`MGetResponse::append_subframe`]).
    start: u32,
    /// A hit's value length; `None` is a miss.
    len: Option<u32>,
}

/// A reusable Multi-Get response buffer that **is** the wire frame: `mget`
/// Phase 3 writes each value directly after its record prefix in one
/// contiguous buffer laid out exactly as `crate::protocol::Response::MGet`
/// encodes, behind a header placeholder. [`MGetResponse::seal_frame`] then
/// patches in the request id and key count and appends the CRC-32 trailer —
/// so the daemon's reply path sends the buffer as-is, with no per-value copy
/// (DESIGN.md §9).
#[derive(Debug, Default, Clone)]
pub struct MGetResponse {
    /// The in-progress wire body (header placeholder + per-key records in
    /// request order; CRC appended by `seal_frame`).
    buf: Vec<u8>,
    /// Per request slot: its record inside `buf`.
    entries: Vec<Record>,
    /// Total value bytes (response-size accounting, excludes framing).
    value_bytes: usize,
    sealed: bool,
    // Reusable scratch for the lookup pipeline (no per-request allocation).
    pub(super) scratch: BatchScratch,
    reorder: Vec<u8>,
}

impl MGetResponse {
    /// Create an empty response buffer.
    pub fn new() -> Self {
        Self::default()
    }

    pub(super) fn reset(&mut self, n: usize) {
        self.buf.clear();
        self.buf.extend_from_slice(&mget_resp_header(0, 0));
        self.entries.clear();
        self.entries.resize(n, Record::default());
        self.value_bytes = 0;
        self.sealed = false;
    }

    /// Number of slots (keys in the request).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the response holds no slots.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value returned for request slot `i`, if found.
    pub fn value(&self, i: usize) -> Option<&[u8]> {
        let Record { start, len } = self.entries[i];
        let off = start as usize + MGET_HIT_PREFIX_BYTES;
        len.map(|len| &self.buf[off..off + len as usize])
    }

    /// Append a hit record for slot `i`.
    pub(super) fn push_hit(&mut self, i: usize, value: &[u8]) {
        self.entries[i] = Record {
            start: self.buf.len() as u32,
            len: Some(value.len() as u32),
        };
        mget_resp_entry(&mut self.buf, Some(value));
        self.value_bytes += value.len();
    }

    /// Append a miss record for slot `i`.
    pub(super) fn push_miss(&mut self, i: usize) {
        self.entries[i] = Record {
            start: self.buf.len() as u32,
            len: None,
        };
        mget_resp_entry(&mut self.buf, None);
    }

    /// Rewrite `buf`'s records into request order. A single-shard `mget`
    /// emits records in request order already; the multi-shard path emits
    /// them grouped by shard, so one compaction pass (the same one copy per
    /// value the old dedicated encoder paid) restores wire order here.
    pub(super) fn finalize_request_order(&mut self) {
        let mut wire = std::mem::take(&mut self.reorder);
        wire.clear();
        wire.extend_from_slice(&self.buf[..MGET_RESP_HEADER_BYTES]);
        for e in self.entries.iter_mut() {
            // A hit's record moves as one piece, prefix and value.
            let old = e.start as usize;
            let bytes = e.len.map_or(1, |len| MGET_HIT_PREFIX_BYTES + len as usize);
            e.start = wire.len() as u32;
            wire.extend_from_slice(&self.buf[old..old + bytes]);
        }
        std::mem::swap(&mut self.buf, &mut wire);
        self.reorder = wire;
    }

    /// Turn the response into a complete, CRC-sealed wire frame for request
    /// `id` and return it, ready for `write_frame`. Call once per `mget`
    /// (the next `mget` resets the buffer); [`MGetResponse::value`] remains
    /// usable after sealing.
    ///
    /// # Panics
    ///
    /// Panics if called twice without an intervening `mget`, before any
    /// `mget`, or with more than `u16::MAX` slots (the protocol's key-count
    /// field width; requests are decoded with the same bound).
    pub fn seal_frame(&mut self, id: u64) -> &[u8] {
        assert!(!self.sealed, "seal_frame called twice on one response");
        assert!(!self.buf.is_empty(), "seal_frame requires a completed mget");
        self.buf[..MGET_RESP_HEADER_BYTES]
            .copy_from_slice(&mget_resp_header(id, self.entries.len()));
        seal(&mut self.buf, 0);
        self.sealed = true;
        &self.buf
    }

    /// Total value bytes returned (for response-size accounting).
    pub fn payload_bytes(&self) -> usize {
        self.value_bytes
    }

    /// Append one request's slice of a coalesced batch as a complete,
    /// length-prefixed, CRC-sealed MGet response frame for request `id`.
    ///
    /// The server concatenates the keys of a connection's pipelined
    /// Multi-Gets into one wide `mget` so the lookup pipeline runs at the
    /// run's width, then scatters the shared response buffer back out per
    /// request. Slot range `slots` must be the contiguous run of batch
    /// slots belonging to one request; the bytes appended to `out` are
    /// identical to what that request gets served alone (`write_frame` of
    /// [`MGetResponse::seal_frame`]), so a run is invisible on the wire.
    ///
    /// Returns the number of bytes appended (frame prefix included) — zero,
    /// with `out` untouched, when the frame would exceed
    /// [`crate::net::MAX_FRAME_BYTES`]: `write_frame` refuses such a reply
    /// served alone and the peer would refuse to read it, so the caller
    /// drops the connection.
    ///
    /// # Panics
    ///
    /// Panics if called after [`MGetResponse::seal_frame`] (the batch
    /// buffer must stay unsealed — a coalesced batch is never shipped as
    /// one frame), if `slots` is out of bounds or not ascending, or if
    /// the range holds more than `u16::MAX` slots (the per-request
    /// key-count bound the protocol enforces on decode).
    pub fn append_subframe(
        &self,
        slots: std::ops::Range<usize>,
        id: u64,
        out: &mut Vec<u8>,
    ) -> usize {
        assert!(!self.sealed, "append_subframe requires an unsealed batch");
        assert!(
            slots.start <= slots.end && slots.end <= self.entries.len(),
            "slot range {slots:?} out of bounds for {} slots",
            self.entries.len()
        );
        // Records are contiguous in slot order, so the range's bytes run
        // from its first slot's record to the record after its last.
        let at = |slot: usize| {
            let e = self.entries.get(slot);
            e.map_or(self.buf.len(), |e| e.start as usize)
        };
        let records = &self.buf[at(slots.start)..at(slots.end)];
        let header = mget_resp_header(id, slots.len());
        append_frame(out, |body| {
            body.reserve(header.len() + records.len() + 4);
            body.extend_from_slice(&header);
            body.extend_from_slice(records);
        })
        .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{sharded_stores, stores};
    use super::*;

    #[test]
    fn subframe_scatter_matches_per_request_seal_byte_for_byte() {
        // A coalesced batch scattered via append_subframe must put the
        // same bytes on the wire as serving each request alone through
        // seal_frame + write_frame (both sharded and unsharded stores,
        // hit/miss/empty-value mixes, including an empty request).
        for store in sharded_stores(1000, 4).into_iter().chain(stores(1000)) {
            store.set(b"a", b"alpha").unwrap();
            store.set(b"b", b"").unwrap();
            store.set(b"c", b"gamma-gamma").unwrap();
            // Three requests: [a, miss], [], [b, c, miss].
            let reqs: [(u64, &[&[u8]]); 3] = [
                (10, &[b"a", b"nope"]),
                (11, &[]),
                (12, &[b"b", b"c", b"zilch"]),
            ];
            let combined: Vec<&[u8]> = reqs.iter().flat_map(|(_, ks)| ks.iter().copied()).collect();
            let mut batch = MGetResponse::new();
            store.mget(&combined, &mut batch);

            let mut scattered = Vec::new();
            let mut lo = 0;
            for (id, ks) in &reqs {
                let n = batch.append_subframe(lo..lo + ks.len(), *id, &mut scattered);
                assert!(n >= 4 + MGET_RESP_HEADER_BYTES + 4);
                lo += ks.len();
            }

            let mut expect = Vec::new();
            for (id, ks) in &reqs {
                let mut solo = MGetResponse::new();
                store.mget(ks, &mut solo);
                crate::net::write_frame(&mut expect, solo.seal_frame(*id)).unwrap();
            }
            assert_eq!(scattered, expect, "{}", store.index_name());
        }
    }

    #[test]
    fn subframe_span_lookup_holds_at_the_edges_of_a_batch() {
        // The span of a slot range is read off the records' stored starts:
        // every range of a batch — the one starting at the last slot, whether
        // that slot hit or missed, and the empty range at every position,
        // one past the last slot included — must frame the bytes a solo
        // request for those keys gets.
        for store in sharded_stores(1000, 4).into_iter().chain(stores(1000)) {
            store.set(b"a", b"alpha").unwrap();
            store.set(b"c", b"gamma-gamma").unwrap();
            for keys in [[&b"a"[..], b"nope", b"c"], [b"c", b"a", b"nope"]] {
                let mut batch = MGetResponse::new();
                store.mget(&keys, &mut batch);
                for lo in 0..=keys.len() {
                    for hi in lo..=keys.len() {
                        let mut got = Vec::new();
                        batch.append_subframe(lo..hi, 7, &mut got);
                        let mut solo = MGetResponse::new();
                        store.mget(&keys[lo..hi], &mut solo);
                        let mut expect = Vec::new();
                        crate::net::write_frame(&mut expect, solo.seal_frame(7)).unwrap();
                        assert_eq!(got, expect, "{} {lo}..{hi}", store.index_name());
                    }
                }
            }
        }
    }

    #[test]
    fn response_buffer_reuse() {
        let store = &stores(100)[0];
        store.set(b"a", b"aaaa").unwrap();
        let mut resp = MGetResponse::new();
        store.mget(&[b"a".as_ref()], &mut resp);
        assert_eq!(resp.payload_bytes(), 4);
        store.mget(&[b"missing".as_ref()], &mut resp);
        assert_eq!(resp.payload_bytes(), 0);
        assert_eq!(resp.len(), 1);
        assert_eq!(resp.value(0), None);
    }
}
