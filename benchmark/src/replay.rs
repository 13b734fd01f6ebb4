//! The traced run's in-process replay: the same pre-encoded request ring,
//! single-threaded, against a store built with the daemon's sizing, calling
//! each layer's public function in the order the server does —
//! `FrameDecoder::extend` → `Request::decode` → `KvStore::mget` |
//! `set_multi` → `seal_frame` | `Response::encode` → `write_frame` →
//! (client side) `Response::decode` — with a span around each call. The
//! same replay without span recording gives the tracing overhead.

use std::time::Instant;

use bytes::Bytes;
use simdht_kvs::net::{write_frame, FrameDecoder};
use simdht_kvs::protocol::{crc32, Request, Response};
use simdht_kvs::store::{KvStore, MGetResponse, SetMultiBatch};

use crate::check::Checker;
use crate::gen::Ring;
use crate::instore::StoreCounters;
use crate::spec::Spec;
use crate::trace::{Name, Tracer};

/// Requests a traced run replays per pass: the whole ring, and at least
/// this many.
pub const MIN_REPLAY_REQUESTS: usize = 100_000;

pub struct ReplayOut {
    pub tracer: Tracer,
    /// Requests in the traced pass (the untraced pass replays the same).
    pub reqs: u64,
    pub keys_read: u64,
    pub pairs_written: u64,
    pub req_bytes: u64,
    pub resp_bytes: u64,
    pub traced_ns: u64,
    pub untraced_ns: u64,
    pub wrong: u64,
    /// Store counters over the traced pass.
    pub stats: StoreCounters,
    /// `crc32` over every request frame of the ring.
    pub crc_ns: u64,
    pub crc_bytes: u64,
}

impl ReplayOut {
    /// Share of the replay's wall time that span recording added.
    pub fn overhead_frac(&self) -> f64 {
        if self.untraced_ns == 0 {
            return 0.0;
        }
        (self.traced_ns as f64 - self.untraced_ns as f64) / self.untraced_ns as f64
    }
}

struct Pipeline<'a> {
    store: &'a KvStore,
    ring: &'a Ring,
    checker: Checker,
    decoder: FrameDecoder,
    frames: Vec<Bytes>,
    resp: MGetResponse,
    batch: SetMultiBatch,
    wire: Vec<u8>,
    clock: Instant,
    out: ReplayOut,
}

impl Pipeline<'_> {
    fn now(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// One request through every layer. With `TRACE` off no clock is read,
    /// so the two passes differ by exactly the tracing.
    fn request<const TRACE: bool>(&mut self, slot: usize) -> Result<(), String> {
        let id = slot as u32;
        let stamp = |p: &Self| if TRACE { p.now() } else { 0 };
        let bytes = self.ring.frame(slot);

        let t0 = stamp(self);
        self.decoder
            .extend(bytes, &mut self.frames)
            .map_err(|e| format!("frame decode: {e}"))?;
        let t1 = stamp(self);
        let frame = self
            .frames
            .pop()
            .ok_or("ring frame did not decode to one frame")?;
        let request = Request::decode(frame).map_err(|e| format!("request decode: {e}"))?;
        let t2 = stamp(self);
        if TRACE {
            self.out.tracer.span(Name::FrameDecode, id, None, t0, t1);
            self.out.tracer.span(Name::DecodeReq, id, None, t1, t2);
        }

        self.wire.clear();
        match request {
            Request::MGet { id: rid, keys } => {
                // Collecting the slices is the serving loop's work, not a
                // library layer's: it falls between the spans.
                let slices: Vec<&[u8]> = keys.iter().map(|k| k.as_ref()).collect();
                let t3 = stamp(self);
                let outcome = self.store.mget(&slices, &mut self.resp);
                let t4 = stamp(self);
                let sealed = self.resp.seal_frame(rid);
                let t5 = if TRACE {
                    self.clock.elapsed().as_nanos() as u64
                } else {
                    0
                };
                write_frame(&mut self.wire, sealed).map_err(|e| e.to_string())?;
                let t6 = stamp(self);
                self.out.keys_read += slices.len() as u64;
                if TRACE {
                    let tr = &mut self.out.tracer;
                    let p = outcome.phases;
                    let span = tr.span(Name::StoreMget, id, None, t3, t4);
                    let parent = Some((Name::StoreMget, span));
                    let (a, b) = (t3 + p.pre, t3 + p.pre + p.lookup);
                    tr.span(Name::StorePre, id, parent, t3, a);
                    tr.span(Name::StoreLookup, id, parent, a, b);
                    tr.span(Name::StorePost, id, parent, b, t3 + p.total());
                    tr.span(Name::SealFrame, id, None, t4, t5);
                    tr.span(Name::WriteFrame, id, None, t5, t6);
                }
            }
            Request::SetMulti { id: rid, pairs } => {
                let slices: Vec<(&[u8], &[u8])> = pairs
                    .iter()
                    .map(|(k, v)| (k.as_ref(), v.as_ref()))
                    .collect();
                let t3 = stamp(self);
                self.store.set_multi_ttl(&slices, 0, &mut self.batch);
                let t4 = stamp(self);
                let ok: Vec<bool> = self.batch.results().iter().map(|r| r.is_ok()).collect();
                let payload = Response::SetMulti { id: rid, ok }.encode();
                let t5 = stamp(self);
                write_frame(&mut self.wire, &payload).map_err(|e| e.to_string())?;
                let t6 = stamp(self);
                self.out.pairs_written += slices.len() as u64;
                if TRACE {
                    let tr = &mut self.out.tracer;
                    tr.span(Name::StoreSetMulti, id, None, t3, t4);
                    tr.span(Name::EncodeResp, id, None, t4, t5);
                    tr.span(Name::WriteFrame, id, None, t5, t6);
                }
            }
            other => return Err(format!("ring holds an unexpected request: {other:?}")),
        }

        // Client side: what a caller pays to turn the reply back into values.
        let payload = Bytes::copy_from_slice(&self.wire[4..]);
        let t7 = stamp(self);
        let decoded = Response::decode(payload);
        let t8 = stamp(self);
        if TRACE {
            self.out.tracer.span(Name::DecodeResp, id, None, t7, t8);
        }
        std::hint::black_box(&decoded);
        let verdict = self.checker.response(self.ring, slot, &self.wire[4..]);
        self.out.wrong += u64::from(verdict.wrong || verdict.failed || decoded.is_err());
        self.out.reqs += 1;
        self.out.req_bytes += bytes.len() as u64;
        self.out.resp_bytes += self.wire.len() as u64;
        Ok(())
    }

    fn pass<const TRACE: bool>(&mut self, n: usize) -> Result<u64, String> {
        for slot in 0..self.ring.slots.len() {
            if self.ring.slots[slot].write {
                self.checker.mark_sent(slot);
            }
        }
        let t = Instant::now();
        for i in 0..n {
            self.request::<TRACE>(i % self.ring.slots.len())?;
        }
        Ok(t.elapsed().as_nanos() as u64)
    }
}

/// Replay `n` requests of `ring` (cycling) against `store`, which is already
/// preloaded: one short warm pass, one untraced pass, one traced pass.
pub fn replay(
    store: &KvStore,
    spec: &Spec,
    seed: u64,
    ring: &Ring,
    n: usize,
) -> Result<ReplayOut, String> {
    let mut p = Pipeline {
        store,
        ring,
        checker: Checker::new(spec, seed),
        decoder: FrameDecoder::new(),
        frames: Vec::new(),
        resp: MGetResponse::new(),
        batch: SetMultiBatch::new(),
        wire: Vec::new(),
        clock: Instant::now(),
        out: ReplayOut {
            tracer: Tracer::new(),
            reqs: 0,
            keys_read: 0,
            pairs_written: 0,
            req_bytes: 0,
            resp_bytes: 0,
            traced_ns: 0,
            untraced_ns: 0,
            wrong: 0,
            stats: StoreCounters::default(),
            crc_ns: 0,
            crc_bytes: 0,
        },
    };
    p.pass::<false>(ring.slots.len().min(n / 4))?;
    let untraced_ns = p.pass::<false>(n)?;
    let wrong_so_far = p.out.wrong;
    // Only the traced pass feeds the reported counts.
    p.out = ReplayOut {
        tracer: Tracer::new(),
        wrong: wrong_so_far,
        untraced_ns,
        reqs: 0,
        keys_read: 0,
        pairs_written: 0,
        req_bytes: 0,
        resp_bytes: 0,
        ..p.out
    };
    let before = StoreCounters::of(store);
    p.out.traced_ns = p.pass::<true>(n)?;
    p.out.stats = StoreCounters::of(store).since(before);

    let t = Instant::now();
    for slot in 0..ring.slots.len() {
        // The payload a receiver checksums: the frame minus its length
        // prefix and CRC trailer.
        let frame = ring.frame(slot);
        std::hint::black_box(crc32(std::hint::black_box(&frame[4..frame.len() - 4])));
        p.out.crc_bytes += frame.len() as u64 - 8;
    }
    p.out.crc_ns = t.elapsed().as_nanos() as u64;
    Ok(p.out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instore::{build_store, preload_store};

    fn small(name: &str) -> Spec {
        let mut spec = Spec::by_name(name, true).unwrap();
        spec.items = 4000;
        spec.capacity = 8192;
        spec.memory_mb = 8;
        spec.ring = 512;
        spec
    }

    #[test]
    fn replay_answers_correctly_and_covers_every_layer() {
        for name in ["wire_mget16", "wire_get1", "wire_mixed"] {
            let spec = small(name);
            let ring = Ring::generate(&spec, 12);
            let store = build_store(&spec);
            preload_store(&store, &spec, 12).unwrap();
            let out = replay(&store, &spec, 12, &ring, 3000).unwrap();
            assert_eq!(out.wrong, 0, "{name}");
            assert_eq!(out.reqs, 3000);
            assert_eq!(
                out.keys_read + out.pairs_written,
                out.reqs * spec.width as u64
            );
            let tr = &out.tracer;
            for n in [
                Name::FrameDecode,
                Name::DecodeReq,
                Name::WriteFrame,
                Name::DecodeResp,
            ] {
                assert_eq!(tr.total(n).count, out.reqs, "{name}: {n:?}");
            }
            let mgets = tr.total(Name::StoreMget);
            assert_eq!(mgets.count, tr.total(Name::SealFrame).count);
            assert_eq!(mgets.count + tr.total(Name::StoreSetMulti).count, out.reqs);
            assert!(
                mgets.child_ns <= mgets.ns,
                "{name}: phases fit inside the call"
            );
            assert_eq!(out.stats.mget_keys, out.keys_read);
            assert_eq!(out.stats.sets, out.pairs_written);
            assert!(out.crc_bytes > 0 && out.untraced_ns > 0 && out.traced_ns > 0);
        }
    }

    #[test]
    fn a_sabotaged_ring_fails_the_replay_check() {
        let spec = small("wire_mget16");
        let mut ring = Ring::generate(&spec, 12);
        ring.sabotage(true);
        let store = build_store(&spec);
        preload_store(&store, &spec, 12).unwrap();
        assert!(replay(&store, &spec, 12, &ring, 600).unwrap().wrong > 0);
    }
}
