//! Answer checking. Every response is checked: id echo, entry count, and
//! per key the hit/miss flag where the stream fixes it, the value length,
//! and the value bytes — in full for a deterministic 1-in-16 sample on the
//! read-only workloads, and for every returned value where writes race
//! reads (it must be *a* value some sent request wrote for that key).

use simdht_kvs::protocol::crc32;

use crate::gen::{fill_value, parse_value, Ring, ABSENT};
use crate::spec::Spec;

/// Read-only workloads compare the full value bytes of every 16th key.
const FULL_COMPARE_EVERY: usize = 16;

const OP_MGET_RESP: u8 = 128;
const OP_ERR_RESP: u8 = 130;
const OP_SET_MULTI_RESP: u8 = 131;

/// What one checked response amounts to.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Keys read or pairs written.
    pub keys: u32,
    /// Keys returned with a value (reads only).
    pub hits: u32,
    pub write: bool,
    /// The server declined or rejected the operation: a failed operation,
    /// not a wrong answer.
    pub failed: bool,
    /// The answer contradicts the stream: the run is incorrect.
    pub wrong: bool,
}

impl Verdict {
    fn wrong() -> Verdict {
        Verdict {
            wrong: true,
            ..Verdict::default()
        }
    }
}

pub struct Checker {
    seed: u64,
    value_len: usize,
    deterministic_hits: bool,
    /// Per ring slot: has this request been sent at least once? A returned
    /// generation is valid only if the write that carries it was sent.
    sent: Vec<bool>,
    scratch: Vec<u8>,
}

impl Checker {
    pub fn new(spec: &Spec, seed: u64) -> Checker {
        Checker {
            seed,
            value_len: spec.value_len,
            deterministic_hits: spec.deterministic_hits(),
            sent: vec![false; spec.ring],
            scratch: vec![0; spec.value_len],
        }
    }

    pub fn mark_sent(&mut self, slot: usize) {
        self.sent[slot] = true;
    }

    /// Check what came back for key `id`. `pos` is the key's position in
    /// the stream and picks the full-compare sample; `ring` is needed only
    /// where writes race reads. `Err` = wrong answer, `Ok(hit)` otherwise.
    pub fn entry(
        &mut self,
        id: u32,
        pos: usize,
        got: Option<&[u8]>,
        ring: Option<&Ring>,
    ) -> Result<bool, ()> {
        let Some(value) = got else {
            // A miss is wrong only for a key that must be resident.
            let must_hit = id & ABSENT == 0 && self.deterministic_hits;
            return if must_hit { Err(()) } else { Ok(false) };
        };
        if id & ABSENT != 0 || value.len() != self.value_len {
            return Err(());
        }
        if self.deterministic_hits {
            if pos.is_multiple_of(FULL_COMPARE_EVERY) {
                fill_value(self.seed, id, 0, &mut self.scratch);
                if value != &self.scratch[..] {
                    return Err(());
                }
            }
            return Ok(true);
        }
        match parse_value(self.seed, value) {
            Some((idx, 0)) if idx == id => Ok(true),
            Some((idx, gen)) if idx == id => {
                let slot = gen as usize - 1;
                let written = ring.is_some_and(|r| {
                    r.slots.get(slot).is_some_and(|s| s.write)
                        && self.sent[slot]
                        && r.slot_keys(slot).contains(&id)
                });
                if written {
                    Ok(true)
                } else {
                    Err(())
                }
            }
            _ => Err(()),
        }
    }

    /// Check the response payload (frame body, CRC trailer included) that
    /// answers ring slot `slot`.
    pub fn response(&mut self, ring: &Ring, slot: usize, payload: &[u8]) -> Verdict {
        let Some(body) = verified_body(payload) else {
            return Verdict::wrong();
        };
        if body.len() < 9 {
            return Verdict::wrong();
        }
        let id = u64::from_le_bytes(body[1..9].try_into().expect("8 bytes"));
        if id != slot as u64 {
            return Verdict::wrong();
        }
        let expect = &ring.slots[slot];
        let rest = &body[9..];
        match body[0] {
            OP_ERR_RESP => Verdict {
                failed: true,
                write: expect.write,
                ..Verdict::default()
            },
            OP_MGET_RESP if !expect.write => self.mget_body(ring, slot, rest),
            OP_SET_MULTI_RESP if expect.write => {
                let Some((n, acks)) = split_count(rest) else {
                    return Verdict::wrong();
                };
                if n != expect.expect_n || acks.len() != usize::from(n) {
                    return Verdict::wrong();
                }
                Verdict {
                    keys: u32::from(n),
                    write: true,
                    failed: acks.iter().any(|&a| a != 1),
                    ..Verdict::default()
                }
            }
            _ => Verdict::wrong(),
        }
    }

    fn mget_body(&mut self, ring: &Ring, slot: usize, rest: &[u8]) -> Verdict {
        let expect = &ring.slots[slot];
        let Some((n, mut rest)) = split_count(rest) else {
            return Verdict::wrong();
        };
        if n != expect.expect_n {
            return Verdict::wrong();
        }
        let mut hits = 0;
        for (j, &id) in ring.slot_keys(slot).iter().enumerate() {
            let got = match rest.split_first() {
                Some((0, tail)) => {
                    rest = tail;
                    None
                }
                Some((1, tail)) if tail.len() >= 4 => {
                    let len = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes")) as usize;
                    if tail.len() < 4 + len {
                        return Verdict::wrong();
                    }
                    rest = &tail[4 + len..];
                    Some(&tail[4..4 + len])
                }
                _ => return Verdict::wrong(),
            };
            match self.entry(id, expect.keys.start + j, got, Some(ring)) {
                Ok(hit) => hits += u32::from(hit),
                Err(()) => return Verdict::wrong(),
            }
        }
        if !rest.is_empty() {
            return Verdict::wrong();
        }
        Verdict {
            keys: u32::from(n),
            hits,
            ..Verdict::default()
        }
    }
}

/// Strip the CRC-32 trailer after verifying it, as a real client must.
fn verified_body(payload: &[u8]) -> Option<&[u8]> {
    let n = payload.len().checked_sub(4)?;
    let (body, trailer) = payload.split_at(n);
    let expect = u32::from_le_bytes(trailer.try_into().ok()?);
    (!body.is_empty() && crc32(body) == expect).then_some(body)
}

fn split_count(rest: &[u8]) -> Option<(u16, &[u8])> {
    let (n, tail) = rest.split_first_chunk::<2>()?;
    Some((u16::from_le_bytes(*n), tail))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use simdht_kvs::protocol::{ErrorCode, Response};

    fn small(name: &str) -> Spec {
        let mut spec = Spec::by_name(name, true).unwrap();
        spec.items = 2000;
        spec.ring = 64;
        spec
    }

    /// The answer a correct server preloaded with generation 0 gives.
    fn honest_answer(spec: &Spec, ring: &Ring, slot: usize) -> Vec<u8> {
        let s = &ring.slots[slot];
        let resp = if s.write {
            Response::SetMulti {
                id: slot as u64,
                ok: vec![true; spec.width],
            }
        } else {
            let entries = ring
                .slot_keys(slot)
                .iter()
                .map(|&id| {
                    (id & ABSENT == 0).then(|| {
                        let mut v = vec![0u8; spec.value_len];
                        fill_value(12, id, 0, &mut v);
                        Bytes::from(v)
                    })
                })
                .collect();
            Response::MGet {
                id: slot as u64,
                entries,
            }
        };
        resp.encode().to_vec()
    }

    #[test]
    fn honest_answers_pass_on_every_wire_workload() {
        for name in ["wire_mget16", "wire_get1", "wire_mixed"] {
            let spec = small(name);
            let ring = Ring::generate(&spec, 12);
            let mut checker = Checker::new(&spec, 12);
            let (mut keys, mut hits) = (0, 0);
            for slot in 0..spec.ring {
                let v = checker.response(&ring, slot, &honest_answer(&spec, &ring, slot));
                assert!(!v.wrong && !v.failed, "{name} slot {slot}: {v:?}");
                assert_eq!(v.write, ring.slots[slot].write);
                keys += v.keys;
                hits += v.hits;
            }
            assert_eq!(keys as usize, spec.ring * spec.width);
            let present = ring.keys.iter().filter(|&&k| k & ABSENT == 0).count();
            let reads: usize = ring
                .slots
                .iter()
                .filter(|s| !s.write)
                .map(|s| s.keys.len())
                .sum();
            if spec.deterministic_hits() {
                assert_eq!(hits as usize, present);
            } else {
                assert_eq!(hits as usize, reads);
            }
        }
    }

    #[test]
    fn sabotage_turns_an_honest_answer_wrong() {
        for name in ["wire_mget16", "wire_get1", "wire_mixed"] {
            let spec = small(name);
            let mut ring = Ring::generate(&spec, 12);
            let answers: Vec<_> = (0..spec.ring)
                .map(|s| honest_answer(&spec, &ring, s))
                .collect();
            ring.sabotage(spec.deterministic_hits());
            let mut checker = Checker::new(&spec, 12);
            let wrong = (0..spec.ring)
                .filter(|&s| checker.response(&ring, s, &answers[s]).wrong)
                .count();
            assert_eq!(wrong, 1, "{name}: exactly the sabotaged slot fails");
        }
    }

    #[test]
    fn damaged_and_mismatched_answers_are_wrong() {
        let spec = small("wire_mget16");
        let ring = Ring::generate(&spec, 12);
        let mut checker = Checker::new(&spec, 12);
        let good = honest_answer(&spec, &ring, 0);
        assert!(!checker.response(&ring, 0, &good).wrong);
        // Right bytes for another request: id echo fails.
        assert!(checker.response(&ring, 1, &good).wrong);
        // One flipped byte: the CRC fails.
        let mut bad = good.clone();
        bad[20] ^= 1;
        assert!(checker.response(&ring, 0, &bad).wrong);
        assert!(checker.response(&ring, 0, &good[..good.len() - 1]).wrong);
        assert!(checker.response(&ring, 0, &[]).wrong);
        // A shed request is a failed operation, not a wrong answer.
        let shed = Response::Error {
            id: 0,
            code: ErrorCode::ServerBusy,
        }
        .encode();
        let v = checker.response(&ring, 0, &shed);
        assert!(v.failed && !v.wrong);
    }

    #[test]
    fn sampled_value_bytes_are_compared_in_full() {
        let spec = small("wire_get1");
        let mut checker = Checker::new(&spec, 12);
        let mut v = vec![0u8; spec.value_len];
        fill_value(12, 7, 0, &mut v);
        assert_eq!(checker.entry(7, 0, Some(&v), None), Ok(true));
        *v.last_mut().unwrap() ^= 1;
        assert_eq!(checker.entry(7, 0, Some(&v), None), Err(()));
        // Off-sample positions check presence and length only.
        assert_eq!(checker.entry(7, 1, Some(&v), None), Ok(true));
        assert_eq!(checker.entry(7, 1, Some(&v[1..]), None), Err(()));
        assert_eq!(checker.entry(7, 1, None, None), Err(()));
        assert_eq!(checker.entry(7 | ABSENT, 1, None, None), Ok(false));
        assert_eq!(checker.entry(7 | ABSENT, 1, Some(&v), None), Err(()));
    }

    #[test]
    fn racing_writes_accept_only_generations_that_were_sent() {
        let spec = small("wire_mixed");
        let ring = Ring::generate(&spec, 12);
        let slot = ring.slots.iter().position(|s| s.write).unwrap();
        let id = ring.slot_keys(slot)[0];
        let mut v = vec![0u8; spec.value_len];
        fill_value(12, id, slot as u32 + 1, &mut v);
        let mut checker = Checker::new(&spec, 12);
        assert_eq!(
            checker.entry(id, 0, None, Some(&ring)),
            Ok(false),
            "evicted"
        );
        assert_eq!(
            checker.entry(id, 0, Some(&v), Some(&ring)),
            Err(()),
            "not sent yet"
        );
        checker.mark_sent(slot);
        assert_eq!(checker.entry(id, 0, Some(&v), Some(&ring)), Ok(true));
        // A valid value of another key is wrong for this one.
        let other = (id + 1) % spec.items as u32;
        if !ring.slot_keys(slot).contains(&other) {
            assert_eq!(checker.entry(other, 0, Some(&v), Some(&ring)), Err(()));
        }
    }
}
