//! In-memory spans for the traced run. Spans are recorded from the
//! benchmark's own files, around the calls into each layer; nothing inside
//! the program under test is instrumented.
//!
//! A span is `{name, request, parent, start, end}`; the spans of one request
//! share its id. A layer's self time is its spans' duration minus what its
//! child spans cover. Totals are kept for every span; the span list itself
//! is capped (it is written to a JSON file at exit) and later spans only
//! feed the totals.

use crate::json::Json;

/// Spans kept for the trace file; totals cover all of them regardless.
const KEEP_SPANS: usize = 60_000;

/// Span names, one per layer boundary the benchmark calls across.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    ClientWrite,
    ClientWait,
    ClientDecode,
    FrameDecode,
    DecodeReq,
    StoreMget,
    StorePre,
    StoreLookup,
    StorePost,
    StoreSetMulti,
    SealFrame,
    EncodeResp,
    WriteFrame,
    DecodeResp,
}

pub const NAMES: [(Name, &str); 14] = [
    (Name::ClientWrite, "client.write"),
    (Name::ClientWait, "client.wait"),
    (Name::ClientDecode, "client.decode"),
    (Name::FrameDecode, "net.frame_decode"),
    (Name::DecodeReq, "protocol.decode_req"),
    (Name::StoreMget, "store.mget"),
    (Name::StorePre, "store.pre"),
    (Name::StoreLookup, "store.lookup"),
    (Name::StorePost, "store.post"),
    (Name::StoreSetMulti, "store.set_multi"),
    (Name::SealFrame, "store.seal_frame"),
    (Name::EncodeResp, "protocol.encode_resp"),
    (Name::WriteFrame, "net.write_frame"),
    (Name::DecodeResp, "protocol.decode_resp"),
];

/// "No parent": a top-level span of its request.
pub const ROOT: u32 = u32::MAX;

#[derive(Copy, Clone, Debug)]
pub struct Span {
    pub name: Name,
    pub request: u32,
    /// Index of the parent span in the span list, or [`ROOT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Copy, Clone, Debug, Default)]
pub struct Total {
    pub count: u64,
    pub ns: u64,
    /// Time covered by child spans.
    pub child_ns: u64,
}

impl Total {
    pub fn self_ns(&self) -> u64 {
        self.ns.saturating_sub(self.child_ns)
    }
}

#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    totals: [Total; NAMES.len()],
    dropped: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Record a span and return its index for use as a parent ([`ROOT`]
    /// once the list is full — children of an unkept span still count
    /// toward their parent's covered time through `parent_name`).
    pub fn span(
        &mut self,
        name: Name,
        request: u32,
        parent: Option<(Name, u32)>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let dur = end_ns.saturating_sub(start_ns);
        let t = &mut self.totals[name as usize];
        t.count += 1;
        t.ns += dur;
        if let Some((parent_name, _)) = parent {
            self.totals[parent_name as usize].child_ns += dur;
        }
        if self.spans.len() >= KEEP_SPANS {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span {
            name,
            request,
            parent: parent.map_or(ROOT, |(_, idx)| idx),
            start_ns,
            end_ns,
        });
        self.spans.len() as u32 - 1
    }

    pub fn total(&self, name: Name) -> Total {
        self.totals[name as usize]
    }

    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        for (a, b) in self.totals.iter_mut().zip(other.totals) {
            a.count += b.count;
            a.ns += b.ns;
            a.child_ns += b.child_ns;
        }
        self.dropped += other.dropped;
        for mut s in other.spans {
            if self.spans.len() >= KEEP_SPANS {
                self.dropped += 1;
                continue;
            }
            if s.parent != ROOT {
                s.parent += base;
            }
            self.spans.push(s);
        }
    }

    /// The trace file: per-name totals with self time, then the kept spans.
    pub fn to_json(&self, workload: &str) -> Json {
        let totals = NAMES
            .iter()
            .filter(|(n, _)| self.total(*n).count > 0)
            .map(|(n, label)| {
                let t = self.total(*n);
                Json::obj([
                    ("name", Json::str(*label)),
                    ("count", Json::from(t.count)),
                    ("total_ns", Json::from(t.ns)),
                    ("self_ns", Json::from(t.self_ns())),
                ])
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(NAMES[s.name as usize].1)),
                    ("request", Json::from(u64::from(s.request))),
                    (
                        "parent",
                        if s.parent == ROOT {
                            Json::Null
                        } else {
                            Json::from(u64::from(s.parent))
                        },
                    ),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("spans_kept", Json::from(self.spans.len())),
            ("spans_beyond_cap", Json::from(self.dropped)),
            ("totals", Json::Arr(totals)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_table_is_indexed_by_discriminant() {
        for (i, (name, _)) in NAMES.iter().enumerate() {
            assert_eq!(*name as usize, i);
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let mget = t.span(Name::StoreMget, 7, None, 100, 200);
        for (name, s, e) in [
            (Name::StorePre, 100, 110),
            (Name::StoreLookup, 110, 150),
            (Name::StorePost, 150, 190),
        ] {
            t.span(name, 7, Some((Name::StoreMget, mget)), s, e);
        }
        let total = t.total(Name::StoreMget);
        assert_eq!((total.count, total.ns, total.child_ns), (1, 100, 90));
        assert_eq!(total.self_ns(), 10);
        assert_eq!(t.total(Name::StoreLookup).self_ns(), 40);
        let j = t.to_json("w");
        assert_eq!(j.get("spans").unwrap().as_arr().unwrap().len(), 4);
        let child = &j.get("spans").unwrap().as_arr().unwrap()[1];
        assert_eq!(child.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(child.get("request").unwrap().as_f64(), Some(7.0));
    }

    #[test]
    fn totals_outlive_the_span_cap_and_merge_rebases_parents() {
        let mut a = Tracer::new();
        for i in 0..KEEP_SPANS as u64 + 10 {
            a.span(Name::DecodeReq, i as u32, None, 0, 5);
        }
        assert_eq!(a.total(Name::DecodeReq).count, KEEP_SPANS as u64 + 10);
        assert_eq!(a.spans.len(), KEEP_SPANS);

        let mut x = Tracer::new();
        x.span(Name::ClientWait, 0, None, 0, 1);
        let mut y = Tracer::new();
        let p = y.span(Name::StoreMget, 1, None, 0, 10);
        y.span(Name::StorePre, 1, Some((Name::StoreMget, p)), 0, 4);
        x.merge(y);
        assert_eq!(x.spans[2].parent, 1);
        assert_eq!(x.total(Name::StoreMget).self_ns(), 6);
    }
}
