//! In-memory spans recorded from the benchmark's own files, around the calls
//! into each layer, and written out once at exit.
//!
//! The traced run is a **layer replay**: a client-observed request span is
//! measured live against the server; the same request is then pushed through
//! each layer's public entry point in turn (codec, `ReadView`, bare index)
//! and each call timed. The replayed children are laid out back to back
//! from the parent's start at their measured durations, and the
//! `server.wire` child is the residual — what the worker loop, the sockets
//! and the wake-ups cost — so that children sum to the parent.

use crate::json::Json;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Spans of one request share this identifier.
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A replayed child of a request span: name, duration, and its own children
/// as `(name, duration)`.
pub type Child<'a> = (&'static str, u64, &'a [(&'static str, u64)]);

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_request: u32,
    /// Median cost of reading the clock twice, subtracted from replayed
    /// calls (a 50 ns index walk would otherwise read ~50 % high).
    clock_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        let mut samples: Vec<u64> = (0..2_000)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_nanos() as u64
            })
            .collect();
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_request: 0,
            clock_ns: crate::stats::median_u64(&mut samples),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times one replayed call, net of the clock's own cost.
    pub fn time<R>(&self, call: impl FnOnce() -> R) -> (R, u64) {
        let t = Instant::now();
        let result = call();
        let ns = t.elapsed().as_nanos() as u64;
        (result, ns.saturating_sub(self.clock_ns))
    }

    /// Records one request: the live parent span `[start_ns, end_ns]` and
    /// its replayed children `(name, duration, grandchildren)`. Children
    /// are clipped to the parent, and `residual` names the child that takes
    /// whatever the replayed layers do not account for. Returns the
    /// residual's duration.
    pub fn request(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        children: &[Child<'_>],
        residual: &'static str,
    ) -> u64 {
        let request = self.next_request;
        self.next_request += 1;
        let parent = self.push(None, request, name, start_ns, end_ns);
        let mut cursor = start_ns;
        for &(child_name, duration, grandchildren) in children {
            let child_end = (cursor + duration).min(end_ns);
            let child = self.push(Some(parent), request, child_name, cursor, child_end);
            let mut inner = cursor;
            for &(grand_name, grand_duration) in grandchildren {
                let grand_end = (inner + grand_duration).min(child_end);
                self.push(Some(child), request, grand_name, inner, grand_end);
                inner = grand_end;
            }
            cursor = child_end;
        }
        self.push(Some(parent), request, residual, cursor, end_ns);
        end_ns - cursor
    }

    fn push(
        &mut self,
        parent: Option<u32>,
        request: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn write(&self, path: &Path, header: Json) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(f64::from(s.id))),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("request", Json::Num(f64::from(s.request))),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("header", header),
            ("clock_overhead_ns", Json::Num(self.clock_ns as f64)),
            ("spans", Json::Arr(spans)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render())
    }
}

/// Self time of every span: its duration minus the part its children cover.
/// Children never overlap (they are laid out back to back), so the covered
/// part is the sum of their durations.
#[cfg(test)]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent as usize] -= span.end_ns - span.start_ns;
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_sum_to_the_parent_and_the_residual_is_non_negative() {
        let mut tracer = Tracer::new();
        let residual = tracer.request(
            "client.get",
            1_000,
            51_000,
            &[
                ("server.codec", 300, &[]),
                ("concurrent.sharded", 200, &[("index.lipp", 80)]),
            ],
            "server.wire",
        );
        assert_eq!(residual, 49_500);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 5);
        let own = self_times(spans);
        assert_eq!(own[0], 0, "children cover the whole parent");
        assert_eq!(own[2], 120, "sharded self time excludes the index walk");
        assert!(spans
            .iter()
            .all(|s| s.request == 0 && s.end_ns >= s.start_ns));

        // Children longer than the parent are clipped, never negative.
        let residual = tracer.request(
            "client.get",
            0,
            100,
            &[("server.codec", 500, &[])],
            "server.wire",
        );
        assert_eq!(residual, 0);
        assert_eq!(tracer.spans()[5].request, 1);
    }
}
