//! Spans around the benchmark's own calls into the system: name, start,
//! end, the span that caused it, and a request or window id. Kept in
//! memory, written as JSON when the run ends. Spans inside the program are
//! a later change; here every span starts and ends in benchmark code.

use crate::json::Json;
use std::time::Instant;

/// `parent` of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same lane, or [`ROOT`].
    pub parent: u32,
    /// Request id, window index or repetition number, as the name implies.
    pub id: u64,
}

/// One thread's span buffer. A disabled tracer records nothing, so the
/// untraced run pays one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    lane: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Finished buffers of other threads, written out with this one.
    adopted: Vec<Tracer>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant, lane: u32) -> Self {
        Tracer {
            enabled,
            origin,
            lane,
            spans: Vec::new(),
            open: Vec::new(),
            adopted: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A tracer for another thread sharing this one's time origin.
    pub fn lane(&self, lane: u32) -> Tracer {
        Tracer::new(self.enabled, self.origin, lane)
    }

    /// Take over the buffers other threads filled.
    pub fn adopt(&mut self, lanes: Vec<Tracer>) {
        if self.enabled {
            self.adopted.extend(lanes);
        }
    }

    fn stamp(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.stamp(Instant::now()),
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(ROOT),
            id,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.stamp(Instant::now());
        out
    }

    /// Record a span whose ends were already measured (the per-request
    /// path, where the same two stamps also feed the latency histogram).
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: self.stamp(start),
                end_ns: self.stamp(end),
                parent: self.open.last().copied().unwrap_or(ROOT),
                id,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Every lane of a run as one JSON array; `parent` indexes the spans of
/// the same lane in order.
pub fn to_json(tracer: &Tracer) -> Json {
    Json::Arr(
        std::iter::once(tracer)
            .chain(&tracer.adopted)
            .flat_map(|t| {
                t.spans.iter().map(move |s| {
                    Json::obj([
                        ("lane", Json::Num(f64::from(t.lane))),
                        ("name", Json::Str(s.name.to_string())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            if s.parent == ROOT {
                                Json::Null
                            } else {
                                Json::Num(f64::from(s.parent))
                            },
                        ),
                        ("id", Json::Num(s.id as f64)),
                    ])
                })
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.span("outer", 1, |t| {
            t.span("inner", 2, |_| std::hint::black_box(0));
        });
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, ROOT);
        assert_eq!(s[1].parent, 0);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        assert_eq!(t.span("x", 0, |_| 7), 7);
        t.record("y", 0, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }
}
