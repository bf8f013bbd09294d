//! Spans recorded around the calls into each layer.
//!
//! Every span is taken from the benchmark's own files (no hooks inside
//! the program): name, start, end, the span that caused it, and how many
//! items the call handled. Spans stay in memory and are written out once,
//! when the run ends. With tracing off the same calls are still timed —
//! the workloads need the durations — but nothing is stored.

use std::time::Instant;

use crate::json;

/// Identifies a recorded span; [`ROOT`] marks "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

pub const ROOT: SpanId = SpanId(0);

#[derive(Debug, Clone)]
struct Span {
    id: u32,
    parent: u32,
    name: &'static str,
    start_us: f64,
    end_us: f64,
    items: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span. With tracing off, returns [`ROOT`] and
    /// stores nothing.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start: Instant,
        end: Instant,
        items: u64,
    ) -> SpanId {
        if !self.enabled {
            return ROOT;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: parent.0,
            name,
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            end_us: end.duration_since(self.origin).as_secs_f64() * 1e6,
            items,
        });
        SpanId(id)
    }

    /// Opens a span that other spans can name as their parent before it
    /// ends; [`Tracer::close`] stamps its end.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, now, now, 1)
    }

    pub fn close(&mut self, span: SpanId) {
        let end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        if let Some(span) = span
            .0
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            span.end_us = end_us;
        }
    }

    /// Runs `call` inside a span; returns its result, the span, and the
    /// call's duration in seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        items: u64,
        call: impl FnOnce() -> R,
    ) -> (R, SpanId, f64) {
        let start = Instant::now();
        let result = call();
        let end = Instant::now();
        let id = self.record(name, parent, start, end, items);
        (result, id, end.duration_since(start).as_secs_f64())
    }

    #[cfg(test)]
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|span| {
                format!(
                    "{{\"id\":{},\"parent\":{},\"name\":{},\"start_us\":{},\"end_us\":{},\"items\":{}}}",
                    span.id,
                    if span.parent == 0 {
                        "null".to_owned()
                    } else {
                        span.parent.to_string()
                    },
                    json::quote(span.name),
                    json::number(span.start_us),
                    json::number(span.end_us),
                    span.items,
                )
            })
            .collect();
        format!(
            "{{\"workload\":{},\"seed\":{},\"spans\":[\n{}\n]}}\n",
            json::quote(workload),
            seed,
            spans.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut tracer = Tracer::new(true);
        let run = tracer.open("run", ROOT);
        let (value, child, seconds) = tracer.time("layer.call", run, 7, || 42);
        assert_eq!(value, 42);
        assert!(seconds >= 0.0);
        assert_ne!(child, run);
        tracer.close(run);
        let document = json::parse(&tracer.to_json("w", 7)).unwrap();
        let spans = document
            .get("spans")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent"), Some(&json::Value::Null));
        assert_eq!(
            spans[1].get("parent").and_then(json::Value::as_f64),
            Some(1.0)
        );
        assert_eq!(
            spans[1].get("items").and_then(json::Value::as_f64),
            Some(7.0)
        );
        let end = |span: &json::Value| span.get("end_us").and_then(json::Value::as_f64).unwrap();
        assert!(end(&spans[0]) >= end(&spans[1]), "the run span closes last");
    }

    #[test]
    fn disabled_tracer_times_but_stores_nothing() {
        let mut tracer = Tracer::new(false);
        let (_, id, seconds) = tracer.time("x", ROOT, 1, || std::hint::black_box(3));
        assert_eq!(id, ROOT);
        assert!(seconds >= 0.0);
        assert_eq!(tracer.span_count(), 0);
    }
}
