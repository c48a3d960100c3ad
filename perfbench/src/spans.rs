//! The benchmark's own span recorder.
//!
//! Spans wrap calls into the program's public functions from the
//! benchmark side; the program itself is not instrumented. Each span has
//! a name (`<crate>.<call>`), start, end, parent and an id naming the
//! candidate or request it belongs to. Spans stay in memory and are
//! written out once, at the end of the run. A disabled recorder costs one
//! branch per span, so untimed and timed code can share one path.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `graph.generate`.
    pub name: &'static str,
    /// Microseconds since the recorder started.
    pub start_us: f64,
    /// Microseconds since the recorder started.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Candidate, request or set-up id the span belongs to.
    pub id: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records spans when enabled; does nothing otherwise.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span on drop.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(i) = self.index {
            let now = self.tracer.now_us();
            self.tracer.spans.borrow_mut()[i].end_us = now;
            self.tracer.open.borrow_mut().pop();
        }
    }
}

impl Tracer {
    /// A recorder; `enabled = false` gives the no-op one.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// True when spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one.
    pub fn span(&self, name: &'static str, id: u64) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                index: None,
            };
        }
        let start = self.now_us();
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start_us: start,
            end_us: start,
            parent,
            id,
        });
        let index = spans.len() - 1;
        self.open.borrow_mut().push(index);
        Guard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let _g = self.span(name, id);
        f()
    }

    /// A copy of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Total duration (µs) of every span called `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    /// Self time per layer (the part of `<layer>.*` spans not covered by
    /// their child spans), in µs, keyed by layer name.
    pub fn self_time_by_layer(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.borrow();
        let mut child_us = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_us[p] += s.us();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            *out.entry(layer).or_insert(0.0) += (s.us() - child_us[i]).max(0.0);
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            out.push_str(&format!(
                "{{\"span\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{},\"id\":{}}}\n",
                s.name,
                s.start_us,
                s.end_us,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.id
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let t = Tracer::new(true);
        {
            let _outer = t.span("graph.outer", 1);
            t.time("tensor.inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].us() >= spans[1].us());
        let layers = t.self_time_by_layer();
        assert!(layers["tensor"] >= 1000.0);
        assert!(layers["graph"] < layers["tensor"]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.time("graph.x", 0, || ());
        assert!(t.spans().is_empty());
    }
}
