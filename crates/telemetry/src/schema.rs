//! The documented JSONL trace schema and its validator.
//!
//! Every line of a `GMORPH_TRACE` file is one JSON object with exactly
//! these top-level keys:
//!
//! | key      | type   | meaning                                         |
//! |----------|--------|-------------------------------------------------|
//! | `ts_us`  | int    | microseconds since telemetry install            |
//! | `kind`   | string | `span_begin` `span_end` `point` `counter` `histogram` `meta` |
//! | `name`   | string | dot-separated event name (non-empty)            |
//! | `span`   | int    | owning span id (0 = none; own id for span records) |
//! | `parent` | int    | parent span id (0 = root)                       |
//! | `thread` | int    | telemetry thread id (≥ 1)                       |
//! | `fields` | object | scalar payload (string/number/bool/null)        |
//!
//! Kind-specific required fields: `span_end` carries `duration_us`
//! (number); `counter` carries `value` (number); `histogram` carries
//! `count`, `sum`, `min`, `max`, `p50`, `p99` (numbers). Float fields
//! may be `null`, meaning NaN (JSON has no non-finite numbers).
//!
//! [`validate_file`] additionally checks structural invariants: spans
//! begin before they end, end in LIFO order per thread, and every
//! `span_end` matches an open `span_begin`.

use crate::event::{Event, EventKind};
use crate::json::Json;
use std::collections::BTreeMap;

/// Validates one JSONL line; returns its parsed event.
pub fn validate_line(line: &str) -> Result<Event, String> {
    let doc = Json::parse(line)?;
    if !matches!(doc, Json::Obj(_)) {
        return Err("line is not a JSON object".to_string());
    }
    // Unknown top-level keys are rejected: the schema is closed.
    if let Json::Obj(map) = &doc {
        const KEYS: [&str; 7] = [
            "ts_us", "kind", "name", "span", "parent", "thread", "fields",
        ];
        for key in map.keys() {
            if !KEYS.contains(&key.as_str()) {
                return Err(format!("unknown top-level key {key:?}"));
            }
        }
        for key in KEYS {
            if !map.contains_key(key) {
                return Err(format!("missing top-level key {key:?}"));
            }
        }
    }
    let event = Event::from_json(line)?;
    if event.name.is_empty() {
        return Err("empty event name".to_string());
    }
    if event.thread == 0 {
        return Err("thread id must be >= 1".to_string());
    }
    let need_num = |field: &str| -> Result<(), String> {
        event
            .field(field)
            .and_then(|v| v.as_f64())
            .map(|_| ())
            .ok_or_else(|| format!("{} event missing numeric {field:?}", event.kind.as_str()))
    };
    match event.kind {
        EventKind::SpanBegin => {
            if event.span == 0 {
                return Err("span_begin with span id 0".to_string());
            }
        }
        EventKind::SpanEnd => {
            if event.span == 0 {
                return Err("span_end with span id 0".to_string());
            }
            need_num("duration_us")?;
        }
        EventKind::Counter => need_num("value")?,
        EventKind::Histogram => {
            for f in ["count", "sum", "min", "max", "p50", "p99"] {
                need_num(f)?;
            }
        }
        EventKind::Point | EventKind::Meta => {}
    }
    Ok(event)
}

/// Aggregate statistics of a validated trace file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Total JSONL lines.
    pub lines: usize,
    /// Line counts per kind (wire names).
    pub by_kind: BTreeMap<String, usize>,
    /// Distinct event names seen.
    pub names: usize,
    /// Distinct threads seen.
    pub threads: usize,
    /// Spans opened (== spans closed when the trace is balanced).
    pub spans: usize,
}

/// Validates every line of a trace and the cross-line span invariants.
pub fn validate_events<'a>(lines: impl Iterator<Item = &'a str>) -> Result<TraceStats, String> {
    let mut stats = TraceStats::default();
    let mut names = std::collections::BTreeSet::new();
    let mut threads = std::collections::BTreeSet::new();
    // Per-thread stack of open span ids.
    let mut open: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = validate_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        stats.lines += 1;
        *stats
            .by_kind
            .entry(event.kind.as_str().to_string())
            .or_insert(0) += 1;
        names.insert(event.name.clone());
        threads.insert(event.thread);
        match event.kind {
            EventKind::SpanBegin => {
                let stack = open.entry(event.thread).or_default();
                // The begin's parent must be the innermost open span on
                // its thread (0 when the stack is empty).
                let expected = stack.last().copied().unwrap_or(0);
                if event.parent != expected {
                    return Err(format!(
                        "line {}: span {} begins under parent {} but thread {}'s open span is {}",
                        i + 1,
                        event.span,
                        event.parent,
                        event.thread,
                        expected
                    ));
                }
                stack.push(event.span);
                stats.spans += 1;
            }
            EventKind::SpanEnd => {
                let stack = open.entry(event.thread).or_default();
                match stack.pop() {
                    Some(top) if top == event.span => {}
                    Some(top) => {
                        return Err(format!(
                            "line {}: span {} ends but thread {}'s innermost open span is {}",
                            i + 1,
                            event.span,
                            event.thread,
                            top
                        ))
                    }
                    None => {
                        return Err(format!(
                            "line {}: span {} ends with no open span on thread {}",
                            i + 1,
                            event.span,
                            event.thread
                        ))
                    }
                }
            }
            _ => {}
        }
    }
    stats.names = names.len();
    stats.threads = threads.len();
    let dangling: usize = open.values().map(Vec::len).sum();
    if dangling > 0 {
        return Err(format!("{dangling} span(s) never closed"));
    }
    Ok(stats)
}

/// Validates a JSONL trace file on disk.
pub fn validate_file(path: impl AsRef<std::path::Path>) -> Result<TraceStats, String> {
    let text = std::fs::read_to_string(path.as_ref())
        .map_err(|e| format!("reading {}: {e}", path.as_ref().display()))?;
    validate_events(text.lines())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(kind: &str, name: &str, span: u64, parent: u64, thread: u64, fields: &str) -> String {
        format!(
            r#"{{"ts_us":1,"kind":"{kind}","name":"{name}","span":{span},"parent":{parent},"thread":{thread},"fields":{{{fields}}}}}"#
        )
    }

    #[test]
    fn accepts_well_formed_traces() {
        let lines = [
            line("meta", "run", 0, 0, 1, r#""seed":0"#),
            line("span_begin", "outer", 5, 0, 1, ""),
            line("point", "tick", 5, 0, 1, r#""n":1"#),
            line("span_begin", "inner", 6, 5, 1, ""),
            line("span_end", "inner", 6, 5, 1, r#""duration_us":10"#),
            line("span_end", "outer", 5, 0, 1, r#""duration_us":30"#),
            line("counter", "c", 0, 0, 1, r#""value":3"#),
            line(
                "histogram",
                "h",
                0,
                0,
                1,
                r#""count":1,"sum":2.0,"min":2.0,"max":2.0,"p50":2.0,"p99":2.0"#,
            ),
        ];
        let stats = validate_events(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(stats.lines, 8);
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.threads, 1);
        assert_eq!(stats.by_kind["span_begin"], 2);
    }

    #[test]
    fn rejects_schema_violations() {
        // Unknown key.
        assert!(validate_line(
            r#"{"ts_us":1,"kind":"point","name":"x","span":0,"parent":0,"thread":1,"fields":{},"extra":1}"#
        )
        .is_err());
        // Missing key.
        assert!(validate_line(
            r#"{"ts_us":1,"kind":"point","name":"x","span":0,"parent":0,"fields":{}}"#
        )
        .is_err());
        // Counter without value.
        assert!(validate_line(&line("counter", "c", 0, 0, 1, "")).is_err());
        // span_end without duration.
        assert!(validate_line(&line("span_end", "s", 3, 0, 1, "")).is_err());
        // Thread id 0.
        assert!(validate_line(&line("point", "x", 0, 0, 0, "")).is_err());
        // Empty name.
        assert!(validate_line(&line("point", "", 0, 0, 1, "")).is_err());
    }

    #[test]
    fn rejects_unbalanced_spans() {
        // End without begin.
        let bad = [line("span_end", "s", 3, 0, 1, r#""duration_us":1"#)];
        assert!(validate_events(bad.iter().map(String::as_str)).is_err());
        // Begin without end.
        let bad = [line("span_begin", "s", 3, 0, 1, "")];
        assert!(validate_events(bad.iter().map(String::as_str)).is_err());
        // Out-of-order ends on one thread.
        let bad = [
            line("span_begin", "a", 1, 0, 1, ""),
            line("span_begin", "b", 2, 1, 1, ""),
            line("span_end", "a", 1, 0, 1, r#""duration_us":1"#),
            line("span_end", "b", 2, 0, 1, r#""duration_us":1"#),
        ];
        assert!(validate_events(bad.iter().map(String::as_str)).is_err());
        // Interleaved threads are fine.
        let ok = [
            line("span_begin", "a", 1, 0, 1, ""),
            line("span_begin", "b", 2, 0, 2, ""),
            line("span_end", "a", 1, 0, 1, r#""duration_us":1"#),
            line("span_end", "b", 2, 0, 2, r#""duration_us":1"#),
        ];
        assert!(validate_events(ok.iter().map(String::as_str)).is_ok());
    }

    #[test]
    fn wrong_parent_is_rejected() {
        let bad = [
            line("span_begin", "a", 1, 0, 1, ""),
            line("span_begin", "b", 2, 0, 1, ""), // parent should be 1
        ];
        assert!(validate_events(bad.iter().map(String::as_str)).is_err());
    }
}
