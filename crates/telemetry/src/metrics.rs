//! Counters and histograms: cheap in-process aggregation.
//!
//! Hot paths (the kernel engine, the search loop) record into a global
//! registry instead of emitting one event per observation — the JSONL
//! stream stays bounded and the per-record cost is one map update. The
//! registry is flushed to the active sink as `counter`/`histogram`
//! summary events on [`crate::shutdown`] and rendered as a human-readable
//! table by [`summary_table`].
//!
//! Histograms use power-of-two buckets: bucket `i` counts values in
//! `(2^(i-1), 2^i]` (bucket 0 catches everything ≤ 1). Quantiles reported
//! from bucket upper bounds are therefore upper estimates with at most 2x
//! resolution — plenty for latency profiling.

use crate::event::{Event, EventKind, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard};

const BUCKETS: usize = 64;

#[derive(Clone)]
struct Hist {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; BUCKETS],
}

impl Hist {
    fn new() -> Hist {
        Hist {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; BUCKETS],
        }
    }

    fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Upper bound of the bucket holding quantile `q` (0..=1).
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper(i);
            }
        }
        self.max
    }
}

fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= 1.0 {
        return 0;
    }
    let int = v.ceil().min(u64::MAX as f64) as u64;
    // Bit length of the integer part: 2 -> 1, 3..4 -> 2, 5..8 -> 3, ...
    let bits = 64 - (int - 1).leading_zeros() as usize;
    bits.min(BUCKETS - 1)
}

fn bucket_upper(i: usize) -> f64 {
    (1u64 << i.min(62)) as f64
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Hist>,
}

static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn registry() -> MutexGuard<'static, Option<Registry>> {
    REGISTRY
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Adds `n` to a counter. No-op while telemetry is disabled.
pub fn counter_add(name: &str, n: u64) {
    if !crate::enabled() {
        return;
    }
    let mut guard = registry();
    let reg = guard.get_or_insert_with(Registry::default);
    *reg.counters.entry(name.to_string()).or_insert(0) += n;
}

/// Records one histogram observation. No-op while telemetry is disabled.
pub fn hist_record(name: &str, v: f64) {
    if !crate::enabled() {
        return;
    }
    if !v.is_finite() {
        return;
    }
    let mut guard = registry();
    let reg = guard.get_or_insert_with(Registry::default);
    reg.hists
        .entry(name.to_string())
        .or_insert_with(Hist::new)
        .record(v);
}

/// Current value of a counter (0 if never incremented). Readable even
/// while telemetry is disabled, so tests can assert the disabled path
/// recorded nothing.
pub fn counter_value(name: &str) -> u64 {
    registry()
        .as_ref()
        .and_then(|r| r.counters.get(name).copied())
        .unwrap_or(0)
}

/// Snapshot of all counters.
pub fn counters() -> Vec<(String, u64)> {
    registry()
        .as_ref()
        .map(|r| r.counters.iter().map(|(k, v)| (k.clone(), *v)).collect())
        .unwrap_or_default()
}

/// Summary of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSummary {
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
    /// Median (bucket upper bound).
    pub p50: f64,
    /// 99th percentile (bucket upper bound).
    pub p99: f64,
}

/// Snapshot of all histograms.
pub fn histograms() -> Vec<(String, HistSummary)> {
    registry()
        .as_ref()
        .map(|r| {
            r.hists
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistSummary {
                            count: h.count,
                            sum: h.sum,
                            min: if h.count == 0 { 0.0 } else { h.min },
                            max: if h.count == 0 { 0.0 } else { h.max },
                            p50: h.quantile(0.5),
                            p99: h.quantile(0.99),
                        },
                    )
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Clears all counters and histograms.
pub fn reset() {
    *registry() = None;
}

/// Emits every counter and histogram as summary events to the active
/// sink. Called by [`crate::shutdown`]; safe to call repeatedly (values
/// are not cleared).
pub(crate) fn flush_to_sink() {
    if !crate::enabled() {
        return;
    }
    for (name, value) in counters() {
        crate::emit(
            Event::new(EventKind::Counter, name)
                .with_fields(vec![("value".to_string(), Value::from(value))]),
        );
    }
    for (name, h) in histograms() {
        crate::emit(Event::new(EventKind::Histogram, name).with_fields(vec![
            ("count".to_string(), Value::from(h.count)),
            ("sum".to_string(), Value::from(h.sum)),
            ("min".to_string(), Value::from(h.min)),
            ("max".to_string(), Value::from(h.max)),
            ("p50".to_string(), Value::from(h.p50)),
            ("p99".to_string(), Value::from(h.p99)),
        ]));
    }
}

/// Renders the end-of-run human-readable summary table.
pub fn summary_table() -> String {
    let counters = counters();
    let hists = histograms();
    let mut out = String::new();
    if counters.is_empty() && hists.is_empty() {
        return "telemetry: no metrics recorded\n".to_string();
    }
    if !counters.is_empty() {
        out.push_str("counter                                      value\n");
        out.push_str("-------------------------------------------  ----------\n");
        for (name, value) in &counters {
            let _ = writeln!(out, "{name:<43}  {value:>10}");
        }
    }
    if !hists.is_empty() {
        if !counters.is_empty() {
            out.push('\n');
        }
        out.push_str(
            "histogram                                    count        sum        p50        p99        max\n",
        );
        out.push_str(
            "-------------------------------------------  ------  ---------  ---------  ---------  ---------\n",
        );
        for (name, h) in &hists {
            let _ = writeln!(
                out,
                "{name:<43}  {:>6}  {:>9.1}  {:>9.1}  {:>9.1}  {:>9.1}",
                h.count, h.sum, h.p50, h.p99, h.max
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::install_test_sink;

    #[test]
    fn buckets_cover_powers_of_two() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(1.0), 0);
        assert_eq!(bucket_index(1.5), 1);
        assert_eq!(bucket_index(2.0), 1);
        assert_eq!(bucket_index(3.0), 2);
        assert_eq!(bucket_index(4.0), 2);
        assert_eq!(bucket_index(5.0), 3);
        assert_eq!(bucket_index(1e300), BUCKETS - 1);
        assert_eq!(bucket_index(-7.0), 0);
    }

    #[test]
    fn counters_and_hists_accumulate_when_enabled() {
        let _guard = install_test_sink();
        counter_add("t.counter", 1);
        counter_add("t.counter", 2);
        assert_eq!(counter_value("t.counter"), 3);
        for v in [1.0, 2.0, 4.0, 100.0] {
            hist_record("t.hist", v);
        }
        let hists = histograms();
        let (_, h) = hists.iter().find(|(k, _)| k == "t.hist").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 107.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
        assert!(h.p50 >= 2.0 && h.p50 <= 4.0, "p50 = {}", h.p50);
        assert!(h.p99 >= 100.0, "p99 = {}", h.p99);
        let table = summary_table();
        assert!(table.contains("t.counter"));
        assert!(table.contains("t.hist"));
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let _gate = crate::sink::test_lock();
        counter_add("t.disabled", 5);
        hist_record("t.disabled.h", 1.0);
        assert_eq!(counter_value("t.disabled"), 0);
        assert!(histograms().iter().all(|(k, _)| k != "t.disabled.h"));
    }

    #[test]
    fn flush_emits_summary_events() {
        let guard = install_test_sink();
        counter_add("t.flush.c", 7);
        hist_record("t.flush.h", 3.0);
        flush_to_sink();
        let events = guard.events();
        let counter = events
            .iter()
            .find(|e| e.kind == EventKind::Counter && e.name == "t.flush.c")
            .expect("counter event");
        assert_eq!(counter.field("value"), Some(&Value::Int(7)));
        let hist = events
            .iter()
            .find(|e| e.kind == EventKind::Histogram && e.name == "t.flush.h")
            .expect("histogram event");
        assert_eq!(hist.field("count"), Some(&Value::Int(1)));
    }
}
