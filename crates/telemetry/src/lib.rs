//! gmorph-telemetry: structured tracing, metrics, and profiling.
//!
//! A zero-dependency observability layer shared by every GMorph crate:
//!
//! - **Spans** ([`span!`]) — hierarchical RAII regions carrying wall-time
//!   (`duration_us`) and arbitrary typed fields, nested per thread.
//! - **Points and meta events** ([`point!`], [`meta!`]) — instantaneous
//!   structured observations (one search iteration, one finetune epoch,
//!   run configuration).
//! - **Counters and histograms** ([`counter!`], [`hist!`]) — cheap
//!   in-process aggregation for hot paths (kernel dispatches, GEMM
//!   latencies); flushed as summary events at [`shutdown`] and rendered
//!   by [`metrics::summary_table`].
//! - **Sinks** ([`Sink`]) — [`JsonlSink`] writes the `GMORPH_TRACE`
//!   artifact, [`MemorySink`] backs tests.
//!
//! Telemetry is **off by default** and the disabled path is near-free:
//! every macro and record function first checks one relaxed atomic load
//! and performs no allocation or formatting unless a sink is installed.
//!
//! ```no_run
//! let _run = gmorph_telemetry::span!("optimize", bench = "B1");
//! gmorph_telemetry::point!("search.iter", iter = 3usize, accepted = true);
//! gmorph_telemetry::counter!("search.evaluated", 1);
//! gmorph_telemetry::hist!("gemm.us", 125.0);
//! ```

pub mod event;
pub mod json;
pub mod metrics;
pub mod schema;
pub mod sink;
pub mod span;

pub use event::{Event, EventKind, Value};
pub use sink::{JsonlSink, MemorySink, Sink};
pub use span::SpanGuard;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Fast-path gate: true while a sink is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// The installed sink (None while disabled).
static SINK: Mutex<Option<Arc<dyn Sink>>> = Mutex::new(None);
/// Time origin for `ts_us`; fixed at first use.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// True while telemetry is collecting. One relaxed atomic load — callers
/// on hot paths gate all event construction on this.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Microseconds since the process's telemetry epoch (first call wins).
pub(crate) fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Installs a sink and enables collection. Replaces any previous sink
/// without flushing it; call [`shutdown`] first to hand off cleanly.
pub fn install(sink: Arc<dyn Sink>) {
    // Pin the epoch before the first event can be stamped.
    let _ = EPOCH.get_or_init(Instant::now);
    *SINK.lock().unwrap_or_else(|p| p.into_inner()) = Some(sink);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Flushes aggregated metrics into the sink as summary events, flushes
/// the sink, and disables collection. A sink write error is printed to
/// stderr. Idempotent; a no-op when disabled.
pub fn shutdown() {
    if enabled() {
        metrics::flush_to_sink();
    }
    ENABLED.store(false, Ordering::SeqCst);
    let sink = SINK.lock().unwrap_or_else(|p| p.into_inner()).take();
    if let Some(Err(e)) = sink.map(|sink| sink.flush()) {
        eprintln!("gmorph-telemetry: {e}");
    }
}

/// Installs a [`JsonlSink`] at the path named by the `GMORPH_TRACE`
/// environment variable, if set and non-empty. Returns the trace path
/// when telemetry was enabled.
pub fn init_from_env() -> Option<PathBuf> {
    let raw = std::env::var_os("GMORPH_TRACE")?;
    if raw.is_empty() {
        return None;
    }
    let path = PathBuf::from(raw);
    match JsonlSink::create(&path) {
        Ok(sink) => {
            install(Arc::new(sink));
            Some(path)
        }
        Err(e) => {
            eprintln!("gmorph-telemetry: cannot open {}: {e}", path.display());
            None
        }
    }
}

/// Delivers one event to the installed sink. Cheap no-op when disabled.
pub fn emit(event: Event) {
    if !enabled() {
        return;
    }
    // Clone the Arc under the lock, record outside it: sinks may block
    // (file IO) and recording must not serialize unrelated threads on
    // the registry lock.
    let sink = SINK
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .as_ref()
        .cloned();
    if let Some(sink) = sink {
        sink.record(&event);
    }
}

/// Opens a hierarchical span; returns an RAII guard recording
/// `span_begin` now and `span_end` (with `duration_us`) on drop.
/// Fields are lazy: the expressions are not evaluated while disabled.
///
/// ```no_run
/// let _g = gmorph_telemetry::span!("finetune", candidate = 7usize);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name, ::std::vec::Vec::new)
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        $crate::SpanGuard::enter($name, || {
            ::std::vec![$((
                ::core::stringify!($key).to_string(),
                $crate::Value::from($val),
            )),+]
        })
    };
}

/// Records one instantaneous `point` event with typed fields.
/// Field expressions are not evaluated while disabled.
#[macro_export]
macro_rules! point {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::emit(
                $crate::Event::new($crate::EventKind::Point, $name).with_fields(
                    ::std::vec![$((
                        ::core::stringify!($key).to_string(),
                        $crate::Value::from($val),
                    )),*],
                ),
            );
        }
    };
}

/// Records one `meta` event (run configuration, environment facts).
/// Field expressions are not evaluated while disabled.
#[macro_export]
macro_rules! meta {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::emit(
                $crate::Event::new($crate::EventKind::Meta, $name).with_fields(
                    ::std::vec![$((
                        ::core::stringify!($key).to_string(),
                        $crate::Value::from($val),
                    )),*],
                ),
            );
        }
    };
}

/// Adds to a named counter (aggregated; flushed at [`shutdown`]).
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::metrics::counter_add($name, 1)
    };
    ($name:expr, $n:expr) => {
        $crate::metrics::counter_add($name, $n)
    };
}

/// Records one observation into a named histogram (aggregated; flushed
/// at [`shutdown`]).
#[macro_export]
macro_rules! hist {
    ($name:expr, $v:expr) => {
        $crate::metrics::hist_record($name, $v)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{install_test_sink, test_lock};

    #[test]
    fn macros_emit_through_installed_sink() {
        let guard = install_test_sink();
        {
            let _outer = span!("t.lib.outer", kind = "test");
            point!("t.lib.point", n = 2usize, ok = true);
            meta!("t.lib.meta", seed = 42i64);
        }
        counter!("t.lib.counter", 3);
        hist!("t.lib.hist", 17.0);
        let events = guard.events();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::SpanBegin));
        assert!(kinds.contains(&EventKind::SpanEnd));
        assert!(kinds.contains(&EventKind::Point));
        assert!(kinds.contains(&EventKind::Meta));
        // Point/meta events inherit the enclosing span.
        let begin = events
            .iter()
            .find(|e| e.kind == EventKind::SpanBegin)
            .unwrap();
        let point = events.iter().find(|e| e.kind == EventKind::Point).unwrap();
        assert_eq!(point.span, begin.span);
        assert_eq!(metrics::counter_value("t.lib.counter"), 3);
        // Shutdown (via guard drop) flushes metrics as summary events.
        let sink = guard.sink().clone();
        drop(guard);
        let flushed = sink.events();
        assert!(flushed
            .iter()
            .any(|e| e.kind == EventKind::Counter && e.name == "t.lib.counter"));
        assert!(flushed
            .iter()
            .any(|e| e.kind == EventKind::Histogram && e.name == "t.lib.hist"));
    }

    #[test]
    fn disabled_macros_do_not_evaluate_fields() {
        let _gate = test_lock();
        assert!(!enabled());
        fn boom() -> i64 {
            panic!("field expressions must stay lazy while disabled")
        }
        let _g = span!("t.lib.lazy", v = boom());
        point!("t.lib.lazy.point", v = boom());
        meta!("t.lib.lazy.meta", v = boom());
        assert_eq!(metrics::counter_value("t.lib.lazy"), 0);
    }

    #[test]
    fn shutdown_is_idempotent() {
        let _gate = test_lock();
        shutdown();
        shutdown();
        assert!(!enabled());
    }

    #[test]
    fn emitted_events_validate_against_schema() {
        let guard = install_test_sink();
        {
            let _s = span!("t.lib.schema", phase = "x");
            point!("t.lib.schema.point", iter = 1usize);
        }
        counter!("t.lib.schema.counter", 2);
        hist!("t.lib.schema.hist", 8.0);
        let sink = guard.sink().clone();
        drop(guard); // flush metrics into the sink
        let lines: Vec<String> = sink.events().iter().map(|e| e.to_json()).collect();
        let stats =
            schema::validate_events(lines.iter().map(String::as_str)).expect("schema-valid");
        assert_eq!(stats.spans, 1);
        assert!(stats.by_kind.contains_key("counter"));
        assert!(stats.by_kind.contains_key("histogram"));
    }
}
