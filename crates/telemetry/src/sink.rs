//! Event sinks: where structured events go.
//!
//! Three implementations: [`JsonlSink`] appends one JSON line per event
//! to a file (the `GMORPH_TRACE` artifact), [`MemorySink`] buffers events
//! in memory for tests and programmatic inspection, and anything else can
//! implement [`Sink`].
//!
//! Because the installed sink and the metrics registry are process
//! globals, tests that enable telemetry must not run concurrently.
//! [`install_test_sink`] serializes them: it takes a process-wide lock,
//! resets all telemetry state, installs a fresh [`MemorySink`], and
//! restores the disabled state when the returned guard drops.
//! [`test_lock`] takes the same lock *without* enabling telemetry, for
//! tests asserting the disabled path.

use crate::event::Event;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// A destination for telemetry events.
pub trait Sink: Send + Sync {
    /// Records one event. Called from any thread.
    fn record(&self, event: &Event);
    /// Flushes buffered events to durable storage.
    fn flush(&self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Appends events as JSON lines to a file. The first write or flush
/// error is kept: later events are dropped and every [`Sink::flush`]
/// reports it, so a truncated trace never goes unnoticed.
pub struct JsonlSink {
    path: PathBuf,
    /// The file, and the outcome of every write to it so far.
    writer: Mutex<(BufWriter<std::fs::File>, std::io::Result<()>)>,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`, creating parent
    /// directories as needed.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonlSink> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::File::create(&path)?;
        Ok(JsonlSink {
            path,
            writer: Mutex::new((BufWriter::new(file), Ok(()))),
        })
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        let line = event.to_json();
        let mut w = self
            .writer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let (out, status) = &mut *w;
        if status.is_ok() {
            *status = out
                .write_all(line.as_bytes())
                .and_then(|()| out.write_all(b"\n"));
        }
    }

    fn flush(&self) -> std::io::Result<()> {
        let mut w = self
            .writer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let (out, status) = &mut *w;
        if status.is_ok() {
            *status = out.flush();
        }
        status.as_ref().copied().map_err(|e| {
            std::io::Error::new(e.kind(), format!("writing {}: {e}", self.path.display()))
        })
    }
}

/// Buffers events in memory; the test sink.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Arc<MemorySink> {
        Arc::new(MemorySink::default())
    }

    /// A snapshot of all recorded events, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(event.clone());
    }
}

/// Serializes tests that touch the global telemetry state.
static TEST_GATE: Mutex<()> = Mutex::new(());

fn lock_gate() -> MutexGuard<'static, ()> {
    TEST_GATE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Holds the telemetry test gate with telemetry *disabled* and all
/// metrics cleared — for tests asserting the disabled path stays silent.
pub struct TestGate {
    _lock: MutexGuard<'static, ()>,
}

/// Locks the gate, shuts telemetry down, and clears metrics.
pub fn test_lock() -> TestGate {
    let lock = lock_gate();
    crate::shutdown();
    crate::metrics::reset();
    TestGate { _lock: lock }
}

/// Holds the telemetry test gate with a fresh [`MemorySink`] installed.
/// Dropping the guard shuts telemetry down (flushing metrics into the
/// sink) and releases the gate.
pub struct TestSinkGuard {
    sink: Arc<MemorySink>,
    _lock: MutexGuard<'static, ()>,
}

/// Installs a fresh memory sink behind the test gate.
pub fn install_test_sink() -> TestSinkGuard {
    let lock = lock_gate();
    crate::shutdown();
    crate::metrics::reset();
    let sink = MemorySink::new();
    crate::install(sink.clone());
    TestSinkGuard { sink, _lock: lock }
}

impl TestSinkGuard {
    /// Events recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.sink.events()
    }

    /// The underlying sink.
    #[cfg(test)]
    pub(crate) fn sink(&self) -> &Arc<MemorySink> {
        &self.sink
    }
}

impl Drop for TestSinkGuard {
    fn drop(&mut self) {
        crate::shutdown();
        crate::metrics::reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Value};

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let guard = test_lock();
        drop(guard);
        let dir = std::env::temp_dir().join(format!("gmorph-telemetry-{}", std::process::id()));
        let path = dir.join("sink.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        let e = Event {
            ts_us: 5,
            kind: EventKind::Point,
            name: "t.sink".to_string(),
            span: 0,
            parent: 0,
            thread: 1,
            fields: vec![("v".to_string(), Value::Int(9))],
        };
        sink.record(&e);
        sink.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        assert_eq!(Event::from_json(lines[0]).unwrap(), e);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn write_errors_surface_at_flush() {
        let sink = JsonlSink::create("/dev/full").unwrap();
        sink.record(&Event {
            ts_us: 1,
            kind: EventKind::Point,
            name: "t.full".to_string(),
            span: 0,
            parent: 0,
            thread: 1,
            fields: Vec::new(),
        });
        let err = sink.flush().unwrap_err();
        assert!(err.to_string().starts_with("writing /dev/full: "), "{err}");
        // The first error is kept, not cleared by reporting it.
        assert!(sink.flush().is_err());
    }

    #[test]
    fn memory_sink_captures_emitted_events() {
        let guard = install_test_sink();
        assert!(crate::enabled());
        crate::point!("t.mem", value = 3usize);
        let events = guard.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "t.mem");
        assert_eq!(events[0].field("value"), Some(&Value::Int(3)));
        drop(guard);
        assert!(!crate::enabled());
    }
}
