//! Hierarchical spans: a thread-local stack of ids with RAII guards.
//!
//! Spans nest per thread: the guard returned by [`crate::span!`] pushes a
//! fresh id, records a `span_begin` event whose `parent` is the id below
//! it on the stack, and on drop pops the stack and records `span_end`
//! with the measured `duration_us`. Work dispatched to pool worker
//! threads starts a fresh stack on each worker — cross-thread parentage
//! is not tracked (events still carry the worker's thread id, so traces
//! remain attributable).

use crate::event::{Event, EventKind, Value};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

/// Span ids are process-unique and never reused; 0 means "no span".
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
/// Telemetry thread ids are small dense integers assigned on first use.
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

/// The calling thread's telemetry id (assigned on first call, stable for
/// the thread's lifetime).
pub fn thread_id() -> u64 {
    THREAD_ID.with(|c| {
        let id = c.get();
        if id != 0 {
            return id;
        }
        let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        c.set(id);
        id
    })
}

/// The innermost open span on the calling thread (0 = none).
pub fn current_span() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// RAII guard for one span. Construct via [`crate::span!`] or
/// [`SpanGuard::enter`].
pub struct SpanGuard {
    id: u64,
    name: &'static str,
    start_us: u64,
    active: bool,
}

impl SpanGuard {
    /// Opens a span when telemetry is enabled; otherwise returns an inert
    /// guard without touching the field closure (no allocation on the
    /// disabled path).
    pub fn enter(name: &'static str, fields: impl FnOnce() -> Vec<(String, Value)>) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard {
                id: 0,
                name,
                start_us: 0,
                active: false,
            };
        }
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let parent = current_span();
        let start_us = crate::now_us();
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        let mut event = Event {
            ts_us: start_us,
            kind: EventKind::SpanBegin,
            name: name.to_string(),
            span: id,
            parent,
            thread: thread_id(),
            fields: fields(),
        };
        // `Event::new` is bypassed so `span` is the new id, not the parent.
        event.ts_us = start_us;
        crate::emit(event);
        SpanGuard {
            id,
            name,
            start_us,
            active: true,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        // Pop this span. Guards drop in LIFO order in well-formed code; if
        // an intervening guard leaked, unwind the stack down to our id so
        // the stack cannot grow without bound.
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            while let Some(top) = stack.pop() {
                if top == self.id {
                    break;
                }
            }
        });
        let end_us = crate::now_us();
        let parent = current_span();
        crate::emit(Event {
            ts_us: end_us,
            kind: EventKind::SpanEnd,
            name: self.name.to_string(),
            span: self.id,
            parent,
            thread: thread_id(),
            fields: vec![(
                "duration_us".to_string(),
                Value::from(end_us.saturating_sub(self.start_us)),
            )],
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::install_test_sink;

    #[test]
    fn spans_nest_and_balance() {
        let guard = install_test_sink();
        {
            let outer = SpanGuard::enter("outer", Vec::new);
            assert_eq!(current_span(), outer.id);
            {
                let inner = SpanGuard::enter("inner", Vec::new);
                assert_eq!(current_span(), inner.id);
            }
            assert_eq!(current_span(), outer.id);
        }
        assert_eq!(current_span(), 0);
        let events = guard.events();
        let begins: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanBegin)
            .collect();
        let ends: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanEnd)
            .collect();
        assert_eq!(begins.len(), 2);
        assert_eq!(ends.len(), 2);
        // The inner span's parent is the outer span.
        assert_eq!(begins[1].parent, begins[0].span);
        // Ends are LIFO: inner closes first.
        assert_eq!(ends[0].span, begins[1].span);
        assert_eq!(ends[1].span, begins[0].span);
        assert!(ends.iter().all(|e| e.field("duration_us").is_some()));
    }

    #[test]
    fn disabled_spans_are_inert() {
        // No sink installed in this scope: guard must not touch the stack.
        let _gate = crate::sink::test_lock();
        let depth_before = SPAN_STACK.with(|s| s.borrow().len());
        {
            let g = SpanGuard::enter("noop", || panic!("fields must stay lazy"));
            assert_eq!(g.id, 0);
        }
        assert_eq!(SPAN_STACK.with(|s| s.borrow().len()), depth_before);
    }

    #[test]
    fn thread_ids_are_stable_and_distinct() {
        let here = thread_id();
        assert_eq!(here, thread_id());
        let other = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(here, other);
    }
}
