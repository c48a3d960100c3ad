//! End-to-end telemetry integration: a traced optimize run must produce a
//! structured event stream from which the search's outcome can be fully
//! reconstructed, the JSONL artifact must validate against the documented
//! schema, and disabled telemetry must stay completely silent.

use gmorph::prelude::*;
use gmorph::search::persist::{load_trace, save_trace, TraceMeta};
use gmorph::telemetry::sink::{install_test_sink, test_lock};
use gmorph::telemetry::{self, Event, EventKind, Value};
use gmorph::zoo::{build, BenchId, DataProfile};

fn quick_session(seed: u64) -> Session {
    let bench = build(BenchId::B1, &DataProfile::smoke(), seed).unwrap();
    let cfg = SessionConfig {
        teacher: gmorph::models::train::TrainConfig {
            epochs: 1,
            batch: 32,
            lr: 3e-3,
            seed,
        },
        seed,
        use_cache: false,
        ..Default::default()
    };
    Session::prepare(bench, &cfg).unwrap()
}

fn field_f64(e: &Event, name: &str) -> Option<f64> {
    match e.field(name)? {
        Value::Int(v) => Some(*v as f64),
        Value::Float(v) => Some(*v),
        _ => None,
    }
}

fn field_str<'a>(e: &'a Event, name: &str) -> Option<&'a str> {
    match e.field(name)? {
        Value::Str(s) => Some(s.as_str()),
        _ => None,
    }
}

#[test]
fn traced_optimize_reconstructs_search_result() {
    let guard = install_test_sink();
    let session = quick_session(11);
    // Rounds of four candidates evaluated in parallel, the last one
    // partial (4 + 4 + 4 + 2): the stream still holds one `search.iter`
    // per candidate, in iteration order.
    let cfg = OptimizationConfig {
        iterations: 14,
        candidates_per_round: 4,
        accuracy_threshold: 0.02,
        seed: 11,
        ..Default::default()
    };
    let r = session.optimize(&cfg).unwrap();

    let events = guard.events();
    let iters: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind == EventKind::Point && e.name == "search.iter")
        .collect();
    assert_eq!(iters.len(), cfg.iterations);
    assert_eq!(iters.len(), r.trace.len());

    // The per-iteration stream mirrors the returned trace record for
    // record: same iteration numbers, statuses, and best-latency curve.
    for (e, rec) in iters.iter().zip(r.trace.iter()) {
        assert_eq!(field_f64(e, "iter"), Some(rec.iter as f64));
        assert_eq!(field_str(e, "status"), Some(rec.status.as_str()));
        let best = field_f64(e, "best_latency_ms").unwrap();
        assert!((best - rec.best_latency_ms).abs() < 1e-9);
    }

    // Candidate-outcome breakdown reconstructed from events matches the
    // counts the search itself reports.
    let by_status = |s: &str| {
        iters
            .iter()
            .filter(|e| field_str(e, "status") == Some(s))
            .count()
    };
    assert_eq!(by_status("duplicate"), r.duplicates);
    assert_eq!(by_status("rule_filtered"), r.rule_filtered);
    assert_eq!(by_status("terminated_early"), r.early_terminated);
    assert_eq!(by_status("evaluated") + r.early_terminated, r.evaluated);

    // The final best latency in the stream is the result's best latency.
    let last_best = field_f64(iters.last().unwrap(), "best_latency_ms").unwrap();
    assert!((last_best - r.best.latency_ms).abs() < 1e-9);

    // Counters agree with the event stream.
    assert_eq!(
        telemetry::metrics::counter_value("search.iterations"),
        cfg.iterations as u64
    );
    assert_eq!(
        telemetry::metrics::counter_value("search.evaluated")
            + telemetry::metrics::counter_value("search.early_terminated"),
        r.evaluated as u64
    );

    // Session-level events: config metadata and the prepare/optimize spans.
    let meta = events
        .iter()
        .find(|e| e.kind == EventKind::Meta && e.name == "session.meta")
        .expect("session.meta event");
    assert_eq!(field_str(meta, "bench"), Some("B1"));
    for span in ["session.prepare", "session.optimize", "search.run"] {
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::SpanEnd && e.name == span),
            "missing closed span {span}"
        );
    }
    // Teacher training was traced too (one per task).
    let teachers = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnd && e.name == "teacher.train")
        .count();
    assert_eq!(teachers, session.teachers.len());
}

#[test]
fn jsonl_trace_validates_and_artifact_round_trips() {
    let _gate = test_lock();
    let dir = std::env::temp_dir().join(format!("gmorph-trace-test-{}", std::process::id()));
    let trace_path = dir.join("run.jsonl");

    let bench = build(BenchId::B1, &DataProfile::smoke(), 7).unwrap();
    let cfg = SessionConfig {
        teacher: gmorph::models::train::TrainConfig {
            epochs: 1,
            batch: 32,
            lr: 3e-3,
            seed: 7,
        },
        seed: 7,
        use_cache: false,
        trace: Some(trace_path.clone()),
        ..Default::default()
    };
    let session = Session::prepare(bench, &cfg).unwrap();
    assert!(telemetry::enabled(), "trace path should enable telemetry");

    let opt = OptimizationConfig {
        iterations: 8,
        seed: 7,
        ..Default::default()
    };
    let r = session.optimize(&opt).unwrap();

    let artifact = trace_path.with_extension("trace.jsonl");
    save_trace(&artifact, &r).unwrap();
    telemetry::shutdown();

    // The event stream validates against the documented schema and
    // contains the iteration stream plus flushed metric summaries.
    let stats = telemetry::schema::validate_file(&trace_path).unwrap();
    assert!(stats.lines > 0);
    assert!(stats.by_kind.get("point").copied().unwrap_or(0) >= opt.iterations);
    assert!(stats.by_kind.contains_key("counter"), "metrics flushed");
    assert!(stats.by_kind.contains_key("span_end"));

    // The search-trace artifact round-trips into the same summary.
    let (meta, records) = load_trace(&artifact).unwrap();
    assert_eq!(meta, TraceMeta::of(&r));
    assert_eq!(records.len(), r.trace.len());

    telemetry::metrics::reset();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn span_nesting_balances_across_pool_sizes() {
    for threads in [1usize, 4] {
        let guard = install_test_sink();
        gmorph::tensor::engine::with_thread_limit(threads, || {
            let _outer = gmorph::telemetry::span!("test.outer", threads = threads);
            gmorph::tensor::engine::parallel_for(8, |i| {
                let _chunk = gmorph::telemetry::span!("test.chunk", index = i);
            });
        });
        let events = guard.events();
        let lines: Vec<String> = events.iter().map(|e| e.to_json()).collect();
        let stats = telemetry::schema::validate_events(lines.iter().map(String::as_str))
            .unwrap_or_else(|e| panic!("{threads}-thread trace invalid: {e}"));
        // Every span closed, on every participating thread.
        let begins = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanBegin)
            .count();
        assert_eq!(begins, 9, "outer + 8 chunks under {threads} threads");
        assert_eq!(stats.spans, 9);
        // Chunk spans nest under the outer span only when they run on the
        // same thread; cross-thread chunks are roots of their own thread.
        let outer_id = events
            .iter()
            .find(|e| e.kind == EventKind::SpanBegin && e.name == "test.outer")
            .map(|e| (e.span, e.thread))
            .unwrap();
        for e in events
            .iter()
            .filter(|e| e.kind == EventKind::SpanBegin && e.name == "test.chunk")
        {
            if e.thread == outer_id.1 {
                assert_eq!(e.parent, outer_id.0, "same-thread chunk nests under outer");
            } else {
                assert_eq!(e.parent, 0, "cross-thread chunk is a root span");
            }
        }
        drop(guard);
    }
}

#[test]
fn disabled_telemetry_is_silent() {
    let _gate = test_lock();
    assert!(!telemetry::enabled());

    // Exercise instrumented kernels and the pool with telemetry off.
    gmorph::tensor::engine::with_thread_limit(2, || {
        let a = Tensor::from_vec(&[64, 64], vec![1.0; 64 * 64]).unwrap();
        let b = Tensor::from_vec(&[64, 64], vec![2.0; 64 * 64]).unwrap();
        let _ = gmorph::tensor::gemm::matmul(&a, &b).unwrap();
        gmorph::tensor::engine::parallel_for(8, |_| {});
    });
    // Spans and points are inert; counters record nothing.
    {
        let _s = gmorph::telemetry::span!("test.disabled");
        gmorph::telemetry::point!("test.disabled.point", v = 1usize);
        gmorph::telemetry::counter!("test.disabled.counter");
    }
    assert_eq!(telemetry::metrics::counter_value("gemm.calls"), 0);
    assert_eq!(telemetry::metrics::counter_value("engine.dispatch.pooled"), 0);
    assert_eq!(telemetry::metrics::counter_value("test.disabled.counter"), 0);
    assert!(telemetry::metrics::counters().is_empty());
    assert!(telemetry::metrics::histograms().is_empty());
}
