//! The benchmark's own tests: metric names against `BENCHMARK.json`, every
//! workload at a tiny size, and a corrupt snapshot reported as a failed
//! operation.

use gmorph::prelude::*;
use gmorph::search::checkpoint::SEARCH_KIND;
use gmorph::telemetry::json::Json;
use gmorph::tensor::checkpoint::snapshot_files;
use gmorph_perfbench::cli::result_json;
use gmorph_perfbench::probes::{self, PER_LAYER};
use gmorph_perfbench::search;
use gmorph_perfbench::spans::Tracer;
use gmorph_perfbench::util::ScratchDir;
use gmorph_perfbench::workloads::{self, Outcome, Size, Workload, END_TO_END};
use std::path::Path;
use std::sync::Mutex;

/// Runs share process-wide state (cache directory, telemetry sink).
static SERIAL: Mutex<()> = Mutex::new(());

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        panic!("{key} is not a list")
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn emitted(out: &Outcome) -> Vec<(String, String)> {
    out.metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), u.clone()))
        .collect()
}

#[test]
fn metric_and_workload_names_match_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
    let Some(Json::Arr(ws)) = doc.get("workloads") else {
        panic!("workloads is not a list")
    };
    let names: Vec<&str> = ws
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_workload_runs_at_a_tiny_size() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    for w in Workload::ALL {
        let scratch = ScratchDir::new(Path::new(".bench_tmp"), "test").unwrap();
        let out = workloads::run(w, 5, 0.2, Size::TINY, &scratch).unwrap();
        assert!(
            out.check_failures.is_empty(),
            "{}: {:?}",
            w.name(),
            out.check_failures
        );
        assert_eq!(emitted(&out), owned(END_TO_END), "{}", w.name());
        for (name, value, _) in &out.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{}: {name} = {value}",
                w.name()
            );
        }
        let line = Json::parse(&result_json(&out)).expect("result line is JSON");
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert!(line.get("attempted").and_then(Json::as_i64).unwrap() >= 1);

        let traced = probes::run(w, 5, 0.2, Size::TINY, &scratch).unwrap();
        assert_eq!(emitted(&traced), owned(PER_LAYER), "{} traced", w.name());
        assert!(traced
            .spans
            .as_ref()
            .is_some_and(|s| s.contains("\"graph.generate\"")));
    }
}

#[test]
fn flipped_snapshot_byte_is_a_failed_operation() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let scratch = ScratchDir::new(Path::new(".bench_tmp"), "flip").unwrap();
    let tr = Tracer::new(false);
    let (setup, _) = workloads::setups(Workload::SearchCkpt, 7, 1, &scratch, &tr).unwrap();
    let cfg = OptimizationConfig {
        checkpoint_dir: Some(scratch.sub("ckpt")),
        ..search::paper_config(BenchId::B1, AccuracyMode::Surrogate, 8, 7)
    };
    let mut run = search::run(&setup.session, &cfg, &tr, 0).unwrap();

    // Both snapshots of the keep-2 rotation: the final one and the older
    // one the replay check resumes from.
    let dir = cfg.checkpoint_dir.clone().unwrap();
    let files = snapshot_files(&dir, SEARCH_KIND);
    assert_eq!(files.len(), 2, "keep-2 rotation");
    for (_, path) in &files {
        let mut bytes = std::fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(path, bytes).unwrap();
    }

    search::check_ckpt(&setup.session, &cfg, &mut run, &tr, 0).unwrap();
    let mut out = Outcome::default();
    out.count_search(&run);
    assert!(
        out.failed >= 2,
        "each corrupt snapshot must count as a failure"
    );
    for what in ["final snapshot", "older snapshot"] {
        assert!(
            out.check_failures.iter().any(|f| f.contains(what)),
            "{what}: {:?}",
            out.check_failures
        );
    }
    let line = Json::parse(&result_json(&out)).unwrap();
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
}
