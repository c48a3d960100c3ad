//! Cross-benchmark smoke tests: every B1-B7 pipeline must prepare, parse,
//! and search end-to-end (surrogate mode keeps this fast enough to run on
//! every `cargo test`).

use gmorph::prelude::*;

fn prepare(id: BenchId, seed: u64) -> Session {
    let bench = build_benchmark(id, &DataProfile::smoke(), seed).unwrap();
    Session::prepare(
        bench,
        &SessionConfig {
            teacher: gmorph::models::train::TrainConfig {
                epochs: 1,
                batch: 32,
                lr: 3e-3,
                seed,
            },
            seed,
            use_cache: false,
            ..Default::default()
        },
    )
    .unwrap()
}

fn surrogate_cfg(seed: u64) -> OptimizationConfig {
    OptimizationConfig {
        accuracy_threshold: 0.02,
        iterations: 20,
        mode: AccuracyMode::Surrogate,
        max_epochs: 20,
        eval_every: 2,
        seed,
        ..Default::default()
    }
}

fn check_benchmark(id: BenchId) {
    let session = prepare(id, 31);
    // Graphs valid and aligned.
    session.mini_graph.validate().unwrap();
    session.paper_graph.validate().unwrap();
    assert_eq!(session.mini_graph.len(), session.paper_graph.len());
    // Search improves or preserves the original.
    let result = session.optimize(&surrogate_cfg(31)).unwrap();
    assert!(result.speedup >= 1.0, "{id}: speedup {}", result.speedup);
    result.best.mini.validate().unwrap();
    assert!(
        result.best.drop <= 0.02 + 1e-6,
        "{id}: drop {}",
        result.best.drop
    );
    // The fused model must actually run on the benchmark's data.
    let mut tree = session
        .materialize(&result.best.mini, &result.best.weights)
        .unwrap();
    let x = session.split.test.inputs.select_rows(&[0, 1]).unwrap();
    let ys = tree.forward(&x, Mode::Eval).unwrap();
    assert_eq!(ys.len(), session.bench.mini.len(), "{id}");
    for (t, y) in ys.iter().enumerate() {
        assert_eq!(y.dims()[1], session.bench.mini[t].task.classes, "{id}");
        assert!(y.data().iter().all(|v| v.is_finite()), "{id}");
    }
}

#[test]
fn b1_vision_homogeneous() {
    check_benchmark(BenchId::B1);
}

#[test]
fn b2_vision_vgg16() {
    check_benchmark(BenchId::B2);
}

#[test]
fn b3_vision_heterogeneous_vggs() {
    check_benchmark(BenchId::B3);
}

#[test]
fn b4_resnet_pair() {
    check_benchmark(BenchId::B4);
}

#[test]
fn b5_cross_family() {
    check_benchmark(BenchId::B5);
}

#[test]
fn b6_vision_transformers() {
    check_benchmark(BenchId::B6);
}

#[test]
fn b7_language_models() {
    check_benchmark(BenchId::B7);
}

#[test]
fn searches_are_reproducible_across_sessions() {
    let a = prepare(BenchId::B3, 77)
        .optimize(&surrogate_cfg(77))
        .unwrap();
    let b = prepare(BenchId::B3, 77)
        .optimize(&surrogate_cfg(77))
        .unwrap();
    assert_eq!(a.best.latency_ms, b.best.latency_ms);
    assert_eq!(a.evaluated, b.evaluated);
    assert_eq!(a.best.mini.signature(), b.best.mini.signature());
}
