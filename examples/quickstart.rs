//! Quickstart: fuse two small face models end-to-end with *real*
//! distillation fine-tuning, and compare measured latency and accuracy
//! before and after.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gmorph::prelude::*;
use gmorph::perf::estimator::measure_latency_ms;

fn main() -> gmorph::tensor::Result<()> {
    // 1. A benchmark with two tasks over one stream: B4-style scenes with
    //    an object detector and a salient-object counter. Smoke profile
    //    keeps the run under a minute on one core.
    println!("== GMorph quickstart ==");
    let bench = build_benchmark(BenchId::B1, &DataProfile::smoke(), 42)?;
    println!(
        "benchmark {} with {} tasks, {} samples",
        bench.id,
        bench.mini.len(),
        bench.dataset.len()
    );

    // 2. Train the task-specific teachers (the "well-trained DNNs" GMorph
    //    takes as input). Cached after the first run.
    let session = Session::prepare(
        bench,
        &SessionConfig {
            seed: 42,
            ..Default::default()
        },
    )?;
    for (spec, score) in session.bench.mini.iter().zip(&session.teacher_scores) {
        println!("teacher {:<28} test score {:.3}", spec.name, score);
    }

    // 3. Search for a fused multi-task model within a 2% accuracy budget,
    //    evaluating candidates with real distillation fine-tuning.
    let cfg = OptimizationConfig {
        accuracy_threshold: 0.02,
        iterations: 10,
        mode: AccuracyMode::Real,
        max_epochs: 4,
        eval_every: 1,
        lr: 1e-3,
        seed: 42,
        ..Default::default()
    };
    println!("searching ({} iterations, real fine-tuning)...", cfg.iterations);
    let result = session.optimize(&cfg)?;

    // 4. Report: estimated paper-scale latency and measured mini latency.
    println!(
        "original estimated latency {:.2} ms -> fused {:.2} ms ({:.2}x)",
        result.original_latency_ms, result.best.latency_ms, result.speedup
    );
    println!(
        "accuracy drop of the fused model: {:.2}% (budget 2%)",
        result.best.drop * 100.0
    );

    let x = session.split.test.inputs.select_rows(&[0, 1, 2, 3])?;
    let mut original = session.materialize(&session.mini_graph, &session.weights)?;
    let mut fused = session.materialize(&result.best.mini, &result.best.weights)?;
    let lat_orig = measure_latency_ms(&mut original, &x, 1, 9)?;
    let lat_fused = measure_latency_ms(&mut fused, &x, 1, 9)?;
    println!(
        "measured on this CPU (batch 4): original {lat_orig:.2} ms, fused {lat_fused:.2} ms ({:.2}x)",
        lat_orig / lat_fused
    );

    println!("\nfused model architecture:\n{}", result.best.mini.render());

    // 5. Persist the fused model (graph + trained weights) and reload it.
    let path = std::path::Path::new("target/quickstart-fused.gmck");
    gmorph::graph::persist::save_model(path, &result.best.mini, &result.best.weights)?;
    let (graph, weights) = gmorph::graph::persist::load_model(path)?;
    let mut reloaded = session.materialize(&graph, &weights)?;
    let ys = reloaded.forward(&x, Mode::Eval)?;
    println!(
        "saved and reloaded the fused model from {} ({} task outputs intact)",
        path.display(),
        ys.len()
    );
    Ok(())
}
