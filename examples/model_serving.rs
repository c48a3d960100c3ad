//! Model serving (§7's second deployment scenario): "GMorph can be
//! applied to optimize multi-DNNs in model serving systems to improve
//! serving throughput, which is measured as queries per second. By paying
//! the one-time cost of model searching and fine-tuning offline, GMorph
//! can fuse multi-DNNs into a resource-efficient multi-task model."
//!
//! This example pays that offline cost (a surrogate search over B4's
//! ResNet pair), then measures online serving throughput of the original
//! and fused models on this CPU at several batch sizes — both raw and
//! after the real batch-norm-folding compilation pass.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example model_serving
//! ```

use gmorph::perf::compile::compile_for_inference;
use gmorph::perf::estimator::measure_throughput_qps;
use gmorph::prelude::*;
use std::time::Duration;

fn main() -> gmorph::tensor::Result<()> {
    println!("== Model serving: ObjectNet (ResNet-34) + SalientNet (ResNet-18) ==");
    let bench = build_benchmark(BenchId::B4, &DataProfile::standard(), 33)?;
    let session = Session::prepare(
        bench,
        &SessionConfig {
            seed: 33,
            ..Default::default()
        },
    )?;

    // Offline: search for the fused model (one-time cost).
    let cfg = OptimizationConfig {
        accuracy_threshold: 0.01,
        iterations: 60,
        mode: AccuracyMode::Surrogate,
        max_epochs: 35,
        eval_every: 5,
        seed: 33,
        ..Default::default()
    };
    let result = session.optimize(&cfg)?;
    println!(
        "offline search: {:.2} ms -> {:.2} ms ({:.2}x estimated), {:.1} virtual GPU-hours",
        result.original_latency_ms, result.best.latency_ms, result.speedup, result.virtual_hours
    );

    // Online: throughput of original vs fused vs compiled-fused.
    let orig = session.materialize(&session.mini_graph, &session.weights)?;
    let fused = session.materialize(&result.best.mini, &result.best.weights)?;
    let (orig_c, _) = compile_for_inference(&orig)?;
    let (fused_c, folds) = compile_for_inference(&fused)?;
    println!("compiled the fused model: {folds} batch norms folded\n");
    println!("batch  original qps  fused qps  gain   compiled-fused qps  gain");
    for batch in [1usize, 4, 16] {
        let ix: Vec<usize> = (0..batch).collect();
        let x = session.split.test.inputs.select_rows(&ix)?;
        let dur = Duration::from_millis(400);
        let q_orig = measure_throughput_qps(&mut orig.clone(), &x, dur)?;
        let q_fused = measure_throughput_qps(&mut fused.clone(), &x, dur)?;
        let q_orig_c = measure_throughput_qps(&mut orig_c.clone(), &x, dur)?;
        let q_fused_c = measure_throughput_qps(&mut fused_c.clone(), &x, dur)?;
        println!(
            "{batch:<5}  {q_orig:>12.0}  {q_fused:>9.0}  {:.2}x  {q_fused_c:>18.0}  {:.2}x",
            q_fused / q_orig,
            q_fused_c / q_orig_c,
        );
    }
    println!(
        "\nthroughput gains track the latency speedup: the one-time fusion cost\n\
         buys every future query a cheaper model."
    );
    Ok(())
}
