//! Table 3: latency of the original models and GMorph's fused model on
//! both execution backends (Eager ≈ PyTorch, Fused ≈ TensorRT), at the 2%
//! accuracy budget.
//!
//! Expected shape: GMorph's speedup persists on the compiled backend —
//! model fusion is complementary to graph-compiler optimizations. We also
//! report *measured* wall-clock latencies of the mini-scale models on this
//! CPU as ground truth for the relative ordering.

use crate::common::{f, paper_config, ExperimentOpts, Reporter};
use gmorph::perf::compile::compile_for_inference;
use gmorph::perf::estimator::{estimate_latency_ms, measure_latency_ms};
use gmorph::prelude::*;

/// Runs the Table 3 experiment.
pub fn run(opts: &ExperimentOpts) -> gmorph::tensor::Result<()> {
    let reporter = Reporter::new(&opts.out_dir);
    let benches = if opts.quick {
        vec![BenchId::B1, BenchId::B4]
    } else {
        BenchId::all().to_vec()
    };
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for id in benches {
        let session = crate::common::session_for(id, opts)?;
        let cfg = paper_config(id, opts, 0.02);
        let result = session.optimize(&cfg)?;

        let orig_eager = estimate_latency_ms(&session.paper_graph, Backend::Eager)?;
        let orig_fused = estimate_latency_ms(&session.paper_graph, Backend::Fused)?;
        let best_eager = estimate_latency_ms(&result.best.paper, Backend::Eager)?;
        let best_fused = estimate_latency_ms(&result.best.paper, Backend::Fused)?;

        // Measured mini-scale ground truth (batch 1).
        let mut x_dims = vec![1usize];
        x_dims.extend_from_slice(&session.mini_graph.input_shape);
        let x = session.split.test.inputs.select_rows(&[0])?;
        debug_assert_eq!(x.dims(), x_dims.as_slice());
        let mut orig_tree = session.materialize(&session.mini_graph, &session.weights)?;
        let mut best_tree = session.materialize(&result.best.mini, &result.best.weights)?;
        let meas_orig = measure_latency_ms(&mut orig_tree, &x, 1, 7)?;
        let meas_best = measure_latency_ms(&mut best_tree, &x, 1, 7)?;
        // Real inference compilation (batch-norm folding): GMorph's win
        // must survive actual compilation, not just the analytic model.
        let (mut orig_compiled, _) = compile_for_inference(&orig_tree)?;
        let (mut best_compiled, _) = compile_for_inference(&best_tree)?;
        let meas_orig_c = measure_latency_ms(&mut orig_compiled, &x, 1, 7)?;
        let meas_best_c = measure_latency_ms(&mut best_compiled, &x, 1, 7)?;

        rows.push(vec![
            id.to_string(),
            f(orig_eager, 2),
            f(best_eager, 2),
            format!("{:.2}x", orig_eager / best_eager),
            f(orig_fused, 2),
            f(best_fused, 2),
            format!("{:.2}x", orig_fused / best_fused),
            format!("{:.2}x", meas_orig / meas_best),
            format!("{:.2}x", meas_orig_c / meas_best_c),
        ]);
        csv.push(vec![
            id.to_string(),
            f(orig_eager, 4),
            f(best_eager, 4),
            f(orig_fused, 4),
            f(best_fused, 4),
            f(meas_orig, 4),
            f(meas_best, 4),
            f(meas_orig_c, 4),
            f(meas_best_c, 4),
        ]);
    }
    reporter.write_csv(
        "table3.csv",
        &[
            "bench",
            "orig_eager_ms",
            "gmorph_eager_ms",
            "orig_fused_ms",
            "gmorph_fused_ms",
            "measured_orig_ms",
            "measured_gmorph_ms",
            "compiled_orig_ms",
            "compiled_gmorph_ms",
        ],
        &csv,
    )?;
    reporter.print_table(
        "Table 3: Eager (PyTorch-like) vs Fused (TensorRT-like) latency, accuracy drop < 2%",
        &[
            "bench",
            "Orig eager",
            "GMorph eager",
            "speedup",
            "Orig fused",
            "GMorph fused",
            "speedup",
            "measured speedup",
            "compiled speedup",
        ],
        &rows,
    );
    Ok(())
}
