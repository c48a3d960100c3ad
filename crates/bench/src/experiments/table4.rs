//! Table 4: model fusion vs multi-task learning (§6.3).
//!
//! Compares, per benchmark, the All-shared baseline, the TreeMTL
//! recommender, and GMorph at the 1% budget. Expected shape: GMorph gives
//! similar-or-higher speedups without the over-sharing accuracy failures
//! (B2) or under-sharing speedup limits (B3/B4), and is the only approach
//! applicable on cross-backbone benchmarks (B5/B6/B7).

use crate::common::{paper_config, pct, ExperimentOpts, Reporter};
use gmorph::baselines;
use gmorph::graph::{parser, CapacityVector};
use gmorph::perf::accuracy::{surrogate_asymptote, SurrogateParams};
use gmorph::perf::estimator::{estimate_latency_ms, Backend};
use gmorph::prelude::*;

/// Evaluated baseline: accuracy drop (trained to convergence) + speedup.
fn eval_baseline(
    session: &Session,
    paper_graph: &AbsGraph,
    mini_graph: &AbsGraph,
) -> gmorph::tensor::Result<(f32, f64)> {
    let orig_paper = parser::parse_specs(&session.bench.paper)?;
    let orig_latency = estimate_latency_ms(&orig_paper, Backend::Eager)?;
    let latency = estimate_latency_ms(paper_graph, Backend::Eager)?;
    // Baselines train to convergence (the paper notes this favours them),
    // so their drop is the asymptotic surrogate value.
    let orig_cv = CapacityVector::of(&session.mini_graph)?;
    let drop = surrogate_asymptote(mini_graph, &orig_cv, &SurrogateParams::default(), 0)?;
    Ok((drop.max(0.0), orig_latency / latency))
}

/// Runs the Table 4 experiment.
pub fn run(opts: &ExperimentOpts) -> gmorph::tensor::Result<()> {
    let reporter = Reporter::new(&opts.out_dir);
    let benches = if opts.quick {
        vec![BenchId::B1, BenchId::B3]
    } else {
        BenchId::all().to_vec()
    };
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for id in benches {
        let session = crate::common::session_for(id, opts)?;
        let shareable = baselines::common_prefix_len(&session.bench.mini) > 0;

        let (all_shared_cell, tree_cell, all_csv, tree_csv) = if shareable {
            let as_mini = baselines::all_shared(&session.bench.mini)?;
            let as_paper = baselines::all_shared(&session.bench.paper)?;
            let (as_drop, as_speedup) = eval_baseline(&session, &as_paper, &as_mini)?;

            let tm_mini = baselines::treemtl_recommend(&session.bench.mini, 0.01)?;
            let tm_paper = baselines::treemtl_recommend(&session.bench.paper, 0.01)?;
            let (tm_drop, tm_speedup) = eval_baseline(&session, &tm_paper, &tm_mini)?;
            (
                format!("{} / {:.2}x", pct(as_drop), as_speedup),
                format!("{} / {:.2}x", pct(tm_drop), tm_speedup),
                format!("{as_drop:.4},{as_speedup:.3}"),
                format!("{tm_drop:.4},{tm_speedup:.3}"),
            )
        } else {
            (
                "- (no identical layers)".to_string(),
                "- (no identical layers)".to_string(),
                ",".to_string(),
                ",".to_string(),
            )
        };

        let cfg = paper_config(id, opts, 0.01);
        let result = session.optimize(&cfg)?;
        rows.push(vec![
            id.to_string(),
            all_shared_cell,
            tree_cell,
            format!(
                "{} / {:.2}x",
                pct(result.best.drop.max(0.0)),
                result.speedup
            ),
        ]);
        csv.push(vec![
            id.to_string(),
            all_csv,
            tree_csv,
            format!("{:.4},{:.3}", result.best.drop.max(0.0), result.speedup),
        ]);
    }
    reporter.write_csv(
        "table4.csv",
        &[
            "bench",
            "all_shared(drop,speedup)",
            "treemtl(drop,speedup)",
            "gmorph(drop,speedup)",
        ],
        &csv,
    )?;
    reporter.print_table(
        "Table 4: accuracy drop / speedup — MTL baselines vs GMorph @1% budget",
        &["bench", "All-shared", "TreeMTL", "GMorph"],
        &rows,
    );
    Ok(())
}
