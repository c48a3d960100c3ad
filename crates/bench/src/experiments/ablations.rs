//! Ablations over the design choices DESIGN.md calls out:
//!
//! - `pairs`: similar-shape pair restriction (Definition 2) vs any-shape
//!   pairs — does the restriction help search quality per unit time?
//! - `alpha`: simulated-annealing cooling constant sweep — sensitivity of
//!   the explore/exploit schedule.
//! - `ops`: mutation operations per pass — coarse vs fine search steps.
//! - `inherit`: weight inheritance from elites vs fresh initialization —
//!   the Figure 2 mechanism, isolated.

use crate::common::{f, paper_config, ExperimentOpts, Reporter};
use gmorph::graph::pairs::PairPolicy;
use gmorph::prelude::*;

fn summarize(label: String, r: &SearchResult) -> Vec<String> {
    vec![
        label,
        f(r.best.latency_ms, 2),
        format!("{:.2}x", r.speedup),
        f(r.virtual_hours, 2),
        r.evaluated.to_string(),
    ]
}

/// Runs all ablations on B1 at the 1% budget.
pub fn run(opts: &ExperimentOpts) -> gmorph::tensor::Result<()> {
    let reporter = Reporter::new(&opts.out_dir);
    let session = crate::common::session_for(BenchId::B1, opts)?;

    // Pair policy.
    let mut rows = Vec::new();
    for (label, policy) in [
        ("similar-shape (Def. 2)", PairPolicy::SimilarShape),
        ("any-shape", PairPolicy::AnyShape),
    ] {
        let cfg = OptimizationConfig {
            pair_policy: policy,
            ..paper_config(BenchId::B1, opts, 0.01)
        };
        let r = session.optimize(&cfg)?;
        rows.push(summarize(label.to_string(), &r));
    }
    reporter.print_table(
        "Ablation: input-shareable pair restriction",
        &[
            "policy",
            "best latency (ms)",
            "speedup",
            "search time (h)",
            "evaluated",
        ],
        &rows,
    );

    // SA cooling constant.
    let mut rows = Vec::new();
    for alpha in [0.9f32, 0.99, 0.999] {
        let cfg = OptimizationConfig {
            sa_alpha: alpha,
            ..paper_config(BenchId::B1, opts, 0.01)
        };
        let r = session.optimize(&cfg)?;
        rows.push(summarize(format!("alpha = {alpha}"), &r));
    }
    reporter.print_table(
        "Ablation: simulated-annealing cooling constant",
        &[
            "alpha",
            "best latency (ms)",
            "speedup",
            "search time (h)",
            "evaluated",
        ],
        &rows,
    );

    // Mutation operations per pass.
    let mut rows = Vec::new();
    for ops in [1usize, 2, 4] {
        let cfg = OptimizationConfig {
            max_ops_per_pass: ops,
            ..paper_config(BenchId::B1, opts, 0.01)
        };
        let r = session.optimize(&cfg)?;
        rows.push(summarize(format!("{ops} ops/pass"), &r));
    }
    reporter.print_table(
        "Ablation: mutation operations per pass",
        &[
            "ops",
            "best latency (ms)",
            "speedup",
            "search time (h)",
            "evaluated",
        ],
        &rows,
    );

    // Optimization objective: latency vs FLOPs (the paper's config
    // item (1) offers both; the best models can differ because per-op
    // overhead makes latency favour fewer, larger nodes).
    let mut rows = Vec::new();
    for (label, objective) in [("latency", Objective::Latency), ("flops", Objective::Flops)] {
        let cfg = OptimizationConfig {
            objective,
            ..paper_config(BenchId::B1, opts, 0.01)
        };
        let r = session.optimize(&cfg)?;
        let gflops = r.best.paper.flops().unwrap_or(0) as f64 / 1e9;
        rows.push(vec![
            label.to_string(),
            f(r.best.latency_ms, 2),
            format!("{:.2}x", r.speedup),
            f(gflops, 2),
        ]);
    }
    reporter.print_table(
        "Ablation: optimization objective",
        &[
            "objective",
            "best latency (ms)",
            "latency speedup",
            "best GFLOPs",
        ],
        &rows,
    );

    // Weight inheritance: compare fine-tune epochs spent when mutating
    // elites (inheritance on) vs a random policy that always starts from
    // the teachers. The search-time gap isolates the Figure 2 mechanism.
    let mut rows = Vec::new();
    for (label, policy) in [
        ("SA + inheritance", PolicyKind::SimulatedAnnealing),
        ("random (no inheritance)", PolicyKind::RandomSampling),
    ] {
        let cfg = OptimizationConfig {
            policy,
            ..paper_config(BenchId::B1, opts, 0.01)
        };
        let r = session.optimize(&cfg)?;
        let mean_epochs = if r.evaluated > 0 {
            r.trace.iter().map(|t| t.epochs).sum::<usize>() as f64 / r.evaluated as f64
        } else {
            0.0
        };
        rows.push(vec![
            label.to_string(),
            f(r.best.latency_ms, 2),
            format!("{:.2}x", r.speedup),
            f(r.virtual_hours, 2),
            f(mean_epochs, 1),
        ]);
    }
    reporter.print_table(
        "Ablation: elite weight inheritance",
        &[
            "policy",
            "best latency (ms)",
            "speedup",
            "search time (h)",
            "mean epochs/candidate",
        ],
        &rows,
    );
    Ok(())
}
