//! Figure 1: accuracy drop vs inference speedup for randomly sampled
//! feature-sharing configurations, split by input-shape similarity.
//!
//! Reproduces the paper's motivating study (§2.1): candidates whose shared
//! pairs have *similar* input shapes (≥1 equal dimension) should dominate
//! the Pareto frontier over pairs with completely different shapes.

use crate::common::{f, pct, ExperimentOpts, Reporter};
use gmorph::graph::pairs::PairPolicy;
use gmorph::perf::accuracy::FinetuneConfig;
use gmorph::perf::estimator::{estimate_latency_ms, Backend};
use gmorph::prelude::*;
use gmorph::search::driver::propose_candidate;

/// One sampled multi-task model.
#[derive(Debug, Clone)]
pub(crate) struct Sample {
    /// Which sub-figure ("3xVGG16" or "ResNet18+34").
    pub setting: &'static str,
    /// "similar" or "dissimilar" pair class.
    pub shape_class: &'static str,
    /// Inference speedup over the original multi-DNNs.
    pub speedup: f64,
    /// Accuracy drop after fine-tuning.
    pub drop: f32,
}

/// Samples and evaluates candidates under one pair policy.
fn sample_class(
    session: &Session,
    policy: PairPolicy,
    class: &'static str,
    setting: &'static str,
    n: usize,
    opts: &ExperimentOpts,
) -> gmorph::tensor::Result<Vec<Sample>> {
    let mode = session.eval_mode(opts.mode)?;
    let orig_latency = estimate_latency_ms(&session.paper_graph, Backend::Eager)?;
    let n_tasks = session.bench.mini.len();
    // Mirror the study setup: one sharing action per extra model ("if
    // there are three DNNs, we perform the action twice").
    let ops = (n_tasks - 1).max(1);
    // Fine-tune to convergence: the study measures final drops, so no
    // early stop on a target.
    let cfg = FinetuneConfig {
        max_epochs: 35,
        eval_every: 5,
        target_drop: -1.0,
        lr: 1e-3,
        batch: 64,
        ..Default::default()
    };
    let mut rng = Rng::new(opts.seed ^ 0xF161 ^ class.len() as u64);
    let mut out = Vec::with_capacity(n);
    let mut attempts = 0usize;
    while out.len() < n && attempts < n * 6 {
        attempts += 1;
        let Some((mini, paper)) = propose_candidate(
            &session.mini_graph,
            &session.paper_graph,
            policy,
            ops,
            &mut rng,
        )?
        else {
            break;
        };
        let latency = estimate_latency_ms(&paper, Backend::Eager)?;
        let ev = mode.evaluate(
            &mini,
            &session.weights,
            &cfg,
            &mut rng,
            opts.seed ^ attempts as u64,
        )?;
        out.push(Sample {
            setting,
            shape_class: class,
            speedup: orig_latency / latency,
            drop: ev.result.final_drop.max(0.0),
        });
    }
    Ok(out)
}

/// Runs the Figure 1 experiment.
pub fn run(opts: &ExperimentOpts) -> gmorph::tensor::Result<()> {
    let reporter = Reporter::new(&opts.out_dir);
    let n = opts.scaled(200, 16);
    let mut samples = Vec::new();
    for (id, setting) in [(BenchId::B2, "3xVGG16"), (BenchId::B4, "ResNet18+34")] {
        let session = crate::common::session_for(id, opts)?;
        samples.extend(sample_class(
            &session,
            PairPolicy::SimilarShape,
            "similar",
            setting,
            n,
            opts,
        )?);
        samples.extend(sample_class(
            &session,
            PairPolicy::DissimilarShape,
            "dissimilar",
            setting,
            n,
            opts,
        )?);
    }

    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            vec![
                s.setting.to_string(),
                s.shape_class.to_string(),
                f(s.speedup, 4),
                format!("{:.5}", s.drop),
            ]
        })
        .collect();
    reporter.write_csv(
        "fig1.csv",
        &["setting", "shape_class", "speedup", "drop"],
        &rows,
    )?;

    // Summary: per setting and class, the mean drop in speedup buckets,
    // and the Pareto check the paper's insight rests on.
    for setting in ["3xVGG16", "ResNet18+34"] {
        let mut rows = Vec::new();
        for class in ["similar", "dissimilar"] {
            let subset: Vec<&Sample> = samples
                .iter()
                .filter(|s| s.setting == setting && s.shape_class == class)
                .collect();
            if subset.is_empty() {
                continue;
            }
            let mean_speedup = subset.iter().map(|s| s.speedup).sum::<f64>() / subset.len() as f64;
            let mean_drop = subset.iter().map(|s| s.drop).sum::<f32>() / subset.len() as f32;
            let max_drop = subset.iter().map(|s| s.drop).fold(0.0f32, f32::max);
            let lossless = subset.iter().filter(|s| s.drop <= 0.005).count();
            rows.push(vec![
                class.to_string(),
                subset.len().to_string(),
                f(mean_speedup, 2),
                pct(mean_drop),
                pct(max_drop),
                format!("{lossless}/{}", subset.len()),
            ]);
        }
        reporter.print_table(
            &format!("Figure 1 ({setting}): sharing by input-shape similarity"),
            &[
                "class",
                "samples",
                "mean speedup",
                "mean drop",
                "max drop",
                "≈lossless",
            ],
            &rows,
        );
    }

    // Pareto dominance check: for matched speedup levels, similar-shape
    // sharing must incur lower drops on average.
    for setting in ["3xVGG16", "ResNet18+34"] {
        let stat = |class: &str| -> (f32, usize) {
            let subset: Vec<&Sample> = samples
                .iter()
                .filter(|s| s.setting == setting && s.shape_class == class && s.speedup > 1.05)
                .collect();
            if subset.is_empty() {
                return (0.0, 0);
            }
            (
                subset.iter().map(|s| s.drop).sum::<f32>() / subset.len() as f32,
                subset.len(),
            )
        };
        let (sim, ns) = stat("similar");
        let (dis, nd) = stat("dissimilar");
        if ns > 0 && nd > 0 {
            println!(
                "{setting}: mean drop at >1.05x — similar {:.2}% (n={ns}) vs dissimilar {:.2}% (n={nd}) {}",
                sim * 100.0,
                dis * 100.0,
                if sim < dis { "✓ similar dominates" } else { "✗ UNEXPECTED" }
            );
        }
    }
    Ok(())
}
