//! Figure 3: impact of weight initialization on the accuracy drop of two
//! fixed multi-task architectures (§2.2.3).
//!
//! The paper's point: candidates with identical architectures but
//! different weight initialization land anywhere from -1% (improvement)
//! to +3% drop — which is why accuracy cannot be predicted from the
//! architecture alone and fine-tuning (or a noisy surrogate) is required.

use crate::common::{ExperimentOpts, Reporter};
use gmorph::graph::pairs::{pairs_with, PairPolicy};
use gmorph::graph::{mutation, AbsGraph};
use gmorph::perf::accuracy::FinetuneConfig;
use gmorph::prelude::*;

/// Picks two distinct cross-task mutated architectures from B1's graph.
fn two_architectures(session: &Session) -> gmorph::tensor::Result<Vec<AbsGraph>> {
    let pairs = pairs_with(&session.mini_graph, PairPolicy::SimilarShape)?;
    let mut out = Vec::new();
    for &(n, m) in &pairs {
        let host = session.mini_graph.node(n)?;
        let guest = session.mini_graph.node(m)?;
        if host.task_id == guest.task_id {
            continue;
        }
        // Mid-depth sharing: interesting but not catastrophic.
        if host.op_id < 3 || host.op_id > 7 {
            continue;
        }
        let (g, ops) = mutation::mutation_pass(&session.mini_graph, &[(n, m)])?;
        if ops.is_empty() {
            continue;
        }
        if out
            .iter()
            .all(|existing: &AbsGraph| existing.signature() != g.signature())
        {
            out.push(g);
        }
        if out.len() == 2 {
            break;
        }
    }
    Ok(out)
}

/// Runs the Figure 3 experiment.
pub fn run(opts: &ExperimentOpts) -> gmorph::tensor::Result<()> {
    let reporter = Reporter::new(&opts.out_dir);
    let session = crate::common::session_for(BenchId::B1, opts)?;
    let archs = two_architectures(&session)?;
    if archs.len() < 2 {
        println!("could not find two distinct architectures; aborting fig3");
        return Ok(());
    }
    let mode = session.eval_mode(opts.mode)?;
    let n_inits = opts.scaled(120, 16);
    let cfg = FinetuneConfig {
        max_epochs: 35,
        eval_every: 5,
        target_drop: -1.0, // Converge fully; we want the final drop.
        lr: 1e-3,
        batch: 64,
        ..Default::default()
    };

    let mut rows = Vec::new();
    let mut summaries = Vec::new();
    for (ai, arch) in archs.iter().enumerate() {
        let mut drops = Vec::with_capacity(n_inits);
        for init in 0..n_inits {
            let mut rng = Rng::new(opts.seed ^ (init as u64) << 8 ^ ai as u64);
            let ev = mode.evaluate(
                arch,
                &session.weights,
                &cfg,
                &mut rng,
                (opts.seed << 16) ^ (ai as u64) << 12 ^ init as u64,
            )?;
            drops.push(ev.result.final_drop);
            rows.push(vec![
                format!("arch{}", ai + 1),
                init.to_string(),
                format!("{:.5}", ev.result.final_drop),
            ]);
        }
        drops.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let min = *drops.first().unwrap();
        let max = *drops.last().unwrap();
        let mean = drops.iter().sum::<f32>() / drops.len() as f32;
        let improved = drops.iter().filter(|&&d| d < 0.0).count();
        summaries.push(vec![
            format!("arch{}", ai + 1),
            n_inits.to_string(),
            format!("{:.2}%", min * 100.0),
            format!("{:.2}%", mean * 100.0),
            format!("{:.2}%", max * 100.0),
            improved.to_string(),
        ]);
        // Histogram over 0.5% buckets.
        let mut hist = std::collections::BTreeMap::new();
        for &d in &drops {
            let bucket = (d * 200.0).floor() as i64; // 0.5% buckets.
            *hist.entry(bucket).or_insert(0usize) += 1;
        }
        println!("\narch{} drop histogram (0.5% buckets):", ai + 1);
        for (bucket, count) in hist {
            println!(
                "  [{:5.2}%, {:5.2}%): {}",
                bucket as f32 / 2.0,
                bucket as f32 / 2.0 + 0.5,
                "#".repeat(count.min(80))
            );
        }
    }
    reporter.write_csv("fig3.csv", &["arch", "init", "drop"], &rows)?;
    reporter.print_table(
        "Figure 3: accuracy drop across weight initializations",
        &[
            "arch",
            "inits",
            "min drop",
            "mean drop",
            "max drop",
            "improved (<0)",
        ],
        &summaries,
    );
    Ok(())
}
