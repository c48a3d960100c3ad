//! Figure 8: best-found latency vs search time on B1, for the three
//! GMorph variants and the random-sampling baseline, at each accuracy
//! budget (§6.4).
//!
//! Expected shape: all GMorph variants converge to lower latency sooner
//! than random sampling; the +P and +P+R variants reach good candidates
//! with far less search time.

use crate::common::{f, paper_config, ExperimentOpts, Reporter};
use gmorph::prelude::*;

/// Runs the Figure 8 experiment.
pub fn run(opts: &ExperimentOpts) -> gmorph::tensor::Result<()> {
    let reporter = Reporter::new(&opts.out_dir);
    let session = crate::common::session_for(BenchId::B1, opts)?;
    let mut csv = Vec::new();
    let mut summary = Vec::new();
    for &threshold in &[0.0f32, 0.01, 0.02] {
        for variant in ["GMorph", "GMorph w P", "GMorph w P+R", "Random Sampling"] {
            let base = paper_config(BenchId::B1, opts, threshold);
            let cfg = match variant {
                "GMorph" => base,
                "GMorph w P" => base.with_p(),
                "GMorph w P+R" => base.with_p_r(),
                "Random Sampling" => OptimizationConfig {
                    policy: PolicyKind::RandomSampling,
                    ..base
                },
                _ => unreachable!(),
            };
            let result = session.optimize(&cfg)?;
            for rec in &result.trace {
                csv.push(vec![
                    format!("{threshold}"),
                    variant.to_string(),
                    rec.iter.to_string(),
                    f(rec.virtual_hours, 4),
                    f(rec.best_latency_ms, 3),
                ]);
            }
            summary.push(vec![
                format!("{:.0}%", threshold * 100.0),
                variant.to_string(),
                f(result.virtual_hours, 2),
                f(result.best.latency_ms, 2),
                format!("{:.2}x", result.speedup),
            ]);
        }
    }
    reporter.write_csv(
        "fig8.csv",
        &[
            "threshold",
            "variant",
            "iter",
            "virtual_hours",
            "best_latency_ms",
        ],
        &csv,
    )?;
    reporter.print_table(
        "Figure 8 (endpoints): search time vs best latency on B1",
        &[
            "budget",
            "variant",
            "search time (h)",
            "best latency (ms)",
            "speedup",
        ],
        &summary,
    );
    println!("full convergence curves are in results/fig8.csv (virtual_hours vs best_latency_ms)");
    Ok(())
}
