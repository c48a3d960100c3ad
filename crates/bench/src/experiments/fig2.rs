//! Figure 2: fine-tuning time vs inference speedup, comparing candidates
//! mutated from the original multi-DNNs against candidates mutated from
//! previously satisfying elites (§2.2.2).
//!
//! Expected shape: mutations of elites reach higher speedups and need
//! markedly less fine-tuning time because they inherit well-trained
//! weights.

use crate::common::{f, ExperimentOpts, Reporter};
use gmorph::prelude::*;
use gmorph::search::driver::CandidateStatus;

/// Runs the Figure 2 experiment on B1 (three VGG-13 face models).
pub fn run(opts: &ExperimentOpts) -> gmorph::tensor::Result<()> {
    let reporter = Reporter::new(&opts.out_dir);
    let session = crate::common::session_for(BenchId::B1, opts)?;
    let mut rows = Vec::new();
    let mut summary = Vec::new();
    for &threshold in &[0.01f32, 0.02] {
        let mut cfg = crate::common::paper_config(BenchId::B1, opts, threshold);
        cfg.iterations = opts.scaled(opts.iterations, 20);
        let result = session.optimize(&cfg)?;
        let orig = result.original_latency_ms;

        let mut last_hours = 0.0f64;
        let mut stats: [(f64, f64, usize); 2] = [(0.0, 0.0, 0); 2]; // (Σtime, Σspeedup, n)
        for rec in &result.trace {
            let cost_seconds = (rec.virtual_hours - last_hours) * 3600.0;
            last_hours = rec.virtual_hours;
            if !matches!(
                rec.status,
                CandidateStatus::Evaluated | CandidateStatus::TerminatedEarly
            ) || !rec.met_target
            {
                continue;
            }
            let speedup = orig / rec.candidate_latency_ms;
            rows.push(vec![
                format!("{threshold}"),
                if rec.from_elite {
                    "from_another"
                } else {
                    "from_original"
                }
                .to_string(),
                f(cost_seconds, 1),
                f(speedup, 3),
            ]);
            let slot = usize::from(rec.from_elite);
            stats[slot].0 += cost_seconds;
            stats[slot].1 += speedup;
            stats[slot].2 += 1;
        }
        for (slot, label) in [(0usize, "from original"), (1, "from another (elite)")] {
            let (t, s, n) = stats[slot];
            if n > 0 {
                summary.push(vec![
                    format!("{:.0}%", threshold * 100.0),
                    label.to_string(),
                    n.to_string(),
                    f(t / n as f64, 1),
                    f(s / n as f64, 2),
                ]);
            }
        }
    }
    reporter.write_csv(
        "fig2.csv",
        &["threshold", "base", "finetune_seconds", "speedup"],
        &rows,
    )?;
    reporter.print_table(
        "Figure 2: fine-tune time vs speedup by mutation base (B1)",
        &["budget", "base", "n", "mean finetune (s)", "mean speedup"],
        &summary,
    );
    // The paper's claim: elites give more speedup for less fine-tuning.
    println!(
        "expected: 'from another (elite)' rows show lower mean finetune time and higher mean speedup"
    );
    Ok(())
}
