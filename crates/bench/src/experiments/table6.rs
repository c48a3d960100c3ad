//! Table 6 (Appendix A): per-task teacher models, datasets, and scores.
//!
//! Trains (or loads cached) teachers for all benchmarks with *real*
//! training and reports their held-out test scores — the accuracy anchors
//! every drop in the evaluation is measured against.

use crate::common::{ExperimentOpts, Reporter};
use gmorph::prelude::*;

fn dataset_name(id: BenchId) -> &'static str {
    match id {
        BenchId::B1 => "SynthFaces (UTKFace stand-in)",
        BenchId::B2 | BenchId::B3 => "SynthFaces (FER2013+Adience stand-in)",
        BenchId::B4 | BenchId::B5 | BenchId::B6 => "SynthScenes (VOC2007+SOS stand-in)",
        BenchId::B7 => "SynthText (CoLA+SST-2 stand-in)",
    }
}

/// Runs the Table 6 report.
pub fn run(opts: &ExperimentOpts) -> gmorph::tensor::Result<()> {
    let reporter = Reporter::new(&opts.out_dir);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for id in BenchId::all() {
        let session = crate::common::session_for(id, opts)?;
        for (spec, &score) in session.bench.mini.iter().zip(&session.teacher_scores) {
            let metric = match spec.task.metric {
                Metric::Accuracy => "accuracy",
                Metric::MeanAp => "mAP",
                Metric::Matthews => "Matthews",
            };
            rows.push(vec![
                id.to_string(),
                spec.name.clone(),
                dataset_name(id).to_string(),
                metric.to_string(),
                format!("{score:.3}"),
            ]);
            csv.push(vec![
                id.to_string(),
                spec.name.clone(),
                metric.to_string(),
                format!("{score:.4}"),
            ]);
        }
    }
    reporter.write_csv("table6.csv", &["bench", "model", "metric", "score"], &csv)?;
    reporter.print_table(
        "Table 6: teacher models, datasets, and held-out scores",
        &["bench", "model", "dataset", "metric", "score"],
        &rows,
    );
    Ok(())
}
