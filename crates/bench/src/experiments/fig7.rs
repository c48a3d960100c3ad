//! Figure 7 + Tables 5/7/8/9: the main evaluation grid.
//!
//! For every benchmark (B1-B7), accuracy budget (0%/1%/2%), and GMorph
//! variant (basic, +P, +P+R), run a full graph-mutation search and report
//! normalized latency, speedups, and search time (virtual hours).

use crate::common::{f, paper_config, ExperimentOpts, Reporter};
use gmorph::prelude::*;

/// One grid cell's outcome.
#[derive(Debug, Clone)]
pub(crate) struct Cell {
    /// Benchmark.
    pub bench: BenchId,
    /// Accuracy budget.
    pub threshold: f32,
    /// Variant name ("GMorph", "GMorph w P", "GMorph w P+R").
    pub variant: &'static str,
    /// Search outcome.
    pub result: SearchResult,
}

/// The three GMorph variants of §6.1.
pub(crate) const VARIANTS: [&str; 3] = ["GMorph", "GMorph w P", "GMorph w P+R"];

fn variant_config(base: OptimizationConfig, variant: &str) -> OptimizationConfig {
    match variant {
        "GMorph" => base,
        "GMorph w P" => base.with_p(),
        "GMorph w P+R" => base.with_p_r(),
        other => panic!("unknown variant {other}"),
    }
}

/// Runs the full grid (shared by Figure 7, Tables 5/7/8/9).
pub(crate) fn run_grid(opts: &ExperimentOpts) -> gmorph::tensor::Result<Vec<Cell>> {
    let mut cells = Vec::new();
    let benches = if opts.quick {
        vec![BenchId::B1, BenchId::B4]
    } else {
        BenchId::all().to_vec()
    };
    for id in benches {
        let session = crate::common::session_for(id, opts)?;
        for &threshold in &[0.0f32, 0.01, 0.02] {
            for variant in VARIANTS {
                let cfg = variant_config(paper_config(id, opts, threshold), variant);
                let result = session.optimize(&cfg)?;
                println!(
                    "  {id} <{:>2.0}% {:14}: {:7.2} ms -> {:7.2} ms ({:.2}x), ST {:6.2} h, {} evaluated / {} filtered / {} early-terminated",
                    threshold * 100.0,
                    variant,
                    result.original_latency_ms,
                    result.best.latency_ms,
                    result.speedup,
                    result.virtual_hours,
                    result.evaluated,
                    result.rule_filtered,
                    result.early_terminated,
                );
                cells.push(Cell {
                    bench: id,
                    threshold,
                    variant,
                    result,
                });
            }
        }
    }
    Ok(cells)
}

/// Emits Figure 7 and Tables 7/8/9 from grid cells.
pub(crate) fn report_latency_tables(
    cells: &[Cell],
    reporter: &Reporter,
) -> gmorph::tensor::Result<()> {
    let mut csv = Vec::new();
    for c in cells {
        csv.push(vec![
            c.bench.to_string(),
            format!("{}", c.threshold),
            c.variant.to_string(),
            f(c.result.original_latency_ms, 2),
            f(c.result.best.latency_ms, 2),
            f(c.result.speedup, 2),
            format!("{:.4}", c.result.best.drop.max(0.0)),
        ]);
    }
    reporter.write_csv(
        "fig7.csv",
        &[
            "bench",
            "threshold",
            "variant",
            "orig_ms",
            "best_ms",
            "speedup",
            "drop",
        ],
        &csv,
    )?;

    for (t_idx, &threshold) in [0.0f32, 0.01, 0.02].iter().enumerate() {
        let mut rows = Vec::new();
        let benches: Vec<BenchId> = {
            let mut seen = Vec::new();
            for c in cells {
                if !seen.contains(&c.bench) {
                    seen.push(c.bench);
                }
            }
            seen
        };
        for id in benches {
            let mut row = vec![id.to_string()];
            let orig = cells
                .iter()
                .find(|c| c.bench == id && c.threshold == threshold)
                .map(|c| c.result.original_latency_ms)
                .unwrap_or(f64::NAN);
            row.push(f(orig, 2));
            for variant in VARIANTS {
                if let Some(c) = cells
                    .iter()
                    .find(|c| c.bench == id && c.threshold == threshold && c.variant == variant)
                {
                    row.push(f(c.result.best.latency_ms, 2));
                    row.push(format!("{:.2}x", c.result.speedup));
                } else {
                    row.push("-".into());
                    row.push("-".into());
                }
            }
            rows.push(row);
        }
        reporter.print_table(
            &format!(
                "Table {} / Figure 7: latency (ms) and speedup, accuracy drop < {:.0}%",
                7 + t_idx,
                threshold * 100.0
            ),
            &[
                "bench",
                "Original",
                "GMorph",
                "(x)",
                "GMorph w P",
                "(x)",
                "GMorph w P+R",
                "(x)",
            ],
            &rows,
        );
    }
    Ok(())
}

/// Emits Table 5 (search time and savings) from grid cells.
pub(crate) fn report_search_time(
    cells: &[Cell],
    reporter: &Reporter,
) -> gmorph::tensor::Result<()> {
    let mut csv = Vec::new();
    let mut rows = Vec::new();
    let benches: Vec<BenchId> = {
        let mut seen = Vec::new();
        for c in cells {
            if !seen.contains(&c.bench) {
                seen.push(c.bench);
            }
        }
        seen
    };
    for id in benches {
        for &threshold in &[0.0f32, 0.01, 0.02] {
            let get = |variant: &str| -> Option<f64> {
                cells
                    .iter()
                    .find(|c| c.bench == id && c.threshold == threshold && c.variant == variant)
                    .map(|c| c.result.virtual_hours)
            };
            let (Some(base), Some(p), Some(pr)) =
                (get("GMorph"), get("GMorph w P"), get("GMorph w P+R"))
            else {
                continue;
            };
            let saving = |x: f64| {
                if base > 0.0 {
                    format!("{:.0}%", (1.0 - x / base) * 100.0)
                } else {
                    "-".into()
                }
            };
            rows.push(vec![
                id.to_string(),
                format!("{:.0}%", threshold * 100.0),
                f(base, 2),
                f(p, 2),
                saving(p),
                f(pr, 2),
                saving(pr),
            ]);
            csv.push(vec![
                id.to_string(),
                format!("{}", threshold),
                f(base, 4),
                f(p, 4),
                f(pr, 4),
            ]);
        }
    }
    reporter.write_csv(
        "table5.csv",
        &["bench", "threshold", "st_gmorph_h", "st_p_h", "st_pr_h"],
        &csv,
    )?;
    reporter.print_table(
        "Table 5: search time (virtual hours) and savings from predictive filtering",
        &[
            "bench", "budget", "GMorph", "w P", "saving", "w P+R", "saving",
        ],
        &rows,
    );
    Ok(())
}

/// Runs Figure 7 (and Tables 5/7/8/9) end to end.
pub fn run(opts: &ExperimentOpts) -> gmorph::tensor::Result<()> {
    let reporter = Reporter::new(&opts.out_dir);
    println!(
        "running the B1-B7 x threshold x variant grid ({} iterations each)...",
        opts.iterations
    );
    let cells = run_grid(opts)?;
    report_latency_tables(&cells, &reporter)?;
    report_search_time(&cells, &reporter)
}
