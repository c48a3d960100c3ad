//! §7 extension: parallel simulated annealing vs sequential search.
//!
//! The paper's discussion proposes "sampling multiple models in parallel
//! or adopting parallel simulated annealing algorithms" to cut search
//! time. The search loop runs `candidates_per_round` candidates per round
//! and fine-tunes each round's survivors concurrently; this experiment
//! compares rounds of 2, 4 and 8 against sequential search (one per round)
//! at equal candidate budgets: search quality should match (staler elite
//! feedback costs little) while wall-clock time scales with available
//! cores (on a single-core machine both take similar wall time — the
//! virtual-clock column shows the cost that parallel hardware would
//! divide).

use crate::common::{f, paper_config, ExperimentOpts, Reporter};
use gmorph::prelude::*;

/// Runs the parallel-search comparison on B1.
pub fn run(opts: &ExperimentOpts) -> gmorph::tensor::Result<()> {
    let reporter = Reporter::new(&opts.out_dir);
    let session = crate::common::session_for(BenchId::B1, opts)?;
    let cfg = paper_config(BenchId::B1, opts, 0.01);

    let mut rows = Vec::new();
    for per_round in [1usize, 2, 4, 8] {
        let t0 = std::time::Instant::now();
        let r = session.optimize(&OptimizationConfig {
            candidates_per_round: per_round,
            ..cfg.clone()
        })?;
        rows.push(vec![
            if per_round == 1 {
                "sequential".to_string()
            } else {
                format!("batched x{per_round}")
            },
            format!("{:.2}x", r.speedup),
            f(r.best.latency_ms, 2),
            f(r.virtual_hours, 1),
            f(t0.elapsed().as_secs_f64(), 2),
        ]);
    }
    reporter.print_table(
        "§7 extension: sequential vs parallel search (B1, 1% budget)",
        &["driver", "speedup", "best (ms)", "virtual h", "wall (s)"],
        &rows,
    );
    reporter.write_csv(
        "batched.csv",
        &["driver", "speedup", "best_ms", "virtual_h", "wall_s"],
        &rows,
    );
    Ok(())
}
