//! §7 extension: parallel simulated annealing vs sequential search.
//!
//! The paper's discussion proposes "sampling multiple models in parallel
//! or adopting parallel simulated annealing algorithms" to cut search
//! time. The search loop runs `candidates_per_round` candidates per round
//! and fine-tunes each round's survivors concurrently; this experiment
//! runs rounds of 1 (sequential search), 2, 4 and 8 on B1 at a 1% budget,
//! one seed and an equal candidate budget. Per round size it reports the
//! best speedup and latency found, the virtual search hours and the
//! wall-clock seconds.
//!
//! It measures search quality at an equal candidate budget, not a
//! parallel gain. In `results/batched.csv` larger rounds find worse
//! models (K = 1 3.32×, K = 4 2.39×); one seed cannot tell a real loss
//! from noise, and no cause is established. The virtual clock charges a
//! round's candidates one after another, so K > 1 gets no credit for
//! parallel hardware, and surrogate wall time is too short to show one. ROADMAP item 7 holds the
//! open work: many seeds, a max-per-round clock, and a fix for the loss.

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
    )?;
    Ok(())
}
