//! Search phases: real-mode searches (distillation fine-tuning per
//! candidate) and checkpointed surrogate-mode searches, each checked for
//! correctness.

use crate::serve::outputs_ok;
use crate::spans::Tracer;
use gmorph::graph::persist::encode_model_bytes;
use gmorph::nn::Mode;
use gmorph::prelude::*;
use gmorph::search::checkpoint::{SearchSnapshot, SEARCH_KIND};
use gmorph::tensor::checkpoint::{load, snapshot_files};
use gmorph::tensor::Result;
use gmorph_bench::common::ExperimentOpts;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The accuracy-drop budget of every search.
pub const BUDGET: f32 = 0.01;

/// One finished search and the checks run on it.
#[derive(Debug)]
pub struct SearchRun {
    /// The search's result.
    pub result: SearchResult,
    /// Wall seconds of `Session::optimize`.
    pub wall_s: f64,
    /// Checks run on this search.
    pub checks: usize,
    /// Checks that failed (each named in `failures`).
    pub failures: Vec<String>,
}

impl SearchRun {
    fn check(&mut self, ok: bool, what: &str) {
        self.checks += 1;
        if !ok {
            self.failures.push(what.to_string());
        }
    }
}

/// The experiment harness's §6.1 configuration with the 1% budget.
pub fn paper_config(
    bench: BenchId,
    mode: AccuracyMode,
    iterations: usize,
    seed: u64,
) -> OptimizationConfig {
    let opts = ExperimentOpts {
        seed,
        iterations,
        mode,
        ..Default::default()
    };
    gmorph_bench::common::paper_config(bench, &opts, BUDGET)
}

/// True when two results agree in every field but wall-clock time.
pub fn same_result(a: &SearchResult, b: &SearchResult) -> bool {
    let bits = |x: f64, y: f64| x.to_bits() == y.to_bits();
    let model_bytes = |r: &SearchResult| encode_model_bytes(&r.best.mini, &r.best.weights).ok();
    a.best.mini.signature() == b.best.mini.signature()
        && a.best.paper.signature() == b.best.paper.signature()
        && bits(a.best.latency_ms, b.best.latency_ms)
        && a.best.drop.to_bits() == b.best.drop.to_bits()
        && a.best.scores.len() == b.best.scores.len()
        && a.best
            .scores
            .iter()
            .zip(&b.best.scores)
            .all(|(x, y)| x.to_bits() == y.to_bits())
        && model_bytes(a).is_some()
        && model_bytes(a) == model_bytes(b)
        && bits(a.original_latency_ms, b.original_latency_ms)
        && bits(a.speedup, b.speedup)
        && bits(a.virtual_hours, b.virtual_hours)
        && (a.evaluated, a.rule_filtered, a.early_terminated)
            == (b.evaluated, b.rule_filtered, b.early_terminated)
        && (a.duplicates, a.failed, a.quarantined) == (b.duplicates, b.failed, b.quarantined)
        && a.trace.len() == b.trace.len()
        && a.trace.iter().zip(&b.trace).all(|(x, y)| {
            x.iter == y.iter
                && x.status == y.status
                && x.from_elite == y.from_elite
                && (x.drop.to_bits() == y.drop.to_bits() || (x.drop.is_nan() && y.drop.is_nan()))
                && x.met_target == y.met_target
                && bits(x.candidate_latency_ms, y.candidate_latency_ms)
                && bits(x.best_latency_ms, y.best_latency_ms)
                && x.epochs == y.epochs
                && bits(x.virtual_hours, y.virtual_hours)
        })
}

/// Runs one search and times it.
pub fn run(session: &Session, cfg: &OptimizationConfig, tr: &Tracer, id: u64) -> Result<SearchRun> {
    let t0 = Instant::now();
    let result = tr.time("core.optimize", id, || session.optimize(cfg))?;
    Ok(SearchRun {
        wall_s: t0.elapsed().as_secs_f64(),
        result,
        checks: 0,
        failures: Vec::new(),
    })
}

/// Real-mode checks: the best model is within budget, its graph
/// validates, and it materializes and answers a forward pass.
pub fn check_real(session: &Session, run: &mut SearchRun) {
    let best = &run.result.best;
    let within_budget = best.drop <= BUDGET;
    let valid = best.mini.validate().is_ok();
    let x = session.split.test.inputs.select_rows(&[0]);
    let forward_ok = match (session.materialize(&best.mini, &best.weights), x) {
        (Ok(mut tree), Ok(x)) => tree
            .forward(&x, Mode::Eval)
            .is_ok_and(|o| outputs_ok(&tree, &o, 1)),
        _ => false,
    };
    run.check(within_budget, "best drop exceeds the budget");
    run.check(valid, "best graph fails validate()");
    run.check(forward_ok, "best model does not materialize and run");
}

/// The newest snapshot file in a checkpoint directory.
pub fn newest_snapshot(dir: &Path) -> Option<std::path::PathBuf> {
    snapshot_files(dir, SEARCH_KIND)
        .into_iter()
        .next()
        .map(|(_, p)| p)
}

/// Decodes the newest snapshot; errors (never panics) on corrupt bytes.
pub fn decode_newest(dir: &Path) -> Result<SearchSnapshot> {
    let path = newest_snapshot(dir).ok_or_else(|| {
        gmorph::tensor::TensorError::Io(format!("no snapshot in {}", dir.display()))
    })?;
    SearchSnapshot::decode(&load(&path, SEARCH_KIND)?)
}

/// Copies the older of the two snapshots the keep-2 rotation leaves in
/// `dir` into a fresh directory beside it; returns that directory and the
/// iteration the snapshot resumes at.
fn older_snapshot(dir: &Path) -> Option<(PathBuf, usize)> {
    let (_, older) = snapshot_files(dir, SEARCH_KIND).into_iter().nth(1)?;
    let next_iter = SearchSnapshot::decode(&load(&older, SEARCH_KIND).ok()?)
        .ok()?
        .state
        .next_iter;
    let replay = PathBuf::from(format!("{}-replay", dir.display()));
    let _ = std::fs::remove_dir_all(&replay);
    std::fs::create_dir_all(&replay).ok()?;
    std::fs::copy(&older, replay.join(older.file_name()?)).ok()?;
    Some((replay, next_iter))
}

/// Checkpointed-search checks: the final snapshot decodes and describes
/// the finished search; resuming from it, and replaying the last
/// checkpoint interval from the older snapshot, both reproduce the result
/// in every field but wall-clock time.
pub fn check_ckpt(
    session: &Session,
    cfg: &OptimizationConfig,
    run: &mut SearchRun,
    tr: &Tracer,
    id: u64,
) -> Result<()> {
    let dir = cfg.checkpoint_dir.clone().unwrap_or_default();
    let snap = tr.time("search.snapshot_decode", id, || decode_newest(&dir));
    let snap_ok = snap.is_ok_and(|s| {
        s.state.next_iter == cfg.iterations + 1
            && s.evaluated_count == run.result.evaluated
            && s.trace.len() == run.result.trace.len()
    });
    run.check(
        snap_ok,
        "final snapshot does not decode to the finished search",
    );
    // Copied before resuming, which may rewrite the directory.
    let older = older_snapshot(&dir).filter(|(_, next)| *next <= cfg.iterations);
    let resume = OptimizationConfig {
        resume: true,
        ..cfg.clone()
    };
    let resumed = tr.time("search.resume", id, || session.optimize(&resume));
    let same = resumed.is_ok_and(|r| same_result(&run.result, &r));
    run.check(same, "resumed search differs from the uninterrupted one");

    // The final snapshot replays nothing; the older one replays the last
    // checkpoint interval.
    let replayed = older.as_ref().is_some_and(|(replay, _)| {
        let cfg = OptimizationConfig {
            checkpoint_dir: Some(replay.clone()),
            ..resume.clone()
        };
        tr.time("search.replay", id, || session.optimize(&cfg))
            .is_ok_and(|r| same_result(&run.result, &r))
    });
    run.check(
        replayed,
        "search replayed from the older snapshot differs from the uninterrupted one",
    );
    if let Some((replay, _)) = older {
        let _ = std::fs::remove_dir_all(replay);
    }
    Ok(())
}
