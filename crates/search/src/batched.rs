//! Batched search: the paper's §7 extension implemented.
//!
//! "Our current implementation samples only one multi-task model at a
//! time, which limits the efficiency of the iterative process. We can
//! accelerate this process by sampling multiple models in parallel or
//! adopting parallel simulated annealing algorithms."
//!
//! [`run_search_batched`] samples `batch_size` candidates per round from
//! the same base distribution as the sequential driver and evaluates them
//! concurrently with [`crate::parallel::evaluate_batch`]. Elites and
//! filters are updated once per round with all results, which is the
//! classic synchronous parallel-SA scheme: slightly staler feedback in
//! exchange for `batch_size`-way parallel fine-tuning.

use crate::checkpoint::{
    config_fingerprint, load_latest_batched, BatchedSnapshot, CheckpointManager,
    CheckpointOptions, LoopState, BATCHED_KIND,
};
use crate::driver::{propose_candidate, Objective, SearchConfig};
use crate::evaluator::EvalMode;
use crate::history::{Elite, History};
use crate::parallel::try_evaluate_batch;
use crate::policy::{PolicyKind, SimulatedAnnealing};
use gmorph_graph::{AbsGraph, CapacityVector, WeightStore};
use gmorph_perf::estimator::{estimate_latency_ms, Backend};
use gmorph_perf::filter::CapacityRuleFilter;
use gmorph_perf::VirtualClock;
use gmorph_tensor::error;
use gmorph_tensor::rng::Rng;
use gmorph_tensor::{Result, TensorError};

/// Outcome of a batched search round for diagnostics.
#[derive(Debug, Clone)]
pub struct BatchRound {
    /// Round number (1-based).
    pub round: usize,
    /// Candidates evaluated this round.
    pub evaluated: usize,
    /// Candidates skipped (duplicate or rule-filtered).
    pub skipped: usize,
    /// Best satisfying latency after this round.
    pub best_latency_ms: f64,
    /// Virtual hours so far.
    pub virtual_hours: f64,
}

/// Result of a batched search.
#[derive(Debug, Clone)]
pub struct BatchedResult {
    /// Best satisfying graph at mini scale.
    pub best_mini: AbsGraph,
    /// Best satisfying graph at paper scale.
    pub best_paper: AbsGraph,
    /// Best latency (ms, Eager, paper scale).
    pub best_latency_ms: f64,
    /// Latency of the original graph.
    pub original_latency_ms: f64,
    /// Speedup over the original.
    pub speedup: f64,
    /// Per-round diagnostics.
    pub rounds: Vec<BatchRound>,
    /// Total virtual search hours.
    pub virtual_hours: f64,
}

/// Runs Algorithm 1 with `batch_size` candidates per round.
///
/// `cfg.iterations` counts *candidates*, so a batched run with
/// `batch_size = 4` performs `iterations / 4` rounds and is directly
/// comparable to a sequential run of the same `iterations`.
pub fn run_search_batched(
    mini: &AbsGraph,
    paper: &AbsGraph,
    teacher_weights: &WeightStore,
    mode: &EvalMode,
    cfg: &SearchConfig,
    batch_size: usize,
) -> Result<BatchedResult> {
    run_search_batched_checkpointed(mini, paper, teacher_weights, mode, cfg, batch_size, None)
}

/// Runs the batched search with optional crash-safe checkpointing.
///
/// Snapshot granularity is one *round* (`batch_size` candidates): the
/// shared state is only mutated between rounds, so a round boundary is
/// the natural consistent cut. Resuming replays the remaining rounds
/// bit-exactly — the parallel evaluator derives each candidate's RNG from
/// the round seed, not from thread scheduling.
pub fn run_search_batched_checkpointed(
    mini: &AbsGraph,
    paper: &AbsGraph,
    teacher_weights: &WeightStore,
    mode: &EvalMode,
    cfg: &SearchConfig,
    batch_size: usize,
    ckpt: Option<&CheckpointOptions>,
) -> Result<BatchedResult> {
    if batch_size == 0 {
        return Err(TensorError::InvalidArgument {
            op: "run_search_batched",
            msg: "batch_size must be nonzero".to_string(),
        });
    }
    let mut rng = Rng::new(cfg.seed ^ 0xBA7C4);
    let mut policy = SimulatedAnnealing::new();
    policy.alpha = cfg.sa_alpha;
    let mut history = History::new(policy.max_elites);
    let mut rule_filter = CapacityRuleFilter::new();
    let mut clock = VirtualClock::with_throughput(cfg.virtual_samples, cfg.virtual_throughput);
    let original_latency_ms = estimate_latency_ms(paper, Backend::Eager)?;
    let _run_span = gmorph_telemetry::span!(
        "search.run_batched",
        iterations = cfg.iterations,
        batch_size = batch_size,
        seed = cfg.seed
    );
    gmorph_telemetry::meta!(
        "search.run_meta",
        iterations = cfg.iterations,
        seed = cfg.seed,
        rule_filter = cfg.rule_filter,
        early_termination = cfg.finetune.early_termination,
        sa_alpha = cfg.sa_alpha,
        virtual_samples = cfg.virtual_samples,
        virtual_throughput = clock.throughput(),
        original_latency_ms = original_latency_ms,
        nodes = mini.len()
    );

    let mut best_mini = mini.clone();
    let mut best_paper = paper.clone();
    let mut best_latency = original_latency_ms;
    let mut rounds: Vec<BatchRound> = Vec::new();
    let n_rounds = cfg.iterations.div_ceil(batch_size);

    // Fold the batch size into the fingerprint: the same config at a
    // different batch size is a different (non-resumable) run.
    let fingerprint = config_fingerprint(cfg, mini, paper)
        ^ (batch_size as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut start_round = 1usize;
    if let Some(opts) = ckpt {
        if opts.resume {
            if let Some(snap) = load_latest_batched(&opts.dir, fingerprint)? {
                rng = Rng::restore(&snap.state.rng);
                policy.restore_last_drop(snap.state.last_drop);
                history =
                    History::from_parts(snap.state.evaluated, snap.state.elites, policy.max_elites);
                rule_filter = CapacityRuleFilter::from_parts(
                    snap.state.failures,
                    snap.state.quarantined,
                );
                clock.restore_seconds(snap.state.clock_seconds);
                best_mini = snap.best_mini;
                best_paper = snap.best_paper;
                best_latency = snap.best_latency;
                rounds = snap
                    .rounds
                    .into_iter()
                    .map(|(round, evaluated, skipped, best_latency_ms, virtual_hours)| BatchRound {
                        round,
                        evaluated,
                        skipped,
                        best_latency_ms,
                        virtual_hours,
                    })
                    .collect();
                start_round = snap.state.next_iter;
                gmorph_telemetry::point!(
                    "search.resumed",
                    next_round = start_round,
                    elites = history.elite_count(),
                    virtual_hours = clock.hours()
                );
            }
        }
    }
    let mut manager = ckpt.map(|opts| CheckpointManager::new(opts, BATCHED_KIND));

    for round in start_round..=n_rounds {
        // Sample a batch of candidates from the current policy state.
        let mut batch: Vec<(AbsGraph, AbsGraph, WeightStore)> = Vec::new();
        let mut skipped = 0usize;
        while batch.len() < batch_size {
            let use_elite = match cfg.policy {
                PolicyKind::SimulatedAnnealing => policy.sample_from_elites(
                    round * batch_size,
                    history.elite_count(),
                    &mut rng,
                ),
                PolicyKind::RandomSampling => false,
            };
            let (base_mini, base_paper, base_weights) =
                if use_elite && history.elite_count() > 0 {
                    let e = &history.elites()[rng.below(history.elite_count())];
                    (e.mini.clone(), e.paper.clone(), e.weights.clone())
                } else {
                    (mini.clone(), paper.clone(), teacher_weights.clone())
                };
            let Some((cand_mini, cand_paper)) = propose_candidate(
                &base_mini,
                &base_paper,
                cfg.pair_policy,
                cfg.max_ops_per_pass,
                &mut rng,
            )?
            else {
                skipped += 1;
                if skipped > batch_size * 4 {
                    break;
                }
                continue;
            };
            // Consult the history before spending any evaluation effort
            // (the whole batch is fine-tuned concurrently below).
            let signature = cand_mini.signature();
            if history.seen(&signature) {
                gmorph_telemetry::counter!("search.dedup_hit");
                skipped += 1;
                if skipped > batch_size * 4 {
                    break;
                }
                continue;
            }
            history.record_evaluated(signature.clone());
            let cv = CapacityVector::of(&cand_mini)?;
            // Quarantine is always consulted: its entries record
            // *evaluation failures*, independent of the `rule_filter`
            // accuracy heuristic.
            if rule_filter.quarantine_verdict(&signature, &cv).is_some() {
                skipped += 1;
                clock.charge_overhead(2.0);
                gmorph_telemetry::counter!("filter.rule.quarantined");
                if skipped > batch_size * 4 {
                    break;
                }
                continue;
            }
            if cfg.rule_filter && rule_filter.should_skip(&cv) {
                skipped += 1;
                clock.charge_overhead(2.0);
                continue;
            }
            batch.push((cand_mini, cand_paper, base_weights));
        }
        if batch.is_empty() {
            break;
        }

        // Evaluate the whole batch concurrently.
        let inputs: Vec<(AbsGraph, WeightStore)> = batch
            .iter()
            .map(|(m, _, w)| (m.clone(), w.clone()))
            .collect();
        // Fault injection (GMORPH_FAULT) maps its candidate iteration
        // onto the round holding it; the whole round's batch is poisoned,
        // which is the coarsest containment unit here anyway.
        let mut round_cfg = cfg.finetune.clone();
        if let Some(fault) = cfg.supervisor.fault {
            let lo = (round - 1) * batch_size + 1;
            if fault.at_iter >= lo && fault.at_iter <= round * batch_size {
                round_cfg.inject = Some(fault.kind);
            }
        }
        let evals = try_evaluate_batch(
            &inputs,
            mode,
            &round_cfg,
            cfg.seed ^ (round as u64) << 16,
        );

        // Fold results back into the shared state, sequentially. A failed
        // candidate is contained: classified, quarantined, and scored as
        // a rejection — the rest of the round proceeds.
        for ((cand_mini, cand_paper, _), outcome) in batch.into_iter().zip(evals) {
            let ev = match outcome {
                Ok(ev) => ev,
                Err(err) => {
                    let kind = error::classify(&err);
                    clock.charge_overhead(2.0);
                    policy.observe_drop(1.0);
                    rule_filter
                        .record_quarantine(cand_mini.signature(), CapacityVector::of(&cand_mini)?);
                    gmorph_telemetry::counter!("search.failed");
                    gmorph_telemetry::counter!("eval.quarantine");
                    gmorph_telemetry::point!(
                        "eval.quarantine",
                        round = round,
                        kind = kind.as_str(),
                        signature = cand_mini.signature().as_str(),
                        error = err.to_string().as_str()
                    );
                    continue;
                }
            };
            let paper_flops = cand_paper.flops()?;
            clock.charge_finetune(paper_flops, ev.result.epochs_run);
            clock.charge_eval(paper_flops * ev.result.records.len().max(1) as u64);
            policy.observe_drop(ev.result.final_drop.max(0.0));
            let latency = estimate_latency_ms(&cand_paper, Backend::Eager)?;
            let objective = match cfg.objective {
                Objective::Latency => latency,
                Objective::Flops => paper_flops as f64,
            };
            let best_objective = match cfg.objective {
                Objective::Latency => best_latency,
                Objective::Flops => best_paper.flops()? as f64,
            };
            if ev.result.met_target {
                if objective < best_objective {
                    best_mini = cand_mini.clone();
                    best_paper = cand_paper.clone();
                    best_latency = latency;
                }
                history.add_elite(Elite::new(
                    cand_mini,
                    cand_paper,
                    ev.weights,
                    ev.result.final_drop,
                    latency,
                    ev.result.final_scores,
                ));
            } else if cfg.rule_filter {
                rule_filter.record_failure(CapacityVector::of(&cand_mini)?);
            }
        }
        rounds.push(BatchRound {
            round,
            evaluated: inputs.len(),
            skipped,
            best_latency_ms: best_latency,
            virtual_hours: clock.hours(),
        });

        // Round boundary: the only point where shared state is consistent.
        if let Some(mgr) = manager.as_mut() {
            let snapshot = BatchedSnapshot {
                state: LoopState {
                    fingerprint,
                    next_iter: round + 1,
                    rng: rng.state(),
                    last_drop: policy.last_drop(),
                    clock_seconds: clock.seconds(),
                    wall_offset: 0.0,
                    failures: rule_filter.failures().to_vec(),
                    quarantined: rule_filter.quarantined().to_vec(),
                    evaluated: history
                        .evaluated_signatures()
                        .into_iter()
                        .map(str::to_string)
                        .collect(),
                    elites: history.elites().to_vec(),
                },
                best_mini: best_mini.clone(),
                best_paper: best_paper.clone(),
                best_latency,
                rounds: rounds
                    .iter()
                    .map(|r| (r.round, r.evaluated, r.skipped, r.best_latency_ms, r.virtual_hours))
                    .collect(),
            };
            mgr.tick(round, snapshot.encode()?)?;
        }
        if let Some(opts) = ckpt {
            opts.maybe_crash(round);
        }
    }

    Ok(BatchedResult {
        speedup: original_latency_ms / best_latency,
        best_mini,
        best_paper,
        best_latency_ms: best_latency,
        original_latency_ms,
        rounds,
        virtual_hours: clock.hours(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::SurrogateContext;
    use gmorph_data::TaskSpec;
    use gmorph_graph::parser::parse_specs;
    use gmorph_models::families::{vgg, VggDepth, VisionScale};
    use gmorph_perf::accuracy::{FinetuneConfig, SurrogateParams};

    fn setup() -> (AbsGraph, AbsGraph, WeightStore, EvalMode) {
        let t0 = TaskSpec::classification("a", 2);
        let t1 = TaskSpec::classification("b", 3);
        let mini = parse_specs(&[
            vgg(VggDepth::Vgg13, VisionScale::mini(), &t0).unwrap(),
            vgg(VggDepth::Vgg13, VisionScale::mini(), &t1).unwrap(),
        ])
        .unwrap();
        let paper = parse_specs(&[
            vgg(VggDepth::Vgg13, VisionScale::paper(), &t0).unwrap(),
            vgg(VggDepth::Vgg13, VisionScale::paper(), &t1).unwrap(),
        ])
        .unwrap();
        let mut weights = WeightStore::new();
        for (_, n) in mini.iter() {
            weights.insert(n.key(), n.spec.clone(), Vec::new());
        }
        let mode = EvalMode::Surrogate(SurrogateContext {
            orig_capacity: CapacityVector::of(&mini).unwrap(),
            params: SurrogateParams::default(),
            teacher_scores: vec![0.85, 0.80],
        });
        (mini, paper, weights, mode)
    }

    fn cfg(iterations: usize) -> SearchConfig {
        SearchConfig {
            iterations,
            finetune: FinetuneConfig {
                max_epochs: 20,
                eval_every: 2,
                target_drop: 0.02,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn batched_search_finds_satisfying_speedup() {
        let (mini, paper, weights, mode) = setup();
        let r = run_search_batched(&mini, &paper, &weights, &mode, &cfg(32), 4).unwrap();
        assert!(r.speedup > 1.0, "speedup {}", r.speedup);
        assert!(!r.rounds.is_empty());
        r.best_mini.validate().unwrap();
        r.best_paper.validate().unwrap();
        // Candidate count respects the budget (rounds * batch).
        let evaluated: usize = r.rounds.iter().map(|x| x.evaluated).sum();
        assert!(evaluated <= 32);
    }

    #[test]
    fn batched_matches_sequential_quality_roughly() {
        let (mini, paper, weights, mode) = setup();
        let seq = crate::driver::run_search(&mini, &paper, &weights, &mode, &cfg(32)).unwrap();
        let bat = run_search_batched(&mini, &paper, &weights, &mode, &cfg(32), 4).unwrap();
        // Same candidate budget: quality within a factor.
        assert!(bat.speedup > seq.speedup * 0.5, "{} vs {}", bat.speedup, seq.speedup);
    }

    #[test]
    fn best_latency_monotone_across_rounds() {
        let (mini, paper, weights, mode) = setup();
        let r = run_search_batched(&mini, &paper, &weights, &mode, &cfg(24), 3).unwrap();
        for w in r.rounds.windows(2) {
            assert!(w[1].best_latency_ms <= w[0].best_latency_ms + 1e-9);
            assert!(w[1].virtual_hours >= w[0].virtual_hours);
        }
    }

    #[test]
    fn zero_batch_rejected() {
        let (mini, paper, weights, mode) = setup();
        assert!(run_search_batched(&mini, &paper, &weights, &mode, &cfg(8), 0).is_err());
    }

    #[test]
    fn rule_filter_works_in_batched_mode() {
        let (mini, paper, weights, mode) = setup();
        let mut c = cfg(48);
        c.finetune.target_drop = 0.0;
        c.rule_filter = true;
        let r = run_search_batched(&mini, &paper, &weights, &mode, &c, 4).unwrap();
        let skipped: usize = r.rounds.iter().map(|x| x.skipped).sum();
        assert!(skipped > 0);
    }
}
