//! Algorithm 1: the graph mutation optimization loop.
//!
//! Each iteration (1) samples a base abstract graph — the original
//! multi-DNN graph or an elite — under the sampling policy, (2) samples
//! input-shareable node pairs and applies a graph mutation pass, (3)
//! generates and evaluates the candidate (with predictive filtering), and
//! (4) updates the elites and the best model when the accuracy target is
//! met.
//!
//! The driver tracks every candidate at two scales simultaneously: the
//! *mini* graph (trainable) and the *paper* graph (analytic estimation),
//! replaying the same mutation operations on both. Node ids are aligned by
//! construction (both graphs are parsed from parallel spec lists and
//! mutated identically), which the driver asserts every iteration.

use crate::checkpoint::{
    config_fingerprint, load_latest_search, CheckpointManager, CheckpointOptions, LoopStateRef,
    SearchSnapshotRef, SEARCH_KIND,
};
use crate::evaluator::EvalMode;
use crate::history::{Elite, History};
use crate::policy::{PolicyKind, SimulatedAnnealing};
use crate::supervisor::{self, FailureReport, SupervisorConfig};
use gmorph_graph::pairs::{pairs_with, PairPolicy};
use gmorph_graph::{mutation, AbsGraph, CapacityVector, NodeId, WeightStore};
use gmorph_perf::accuracy::FinetuneConfig;
use gmorph_perf::estimator::{estimate_latency_ms, Backend};
use gmorph_perf::filter::CapacityRuleFilter;
use gmorph_perf::VirtualClock;
use gmorph_tensor::rng::Rng;
use gmorph_tensor::{Result, TensorError};
use std::time::Instant;

/// The metric the search minimizes (the paper's config item (1)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Estimated paper-scale latency (ms, Eager backend).
    Latency,
    /// Total paper-scale FLOPs.
    Flops,
}

/// Search configuration (the paper's "configuration file", §3).
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Total optimization rounds `N` (paper: 200).
    pub iterations: usize,
    /// Metric to optimize.
    pub objective: Objective,
    /// Sampling policy.
    pub policy: PolicyKind,
    /// Maximum mutation operations per pass.
    pub max_ops_per_pass: usize,
    /// Simulated-annealing cooling constant α (paper: 0.99).
    pub sa_alpha: f32,
    /// Pair-enumeration policy (similar shapes by default).
    pub pair_policy: PairPolicy,
    /// Enables rule-based filtering (the "+R" variants).
    pub rule_filter: bool,
    /// Fine-tuning configuration; `target_drop` is the accuracy threshold
    /// and `early_termination` enables the "+P" variant.
    pub finetune: FinetuneConfig,
    /// Virtual-clock sample count (paper-scale representative inputs).
    pub virtual_samples: u64,
    /// Virtual-clock effective training throughput in FLOP/s (the paper's
    /// RTX-8000 assumption by default).
    pub virtual_throughput: f64,
    /// RNG seed.
    pub seed: u64,
    /// Candidate-evaluation supervision: deadlines, retry/backoff, fault
    /// injection (see [`crate::supervisor`]). The default is inert for
    /// healthy candidates, so clean runs stay bit-identical.
    pub supervisor: SupervisorConfig,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            iterations: 24,
            objective: Objective::Latency,
            policy: PolicyKind::SimulatedAnnealing,
            sa_alpha: 0.99,
            max_ops_per_pass: 2,
            pair_policy: PairPolicy::SimilarShape,
            rule_filter: false,
            finetune: FinetuneConfig::default(),
            virtual_samples: 20_000,
            virtual_throughput: gmorph_perf::clock::DEFAULT_THROUGHPUT,
            seed: 0,
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// What happened to one candidate during the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateStatus {
    /// Evaluated by fine-tuning (real or surrogate).
    Evaluated,
    /// Skipped: identical architecture already evaluated.
    Duplicate,
    /// Skipped by rule-based filtering before fine-tuning.
    RuleFiltered,
    /// Fine-tuning cut short by predictive early termination.
    TerminatedEarly,
    /// No legal mutation was found this round.
    NoMutation,
    /// Evaluation failed every permitted attempt (classified, rejected).
    Failed,
    /// Skipped before evaluation: matched a quarantined failure.
    Quarantined,
}

impl CandidateStatus {
    /// Stable wire name used in telemetry events and persisted traces.
    pub fn as_str(&self) -> &'static str {
        match self {
            CandidateStatus::Evaluated => "evaluated",
            CandidateStatus::Duplicate => "duplicate",
            CandidateStatus::RuleFiltered => "rule_filtered",
            CandidateStatus::TerminatedEarly => "terminated_early",
            CandidateStatus::NoMutation => "no_mutation",
            CandidateStatus::Failed => "failed",
            CandidateStatus::Quarantined => "quarantined",
        }
    }

    /// Parses a wire name written by [`CandidateStatus::as_str`].
    pub fn parse(s: &str) -> Option<CandidateStatus> {
        Some(match s {
            "evaluated" => CandidateStatus::Evaluated,
            "duplicate" => CandidateStatus::Duplicate,
            "rule_filtered" => CandidateStatus::RuleFiltered,
            "terminated_early" => CandidateStatus::TerminatedEarly,
            "no_mutation" => CandidateStatus::NoMutation,
            "failed" => CandidateStatus::Failed,
            "quarantined" => CandidateStatus::Quarantined,
            _ => return None,
        })
    }
}

/// Per-iteration trace record (drives Figure 8's curves).
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Iteration number (1-based).
    pub iter: usize,
    /// Candidate status.
    pub status: CandidateStatus,
    /// Whether the base graph was an elite (exploitation) rather than the
    /// original multi-DNN graph.
    pub from_elite: bool,
    /// Accuracy drop after fine-tuning (`NaN` when not evaluated).
    pub drop: f32,
    /// Whether the accuracy target was met.
    pub met_target: bool,
    /// Estimated paper-scale latency of the candidate (ms).
    pub candidate_latency_ms: f64,
    /// Best satisfying latency found so far (ms).
    pub best_latency_ms: f64,
    /// Fine-tuning epochs spent.
    pub epochs: usize,
    /// Virtual search time so far (hours).
    pub virtual_hours: f64,
    /// Wall-clock time so far (seconds).
    pub wall_seconds: f64,
}

/// The best model found by a search.
#[derive(Debug, Clone)]
pub struct BestModel {
    /// Mini-scale abstract graph.
    pub mini: AbsGraph,
    /// Paper-scale abstract graph.
    pub paper: AbsGraph,
    /// Trained weights (real mode) or inheritance markers (surrogate).
    pub weights: WeightStore,
    /// Estimated paper-scale latency (ms, Eager backend).
    pub latency_ms: f64,
    /// Accuracy drop.
    pub drop: f32,
    /// Per-task scores.
    pub scores: Vec<f32>,
}

/// Outcome of a full search run.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best satisfying model (the original when nothing beat it).
    pub best: BestModel,
    /// Latency of the original multi-DNN graph (ms, Eager backend).
    pub original_latency_ms: f64,
    /// Speedup of `best` over the original.
    pub speedup: f64,
    /// Per-iteration trace.
    pub trace: Vec<TraceRecord>,
    /// Total virtual search time (hours).
    pub virtual_hours: f64,
    /// Total wall-clock time (seconds).
    pub wall_seconds: f64,
    /// Candidates fine-tuned.
    pub evaluated: usize,
    /// Candidates skipped by rule-based filtering.
    pub rule_filtered: usize,
    /// Candidates whose fine-tuning was terminated early.
    pub early_terminated: usize,
    /// Duplicate candidates skipped.
    pub duplicates: usize,
    /// Candidates that failed every permitted evaluation attempt.
    pub failed: usize,
    /// Candidates skipped because they matched a quarantined failure.
    pub quarantined: usize,
}

struct Base<'a> {
    mini: &'a AbsGraph,
    paper: &'a AbsGraph,
    weights: &'a WeightStore,
}

/// Runs Algorithm 1.
///
/// `mini` and `paper` are the abstract graphs of the input multi-DNNs at
/// the two scales (node-id aligned); `teacher_weights` hold the
/// well-trained single-task weights; `mode` selects real or surrogate
/// accuracy evaluation.
pub fn run_search(
    mini: &AbsGraph,
    paper: &AbsGraph,
    teacher_weights: &WeightStore,
    mode: &EvalMode,
    cfg: &SearchConfig,
) -> Result<SearchResult> {
    run_search_checkpointed(mini, paper, teacher_weights, mode, cfg, None)
}

/// Runs Algorithm 1 with optional crash-safe checkpointing.
///
/// With `ckpt = Some(opts)` the loop snapshots its complete state after
/// every iteration (written to disk every `opts.every` iterations and on
/// drop/panic), and — when `opts.resume` is set — restores the newest
/// valid snapshot whose config fingerprint matches before iterating.
/// A resumed run replays the remaining iterations bit-exactly: every
/// field of the final [`SearchResult`] except wall-clock seconds equals
/// the uninterrupted run's.
pub fn run_search_checkpointed(
    mini: &AbsGraph,
    paper: &AbsGraph,
    teacher_weights: &WeightStore,
    mode: &EvalMode,
    cfg: &SearchConfig,
    ckpt: Option<&CheckpointOptions>,
) -> Result<SearchResult> {
    if mini.len() != paper.len() {
        return Err(TensorError::InvalidArgument {
            op: "run_search",
            msg: format!(
                "mini graph has {} nodes, paper graph {} — scales out of sync",
                mini.len(),
                paper.len()
            ),
        });
    }
    let wall_start = Instant::now();
    let mut rng = Rng::new(cfg.seed ^ 0x5EA_4C4);
    let mut policy = SimulatedAnnealing::new();
    policy.alpha = cfg.sa_alpha;
    let mut history = History::new(policy.max_elites);
    let mut rule_filter = CapacityRuleFilter::new();
    let mut clock = VirtualClock::with_throughput(cfg.virtual_samples, cfg.virtual_throughput);
    let mut trace: Vec<TraceRecord> = Vec::with_capacity(cfg.iterations);

    let original_latency_ms = estimate_latency_ms(paper, Backend::Eager)?;
    let _run_span = gmorph_telemetry::span!(
        "search.run",
        iterations = cfg.iterations,
        seed = cfg.seed,
        objective = match cfg.objective {
            Objective::Latency => "latency",
            Objective::Flops => "flops",
        }
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
    let teacher_scores = mode.teacher_scores().to_vec();
    let mut best = BestModel {
        mini: mini.clone(),
        paper: paper.clone(),
        weights: teacher_weights.clone(),
        latency_ms: original_latency_ms,
        drop: 0.0,
        scores: teacher_scores.clone(),
    };
    let mut evaluated = 0usize;
    let mut rule_filtered = 0usize;
    let mut early_terminated = 0usize;
    let mut duplicates = 0usize;
    let mut failed = 0usize;
    let mut quarantined = 0usize;

    // Resume: restore the newest valid snapshot whose fingerprint matches
    // this exact config + input graphs, then continue from its iteration.
    let fingerprint = config_fingerprint(cfg, mini, paper);
    let mut start_iter = 1usize;
    let mut wall_offset = 0.0f64;
    if let Some(opts) = ckpt {
        if opts.resume {
            if let Some(snap) = load_latest_search(&opts.dir, fingerprint)? {
                rng = Rng::restore(&snap.state.rng);
                policy.restore_last_drop(snap.state.last_drop);
                history =
                    History::from_parts(snap.state.evaluated, snap.state.elites, policy.max_elites);
                rule_filter = CapacityRuleFilter::from_parts(
                    snap.state.failures,
                    snap.state.quarantined,
                );
                clock.restore_seconds(snap.state.clock_seconds);
                best = snap.best;
                evaluated = snap.evaluated_count;
                rule_filtered = snap.rule_filtered;
                early_terminated = snap.early_terminated;
                duplicates = snap.duplicates;
                failed = snap.failed;
                quarantined = snap.quarantined_count;
                trace = snap.trace;
                start_iter = snap.state.next_iter;
                wall_offset = snap.state.wall_offset;
                gmorph_telemetry::point!(
                    "search.resumed",
                    next_iter = start_iter,
                    evaluated = evaluated,
                    elites = history.elite_count(),
                    virtual_hours = clock.hours()
                );
            }
        }
    }
    let mut manager = ckpt.map(|opts| CheckpointManager::new(opts, SEARCH_KIND));

    for iter in start_iter..=cfg.iterations {
        // The labeled block gives every early-exit path (no mutation,
        // duplicate, rule-filtered) a single common continuation: the
        // per-iteration checkpoint tick below.
        'body: {
        // Step 1: sample the base graph (original or elite).
        let use_elite = match cfg.policy {
            PolicyKind::SimulatedAnnealing => {
                policy.sample_from_elites(iter, history.elite_count(), &mut rng)
            }
            PolicyKind::RandomSampling => false,
        };
        let elite_pick = if use_elite && history.elite_count() > 0 {
            Some(rng.below(history.elite_count()))
        } else {
            None
        };
        // Clone the elite out so `history` stays mutably borrowable below;
        // elite graphs are small (tens of nodes) and surrogate weight
        // stores hold empty tensors, so this is cheap.
        let elite_base = elite_pick.map(|i| {
            let e = &history.elites()[i];
            (e.mini.clone(), e.paper.clone(), e.weights.clone())
        });
        let base = match &elite_base {
            Some((m, p, w)) => Base {
                mini: m,
                paper: p,
                weights: w,
            },
            None => Base {
                mini,
                paper,
                weights: teacher_weights,
            },
        };

        // Step 2: sample pairs and run the mutation pass on both scales.
        let candidate = propose_candidate(
            base.mini,
            base.paper,
            cfg.pair_policy,
            cfg.max_ops_per_pass,
            &mut rng,
        )?;
        let temperature = policy.temperature(iter);
        let (cand_mini, cand_paper) = match candidate {
            Some(c) => c,
            None => {
                trace.push(record(
                    iter,
                    CandidateStatus::NoMutation,
                    elite_pick.is_some(),
                    f32::NAN,
                    false,
                    f64::NAN,
                    &best,
                    0,
                    &clock,
                    wall_start,
                    wall_offset,
                ));
                gmorph_telemetry::counter!("search.no_mutation");
                emit_iter(trace.last().unwrap(), temperature, "no_mutation", -1, -1);
                break 'body;
            }
        };
        let cand_nodes = cand_mini.len() as i64;
        let cand_rescales = cand_mini
            .iter()
            .filter(|(_, n)| matches!(n.spec, gmorph_nn::BlockSpec::Rescale { .. }))
            .count() as i64;
        // Deduplicate by structural signature *before* any evaluation
        // work: a previously seen candidate skips even the latency
        // estimate, not just the fine-tuning.
        let signature = cand_mini.signature();
        if history.seen(&signature) {
            duplicates += 1;
            clock.charge_overhead(1.0);
            trace.push(record(
                iter,
                CandidateStatus::Duplicate,
                elite_pick.is_some(),
                f32::NAN,
                false,
                f64::NAN,
                &best,
                0,
                &clock,
                wall_start,
                wall_offset,
            ));
            gmorph_telemetry::counter!("search.duplicates");
            gmorph_telemetry::counter!("search.dedup_hit");
            emit_iter(
                trace.last().unwrap(),
                temperature,
                "duplicate",
                cand_nodes,
                cand_rescales,
            );
            break 'body;
        }
        history.record_evaluated(signature.clone());

        let cand_latency = estimate_latency_ms(&cand_paper, Backend::Eager)?;
        let cand_objective = match cfg.objective {
            Objective::Latency => cand_latency,
            Objective::Flops => cand_paper.flops()? as f64,
        };

        // Quarantine check: always on (independent of `rule_filter`),
        // because quarantine entries record *evaluation failures* — a
        // candidate matching one would fail the same way again. The §5.1
        // dominance rule applies: an equal or more aggressive merge of a
        // quarantined capacity is skipped too.
        let capacity = CapacityVector::of(&cand_mini)?;
        if let Some(verdict) = rule_filter.quarantine_verdict(&signature, &capacity) {
            quarantined += 1;
            clock.charge_overhead(2.0);
            trace.push(record(
                iter,
                CandidateStatus::Quarantined,
                elite_pick.is_some(),
                f32::NAN,
                false,
                cand_latency,
                &best,
                0,
                &clock,
                wall_start,
                wall_offset,
            ));
            gmorph_telemetry::counter!("search.quarantine_skipped");
            gmorph_telemetry::counter!("filter.rule.quarantined");
            emit_iter(
                trace.last().unwrap(),
                temperature,
                verdict.as_str(),
                cand_nodes,
                cand_rescales,
            );
            break 'body;
        }

        // Rule-based filtering (§5.1) before any fine-tuning.
        let filter_verdict = if cfg.rule_filter {
            rule_filter.verdict(&capacity)
        } else {
            None
        };
        if let Some(verdict) = filter_verdict {
            rule_filtered += 1;
            clock.charge_overhead(2.0);
            trace.push(record(
                iter,
                CandidateStatus::RuleFiltered,
                elite_pick.is_some(),
                f32::NAN,
                false,
                cand_latency,
                &best,
                0,
                &clock,
                wall_start,
                wall_offset,
            ));
            gmorph_telemetry::counter!("search.rule_filtered");
            if gmorph_telemetry::enabled() {
                gmorph_telemetry::counter!(&format!("filter.rule.{}", verdict.as_str()));
            }
            emit_iter(
                trace.last().unwrap(),
                temperature,
                verdict.as_str(),
                cand_nodes,
                cand_rescales,
            );
            break 'body;
        }

        // Step 3: evaluate (fine-tune) the candidate, supervised. A
        // failing candidate is retried (transient kinds only), then
        // classified, quarantined, and scored as a rejected SA step —
        // never an aborted run.
        let noise_salt = cfg.seed.wrapping_mul(1_000_003) ^ iter as u64;
        let clock_before = clock.seconds();
        let outcome = supervisor::evaluate_supervised(
            mode,
            &cand_mini,
            base.weights,
            &cfg.finetune,
            &cfg.supervisor,
            cfg.seed,
            iter,
            &mut rng,
            noise_salt,
        );
        // Charge the virtual clock, then apply the deterministic
        // virtual-clock deadline: a candidate whose fine-tuning cost blew
        // the per-candidate budget is a timeout even if it converged.
        let outcome = match outcome {
            Ok(evaluation) => {
                let paper_flops = cand_paper.flops()?;
                clock.charge_finetune(paper_flops, evaluation.result.epochs_run);
                clock.charge_eval(paper_flops * evaluation.result.records.len().max(1) as u64);
                let spent_hours = (clock.seconds() - clock_before) / 3600.0;
                match cfg.supervisor.virtual_deadline_hours {
                    Some(limit) if spent_hours > limit => Err(FailureReport {
                        kind: gmorph_tensor::FailureKind::Timeout,
                        attempts: 1,
                        message: format!(
                            "virtual cost {spent_hours:.3}h exceeds the \
                             {limit:.3}h per-candidate budget"
                        ),
                    }),
                    _ => Ok(evaluation),
                }
            }
            Err(report) => {
                // Failed attempts still consumed search time.
                clock.charge_overhead(2.0 * report.attempts as f64);
                Err(report)
            }
        };
        let evaluation = match outcome {
            Ok(evaluation) => evaluation,
            Err(report) => {
                failed += 1;
                rule_filter.record_quarantine(signature.clone(), capacity.clone());
                // A failed candidate reads as maximally bad to the SA
                // policy: elites stay preferable and the temperature
                // schedule sees a rejection, not a hole.
                policy.observe_drop(1.0);
                gmorph_telemetry::counter!("search.failed");
                gmorph_telemetry::counter!("eval.quarantine");
                gmorph_telemetry::point!(
                    "eval.quarantine",
                    iter = iter,
                    kind = report.kind.as_str(),
                    attempts = report.attempts,
                    signature = signature.as_str(),
                    error = report.message.as_str()
                );
                trace.push(record(
                    iter,
                    CandidateStatus::Failed,
                    elite_pick.is_some(),
                    f32::NAN,
                    false,
                    cand_latency,
                    &best,
                    0,
                    &clock,
                    wall_start,
                    wall_offset,
                ));
                emit_iter(
                    trace.last().unwrap(),
                    temperature,
                    report.kind.as_str(),
                    cand_nodes,
                    cand_rescales,
                );
                break 'body;
            }
        };
        evaluated += 1;
        policy.observe_drop(evaluation.result.final_drop.max(0.0));
        if evaluation.result.terminated_early {
            early_terminated += 1;
        }

        // Step 4: elites and best model.
        let met = evaluation.result.met_target;
        let mut reason = "rejected_drop";
        if met {
            let best_objective = match cfg.objective {
                Objective::Latency => best.latency_ms,
                Objective::Flops => best.paper.flops()? as f64,
            };
            if cand_objective < best_objective {
                best = BestModel {
                    mini: cand_mini.clone(),
                    paper: cand_paper.clone(),
                    weights: evaluation.weights.clone(),
                    latency_ms: cand_latency,
                    drop: evaluation.result.final_drop,
                    scores: evaluation.result.final_scores.clone(),
                };
                reason = "accepted_best";
                gmorph_telemetry::counter!("search.best_improved");
            } else {
                reason = "accepted_elite";
            }
            history.add_elite(Elite::new(
                cand_mini,
                cand_paper,
                evaluation.weights,
                evaluation.result.final_drop,
                cand_latency,
                evaluation.result.final_scores.clone(),
            ));
            gmorph_telemetry::counter!("search.accepted");
        } else {
            if cfg.rule_filter {
                rule_filter.record_failure(capacity);
            }
            gmorph_telemetry::counter!("search.rejected");
        }
        let status = if evaluation.result.terminated_early {
            CandidateStatus::TerminatedEarly
        } else {
            CandidateStatus::Evaluated
        };
        gmorph_telemetry::counter!("search.evaluated");
        if evaluation.result.terminated_early {
            gmorph_telemetry::counter!("search.early_terminated");
        }
        trace.push(record(
            iter,
            status,
            elite_pick.is_some(),
            evaluation.result.final_drop,
            met,
            cand_latency,
            &best,
            evaluation.result.epochs_run,
            &clock,
            wall_start,
            wall_offset,
        ));
        emit_iter(
            trace.last().unwrap(),
            temperature,
            reason,
            cand_nodes,
            cand_rescales,
        );
        } // 'body

        // Snapshot the completed iteration; the manager decides whether
        // this one hits the disk now or stays pending (flushed on drop).
        if let Some(mgr) = manager.as_mut() {
            let snapshot = SearchSnapshotRef {
                state: LoopStateRef {
                    fingerprint,
                    next_iter: iter + 1,
                    rng: rng.state(),
                    last_drop: policy.last_drop(),
                    clock_seconds: clock.seconds(),
                    wall_offset: wall_offset + wall_start.elapsed().as_secs_f64(),
                    failures: rule_filter.failures(),
                    quarantined: rule_filter.quarantined(),
                    evaluated: history.evaluated_signatures(),
                    elites: history.elites(),
                },
                best: &best,
                evaluated_count: evaluated,
                rule_filtered,
                early_terminated,
                duplicates,
                failed,
                quarantined_count: quarantined,
                trace: &trace,
            };
            mgr.tick(iter, snapshot.encode()?)?;
        }
        if let Some(opts) = ckpt {
            opts.maybe_crash(iter);
        }
    }

    let wall_seconds = wall_offset + wall_start.elapsed().as_secs_f64();
    gmorph_telemetry::point!(
        "search.done",
        iterations = cfg.iterations,
        evaluated = evaluated,
        rule_filtered = rule_filtered,
        early_terminated = early_terminated,
        duplicates = duplicates,
        failed = failed,
        quarantined = quarantined,
        best_latency_ms = best.latency_ms,
        original_latency_ms = original_latency_ms,
        speedup = original_latency_ms / best.latency_ms,
        virtual_hours = clock.hours(),
        wall_seconds = wall_seconds
    );
    Ok(SearchResult {
        speedup: original_latency_ms / best.latency_ms,
        best,
        original_latency_ms,
        trace,
        virtual_hours: clock.hours(),
        wall_seconds,
        evaluated,
        rule_filtered,
        early_terminated,
        duplicates,
        failed,
        quarantined,
    })
}

/// Samples a mutation pass and replays it at both scales.
///
/// Public so the experiment harness can draw candidates exactly the way
/// the search does (Figure 1/2/3 sample candidates outside a search run).
pub fn propose_candidate(
    base_mini: &AbsGraph,
    base_paper: &AbsGraph,
    pair_policy: PairPolicy,
    max_ops_per_pass: usize,
    rng: &mut Rng,
) -> Result<Option<(AbsGraph, AbsGraph)>> {
    let pairs = pairs_with(base_mini, pair_policy)?;
    if pairs.is_empty() {
        return Ok(None);
    }
    for _ in 0..8 {
        let k = 1 + rng.below(max_ops_per_pass.max(1));
        let chosen: Vec<(NodeId, NodeId)> =
            (0..k).map(|_| pairs[rng.below(pairs.len())]).collect();
        let (cand_mini, ops_mini) = mutation::mutation_pass(base_mini, &chosen)?;
        if ops_mini.is_empty() {
            continue;
        }
        let (cand_paper, ops_paper) = mutation::mutation_pass(base_paper, &chosen)?;
        // Scales must replay identically; node ids are aligned by
        // construction, so a divergence is a bug worth failing loudly on.
        if ops_mini.len() != ops_paper.len()
            || ops_mini
                .iter()
                .zip(ops_paper.iter())
                .any(|(a, b)| a.host != b.host || a.guest != b.guest)
        {
            return Err(TensorError::InvalidArgument {
                op: "run_search::propose",
                msg: "mini/paper mutation replay diverged".to_string(),
            });
        }
        return Ok(Some((cand_mini, cand_paper)));
    }
    Ok(None)
}

/// Emits the per-iteration `search.iter` telemetry event mirroring the
/// trace record just pushed. `reason` explains the outcome
/// (`accepted_best`, `accepted_elite`, `rejected_drop`, `duplicate`,
/// `exact`/`more_aggressive` for filter verdicts, `no_mutation`);
/// `cand_nodes`/`rescales` characterize the mutated graph (-1 when no
/// candidate was produced).
fn emit_iter(rec: &TraceRecord, temperature: f32, reason: &str, cand_nodes: i64, rescales: i64) {
    gmorph_telemetry::counter!("search.iterations");
    gmorph_telemetry::point!(
        "search.iter",
        iter = rec.iter,
        status = rec.status.as_str(),
        reason = reason,
        from_elite = rec.from_elite,
        drop = rec.drop,
        met_target = rec.met_target,
        candidate_latency_ms = rec.candidate_latency_ms,
        best_latency_ms = rec.best_latency_ms,
        epochs = rec.epochs,
        virtual_hours = rec.virtual_hours,
        temperature = temperature,
        cand_nodes = cand_nodes,
        rescales = rescales
    );
}

#[allow(clippy::too_many_arguments)]
fn record(
    iter: usize,
    status: CandidateStatus,
    from_elite: bool,
    drop: f32,
    met: bool,
    cand_latency: f64,
    best: &BestModel,
    epochs: usize,
    clock: &VirtualClock,
    wall_start: Instant,
    wall_offset: f64,
) -> TraceRecord {
    TraceRecord {
        iter,
        status,
        from_elite,
        drop,
        met_target: met,
        candidate_latency_ms: cand_latency,
        best_latency_ms: best.latency_ms,
        epochs,
        virtual_hours: clock.hours(),
        wall_seconds: wall_offset + wall_start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::SurrogateContext;
    use gmorph_data::TaskSpec;
    use gmorph_graph::parser::parse_specs;
    use gmorph_perf::accuracy::SurrogateParams;
    use gmorph_models::families::{vgg, VggDepth, VisionScale};

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

    fn quick_cfg(iterations: usize) -> SearchConfig {
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
    fn search_finds_a_faster_satisfying_model() {
        let (mini, paper, weights, mode) = setup();
        let res = run_search(&mini, &paper, &weights, &mode, &quick_cfg(40)).unwrap();
        assert!(res.speedup > 1.05, "speedup = {}", res.speedup);
        assert!(res.best.drop <= 0.02 + 1e-6);
        assert!(res.evaluated > 0);
        assert_eq!(res.trace.len(), 40);
        res.best.mini.validate().unwrap();
        res.best.paper.validate().unwrap();
    }

    #[test]
    fn best_latency_is_monotone_along_trace() {
        let (mini, paper, weights, mode) = setup();
        let res = run_search(&mini, &paper, &weights, &mode, &quick_cfg(30)).unwrap();
        for w in res.trace.windows(2) {
            assert!(w[1].best_latency_ms <= w[0].best_latency_ms + 1e-9);
        }
        // Virtual time is monotone too.
        for w in res.trace.windows(2) {
            assert!(w[1].virtual_hours >= w[0].virtual_hours);
        }
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let (mini, paper, weights, mode) = setup();
        let a = run_search(&mini, &paper, &weights, &mode, &quick_cfg(15)).unwrap();
        let b = run_search(&mini, &paper, &weights, &mode, &quick_cfg(15)).unwrap();
        assert_eq!(a.best.latency_ms, b.best.latency_ms);
        assert_eq!(a.evaluated, b.evaluated);
    }

    #[test]
    fn rule_filter_skips_candidates() {
        let (mini, paper, weights, mode) = setup();
        let mut cfg = quick_cfg(50);
        // A strict target makes most candidates fail, feeding the filter.
        cfg.finetune.target_drop = 0.0;
        cfg.rule_filter = true;
        let res = run_search(&mini, &paper, &weights, &mode, &cfg).unwrap();
        assert!(
            res.rule_filtered > 0,
            "rule filter never fired ({} evaluated)",
            res.evaluated
        );
    }

    #[test]
    fn early_termination_reduces_epochs() {
        let (mini, paper, weights, mode) = setup();
        let mut base_cfg = quick_cfg(30);
        base_cfg.finetune.target_drop = 0.0;
        base_cfg.finetune.max_epochs = 40;
        let plain = run_search(&mini, &paper, &weights, &mode, &base_cfg).unwrap();
        let mut et_cfg = base_cfg.clone();
        et_cfg.finetune.early_termination = true;
        let et = run_search(&mini, &paper, &weights, &mode, &et_cfg).unwrap();
        assert!(
            et.virtual_hours < plain.virtual_hours,
            "P variant not cheaper: {} vs {}",
            et.virtual_hours,
            plain.virtual_hours
        );
        assert!(et.early_terminated > 0);
    }

    #[test]
    fn random_policy_never_uses_elites() {
        let (mini, paper, weights, mode) = setup();
        let mut cfg = quick_cfg(20);
        cfg.policy = PolicyKind::RandomSampling;
        let res = run_search(&mini, &paper, &weights, &mode, &cfg).unwrap();
        // Still functional: finds something or keeps the original.
        assert!(res.speedup >= 1.0);
    }

    #[test]
    fn duplicate_candidates_are_skipped() {
        let (mini, paper, weights, mode) = setup();
        let mut cfg = quick_cfg(60);
        cfg.max_ops_per_pass = 1;
        let res = run_search(&mini, &paper, &weights, &mode, &cfg).unwrap();
        // With 60 single-op rounds over a modest pair set, repeats occur.
        assert!(res.duplicates > 0);
    }

    #[test]
    fn flops_objective_optimizes_flops() {
        let (mini, paper, weights, mode) = setup();
        let mut cfg = quick_cfg(30);
        cfg.objective = Objective::Flops;
        let res = run_search(&mini, &paper, &weights, &mode, &cfg).unwrap();
        // Best model's FLOPs must not exceed the original's.
        assert!(res.best.paper.flops().unwrap() <= paper.flops().unwrap());
        res.best.mini.validate().unwrap();
    }

    #[test]
    fn single_model_graph_still_searches_in_branch() {
        // With one model there are no cross-branch pairs, but in-branch
        // mutations (panel 1) remain legal.
        let t0 = TaskSpec::classification("solo", 2);
        let mini = parse_specs(&[vgg(VggDepth::Vgg13, VisionScale::mini(), &t0).unwrap()])
            .unwrap();
        let paper = parse_specs(&[vgg(VggDepth::Vgg13, VisionScale::paper(), &t0).unwrap()])
            .unwrap();
        let mut weights = WeightStore::new();
        for (_, n) in mini.iter() {
            weights.insert(n.key(), n.spec.clone(), Vec::new());
        }
        let mode = EvalMode::Surrogate(SurrogateContext {
            orig_capacity: CapacityVector::of(&mini).unwrap(),
            params: SurrogateParams::default(),
            teacher_scores: vec![0.9],
        });
        let res = run_search(&mini, &paper, &weights, &mode, &quick_cfg(20)).unwrap();
        assert!(res.speedup >= 1.0);
        res.best.mini.validate().unwrap();
    }

    #[test]
    fn trace_statuses_are_consistent_with_counters() {
        let (mini, paper, weights, mode) = setup();
        let mut cfg = quick_cfg(40);
        cfg.rule_filter = true;
        cfg.finetune.target_drop = 0.0;
        cfg.finetune.early_termination = true;
        let res = run_search(&mini, &paper, &weights, &mode, &cfg).unwrap();
        let count = |st: CandidateStatus| {
            res.trace.iter().filter(|r| r.status == st).count()
        };
        assert_eq!(count(CandidateStatus::RuleFiltered), res.rule_filtered);
        assert_eq!(count(CandidateStatus::Duplicate), res.duplicates);
        assert_eq!(count(CandidateStatus::TerminatedEarly), res.early_terminated);
        assert_eq!(
            count(CandidateStatus::Evaluated) + res.early_terminated,
            res.evaluated
        );
    }

    #[test]
    fn telemetry_events_reconstruct_search_counts() {
        let (mini, paper, weights, mode) = setup();
        let mut cfg = quick_cfg(40);
        cfg.rule_filter = true;
        cfg.finetune.target_drop = 0.0;
        cfg.finetune.early_termination = true;

        let guard = gmorph_telemetry::sink::install_test_sink();
        let res = run_search(&mini, &paper, &weights, &mode, &cfg).unwrap();
        let events = guard.events();
        drop(guard);

        // Other tests in this binary run concurrently and may emit their
        // own events while the sink is installed; keep only this thread's.
        let here = gmorph_telemetry::span::thread_id();
        let iters: Vec<_> = events
            .iter()
            .filter(|e| e.thread == here && e.name == "search.iter")
            .collect();
        assert_eq!(iters.len(), cfg.iterations);
        assert_eq!(iters.len(), res.trace.len());

        let by_status = |s: &str| {
            iters
                .iter()
                .filter(|e| e.field("status").and_then(|v| v.as_str()) == Some(s))
                .count()
        };
        assert_eq!(by_status("rule_filtered"), res.rule_filtered);
        assert_eq!(by_status("duplicate"), res.duplicates);
        assert_eq!(by_status("terminated_early"), res.early_terminated);
        assert_eq!(
            by_status("evaluated") + res.early_terminated,
            res.evaluated
        );

        // Events mirror the trace record-for-record.
        for (e, r) in iters.iter().zip(res.trace.iter()) {
            assert_eq!(
                e.field("iter").and_then(|v| v.as_f64()),
                Some(r.iter as f64)
            );
            assert_eq!(
                e.field("status").and_then(|v| v.as_str()),
                Some(r.status.as_str())
            );
            let best = e.field("best_latency_ms").and_then(|v| v.as_f64()).unwrap();
            assert_eq!(best, r.best_latency_ms);
        }
        // The final best latency is reconstructible from the stream.
        let last_best = iters
            .last()
            .and_then(|e| e.field("best_latency_ms"))
            .and_then(|v| v.as_f64())
            .unwrap();
        assert_eq!(last_best, res.best.latency_ms);

        // The run meta event carries the clock assumptions.
        let meta = events
            .iter()
            .find(|e| e.thread == here && e.name == "search.run_meta")
            .expect("run meta event");
        assert_eq!(
            meta.field("virtual_throughput").and_then(|v| v.as_f64()),
            Some(gmorph_perf::clock::DEFAULT_THROUGHPUT)
        );
    }

    #[test]
    fn custom_throughput_scales_virtual_hours() {
        let (mini, paper, weights, mode) = setup();
        let mut cfg = quick_cfg(15);
        let base = run_search(&mini, &paper, &weights, &mode, &cfg).unwrap();
        cfg.virtual_throughput = gmorph_perf::clock::DEFAULT_THROUGHPUT * 2.0;
        let fast = run_search(&mini, &paper, &weights, &mode, &cfg).unwrap();
        // Same seed, same decisions — only the clock rate differs, so the
        // virtual total shrinks (overhead charges are rate-independent,
        // so it is not exactly half).
        assert!(
            fast.virtual_hours < base.virtual_hours,
            "{} !< {}",
            fast.virtual_hours,
            base.virtual_hours
        );
        assert_eq!(fast.evaluated, base.evaluated);
    }

    #[test]
    fn mismatched_scales_rejected() {
        let (mini, _, weights, mode) = setup();
        let t0 = TaskSpec::classification("a", 2);
        let short = parse_specs(&[vgg(
            VggDepth::Vgg11,
            VisionScale::paper(),
            &t0,
        )
        .unwrap()])
        .unwrap();
        assert!(run_search(&mini, &short, &weights, &mode, &quick_cfg(5)).is_err());
    }
}
