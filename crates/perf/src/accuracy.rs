//! The Accuracy Estimator: distillation fine-tuning and its surrogate.
//!
//! The *Real* path implements §5.2 faithfully: the multi-task model is
//! fine-tuned to match the output features of the original task-specific
//! teachers under a weighted ℓ1 loss — no task labels are consumed during
//! training — with early stopping once the accuracy target is met and
//! optional predictive early termination (§5.1).
//!
//! The *Surrogate* path is a calibrated analytic stand-in used by the
//! large experiment grids (DESIGN.md §1): the asymptotic accuracy drop is
//! a function of how much task capacity the mutation removed (matching the
//! empirical Figure 1 relation), convergence is geometric with a rate that
//! improves with the fraction of inherited weights (matching Figure 2),
//! and a seeded initialization noise reproduces the Figure 3 spread.

use crate::filter::ConvergencePredictor;
use gmorph_data::{metrics, MultiTaskDataset};
use gmorph_graph::{AbsGraph, CapacityVector, TreeModel};
use gmorph_nn::health::{self, GradVerdict, HealthConfig};
use gmorph_nn::loss::weighted_l1_multi;
use gmorph_nn::optim::Optim;
use gmorph_nn::Mode;
use gmorph_tensor::rng::Rng;
use gmorph_tensor::{error, FaultKind, Result, Tensor, TensorError};

/// Fine-tuning configuration (the paper's optimization parameters, §6.1).
#[derive(Debug, Clone)]
pub struct FinetuneConfig {
    /// Maximum fine-tuning epochs (paper: 35/40/16 depending on bench).
    pub max_epochs: usize,
    /// Batch size.
    pub batch: usize,
    /// Adam learning rate (minimum of the teachers' rates, per §6.1/A).
    pub lr: f32,
    /// Validation cadence in epochs (the paper's δ: 5 for B1-B5, 2 for
    /// B6-B7).
    pub eval_every: usize,
    /// Target accuracy drop (0.0, 0.01, 0.02 in the evaluation).
    pub target_drop: f32,
    /// Enables predictive early termination.
    pub early_termination: bool,
    /// Seed for shuffling.
    pub seed: u64,
    /// Numeric-health supervision: gradient clipping and non-finite and
    /// divergence detection (see [`gmorph_nn::health`]).
    pub health: HealthConfig,
    /// Per-candidate wall-clock deadline. A fine-tune run past this
    /// budget halts with a classified timeout (checked at epoch
    /// boundaries). `None` disables the check — the default, because
    /// wall-clock outcomes are machine-dependent and resume replays must
    /// stay bit-exact unless the user opts in.
    pub wall_deadline_ms: Option<u64>,
    /// Fault injection for resilience testing: poisons this run per the
    /// given mode. Set by the supervisor from `GMORPH_FAULT`; never by
    /// ordinary code paths.
    pub inject: Option<FaultKind>,
}

impl Default for FinetuneConfig {
    fn default() -> Self {
        FinetuneConfig {
            max_epochs: 12,
            batch: 32,
            lr: 1e-3,
            eval_every: 2,
            target_drop: 0.01,
            early_termination: false,
            seed: 0,
            health: HealthConfig::default(),
            wall_deadline_ms: None,
            inject: None,
        }
    }
}

/// One validation measurement during fine-tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRecord {
    /// Epoch at which the measurement was taken (1-based).
    pub epoch: usize,
    /// Maximum per-task accuracy drop vs the teachers at this point.
    pub drop: f32,
    /// Per-task scores.
    pub scores: Vec<f32>,
}

/// Outcome of evaluating one candidate's accuracy.
#[derive(Debug, Clone)]
pub struct FinetuneResult {
    /// Whether the target drop was met.
    pub met_target: bool,
    /// Final maximum per-task drop.
    pub final_drop: f32,
    /// Final per-task scores.
    pub final_scores: Vec<f32>,
    /// Epochs actually run (early stopping / termination shortens this).
    pub epochs_run: usize,
    /// All validation measurements.
    pub records: Vec<EvalRecord>,
    /// True when predictive early termination cut the run short.
    pub terminated_early: bool,
}

/// Precomputes teacher output features over the representative inputs —
/// the distillation targets (no task labels involved).
pub fn teacher_targets(
    teachers: &mut [gmorph_models::SingleTaskModel],
    inputs: &Tensor,
) -> Result<Vec<Tensor>> {
    teachers
        .iter_mut()
        .map(|t| {
            let y = t.forward(inputs, Mode::Eval)?;
            t.clear_caches();
            Ok(y)
        })
        .collect()
}

/// Scores a multi-task model on every task of a labelled test set.
pub fn score_tree(model: &mut TreeModel, test: &MultiTaskDataset) -> Result<Vec<f32>> {
    // Batched eval to bound activation memory.
    let n = test.len();
    let batch = 64usize;
    let mut per_task_rows: Vec<Vec<Tensor>> = vec![Vec::new(); test.tasks.len()];
    let mut i = 0;
    while i < n {
        let hi = (i + batch).min(n);
        let ix: Vec<usize> = (i..hi).collect();
        let x = test.inputs.select_rows(&ix)?;
        let ys = model.forward(&x, Mode::Eval)?;
        for (t, y) in ys.into_iter().enumerate() {
            for r in 0..y.dims()[0] {
                per_task_rows[t].push(y.row(r)?);
            }
        }
        i = hi;
    }
    let mut scores = Vec::with_capacity(test.tasks.len());
    for (t, rows) in per_task_rows.into_iter().enumerate() {
        let logits = Tensor::stack(&rows)?;
        scores.push(metrics::score(
            test.tasks[t].metric,
            &logits,
            &test.labels[t],
        )?);
    }
    model.clear_caches();
    Ok(scores)
}

/// Maximum per-task drop of `scores` relative to `teacher_scores`.
pub(crate) fn max_drop(scores: &[f32], teacher_scores: &[f32]) -> f32 {
    scores
        .iter()
        .zip(teacher_scores.iter())
        .map(|(s, t)| t - s)
        .fold(f32::NEG_INFINITY, f32::max)
}

/// Distillation-based fine-tuning (§5.2) with early stopping and optional
/// predictive early termination.
///
/// `train_inputs` are the representative (unlabeled) inputs; `targets` are
/// the teacher outputs from [`teacher_targets`]; `test` provides the
/// labelled evaluation split; `teacher_scores` anchor the drop.
pub fn finetune(
    model: &mut TreeModel,
    train_inputs: &Tensor,
    targets: &[Tensor],
    test: &MultiTaskDataset,
    teacher_scores: &[f32],
    cfg: &FinetuneConfig,
) -> Result<FinetuneResult> {
    let n_tasks = model.tasks.len();
    if targets.len() != n_tasks || teacher_scores.len() != n_tasks {
        return Err(TensorError::InvalidArgument {
            op: "finetune",
            msg: format!(
                "{} targets / {} teacher scores for {} tasks",
                targets.len(),
                teacher_scores.len(),
                n_tasks
            ),
        });
    }
    let weights = vec![1.0; n_tasks];
    let n = train_inputs.dims()[0];
    let mut rng = Rng::new(cfg.seed ^ 0xF17E);
    let mut opt = Optim::adam(cfg.lr);
    let mut records = Vec::new();
    let mut terminated_early = false;
    let mut epochs_run = 0usize;
    let mut predictor = ConvergencePredictor::new();
    let _span = gmorph_telemetry::span!(
        "finetune",
        mode = "real",
        max_epochs = cfg.max_epochs,
        target_drop = cfg.target_drop
    );
    gmorph_telemetry::counter!("finetune.runs");

    let started = std::time::Instant::now();
    'outer: for epoch in 1..=cfg.max_epochs {
        // The deadline guard runs at epoch boundaries: cheap, and a
        // pathological candidate is caught within one epoch of tripping.
        if let Some(ms) = cfg.wall_deadline_ms {
            let elapsed = started.elapsed().as_millis() as u64;
            if elapsed > ms {
                return Err(error::timeout(
                    "finetune",
                    format!("wall deadline {ms}ms exceeded ({elapsed}ms) before epoch {epoch}"),
                ));
            }
        }
        if cfg.inject == Some(FaultKind::SlowCandidate) {
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        let mut ix: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut ix);
        for chunk in ix.chunks(cfg.batch.max(1)) {
            let x = train_inputs.select_rows(chunk)?;
            let ys = model.forward(&x, Mode::Train)?;
            let batch_targets: Vec<Tensor> = targets
                .iter()
                .map(|t| t.select_rows(chunk))
                .collect::<Result<Vec<_>>>()?;
            let (mut loss, mut grads) = weighted_l1_multi(&ys, &batch_targets, &weights)?;
            match cfg.inject {
                Some(FaultKind::NanLoss) => {
                    loss = f32::NAN;
                    for g in &mut grads {
                        g.data_mut().fill(f32::NAN);
                    }
                }
                Some(FaultKind::GradExplode) => {
                    for g in &mut grads {
                        for v in g.data_mut() {
                            *v *= 1e30;
                        }
                    }
                }
                Some(FaultKind::PanicEval) => {
                    panic!("GMORPH_FAULT: injected panic in finetune epoch {epoch}");
                }
                _ => {}
            }
            health::check_loss("finetune", loss)?;
            model.backward(&grads)?;
            // Global gradient norm: doubles as a whole-model non-finite
            // probe (any NaN grad makes the norm NaN) and feeds clipping.
            let mut sq = 0f64;
            model.visit_params(&mut |p| sq += health::grad_sq_sum(p));
            match health::grad_verdict(&cfg.health, "finetune", sq.sqrt() as f32) {
                GradVerdict::Ok => {
                    opt.begin_step();
                    model.visit_params(&mut |p| opt.update(p));
                }
                GradVerdict::Clip(scale) => {
                    model.visit_params(&mut |p| health::scale_grad(p, scale));
                    opt.begin_step();
                    model.visit_params(&mut |p| opt.update(p));
                }
                GradVerdict::Halt(event) => return Err(event.to_error()),
            }
        }
        epochs_run = epoch;
        if epoch % cfg.eval_every.max(1) == 0 || epoch == cfg.max_epochs {
            let scores = score_tree(model, test)?;
            let drop = max_drop(&scores, teacher_scores);
            gmorph_telemetry::point!("finetune.eval", mode = "real", epoch = epoch, drop = drop);
            records.push(EvalRecord {
                epoch,
                drop,
                scores: scores.clone(),
            });
            // Early stopping: target met.
            if drop <= cfg.target_drop {
                break 'outer;
            }
            // Predictive early termination (§5.1): extrapolate the
            // learning curve; quit if the projected final accuracy cannot
            // reach the target.
            if cfg.early_termination {
                // The predictor consumes accuracies; use 1 - drop as the
                // improving quantity.
                predictor.push(1.0 - drop);
                if let Some(projected) =
                    predictor.predict_final((cfg.max_epochs - epoch) / cfg.eval_every.max(1))
                {
                    if 1.0 - projected > cfg.target_drop + 0.002 {
                        terminated_early = true;
                        gmorph_telemetry::point!(
                            "finetune.early_term",
                            mode = "real",
                            epoch = epoch,
                            projected_drop = 1.0 - projected
                        );
                        break 'outer;
                    }
                }
            }
        }
    }
    gmorph_telemetry::counter!("finetune.epochs", epochs_run as u64);
    if terminated_early {
        gmorph_telemetry::counter!("finetune.early_terminated");
    }
    let (final_drop, final_scores) = match records.last() {
        Some(r) => (r.drop, r.scores.clone()),
        None => {
            let scores = score_tree(model, test)?;
            let drop = max_drop(&scores, teacher_scores);
            (drop, scores)
        }
    };
    // A non-finite drop means the scores themselves diverged even though
    // every step's loss stayed finite — still a halt-worthy candidate.
    health::check_loss("finetune", final_drop)?;
    Ok(FinetuneResult {
        met_target: final_drop <= cfg.target_drop,
        final_drop,
        final_scores,
        epochs_run,
        records,
        terminated_early,
    })
}

// ---------------------------------------------------------------------
// Surrogate
// ---------------------------------------------------------------------

/// Calibration constants of the surrogate accuracy model.
#[derive(Debug, Clone)]
pub struct SurrogateParams {
    /// Fraction of a task's capacity that can be removed before accuracy
    /// starts to suffer (tasks share latent structure, so early features
    /// are redundant across models).
    pub free_share: f32,
    /// Maximum asymptotic drop when nearly all capacity is removed.
    pub max_drop: f32,
    /// Penalty weight for the fraction of a task's path that is *shared*
    /// with other tasks: even capacity-preserving cross-branch sharing
    /// de-specializes features (the Figure 1 red-curve slope).
    pub share_penalty: f32,
    /// Shared-path fraction below which sharing is free.
    pub free_shared_frac: f32,
    /// Extra asymptotic drop per re-scale adapter between *dissimilar*
    /// shapes (Figure 1's blue points).
    pub dissimilar_penalty: f32,
    /// Standard deviation of the initialization noise (Figure 3's spread).
    pub init_noise: f32,
    /// Mean of the initialization noise (slightly pessimistic: most inits
    /// cost a little accuracy, a lucky few improve — Figure 3).
    pub noise_mean: f32,
    /// Epoch constant of the geometric convergence.
    pub tau_epochs: f32,
}

impl Default for SurrogateParams {
    fn default() -> Self {
        SurrogateParams {
            free_share: 0.30,
            max_drop: 0.40,
            share_penalty: 0.02,
            free_shared_frac: 0.40,
            dissimilar_penalty: 0.08,
            init_noise: 0.006,
            noise_mean: 0.005,
            tau_epochs: 6.0,
        }
    }
}

/// Deterministic per-candidate hash used to seed initialization noise.
///
/// Streams the signature into the hasher and ends it with `0xFF`, exactly
/// as hashing the signature `String` would, so seeds never change.
fn graph_noise_seed(graph: &AbsGraph, salt: u64) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    struct Sink(DefaultHasher);
    impl std::fmt::Write for Sink {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut h = Sink(DefaultHasher::new());
    graph.write_signature(&mut h).expect("hashing cannot fail");
    h.0.write_u8(0xFF);
    salt.hash(&mut h.0);
    h.0.finish()
}

/// Counts re-scale nodes joining shapes that share no dimension.
fn dissimilar_rescales(graph: &AbsGraph) -> usize {
    graph
        .iter()
        .filter(|(_, n)| {
            if let gmorph_nn::BlockSpec::Rescale { from, to } = &n.spec {
                from.len() == to.len() && from.iter().zip(to.iter()).all(|(a, b)| a != b)
            } else {
                false
            }
        })
        .count()
}

/// The surrogate's asymptotic accuracy drop for a candidate.
pub fn surrogate_asymptote(
    candidate: &AbsGraph,
    original: &CapacityVector,
    params: &SurrogateParams,
    noise_salt: u64,
) -> Result<f32> {
    let cv = CapacityVector::of(candidate)?;
    let mut worst = 0.0f32;
    for t in 0..original.per_task_total.len() {
        let orig = original.per_task_total[t].max(1) as f32;
        let now = cv.per_task_total.get(t).copied().unwrap_or(0) as f32;
        // Capacity actually removed from the task's path.
        let removed = (1.0 - now / orig).max(0.0);
        let over_r = (removed - params.free_share).max(0.0) / (1.0 - params.free_share);
        // Fraction of the task's remaining path shared with other tasks:
        // sharing de-specializes features even at constant capacity.
        let specific = cv.per_task_specific.get(t).copied().unwrap_or(0) as f32;
        let shared_frac = (1.0 - specific / now.max(1.0)).clamp(0.0, 1.0);
        let over_s =
            (shared_frac - params.free_shared_frac).max(0.0) / (1.0 - params.free_shared_frac);
        worst =
            worst.max(params.max_drop * over_r * over_r + params.share_penalty * over_s * over_s);
    }
    worst += params.dissimilar_penalty * dissimilar_rescales(candidate) as f32;
    let mut noise_rng = Rng::new(graph_noise_seed(candidate, noise_salt));
    // Asymmetric noise, mostly harmless, occasionally an improvement —
    // matching the -1%..+3% initialization spread of Figure 3.
    let noise = noise_rng.normal() * params.init_noise + params.noise_mean;
    Ok((worst + noise).max(-0.01))
}

/// Surrogate fine-tuning: produces the same [`FinetuneResult`] shape as
/// the real path without training, following a geometric learning curve.
///
/// `inherited_frac` is the fraction of nodes initialized from a trained
/// candidate (1.0 when mutating an elite, lower when re-scales were
/// inserted); it speeds convergence, reproducing Figure 2.
pub fn surrogate_finetune(
    candidate: &AbsGraph,
    original: &CapacityVector,
    inherited_frac: f32,
    params: &SurrogateParams,
    cfg: &FinetuneConfig,
    noise_salt: u64,
    teacher_scores: &[f32],
) -> Result<FinetuneResult> {
    let mut asymptote = surrogate_asymptote(candidate, original, params, noise_salt)?;
    match cfg.inject {
        // Poisoned analytic curve: the same non-finite detection that
        // protects the real path must catch it.
        Some(FaultKind::NanLoss) => asymptote = f32::NAN,
        Some(FaultKind::GradExplode) => asymptote = f32::INFINITY,
        // Stall long enough for the supervisor's wall-clock deadline.
        Some(FaultKind::SlowCandidate) => {
            std::thread::sleep(std::time::Duration::from_millis(30));
        }
        Some(FaultKind::PanicEval) => {
            panic!("GMORPH_FAULT: injected panic in surrogate evaluation");
        }
        None => {}
    }
    // Initial drop right after mutation: a margin above the asymptote
    // that shrinks as more weights are inherited (fine-tuning can only
    // recover *toward* the architecture's asymptote, never below it).
    let init_drop = asymptote + 0.06 + 0.5 * (1.0 - inherited_frac.clamp(0.0, 1.0));
    let tau = params.tau_epochs * (2.0 - inherited_frac.clamp(0.0, 1.0));
    let drop_at =
        |e: usize| -> f32 { asymptote + (init_drop - asymptote) * (-(e as f32) / tau).exp() };

    let mut records = Vec::new();
    let mut terminated_early = false;
    let mut epochs_run = 0usize;
    let mut predictor = ConvergencePredictor::new();
    let _span = gmorph_telemetry::span!(
        "finetune",
        mode = "surrogate",
        max_epochs = cfg.max_epochs,
        target_drop = cfg.target_drop
    );
    gmorph_telemetry::counter!("finetune.runs");
    'outer: for epoch in (cfg.eval_every.max(1)..=cfg.max_epochs).step_by(cfg.eval_every.max(1)) {
        epochs_run = epoch;
        let drop = drop_at(epoch);
        let scores: Vec<f32> = teacher_scores.iter().map(|t| t - drop).collect();
        gmorph_telemetry::point!(
            "finetune.eval",
            mode = "surrogate",
            epoch = epoch,
            drop = drop
        );
        records.push(EvalRecord {
            epoch,
            drop,
            scores,
        });
        if drop <= cfg.target_drop {
            break 'outer;
        }
        if cfg.early_termination {
            predictor.push(1.0 - drop);
            if let Some(projected) =
                predictor.predict_final((cfg.max_epochs - epoch) / cfg.eval_every.max(1))
            {
                if 1.0 - projected > cfg.target_drop + 0.002 {
                    terminated_early = true;
                    gmorph_telemetry::point!(
                        "finetune.early_term",
                        mode = "surrogate",
                        epoch = epoch,
                        projected_drop = 1.0 - projected
                    );
                    break 'outer;
                }
            }
        }
    }
    if epochs_run == 0 {
        epochs_run = cfg.max_epochs.min(cfg.eval_every.max(1));
        let drop = drop_at(epochs_run);
        records.push(EvalRecord {
            epoch: epochs_run,
            drop,
            scores: teacher_scores.iter().map(|t| t - drop).collect(),
        });
    }
    gmorph_telemetry::counter!("finetune.epochs", epochs_run as u64);
    if terminated_early {
        gmorph_telemetry::counter!("finetune.early_terminated");
    }
    let last = records.last().expect("at least one record");
    health::check_loss("surrogate_finetune", last.drop)?;
    Ok(FinetuneResult {
        met_target: last.drop <= cfg.target_drop,
        final_drop: last.drop,
        final_scores: last.scores.clone(),
        epochs_run,
        records,
        terminated_early,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmorph_data::faces::{generate, FaceTask, FacesConfig};
    use gmorph_data::TaskSpec;
    use gmorph_graph::parser::{parse_models, parse_specs};
    use gmorph_graph::{generator, mutation, pairs};
    use gmorph_models::families::{vgg, VggDepth, VisionScale};
    use gmorph_models::train::{train_teacher, TrainConfig};
    use gmorph_nn::BlockSpec;

    #[test]
    fn max_drop_takes_worst_task() {
        assert!((max_drop(&[0.8, 0.9], &[0.85, 0.88]) - 0.05).abs() < 1e-6);
        // Improvements yield negative drop.
        assert!(max_drop(&[0.9, 0.95], &[0.85, 0.88]) < 0.0);
    }

    #[test]
    fn distillation_recovers_unmutated_model_instantly() {
        // An unmutated fused model equals its teachers, so the drop is ~0
        // and fine-tuning early-stops at the first evaluation.
        let mut rng = Rng::new(0);
        let cfg = FacesConfig {
            samples: 64,
            ..Default::default()
        };
        let ds = generate(&cfg, &[FaceTask::Gender, FaceTask::Age], &mut rng).unwrap();
        let split = ds.split(0.7, &mut rng).unwrap();
        let mut teachers: Vec<_> = ds
            .tasks
            .iter()
            .map(|t| {
                let spec = vgg(VggDepth::Vgg11, VisionScale::mini(), t).unwrap();
                let mut m = spec.build(&mut rng).unwrap();
                train_teacher(
                    &mut m,
                    &split.train,
                    &split.test,
                    ds.tasks.iter().position(|x| x == t).unwrap(),
                    &TrainConfig {
                        epochs: 2,
                        batch: 32,
                        lr: 2e-3,
                        seed: 0,
                    },
                )
                .unwrap();
                m
            })
            .collect();
        let teacher_scores: Vec<f32> = (0..2)
            .map(|t| gmorph_models::train::evaluate(&mut teachers[t], &split.test, t).unwrap())
            .collect();
        let (graph, store) = parse_models(&teachers).unwrap();
        let (mut tree, _) = generator::generate(&graph, &store, &mut rng).unwrap();
        let targets = teacher_targets(&mut teachers, &split.train.inputs).unwrap();
        let result = finetune(
            &mut tree,
            &split.train.inputs,
            &targets,
            &split.test,
            &teacher_scores,
            &FinetuneConfig {
                max_epochs: 4,
                eval_every: 1,
                target_drop: 0.005,
                batch: 32,
                lr: 5e-4,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(result.met_target, "drop = {}", result.final_drop);
        assert_eq!(result.epochs_run, 1, "should early-stop immediately");
    }

    #[test]
    fn distillation_trains_a_rescaled_mutant() {
        // A mild cross-task mutation plus a couple of distillation epochs
        // must improve (or at least not explode) the fused model.
        let mut rng = Rng::new(1);
        let cfg = FacesConfig {
            samples: 64,
            ..Default::default()
        };
        let ds = generate(&cfg, &[FaceTask::Gender, FaceTask::Age], &mut rng).unwrap();
        let split = ds.split(0.7, &mut rng).unwrap();
        let mut teachers: Vec<_> = ds
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let spec = vgg(VggDepth::Vgg11, VisionScale::mini(), t).unwrap();
                let mut m = spec.build(&mut rng).unwrap();
                train_teacher(
                    &mut m,
                    &split.train,
                    &split.test,
                    i,
                    &TrainConfig {
                        epochs: 2,
                        batch: 32,
                        lr: 2e-3,
                        seed: 0,
                    },
                )
                .unwrap();
                m
            })
            .collect();
        let teacher_scores = vec![0.9f32, 0.5];
        let (graph, store) = parse_models(&teachers).unwrap();
        let prs = pairs::shareable_pairs(&graph).unwrap();
        let cross = prs
            .iter()
            .find(|&&(n, m)| graph.node(n).unwrap().task_id != graph.node(m).unwrap().task_id)
            .copied()
            .unwrap();
        let (mutated, _) = mutation::mutation_pass(&graph, &[cross]).unwrap();
        let (mut tree, _) = generator::generate(&mutated, &store, &mut rng).unwrap();
        let targets = teacher_targets(&mut teachers, &split.train.inputs).unwrap();
        let r = finetune(
            &mut tree,
            &split.train.inputs,
            &targets,
            &split.test,
            &teacher_scores,
            &FinetuneConfig {
                max_epochs: 2,
                eval_every: 1,
                target_drop: -1.0, // Never met: run both epochs.
                batch: 32,
                lr: 1e-3,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.epochs_run, 2);
        assert_eq!(r.records.len(), 2);
        assert!(r.final_drop.is_finite());
    }

    fn toy_graph_pair() -> (AbsGraph, AbsGraph) {
        let t0 = TaskSpec::classification("a", 2);
        let t1 = TaskSpec::classification("b", 3);
        let g = parse_specs(&[
            vgg(VggDepth::Vgg13, VisionScale::mini(), &t0).unwrap(),
            vgg(VggDepth::Vgg13, VisionScale::mini(), &t1).unwrap(),
        ])
        .unwrap();
        // Aggressive mutation: task 1's head reuses a mid conv of task 0.
        let heads = g.head_of_task().unwrap();
        let mid = g
            .iter()
            .find(|(_, n)| n.task_id == 0 && n.op_id == 6)
            .map(|(id, _)| id)
            .unwrap();
        let (aggressive, _) = mutation::mutation_pass(&g, &[(mid, heads[1])]).unwrap();
        (g, aggressive)
    }

    #[test]
    fn surrogate_asymptote_grows_with_aggressiveness() {
        let (orig, aggressive) = toy_graph_pair();
        let cv = CapacityVector::of(&orig).unwrap();
        let p = SurrogateParams::default();
        let base = surrogate_asymptote(&orig, &cv, &p, 1).unwrap();
        let hard = surrogate_asymptote(&aggressive, &cv, &p, 1).unwrap();
        assert!(hard > base, "{hard} !> {base}");
    }

    #[test]
    fn surrogate_noise_varies_with_salt_but_is_deterministic() {
        let (orig, _) = toy_graph_pair();
        let cv = CapacityVector::of(&orig).unwrap();
        let p = SurrogateParams::default();
        let a1 = surrogate_asymptote(&orig, &cv, &p, 1).unwrap();
        let a1b = surrogate_asymptote(&orig, &cv, &p, 1).unwrap();
        let a2 = surrogate_asymptote(&orig, &cv, &p, 2).unwrap();
        assert_eq!(a1, a1b);
        assert_ne!(a1, a2);
    }

    #[test]
    fn surrogate_inheritance_speeds_convergence() {
        let (orig, aggressive) = toy_graph_pair();
        let cv = CapacityVector::of(&orig).unwrap();
        let p = SurrogateParams::default();
        let cfg = FinetuneConfig {
            max_epochs: 40,
            eval_every: 1,
            target_drop: 0.02,
            ..Default::default()
        };
        let scores = vec![0.8f32, 0.8];
        let fresh = surrogate_finetune(&aggressive, &cv, 0.2, &p, &cfg, 3, &scores).unwrap();
        let inherited = surrogate_finetune(&aggressive, &cv, 1.0, &p, &cfg, 3, &scores).unwrap();
        assert!(
            inherited.epochs_run <= fresh.epochs_run,
            "inherited {} !<= fresh {}",
            inherited.epochs_run,
            fresh.epochs_run
        );
    }

    #[test]
    fn surrogate_curve_is_monotone_toward_asymptote() {
        let (orig, aggressive) = toy_graph_pair();
        let cv = CapacityVector::of(&orig).unwrap();
        let cfg = FinetuneConfig {
            max_epochs: 30,
            eval_every: 1,
            target_drop: -1.0,
            ..Default::default()
        };
        let r = surrogate_finetune(
            &aggressive,
            &cv,
            0.5,
            &SurrogateParams::default(),
            &cfg,
            7,
            &[0.8, 0.8],
        )
        .unwrap();
        for w in r.records.windows(2) {
            assert!(w[1].drop <= w[0].drop + 1e-5);
        }
    }

    #[test]
    fn surrogate_injection_classifies_as_non_finite() {
        let (orig, aggressive) = toy_graph_pair();
        let cv = CapacityVector::of(&orig).unwrap();
        for kind in [FaultKind::NanLoss, FaultKind::GradExplode] {
            let cfg = FinetuneConfig {
                max_epochs: 8,
                eval_every: 1,
                target_drop: 0.02,
                inject: Some(kind),
                ..Default::default()
            };
            let err = surrogate_finetune(
                &aggressive,
                &cv,
                0.5,
                &SurrogateParams::default(),
                &cfg,
                7,
                &[0.8, 0.8],
            )
            .unwrap_err();
            assert_eq!(
                error::classify(&err),
                gmorph_tensor::FailureKind::NonFinite,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn dissimilar_rescale_counting() {
        let t0 = TaskSpec::classification("a", 2);
        let g = parse_specs(&[vgg(VggDepth::Vgg11, VisionScale::mini(), &t0).unwrap()]).unwrap();
        assert_eq!(dissimilar_rescales(&g), 0);
        let spec = BlockSpec::Rescale {
            from: vec![4, 16, 16],
            to: vec![8, 8, 8],
        };
        // All dims differ: counts as dissimilar.
        assert!(matches!(spec, BlockSpec::Rescale { .. }));
    }

    #[test]
    fn streamed_noise_seed_equals_hashing_the_signature_string() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let tasks = [
            TaskSpec::classification("a", 2),
            TaskSpec::classification("b", 3),
        ];
        let specs: Vec<_> = tasks
            .iter()
            .map(|t| vgg(VggDepth::Vgg11, VisionScale::mini(), t).unwrap())
            .collect();
        let g = parse_specs(&specs).unwrap();
        for salt in [0, 7, u64::MAX] {
            let mut h = DefaultHasher::new();
            g.signature().hash(&mut h);
            salt.hash(&mut h);
            assert_eq!(graph_noise_seed(&g, salt), h.finish(), "salt {salt}");
        }
    }

    #[test]
    fn noise_seeds_are_pinned() {
        // Every surrogate search draws its noise from these seeds, which
        // std's `DefaultHasher` computes. Its algorithm may change between
        // toolchains; this pin says so before a golden silently moves.
        let (orig, aggressive) = toy_graph_pair();
        let got: Vec<u64> = [&orig, &aggressive]
            .into_iter()
            .flat_map(|g| [0, 1, 0xDEAD_BEEF].map(|salt| graph_noise_seed(g, salt)))
            .collect();
        assert_eq!(
            got,
            vec![
                0x407b_21b2_710f_383a,
                0xd786_ab91_32f5_a029,
                0xee3d_7f94_1876_052f,
                0xc8ec_309e_e0ac_0a5e,
                0xed6a_3fea_5c74_48de,
                0x5497_f638_c09e_f18f,
            ]
        );
    }
}
