//! Accuracy-evaluation backends for the search driver.
//!
//! `Real` runs §5.2's distillation fine-tuning on the mini-scale model —
//! end-to-end faithful, used for the small-budget experiments and tests.
//! `Surrogate` replaces fine-tuning with the calibrated analytic model of
//! `gmorph_perf::accuracy` so the full 7-benchmark grids run in minutes
//! while preserving the search dynamics (see DESIGN.md §1).

use gmorph_data::MultiTaskDataset;
use gmorph_graph::{generator, parser, AbsGraph, CapacityVector, WeightStore};
use gmorph_perf::accuracy::{
    finetune, surrogate_finetune, FinetuneConfig, FinetuneResult, SurrogateParams,
};
use gmorph_tensor::rng::Rng;
use gmorph_tensor::{Result, Tensor};

/// State for real distillation-based evaluation.
#[derive(Debug, Clone)]
pub struct RealContext {
    /// Representative (unlabeled) fine-tuning inputs.
    pub train_inputs: Tensor,
    /// Teacher outputs over `train_inputs`, one per task.
    pub targets: Vec<Tensor>,
    /// Labelled test split for scoring.
    pub test: MultiTaskDataset,
    /// Teacher test scores anchoring the drop.
    pub teacher_scores: Vec<f32>,
}

/// State for surrogate evaluation.
#[derive(Debug, Clone)]
pub struct SurrogateContext {
    /// Capacity vector of the original multi-DNN graph.
    pub orig_capacity: CapacityVector,
    /// Surrogate calibration.
    pub params: SurrogateParams,
    /// Teacher test scores anchoring the drop.
    pub teacher_scores: Vec<f32>,
}

/// The evaluation backend.
#[derive(Debug, Clone)]
pub enum EvalMode {
    /// Distillation fine-tuning of the generated mini-scale model.
    Real(RealContext),
    /// Calibrated analytic learning-curve model.
    Surrogate(SurrogateContext),
}

/// Result of evaluating one candidate: the fine-tuning outcome, the
/// (possibly trained) weights to store for inheritance, and the fraction
/// of nodes that inherited weights.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Fine-tuning outcome.
    pub result: FinetuneResult,
    /// Weights to record in the History Database for this candidate.
    pub weights: WeightStore,
    /// Fraction of candidate nodes initialized from the base weights.
    pub inherited_frac: f32,
}

/// Fraction of `candidate` nodes whose `(key, spec)` resolve in `weights`.
pub fn inherited_fraction(candidate: &AbsGraph, weights: &WeightStore) -> f32 {
    let total = candidate.len().max(1);
    let hits = candidate
        .iter()
        .filter(|(_, n)| weights.lookup(n.key(), &n.spec).is_some())
        .count();
    hits as f32 / total as f32
}

impl EvalMode {
    /// Teacher scores the drop is measured against.
    pub(crate) fn teacher_scores(&self) -> &[f32] {
        match self {
            EvalMode::Real(c) => &c.teacher_scores,
            EvalMode::Surrogate(c) => &c.teacher_scores,
        }
    }

    /// Evaluates a candidate initialized from `base_weights`.
    ///
    /// `noise_salt` keeps surrogate initialization noise distinct across
    /// re-evaluations of identical architectures (the Figure 3 effect).
    pub fn evaluate(
        &self,
        candidate: &AbsGraph,
        base_weights: &WeightStore,
        cfg: &FinetuneConfig,
        rng: &mut Rng,
        noise_salt: u64,
    ) -> Result<Evaluation> {
        let inherited_frac = inherited_fraction(candidate, base_weights);
        match self {
            EvalMode::Real(ctx) => {
                let (mut tree, _) = generator::generate(candidate, base_weights, rng)?;
                let result = finetune(
                    &mut tree,
                    &ctx.train_inputs,
                    &ctx.targets,
                    &ctx.test,
                    &ctx.teacher_scores,
                    cfg,
                )?;
                let weights = parser::extract_weights(&tree);
                Ok(Evaluation {
                    result,
                    weights,
                    inherited_frac,
                })
            }
            EvalMode::Surrogate(ctx) => {
                let result = surrogate_finetune(
                    candidate,
                    &ctx.orig_capacity,
                    inherited_frac,
                    &ctx.params,
                    cfg,
                    noise_salt,
                    &ctx.teacher_scores,
                )?;
                // Mark every node of the candidate as "trained" so future
                // mutations of this candidate count as inheriting.
                let mut weights = WeightStore::new();
                for (_, n) in candidate.iter() {
                    weights.insert(n.key(), n.spec.clone(), Vec::new());
                }
                Ok(Evaluation {
                    result,
                    weights,
                    inherited_frac,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmorph_data::TaskSpec;
    use gmorph_graph::parser::parse_specs;
    use gmorph_graph::{mutation, pairs};
    use gmorph_models::families::{vgg, VggDepth, VisionScale};

    fn graph() -> AbsGraph {
        let t0 = TaskSpec::classification("a", 2);
        let t1 = TaskSpec::classification("b", 3);
        parse_specs(&[
            vgg(VggDepth::Vgg11, VisionScale::mini(), &t0).unwrap(),
            vgg(VggDepth::Vgg11, VisionScale::mini(), &t1).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn inherited_fraction_counts_lookup_hits() {
        let g = graph();
        let empty = WeightStore::new();
        assert_eq!(inherited_fraction(&g, &empty), 0.0);
        let mut full = WeightStore::new();
        for (_, n) in g.iter() {
            full.insert(n.key(), n.spec.clone(), Vec::new());
        }
        assert_eq!(inherited_fraction(&g, &full), 1.0);
    }

    #[test]
    fn surrogate_evaluation_marks_all_nodes_trained() {
        let g = graph();
        let ctx = SurrogateContext {
            orig_capacity: CapacityVector::of(&g).unwrap(),
            params: SurrogateParams::default(),
            teacher_scores: vec![0.8, 0.8],
        };
        let mode = EvalMode::Surrogate(ctx);
        let mut rng = Rng::new(0);
        let cfg = FinetuneConfig {
            max_epochs: 10,
            eval_every: 1,
            target_drop: 0.02,
            ..Default::default()
        };
        let ev = mode
            .evaluate(&g, &WeightStore::new(), &cfg, &mut rng, 1)
            .unwrap();
        assert_eq!(ev.weights.len(), g.len());
        assert_eq!(ev.inherited_frac, 0.0);
        // Mutating the evaluated candidate now inherits almost fully.
        let prs = pairs::shareable_pairs(&g).unwrap();
        let (mutated, _) = mutation::mutation_pass(&g, &[prs[0]]).unwrap();
        let frac = inherited_fraction(&mutated, &ev.weights);
        assert!(frac > 0.8, "frac = {frac}");
    }

    #[test]
    fn surrogate_unmutated_graph_meets_target_quickly() {
        let g = graph();
        let ctx = SurrogateContext {
            orig_capacity: CapacityVector::of(&g).unwrap(),
            params: SurrogateParams::default(),
            teacher_scores: vec![0.8, 0.8],
        };
        let mode = EvalMode::Surrogate(ctx);
        let mut rng = Rng::new(0);
        let mut full = WeightStore::new();
        for (_, n) in g.iter() {
            full.insert(n.key(), n.spec.clone(), Vec::new());
        }
        let cfg = FinetuneConfig {
            max_epochs: 30,
            eval_every: 1,
            target_drop: 0.05,
            ..Default::default()
        };
        let ev = mode.evaluate(&g, &full, &cfg, &mut rng, 2).unwrap();
        assert!(ev.result.met_target);
        assert!(ev.result.epochs_run < 30);
    }
}
