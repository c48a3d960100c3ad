//! Teacher training: fitting the task-specific "well-trained DNNs" that
//! GMorph takes as input.
//!
//! GMorph itself never trains with labels (fine-tuning is distillation,
//! §5.2); labels are used only here, to produce teachers, and in the
//! accuracy estimator, to *score* candidates.

use crate::model::SingleTaskModel;
use gmorph_data::metrics;
use gmorph_data::{Labels, LossKind, MultiTaskDataset};
use gmorph_nn::health;
use gmorph_nn::loss::{bce_with_logits, cross_entropy};
use gmorph_nn::optim::Optim;
use gmorph_nn::Mode;
use gmorph_tensor::rng::Rng;
use gmorph_tensor::{Result, Tensor, TensorError};

/// Teacher-training hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Batch size.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 8,
            batch: 32,
            lr: 3e-3,
            seed: 0,
        }
    }
}

/// Per-epoch record of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Test score after each epoch.
    pub scores: Vec<f32>,
    /// Final test score.
    pub final_score: f32,
}

fn batch_loss(
    logits: &Tensor,
    labels: &Labels,
    loss: LossKind,
    indices: &[usize],
) -> Result<(f32, Tensor)> {
    match (loss, labels) {
        (LossKind::CrossEntropy, Labels::Classes(all)) => {
            let batch_labels: Vec<usize> = indices.iter().map(|&i| all[i]).collect();
            cross_entropy(logits, &batch_labels)
        }
        (LossKind::BceMultiLabel, Labels::MultiHot(all)) => {
            let targets = all.select_rows(indices)?;
            bce_with_logits(logits, &targets)
        }
        _ => Err(TensorError::InvalidArgument {
            op: "batch_loss",
            msg: "loss/label kind mismatch".to_string(),
        }),
    }
}

/// Trains a teacher on one task of a dataset; returns per-epoch scores.
pub fn train_teacher(
    model: &mut SingleTaskModel,
    train: &MultiTaskDataset,
    test: &MultiTaskDataset,
    task_idx: usize,
    cfg: &TrainConfig,
) -> Result<TrainReport> {
    if task_idx >= train.tasks.len() {
        return Err(TensorError::OutOfBounds {
            op: "train_teacher",
            index: task_idx,
            bound: train.tasks.len(),
        });
    }
    let task = train.tasks[task_idx].clone();
    let _span = gmorph_telemetry::span!(
        "teacher.train",
        task = task.name.as_str(),
        epochs = cfg.epochs
    );
    let mut rng = Rng::new(cfg.seed ^ 0x07EA_C4E8);
    let mut opt = Optim::adam(cfg.lr);
    let mut scores = Vec::with_capacity(cfg.epochs);
    for epoch in 1..=cfg.epochs {
        for batch in train.batch_indices(cfg.batch, &mut rng) {
            let x = train.inputs.select_rows(&batch)?;
            let y = model.forward(&x, Mode::Train)?;
            let (loss, grad) = batch_loss(&y, &train.labels[task_idx], task.loss, &batch)?;
            // A non-finite teacher loss means the run is unsalvageable:
            // fail loudly with a structured event rather than silently
            // optimizing on NaN for the remaining epochs.
            health::check_loss("teacher.train", loss)?;
            model.backward(&grad)?;
            opt.begin_step();
            model.visit_params(&mut |p| opt.update(p));
        }
        let score = evaluate(model, test, task_idx)?;
        gmorph_telemetry::point!(
            "teacher.epoch",
            task = task.name.as_str(),
            epoch = epoch,
            score = score
        );
        gmorph_telemetry::counter!("teacher.epochs");
        scores.push(score);
    }
    let final_score = scores.last().copied().unwrap_or(0.0);
    Ok(TrainReport {
        scores,
        final_score,
    })
}

/// Scores a model on one task of a dataset with the task's metric.
pub fn evaluate(
    model: &mut SingleTaskModel,
    ds: &MultiTaskDataset,
    task_idx: usize,
) -> Result<f32> {
    let logits = eval_logits(model, ds)?;
    metrics::score(ds.tasks[task_idx].metric, &logits, &ds.labels[task_idx])
}

/// Runs a model over a dataset in eval mode, batching to bound memory.
pub(crate) fn eval_logits(model: &mut SingleTaskModel, ds: &MultiTaskDataset) -> Result<Tensor> {
    let mut outs = Vec::new();
    let n = ds.len();
    let batch = 64usize;
    let mut i = 0;
    while i < n {
        let hi = (i + batch).min(n);
        let ix: Vec<usize> = (i..hi).collect();
        let x = ds.inputs.select_rows(&ix)?;
        let y = model.forward(&x, Mode::Eval)?;
        for r in 0..y.dims()[0] {
            outs.push(y.row(r)?);
        }
        i = hi;
    }
    Tensor::stack(&outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::{vgg, VggDepth, VisionScale};
    use gmorph_data::faces::{generate, FaceTask, FacesConfig};

    #[test]
    fn teacher_learns_above_chance() {
        let mut rng = Rng::new(0);
        let cfg = FacesConfig {
            samples: 160,
            noise: 0.02,
            ..Default::default()
        };
        let ds = generate(&cfg, &[FaceTask::Gender], &mut rng).unwrap();
        let split = ds.split(0.75, &mut rng).unwrap();
        let spec = vgg(VggDepth::Vgg11, VisionScale::mini(), &ds.tasks[0]).unwrap();
        let mut model = spec.build(&mut rng).unwrap();
        let report = train_teacher(
            &mut model,
            &split.train,
            &split.test,
            0,
            &TrainConfig {
                epochs: 6,
                batch: 32,
                lr: 3e-3,
                seed: 1,
            },
        )
        .unwrap();
        assert_eq!(report.scores.len(), 6);
        assert!(
            report.final_score > 0.8,
            "gender teacher should beat chance decisively, got {}",
            report.final_score
        );
    }

    #[test]
    fn evaluate_rejects_bad_task_index() {
        let mut rng = Rng::new(1);
        let cfg = FacesConfig {
            samples: 8,
            ..Default::default()
        };
        let ds = generate(&cfg, &[FaceTask::Age], &mut rng).unwrap();
        let spec = vgg(VggDepth::Vgg11, VisionScale::mini(), &ds.tasks[0]).unwrap();
        let mut model = spec.build(&mut rng).unwrap();
        assert!(train_teacher(&mut model, &ds, &ds, 3, &TrainConfig::default()).is_err());
    }
}
