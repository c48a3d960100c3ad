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
use gmorph_tensor::checkpoint::{
    fnv1a, load_latest, ByteReader, ByteWriter, CheckpointManager, CheckpointOptions, Envelope,
    FNV_OFFSET,
};
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

/// Payload kind of teacher-training snapshots.
pub const TEACHER_KIND: &str = "teacher";
/// Schema version of teacher-training snapshots.
pub const TEACHER_SCHEMA: u32 = 1;

/// Fingerprints the training configuration plus model/task identity: a
/// teacher snapshot must only resume the exact run it was written for.
fn teacher_fingerprint(model: &mut SingleTaskModel, task_name: &str, cfg: &TrainConfig) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv1a(format!("{cfg:?}").as_bytes(), h);
    h = fnv1a(task_name.as_bytes(), h);
    model.visit_params(&mut |p| {
        h = fnv1a(&(p.value.numel() as u64).to_le_bytes(), h);
    });
    h
}

/// Serializes the resumable training state: model parameters with their
/// Adam moments (in `visit_params` traversal order), the optimizer's
/// bias-correction step counter, the shuffling RNG, and the learning
/// curve so far.
fn encode_teacher(
    model: &mut SingleTaskModel,
    opt: &Optim,
    rng: &Rng,
    scores: &[f32],
    epoch: usize,
    fingerprint: u64,
) -> Envelope {
    let mut env = Envelope::new(TEACHER_KIND, TEACHER_SCHEMA);

    let mut w = ByteWriter::new();
    w.put_u64(fingerprint);
    w.put_u64(epoch as u64);
    w.put_u64(opt.step_count());
    w.put_u32(scores.len() as u32);
    for &s in scores {
        w.put_f32(s);
    }
    env.push("meta", w.into_bytes());

    let state = rng.state();
    let mut w = ByteWriter::new();
    for k in state.key {
        w.put_u32(k);
    }
    w.put_u64(state.counter);
    for b in state.buf {
        w.put_u32(b);
    }
    w.put_u64(state.index as u64);
    match state.spare_normal {
        Some(z) => {
            w.put_u8(1);
            w.put_f32(z);
        }
        None => w.put_u8(0),
    }
    env.push("rng", w.into_bytes());

    let mut w = ByteWriter::new();
    let mut count = 0u32;
    model.visit_params(&mut |_| count += 1);
    w.put_u32(count);
    model.visit_params(&mut |p| {
        w.put_u64(p.value.numel() as u64);
        for t in [&p.value, &p.m, &p.v] {
            for &x in t.data() {
                w.put_f32(x);
            }
        }
    });
    env.push("params", w.into_bytes());
    env
}

/// Restores training state from a snapshot; returns
/// `(next_epoch, scores_so_far)`.
fn decode_teacher(
    env: &Envelope,
    model: &mut SingleTaskModel,
    opt: &mut Optim,
    rng: &mut Rng,
    fingerprint: u64,
) -> Result<Option<(usize, Vec<f32>)>> {
    if env.schema != TEACHER_SCHEMA {
        return Err(TensorError::Io(format!(
            "checkpoint corrupt: teacher schema v{} unsupported (expected v{TEACHER_SCHEMA})",
            env.schema
        )));
    }
    let mut r = ByteReader::new(env.section("meta")?);
    if r.get_u64()? != fingerprint {
        // Same kind, different run: not corruption, just not ours.
        return Ok(None);
    }
    let epoch = r.get_u64()? as usize;
    let steps = r.get_u64()?;
    let n = r.get_u32()? as usize;
    let mut scores = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        scores.push(r.get_f32()?);
    }

    let mut r = ByteReader::new(env.section("rng")?);
    let mut key = [0u32; 8];
    for k in &mut key {
        *k = r.get_u32()?;
    }
    let counter = r.get_u64()?;
    let mut buf = [0u32; 16];
    for b in &mut buf {
        *b = r.get_u32()?;
    }
    let index = r.get_len(16)?;
    let spare_normal = match r.get_u8()? {
        0 => None,
        _ => Some(r.get_f32()?),
    };
    *rng = Rng::restore(&gmorph_tensor::rng::RngState {
        key,
        counter,
        buf,
        index,
        spare_normal,
    });
    opt.set_step_count(steps);

    let mut r = ByteReader::new(env.section("params")?);
    let count = r.get_u32()?;
    let mut actual = 0u32;
    model.visit_params(&mut |_| actual += 1);
    if count != actual {
        return Err(TensorError::Io(format!(
            "checkpoint corrupt: snapshot has {count} parameters, model has {actual}"
        )));
    }
    let mut err: Option<TensorError> = None;
    model.visit_params(&mut |p| {
        if err.is_some() {
            return;
        }
        let mut restore = || -> Result<()> {
            let numel = r.get_len(1 << 28)?;
            if numel != p.value.numel() {
                return Err(TensorError::Io(format!(
                    "checkpoint corrupt: parameter numel {numel} != model's {}",
                    p.value.numel()
                )));
            }
            for t in [&mut p.value, &mut p.m, &mut p.v] {
                for x in t.data_mut() {
                    *x = r.get_f32()?;
                }
            }
            p.zero_grad();
            Ok(())
        };
        err = restore().err();
    });
    match err {
        Some(e) => Err(e),
        None => Ok(Some((epoch + 1, scores))),
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
    train_teacher_checkpointed(model, train, test, task_idx, cfg, None)
}

/// Trains a teacher with optional crash-safe checkpointing.
///
/// With `ckpt = Some(opts)` the full training state — parameters with
/// optimizer moments, the Adam step counter, the shuffling RNG, and the
/// learning curve — is snapshotted after every epoch, and (when
/// `opts.resume` is set) restored from the newest valid snapshot before
/// training. A resumed run reproduces the uninterrupted run's loss
/// trajectory bit-exactly.
pub fn train_teacher_checkpointed(
    model: &mut SingleTaskModel,
    train: &MultiTaskDataset,
    test: &MultiTaskDataset,
    task_idx: usize,
    cfg: &TrainConfig,
    ckpt: Option<&CheckpointOptions>,
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
    let mut start_epoch = 1usize;
    let fingerprint = teacher_fingerprint(model, &task.name, cfg);
    if let Some(opts) = ckpt {
        if opts.resume {
            if let Some(env) = load_latest(&opts.dir, TEACHER_KIND, TEACHER_KIND)? {
                if let Some((next, restored)) =
                    decode_teacher(&env, model, &mut opt, &mut rng, fingerprint)?
                {
                    start_epoch = next;
                    scores = restored;
                    gmorph_telemetry::point!(
                        "teacher.resumed",
                        task = task.name.as_str(),
                        next_epoch = start_epoch
                    );
                }
            }
        }
    }
    let mut manager = ckpt.map(|opts| CheckpointManager::new(opts, TEACHER_KIND));
    for epoch in start_epoch..=cfg.epochs {
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
        if let Some(mgr) = manager.as_mut() {
            let env = encode_teacher(model, &opt, &rng, &scores, epoch, fingerprint);
            mgr.tick(epoch..=epoch, env)?;
        }
        if let Some(opts) = ckpt {
            opts.maybe_crash(epoch..=epoch);
        }
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
pub fn eval_logits(model: &mut SingleTaskModel, ds: &MultiTaskDataset) -> Result<Tensor> {
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
        assert!(train_teacher(
            &mut model,
            &ds,
            &ds,
            3,
            &TrainConfig::default()
        )
        .is_err());
    }
}
