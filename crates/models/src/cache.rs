//! Trained-weight cache.
//!
//! Teachers are expensive to train relative to the experiments that consume
//! them, so trained weights (plus the teacher's test score) are persisted
//! under a cache directory keyed by architecture, session seed, training
//! data and training config. The paper's artifact ships pre-trained
//! `.model` files for the same reason.

use crate::model::{ModelSpec, SingleTaskModel};
use crate::train::{train_teacher, TrainConfig, TrainReport};
use gmorph_data::dataset::Split;
use gmorph_tensor::checkpoint::{fnv1a, FNV_OFFSET};
use gmorph_tensor::rng::Rng;
use gmorph_tensor::serialize::{load_state_dict, save_state_dict};
use gmorph_tensor::{Result, Tensor};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;

/// Returns the cache directory (`$GMORPH_CACHE_DIR` or
/// `target/gmorph-cache`).
pub fn cache_dir() -> PathBuf {
    std::env::var_os("GMORPH_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/gmorph-cache"))
}

/// Stable fingerprint of a model architecture.
pub fn fingerprint(spec: &ModelSpec) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{:?}", spec.blocks).hash(&mut h);
    spec.input_shape.hash(&mut h);
    spec.task.name.hash(&mut h);
    spec.task.classes.hash(&mut h);
    h.finish()
}

/// Cheap fingerprint of the training data so teachers trained on one
/// dataset (e.g. a smoke profile) are never served for another.
fn data_fingerprint(split: &Split) -> u64 {
    let mut h = DefaultHasher::new();
    split.train.len().hash(&mut h);
    split.test.len().hash(&mut h);
    // Checksum a few input values to distinguish same-sized datasets.
    let data = split.train.inputs.data();
    for &i in &[0usize, data.len() / 3, 2 * data.len() / 3] {
        if let Some(v) = data.get(i) {
            v.to_bits().hash(&mut h);
        }
    }
    h.finish()
}

/// Two runs that train the same teacher with different epochs, batch,
/// learning rate or shuffle seed get different entries.
fn cache_path(spec: &ModelSpec, split: &Split, cfg: &TrainConfig, seed: u64) -> PathBuf {
    let sane: String = spec
        .name
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect();
    cache_dir().join(format!(
        "{sane}-{seed}-{:016x}-{:016x}-{:016x}.gmrh",
        fingerprint(spec),
        data_fingerprint(split),
        fnv1a(format!("{cfg:?}").as_bytes(), FNV_OFFSET)
    ))
}

/// Loads a cached teacher or trains and caches one.
///
/// Returns the model and its held-out test score.
pub fn load_or_train(
    spec: &ModelSpec,
    split: &Split,
    task_idx: usize,
    cfg: &TrainConfig,
    seed: u64,
) -> Result<(SingleTaskModel, f32)> {
    let path = cache_path(spec, split, cfg, seed);
    let mut rng = Rng::new(seed ^ fingerprint(spec));
    let mut model = spec.build(&mut rng)?;
    if let Ok(entries) = load_state_dict(&path) {
        if let Some((_, score)) = entries.iter().find(|(k, _)| k == "__score") {
            let weights: Vec<(String, Tensor)> = entries
                .iter()
                .filter(|(k, _)| k != "__score")
                .cloned()
                .collect();
            if model.load_state_dict(&weights).is_ok() {
                return Ok((model, score.data()[0]));
            }
        }
    }
    let report: TrainReport = train_teacher(&mut model, &split.train, &split.test, task_idx, cfg)?;
    let mut entries = model.state_dict();
    entries.push((
        "__score".to_string(),
        Tensor::from_vec(&[1], vec![report.final_score])?,
    ));
    // Caching is best-effort: a read-only filesystem must not fail training.
    let _ = save_state_dict(&path, &entries);
    Ok((model, report.final_score))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::{vgg, VggDepth, VisionScale};
    use gmorph_data::faces::{generate, FaceTask, FacesConfig};
    use gmorph_data::TaskSpec;

    #[test]
    fn fingerprint_distinguishes_architectures() {
        let t = TaskSpec::classification("x", 2);
        let a = vgg(VggDepth::Vgg11, VisionScale::mini(), &t).unwrap();
        let b = vgg(VggDepth::Vgg13, VisionScale::mini(), &t).unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), fingerprint(&a));
    }

    #[test]
    fn load_or_train_roundtrips_through_cache() {
        let dir = std::env::temp_dir().join(format!("gmorph-cache-test-{}", std::process::id()));
        std::env::set_var("GMORPH_CACHE_DIR", &dir);
        let mut rng = Rng::new(0);
        let cfg = FacesConfig {
            samples: 48,
            ..Default::default()
        };
        let ds = generate(&cfg, &[FaceTask::Gender], &mut rng).unwrap();
        let split = ds.split(0.7, &mut rng).unwrap();
        let spec = vgg(VggDepth::Vgg11, VisionScale::mini(), &ds.tasks[0]).unwrap();
        let tc = TrainConfig {
            epochs: 1,
            batch: 16,
            lr: 1e-3,
            seed: 0,
        };
        let (m1, s1) = load_or_train(&spec, &split, 0, &tc, 9).unwrap();
        // Second call must hit the cache and return identical weights.
        let (m2, s2) = load_or_train(&spec, &split, 0, &tc, 9).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(m1.state_dict(), m2.state_dict());
        // A config that differs only in the shuffle seed must not be served
        // the cached teacher.
        let reshuffled = TrainConfig { seed: 1, ..tc };
        let (m3, _) = load_or_train(&spec, &split, 0, &reshuffled, 9).unwrap();
        assert_ne!(m1.state_dict(), m3.state_dict());
        std::env::remove_var("GMORPH_CACHE_DIR");
        std::fs::remove_dir_all(&dir).ok();
    }
}
