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
pub(crate) fn cache_dir() -> PathBuf {
    std::env::var_os("GMORPH_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/gmorph-cache"))
}

/// Stable fingerprint of a model architecture.
pub(crate) fn fingerprint(spec: &ModelSpec) -> u64 {
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
    fn zoo_fingerprints_are_pinned() {
        // Each teacher's initialization is seeded with its fingerprint,
        // which std's `DefaultHasher` computes. Its algorithm may change
        // between toolchains; this pin says so before the real-mode goldens
        // silently move.
        let got: Vec<Vec<u64>> = crate::zoo::BenchId::all()
            .into_iter()
            .map(|id| {
                let bench = crate::zoo::build(id, &crate::zoo::DataProfile::smoke(), 0).unwrap();
                bench.mini.iter().map(fingerprint).collect()
            })
            .collect();
        assert_eq!(
            got,
            vec![
                vec![
                    0xd907_0a80_8749_a175,
                    0x75d4_4dcc_f273_6cd3,
                    0x4476_be04_efe0_2ac5
                ], // B1
                vec![
                    0x5515_c899_f559_7d89,
                    0x910d_dd5c_5e15_0424,
                    0xcb61_98ef_8242_3605
                ], // B2
                vec![
                    0xe610_e1bc_0adf_43c5,
                    0x910d_dd5c_5e15_0424,
                    0xf66a_feb4_150f_fbcb
                ], // B3
                vec![0x1ac2_2fae_43bf_dbf9, 0x827c_c56d_6e8a_4645], // B4
                vec![0x1ac2_2fae_43bf_dbf9, 0x0d9c_dea5_7b7b_163b], // B5
                vec![0x5617_3fc3_7443_c987, 0xd812_5c8f_abb1_a7f5], // B6
                vec![0x4435_0059_f6b3_faa1, 0xa1b4_757e_ef96_d870], // B7
            ]
        );
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
