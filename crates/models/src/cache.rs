//! Trained-weight cache.
//!
//! Teachers are expensive to train relative to the experiments that consume
//! them, so trained weights (plus the teacher's test score) are persisted
//! under a cache directory keyed by architecture, session seed, training
//! data and training config. The paper's artifact ships pre-trained
//! `.model` files for the same reason.
//!
//! An entry is a checkpoint envelope of kind `teacher`, written atomically
//! and CRC-checked on load, with two sections: `score`, the test score as
//! one `f32`, and `weights`, the model's state dict (batch-norm running
//! statistics included). An entry that fails to load is retrained.

use crate::model::{ModelSpec, SingleTaskModel};
use crate::train::{train_teacher, TrainConfig};
use gmorph_data::dataset::Split;
use gmorph_tensor::checkpoint::{
    fnv1a, load, save_atomic, ByteReader, ByteWriter, Envelope, FNV_OFFSET,
};
use gmorph_tensor::rng::Rng;
use gmorph_tensor::serialize::{read_state_dict, write_state_dict};
use gmorph_tensor::{Result, Tensor, TensorError};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

/// Payload kind of teacher cache entries.
const TEACHER_KIND: &str = "teacher";
/// Schema version of teacher cache entries.
const TEACHER_SCHEMA: u32 = 1;

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
        "{sane}-{seed}-{:016x}-{:016x}-{:016x}.gmck",
        fingerprint(spec),
        data_fingerprint(split),
        fnv1a(format!("{cfg:?}").as_bytes(), FNV_OFFSET)
    ))
}

/// Writes a teacher and its score as a cache entry.
fn save_entry(path: &Path, model: &SingleTaskModel, score: f32) -> Result<()> {
    let mut env = Envelope::new(TEACHER_KIND, TEACHER_SCHEMA);
    let mut w = ByteWriter::new();
    w.put_f32(score);
    env.push("score", w.into_bytes());
    let mut w = ByteWriter::new();
    write_state_dict(&mut w, &model.state_dict());
    env.push("weights", w.into_bytes());
    save_atomic(path, &env)
}

/// Reads a cache entry: the teacher's score and state dict.
fn read_entry(path: &Path) -> Result<(f32, Vec<(String, Tensor)>)> {
    let env = load(path, TEACHER_KIND)?;
    if env.schema != TEACHER_SCHEMA {
        return Err(TensorError::Io(format!(
            "checkpoint corrupt: teacher schema v{} unsupported (expected v{TEACHER_SCHEMA})",
            env.schema
        )));
    }
    let score = ByteReader::new(env.section("score")?).get_f32()?;
    let weights = read_state_dict(&mut ByteReader::new(env.section("weights")?))?;
    Ok((score, weights))
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
    let init_seed = seed ^ fingerprint(spec);
    if let Ok((score, weights)) = read_entry(&path) {
        let mut model = spec.build(&mut Rng::new(init_seed))?;
        if model.load_state_dict(&weights).is_ok() {
            return Ok((model, score));
        }
    }
    // Weights that fail to load may have overwritten some blocks first, so
    // training starts from a fresh build: the result equals a cold run.
    let mut model = spec.build(&mut Rng::new(init_seed))?;
    let report = train_teacher(&mut model, &split.train, &split.test, task_idx, cfg)?;
    // Caching is best-effort: a read-only filesystem must not fail training.
    let _ = save_entry(&path, &model, report.final_score);
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

    /// Serializes the tests that point `GMORPH_CACHE_DIR` at their own
    /// directory.
    static CACHE_DIR_ENV: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Points the cache at an empty directory named by `tag`, and returns
    /// it with a face-gender split, a VGG-11 spec and a one-epoch config.
    fn tiny_teacher(tag: &str) -> (PathBuf, Split, ModelSpec, TrainConfig) {
        let dir = std::env::temp_dir().join(format!("gmorph-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
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
        (dir, split, spec, tc)
    }

    #[test]
    fn load_or_train_roundtrips_through_cache() {
        let _env = CACHE_DIR_ENV.lock().unwrap_or_else(|e| e.into_inner());
        let (dir, split, spec, tc) = tiny_teacher("cache-roundtrip");
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

    #[test]
    fn corrupt_or_foreign_entries_are_rejected_and_retrained() {
        use gmorph_tensor::checkpoint::is_corruption;
        let _env = CACHE_DIR_ENV.lock().unwrap_or_else(|e| e.into_inner());
        let (dir, split, spec, tc) = tiny_teacher("cache-corrupt");
        let (cold, cold_score) = load_or_train(&spec, &split, 0, &tc, 9).unwrap();
        let path = cache_path(&spec, &split, &tc, 9);
        let bytes = std::fs::read(&path).unwrap();
        // Each rejected entry is retrained into the cold run's teacher,
        // which rewrites the entry byte for byte.
        let retrains_to_the_cold_teacher = |what: &str| {
            let (model, score) = load_or_train(&spec, &split, 0, &tc, 9).unwrap();
            assert_eq!(score.to_bits(), cold_score.to_bits(), "{what}");
            assert_eq!(model.state_dict(), cold.state_dict(), "{what}");
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "{what}");
        };

        // Every header byte (magic, format, body length, CRC) and every
        // 61st body byte.
        for at in (0..20).chain((20..bytes.len()).step_by(61)) {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0xA5;
            std::fs::write(&path, &flipped).unwrap();
            let err = load(&path, TEACHER_KIND).unwrap_err();
            assert!(is_corruption(&err), "byte {at}: {err}");
        }
        retrains_to_the_cold_teacher("flipped body byte");
        let mut flipped = bytes.clone();
        flipped[0] ^= 0xA5;
        std::fs::write(&path, &flipped).unwrap();
        retrains_to_the_cold_teacher("flipped header byte");

        // A model file under the entry's name is another subsystem's.
        let mut foreign = Envelope::decode(&bytes).unwrap();
        foreign.kind = "model".to_string();
        save_atomic(&path, &foreign).unwrap();
        assert!(is_corruption(&load(&path, TEACHER_KIND).unwrap_err()));
        retrains_to_the_cold_teacher("model-kind envelope");

        // A well-formed entry that holds the trained weights of the first
        // block only: loading it fails after that block was overwritten.
        let first_block: Vec<_> = cold
            .state_dict()
            .into_iter()
            .filter(|(k, _)| k.starts_with("block0."))
            .collect();
        let mut partial = Envelope::decode(&bytes).unwrap();
        let mut weights = ByteWriter::new();
        write_state_dict(&mut weights, &first_block);
        partial.sections[1].1 = weights.into_bytes();
        save_atomic(&path, &partial).unwrap();
        retrains_to_the_cold_teacher("first block only");

        std::env::remove_var("GMORPH_CACHE_DIR");
        std::fs::remove_dir_all(&dir).ok();
    }
}
