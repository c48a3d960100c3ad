//! Synthetic face-attribute dataset (Vision Support stand-in).
//!
//! Stands in for UTKFace (age/gender/ethnicity), FER2013 (emotion), and
//! Adience (age/gender). Each sample is generated from a latent vector
//! `z = (identity, age, gender, ethnicity, emotion, noise)`; the latent is
//! rendered into a `[C, S, S]` image through fixed low-frequency random
//! bases shared by *all* factors, so the tasks' early visual features
//! genuinely overlap — the property model fusion exploits.

use crate::dataset::{Labels, MultiTaskDataset};
use crate::render;
use crate::task::TaskSpec;
use gmorph_tensor::rng::Rng;
use gmorph_tensor::{Result, Tensor};

/// Configuration for [`generate`].
#[derive(Debug, Clone)]
pub struct FacesConfig {
    /// Number of samples.
    pub samples: usize,
    /// Image side length.
    pub img: usize,
    /// Image channels.
    pub channels: usize,
    /// Age classes.
    pub age_classes: usize,
    /// Ethnicity classes.
    pub ethnicity_classes: usize,
    /// Emotion classes.
    pub emotion_classes: usize,
    /// Observation noise standard deviation.
    pub noise: f32,
}

impl Default for FacesConfig {
    fn default() -> Self {
        FacesConfig {
            samples: 512,
            img: 16,
            channels: 3,
            age_classes: 4,
            ethnicity_classes: 3,
            emotion_classes: 4,
            noise: 0.05,
        }
    }
}

/// Which face tasks to include, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaceTask {
    /// Age bucket classification.
    Age,
    /// Binary gender classification.
    Gender,
    /// Ethnicity classification.
    Ethnicity,
    /// Emotion classification.
    Emotion,
}

/// Generates a face dataset with the requested tasks.
///
/// # Examples
///
/// ```
/// use gmorph_data::faces::{generate, FaceTask, FacesConfig};
/// use gmorph_tensor::rng::Rng;
///
/// let mut rng = Rng::new(0);
/// let cfg = FacesConfig { samples: 8, ..Default::default() };
/// let ds = generate(&cfg, &[FaceTask::Age, FaceTask::Gender], &mut rng).unwrap();
/// assert_eq!(ds.len(), 8);
/// assert_eq!(ds.tasks.len(), 2);
/// ```
pub fn generate(cfg: &FacesConfig, tasks: &[FaceTask], rng: &mut Rng) -> Result<MultiTaskDataset> {
    // One fixed rendering basis per latent factor, shared across samples.
    // Factors: 2 identity dims, age, gender, ethnicity (one basis per
    // class), emotion (one basis per class).
    let mut basis_rng = rng.fork(0xFACE);
    let n_bases = 2 + 1 + 1 + cfg.ethnicity_classes + cfg.emotion_classes;
    let bases = render::random_bases(n_bases, cfg.channels, cfg.img, &mut basis_rng);

    let img_len = cfg.channels * cfg.img * cfg.img;
    let mut data = vec![0.0f32; cfg.samples * img_len];
    let mut age = Vec::with_capacity(cfg.samples);
    let mut gender = Vec::with_capacity(cfg.samples);
    let mut ethnicity = Vec::with_capacity(cfg.samples);
    let mut emotion = Vec::with_capacity(cfg.samples);

    for s in 0..cfg.samples {
        let id0 = rng.normal();
        let id1 = rng.normal();
        let age_f = rng.uniform(0.0, 1.0);
        let gender_c = rng.below(2);
        let eth_c = rng.below(cfg.ethnicity_classes);
        let emo_c = rng.below(cfg.emotion_classes);

        let sample = &mut data[s * img_len..(s + 1) * img_len];
        let mut bi = 0usize;
        render::add_scaled(sample, &bases[bi], 0.5 * id0);
        bi += 1;
        render::add_scaled(sample, &bases[bi], 0.5 * id1);
        bi += 1;
        render::add_scaled(sample, &bases[bi], 2.0 * (age_f - 0.5));
        bi += 1;
        render::add_scaled(sample, &bases[bi], if gender_c == 1 { 1.0 } else { -1.0 });
        bi += 1;
        render::add_scaled(sample, &bases[bi + eth_c], 1.0);
        bi += cfg.ethnicity_classes;
        render::add_scaled(sample, &bases[bi + emo_c], 1.0);
        for v in sample.iter_mut() {
            *v += cfg.noise * rng.normal();
        }

        age.push(((age_f * cfg.age_classes as f32) as usize).min(cfg.age_classes - 1));
        gender.push(gender_c);
        ethnicity.push(eth_c);
        emotion.push(emo_c);
    }

    let inputs = Tensor::from_vec(&[cfg.samples, cfg.channels, cfg.img, cfg.img], data)?;
    let mut specs = Vec::new();
    let mut labels = Vec::new();
    for t in tasks {
        match t {
            FaceTask::Age => {
                specs.push(TaskSpec::classification("AgeNet", cfg.age_classes));
                labels.push(Labels::Classes(age.clone()));
            }
            FaceTask::Gender => {
                specs.push(TaskSpec::classification("GenderNet", 2));
                labels.push(Labels::Classes(gender.clone()));
            }
            FaceTask::Ethnicity => {
                specs.push(TaskSpec::classification(
                    "EthnicityNet",
                    cfg.ethnicity_classes,
                ));
                labels.push(Labels::Classes(ethnicity.clone()));
            }
            FaceTask::Emotion => {
                specs.push(TaskSpec::classification("EmotionNet", cfg.emotion_classes));
                labels.push(Labels::Classes(emotion.clone()));
            }
        }
    }
    MultiTaskDataset::new(inputs, specs, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_label_ranges() {
        let mut rng = Rng::new(0);
        let cfg = FacesConfig {
            samples: 32,
            ..Default::default()
        };
        let ds = generate(
            &cfg,
            &[FaceTask::Age, FaceTask::Gender, FaceTask::Ethnicity],
            &mut rng,
        )
        .unwrap();
        assert_eq!(ds.inputs.dims(), &[32, 3, 16, 16]);
        match &ds.labels[0] {
            Labels::Classes(v) => assert!(v.iter().all(|&c| c < cfg.age_classes)),
            _ => panic!(),
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = FacesConfig {
            samples: 8,
            ..Default::default()
        };
        let a = generate(&cfg, &[FaceTask::Age], &mut Rng::new(5)).unwrap();
        let b = generate(&cfg, &[FaceTask::Age], &mut Rng::new(5)).unwrap();
        assert_eq!(a.inputs.data(), b.inputs.data());
        assert_eq!(a.labels[0], b.labels[0]);
    }

    #[test]
    fn labels_are_visually_separable() {
        // A nearest-centroid classifier on raw pixels should beat chance on
        // gender; otherwise the tasks would be unlearnable.
        let mut rng = Rng::new(1);
        let cfg = FacesConfig {
            samples: 200,
            noise: 0.02,
            ..Default::default()
        };
        let ds = generate(&cfg, &[FaceTask::Gender], &mut rng).unwrap();
        let labels = match &ds.labels[0] {
            Labels::Classes(v) => v.clone(),
            _ => panic!(),
        };
        let d = ds.inputs.numel() / ds.len();
        let mut centroids = vec![vec![0.0f32; d]; 2];
        let mut counts = [0usize; 2];
        for (i, &l) in labels.iter().enumerate() {
            counts[l] += 1;
            for (j, cv) in centroids[l].iter_mut().enumerate() {
                *cv += ds.inputs.data()[i * d + j];
            }
        }
        for (c, cnt) in centroids.iter_mut().zip(counts.iter()) {
            for v in c.iter_mut() {
                *v /= (*cnt).max(1) as f32;
            }
        }
        let mut correct = 0usize;
        for (i, &l) in labels.iter().enumerate() {
            let x = &ds.inputs.data()[i * d..(i + 1) * d];
            let dist = |c: &Vec<f32>| -> f32 {
                x.iter().zip(c.iter()).map(|(a, b)| (a - b) * (a - b)).sum()
            };
            let pred = if dist(&centroids[0]) < dist(&centroids[1]) {
                0
            } else {
                1
            };
            if pred == l {
                correct += 1;
            }
        }
        let acc = correct as f32 / labels.len() as f32;
        assert!(acc > 0.8, "centroid accuracy {acc}");
    }
}
