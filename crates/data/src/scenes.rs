//! Synthetic scene dataset (Lifelogging stand-in).
//!
//! Stands in for PASCAL VOC2007 (multi-label object presence, scored with
//! mAP) and SOS (salient object subitizing: predicting "the existence and
//! the number of salient objects"). Each scene contains a random subset of
//! object classes rendered as shifted class-specific patterns; the salient
//! count is the number of objects rendered above a saliency intensity
//! threshold, so the two tasks share the same low-level evidence.

use crate::dataset::{Labels, MultiTaskDataset};
use crate::render;
use crate::task::TaskSpec;
use gmorph_tensor::rng::Rng;
use gmorph_tensor::{Result, Tensor};

/// Configuration for [`generate`].
#[derive(Debug, Clone)]
pub struct ScenesConfig {
    /// Number of samples.
    pub samples: usize,
    /// Image side length.
    pub img: usize,
    /// Image channels.
    pub channels: usize,
    /// Number of object classes.
    pub object_classes: usize,
    /// Maximum salient count (labels are `0..=max_salient`).
    pub max_salient: usize,
    /// Per-object presence probability.
    pub presence_p: f32,
    /// Intensity above which an object counts as salient.
    pub salient_threshold: f32,
    /// Observation noise standard deviation.
    pub noise: f32,
}

impl Default for ScenesConfig {
    fn default() -> Self {
        ScenesConfig {
            samples: 512,
            img: 16,
            channels: 3,
            object_classes: 6,
            max_salient: 4,
            presence_p: 0.35,
            salient_threshold: 0.9,
            noise: 0.05,
        }
    }
}

/// Number of salient-count classes for a config.
pub(crate) fn salient_classes(cfg: &ScenesConfig) -> usize {
    cfg.max_salient + 1
}

/// Generates the scenes dataset with an ObjectNet (multi-label, mAP) task
/// and a SalientNet (count classification) task, in that order.
///
/// # Examples
///
/// ```
/// use gmorph_data::scenes::{generate, ScenesConfig};
/// use gmorph_tensor::rng::Rng;
///
/// let mut rng = Rng::new(0);
/// let cfg = ScenesConfig { samples: 4, ..Default::default() };
/// let ds = generate(&cfg, &mut rng).unwrap();
/// assert_eq!(ds.tasks[0].name, "ObjectNet");
/// assert_eq!(ds.tasks[1].name, "SalientNet");
/// ```
pub fn generate(cfg: &ScenesConfig, rng: &mut Rng) -> Result<MultiTaskDataset> {
    let mut basis_rng = rng.fork(0x5CEE5);
    let bases = render::random_bases(cfg.object_classes, cfg.channels, cfg.img, &mut basis_rng);

    let img_len = cfg.channels * cfg.img * cfg.img;
    let mut data = vec![0.0f32; cfg.samples * img_len];
    let mut presence = vec![0.0f32; cfg.samples * cfg.object_classes];
    let mut salient = Vec::with_capacity(cfg.samples);

    for s in 0..cfg.samples {
        let sample = &mut data[s * img_len..(s + 1) * img_len];
        let mut count = 0usize;
        let mut any = false;
        for cls in 0..cfg.object_classes {
            if !rng.coin(cfg.presence_p) {
                continue;
            }
            any = true;
            presence[s * cfg.object_classes + cls] = 1.0;
            let intensity = rng.uniform(0.5, 1.5);
            let dy = rng.below(cfg.img);
            let dx = rng.below(cfg.img);
            render::add_scaled_shifted(
                sample,
                &bases[cls],
                cfg.channels,
                cfg.img,
                dy,
                dx,
                intensity,
            );
            if intensity > cfg.salient_threshold {
                count += 1;
            }
        }
        // Guarantee at least one object so mAP has positives per batch.
        if !any {
            let cls = rng.below(cfg.object_classes);
            presence[s * cfg.object_classes + cls] = 1.0;
            let intensity = rng.uniform(0.5, 1.5);
            render::add_scaled_shifted(sample, &bases[cls], cfg.channels, cfg.img, 0, 0, intensity);
            if intensity > cfg.salient_threshold {
                count += 1;
            }
        }
        for v in sample.iter_mut() {
            *v += cfg.noise * rng.normal();
        }
        salient.push(count.min(cfg.max_salient));
    }

    let inputs = Tensor::from_vec(&[cfg.samples, cfg.channels, cfg.img, cfg.img], data)?;
    let tasks = vec![
        TaskSpec::multilabel("ObjectNet", cfg.object_classes),
        TaskSpec::classification("SalientNet", salient_classes(cfg)),
    ];
    let labels = vec![
        Labels::MultiHot(Tensor::from_vec(
            &[cfg.samples, cfg.object_classes],
            presence,
        )?),
        Labels::Classes(salient),
    ];
    MultiTaskDataset::new(inputs, tasks, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_ranges() {
        let mut rng = Rng::new(0);
        let cfg = ScenesConfig {
            samples: 64,
            ..Default::default()
        };
        let ds = generate(&cfg, &mut rng).unwrap();
        assert_eq!(ds.inputs.dims(), &[64, 3, 16, 16]);
        match &ds.labels[1] {
            Labels::Classes(v) => assert!(v.iter().all(|&c| c <= cfg.max_salient)),
            _ => panic!(),
        }
        match &ds.labels[0] {
            Labels::MultiHot(m) => {
                // Every sample has at least one object.
                for i in 0..64 {
                    let row = &m.data()[i * 6..(i + 1) * 6];
                    assert!(row.iter().any(|&v| v > 0.5));
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn salient_count_correlates_with_presence() {
        let mut rng = Rng::new(1);
        let cfg = ScenesConfig {
            samples: 256,
            ..Default::default()
        };
        let ds = generate(&cfg, &mut rng).unwrap();
        let counts = match &ds.labels[1] {
            Labels::Classes(v) => v.clone(),
            _ => panic!(),
        };
        let presence = match &ds.labels[0] {
            Labels::MultiHot(m) => m.clone(),
            _ => panic!(),
        };
        // Salient count never exceeds total object count.
        for (i, &cnt) in counts.iter().enumerate().take(256) {
            let total: f32 = presence.data()[i * 6..(i + 1) * 6].iter().sum();
            assert!(cnt as f32 <= total);
        }
        // And counts are not all identical (the task is non-trivial).
        assert!(counts.iter().any(|&c| c != counts[0]));
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = ScenesConfig {
            samples: 8,
            ..Default::default()
        };
        let a = generate(&cfg, &mut Rng::new(2)).unwrap();
        let b = generate(&cfg, &mut Rng::new(2)).unwrap();
        assert_eq!(a.inputs.data(), b.inputs.data());
    }
}
