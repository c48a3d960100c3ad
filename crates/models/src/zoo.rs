//! The seven benchmarks of Table 2, wired to synthetic datasets.

use crate::families::{bert, resnet, vgg, vit, ResNetDepth, SeqScale, VggDepth, VisionScale};
use crate::model::ModelSpec;
use gmorph_data::dataset::MultiTaskDataset;
use gmorph_data::faces::{self, FaceTask, FacesConfig};
use gmorph_data::scenes::{self, ScenesConfig};
use gmorph_data::text::{self, TextConfig};
use gmorph_tensor::rng::Rng;
use gmorph_tensor::Result;

/// Benchmark identifiers matching the paper's B1-B7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchId {
    /// Age/Gender/Ethnicity, 3× VGG-13 (UTKFace stand-in).
    B1,
    /// Emotion/Age/Gender, 3× VGG-16 (FER2013+Adience stand-in).
    B2,
    /// Emotion/Age/Gender, VGG-13/16/11 (heterogeneous VGGs).
    B3,
    /// Object/Salient, ResNet-34 + ResNet-18 (VOC2007+SOS stand-in).
    B4,
    /// Object/Salient, ResNet-34 + VGG-16 (cross-family).
    B5,
    /// Object/Salient, ViT-Large + ViT-Base.
    B6,
    /// CoLA/SST, BERT-Large + BERT-Base (GLUE stand-in).
    B7,
}

impl BenchId {
    /// All benchmarks in order.
    pub fn all() -> [BenchId; 7] {
        [
            BenchId::B1,
            BenchId::B2,
            BenchId::B3,
            BenchId::B4,
            BenchId::B5,
            BenchId::B6,
            BenchId::B7,
        ]
    }

    /// Short name, e.g. `"B1"`.
    pub fn name(self) -> &'static str {
        match self {
            BenchId::B1 => "B1",
            BenchId::B2 => "B2",
            BenchId::B3 => "B3",
            BenchId::B4 => "B4",
            BenchId::B5 => "B5",
            BenchId::B6 => "B6",
            BenchId::B7 => "B7",
        }
    }

    /// Parses `"B1"`-style names.
    pub fn parse(s: &str) -> Option<BenchId> {
        BenchId::all()
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(s))
    }
}

impl std::fmt::Display for BenchId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Dataset-size profile for benchmark construction.
#[derive(Debug, Clone)]
pub struct DataProfile {
    /// Samples in the generated dataset (before the train/test split).
    pub samples: usize,
    /// Train fraction of the split.
    pub train_frac: f32,
    /// Vision image side (divisible by 16).
    pub img: usize,
    /// Text sequence length.
    pub seq_len: usize,
    /// Text vocabulary size.
    pub vocab: usize,
}

impl DataProfile {
    /// Tiny profile for unit/integration tests.
    pub fn smoke() -> Self {
        DataProfile {
            samples: 96,
            train_frac: 0.7,
            img: 16,
            seq_len: 12,
            vocab: 48,
        }
    }

    /// Standard profile for experiments.
    pub fn standard() -> Self {
        DataProfile {
            samples: 384,
            train_frac: 0.75,
            img: 16,
            seq_len: 12,
            vocab: 48,
        }
    }
}

/// A fully materialized benchmark: model specs at both scales plus data.
#[derive(Debug, Clone)]
pub struct BenchmarkDef {
    /// Which benchmark this is.
    pub id: BenchId,
    /// Mini-scale (trainable) model specs, one per task, dataset order.
    pub mini: Vec<ModelSpec>,
    /// Paper-scale model specs (estimation only), same order.
    pub paper: Vec<ModelSpec>,
    /// The generated dataset.
    pub dataset: MultiTaskDataset,
}

/// Mini transformer scales (Base/Large relationship preserved).
fn seq_mini(large: bool) -> SeqScale {
    if large {
        SeqScale {
            d: 48,
            heads: 4,
            depth: 5,
        }
    } else {
        SeqScale {
            d: 32,
            heads: 4,
            depth: 3,
        }
    }
}

/// Paper transformer scales (same depth as mini so node ids correspond;
/// widths at the published values).
fn seq_paper(large: bool) -> SeqScale {
    if large {
        SeqScale {
            d: 1024,
            heads: 16,
            depth: 5,
        }
    } else {
        SeqScale {
            d: 768,
            heads: 12,
            depth: 3,
        }
    }
}

/// Builds a benchmark: generates its dataset and both model-spec sets.
pub fn build(id: BenchId, profile: &DataProfile, seed: u64) -> Result<BenchmarkDef> {
    let mut rng = Rng::new(seed ^ BENCH_SEED);
    let v_mini = VisionScale {
        in_channels: 3,
        img: profile.img,
        base: 4,
    };
    let v_paper = VisionScale::paper();

    let (dataset, mini, paper): (MultiTaskDataset, Vec<ModelSpec>, Vec<ModelSpec>) = match id {
        BenchId::B1 => {
            let cfg = FacesConfig {
                samples: profile.samples,
                img: profile.img,
                ..Default::default()
            };
            let ds = faces::generate(
                &cfg,
                &[FaceTask::Age, FaceTask::Gender, FaceTask::Ethnicity],
                &mut rng,
            )?;
            let mini = ds
                .tasks
                .iter()
                .map(|t| vgg(VggDepth::Vgg13, v_mini, t))
                .collect::<Result<Vec<_>>>()?;
            let paper = ds
                .tasks
                .iter()
                .map(|t| vgg(VggDepth::Vgg13, v_paper, t))
                .collect::<Result<Vec<_>>>()?;
            (ds, mini, paper)
        }
        BenchId::B2 | BenchId::B3 => {
            let cfg = FacesConfig {
                samples: profile.samples,
                img: profile.img,
                ..Default::default()
            };
            let ds = faces::generate(
                &cfg,
                &[FaceTask::Emotion, FaceTask::Age, FaceTask::Gender],
                &mut rng,
            )?;
            let depths = if id == BenchId::B2 {
                [VggDepth::Vgg16, VggDepth::Vgg16, VggDepth::Vgg16]
            } else {
                [VggDepth::Vgg13, VggDepth::Vgg16, VggDepth::Vgg11]
            };
            let mini = ds
                .tasks
                .iter()
                .zip(depths.iter())
                .map(|(t, &d)| vgg(d, v_mini, t))
                .collect::<Result<Vec<_>>>()?;
            let paper = ds
                .tasks
                .iter()
                .zip(depths.iter())
                .map(|(t, &d)| vgg(d, v_paper, t))
                .collect::<Result<Vec<_>>>()?;
            (ds, mini, paper)
        }
        BenchId::B4 | BenchId::B5 => {
            let cfg = ScenesConfig {
                samples: profile.samples,
                img: profile.img,
                ..Default::default()
            };
            let ds = scenes::generate(&cfg, &mut rng)?;
            let object = &ds.tasks[0];
            let salient = &ds.tasks[1];
            let (mini, paper) = if id == BenchId::B4 {
                (
                    vec![
                        resnet(ResNetDepth::ResNet34, v_mini, object)?,
                        resnet(ResNetDepth::ResNet18, v_mini, salient)?,
                    ],
                    vec![
                        resnet(ResNetDepth::ResNet34, v_paper, object)?,
                        resnet(ResNetDepth::ResNet18, v_paper, salient)?,
                    ],
                )
            } else {
                (
                    vec![
                        resnet(ResNetDepth::ResNet34, v_mini, object)?,
                        vgg(VggDepth::Vgg16, v_mini, salient)?,
                    ],
                    vec![
                        resnet(ResNetDepth::ResNet34, v_paper, object)?,
                        vgg(VggDepth::Vgg16, v_paper, salient)?,
                    ],
                )
            };
            (ds, mini, paper)
        }
        BenchId::B6 => {
            let cfg = ScenesConfig {
                samples: profile.samples,
                img: profile.img,
                ..Default::default()
            };
            let ds = scenes::generate(&cfg, &mut rng)?;
            let object = &ds.tasks[0];
            let salient = &ds.tasks[1];
            let mini = vec![
                vit("ViT-Large", seq_mini(true), 3, profile.img, 4, object)?,
                vit("ViT-Base", seq_mini(false), 3, profile.img, 4, salient)?,
            ];
            let paper = vec![
                vit("ViT-Large", seq_paper(true), 3, 224, 16, object)?,
                vit("ViT-Base", seq_paper(false), 3, 224, 16, salient)?,
            ];
            (ds, mini, paper)
        }
        BenchId::B7 => {
            let cfg = TextConfig {
                samples: profile.samples,
                seq_len: profile.seq_len,
                vocab: profile.vocab,
                ..Default::default()
            };
            let ds = text::generate(&cfg, &mut rng)?;
            let cola = &ds.tasks[0];
            let sst = &ds.tasks[1];
            let mini = vec![
                bert(
                    "BERT-Large",
                    seq_mini(true),
                    profile.vocab,
                    profile.seq_len,
                    cola,
                )?,
                bert(
                    "BERT-Base",
                    seq_mini(false),
                    profile.vocab,
                    profile.seq_len,
                    sst,
                )?,
            ];
            let paper = vec![
                bert("BERT-Large", seq_paper(true), 30522, 128, cola)?,
                bert("BERT-Base", seq_paper(false), 30522, 128, sst)?,
            ];
            (ds, mini, paper)
        }
    };
    Ok(BenchmarkDef {
        id,
        mini,
        paper,
        dataset,
    })
}

/// Seed-mixing constant isolating benchmark RNG streams.
const BENCH_SEED: u64 = 0xB34_C45_EED;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_build_at_smoke_profile() {
        for id in BenchId::all() {
            let b = build(id, &DataProfile::smoke(), 7).unwrap();
            assert_eq!(b.mini.len(), b.paper.len(), "{id}");
            assert_eq!(b.mini.len(), b.dataset.tasks.len(), "{id}");
            for (m, p) in b.mini.iter().zip(b.paper.iter()) {
                // Same topology at both scales.
                assert_eq!(m.blocks.len(), p.blocks.len(), "{id}: {}", m.name);
                assert!(p.flops().unwrap() > m.flops().unwrap(), "{id}");
                // Tasks line up with the dataset.
                assert_eq!(m.task.classes, p.task.classes);
            }
        }
    }

    #[test]
    fn benchmark_counts_match_table_2() {
        let p = DataProfile::smoke();
        assert_eq!(build(BenchId::B1, &p, 0).unwrap().mini.len(), 3);
        assert_eq!(build(BenchId::B2, &p, 0).unwrap().mini.len(), 3);
        assert_eq!(build(BenchId::B3, &p, 0).unwrap().mini.len(), 3);
        for id in [BenchId::B4, BenchId::B5, BenchId::B6, BenchId::B7] {
            assert_eq!(build(id, &p, 0).unwrap().mini.len(), 2);
        }
    }

    #[test]
    fn b3_models_are_heterogeneous() {
        let b = build(BenchId::B3, &DataProfile::smoke(), 1).unwrap();
        let lens: Vec<usize> = b.mini.iter().map(|m| m.blocks.len()).collect();
        assert!(lens[0] != lens[1] && lens[1] != lens[2]);
    }

    #[test]
    fn parse_and_names() {
        assert_eq!(BenchId::parse("b4"), Some(BenchId::B4));
        assert_eq!(BenchId::parse("B7"), Some(BenchId::B7));
        assert_eq!(BenchId::parse("B9"), None);
        assert_eq!(BenchId::B2.to_string(), "B2");
    }

    #[test]
    fn paper_transformers_use_published_widths() {
        let b6 = build(BenchId::B6, &DataProfile::smoke(), 0).unwrap();
        let widths: Vec<usize> = b6
            .paper
            .iter()
            .map(|m| {
                m.blocks
                    .iter()
                    .find_map(|s| match s {
                        gmorph_nn::BlockSpec::Transformer { d, .. } => Some(*d),
                        _ => None,
                    })
                    .unwrap()
            })
            .collect();
        assert_eq!(widths, vec![1024, 768]); // ViT-Large, ViT-Base.
        let b7 = build(BenchId::B7, &DataProfile::smoke(), 0).unwrap();
        for m in &b7.paper {
            let vocab = m
                .blocks
                .iter()
                .find_map(|s| match s {
                    gmorph_nn::BlockSpec::TokenEmbed { vocab, .. } => Some(*vocab),
                    _ => None,
                })
                .unwrap();
            assert_eq!(vocab, 30522); // BERT vocabulary.
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = build(BenchId::B1, &DataProfile::smoke(), 42).unwrap();
        let b = build(BenchId::B1, &DataProfile::smoke(), 42).unwrap();
        assert_eq!(a.dataset.inputs.data(), b.dataset.inputs.data());
    }
}
