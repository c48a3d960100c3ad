//! Multi-task dataset container, splits, and batching.

use crate::task::TaskSpec;
use gmorph_tensor::rng::Rng;
use gmorph_tensor::{Result, Tensor, TensorError};

/// Labels for one task across all samples.
#[derive(Debug, Clone, PartialEq)]
pub enum Labels {
    /// One class index per sample.
    Classes(Vec<usize>),
    /// A `[N, C]` multi-hot tensor.
    MultiHot(Tensor),
}

impl Labels {
    /// Number of labelled samples.
    pub fn len(&self) -> usize {
        match self {
            Labels::Classes(v) => v.len(),
            Labels::MultiHot(t) => t.dims()[0],
        }
    }

    /// True when no samples are labelled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Selects a subset of samples by index.
    pub(crate) fn select(&self, indices: &[usize]) -> Result<Labels> {
        match self {
            Labels::Classes(v) => {
                let mut out = Vec::with_capacity(indices.len());
                for &i in indices {
                    let l = *v.get(i).ok_or(TensorError::OutOfBounds {
                        op: "Labels::select",
                        index: i,
                        bound: v.len(),
                    })?;
                    out.push(l);
                }
                Ok(Labels::Classes(out))
            }
            Labels::MultiHot(t) => Ok(Labels::MultiHot(t.select_rows(indices)?)),
        }
    }
}

/// A dataset with one shared input stream and per-task labels.
///
/// This mirrors the paper's setting: "multiple tasks operate on the same
/// data stream" (§1). All tasks are labelled on all samples here (the
/// generators produce them jointly); GMorph itself never uses the labels
/// for fine-tuning — only for *evaluating* task accuracy — which is exactly
/// the paper's distillation setup.
#[derive(Debug, Clone)]
pub struct MultiTaskDataset {
    /// Inputs, `[N, ...]`.
    pub inputs: Tensor,
    /// Task descriptors.
    pub tasks: Vec<TaskSpec>,
    /// Per-task labels, each of length `N`.
    pub labels: Vec<Labels>,
}

/// A train/test split of a [`MultiTaskDataset`].
#[derive(Debug, Clone)]
pub struct Split {
    /// Training portion.
    pub train: MultiTaskDataset,
    /// Held-out test portion.
    pub test: MultiTaskDataset,
}

impl MultiTaskDataset {
    /// Validates internal consistency and constructs the dataset.
    pub fn new(inputs: Tensor, tasks: Vec<TaskSpec>, labels: Vec<Labels>) -> Result<Self> {
        let n = inputs.dims().first().copied().unwrap_or(0);
        if tasks.len() != labels.len() {
            return Err(TensorError::InvalidArgument {
                op: "MultiTaskDataset::new",
                msg: format!("{} tasks but {} label sets", tasks.len(), labels.len()),
            });
        }
        for (t, l) in tasks.iter().zip(labels.iter()) {
            if l.len() != n {
                return Err(TensorError::InvalidArgument {
                    op: "MultiTaskDataset::new",
                    msg: format!("task {} has {} labels for {} samples", t.name, l.len(), n),
                });
            }
            if let Labels::MultiHot(m) = l {
                if m.dims()[1] != t.classes {
                    return Err(TensorError::InvalidArgument {
                        op: "MultiTaskDataset::new",
                        msg: format!("task {} label width mismatch", t.name),
                    });
                }
            }
        }
        Ok(MultiTaskDataset {
            inputs,
            tasks,
            labels,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.inputs.dims().first().copied().unwrap_or(0)
    }

    /// True when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extracts a subset by sample indices.
    pub(crate) fn subset(&self, indices: &[usize]) -> Result<MultiTaskDataset> {
        let inputs = self.inputs.select_rows(indices)?;
        let mut labels = Vec::with_capacity(self.labels.len());
        for l in &self.labels {
            labels.push(l.select(indices)?);
        }
        MultiTaskDataset::new(inputs, self.tasks.clone(), labels)
    }

    /// Splits into train/test with the given training fraction, shuffling
    /// with the provided generator.
    pub fn split(&self, train_frac: f32, rng: &mut Rng) -> Result<Split> {
        let n = self.len();
        let n_train = ((n as f32) * train_frac).round() as usize;
        let mut ix: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut ix);
        let (a, b) = ix.split_at(n_train.min(n));
        Ok(Split {
            train: self.subset(a)?,
            test: self.subset(b)?,
        })
    }

    /// Produces shuffled batch index lists covering all samples.
    ///
    /// The last batch may be smaller. Use [`MultiTaskDataset::subset`] or
    /// `inputs.select_rows` to materialize each batch.
    pub fn batch_indices(&self, batch: usize, rng: &mut Rng) -> Vec<Vec<usize>> {
        let mut ix: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut ix);
        ix.chunks(batch.max(1)).map(|c| c.to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSpec;

    fn toy() -> MultiTaskDataset {
        let inputs = Tensor::from_vec(&[4, 2], (0..8).map(|x| x as f32).collect()).unwrap();
        let tasks = vec![
            TaskSpec::classification("a", 2),
            TaskSpec::multilabel("b", 3),
        ];
        let labels = vec![
            Labels::Classes(vec![0, 1, 0, 1]),
            Labels::MultiHot(Tensor::zeros(&[4, 3])),
        ];
        MultiTaskDataset::new(inputs, tasks, labels).unwrap()
    }

    #[test]
    fn construction_validates() {
        let d = toy();
        assert_eq!(d.len(), 4);
        // Label length mismatch rejected.
        let bad = MultiTaskDataset::new(
            Tensor::zeros(&[4, 2]),
            vec![TaskSpec::classification("a", 2)],
            vec![Labels::Classes(vec![0, 1])],
        );
        assert!(bad.is_err());
        // Multi-hot width mismatch rejected.
        let bad = MultiTaskDataset::new(
            Tensor::zeros(&[2, 2]),
            vec![TaskSpec::multilabel("b", 3)],
            vec![Labels::MultiHot(Tensor::zeros(&[2, 4]))],
        );
        assert!(bad.is_err());
    }

    #[test]
    fn subset_selects_rows_and_labels() {
        let d = toy();
        let s = d.subset(&[2, 0]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.inputs.data(), &[4.0, 5.0, 0.0, 1.0]);
        match &s.labels[0] {
            Labels::Classes(v) => assert_eq!(v, &vec![0, 0]),
            _ => panic!(),
        }
        assert!(d.subset(&[9]).is_err());
    }

    #[test]
    fn split_partitions_all_samples() {
        let d = toy();
        let mut rng = Rng::new(0);
        let s = d.split(0.5, &mut rng).unwrap();
        assert_eq!(s.train.len() + s.test.len(), 4);
        assert_eq!(s.train.len(), 2);
    }

    #[test]
    fn batches_cover_everything_once() {
        let d = toy();
        let mut rng = Rng::new(1);
        let batches = d.batch_indices(3, &mut rng);
        let mut all: Vec<usize> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn labels_len_and_select() {
        let l = Labels::Classes(vec![1, 2, 3]);
        assert_eq!(l.len(), 3);
        assert!(!l.is_empty());
        let m = Labels::MultiHot(Tensor::zeros(&[5, 2]));
        assert_eq!(m.len(), 5);
        assert_eq!(m.select(&[0, 4]).unwrap().len(), 2);
    }
}
