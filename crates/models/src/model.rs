//! Single-task model: an ordered sequence of computation blocks.

use gmorph_data::TaskSpec;
use gmorph_nn::{Block, BlockSpec, Mode, Parameter};
use gmorph_tensor::rng::Rng;
use gmorph_tensor::{Result, Tensor, TensorError};

/// Weight-free description of a single-task DNN.
///
/// A model is a chain of [`BlockSpec`]s ending in a head, together with its
/// per-sample input shape and task binding. Specs validate at construction:
/// every block must accept its predecessor's output shape.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Model name, e.g. `"AgeNet: VGG-13"`.
    pub name: String,
    /// The block chain.
    pub blocks: Vec<BlockSpec>,
    /// The task this model predicts.
    pub task: TaskSpec,
    /// Per-sample input shape (`[C, H, W]` for vision, `[T]` for text).
    pub input_shape: Vec<usize>,
}

impl ModelSpec {
    /// Validates the chain and constructs the spec.
    pub fn new(
        name: impl Into<String>,
        blocks: Vec<BlockSpec>,
        task: TaskSpec,
        input_shape: Vec<usize>,
    ) -> Result<Self> {
        let spec = ModelSpec {
            name: name.into(),
            blocks,
            task,
            input_shape,
        };
        spec.shapes()?; // Validates the whole chain.
        let last = spec.blocks.last().ok_or(TensorError::InvalidArgument {
            op: "ModelSpec::new",
            msg: "empty model".to_string(),
        })?;
        match last {
            BlockSpec::Head { classes, .. } if *classes == spec.task.classes => Ok(spec),
            BlockSpec::Head { classes, .. } => Err(TensorError::InvalidArgument {
                op: "ModelSpec::new",
                msg: format!(
                    "head emits {classes} classes but task {} needs {}",
                    spec.task.name, spec.task.classes
                ),
            }),
            _ => Err(TensorError::InvalidArgument {
                op: "ModelSpec::new",
                msg: "model must end in a Head block".to_string(),
            }),
        }
    }

    /// Per-sample input shapes of every block (`blocks.len()` entries) plus
    /// the final output shape.
    pub(crate) fn shapes(&self) -> Result<Vec<Vec<usize>>> {
        let mut shapes = Vec::with_capacity(self.blocks.len() + 1);
        let mut cur = self.input_shape.clone();
        shapes.push(cur.clone());
        for b in &self.blocks {
            cur = b.out_shape(&cur)?;
            shapes.push(cur.clone());
        }
        Ok(shapes)
    }

    /// Total parameter count.
    pub fn capacity(&self) -> usize {
        self.blocks.iter().map(|b| b.capacity()).sum()
    }

    /// Total per-sample FLOPs.
    pub fn flops(&self) -> Result<u64> {
        let shapes = self.shapes()?;
        let mut total = 0u64;
        for (b, s) in self.blocks.iter().zip(shapes.iter()) {
            total += b.flops(s)?;
        }
        Ok(total)
    }

    /// Builds a trainable model with fresh weights.
    pub fn build(&self, rng: &mut Rng) -> Result<SingleTaskModel> {
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for b in &self.blocks {
            blocks.push(b.build(rng)?);
        }
        Ok(SingleTaskModel {
            spec: self.clone(),
            blocks,
        })
    }
}

/// A trainable single-task DNN (a "well-trained DNN" once fitted).
#[derive(Debug, Clone)]
pub struct SingleTaskModel {
    /// The architecture descriptor.
    pub spec: ModelSpec,
    /// The trainable blocks, in execution order.
    pub blocks: Vec<Block>,
}

impl SingleTaskModel {
    /// Forward pass over a batched input.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let mut cur = x.clone();
        for b in &mut self.blocks {
            cur = b.forward(&cur, mode)?;
        }
        Ok(cur)
    }

    /// Backward pass from output gradients; accumulates parameter grads.
    pub fn backward(&mut self, grad: &Tensor) -> Result<Tensor> {
        let mut g = grad.clone();
        for b in self.blocks.iter_mut().rev() {
            g = b.backward(&g)?;
        }
        Ok(g)
    }

    /// Visits every trainable parameter.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        for b in &mut self.blocks {
            b.visit_params(f);
        }
    }

    /// Total parameter count.
    pub fn capacity(&self) -> usize {
        self.blocks.iter().map(|b| b.capacity()).sum()
    }

    /// Drops all cached activations.
    pub fn clear_caches(&mut self) {
        for b in &mut self.blocks {
            b.clear_cache();
        }
    }

    /// Extracts persistent weights for caching, one entry per tensor.
    pub fn state_dict(&self) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        for (i, b) in self.blocks.iter().enumerate() {
            for (j, t) in b.state().into_iter().enumerate() {
                out.push((format!("block{i}.t{j}"), t));
            }
        }
        out
    }

    /// Loads weights produced by [`SingleTaskModel::state_dict`] from an
    /// architecturally identical model.
    pub fn load_state_dict(&mut self, entries: &[(String, Tensor)]) -> Result<()> {
        for (i, b) in self.blocks.iter_mut().enumerate() {
            let prefix = format!("block{i}.");
            let tensors: Vec<Tensor> = entries
                .iter()
                .filter(|(k, _)| k.starts_with(&prefix))
                .map(|(_, t)| t.clone())
                .collect();
            b.load_state(&tensors)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmorph_data::TaskSpec;

    fn toy_spec() -> ModelSpec {
        ModelSpec::new(
            "toy",
            vec![
                BlockSpec::ConvRelu { c_in: 3, c_out: 4 },
                BlockSpec::MaxPool { k: 2 },
                BlockSpec::ConvRelu { c_in: 4, c_out: 8 },
                BlockSpec::Head {
                    features: 8,
                    classes: 3,
                },
            ],
            TaskSpec::classification("toy", 3),
            vec![3, 8, 8],
        )
        .unwrap()
    }

    #[test]
    fn spec_validates_chain() {
        let ok = toy_spec();
        assert_eq!(ok.shapes().unwrap().last().unwrap(), &vec![3]);
        // Broken chain rejected.
        let bad = ModelSpec::new(
            "bad",
            vec![
                BlockSpec::ConvRelu { c_in: 3, c_out: 4 },
                BlockSpec::ConvRelu { c_in: 5, c_out: 4 },
            ],
            TaskSpec::classification("x", 2),
            vec![3, 8, 8],
        );
        assert!(bad.is_err());
        // Missing head rejected.
        let headless = ModelSpec::new(
            "bad",
            vec![BlockSpec::ConvRelu { c_in: 3, c_out: 4 }],
            TaskSpec::classification("x", 2),
            vec![3, 8, 8],
        );
        assert!(headless.is_err());
        // Head class mismatch rejected.
        let wrong = ModelSpec::new(
            "bad",
            vec![
                BlockSpec::ConvRelu { c_in: 3, c_out: 4 },
                BlockSpec::Head {
                    features: 4,
                    classes: 5,
                },
            ],
            TaskSpec::classification("x", 2),
            vec![3, 8, 8],
        );
        assert!(wrong.is_err());
    }

    #[test]
    fn build_and_forward() {
        let mut rng = Rng::new(0);
        let mut m = toy_spec().build(&mut rng).unwrap();
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let y = m.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
    }

    #[test]
    fn capacity_consistency() {
        let mut rng = Rng::new(1);
        let spec = toy_spec();
        let m = spec.build(&mut rng).unwrap();
        assert_eq!(spec.capacity(), m.capacity());
        assert!(spec.capacity() > 0);
    }

    #[test]
    fn training_reduces_loss() {
        use gmorph_nn::loss::cross_entropy;
        use gmorph_nn::optim::Optim;
        let mut rng = Rng::new(2);
        let mut m = toy_spec().build(&mut rng).unwrap();
        let x = Tensor::randn(&[8, 3, 8, 8], 1.0, &mut rng);
        let labels: Vec<usize> = (0..8).map(|i| i % 3).collect();
        let mut opt = Optim::adam(0.01);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..30 {
            let y = m.forward(&x, Mode::Train).unwrap();
            let (l, g) = cross_entropy(&y, &labels).unwrap();
            if step == 0 {
                first = l;
            }
            last = l;
            m.backward(&g).unwrap();
            opt.begin_step();
            m.visit_params(&mut |p| opt.update(p));
        }
        assert!(last < first * 0.7, "loss did not drop: {first} -> {last}");
    }

    #[test]
    fn state_dict_roundtrip() {
        let mut rng = Rng::new(3);
        let spec = toy_spec();
        let mut a = spec.build(&mut rng).unwrap();
        let mut b = spec.build(&mut rng).unwrap();
        let x = Tensor::randn(&[1, 3, 8, 8], 1.0, &mut rng);
        let ya = a.forward(&x, Mode::Eval).unwrap();
        b.load_state_dict(&a.state_dict()).unwrap();
        let yb = b.forward(&x, Mode::Eval).unwrap();
        for (p, q) in ya.data().iter().zip(yb.data()) {
            assert!((p - q).abs() < 1e-6);
        }
    }

    #[test]
    fn flops_positive_and_stable() {
        let spec = toy_spec();
        assert!(spec.flops().unwrap() > 0);
        assert_eq!(spec.flops().unwrap(), spec.flops().unwrap());
    }
}
