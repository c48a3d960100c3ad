//! The trainable tree-structured multi-task model.
//!
//! "Feature sharing between two DNNs would lead to a tree-structured model
//! that consists of some shared computation blocks and two branches after
//! the shared computation blocks" (§4.1). A [`TreeModel`] is that model:
//! computation blocks arranged in a tree rooted at the shared input, with
//! one Head leaf per task. Shared prefixes are computed once per forward
//! pass — the source of model fusion's computation savings.

use gmorph_data::TaskSpec;
use gmorph_nn::{Block, Mode, OpType, Parameter};
use gmorph_tensor::{Result, Tensor, TensorError};

/// One node of a [`TreeModel`].
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// Node identity carried over from the abstract graph.
    pub key: (usize, usize),
    /// The trainable block.
    pub block: Block,
    /// Parent index; `None` consumes the shared input.
    pub parent: Option<usize>,
    /// Child indices.
    pub children: Vec<usize>,
    /// For Head leaves: the task whose logits this node emits.
    pub head_task: Option<usize>,
}

/// A trainable multi-task model (see module docs).
#[derive(Debug, Clone)]
pub struct TreeModel {
    nodes: Vec<TreeNode>,
    roots: Vec<usize>,
    /// Task descriptors, indexed by task id.
    pub tasks: Vec<TaskSpec>,
}

impl TreeModel {
    /// Creates an empty model over the given tasks.
    pub fn new(tasks: Vec<TaskSpec>) -> Self {
        TreeModel {
            nodes: Vec::new(),
            roots: Vec::new(),
            tasks,
        }
    }

    /// Adds a node under `parent` (or the shared input); returns its index.
    ///
    /// Head blocks are automatically bound to the task named by their
    /// `key.0` (the abstract-graph task id).
    pub fn add_node(
        &mut self,
        key: (usize, usize),
        block: Block,
        parent: Option<usize>,
    ) -> Result<usize> {
        if let Some(p) = parent {
            if p >= self.nodes.len() {
                return Err(TensorError::OutOfBounds {
                    op: "TreeModel::add_node",
                    index: p,
                    bound: self.nodes.len(),
                });
            }
        }
        let head_task = if block.op_type() == OpType::Head {
            if key.0 >= self.tasks.len() {
                return Err(TensorError::OutOfBounds {
                    op: "TreeModel::add_node",
                    index: key.0,
                    bound: self.tasks.len(),
                });
            }
            Some(key.0)
        } else {
            None
        };
        let idx = self.nodes.len();
        self.nodes.push(TreeNode {
            key,
            block,
            parent,
            children: Vec::new(),
            head_task,
        });
        match parent {
            Some(p) => self.nodes[p].children.push(idx),
            None => self.roots.push(idx),
        }
        Ok(idx)
    }

    /// Read access to the node arena.
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the model has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total parameter count.
    pub fn capacity(&self) -> usize {
        self.nodes.iter().map(|n| n.block.capacity()).sum()
    }

    /// Node indices in topological (parent-before-child) order.
    fn topo(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack: Vec<usize> = self.roots.iter().rev().copied().collect();
        while let Some(i) = stack.pop() {
            out.push(i);
            for &c in self.nodes[i].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Forward pass: one shared input batch in, one logits tensor per task
    /// out (indexed by task id).
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Vec<Tensor>> {
        let order = self.topo();
        let mut acts: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        let mut outputs: Vec<Option<Tensor>> = vec![None; self.tasks.len()];
        for i in order {
            let input = match self.nodes[i].parent {
                Some(p) => acts[p].clone().ok_or(TensorError::InvalidArgument {
                    op: "TreeModel::forward",
                    msg: "parent activation missing (topological order broken)".to_string(),
                })?,
                None => x.clone(),
            };
            let y = self.nodes[i].block.forward(&input, mode)?;
            if let Some(t) = self.nodes[i].head_task {
                outputs[t] = Some(y);
            } else {
                acts[i] = Some(y);
            }
        }
        outputs
            .into_iter()
            .enumerate()
            .map(|(t, o)| {
                o.ok_or(TensorError::InvalidArgument {
                    op: "TreeModel::forward",
                    msg: format!("task {t} produced no output (missing head)"),
                })
            })
            .collect()
    }

    /// Backward pass from per-task output gradients; accumulates parameter
    /// gradients. Must follow a `forward(.., Mode::Train)`.
    pub fn backward(&mut self, grads: &[Tensor]) -> Result<()> {
        if grads.len() != self.tasks.len() {
            return Err(TensorError::InvalidArgument {
                op: "TreeModel::backward",
                msg: format!("{} grads for {} tasks", grads.len(), self.tasks.len()),
            });
        }
        let order = self.topo();
        let mut pending: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        // Seed head gradients.
        for (i, n) in self.nodes.iter().enumerate() {
            if let Some(t) = n.head_task {
                pending[i] = Some(grads[t].clone());
            }
        }
        for &i in order.iter().rev() {
            let g = match pending[i].take() {
                Some(g) => g,
                None => {
                    return Err(TensorError::InvalidArgument {
                        op: "TreeModel::backward",
                        msg: format!("node {i} received no gradient"),
                    })
                }
            };
            // A root's input gradient would be dropped: let the block skip
            // computing it where it can.
            let parent = self.nodes[i].parent;
            let gin = self.nodes[i].block.backward_with(&g, parent.is_some())?;
            if let (Some(p), Some(gin)) = (parent, gin) {
                match &mut pending[p] {
                    Some(acc) => acc.add_assign(&gin)?,
                    slot => *slot = Some(gin),
                }
            }
        }
        Ok(())
    }

    /// Visits every trainable parameter.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        for n in &mut self.nodes {
            n.block.visit_params(f);
        }
    }

    /// Visits every block mutably (used by inference compilation).
    pub fn for_each_block_mut(&mut self, f: &mut dyn FnMut(&mut Block)) {
        for n in &mut self.nodes {
            f(&mut n.block);
        }
    }

    /// Drops all cached activations.
    pub fn clear_caches(&mut self) {
        for n in &mut self.nodes {
            n.block.clear_cache();
        }
    }

    /// Counts nodes shared by at least two tasks (diagnostic).
    pub fn shared_node_count(&self) -> usize {
        // A node is shared when ≥2 head leaves live in its subtree.
        let mut heads_below = vec![0usize; self.nodes.len()];
        for &i in self.topo().iter().rev() {
            let own = usize::from(self.nodes[i].head_task.is_some());
            let below: usize = self.nodes[i]
                .children
                .iter()
                .map(|&c| heads_below[c])
                .sum();
            heads_below[i] = own + below;
        }
        heads_below.iter().filter(|&&h| h >= 2).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmorph_tensor::rng::Rng;

    /// Shared trunk, two heads: Conv -> (Head0, Conv -> Head1).
    fn shared_tree(rng: &mut Rng) -> TreeModel {
        let tasks = vec![
            TaskSpec::classification("a", 2),
            TaskSpec::classification("b", 3),
        ];
        let mut m = TreeModel::new(tasks);
        let trunk = m
            .add_node((0, 0), Block::conv_relu(3, 4, rng).unwrap(), None)
            .unwrap();
        m.add_node((0, 1), Block::head(4, 2, rng), Some(trunk))
            .unwrap();
        let mid = m
            .add_node((1, 1), Block::conv_relu(4, 4, rng).unwrap(), Some(trunk))
            .unwrap();
        m.add_node((1, 2), Block::head(4, 3, rng), Some(mid))
            .unwrap();
        m
    }

    use gmorph_data::TaskSpec;

    #[test]
    fn forward_emits_one_output_per_task() {
        let mut rng = Rng::new(0);
        let mut m = shared_tree(&mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let ys = m.forward(&x, Mode::Eval).unwrap();
        assert_eq!(ys.len(), 2);
        assert_eq!(ys[0].dims(), &[2, 2]);
        assert_eq!(ys[1].dims(), &[2, 3]);
    }

    #[test]
    fn shared_node_count_detects_trunk() {
        let mut rng = Rng::new(1);
        let m = shared_tree(&mut rng);
        assert_eq!(m.shared_node_count(), 1);
    }

    #[test]
    fn backward_accumulates_through_shared_trunk() {
        let mut rng = Rng::new(2);
        let mut m = shared_tree(&mut rng);
        let x = Tensor::randn(&[2, 3, 4, 4], 1.0, &mut rng);
        let ys = m.forward(&x, Mode::Train).unwrap();
        let grads = vec![Tensor::ones(ys[0].dims()), Tensor::ones(ys[1].dims())];
        m.backward(&grads).unwrap();
        // The trunk conv received gradient from both branches.
        let trunk_grad = match &m.nodes[0].block {
            Block::ConvRelu { conv, .. } => conv.weight.grad.sq_norm(),
            _ => panic!(),
        };
        assert!(trunk_grad > 0.0);
    }

    #[test]
    fn trunk_gradient_is_sum_of_branches() {
        // Gradient through the shared trunk must equal the sum of the
        // per-branch gradients computed separately.
        let mut rng = Rng::new(3);
        let x = Tensor::randn(&[1, 3, 4, 4], 1.0, &mut rng);

        let mut joint = shared_tree(&mut rng);
        let ys = joint.forward(&x, Mode::Train).unwrap();
        joint
            .backward(&[Tensor::ones(ys[0].dims()), Tensor::ones(ys[1].dims())])
            .unwrap();
        let joint_grad = match &joint.nodes[0].block {
            Block::ConvRelu { conv, .. } => conv.weight.grad.clone(),
            _ => panic!(),
        };

        // Branch-only runs: zero one head's gradient at a time.
        let mut sum = Tensor::zeros(joint_grad.dims());
        for t in 0..2 {
            // Rebuild with the same seed stream as `joint`: consume the
            // same randn for x first so the weights come out identical.
            let mut r2 = Rng::new(3);
            let _x2 = Tensor::randn(&[1, 3, 4, 4], 1.0, &mut r2);
            let mut m = shared_tree(&mut r2);
            let ys = m.forward(&x, Mode::Train).unwrap();
            let mut grads = vec![
                Tensor::zeros(ys[0].dims()),
                Tensor::zeros(ys[1].dims()),
            ];
            grads[t] = Tensor::ones(ys[t].dims());
            m.backward(&grads).unwrap();
            let g = match &m.nodes[0].block {
                Block::ConvRelu { conv, .. } => conv.weight.grad.clone(),
                _ => panic!(),
            };
            sum.add_assign(&g).unwrap();
        }
        for (a, b) in joint_grad.data().iter().zip(sum.data()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn backward_arity_checked() {
        let mut rng = Rng::new(4);
        let mut m = shared_tree(&mut rng);
        let x = Tensor::randn(&[1, 3, 4, 4], 1.0, &mut rng);
        let ys = m.forward(&x, Mode::Train).unwrap();
        assert!(m.backward(&[Tensor::ones(ys[0].dims())]).is_err());
    }

    #[test]
    fn forward_fails_without_head() {
        let mut rng = Rng::new(5);
        let tasks = vec![TaskSpec::classification("a", 2)];
        let mut m = TreeModel::new(tasks);
        m.add_node((0, 0), Block::conv_relu(3, 4, &mut rng).unwrap(), None)
            .unwrap();
        let x = Tensor::randn(&[1, 3, 4, 4], 1.0, &mut rng);
        assert!(m.forward(&x, Mode::Eval).is_err());
    }

    #[test]
    fn add_node_validates_parent_and_task() {
        let mut rng = Rng::new(6);
        let mut m = TreeModel::new(vec![TaskSpec::classification("a", 2)]);
        assert!(m
            .add_node((0, 0), Block::conv_relu(3, 4, &mut rng).unwrap(), Some(7))
            .is_err());
        // Head for unknown task rejected.
        assert!(m.add_node((3, 0), Block::head(4, 2, &mut rng), None).is_err());
    }
}
