//! The Model Parser (§4.2): models ⇄ abstract graph + weights.

use crate::absgraph::{AbsGraph, AbsNode};
use crate::tree::TreeModel;
use gmorph_models::{ModelSpec, SingleTaskModel};
use gmorph_nn::{BlockSpec, OpType, Tensor};
use gmorph_tensor::{Result, TensorError};
use std::collections::HashMap;

/// Well-trained weights keyed by node identity `(task_id, op_id)`.
///
/// This is the paper's "weights saved as key-value pairs, where each key is
/// the (task_id, op_id) of a node in the abs-graph and the value is the
/// parameters of the operator or the group of operators" (§4.2). The spec
/// is stored alongside so inheritance only happens between architecturally
/// identical blocks.
#[derive(Debug, Clone, Default)]
pub struct WeightStore {
    entries: HashMap<(usize, usize), (BlockSpec, Vec<Tensor>)>,
}

impl WeightStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        WeightStore::default()
    }

    /// Number of stored blocks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Stores (or replaces) the weights of one node.
    pub fn insert(&mut self, key: (usize, usize), spec: BlockSpec, state: Vec<Tensor>) {
        self.entries.insert(key, (spec, state));
    }

    /// Looks up weights for a node, returning them only if the stored
    /// architecture matches `spec`.
    pub fn lookup(&self, key: (usize, usize), spec: &BlockSpec) -> Option<&[Tensor]> {
        match self.entries.get(&key) {
            Some((s, state)) if s == spec => Some(state),
            _ => None,
        }
    }
}

/// Coarse operator type of a block spec (shared with baselines).
pub fn op_type_of(spec: &BlockSpec) -> OpType {
    match spec {
        BlockSpec::ConvRelu { .. } | BlockSpec::ConvBnRelu { .. } => OpType::Conv,
        BlockSpec::Residual { .. } => OpType::Residual,
        BlockSpec::MaxPool { .. } => OpType::Pool,
        BlockSpec::Transformer { .. } => OpType::Transformer,
        BlockSpec::PatchEmbed { .. } => OpType::PatchEmbed,
        BlockSpec::TokenEmbed { .. } => OpType::TokenEmbed,
        BlockSpec::Head { .. } => OpType::Head,
        BlockSpec::Rescale { .. } => OpType::Rescale,
    }
}

/// Parses a set of single-task model *specs* into an abstract graph
/// (weight-free — used for paper-scale estimation graphs).
pub fn parse_specs(specs: &[ModelSpec]) -> Result<AbsGraph> {
    let first = specs.first().ok_or(TensorError::InvalidArgument {
        op: "parse_specs",
        msg: "no models".to_string(),
    })?;
    for s in specs {
        if s.input_shape != first.input_shape {
            return Err(TensorError::InvalidArgument {
                op: "parse_specs",
                msg: format!(
                    "models disagree on input shape: {:?} vs {:?} — GMorph requires a shared input stream",
                    first.input_shape, s.input_shape
                ),
            });
        }
    }
    let tasks = specs.iter().map(|s| s.task.clone()).collect();
    let mut g = AbsGraph::new(first.input_shape.clone(), tasks);
    for (task_id, spec) in specs.iter().enumerate() {
        let mut prev = None;
        for (op_id, block) in spec.blocks.iter().enumerate() {
            let input_shape = g.feed_shape(prev)?;
            let id = g.add_node(AbsNode {
                task_id,
                op_id,
                op_type: op_type_of(block),
                spec: block.clone(),
                input_shape,
                capacity: 0, // Filled by add_node.
                parent: prev,
                children: vec![],
            })?;
            prev = Some(id);
        }
    }
    g.validate()?;
    Ok(g)
}

/// Parses well-trained single-task models into an abstract graph plus
/// their weights (Algorithm 1, line 1).
pub fn parse_models(models: &[SingleTaskModel]) -> Result<(AbsGraph, WeightStore)> {
    let specs: Vec<ModelSpec> = models.iter().map(|m| m.spec.clone()).collect();
    let graph = parse_specs(&specs)?;
    let mut store = WeightStore::new();
    for (task_id, m) in models.iter().enumerate() {
        for (op_id, block) in m.blocks.iter().enumerate() {
            store.insert((task_id, op_id), block.spec(), block.state());
        }
    }
    Ok((graph, store))
}

/// Parses a trained multi-task model back into weights (Algorithm 1,
/// line 13): the graph is already known; the fresh weights feed the
/// History Database so future mutations inherit them.
pub fn extract_weights(tree: &TreeModel) -> WeightStore {
    let mut store = WeightStore::new();
    for node in tree.nodes() {
        store.insert(node.key, node.block.spec(), node.block.state());
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmorph_data::TaskSpec;
    use gmorph_models::families::{vgg, VggDepth, VisionScale};
    use gmorph_tensor::rng::Rng;

    fn two_vggs() -> Vec<ModelSpec> {
        let t0 = TaskSpec::classification("a", 2);
        let t1 = TaskSpec::classification("b", 3);
        vec![
            vgg(VggDepth::Vgg11, VisionScale::mini(), &t0).unwrap(),
            vgg(VggDepth::Vgg13, VisionScale::mini(), &t1).unwrap(),
        ]
    }

    #[test]
    fn parse_specs_builds_chains() {
        let specs = two_vggs();
        let g = parse_specs(&specs).unwrap();
        assert_eq!(g.len(), specs[0].blocks.len() + specs[1].blocks.len());
        assert_eq!(g.roots.len(), 2);
        g.validate().unwrap();
        // op_ids are dense per task.
        let mut per_task: Vec<Vec<usize>> = vec![vec![], vec![]];
        for (_, n) in g.iter() {
            per_task[n.task_id].push(n.op_id);
        }
        for ops in &mut per_task {
            ops.sort_unstable();
            assert_eq!(*ops, (0..ops.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parse_rejects_mismatched_inputs() {
        let t = TaskSpec::classification("a", 2);
        let a = vgg(VggDepth::Vgg11, VisionScale::mini(), &t).unwrap();
        let b = vgg(
            VggDepth::Vgg11,
            VisionScale {
                in_channels: 3,
                img: 32,
                base: 4,
            },
            &t,
        )
        .unwrap();
        assert!(parse_specs(&[a, b]).is_err());
        assert!(parse_specs(&[]).is_err());
    }

    #[test]
    fn parse_models_stores_all_weights() {
        let mut rng = Rng::new(0);
        let specs = two_vggs();
        let models: Vec<SingleTaskModel> =
            specs.iter().map(|s| s.build(&mut rng).unwrap()).collect();
        let (g, store) = parse_models(&models).unwrap();
        assert_eq!(store.len(), g.len());
        // Lookup returns weights only for matching specs.
        let (id, node) = g.iter().next().unwrap();
        let _ = id;
        assert!(store.lookup(node.key(), &node.spec).is_some());
        let wrong = BlockSpec::MaxPool { k: 2 };
        assert!(store.lookup(node.key(), &wrong).is_none());
    }
}
