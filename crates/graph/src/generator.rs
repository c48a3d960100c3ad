//! The Model Generator (§4.4).
//!
//! Converts a mutated abstract graph into a trainable [`TreeModel`],
//! initializing each node with the well-trained weights of the base
//! candidate from the History Database when the architectures match, and
//! with fresh weights otherwise (newly inserted re-scale adapters, or
//! nodes whose spec changed).

use crate::absgraph::{AbsGraph, NodeId};
use crate::parser::WeightStore;
use crate::tree::TreeModel;
use gmorph_tensor::rng::Rng;
use gmorph_tensor::Result;
use std::collections::HashMap;

/// Statistics about how a model was initialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InheritStats {
    /// Nodes initialized from inherited weights.
    pub inherited: usize,
    /// Nodes initialized fresh.
    pub fresh: usize,
}

/// Materializes a trainable multi-task model from an abstract graph
/// (Algorithm 1, line 10).
pub fn generate(
    graph: &AbsGraph,
    weights: &WeightStore,
    rng: &mut Rng,
) -> Result<(TreeModel, InheritStats)> {
    let mut model = TreeModel::new(graph.tasks.clone());
    let mut stats = InheritStats::default();
    let mut idx_of: HashMap<NodeId, usize> = HashMap::new();
    for id in graph.topo_order() {
        let node = graph.node(id)?;
        let mut block = node.spec.build(rng)?;
        match weights.lookup(node.key(), &node.spec) {
            Some(state) => {
                // Surrogate-mode stores hold empty *markers* (architecture
                // match without real tensors); those count as inherited
                // for the search but leave the fresh initialization alone.
                let expected = {
                    let mut n = 0usize;
                    block.visit_state(&mut |_| n += 1);
                    n
                };
                if state.len() == expected {
                    block.load_state(state)?;
                }
                stats.inherited += 1;
            }
            None => stats.fresh += 1,
        }
        let parent_idx = node.parent.map(|p| idx_of[&p]);
        let idx = model.add_node(node.key(), block, parent_idx)?;
        idx_of.insert(id, idx);
    }
    Ok((model, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation::mutation_pass;
    use crate::pairs::shareable_pairs;
    use crate::parser::{extract_weights, parse_models};
    use gmorph_data::TaskSpec;
    use gmorph_models::families::{vgg, VggDepth, VisionScale};
    use gmorph_models::SingleTaskModel;
    use gmorph_nn::Mode;
    use gmorph_tensor::Tensor;

    fn teachers(rng: &mut Rng) -> Vec<SingleTaskModel> {
        let t0 = TaskSpec::classification("a", 2);
        let t1 = TaskSpec::classification("b", 3);
        vec![
            vgg(VggDepth::Vgg11, VisionScale::mini(), &t0)
                .unwrap()
                .build(rng)
                .unwrap(),
            vgg(VggDepth::Vgg13, VisionScale::mini(), &t1)
                .unwrap()
                .build(rng)
                .unwrap(),
        ]
    }

    #[test]
    fn unmutated_graph_reproduces_teachers_exactly() {
        let mut rng = Rng::new(0);
        let mut models = teachers(&mut rng);
        let (graph, store) = parse_models(&models).unwrap();
        let (mut tree, stats) = generate(&graph, &store, &mut rng).unwrap();
        assert_eq!(stats.fresh, 0);
        assert_eq!(stats.inherited, graph.len());

        let x = Tensor::randn(&[2, 3, 16, 16], 1.0, &mut rng);
        let ys = tree.forward(&x, Mode::Eval).unwrap();
        for (t, m) in models.iter_mut().enumerate() {
            let direct = m.forward(&x, Mode::Eval).unwrap();
            assert_eq!(direct.dims(), ys[t].dims());
            for (a, b) in direct.data().iter().zip(ys[t].data()) {
                assert!((a - b).abs() < 1e-5, "task {t}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn mutated_graph_generates_and_runs() {
        let mut rng = Rng::new(1);
        let models = teachers(&mut rng);
        let (graph, store) = parse_models(&models).unwrap();
        let pairs = shareable_pairs(&graph).unwrap();
        // Pick a cross-task pair that inserts a rescale.
        let chosen = pairs
            .iter()
            .find(|&&(n, m)| {
                let hn = graph.node(n).unwrap();
                let gm = graph.node(m).unwrap();
                hn.task_id != gm.task_id && hn.input_shape != gm.input_shape
            })
            .copied()
            .expect("a rescaling cross-task pair exists");
        let (mutated, ops) = mutation_pass(&graph, &[chosen]).unwrap();
        assert_eq!(ops.len(), 1);
        let (mut tree, stats) = generate(&mutated, &store, &mut rng).unwrap();
        // The rescale node is fresh; surviving nodes inherit.
        assert_eq!(stats.fresh, 1);
        assert_eq!(stats.inherited, mutated.len() - 1);
        let x = Tensor::randn(&[2, 3, 16, 16], 1.0, &mut rng);
        let ys = tree.forward(&x, Mode::Eval).unwrap();
        assert_eq!(ys.len(), 2);
        assert_eq!(ys[0].dims(), &[2, 2]);
        assert_eq!(ys[1].dims(), &[2, 3]);
    }

    #[test]
    fn extract_weights_roundtrip_enables_reinheritance() {
        let mut rng = Rng::new(2);
        let models = teachers(&mut rng);
        let (graph, store) = parse_models(&models).unwrap();
        let (tree, _) = generate(&graph, &store, &mut rng).unwrap();
        let store2 = extract_weights(&tree);
        assert_eq!(store2.len(), graph.len());
        // Regenerating from the extracted weights inherits everything.
        let (_, stats) = generate(&graph, &store2, &mut rng).unwrap();
        assert_eq!(stats.fresh, 0);
    }

    #[test]
    fn backward_through_generated_mutant() {
        let mut rng = Rng::new(3);
        let models = teachers(&mut rng);
        let (graph, store) = parse_models(&models).unwrap();
        let pairs = shareable_pairs(&graph).unwrap();
        let cross = pairs
            .iter()
            .find(|&&(n, m)| graph.node(n).unwrap().task_id != graph.node(m).unwrap().task_id)
            .copied()
            .unwrap();
        let (mutated, _) = mutation_pass(&graph, &[cross]).unwrap();
        let (mut tree, _) = generate(&mutated, &store, &mut rng).unwrap();
        let x = Tensor::randn(&[2, 3, 16, 16], 1.0, &mut rng);
        let ys = tree.forward(&x, Mode::Train).unwrap();
        let grads: Vec<Tensor> = ys.iter().map(|y| Tensor::ones(y.dims())).collect();
        tree.backward(&grads).unwrap();
        // Some parameter received gradient.
        let mut total = 0.0f32;
        tree.visit_params(&mut |p| total += p.grad.sq_norm());
        assert!(total > 0.0);
    }
}
