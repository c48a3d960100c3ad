//! The comparison baselines of §6.1: All-shared and TreeMTL.
//!
//! - **All-shared**: "the most commonly used multi-task architecture where
//!   all identical layers are shared across tasks". We take the longest
//!   common prefix of architecturally identical blocks and merge it into a
//!   single trunk; each task keeps its remaining chain as a private
//!   branch. Heterogeneous models share little or nothing, which is the
//!   baseline's documented limitation.
//! - **TreeMTL**: the state-of-the-art MTL recommender, restricted (as MTL
//!   fundamentally is) to sharing *identical common* layers. It enumerates
//!   branch points along the common prefix and recommends the deepest one
//!   its own — systematically optimistic — accuracy estimate accepts,
//!   which reproduces the paper's observation that TreeMTL can over-share
//!   (B2's 2.79% drop) or under-share (B3/B4's ≤1.16× speedups).

use gmorph_graph::absgraph::{AbsGraph, AbsNode};
use gmorph_graph::parser::op_type_of;
use gmorph_graph::CapacityVector;
use gmorph_models::ModelSpec;
use gmorph_perf::accuracy::{surrogate_asymptote, SurrogateParams};
use gmorph_tensor::{Result, TensorError};

/// Builds the All-shared baseline graph: one trunk of the longest common
/// identical prefix, then per-task branches.
///
/// Shared trunk nodes carry task 0's `(task_id, op_id)` identity so the
/// model generator inherits task 0's weights for them, exactly like the
/// hard-parameter-sharing baselines the paper compares against.
pub fn all_shared(specs: &[ModelSpec]) -> Result<AbsGraph> {
    let first = specs.first().ok_or(TensorError::InvalidArgument {
        op: "baselines::all_shared",
        msg: "no models".to_string(),
    })?;
    for s in specs {
        if s.input_shape != first.input_shape {
            return Err(TensorError::InvalidArgument {
                op: "baselines::all_shared",
                msg: "models disagree on input shape".to_string(),
            });
        }
    }
    // Longest common prefix of identical block specs (never includes a
    // task head: heads differ per task and must stay private).
    let mut prefix = 0usize;
    'outer: while let Some(block) = first.blocks.get(prefix) {
        if matches!(block, gmorph_nn::BlockSpec::Head { .. }) {
            break;
        }
        for s in &specs[1..] {
            if s.blocks.get(prefix) != Some(block)
                || matches!(
                    s.blocks.get(prefix),
                    Some(gmorph_nn::BlockSpec::Head { .. })
                )
            {
                break 'outer;
            }
        }
        prefix += 1;
    }
    build_branched(specs, prefix)
}

/// Builds a tree sharing the first `branch_at` common-prefix blocks.
///
/// `branch_at` must not exceed the common identical prefix; 0 reproduces
/// the original separate models.
pub(crate) fn build_branched(specs: &[ModelSpec], branch_at: usize) -> Result<AbsGraph> {
    let first = specs.first().ok_or(TensorError::InvalidArgument {
        op: "baselines::build_branched",
        msg: "no models".to_string(),
    })?;
    for s in specs {
        if s.blocks.len() < branch_at || s.blocks[..branch_at] != first.blocks[..branch_at] {
            return Err(TensorError::InvalidArgument {
                op: "baselines::build_branched",
                msg: format!("branch point {branch_at} exceeds the identical prefix"),
            });
        }
    }
    let tasks = specs.iter().map(|s| s.task.clone()).collect();
    let mut g = AbsGraph::new(first.input_shape.clone(), tasks);
    // Shared trunk, identified as task 0's nodes.
    let mut trunk_tail = None;
    for (op_id, block) in first.blocks[..branch_at].iter().enumerate() {
        let input_shape = g.feed_shape(trunk_tail)?;
        let id = g.add_node(AbsNode {
            task_id: 0,
            op_id,
            op_type: op_type_of(block),
            spec: block.clone(),
            input_shape,
            capacity: 0,
            parent: trunk_tail,
            children: vec![],
        })?;
        trunk_tail = Some(id);
    }
    // Private branches.
    for (task_id, spec) in specs.iter().enumerate() {
        let mut prev = trunk_tail;
        for (op_id, block) in spec.blocks.iter().enumerate().skip(branch_at) {
            // Task 0's trunk nodes already exist; skip re-adding them.
            if task_id == 0 && op_id < branch_at {
                continue;
            }
            let input_shape = g.feed_shape(prev)?;
            let id = g.add_node(AbsNode {
                task_id,
                op_id,
                op_type: op_type_of(block),
                spec: block.clone(),
                input_shape,
                capacity: 0,
                parent: prev,
                children: vec![],
            })?;
            prev = Some(id);
        }
    }
    g.validate()?;
    Ok(g)
}

/// Length of the longest common identical (non-head) prefix.
pub fn common_prefix_len(specs: &[ModelSpec]) -> usize {
    let Some(first) = specs.first() else {
        return 0;
    };
    let mut prefix = 0usize;
    loop {
        let Some(block) = first.blocks.get(prefix) else {
            return prefix;
        };
        if matches!(block, gmorph_nn::BlockSpec::Head { .. }) {
            return prefix;
        }
        if specs[1..]
            .iter()
            .any(|s| s.blocks.get(prefix) != Some(block))
        {
            return prefix;
        }
        prefix += 1;
    }
}

/// TreeMTL's recommendation: the deepest branch point whose *optimistic*
/// accuracy estimate stays within the threshold.
///
/// TreeMTL's accuracy model has no access to fine-tuning feedback, so it
/// is emulated with a noise-free surrogate whose `free_share` is higher
/// than reality (it over-trusts task affinity) — reproducing the paper's
/// over-/under-sharing failure modes.
pub fn treemtl_recommend(specs: &[ModelSpec], threshold: f32) -> Result<AbsGraph> {
    let max_branch = common_prefix_len(specs);
    let original = build_branched(specs, 0)?;
    let orig_cv = CapacityVector::of(&original)?;
    let optimistic = SurrogateParams {
        free_share: 0.62,
        share_penalty: 0.0, // TreeMTL's affinity model over-trusts sharing.
        init_noise: 0.0,
        noise_mean: 0.0,
        ..Default::default()
    };
    let mut best = original;
    for branch_at in 1..=max_branch {
        let candidate = build_branched(specs, branch_at)?;
        let predicted = surrogate_asymptote(&candidate, &orig_cv, &optimistic, 0)?;
        if predicted <= threshold {
            best = candidate; // Deeper sharing always means lower latency.
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmorph_data::TaskSpec;
    use gmorph_models::families::{resnet, vgg, ResNetDepth, VggDepth, VisionScale};

    fn vgg13_pair() -> Vec<ModelSpec> {
        let t0 = TaskSpec::classification("a", 2);
        let t1 = TaskSpec::classification("b", 3);
        vec![
            vgg(VggDepth::Vgg13, VisionScale::mini(), &t0).unwrap(),
            vgg(VggDepth::Vgg13, VisionScale::mini(), &t1).unwrap(),
        ]
    }

    fn hetero_pair() -> Vec<ModelSpec> {
        let t0 = TaskSpec::classification("a", 2);
        let t1 = TaskSpec::classification("b", 3);
        vec![
            vgg(VggDepth::Vgg13, VisionScale::mini(), &t0).unwrap(),
            vgg(VggDepth::Vgg11, VisionScale::mini(), &t1).unwrap(),
        ]
    }

    #[test]
    fn identical_models_share_everything_but_heads() {
        let specs = vgg13_pair();
        let g = all_shared(&specs).unwrap();
        // Trunk = all non-head blocks once, + 2 heads.
        let expected = (specs[0].blocks.len() - 1) + 2;
        assert_eq!(g.len(), expected);
        g.validate().unwrap();
        // Both tasks still have heads.
        assert_eq!(g.head_of_task().unwrap().len(), 2);
    }

    #[test]
    fn heterogeneous_models_share_little() {
        let specs = hetero_pair();
        let prefix = common_prefix_len(&specs);
        // VGG-13 and VGG-11 diverge after the first conv (stage 1 has two
        // convs vs one).
        assert_eq!(prefix, 1);
        let g = all_shared(&specs).unwrap();
        let separate = specs.iter().map(|s| s.blocks.len()).sum::<usize>();
        assert_eq!(g.len(), separate - prefix);
    }

    #[test]
    fn cross_family_models_share_nothing() {
        let t0 = TaskSpec::classification("a", 2);
        let t1 = TaskSpec::classification("b", 3);
        let specs = vec![
            resnet(ResNetDepth::ResNet34, VisionScale::mini(), &t0).unwrap(),
            vgg(VggDepth::Vgg16, VisionScale::mini(), &t1).unwrap(),
        ];
        assert_eq!(common_prefix_len(&specs), 0);
        let g = all_shared(&specs).unwrap();
        assert_eq!(g.roots.len(), 2);
    }

    #[test]
    fn branched_builds_are_valid_and_cheaper_when_deeper() {
        let specs = vgg13_pair();
        let max = common_prefix_len(&specs);
        assert!(max >= 2);
        let shallow = build_branched(&specs, 1).unwrap();
        let deep = build_branched(&specs, max).unwrap();
        shallow.validate().unwrap();
        deep.validate().unwrap();
        assert!(deep.flops().unwrap() < shallow.flops().unwrap());
        // Beyond the identical prefix: rejected.
        let hetero = hetero_pair();
        assert!(build_branched(&hetero, 3).is_err());
    }

    #[test]
    fn treemtl_recommends_deeper_sharing_for_looser_thresholds() {
        let specs = vgg13_pair();
        let strict = treemtl_recommend(&specs, 0.0).unwrap();
        let loose = treemtl_recommend(&specs, 0.05).unwrap();
        assert!(loose.flops().unwrap() <= strict.flops().unwrap());
        loose.validate().unwrap();
    }
}
