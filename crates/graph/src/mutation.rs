//! Graph mutation: the five operations of Figure 5 and the mutation pass
//! of Figure 6.
//!
//! All five pre-defined operations are instances of one primitive — *make
//! node `m` reuse node `n`'s input features* (Definition 2's pair
//! `(n, m)`):
//!
//! - when `n` is an ancestor of `m`, this is the **in-branch** mutation
//!   (panel ①): the nodes between `n`'s input and `m` are removed,
//!   shortening the task's own chain;
//! - when `n` and `m` lie on different branches, this is a **cross-branch**
//!   mutation (panels ②-⑤): `m`'s branch re-roots onto the host branch at
//!   `n`'s input, the guest's now-dead prefix is removed, and the host
//!   prefix becomes shared between the tasks. Which panel applies follows
//!   from the relative depths of `n` and `m`, which we record in the
//!   outcome for diagnostics.
//!
//! If `n`'s input shape differs from what `m` expects, a re-scale adapter
//! (§4.1) is inserted between them.

use crate::absgraph::{AbsGraph, AbsNode, NodeId};
use gmorph_nn::{BlockSpec, OpType};
use gmorph_tensor::{Result, TensorError};

/// Which of the paper's mutation classes an operation fell into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    /// Panel ①: host and guest on the same branch.
    InBranch,
    /// Panels ②-⑤: host and guest on different branches. `guest_shortened`
    /// is true when the guest task ends up with fewer nodes than before
    /// (panels ④/⑤'s `m.op_id > n.op_id` case).
    CrossBranch {
        /// True when the guest task's path shrank.
        guest_shortened: bool,
    },
}

/// Record of one applied mutation operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutationOutcome {
    /// Operation class.
    pub kind: MutationKind,
    /// Key of the host node `n` (whose input is now shared).
    pub host: (usize, usize),
    /// Key of the guest node `m` (which now reuses that input).
    pub guest: (usize, usize),
    /// Whether a re-scale adapter was inserted.
    pub inserted_rescale: bool,
    /// How many nodes the garbage collection removed.
    pub removed_nodes: usize,
}

/// Applies the share-input primitive for pair `(n, m)`: `m` reuses `n`'s
/// input features (Definition 2).
///
/// Fails — leaving the graph in an unspecified but recoverable state only
/// if the failure happens after structural edits, which the pass guards
/// against by operating on a scratch clone — when the pair is structurally
/// illegal: identical nodes, `m` an ancestor of `n` (cycle), a no-op
/// (same parent), or an input that cannot be re-scaled (token ids).
pub(crate) fn share_input(g: &mut AbsGraph, n: NodeId, m: NodeId) -> Result<MutationOutcome> {
    let reject = |msg: String| {
        Err(TensorError::InvalidArgument {
            op: "mutation::share_input",
            msg,
        })
    };
    if n == m {
        return reject("host and guest are the same node".to_string());
    }
    let (host_key, host_parent, host_input) = {
        let hn = g.node(n)?;
        (hn.key(), hn.parent, hn.input_shape.clone())
    };
    let (guest_key, guest_parent, guest_input, guest_ty) = {
        let gn = g.node(m)?;
        (gn.key(), gn.parent, gn.input_shape.clone(), gn.op_type)
    };
    if g.is_ancestor(m, n)? {
        return reject("guest is an ancestor of the host (would form a cycle)".to_string());
    }
    if guest_parent == host_parent {
        return reject("guest already consumes the host's input (no-op)".to_string());
    }
    let needs_rescale = host_input != guest_input;
    if needs_rescale {
        let ranks_ok = matches!((host_input.len(), guest_input.len()), (3, 3) | (2, 2));
        if !ranks_ok {
            return reject(format!("cannot re-scale {host_input:?} to {guest_input:?}"));
        }
        if guest_ty == OpType::TokenEmbed {
            return reject(
                "token embeddings consume discrete ids; re-scaled features are invalid".to_string(),
            );
        }
    }
    let in_branch = g.is_ancestor(n, m)?;
    let guest_depth_before = g.ancestors(m)?.len();

    // Re-root the guest subtree.
    g.detach(m)?;
    let attach_under = if needs_rescale {
        let op_id = g.alloc_synthetic_op();
        let rescale = AbsNode {
            task_id: guest_key.0,
            op_id,
            op_type: OpType::Rescale,
            spec: BlockSpec::Rescale {
                from: host_input.clone(),
                to: guest_input.clone(),
            },
            input_shape: host_input.clone(),
            capacity: 0, // Recomputed by add_node.
            parent: host_parent,
            children: vec![],
        };
        Some(g.add_node(rescale)?)
    } else {
        host_parent
    };
    g.attach(m, attach_under)?;

    // Garbage-collect the guest's dead prefix: climb from the old parent
    // removing nodes that no longer feed anything.
    let mut removed = 0usize;
    let mut cur = guest_parent;
    while let Some(id) = cur {
        let node = g.node(id)?;
        if !node.children.is_empty() || node.op_type == OpType::Head {
            break;
        }
        let parent = node.parent;
        g.remove_leaf(id)?;
        removed += 1;
        cur = parent;
    }

    let guest_depth_after = g.ancestors(m)?.len();
    let kind = if in_branch {
        MutationKind::InBranch
    } else {
        MutationKind::CrossBranch {
            guest_shortened: guest_depth_after < guest_depth_before,
        }
    };
    Ok(MutationOutcome {
        kind,
        host: host_key,
        guest: guest_key,
        inserted_rescale: needs_rescale,
        removed_nodes: removed,
    })
}

/// A graph mutation pass (Figure 6): applies a sequence of share-input
/// operations to a base graph, skipping pairs invalidated by earlier
/// operations, and returns the mutated graph with the applied outcomes.
///
/// The base graph is never modified; each operation runs on a scratch
/// clone and is kept only if the resulting graph validates.
pub fn mutation_pass(
    base: &AbsGraph,
    pairs: &[(NodeId, NodeId)],
) -> Result<(AbsGraph, Vec<MutationOutcome>)> {
    let mut current = base.clone();
    let mut outcomes = Vec::new();
    for &(n, m) in pairs {
        if !current.contains(n) || !current.contains(m) {
            continue; // Invalidated by an earlier operation.
        }
        let mut trial = current.clone();
        match share_input(&mut trial, n, m) {
            Ok(outcome) if trial.validate().is_ok() => {
                current = trial;
                outcomes.push(outcome);
            }
            _ => {}
        }
    }
    Ok((current, outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_specs;
    use gmorph_data::TaskSpec;
    use gmorph_models::families::{vgg, VggDepth, VisionScale};
    use gmorph_models::ModelSpec;

    fn two_vgg_graph() -> AbsGraph {
        let t0 = TaskSpec::classification("a", 2);
        let t1 = TaskSpec::classification("b", 3);
        let specs: Vec<ModelSpec> = vec![
            vgg(VggDepth::Vgg11, VisionScale::mini(), &t0).unwrap(),
            vgg(VggDepth::Vgg13, VisionScale::mini(), &t1).unwrap(),
        ];
        parse_specs(&specs).unwrap()
    }

    /// Finds the node id with a given (task, op) key.
    fn by_key(g: &AbsGraph, task: usize, op: usize) -> NodeId {
        g.iter()
            .find(|(_, n)| n.task_id == task && n.op_id == op)
            .map(|(id, _)| id)
            .unwrap()
    }

    #[test]
    fn cross_branch_share_first_block() {
        let mut g = two_vgg_graph();
        let before = g.len();
        // Task 1's first conv reuses task 0's first conv input (the shared
        // input itself): task 1's prefix dies, branches merge at the root.
        let n = by_key(&g, 0, 0);
        let m = by_key(&g, 1, 1);
        let out = share_input(&mut g, n, m).unwrap();
        g.validate().unwrap();
        assert!(matches!(out.kind, MutationKind::CrossBranch { .. }));
        assert_eq!(out.removed_nodes, 1); // Task 1's op 0 died.
                                          // Graph shrank or stayed (rescale may offset).
        assert!(g.len() <= before);
    }

    #[test]
    fn in_branch_removes_intermediate_nodes() {
        let mut g = two_vgg_graph();
        let before = g.len();
        // Task 1 (VGG-13) has two convs per stage at the same shape:
        // op 0 (conv c3->4@16) and op 1 (conv 4->4@16). Pool is op 2.
        // Let op 3 (conv 4->8@8) reuse op 1's input: op 1..2 die but a
        // rescale appears ([4,16,16] vs [4,8,8] share the channel dim).
        let n = by_key(&g, 1, 1);
        let m = by_key(&g, 1, 3);
        let out = share_input(&mut g, n, m).unwrap();
        g.validate().unwrap();
        assert_eq!(out.kind, MutationKind::InBranch);
        assert!(out.removed_nodes >= 2);
        assert!(out.inserted_rescale);
        assert!(g.len() < before);
    }

    #[test]
    fn in_branch_same_shape_needs_no_rescale() {
        let mut g = two_vgg_graph();
        // VGG-13's fourth stage repeats conv(16->16) at constant spatial
        // size, so ops 9 and 10 consume identical [16,2,2] inputs; making
        // op 10 reuse op 9's input removes op 9 with no rescale.
        let n = by_key(&g, 1, 9);
        let m = by_key(&g, 1, 10);
        let n_in = g.node(n).unwrap().input_shape.clone();
        let m_in = g.node(m).unwrap().input_shape.clone();
        assert_eq!(n_in, m_in);
        let out = share_input(&mut g, n, m).unwrap();
        g.validate().unwrap();
        assert!(!out.inserted_rescale);
        assert_eq!(out.removed_nodes, 1);
    }

    #[test]
    fn rejects_self_cycle_and_noop() {
        let mut g = two_vgg_graph();
        let a = by_key(&g, 0, 0);
        let b = by_key(&g, 0, 2);
        assert!(share_input(&mut g, a, a).is_err());
        // Guest ancestor of host: cycle.
        assert!(share_input(&mut g, b, a).is_err());
        // Same parent (both consume the root input): no-op.
        let r0 = by_key(&g, 0, 0);
        let r1 = by_key(&g, 1, 0);
        assert!(share_input(&mut g, r0, r1).is_err());
    }

    #[test]
    fn share_into_head_keeps_tasks_alive() {
        let mut g = two_vgg_graph();
        // Task 1's head reuses a deep node input from task 0: task 1 loses
        // its whole trunk (B1's "share the entire backbone" case).
        let heads = g.head_of_task().unwrap();
        let deep_host = by_key(&g, 0, 9); // Task 0's conv in last stage.
        let out = share_input(&mut g, deep_host, heads[1]).unwrap();
        g.validate().unwrap();
        assert!(out.removed_nodes > 5);
        // Both tasks still have heads.
        assert_eq!(g.head_of_task().unwrap().len(), 2);
    }

    #[test]
    fn mutation_pass_skips_invalidated_pairs() {
        let g = two_vgg_graph();
        let n = by_key(&g, 0, 9);
        let h1 = g.head_of_task().unwrap()[1];
        // Second pair references task 1 nodes that die in the first op.
        let dead = by_key(&g, 1, 2);
        let other = by_key(&g, 1, 4);
        let (mutated, ops) = mutation_pass(&g, &[(n, h1), (dead, other)]).unwrap();
        mutated.validate().unwrap();
        assert_eq!(ops.len(), 1);
    }

    #[test]
    fn mutation_reduces_flops() {
        let g = two_vgg_graph();
        let n = by_key(&g, 0, 0);
        let m = by_key(&g, 1, 1);
        let (mutated, ops) = mutation_pass(&g, &[(n, m)]).unwrap();
        assert_eq!(ops.len(), 1);
        assert!(mutated.flops().unwrap() < g.flops().unwrap());
    }

    #[test]
    fn base_graph_is_untouched_by_pass() {
        let g = two_vgg_graph();
        let sig = g.signature();
        let n = by_key(&g, 0, 0);
        let m = by_key(&g, 1, 1);
        let _ = mutation_pass(&g, &[(n, m)]).unwrap();
        assert_eq!(g.signature(), sig);
    }
}
