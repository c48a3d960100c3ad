//! Input-shareable node pairs (Definition 2).
//!
//! Two nodes form an input-shareable pair when their input features "have
//! compatible shapes in at least one dimension". The empirical study of
//! §2.2.1 (our Figure 1 reproduction) shows that restricting sharing to
//! such pairs dominates the accuracy/speedup Pareto frontier, so the
//! default enumeration requires shape similarity; the unrestricted variant
//! exists for the Figure 1 baseline and the ablation.

use crate::absgraph::{AbsGraph, NodeId};
use gmorph_nn::OpType;
use gmorph_tensor::{Result, Shape};

/// How candidate pairs are filtered by input-shape relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairPolicy {
    /// Definition 2: at least one dimension equal (the paper's default).
    SimilarShape,
    /// Same rank but *no* dimension equal (Figure 1's blue points).
    DissimilarShape,
    /// Any same-rank pair (union of the above).
    AnyShape,
}

/// Enumerates candidate `(host, guest)` pairs under a policy.
///
/// Structural legality (no cycles, no no-ops, re-scalable ranks, no
/// re-scaled inputs into token embeddings) is enforced here so the
/// sampler never draws dead pairs.
pub fn pairs_with(g: &AbsGraph, policy: PairPolicy) -> Result<Vec<(NodeId, NodeId)>> {
    let ids = g.ids();
    let mut out = Vec::new();
    for &n in &ids {
        for &m in &ids {
            if n == m {
                continue;
            }
            let host = g.node(n)?;
            let guest = g.node(m)?;
            let hs = Shape::from(host.input_shape.as_slice());
            let gs = Shape::from(guest.input_shape.as_slice());
            if hs.rank() != gs.rank() {
                continue;
            }
            let similar = hs.shares_any_dim(&gs);
            let keep = match policy {
                PairPolicy::SimilarShape => similar,
                PairPolicy::DissimilarShape => !similar,
                PairPolicy::AnyShape => true,
            };
            if !keep {
                continue;
            }
            if host.input_shape != guest.input_shape {
                // A re-scale adapter would be needed: only vision [C,H,W]
                // and sequence [T,D] features support one, and token
                // embeddings cannot consume re-scaled (continuous) inputs.
                if !matches!(hs.rank(), 2 | 3) || guest.op_type == OpType::TokenEmbed {
                    continue;
                }
            }
            if guest.parent == host.parent {
                continue; // No-op.
            }
            if g.is_ancestor(m, n)? {
                continue; // Would form a cycle.
            }
            out.push((n, m));
        }
    }
    Ok(out)
}

/// The paper's default enumeration (Definition 2).
pub fn shareable_pairs(g: &AbsGraph) -> Result<Vec<(NodeId, NodeId)>> {
    pairs_with(g, PairPolicy::SimilarShape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_specs;
    use gmorph_data::TaskSpec;
    use gmorph_models::families::{bert, vgg, SeqScale, VggDepth, VisionScale};

    fn vgg_graph() -> AbsGraph {
        let t0 = TaskSpec::classification("a", 2);
        let t1 = TaskSpec::classification("b", 3);
        parse_specs(&[
            vgg(VggDepth::Vgg11, VisionScale::mini(), &t0).unwrap(),
            vgg(VggDepth::Vgg13, VisionScale::mini(), &t1).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn similar_pairs_nonempty_and_legal() {
        let g = vgg_graph();
        let pairs = shareable_pairs(&g).unwrap();
        assert!(!pairs.is_empty());
        for &(n, m) in &pairs {
            let hn = g.node(n).unwrap();
            let gm = g.node(m).unwrap();
            let hs = Shape::from(hn.input_shape.as_slice());
            let gs = Shape::from(gm.input_shape.as_slice());
            assert!(hs.shares_any_dim(&gs));
            assert_ne!(hn.parent, gm.parent);
            assert!(!g.is_ancestor(m, n).unwrap());
        }
    }

    #[test]
    fn policies_partition_same_rank_pairs() {
        let g = vgg_graph();
        let similar = pairs_with(&g, PairPolicy::SimilarShape).unwrap();
        let dissimilar = pairs_with(&g, PairPolicy::DissimilarShape).unwrap();
        let any = pairs_with(&g, PairPolicy::AnyShape).unwrap();
        assert_eq!(similar.len() + dissimilar.len(), any.len());
        for p in &similar {
            assert!(!dissimilar.contains(p));
        }
    }

    #[test]
    fn every_similar_pair_survives_a_mutation_pass() {
        // The enumeration must only produce pairs the mutation engine
        // accepts.
        let g = vgg_graph();
        for &(n, m) in shareable_pairs(&g).unwrap().iter() {
            let (mutated, ops) = crate::mutation::mutation_pass(&g, &[(n, m)]).unwrap();
            assert_eq!(ops.len(), 1, "pair ({n},{m}) was rejected");
            mutated.validate().unwrap();
        }
    }

    #[test]
    fn token_embeds_never_take_rescaled_inputs() {
        let cola = TaskSpec::matthews("cola");
        let sst = TaskSpec::classification("sst", 2);
        let g = parse_specs(&[
            bert(
                "L",
                SeqScale {
                    d: 48,
                    heads: 4,
                    depth: 2,
                },
                32,
                12,
                &cola,
            )
            .unwrap(),
            bert(
                "B",
                SeqScale {
                    d: 32,
                    heads: 4,
                    depth: 2,
                },
                32,
                12,
                &sst,
            )
            .unwrap(),
        ])
        .unwrap();
        for &(n, m) in pairs_with(&g, PairPolicy::AnyShape).unwrap().iter() {
            let guest = g.node(m).unwrap();
            if guest.op_type == OpType::TokenEmbed {
                assert_eq!(
                    g.node(n).unwrap().input_shape,
                    guest.input_shape,
                    "token embed offered a rescaled input"
                );
            }
        }
    }

    #[test]
    fn transformer_graphs_have_cross_width_pairs() {
        // BERT-Large (d=48) and BERT-Base (d=32) encoders share the token
        // count dimension, so cross-model pairs must exist (this is what
        // makes B7's fusion possible).
        let cola = TaskSpec::matthews("cola");
        let sst = TaskSpec::classification("sst", 2);
        let g = parse_specs(&[
            bert(
                "L",
                SeqScale {
                    d: 48,
                    heads: 4,
                    depth: 2,
                },
                32,
                12,
                &cola,
            )
            .unwrap(),
            bert(
                "B",
                SeqScale {
                    d: 32,
                    heads: 4,
                    depth: 2,
                },
                32,
                12,
                &sst,
            )
            .unwrap(),
        ])
        .unwrap();
        let pairs = shareable_pairs(&g).unwrap();
        let cross = pairs
            .iter()
            .any(|&(n, m)| g.node(n).unwrap().task_id != g.node(m).unwrap().task_id);
        assert!(cross);
    }
}
