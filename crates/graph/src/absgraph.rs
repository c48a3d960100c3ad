//! The abstract graph data structure (Definition 1).

use gmorph_data::TaskSpec;
use gmorph_nn::{BlockSpec, OpType};
use gmorph_tensor::{Result, TensorError};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Identifier of a node within an abstract graph.
pub type NodeId = usize;

/// One node of an abstract graph: a computation block plus the annotations
/// of Definition 1's node tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsNode {
    /// Task (input DNN) the node originally came from.
    pub task_id: usize,
    /// Topological order of the node within its original DNN. Synthetic
    /// nodes inserted by mutation (re-scale adapters) get ids ≥
    /// [`AbsGraph::SYNTHETIC_BASE`].
    pub op_id: usize,
    /// Coarse operator type.
    pub op_type: OpType,
    /// Architecture of the block.
    pub spec: BlockSpec,
    /// Per-sample input feature shape.
    pub input_shape: Vec<usize>,
    /// Number of parameters (the paper's *capacity*).
    pub capacity: usize,
    /// Parent node; `None` means the node consumes the shared input.
    pub parent: Option<NodeId>,
    /// Child nodes.
    pub children: Vec<NodeId>,
}

impl AbsNode {
    /// The `(task_id, op_id)` key identifying this node's weights.
    pub fn key(&self) -> (usize, usize) {
        (self.task_id, self.op_id)
    }

    /// Per-sample output shape.
    pub fn out_shape(&self) -> Result<Vec<usize>> {
        self.spec.out_shape(&self.input_shape)
    }
}

/// FNV-1a-128 offset basis.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a-128 prime, 2^88 + 2^8 + 0x3b.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

fn fnv1a_128(bytes: &[u8], mut h: u128) -> u128 {
    for &b in bytes {
        h = (h ^ b as u128).wrapping_mul(FNV128_PRIME);
    }
    h
}

/// The [`AbsGraph::digest`] of a graph whose signature is `signature`:
/// how signatures stored as text become digests.
pub fn signature_digest(signature: &str) -> u128 {
    fnv1a_128(signature.as_bytes(), FNV128_OFFSET)
}

/// An abstract graph: a tree of computation nodes rooted at a placeholder
/// for the shared input tensor (Definition 1).
#[derive(Debug, Clone)]
pub struct AbsGraph {
    nodes: BTreeMap<NodeId, AbsNode>,
    next_id: NodeId,
    next_synthetic_op: usize,
    /// Per-sample shape of the shared input.
    pub input_shape: Vec<usize>,
    /// Children of the input placeholder.
    pub roots: Vec<NodeId>,
    /// Task descriptors, indexed by `task_id`.
    pub tasks: Vec<TaskSpec>,
}

impl AbsGraph {
    /// First `op_id` used for synthetic (mutation-inserted) nodes.
    pub(crate) const SYNTHETIC_BASE: usize = 1 << 20;

    /// Creates an empty graph over the given shared input shape and tasks.
    pub fn new(input_shape: Vec<usize>, tasks: Vec<TaskSpec>) -> Self {
        AbsGraph {
            nodes: BTreeMap::new(),
            next_id: 0,
            next_synthetic_op: Self::SYNTHETIC_BASE,
            input_shape,
            roots: Vec::new(),
            tasks,
        }
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Returns a node by id.
    pub fn node(&self, id: NodeId) -> Result<&AbsNode> {
        self.nodes.get(&id).ok_or(TensorError::OutOfBounds {
            op: "AbsGraph::node",
            index: id,
            bound: self.next_id,
        })
    }

    /// Returns a node by id, mutably.
    pub(crate) fn node_mut(&mut self, id: NodeId) -> Result<&mut AbsNode> {
        let bound = self.next_id;
        self.nodes.get_mut(&id).ok_or(TensorError::OutOfBounds {
            op: "AbsGraph::node_mut",
            index: id,
            bound,
        })
    }

    /// True when `id` refers to a live node.
    pub(crate) fn contains(&self, id: NodeId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// Iterates over `(id, node)` pairs in id order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &AbsNode)> {
        self.nodes.iter().map(|(&id, n)| (id, n))
    }

    /// All live node ids in order.
    pub(crate) fn ids(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }

    /// Adds a node, wiring it under `parent` (or the input placeholder).
    pub fn add_node(&mut self, mut node: AbsNode) -> Result<NodeId> {
        let id = self.next_id;
        self.next_id += 1;
        node.capacity = node.spec.capacity();
        match node.parent {
            Some(p) => {
                self.node_mut(p)?.children.push(id);
            }
            None => self.roots.push(id),
        }
        self.nodes.insert(id, node);
        Ok(id)
    }

    /// Allocates a fresh synthetic `op_id` (for re-scale adapters).
    pub(crate) fn alloc_synthetic_op(&mut self) -> usize {
        let id = self.next_synthetic_op;
        self.next_synthetic_op += 1;
        id
    }

    /// The arena's allocation counters `(next_id, next_synthetic_op)`.
    ///
    /// Exposed for crash-safe checkpointing: two graphs that are
    /// structurally equal but disagree on these counters would assign
    /// different ids to the *next* mutation, so a bit-exact resume must
    /// snapshot and restore them.
    pub(crate) fn arena_counters(&self) -> (NodeId, usize) {
        (self.next_id, self.next_synthetic_op)
    }

    /// Rebuilds a graph from raw arena parts, preserving node ids, root
    /// and child ordering, and allocation counters exactly.
    ///
    /// This is the restore half of the graph codec
    /// ([`crate::persist::decode_graph_exact`]): a graph restored here
    /// continues to mutate identically to the one that was saved. Node
    /// `capacity` is recomputed from the spec (as [`AbsGraph::add_node`]
    /// does) once the spec accepts its input shape, and the result is
    /// validated.
    pub(crate) fn from_arena(
        input_shape: Vec<usize>,
        tasks: Vec<TaskSpec>,
        nodes: Vec<(NodeId, AbsNode)>,
        roots: Vec<NodeId>,
        next_id: NodeId,
        next_synthetic_op: usize,
    ) -> Result<AbsGraph> {
        let mut g = AbsGraph::new(input_shape, tasks);
        for (id, mut node) in nodes {
            if id >= next_id {
                return Err(TensorError::InvalidArgument {
                    op: "AbsGraph::from_arena",
                    msg: format!("node id {id} not below next_id {next_id}"),
                });
            }
            node.spec.out_shape(&node.input_shape)?;
            node.capacity = node.spec.capacity();
            if g.nodes.insert(id, node).is_some() {
                return Err(TensorError::InvalidArgument {
                    op: "AbsGraph::from_arena",
                    msg: format!("duplicate node id {id}"),
                });
            }
        }
        g.roots = roots;
        g.next_id = next_id;
        g.next_synthetic_op = next_synthetic_op.max(Self::SYNTHETIC_BASE);
        g.validate()?;
        Ok(g)
    }

    /// Detaches `id` from its parent (or the root list) without removing it.
    pub(crate) fn detach(&mut self, id: NodeId) -> Result<()> {
        let parent = self.node(id)?.parent;
        match parent {
            Some(p) => {
                let children = &mut self.node_mut(p)?.children;
                children.retain(|&c| c != id);
            }
            None => self.roots.retain(|&r| r != id),
        }
        self.node_mut(id)?.parent = None;
        Ok(())
    }

    /// Attaches a detached node under `parent` (or the input placeholder).
    pub(crate) fn attach(&mut self, id: NodeId, parent: Option<NodeId>) -> Result<()> {
        match parent {
            Some(p) => self.node_mut(p)?.children.push(id),
            None => self.roots.push(id),
        }
        self.node_mut(id)?.parent = parent;
        Ok(())
    }

    /// Removes a leaf node entirely.
    pub(crate) fn remove_leaf(&mut self, id: NodeId) -> Result<AbsNode> {
        if !self.node(id)?.children.is_empty() {
            return Err(TensorError::InvalidArgument {
                op: "AbsGraph::remove_leaf",
                msg: format!("node {id} has children"),
            });
        }
        self.detach(id)?;
        Ok(self.nodes.remove(&id).expect("checked above"))
    }

    /// Ancestors of a node, nearest first (excluding the node itself).
    pub fn ancestors(&self, id: NodeId) -> Result<Vec<NodeId>> {
        let mut out = Vec::new();
        let mut cur = self.node(id)?.parent;
        while let Some(p) = cur {
            out.push(p);
            cur = self.node(p)?.parent;
        }
        Ok(out)
    }

    /// True when `a` is an ancestor of `b`.
    pub(crate) fn is_ancestor(&self, a: NodeId, b: NodeId) -> Result<bool> {
        Ok(self.ancestors(b)?.contains(&a))
    }

    /// The input shape a child of `parent` consumes: the parent's output
    /// shape, or the shared input shape at the placeholder.
    pub fn feed_shape(&self, parent: Option<NodeId>) -> Result<Vec<usize>> {
        match parent {
            Some(p) => self.node(p)?.out_shape(),
            None => Ok(self.input_shape.clone()),
        }
    }

    /// Ids in topological (parent-before-child) order, deterministic.
    pub(crate) fn topo_order(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack: Vec<NodeId> = self.roots.iter().rev().copied().collect();
        while let Some(id) = stack.pop() {
            if let Some(n) = self.nodes.get(&id) {
                out.push(id);
                // A walk longer than the arena revisits nodes: the child
                // links of a corrupt graph form a cycle, which `validate`
                // reports.
                if out.len() > self.nodes.len() {
                    break;
                }
                for &c in n.children.iter().rev() {
                    stack.push(c);
                }
            }
        }
        out
    }

    /// The head (leaf) node id of each task, indexed by `task_id`.
    pub fn head_of_task(&self) -> Result<Vec<NodeId>> {
        let mut heads: Vec<Option<NodeId>> = vec![None; self.tasks.len()];
        for (id, n) in self.iter() {
            if n.op_type == OpType::Head {
                let t = n.task_id;
                if t >= heads.len() || heads[t].is_some() {
                    return Err(TensorError::InvalidArgument {
                        op: "AbsGraph::head_of_task",
                        msg: format!("task {t} has duplicate or out-of-range head"),
                    });
                }
                heads[t] = Some(id);
            }
        }
        heads
            .into_iter()
            .enumerate()
            .map(|(t, h)| {
                h.ok_or(TensorError::InvalidArgument {
                    op: "AbsGraph::head_of_task",
                    msg: format!("task {t} has no head"),
                })
            })
            .collect()
    }

    /// For every node, the set of tasks whose head lies in its subtree.
    pub fn serving_tasks(&self) -> Result<HashMap<NodeId, Vec<usize>>> {
        let heads = self.head_of_task()?;
        let mut serving: HashMap<NodeId, Vec<usize>> = HashMap::new();
        for (task, &head) in heads.iter().enumerate() {
            serving.entry(head).or_default().push(task);
            for a in self.ancestors(head)? {
                serving.entry(a).or_default().push(task);
            }
        }
        for v in serving.values_mut() {
            v.sort_unstable();
            v.dedup();
        }
        Ok(serving)
    }

    /// Total per-sample FLOPs of the graph.
    pub fn flops(&self) -> Result<u64> {
        let mut total = 0u64;
        for (_, n) in self.iter() {
            total += n.spec.flops(&n.input_shape)?;
        }
        Ok(total)
    }

    /// Checks every structural invariant; returns an error naming the
    /// first violation.
    ///
    /// Invariants: parent/child links are symmetric; the graph is a forest
    /// reachable from `roots`; every node's `input_shape` equals what its
    /// parent feeds it; every leaf is a Head and every Head is a leaf;
    /// every task has exactly one head; capacities match specs.
    pub fn validate(&self) -> Result<()> {
        let fail = |msg: String| {
            Err(TensorError::InvalidArgument {
                op: "AbsGraph::validate",
                msg,
            })
        };
        // Link symmetry and reachability.
        let topo = self.topo_order();
        if topo.len() != self.nodes.len() {
            return fail(format!(
                "{} nodes but {} reachable from roots",
                self.nodes.len(),
                topo.len()
            ));
        }
        for (id, n) in self.iter() {
            match n.parent {
                Some(p) => {
                    let pn = self.node(p)?;
                    if !pn.children.contains(&id) {
                        return fail(format!("node {id} missing from parent {p}'s children"));
                    }
                }
                None => {
                    if !self.roots.contains(&id) {
                        return fail(format!("parentless node {id} not in roots"));
                    }
                }
            }
            for &c in &n.children {
                if self.node(c)?.parent != Some(id) {
                    return fail(format!("child {c} does not point back to {id}"));
                }
            }
            // Shape chain.
            let feed = self.feed_shape(n.parent)?;
            if feed != n.input_shape {
                return fail(format!(
                    "node {id} expects input {:?} but parent feeds {:?}",
                    n.input_shape, feed
                ));
            }
            n.out_shape()?; // The spec must accept its input.
            if n.capacity != n.spec.capacity() {
                return fail(format!("node {id} capacity out of date"));
            }
            // Leaf <=> head.
            let is_head = n.op_type == OpType::Head;
            if is_head != n.children.is_empty() {
                return fail(format!(
                    "node {id}: head={is_head} but has {} children",
                    n.children.len()
                ));
            }
        }
        self.head_of_task()?;
        Ok(())
    }

    /// Canonical structural signature, equal for isomorphic graphs.
    ///
    /// The text [`AbsGraph::write_signature`] streams; the search itself
    /// keys on its [`AbsGraph::digest`].
    pub fn signature(&self) -> String {
        let mut out = String::new();
        self.write_signature(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Streams the canonical structural signature into `out`: per node
    /// `(task_id:op_id:{spec:?}`, then its children ordered by
    /// `(task_id, op_id)`, then `)`, over the roots in the same order.
    ///
    /// The one signature walker: [`AbsGraph::signature`] collects it,
    /// while [`AbsGraph::digest`], the checkpoint config fingerprint and
    /// the surrogate's noise seed hash the pieces as they come, building
    /// no string.
    pub fn write_signature(&self, out: &mut impl fmt::Write) -> fmt::Result {
        self.write_subtrees(&self.roots, out)
    }

    /// Writes the signatures of the subtrees rooted at `ids`, ordered by
    /// `(task_id, op_id)`.
    fn write_subtrees(&self, ids: &[NodeId], out: &mut impl fmt::Write) -> fmt::Result {
        let sorted;
        let ids = if ids.len() > 1 {
            let mut v = ids.to_vec();
            v.sort_by_key(|&c| {
                let n = self.node(c).expect("live child");
                (n.task_id, n.op_id)
            });
            sorted = v;
            &sorted[..]
        } else {
            ids
        };
        for &id in ids {
            let n = self.node(id).expect("signature over live nodes");
            write!(out, "({}:{}:{:?}", n.task_id, n.op_id, n.spec)?;
            self.write_subtrees(&n.children, out)?;
            out.write_char(')')?;
        }
        Ok(())
    }

    /// 128-bit digest of [`AbsGraph::signature`]: FNV-1a over its bytes.
    ///
    /// What the history database and the quarantine list key on. Two
    /// graphs share a digest exactly when they share a signature, up to
    /// FNV collisions (DESIGN.md §12 bounds their probability).
    pub fn digest(&self) -> u128 {
        struct Fnv128(u128);
        impl fmt::Write for Fnv128 {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 = fnv1a_128(s.as_bytes(), self.0);
                Ok(())
            }
        }
        let mut h = Fnv128(FNV128_OFFSET);
        self.write_signature(&mut h).expect("hashing cannot fail");
        h.0
    }

    /// Renders the graph as indented text (the Figure 9-style
    /// visualization).
    pub fn render(&self) -> String {
        fn rec(
            g: &AbsGraph,
            id: NodeId,
            depth: usize,
            serving: &HashMap<NodeId, Vec<usize>>,
            out: &mut String,
        ) {
            let n = g.node(id).expect("render over live nodes");
            let tasks = serving
                .get(&id)
                .map(|v| {
                    v.iter()
                        .map(|t| g.tasks[*t].name.clone())
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .unwrap_or_default();
            out.push_str(&format!(
                "{}{} in={:?} [{}]\n",
                "  ".repeat(depth),
                n.spec.describe(),
                n.input_shape,
                tasks
            ));
            for &c in &n.children {
                rec(g, c, depth + 1, serving, out);
            }
        }
        let serving = self.serving_tasks().unwrap_or_default();
        let mut out = format!("Input {:?}\n", self.input_shape);
        for &r in &self.roots {
            rec(self, r, 1, &serving, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmorph_data::TaskSpec;

    /// Builds a small two-task graph: two chains off the input.
    fn two_chain() -> AbsGraph {
        let tasks = vec![
            TaskSpec::classification("t0", 2),
            TaskSpec::classification("t1", 3),
        ];
        let mut g = AbsGraph::new(vec![3, 8, 8], tasks);
        let mut prev = None;
        for (op, spec) in [
            BlockSpec::ConvRelu { c_in: 3, c_out: 4 },
            BlockSpec::ConvRelu { c_in: 4, c_out: 4 },
            BlockSpec::Head {
                features: 4,
                classes: 2,
            },
        ]
        .into_iter()
        .enumerate()
        {
            let input_shape = g.feed_shape(prev).unwrap();
            let id = g
                .add_node(AbsNode {
                    task_id: 0,
                    op_id: op,
                    op_type: match spec {
                        BlockSpec::Head { .. } => OpType::Head,
                        _ => OpType::Conv,
                    },
                    spec,
                    input_shape,
                    capacity: 0,
                    parent: prev,
                    children: vec![],
                })
                .unwrap();
            prev = Some(id);
        }
        let mut prev = None;
        for (op, spec) in [
            BlockSpec::ConvRelu { c_in: 3, c_out: 8 },
            BlockSpec::Head {
                features: 8,
                classes: 3,
            },
        ]
        .into_iter()
        .enumerate()
        {
            let input_shape = g.feed_shape(prev).unwrap();
            let id = g
                .add_node(AbsNode {
                    task_id: 1,
                    op_id: op,
                    op_type: match spec {
                        BlockSpec::Head { .. } => OpType::Head,
                        _ => OpType::Conv,
                    },
                    spec,
                    input_shape,
                    capacity: 0,
                    parent: prev,
                    children: vec![],
                })
                .unwrap();
            prev = Some(id);
        }
        g
    }

    #[test]
    fn construction_and_validate() {
        let g = two_chain();
        assert_eq!(g.len(), 5);
        assert_eq!(g.roots.len(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn topo_order_is_parent_first() {
        let g = two_chain();
        let topo = g.topo_order();
        assert_eq!(topo.len(), 5);
        for (i, &id) in topo.iter().enumerate() {
            if let Some(p) = g.node(id).unwrap().parent {
                assert!(topo[..i].contains(&p));
            }
        }
    }

    #[test]
    fn head_of_task_and_serving() {
        let g = two_chain();
        let heads = g.head_of_task().unwrap();
        assert_eq!(heads.len(), 2);
        let serving = g.serving_tasks().unwrap();
        // Root of chain 0 serves only task 0.
        assert_eq!(serving[&g.roots[0]], vec![0]);
        assert_eq!(serving[&g.roots[1]], vec![1]);
    }

    #[test]
    fn detach_attach_roundtrip() {
        let mut g = two_chain();
        let heads = g.head_of_task().unwrap();
        let h0 = heads[0];
        let old_parent = g.node(h0).unwrap().parent;
        g.detach(h0).unwrap();
        assert!(g.node(h0).unwrap().parent.is_none());
        g.attach(h0, old_parent).unwrap();
        g.validate().unwrap();
    }

    #[test]
    fn validate_catches_shape_breaks() {
        let mut g = two_chain();
        // Move task 1's head under task 0's trunk: 8-feature head now fed
        // 4-channel features.
        let heads = g.head_of_task().unwrap();
        let h1 = heads[1];
        let t0_mid = g.roots[0];
        g.detach(h1).unwrap();
        g.attach(h1, Some(t0_mid)).unwrap();
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_catches_orphan_leaf() {
        let mut g = two_chain();
        let heads = g.head_of_task().unwrap();
        // Removing a head leaves its parent a non-head leaf.
        g.remove_leaf(heads[0]).unwrap();
        assert!(g.validate().is_err());
    }

    #[test]
    fn signature_is_stable_and_discriminating() {
        let a = two_chain();
        let b = two_chain();
        assert_eq!(a.signature(), b.signature());
        let mut c = two_chain();
        let heads = c.head_of_task().unwrap();
        c.remove_leaf(heads[0]).unwrap();
        assert_ne!(a.signature(), c.signature());
    }

    /// FNV-1a-128 written out byte by byte: the reference `digest` must
    /// match.
    fn reference_fnv1a_128(bytes: &[u8]) -> u128 {
        let mut h: u128 = 0x6c62272e07bb014262b821756295c58d;
        for &b in bytes {
            h ^= b as u128;
            h = h.wrapping_mul(0x0000000001000000000000000000013b);
        }
        h
    }

    /// `signature()` and `digest()` of [`two_chain`], as first computed:
    /// snapshots and fingerprints depend on both staying put.
    const PINNED_SIGNATURE: &str = "(0:0:ConvRelu { c_in: 3, c_out: 4 }\
        (0:1:ConvRelu { c_in: 4, c_out: 4 }(0:2:Head { features: 4, classes: 2 })))\
        (1:0:ConvRelu { c_in: 3, c_out: 8 }(1:1:Head { features: 8, classes: 3 }))";
    const PINNED_DIGEST: u128 = 0x8c65_d90c_59ed_47ce_3c11_9683_e070_a418;

    #[test]
    fn signature_and_digest_are_pinned() {
        let g = two_chain();
        assert_eq!(g.signature(), PINNED_SIGNATURE);
        assert_eq!(g.digest(), reference_fnv1a_128(g.signature().as_bytes()));
        assert_eq!(g.digest(), PINNED_DIGEST);
        assert_eq!(signature_digest(PINNED_SIGNATURE), PINNED_DIGEST);
    }

    #[test]
    fn flops_positive() {
        assert!(two_chain().flops().unwrap() > 0);
    }

    #[test]
    fn render_mentions_blocks_and_tasks() {
        let r = two_chain().render();
        assert!(r.contains("Conv+ReLU"));
        assert!(r.contains("Head"));
        assert!(r.contains("t0"));
    }

    #[test]
    fn synthetic_op_ids_are_unique_and_high() {
        let mut g = two_chain();
        let a = g.alloc_synthetic_op();
        let b = g.alloc_synthetic_op();
        assert_ne!(a, b);
        assert!(a >= AbsGraph::SYNTHETIC_BASE);
        // No original node uses the synthetic range.
        for (_, n) in g.iter() {
            assert!(n.op_id < AbsGraph::SYNTHETIC_BASE);
        }
    }

    #[test]
    fn node_lookup_errors_on_dead_ids() {
        let g = two_chain();
        assert!(g.node(999).is_err());
        assert!(!g.contains(999));
        assert!(g.ancestors(999).is_err());
    }

    #[test]
    fn remove_leaf_rejects_internal_nodes() {
        let mut g = two_chain();
        let root0 = g.roots[0];
        assert!(g.remove_leaf(root0).is_err());
    }
}
