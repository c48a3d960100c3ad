//! Persisting fused models: abstract graph + weights on disk.
//!
//! The paper's History Database "saves abstract graphs and model weights"
//! (§3); its artifact ships searched models as checkpoint files. This
//! module provides the same capability: [`save_model`] writes an abstract
//! graph (structure, tasks, shapes) together with its weight store into
//! one file, and [`load_model`] restores both, ready for
//! [`crate::generator::generate`].
//!
//! Format: the graph structure is encoded as a UTF-8 text header (one
//! line per node, explicit spec grammar — no `Debug` parsing), stored as
//! the first entry of a gmorph state dict whose remaining entries are the
//! per-node weight tensors.

use crate::absgraph::{AbsGraph, AbsNode};
use crate::parser::{op_type_of, WeightStore};
use gmorph_data::{Metric, TaskSpec};
use gmorph_nn::BlockSpec;
use gmorph_tensor::serialize::{load_state_dict, save_state_dict};
use gmorph_tensor::{Result, Tensor, TensorError};
use std::collections::HashMap;

const FORMAT_VERSION: u32 = 1;

fn bad(msg: String) -> TensorError {
    TensorError::Io(format!("persist: {msg}"))
}

fn encode_dims(dims: &[usize]) -> String {
    dims.iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("x")
}

fn decode_dims(s: &str) -> Result<Vec<usize>> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split('x')
        .map(|p| p.parse::<usize>().map_err(|_| bad(format!("bad dims {s:?}"))))
        .collect()
}

/// Encodes a block spec as one whitespace-free token.
pub fn encode_spec(spec: &BlockSpec) -> String {
    match spec {
        BlockSpec::ConvRelu { c_in, c_out } => format!("conv_relu:{c_in}:{c_out}"),
        BlockSpec::ConvBnRelu {
            c_in,
            c_out,
            kernel,
            stride,
        } => format!("conv_bn_relu:{c_in}:{c_out}:{kernel}:{stride}"),
        BlockSpec::Residual { c_in, c_out, stride } => {
            format!("residual:{c_in}:{c_out}:{stride}")
        }
        BlockSpec::MaxPool { k } => format!("maxpool:{k}"),
        BlockSpec::Transformer { d, heads } => format!("transformer:{d}:{heads}"),
        BlockSpec::PatchEmbed {
            channels,
            img,
            patch,
            d,
        } => format!("patch_embed:{channels}:{img}:{patch}:{d}"),
        BlockSpec::TokenEmbed { vocab, d, t_max } => {
            format!("token_embed:{vocab}:{d}:{t_max}")
        }
        BlockSpec::Head { features, classes } => format!("head:{features}:{classes}"),
        BlockSpec::Rescale { from, to } => {
            format!("rescale:{}:{}", encode_dims(from), encode_dims(to))
        }
    }
}

/// Decodes a block spec written by [`encode_spec`].
pub fn decode_spec(s: &str) -> Result<BlockSpec> {
    let parts: Vec<&str> = s.split(':').collect();
    let int = |i: usize| -> Result<usize> {
        parts
            .get(i)
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| bad(format!("bad spec field {i} in {s:?}")))
    };
    Ok(match parts[0] {
        "conv_relu" => BlockSpec::ConvRelu {
            c_in: int(1)?,
            c_out: int(2)?,
        },
        "conv_bn_relu" => BlockSpec::ConvBnRelu {
            c_in: int(1)?,
            c_out: int(2)?,
            kernel: int(3)?,
            stride: int(4)?,
        },
        "residual" => BlockSpec::Residual {
            c_in: int(1)?,
            c_out: int(2)?,
            stride: int(3)?,
        },
        "maxpool" => BlockSpec::MaxPool { k: int(1)? },
        "transformer" => BlockSpec::Transformer {
            d: int(1)?,
            heads: int(2)?,
        },
        "patch_embed" => BlockSpec::PatchEmbed {
            channels: int(1)?,
            img: int(2)?,
            patch: int(3)?,
            d: int(4)?,
        },
        "token_embed" => BlockSpec::TokenEmbed {
            vocab: int(1)?,
            d: int(2)?,
            t_max: int(3)?,
        },
        "head" => BlockSpec::Head {
            features: int(1)?,
            classes: int(2)?,
        },
        "rescale" => BlockSpec::Rescale {
            from: decode_dims(parts.get(1).copied().unwrap_or(""))?,
            to: decode_dims(parts.get(2).copied().unwrap_or(""))?,
        },
        other => return Err(bad(format!("unknown spec kind {other:?}"))),
    })
}

fn encode_metric(m: Metric) -> &'static str {
    match m {
        Metric::Accuracy => "accuracy",
        Metric::MeanAp => "mean_ap",
        Metric::Matthews => "matthews",
    }
}

fn decode_metric(s: &str) -> Result<Metric> {
    Ok(match s {
        "accuracy" => Metric::Accuracy,
        "mean_ap" => Metric::MeanAp,
        "matthews" => Metric::Matthews,
        other => return Err(bad(format!("unknown metric {other:?}"))),
    })
}

fn encode_loss(l: gmorph_data::LossKind) -> &'static str {
    match l {
        gmorph_data::LossKind::CrossEntropy => "ce",
        gmorph_data::LossKind::BceMultiLabel => "bce",
    }
}

fn decode_loss(s: &str) -> Result<gmorph_data::LossKind> {
    Ok(match s {
        "ce" => gmorph_data::LossKind::CrossEntropy,
        "bce" => gmorph_data::LossKind::BceMultiLabel,
        other => return Err(bad(format!("unknown loss {other:?}"))),
    })
}

/// Serializes the graph structure to the text header.
pub fn encode_graph(graph: &AbsGraph) -> String {
    let mut out = format!("gmorph-graph v{FORMAT_VERSION}\n");
    out.push_str(&format!("input {}\n", encode_dims(&graph.input_shape)));
    for t in &graph.tasks {
        out.push_str(&format!(
            "task {} {} {} {}\n",
            t.name.replace(' ', "_"),
            t.classes,
            encode_metric(t.metric),
            encode_loss(t.loss)
        ));
    }
    for id in graph.topo_order() {
        let n = graph.node(id).expect("topo order yields live nodes");
        out.push_str(&format!(
            "node {} {} {} {} {} {}\n",
            id,
            n.task_id,
            n.op_id,
            match n.parent {
                Some(p) => p.to_string(),
                None => "-".to_string(),
            },
            encode_dims(&n.input_shape),
            encode_spec(&n.spec)
        ));
    }
    out
}

/// Restores a graph from the text header.
pub fn decode_graph(text: &str) -> Result<AbsGraph> {
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| bad("empty header".into()))?;
    if header != format!("gmorph-graph v{FORMAT_VERSION}") {
        return Err(bad(format!("unsupported header {header:?}")));
    }
    let mut input_shape = None;
    let mut tasks = Vec::new();
    let mut nodes: Vec<(usize, AbsNode)> = Vec::new();
    for line in lines {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.first().copied() {
            Some("input") => {
                input_shape = Some(decode_dims(parts.get(1).copied().unwrap_or(""))?)
            }
            Some("task") => {
                if parts.len() != 5 {
                    return Err(bad(format!("bad task line {line:?}")));
                }
                tasks.push(TaskSpec {
                    name: parts[1].to_string(),
                    classes: parts[2].parse().map_err(|_| bad("bad classes".into()))?,
                    metric: decode_metric(parts[3])?,
                    loss: decode_loss(parts[4])?,
                });
            }
            Some("node") => {
                if parts.len() != 7 {
                    return Err(bad(format!("bad node line {line:?}")));
                }
                let id: usize = parts[1].parse().map_err(|_| bad("bad id".into()))?;
                let spec = decode_spec(parts[6])?;
                nodes.push((
                    id,
                    AbsNode {
                        task_id: parts[2].parse().map_err(|_| bad("bad task id".into()))?,
                        op_id: parts[3].parse().map_err(|_| bad("bad op id".into()))?,
                        op_type: op_type_of(&spec),
                        spec,
                        input_shape: decode_dims(parts[5])?,
                        capacity: 0,
                        parent: match parts[4] {
                            "-" => None,
                            p => Some(p.parse().map_err(|_| bad("bad parent".into()))?),
                        },
                        children: vec![],
                    },
                ));
            }
            Some(other) => return Err(bad(format!("unknown record {other:?}"))),
            None => {}
        }
    }
    let input_shape = input_shape.ok_or_else(|| bad("missing input record".into()))?;
    // Rebuild the arena preserving original node ids via an id map.
    let mut g = AbsGraph::new(input_shape, tasks);
    let mut id_map = std::collections::HashMap::new();
    for (old_id, mut node) in nodes {
        node.parent = match node.parent {
            Some(p) => Some(*id_map.get(&p).ok_or_else(|| {
                bad(format!("node {old_id} references unknown parent {p}"))
            })?),
            None => None,
        };
        let new_id = g.add_node(node)?;
        id_map.insert(old_id, new_id);
    }
    g.validate()?;
    Ok(g)
}

fn encode_ids(ids: &[usize]) -> String {
    if ids.is_empty() {
        return "-".to_string();
    }
    ids.iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn decode_ids(s: &str) -> Result<Vec<usize>> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|p| p.parse::<usize>().map_err(|_| bad(format!("bad id list {s:?}"))))
        .collect()
}

/// Serializes a graph's *exact* arena state for crash-safe checkpointing.
///
/// The portable [`encode_graph`] renumbers node ids on reload; that is
/// fine for shipping models, but a search checkpoint must restore the
/// arena bit-exactly — node ids, root and child ordering, and the
/// `next_id`/`next_synthetic_op` allocation counters all feed future
/// mutations, so any renumbering makes a resumed search diverge from the
/// uninterrupted one.
pub fn encode_graph_exact(graph: &AbsGraph) -> String {
    let (next_id, next_syn) = graph.arena_counters();
    let mut out = format!("gmorph-graph-exact v{FORMAT_VERSION}\n");
    out.push_str(&format!("input {}\n", encode_dims(&graph.input_shape)));
    out.push_str(&format!("arena {next_id} {next_syn}\n"));
    for t in &graph.tasks {
        out.push_str(&format!(
            "task {} {} {} {}\n",
            t.name.replace(' ', "_"),
            t.classes,
            encode_metric(t.metric),
            encode_loss(t.loss)
        ));
    }
    out.push_str(&format!("roots {}\n", encode_ids(&graph.roots)));
    for (id, n) in graph.iter() {
        out.push_str(&format!(
            "node {} {} {} {} {} {} {}\n",
            id,
            n.task_id,
            n.op_id,
            match n.parent {
                Some(p) => p.to_string(),
                None => "-".to_string(),
            },
            encode_dims(&n.input_shape),
            encode_spec(&n.spec),
            encode_ids(&n.children)
        ));
    }
    out
}

/// Restores a graph from [`encode_graph_exact`] output, arena intact.
pub fn decode_graph_exact(text: &str) -> Result<AbsGraph> {
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| bad("empty header".into()))?;
    if header != format!("gmorph-graph-exact v{FORMAT_VERSION}") {
        return Err(bad(format!("unsupported exact header {header:?}")));
    }
    let mut input_shape = None;
    let mut counters = None;
    let mut tasks = Vec::new();
    let mut roots = Vec::new();
    let mut nodes: Vec<(usize, AbsNode)> = Vec::new();
    for line in lines {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.first().copied() {
            Some("input") => {
                input_shape = Some(decode_dims(parts.get(1).copied().unwrap_or(""))?)
            }
            Some("arena") => {
                if parts.len() != 3 {
                    return Err(bad(format!("bad arena line {line:?}")));
                }
                counters = Some((
                    parts[1].parse().map_err(|_| bad("bad next_id".into()))?,
                    parts[2]
                        .parse()
                        .map_err(|_| bad("bad next_synthetic_op".into()))?,
                ));
            }
            Some("task") => {
                if parts.len() != 5 {
                    return Err(bad(format!("bad task line {line:?}")));
                }
                tasks.push(TaskSpec {
                    name: parts[1].to_string(),
                    classes: parts[2].parse().map_err(|_| bad("bad classes".into()))?,
                    metric: decode_metric(parts[3])?,
                    loss: decode_loss(parts[4])?,
                });
            }
            Some("roots") => roots = decode_ids(parts.get(1).copied().unwrap_or("-"))?,
            Some("node") => {
                if parts.len() != 8 {
                    return Err(bad(format!("bad exact node line {line:?}")));
                }
                let id: usize = parts[1].parse().map_err(|_| bad("bad id".into()))?;
                let spec = decode_spec(parts[6])?;
                nodes.push((
                    id,
                    AbsNode {
                        task_id: parts[2].parse().map_err(|_| bad("bad task id".into()))?,
                        op_id: parts[3].parse().map_err(|_| bad("bad op id".into()))?,
                        op_type: op_type_of(&spec),
                        spec,
                        input_shape: decode_dims(parts[5])?,
                        capacity: 0,
                        parent: match parts[4] {
                            "-" => None,
                            p => Some(p.parse().map_err(|_| bad("bad parent".into()))?),
                        },
                        children: decode_ids(parts[7])?,
                    },
                ));
            }
            Some(other) => return Err(bad(format!("unknown exact record {other:?}"))),
            None => {}
        }
    }
    let input_shape = input_shape.ok_or_else(|| bad("missing input record".into()))?;
    let (next_id, next_syn) = counters.ok_or_else(|| bad("missing arena record".into()))?;
    AbsGraph::from_arena(input_shape, tasks, nodes, roots, next_id, next_syn)
}

fn model_entries(graph: &AbsGraph, weights: &WeightStore) -> Result<Vec<(String, Tensor)>> {
    model_entries_with(encode_graph(graph), graph, weights)
}

fn model_entries_with(
    header: String,
    graph: &AbsGraph,
    weights: &WeightStore,
) -> Result<Vec<(String, Tensor)>> {
    let header_bytes: Vec<f32> = header.bytes().map(|b| b as f32).collect();
    let mut entries = vec![(
        "__graph".to_string(),
        Tensor::from_vec(&[header_bytes.len()], header_bytes)?,
    )];
    entries.extend(weight_entries(graph, weights)?);
    Ok(entries)
}

/// The weight tensors of `graph`'s nodes, in graph iteration order.
fn weight_entries(graph: &AbsGraph, weights: &WeightStore) -> Result<Vec<(String, Tensor)>> {
    let mut entries = Vec::new();
    for (_, node) in graph.iter() {
        // Weights are keyed by the stable node identity (task_id, op_id),
        // never by arena ids: reloading re-numbers the arena.
        let (t_id, op) = node.key();
        if let Some(state) = weights.lookup(node.key(), &node.spec) {
            for (j, t) in state.iter().enumerate() {
                entries.push((format!("w{t_id}.{op}.t{j}"), t.clone()));
            }
            entries.push((
                format!("w{t_id}.{op}.count"),
                Tensor::from_vec(&[1], vec![state.len() as f32])?,
            ));
        }
    }
    Ok(entries)
}

fn model_from_entries(entries: &[(String, Tensor)]) -> Result<(AbsGraph, WeightStore)> {
    let header = entries
        .iter()
        .find(|(k, _)| k == "__graph")
        .ok_or_else(|| bad("missing __graph entry".into()))?;
    let text: String = header
        .1
        .data()
        .iter()
        .map(|&f| {
            let b = f as u32;
            char::from_u32(b).unwrap_or('\u{FFFD}')
        })
        .collect();
    // Dispatch on the header line: exact (checkpoint) vs portable format.
    let graph = if text.starts_with("gmorph-graph-exact ") {
        decode_graph_exact(&text)?
    } else {
        decode_graph(&text)?
    };
    let weights = weights_from_entries(&graph, entries)?;
    Ok((graph, weights))
}

/// Collects the weights of `graph`'s nodes from named entries.
fn weights_from_entries(graph: &AbsGraph, entries: &[(String, Tensor)]) -> Result<WeightStore> {
    let by_name: HashMap<&str, &Tensor> = entries.iter().map(|(k, t)| (k.as_str(), t)).collect();
    let mut weights = WeightStore::new();
    for (_, node) in graph.iter() {
        let (t_id, op) = node.key();
        let Some(count) = by_name.get(format!("w{t_id}.{op}.count").as_str()) else {
            continue;
        };
        let count = count.data().first().copied().unwrap_or(0.0) as usize;
        let mut state = Vec::with_capacity(count.min(64));
        for j in 0..count {
            let name = format!("w{t_id}.{op}.t{j}");
            let t = by_name
                .get(name.as_str())
                .ok_or_else(|| bad(format!("missing tensor {name}")))?;
            state.push((*t).clone());
        }
        weights.insert(node.key(), node.spec.clone(), state);
    }
    Ok(weights)
}

/// Saves a fused model (graph + weights) to one file.
pub fn save_model(path: &std::path::Path, graph: &AbsGraph, weights: &WeightStore) -> Result<()> {
    save_state_dict(path, &model_entries(graph, weights)?)
}

/// Loads a fused model saved by [`save_model`].
pub fn load_model(path: &std::path::Path) -> Result<(AbsGraph, WeightStore)> {
    model_from_entries(&load_state_dict(path)?)
}

/// Serializes a fused model (graph + weights) to bytes.
///
/// Same format as [`save_model`], in memory. Encoding is deterministic
/// (graph iteration order), so identical models produce identical bytes —
/// the comparison primitive of the checkpoint/resume replay tests.
pub fn encode_model_bytes(graph: &AbsGraph, weights: &WeightStore) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    gmorph_tensor::serialize::write_state_dict(&mut buf, &model_entries(graph, weights)?)?;
    Ok(buf)
}

/// Restores a fused model from [`encode_model_bytes`] output, or from the
/// same format with the *exact* graph header ([`encode_graph_exact`]),
/// which search snapshots before schema v3 stored for elites and the best
/// model (the header is self-describing).
pub fn decode_model_bytes(bytes: &[u8]) -> Result<(AbsGraph, WeightStore)> {
    let mut cursor = bytes;
    model_from_entries(&gmorph_tensor::serialize::read_state_dict(&mut cursor)?)
}

/// Serializes a model as a search checkpoint record: the exact graph
/// header ([`encode_graph_exact`]) as length-prefixed UTF-8 bytes, then
/// the weight entries as a state dict.
///
/// ```text
/// record := header_len(u32) header(utf8) state_dict(weight entries)
/// ```
///
/// Node ids and allocation counters survive the round trip, which a
/// search replay needs. Model files ([`encode_model_bytes`]) store their
/// header as one `f32` per byte, four times the size.
pub fn encode_model_record(graph: &AbsGraph, weights: &WeightStore) -> Result<Vec<u8>> {
    let header = encode_graph_exact(graph);
    let mut buf = Vec::with_capacity(4 + header.len());
    buf.extend_from_slice(&(header.len() as u32).to_le_bytes());
    buf.extend_from_slice(header.as_bytes());
    gmorph_tensor::serialize::write_state_dict(&mut buf, &weight_entries(graph, weights)?)?;
    Ok(buf)
}

/// Restores a model from [`encode_model_record`] output, arena intact.
/// Every byte must belong to the record.
pub fn decode_model_record(bytes: &[u8]) -> Result<(AbsGraph, WeightStore)> {
    let (len, rest) = bytes
        .split_first_chunk::<4>()
        .ok_or_else(|| bad("record shorter than its header length".into()))?;
    let len = u32::from_le_bytes(*len) as usize;
    if len > rest.len() {
        return Err(bad(format!(
            "record header of {len} bytes, only {} left",
            rest.len()
        )));
    }
    let (header, mut cursor) = rest.split_at(len);
    let header =
        std::str::from_utf8(header).map_err(|e| bad(format!("record header not utf8: {e}")))?;
    let graph = decode_graph_exact(header)?;
    let entries = gmorph_tensor::serialize::read_state_dict(&mut cursor)?;
    if !cursor.is_empty() {
        return Err(bad(format!("{} trailing bytes after the record", cursor.len())));
    }
    let weights = weights_from_entries(&graph, &entries)?;
    Ok((graph, weights))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator;
    use crate::mutation;
    use crate::pairs;
    use crate::parser::parse_models;
    use gmorph_models::families::{vgg, VggDepth, VisionScale};
    use gmorph_nn::Mode;
    use gmorph_tensor::rng::Rng;

    /// A model file with the exact graph header: the elite and best-model
    /// payload of search snapshots before schema v3.
    fn encode_model_bytes_exact(graph: &AbsGraph, weights: &WeightStore) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        gmorph_tensor::serialize::write_state_dict(
            &mut buf,
            &model_entries_with(encode_graph_exact(graph), graph, weights)?,
        )?;
        Ok(buf)
    }

    fn all_specs() -> Vec<BlockSpec> {
        vec![
            BlockSpec::ConvRelu { c_in: 3, c_out: 8 },
            BlockSpec::ConvBnRelu {
                c_in: 4,
                c_out: 8,
                kernel: 3,
                stride: 2,
            },
            BlockSpec::Residual {
                c_in: 4,
                c_out: 8,
                stride: 2,
            },
            BlockSpec::MaxPool { k: 2 },
            BlockSpec::Transformer { d: 8, heads: 2 },
            BlockSpec::PatchEmbed {
                channels: 3,
                img: 8,
                patch: 4,
                d: 8,
            },
            BlockSpec::TokenEmbed {
                vocab: 16,
                d: 8,
                t_max: 8,
            },
            BlockSpec::Head {
                features: 8,
                classes: 3,
            },
            BlockSpec::Rescale {
                from: vec![4, 8, 8],
                to: vec![8, 4, 4],
            },
        ]
    }

    #[test]
    fn spec_encoding_roundtrips_every_variant() {
        for spec in all_specs() {
            let enc = encode_spec(&spec);
            assert_eq!(decode_spec(&enc).unwrap(), spec, "{enc}");
        }
        assert!(decode_spec("not_a_spec:1").is_err());
        assert!(decode_spec("conv_relu:x:y").is_err());
    }

    fn mutated_graph_with_weights() -> (AbsGraph, WeightStore) {
        let mut rng = Rng::new(0);
        let t0 = gmorph_data::TaskSpec::classification("a", 2);
        let t1 = gmorph_data::TaskSpec::classification("b", 3);
        let models = vec![
            vgg(VggDepth::Vgg11, VisionScale::mini(), &t0)
                .unwrap()
                .build(&mut rng)
                .unwrap(),
            vgg(VggDepth::Vgg13, VisionScale::mini(), &t1)
                .unwrap()
                .build(&mut rng)
                .unwrap(),
        ];
        let (graph, store) = parse_models(&models).unwrap();
        let prs = pairs::shareable_pairs(&graph).unwrap();
        let cross = prs
            .iter()
            .find(|&&(n, m)| {
                graph.node(n).unwrap().task_id != graph.node(m).unwrap().task_id
            })
            .copied()
            .unwrap();
        let (mutated, _) = mutation::mutation_pass(&graph, &[cross]).unwrap();
        (mutated, store)
    }

    #[test]
    fn graph_text_roundtrip_preserves_structure() {
        let (g, _) = mutated_graph_with_weights();
        let text = encode_graph(&g);
        let back = decode_graph(&text).unwrap();
        assert_eq!(back.signature(), g.signature());
        assert_eq!(back.len(), g.len());
        assert_eq!(back.tasks, g.tasks);
        assert_eq!(back.input_shape, g.input_shape);
    }

    #[test]
    fn exact_codec_preserves_arena_state() {
        let (g, store) = mutated_graph_with_weights();
        let back = decode_graph_exact(&encode_graph_exact(&g)).unwrap();
        assert_eq!(back.arena_counters(), g.arena_counters());
        assert_eq!(back.roots, g.roots);
        assert_eq!(back.signature(), g.signature());
        // Node ids, parent links, and child ordering must all survive —
        // the portable codec renumbers these, which is exactly what a
        // search checkpoint cannot tolerate.
        let arena = |g: &AbsGraph| -> Vec<(usize, Option<usize>, Vec<usize>)> {
            g.iter()
                .map(|(id, n)| (id, n.parent, n.children.clone()))
                .collect()
        };
        assert_eq!(arena(&back), arena(&g));

        // The exact header is self-describing through decode_model_bytes.
        let bytes = encode_model_bytes_exact(&g, &store).unwrap();
        let (g2, _) = decode_model_bytes(&bytes).unwrap();
        assert_eq!(g2.arena_counters(), g.arena_counters());
        assert_eq!(arena(&g2), arena(&g));
    }

    #[test]
    fn model_record_decodes_to_the_model_file_contents() {
        let (g, store) = mutated_graph_with_weights();
        let record = encode_model_record(&g, &store).unwrap();
        let file = encode_model_bytes_exact(&g, &store).unwrap();
        let (g_rec, w_rec) = decode_model_record(&record).unwrap();
        let (g_file, w_file) = decode_model_bytes(&file).unwrap();
        assert_eq!(g_rec.arena_counters(), g_file.arena_counters());
        assert_eq!(encode_graph_exact(&g_rec), encode_graph_exact(&g_file));
        assert_eq!(
            encode_model_bytes_exact(&g_rec, &w_rec).unwrap(),
            encode_model_bytes_exact(&g_file, &w_file).unwrap()
        );
        // The header as bytes instead of one f32 per byte, and no
        // `__graph` entry framing (name length, name, rank, dim) in place
        // of the record's own length prefix.
        let header = encode_graph_exact(&g).len();
        assert_eq!(file.len() - record.len(), 3 * header + (4 + 7 + 4 + 8) - 4);
    }

    #[test]
    fn model_record_rejects_truncation_and_trailing_bytes() {
        let (g, store) = mutated_graph_with_weights();
        let record = encode_model_record(&g, &store).unwrap();
        for cut in 0..record.len() {
            assert!(decode_model_record(&record[..cut]).is_err(), "cut at {cut}");
        }
        let mut longer = record.clone();
        longer.push(0);
        assert!(decode_model_record(&longer).is_err());
    }

    #[test]
    fn save_load_model_reproduces_outputs() {
        let (g, store) = mutated_graph_with_weights();
        let dir = std::env::temp_dir().join(format!("gmorph-persist-{}", std::process::id()));
        let path = dir.join("fused.gmrh");
        save_model(&path, &g, &store).unwrap();
        let (g2, store2) = load_model(&path).unwrap();
        assert_eq!(g2.signature(), g.signature());
        // Every node with stored weights must resolve after reload; the
        // mutated graph has exactly one fresh (rescale) node.
        let resolved = g2
            .iter()
            .filter(|(_, n)| store2.lookup(n.key(), &n.spec).is_some())
            .count();
        assert_eq!(resolved, g2.len() - 1);

        // Materialize both with identical init streams (the rescale node
        // has no stored weights, so its fresh init must come from the
        // same RNG state) and compare inference outputs exactly.
        let (mut a, stats_a) = generator::generate(&g, &store, &mut Rng::new(9)).unwrap();
        let (mut b, stats_b) = generator::generate(&g2, &store2, &mut Rng::new(9)).unwrap();
        assert_eq!(stats_a.inherited, stats_b.inherited);
        let mut rng = Rng::new(10);
        let x = gmorph_nn::Tensor::randn(&[2, 3, 16, 16], 1.0, &mut rng);
        let ya = a.forward(&x, Mode::Eval).unwrap();
        let yb = b.forward(&x, Mode::Eval).unwrap();
        for (p, q) in ya.iter().zip(yb.iter()) {
            for (u, v) in p.data().iter().zip(q.data()) {
                assert!((u - v).abs() < 1e-6);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decode_rejects_corrupt_headers() {
        assert!(decode_graph("").is_err());
        assert!(decode_graph("gmorph-graph v999\n").is_err());
        assert!(decode_graph("gmorph-graph v1\nnode 0 0 0 - 3x8x8 conv_relu:3:4\n").is_err());
        // Dangling parent reference.
        let bad = "gmorph-graph v1\ninput 3x8x8\ntask a 2 accuracy ce\nnode 0 0 0 7 3x8x8 conv_relu:3:4\n";
        assert!(decode_graph(bad).is_err());
    }
}
