//! Persisting fused models: abstract graph + weights on disk.
//!
//! The paper's History Database "saves abstract graphs and model weights"
//! (§3); its artifact ships searched models as checkpoint files. This
//! module provides the same capability: [`save_model`] writes an abstract
//! graph (structure, tasks, shapes) together with its weight store into
//! one file, and [`load_model`] restores both, ready for
//! [`crate::generator::generate`].
//!
//! One encoding serves model files and search snapshots, the *model
//! record* ([`encode_model_bytes`]):
//!
//! ```text
//! record := header_len(u32) header(utf8) state_dict(weight entries)
//! ```
//!
//! The header is the graph's exact arena as text ([`encode_graph_exact`]:
//! one line per node, explicit spec grammar, no `Debug` parsing). Node
//! ids, child order and allocation counters survive the round trip, so a
//! reloaded graph mutates exactly as the saved one would. A model file is
//! a [`gmorph_tensor::checkpoint`] envelope of kind [`MODEL_KIND`] whose
//! one section is the record, so it is checksummed, written atomically
//! and classified by [`gmorph_tensor::checkpoint::is_corruption`] when
//! damaged. Model files written before the envelope (a bare state dict
//! with one `f32` per header byte) do not load.

use crate::absgraph::{AbsGraph, AbsNode};
use crate::parser::{op_type_of, WeightStore};
use gmorph_data::{Metric, TaskSpec};
use gmorph_nn::BlockSpec;
use gmorph_tensor::checkpoint::{load, save_atomic, ByteReader, ByteWriter, Envelope};
use gmorph_tensor::serialize::{read_state_dict, write_state_dict};
use gmorph_tensor::{Result, Tensor, TensorError};
use std::collections::HashMap;
use std::path::Path;

const FORMAT_VERSION: u32 = 1;

/// Largest value a decoded dimension or spec field may hold. Every block
/// of the benchmark models is below it (BERT's 30,522-token vocabulary is
/// the largest field), and a product of four such fields, a conv's weight
/// count, still fits in a 64-bit `usize`.
const MAX_FIELD: usize = (1 << 16) - 1;

/// Payload kind of model files.
pub const MODEL_KIND: &str = "model";
/// Schema version of the model file payload: one `model` section holding
/// a model record.
pub const MODEL_SCHEMA: u32 = 1;

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
        .map(|p| {
            p.parse::<usize>()
                .ok()
                .filter(|&d| d <= MAX_FIELD)
                .ok_or_else(|| bad(format!("bad dims {s:?}")))
        })
        .collect()
}

/// Encodes a block spec as one whitespace-free token.
pub(crate) fn encode_spec(spec: &BlockSpec) -> String {
    match spec {
        BlockSpec::ConvRelu { c_in, c_out } => format!("conv_relu:{c_in}:{c_out}"),
        BlockSpec::ConvBnRelu {
            c_in,
            c_out,
            kernel,
            stride,
        } => format!("conv_bn_relu:{c_in}:{c_out}:{kernel}:{stride}"),
        BlockSpec::Residual {
            c_in,
            c_out,
            stride,
        } => {
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
pub(crate) fn decode_spec(s: &str) -> Result<BlockSpec> {
    let parts: Vec<&str> = s.split(':').collect();
    let int = |i: usize| -> Result<usize> {
        parts
            .get(i)
            .and_then(|p| p.parse().ok())
            .filter(|&v| v <= MAX_FIELD)
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
        .map(|p| {
            p.parse::<usize>()
                .map_err(|_| bad(format!("bad id list {s:?}")))
        })
        .collect()
}

/// Serializes a graph's *exact* arena state: the text header of model
/// records and of search snapshots.
///
/// Node ids, root and child ordering, and the `next_id`/`next_synthetic_op`
/// allocation counters all feed future mutations, so any renumbering
/// would make a resumed search diverge from the uninterrupted one.
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
            Some("input") => input_shape = Some(decode_dims(parts.get(1).copied().unwrap_or(""))?),
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

/// The weight tensors of `graph`'s nodes, in graph iteration order.
fn weight_entries(graph: &AbsGraph, weights: &WeightStore) -> Result<Vec<(String, Tensor)>> {
    let mut entries = Vec::new();
    for (_, node) in graph.iter() {
        // Weights are keyed by the stable node identity (task_id, op_id),
        // never by arena ids.
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

/// Collects the weights of `graph`'s nodes from named entries, the
/// weight half of a model record (entries `w{task}.{op}.t{j}` and
/// `w{task}.{op}.count` per node).
pub fn weights_from_entries(graph: &AbsGraph, entries: &[(String, Tensor)]) -> Result<WeightStore> {
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

/// Saves a fused model (graph + weights) to one file: its record in a
/// checksummed envelope, written atomically.
pub fn save_model(path: &Path, graph: &AbsGraph, weights: &WeightStore) -> Result<()> {
    let mut env = Envelope::new(MODEL_KIND, MODEL_SCHEMA);
    env.push("model", encode_model_bytes(graph, weights)?);
    save_atomic(path, &env)
}

/// Loads a fused model saved by [`save_model`], arena intact.
pub fn load_model(path: &Path) -> Result<(AbsGraph, WeightStore)> {
    let env = load(path, MODEL_KIND)?;
    if env.schema != MODEL_SCHEMA {
        return Err(TensorError::Io(format!(
            "checkpoint corrupt: model schema v{} unsupported (expected v{MODEL_SCHEMA})",
            env.schema
        )));
    }
    decode_model_bytes(env.section("model")?)
}

/// Serializes a fused model (graph + weights) as a model record: the
/// exact graph header ([`encode_graph_exact`]) as length-prefixed UTF-8,
/// then the weight entries as a state dict.
///
/// Encoding is deterministic (graph iteration order), so identical models
/// produce identical bytes: the comparison primitive of the
/// checkpoint/resume replay tests.
pub fn encode_model_bytes(graph: &AbsGraph, weights: &WeightStore) -> Result<Vec<u8>> {
    let mut w = ByteWriter::new();
    w.put_str(&encode_graph_exact(graph));
    write_state_dict(&mut w, &weight_entries(graph, weights)?);
    Ok(w.into_bytes())
}

/// Restores a model from [`encode_model_bytes`] output, arena intact.
/// Every byte must belong to the record.
pub fn decode_model_bytes(bytes: &[u8]) -> Result<(AbsGraph, WeightStore)> {
    let mut r = ByteReader::new(bytes);
    let graph = decode_graph_exact(&r.get_str()?)?;
    let entries = read_state_dict(&mut r)?;
    if r.remaining() > 0 {
        return Err(bad(format!(
            "{} trailing bytes after the record",
            r.remaining()
        )));
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
            .find(|&&(n, m)| graph.node(n).unwrap().task_id != graph.node(m).unwrap().task_id)
            .copied()
            .unwrap();
        let (mutated, _) = mutation::mutation_pass(&graph, &[cross]).unwrap();
        (mutated, store)
    }

    #[test]
    fn graph_text_roundtrip_preserves_structure() {
        let (g, _) = mutated_graph_with_weights();
        let back = decode_graph_exact(&encode_graph_exact(&g)).unwrap();
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
        // Node ids, parent links, and child ordering must all survive: a
        // renumbered arena mutates differently.
        let arena = |g: &AbsGraph| -> Vec<(usize, Option<usize>, Vec<usize>)> {
            g.iter()
                .map(|(id, n)| (id, n.parent, n.children.clone()))
                .collect()
        };
        assert_eq!(arena(&back), arena(&g));

        // The model record carries the same arena.
        let (g2, _) = decode_model_bytes(&encode_model_bytes(&g, &store).unwrap()).unwrap();
        assert_eq!(g2.arena_counters(), g.arena_counters());
        assert_eq!(arena(&g2), arena(&g));
    }

    #[test]
    fn model_record_decodes_to_the_model_file_contents() {
        let (g, store) = mutated_graph_with_weights();
        let dir = std::env::temp_dir().join(format!("gmorph-record-{}", std::process::id()));
        let path = dir.join("fused.gmck");
        save_model(&path, &g, &store).unwrap();
        // The file is an envelope whose one section is the record.
        let env = load(&path, MODEL_KIND).unwrap();
        assert_eq!(env.schema, MODEL_SCHEMA);
        assert_eq!(env.sections.len(), 1);
        let record = encode_model_bytes(&g, &store).unwrap();
        assert_eq!(env.section("model").unwrap(), record.as_slice());
        let (g_file, w_file) = load_model(&path).unwrap();
        assert_eq!(encode_graph_exact(&g_file), encode_graph_exact(&g));
        assert_eq!(encode_model_bytes(&g_file, &w_file).unwrap(), record);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn model_record_rejects_truncation_and_trailing_bytes() {
        let (g, store) = mutated_graph_with_weights();
        let record = encode_model_bytes(&g, &store).unwrap();
        for cut in 0..record.len() {
            assert!(decode_model_bytes(&record[..cut]).is_err(), "cut at {cut}");
        }
        let mut longer = record.clone();
        longer.push(0);
        assert!(decode_model_bytes(&longer).is_err());
    }

    #[test]
    fn save_load_model_reproduces_outputs() {
        let (g, store) = mutated_graph_with_weights();
        let dir = std::env::temp_dir().join(format!("gmorph-persist-{}", std::process::id()));
        let path = dir.join("fused.gmck");
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
        assert!(decode_graph_exact("").is_err());
        assert!(decode_graph_exact("gmorph-graph-exact v999\n").is_err());
        // No input or arena record.
        let headless = "gmorph-graph-exact v1\nnode 0 0 0 - 3x8x8 conv_relu:3:4 -\n";
        assert!(decode_graph_exact(headless).is_err());
        let graph = |input: &str, roots: &str, node: &str| {
            format!(
                "gmorph-graph-exact v1\ninput {input}\narena 1 0\n\
                 task a 2 accuracy ce\nroots {roots}\nnode {node}\n"
            )
        };
        // Dangling parent reference.
        let dangling = graph("3x8x8", "-", "0 0 0 7 3x8x8 conv_relu:3:4 -");
        assert!(decode_graph_exact(&dangling).is_err());
        // Specs that accept their input but whose capacity would divide by
        // zero or overflow are errors, not panics.
        let huge = "99999999999x8x8";
        let spec_cases = [
            ("3x8x8", "patch_embed:3:8:0:8"),
            ("3x8x8", "conv_bn_relu:3:99999999999:99999999999:1"),
            (huge, "rescale:99999999999x8x8:99999999998x8x8"),
        ];
        for (input, spec) in spec_cases {
            let text = graph(input, "0", &format!("0 0 0 - {input} {spec} -"));
            assert!(decode_graph_exact(&text).is_err(), "{spec}");
        }
    }
}
