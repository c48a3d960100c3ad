//! The traced run: per-layer metrics.
//!
//! Never the timed run. It installs the program's existing telemetry sink
//! (for the kernel, pool and checkpoint counters the program already
//! emits) and wraps calls into each crate's public functions in the
//! benchmark's own spans. After a warm-up it runs the workload's primary
//! phase untraced and traced in turn, three times each (the difference of
//! the medians is the tracing overhead), then replays a seeded sample of
//! candidates and requests through the per-step public functions, and
//! times each `TreeNode`'s block on its own over cloned blocks.

use crate::search::{self, decode_newest, newest_snapshot};
use crate::serve;
use crate::setup::Setup;
use crate::spans::Tracer;
use crate::util::{self, ms_since, ScratchDir};
use crate::workloads::{self, est_speedup, Outcome, Size, Workload, REAL_SEARCH_SEED};
use gmorph::graph::{generator, AbsGraph, TreeModel};
use gmorph::nn::health::grad_sq_sum;
use gmorph::nn::loss::weighted_l1_multi;
use gmorph::nn::optim::Optim;
use gmorph::nn::{Block, Mode};
use gmorph::perf::accuracy::{
    finetune, score_tree, surrogate_finetune, teacher_targets, SurrogateParams,
};
use gmorph::perf::estimator::estimate_latency_ms;
use gmorph::prelude::*;
use gmorph::search::driver::propose_candidate;
use gmorph::search::evaluator::inherited_fraction;
use gmorph::telemetry::{self as tele, metrics as tm};
use gmorph::tensor::{Result, Tensor};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer metrics with their units, as `BENCHMARK.json` lists them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.build_ms", "ms"),
    ("models.teacher_train_ms", "ms"),
    ("models.teacher_epochs", "count"),
    ("graph.parse_ms", "ms"),
    ("graph.propose_us", "us"),
    ("graph.signature_us", "us"),
    ("graph.generate_ms", "ms"),
    ("graph.train_fwd_ms", "ms"),
    ("graph.train_bwd_ms", "ms"),
    ("graph.executor_overhead_frac.b1", "frac"),
    ("graph.executor_overhead_frac.b16", "frac"),
    ("graph.fanout_copy_bytes", "bytes"),
    ("nn.train_fwd_ms", "ms"),
    ("nn.train_bwd_ms", "ms"),
    ("nn.eval_fwd_us", "us"),
    ("nn.loss_us", "us"),
    ("nn.optim_ms", "ms"),
    ("tensor.conv_calls", "count"),
    ("tensor.gemm_calls", "count"),
    ("tensor.gemm_ms", "ms"),
    ("tensor.pool_hit_frac", "frac"),
    ("tensor.pooled_bytes", "bytes"),
    ("tensor.fused_dispatch", "count"),
    ("tensor.pooled_dispatch_frac", "frac"),
    ("perf.teacher_targets_ms", "ms"),
    ("perf.finetune_ms", "ms"),
    ("perf.finetune_epochs", "count"),
    ("perf.score_ms", "ms"),
    ("perf.estimate_us", "us"),
    ("perf.surrogate_us", "us"),
    ("perf.compile_ms", "ms"),
    ("perf.est_speedup", "x"),
    ("perf.measured_speedup_b1", "x"),
    ("perf.measured_speedup_b16", "x"),
    ("perf.est_rank_corr", "rho"),
    ("search.evaluated", "count"),
    ("search.duplicates", "count"),
    ("search.failed", "count"),
    ("search.quarantined", "count"),
    ("search.useful_frac", "frac"),
    ("search.loop_ms_per_iter", "ms"),
    ("search.checkpoint_frac", "frac"),
    ("search.snapshot_encode_ms", "ms"),
    ("search.snapshot_decode_ms", "ms"),
    ("search.snapshot_bytes", "bytes"),
    ("search.checkpoint_writes", "count"),
    ("search.resume_ms", "ms"),
    ("telemetry.overhead_frac", "frac"),
];

/// Candidates replayed through the cheap per-step calls.
const CANDIDATES: usize = 16;
/// Candidates replayed through fine-tuning.
const TRAINED_CANDIDATES: usize = 2;
/// Repetitions of each per-block and whole-model eval timing.
const EVAL_REPS: usize = 30;
/// Untraced/traced pairs of primary phases behind the tracing overhead.
const OVERHEAD_ROUNDS: usize = 3;

fn counter(name: &str) -> f64 {
    tm::counter_value(name) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median_of(v: &[f64]) -> f64 {
    util::median(&mut v.to_vec())
}

/// Enables the program's telemetry, collecting into memory.
fn telemetry_on() -> Arc<tele::MemorySink> {
    let sink = tele::MemorySink::new();
    tele::install(sink.clone());
    sink
}

/// Per-op-type accumulator for the per-op tables.
#[derive(Default)]
struct PerOp(BTreeMap<String, Vec<f64>>);

impl PerOp {
    fn add(&mut self, op: &str, v: f64) {
        self.0.entry(op.to_lowercase()).or_default().push(v);
    }

    fn lines(&self, metric: &str, unit: &str, per: f64) -> Vec<String> {
        self.0
            .iter()
            .map(|(op, v)| {
                format!(
                    "  {metric}.{op:<12} {:>12.4} {unit}",
                    v.iter().sum::<f64>() / per
                )
            })
            .collect()
    }
}

/// The primary phase of a workload; returns its primary timing (ms): a
/// real-mode search's wall time, the fused model's batch-1 p10, or a
/// checkpointed search's wall time.
#[allow(clippy::too_many_arguments)]
fn primary(
    w: Workload,
    s: &mut Setup,
    seed: u64,
    seconds: f64,
    size: Size,
    scratch: &ScratchDir,
    tr: &Tracer,
    out: &mut Outcome,
) -> Result<(f64, Option<SearchResult>)> {
    match w {
        Workload::Serve => {
            let st = serve::serve(s, seconds * 0.1, seed, tr)?;
            out.count_serve(&st);
            Ok((util::quantile(&mut st.fused.b1_ms.clone(), 0.1), None))
        }
        _ => {
            let run = workloads::search_unit(w, s, seed, size, 0, scratch, tr)?;
            out.count_search(&run);
            Ok((run.wall_s * 1e3, Some(run.result)))
        }
    }
}

/// Times each block of a model on its own, over cloned blocks, in
/// topological order; returns per-node median ms and output numel.
fn per_block_eval(model: &TreeModel, x: &Tensor, tr: &Tracer) -> Result<(Vec<f64>, Vec<usize>)> {
    let nodes = model.nodes();
    let mut blocks: Vec<Block> = nodes.iter().map(|n| n.block.clone()).collect();
    let mut acts: Vec<Option<Tensor>> = vec![None; nodes.len()];
    let mut ms = vec![0.0; nodes.len()];
    let mut numel = vec![0usize; nodes.len()];
    for i in topo(model) {
        let input = match nodes[i].parent {
            Some(p) => acts[p].clone().expect("parent before child"),
            None => x.clone(),
        };
        let mut samples = Vec::with_capacity(EVAL_REPS);
        let mut y = None;
        for _ in 0..EVAL_REPS {
            let t0 = Instant::now();
            let out = tr.time("nn.block_eval", i as u64, || {
                blocks[i].forward(&input, Mode::Eval)
            })?;
            samples.push(ms_since(t0));
            y = Some(out);
        }
        ms[i] = median_of(&samples);
        let y = y.expect("EVAL_REPS > 0");
        numel[i] = y.data().len();
        acts[i] = Some(y);
    }
    Ok((ms, numel))
}

/// Node indices in parent-before-child order.
fn topo(model: &TreeModel) -> Vec<usize> {
    let nodes = model.nodes();
    let mut order: Vec<usize> = Vec::new();
    let mut stack: Vec<usize> = (0..nodes.len())
        .filter(|&i| nodes[i].parent.is_none())
        .rev()
        .collect();
    while let Some(i) = stack.pop() {
        order.push(i);
        stack.extend(nodes[i].children.iter().rev());
    }
    order
}

/// Median whole-model eval time (ms).
fn whole_eval_ms(model: &mut TreeModel, x: &Tensor, tr: &Tracer) -> Result<f64> {
    let mut samples = Vec::with_capacity(EVAL_REPS);
    model.forward(x, Mode::Eval)?;
    for r in 0..EVAL_REPS {
        let t0 = Instant::now();
        tr.time("graph.forward_eval", r as u64, || {
            model.forward(x, Mode::Eval)
        })?;
        samples.push(ms_since(t0));
    }
    model.clear_caches();
    Ok(median_of(&samples))
}

/// Per-block analytic estimate (ms, Eager backend) for each tree node,
/// from the node with the same key in the paper-scale graph (the scale
/// the search's estimator sees).
fn per_block_estimate(model: &TreeModel, graph: &AbsGraph) -> Result<Vec<f64>> {
    let b = Backend::Eager;
    model
        .nodes()
        .iter()
        .map(|n| {
            let node = graph.iter().find(|(_, g)| g.key() == n.key).map(|(_, g)| g);
            Ok(match node {
                Some(g) => {
                    b.per_op_overhead_us() / 1e3
                        + g.spec.flops(&g.input_shape)? as f64 / b.throughput_gflops() / 1e6
                }
                None => 0.0,
            })
        })
        .collect()
}

/// One replayed fine-tuning epoch with a span per step, plus per-block
/// train forward/backward over cloned blocks on the first batch.
#[allow(clippy::too_many_arguments)]
fn replay_epoch(
    model: &mut TreeModel,
    inputs: &Tensor,
    targets: &[Tensor],
    batch: usize,
    id: u64,
    tr: &Tracer,
    fwd_op: &mut PerOp,
    bwd_op: &mut PerOp,
) -> Result<usize> {
    let n = inputs.dims()[0];
    let weights = vec![1.0; targets.len()];
    let mut opt = Optim::adam(1e-3);
    let ix: Vec<usize> = (0..n).collect();
    let mut batches = 0;
    for chunk in ix.chunks(batch.max(1)) {
        let x = inputs.select_rows(chunk)?;
        if batches == 0 {
            per_block_train(model, &x, fwd_op, bwd_op)?;
        }
        let ys = tr.time("graph.train_fwd", id, || model.forward(&x, Mode::Train))?;
        let bt = targets
            .iter()
            .map(|t| t.select_rows(chunk))
            .collect::<Result<Vec<_>>>()?;
        let (_, grads) = tr.time("nn.loss", id, || weighted_l1_multi(&ys, &bt, &weights))?;
        tr.time("graph.train_bwd", id, || model.backward(&grads))?;
        tr.time("nn.optim", id, || {
            let mut sq = 0f64;
            model.visit_params(&mut |p| sq += grad_sq_sum(p));
            opt.begin_step();
            model.visit_params(&mut |p| opt.update(p));
            sq
        });
        batches += 1;
    }
    model.clear_caches();
    Ok(batches)
}

/// Train-mode forward and backward of each block on its own, over cloned
/// blocks; the backward gets a constant gradient of the output's shape.
fn per_block_train(
    model: &TreeModel,
    x: &Tensor,
    fwd_op: &mut PerOp,
    bwd_op: &mut PerOp,
) -> Result<()> {
    let nodes = model.nodes();
    let mut blocks: Vec<Block> = nodes.iter().map(|n| n.block.clone()).collect();
    let mut acts: Vec<Option<Tensor>> = vec![None; nodes.len()];
    for i in topo(model) {
        let input = match nodes[i].parent {
            Some(p) => acts[p].clone().expect("parent before child"),
            None => x.clone(),
        };
        let op = blocks[i].op_type().to_string();
        let t0 = Instant::now();
        let y = blocks[i].forward(&input, Mode::Train)?;
        fwd_op.add(&op, ms_since(t0));
        let g = Tensor::from_vec(y.dims(), vec![1e-3; y.data().len()])?;
        let t0 = Instant::now();
        blocks[i].backward(&g)?;
        bwd_op.add(&op, ms_since(t0));
        acts[i] = Some(y);
    }
    Ok(())
}

/// A traced run: every per-layer metric, plus the "where did the time
/// go" report.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    size: Size,
    scratch: &ScratchDir,
) -> Result<Outcome> {
    let tr = Tracer::new(true);
    let quiet = Tracer::new(false);
    let mut out = Outcome::default();
    let t_run = Instant::now();
    tm::reset();
    let sink = telemetry_on();

    // Set-up, with the program's own spans for teacher training.
    let (mut s, _) = workloads::setups(w, seed, 1, scratch, &tr)?;
    let teacher_epochs = counter("teacher.epochs");
    let teacher_us: f64 = sink
        .events()
        .iter()
        .filter(|e| e.kind == tele::EventKind::SpanEnd && e.name == "teacher.train")
        .filter_map(|e| e.field("duration_us").and_then(|v| v.as_f64()))
        .sum();

    // Primary phase: a warm-up, then untraced and traced in turn; the
    // ratio of their medians is the tracing overhead.
    tele::shutdown();
    let mut primary_search = None;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    primary(w, &mut s, seed, seconds, size, scratch, &quiet, &mut out)?;
    for _ in 0..OVERHEAD_ROUNDS {
        untraced.push(primary(w, &mut s, seed, seconds, size, scratch, &quiet, &mut out)?.0);
        telemetry_on();
        let (ms, result) = primary(w, &mut s, seed, seconds, size, scratch, &tr, &mut out)?;
        tele::shutdown();
        traced.push(ms);
        primary_search = primary_search.or(result);
    }
    let (untraced, traced) = (median_of(&untraced), median_of(&traced));
    telemetry_on();
    let search_result = match primary_search {
        Some(r) => r,
        // `serve` searches only briefly; count that search.
        None => {
            let cfg = search::paper_config(
                w.bench(),
                AccuracyMode::Surrogate,
                size.surrogate_iters,
                w.search_seed(seed, 0),
            );
            search::run(&s.session, &cfg, &tr, 0)?.result
        }
    };

    // Candidate replay: per-step public calls on a seeded sample.
    let session = &s.session;
    let mut rng = Rng::new(seed ^ 0xCA4D);
    let orig_cap = CapacityVector::of(&session.mini_graph)?;
    let cfg =
        search::paper_config(w.bench(), AccuracyMode::Real, 1, REAL_SEARCH_SEED).to_search_config();
    let mut candidates = Vec::new();
    for c in 0..CANDIDATES as u64 {
        let cand = tr.time("graph.propose_candidate", c, || {
            propose_candidate(
                &session.mini_graph,
                &session.paper_graph,
                cfg.pair_policy,
                cfg.max_ops_per_pass,
                &mut rng,
            )
        })?;
        let Some((mini, paper)) = cand else { continue };
        tr.time("graph.signature", c, || mini.signature());
        tr.time("perf.estimate_latency", c, || {
            estimate_latency_ms(&paper, Backend::Eager)
        })?;
        let inherited = inherited_fraction(&mini, &session.weights);
        tr.time("perf.surrogate_finetune", c, || {
            surrogate_finetune(
                &mini,
                &orig_cap,
                inherited,
                &SurrogateParams::default(),
                &cfg.finetune,
                c,
                &session.teacher_scores,
            )
        })?;
        let (tree, _) = tr.time("graph.generate", c, || {
            generator::generate(&mini, &session.weights, &mut rng)
        })?;
        candidates.push(tree);
    }
    let mut teachers = session.teachers.clone();
    let targets = tr.time("perf.teacher_targets", 0, || {
        teacher_targets(&mut teachers, &session.split.train.inputs)
    })?;
    let (max_epochs, batch, eval_every) = gmorph_bench::common::paper_finetune(w.bench());
    let (mut fwd_op, mut bwd_op) = (PerOp::default(), PerOp::default());
    let mut train_batches = 0usize;
    let mut finetune_epochs = 0.0;
    for (c, tree) in candidates.iter_mut().take(TRAINED_CANDIDATES).enumerate() {
        let mut replay = tree.clone();
        train_batches += replay_epoch(
            &mut replay,
            &session.split.train.inputs,
            &targets,
            batch,
            c as u64,
            &tr,
            &mut fwd_op,
            &mut bwd_op,
        )?;
        // One validation cycle of the workload's own fine-tuning settings.
        let ft = gmorph::perf::FinetuneConfig {
            max_epochs: eval_every.min(max_epochs),
            batch,
            eval_every,
            ..cfg.finetune.clone()
        };
        let r = tr.time("perf.finetune", c as u64, || {
            finetune(
                tree,
                &session.split.train.inputs,
                &targets,
                &session.split.test,
                &session.teacher_scores,
                &ft,
            )
        })?;
        finetune_epochs += r.epochs_run as f64;
        tr.time("perf.score_tree", c as u64, || {
            score_tree(tree, &session.split.test)
        })?;
    }
    let trained = candidates.len().clamp(1, TRAINED_CANDIDATES) as f64;

    // Serving probes on the compiled served pair.
    let (b1, b16) = serve::requests(&s, seed)?;
    let (x1, x16) = (&b1[0], &b16[0]);
    let orig_b1 = whole_eval_ms(&mut s.orig_c, x1, &tr)?;
    let fused_b1 = whole_eval_ms(&mut s.fused_c, x1, &tr)?;
    let orig_b16 = whole_eval_ms(&mut s.orig_c, x16, &tr)?;
    let fused_b16 = whole_eval_ms(&mut s.fused_c, x16, &tr)?;
    let (blocks_b1, numel_b1) = per_block_eval(&s.fused_c, x1, &tr)?;
    let (blocks_b16, _) = per_block_eval(&s.fused_c, x16, &tr)?;
    let est = per_block_estimate(&s.fused_c, &s.fused_paper)?;
    let nodes = s.fused_c.nodes();
    let mut eval_op = PerOp::default();
    for (i, n) in nodes.iter().enumerate() {
        eval_op.add(&n.block.op_type().to_string(), blocks_b1[i] * 1e3);
    }
    // Bytes `TreeModel::forward` clones per batch-1 pass: the shared input
    // into every root, each parent activation into every child.
    let fanout_bytes: usize = nodes
        .iter()
        .map(|n| 4 * n.parent.map_or(x1.data().len(), |p| numel_b1[p]))
        .sum();
    let sum_b1: f64 = blocks_b1.iter().sum();
    let sum_b16: f64 = blocks_b16.iter().sum();

    // Checkpoint probes: the same surrogate search with checkpoints off
    // and on, then snapshot codec timings and a resume.
    let ck_cfg = search::paper_config(
        w.bench(),
        AccuracyMode::Surrogate,
        size.surrogate_iters,
        Workload::SearchCkpt.search_seed(seed, 1),
    );
    let off = search::run(session, &ck_cfg, &tr, 1)?.wall_s;
    let dir = scratch.sub("probe-ckpt");
    let on_cfg = OptimizationConfig {
        checkpoint_dir: Some(dir.clone()),
        ..ck_cfg.clone()
    };
    let writes0 = counter("checkpoint.write");
    let on = search::run(session, &on_cfg, &tr, 2)?.wall_s;
    let writes = counter("checkpoint.write") - writes0;
    let snap_bytes = newest_snapshot(&dir)
        .and_then(|p| std::fs::metadata(p).ok())
        .map_or(0, |m| m.len());
    let snap = tr.time("search.snapshot_decode", 0, || decode_newest(&dir))?;
    for r in 1..8u64 {
        tr.time("search.snapshot_decode", r, || decode_newest(&dir))?;
    }
    for r in 0..8u64 {
        tr.time("search.snapshot_encode", r, || snap.encode())?;
    }
    let resume_cfg = OptimizationConfig {
        resume: true,
        ..on_cfg
    };
    tr.time("search.resume", 0, || session.optimize(&resume_cfg))?;

    // Kernel, pool and dispatch counters over the whole traced run.
    let hists = tm::histograms();
    let hist_ms = |prefix: &str| -> f64 {
        hists
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, h)| h.sum)
            .sum::<f64>()
            / 1e3
    };
    let gemm_ms = hist_ms("gemm.us");
    let conv_ms = hist_ms("conv.us");
    let (hit, miss) = (counter("pool.hit"), counter("pool.miss"));
    let (pooled, inline) = (
        counter("engine.dispatch.pooled"),
        counter("engine.dispatch.inline"),
    );
    tele::shutdown();

    let iters = search_result.trace.len().max(1) as f64;
    let per_candidate = |name: &str| tr.total_us(name) / CANDIDATES as f64;
    let batches = train_batches.max(1) as f64;
    let m = &mut out;
    m.put("data.build_ms", tr.total_us("data.build") / 1e3, "ms");
    m.put("models.teacher_train_ms", teacher_us / 1e3, "ms");
    m.put("models.teacher_epochs", teacher_epochs, "count");
    m.put(
        "graph.parse_ms",
        (tr.total_us("graph.parse_models") + tr.total_us("graph.parse_specs")) / 1e3,
        "ms",
    );
    m.put(
        "graph.propose_us",
        per_candidate("graph.propose_candidate"),
        "us",
    );
    m.put(
        "graph.signature_us",
        median_of(&tr.durations_us("graph.signature")),
        "us",
    );
    m.put(
        "graph.generate_ms",
        median_of(&tr.durations_us("graph.generate")) / 1e3,
        "ms",
    );
    m.put(
        "graph.train_fwd_ms",
        tr.total_us("graph.train_fwd") / 1e3 / batches,
        "ms",
    );
    m.put(
        "graph.train_bwd_ms",
        tr.total_us("graph.train_bwd") / 1e3 / batches,
        "ms",
    );
    m.put(
        "graph.executor_overhead_frac.b1",
        ratio(fused_b1 - sum_b1, fused_b1),
        "frac",
    );
    m.put(
        "graph.executor_overhead_frac.b16",
        ratio(fused_b16 - sum_b16, fused_b16),
        "frac",
    );
    m.put("graph.fanout_copy_bytes", fanout_bytes as f64, "bytes");
    let op_total = |p: &PerOp| p.0.values().flatten().sum::<f64>() / trained;
    m.put("nn.train_fwd_ms", op_total(&fwd_op), "ms");
    m.put("nn.train_bwd_ms", op_total(&bwd_op), "ms");
    m.put("nn.eval_fwd_us", sum_b1 * 1e3, "us");
    m.put("nn.loss_us", tr.total_us("nn.loss") / batches, "us");
    m.put("nn.optim_ms", tr.total_us("nn.optim") / 1e3 / batches, "ms");
    m.put("tensor.conv_calls", counter("conv.calls"), "count");
    m.put("tensor.gemm_calls", counter("gemm.calls"), "count");
    m.put("tensor.gemm_ms", gemm_ms, "ms");
    m.put("tensor.pool_hit_frac", ratio(hit, hit + miss), "frac");
    m.put(
        "tensor.pooled_bytes",
        gmorph::tensor::buffer::pooled_bytes() as f64,
        "bytes",
    );
    m.put(
        "tensor.fused_dispatch",
        counter("kernel.fused_dispatch"),
        "count",
    );
    m.put(
        "tensor.pooled_dispatch_frac",
        ratio(pooled, pooled + inline),
        "frac",
    );
    m.put(
        "perf.teacher_targets_ms",
        tr.total_us("perf.teacher_targets") / 1e3,
        "ms",
    );
    m.put(
        "perf.finetune_ms",
        tr.total_us("perf.finetune") / 1e3 / trained,
        "ms",
    );
    m.put("perf.finetune_epochs", finetune_epochs / trained, "count");
    m.put(
        "perf.score_ms",
        tr.total_us("perf.score_tree") / 1e3 / trained,
        "ms",
    );
    m.put(
        "perf.estimate_us",
        median_of(&tr.durations_us("perf.estimate_latency")),
        "us",
    );
    m.put(
        "perf.surrogate_us",
        median_of(&tr.durations_us("perf.surrogate_finetune")),
        "us",
    );
    m.put("perf.compile_ms", tr.total_us("perf.compile") / 1e3, "ms");
    m.put("perf.est_speedup", est_speedup(&s)?, "x");
    m.put("perf.measured_speedup_b1", ratio(orig_b1, fused_b1), "x");
    m.put("perf.measured_speedup_b16", ratio(orig_b16, fused_b16), "x");
    m.put(
        "perf.est_rank_corr",
        util::spearman(&est, &blocks_b1),
        "rho",
    );
    m.put("search.evaluated", search_result.evaluated as f64, "count");
    m.put(
        "search.duplicates",
        search_result.duplicates as f64,
        "count",
    );
    m.put("search.failed", search_result.failed as f64, "count");
    m.put(
        "search.quarantined",
        search_result.quarantined as f64,
        "count",
    );
    m.put(
        "search.useful_frac",
        search_result.evaluated as f64 / iters,
        "frac",
    );
    m.put(
        "search.loop_ms_per_iter",
        off * 1e3 / size.surrogate_iters as f64,
        "ms",
    );
    m.put("search.checkpoint_frac", 1.0 - ratio(off, on), "frac");
    m.put(
        "search.snapshot_encode_ms",
        median_of(&tr.durations_us("search.snapshot_encode")) / 1e3,
        "ms",
    );
    m.put(
        "search.snapshot_decode_ms",
        median_of(&tr.durations_us("search.snapshot_decode")) / 1e3,
        "ms",
    );
    m.put("search.snapshot_bytes", snap_bytes as f64, "bytes");
    m.put("search.checkpoint_writes", writes, "count");
    let resumes = tr.durations_us("search.resume");
    m.put(
        "search.resume_ms",
        resumes.last().copied().unwrap_or(0.0) / 1e3,
        "ms",
    );
    m.put(
        "telemetry.overhead_frac",
        ratio(traced - untraced, untraced),
        "frac",
    );

    // Where did the time go.
    let wall_us = t_run.elapsed().as_secs_f64() * 1e6;
    let r = &mut out.report;
    r.push(format!(
        "{} traced run: {:.1} s; kernel time gemm {gemm_ms:.1} ms (conv {conv_ms:.1} ms of it)",
        w.name(),
        wall_us / 1e6
    ));
    r.push("top-5 blocks of the served fused model (batch 1):".to_string());
    let mut order: Vec<usize> = (0..nodes.len()).collect();
    order.sort_by(|&a, &b| blocks_b1[b].total_cmp(&blocks_b1[a]));
    for &i in order.iter().take(5) {
        r.push(format!(
            "  node {i:>2} {:<12} key {:?}  measured {:.4} ms  estimated {:.4} ms",
            nodes[i].block.op_type().to_string(),
            nodes[i].key,
            blocks_b1[i],
            est[i]
        ));
    }
    r.push(
        "self time by layer, share of the traced run (calls inside a span belong to it):"
            .to_string(),
    );
    let mut layers = tr.self_time_by_layer();
    // `Session::prepare` trains the teachers inside the `core` span; the
    // program's own `teacher.train` spans say how long that took.
    if let Some(core) = layers.get_mut("core") {
        *core -= teacher_us;
    }
    *layers.entry("models".to_string()).or_default() += teacher_us;
    for (layer, us) in &layers {
        r.push(format!("  {layer:<10} {:>6.1}%", 100.0 * us / wall_us));
    }
    let outside = wall_us - layers.values().sum::<f64>();
    r.push(format!(
        "  {:<10} {:>6.1}% (untraced primary phase, benchmark code)",
        "unspanned",
        100.0 * outside / wall_us
    ));
    r.push("per-op block times:".to_string());
    r.extend(fwd_op.lines("nn.train_fwd_ms", "ms", trained));
    r.extend(bwd_op.lines("nn.train_bwd_ms", "ms", trained));
    r.extend(eval_op.lines("nn.eval_fwd_us", "us", 1.0));
    r.push(format!(
        "telemetry.overhead_frac {:.4} (median traced {traced:.3} ms vs untraced {untraced:.3} ms)",
        ratio(traced - untraced, untraced)
    ));
    out.spans = Some(tr.to_jsonl());
    Ok(out)
}
