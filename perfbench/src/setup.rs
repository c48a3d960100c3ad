//! Set-up: the benchmark's dataset, trained teachers, parsed graphs, and
//! the two served B7 models (the unfused original and the fixed-recipe
//! fused model), each compiled for inference.

use crate::spans::Tracer;
use gmorph::graph::parser::{parse_models, parse_specs};
use gmorph::graph::{generator, mutation, pairs, AbsGraph, TreeModel};
use gmorph::models::train::TrainConfig;
use gmorph::perf::compile::compile_for_inference;
use gmorph::prelude::*;
use gmorph::tensor::{Result, Tensor};
use std::path::Path;

/// The trained session plus both served models.
pub struct Setup {
    /// The prepared session (teachers, graphs, splits).
    pub session: Session,
    /// Paper-scale graph of the served original.
    pub orig_paper: AbsGraph,
    /// Paper-scale graph of the served fused model.
    pub fused_paper: AbsGraph,
    /// Inputs the served requests are taken from, in order.
    pub requests: Tensor,
    /// Uncompiled original model (reference for output checks).
    pub orig: TreeModel,
    /// Uncompiled fused model (reference for output checks).
    pub fused: TreeModel,
    /// Compiled original model: what is served.
    pub orig_c: TreeModel,
    /// Compiled fused model: what is served.
    pub fused_c: TreeModel,
}

/// Session settings of the standard profile: six teacher epochs, the
/// on-disk teacher cache (pointed at a private directory by the caller),
/// the default kernel thread count.
pub fn session_config(seed: u64) -> SessionConfig {
    SessionConfig {
        teacher: TrainConfig {
            epochs: 6,
            batch: 32,
            lr: 3e-3,
            seed,
        },
        seed,
        use_cache: true,
        quiet: true,
        ..Default::default()
    }
}

/// The fixed fusion recipe: one mutation pass over the cross-task
/// shareable pair whose guest op is deepest. Independent of the search,
/// so a change to the search cannot change what is served.
pub fn recipe(mini: &AbsGraph, paper: &AbsGraph) -> Result<(AbsGraph, AbsGraph)> {
    let mut best: Option<(usize, (usize, usize))> = None;
    for (n, m) in pairs::shareable_pairs(mini)? {
        let (host, guest) = (mini.node(n)?, mini.node(m)?);
        if host.task_id == guest.task_id {
            continue;
        }
        if best.is_none_or(|(op, _)| guest.op_id > op) {
            best = Some((guest.op_id, (n, m)));
        }
    }
    let Some((_, pair)) = best else {
        return Ok((mini.clone(), paper.clone()));
    };
    let (fm, _) = mutation::mutation_pass(mini, &[pair])?;
    let (fp, _) = mutation::mutation_pass(paper, &[pair])?;
    Ok((fm, fp))
}

/// Builds the benchmark and prepares its session against an empty teacher
/// cache at `cache`. When tracing, the graph parse that `Session::prepare`
/// runs is timed once more on its own afterwards; per-teacher training
/// time comes from the program's own `teacher.train` spans.
pub fn prepare(id: BenchId, seed: u64, cache: &Path, tr: &Tracer) -> Result<Session> {
    std::env::set_var("GMORPH_CACHE_DIR", cache);
    let bench = tr.time("data.build", 0, || {
        build_benchmark(id, &DataProfile::standard(), seed)
    })?;
    let session = tr.time("core.prepare", 0, || {
        Session::prepare(bench, &session_config(seed))
    })?;
    if tr.enabled() {
        tr.time("graph.parse_models", 0, || parse_models(&session.teachers))?;
        tr.time("graph.parse_specs", 0, || parse_specs(&session.bench.paper))?;
    }
    Ok(session)
}

/// Full set-up: session, recipe, both served models built and compiled.
///
/// Every workload serves B7. On B7 the served models inherit the trained
/// teachers' weights and requests come from the test split; on B1 they
/// are freshly initialized B7 models (their latency does not depend on
/// the weights) and requests come from B7's generated inputs. B1's own
/// batch-1 latency is a few tenths of a millisecond, dominated by waking
/// the kernel worker, and read 0.18 ms in some runs and 0.28 ms in
/// others on the same machine, too unsteady to bound.
pub fn setup(id: BenchId, seed: u64, cache: &Path, tr: &Tracer) -> Result<Setup> {
    let session = prepare(id, seed, cache, tr)?;
    let (mini, orig_paper, weights, requests) = if id == BenchId::B7 {
        (
            session.mini_graph.clone(),
            session.paper_graph.clone(),
            session.weights.clone(),
            session.split.test.inputs.clone(),
        )
    } else {
        let b7 = build_benchmark(BenchId::B7, &DataProfile::standard(), seed)?;
        let mut rng = Rng::new(seed ^ 0xB7);
        let models = b7
            .mini
            .iter()
            .map(|spec| spec.build(&mut rng))
            .collect::<Result<Vec<_>>>()?;
        let (mini, weights) = parse_models(&models)?;
        let paper = parse_specs(&b7.paper)?;
        (mini, paper, weights, b7.dataset.inputs)
    };
    let (fused_mini, fused_paper) = recipe(&mini, &orig_paper)?;
    let mut rng = Rng::new(seed ^ 0x6E6E);
    let (orig, _) = tr.time("graph.generate", 0, || {
        generator::generate(&mini, &weights, &mut rng)
    })?;
    let (fused, _) = tr.time("graph.generate", 1, || {
        generator::generate(&fused_mini, &weights, &mut rng)
    })?;
    let (orig_c, _) = tr.time("perf.compile", 0, || compile_for_inference(&orig))?;
    let (fused_c, _) = tr.time("perf.compile", 1, || compile_for_inference(&fused))?;
    Ok(Setup {
        session,
        orig_paper,
        fused_paper,
        requests,
        orig,
        fused,
        orig_c,
        fused_c,
    })
}
