//! Closed-loop serving: one client sends the next request when the
//! previous one has answered. The compiled original and fused models
//! alternate in short blocks so machine drift hits both equally.

use crate::setup::Setup;
use crate::spans::Tracer;
use gmorph::graph::TreeModel;
use gmorph::nn::Mode;
use gmorph::tensor::rng::Rng;
use gmorph::tensor::{Result, Tensor};
use std::time::Instant;

/// Requests per block before the other model takes over.
const B1_BLOCK: usize = 16;
/// Batch-16 batches per block.
const B16_BLOCK: usize = 2;

/// Latencies of one served model.
#[derive(Debug, Default, Clone)]
pub struct ModelStats {
    /// Batch-1 request latencies, ms.
    pub b1_ms: Vec<f64>,
    /// Batch-16 batch latencies, ms.
    pub b16_ms: Vec<f64>,
}

/// Outcome of a serving phase.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// The unfused original.
    pub orig: ModelStats,
    /// The fused model.
    pub fused: ModelStats,
    /// Requests answered (batch-1 requests and batch-16 batches).
    pub requests: usize,
    /// Requests that erred or failed their output check.
    pub failed: usize,
    /// Compiled-vs-uncompiled output checks run.
    pub parity_checks: usize,
    /// Parity checks that failed.
    pub parity_failed: usize,
}

/// True when `outs` holds one finite `[batch, classes]` tensor per task.
pub fn outputs_ok(model: &TreeModel, outs: &[Tensor], batch: usize) -> bool {
    outs.len() == model.tasks.len()
        && outs
            .iter()
            .zip(&model.tasks)
            .all(|(y, t)| y.dims() == [batch, t.classes] && y.data().iter().all(|v| v.is_finite()))
}

/// True when the compiled outputs equal the reference bit for bit (B7's
/// compile only moves GELU into the GEMM epilogue, which is bit-exact).
fn same_outputs(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.dims() == y.dims()
                && x.data()
                    .iter()
                    .zip(y.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Request inputs taken in order from the served inputs, starting at a
/// row picked by `seed`.
pub fn requests(setup: &Setup, seed: u64) -> Result<(Vec<Tensor>, Vec<Tensor>)> {
    let inputs = &setup.requests;
    let n = inputs.dims()[0];
    let start = Rng::new(seed ^ 0x5E4E).below(n);
    let rows = |from: usize, k: usize| -> Vec<usize> { (0..k).map(|i| (from + i) % n).collect() };
    let b1 = (0..64)
        .map(|i| inputs.select_rows(&rows(start + i, 1)))
        .collect::<Result<Vec<_>>>()?;
    let b16 = (0..8)
        .map(|i| inputs.select_rows(&rows(start + 16 * i, 16)))
        .collect::<Result<Vec<_>>>()?;
    Ok((b1, b16))
}

/// Checks a sample of compiled outputs against the uncompiled models.
fn parity(setup: &mut Setup, b1: &[Tensor], b16: &[Tensor], st: &mut ServeStats) {
    let Setup {
        orig,
        fused,
        orig_c,
        fused_c,
        ..
    } = setup;
    for (reference, compiled) in [(orig, orig_c), (fused, fused_c)] {
        for x in b1.iter().take(4).chain(b16.iter().take(1)) {
            st.parity_checks += 1;
            let ok = match (
                reference.forward(x, Mode::Eval),
                compiled.forward(x, Mode::Eval),
            ) {
                (Ok(a), Ok(b)) => same_outputs(&a, &b),
                _ => false,
            };
            if !ok {
                st.parity_failed += 1;
            }
        }
        reference.clear_caches();
        compiled.clear_caches();
    }
}

/// One timed request: its latency in ms and whether it answered
/// correctly.
fn answer(model: &mut TreeModel, x: &Tensor, id: u64, tr: &Tracer) -> (f64, bool) {
    let batch = x.dims()[0];
    let t0 = Instant::now();
    let out = {
        let _s = tr.span("graph.forward_eval", id);
        model.forward(x, Mode::Eval)
    };
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    (ms, out.is_ok_and(|o| outputs_ok(model, &o, batch)))
}

/// A closed-loop client of the two compiled models.
pub struct Server {
    b1: Vec<Tensor>,
    b16: Vec<Tensor>,
    round: usize,
    /// What was served so far.
    pub stats: ServeStats,
}

impl Server {
    /// Prepares the requests, checks compiled against uncompiled outputs
    /// and warms both models up.
    pub fn new(setup: &mut Setup, seed: u64) -> Result<Server> {
        let (b1, b16) = requests(setup, seed)?;
        let mut stats = ServeStats::default();
        parity(setup, &b1, &b16, &mut stats);
        for m in [&mut setup.orig_c, &mut setup.fused_c] {
            for x in b1.iter().take(4).chain(b16.iter().take(1)) {
                m.forward(x, Mode::Eval)?;
            }
        }
        Ok(Server {
            b1,
            b16,
            round: 0,
            stats,
        })
    }

    /// One round: a block of batch-1 requests and a block of batch-16
    /// batches to each model in turn.
    pub fn round(&mut self, setup: &mut Setup, tr: &Tracer) {
        let st = &mut self.stats;
        for (model, stats) in [
            (&mut setup.orig_c, &mut st.orig),
            (&mut setup.fused_c, &mut st.fused),
        ] {
            for k in 0..B1_BLOCK {
                let x = &self.b1[(self.round * B1_BLOCK + k) % self.b1.len()];
                let (ms, ok) = answer(model, x, st.requests as u64, tr);
                stats.b1_ms.push(ms);
                st.requests += 1;
                st.failed += usize::from(!ok);
            }
            for k in 0..B16_BLOCK {
                let x = &self.b16[(self.round * B16_BLOCK + k) % self.b16.len()];
                let (ms, ok) = answer(model, x, st.requests as u64, tr);
                stats.b16_ms.push(ms);
                st.requests += 1;
                st.failed += usize::from(!ok);
            }
        }
        self.round += 1;
    }
}

/// Serves both compiled models for `seconds`.
pub fn serve(setup: &mut Setup, seconds: f64, seed: u64, tr: &Tracer) -> Result<ServeStats> {
    let mut server = Server::new(setup, seed)?;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        server.round(setup, tr);
    }
    Ok(server.stats)
}
