//! Kernel-engine microbenchmark: blocked/threaded GEMM against the seed's
//! single-threaded naive loops, the transposed GEMM variants, the
//! convolution forward and backward passes of one B1 VGG-13 tower,
//! eval-mode attention, bilinear resize and the transformer MLP's GELU,
//! written as machine-readable JSON.
//!
//! Emits `BENCH_kernels.json` in the output directory:
//!
//! ```json
//! {
//!   "nproc": 2, "pool": true, "simd": "avx2", "threads": 2,
//!   "records": [{"op", "config", "shape", "threads",
//!                "ns_min", "ns_median", "samples"}, ...]
//! }
//! ```
//!
//! `nproc` is the machine's available parallelism, `threads` the engine's
//! configured thread count, `pool` whether the buffer pool is on and `simd`
//! which instance of the kernel bodies runs (`"avx2"` or `"portable"`, see
//! `gmorph_tensor::simd`). Each record carries the pool state (`config`:
//! `pool_on`/`pool_off`) and the thread cap it ran under. GEMM records time
//! `gemm_naive` and `gemm_blocked` at 1 and N threads, and `gemm_nt` and
//! `gemm_tn` at the engine's thread count. Conv records time `conv_fwd`
//! (`conv2d_forward`) and `conv_bwd` (`conv2d_backward_geom`) on each of
//! the tower's eight layers at the fine-tuning batch of 64, plus
//! `conv_tower_fwd_bwd`, their sum. A conv record's `shape` starts with
//! its layer's 1-based position (`l7-n64c16-16s2k3`): the last two layers
//! have the same geometry. No two records share `(op, config, shape,
//! threads)`. `attention_eval` is a 4-head
//! `MultiHeadAttention` forward (d = 32) at batch 4 and, shaped like one B7
//! BERT-Large layer (d = 48, 12 tokens), at batch 1; `resize_bilinear` is
//! an 8×8 → 16×16 upsampling. The GELU records time the transformer MLP's
//! activation at B7's serving batch of 16 (192 tokens of width 4·48):
//! `gelu_fwd` and `gelu_bwd` the standalone passes over `[192, 192]`, and
//! `linear_gelu_eval` the eval-mode fc1, a `[192, 48] → 192` linear layer
//! with GELU fused into its GEMM epilogue.
//!
//! The small-GEMM sweep times, at 1 thread, the products B1 and B7 call at
//! batch 1 and 16 plus a ladder of cubes around the naive/blocked
//! break-even, in each layout: `gemm_small_naive` is the seed's loop
//! (`gemm::naive::*`) and `gemm_small` the dispatching entry
//! (`gemm::matmul*`), with `shape` `{nn,nt,tn}-{m}x{k}x{n}`.
//! `linear_eval` is an eval-mode linear layer on 12 tokens shaped like a
//! B7 attention projection (`12x32-32` for BERT-Base, `12x48-48` for
//! BERT-Large).

use crate::common::{time_ns, write_bench_json, BenchRecord, Timing};
use crate::ExperimentOpts;
use gmorph::nn::layers::{Linear, MultiHeadAttention};
use gmorph::nn::Mode;
use gmorph::tensor::conv::{conv2d_backward_geom, conv2d_forward, Conv2dGeom};
use gmorph::tensor::interp::{resize2d_forward, InterpMode};
use gmorph::tensor::ops::{gelu_backward, gelu_forward, Activation};
use gmorph::tensor::rng::Rng;
use gmorph::tensor::{buffer, engine, gemm, Tensor};
use std::hint::black_box;

/// The eight 3×3/s1/p1 convolutions of B1's mini-scale VGG-13 tower
/// (base width 4, 16×16 input, 2×2 pooling after every second layer):
/// `(c_in, c_out, side)`.
const VGG13_B1: [(usize, usize, usize); 8] = [
    (3, 4, 16),
    (4, 4, 16),
    (4, 8, 8),
    (8, 8, 8),
    (8, 16, 4),
    (16, 16, 4),
    (16, 16, 2),
    (16, 16, 2),
];

/// Fine-tuning batch size of B1 (§6.1).
const BATCH: usize = 64;

/// A record whose `config` is the buffer-pool state it ran under.
fn record(op: &str, shape: &str, threads: usize, timing: Timing) -> BenchRecord {
    let config = if buffer::enabled() {
        "pool_on"
    } else {
        "pool_off"
    };
    BenchRecord::new(op, config, shape, threads, timing)
}

fn gemm_records(opts: &ExperimentOpts, records: &mut Vec<BenchRecord>) {
    let mut rng = Rng::new(opts.seed);
    let dim = if opts.quick { 128 } else { 256 };
    let a = Tensor::randn(&[dim, dim], 1.0, &mut rng);
    let b = Tensor::randn(&[dim, dim], 1.0, &mut rng);
    let shape = format!("{dim}x{dim}x{dim}");
    let (iters, samples) = if opts.quick { (2, 3) } else { (4, 5) };

    let naive = time_ns(iters, samples, || {
        black_box(gemm::naive::matmul(black_box(&a), black_box(&b)).unwrap());
    });
    records.push(record("gemm_naive", &shape, 1, naive));
    for threads in [1usize, engine::num_threads().max(2)] {
        engine::with_thread_limit(threads, || {
            let t = time_ns(iters, samples, || {
                black_box(gemm::matmul(black_box(&a), black_box(&b)).unwrap());
            });
            records.push(record("gemm_blocked", &shape, threads, t));
        });
    }
    let nt = time_ns(iters, samples, || {
        black_box(gemm::matmul_nt(black_box(&a), black_box(&b)).unwrap());
    });
    let tn = time_ns(iters, samples, || {
        black_box(gemm::matmul_tn(black_box(&a), black_box(&b)).unwrap());
    });
    let threads = engine::num_threads();
    records.push(record("gemm_nt", &shape, threads, nt));
    records.push(record("gemm_tn", &shape, threads, tn));
}

fn conv_records(opts: &ExperimentOpts, records: &mut Vec<BenchRecord>) {
    let mut rng = Rng::new(opts.seed ^ 1);
    let geom = Conv2dGeom::new(3, 1, 1).unwrap();
    let (iters, samples) = if opts.quick { (2, 3) } else { (10, 7) };
    let layers: Vec<_> = VGG13_B1
        .iter()
        .enumerate()
        .map(|(i, &(c_in, c_out, side))| {
            let x = Tensor::randn(&[BATCH, c_in, side, side], 1.0, &mut rng);
            let w = Tensor::randn(&[c_out, c_in, 3, 3], 0.5, &mut rng);
            let b = Tensor::randn(&[c_out], 0.1, &mut rng);
            let go = Tensor::randn(&[BATCH, c_out, side, side], 1.0, &mut rng);
            let shape = format!("l{}-n{BATCH}c{c_in}-{c_out}s{side}k3", i + 1);
            (shape, x, w, b, go)
        })
        .collect();
    for threads in [1usize, engine::num_threads().max(2)] {
        engine::with_thread_limit(threads, || {
            let mut tower = Timing {
                ns_min: 0.0,
                ns_median: 0.0,
                samples,
            };
            for (shape, x, w, b, go) in &layers {
                // Training steady state: the columns and outputs go back to
                // the pool, as the nn layers recycle them.
                let fwd_t = time_ns(iters, samples, || {
                    let f = conv2d_forward(black_box(x), black_box(w), Some(b), geom).unwrap();
                    buffer::recycle(f.output);
                    buffer::recycle(f.cols);
                });
                let fwd = conv2d_forward(x, w, Some(b), geom).unwrap();
                let bwd_t = time_ns(iters, samples, || {
                    let g = conv2d_backward_geom(black_box(go), w, x.dims(), &fwd, geom).unwrap();
                    buffer::recycle(g.grad_input);
                });
                for t in [fwd_t, bwd_t] {
                    tower.ns_min += t.ns_min;
                    tower.ns_median += t.ns_median;
                }
                records.push(record("conv_fwd", shape, threads, fwd_t));
                records.push(record("conv_bwd", shape, threads, bwd_t));
            }
            let shape = format!("vgg13-b1-n{BATCH}");
            records.push(record("conv_tower_fwd_bwd", &shape, threads, tower));
        });
    }
}

/// Eval-mode multi-head attention (4 heads) on `[4, 16, 32]` and on
/// `[1, 12, 48]`, and bilinear resize of `[8, 16, 8, 8]` to 16×16, at the
/// engine's thread count.
fn attention_resize_records(opts: &ExperimentOpts, records: &mut Vec<BenchRecord>) {
    let mut rng = Rng::new(opts.seed ^ 2);
    let img = Tensor::randn(&[8, 16, 8, 8], 1.0, &mut rng);
    let (iters, samples) = if opts.quick { (5, 3) } else { (50, 7) };
    let threads = engine::num_threads();

    for (n, t, d) in [(4usize, 16usize, 32usize), (1, 12, 48)] {
        let mut attn = MultiHeadAttention::new(d, 4, &mut rng).unwrap();
        let x = Tensor::randn(&[n, t, d], 1.0, &mut rng);
        let attention = time_ns(iters, samples, || {
            black_box(attn.forward(black_box(&x), Mode::Eval).unwrap());
        });
        let shape = format!("{n}x{t}x{d}h4");
        records.push(record("attention_eval", &shape, threads, attention));
    }
    let resize = time_ns(iters, samples, || {
        black_box(resize2d_forward(black_box(&img), 16, 16, InterpMode::Bilinear).unwrap());
    });
    records.push(record("resize_bilinear", "8x16x8x8-16x16", threads, resize));
}

/// The B7 transformer MLP's GELU at the serving batch of 16 (12 tokens,
/// d = 48, hidden 192): the standalone forward and backward passes and the
/// eval-mode fc1 with GELU fused into its GEMM epilogue, at the engine's
/// thread count.
fn gelu_records(opts: &ExperimentOpts, records: &mut Vec<BenchRecord>) {
    let (rows, d, hidden) = (16 * 12, 48, 4 * 48);
    let mut rng = Rng::new(opts.seed ^ 3);
    let x = Tensor::randn(&[rows, hidden], 1.0, &mut rng);
    let g = Tensor::randn(&[rows, hidden], 1.0, &mut rng);
    let h = Tensor::randn(&[rows, d], 1.0, &mut rng);
    let mut fc1 = Linear::new(d, hidden, &mut rng);
    fc1.fused_act = Activation::Gelu;
    let (iters, samples) = if opts.quick { (5, 3) } else { (50, 7) };
    let threads = engine::num_threads();

    let shape = format!("{rows}x{hidden}");
    let fwd = time_ns(iters, samples, || {
        black_box(gelu_forward(black_box(&x)));
    });
    records.push(record("gelu_fwd", &shape, threads, fwd));
    let bwd = time_ns(iters, samples, || {
        black_box(gelu_backward(black_box(&g), black_box(&x)).unwrap());
    });
    records.push(record("gelu_bwd", &shape, threads, bwd));
    let lin = time_ns(iters, samples, || {
        black_box(fc1.forward(black_box(&h), Mode::Eval).unwrap());
    });
    let shape = format!("{rows}x{d}-{hidden}");
    records.push(record("linear_gelu_eval", &shape, threads, lin));
}

/// The `m x k x n` products of the small-GEMM sweep: those B7 calls at
/// batch 1 and 16 (attention projections and heads, MLP, classifier) and
/// B1's classifier head at batch 64, then cubes from 8³ to 32³ that
/// bracket the naive/blocked break-even of each layout.
const SMALL_GEMMS: [(usize, usize, usize); 18] = [
    (1, 32, 2),
    (1, 48, 2),
    (12, 8, 12),
    (12, 12, 12),
    (12, 32, 32),
    (12, 32, 48),
    (12, 32, 128),
    (12, 48, 48),
    (12, 48, 192),
    (12, 128, 32),
    (12, 192, 48),
    (64, 16, 10),
    (8, 8, 8),
    (16, 16, 16),
    (20, 20, 20),
    (24, 24, 24),
    (28, 28, 28),
    (32, 32, 32),
];

/// A GEMM entry point: `gemm::matmul*` or `gemm::naive::matmul*`.
type GemmFn = fn(&Tensor, &Tensor) -> gmorph::tensor::Result<Tensor>;

/// The small-GEMM sweep at 1 thread: the naive loop and the dispatching
/// entry on every [`SMALL_GEMMS`] product in each layout, and eval-mode
/// linear layers shaped like B7's attention projections.
fn small_gemm_records(opts: &ExperimentOpts, records: &mut Vec<BenchRecord>) {
    let mut rng = Rng::new(opts.seed ^ 4);
    let samples = if opts.quick { 3 } else { 7 };
    // About 2^23 multiply-adds per sample, so every sample spans some
    // milliseconds whatever the product's size.
    let iters =
        |macs: usize| ((1 << 23) / macs).clamp(20, 20_000) / if opts.quick { 10 } else { 1 };
    engine::with_thread_limit(1, || {
        for (m, k, n) in SMALL_GEMMS {
            let layouts = [
                (
                    "nn",
                    [m, k],
                    [k, n],
                    gemm::naive::matmul as GemmFn,
                    gemm::matmul as GemmFn,
                ),
                (
                    "nt",
                    [m, k],
                    [n, k],
                    gemm::naive::matmul_nt,
                    gemm::matmul_nt,
                ),
                (
                    "tn",
                    [k, m],
                    [k, n],
                    gemm::naive::matmul_tn,
                    gemm::matmul_tn,
                ),
            ];
            for (layout, a_dims, b_dims, naive, dispatch) in layouts {
                let a = Tensor::randn(&a_dims, 1.0, &mut rng);
                let b = Tensor::randn(&b_dims, 1.0, &mut rng);
                let shape = format!("{layout}-{m}x{k}x{n}");
                for (op, f) in [("gemm_small_naive", naive), ("gemm_small", dispatch)] {
                    let t = time_ns(iters(m * k * n), samples, || {
                        black_box(f(black_box(&a), black_box(&b)).unwrap());
                    });
                    records.push(record(op, &shape, 1, t));
                }
            }
        }
        for d in [32, 48] {
            let x = Tensor::randn(&[12, d], 1.0, &mut rng);
            let mut proj = Linear::new(d, d, &mut rng);
            let t = time_ns(iters(12 * d * d), samples, || {
                black_box(proj.forward(black_box(&x), Mode::Eval).unwrap());
            });
            records.push(record("linear_eval", &format!("12x{d}-{d}"), 1, t));
        }
    });
}

/// Runs the kernel microbenchmarks and writes `BENCH_kernels.json`.
pub fn run(opts: &ExperimentOpts) -> gmorph::tensor::Result<()> {
    let mut records = Vec::new();
    gemm_records(opts, &mut records);
    conv_records(opts, &mut records);
    attention_resize_records(opts, &mut records);
    gelu_records(opts, &mut records);
    small_gemm_records(opts, &mut records);
    write_bench_json(&opts.out_dir, "BENCH_kernels.json", &records, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests::read_bench_json;

    #[test]
    fn writes_machine_readable_json() {
        let dir = std::env::temp_dir().join("gmorph_bench_kernels_test");
        let opts = ExperimentOpts {
            quick: true,
            out_dir: dir.clone(),
            ..Default::default()
        };
        run(&opts).unwrap();
        let records = read_bench_json(&dir.join("BENCH_kernels.json"));
        for op in [
            "gemm_naive",
            "gemm_blocked",
            "gemm_nt",
            "gemm_tn",
            "conv_fwd",
            "conv_bwd",
            "conv_tower_fwd_bwd",
            "attention_eval",
            "resize_bilinear",
            "gelu_fwd",
            "gelu_bwd",
            "linear_gelu_eval",
            "gemm_small_naive",
            "gemm_small",
            "linear_eval",
        ] {
            assert!(records.iter().any(|(o, _)| o == op), "no {op} record");
        }
        assert!(records
            .iter()
            .all(|(_, config)| config == "pool_on" || config == "pool_off"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
