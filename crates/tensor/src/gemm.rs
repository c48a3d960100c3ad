//! Cache-blocked, threaded GEMM kernels.
//!
//! Matrix multiplication dominates the cost of every layer in this stack
//! (convolution lowers to GEMM via im2col, attention and linear layers are
//! GEMMs outright). The kernels here follow the classic BLIS decomposition:
//! the operand matrices are cut into `MC x KC` / `KC x NR` blocks that are
//! *packed* into contiguous buffers sized for cache residency, and an
//! `MR x NR` register-tiled microkernel runs over the packed panels. The
//! packed inner loops are plain slice iteration over fixed-width strips,
//! which LLVM auto-vectorizes: 4 wide in the portable instance of each
//! kernel body and 8 wide in its AVX2 instance, picked at run time by
//! [`crate::simd`]. Both instances round every product and sum the same
//! way (no FMA, same order), so they are bit-identical.
//!
//! Row panels of the output are dispatched across the process-wide worker
//! pool ([`crate::engine`]). Each output element is written by exactly one
//! panel and accumulated in a fixed order (`KC` blocks ascending, `p`
//! ascending within a block), so results are bit-identical for any thread
//! count.
//!
//! Three variants cover forward and backward passes without materializing
//! transposes:
//!
//! - [`matmul`]: `C = A · B`
//! - [`matmul_nt`]: `C = A · Bᵀ` (e.g. grad wrt input of a linear layer)
//! - [`matmul_tn`]: `C = Aᵀ · B` (e.g. grad wrt weights of a linear layer)
//!
//! The seed project's single-threaded loop-order kernels survive in
//! [`naive`] as a benchmark baseline, a test reference and the kernel of
//! the products too small to repay packing: [`blocked_pays`] picks the
//! kernel from the product's shape. For `k <= KC` both kernels
//! sum each output element in one chain, from `+0` in ascending `p`, so
//! the choice never changes a bit.

use crate::buffer;
use crate::engine;
use crate::ops::Activation;
use crate::tensor::Tensor;
use crate::{Result, TensorError};

/// Microkernel tile height (rows of `C` per register tile).
const MR: usize = 4;
/// Microkernel tile width (columns of `C` per register tile).
const NR: usize = 8;
/// Row-panel height: rows of `A` packed per panel (L2-resident with KC).
const MC: usize = 64;
/// Depth block: columns of `A` / rows of `B` per packed block (L1/L2).
const KC: usize = 256;

/// From this `m * k * n` product up, every product runs on the blocked
/// kernel; below it, [`blocked_pays`] keeps the smallest products and
/// those deeper than `KC` on the naive loops.
const SMALL: usize = 32 * 32 * 32;

/// Smallest `m * k * n` below [`SMALL`] (with `k <= KC`) that runs on the
/// blocked kernel. At 1 thread on a 2-vCPU x86-64 VM with AVX2
/// (`results/BENCH_small_gemm.json`, `gemm_small` records) the blocked
/// kernel beats the naive loops from 16³ up in every layout (by 2× for
/// `A · Bᵀ`, whose naive loop is a scalar dot product, and by 1.1–1.3× for
/// `A · B` and `Aᵀ · B`), and at 12³ it saves at most about 0.1 µs a
/// call. Staying naive below 16³ keeps B7's batch-16 per-head products
/// (12×12×12, 12×8×12) where they were: when every small product took the
/// blocked kernel, batch-16 serving throughput fell 22%.
const BLOCKED_FROM: usize = 16 * 16 * 16;

/// Below this `m * k * n` product, row panels run serially even when the
/// pool has threads: dispatch overhead would dominate.
const PAR_MIN: usize = 1 << 18;

/// How an operand matrix is stored relative to its logical orientation.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// Stored exactly as the logical matrix.
    Normal,
    /// Stored as the transpose of the logical matrix.
    Transposed,
}

/// Fused epilogue: optional `[n]` bias plus activation, applied while the
/// output rows are still cache-hot instead of as separate passes.
///
/// The scalar sequence is `act(v + bias[j])` — exactly what
/// [`add_bias_rows`] followed by an elementwise activation computes — so
/// fused and unfused results are bit-identical.
#[derive(Clone, Copy, Default)]
struct Epilogue<'a> {
    bias: Option<&'a [f32]>,
    act: Activation,
}

impl Epilogue<'_> {
    fn is_noop(&self) -> bool {
        self.bias.is_none() && self.act == Activation::None
    }

    /// Applies the epilogue to a chunk of whole output rows (`[rows, n]`).
    #[inline(always)]
    fn apply(&self, rows: &mut [f32], n: usize) {
        if self.is_noop() {
            return;
        }
        // Dispatch on the activation once, outside the element loop, so
        // each arm compiles to a tight monomorphic pass — same scalar
        // sequence as the separate bias/activation passes, still
        // bit-identical.
        #[inline(always)]
        fn pass(rows: &mut [f32], n: usize, bias: Option<&[f32]>, f: impl Fn(f32) -> f32) {
            for row in rows.chunks_mut(n) {
                match bias {
                    Some(b) => {
                        for (v, &bv) in row.iter_mut().zip(b.iter()) {
                            *v = f(*v + bv);
                        }
                    }
                    None => {
                        for v in row.iter_mut() {
                            *v = f(*v);
                        }
                    }
                }
            }
        }
        match self.act {
            Activation::None => pass(rows, n, self.bias, |v| v),
            Activation::Relu => pass(rows, n, self.bias, |v| Activation::Relu.apply(v)),
            Activation::Gelu => pass(rows, n, self.bias, |v| Activation::Gelu.apply(v)),
        }
    }
}

fn check_rank2(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if t.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: t.shape().rank(),
        });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

/// Packs the `kb x n` slice of logical `B` starting at depth `p0` into
/// `NR`-wide column strips: strip `j` holds columns `j*NR ..`, laid out
/// `p`-major (`buf[strip_base + p*NR + c]`). Columns past `n` are zero.
#[inline(always)]
fn pack_b(bd: &[f32], layout: Layout, k: usize, n: usize, p0: usize, kb: usize, buf: &mut [f32]) {
    let n_strips = n.div_ceil(NR);
    for js in 0..n_strips {
        let j0 = js * NR;
        let cols = NR.min(n - j0);
        let strip = &mut buf[js * kb * NR..(js + 1) * kb * NR];
        match layout {
            Layout::Normal => {
                // B stored [k, n].
                for p in 0..kb {
                    let src = &bd[(p0 + p) * n + j0..(p0 + p) * n + j0 + cols];
                    let dst = &mut strip[p * NR..p * NR + NR];
                    dst[..cols].copy_from_slice(src);
                    dst[cols..].fill(0.0);
                }
            }
            Layout::Transposed if cols == NR => {
                // B stored [n, k]; logical element (p, j) is bd[j*k + p]:
                // a full strip transposes NR contiguous rows.
                let rows: [&[f32]; NR] = std::array::from_fn(|c| &bd[(j0 + c) * k + p0..][..kb]);
                for (p, dst) in strip.chunks_exact_mut(NR).enumerate() {
                    for (d, row) in dst.iter_mut().zip(&rows) {
                        *d = row[p];
                    }
                }
            }
            Layout::Transposed => {
                // B stored [n, k]; logical element (p, j) is bd[j*k + p].
                for p in 0..kb {
                    let dst = &mut strip[p * NR..p * NR + NR];
                    for (c, d) in dst.iter_mut().enumerate() {
                        *d = if c < cols {
                            bd[(j0 + c) * k + p0 + p]
                        } else {
                            0.0
                        };
                    }
                }
            }
        }
    }
}

/// Packs the `mb x kb` slice of logical `A` (rows `i0..`, depths `p0..`)
/// into `MR`-tall row strips, `p`-major within a strip
/// (`buf[strip_base + p*MR + r]`). Rows past `mb` are zero.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn pack_a(
    ad: &[f32],
    layout: Layout,
    m: usize,
    k: usize,
    i0: usize,
    mb: usize,
    p0: usize,
    kb: usize,
    buf: &mut [f32],
) {
    let m_strips = mb.div_ceil(MR);
    for is in 0..m_strips {
        let r0 = is * MR;
        let rows = MR.min(mb - r0);
        let strip = &mut buf[is * kb * MR..(is + 1) * kb * MR];
        match layout {
            Layout::Normal => {
                // A stored [m, k].
                for p in 0..kb {
                    let dst = &mut strip[p * MR..p * MR + MR];
                    for (r, d) in dst.iter_mut().enumerate() {
                        *d = if r < rows {
                            ad[(i0 + r0 + r) * k + p0 + p]
                        } else {
                            0.0
                        };
                    }
                }
            }
            Layout::Transposed => {
                // A stored [k, m]; logical element (i, p) is ad[p*m + i].
                for p in 0..kb {
                    let src_row = (p0 + p) * m + i0 + r0;
                    let dst = &mut strip[p * MR..p * MR + MR];
                    for (r, d) in dst.iter_mut().enumerate() {
                        *d = if r < rows { ad[src_row + r] } else { 0.0 };
                    }
                }
            }
        }
    }
}

/// The register-tiled microkernel: accumulates the `MR x NR` product of one
/// packed `A` strip and one packed `B` strip over `kb` depth steps into
/// `acc`. Fixed-width inner loops auto-vectorize.
#[inline(always)]
fn microkernel(apack: &[f32], bpack: &[f32], kb: usize, acc: &mut [[f32; NR]; MR]) {
    for p in 0..kb {
        let av = &apack[p * MR..p * MR + MR];
        let bv = &bpack[p * NR..p * NR + NR];
        for r in 0..MR {
            let a = av[r];
            let row = &mut acc[r];
            for c in 0..NR {
                row[c] += a * bv[c];
            }
        }
    }
}

/// [`microkernel`] over `NC <= NR` columns of a `B` that need not be
/// packed: depth step `p` reads `b[p * ldb ..][..NC]` (`ldb = NR` for a
/// packed strip, the row length for a row-major matrix read in place) and
/// accumulates into the first `NC` columns of `acc`, in the same order.
///
/// [`gemm_blocked`] keeps its own packed-only instance: routing it through
/// this one (`NC = ldb = NR`) changed its code generation and slowed small
/// packed GEMMs (192×16×48 by about 15% on a 2-vCPU x86-64 VM).
#[inline(always)]
fn microkernel_strided<const NC: usize>(
    apack: &[f32],
    b: &[f32],
    ldb: usize,
    kb: usize,
    acc: &mut [[f32; NR]; MR],
) {
    for p in 0..kb {
        let av = &apack[p * MR..p * MR + MR];
        let bv = &b[p * ldb..p * ldb + NC];
        for r in 0..MR {
            let a = av[r];
            let row = &mut acc[r];
            for c in 0..NC {
                row[c] += a * bv[c];
            }
        }
    }
}

/// Shared blocked driver: `C = op_a(A) · op_b(B)` with `C: [m, n]`.
///
/// Packs all of `B` up front (every `KC` block, `NR` strips), then runs row
/// panels of `MC` output rows — in parallel when the product is large
/// enough. Each panel owns a disjoint row range of `out`, and accumulates
/// its tiles over `KC` blocks in ascending order, so the result does not
/// depend on how panels are scheduled.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    ad: &[f32],
    a_layout: Layout,
    bd: &[f32],
    b_layout: Layout,
    m: usize,
    k: usize,
    n: usize,
    epi: Epilogue<'_>,
    out: &mut [f32],
) {
    let n_strips = n.div_ceil(NR);
    // Packing buffers are fully overwritten by pack_a/pack_b before any
    // read, so recycled contents are fine.
    let apack_len = MC * KC.min(k);

    // Pack B once: block-major, then strip-major. Block b covers depths
    // p0 = b*KC .. p0+kb and occupies n_strips * kb * NR floats; every
    // block but the last is KC deep, so it starts at n_strips * p0 * NR and
    // all of B takes n_strips * k * NR.
    let mut bp = buffer::take_uninit(n_strips * k * NR);
    for p0 in (0..k).step_by(KC) {
        let kb = KC.min(k - p0);
        let block = &mut bp[n_strips * p0 * NR..n_strips * (p0 + kb) * NR];
        pack_b(bd, b_layout, k, n, p0, kb, block);
    }

    let panels = Panels {
        ad,
        a_layout,
        bp: &bp,
        m,
        k,
        n,
        epi,
    };
    if m * k * n >= PAR_MIN {
        engine::parallel_chunks_mut(out, MC * n, |panel, crows| {
            let mut apack = buffer::take_uninit(apack_len);
            gemm_panel(&panels, &mut apack, panel * MC, crows);
            buffer::give(apack);
        });
    } else {
        let mut apack = buffer::take_uninit(apack_len);
        for (panel, crows) in out.chunks_mut(MC * n).enumerate() {
            gemm_panel(&panels, &mut apack, panel * MC, crows);
        }
        buffer::give(apack);
    }
    buffer::give(bp);
}

/// What every row panel of one [`gemm_blocked`] call reads: `A`, all of `B`
/// packed (the depth block at `p0` starts at `n_strips * p0 * NR` in
/// `bp`), the product's shape and its epilogue.
struct Panels<'a> {
    ad: &'a [f32],
    a_layout: Layout,
    bp: &'a [f32],
    m: usize,
    k: usize,
    n: usize,
    epi: Epilogue<'a>,
}

crate::simd::dispatch! {
    /// Computes the `MC` output rows of `p` from `i0` into `crows` (`apack`
    /// is packing scratch).
    fn gemm_panel(p: &Panels<'_>, apack: &mut Vec<f32>, i0: usize, crows: &mut [f32]) {
        let (m, k, n) = (p.m, p.k, p.n);
        let n_strips = n.div_ceil(NR);
        let mb = MC.min(m - i0);
        let m_strips = mb.div_ceil(MR);
        for b in 0..k.div_ceil(KC) {
            let p0 = b * KC;
            let kb = KC.min(k - p0);
            apack.resize(m_strips * kb * MR, 0.0);
            pack_a(p.ad, p.a_layout, m, k, i0, mb, p0, kb, apack);
            let bblock = &p.bp[n_strips * p0 * NR..n_strips * (p0 + kb) * NR];
            for is in 0..m_strips {
                let astrip = &apack[is * kb * MR..(is + 1) * kb * MR];
                let rows = MR.min(mb - is * MR);
                for js in 0..n_strips {
                    let bstrip = &bblock[js * kb * NR..(js + 1) * kb * NR];
                    let mut acc = [[0.0f32; NR]; MR];
                    microkernel(astrip, bstrip, kb, &mut acc);
                    let j0 = js * NR;
                    let cols = NR.min(n - j0);
                    for r in 0..rows {
                        let crow =
                            &mut crows[(is * MR + r) * n + j0..(is * MR + r) * n + j0 + cols];
                        for (o, &v) in crow.iter_mut().zip(acc[r].iter()) {
                            *o += v;
                        }
                    }
                }
            }
        }
        // Epilogue while the panel rows are still cache-hot: every output
        // element has its final accumulated value at this point.
        p.epi.apply(crows, n);
    }
}

/// Records one GEMM call into the aggregated metrics, keyed by a
/// power-of-two shape bucket so the histogram set stays bounded. Callers
/// pass the `Instant` captured only when telemetry was enabled at entry.
fn record_gemm(m: usize, k: usize, n: usize, start: Option<std::time::Instant>) {
    if let Some(start) = start {
        let bucket = |d: usize| d.max(1).next_power_of_two();
        gmorph_telemetry::counter!("gemm.calls");
        gmorph_telemetry::hist!(
            &format!("gemm.us.{}x{}x{}", bucket(m), bucket(k), bucket(n)),
            start.elapsed().as_nanos() as f64 / 1e3
        );
    }
}

/// Whether an `m x k x n` product runs on [`gemm_blocked`] rather than the
/// [`naive`] loops: always from [`SMALL`] up, and below it from
/// [`BLOCKED_FROM`] when `k <= KC` (one depth block, so both kernels sum
/// in the same order).
fn blocked_pays(m: usize, k: usize, n: usize) -> bool {
    let macs = m * k * n;
    macs >= SMALL || (k <= KC && macs >= BLOCKED_FROM)
}

/// Shared entry: dispatches to the kernel [`blocked_pays`] picks, drawing
/// the output from the buffer pool and applying the fused epilogue (if
/// any) before the rows leave cache.
#[allow(clippy::too_many_arguments)]
fn gemm_dispatch(
    ad: &[f32],
    a_layout: Layout,
    bd: &[f32],
    b_layout: Layout,
    m: usize,
    k: usize,
    n: usize,
    epi: Epilogue<'_>,
) -> Vec<f32> {
    let mut out = buffer::take(m * n);
    if blocked_pays(m, k, n) {
        gemm_blocked(ad, a_layout, bd, b_layout, m, k, n, epi, &mut out);
    } else {
        match (a_layout, b_layout) {
            (Layout::Normal, Layout::Normal) => naive::matmul_into(ad, bd, m, k, n, &mut out),
            (Layout::Normal, Layout::Transposed) => {
                naive::matmul_nt_into(ad, bd, m, k, n, &mut out)
            }
            (Layout::Transposed, Layout::Normal) => {
                naive::matmul_tn_into(ad, bd, m, k, n, &mut out)
            }
            (Layout::Transposed, Layout::Transposed) => {
                unreachable!("no TT variant is exposed")
            }
        }
        epi.apply(&mut out, n);
    }
    out
}

fn check_bias(bias: Option<&Tensor>, n: usize, op: &'static str) -> Result<()> {
    if let Some(b) = bias {
        if b.shape().rank() != 1 || b.dims()[0] != n {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: format!("[{n}]"),
                rhs: b.shape().to_string(),
            });
        }
    }
    Ok(())
}

/// Computes `C = A · B` for `A: [m, k]`, `B: [k, n]`.
///
/// # Examples
///
/// ```
/// use gmorph_tensor::{Tensor, gemm::matmul};
///
/// let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
/// let b = Tensor::from_vec(&[2, 2], vec![5.0, 6.0, 7.0, 8.0]).unwrap();
/// let c = matmul(&a, &b).unwrap();
/// assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_bias_act(a, b, None, Activation::None)
}

/// Computes `act(A · B + bias)` with the bias-add and activation fused
/// into the output write loop.
///
/// Bit-identical to `matmul` followed by [`add_bias_rows`] and the
/// corresponding elementwise activation, but a single pass over `C`.
pub fn matmul_bias_act(
    a: &Tensor,
    b: &Tensor,
    bias: Option<&Tensor>,
    act: Activation,
) -> Result<Tensor> {
    let start = gmorph_telemetry::enabled().then(std::time::Instant::now);
    let (m, k) = check_rank2(a, "matmul lhs")?;
    let (kb, n) = check_rank2(b, "matmul rhs")?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape().to_string(),
            rhs: b.shape().to_string(),
        });
    }
    check_bias(bias, n, "matmul bias")?;
    let epi = Epilogue {
        bias: bias.map(|b| b.data()),
        act,
    };
    if !epi.is_noop() {
        gmorph_telemetry::counter!("kernel.fused_dispatch");
    }
    let out = gemm_dispatch(
        a.data(),
        Layout::Normal,
        b.data(),
        Layout::Normal,
        m,
        k,
        n,
        epi,
    );
    record_gemm(m, k, n, start);
    Tensor::from_vec(&[m, n], out)
}

/// Computes `C = A · Bᵀ` for `A: [m, k]`, `B: [n, k]`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_nt_bias_act(a, b, None, Activation::None)
}

/// Computes `act(A · Bᵀ + bias)` with the epilogue fused into the output
/// write loop — the shape of a linear layer's inference forward.
pub fn matmul_nt_bias_act(
    a: &Tensor,
    b: &Tensor,
    bias: Option<&Tensor>,
    act: Activation,
) -> Result<Tensor> {
    let start = gmorph_telemetry::enabled().then(std::time::Instant::now);
    let (m, k) = check_rank2(a, "matmul_nt lhs")?;
    let (n, kb) = check_rank2(b, "matmul_nt rhs")?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_nt",
            lhs: a.shape().to_string(),
            rhs: b.shape().to_string(),
        });
    }
    check_bias(bias, n, "matmul_nt bias")?;
    let epi = Epilogue {
        bias: bias.map(|b| b.data()),
        act,
    };
    if !epi.is_noop() {
        gmorph_telemetry::counter!("kernel.fused_dispatch");
    }
    let out = gemm_dispatch(
        a.data(),
        Layout::Normal,
        b.data(),
        Layout::Transposed,
        m,
        k,
        n,
        epi,
    );
    record_gemm(m, k, n, start);
    Tensor::from_vec(&[m, n], out)
}

/// Computes `C = Aᵀ · B` for `A: [k, m]`, `B: [k, n]`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let start = gmorph_telemetry::enabled().then(std::time::Instant::now);
    let (k, m) = check_rank2(a, "matmul_tn lhs")?;
    let (kb, n) = check_rank2(b, "matmul_tn rhs")?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_tn",
            lhs: a.shape().to_string(),
            rhs: b.shape().to_string(),
        });
    }
    let out = gemm_dispatch(
        a.data(),
        Layout::Transposed,
        b.data(),
        Layout::Normal,
        m,
        k,
        n,
        Epilogue::default(),
    );
    record_gemm(m, k, n, start);
    Tensor::from_vec(&[m, n], out)
}

/// Depth block that reproduces [`gemm_dispatch`]'s summation order for one
/// `m x k x n` product: the naive kernels sum all of `k` in one chain, the
/// blocked kernel sums `KC`-deep blocks and adds the block sums in
/// ascending order.
fn depth_block(m: usize, k: usize, n: usize) -> usize {
    if blocked_pays(m, k, n) {
        KC
    } else {
        k.max(1)
    }
}

/// Packs all of logical `A` (`[m, k]`) for depth block `kc`: block-major
/// (the block at depth `p0` starts at `p0 * m_strips * MR`), then the
/// `MR`-row strips of [`pack_a`]. `buf` holds `m_strips * MR * k` floats.
#[inline(always)]
fn pack_a_blocks(ad: &[f32], layout: Layout, m: usize, k: usize, kc: usize, buf: &mut [f32]) {
    let width = m.div_ceil(MR) * MR;
    for p0 in (0..k).step_by(kc) {
        let kb = kc.min(k - p0);
        let block = &mut buf[p0 * width..(p0 + kb) * width];
        pack_a(ad, layout, m, k, 0, m, p0, kb, block);
    }
}

/// Strip `is` of the depth block at `p0` in a [`pack_a_blocks`] buffer (or
/// strip `js` of a [`pack_b`] buffer laid out the same way, with `w = NR`).
#[inline(always)]
fn block_strip(buf: &[f32], strips: usize, w: usize, is: usize, p0: usize, kb: usize) -> &[f32] {
    let base = p0 * strips * w + is * kb * w;
    &buf[base..base + kb * w]
}

/// Sums one `MR x NC` output tile over every depth block of `kc`: the block
/// at `p0` is accumulated from zero by the microkernel, and block sums are
/// added to a zero tile in ascending order. For every element that is the
/// scalar sequence of [`gemm_blocked`] (`kc = KC`) or of the [`naive`]
/// kernels (one block, `kc = k`). `operands(p0, kb)` returns the packed `A`
/// strip, `B` and `B`'s row stride for the block.
#[inline(always)]
fn tile_sum<'a, const NC: usize>(
    k: usize,
    kc: usize,
    operands: impl Fn(usize, usize) -> (&'a [f32], &'a [f32], usize),
) -> [[f32; NR]; MR] {
    let mut sum = [[0.0f32; NR]; MR];
    for p0 in (0..k).step_by(kc) {
        let kb = kc.min(k - p0);
        let (a, b, ldb) = operands(p0, kb);
        let mut acc = [[0.0f32; NR]; MR];
        microkernel_strided::<NC>(a, b, ldb, kb, &mut acc);
        for (srow, arow) in sum.iter_mut().zip(acc.iter()) {
            for c in 0..NC {
                srow[c] += arow[c];
            }
        }
    }
    sum
}

/// A left operand packed once for many products against right operands read
/// in place: the batched lowering of convolution, where every sample's GEMM
/// shares the weight matrix.
///
/// [`PackedLhs::matmul_into`] computes `C = op(A) · B` for one row-major
/// `[k, n]` matrix `B` without packing it, summing every element in the
/// order [`matmul`] / [`matmul_tn`] use for the same `m x k x n` product, so
/// each result is bit-identical to a per-sample call of those.
pub(crate) struct PackedLhs {
    buf: Vec<f32>,
    m: usize,
    k: usize,
    n: usize,
    kc: usize,
    start: Option<std::time::Instant>,
}

impl PackedLhs {
    /// Packs `A` (`[m, k]`), or with `transposed` the transpose of `a`
    /// stored `[k, m]`, for products with `[k, n]` right operands.
    pub fn new(a: &[f32], transposed: bool, m: usize, k: usize, n: usize) -> Self {
        let start = gmorph_telemetry::enabled().then(std::time::Instant::now);
        debug_assert_eq!(a.len(), m * k);
        let layout = if transposed {
            Layout::Transposed
        } else {
            Layout::Normal
        };
        let kc = depth_block(m, k, n);
        // Fully overwritten by the packing below.
        let mut buf = buffer::take_uninit(m.div_ceil(MR) * MR * k);
        pack_a_blocks(a, layout, m, k, kc, &mut buf);
        PackedLhs {
            buf,
            m,
            k,
            n,
            kc,
            start,
        }
    }

    /// `c = op(A) · b` for a row-major `[k, n]` `b`, read where it lies;
    /// every element of the `[m, n]` `c` is overwritten. Inlined into the
    /// caller, whose per-sample body picks the [`crate::simd`] instance.
    #[inline(always)]
    pub(crate) fn matmul_into(&self, b: &[f32], c: &mut [f32]) {
        assert!(b.len() == self.k * self.n && c.len() == self.m * self.n);
        // Full NR-wide tiles, then a 4-wide and single-column tail: columns
        // are independent, so the split does not change any sum.
        let mut j0 = 0;
        while j0 < self.n {
            j0 += match self.n - j0 {
                left if left >= NR => self.columns::<NR>(b, j0, c),
                left if left >= 4 => self.columns::<4>(b, j0, c),
                _ => self.columns::<1>(b, j0, c),
            };
        }
    }

    /// Computes output columns `j0 .. j0 + NC` for every row; returns `NC`.
    #[inline(always)]
    fn columns<const NC: usize>(&self, b: &[f32], j0: usize, c: &mut [f32]) -> usize {
        let (m, n) = (self.m, self.n);
        let m_strips = m.div_ceil(MR);
        for is in 0..m_strips {
            let sum = tile_sum::<NC>(self.k, self.kc, |p0, kb| {
                (
                    block_strip(&self.buf, m_strips, MR, is, p0, kb),
                    &b[p0 * n + j0..],
                    n,
                )
            });
            for (r, srow) in sum.iter().enumerate().take(MR.min(m - is * MR)) {
                let i = is * MR + r;
                c[i * n + j0..i * n + j0 + NC].copy_from_slice(&srow[..NC]);
            }
        }
        NC
    }

    /// Returns the packed buffer to the pool and records the batch as one
    /// GEMM call of `m x k x (products * n)` (its time spans everything
    /// since [`PackedLhs::new`]).
    pub(crate) fn finish(self, products: usize) {
        buffer::give(self.buf);
        record_gemm(self.m, self.k, products * self.n, self.start);
    }
}

/// `C = Σ_s A_s · B_sᵀ` over `batch` samples, with `A_s: [m, k]` and
/// `B_s: [n, k]` stored back to back in `a` and `b`: the weight gradient of
/// a batched convolution.
///
/// Each sample's product is summed in the order [`matmul_nt`] uses for one
/// `m x k x n` product, then added into `C` (starting from zero) in
/// ascending sample order: bit-identical to accumulating per-sample
/// `matmul_nt` results, at any thread count. Each sample's `A` is packed
/// once; column strips of `C` run across the pool, each packing its own
/// columns of `B_s` and walking the samples in order.
pub(crate) fn matmul_nt_batch_sum(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    batch: usize,
) -> Result<Tensor> {
    let start = gmorph_telemetry::enabled().then(std::time::Instant::now);
    assert!(a.len() == batch * m * k && b.len() == batch * n * k);
    let kc = depth_block(m, k, n);
    let m_strips = m.div_ceil(MR);
    let a_len = m_strips * MR * k;
    let n_strips = n.div_ceil(NR);
    let tiles_len = m_strips * MR * NR;

    // Fully overwritten by the packing below.
    let mut apack = buffer::take_uninit(batch * a_len);
    if a_len > 0 {
        engine::parallel_chunks_mut(&mut apack, a_len, |s, dst| {
            let a_s = &a[s * m * k..(s + 1) * m * k];
            pack_a_blocks(a_s, Layout::Normal, m, k, kc, dst);
        });
    }
    // Strip-major result: strip `js` holds its `m_strips` tiles of `MR x NR`.
    let mut strips = buffer::take(n_strips * tiles_len);
    if tiles_len > 0 {
        let operands = BatchStrip {
            apack: &apack,
            b,
            batch,
            m,
            k,
            n,
            kc,
        };
        engine::parallel_chunks_mut(&mut strips, tiles_len, |js, tiles| {
            let mut bpack = buffer::take_uninit(NR * k);
            batch_sum_strip(&operands, js, tiles, &mut bpack);
            buffer::give(bpack);
        });
    }
    buffer::give(apack);

    // Every element is written from its tile below.
    let mut c = buffer::take_uninit(m * n);
    for (js, tiles) in strips.chunks_exact(tiles_len.max(1)).enumerate() {
        let j0 = js * NR;
        let cols = NR.min(n - j0);
        for i in 0..m {
            let row = &tiles[(i / MR) * MR * NR + (i % MR) * NR..][..cols];
            c[i * n + j0..i * n + j0 + cols].copy_from_slice(row);
        }
    }
    buffer::give(strips);
    record_gemm(m, batch * k, n, start);
    Tensor::from_vec(&[m, n], c)
}

/// The operands of one column strip of [`matmul_nt_batch_sum`]: every
/// sample's packed `A` (`apack`, sample after sample) and the unpacked
/// `B_s` stored back to back in `b`.
struct BatchStrip<'a> {
    apack: &'a [f32],
    b: &'a [f32],
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    kc: usize,
}

crate::simd::dispatch! {
    /// Accumulates strip `js` of `C` (its `MR x NR` tiles, `tiles`) over
    /// the samples of `p` in ascending order; `bpack` is `NR * k` packing
    /// scratch.
    fn batch_sum_strip(p: &BatchStrip<'_>, js: usize, tiles: &mut [f32], bpack: &mut [f32]) {
        let (m, k, n, kc) = (p.m, p.k, p.n, p.kc);
        let m_strips = m.div_ceil(MR);
        let a_len = m_strips * MR * k;
        let j0 = js * NR;
        let cols = NR.min(n - j0);
        for s in 0..p.batch {
            let asamp = &p.apack[s * a_len..(s + 1) * a_len];
            let bs = &p.b[(s * n + j0) * k..(s * n + j0 + cols) * k];
            for p0 in (0..k).step_by(kc) {
                let kb = kc.min(k - p0);
                let block = &mut bpack[p0 * NR..(p0 + kb) * NR];
                pack_b(bs, Layout::Transposed, k, cols, p0, kb, block);
            }
            for (is, tile) in tiles.chunks_exact_mut(MR * NR).enumerate() {
                let sum = tile_sum::<NR>(k, kc, |p0, kb| {
                    (
                        block_strip(asamp, m_strips, MR, is, p0, kb),
                        block_strip(bpack, 1, NR, 0, p0, kb),
                        NR,
                    )
                });
                for (t, v) in tile.iter_mut().zip(sum.iter().flatten()) {
                    *t += v;
                }
            }
        }
    }
}

/// The seed project's single-threaded loop-order kernels.
///
/// Kept as the kernel of the products [`blocked_pays`] leaves to them (the
/// tiniest ones, where packing costs more than it saves), the benchmark
/// baseline for the blocked engine, and a structurally independent
/// reference for property tests.
/// Unlike the original seed these do **not** skip zero elements of `A`:
/// the branch broke IEEE semantics (`0 * inf`, `0 * nan`, signed zeros)
/// and defeated vectorization of the inner loop.
pub mod naive {
    use crate::tensor::Tensor;
    use crate::Result;

    /// `C += A · B` in `i-k-j` (axpy) order over raw row-major slices.
    pub(crate) fn matmul_into(
        ad: &[f32],
        bd: &[f32],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
    ) {
        for i in 0..m {
            let arow = &ad[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (p, &av) in arow.iter().enumerate() {
                let brow = &bd[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
    }

    /// `C += A · Bᵀ` as row-by-row dot products over raw slices.
    pub(crate) fn matmul_nt_into(
        ad: &[f32],
        bd: &[f32],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
    ) {
        for i in 0..m {
            let arow = &ad[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (j, o) in orow.iter_mut().enumerate() {
                let brow = &bd[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&x, &y) in arow.iter().zip(brow.iter()) {
                    acc += x * y;
                }
                *o += acc;
            }
        }
    }

    /// `C += Aᵀ · B` as rank-1 updates over raw slices.
    pub(crate) fn matmul_tn_into(
        ad: &[f32],
        bd: &[f32],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
    ) {
        for p in 0..k {
            let arow = &ad[p * m..(p + 1) * m];
            let brow = &bd[p * n..(p + 1) * n];
            for (i, &av) in arow.iter().enumerate() {
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
    }

    /// Single-threaded `C = A · B` (`A: [m, k]`, `B: [k, n]`).
    pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let (m, k) = super::check_rank2(a, "naive matmul lhs")?;
        let n = super::check_rank2(b, "naive matmul rhs")?.1;
        let mut out = vec![0.0f32; m * n];
        matmul_into(a.data(), b.data(), m, k, n, &mut out);
        Tensor::from_vec(&[m, n], out)
    }

    /// Single-threaded `C = A · Bᵀ` (`A: [m, k]`, `B: [n, k]`).
    pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let (m, k) = super::check_rank2(a, "naive matmul_nt lhs")?;
        let n = super::check_rank2(b, "naive matmul_nt rhs")?.0;
        let mut out = vec![0.0f32; m * n];
        matmul_nt_into(a.data(), b.data(), m, k, n, &mut out);
        Tensor::from_vec(&[m, n], out)
    }

    /// Single-threaded `C = Aᵀ · B` (`A: [k, m]`, `B: [k, n]`).
    pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let (k, m) = super::check_rank2(a, "naive matmul_tn lhs")?;
        let n = super::check_rank2(b, "naive matmul_tn rhs")?.1;
        let mut out = vec![0.0f32; m * n];
        matmul_tn_into(a.data(), b.data(), m, k, n, &mut out);
        Tensor::from_vec(&[m, n], out)
    }
}

/// Adds a `[n]` bias row-wise into a `[m, n]` matrix in place.
pub fn add_bias_rows(a: &mut Tensor, bias: &Tensor) -> Result<()> {
    let (m, n) = check_rank2(a, "add_bias_rows")?;
    if bias.shape().rank() != 1 || bias.dims()[0] != n {
        return Err(TensorError::ShapeMismatch {
            op: "add_bias_rows",
            lhs: a.shape().to_string(),
            rhs: bias.shape().to_string(),
        });
    }
    let bd = bias.data().to_vec();
    let ad = a.data_mut();
    for i in 0..m {
        let row = &mut ad[i * n..(i + 1) * n];
        for (r, &b) in row.iter_mut().zip(bd.iter()) {
            *r += b;
        }
    }
    Ok(())
}

/// Sums a `[m, n]` matrix over rows, producing a `[n]` vector.
pub fn sum_rows(a: &Tensor) -> Result<Tensor> {
    let (m, n) = check_rank2(a, "sum_rows")?;
    let ad = a.data();
    let mut out = vec![0.0f32; n];
    for i in 0..m {
        let row = &ad[i * n..(i + 1) * n];
        for (o, &v) in out.iter_mut().zip(row.iter()) {
            *o += v;
        }
    }
    Tensor::from_vec(&[n], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use proptest::prelude::*;

    /// Naive reference implementation used to validate the kernels.
    fn matmul_ref(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.data()[i * k + p] * b.data()[p * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        Tensor::from_vec(&[m, n], out).unwrap()
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    fn transpose(a: &Tensor) -> Result<Tensor> {
        let (m, n) = check_rank2(a, "transpose")?;
        let ad = a.data();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = ad[i * n + j];
            }
        }
        Tensor::from_vec(&[n, m], out)
    }

    #[test]
    fn matmul_identity() {
        let mut rng = Rng::new(0);
        let a = Tensor::randn(&[3, 3], 1.0, &mut rng);
        let mut id = Tensor::zeros(&[3, 3]);
        for i in 0..3 {
            id.data_mut()[i * 3 + i] = 1.0;
        }
        assert_close(&matmul(&a, &id).unwrap(), &a, 1e-6);
        assert_close(&matmul(&id, &a).unwrap(), &a, 1e-6);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matmul(&a, &b).is_err());
        let v = Tensor::zeros(&[3]);
        assert!(matmul(&a, &v).is_err());
    }

    #[test]
    fn nt_and_tn_match_explicit_transpose() {
        let mut rng = Rng::new(1);
        let a = Tensor::randn(&[4, 6], 1.0, &mut rng);
        let b = Tensor::randn(&[5, 6], 1.0, &mut rng);
        let c = Tensor::randn(&[4, 7], 1.0, &mut rng);
        assert_close(
            &matmul_nt(&a, &b).unwrap(),
            &matmul_ref(&a, &transpose(&b).unwrap()),
            1e-4,
        );
        assert_close(
            &matmul_tn(&a, &c).unwrap(),
            &matmul_ref(&transpose(&a).unwrap(), &c),
            1e-4,
        );
    }

    #[test]
    fn blocked_path_matches_reference_past_edges() {
        // Sizes straddling the MR/NR/MC/KC boundaries force the blocked
        // path (product >= SMALL) with ragged edge tiles in every dim.
        let mut rng = Rng::new(7);
        for (m, k, n) in [(65, 33, 17), (33, 70, 40), (130, 37, 9)] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            assert_close(&matmul(&a, &b).unwrap(), &matmul_ref(&a, &b), 1e-3);
        }
    }

    #[test]
    fn ieee_semantics_preserved() {
        // The seed kernels skipped a == 0.0 terms, which silently dropped
        // 0 * inf = nan and 0 * nan = nan. The rewrite must propagate them.
        let a = Tensor::from_vec(&[1, 2], vec![0.0, 1.0]).unwrap();
        let b = Tensor::from_vec(&[2, 1], vec![f32::INFINITY, 2.0]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert!(c.data()[0].is_nan(), "0 * inf must contribute nan");

        let bn = Tensor::from_vec(&[2, 1], vec![f32::NAN, 2.0]).unwrap();
        assert!(matmul(&a, &bn).unwrap().data()[0].is_nan());
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let mut rng = Rng::new(9);
        let a = Tensor::randn(&[130, 70], 1.0, &mut rng);
        let b = Tensor::randn(&[70, 90], 1.0, &mut rng);
        let single = crate::engine::with_thread_limit(1, || matmul(&a, &b).unwrap());
        let multi = crate::engine::with_thread_limit(4, || matmul(&a, &b).unwrap());
        assert_eq!(single.data(), multi.data(), "bit-identical across threads");
    }

    #[test]
    fn bias_and_sum_rows() {
        let mut a = Tensor::from_vec(&[2, 3], vec![1.0; 6]).unwrap();
        let bias = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]).unwrap();
        add_bias_rows(&mut a, &bias).unwrap();
        assert_eq!(a.data(), &[2.0, 3.0, 4.0, 2.0, 3.0, 4.0]);
        let s = sum_rows(&a).unwrap();
        assert_eq!(s.data(), &[4.0, 6.0, 8.0]);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng::new(2);
        let a = Tensor::randn(&[3, 5], 1.0, &mut rng);
        let tt = transpose(&transpose(&a).unwrap()).unwrap();
        assert_close(&a, &tt, 0.0);
    }

    /// `len` entries that make sums cancel exactly and carry `-0.0`: small
    /// dyadic values, whose products and partial sums are exact, so many
    /// output elements sum to a zero whose sign depends on the order.
    fn cancelling(len: usize, salt: usize) -> Vec<f32> {
        const VALUES: [f32; 8] = [1.0, -1.0, 0.5, -0.0, -0.5, 2.0, 0.0, -2.0];
        (0..len).map(|i| VALUES[(i * 5 + salt) % 8]).collect()
    }

    #[test]
    fn dispatch_matches_naive_bit_for_bit_across_the_kernel_switch() {
        let mut rng = Rng::new(21);
        let epilogues = [
            (false, Activation::None),
            (true, Activation::None),
            (true, Activation::Relu),
            (true, Activation::Gelu),
        ];
        // Products below SMALL on the (blocked, naive) side: the grid must
        // reach both sides of BLOCKED_FROM.
        let mut sides = [0usize; 2];
        for m in 1..=16 {
            for k in [1, 8, 12, 32, 48, 255, 256] {
                for n in [1, 2, 8, 12, 32, 48] {
                    let inputs = [
                        (cancelling(m * k, 0), cancelling(k * n, 3)),
                        (
                            Tensor::randn(&[m * k], 1.0, &mut rng).data().to_vec(),
                            Tensor::randn(&[k * n], 1.0, &mut rng).data().to_vec(),
                        ),
                    ];
                    let bias = Tensor::randn(&[n], 1.0, &mut rng);
                    let blocked = blocked_pays(m, k, n);
                    if m * k * n < SMALL {
                        sides[usize::from(!blocked)] += 1;
                    }
                    for (l, (la, lb)) in [
                        (Layout::Normal, Layout::Normal),
                        (Layout::Normal, Layout::Transposed),
                        (Layout::Transposed, Layout::Normal),
                    ]
                    .into_iter()
                    .enumerate()
                    {
                        for (ad, bd) in &inputs {
                            let a_dims = if la == Layout::Normal { [m, k] } else { [k, m] };
                            let b_dims = if lb == Layout::Normal { [k, n] } else { [n, k] };
                            let a = Tensor::from_vec(&a_dims, ad.clone()).unwrap();
                            let b = Tensor::from_vec(&b_dims, bd.clone()).unwrap();
                            let reference = match l {
                                0 => naive::matmul(&a, &b),
                                1 => naive::matmul_nt(&a, &b),
                                _ => naive::matmul_tn(&a, &b),
                            }
                            .unwrap();
                            for (with_bias, act) in epilogues {
                                if l == 2 && (with_bias || act != Activation::None) {
                                    continue; // matmul_tn has no epilogue
                                }
                                let bias = with_bias.then_some(&bias);
                                let got = match l {
                                    0 => matmul_bias_act(&a, &b, bias, act),
                                    1 => matmul_nt_bias_act(&a, &b, bias, act),
                                    _ => matmul_tn(&a, &b),
                                }
                                .unwrap();
                                let mut want = reference.clone();
                                if let Some(bias) = bias {
                                    add_bias_rows(&mut want, bias).unwrap();
                                }
                                for v in want.data_mut() {
                                    *v = act.apply(*v);
                                }
                                let bits = |t: &Tensor| -> Vec<u32> {
                                    t.data().iter().map(|v| v.to_bits()).collect()
                                };
                                assert_eq!(
                                    bits(&got),
                                    bits(&want),
                                    "layout {l} {m}x{k}x{n} bias {with_bias} {act:?} \
                                     (blocked: {blocked})"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(sides[0] > 0 && sides[1] > 0, "{sides:?}");
    }

    #[test]
    fn depth_block_follows_the_kernel_choice() {
        // Below SMALL with k > KC the naive loop sums all of k in one
        // chain, as before BLOCKED_FROM, so a wrong depth block would
        // change the packed-A products' bits there; at SMALL and up they
        // sum KC-deep blocks.
        let mut rng = Rng::new(22);
        for (m, k, n) in [
            (1, 300, 2),
            (2, 600, 3),
            (12, 12, 12),
            (12, 32, 32),
            (4, 300, 8),
            (2, 600, 5),
            (8, 300, 16),
            (2, 256, 8),
        ] {
            let want = if blocked_pays(m, k, n) { KC } else { k };
            assert_eq!(depth_block(m, k, n), want, "{m}x{k}x{n}");
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let at = transpose(&a).unwrap();
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let bt = transpose(&b).unwrap();
            let bits = |d: &[f32]| -> Vec<u32> { d.iter().map(|v| v.to_bits()).collect() };
            for (lhs, transposed, want) in [
                (&a, false, matmul(&a, &b).unwrap()),
                (&at, true, matmul_tn(&at, &b).unwrap()),
            ] {
                let packed = PackedLhs::new(lhs.data(), transposed, m, k, n);
                let mut c = vec![0.0; m * n];
                packed.matmul_into(b.data(), &mut c);
                packed.finish(1);
                assert_eq!(
                    bits(&c),
                    bits(want.data()),
                    "{m}x{k}x{n} transposed {transposed}"
                );
            }
            if m * k * n < SMALL && k > KC {
                let naive = naive::matmul(&a, &b).unwrap();
                let got = matmul(&a, &b).unwrap();
                assert_eq!(
                    bits(got.data()),
                    bits(naive.data()),
                    "{m}x{k}x{n}: one chain"
                );
            }
            let summed = matmul_nt_batch_sum(a.data(), bt.data(), m, k, n, 1).unwrap();
            let want = matmul_nt(&a, &bt).unwrap();
            assert_eq!(bits(summed.data()), bits(want.data()), "{m}x{k}x{n} NT");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn matmul_matches_reference(
            m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..1000
        ) {
            let mut rng = Rng::new(seed);
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let fast = matmul(&a, &b).unwrap();
            let slow = matmul_ref(&a, &b);
            for (x, y) in fast.data().iter().zip(slow.data().iter()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        #[test]
        fn matmul_is_linear_in_lhs(seed in 0u64..1000) {
            let mut rng = Rng::new(seed);
            let a1 = Tensor::randn(&[3, 4], 1.0, &mut rng);
            let a2 = Tensor::randn(&[3, 4], 1.0, &mut rng);
            let b = Tensor::randn(&[4, 2], 1.0, &mut rng);
            let lhs = matmul(&a1.add(&a2).unwrap(), &b).unwrap();
            let rhs = matmul(&a1, &b).unwrap().add(&matmul(&a2, &b).unwrap()).unwrap();
            for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }
    }
}
