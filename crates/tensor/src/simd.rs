//! Runtime dispatch between two compilations of the same kernel body.
//!
//! The workspace builds for baseline x86-64, where f32 vectors are 4 wide
//! (SSE2). `dispatch!` compiles a kernel body a second time inside a
//! function with `#[target_feature(enable = "avx2")]`, where LLVM
//! auto-vectorizes the same fixed-width loops 8 wide, and picks an
//! instance at run time from one cached CPU-feature check. A non-x86 build
//! compiles only the portable instance.
//!
//! Both instances compute the same bits:
//!
//! - only `avx2` is enabled, never `fma`, and Rust never contracts a
//!   multiply and an add into a fused multiply-add, so every `a * b + c`
//!   rounds twice in both instances;
//! - vectorization only runs independent output elements side by side: each
//!   element keeps its summation order, because LLVM does not reassociate
//!   floating-point adds.
//!
//! Two rules keep a body inside the AVX2 instance, and `dispatch!`
//! follows both:
//!
//! - **Closures do not inherit target features.** A closure that the worker
//!   pool calls is compiled on its own, for the baseline target, even when
//!   it is created inside an AVX2 function. So dispatch happens inside each
//!   per-sample, per-strip or per-panel chunk, not around the
//!   `parallel_chunks_mut` call.
//! - **The body must be inlined into the twin.** A function called from
//!   both instances is compiled once, for the baseline target, unless it is
//!   inlined into each; a closure handed to a generic AVX2 trampoline was
//!   not reliably inlined either (codegen-unit boundaries and size limits).
//!   So the body is a nested `#[inline(always)]` fn, and every kernel
//!   function it calls is `#[inline(always)]` too.

/// Defines a kernel function whose body is compiled twice: as portable
/// code, and inside a `#[target_feature(enable = "avx2")]` twin that it
/// calls when the CPU has AVX2. Parameters must be plain `name: Type`
/// pairs; the function may not be generic or take `self`.
macro_rules! dispatch {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    ) => {
        $(#[$attr])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[allow(clippy::too_many_arguments)]
            #[inline(always)]
            fn body($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            {
                #[allow(clippy::too_many_arguments)]
                #[target_feature(enable = "avx2")]
                fn avx2($($arg: $ty),*) $(-> $ret)? {
                    body($($arg),*)
                }
                if $crate::simd::avx2() {
                    // SAFETY: `simd::avx2()` checked that the CPU has AVX2.
                    return unsafe { avx2($($arg),*) };
                }
            }
            body($($arg),*)
        }
    };
}
pub(crate) use dispatch;

/// True when kernels run their AVX2 instance. The standard library caches
/// the CPUID probe, so this is one relaxed load.
#[inline]
pub(crate) fn avx2() -> bool {
    #[cfg(test)]
    if tests::PORTABLE.with(|p| p.get()) {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The kernel instance this process runs: `"avx2"` or `"portable"`.
pub fn instance() -> &'static str {
    if avx2() {
        "avx2"
    } else {
        "portable"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{conv2d_backward_geom, conv2d_forward_act, conv2d_infer_act, Conv2dGeom};
    use crate::engine;
    use crate::gemm;
    use crate::grid::{GOLDEN_BATCHES, GOLDEN_GEOMS, SIZES};
    use crate::ops::{self, Activation};
    use crate::rng::Rng;
    use crate::Tensor;
    use std::cell::Cell;

    thread_local! {
        /// Forces the portable instance on this thread ([`portable`]).
        pub(super) static PORTABLE: Cell<bool> = const { Cell::new(false) };
    }

    /// Runs `f` on the portable instance of every kernel body. Only this
    /// thread is affected, so `f` must keep kernels off the worker pool
    /// (`engine::with_thread_limit(1, ..)`).
    fn portable<R>(f: impl FnOnce() -> R) -> R {
        let prev = PORTABLE.with(|p| p.replace(true));
        let out = f();
        PORTABLE.with(|p| p.set(prev));
        out
    }

    /// The bit patterns of the tensors one run returns.
    type Bits = Vec<Vec<u32>>;

    /// The bit patterns `f` computes on the portable and on the AVX2
    /// instance, kernels on this thread; `None` when the CPU lacks AVX2.
    fn both(f: impl Fn() -> Vec<Tensor>) -> Option<(Bits, Bits)> {
        if !avx2() {
            return None;
        }
        let bits = |ts: Vec<Tensor>| -> Bits {
            ts.iter()
                .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        engine::with_thread_limit(1, || {
            let p = portable(|| {
                assert_eq!(instance(), "portable");
                bits(f())
            });
            assert_eq!(instance(), "avx2");
            Some((p, bits(f())))
        })
    }

    fn skipped() {
        eprintln!("skipped: this CPU has no AVX2, so only the portable instance exists");
    }

    #[test]
    fn conv_instances_are_bit_identical_over_the_golden_grid() {
        for &(c_in, c_out, side, k, s, p) in &GOLDEN_GEOMS {
            for &batch in &GOLDEN_BATCHES {
                let mut rng = Rng::new((c_in * 131 + c_out * 17 + side * 3 + batch) as u64);
                let geom = Conv2dGeom::new(k, s, p).unwrap();
                let x = Tensor::randn(&[batch, c_in, side, side], 1.0, &mut rng);
                let w = Tensor::randn(&[c_out, c_in, k, k], 0.5, &mut rng);
                let b = Tensor::randn(&[c_out], 0.1, &mut rng);
                let oh = geom.out_size(side).unwrap();
                let go = Tensor::randn(&[batch, c_out, oh, oh], 1.0, &mut rng);
                let run = || {
                    let fwd = conv2d_forward_act(&x, &w, Some(&b), geom, Activation::None).unwrap();
                    let g = conv2d_backward_geom(&go, &w, x.dims(), &fwd, geom).unwrap();
                    let relu = conv2d_infer_act(&x, &w, Some(&b), geom, Activation::Relu);
                    let gelu = conv2d_infer_act(&x, &w, None, geom, Activation::Gelu);
                    let (relu, gelu) = (relu.unwrap(), gelu.unwrap());
                    vec![
                        fwd.output,
                        g.grad_input,
                        g.grad_weight,
                        g.grad_bias,
                        relu,
                        gelu,
                    ]
                };
                let Some((portable, avx2)) = both(run) else {
                    return skipped();
                };
                let what = ["output", "dX", "dW", "db", "relu output", "gelu output"];
                for ((pb, ab), what) in portable.iter().zip(&avx2).zip(what) {
                    let case = (c_in, c_out, side, k, s, p);
                    assert!(pb == ab, "{what} differs: {case:?} n={batch}");
                }
            }
        }
    }

    #[test]
    fn gemm_instances_are_bit_identical_over_the_size_grid() {
        let mut rng = Rng::new(0x51D);
        for &m in &SIZES {
            for &k in &SIZES {
                for &n in &SIZES {
                    let a = Tensor::randn(&[m, k], 1.0, &mut rng);
                    let at = Tensor::randn(&[k, m], 1.0, &mut rng);
                    let b = Tensor::randn(&[k, n], 1.0, &mut rng);
                    let bt = Tensor::randn(&[n, k], 1.0, &mut rng);
                    let bias = Tensor::randn(&[n], 0.5, &mut rng);
                    let run = || {
                        let mut out = vec![
                            gemm::matmul(&a, &b).unwrap(),
                            gemm::matmul_nt(&a, &bt).unwrap(),
                            gemm::matmul_tn(&at, &b).unwrap(),
                        ];
                        for act in [Activation::Relu, Activation::Gelu] {
                            out.push(gemm::matmul_bias_act(&a, &b, Some(&bias), act).unwrap());
                            out.push(gemm::matmul_nt_bias_act(&a, &bt, Some(&bias), act).unwrap());
                        }
                        out
                    };
                    let Some((portable, avx2)) = both(run) else {
                        return skipped();
                    };
                    for (i, (pb, ab)) in portable.iter().zip(&avx2).enumerate() {
                        assert!(pb == ab, "product {i} differs: {m}x{k}x{n}");
                    }
                }
            }
        }
    }

    #[test]
    fn gelu_instances_are_bit_identical() {
        // Normal inputs, a length that leaves a vector tail, and the edge
        // values where the exp selects pick ∞ or 0.
        let mut rng = Rng::new(0x6E1);
        let mut xs = Tensor::randn(&[4001], 4.0, &mut rng).data().to_vec();
        let inf = f32::INFINITY;
        xs.extend([0.0, -0.0, 1e30, -1e30, 90.0, -90.0, inf, -inf]);
        let x = Tensor::from_vec(&[xs.len()], xs).unwrap();
        let g = Tensor::randn(x.dims(), 1.0, &mut rng);
        let run = || vec![ops::gelu_forward(&x), ops::gelu_backward(&g, &x).unwrap()];
        let Some((portable, avx2)) = both(run) else {
            return skipped();
        };
        assert!(portable[0] == avx2[0], "gelu_forward differs");
        assert!(portable[1] == avx2[1], "gelu_backward differs");
    }
}
