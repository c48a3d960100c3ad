//! The shape grids of the kernel parity tests, shared by
//! `tests/kernel_parity.rs` and the in-crate test that compares the
//! portable and AVX2 kernel instances (`src/simd.rs`).

/// GEMM sizes: every `m, k, n` drawn from these covers sub-microkernel
/// edges, one-block and multi-block cases.
pub const SIZES: [usize; 5] = [1, 3, 17, 64, 130];

/// One conv geometry: `(c_in, c_out, side, kernel, stride, padding)`.
pub type ConvCase = (usize, usize, usize, usize, usize, usize);

/// Every conv geometry the zoo builds at mini scale (base width 4, 16×16
/// inputs, ViT patch 4).
pub const GOLDEN_GEOMS: [ConvCase; 17] = [
    // VGG 3×3 s1 p1, sides 16 down to 2.
    (3, 4, 16, 3, 1, 1),
    (4, 4, 16, 3, 1, 1),
    (4, 8, 8, 3, 1, 1),
    (8, 8, 8, 3, 1, 1),
    (8, 16, 4, 3, 1, 1),
    (16, 16, 4, 3, 1, 1),
    (16, 16, 2, 3, 1, 1),
    // ResNet stride-2 3×3 convs.
    (4, 8, 16, 3, 2, 1),
    (8, 16, 8, 3, 2, 1),
    (16, 32, 4, 3, 2, 1),
    // ResNet 1×1 stride-2 downsample projections.
    (4, 8, 16, 1, 2, 0),
    (8, 16, 8, 1, 2, 0),
    (16, 32, 4, 1, 2, 0),
    // ResNet stage-4 3×3 conv: K = 32·9 = 288 crosses the GEMM depth block.
    (32, 32, 2, 3, 1, 1),
    // Rescale 1×1 channel projection.
    (4, 16, 8, 1, 1, 0),
    // ViT patch embedding (k = s = patch, p = 0), ViT-Base and ViT-Large.
    (3, 32, 16, 4, 4, 0),
    (3, 48, 16, 4, 4, 0),
];

/// Batch sizes of the golden grid: single sample, odd, and the fine-tune
/// batch.
pub const GOLDEN_BATCHES: [usize; 3] = [1, 3, 64];
