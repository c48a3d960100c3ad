//! Size-bucketed buffer pool for `f32` scratch and tensor storage.
//!
//! Fine-tuning a candidate runs thousands of forward/backward passes, and
//! every one of them used to allocate fresh `Vec<f32>`s for GEMM packing
//! panels, im2col columns, and layer outputs. The pool below recycles
//! those buffers: [`take`]/[`take_uninit`] check a size-bucketed free list
//! before falling back to the allocator, and [`give`] (or
//! [`recycle`] for tensors) returns storage for reuse. In steady state a
//! fine-tuning epoch checks out the same few dozen buffers every
//! iteration and performs near-zero heap allocation.
//!
//! Buckets are powers of two: bucket `i` holds vectors whose *capacity*
//! lies in `[2^i, 2^(i+1))`. A request of `len` looks in bucket
//! `ceil(log2 len)`, whose entries are guaranteed to have
//! `capacity >= len`. Each bucket is its own mutex-guarded stack, capped
//! at [`MAX_PER_BUCKET`] entries and [`MAX_POOL_BYTES`] pooled bytes
//! overall, so a burst of unusually-shaped candidates cannot pin
//! unbounded memory.
//!
//! The pool is on by default and disabled with `GMORPH_POOL=0` (tests can
//! override programmatically via [`set_enabled`]). While disabled, every
//! call degrades to the plain allocator and `give` simply drops — the
//! pre-pool behaviour, preserved bit-for-bit.
//!
//! Telemetry: `pool.hit` / `pool.miss` counters and a
//! `pool.recycled_bytes` histogram feed the end-of-run metrics table, so
//! the hit rate of a run is visible with `--trace`.

use crate::tensor::Tensor;
use std::sync::atomic::{AtomicI8, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of size buckets (enough for capacities up to 2^47 floats).
const NBUCKETS: usize = 48;
/// Maximum vectors retained per bucket.
const MAX_PER_BUCKET: usize = 32;
/// Maximum total bytes retained across all buckets (256 MiB).
const MAX_POOL_BYTES: usize = 256 << 20;
/// Buffers below this length are not worth pooling (allocator fast path
/// beats a mutex round-trip).
const MIN_POOL_LEN: usize = 256;

static BUCKETS: [Mutex<Vec<Vec<f32>>>; NBUCKETS] = [const { Mutex::new(Vec::new()) }; NBUCKETS];
static POOLED_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Tri-state enable override: -1 unset (consult env), 0 off, 1 on.
static ENABLED: AtomicI8 = AtomicI8::new(-1);

fn env_enabled() -> bool {
    match std::env::var("GMORPH_POOL") {
        Ok(v) => !matches!(v.trim(), "0" | "off" | "false" | ""),
        Err(_) => true,
    }
}

/// Whether the pool is active. `GMORPH_POOL=0` disables it; the result is
/// cached after the first call.
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        -1 => {
            let on = env_enabled();
            // Racing initializers read the same env, so last-write-wins
            // stores the same value.
            ENABLED.store(on as i8, Ordering::Relaxed);
            on
        }
        0 => false,
        _ => true,
    }
}

/// Programmatic override of the `GMORPH_POOL` toggle (`None` re-reads the
/// environment on next use). Intended for tests and benchmarks.
pub fn set_enabled(on: Option<bool>) {
    ENABLED.store(on.map(|b| b as i8).unwrap_or(-1), Ordering::Relaxed);
    if on != Some(true) {
        clear();
    }
}

/// Drops every pooled buffer.
pub fn clear() {
    for b in &BUCKETS {
        b.lock().unwrap_or_else(|p| p.into_inner()).clear();
    }
    POOLED_BYTES.store(0, Ordering::Relaxed);
}

/// Bucket that can *serve* a request of `len`: every vector stored there
/// has capacity `>= len`.
fn take_bucket(len: usize) -> usize {
    (usize::BITS - (len.max(1) - 1).leading_zeros()) as usize
}

/// Bucket a returned vector of capacity `cap` belongs in: the largest `i`
/// with `2^i <= cap`.
fn give_bucket(cap: usize) -> usize {
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

fn checkout(len: usize) -> Option<Vec<f32>> {
    let bi = take_bucket(len);
    if bi >= NBUCKETS {
        return None;
    }
    let mut bucket = BUCKETS[bi].lock().unwrap_or_else(|p| p.into_inner());
    let buf = bucket.pop()?;
    debug_assert!(buf.capacity() >= len);
    POOLED_BYTES.fetch_sub(buf.capacity() * 4, Ordering::Relaxed);
    Some(buf)
}

/// A new zero-filled buffer for a pool miss. Its capacity is rounded up to
/// a power of two, so once given back it lands in the bucket that serves
/// the next request of the same length; a capacity of exactly `len` would
/// land one bucket lower, where such requests never look, and the pool
/// would fill with buffers that only smaller requests can use. Only the
/// first `len` elements are touched.
fn fresh(len: usize) -> Vec<f32> {
    let mut buf = Vec::with_capacity(len.next_power_of_two());
    buf.resize(len, 0.0);
    buf
}

/// Checks out a zero-filled buffer of exactly `len` elements.
///
/// Use for accumulation targets (GEMM output, gradient sums) that assume
/// zero-initialized storage.
pub(crate) fn take(len: usize) -> Vec<f32> {
    if !enabled() || len < MIN_POOL_LEN {
        return vec![0.0; len];
    }
    match checkout(len) {
        Some(mut buf) => {
            gmorph_telemetry::counter!("pool.hit");
            gmorph_telemetry::hist!("pool.recycled_bytes", (len * 4) as f64);
            buf.clear();
            buf.resize(len, 0.0);
            buf
        }
        None => {
            gmorph_telemetry::counter!("pool.miss");
            fresh(len)
        }
    }
}

/// Checks out a buffer of exactly `len` elements with *unspecified*
/// contents (recycled data is not cleared).
///
/// Only for callers that overwrite every element before reading — packing
/// buffers and im2col scratch qualify.
pub(crate) fn take_uninit(len: usize) -> Vec<f32> {
    if !enabled() || len < MIN_POOL_LEN {
        return vec![0.0; len];
    }
    match checkout(len) {
        Some(mut buf) => {
            gmorph_telemetry::counter!("pool.hit");
            gmorph_telemetry::hist!("pool.recycled_bytes", (len * 4) as f64);
            // Adjust the length without touching contents below it.
            if buf.len() < len {
                buf.resize(len, 0.0);
            } else {
                buf.truncate(len);
            }
            buf
        }
        None => {
            gmorph_telemetry::counter!("pool.miss");
            fresh(len)
        }
    }
}

/// Returns a buffer to the pool for reuse. Drops it instead when the pool
/// is disabled, the buffer is tiny, or the bucket/byte caps are reached.
pub(crate) fn give(buf: Vec<f32>) {
    if !enabled() {
        return;
    }
    let cap = buf.capacity();
    if cap < MIN_POOL_LEN {
        return;
    }
    let bi = give_bucket(cap);
    if bi >= NBUCKETS {
        return;
    }
    if POOLED_BYTES.load(Ordering::Relaxed) + cap * 4 > MAX_POOL_BYTES {
        return;
    }
    let mut bucket = BUCKETS[bi].lock().unwrap_or_else(|p| p.into_inner());
    if bucket.len() >= MAX_PER_BUCKET {
        return;
    }
    POOLED_BYTES.fetch_add(cap * 4, Ordering::Relaxed);
    bucket.push(buf);
}

/// Recycles a tensor's storage into the pool.
///
/// The hot-loop pattern: a layer replacing last iteration's cached
/// activations recycles the old tensors, and the next forward's [`take`]
/// finds them instantly.
pub fn recycle(t: Tensor) {
    give(t.into_data());
}

/// Bytes currently held in the pool's free lists.
pub fn pooled_bytes() -> usize {
    POOLED_BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The pool is process-global; tests that depend on exclusive pool
    // contents serialize on this lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn take_returns_zeroed_buffer_of_exact_len() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(Some(true));
        let mut b = take(1000);
        assert_eq!(b.len(), 1000);
        assert!(b.iter().all(|&v| v == 0.0));
        b.iter_mut().for_each(|v| *v = 7.0);
        give(b);
        // The recycled buffer must come back zeroed.
        let b2 = take(1000);
        assert_eq!(b2.len(), 1000);
        assert!(b2.iter().all(|&v| v == 0.0));
        set_enabled(None);
        clear();
    }

    #[test]
    fn take_uninit_reuses_capacity_without_clearing() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(Some(true));
        clear();
        let mut b = take(512);
        let cap = b.capacity();
        b.iter_mut().for_each(|v| *v = 3.0);
        give(b);
        let b2 = take_uninit(512);
        assert_eq!(b2.len(), 512);
        assert_eq!(b2.capacity(), cap, "same buffer came back");
        set_enabled(None);
        clear();
    }

    #[test]
    fn smaller_requests_reuse_larger_buffers() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(Some(true));
        clear();
        give(Vec::with_capacity(2048));
        let b = take(1500); // bucket ceil(log2 1500) = 11 -> cap 2048 entry
        assert_eq!(b.len(), 1500);
        assert!(b.capacity() >= 2048);
        set_enabled(None);
        clear();
    }

    #[test]
    fn disabled_pool_allocates_and_drops() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(Some(false));
        let b = take(4096);
        assert_eq!(b.len(), 4096);
        give(b);
        assert_eq!(pooled_bytes(), 0, "disabled pool retains nothing");
        set_enabled(None);
        clear();
    }

    #[test]
    fn byte_accounting_tracks_checkin_checkout() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(Some(true));
        clear();
        let b = take(1024);
        let cap = b.capacity();
        give(b);
        assert_eq!(pooled_bytes(), cap * 4);
        let _b = take(1024);
        assert_eq!(pooled_bytes(), 0);
        set_enabled(None);
        clear();
    }

    #[test]
    fn recycle_pools_tensor_storage() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(Some(true));
        clear();
        let t = Tensor::zeros(&[32, 32]);
        recycle(t);
        assert!(pooled_bytes() >= 32 * 32 * 4);
        set_enabled(None);
        clear();
    }
}
