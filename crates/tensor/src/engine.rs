//! The kernel execution engine: a process-wide persistent worker pool.
//!
//! Every hot kernel in this crate (GEMM, convolution, pooling, large
//! elementwise ops) dispatches its outer loop through this pool instead of
//! spawning threads per call. Design constraints, in order:
//!
//! 1. **Determinism.** Results must be bit-identical regardless of thread
//!    count. Work is therefore decomposed into *chunks whose boundaries
//!    depend only on the problem shape*, each output element is written by
//!    exactly one chunk, and the floating-point reduction order inside a
//!    chunk is fixed. Threads only change *which worker* runs a chunk,
//!    never what the chunk computes.
//! 2. **No oversubscription.** The pool is process-wide and lazily grown up
//!    to the configured thread count. Work dispatched from *inside* a pool
//!    worker (e.g. a convolution whose per-sample GEMM would itself
//!    parallelize, or a search candidate evaluated on the pool) runs inline
//!    on that worker, so nesting composes without multiplying threads.
//! 3. **No deadlock.** The submitting thread participates in its own job:
//!    even if every worker is busy elsewhere, the submitter finishes the
//!    job alone and returns.
//!
//! The thread count comes from the `GMORPH_THREADS` environment variable
//! (falling back to the machine's available parallelism), can be overridden
//! globally with [`set_num_threads`], and per-scope with
//! [`with_thread_limit`] — the latter is how tests pin `1` vs `4` threads
//! inside one process.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Hard cap on pool size, a guard against absurd `GMORPH_THREADS` values.
const MAX_THREADS: usize = 256;

/// Global configured thread count; 0 means "not yet initialized".
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-scope thread-count override ([`with_thread_limit`]); 0 = unset.
    static LIMIT_OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// True while this thread is executing pool chunks; nested dispatch
    /// from such a context runs inline.
    static IN_POOL_CONTEXT: Cell<bool> = const { Cell::new(false) };
}

/// Returns the configured kernel thread count.
///
/// Resolution order: [`set_num_threads`] if called, else the
/// `GMORPH_THREADS` environment variable, else the machine's available
/// parallelism. Always at least 1.
pub fn num_threads() -> usize {
    let n = GLOBAL_THREADS.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    let resolved = std::env::var("GMORPH_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&v| v > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .min(MAX_THREADS);
    // A racing initializer computes the same value; either store wins.
    GLOBAL_THREADS.store(resolved, Ordering::Relaxed);
    resolved
}

/// Overrides the global kernel thread count (clamped to `1..=256`).
pub fn set_num_threads(n: usize) {
    GLOBAL_THREADS.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

/// Runs `f` with the calling thread's kernel parallelism capped at `n`.
///
/// The cap nests (inner scopes shadow outer ones) and is restored on exit,
/// including on panic. Decomposition is shape-driven, so results are
/// bit-identical across caps — this exists to *prove* that in tests and to
/// let callers serialize kernels inside already-parallel sections.
pub fn with_thread_limit<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LIMIT_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = LIMIT_OVERRIDE.with(|c| c.replace(n.clamp(1, MAX_THREADS)));
    let _restore = Restore(prev);
    f()
}

/// The thread count effective for dispatch from the calling thread.
pub(crate) fn current_threads() -> usize {
    let over = LIMIT_OVERRIDE.with(|c| c.get());
    if over != 0 {
        over
    } else {
        num_threads()
    }
}

/// One dispatched parallel job: `total` chunks claimed by atomic counter.
struct Job {
    /// Lifetime-erased pointer to the chunk closure. Soundness: the
    /// submitting [`WorkerPool::parallel_for`] call does not return until
    /// `pending` reaches zero, i.e. until every dereference of this pointer
    /// has completed, so the borrow it was created from is still live.
    task: TaskPtr,
    /// Total number of chunks.
    total: usize,
    /// Next chunk index to claim.
    next: AtomicUsize,
    /// Chunks not yet finished executing.
    pending: AtomicUsize,
    /// Completion latch.
    done: Mutex<bool>,
    done_cv: Condvar,
    /// First captured panic payload, re-thrown on the submitter.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

struct TaskPtr(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` (shared calls from any thread are fine) and
// the pointer is only dereferenced while the submitting stack frame keeps
// the closure alive (see `Job::task`).
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

impl Job {
    /// Claims and runs chunks until none remain. Called by workers and by
    /// the submitting thread alike.
    fn run_chunks(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return;
            }
            // SAFETY: i < total, so the submitter is still inside
            // `parallel_for` waiting on `pending` and the closure is alive.
            let task = unsafe { &*self.task.0 };
            let entered = IN_POOL_CONTEXT.with(|c| c.replace(true));
            let result = catch_unwind(AssertUnwindSafe(|| task(i)));
            IN_POOL_CONTEXT.with(|c| c.set(entered));
            if let Err(payload) = result {
                let mut slot = self.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let mut done = self.done.lock().unwrap();
                *done = true;
                self.done_cv.notify_all();
            }
        }
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.total
    }
}

/// Shared state between the pool handle and its worker threads.
struct PoolShared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work_available: Condvar,
}

/// The process-wide persistent worker pool.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Number of OS worker threads spawned so far.
    spawned: Mutex<usize>,
}

/// Returns the process-wide pool, creating it (without threads) on first use.
pub(crate) fn pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool {
        shared: Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_available: Condvar::new(),
        }),
        spawned: Mutex::new(0),
    })
}

impl WorkerPool {
    /// Grows the pool to at least `target` worker threads.
    fn ensure_workers(&self, target: usize) {
        let target = target.min(MAX_THREADS);
        let mut spawned = self.spawned.lock().unwrap();
        while *spawned < target {
            let shared = Arc::clone(&self.shared);
            let index = *spawned;
            std::thread::Builder::new()
                .name(format!("gmorph-worker-{index}"))
                .spawn(move || worker_loop(shared))
                .expect("spawning a gmorph worker thread");
            *spawned += 1;
        }
    }

    /// Runs `f(0) ..= f(count - 1)`, possibly across the pool, returning
    /// when all calls have finished. Panics propagate to the caller.
    ///
    /// Runs inline (still all `count` chunks, same order) when the caller
    /// is already inside a pool chunk, the effective thread limit is 1, or
    /// `count < 2` — which is exactly why thread count cannot change
    /// results: the decomposition is identical either way.
    pub fn parallel_for(&self, count: usize, f: impl Fn(usize) + Sync) {
        let threads = current_threads();
        let inline = IN_POOL_CONTEXT.with(|c| c.get());
        // One relaxed load; all telemetry below is skipped when disabled.
        let telemetry = gmorph_telemetry::enabled();
        if count < 2 || threads < 2 || inline {
            if telemetry {
                gmorph_telemetry::counter!("engine.dispatch.inline");
                gmorph_telemetry::hist!("engine.chunks.inline", count as f64);
            }
            for i in 0..count {
                f(i);
            }
            return;
        }
        let dispatch_start = telemetry.then(std::time::Instant::now);
        self.ensure_workers(threads - 1);

        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: erase the borrow's lifetime; `Job::task` documents why
        // the pointer never outlives the borrow.
        let task = TaskPtr(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f_ref)
        });
        let job = Arc::new(Job {
            task,
            total: count,
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(count),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        });

        let queue_depth = {
            let mut queue = self.shared.queue.lock().unwrap();
            queue.push_back(Arc::clone(&job));
            queue.len()
        };
        self.shared.work_available.notify_all();
        if telemetry {
            gmorph_telemetry::counter!("engine.dispatch.pooled");
            gmorph_telemetry::hist!("engine.chunks.pooled", count as f64);
            gmorph_telemetry::hist!("engine.queue_depth", queue_depth as f64);
        }

        // Participate, then wait for chunks claimed by workers.
        job.run_chunks();
        let mut done = job.done.lock().unwrap();
        while !*done {
            done = job.done_cv.wait(done).unwrap();
        }
        drop(done);

        // Drop our queue entry if no worker got to it first.
        {
            let mut queue = self.shared.queue.lock().unwrap();
            queue.retain(|j| !Arc::ptr_eq(j, &job));
        }

        if let Some(start) = dispatch_start {
            gmorph_telemetry::hist!(
                "engine.dispatch_us",
                start.elapsed().as_nanos() as f64 / 1e3
            );
        }

        let payload = job.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

fn worker_loop(shared: Arc<PoolShared>) {
    IN_POOL_CONTEXT.with(|c| c.set(true));
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                // Discard finished jobs, take the first live one.
                while queue.front().is_some_and(|j| j.exhausted()) {
                    queue.pop_front();
                }
                if let Some(job) = queue.front() {
                    break Arc::clone(job);
                }
                queue = shared.work_available.wait(queue).unwrap();
            }
        };
        job.run_chunks();
    }
}

/// Runs `f(0) ..= f(count - 1)` on the process-wide pool.
pub fn parallel_for(count: usize, f: impl Fn(usize) + Sync) {
    pool().parallel_for(count, f);
}

/// Maps `f` over `0..count` in parallel, collecting results in index order.
pub fn parallel_map<T: Send>(count: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(count, || None);
    {
        let base = SendPtr(slots.as_mut_ptr());
        parallel_for(count, |i| {
            // SAFETY: each index is claimed by exactly one chunk, so every
            // slot is written by exactly one thread; `parallel_for` joins
            // all writes before `slots` is read below.
            unsafe { *base.get().add(i) = Some(f(i)) };
        });
    }
    slots
        .into_iter()
        .map(|s| s.expect("every parallel_map slot written by its chunk"))
        .collect()
}

/// Splits `data` into `chunk_len`-sized pieces and processes them in
/// parallel; `f` receives the chunk index and the mutable chunk.
pub(crate) fn parallel_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(chunk_len > 0, "parallel_chunks_mut: chunk_len must be > 0");
    let len = data.len();
    let count = len.div_ceil(chunk_len);
    let base = SendPtr(data.as_mut_ptr());
    parallel_for(count, |i| {
        let start = i * chunk_len;
        let end = (start + chunk_len).min(len);
        // SAFETY: chunk ranges are disjoint by construction and `data`
        // outlives `parallel_for`, which joins all chunks before returning.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
        f(i, chunk);
    });
}

/// [`parallel_chunks_mut`] over two buffers in lockstep: call `i` receives
/// chunk `i` of `a` (`a_len` elements) and chunk `i` of `b` (`b_len`
/// elements). Both buffers must hold exactly `count` chunks.
pub(crate) fn parallel_chunk_pairs_mut<T: Send, U: Send>(
    count: usize,
    a: &mut [T],
    a_len: usize,
    b: &mut [U],
    b_len: usize,
    f: impl Fn(usize, &mut [T], &mut [U]) + Sync,
) {
    assert!(
        a.len() == count * a_len && b.len() == count * b_len,
        "parallel_chunk_pairs_mut: buffers must hold {count} chunks"
    );
    let (pa, pb) = (SendPtr(a.as_mut_ptr()), SendPtr(b.as_mut_ptr()));
    parallel_for(count, |i| {
        // SAFETY: chunk `i` of each buffer is in bounds (asserted above) and
        // disjoint from every other chunk; both buffers outlive
        // `parallel_for`, which joins all chunks before returning.
        let (ca, cb) = unsafe {
            (
                std::slice::from_raw_parts_mut(pa.get().add(i * a_len), a_len),
                std::slice::from_raw_parts_mut(pb.get().add(i * b_len), b_len),
            )
        };
        f(i, ca, cb);
    });
}

/// A raw pointer that may cross thread boundaries. Callers guarantee that
/// concurrent accesses through it are to disjoint regions.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_for_visits_every_index_once() {
        for threads in [1, 2, 4] {
            with_thread_limit(threads, || {
                let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
                parallel_for(100, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            });
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        with_thread_limit(4, || {
            let out = parallel_map(64, |i| i * i);
            assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
        });
    }

    #[test]
    fn chunk_pairs_line_up_by_index() {
        for threads in [1, 4] {
            with_thread_limit(threads, || {
                let mut a = vec![0usize; 5 * 3];
                let mut b = vec![0u8; 5 * 2];
                parallel_chunk_pairs_mut(5, &mut a, 3, &mut b, 2, |i, ca, cb| {
                    ca.fill(i + 1);
                    cb.fill(i as u8 + 1);
                });
                for i in 0..5 {
                    assert!(a[i * 3..(i + 1) * 3].iter().all(|&v| v == i + 1));
                    assert!(b[i * 2..(i + 1) * 2].iter().all(|&v| v == i as u8 + 1));
                }
            });
        }
    }

    #[test]
    fn parallel_chunks_cover_disjointly() {
        with_thread_limit(4, || {
            let mut data = vec![0u32; 103];
            parallel_chunks_mut(&mut data, 10, |idx, chunk| {
                for v in chunk.iter_mut() {
                    *v += 1 + idx as u32;
                }
            });
            for (i, &v) in data.iter().enumerate() {
                assert_eq!(v, 1 + (i / 10) as u32, "element {i}");
            }
        });
    }

    #[test]
    fn nested_dispatch_runs_inline_and_completes() {
        with_thread_limit(4, || {
            let total = AtomicU64::new(0);
            parallel_for(8, |_| {
                // Nested call must run inline on the current thread.
                parallel_for(8, |j| {
                    total.fetch_add(j as u64, Ordering::Relaxed);
                });
            });
            assert_eq!(total.load(Ordering::Relaxed), 8 * 28);
        });
    }

    #[test]
    fn with_thread_limit_restores_on_exit() {
        let before = current_threads();
        with_thread_limit(3, || {
            assert_eq!(current_threads(), 3);
            with_thread_limit(1, || assert_eq!(current_threads(), 1));
            assert_eq!(current_threads(), 3);
        });
        assert_eq!(current_threads(), before);
    }

    #[test]
    fn panics_propagate_to_submitter() {
        with_thread_limit(4, || {
            let result = std::panic::catch_unwind(|| {
                parallel_for(16, |i| {
                    if i == 11 {
                        panic!("chunk 11 exploded");
                    }
                });
            });
            let payload = result.expect_err("panic must propagate");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
            assert!(msg.contains("chunk 11"), "unexpected payload: {msg}");
        });
        // The pool survives a panicked job.
        with_thread_limit(4, || {
            let sum = AtomicU64::new(0);
            parallel_for(16, |i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 120);
        });
    }

    #[test]
    fn env_and_override_resolution() {
        // num_threads is at least 1 whatever the environment says.
        assert!(num_threads() >= 1);
        set_num_threads(0); // clamps to 1
        assert_eq!(num_threads(), 1);
        set_num_threads(5);
        assert_eq!(num_threads(), 5);
        // Restore the env-derived default for other tests.
        let env_default = std::env::var("GMORPH_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            });
        set_num_threads(env_default);
    }
}
