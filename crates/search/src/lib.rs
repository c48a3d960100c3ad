//! Graph-mutation search (§3, Algorithm 1) for the GMorph reproduction.
//!
//! - [`policy`]: sampling policies — the simulated-annealing policy of
//!   §4.3.1 (elite list, temperature schedule, elite-sampling probability)
//!   and the random-sampling baseline of §6.4,
//! - [`history`]: the History Database of evaluated candidates and elites,
//! - [`evaluator`]: the accuracy-evaluation backend — `Real` (distillation
//!   fine-tuning of the mini-scale model) or `Surrogate` (calibrated
//!   analytic model; see DESIGN.md §1),
//! - [`driver`]: Algorithm 1 — the graph mutation optimization loop with
//!   predictive filtering and dual-scale (mini + paper) graph tracking,
//!   running `K` candidates per round (sequential search is `K = 1`; §7's
//!   "sampling multiple models in parallel" is `K > 1`),
//! - [`supervisor`]: resilient candidate evaluation — catch-unwind
//!   containment, deadlines, retry with LR backoff and reseeded init, and
//!   failure classification feeding quarantine (DESIGN.md §13),
//! - [`checkpoint`]: crash-safe checkpoint/resume — versioned, checksummed
//!   snapshots of the full search state, written atomically on a
//!   durability schedule, restoring bit-identical runs (DESIGN.md §12).

pub mod checkpoint;
pub mod driver;
pub mod evaluator;
pub mod history;
pub mod policy;
pub mod supervisor;

pub use checkpoint::{CheckpointManager, CheckpointOptions, CrashKind};
pub use driver::{run_search, run_search_checkpointed, SearchConfig, SearchResult, TraceRecord};
pub use evaluator::{EvalMode, RealContext, SurrogateContext};
pub use history::{Elite, History};
pub use policy::{PolicyKind, SimulatedAnnealing};
pub use supervisor::{FailureReport, SupervisorConfig};
