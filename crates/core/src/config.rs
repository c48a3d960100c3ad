//! The optimization configuration (the paper's "configuration file", §3).

use gmorph_graph::pairs::PairPolicy;
use gmorph_models::train::TrainConfig;
use gmorph_nn::health::HealthConfig;
use gmorph_perf::accuracy::FinetuneConfig;
use gmorph_search::driver::{Objective, SearchConfig};
use gmorph_search::policy::PolicyKind;
use gmorph_search::supervisor::SupervisorConfig;
use gmorph_tensor::FaultSpec;

/// How candidate accuracy is estimated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccuracyMode {
    /// Distillation fine-tuning of the real mini-scale model (§5.2).
    Real,
    /// Calibrated analytic surrogate (DESIGN.md §1): used by the large
    /// experiment grids.
    Surrogate,
}

/// Session-level configuration: how teachers are prepared.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Teacher-training hyperparameters.
    pub teacher: TrainConfig,
    /// Session seed (teachers, splits, search defaults derive from it).
    pub seed: u64,
    /// Train fraction of the dataset split.
    pub train_frac: f32,
    /// Use the on-disk teacher cache.
    pub use_cache: bool,
    /// Kernel worker threads for this session. `None` keeps the process
    /// default (the `GMORPH_THREADS` environment variable, falling back to
    /// the machine's core count). Thread count never changes results —
    /// kernels decompose by shape with fixed reduction orders — only
    /// wall-clock time.
    pub threads: Option<usize>,
    /// Write a structured JSONL telemetry trace to this path. `None`
    /// falls back to the `GMORPH_TRACE` environment variable; telemetry
    /// stays disabled (near-zero overhead) when neither is set.
    pub trace: Option<std::path::PathBuf>,
    /// Suppress informational console output.
    pub quiet: bool,
    /// Virtual-clock effective training throughput in FLOP/s used to
    /// account paper-scale search cost (default: the paper's RTX-8000
    /// assumption).
    pub virtual_throughput: f64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            teacher: TrainConfig {
                epochs: 6,
                batch: 32,
                lr: 3e-3,
                seed: 0,
            },
            seed: 0,
            train_frac: 0.75,
            use_cache: true,
            threads: None,
            trace: None,
            quiet: false,
            virtual_throughput: gmorph_perf::clock::DEFAULT_THROUGHPUT,
        }
    }
}

impl SessionConfig {
    /// Applies the thread setting to the process-wide kernel engine.
    ///
    /// Called by `Session::prepare`; callers driving the lower layers
    /// directly can invoke it themselves.
    pub fn apply_threads(&self) {
        if let Some(n) = self.threads {
            gmorph_tensor::engine::set_num_threads(n);
        }
    }

    /// Installs the telemetry sink named by `trace` (or by `GMORPH_TRACE`
    /// when `trace` is `None`). Returns the trace path when telemetry was
    /// enabled. A no-op when a sink is already installed.
    pub fn apply_telemetry(&self) -> std::io::Result<Option<std::path::PathBuf>> {
        if gmorph_telemetry::enabled() {
            return Ok(None);
        }
        if let Some(path) = &self.trace {
            let sink = gmorph_telemetry::JsonlSink::create(path)?;
            gmorph_telemetry::install(std::sync::Arc::new(sink));
            return Ok(Some(path.clone()));
        }
        Ok(gmorph_telemetry::init_from_env())
    }
}

/// The graph-mutation optimization configuration.
///
/// Mirrors the paper's configuration file: "(1) the metric to be optimized
/// (i.e., latency or FLOPS) and the acceptable task accuracy threshold,
/// (2) representative DNN inputs for multi-task model fine-tuning, (3)
/// testing data and scripts to evaluate task accuracy, (4) optimization
/// hyperparameters". Items (2) and (3) come from the session's dataset;
/// this struct carries (1) and (4).
#[derive(Debug, Clone)]
pub struct OptimizationConfig {
    /// Metric to minimize.
    pub objective: Objective,
    /// Acceptable accuracy drop (0.0 / 0.01 / 0.02 in the evaluation).
    pub accuracy_threshold: f32,
    /// Search iterations, one candidate each (paper: 200).
    pub iterations: usize,
    /// Candidates proposed, screened and evaluated per round: 1 is the
    /// paper's sequential search, more is its §7 parallel simulated
    /// annealing (survivors fine-tuned concurrently).
    pub candidates_per_round: usize,
    /// Accuracy estimation backend.
    pub mode: AccuracyMode,
    /// Sampling policy.
    pub policy: PolicyKind,
    /// Enables rule-based filtering ("+R").
    pub rule_filter: bool,
    /// Enables predictive early termination ("+P").
    pub early_termination: bool,
    /// Pair-enumeration policy (similar shapes by default).
    pub pair_policy: PairPolicy,
    /// Maximum fine-tuning epochs per candidate.
    pub max_epochs: usize,
    /// Validation cadence in epochs (the paper's δ).
    pub eval_every: usize,
    /// Fine-tuning learning rate.
    pub lr: f32,
    /// Fine-tuning batch size.
    pub batch: usize,
    /// Maximum mutation operations per pass.
    pub max_ops_per_pass: usize,
    /// Simulated-annealing cooling constant α.
    pub sa_alpha: f32,
    /// Search seed.
    pub seed: u64,
    /// Directory for crash-safe search checkpoints (`None` disables
    /// checkpointing).
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Snapshot-to-disk cadence in iterations (pending snapshots between
    /// writes are flushed on drop/panic).
    pub checkpoint_every: usize,
    /// Resume from the newest valid checkpoint in `checkpoint_dir` whose
    /// config fingerprint matches.
    pub resume: bool,
    /// Bounded retries for transiently failing candidates (panic or
    /// non-finite): each retry reseeds the initialization and backs off
    /// the learning rate.
    pub max_retries: usize,
    /// Per-candidate wall-clock deadline in milliseconds (`None`
    /// disables; wall deadlines are machine-dependent and so off by
    /// default).
    pub candidate_deadline_ms: Option<u64>,
    /// Global-norm gradient clipping threshold for candidate fine-tuning
    /// (`None` disables clipping — the default, preserving bit-exact
    /// behavior of earlier versions).
    pub grad_clip: Option<f32>,
}

impl Default for OptimizationConfig {
    fn default() -> Self {
        OptimizationConfig {
            objective: Objective::Latency,
            accuracy_threshold: 0.01,
            iterations: 24,
            candidates_per_round: 1,
            mode: AccuracyMode::Surrogate,
            policy: PolicyKind::SimulatedAnnealing,
            rule_filter: false,
            early_termination: false,
            pair_policy: PairPolicy::SimilarShape,
            max_epochs: 10,
            eval_every: 2,
            lr: 1e-3,
            batch: 32,
            max_ops_per_pass: 2,
            sa_alpha: 0.99,
            seed: 0,
            checkpoint_dir: None,
            checkpoint_every: 4,
            resume: false,
            max_retries: 2,
            candidate_deadline_ms: None,
            grad_clip: None,
        }
    }
}

impl OptimizationConfig {
    /// Lowers the checkpoint settings into driver form, wiring in the
    /// `GMORPH_CRASH_AFTER` crash hook (used by the CI resume-smoke job).
    pub fn checkpoint_options(&self) -> Option<gmorph_search::CheckpointOptions> {
        let dir = self.checkpoint_dir.clone()?;
        let mut opts = gmorph_search::CheckpointOptions::new(dir);
        opts.every = self.checkpoint_every.max(1);
        opts.resume = self.resume;
        opts.crash_after = gmorph_search::CheckpointOptions::crash_after_from_env();
        Some(opts)
    }

    /// Lowers this configuration into the search-driver form.
    pub fn to_search_config(&self) -> SearchConfig {
        SearchConfig {
            iterations: self.iterations,
            objective: self.objective,
            policy: self.policy,
            max_ops_per_pass: self.max_ops_per_pass,
            sa_alpha: self.sa_alpha,
            pair_policy: self.pair_policy,
            rule_filter: self.rule_filter,
            finetune: FinetuneConfig {
                max_epochs: self.max_epochs,
                batch: self.batch,
                lr: self.lr,
                eval_every: self.eval_every,
                target_drop: self.accuracy_threshold,
                task_weights: Vec::new(),
                early_termination: self.early_termination,
                seed: self.seed,
                health: HealthConfig {
                    grad_clip: self.grad_clip,
                    ..HealthConfig::default()
                },
                wall_deadline_ms: self.candidate_deadline_ms,
                inject: None,
            },
            virtual_samples: 20_000,
            virtual_throughput: gmorph_perf::clock::DEFAULT_THROUGHPUT,
            seed: self.seed,
            supervisor: SupervisorConfig {
                max_retries: self.max_retries,
                candidate_deadline_ms: self.candidate_deadline_ms,
                // Fault injection comes from the environment only, read
                // once here at configuration time (the CI fault-smoke
                // hook, mirroring GMORPH_CRASH_AFTER).
                fault: FaultSpec::from_env(),
                ..SupervisorConfig::default()
            },
        }
    }

    /// The paper's "GMorph w P" variant.
    pub fn with_p(mut self) -> Self {
        self.early_termination = true;
        self
    }

    /// The paper's "GMorph w P+R" variant.
    pub fn with_p_r(mut self) -> Self {
        self.early_termination = true;
        self.rule_filter = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_set_flags() {
        let base = OptimizationConfig::default();
        assert!(!base.early_termination && !base.rule_filter);
        let p = OptimizationConfig::default().with_p();
        assert!(p.early_termination && !p.rule_filter);
        let pr = OptimizationConfig::default().with_p_r();
        assert!(pr.early_termination && pr.rule_filter);
    }

    #[test]
    fn lowering_preserves_fields() {
        let cfg = OptimizationConfig {
            accuracy_threshold: 0.02,
            iterations: 77,
            max_epochs: 9,
            ..Default::default()
        };
        let sc = cfg.to_search_config();
        assert_eq!(sc.iterations, 77);
        assert_eq!(sc.finetune.max_epochs, 9);
        assert!((sc.finetune.target_drop - 0.02).abs() < 1e-9);
    }

    #[test]
    fn resilience_knobs_lower_into_supervisor_and_health() {
        let cfg = OptimizationConfig {
            max_retries: 5,
            candidate_deadline_ms: Some(750),
            grad_clip: Some(2.5),
            ..Default::default()
        };
        let sc = cfg.to_search_config();
        assert_eq!(sc.supervisor.max_retries, 5);
        assert_eq!(sc.supervisor.candidate_deadline_ms, Some(750));
        assert_eq!(sc.finetune.wall_deadline_ms, Some(750));
        assert_eq!(sc.finetune.health.grad_clip, Some(2.5));
        assert_eq!(sc.finetune.inject, None);
        // The default stays inert so clean runs remain bit-identical.
        let default = OptimizationConfig::default().to_search_config();
        assert_eq!(default.finetune.health.grad_clip, None);
        assert_eq!(default.supervisor.candidate_deadline_ms, None);
    }
}
