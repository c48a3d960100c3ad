//! The end-to-end GMorph session: teachers → graphs → search.

use crate::baselines;
use crate::config::{AccuracyMode, OptimizationConfig, SessionConfig};
use gmorph_data::dataset::Split;
use gmorph_graph::parser::{parse_models, parse_specs};
use gmorph_graph::{generator, AbsGraph, CapacityVector, TreeModel, WeightStore};
use gmorph_models::cache::load_or_train;
use gmorph_models::zoo::BenchmarkDef;
use gmorph_models::SingleTaskModel;
use gmorph_perf::accuracy::{teacher_targets, SurrogateParams};
use gmorph_perf::estimator::{estimate_latency_ms, Backend};
use gmorph_search::driver::{run_search_checkpointed, SearchResult};
use gmorph_search::evaluator::{EvalMode, RealContext, SurrogateContext};
use gmorph_tensor::rng::Rng;
use gmorph_tensor::{Result, TensorError};

/// A prepared GMorph session: trained teachers, parsed graphs, splits.
///
/// This corresponds to the paper's framework inputs: "a set of well-trained
/// DNNs" plus "a configuration file" (§3). [`Session::prepare`] produces
/// the well-trained DNNs (training or loading cached teachers);
/// [`Session::optimize`] runs graph mutation optimization under an
/// [`OptimizationConfig`].
#[derive(Debug, Clone)]
pub struct Session {
    /// The benchmark (models at both scales + dataset).
    pub bench: BenchmarkDef,
    /// Trained teachers, one per task.
    pub teachers: Vec<SingleTaskModel>,
    /// Teacher test scores (the accuracy-drop anchors).
    pub teacher_scores: Vec<f32>,
    /// Train/test split of the benchmark dataset.
    pub split: Split,
    /// Mini-scale abstract graph of the input multi-DNNs.
    pub mini_graph: AbsGraph,
    /// Paper-scale abstract graph, node-id aligned with `mini_graph`.
    pub paper_graph: AbsGraph,
    /// Well-trained teacher weights keyed by node identity.
    pub weights: WeightStore,
    /// Session seed.
    pub seed: u64,
    /// Virtual-clock throughput carried into every optimization run.
    pub virtual_throughput: f64,
}

impl Session {
    /// Trains (or loads cached) teachers and parses the graphs.
    pub fn prepare(bench: BenchmarkDef, cfg: &SessionConfig) -> Result<Session> {
        cfg.apply_threads();
        cfg.apply_telemetry()
            .map_err(|e| TensorError::Io(format!("installing telemetry sink: {e}")))?;
        let _span = gmorph_telemetry::span!(
            "session.prepare",
            bench = bench.id.name(),
            tasks = bench.mini.len(),
            seed = cfg.seed
        );
        gmorph_telemetry::meta!(
            "session.meta",
            bench = bench.id.name(),
            tasks = bench.mini.len(),
            seed = cfg.seed,
            train_frac = cfg.train_frac,
            use_cache = cfg.use_cache,
            virtual_throughput = cfg.virtual_throughput
        );
        let mut rng = Rng::new(cfg.seed ^ 0x005E_5510);
        let split = bench.dataset.split(cfg.train_frac, &mut rng)?;
        let mut teachers = Vec::with_capacity(bench.mini.len());
        let mut teacher_scores = Vec::with_capacity(bench.mini.len());
        for (task_idx, spec) in bench.mini.iter().enumerate() {
            let (model, score) = if cfg.use_cache {
                load_or_train(spec, &split, task_idx, &cfg.teacher, cfg.seed)?
            } else {
                let mut m = spec.build(&mut rng)?;
                let report = gmorph_models::train::train_teacher(
                    &mut m,
                    &split.train,
                    &split.test,
                    task_idx,
                    &cfg.teacher,
                )?;
                (m, report.final_score)
            };
            teachers.push(model);
            teacher_scores.push(score);
        }
        let (mini_graph, weights) = parse_models(&teachers)?;
        let paper_graph = parse_specs(&bench.paper)?;
        if mini_graph.len() != paper_graph.len() {
            return Err(TensorError::InvalidArgument {
                op: "Session::prepare",
                msg: "mini/paper graphs disagree on node count".to_string(),
            });
        }
        Ok(Session {
            bench,
            teachers,
            teacher_scores,
            split,
            mini_graph,
            paper_graph,
            weights,
            seed: cfg.seed,
            virtual_throughput: cfg.virtual_throughput,
        })
    }

    /// Builds the accuracy-evaluation backend for a configuration.
    pub fn eval_mode(&self, mode: AccuracyMode) -> Result<EvalMode> {
        match mode {
            AccuracyMode::Real => {
                let mut teachers = self.teachers.clone();
                let targets = teacher_targets(&mut teachers, &self.split.train.inputs)?;
                Ok(EvalMode::Real(RealContext {
                    train_inputs: self.split.train.inputs.clone(),
                    targets,
                    test: self.split.test.clone(),
                    teacher_scores: self.teacher_scores.clone(),
                }))
            }
            AccuracyMode::Surrogate => Ok(EvalMode::Surrogate(SurrogateContext {
                orig_capacity: CapacityVector::of(&self.mini_graph)?,
                params: SurrogateParams::default(),
                teacher_scores: self.teacher_scores.clone(),
            })),
        }
    }

    /// Runs graph mutation optimization (Algorithm 1).
    pub fn optimize(&self, cfg: &OptimizationConfig) -> Result<SearchResult> {
        let _span = gmorph_telemetry::span!(
            "session.optimize",
            iterations = cfg.iterations,
            seed = cfg.seed
        );
        let mode = self.eval_mode(cfg.mode)?;
        let mut search_cfg = cfg.to_search_config();
        search_cfg.virtual_throughput = self.virtual_throughput;
        let result = run_search_checkpointed(
            &self.mini_graph,
            &self.paper_graph,
            &self.weights,
            &mode,
            &search_cfg,
            cfg.candidates_per_round,
            cfg.checkpoint_options().as_ref(),
        )?;
        // Surface failure containment at the session level: a run that
        // quarantined candidates still completed, but the operator should
        // see how much of the budget went to failures.
        if result.failed > 0 || result.quarantined > 0 {
            gmorph_telemetry::point!(
                "session.resilience",
                failed = result.failed,
                quarantined = result.quarantined,
                iterations = result.trace.len()
            );
        }
        Ok(result)
    }

    /// Estimated paper-scale latency of the original multi-DNNs.
    pub fn original_latency_ms(&self, backend: Backend) -> Result<f64> {
        estimate_latency_ms(&self.paper_graph, backend)
    }

    /// Materializes the trainable multi-task model of a (mini-scale)
    /// abstract graph with teacher-weight inheritance.
    pub fn materialize(&self, graph: &AbsGraph, weights: &WeightStore) -> Result<TreeModel> {
        let mut rng = Rng::new(self.seed ^ 0x6E6E);
        let (tree, _) = generator::generate(graph, weights, &mut rng)?;
        Ok(tree)
    }

    /// The All-shared baseline graph (§6.1) at both scales.
    pub fn all_shared(&self) -> Result<(AbsGraph, AbsGraph)> {
        Ok((
            baselines::all_shared(&self.bench.mini)?,
            baselines::all_shared(&self.bench.paper)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmorph_models::zoo::{build, BenchId, DataProfile};

    fn quick_session() -> Session {
        let bench = build(BenchId::B1, &DataProfile::smoke(), 3).unwrap();
        let cfg = SessionConfig {
            teacher: gmorph_models::train::TrainConfig {
                epochs: 1,
                batch: 32,
                lr: 3e-3,
                seed: 3,
            },
            seed: 3,
            use_cache: false,
            ..Default::default()
        };
        Session::prepare(bench, &cfg).unwrap()
    }

    #[test]
    fn prepare_wires_graphs_and_teachers() {
        let s = quick_session();
        assert_eq!(s.teachers.len(), 3);
        assert_eq!(s.teacher_scores.len(), 3);
        assert_eq!(s.mini_graph.len(), s.paper_graph.len());
        s.mini_graph.validate().unwrap();
        s.paper_graph.validate().unwrap();
        assert!(s.original_latency_ms(Backend::Eager).unwrap() > 0.0);
    }

    #[test]
    fn surrogate_optimize_beats_original() {
        let s = quick_session();
        let cfg = OptimizationConfig {
            iterations: 30,
            accuracy_threshold: 0.02,
            max_epochs: 20,
            eval_every: 2,
            ..Default::default()
        };
        let r = s.optimize(&cfg).unwrap();
        assert!(r.speedup > 1.0, "speedup {}", r.speedup);
    }
}
