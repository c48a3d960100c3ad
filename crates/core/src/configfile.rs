//! Parsing the paper's "configuration file" (§3).
//!
//! GMorph takes, besides the well-trained DNNs, "a configuration file for
//! the graph mutation optimization". This module parses a simple
//! `key = value` format (with `#` comments) into an
//! [`OptimizationConfig`]:
//!
//! ```text
//! # GMorph optimization config
//! metric              = latency      # or flops
//! accuracy_threshold  = 0.01
//! iterations          = 200
//! mode                = surrogate    # or real
//! policy              = simulated_annealing  # or random
//! rule_filter         = true
//! early_termination   = true
//! pair_policy         = similar      # similar | dissimilar | any
//! max_epochs          = 35
//! eval_every          = 5
//! lr                  = 0.001
//! batch               = 64
//! max_ops_per_pass    = 2
//! sa_alpha            = 0.99
//! seed                = 7
//! ```
//!
//! Unknown keys are rejected (catching typos beats silently ignoring
//! them); omitted keys keep their defaults.

use crate::config::{AccuracyMode, OptimizationConfig};
use gmorph_graph::pairs::PairPolicy;
use gmorph_search::driver::Objective;
use gmorph_search::policy::PolicyKind;
use gmorph_tensor::{Result, TensorError};

fn bad(line_no: usize, msg: String) -> TensorError {
    TensorError::InvalidArgument {
        op: "configfile::parse",
        msg: format!("line {line_no}: {msg}"),
    }
}

fn parse_bool(line_no: usize, v: &str) -> Result<bool> {
    match v {
        "true" | "yes" | "1" | "on" => Ok(true),
        "false" | "no" | "0" | "off" => Ok(false),
        other => Err(bad(line_no, format!("expected a boolean, got {other:?}"))),
    }
}

/// Parses configuration text into an [`OptimizationConfig`].
///
/// # Examples
///
/// ```
/// use gmorph::configfile::parse;
///
/// let cfg = parse("accuracy_threshold = 0.02\niterations = 50\n").unwrap();
/// assert_eq!(cfg.iterations, 50);
/// assert!((cfg.accuracy_threshold - 0.02).abs() < 1e-6);
/// ```
pub fn parse(text: &str) -> Result<OptimizationConfig> {
    let mut cfg = OptimizationConfig::default();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(bad(
                line_no,
                format!("expected `key = value`, got {line:?}"),
            ));
        };
        let key = key.trim();
        let value = value.trim();
        let num = |what: &str| -> Result<f32> {
            value
                .parse::<f32>()
                .map_err(|_| bad(line_no, format!("{what} expects a number, got {value:?}")))
        };
        let int = |what: &str| -> Result<usize> {
            value
                .parse::<usize>()
                .map_err(|_| bad(line_no, format!("{what} expects an integer, got {value:?}")))
        };
        match key {
            "metric" => {
                cfg.objective = match value {
                    "latency" => Objective::Latency,
                    "flops" => Objective::Flops,
                    other => return Err(bad(line_no, format!("unknown metric {other:?}"))),
                }
            }
            "accuracy_threshold" => cfg.accuracy_threshold = num("accuracy_threshold")?,
            "iterations" => cfg.iterations = int("iterations")?,
            "mode" => {
                cfg.mode = match value {
                    "real" => AccuracyMode::Real,
                    "surrogate" => AccuracyMode::Surrogate,
                    other => return Err(bad(line_no, format!("unknown mode {other:?}"))),
                }
            }
            "policy" => {
                cfg.policy = match value {
                    "simulated_annealing" | "sa" => PolicyKind::SimulatedAnnealing,
                    "random" => PolicyKind::RandomSampling,
                    other => return Err(bad(line_no, format!("unknown policy {other:?}"))),
                }
            }
            "rule_filter" => cfg.rule_filter = parse_bool(line_no, value)?,
            "early_termination" => cfg.early_termination = parse_bool(line_no, value)?,
            "pair_policy" => {
                cfg.pair_policy = match value {
                    "similar" => PairPolicy::SimilarShape,
                    "dissimilar" => PairPolicy::DissimilarShape,
                    "any" => PairPolicy::AnyShape,
                    other => return Err(bad(line_no, format!("unknown pair policy {other:?}"))),
                }
            }
            "max_epochs" => cfg.max_epochs = int("max_epochs")?,
            "eval_every" => cfg.eval_every = int("eval_every")?,
            "lr" => cfg.lr = num("lr")?,
            "batch" => cfg.batch = int("batch")?,
            "max_ops_per_pass" => cfg.max_ops_per_pass = int("max_ops_per_pass")?,
            "sa_alpha" => cfg.sa_alpha = num("sa_alpha")?,
            "seed" => cfg.seed = int("seed")? as u64,
            "max_retries" => cfg.max_retries = int("max_retries")?,
            "candidate_deadline_ms" => {
                cfg.candidate_deadline_ms = Some(int("candidate_deadline_ms")? as u64)
            }
            "grad_clip" => {
                let v = num("grad_clip")?;
                if !v.is_finite() || v <= 0.0 {
                    return Err(bad(
                        line_no,
                        format!("grad_clip expects a positive finite norm, got {value:?}"),
                    ));
                }
                cfg.grad_clip = Some(v);
            }
            other => return Err(bad(line_no, format!("unknown key {other:?}"))),
        }
    }
    Ok(cfg)
}

/// Loads and parses a configuration file from disk.
pub fn load(path: &std::path::Path) -> Result<OptimizationConfig> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| TensorError::Io(format!("{}: {e}", path.display())))?;
    parse(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_config_roundtrip() {
        let cfg = parse(
            "\
# everything set
metric = flops
accuracy_threshold = 0.02
iterations = 123
mode = real
policy = random
rule_filter = yes
early_termination = on
pair_policy = any
max_epochs = 16
eval_every = 2
lr = 0.0005
batch = 128
max_ops_per_pass = 3
sa_alpha = 0.9
seed = 42
",
        )
        .unwrap();
        assert_eq!(cfg.objective, Objective::Flops);
        assert_eq!(cfg.iterations, 123);
        assert_eq!(cfg.mode, AccuracyMode::Real);
        assert_eq!(cfg.policy, PolicyKind::RandomSampling);
        assert!(cfg.rule_filter && cfg.early_termination);
        assert_eq!(cfg.pair_policy, PairPolicy::AnyShape);
        assert_eq!(cfg.max_epochs, 16);
        assert_eq!(cfg.eval_every, 2);
        assert_eq!(cfg.batch, 128);
        assert_eq!(cfg.max_ops_per_pass, 3);
        assert_eq!(cfg.seed, 42);
        assert!((cfg.lr - 0.0005).abs() < 1e-9);
        assert!((cfg.sa_alpha - 0.9).abs() < 1e-6);
    }

    #[test]
    fn defaults_survive_partial_configs() {
        let cfg = parse("iterations = 7\n").unwrap();
        let def = OptimizationConfig::default();
        assert_eq!(cfg.iterations, 7);
        assert_eq!(cfg.max_epochs, def.max_epochs);
        assert_eq!(cfg.policy, def.policy);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let cfg = parse("\n# comment only\n  \nseed = 5 # trailing\n").unwrap();
        assert_eq!(cfg.seed, 5);
    }

    #[test]
    fn rejects_unknown_keys_and_bad_values() {
        assert!(parse("nope = 1\n").is_err());
        assert!(parse("iterations = many\n").is_err());
        assert!(parse("rule_filter = maybe\n").is_err());
        assert!(parse("metric = vibes\n").is_err());
        assert!(parse("just a line\n").is_err());
        // Error names the line.
        let err = parse("seed = 1\nnope = 2\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load(std::path::Path::new("/nonexistent/gmorph.conf")).is_err());
    }
}
