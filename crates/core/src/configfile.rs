//! Parsing the paper's "configuration file" (§3) and the `gmorph` flags.
//!
//! GMorph takes, besides the well-trained DNNs, "a configuration file for
//! the graph mutation optimization". This module parses a simple
//! `key = value` format (with `#` comments) into an
//! [`OptimizationConfig`]. Every key, at its default:
//!
//! ```text
//! # GMorph optimization config
//! metric                = latency    # or flops
//! accuracy_threshold    = 0.01       # acceptable accuracy drop
//! iterations            = 24
//! candidates_per_round  = 1          # more: §7 parallel annealing
//! mode                  = surrogate  # or real
//! policy                = simulated_annealing  # or sa | random
//! rule_filter           = false      # or true (also yes|1|on, no|0|off)
//! early_termination     = false
//! pair_policy           = similar    # similar | dissimilar | any
//! max_epochs            = 10
//! eval_every            = 2
//! lr                    = 0.001
//! batch                 = 32         # fine-tuning batch
//! max_ops_per_pass      = 2
//! sa_alpha              = 0.99
//! seed                  = 0
//! # checkpoint_dir      = DIR        # unset: no checkpoints
//! checkpoint_every      = 4
//! resume                = false
//! max_retries           = 2
//! # candidate_deadline_ms = MS       # unset: no deadline
//! # grad_clip           = NORM       # unset: no clipping
//! ```
//!
//! Unknown keys are rejected (catching typos beats silently ignoring
//! them); omitted keys keep their defaults.
//!
//! The same keys are command-line flags ([`parse_args`]): `--some-key
//! value` sets the key `some_key`, and a boolean key's flag takes no
//! value and sets it true (`--resume`). `--config FILE` applies the file
//! first, wherever it stands; the flags then apply in command-line order.

use crate::config::{AccuracyMode, OptimizationConfig};
use gmorph_graph::pairs::PairPolicy;
use gmorph_search::driver::Objective;
use gmorph_search::policy::PolicyKind;
use gmorph_tensor::{Result, TensorError};

/// Parses a value into its field of the config.
type Setter = fn(&mut OptimizationConfig, &str) -> std::result::Result<(), String>;

/// One configuration key: a file key, and the flag `--` + its name with
/// `-` for `_`.
struct Key {
    name: &'static str,
    /// A boolean key's flag takes no value and sets it true.
    boolean: bool,
    set: Setter,
}

/// The key `name` (by default the field's own name) whose value text
/// `parse` turns into the field's value; `switch` makes a boolean key.
macro_rules! key {
    (switch $field:ident) => {
        Key {
            boolean: true,
            ..key!($field, boolean)
        }
    };
    ($field:ident, $parse:expr) => {
        key!(stringify!($field), $field, $parse)
    };
    ($name:expr, $field:ident, $parse:expr) => {
        Key {
            name: $name,
            boolean: false,
            set: |c, v| $parse(v).map(|x| c.$field = x),
        }
    };
}

fn number<T: std::str::FromStr>(v: &str) -> std::result::Result<T, String> {
    v.parse()
        .map_err(|_| format!("expected a number, got {v:?}"))
}

fn boolean(v: &str) -> std::result::Result<bool, String> {
    match v {
        "true" | "yes" | "1" | "on" => Ok(true),
        "false" | "no" | "0" | "off" => Ok(false),
        _ => Err(format!("expected a boolean, got {v:?}")),
    }
}

fn one_of<T: Copy>(v: &str, names: &[(&str, T)]) -> std::result::Result<T, String> {
    match names.iter().find(|(name, _)| *name == v) {
        Some(&(_, x)) => Ok(x),
        None => {
            let names: Vec<&str> = names.iter().map(|(name, _)| *name).collect();
            Err(format!("expected {}, got {v:?}", names.join(" | ")))
        }
    }
}

const METRICS: &[(&str, Objective)] =
    &[("latency", Objective::Latency), ("flops", Objective::Flops)];

const POLICIES: &[(&str, PolicyKind)] = &[
    ("simulated_annealing", PolicyKind::SimulatedAnnealing),
    ("sa", PolicyKind::SimulatedAnnealing),
    ("random", PolicyKind::RandomSampling),
];

const PAIR_POLICIES: &[(&str, PairPolicy)] = &[
    ("similar", PairPolicy::SimilarShape),
    ("dissimilar", PairPolicy::DissimilarShape),
    ("any", PairPolicy::AnyShape),
];

/// Every user-settable field of [`OptimizationConfig`], one key each.
const KEYS: &[Key] = &[
    key!("metric", objective, |v| one_of(v, METRICS)),
    key!(accuracy_threshold, number),
    key!(iterations, number),
    key!(candidates_per_round, number),
    key!(mode, |v| AccuracyMode::parse(v)
        .ok_or(format!("expected real | surrogate, got {v:?}"))),
    key!(policy, |v| one_of(v, POLICIES)),
    key!(switch rule_filter),
    key!(switch early_termination),
    key!(pair_policy, |v| one_of(v, PAIR_POLICIES)),
    key!(max_epochs, number),
    key!(eval_every, number),
    key!(lr, number),
    key!(batch, number),
    key!(max_ops_per_pass, number),
    key!(sa_alpha, number),
    key!(seed, number),
    key!(checkpoint_dir, |v: &str| Ok(Some(v.into()))),
    key!(checkpoint_every, number),
    key!(switch resume),
    key!(max_retries, number),
    key!(candidate_deadline_ms, |v| number(v).map(Some)),
    key!(grad_clip, |v| match number::<f32>(v)? {
        x if x.is_finite() && x > 0.0 => Ok(Some(x)),
        _ => Err(format!("expected a positive finite norm, got {v:?}")),
    }),
];

fn find(name: &str) -> Option<&'static Key> {
    KEYS.iter().find(|k| k.name == name)
}

/// Sets the key `name` from its text `value`.
fn set(cfg: &mut OptimizationConfig, name: &str, value: &str) -> std::result::Result<(), String> {
    let key = find(name).ok_or(format!("unknown key {name:?}"))?;
    (key.set)(cfg, value).map_err(|e| format!("{name}: {e}"))
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
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        match line.split_once('=') {
            Some((key, value)) => set(&mut cfg, key.trim(), value.trim()),
            None => Err(format!("expected `key = value`, got {line:?}")),
        }
        .map_err(|msg| TensorError::InvalidArgument {
            op: "configfile::parse",
            msg: format!("line {}: {msg}", i + 1),
        })?;
    }
    Ok(cfg)
}

/// Loads and parses a configuration file from disk.
pub fn load(path: &std::path::Path) -> Result<OptimizationConfig> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| TensorError::Io(format!("{}: {e}", path.display())))?;
    parse(&text)
}

/// Reads the search settings out of command-line arguments: the file of
/// `--config FILE` first, wherever it stands (the last one given), then
/// each key's flag in order. Returns the config and the other arguments,
/// in their order.
pub fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> std::result::Result<(OptimizationConfig, Vec<String>), String> {
    let mut args = args.into_iter();
    let (mut file, mut flags, mut rest) = (None, Vec::new(), Vec::new());
    while let Some(arg) = args.next() {
        let key = arg
            .strip_prefix("--")
            .filter(|name| !name.contains('_'))
            .and_then(|name| find(&name.replace('-', "_")));
        if arg == "--config" {
            file = Some(args.next().ok_or("--config needs a value")?);
        } else if let Some(key) = key {
            let value = if key.boolean {
                "true".to_string()
            } else {
                args.next().ok_or(format!("{arg} needs a value"))?
            };
            flags.push((arg, key, value));
        } else {
            rest.push(arg);
        }
    }
    let mut cfg = match file {
        Some(path) => load(path.as_ref()).map_err(|e| e.to_string())?,
        None => OptimizationConfig::default(),
    };
    for (flag, key, value) in flags {
        (key.set)(&mut cfg, &value).map_err(|e| format!("{flag}: {e}"))?;
    }
    Ok((cfg, rest))
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

    /// A value other than the default for every key. A boolean's is
    /// `true`, which its flag sets.
    const SAMPLES: &[(&str, &str)] = &[
        ("metric", "flops"),
        ("accuracy_threshold", "0.02"),
        ("iterations", "123"),
        ("candidates_per_round", "4"),
        ("mode", "real"),
        ("policy", "random"),
        ("rule_filter", "true"),
        ("early_termination", "true"),
        ("pair_policy", "any"),
        ("max_epochs", "16"),
        ("eval_every", "3"),
        ("lr", "0.0005"),
        ("batch", "128"),
        ("max_ops_per_pass", "3"),
        ("sa_alpha", "0.9"),
        ("seed", "42"),
        ("checkpoint_dir", "ckpt"),
        ("checkpoint_every", "1"),
        ("resume", "true"),
        ("max_retries", "5"),
        ("candidate_deadline_ms", "750"),
        ("grad_clip", "2.5"),
    ];

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// The `{:#?}` text of each field of `cfg`, in declaration order.
    fn fields(cfg: &OptimizationConfig) -> Vec<String> {
        let mut fields: Vec<String> = Vec::new();
        for line in format!("{cfg:#?}").lines().skip(1) {
            match line.strip_prefix("    ") {
                Some(field) if field.starts_with(|c: char| c.is_ascii_lowercase()) => {
                    fields.push(field.to_string())
                }
                _ => fields.last_mut().unwrap().push_str(line),
            }
        }
        fields
    }

    fn fingerprint(cfg: &OptimizationConfig) -> u64 {
        let task = gmorph_data::TaskSpec::classification("t", 2);
        let spec = gmorph_models::families::vgg(
            gmorph_models::families::VggDepth::Vgg11,
            gmorph_models::families::VisionScale::mini(),
            &task,
        )
        .unwrap();
        let g = gmorph_graph::parser::parse_specs(&[spec]).unwrap();
        gmorph_search::checkpoint::config_fingerprint(&cfg.to_search_config(), &g, &g)
    }

    #[test]
    fn every_key_sets_one_field_alike_from_a_file_and_a_flag() {
        let mut names: Vec<&str> = KEYS.iter().map(|k| k.name).collect();
        let mut sampled: Vec<&str> = SAMPLES.iter().map(|s| s.0).collect();
        names.sort_unstable();
        sampled.sort_unstable();
        assert_eq!(names, sampled, "every key needs exactly one sample");
        let default = fields(&OptimizationConfig::default());
        assert_eq!(default.len(), KEYS.len(), "one key per field");
        for &(name, value) in SAMPLES {
            let from_file = parse(&format!("{name} = {value}\n")).unwrap();
            let flag = format!("--{}", name.replace('_', "-"));
            let argv = if find(name).unwrap().boolean {
                args(&[&flag])
            } else {
                args(&[&flag, value])
            };
            let (from_flag, rest) = parse_args(argv).unwrap();
            assert!(rest.is_empty(), "{flag} left {rest:?}");
            assert_eq!(format!("{from_file:?}"), format!("{from_flag:?}"), "{name}");
            assert_eq!(fingerprint(&from_file), fingerprint(&from_flag), "{name}");
            let changed = fields(&from_file)
                .iter()
                .zip(&default)
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(changed, 1, "{name} must change exactly one field");
        }
    }

    #[test]
    fn a_file_setting_every_key_leaves_no_field_at_its_default() {
        let text: String = SAMPLES
            .iter()
            .map(|(k, v)| format!("{k} = {v}\n"))
            .collect();
        let all = fields(&parse(&text).unwrap());
        for (got, default) in all.iter().zip(&fields(&OptimizationConfig::default())) {
            assert_ne!(got, default, "no key sets this field");
        }
    }

    #[test]
    fn flags_apply_after_the_file_wherever_it_stands() {
        let dir = std::env::temp_dir().join(format!("gmorph-configfile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gmorph.conf");
        std::fs::write(&path, "seed = 3\niterations = 50\nresume = true\n").unwrap();
        let path = path.to_str().unwrap();
        for argv in [
            ["--config", path, "--seed", "9", "--seed", "11"],
            ["--seed", "9", "--config", path, "--seed", "11"],
            ["--seed", "9", "--seed", "11", "--config", path],
        ] {
            let (cfg, rest) = parse_args(args(&argv)).unwrap();
            assert!(rest.is_empty());
            assert_eq!(cfg.seed, 11, "{argv:?}");
            assert_eq!(cfg.iterations, 50, "{argv:?}");
            assert!(cfg.resume, "{argv:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flags_that_are_no_key_pass_through_and_bad_ones_fail() {
        let argv = args(&[
            "optimize", "--bench", "B1", "--mode", "real", "--quiet", "x",
        ]);
        let (cfg, rest) = parse_args(argv).unwrap();
        assert_eq!(cfg.mode, AccuracyMode::Real);
        assert_eq!(rest, ["optimize", "--bench", "B1", "--quiet", "x"]);
        // No aliases: only the key's own spelling is its flag.
        let (_, rest) = parse_args(args(&["--threshold", "0.02", "--batch_size", "4"])).unwrap();
        assert_eq!(rest, ["--threshold", "0.02", "--batch_size", "4"]);
        let (_, rest) = parse_args(args(&["--max_epochs", "4"])).unwrap();
        assert_eq!(rest, ["--max_epochs", "4"]);
        for (argv, want) in [
            (&["--iterations"][..], "--iterations needs a value"),
            (&["--iterations", "many"], "--iterations: expected a number"),
            (
                &["--grad-clip", "-1"],
                "--grad-clip: expected a positive finite norm",
            ),
            (&["--mode", "fast"], "--mode: expected real | surrogate"),
            (&["--config"], "--config needs a value"),
            (
                &["--config", "/nonexistent/gmorph.conf"],
                "/nonexistent/gmorph.conf",
            ),
        ] {
            let err = parse_args(args(argv)).unwrap_err();
            assert!(err.contains(want), "{argv:?}: {err}");
        }
    }
}
