//! Shared experiment utilities: sessions, output formatting, CSV files.

use gmorph::prelude::*;
use gmorph::telemetry::json::Json;
use gmorph::tensor::{buffer, engine, simd};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Common options parsed from the `repro` command line.
#[derive(Debug, Clone)]
pub struct ExperimentOpts {
    /// Experiment seed.
    pub seed: u64,
    /// Search rounds per cell (paper: 200).
    pub iterations: usize,
    /// Accuracy-estimation backend for search experiments.
    pub mode: AccuracyMode,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
    /// Quick mode: shrink sample counts for smoke runs.
    pub quick: bool,
}

impl Default for ExperimentOpts {
    fn default() -> Self {
        ExperimentOpts {
            seed: 1,
            iterations: 200,
            mode: AccuracyMode::Surrogate,
            out_dir: PathBuf::from("results"),
            quick: false,
        }
    }
}

impl ExperimentOpts {
    /// Scales a count down in quick mode.
    pub(crate) fn scaled(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// Paper-style fine-tuning parameters per benchmark (§6.1): maximum
/// epochs, batch size, and validation cadence δ.
pub fn paper_finetune(id: BenchId) -> (usize, usize, usize) {
    match id {
        BenchId::B1 | BenchId::B4 | BenchId::B5 => (35, 64, 5),
        BenchId::B2 | BenchId::B3 => (40, 128, 5),
        BenchId::B6 | BenchId::B7 => (16, 32, 2),
    }
}

/// Prepares a session for a benchmark with cached teachers.
pub(crate) fn session_for(id: BenchId, opts: &ExperimentOpts) -> gmorph::tensor::Result<Session> {
    let profile = if opts.quick {
        DataProfile::smoke()
    } else {
        DataProfile::standard()
    };
    let bench = build_benchmark(id, &profile, opts.seed)?;
    Session::prepare(
        bench,
        &SessionConfig {
            teacher: gmorph::models::train::TrainConfig {
                epochs: if opts.quick { 2 } else { 6 },
                batch: 32,
                lr: 3e-3,
                seed: opts.seed,
            },
            seed: opts.seed,
            use_cache: true,
            ..Default::default()
        },
    )
}

/// An optimization config carrying a benchmark's paper-style parameters.
pub fn paper_config(id: BenchId, opts: &ExperimentOpts, threshold: f32) -> OptimizationConfig {
    let (max_epochs, batch, eval_every) = paper_finetune(id);
    OptimizationConfig {
        accuracy_threshold: threshold,
        iterations: opts.iterations,
        mode: opts.mode,
        max_epochs,
        eval_every,
        batch,
        lr: 1e-3,
        seed: opts.seed,
        ..Default::default()
    }
}

/// Collects rows, prints aligned tables, and writes CSV files.
#[derive(Debug)]
pub struct Reporter {
    out_dir: PathBuf,
}

impl Reporter {
    /// Creates a reporter writing CSVs under `out_dir`.
    pub fn new(out_dir: &std::path::Path) -> Self {
        std::fs::create_dir_all(out_dir).ok();
        Reporter {
            out_dir: out_dir.to_path_buf(),
        }
    }

    /// Writes a CSV file (header + rows) under the output directory.
    pub(crate) fn write_csv(
        &self,
        name: &str,
        header: &[&str],
        rows: &[Vec<String>],
    ) -> gmorph::tensor::Result<()> {
        let mut out = String::new();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        self.write_text(name, &out)
    }

    /// Writes arbitrary text under the output directory.
    pub(crate) fn write_text(&self, name: &str, text: &str) -> gmorph::tensor::Result<()> {
        let path = self.out_dir.join(name);
        std::fs::write(&path, text).map_err(|e| {
            gmorph::tensor::TensorError::Io(format!("could not write {}: {e}", path.display()))
        })?;
        println!("[wrote {}]", path.display());
        Ok(())
    }

    /// Prints an aligned table to stdout.
    pub(crate) fn print_table(&self, title: &str, header: &[&str], rows: &[Vec<String>]) {
        println!("\n=== {title} ===");
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut line = String::new();
        for (h, w) in header.iter().zip(&widths) {
            let _ = write!(line, "{h:<w$}  ");
        }
        println!("{line}");
        println!("{}", "-".repeat(line.len().min(120)));
        for row in rows {
            let mut line = String::new();
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(line, "{cell:<w$}  ");
            }
            println!("{line}");
        }
    }
}

/// Nanoseconds per call of a timed operation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Timing {
    /// Fastest sample: the least disturbed by scheduler noise.
    pub ns_min: f64,
    /// Median sample.
    pub ns_median: f64,
    /// Number of timed samples.
    pub samples: usize,
}

/// Times `f` over `samples` samples of `iters` calls each, after one
/// untimed warmup sample, and returns the minimum and median nanoseconds
/// per call.
pub(crate) fn time_ns(iters: usize, samples: usize, mut f: impl FnMut()) -> Timing {
    for _ in 0..iters {
        f();
    }
    let mut ns: Vec<f64> = (0..samples)
        .map(|_| {
            let start = std::time::Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    Timing {
        ns_min: ns[0],
        ns_median: (ns[(samples - 1) / 2] + ns[samples / 2]) / 2.0,
        samples,
    }
}

/// One timed operation of a `BENCH_*.json` file.
#[derive(Debug, Clone)]
pub(crate) struct BenchRecord {
    /// Operation name.
    pub op: String,
    /// Configuration the operation ran under: the pool state (`pool_on`,
    /// `pool_off`) or the variant (`fused`, `unfused`).
    pub config: &'static str,
    /// Input shape.
    pub shape: String,
    /// Thread cap the operation ran under.
    pub threads: usize,
    /// Fastest sample, nanoseconds per call.
    pub ns_min: f64,
    /// Median sample, nanoseconds per call.
    pub ns_median: f64,
    /// Number of timed samples.
    pub samples: usize,
}

impl BenchRecord {
    /// A record of `timing`.
    pub fn new(
        op: &str,
        config: &'static str,
        shape: &str,
        threads: usize,
        timing: Timing,
    ) -> Self {
        BenchRecord {
            op: op.to_string(),
            config,
            shape: shape.to_string(),
            threads,
            ns_min: timing.ns_min,
            ns_median: timing.ns_median,
            samples: timing.samples,
        }
    }

    fn to_json(&self) -> Json {
        let ns = |v: f64| Json::Int(v.round() as i64);
        Json::Obj(BTreeMap::from([
            ("op".to_string(), Json::Str(self.op.clone())),
            ("config".to_string(), Json::Str(self.config.to_string())),
            ("shape".to_string(), Json::Str(self.shape.clone())),
            ("threads".to_string(), Json::Int(self.threads as i64)),
            ("ns_min".to_string(), ns(self.ns_min)),
            ("ns_median".to_string(), ns(self.ns_median)),
            ("samples".to_string(), Json::Int(self.samples as i64)),
        ]))
    }
}

/// Prints `records` as a table and writes `name` under `out_dir`: a JSON
/// object of the machine's `nproc`, the engine's `threads`, the buffer
/// `pool` state, the `simd` kernel instance and the `records` array, plus
/// a `notes` object of `(key, text)` pairs when there are any.
///
/// Readers key records on `(op, config, shape, threads)`, so two records
/// with the same key are an error and nothing is written.
pub(crate) fn write_bench_json(
    out_dir: &std::path::Path,
    name: &str,
    records: &[BenchRecord],
    notes: &[(String, String)],
) -> gmorph::tensor::Result<()> {
    let mut keys = std::collections::HashSet::new();
    if let Some(r) = records
        .iter()
        .find(|r| !keys.insert((&r.op, r.config, &r.shape, r.threads)))
    {
        return Err(gmorph::tensor::TensorError::InvalidArgument {
            op: "write_bench_json",
            msg: format!(
                "two records share the key ({}, {}, {}, {})",
                r.op, r.config, r.shape, r.threads
            ),
        });
    }
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let (threads, pool, simd) = (engine::num_threads(), buffer::enabled(), simd::instance());
    println!("nproc {nproc}, threads {threads}, pool {pool}, simd {simd}");
    println!(
        "{:<20} {:>10} {:>18} {:>8} {:>14} {:>14} {:>8}",
        "op", "config", "shape", "threads", "ns_min", "ns_median", "samples"
    );
    for r in records {
        println!(
            "{:<20} {:>10} {:>18} {:>8} {:>14.0} {:>14.0} {:>8}",
            r.op, r.config, r.shape, r.threads, r.ns_min, r.ns_median, r.samples
        );
    }
    let mut head = BTreeMap::from([
        ("nproc".to_string(), Json::Int(nproc as i64)),
        ("threads".to_string(), Json::Int(threads as i64)),
        ("pool".to_string(), Json::Bool(pool)),
        ("simd".to_string(), Json::Str(simd.to_string())),
        (
            "records".to_string(),
            Json::Arr(records.iter().map(BenchRecord::to_json).collect()),
        ),
    ]);
    if !notes.is_empty() {
        let notes = notes.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone())));
        head.insert("notes".to_string(), Json::Obj(notes.collect()));
    }
    let file = Json::Obj(head);
    Reporter::new(out_dir).write_text(name, &format!("{}\n", file.encode()))
}

/// Merges the `BENCH_*.json` files of repeated runs of two builds into
/// `name` under `out_dir` (through [`write_bench_json`], with `notes`).
///
/// `sides` pairs each build's name, the merged records' `config`
/// (`parent`, `change`), with the files its runs wrote. Each merged record
/// covers one `(op, shape, threads)` of one build: `ns_min` is the fastest
/// run's `ns_min`, `ns_median` the median over runs of `ns_min`, and
/// `samples` the number of runs. Records whose `op` is not in `ops` are
/// dropped (none when `ops` is empty). Every input must have been written
/// with this process's `nproc`, `threads`, `pool` and `simd`, which the
/// merged file records.
pub fn merge_bench_runs(
    out_dir: &std::path::Path,
    name: &str,
    sides: &[(&'static str, Vec<PathBuf>)],
    ops: &[String],
    notes: &[(String, String)],
) -> gmorph::tensor::Result<()> {
    let err = |file: &std::path::Path, msg: String| gmorph::tensor::TensorError::InvalidArgument {
        op: "merge_bench_runs",
        msg: format!("{}: {msg}", file.display()),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let here = [
        ("nproc", Json::Int(nproc as i64)),
        ("threads", Json::Int(engine::num_threads() as i64)),
        ("pool", Json::Bool(buffer::enabled())),
        ("simd", Json::Str(simd::instance().to_string())),
    ];
    // (op, shape, threads, side) -> each run's ns_min.
    let mut runs: BTreeMap<(String, String, usize, usize), Vec<f64>> = BTreeMap::new();
    for (side, (_, files)) in sides.iter().enumerate() {
        for file in files {
            let text = std::fs::read_to_string(file).map_err(|e| err(file, e.to_string()))?;
            let json = Json::parse(&text).map_err(|e| err(file, e))?;
            if let Some((key, want)) = here.iter().find(|(k, v)| json.get(k) != Some(v)) {
                return Err(err(file, format!("{key} is not this machine's {want:?}")));
            }
            let Some(Json::Arr(records)) = json.get("records") else {
                return Err(err(file, "no records array".to_string()));
            };
            for r in records {
                let field = |k: &str| r.get(k).and_then(Json::as_str).map(str::to_string);
                let num = |k: &str| r.get(k).and_then(Json::as_f64);
                let (Some(op), Some(shape), Some(threads), Some(ns)) =
                    (field("op"), field("shape"), num("threads"), num("ns_min"))
                else {
                    return Err(err(file, format!("malformed record {r:?}")));
                };
                if ops.is_empty() || ops.contains(&op) {
                    let key = (op, shape, threads as usize, side);
                    runs.entry(key).or_default().push(ns);
                }
            }
        }
    }
    let records: Vec<BenchRecord> = runs
        .into_iter()
        .map(|((op, shape, threads, side), mut ns)| {
            ns.sort_by(f64::total_cmp);
            let n = ns.len();
            let timing = Timing {
                ns_min: ns[0],
                ns_median: (ns[(n - 1) / 2] + ns[n / 2]) / 2.0,
                samples: n,
            };
            BenchRecord::new(&op, sides[side].0, &shape, threads, timing)
        })
        .collect();
    write_bench_json(out_dir, name, &records, notes)
}

/// Formats a float with fixed precision for table cells.
pub(crate) fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Formats a percentage.
pub(crate) fn pct(v: f32) -> String {
    format!("{:.2}%", v * 100.0)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Parses a `BENCH_*.json` file, checks that its head and every record
    /// hold exactly the schema's keys and that no two records share the
    /// key `(op, config, shape, threads)`, and returns each record's
    /// `(op, config)`.
    pub(crate) fn read_bench_json(path: &std::path::Path) -> Vec<(String, String)> {
        let text = std::fs::read_to_string(path).unwrap();
        let file = Json::parse(&text).unwrap();
        let keys = |v: &Json| match v {
            Json::Obj(m) => m.keys().cloned().collect::<Vec<_>>(),
            other => panic!("not an object: {other:?}"),
        };
        let mut head = keys(&file);
        head.retain(|k| k != "notes");
        assert_eq!(head, ["nproc", "pool", "records", "simd", "threads"]);
        assert!(matches!(file.get("pool"), Some(Json::Bool(_))));
        let simd = file.get("simd").and_then(Json::as_str);
        assert!(matches!(simd, Some("avx2" | "portable")), "{simd:?}");
        let Some(Json::Arr(records)) = file.get("records") else {
            panic!("no records array");
        };
        let mut seen = std::collections::HashSet::new();
        records
            .iter()
            .map(|r| {
                assert_eq!(
                    keys(r),
                    [
                        "config",
                        "ns_median",
                        "ns_min",
                        "op",
                        "samples",
                        "shape",
                        "threads"
                    ]
                );
                let field = |k: &str| r.get(k).and_then(Json::as_str).unwrap().to_string();
                let ns = |k: &str| r.get(k).and_then(Json::as_f64).unwrap();
                assert!(ns("ns_min") <= ns("ns_median"), "{r:?}");
                let threads = r.get("threads").and_then(Json::as_f64).unwrap();
                let key = (field("op"), field("config"), field("shape"), threads as u64);
                assert!(seen.insert(key), "duplicate record key in {r:?}");
                (field("op"), field("config"))
            })
            .collect()
    }

    #[test]
    fn paper_finetune_matches_section_6_1() {
        assert_eq!(paper_finetune(BenchId::B1), (35, 64, 5));
        assert_eq!(paper_finetune(BenchId::B2), (40, 128, 5));
        assert_eq!(paper_finetune(BenchId::B7), (16, 32, 2));
    }

    #[test]
    fn quick_scaling() {
        let mut opts = ExperimentOpts::default();
        assert_eq!(opts.scaled(200, 20), 200);
        opts.quick = true;
        assert_eq!(opts.scaled(200, 20), 20);
    }

    #[test]
    fn write_bench_json_rejects_a_duplicate_key() {
        let dir = std::env::temp_dir().join(format!("gmorph-dup-{}", std::process::id()));
        let timing = || Timing {
            ns_min: 1.0,
            ns_median: 2.0,
            samples: 1,
        };
        let a = BenchRecord::new("conv_fwd", "pool_on", "n1c1-1s2k3", 1, timing());
        let b = BenchRecord::new("conv_fwd", "pool_on", "n1c1-1s2k3", 2, timing());
        write_bench_json(&dir, "ok.json", &[a.clone(), b], &[]).unwrap();
        let err = write_bench_json(&dir, "dup.json", &[a.clone(), a], &[]).unwrap_err();
        assert!(err.to_string().contains("share the key"), "{err}");
        assert!(!dir.join("dup.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_write_under_a_regular_file_is_an_error() {
        let file = std::env::temp_dir().join(format!("gmorph-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, "a regular file").unwrap();
        let out = file.join("out");
        let err = write_bench_json(&out, "BENCH_x.json", &[], &[]).unwrap_err();
        assert!(err.to_string().contains("could not write"), "{err}");
        assert!(Reporter::new(&out).write_csv("t.csv", &["a"], &[]).is_err());
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn merged_runs_keep_each_builds_min_and_median() {
        let dir = std::env::temp_dir().join(format!("gmorph-merge-{}", std::process::id()));
        let run = |name: &str, ns: f64| {
            let t = Timing {
                ns_min: ns,
                ns_median: ns + 1.0,
                samples: 3,
            };
            let records = [
                BenchRecord::new("gemm_small", "pool_on", "nt-12x48x48", 1, t),
                BenchRecord::new("conv_fwd", "pool_on", "l1", 1, t),
            ];
            write_bench_json(&dir, name, &records, &[]).unwrap();
            dir.join(name)
        };
        let sides = [
            ("parent", vec![run("p1.json", 10.0), run("p2.json", 12.0)]),
            (
                "change",
                vec![
                    run("c1.json", 3.0),
                    run("c2.json", 2.0),
                    run("c3.json", 4.0),
                ],
            ),
        ];
        let notes = [("serve".to_string(), "medians".to_string())];
        merge_bench_runs(&dir, "m.json", &sides, &["gemm_small".to_string()], &notes).unwrap();
        assert_eq!(
            read_bench_json(&dir.join("m.json")),
            [
                ("gemm_small".into(), "parent".into()),
                ("gemm_small".into(), "change".into())
            ]
        );
        let file = Json::parse(&std::fs::read_to_string(dir.join("m.json")).unwrap()).unwrap();
        let Some(Json::Arr(records)) = file.get("records") else {
            panic!("no records");
        };
        let ns = |r: &Json, k: &str| r.get(k).and_then(Json::as_f64).unwrap();
        assert_eq!(
            [ns(&records[0], "ns_min"), ns(&records[0], "ns_median")],
            [10.0, 11.0]
        );
        assert_eq!(
            [ns(&records[1], "ns_min"), ns(&records[1], "ns_median")],
            [2.0, 3.0]
        );
        assert_eq!(ns(&records[0], "samples"), 2.0);
        assert_eq!(
            file.get("notes")
                .and_then(|n| n.get("serve"))
                .and_then(Json::as_str),
            Some("medians")
        );
        // A run from another machine or thread count is refused.
        let text = std::fs::read_to_string(dir.join("p1.json")).unwrap();
        let other = dir.join("other.json");
        std::fs::write(&other, text.replace("\"nproc\":", "\"nproc\":1000")).unwrap();
        let sides = [
            ("parent", vec![other]),
            ("change", vec![dir.join("c1.json")]),
        ];
        let err = merge_bench_runs(&dir, "x.json", &sides, &[], &[]).unwrap_err();
        assert!(err.to_string().contains("nproc"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reporter_writes_files() {
        let dir = std::env::temp_dir().join(format!("gmorph-rep-{}", std::process::id()));
        let r = Reporter::new(&dir);
        r.write_csv("t.csv", &["a", "b"], &[vec!["1".into(), "2".into()]])
            .unwrap();
        let content = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
