//! Shared experiment utilities: sessions, output formatting, CSV files.

use gmorph::prelude::*;
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
    pub fn scaled(&self, full: usize, quick: usize) -> usize {
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
pub fn session_for(id: BenchId, opts: &ExperimentOpts) -> gmorph::tensor::Result<Session> {
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
    pub fn write_csv(&self, name: &str, header: &[&str], rows: &[Vec<String>]) {
        let mut out = String::new();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        let path = self.out_dir.join(name);
        if let Err(e) = std::fs::write(&path, out) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("[wrote {}]", path.display());
        }
    }

    /// Writes arbitrary text under the output directory.
    pub fn write_text(&self, name: &str, text: &str) {
        let path = self.out_dir.join(name);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("[wrote {}]", path.display());
        }
    }

    /// Prints an aligned table to stdout.
    pub fn print_table(&self, title: &str, header: &[&str], rows: &[Vec<String>]) {
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

/// Times `f` as min-over-samples nanoseconds per call. One untimed warmup
/// sample runs first; keeping the fastest sample suppresses scheduler
/// noise.
pub fn time_ns(iters: usize, samples: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = std::time::Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// One timed operation of a `BENCH_*.json` file. Fields that are `None`
/// are left out of the record.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Operation name.
    pub op: String,
    /// Configuration the operation ran under (e.g. `"pool_on"`).
    pub config: Option<&'static str>,
    /// Input shape.
    pub shape: Option<String>,
    /// Thread cap the operation ran under.
    pub threads: Option<usize>,
    /// Nanoseconds per call ([`time_ns`]).
    pub ns_per_iter: f64,
}

impl BenchRecord {
    fn to_json(&self) -> String {
        let mut out = format!("{{\"op\": \"{}\"", self.op);
        if let Some(config) = self.config {
            let _ = write!(out, ", \"config\": \"{config}\"");
        }
        if let Some(shape) = &self.shape {
            let _ = write!(out, ", \"shape\": \"{shape}\"");
        }
        if let Some(threads) = self.threads {
            let _ = write!(out, ", \"threads\": {threads}");
        }
        let _ = write!(out, ", \"ns_per_iter\": {:.0}}}", self.ns_per_iter);
        out
    }
}

/// Prints `records` as a table and writes `name` under `out_dir`: a JSON
/// object of the `head` fields, the `records` array, then the `tail`
/// fields. Field values are JSON text.
pub fn write_bench_json(
    out_dir: &std::path::Path,
    name: &str,
    head: &[(&str, String)],
    records: &[BenchRecord],
    tail: &[(&str, String)],
) {
    let cell = |v: Option<String>| v.unwrap_or_else(|| "-".to_string());
    println!(
        "{:<20} {:>10} {:>18} {:>8} {:>14}",
        "op", "config", "shape", "threads", "ns/iter"
    );
    let mut json = String::from("{\n");
    for (key, value) in head {
        let _ = writeln!(json, "  \"{key}\": {value},");
    }
    json.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        println!(
            "{:<20} {:>10} {:>18} {:>8} {:>14.0}",
            r.op,
            cell(r.config.map(str::to_string)),
            cell(r.shape.clone()),
            cell(r.threads.map(|t| t.to_string())),
            r.ns_per_iter
        );
        let comma = if i + 1 == records.len() { "" } else { "," };
        let _ = writeln!(json, "    {}{comma}", r.to_json());
    }
    json.push_str("  ]");
    for (key, value) in tail {
        let _ = write!(json, ",\n  \"{key}\": {value}");
    }
    json.push_str("\n}\n");
    Reporter::new(out_dir).write_text(name, &json);
}

/// Formats a float with fixed precision for table cells.
pub fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Formats a percentage.
pub fn pct(v: f32) -> String {
    format!("{:.2}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn reporter_writes_files() {
        let dir = std::env::temp_dir().join(format!("gmorph-rep-{}", std::process::id()));
        let r = Reporter::new(&dir);
        r.write_csv("t.csv", &["a", "b"], &[vec!["1".into(), "2".into()]]);
        let content = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
