//! Figure 9 (Appendix B): visualization of mutated B5 models at the 1%
//! budget — the original ResNet-34 + VGG-16 pair and the fused trees
//! GMorph discovers.

use crate::common::{paper_config, ExperimentOpts, Reporter};
use gmorph::prelude::*;

/// Runs the Figure 9 visualization.
pub fn run(opts: &ExperimentOpts) -> gmorph::tensor::Result<()> {
    let reporter = Reporter::new(&opts.out_dir);
    let session = crate::common::session_for(BenchId::B5, opts)?;
    let mut out = String::new();
    out.push_str("(a) Original multi-task model (ResNet-34 + VGG-16):\n");
    out.push_str(&session.mini_graph.render());

    // Run the search at three seeds to surface distinct fused shapes.
    let mut seen = Vec::new();
    for (i, seed) in [opts.seed, opts.seed + 1, opts.seed + 2].iter().enumerate() {
        let mut cfg = paper_config(BenchId::B5, opts, 0.01);
        cfg.seed = *seed;
        let result = session.optimize(&cfg)?;
        if seen.contains(&result.best.mini.signature()) {
            continue;
        }
        seen.push(result.best.mini.signature());
        out.push_str(&format!(
            "\n({}) Mutated model {} — {:.2}x speedup, {:.2}% drop:\n",
            (b'b' + i as u8) as char,
            i + 1,
            result.speedup,
            result.best.drop.max(0.0) * 100.0
        ));
        out.push_str(&result.best.mini.render());
    }
    println!("{out}");
    reporter.write_text("fig9.txt", &out)?;
    Ok(())
}
