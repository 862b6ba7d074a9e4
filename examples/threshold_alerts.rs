//! MacroBase-style outlier-rate search: find the subpopulations whose
//! outlier rate is 30x the overall rate, with cascade statistics
//! (Section 7.2.1 of the paper).
//!
//! Run: `cargo run --release --example threshold_alerts`

use msketch::datasets::dist;
use msketch::prelude::{MacroBaseConfig, MacroBaseEngine, MomentsSketch, Sketch};
use msketch::sketches::MSketchSummary;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // 200 device models; two of them have a memory-usage anomaly.
    let mut rng = StdRng::seed_from_u64(7);
    let anomalous = [41usize, 137];
    let wrap = MSketchSummary::from_sketch;
    let mut groups: Vec<(String, MSketchSummary)> = Vec::new();
    let mut all = MomentsSketch::new(10);
    for model in 0..200 {
        let mut sketch = MomentsSketch::new(10);
        for _ in 0..5_000 {
            let mut mb = dist::gamma(&mut rng, 4.0, 60.0); // ~240 MB typical
            if anomalous.contains(&model) && rng.gen::<f64>() < 0.45 {
                mb += 4_000.0; // leak: +4 GB on ~45% of sessions
            }
            sketch.accumulate(mb);
        }
        all.merge(&sketch);
        groups.push((format!("model-{model:03}"), wrap(sketch)));
    }

    let mut engine = MacroBaseEngine::new(MacroBaseConfig::default());
    let t99 = engine
        .global_threshold(&wrap(all))
        .expect("global threshold");
    println!(
        "global p99 memory = {t99:.0} MB; searching for models with outlier rate >= {}x overall",
        engine.config().rate_ratio
    );

    let reports = engine.search(
        groups.iter().map(|(l, s)| (l.as_str(), s as &dyn Sketch)),
        t99,
    );
    println!("\nflagged subpopulations:");
    for r in &reports {
        println!("  {} ({} sessions)", r.label, r.count);
    }
    let stats = engine.stats();
    let frac = stats.fraction_reaching();
    println!(
        "\ncascade: {} groups checked | simple {} | markov {} | rtt {} | maxent {}",
        stats.total, stats.simple_hits, stats.markov_hits, stats.rtt_hits, stats.maxent_evals
    );
    println!(
        "fraction reaching each stage: simple {:.2}, markov {:.2}, rtt {:.2}, maxent {:.3}",
        frac[0], frac[1], frac[2], frac[3]
    );
}
