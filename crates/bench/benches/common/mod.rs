//! Timing shared by the ablation and native benches: every benchmark is
//! one warmup run plus ten timed runs of a closure through
//! [`Trials`], reported as one `group/id  mean … min …` line.

use std::hint::black_box;

use archgraph_core::experiment::Trials;
use archgraph_core::report::fmt_seconds;

/// Time `f` (1 warmup, 10 samples) and print its mean and minimum.
pub fn bench<O>(label: &str, mut f: impl FnMut() -> O) {
    let m = Trials {
        reps: 10,
        warmup: 1,
    }
    .run(|_| {
        black_box(f());
    });
    println!(
        "{label:<50} mean {:>12} min {:>12} ({} samples)",
        fmt_seconds(m.mean()),
        fmt_seconds(m.min()),
        m.samples.len()
    );
}
