//! Regenerate **Fig. 1**: running times for list ranking on the Cray MTA
//! (left panel) and the Sun SMP (right panel) for p = 1, 2, 4, 8 over
//! Ordered and Random lists.
//!
//! ```text
//! cargo run --release -p archgraph-bench --bin fig1 -- [smoke|default|full] [--arch mta|smp|both] [--csv]
//! ```

fn main() {
    archgraph_bench::fig1::FIGURE.main();
}
