//! Regenerate **Fig. 2**: running times for connected components on the
//! Cray MTA (left panel) and the Sun SMP (right panel), random graph with
//! n fixed and m swept 4n..20n, p = 1, 2, 4, 8.
//!
//! ```text
//! cargo run --release -p archgraph-bench --bin fig2 -- [smoke|default|full] [--arch mta|smp|both] [--csv]
//! ```

fn main() {
    archgraph_bench::fig2::FIGURE.main();
}
