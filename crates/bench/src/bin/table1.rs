//! Regenerate **Table 1**: processor utilization for list ranking and
//! connected components on the Cray MTA at p = 1, 4, 8.
//!
//! ```text
//! cargo run --release -p archgraph-bench --bin table1 -- [smoke|default|full]
//! ```

use archgraph_bench::sweep::exit_if_failed;
use archgraph_bench::{scale_or_usage, table1};

fn main() {
    // Graceful SIGTERM/SIGINT: finish and flush the in-progress
    // checkpoint cell, then exit at the next cell boundary.
    archgraph_bench::signals::install_graceful();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = scale_or_usage(&args, "table1 [smoke|default|full]");
    eprintln!("computing Table 1 utilizations ({scale:?})...");
    let sweep = table1::utilization_sweep(scale, true);
    table1::print_table(&sweep.rows);
    exit_if_failed("table1", &sweep.failures);
}
