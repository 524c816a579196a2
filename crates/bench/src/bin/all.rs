//! Regenerate the paper's entire evaluation in one run, each sweep once:
//! Fig. 1, Fig. 2 and Table 1 exactly as their own binaries print them,
//! then the §5 ratios and Table 1's p-max utilizations as one summary
//! table, then the CSV of every figure series.
//!
//! ```text
//! cargo run --release -p archgraph-bench --bin all -- [smoke|default|full]
//! ```

use archgraph_bench::figure::Arch;
use archgraph_bench::sweep::exit_if_failed;
use archgraph_bench::{fig1, fig2, last_or_exit, scale_or_usage, series_or_exit, table1};
use archgraph_core::experiment::Series;
use archgraph_core::report::{fmt_percent, fmt_ratio, ratios, series_csv, Table};

fn mean(r: &[(usize, usize, f64)]) -> f64 {
    r.iter().map(|&(_, _, x)| x).sum::<f64>() / r.len().max(1) as f64
}

fn main() {
    // Graceful SIGTERM/SIGINT: finish and flush the in-progress
    // checkpoint cell, then exit at the next cell boundary.
    archgraph_bench::signals::install_graceful();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = scale_or_usage(&args, "all [smoke|default|full]");
    let p = *last_or_exit(&scale.procs(), "processor grid");
    println!("regenerating the full evaluation at {scale:?} scale (p up to {p})\n");

    eprintln!("[1/3] Fig. 1...");
    let mut panels = fig1::FIGURE.run(scale, Arch::Both);
    fig1::FIGURE.print_shape_checks();
    eprintln!("[2/3] Fig. 2...");
    panels.extend(fig2::FIGURE.run(scale, Arch::Both));
    fig2::FIGURE.print_shape_checks();
    eprintln!("[3/3] Table 1...");
    let t1 = table1::utilization_sweep(scale, true);
    table1::print_table(&t1.rows);

    // The summary needs complete series: bail now if any cell panicked.
    let mut failures: Vec<_> = panels.iter().flat_map(|s| s.failures.clone()).collect();
    failures.extend(t1.failures);
    exit_if_failed("all", &failures);
    let series: Vec<Series> = panels.into_iter().flat_map(|s| s.series).collect();

    let find = |label: String| series_or_exit(&series, &label);
    let smp_ord = find(format!("SMP Ordered p={p}"));
    let smp_rnd = find(format!("SMP Random p={p}"));
    let mta_ord = find(format!("MTA Ordered p={p}"));
    let mta_rnd = find(format!("MTA Random p={p}"));
    let smp_cc = find(format!("SMP CC p={p}"));
    let mta_cc = find(format!("MTA CC p={p}"));

    println!("\n== Summary (at p = {p}) ==");
    let mut t = Table::new(["quantity", "measured", "paper"]);
    for (quantity, num, den, paper) in [
        ("SMP Random / Ordered", smp_rnd, smp_ord, "3-4x"),
        ("MTA Random / Ordered", mta_rnd, mta_ord, "~1x"),
        ("SMP/MTA ordered", smp_ord, mta_ord, "~10x"),
        ("SMP/MTA random", smp_rnd, mta_rnd, "~35x"),
        ("SMP/MTA connected components", smp_cc, mta_cc, "5-6x"),
    ] {
        t.row([
            quantity.into(),
            fmt_ratio(mean(&ratios(num, den))),
            paper.into(),
        ]);
    }
    for row in &t1.rows {
        let (pp, u) = *last_or_exit(
            &row.utilization,
            &format!("utilization sweep for {}", row.label),
        );
        t.row([
            format!("MTA utilization: {} (p={pp})", row.label),
            fmt_percent(u),
            "80-99%".into(),
        ]);
    }
    for line in t.render().lines() {
        println!("  {line}");
    }
    println!("\nsee EXPERIMENTS.md for the full paper-vs-measured record.");
    print!("\n{}", series_csv(&series));
}
