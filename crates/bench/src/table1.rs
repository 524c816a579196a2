//! Table 1 — processor utilization on the Cray MTA for list ranking
//! (Random and Ordered, 20 M-node list) and connected components
//! (n = 1M, m = 20M ≈ n log n), at p = 1, 4, 8.
//!
//! The `(workload, p)` cells simulate independently and fan out across
//! host cores; rows are assembled in the paper's order afterwards.

use archgraph_concomp::sim_mta as cc_sim;
use archgraph_core::machine::MtaParams;
use archgraph_core::report::{fmt_percent, Table};
use archgraph_listrank::sim_mta as lr_sim;

use crate::grid::par_map;
use crate::scale::Scale;
use crate::sweep::{point_cell, CellFailure, CellPoint, Checkpoint};
use crate::workloads::{make_graph, make_list, ListKind};

/// One row block of Table 1: utilization per processor count.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationRow {
    /// Workload label ("Random List", "Ordered List", "Connected Components").
    pub label: String,
    /// `(p, utilization)` pairs.
    pub utilization: Vec<(usize, f64)>,
}

/// Processor counts reported in the paper's Table 1.
pub const TABLE1_PROCS: [usize; 3] = [1, 4, 8];

/// Streams per processor (paper: 100).
pub const MTA_STREAMS: usize = 100;

/// The table's workloads, in row order.
const ROWS: [&str; 3] = ["Random List", "Ordered List", "Connected Components"];

fn table_procs(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![1, 2],
        _ => TABLE1_PROCS.to_vec(),
    }
}

/// The table's cells in row-major order: `(row, p)`.
pub fn cells(scale: Scale) -> Vec<(usize, usize)> {
    let procs = table_procs(scale);
    (0..ROWS.len())
        .flat_map(|row| procs.iter().map(move |&p| (row, p)))
        .collect()
}

/// Simulate one `(row, p)` cell and return its utilization.
pub fn cell_utilization(scale: Scale, row: usize, p: usize) -> f64 {
    let report = match row {
        0 => bench_list_cell(ListKind::Random, p, scale.table1_list_size()),
        1 => bench_list_cell(ListKind::Ordered, p, scale.table1_list_size()),
        _ => {
            let (n, m) = scale.table1_graph_size();
            bench_cc_cell(p, n, m)
        }
    };
    report.utilization
}

/// One bench-sized list row of the table: the walk-ranking region report
/// at an explicit size, for the bench driver to fingerprint (`cycles`,
/// `issued`, and utilization in parts-per-million — utilization is the
/// table's own quantity, so the regression harness pins it exactly).
pub fn bench_list_cell(kind: ListKind, p: usize, n: usize) -> archgraph_mta_sim::report::RunReport {
    let params = MtaParams::mta2();
    let list = make_list(kind, n, crate::fig1::LIST_SEED);
    let r = lr_sim::simulate_walk_ranking(&list, &params, p, MTA_STREAMS, (n / 10).max(1));
    r.report
}

/// The bench-sized connected-components row of the table (see
/// [`bench_list_cell`]).
pub fn bench_cc_cell(p: usize, n: usize, m: usize) -> archgraph_mta_sim::report::RunReport {
    let params = MtaParams::mta2();
    let g = make_graph(n, m, crate::fig2::GRAPH_SEED);
    let r = cc_sim::simulate_sv_mta(&g, &params, p, MTA_STREAMS);
    r.report
}

/// Table 1's isolated sweep: rows assembled from the cells that
/// completed, plus any cell failures (empty on a clean run).
#[derive(Debug)]
pub struct TableSweep {
    /// The table rows; a failed cell's `(p, utilization)` entry is absent.
    pub rows: Vec<UtilizationRow>,
    /// Cells that panicked, in cell order.
    pub failures: Vec<CellFailure>,
}

/// Short per-row cell-name slugs.
const ROW_SLUGS: [&str; 3] = ["random-list", "ordered-list", "cc"];

/// Compute the table with each `(row, p)` cell panic-isolated and (at
/// `--full` scale) checkpointed for resume.
pub fn utilization_sweep(scale: Scale, verbose: bool) -> TableSweep {
    let cs = cells(scale);
    let ck = Checkpoint::for_sweep("table1", scale);
    let outs = par_map(&cs, |&(row, p)| {
        point_cell(&ck, &format!("table1/{}/p{p}", ROW_SLUGS[row]), || {
            CellPoint {
                x: row,
                p,
                seconds: cell_utilization(scale, row, p),
                log: String::new(),
            }
        })
    });
    let mut rows: Vec<UtilizationRow> = ROWS
        .iter()
        .map(|l| UtilizationRow {
            label: l.to_string(),
            utilization: Vec::new(),
        })
        .collect();
    let mut failures = Vec::new();
    for (&(row, p), out) in cs.iter().zip(outs) {
        match out {
            Ok(pt) => {
                if verbose {
                    eprintln!(
                        "  table1/{}/p{p}: util {:.1}%",
                        ROW_SLUGS[row],
                        pt.seconds * 100.0
                    );
                }
                rows[row].utilization.push((p, pt.seconds));
            }
            Err(f) => {
                eprintln!("  {f}");
                failures.push(f);
            }
        }
    }
    if failures.is_empty() {
        ck.clear();
    }
    TableSweep { rows, failures }
}

/// Print the table and the paper's values under it. Columns are the
/// union of completed processor counts, so a failed cell leaves a blank
/// in its row, not a hole in the table.
pub fn print_table(rows: &[UtilizationRow]) {
    println!("\n== Table 1: processor utilization on the Cray MTA ==");
    let mut procs: Vec<usize> = rows
        .iter()
        .flat_map(|r| r.utilization.iter().map(|&(p, _)| p))
        .collect();
    procs.sort_unstable();
    procs.dedup();
    let mut t = Table::new(
        std::iter::once("Workload".to_string()).chain(procs.iter().map(|p| format!("p={p}"))),
    );
    for row in rows {
        let mut cells = vec![row.label.clone()];
        for &p in &procs {
            let u = row.utilization.iter().find(|&&(pp, _)| pp == p);
            cells.push(u.map(|&(_, u)| fmt_percent(u)).unwrap_or_default());
        }
        t.row(cells);
    }
    for line in t.render().lines() {
        println!("  {line}");
    }
    println!(
        "\nPaper (Table 1): Random List 98/90/82%, Ordered List 97/85/80%, \
         Connected Components 99/93/91% at p = 1/4/8."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(sw: TableSweep) -> Vec<UtilizationRow> {
        assert!(sw.failures.is_empty(), "{:?}", sw.failures);
        sw.rows
    }

    #[test]
    fn smoke_table_shape_and_bounds() {
        let rows = clean(utilization_sweep(Scale::Smoke, false));
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].label, "Random List");
        assert_eq!(rows[1].label, "Ordered List");
        assert_eq!(rows[2].label, "Connected Components");
        for row in &rows {
            for &(p, u) in &row.utilization {
                assert!(u > 0.0 && u <= 1.0, "{} p={p}: util {u}", row.label);
            }
        }
    }

    #[test]
    fn utilization_does_not_increase_with_processors() {
        // Table 1's trend: utilization decreases (or holds) as p grows,
        // because fixed parallelism is spread over more issue slots.
        let rows = clean(utilization_sweep(Scale::Smoke, false));
        for row in &rows {
            let u: Vec<f64> = row.utilization.iter().map(|&(_, u)| u).collect();
            assert!(
                u[0] >= u[u.len() - 1] * 0.95,
                "{}: utilization should not rise with p ({u:?})",
                row.label
            );
        }
    }
}
