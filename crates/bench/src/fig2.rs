//! Fig. 2 — running times for connected components on the Cray MTA (left)
//! and the Sun SMP (right), random graph with fixed `n` and `m` swept
//! from 4n to 20n, p = 1, 2, 4, 8.
//!
//! Like Fig. 1, the `(p, m)` cells simulate independently and fan out
//! across host cores; assembly preserves the serial order and output.

use archgraph_concomp::sim_mta::{self, CcMtaSimResult};
use archgraph_concomp::sim_smp::{self, CcSmpSimResult};
use archgraph_core::experiment::Series;
use archgraph_core::machine::{MtaParams, SmpParams};
use archgraph_core::plot::{ascii_plot, PlotOptions};
use archgraph_core::report::{fmt_seconds, Table};
use archgraph_graph::unionfind::{connected_components, same_partition};

use crate::figure::Figure;
use crate::grid::par_map;
use crate::scale::Scale;
use crate::sweep::{assemble_panel, point_cell, CellPoint, Checkpoint, PanelSweep};
use crate::workloads::make_graph;

/// Streams per processor for the CC kernel.
pub const MTA_STREAMS: usize = 100;

/// Seed for the random graphs.
pub const GRAPH_SEED: u64 = 0xF162;

/// The sweep's cells in serial order: p-major, then m (n is fixed).
pub fn cells(scale: Scale) -> Vec<(usize, usize, usize)> {
    let (n, ms) = scale.fig2_sizes();
    let mut out = Vec::new();
    for &p in &scale.procs() {
        for &m in &ms {
            out.push((p, n, m));
        }
    }
    out
}

/// Simulate one MTA cell.
pub fn mta_cell(p: usize, n: usize, m: usize) -> CcMtaSimResult {
    let params = MtaParams::mta2();
    let g = make_graph(n, m, GRAPH_SEED);
    let r = sim_mta::simulate_sv_mta(&g, &params, p, MTA_STREAMS);
    debug_assert!(same_partition(&r.labels, &connected_components(&g)));
    r
}

/// Simulate one SMP cell.
pub fn smp_cell(p: usize, n: usize, m: usize) -> CcSmpSimResult {
    let params = SmpParams::sun_e4500();
    let g = make_graph(n, m, GRAPH_SEED);
    let r = sim_smp::simulate_sv(&g, &params, p);
    debug_assert!(same_partition(&r.labels, &connected_components(&g)));
    r
}

/// `(series label, cell name)` per cell, in [`cells`] order.
fn cell_names(arch: &str, cs: &[(usize, usize, usize)]) -> Vec<(String, String)> {
    cs.iter()
        .map(|&(p, n, m)| {
            (
                format!("{} CC p={p}", arch.to_uppercase()),
                format!("fig2/{arch}/p{p}/n{n}/m{m}"),
            )
        })
        .collect()
}

/// The MTA (left panel) sweep: every cell panic-isolated and (at `--full`
/// scale) checkpointed for resume; series assembled from completed cells.
pub fn mta_sweep(scale: Scale, verbose: bool) -> PanelSweep {
    let cs = cells(scale);
    let ck = Checkpoint::for_sweep("fig2-mta", scale);
    let names = cell_names("mta", &cs);
    let outs = par_map(&cs, |&(p, n, m)| {
        point_cell(&ck, &format!("fig2/mta/p{p}/n{n}/m{m}"), || {
            let r = mta_cell(p, n, m);
            CellPoint {
                x: m,
                p,
                seconds: r.seconds,
                log: format!(
                    "{} iters, util {:.0}%",
                    r.iterations,
                    r.report.utilization * 100.0
                ),
            }
        })
    });
    assemble_panel(names, outs, verbose, &ck)
}

/// The SMP (right panel) sweep (see [`mta_sweep`]).
pub fn smp_sweep(scale: Scale, verbose: bool) -> PanelSweep {
    let cs = cells(scale);
    let ck = Checkpoint::for_sweep("fig2-smp", scale);
    let names = cell_names("smp", &cs);
    let outs = par_map(&cs, |&(p, n, m)| {
        point_cell(&ck, &format!("fig2/smp/p{p}/n{n}/m{m}"), || {
            let r = smp_cell(p, n, m);
            CellPoint {
                x: m,
                p,
                seconds: r.seconds,
                log: format!("{} iters", r.iterations),
            }
        })
    });
    assemble_panel(names, outs, verbose, &ck)
}

/// The line printed before the first panel: the graph's sizes.
fn print_header(scale: Scale) {
    let (n, _) = scale.fig2_sizes();
    println!("random graph: n = {n}, m = 4n .. 20n (paper: n = 1M, m = 4M..20M)");
}

/// Print one panel (`title` is `"MTA"` or `"SMP"`): an m × p table, then
/// the ASCII plot of every series.
fn print_panel(title: &str, series: &[Series], scale: Scale) {
    println!("\n== Fig. 2 ({title}): connected components running time ==");
    let (_, ms) = scale.fig2_sizes();
    let procs = scale.procs();
    let mut t =
        Table::new(std::iter::once("m".to_string()).chain(procs.iter().map(|p| format!("p={p}"))));
    for m in ms {
        let mut row = vec![format!("{m}")];
        for &p in &procs {
            let label = format!("{title} CC p={p}");
            let v = series
                .iter()
                .find(|s| s.label == label)
                .and_then(|s| s.at(m, p));
            row.push(v.map(fmt_seconds).unwrap_or_default());
        }
        t.row(row);
    }
    for line in t.render().lines() {
        println!("  {line}");
    }
    let opts = PlotOptions {
        x_label: "edges m".into(),
        ..Default::default()
    };
    println!("\n{}", ascii_plot(series, &opts));
}

/// Fig. 2 for the drivers: `--bin fig2` is [`Figure::main`] on this.
pub static FIGURE: Figure = Figure {
    name: "fig2",
    header: print_header,
    mta_sweep,
    smp_sweep,
    print_panel,
    shape_checks: "Paper shape checks: both machines scale with problem size and p; \
                   the MTA is 5-6x faster than the SMP.",
};

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(sw: PanelSweep) -> Vec<Series> {
        assert!(sw.failures.is_empty(), "{:?}", sw.failures);
        sw.series
    }

    #[test]
    fn smoke_series_have_expected_shape() {
        let mta = clean(mta_sweep(Scale::Smoke, false));
        let smp = clean(smp_sweep(Scale::Smoke, false));
        assert_eq!(mta.len(), 2, "p = 1, 2 at smoke scale");
        assert_eq!(smp.len(), 2);
        for s in mta.iter().chain(smp.iter()) {
            assert_eq!(s.points.len(), 5, "five edge counts");
            assert!(s.points.iter().all(|pt| pt.seconds > 0.0));
        }
    }

    #[test]
    fn times_grow_with_m() {
        for s in clean(smp_sweep(Scale::Smoke, false)) {
            let first = crate::guard::require_first(&s.points, &s.label)
                .expect("series has points")
                .seconds;
            let last = crate::guard::require_last(&s.points, &s.label)
                .expect("series has points")
                .seconds;
            assert!(last > first, "{}: denser graphs must take longer", s.label);
        }
    }
}
