//! Fig. 1 — running times for list ranking on the Cray MTA (left) and the
//! Sun SMP (right), for p = 1, 2, 4, 8, over Ordered and Random lists.
//!
//! Each `(kind, p, n)` cell simulates independently, so the sweep fans
//! out across host cores via [`crate::grid::par_map`]; results are
//! reassembled in cell order, keeping series contents and verbose logs
//! byte-identical to a serial sweep.

use archgraph_core::experiment::Series;
use archgraph_core::machine::{MtaParams, SmpParams};
use archgraph_core::plot::{ascii_plot, PlotOptions};
use archgraph_core::report::{fmt_seconds, Table};
use archgraph_listrank::sim_mta::{self, MtaSimResult};
use archgraph_listrank::sim_smp::{self, SmpSimResult};

use crate::figure::Figure;
use crate::grid::par_map;
use crate::scale::Scale;
use crate::sweep::{assemble_panel, point_cell, CellPoint, Checkpoint, PanelSweep};
use crate::workloads::{make_list, ListKind};

/// Streams per processor the paper's code requests (`use 100 streams`).
pub const MTA_STREAMS: usize = 100;

/// Seed for the Random list layout.
pub const LIST_SEED: u64 = 0xF161;

/// The sweep's cells in serial order: kind-major, then p, then n.
pub fn cells(scale: Scale) -> Vec<(ListKind, usize, usize)> {
    let mut out = Vec::new();
    for kind in ListKind::both() {
        for &p in &scale.procs() {
            for &n in &scale.fig1_sizes() {
                out.push((kind, p, n));
            }
        }
    }
    out
}

/// Simulate one MTA cell.
pub fn mta_cell(kind: ListKind, p: usize, n: usize) -> MtaSimResult {
    let params = MtaParams::mta2();
    let list = make_list(kind, n, LIST_SEED);
    let walks = (n / 10).max(1); // paper: ~10 nodes per walk
    let r = sim_mta::simulate_walk_ranking(&list, &params, p, MTA_STREAMS, walks);
    debug_assert_eq!(r.rank, list.rank_oracle());
    r
}

/// Simulate one SMP cell.
pub fn smp_cell(kind: ListKind, p: usize, n: usize) -> SmpSimResult {
    let params = SmpParams::sun_e4500();
    let list = make_list(kind, n, LIST_SEED);
    let r = sim_smp::simulate_hj(&list, &params, p, 8, LIST_SEED);
    debug_assert_eq!(r.rank, list.rank_oracle());
    r
}

/// `(series label, cell name)` per cell, in [`cells`] order.
fn cell_names(arch: &str, cs: &[(ListKind, usize, usize)]) -> Vec<(String, String)> {
    cs.iter()
        .map(|&(kind, p, n)| {
            (
                format!("{} {} p={p}", arch.to_uppercase(), kind.label()),
                format!("fig1/{arch}/{}/p{p}/n{n}", kind.label()),
            )
        })
        .collect()
}

/// The MTA (left panel) sweep: every cell panic-isolated and (at `--full`
/// scale) checkpointed for resume; series assembled from completed cells.
pub fn mta_sweep(scale: Scale, verbose: bool) -> PanelSweep {
    let cs = cells(scale);
    let ck = Checkpoint::for_sweep("fig1-mta", scale);
    let names = cell_names("mta", &cs);
    let outs = par_map(&cs, |&(kind, p, n)| {
        point_cell(&ck, &format!("fig1/mta/{}/p{p}/n{n}", kind.label()), || {
            let r = mta_cell(kind, p, n);
            CellPoint {
                x: n,
                p,
                seconds: r.seconds,
                log: format!("util {:.0}%", r.report.utilization * 100.0),
            }
        })
    });
    assemble_panel(names, outs, verbose, &ck)
}

/// The SMP (right panel) sweep (see [`mta_sweep`]).
pub fn smp_sweep(scale: Scale, verbose: bool) -> PanelSweep {
    let cs = cells(scale);
    let ck = Checkpoint::for_sweep("fig1-smp", scale);
    let names = cell_names("smp", &cs);
    let outs = par_map(&cs, |&(kind, p, n)| {
        point_cell(&ck, &format!("fig1/smp/{}/p{p}/n{n}", kind.label()), || {
            let r = smp_cell(kind, p, n);
            CellPoint {
                x: n,
                p,
                seconds: r.seconds,
                log: format!(
                    "L1 {:.0}%, mem {:.0}%",
                    r.stats.l1_hit_rate() * 100.0,
                    r.stats.mem_access_rate() * 100.0
                ),
            }
        })
    });
    assemble_panel(names, outs, verbose, &ck)
}

/// Print one panel (`title` is `"MTA"` or `"SMP"`): an n × p table per
/// list kind, then the ASCII plot of every series.
fn print_panel(title: &str, series: &[Series], scale: Scale) {
    println!("\n== Fig. 1 ({title}): list ranking running time ==");
    let procs = scale.procs();
    for kind in ["Ordered", "Random"] {
        let mut t = Table::new(
            std::iter::once("n".to_string()).chain(procs.iter().map(|p| format!("p={p}"))),
        );
        for n in scale.fig1_sizes() {
            let mut row = vec![format!("{n}")];
            for &p in &procs {
                let label = format!("{title} {kind} p={p}");
                let v = series
                    .iter()
                    .find(|s| s.label == label)
                    .and_then(|s| s.at(n, p));
                row.push(v.map(fmt_seconds).unwrap_or_default());
            }
            t.row(row);
        }
        println!("\n  {kind} lists:");
        for line in t.render().lines() {
            println!("    {line}");
        }
    }
    let opts = PlotOptions {
        x_label: "list length n".into(),
        ..Default::default()
    };
    println!("\n{}", ascii_plot(series, &opts));
}

/// Fig. 1 for the drivers: `--bin fig1` is [`Figure::main`] on this.
pub static FIGURE: Figure = Figure {
    name: "fig1",
    header: |_| {},
    mta_sweep,
    smp_sweep,
    print_panel,
    shape_checks: "Paper shape checks: MTA curves identical for Ordered/Random; SMP \
                   Random 3-4x slower than Ordered; both scale with p.",
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
        // 2 kinds x 2 proc counts.
        assert_eq!(mta.len(), 4);
        assert_eq!(smp.len(), 4);
        for s in mta.iter().chain(smp.iter()) {
            assert_eq!(s.points.len(), 2, "two sizes at smoke scale");
            assert!(s.points.iter().all(|pt| pt.seconds > 0.0));
        }
    }

    #[test]
    fn times_grow_with_n() {
        for s in clean(smp_sweep(Scale::Smoke, false)) {
            assert!(
                s.points[1].seconds > s.points[0].seconds,
                "{}: larger lists must take longer",
                s.label
            );
        }
    }

    #[test]
    fn cells_are_kind_major_then_p_then_n() {
        let cs = cells(Scale::Smoke);
        let kinds = ListKind::both().len();
        let ps = Scale::Smoke.procs().len();
        let ns = Scale::Smoke.fig1_sizes().len();
        assert_eq!(cs.len(), kinds * ps * ns);
        assert_eq!(cs[0].0, cs[ns - 1].0);
        assert_eq!(cs[0].1, cs[ns - 1].1, "first chunk shares (kind, p)");
    }
}
