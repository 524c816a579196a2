//! The rayon-parallel sweep grids must be bit-identical to the serial
//! path: same cell order, same simulated quantities, same outputs. This
//! determinism is the foundation the paper-claim checks (C1–C6) stand on.
//! Each test maps one panel's cells through [`grid::par_map`], the path
//! every sweep takes, and through a plain serial iterator.

use archgraph_bench::{fig1, fig2, grid, table1, Scale};

#[test]
fn fig1_mta_grid_parallel_matches_serial() {
    let cs = fig1::cells(Scale::Smoke);
    let run = |&(kind, p, n): &_| fig1::mta_cell(kind, p, n);
    let par = grid::par_map(&cs, run);
    let ser: Vec<_> = cs.iter().map(run).collect();
    assert_eq!(par.len(), ser.len());
    for (a, b) in par.iter().zip(&ser) {
        assert_eq!(a.report, b.report, "RunReport must be bit-identical");
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(a.rank, b.rank);
    }
}

#[test]
fn fig1_smp_grid_parallel_matches_serial() {
    let cs = fig1::cells(Scale::Smoke);
    let run = |&(kind, p, n): &_| fig1::smp_cell(kind, p, n);
    let par = grid::par_map(&cs, run);
    let ser: Vec<_> = cs.iter().map(run).collect();
    assert_eq!(par.len(), ser.len());
    for (a, b) in par.iter().zip(&ser) {
        assert_eq!(a.stats, b.stats, "RunStats must be bit-identical");
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(a.rank, b.rank);
    }
}

#[test]
fn fig2_mta_grid_parallel_matches_serial() {
    let cs = fig2::cells(Scale::Smoke);
    let run = |&(p, n, m): &_| fig2::mta_cell(p, n, m);
    let par = grid::par_map(&cs, run);
    let ser: Vec<_> = cs.iter().map(run).collect();
    assert_eq!(par.len(), ser.len());
    for (a, b) in par.iter().zip(&ser) {
        assert_eq!(a.report, b.report, "RunReport must be bit-identical");
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.iterations, b.iterations);
    }
}

#[test]
fn fig2_smp_grid_parallel_matches_serial() {
    let cs = fig2::cells(Scale::Smoke);
    let run = |&(p, n, m): &_| fig2::smp_cell(p, n, m);
    let par = grid::par_map(&cs, run);
    let ser: Vec<_> = cs.iter().map(run).collect();
    assert_eq!(par.len(), ser.len());
    for (a, b) in par.iter().zip(&ser) {
        assert_eq!(a.stats, b.stats, "RunStats must be bit-identical");
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.iterations, b.iterations);
    }
}

#[test]
fn table1_utilization_grid_parallel_matches_serial() {
    let cs = table1::cells(Scale::Smoke);
    let run = |&(row, p): &_| table1::cell_utilization(Scale::Smoke, row, p);
    let par = grid::par_map(&cs, run);
    let ser: Vec<f64> = cs.iter().map(run).collect();
    assert_eq!(par, ser, "utilization cells must be bit-identical");
}
