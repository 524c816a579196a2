//! Smoke runs of every figure/table harness at the smallest scale:
//! each must produce full series with positive, size-monotone times.

use archgraph_bench::table1::{TableSweep, UtilizationRow};
use archgraph_bench::{fig1, fig2, table1, PanelSweep, Scale};
use archgraph_core::experiment::Series;

/// The sweep's series, after asserting every cell completed.
fn clean(sw: PanelSweep) -> Vec<Series> {
    assert!(sw.failures.is_empty(), "{:?}", sw.failures);
    sw.series
}

/// The table's rows, after asserting every cell completed.
fn clean_rows(sw: TableSweep) -> Vec<UtilizationRow> {
    assert!(sw.failures.is_empty(), "{:?}", sw.failures);
    sw.rows
}

#[test]
fn fig1_regenerates_both_panels() {
    let mta = clean(fig1::mta_sweep(Scale::Smoke, false));
    let smp = clean(fig1::smp_sweep(Scale::Smoke, false));
    assert_eq!(mta.len(), 4);
    assert_eq!(smp.len(), 4);
    for s in mta.iter().chain(smp.iter()) {
        assert!(!s.points.is_empty(), "{} empty", s.label);
        assert!(s.points.iter().all(|p| p.seconds > 0.0));
        // Monotone in n within each series.
        for w in s.points.windows(2) {
            assert!(
                w[1].seconds > w[0].seconds * 0.8,
                "{}: time should grow with n",
                s.label
            );
        }
    }
}

#[test]
fn fig2_regenerates_both_panels() {
    let mta = clean(fig2::mta_sweep(Scale::Smoke, false));
    let smp = clean(fig2::smp_sweep(Scale::Smoke, false));
    assert_eq!(mta.len(), 2);
    assert_eq!(smp.len(), 2);
    for s in smp.iter() {
        let first = s.points.first().unwrap().seconds;
        let last = s.points.last().unwrap().seconds;
        assert!(last > first, "{}: denser graphs take longer", s.label);
    }
    for s in mta.iter() {
        assert!(s.points.iter().all(|p| p.seconds > 0.0));
    }
}

#[test]
fn table1_regenerates_all_rows() {
    let rows = clean_rows(table1::utilization_sweep(Scale::Smoke, false));
    assert_eq!(rows.len(), 3);
    for r in &rows {
        assert!(!r.utilization.is_empty());
        for &(p, u) in &r.utilization {
            assert!(u > 0.0 && u <= 1.0, "{} p={p}: {u}", r.label);
        }
    }
}

#[test]
fn smp_figures_dominate_mta_figures() {
    // Even at smoke scale the SMP panels should sit above the MTA panels
    // at matching points (the paper's cross-panel comparison).
    let mta = clean(fig1::mta_sweep(Scale::Smoke, false));
    let smp = clean(fig1::smp_sweep(Scale::Smoke, false));
    for kind in ["Ordered", "Random"] {
        for p in [1usize, 2] {
            let m = mta
                .iter()
                .find(|s| s.label == format!("MTA {kind} p={p}"))
                .unwrap();
            let s = smp
                .iter()
                .find(|s| s.label == format!("SMP {kind} p={p}"))
                .unwrap();
            for pt in &m.points {
                let smp_t = s.at(pt.n, pt.p).unwrap();
                assert!(
                    smp_t > pt.seconds,
                    "SMP should be slower at {kind} n={} p={}",
                    pt.n,
                    pt.p
                );
            }
        }
    }
}
