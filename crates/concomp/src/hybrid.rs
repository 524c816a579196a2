//! Greiner-style hybrid: random-mating rounds, then Shiloach–Vishkin.
//!
//! Greiner's best results on the Cray Y-MP/C90 came from a hybrid of his
//! implementations (paper §4): randomized contraction is cheap while
//! components are plentiful, but its coin-flip luck has a long tail; a
//! deterministic SV finish avoids it. We run a fixed number of mating
//! rounds (collapsing most of the graph), then hand the current
//! rooted-star labeling to the Alg. 3 grafting loop.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use archgraph_graph::edgelist::EdgeList;
use archgraph_graph::Node;
use rayon::prelude::*;

/// Configuration for [`hybrid_components`].
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Random-mating rounds before switching to SV.
    pub mating_rounds: usize,
    /// Seed for the mating coins.
    pub seed: u64,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            mating_rounds: 3,
            seed: 0xC01,
        }
    }
}

/// Connected components: a few random-mating rounds, then SV (Alg. 3
/// grafting) from the partially contracted labeling.
pub fn hybrid_components(g: &EdgeList, cfg: &HybridConfig) -> Vec<Node> {
    let n = g.n;
    let edges = &g.edges;

    // Phase 1: mating rounds.
    let mut labels: Vec<Node> = (0..n as Node).collect();
    for round in 1..=cfg.mating_rounds {
        crate::random_mating::mating_round(edges, &mut labels, round, cfg.seed);
    }
    let d: Vec<AtomicU32> = labels.into_iter().map(AtomicU32::new).collect();

    // Phase 2: SV grafting (Alg. 3 style) from the current labeling.
    let lg = (usize::BITS - n.max(2).leading_zeros()) as usize;
    let bound = lg * lg + 32;
    let mut iters = 0usize;
    loop {
        iters += 1;
        assert!(iters <= bound, "hybrid SV phase exceeded iteration bound");
        let grafted = AtomicBool::new(false);
        edges.par_iter().for_each(|e| {
            for (u, v) in [(e.u, e.v), (e.v, e.u)] {
                let du = d[u as usize].load(Ordering::Relaxed);
                let dv = d[v as usize].load(Ordering::Relaxed);
                if du < dv && d[dv as usize].load(Ordering::Relaxed) == dv {
                    d[dv as usize].store(du, Ordering::Relaxed);
                    grafted.store(true, Ordering::Relaxed);
                }
            }
        });
        if !grafted.load(Ordering::Relaxed) {
            break;
        }
        (0..n).into_par_iter().for_each(|i| loop {
            let p = d[i].load(Ordering::Relaxed);
            let gp = d[p as usize].load(Ordering::Relaxed);
            if p == gp {
                break;
            }
            d[i].store(gp, Ordering::Relaxed);
        });
    }

    d.into_iter().map(AtomicU32::into_inner).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_graph::gen;
    use archgraph_graph::unionfind::{connected_components, same_partition};

    fn check(g: &EdgeList) {
        let labels = hybrid_components(g, &HybridConfig::default());
        for &p in &labels {
            assert_eq!(labels[p as usize], p, "not rooted stars");
        }
        assert!(same_partition(&labels, &connected_components(g)));
    }

    #[test]
    fn structured_graphs() {
        check(&gen::path(128));
        check(&gen::cycle(129));
        check(&gen::star(60));
        check(&gen::mesh2d(8, 8));
        check(&gen::binary_tree(200));
    }

    #[test]
    fn random_graphs() {
        for (n, m, seed) in [(200, 150, 1u64), (400, 800, 2), (600, 4000, 3)] {
            check(&gen::random_gnm(n, m, seed));
        }
    }

    #[test]
    fn degenerate_inputs() {
        check(&EdgeList::empty(0));
        check(&EdgeList::empty(6));
        check(&gen::planted_components(5, 7, 1, 11));
    }

    #[test]
    fn zero_mating_rounds_is_pure_sv() {
        let g = gen::random_gnm(300, 500, 4);
        let cfg = HybridConfig {
            mating_rounds: 0,
            seed: 0,
        };
        let labels = hybrid_components(&g, &cfg);
        assert!(same_partition(&labels, &crate::sv_mta::sv_mta_style(&g)));
    }

    #[test]
    fn many_mating_rounds_still_correct() {
        let g = gen::random_gnm(200, 250, 5);
        let cfg = HybridConfig {
            mating_rounds: 20,
            seed: 77,
        };
        check(&g);
        let labels = hybrid_components(&g, &cfg);
        assert!(same_partition(&labels, &connected_components(&g)));
    }
}
