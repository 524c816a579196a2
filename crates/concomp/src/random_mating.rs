//! Randomized "random-mating" contraction (Reif; Phillips) — the
//! randomized baseline in Greiner's comparison set (paper §4).
//!
//! Each round every component root flips a coin. For every edge whose
//! endpoints lie in different components, if the first endpoint's root
//! flipped TAIL and the second's flipped HEAD, the tail root hooks onto
//! the head root (tails mate with heads — acyclic by construction since
//! heads never move). A full shortcut after each round restores rooted
//! stars. In expectation a constant fraction of components merge per
//! round, giving `O(log n)` rounds with high probability.
//!
//! Rounds are synchronous: the edge pass reads the labels as they stood
//! at the start of the round, and a TAIL root with several HEAD
//! neighbours hooks onto the smallest, so the parallel labels equal the
//! sequential reference [`random_mating_rounds`] for every seed.

use std::sync::atomic::{AtomicU32, Ordering};

use archgraph_graph::edgelist::{Edge, EdgeList};
use archgraph_graph::rng::mix64;
use archgraph_graph::Node;
use rayon::prelude::*;

/// Hook-array entry for a root that did not hook this round.
const NO_HOOK: Node = Node::MAX;

/// Generous whp bound on rounds before we declare a bug.
fn round_bound(n: usize) -> usize {
    40 * (usize::BITS - n.max(2).leading_zeros()) as usize + 100
}

/// The coin for `root` in `round` under `seed`: true = HEAD.
#[inline]
fn coin(root: Node, round: usize, seed: u64) -> bool {
    mix64(seed ^ ((round as u64) << 32) ^ root as u64) & 1 == 1
}

/// One synchronous mating round over the rooted-star labels `d`: every
/// TAIL root with a HEAD neighbour hooks onto the smallest such
/// neighbour, read from the labels as they stood at the start of the
/// round; then every vertex moves to its root's hook, which restores
/// rooted stars (a HEAD root never moves).
pub(crate) fn mating_round(edges: &[Edge], d: &mut [Node], round: usize, seed: u64) {
    let hook: Vec<AtomicU32> = (0..d.len()).map(|_| AtomicU32::new(NO_HOOK)).collect();
    let labels = &*d;
    // `Relaxed` suffices: each hook is only a value, and the pass's join
    // orders every `fetch_min` before the loads below.
    edges.par_iter().for_each(|e| {
        for (u, v) in [(e.u, e.v), (e.v, e.u)] {
            let (ru, rv) = (labels[u as usize], labels[v as usize]);
            if ru != rv && !coin(ru, round, seed) && coin(rv, round, seed) {
                hook[ru as usize].fetch_min(rv, Ordering::Relaxed);
            }
        }
    });
    d.par_iter_mut().for_each(|x| {
        let h = hook[*x as usize].load(Ordering::Relaxed);
        if h != NO_HOOK {
            *x = h;
        }
    });
}

/// Connected components by random mating. Returns rooted-star labels.
/// Deterministic for a fixed `seed`: equal to [`random_mating_rounds`]'
/// labels.
pub fn random_mating(g: &EdgeList, seed: u64) -> Vec<Node> {
    let mut d: Vec<Node> = (0..g.n as Node).collect();
    let bound = round_bound(g.n);
    let mut round = 0usize;
    // Termination: no edge crosses two components.
    while g
        .edges
        .par_iter()
        .any(|e| d[e.u as usize] != d[e.v as usize])
    {
        round += 1;
        assert!(round <= bound, "random mating exceeded its whp round bound");
        mating_round(&g.edges, &mut d, round, seed);
    }
    d
}

/// The sequential reference for [`random_mating`], with the round count
/// for benches: `(labels, rounds)`.
pub fn random_mating_rounds(g: &EdgeList, seed: u64) -> (Vec<Node>, usize) {
    let n = g.n;
    let mut d: Vec<Node> = (0..n as Node).collect();
    let bound = round_bound(n);
    let mut round = 0usize;
    loop {
        let crossing = g.edges.iter().any(|e| d[e.u as usize] != d[e.v as usize]);
        if !crossing {
            break;
        }
        round += 1;
        assert!(round <= bound);
        let mut hook = vec![NO_HOOK; n];
        for e in &g.edges {
            for (u, v) in [(e.u, e.v), (e.v, e.u)] {
                let ru = d[u as usize];
                let rv = d[v as usize];
                if ru != rv && !coin(ru, round, seed) && coin(rv, round, seed) {
                    hook[ru as usize] = hook[ru as usize].min(rv);
                }
            }
        }
        for x in d.iter_mut() {
            if hook[*x as usize] != NO_HOOK {
                *x = hook[*x as usize];
            }
        }
    }
    (d, round)
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_graph::gen;
    use archgraph_graph::unionfind::{connected_components, same_partition};

    fn check(g: &EdgeList, seed: u64) {
        let labels = random_mating(g, seed);
        for &p in &labels {
            assert_eq!(labels[p as usize], p, "not rooted stars");
        }
        assert!(same_partition(&labels, &connected_components(g)));
    }

    #[test]
    fn structured_graphs() {
        check(&gen::path(100), 1);
        check(&gen::cycle(77), 2);
        check(&gen::star(50), 3);
        check(&gen::mesh2d(9, 9), 4);
        check(&gen::complete(12), 5);
    }

    #[test]
    fn random_graphs_and_seeds() {
        for seed in 0..4u64 {
            check(&gen::random_gnm(300, 500, 10 + seed), seed);
        }
    }

    #[test]
    fn degenerate_inputs() {
        check(&EdgeList::empty(0), 0);
        check(&EdgeList::empty(9), 0);
        check(&gen::with_isolated(&gen::cycle(12), 6), 1);
    }

    #[test]
    fn rounds_are_logarithmic_in_practice() {
        let g = gen::path(2048);
        let (labels, rounds) = random_mating_rounds(&g, 7);
        assert!(same_partition(&labels, &connected_components(&g)));
        // whp O(log n): 11 bits, wide margin.
        assert!(rounds < 80, "rounds = {rounds}");
        assert!(rounds >= 5, "a long path needs several mating rounds");
    }

    #[test]
    fn deterministic_per_seed() {
        let g = gen::random_gnm(200, 300, 3);
        assert_eq!(random_mating(&g, 42), random_mating(&g, 42));
    }

    #[test]
    fn parallel_labels_equal_the_sequential_reference() {
        for seed in [3u64, 4, 5] {
            let g = gen::random_gnm(20_000, 40_000, seed);
            for coin_seed in [42u64, 7] {
                assert_eq!(
                    random_mating(&g, coin_seed),
                    random_mating_rounds(&g, coin_seed).0,
                    "graph seed {seed}, coin seed {coin_seed}"
                );
            }
        }
    }

    #[test]
    fn coin_is_balanced() {
        let heads = (0..10_000u32).filter(|&r| coin(r, 1, 99)).count();
        assert!((4_500..5_500).contains(&heads), "heads = {heads}");
    }
}
