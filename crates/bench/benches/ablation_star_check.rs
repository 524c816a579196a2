//! Ablation ABL-STAR: Alg. 2 (star check, single pointer jump) vs Alg. 3
//! (no star check, full shortcut).
//!
//! §4: eliminating the star check avoids "a significant amount of
//! computation and memory accesses" per iteration, at the price of full
//! shortcutting. We compare the two natively on random graphs and on an
//! adversarial long path, and print the grafting-iteration counts.

mod common;

use archgraph_bench::workloads::make_graph;
use archgraph_concomp::sv::{shiloach_vishkin, shiloach_vishkin_iters};
use archgraph_concomp::sv_mta::{sv_mta_style, sv_mta_style_iters};
use archgraph_graph::gen;

fn main() {
    let n = 1 << 14;
    let random = make_graph(n, 8 * n, 23);
    let chain = gen::path(n);

    for (wname, g) in [("random", &random), ("path", &chain)] {
        let (_, it2) = shiloach_vishkin_iters(g);
        let (_, it3) = sv_mta_style_iters(g);
        println!("ablation/star-check {wname}: Alg2 {it2} iters, Alg3 {it3} iters");
    }

    for (wname, g) in [("random", &random), ("path", &chain)] {
        common::bench(
            &format!("ablation/star-check/alg2-star-check/{wname}"),
            || shiloach_vishkin(g),
        );
        common::bench(
            &format!("ablation/star-check/alg3-full-shortcut/{wname}"),
            || sv_mta_style(g),
        );
    }
}
