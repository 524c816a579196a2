//! NATIVE: the paper's C1/C2 claims checked on *real hardware* — the
//! host CPU is itself a cache-based shared-memory multiprocessor, so the
//! native implementations should (a) scale with threads and (b) rank
//! Ordered lists faster than Random lists.
//!
//! Also benches the sequential baselines and the full set of CC
//! algorithms at one size, giving the cross-algorithm comparison
//! (SV vs Awerbuch–Shiloach vs random mating vs hybrid vs union-find).

mod common;

use common::bench;

use archgraph_bench::workloads::{make_graph, make_list, ListKind};
use archgraph_concomp::awerbuch_shiloach::awerbuch_shiloach;
use archgraph_concomp::hybrid::{hybrid_components, HybridConfig};
use archgraph_concomp::random_mating::random_mating;
use archgraph_concomp::seq::unionfind_components;
use archgraph_concomp::sv_spmd::sv_spmd;
use archgraph_concomp::{shiloach_vishkin, sv_mta_style};
use archgraph_listrank::{helman_jaja, mta_style_rank, sequential_rank, HjConfig, MtaStyleConfig};

fn bench_list_ranking_native() {
    let n = 1 << 21;
    let group = "native/list-ranking";
    for kind in ListKind::both() {
        let list = make_list(kind, n, 31);
        let kl = kind.label();
        bench(&format!("{group}/sequential/{kl}"), || {
            sequential_rank(&list)
        });
        for threads in [2usize, 4, 8] {
            let cfg = HjConfig::with_threads(threads);
            bench(&format!("{group}/helman-jaja-t{threads}/{kl}"), || {
                helman_jaja(&list, &cfg)
            });
        }
        let cfg = MtaStyleConfig::for_list(n, 8);
        bench(&format!("{group}/mta-style-walks-t8/{kl}"), || {
            mta_style_rank(&list, &cfg)
        });
    }
}

fn bench_cc_native() {
    let n = 1 << 17;
    let graph = make_graph(n, 8 * n, 31);
    let group = "native/connected-components";
    bench(&format!("{group}/unionfind-seq"), || {
        unionfind_components(&graph)
    });
    bench(&format!("{group}/sv-alg2"), || shiloach_vishkin(&graph));
    bench(&format!("{group}/sv-alg3"), || sv_mta_style(&graph));
    bench(&format!("{group}/sv-spmd-t4"), || sv_spmd(&graph, 4));
    bench(&format!("{group}/awerbuch-shiloach"), || {
        awerbuch_shiloach(&graph)
    });
    bench(&format!("{group}/random-mating"), || {
        random_mating(&graph, 31)
    });
    bench(&format!("{group}/hybrid"), || {
        hybrid_components(&graph, &HybridConfig::default())
    });
}

fn bench_applications() {
    use archgraph_apps::expr::ExprTree;
    use archgraph_apps::msf::minimum_spanning_forest;
    use archgraph_apps::{euler::Ranker, RootedAnalysis, Tree};
    use archgraph_graph::rng::Rng;

    let group = "native/applications";

    let tree = Tree::random_attachment(1 << 16, 41);
    bench(&format!("{group}/euler-rooted-analytics"), || {
        RootedAnalysis::compute(&tree, 0, Ranker::HelmanJaja(4), 4)
    });

    let expr = ExprTree::random(1 << 14, 43);
    bench(&format!("{group}/expr-eval-sequential"), || {
        expr.eval_sequential()
    });
    bench(&format!("{group}/expr-eval-contraction"), || {
        expr.eval_contraction(4)
    });

    let graph = make_graph(1 << 14, 8 << 14, 47);
    let mut rng = Rng::new(48);
    let weights: Vec<u32> = (0..graph.m()).map(|_| rng.below(1 << 20) as u32).collect();
    bench(&format!("{group}/boruvka-msf"), || {
        minimum_spanning_forest(&graph, &weights)
    });
    bench(&format!("{group}/tarjan-vishkin-biconnectivity"), || {
        archgraph_apps::biconn::biconnected_components(&graph)
    });
}

fn main() {
    bench_list_ranking_native();
    bench_cc_native();
    bench_applications();
}
