//! Ablation ABL-GRAIN: nodes-per-walk on the simulated MTA.
//!
//! §3: "by using 100 streams per processor and approximately 10 list
//! nodes per walk, we achieve almost 100% utilization — so a linked list
//! of length 1000p fully utilizes an MTA system with p processors."
//! Sweeping nodes-per-walk trades walk-claim overhead (small walks)
//! against starvation (few walks); the sweet spot should sit near the
//! paper's 10.

mod common;

use archgraph_bench::workloads::{make_list, ListKind};
use archgraph_core::machine::MtaParams;
use archgraph_listrank::sim_mta::simulate_walk_ranking;

fn main() {
    let n = 1 << 14;
    let list = make_list(ListKind::Random, n, 29);
    let params = MtaParams::mta2();
    let p = 1;

    println!("ablation/walk-grain (n = {n}, p = {p}, 100 streams):");
    for nodes_per_walk in [2usize, 5, 10, 40, 160, 640] {
        let walks = (n / nodes_per_walk).max(1);
        let r = simulate_walk_ranking(&list, &params, p, 100, walks);
        println!(
            "  {nodes_per_walk:4} nodes/walk: {:.4} s, utilization {:.0}%",
            r.seconds,
            r.report.utilization * 100.0
        );
    }

    for nodes_per_walk in [5usize, 10, 160] {
        let walks = (n / nodes_per_walk).max(1);
        common::bench(&format!("ablation/walk-grain/{nodes_per_walk}"), || {
            simulate_walk_ranking(&list, &params, p, 100, walks).seconds
        });
    }
}
