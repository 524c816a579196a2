//! Ablation: work efficiency of list-ranking algorithms.
//!
//! Wyllie's pointer jumping does Θ(n log n) work; Helman–JáJá and the
//! walk algorithm do Θ(n). On a machine where time tracks work (any
//! machine, once latency is accounted), the work-efficient algorithms
//! must win and the gap must *grow* with n — the design rationale behind
//! the paper's algorithm choices.

mod common;

use archgraph_bench::workloads::{make_list, ListKind};
use archgraph_listrank::wyllie::wyllie_rank;
use archgraph_listrank::{helman_jaja, mta_style_rank, HjConfig, MtaStyleConfig};

fn main() {
    for exp in [16usize, 18, 20] {
        let n = 1 << exp;
        let list = make_list(ListKind::Random, n, 37);
        common::bench(
            &format!("ablation/work-efficiency/wyllie-nlogn/{n}"),
            || wyllie_rank(&list),
        );
        let hj = HjConfig::with_threads(4);
        common::bench(
            &format!("ablation/work-efficiency/helman-jaja-n/{n}"),
            || helman_jaja(&list, &hj),
        );
        let walks = MtaStyleConfig::for_list(n, 4);
        common::bench(&format!("ablation/work-efficiency/mta-walks-n/{n}"), || {
            mta_style_rank(&list, &walks)
        });
    }
}
