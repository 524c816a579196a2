//! Ablation ABL-S: the Helman–JáJá sublist count.
//!
//! The paper chooses `s = 8p` (§3 step 2: `s = Ω(p log n)`, "our
//! implementation uses s = 8p"). Too few sublists per thread → load
//! imbalance in the walk phase; too many → the sequential sublist-prefix
//! pass and the marking overhead grow. This bench sweeps sublists-per-
//! thread on the *native* Helman–JáJá implementation.

mod common;

use archgraph_bench::workloads::{make_list, ListKind};
use archgraph_listrank::{helman_jaja, HjConfig};

fn main() {
    let n = 1 << 20;
    let list = make_list(ListKind::Random, n, 17);
    let threads = 4;
    for spt in [1usize, 2, 4, 8, 16, 32] {
        let cfg = HjConfig {
            threads,
            sublists_per_thread: spt,
            seed: 17,
        };
        common::bench(&format!("ablation/sublists-per-thread/{spt}"), || {
            helman_jaja(&list, &cfg)
        });
    }
}
