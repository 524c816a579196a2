//! Ablation ABL-DYN: dynamic (`int_fetch_add`) vs block walk scheduling
//! on the simulated MTA.
//!
//! §3: "If threads are assigned to streams in blocks, the work per stream
//! will not be balanced ... To avoid load imbalances, we instruct the
//! compiler to dynamically schedule the iterations of the outer loop."
//! We build a *skewed* workload — iterations in the first half chase long
//! dependent-load chains — and compare both schedules' simulated cycles.

mod common;

use archgraph_core::MtaParams;
use archgraph_mta_sim::isa::{ProgramBuilder, Reg};
use archgraph_mta_sim::machine::MtaMachine;
use archgraph_mta_sim::parloop::{block_chunk, block_loop, dynamic_loop, LoopRegs};

const N: usize = 2048;
const STREAMS: usize = 32;

fn run_once(dynamic: bool) -> u64 {
    let params = MtaParams::mta2();
    let mut m = MtaMachine::with_memory_words(params, 1, 1 << 16);
    let data = m.memory_mut().alloc(N + 64);
    let counter = m.memory_mut().alloc(1);
    let mut b = ProgramBuilder::new();
    let regs = LoopRegs::standard();
    let body = |b: &mut ProgramBuilder| {
        let (chain, k, half, len) = (Reg(8), Reg(9), Reg(10), Reg(11));
        b.li(half, (N / 2) as i64);
        b.li(len, 1);
        let light = b.bge_fwd(regs.idx, half);
        b.li(len, 16);
        b.bind(light);
        b.li(k, 0);
        b.mov(chain, Reg(0));
        let top = b.here();
        b.load(chain, chain, data as i64);
        b.addi(k, k, 1);
        b.blt(k, len, top);
    };
    if dynamic {
        dynamic_loop(&mut b, counter, N as i64, regs, body);
    } else {
        block_loop(&mut b, N as i64, block_chunk(N, STREAMS), regs, body);
    }
    b.halt();
    let prog = b.build();
    m.run(&prog, STREAMS, |_, _| {}).cycles
}

fn bench_walk_scheduling_algorithm_level() {
    use archgraph_bench::workloads::{make_list, ListKind};
    use archgraph_listrank::sim_mta::{simulate_walk_ranking_scheduled, WalkSchedule};
    let n = 1 << 14;
    let list = make_list(ListKind::Random, n, 41);
    let params = MtaParams::mta2();
    let schedules = [
        ("dynamic", WalkSchedule::Dynamic),
        ("block", WalkSchedule::Block),
    ];
    for (name, sched) in schedules {
        let r = simulate_walk_ranking_scheduled(&list, &params, 1, 100, n / 10, sched);
        println!(
            "ablation/walk-schedule {name}: {:.4} s simulated, utilization {:.0}%",
            r.seconds,
            r.report.utilization * 100.0
        );
    }
    for (name, sched) in schedules {
        common::bench(&format!("ablation/walk-schedule/{name}"), || {
            simulate_walk_ranking_scheduled(&list, &params, 1, 100, n / 10, sched).seconds
        });
    }
}

fn bench_scheduling() {
    let dyn_cycles = run_once(true);
    let blk_cycles = run_once(false);
    println!(
        "ablation/scheduling: dynamic {dyn_cycles} cycles vs block {blk_cycles} cycles \
         ({:.2}x advantage for int_fetch_add scheduling)",
        blk_cycles as f64 / dyn_cycles as f64
    );
    for (name, dynamic) in [("dynamic", true), ("block", false)] {
        common::bench(&format!("ablation/scheduling/{name}"), || run_once(dynamic));
    }
}

fn main() {
    bench_scheduling();
    bench_walk_scheduling_algorithm_level();
}
