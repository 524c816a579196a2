//! The benchmark's kernel calls measure the same program the bench
//! regression suite pins: at the suite's sizes and seeds they reproduce
//! `BENCH_archgraph.json`'s fingerprints.

use archgraph_bench::cells::sizes::{M_GRAPH, N_GRAPH, N_LIST};
use archgraph_bench::workloads::ListKind;
use archgraph_bench::{fig1, fig2};
use archgraph_perfbench::batch::{Batch, Inputs, Job, Sizes, PINNED};
use archgraph_perfbench::trace::Tracer;

fn call(job: Job, inp: &Inputs) -> (u64, u64) {
    let out = job.run(inp).expect("the call succeeds");
    job.check(inp, &out).expect("the output matches its oracle");
    out.sim.fingerprint()
}

#[test]
fn walk_ranking_reproduces_fig1_mta_random_p8() {
    let sizes = Sizes {
        list_n: N_LIST,
        graph_n: 0,
        graph_m: 0,
        graphs: 0,
    };
    let (inp, _) = Inputs::build(sizes, fig1::LIST_SEED, false, &mut Tracer::new(false));
    assert_eq!(
        call(Job::ListMta(ListKind::Random, 8), &inp),
        (146045, 1499996)
    );
}

#[test]
fn smp_sv_reproduces_fig2_smp_p8() {
    let sizes = Sizes {
        list_n: 0,
        graph_n: N_GRAPH,
        graph_m: M_GRAPH,
        graphs: 1,
    };
    let (inp, _) = Inputs::build(sizes, fig2::GRAPH_SEED, false, &mut Tracer::new(false));
    assert_eq!(call(Job::SvSmp(0), &inp), (518436, 271308));
}

#[test]
fn sync_twins_reproduce_the_baseline_cells() {
    let sizes = Sizes {
        list_n: 0,
        graph_n: 0,
        graph_m: 0,
        graphs: 0,
    };
    let (inp, _) = Inputs::build(sizes, 7, true, &mut Tracer::new(false));
    // sync/mta/p8 and sync/mta-partitioned/w4/p8+struct, checksum 209725440.
    assert_eq!(inp.sync_checksum, Some(209725440));
    assert_eq!(call(Job::Sync { faulted: false }, &inp), (14258, 168747));
    assert_eq!(call(Job::Sync { faulted: true }, &inp), (19040, 178480));
}

#[test]
fn every_job_has_a_default_seed_pin() {
    for b in [Batch::ListrankMta, Batch::GraphMta, Batch::GraphSmp] {
        for job in b.jobs() {
            let label = job.label();
            assert!(PINNED.iter().any(|p| p.0 == label), "{label} is not pinned");
        }
    }
}
