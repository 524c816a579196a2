//! Failures are counted against operations attempted, and the rest of
//! the run carries on.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use archgraph_bench::workloads::ListKind;
use archgraph_core::error::with_max_cycles;
use archgraph_perfbench::batch::{Inputs, Job, Runner, Sizes};
use archgraph_perfbench::daemon::{Client, MixRecord, Slot, Spec};
use archgraph_perfbench::trace::Tracer;
use archgraphd::cache::Cache;
use archgraphd::queue::Scheduler;
use archgraphd::server::{self, Endpoint};

fn small_lists() -> Inputs {
    let sizes = Sizes {
        list_n: 2000,
        graph_n: 0,
        graph_m: 0,
        graphs: 0,
    };
    Inputs::build(sizes, 3, false, &mut Tracer::new(false)).0
}

#[test]
fn starved_cycle_budget_is_a_counted_failure() {
    let inp = small_lists();
    let mut run = Runner::new(&inp, &[]);
    let mut tr = Tracer::new(false);
    let job = Job::ListMta(ListKind::Random, 8);
    with_max_cycles(50, || run.run_job(job, &mut tr));
    run.run_job(job, &mut tr);
    assert_eq!(
        (run.tally.attempted, run.tally.failed, run.tally.wrong),
        (2, 1, 0)
    );
    assert!(
        run.tally.failures[0].contains("cycle budget exceeded"),
        "{:?}",
        run.tally.failures
    );
    assert_eq!(run.completed, 1, "the second call completed");
}

#[test]
fn a_panicking_call_is_a_counted_failure() {
    let inp = small_lists();
    let mut run = Runner::new(&inp, &[]);
    // No graph was generated, so the call panics.
    run.run_job(Job::BfsMta(0), &mut Tracer::new(false));
    assert_eq!((run.tally.attempted, run.tally.failed), (1, 1));
    assert!(run.tally.failures[0].contains("panic"));
}

#[test]
fn a_fingerprint_mismatch_is_a_wrong_output() {
    let inp = small_lists();
    let pins = [("listrank.mta/random/p8", 1, 2)];
    let mut run = Runner::new(&inp, &pins);
    run.run_job(Job::ListMta(ListKind::Random, 8), &mut Tracer::new(false));
    assert_eq!((run.tally.failed, run.tally.wrong), (1, 1));
}

#[test]
fn malformed_spec_is_a_counted_failure_and_the_mix_carries_on() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-failures");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("d.sock");
    let listener = server::bind(&Endpoint::Unix(socket.clone())).unwrap();
    let sched = Arc::new(Scheduler::new(
        1,
        64,
        Cache::open(dir.join("cache")),
        archgraphd::sim_runner(),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let daemon = std::thread::spawn(move || server::serve(listener, sched, stop, None, None));

    let mut client = Client::connect(&socket).unwrap();
    let mut rec = MixRecord::default();
    let mut tr = Tracer::new(false);
    let spec = Spec {
        kernel: "fig2",
        machine: "smp",
        p: 2,
        n: 64,
        m: 256,
    };
    rec.submit_malformed(&mut client, r#"[{"kernel":"fig2","machine":"mta","p":0}]"#);
    rec.submit(&mut client, &Slot::Miss(spec.clone()), &mut tr);
    rec.submit(&mut client, &Slot::Hit(spec), &mut tr);
    rec.ping(&mut client, &mut tr);
    let status = client.status().unwrap();
    rec.reconcile(&status);
    rec.verify_in_process();

    assert_eq!(
        (rec.tally.attempted, rec.tally.failed, rec.tally.wrong),
        (3, 1, 0)
    );
    assert!(
        rec.tally.failures[0].contains("rejected"),
        "{:?}",
        rec.tally.failures
    );
    assert_eq!(
        (rec.misses.len(), rec.hits.len(), rec.pings.len()),
        (1, 1, 1)
    );
    assert_eq!(status.get("cache_hits"), Some(&1));

    client.request(r#"{"op":"shutdown"}"#).unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
