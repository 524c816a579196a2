//! `perfbench` — run one workload of the archgraph benchmark and print
//! its metrics; the last line of standard output is the JSON result.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--daemon PATH-TO-archgraphd]
//! ```
//!
//! `perfbench/run.sh` builds this binary and `archgraphd` and passes the
//! daemon's path; run it from the repository root. Spans and the daemon's
//! files go under `perfbench/out`.

use std::path::PathBuf;
use std::process::exit;

use archgraph_perfbench::batch::{self, Batch};
use archgraph_perfbench::stats::Metric;
use archgraph_perfbench::trace::Tracer;
use archgraph_perfbench::{daemon, Outcome, END_TO_END, PER_LAYER, REFUSED_ENV, SELF_TIME_LAYERS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: Option<PathBuf>,
}

/// Where spans and the daemon's socket and cache go.
const OUT_DIR: &str = "perfbench/out";

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload (listrank-mta|graph-mta|graph-smp|daemon-mix) \
         [--seed N] [--seconds S] [--trace 0|1] [--daemon PATH]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: batch::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        daemon: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} requires a value")));
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => {
                a.seed = v
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a positive number"))
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--daemon" => a.daemon = Some(PathBuf::from(v)),
            _ => usage(&format!("unknown argument {flag:?}")),
        }
    }
    if a.workload.is_empty() {
        usage("--workload is required");
    }
    a
}

/// The commit being measured, from `.git` in the working directory.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .map(|l| l[..l.len() - r.len()].trim().to_string())
                })
                .unwrap_or_else(|| format!("{r} (unresolved)")),
            None => head,
        },
        None => "unknown (not a git checkout)".into(),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let args = parse_args();
    let set: Vec<&str> = REFUSED_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to time: {} set; each changes which engine, \
             fault plan or budget is measured. Unset and rerun.",
            set.join(", ")
        );
        exit(2);
    }

    let batch = match args.workload.as_str() {
        "listrank-mta" => Some(Batch::ListrankMta),
        "graph-mta" => Some(Batch::GraphMta),
        "graph-smp" => Some(Batch::GraphSmp),
        "daemon-mix" => None,
        other => usage(&format!("unknown workload {other:?}")),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let provenance = format!(
        r#"{{"workload":"{}","seed":{},"seconds":{},"trace":{},"nproc":{nproc},"cpu":"{}","rev":"{}"}}"#,
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        archgraphd::json::escape(&cpu_model()),
        archgraphd::json::escape(&git_rev()),
    );
    println!("# provenance {provenance}");

    let out = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        exit(1);
    }
    let mut tr = Tracer::new(args.trace);
    let mut o: Outcome = match batch {
        Some(b) => batch::run(b, args.seed, args.seconds, args.trace, &mut tr),
        None => {
            let bin = args
                .daemon
                .clone()
                .unwrap_or_else(|| usage("daemon-mix needs --daemon PATH"));
            let dir = out.join(format!("daemon-{}", std::process::id()));
            let r = daemon::run(&bin, &dir, args.seed, args.seconds, args.trace, &mut tr);
            let _ = std::fs::remove_dir_all(&dir);
            r.unwrap_or_else(|e| {
                eprintln!("perfbench: daemon-mix: {e}");
                exit(1);
            })
        }
    };

    let t = &o.tally;
    o.put(Metric::new(
        "fail_frac",
        "ratio",
        t.failed as f64 / t.attempted.max(1) as f64,
        t.attempted as usize,
        format!("{} failed of {} attempted", t.failed, t.attempted),
    ));
    if args.trace {
        let self_s = tr.self_seconds();
        for (layer, name) in SELF_TIME_LAYERS {
            let v = self_s.get(layer).copied().unwrap_or(0.0);
            o.put(Metric::new(
                name,
                "s",
                v,
                tr.spans().len(),
                "self time over the run",
            ));
        }
        o.put(Metric::new(
            "tracing.spans",
            "count",
            tr.spans().len() as f64,
            1,
            "spans recorded",
        ));
        let path = out.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tr.write(&path, &provenance) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                exit(1);
            }
        }
    }

    // Everything formed, for reading; the JSON line holds the mode's list.
    for m in o.metrics.values() {
        println!(
            "# {:<44} {:>16.6} {:<6} n={:<6} {}",
            m.name, m.value, m.unit, m.samples, m.basis
        );
    }
    let t = &o.tally;
    for f in &t.failures {
        println!("# failure: {f}");
    }
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = o
        .select(list)
        .iter()
        .map(|m| {
            format!(
                r#""{}":{{"value":{},"unit":"{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        t.wrong == 0 && t.attempted > 0,
        t.attempted,
        t.failed,
        metrics.join(",")
    );
}
