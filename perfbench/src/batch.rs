//! The batch workloads: a fixed job list of kernel calls, run serially
//! pass after pass, each output checked against its oracle outside the
//! timed region.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use archgraph_bench::cells::sizes::{M_GRAPH, N_GRAPH};
use archgraph_bench::kernels::{self, sync_mta_cell};
use archgraph_bench::workloads::{make_graph, make_list, ListKind};
use archgraph_coloring::seq::validate_coloring;
use archgraph_core::machine::{MtaParams, SmpParams};
use archgraph_graph::bfs::bfs_levels;
use archgraph_graph::csr::Csr;
use archgraph_graph::edgelist::EdgeList;
use archgraph_graph::list::LinkedList;
use archgraph_graph::unionfind::{connected_components, same_partition};
use archgraph_graph::Node;
use archgraph_mta_sim::report::RunReport;
use archgraph_mta_sim::{with_engine, with_fault_plan, with_workers, FaultPlan, MtaEngine};
use archgraph_smp_sim::stats::RunStats;

use crate::stats::{median, Metric};
use crate::trace::Tracer;
use crate::Outcome;

/// Streams per simulated MTA processor (the paper's `use 100 streams`).
const MTA_STREAMS: usize = 100;

/// Processor count of every graph job.
pub const P: usize = 8;

/// Helman–JáJá sublists per processor (the fig1 convention).
const HJ_SUBLISTS: usize = 8;

/// The bench suite's structural fault plan, run on the second `sync` twin.
const STRUCT_PLAN: &str = "stall=30,stall-period=300,link-latency=60,brownout=2,rate=1:11";

/// Seed whose fingerprints are pinned in [`PINNED`].
pub const DEFAULT_SEED: u64 = 1;

/// The three batch workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// Walk list ranking on the MTA.
    ListrankMta,
    /// SV, coloring, BFS and the `sync` twins on the MTA at p = 8.
    GraphMta,
    /// Helman–JáJá, SV, coloring and BFS on the SMP at p = 8.
    GraphSmp,
}

/// Input sizes of a workload (0 where it has no such input).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// List length.
    pub list_n: usize,
    /// Vertices per graph.
    pub graph_n: usize,
    /// Edges per graph.
    pub graph_m: usize,
    /// Graphs, each from its own seed (see [`graph_seed`]).
    pub graphs: usize,
}

/// Seed of graph `g` of a workload with seed `seed`; graph 0 takes the
/// workload seed itself.
pub fn graph_seed(seed: u64, g: usize) -> u64 {
    seed ^ ((g as u64) << 32)
}

impl Batch {
    /// The workload's input sizes: one pass takes 1–3 s on a 2-CPU
    /// x86-64 host, so a 25 s run holds at least 8 passes.
    pub fn sizes(self) -> Sizes {
        match self {
            Batch::ListrankMta => Sizes {
                list_n: 3 << 15,
                graph_n: 0,
                graph_m: 0,
                graphs: 0,
            },
            // 2^14 vertices in four graphs: how much work a graph takes
            // (SV iterations, coloring rounds, BFS levels) varies with its
            // seed, and four average that out of a pass.
            Batch::GraphMta => Sizes {
                list_n: 0,
                graph_n: 1 << 12,
                graph_m: 8 << 12,
                graphs: 4,
            },
            // The lists are above the modelled 4 MB L2, the graphs not.
            Batch::GraphSmp => Sizes {
                list_n: 1 << 20,
                graph_n: 1 << 15,
                graph_m: 8 << 15,
                graphs: 1,
            },
        }
    }

    /// Set-ups per run; `setup_s` is their median. A cheap set-up is
    /// repeated more, so that each workload spends about half a second on
    /// it (2 ms, 14 ms and 120 ms per set-up on a 2-CPU x86-64 host).
    pub fn setup_reps(self) -> usize {
        match self {
            Batch::ListrankMta => 50,
            Batch::GraphMta => 30,
            Batch::GraphSmp => 5,
        }
    }

    /// The job list one pass runs, in order.
    pub fn jobs(self) -> Vec<Job> {
        use ListKind::{Ordered, Random};
        match self {
            Batch::ListrankMta => [Random, Ordered]
                .into_iter()
                .flat_map(|k| [1, 2, 4, 8].map(|p| Job::ListMta(k, p)))
                .collect(),
            Batch::GraphMta => (0..self.sizes().graphs)
                .flat_map(|g| [Job::SvMta(g), Job::ColorMta(g), Job::BfsMta(g)])
                .chain([Job::Sync { faulted: false }, Job::Sync { faulted: true }])
                .collect(),
            Batch::GraphSmp => vec![
                Job::ListSmp(Random),
                Job::ListSmp(Ordered),
                Job::SvSmp(0),
                Job::ColorSmp(0),
                Job::BfsSmp(0),
            ],
        }
    }

    /// The job the traced run reruns under every MTA engine.
    pub fn engine_job(self) -> Option<Job> {
        match self {
            Batch::ListrankMta => Some(Job::ListMta(ListKind::Random, 8)),
            Batch::GraphMta => Some(Job::BfsMta(0)),
            Batch::GraphSmp => None,
        }
    }
}

/// One kernel call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// `listrank::sim_mta::simulate_walk_ranking` at `p` processors.
    ListMta(ListKind, usize),
    /// `listrank::sim_smp::simulate_hj` at p = 8.
    ListSmp(ListKind),
    /// `concomp::sim_mta::simulate_sv_mta` on graph `g`.
    SvMta(usize),
    /// `coloring::sim_mta::simulate_coloring_mta` on graph `g`.
    ColorMta(usize),
    /// `bfs::sim_mta::simulate_bfs_mta` on graph `g`.
    BfsMta(usize),
    /// `archgraph-bench::kernels::sync_mta_cell` at the bench size, clean
    /// or under the bench suite's structural fault plan.
    Sync {
        /// Run under the structural fault plan.
        faulted: bool,
    },
    /// `concomp::sim_smp::simulate_sv` on graph `g`.
    SvSmp(usize),
    /// `coloring::sim_smp::simulate_coloring_smp` on graph `g`.
    ColorSmp(usize),
    /// `bfs::sim_smp::simulate_bfs_smp` on graph `g`.
    BfsSmp(usize),
}

/// The simulator's report for one call.
#[derive(Debug, Clone)]
pub enum Sim {
    /// MTA region report.
    Mta(RunReport),
    /// SMP run statistics.
    Smp(RunStats),
}

impl Sim {
    /// The pinned pair: MTA `(cycles, issued)`, SMP `(instructions, accesses)`.
    pub fn fingerprint(&self) -> (u64, u64) {
        match self {
            Sim::Mta(r) => (r.cycles, r.issued),
            Sim::Smp(s) => (s.instructions, s.accesses()),
        }
    }

    /// Simulated instructions: MTA `issued`, SMP `instructions`.
    pub fn instructions(&self) -> u64 {
        match self {
            Sim::Mta(r) => r.issued,
            Sim::Smp(s) => s.instructions,
        }
    }
}

/// What a kernel computed.
#[derive(Debug, Clone)]
pub enum Answer {
    /// List ranks.
    Ranks(Vec<Node>),
    /// Component labels.
    Labels(Vec<Node>),
    /// Vertex colors.
    Colors(Vec<Node>),
    /// BFS levels.
    Levels(Vec<Node>),
    /// The `sync` accumulator checksum.
    Checksum(u64),
}

/// One call's result.
#[derive(Debug, Clone)]
pub struct Output {
    /// Simulator report.
    pub sim: Sim,
    /// Kernel answer.
    pub answer: Answer,
}

impl Job {
    /// Stable label, used in spans, pins and failure messages.
    pub fn label(self) -> String {
        let kind = |k: ListKind| k.label().to_ascii_lowercase();
        match self {
            Job::ListMta(k, p) => format!("listrank.mta/{}/p{p}", kind(k)),
            Job::ListSmp(k) => format!("listrank.smp/{}/p{P}", kind(k)),
            Job::SvMta(g) => format!("concomp.mta/g{g}/p{P}"),
            Job::ColorMta(g) => format!("coloring.mta/g{g}/p{P}"),
            Job::BfsMta(g) => format!("bfs.mta/g{g}/p{P}"),
            Job::Sync { faulted: false } => format!("bench.sync_mta/p{P}"),
            Job::Sync { faulted: true } => format!("bench.sync_fault_mta/p{P}"),
            Job::SvSmp(g) => format!("concomp.smp/g{g}/p{P}"),
            Job::ColorSmp(g) => format!("coloring.smp/g{g}/p{P}"),
            Job::BfsSmp(g) => format!("bfs.smp/g{g}/p{P}"),
        }
    }

    /// The crate the call goes into.
    pub fn layer(self) -> &'static str {
        match self {
            Job::ListMta(..) | Job::ListSmp(_) => "listrank",
            Job::SvMta(_) | Job::SvSmp(_) => "concomp",
            Job::ColorMta(_) | Job::ColorSmp(_) => "coloring",
            Job::BfsMta(_) | Job::BfsSmp(_) => "bfs",
            Job::Sync { .. } => "bench",
        }
    }

    /// The per-layer metric holding this call's host seconds.
    pub fn call_metric(self) -> &'static str {
        match self {
            Job::ListMta(..) => "listrank.mta_s",
            Job::ListSmp(_) => "listrank.smp_s",
            Job::SvMta(_) => "concomp.mta_s",
            Job::ColorMta(_) => "coloring.mta_s",
            Job::BfsMta(_) => "bfs.mta_s",
            Job::Sync { faulted: false } => "bench.sync_mta_s",
            Job::Sync { faulted: true } => "bench.sync_fault_mta_s",
            Job::SvSmp(_) => "concomp.smp_s",
            Job::ColorSmp(_) => "coloring.smp_s",
            Job::BfsSmp(_) => "bfs.smp_s",
        }
    }

    fn list(self, inp: &Inputs, kind: ListKind) -> &ListIn {
        inp.lists
            .iter()
            .find(|l| l.kind == kind)
            .unwrap_or_else(|| panic!("{} needs a {kind:?} list", self.label()))
    }

    fn graph(self, inp: &Inputs) -> &GraphIn {
        let g = match self {
            Job::SvMta(g)
            | Job::ColorMta(g)
            | Job::BfsMta(g)
            | Job::SvSmp(g)
            | Job::ColorSmp(g)
            | Job::BfsSmp(g) => g,
            _ => unreachable!("{} takes no graph", self.label()),
        };
        inp.graphs
            .get(g)
            .unwrap_or_else(|| panic!("{} needs graph {g}", self.label()))
    }

    /// Make the call. A `SimError` comes back as `Err`; a panic unwinds
    /// (see [`attempt`]).
    pub fn run(self, inp: &Inputs) -> Result<Output, String> {
        let mta = MtaParams::mta2();
        let smp = SmpParams::sun_e4500();
        let e = |e: archgraph_core::error::SimError| e.to_string();
        Ok(match self {
            Job::ListMta(kind, p) => {
                let l = &self.list(inp, kind).list;
                // ~10 nodes per walk, as in the paper and fig1.
                let walks = (l.len() / 10).max(1);
                let r = archgraph_listrank::sim_mta::try_simulate_walk_ranking(
                    l,
                    &mta,
                    p,
                    MTA_STREAMS,
                    walks,
                )
                .map_err(e)?;
                Output {
                    sim: Sim::Mta(r.report),
                    answer: Answer::Ranks(r.rank),
                }
            }
            Job::ListSmp(kind) => {
                let l = &self.list(inp, kind).list;
                let r =
                    archgraph_listrank::sim_smp::try_simulate_hj(l, &smp, P, HJ_SUBLISTS, inp.seed)
                        .map_err(e)?;
                Output {
                    sim: Sim::Smp(r.stats),
                    answer: Answer::Ranks(r.rank),
                }
            }
            Job::SvMta(_) => {
                let r = archgraph_concomp::sim_mta::try_simulate_sv_mta(
                    &self.graph(inp).g,
                    &mta,
                    P,
                    MTA_STREAMS,
                )
                .map_err(e)?;
                Output {
                    sim: Sim::Mta(r.report),
                    answer: Answer::Labels(r.labels),
                }
            }
            Job::ColorMta(_) => {
                let r = archgraph_coloring::sim_mta::try_simulate_coloring_mta(
                    &self.graph(inp).g,
                    &mta,
                    P,
                    MTA_STREAMS,
                )
                .map_err(e)?;
                Output {
                    sim: Sim::Mta(r.report),
                    answer: Answer::Colors(r.colors),
                }
            }
            Job::BfsMta(_) => {
                let r = archgraph_bfs::sim_mta::try_simulate_bfs_mta(
                    &self.graph(inp).g,
                    0,
                    &mta,
                    P,
                    MTA_STREAMS,
                )
                .map_err(e)?;
                Output {
                    sim: Sim::Mta(r.report),
                    answer: Answer::Levels(r.levels),
                }
            }
            Job::Sync { faulted } => {
                let cell = || sync_mta_cell(P, N_GRAPH, M_GRAPH);
                let r = if faulted {
                    let plan = FaultPlan::parse(STRUCT_PLAN).expect("the suite's plan parses");
                    with_fault_plan(Some(plan), cell)
                } else {
                    cell()
                };
                Output {
                    sim: Sim::Mta(r.report),
                    answer: Answer::Checksum(r.checksum),
                }
            }
            Job::SvSmp(_) => {
                let r = archgraph_concomp::sim_smp::try_simulate_sv(&self.graph(inp).g, &smp, P)
                    .map_err(e)?;
                Output {
                    sim: Sim::Smp(r.stats),
                    answer: Answer::Labels(r.labels),
                }
            }
            Job::ColorSmp(_) => {
                let r = archgraph_coloring::sim_smp::try_simulate_coloring_smp(
                    &self.graph(inp).g,
                    &smp,
                    P,
                )
                .map_err(e)?;
                Output {
                    sim: Sim::Smp(r.stats),
                    answer: Answer::Colors(r.colors),
                }
            }
            Job::BfsSmp(_) => {
                let r =
                    archgraph_bfs::sim_smp::try_simulate_bfs_smp(&self.graph(inp).g, 0, &smp, P)
                        .map_err(e)?;
                Output {
                    sim: Sim::Smp(r.stats),
                    answer: Answer::Levels(r.levels),
                }
            }
        })
    }

    /// The crate whose code [`Job::check`] calls, for its span.
    pub fn check_layer(self) -> &'static str {
        match self {
            Job::SvMta(_) | Job::SvSmp(_) => "graph",
            Job::ColorMta(_) | Job::ColorSmp(_) => "coloring",
            _ => "perfbench",
        }
    }

    /// Check an output against the oracle computed at set-up.
    pub fn check(self, inp: &Inputs, out: &Output) -> Result<(), String> {
        let ok = match (self, &out.answer) {
            (Job::ListMta(kind, _) | Job::ListSmp(kind), Answer::Ranks(r)) => {
                *r == self.list(inp, kind).ranks
            }
            (Job::SvMta(_) | Job::SvSmp(_), Answer::Labels(l)) => {
                same_partition(l, &self.graph(inp).components)
            }
            (Job::ColorMta(_) | Job::ColorSmp(_), Answer::Colors(c)) => {
                validate_coloring(&self.graph(inp).csr, c).is_ok()
            }
            (Job::BfsMta(_) | Job::BfsSmp(_), Answer::Levels(l)) => *l == self.graph(inp).levels,
            (Job::Sync { .. }, Answer::Checksum(c)) => Some(*c) == inp.sync_checksum,
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(format!("{}: output differs from the oracle", self.label()))
        }
    }
}

/// Make the call, turning a panic into an `Err` too.
fn attempt(job: Job, inp: &Inputs) -> Result<Output, String> {
    catch_unwind(AssertUnwindSafe(|| job.run(inp))).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panic: {msg}"))
    })
}

/// A list input with its reference ranks.
pub struct ListIn {
    /// Layout.
    pub kind: ListKind,
    /// The list.
    pub list: LinkedList,
    /// `LinkedList::rank_oracle`.
    pub ranks: Vec<Node>,
}

/// A graph input with its references.
pub struct GraphIn {
    /// The edge list the kernels take.
    pub g: EdgeList,
    /// Its CSR form, for `validate_coloring` and `bfs_levels`.
    pub csr: Csr,
    /// Union-find components.
    pub components: Vec<Node>,
    /// BFS levels from vertex 0.
    pub levels: Vec<Node>,
}

/// Everything a workload's jobs read, with the oracles' answers.
pub struct Inputs {
    /// Workload seed (list layout, graph, HJ splitters).
    pub seed: u64,
    /// Lists, one per layout.
    pub lists: Vec<ListIn>,
    /// The graphs.
    pub graphs: Vec<GraphIn>,
    /// Expected `sync` checksum, if a `sync` job runs.
    pub sync_checksum: Option<u64>,
}

impl Inputs {
    /// Generate the inputs of `sizes` from `seed` and compute every
    /// oracle answer; returns them with the seconds spent generating
    /// (`graph.gen_s`). `with_sync` adds the `sync` checksum, whose
    /// graph is the bench kernel's own fixed one.
    pub fn build(sizes: Sizes, seed: u64, with_sync: bool, tr: &mut Tracer) -> (Inputs, f64) {
        let t = Instant::now();
        let mut lists = Vec::new();
        if sizes.list_n > 0 {
            for kind in [ListKind::Random, ListKind::Ordered] {
                let list = tr.span("graph", "gen.list", || make_list(kind, sizes.list_n, seed));
                lists.push((kind, list));
            }
        }
        let gs: Vec<EdgeList> = (0..sizes.graphs)
            .map(|g| {
                tr.span("graph", "gen.gnm", || {
                    make_graph(sizes.graph_n, sizes.graph_m, graph_seed(seed, g))
                })
            })
            .collect();
        let gen_s = t.elapsed().as_secs_f64();

        let lists = lists
            .into_iter()
            .map(|(kind, list)| {
                let ranks = tr.span("graph", "oracle.rank", || list.rank_oracle());
                ListIn { kind, list, ranks }
            })
            .collect();
        let graphs = gs
            .into_iter()
            .map(|g| {
                let csr = tr.span("graph", "csr", || Csr::from_edge_list(&g));
                let components = tr.span("graph", "oracle.components", || connected_components(&g));
                let levels = tr.span("graph", "oracle.bfs", || bfs_levels(&csr, 0));
                GraphIn {
                    g,
                    csr,
                    components,
                    levels,
                }
            })
            .collect();
        // Arc `i` adds `i + 1` to its target's accumulator, so the words
        // sum to 1 + 2 + ... + arcs.
        let sync_checksum = with_sync.then(|| {
            let arcs = tr.span("graph", "gen.sync", || {
                Csr::from_edge_list(&make_graph(N_GRAPH, M_GRAPH, kernels::GRAPH_SEED)).arc_count()
            }) as u64;
            arcs * (arcs + 1) / 2
        });
        let inp = Inputs {
            seed,
            lists,
            graphs,
            sync_checksum,
        };
        (inp, gen_s)
    }
}

/// Fingerprints of every job at [`DEFAULT_SEED`], checked on every pass
/// of a run with that seed: `(label, a, b)` with MTA `(cycles, issued)`
/// and SMP `(instructions, accesses)`.
/// The `sync` pins equal the bench baseline's `sync/mta/p8` and
/// `sync/mta-partitioned/w4/p8+struct` cells.
pub const PINNED: &[(&str, u64, u64)] = &[
    ("listrank.mta/random/p1", 2949084, 4496857),
    ("listrank.mta/random/p2", 1511859, 4514157),
    ("listrank.mta/random/p4", 795282, 4548757),
    ("listrank.mta/random/p8", 405634, 4617957),
    ("listrank.mta/ordered/p1", 2934318, 4496857),
    ("listrank.mta/ordered/p2", 1495560, 4514157),
    ("listrank.mta/ordered/p4", 774877, 4548757),
    ("listrank.mta/ordered/p8", 391797, 4617957),
    ("concomp.mta/g0/p8", 169841, 1853804),
    ("concomp.mta/g1/p8", 166003, 1822738),
    ("concomp.mta/g2/p8", 164822, 1816809),
    ("concomp.mta/g3/p8", 167624, 1837186),
    ("coloring.mta/g0/p8", 224971, 1219331),
    ("coloring.mta/g1/p8", 226341, 1223953),
    ("coloring.mta/g2/p8", 237323, 1218408),
    ("coloring.mta/g3/p8", 233150, 1214543),
    ("bfs.mta/g0/p8", 101660, 471501),
    ("bfs.mta/g1/p8", 106123, 471506),
    ("bfs.mta/g2/p8", 100277, 471506),
    ("bfs.mta/g3/p8", 101004, 467505),
    ("bench.sync_mta/p8", 14258, 168747),
    ("bench.sync_fault_mta/p8", 19040, 178480),
    ("listrank.smp/random/p8", 209719040, 8388928),
    ("listrank.smp/ordered/p8", 209719040, 8388928),
    ("concomp.smp/g0/p8", 13106076, 6981745),
    ("coloring.smp/g0/p8", 9013480, 8178888),
    ("bfs.smp/g0/p8", 1572864, 1212409),
];

/// Operations attempted and the failures among them.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: an error, a panic, a wrong answer or a
    /// fingerprint mismatch.
    pub failed: u64,
    /// Failures whose output was wrong (answer or fingerprint), as
    /// opposed to a call that returned an error.
    pub wrong: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Tally {
    /// Add another tally's counts and failures to this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.failures.extend(other.failures);
    }

    /// Count a failure.
    pub fn fail(&mut self, what: String, wrong: bool) {
        eprintln!("failure: {what}");
        self.failed += 1;
        self.wrong += u64::from(wrong);
        self.failures.push(what);
    }
}

/// Everything recorded about one job across a run.
#[derive(Debug, Default, Clone)]
pub struct JobRecord {
    /// Host seconds of each successful call.
    pub secs: Vec<f64>,
    /// The first call's fingerprint; every later call must repeat it.
    pub fingerprint: Option<(u64, u64)>,
    /// The last successful call's report.
    pub sim: Option<Sim>,
}

/// Runs jobs, checks their outputs and keeps the books.
pub struct Runner<'a> {
    inp: &'a Inputs,
    pins: &'a [(&'a str, u64, u64)],
    /// Operations and failures.
    pub tally: Tally,
    /// Per-job records, by label.
    pub jobs: BTreeMap<String, (Job, JobRecord)>,
    /// Successful calls.
    pub completed: usize,
    /// Host seconds of the successful calls.
    pub busy_s: f64,
    /// Simulated instructions of the successful calls.
    pub instructions: u64,
}

impl<'a> Runner<'a> {
    /// A runner over `inp`, checking fingerprints against `pins` (empty
    /// for a seed without pins).
    pub fn new(inp: &'a Inputs, pins: &'a [(&'a str, u64, u64)]) -> Runner<'a> {
        Runner {
            inp,
            pins,
            tally: Tally::default(),
            jobs: BTreeMap::new(),
            completed: 0,
            busy_s: 0.0,
            instructions: 0,
        }
    }

    /// Run one job (timed), then check it (untimed). Returns the host
    /// seconds of the call.
    pub fn run_job(&mut self, job: Job, tr: &mut Tracer) -> f64 {
        let label = job.label();
        let open = tr.enter(job.layer(), &label);
        let t = Instant::now();
        let r = attempt(job, self.inp);
        let dt = t.elapsed().as_secs_f64();
        tr.exit(open);

        self.tally.attempted += 1;
        let out = match r {
            Ok(out) => out,
            Err(e) => {
                self.tally.fail(format!("{label}: {e}"), false);
                return dt;
            }
        };
        let open = tr.enter(job.check_layer(), "check");
        let checked = job.check(self.inp, &out);
        tr.exit(open);
        if let Err(e) = checked {
            self.tally.fail(e, true);
            return dt;
        }
        let fp = out.sim.fingerprint();
        let rec = &mut self
            .jobs
            .entry(label.clone())
            .or_insert((job, JobRecord::default()))
            .1;
        let pinned = self.pins.iter().find(|p| p.0 == label).map(|p| (p.1, p.2));
        let expect = rec.fingerprint.or(pinned).unwrap_or(fp);
        if fp != expect {
            self.tally.fail(
                format!("{label}: fingerprint {fp:?}, expected {expect:?}"),
                true,
            );
            return dt;
        }
        rec.fingerprint = Some(fp);
        rec.secs.push(dt);
        self.instructions += out.sim.instructions();
        rec.sim = Some(out.sim);
        self.completed += 1;
        self.busy_s += dt;
        dt
    }
}

/// Calls per engine in a traced run's engine sweep; the figure is their median.
const ENGINE_REPS: usize = 3;

/// The engines a traced run reruns its engine job under: `(metric,
/// engine, workers)`.
const ENGINES: [(&str, MtaEngine, usize); 5] = [
    (
        "mta-sim.engine.single-step.ns_per_issue",
        MtaEngine::SingleStep,
        1,
    ),
    ("mta-sim.engine.trace.ns_per_issue", MtaEngine::Trace, 1),
    (
        "mta-sim.engine.compiled.ns_per_issue",
        MtaEngine::Compiled,
        1,
    ),
    (
        "mta-sim.engine.partitioned-w1.ns_per_issue",
        MtaEngine::Partitioned,
        1,
    ),
    (
        "mta-sim.engine.partitioned-w2.ns_per_issue",
        MtaEngine::Partitioned,
        2,
    ),
];

/// The fingerprints a run with `seed` must reproduce: every pin at
/// [`DEFAULT_SEED`]; otherwise only the `sync` jobs', whose graph does not
/// depend on the seed.
fn pins_for(seed: u64) -> Vec<(&'static str, u64, u64)> {
    PINNED
        .iter()
        .filter(|p| seed == DEFAULT_SEED || p.0.starts_with("bench.sync"))
        .copied()
        .collect()
}

/// Run batch workload `b` for about `seconds`. A traced run alternates
/// traced and untraced passes (their difference is the tracing overhead)
/// and ends with the engine sweep.
pub fn run(b: Batch, seed: u64, seconds: f64, traced: bool, tr: &mut Tracer) -> Outcome {
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut inp = None;
    for _ in 0..b.setup_reps() {
        // Drop the previous copy first, so peak memory holds one set.
        drop(inp.take());
        let t = Instant::now();
        let open = tr.enter("perfbench", "setup");
        let (i, g) = Inputs::build(b.sizes(), seed, b == Batch::GraphMta, tr);
        tr.exit(open);
        setup_s.push(t.elapsed().as_secs_f64());
        gen_s.push(g);
        inp = Some(i);
    }
    let inp = inp.expect("setup_reps() > 0");
    let pins = pins_for(seed);
    let mut runner = Runner::new(&inp, &pins);
    let jobs = b.jobs();
    let mut plain = Vec::new();
    let mut traced_passes = Vec::new();
    let start = Instant::now();
    for pass in 0.. {
        let trace_pass = traced && pass % 2 == 1;
        tr.set_enabled(trace_pass);
        let t = Instant::now();
        let open = tr.enter("perfbench", "pass");
        let secs: f64 = jobs.iter().map(|&j| runner.run_job(j, tr)).sum();
        tr.exit(open);
        let pass_wall = t.elapsed().as_secs_f64();
        if trace_pass {
            traced_passes.push(secs);
        } else {
            plain.push(secs);
        }
        // Start another pass only if it fits, so a run lasts about
        // `seconds`; a traced run needs one pass of each kind.
        let need_more = traced && traced_passes.is_empty();
        if !need_more && start.elapsed().as_secs_f64() + pass_wall > seconds {
            break;
        }
    }
    tr.set_enabled(traced);
    println!("# untraced pass seconds {plain:?}");
    for (label, (_, rec)) in &runner.jobs {
        if let Some((a, b)) = rec.fingerprint {
            let pinned = pins.iter().any(|p| p.0 == label);
            println!("# fingerprint {label} ({a}, {b}) pinned={pinned}");
        }
    }

    let mut o = Outcome {
        metrics: BTreeMap::new(),
        tally: Tally::default(),
    };
    let wall = median(&plain);
    let reps = setup_s.len();
    o.put(Metric::new(
        "setup_s",
        "s",
        median(&setup_s),
        reps,
        "median of set-ups",
    ));
    o.put(Metric::new(
        "graph.gen_s",
        "s",
        median(&gen_s),
        reps,
        "median of set-ups",
    ));
    o.put(Metric::new(
        "wall_s",
        "s",
        wall,
        plain.len(),
        "median of untraced passes",
    ));
    o.put(Metric::new(
        "sim_mips",
        "M/s",
        runner.instructions as f64 / runner.busy_s / 1e6,
        runner.completed,
        "simulated instructions / host seconds of all calls",
    ));
    o.put(Metric::new(
        "req_per_s",
        "1/s",
        runner.completed as f64 / runner.busy_s,
        runner.completed,
        "completed calls / host seconds of all calls",
    ));
    o.put(Metric::new(
        "peak_rss_mb",
        "MB",
        crate::peak_rss_mb("self"),
        1,
        "VmHWM of the benchmark process",
    ));
    if traced {
        o.put(Metric::new(
            "tracing.overhead_s",
            "s",
            median(&traced_passes) - wall,
            traced_passes.len(),
            format!(
                "median traced pass - median untraced pass ({} untraced)",
                plain.len()
            ),
        ));
        if let Some(job) = b.engine_job() {
            engine_sweep(job, &inp, &runner, tr, &mut o);
        }
    }
    layer_metrics(&runner, &mut o);
    o.tally.absorb(runner.tally);
    o
}

/// Rerun `job` under every engine in [`ENGINES`]; each call must repeat
/// the ambient engine's fingerprint.
fn engine_sweep(job: Job, inp: &Inputs, ambient: &Runner, tr: &mut Tracer, o: &mut Outcome) {
    let label = job.label();
    let Some(fp) = ambient.jobs.get(&label).and_then(|(_, r)| r.fingerprint) else {
        return;
    };
    let pins = [(label.as_str(), fp.0, fp.1)];
    for (metric, engine, workers) in ENGINES {
        let mut runner = Runner::new(inp, &pins);
        let open = tr.enter("perfbench", metric);
        for _ in 0..ENGINE_REPS {
            with_engine(engine, || with_workers(workers, || runner.run_job(job, tr)));
        }
        tr.exit(open);
        let secs = runner
            .jobs
            .get(&label)
            .map(|(_, r)| r.secs.clone())
            .unwrap_or_default();
        o.put(Metric::new(
            metric,
            "ns",
            median(&secs) * 1e9 / fp.1 as f64,
            secs.len(),
            format!("median call / {} issued, {label}", fp.1),
        ));
        o.tally.absorb(runner.tally);
    }
}

/// The per-layer metrics a batch run forms from its job records.
fn layer_metrics(runner: &Runner, o: &mut Outcome) {
    let recs: Vec<&(Job, JobRecord)> = runner.jobs.values().collect();
    let secs_of = |pred: &dyn Fn(Job) -> bool| -> Vec<f64> {
        recs.iter()
            .filter(|(j, _)| pred(*j))
            .flat_map(|(_, r)| r.secs.iter().copied())
            .collect()
    };
    let calls: BTreeSet<&'static str> = recs.iter().map(|(j, _)| j.call_metric()).collect();
    for name in calls {
        let s = secs_of(&|j: Job| j.call_metric() == name);
        o.put(Metric::new(
            name,
            "s",
            median(&s),
            s.len(),
            "median host seconds per call",
        ));
    }

    // Counts: one call of each job, summed over the job list.
    let mtas: Vec<(&RunReport, &[f64])> = recs
        .iter()
        .filter_map(|(_, r)| match &r.sim {
            Some(Sim::Mta(rep)) => Some((rep, r.secs.as_slice())),
            _ => None,
        })
        .collect();
    if !mtas.is_empty() {
        let sum = |f: &dyn Fn(&RunReport) -> u64| mtas.iter().map(|(r, _)| f(r)).sum::<u64>();
        let issued = sum(&|r| r.issued);
        let slots = sum(&|r| r.cycles * r.processors as u64);
        let thirds = sum(&|r| r.issued_thirds);
        let ops = sum(&|r| r.mem.sync_ops);
        let retries = sum(&|r| r.mem.sync_retries);
        let n = mtas.len();
        let count = |name, v: u64| Metric::new(name, "count", v as f64, n, "sum over the job list");
        o.put(count("mta-sim.issued", issued));
        o.put(count("mta-sim.cycles", sum(&|r| r.cycles)));
        o.put(count("mta-sim.loads", sum(&|r| r.mem.loads)));
        o.put(count("mta-sim.stores", sum(&|r| r.mem.stores)));
        o.put(count("mta-sim.fetch_adds", sum(&|r| r.mem.fetch_adds)));
        o.put(count("mta-sim.sync_ops", ops));
        o.put(count("mta-sim.sync_retries", retries));
        o.put(Metric::new(
            "mta-sim.util",
            "%",
            100.0 * thirds as f64 / (3 * slots) as f64,
            n,
            format!("issue-slot thirds used / available, base {slots} slots"),
        ));
        o.put(Metric::new(
            "mta-sim.sync_useful_ratio",
            "ratio",
            ops as f64 / (ops + retries) as f64,
            n,
            format!(
                "sync_ops / (sync_ops + sync_retries), base {} attempts",
                ops + retries
            ),
        ));
        let host: f64 = mtas.iter().map(|(_, s)| s.iter().sum::<f64>()).sum();
        let work: u64 = mtas.iter().map(|(r, s)| r.issued * s.len() as u64).sum();
        o.put(Metric::new(
            "mta-sim.ns_per_issue",
            "ns",
            host * 1e9 / work as f64,
            mtas.iter().map(|(_, s)| s.len()).sum(),
            format!("host ns of all MTA calls / {work} issued"),
        ));
    }
    let clean = secs_of(&|j| j == Job::Sync { faulted: false });
    let faulted = secs_of(&|j| j == Job::Sync { faulted: true });
    if !clean.is_empty() && !faulted.is_empty() {
        o.put(Metric::new(
            "mta-sim.fault_overhead",
            "ratio",
            median(&faulted) / median(&clean),
            faulted.len() + clean.len(),
            "median faulted sync call / median clean sync call",
        ));
    }

    let smps: Vec<(&RunStats, &[f64])> = recs
        .iter()
        .filter_map(|(_, r)| match &r.sim {
            Some(Sim::Smp(st)) => Some((st, r.secs.as_slice())),
            _ => None,
        })
        .collect();
    if !smps.is_empty() {
        let sum = |f: &dyn Fn(&RunStats) -> u64| smps.iter().map(|(s, _)| f(s)).sum::<u64>();
        let n = smps.len();
        let count = |name, v: u64| Metric::new(name, "count", v as f64, n, "sum over the job list");
        let accesses = sum(&|s| s.accesses());
        let mem = sum(&|s| s.mem_accesses);
        o.put(count("smp-sim.instructions", sum(&|s| s.instructions)));
        o.put(count("smp-sim.accesses", accesses));
        o.put(count("smp-sim.l2_hits", sum(&|s| s.l2_hits)));
        o.put(count("smp-sim.mem_accesses", mem));
        o.put(count("smp-sim.tlb_misses", sum(&|s| s.tlb_misses)));
        o.put(count("smp-sim.bus_lines", sum(&|s| s.bus_lines)));
        o.put(count("smp-sim.barriers", sum(&|s| s.barriers)));
        o.put(count(
            "smp-sim.bus_limited_phases",
            sum(&|s| s.bus_limited_phases),
        ));
        o.put(Metric::new(
            "smp-sim.l1_hit_rate",
            "%",
            100.0 * sum(&|s| s.l1_hits) as f64 / accesses as f64,
            n,
            format!("l1_hits / {accesses} accesses"),
        ));
        o.put(Metric::new(
            "smp-sim.prefetch_coverage",
            "%",
            100.0 * sum(&|s| s.prefetch_hits) as f64 / mem as f64,
            n,
            format!("prefetch_hits / {mem} mem_accesses"),
        ));
        let host: f64 = smps.iter().map(|(_, s)| s.iter().sum::<f64>()).sum();
        let work: u64 = smps
            .iter()
            .map(|(st, s)| st.accesses() * s.len() as u64)
            .sum();
        o.put(Metric::new(
            "smp-sim.ns_per_access",
            "ns",
            host * 1e9 / work as f64,
            smps.iter().map(|(_, s)| s.len()).sum(),
            format!("host ns of all SMP calls / {work} accesses"),
        ));
    }

    model_metrics(runner, o);
}

/// The paper's claims as the model reproduces them (simulated time only;
/// validated against the paper's published bands, not hardware).
fn model_metrics(runner: &Runner, o: &mut Outcome) {
    use ListKind::{Ordered, Random};
    let mta = |j: Job| match runner
        .jobs
        .get(&j.label())
        .and_then(|(_, r)| r.sim.as_ref())
    {
        Some(Sim::Mta(r)) => Some(r.clone()),
        _ => None,
    };
    let smp_cycles = |j: Job| match runner
        .jobs
        .get(&j.label())
        .and_then(|(_, r)| r.sim.as_ref())
    {
        Some(Sim::Smp(s)) => Some(s.cycles),
        _ => None,
    };
    let ratio = |name, a: f64, b: f64, basis: &str| Metric::new(name, "ratio", a / b, 2, basis);
    let (r1, r8, o8) = (
        mta(Job::ListMta(Random, 1)),
        mta(Job::ListMta(Random, 8)),
        mta(Job::ListMta(Ordered, 8)),
    );
    if let (Some(r1), Some(r8)) = (&r1, &r8) {
        o.put(ratio(
            "model.c1_mta_speedup_p8",
            r1.cycles as f64,
            r8.cycles as f64,
            "Random list cycles p1 / p8",
        ));
        o.put(Metric::new(
            "model.c6_mta_util_p8",
            "%",
            100.0 * r8.utilization,
            1,
            "Random list, p8; paper band 80-99 %",
        ));
    }
    if let (Some(r8), Some(o8)) = (&r8, &o8) {
        o.put(ratio(
            "model.c3_mta_rand_over_ord",
            r8.cycles as f64,
            o8.cycles as f64,
            "cycles Random / Ordered, p8; paper ~1",
        ));
    }
    if let (Some(r), Some(od)) = (
        smp_cycles(Job::ListSmp(Random)),
        smp_cycles(Job::ListSmp(Ordered)),
    ) {
        o.put(ratio(
            "model.c2_smp_rand_over_ord",
            r,
            od,
            "HJ cycles Random / Ordered, p8; paper band 3-4",
        ));
    }
}
