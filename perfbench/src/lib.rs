//! The archgraph benchmark: end-to-end and per-layer metrics of the
//! simulators, kernels and daemon, driven through the crates' public
//! entry points. See `perfbench/README.md` for the workloads and metrics.

pub mod batch;
pub mod daemon;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;

use stats::Metric;

/// The workloads, as named in `BENCHMARK.json`.
pub const WORKLOADS: [&str; 4] = ["listrank-mta", "graph-mta", "graph-smp", "daemon-mix"];

/// End-to-end metrics `(name, unit)`, printed by an untraced run. Every
/// workload reports each of them, and none can be 0 on a run that
/// completes an operation.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mips", "M/s"),
    ("peak_rss_mb", "MB"),
    ("req_per_s", "1/s"),
];

/// Per-layer metrics `(name, unit)`, printed by a traced run. A workload
/// that does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fail_frac", "ratio"),
    ("graph.gen_s", "s"),
    ("listrank.mta_s", "s"),
    ("listrank.smp_s", "s"),
    ("concomp.mta_s", "s"),
    ("concomp.smp_s", "s"),
    ("coloring.mta_s", "s"),
    ("coloring.smp_s", "s"),
    ("bfs.mta_s", "s"),
    ("bfs.smp_s", "s"),
    ("bench.sync_mta_s", "s"),
    ("bench.sync_fault_mta_s", "s"),
    ("mta-sim.issued", "count"),
    ("mta-sim.cycles", "count"),
    ("mta-sim.util", "%"),
    ("mta-sim.loads", "count"),
    ("mta-sim.stores", "count"),
    ("mta-sim.fetch_adds", "count"),
    ("mta-sim.sync_ops", "count"),
    ("mta-sim.sync_retries", "count"),
    ("mta-sim.sync_useful_ratio", "ratio"),
    ("mta-sim.ns_per_issue", "ns"),
    ("mta-sim.fault_overhead", "ratio"),
    ("mta-sim.engine.single-step.ns_per_issue", "ns"),
    ("mta-sim.engine.trace.ns_per_issue", "ns"),
    ("mta-sim.engine.compiled.ns_per_issue", "ns"),
    ("mta-sim.engine.partitioned-w1.ns_per_issue", "ns"),
    ("mta-sim.engine.partitioned-w2.ns_per_issue", "ns"),
    ("smp-sim.instructions", "count"),
    ("smp-sim.accesses", "count"),
    ("smp-sim.l1_hit_rate", "%"),
    ("smp-sim.l2_hits", "count"),
    ("smp-sim.mem_accesses", "count"),
    ("smp-sim.prefetch_coverage", "%"),
    ("smp-sim.tlb_misses", "count"),
    ("smp-sim.bus_lines", "count"),
    ("smp-sim.barriers", "count"),
    ("smp-sim.bus_limited_phases", "count"),
    ("smp-sim.ns_per_access", "ns"),
    ("hit_p50_ms", "ms"),
    ("hit_tail_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("miss_tail_ms", "ms"),
    ("archgraphd.ping_ms", "ms"),
    ("archgraphd.queue_cache_ms", "ms"),
    ("archgraphd.simulate_store_ms", "ms"),
    ("archgraphd.cache_hits", "count"),
    ("archgraphd.cells_run", "count"),
    ("archgraphd.failures", "count"),
    ("archgraphd.cache_bytes", "bytes"),
    ("model.c1_mta_speedup_p8", "ratio"),
    ("model.c2_smp_rand_over_ord", "ratio"),
    ("model.c3_mta_rand_over_ord", "ratio"),
    ("model.c6_mta_util_p8", "%"),
    ("graph.self_s", "s"),
    ("listrank.self_s", "s"),
    ("concomp.self_s", "s"),
    ("coloring.self_s", "s"),
    ("bfs.self_s", "s"),
    ("bench.self_s", "s"),
    ("archgraphd.self_s", "s"),
    ("perfbench.self_s", "s"),
    ("tracing.overhead_s", "s"),
    ("tracing.spans", "count"),
];

/// The layers whose self time a traced run reports: `(span layer, metric)`.
/// `perfbench` is the benchmark's own bookkeeping between calls.
pub const SELF_TIME_LAYERS: [(&str, &str); 8] = [
    ("graph", "graph.self_s"),
    ("listrank", "listrank.self_s"),
    ("concomp", "concomp.self_s"),
    ("coloring", "coloring.self_s"),
    ("bfs", "bfs.self_s"),
    ("bench", "bench.self_s"),
    ("archgraphd", "archgraphd.self_s"),
    ("perfbench", "perfbench.self_s"),
];

/// Environment variables that change which program is measured.
pub const REFUSED_ENV: [&str; 4] = [
    "ARCHGRAPH_MTA_ENGINE",
    "ARCHGRAPH_MTA_WORKERS",
    "ARCHGRAPH_FAULTS",
    "ARCHGRAPH_MAX_CYCLES",
];

/// What one run measured.
pub struct Outcome {
    /// Every metric the run formed, by name.
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Operations attempted and failed.
    pub tally: batch::Tally,
}

impl Outcome {
    /// Record a metric.
    pub fn put(&mut self, m: Metric) {
        self.metrics.insert(m.name, m);
    }

    /// The metrics of `list`, in its order; one the run did not form is 0.
    pub fn select(&self, list: &[(&'static str, &'static str)]) -> Vec<Metric> {
        list.iter()
            .map(|&(name, unit)| {
                let m = self.metrics.get(name).cloned().unwrap_or_else(|| {
                    Metric::new(name, unit, 0.0, 0, "not exercised by this workload")
                });
                assert_eq!(m.unit, unit, "{name} formed with the wrong unit");
                m
            })
            .collect()
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`self` for this one),
/// in MB, from procfs.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
