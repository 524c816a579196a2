//! The `daemon-mix` workload: one client connection to a freshly spawned
//! `archgraphd`, submitting single structured specs in a closed loop.
//!
//! Each pass is a block of [`BLOCK`] submits plus one `ping`: one
//! never-seen spec (a miss: the daemon simulates and stores it) for each
//! kernel of [`MISS_KERNELS`], and hits — repeats of a spec submitted
//! earlier — in the remaining slots, in a seeded order. A quarter of
//! submits are misses.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use archgraph_bench::cells::{CellSpec, Kernel, MachineKind};
use archgraph_graph::rng::Rng;
use archgraphd::json::Json;

use crate::batch::Tally;
use crate::stats::{median, Metric};
use crate::trace::Tracer;
use crate::Outcome;

/// Submits per pass.
const BLOCK: usize = 12;

/// The kernels misses rotate through, at the bench suite's sizes:
/// `(kernel, machine, n, m)`. Each miss adds a distinct offset below
/// `n/4` to `n` (see [`Mix`]).
const MISS_KERNELS: [(&str, &str, usize, usize); 3] = [
    ("fig2", "mta", 2048, 10240),
    ("fig1-random", "smp", 1 << 15, 0),
    ("bfs", "mta", 2048, 10240),
];

/// Daemon spawns per run; `setup_s` is their median.
const SPAWN_REPS: usize = 5;

/// How long a spawned daemon may take to answer its first `ping`.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(20);

/// How long a daemon may take to exit after `shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

/// A structured spec, as the wire protocol spells it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Spec {
    /// Kernel name.
    pub kernel: &'static str,
    /// Machine name.
    pub machine: &'static str,
    /// Processors.
    pub p: usize,
    /// Size.
    pub n: usize,
    /// Edges (0 for lists).
    pub m: usize,
}

impl Spec {
    /// The spec's JSON object.
    pub fn json(&self) -> String {
        let m = if self.m > 0 {
            format!(r#","m":{}"#, self.m)
        } else {
            String::new()
        };
        format!(
            r#"{{"kernel":"{}","machine":"{}","p":{},"n":{}{m}}}"#,
            self.kernel, self.machine, self.p, self.n
        )
    }

    /// The same cell as the bench crate builds it, to recompute in-process.
    pub fn cell(&self) -> CellSpec {
        let kernel = Kernel::parse(self.kernel).expect("MISS_KERNELS names valid kernels");
        let machine = MachineKind::parse(self.machine).expect("MISS_KERNELS names valid machines");
        let mut c = CellSpec::new(kernel, machine, self.p);
        c.n = self.n;
        c.m = self.m;
        c
    }
}

/// A `sim` fingerprint as the daemon renders it.
pub type Sim = Vec<(String, u64)>;

/// The daemon's answer to one submit.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The cell ran or replayed.
    Done {
        /// Served from the cache.
        cached: bool,
        /// The fingerprint.
        sim: Sim,
    },
    /// The request or the cell failed, with the daemon's message.
    Failed(String),
}

/// One connection to the daemon.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    /// Connect to the socket at `path`.
    pub fn connect(path: &Path) -> std::io::Result<Client> {
        let writer = UnixStream::connect(path)?;
        writer.set_read_timeout(Some(Duration::from_secs(120)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    fn recv(&mut self) -> std::io::Result<Json> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Json::parse(line.trim()).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e}: {line}"))
        })
    }

    /// Send a one-line request and return its one-line reply.
    pub fn request(&mut self, line: &str) -> std::io::Result<Json> {
        self.send(line)?;
        self.recv()
    }

    /// Submit raw `cells` (a JSON array) and read the job's stream.
    pub fn submit_raw(&mut self, cells: &str) -> std::io::Result<Reply> {
        self.send(&format!(r#"{{"op":"submit","cells":{cells}}}"#))?;
        let first = self.recv()?;
        let ty = |j: &Json| j.get("type").and_then(Json::as_str).map(str::to_string);
        if ty(&first).as_deref() != Some("accepted") {
            let msg = first
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("no message");
            return Ok(Reply::Failed(format!("rejected: {msg}")));
        }
        let mut reply = Reply::Failed("no cell line before done".into());
        loop {
            let line = self.recv()?;
            match ty(&line).as_deref() {
                Some("done") => return Ok(reply),
                Some("cell") => {
                    reply = match (line.get("sim").and_then(Json::as_obj), line.get("error")) {
                        (Some(sim), None) => Reply::Done {
                            cached: line.get("cached") == Some(&Json::Bool(true)),
                            sim: sim
                                .iter()
                                .map(|(k, v)| (k.clone(), v.as_u64().unwrap_or(u64::MAX)))
                                .collect(),
                        },
                        (_, err) => Reply::Failed(format!("cell failed: {err:?}")),
                    }
                }
                _ => {}
            }
        }
    }

    /// Submit one structured spec.
    pub fn submit(&mut self, spec: &Spec) -> std::io::Result<Reply> {
        self.submit_raw(&format!("[{}]", spec.json()))
    }

    /// `ping`, expecting `pong`.
    pub fn ping(&mut self) -> std::io::Result<()> {
        let r = self.request(r#"{"op":"ping"}"#)?;
        match r.get("type").and_then(Json::as_str) {
            Some("pong") => Ok(()),
            _ => Err(std::io::Error::other(format!("ping answered {r:?}"))),
        }
    }

    /// The `status` counters.
    pub fn status(&mut self) -> std::io::Result<BTreeMap<String, u64>> {
        let r = self.request(r#"{"op":"status"}"#)?;
        Ok(r.as_obj()
            .map(|m| {
                m.iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                    .collect()
            })
            .unwrap_or_default())
    }
}

/// A spawned daemon; killed and reaped on drop if still running.
struct Daemon {
    child: Child,
    dir: PathBuf,
}

impl Daemon {
    /// Start `bin` with `--jobs 1`, its socket and a fresh cache in `dir`,
    /// and wait until it answers `ping`. Returns the daemon, a connected
    /// client and the seconds from spawn to `pong`.
    fn spawn(bin: &Path, dir: &Path) -> std::io::Result<(Daemon, Client, f64)> {
        std::fs::create_dir_all(dir)?;
        let socket = dir.join("archgraphd.sock");
        let log = std::fs::File::create(dir.join("archgraphd.log"))?;
        let t = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.arg("--socket")
            .arg(&socket)
            .args(["--jobs", "1", "--cache-dir"])
            .arg(dir.join("cache"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        for var in crate::REFUSED_ENV {
            cmd.env_remove(var);
        }
        let daemon = Daemon {
            child: cmd.spawn()?,
            dir: dir.to_path_buf(),
        };
        loop {
            if let Ok(mut c) = Client::connect(&socket) {
                c.ping()?;
                return Ok((daemon, c, t.elapsed().as_secs_f64()));
            }
            if t.elapsed() > SPAWN_TIMEOUT {
                return Err(std::io::Error::other("daemon did not answer ping"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The daemon's process id.
    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask the daemon to shut down over `client`, wait up to
    /// [`EXIT_TIMEOUT`] for it to exit (it is killed on drop if it has
    /// not), and remove its directory.
    fn shutdown(mut self, mut client: Client) -> std::io::Result<()> {
        let asked = client.request(r#"{"op":"shutdown"}"#);
        let t = Instant::now();
        let status = loop {
            if let Some(s) = self.child.try_wait()? {
                break Some(s);
            }
            if t.elapsed() > EXIT_TIMEOUT {
                break None;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let removed = std::fs::remove_dir_all(&self.dir);
        asked?;
        match status {
            Some(s) if s.success() => removed,
            Some(s) => Err(std::io::Error::other(format!("daemon exited with {s}"))),
            None => Err(std::io::Error::other("daemon did not exit after shutdown")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One submit's expected outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Slot {
    /// A spec never submitted before.
    Miss(Spec),
    /// A spec submitted before.
    Hit(Spec),
}

/// Odd, so `i * STRIDE` visits every offset modulo a power of two.
const STRIDE: usize = 97;

/// The seeded submit sequence: `next_block` yields one pass's submits.
struct Mix {
    rng: Rng,
    starts: Vec<usize>,
    seen: Vec<Spec>,
    blocks: usize,
}

impl Mix {
    /// A sequence for `seed`.
    fn new(seed: u64) -> Mix {
        let mut rng = Rng::new(seed ^ 0xD43A_0E5E);
        let starts = MISS_KERNELS
            .iter()
            .map(|&(_, _, n, _)| rng.below((n / 4) as u64) as usize)
            .collect();
        Mix {
            rng,
            starts,
            seen: Vec::new(),
            blocks: 0,
        }
    }

    /// Blocks the sequence holds: each miss kernel's `n` has `n/4`
    /// distinct sizes, one per block plus the warm-up.
    fn capacity() -> usize {
        MISS_KERNELS
            .iter()
            .map(|&(_, _, n, _)| n / 4)
            .min()
            .unwrap_or(0)
            - 1
    }

    /// The `i`-th spec of `MISS_KERNELS[k]`: `n` grows by a distinct
    /// offset below `n/4` (a seeded start plus `i` strides), so the spec
    /// is new to the cache and the work stays within a quarter of the base.
    fn fresh(&self, k: usize, i: usize) -> Spec {
        let (kernel, machine, n, m) = MISS_KERNELS[k];
        Spec {
            kernel,
            machine,
            p: 8,
            n: n + (self.starts[k] + i * STRIDE) % (n / 4),
            m,
        }
    }

    /// Specs to submit before timing, so the first pass has something to hit.
    fn warmup(&mut self) -> Vec<Spec> {
        let specs: Vec<Spec> = (0..MISS_KERNELS.len()).map(|k| self.fresh(k, 0)).collect();
        self.seen.extend(specs.iter().cloned());
        specs
    }

    /// The next pass: one miss per kernel and hits on earlier specs, in a
    /// seeded order; `None` once [`Mix::capacity`] blocks were made.
    fn next_block(&mut self) -> Option<Vec<Slot>> {
        if self.blocks == Self::capacity() {
            return None;
        }
        self.blocks += 1;
        let mut slots: Vec<Slot> = (0..MISS_KERNELS.len())
            .map(|k| Slot::Miss(self.fresh(k, self.blocks)))
            .collect();
        while slots.len() < BLOCK {
            let pick = self.rng.below(self.seen.len() as u64) as usize;
            slots.push(Slot::Hit(self.seen[pick].clone()));
        }
        for i in (1..slots.len()).rev() {
            slots.swap(i, self.rng.below(i as u64 + 1) as usize);
        }
        for s in &slots {
            if let Slot::Miss(spec) = s {
                self.seen.push(spec.clone());
            }
        }
        Some(slots)
    }
}

/// Latencies and books of a mix run.
#[derive(Debug, Default)]
pub struct MixRecord {
    /// Submits and their failures.
    pub tally: Tally,
    /// Seconds of each cache-served submit.
    pub hits: Vec<f64>,
    /// Seconds of each simulated submit.
    pub misses: Vec<f64>,
    /// Seconds of each `ping`.
    pub pings: Vec<f64>,
    /// Simulated instructions of the misses (MTA `issued`, SMP
    /// `instructions`).
    pub instructions: u64,
    /// Hits the sequence was designed to make.
    pub designed_hits: u64,
    /// Fingerprint of every spec, as first served.
    pub sims: BTreeMap<Spec, Sim>,
}

impl MixRecord {
    /// Submit `slot` (timed, inside a span), then check the reply
    /// (untimed). Returns the seconds of the submit.
    pub fn submit(&mut self, client: &mut Client, slot: &Slot, tr: &mut Tracer) -> f64 {
        let (spec, want_cached) = match slot {
            Slot::Miss(s) => (s, false),
            Slot::Hit(s) => (s, true),
        };
        let open = tr.enter("archgraphd", if want_cached { "hit" } else { "miss" });
        let t = Instant::now();
        let reply = client.submit(spec);
        let dt = t.elapsed().as_secs_f64();
        tr.exit(open);
        self.designed_hits += u64::from(want_cached);
        self.tally.attempted += 1;
        let what = spec.json();
        match reply {
            Err(e) => self.tally.fail(format!("{what}: {e}"), false),
            Ok(Reply::Failed(e)) => self.tally.fail(format!("{what}: {e}"), false),
            Ok(Reply::Done { cached, sim }) => {
                let first = self.sims.entry(spec.clone()).or_insert_with(|| sim.clone());
                if cached != want_cached || *first != sim {
                    self.tally.fail(
                        format!("{what}: cached={cached} sim={sim:?}, expected cached={want_cached} sim={first:?}"),
                        true,
                    );
                } else if cached {
                    self.hits.push(dt);
                } else {
                    self.instructions += sim
                        .iter()
                        .find(|(k, _)| k == "issued" || k == "instructions")
                        .map_or(0, |(_, v)| *v);
                    self.misses.push(dt);
                }
            }
        }
        dt
    }

    /// Submit a malformed request; it must come back as a failure. Used
    /// by the failure-accounting test.
    pub fn submit_malformed(&mut self, client: &mut Client, cells: &str) {
        self.tally.attempted += 1;
        match client.submit_raw(cells) {
            Ok(Reply::Failed(e)) => self.tally.fail(format!("{cells}: {e}"), false),
            Err(e) => self.tally.fail(format!("{cells}: {e}"), false),
            Ok(done) => self
                .tally
                .fail(format!("{cells}: malformed spec accepted: {done:?}"), true),
        }
    }

    /// Time one `ping`.
    pub fn ping(&mut self, client: &mut Client, tr: &mut Tracer) -> f64 {
        let open = tr.enter("archgraphd", "ping");
        let t = Instant::now();
        let r = client.ping();
        let dt = t.elapsed().as_secs_f64();
        tr.exit(open);
        match r {
            Ok(()) => self.pings.push(dt),
            Err(e) => self.tally.fail(format!("ping: {e}"), false),
        }
        dt
    }

    /// Check the daemon's counters against the books: every designed hit
    /// served from the cache, and no failures beyond those counted.
    pub fn reconcile(&mut self, status: &BTreeMap<String, u64>) {
        let hits = status.get("cache_hits").copied().unwrap_or(u64::MAX);
        if hits != self.designed_hits {
            self.tally.fail(
                format!(
                    "daemon counted {hits} cache hits, the mix made {}",
                    self.designed_hits
                ),
                true,
            );
        }
        let failures = status.get("failures").copied().unwrap_or(u64::MAX);
        if failures > self.tally.failed {
            self.tally
                .fail(format!("daemon counted {failures} failures"), false);
        }
    }

    /// Recompute the first spec of each miss kernel in this process and
    /// compare its fingerprint with the daemon's.
    pub fn verify_in_process(&mut self) {
        for (kernel, machine, _, _) in MISS_KERNELS {
            let Some((spec, sim)) = self
                .sims
                .iter()
                .find(|(s, _)| s.kernel == kernel && s.machine == machine)
            else {
                continue;
            };
            let mut local: Sim = spec
                .cell()
                .run()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            local.sort();
            let mut theirs = sim.clone();
            theirs.sort();
            if local != theirs {
                let what = format!(
                    "{}: daemon sim {theirs:?}, in-process {local:?}",
                    spec.json()
                );
                self.tally.fail(what, true);
            }
        }
    }
}

/// Run `daemon-mix` for about `seconds` against the daemon binary `bin`,
/// with the daemon's files under `dir`.
pub fn run(
    bin: &Path,
    dir: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    tr: &mut Tracer,
) -> std::io::Result<Outcome> {
    let mut setup_s = Vec::new();
    let mut live = None;
    for k in 0..SPAWN_REPS {
        if let Some((d, c)) = live.take() {
            Daemon::shutdown(d, c)?;
        }
        let open = tr.enter("archgraphd", "spawn");
        let (d, c, s) = Daemon::spawn(bin, &dir.join(format!("d{k}")))?;
        tr.exit(open);
        setup_s.push(s);
        live = Some((d, c));
    }
    let (daemon, mut client) = live.expect("SPAWN_REPS > 0");

    let mut mix = Mix::new(seed);
    let mut rec = MixRecord::default();
    for spec in mix.warmup() {
        rec.submit(&mut client, &Slot::Miss(spec), tr);
    }
    rec.misses.clear();
    rec.instructions = 0;

    let mut plain = Vec::new();
    let mut traced_passes = Vec::new();
    let start = Instant::now();
    for pass in 0.. {
        let trace_pass = traced && pass % 2 == 1;
        tr.set_enabled(trace_pass);
        let t = Instant::now();
        let open = tr.enter("perfbench", "pass");
        let Some(block) = mix.next_block() else {
            tr.exit(open);
            break;
        };
        let mut secs = rec.ping(&mut client, tr);
        for slot in block {
            secs += rec.submit(&mut client, &slot, tr);
        }
        tr.exit(open);
        let pass_wall = t.elapsed().as_secs_f64();
        if trace_pass {
            traced_passes.push(secs);
        } else {
            plain.push(secs);
        }
        let need_more = traced && traced_passes.is_empty();
        if !need_more && start.elapsed().as_secs_f64() + pass_wall > seconds {
            break;
        }
    }
    tr.set_enabled(traced);
    println!("# untraced pass seconds {plain:?}");

    let rss = crate::peak_rss_mb(&daemon.pid().to_string());
    let status = client.status()?;
    rec.reconcile(&status);
    let open = tr.enter("perfbench", "verify");
    rec.verify_in_process();
    tr.exit(open);
    daemon.shutdown(client)?;

    let mut o = Outcome {
        metrics: BTreeMap::new(),
        tally: Tally::default(),
    };
    let busy: f64 = plain.iter().chain(&traced_passes).sum();
    let done = rec.hits.len() + rec.misses.len();
    o.put(Metric::new(
        "setup_s",
        "s",
        median(&setup_s),
        SPAWN_REPS,
        "median spawn-to-pong",
    ));
    o.put(Metric::new(
        "wall_s",
        "s",
        median(&plain),
        plain.len(),
        "median of untraced passes",
    ));
    o.put(Metric::new(
        "sim_mips",
        "M/s",
        rec.instructions as f64 / busy / 1e6,
        rec.misses.len(),
        "instructions simulated for misses / host seconds of all requests",
    ));
    o.put(Metric::new(
        "peak_rss_mb",
        "MB",
        rss,
        1,
        "VmHWM of the daemon",
    ));
    o.put(Metric::new(
        "req_per_s",
        "1/s",
        done as f64 / busy,
        done,
        "completed submits / host seconds of all requests",
    ));
    o.put(Metric::p50_ms("miss_p50_ms", &rec.misses));
    o.put(Metric::tail_ms("miss_tail_ms", &rec.misses));
    o.put(Metric::p50_ms("hit_p50_ms", &rec.hits));
    o.put(Metric::tail_ms("hit_tail_ms", &rec.hits));
    let (ping, hit, miss) = (median(&rec.pings), median(&rec.hits), median(&rec.misses));
    o.put(Metric::p50_ms("archgraphd.ping_ms", &rec.pings));
    o.put(Metric::new(
        "archgraphd.queue_cache_ms",
        "ms",
        (hit - ping) * 1e3,
        rec.hits.len(),
        "median hit - median ping",
    ));
    o.put(Metric::new(
        "archgraphd.simulate_store_ms",
        "ms",
        (miss - hit) * 1e3,
        rec.misses.len(),
        "median miss - median hit",
    ));
    for (name, key, unit) in [
        ("archgraphd.cache_hits", "cache_hits", "count"),
        ("archgraphd.cells_run", "cells_run", "count"),
        ("archgraphd.failures", "failures", "count"),
        ("archgraphd.cache_bytes", "cache_bytes", "bytes"),
    ] {
        let v = status.get(key).copied().unwrap_or(0);
        o.put(Metric::new(
            name,
            unit,
            v as f64,
            1,
            "status op at the end of the run",
        ));
    }
    if traced {
        o.put(Metric::new(
            "tracing.overhead_s",
            "s",
            median(&traced_passes) - median(&plain),
            traced_passes.len(),
            format!(
                "median traced pass - median untraced pass ({} untraced)",
                plain.len()
            ),
        ));
    }
    o.tally = rec.tally;
    Ok(o)
}
