//! Serving topologies and the closed-loop load generator.
//!
//! Servers run in this process through `pipefail-serve`'s public API
//! (`serve`, `serve_federated`) with `workers = nproc`, a `TaskPool` of
//! width `nproc`, the default epoll core and the result cache at its
//! defaults. Load comes from `nproc` client threads, each owning one
//! keep-alive connection and sending its next request only when the
//! previous reply has been read.

use crate::check::Checker;
use crate::client::{self, Conn};
use crate::mix::{Class, Expect, Generator, Mix};
use crate::procfs;
use crate::trace::{Recorder, Span};
use pipefail::par::TaskPool;
use pipefail::serve::{
    serve, serve_federated, FedConfig, Federation, ServeContext, ServerConfig, ServerHandle,
    ShardSet,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// How long a freshly started server may take to answer `/healthz`.
const HEALTHY_WITHIN: Duration = Duration::from_secs(30);

/// Thread, connection and worker counts, all read from `nproc`.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// `std::thread::available_parallelism()`.
    pub nproc: usize,
    /// Load-generator threads (one keep-alive connection each).
    pub clients: usize,
    /// Server worker threads.
    pub workers: usize,
    /// `TaskPool` width for shard loading, `/batch` and `/aggregate`.
    pub pool: usize,
}

impl Sizing {
    /// Everything sized to this host's parallelism.
    pub fn from_host() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            nproc,
            clients: nproc,
            workers: nproc,
            pool: nproc,
        }
    }

    /// Server configuration: defaults except the worker count and the
    /// reload poll interval.
    pub fn server_config(&self, reload_poll_secs: f64) -> ServerConfig {
        ServerConfig {
            workers: self.workers,
            reload_poll_secs,
            ..ServerConfig::default()
        }
    }
}

/// A running in-process sharded server.
pub struct Sharded {
    /// Its handle.
    pub handle: ServerHandle,
    /// Its context (for direct layer calls in the traced run).
    pub ctx: Arc<ServeContext>,
}

/// Timings of one topology start.
#[derive(Debug, Clone, Copy)]
pub struct StartTimes {
    /// From opening the snapshot files to the first `200 /healthz` on
    /// every server.
    pub setup: Duration,
    /// Time spent in `ShardSet` loading alone (summed over servers).
    pub load: Duration,
}

fn load_shards(paths: &[PathBuf], sizing: &Sizing) -> Result<ShardSet, String> {
    let pool = TaskPool::new(sizing.pool);
    let set = ShardSet::load_paths(paths, &pool).map_err(|e| e.to_string())?;
    for shard in set.shards() {
        if !shard.last_good().mapped() {
            return Err(format!("shard {} was not served zero-copy", shard.key()));
        }
    }
    Ok(set)
}

/// Every `*.pfsnap` in `dir`, sorted.
pub fn snapshot_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "pfsnap"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// Start a sharded server over every snapshot in `dir` (loaded with
/// `ShardSet::load_dir`).
pub fn start_sharded(
    dir: &Path,
    sizing: &Sizing,
    reload_poll_secs: f64,
) -> Result<(Sharded, StartTimes), String> {
    let start = Instant::now();
    let pool = TaskPool::new(sizing.pool);
    let set = ShardSet::load_dir(dir, &pool).map_err(|e| e.to_string())?;
    let load = start.elapsed();
    for shard in set.shards() {
        if !shard.last_good().mapped() {
            return Err(format!("shard {} was not served zero-copy", shard.key()));
        }
    }
    let ctx = Arc::new(ServeContext::sharded(set).with_pool(TaskPool::new(sizing.pool)));
    let handle = serve(Arc::clone(&ctx), &sizing.server_config(reload_poll_secs))
        .map_err(|e| e.to_string())?;
    client::wait_healthy(handle.addr(), HEALTHY_WITHIN)?;
    let setup = start.elapsed();
    Ok((Sharded { handle, ctx }, StartTimes { setup, load }))
}

/// A running federation: one backend per region plus the front end.
pub struct Federated {
    /// The front end.
    pub front: ServerHandle,
    /// Backends in region-key order, with their contexts.
    pub backends: Vec<Sharded>,
}

/// Start one single-region backend per snapshot in `dir` and a
/// `serve_federated` front end over them.
pub fn start_federated(dir: &Path, sizing: &Sizing) -> Result<(Federated, StartTimes), String> {
    let start = Instant::now();
    let mut load = Duration::ZERO;
    let mut backends = Vec::new();
    let mut targets = Vec::new();
    for path in snapshot_files(dir)? {
        let t = Instant::now();
        let set = load_shards(std::slice::from_ref(&path), sizing)?;
        load += t.elapsed();
        let key = set.shards()[0].key().to_string();
        let ctx = Arc::new(ServeContext::sharded(set).with_pool(TaskPool::new(sizing.pool)));
        let handle =
            serve(Arc::clone(&ctx), &sizing.server_config(0.0)).map_err(|e| e.to_string())?;
        targets.push((key, handle.addr().to_string()));
        backends.push(Sharded { handle, ctx });
    }
    let fed = Federation::new(targets, FedConfig::default()).map_err(|e| e.to_string())?;
    let front =
        serve_federated(Arc::new(fed), &sizing.server_config(0.0)).map_err(|e| e.to_string())?;
    for b in &backends {
        client::wait_healthy(b.handle.addr(), HEALTHY_WITHIN)?;
    }
    client::wait_healthy(front.addr(), HEALTHY_WITHIN)?;
    let setup = start.elapsed();
    Ok((Federated { front, backends }, StartTimes { setup, load }))
}

/// One answered request of a window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Request class.
    pub class: Class,
    /// First byte sent to last byte read, ns.
    pub latency_ns: u64,
}

/// One measured closed-loop window.
#[derive(Debug, Default)]
pub struct Window {
    /// Every answered request sent inside the window, per client (kept
    /// apart so no copy is made before the memory peak is read).
    pub samples: Vec<Vec<Sample>>,
    /// Requests sent, warm-up included (a failure there fails the run too).
    pub attempted: u64,
    /// Of those, failed: bad status, failed check, timeout, I/O error.
    pub failed: u64,
    /// Requests that passed their checks and completed inside the window.
    pub ok_in_window: u64,
    /// Window length, seconds.
    pub seconds: f64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Spans, when traced.
    pub spans: Vec<Span>,
    /// CPU seconds this process used during the window.
    pub cpu_s: f64,
    /// Share of host CPU time stolen by the hypervisor during the window.
    pub steal: f64,
}

impl Window {
    /// Every sample.
    pub fn iter(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().flatten()
    }

    /// Answered requests.
    pub fn answered(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }

    /// Checked responses per second over the whole window.
    pub fn throughput(&self) -> f64 {
        self.ok_in_window as f64 / self.seconds
    }

    /// Latencies of every class in ms, sorted.
    pub fn latencies_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.iter().map(|s| s.latency_ns as f64 / 1e6).collect();
        crate::stats::sort(&mut v);
        v
    }

    /// Latencies of one class in µs, sorted.
    pub fn class_us(&self, class: Class) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.latency_ns as f64 / 1e3)
            .collect();
        crate::stats::sort(&mut v);
        v
    }
}

/// Settings of one closed-loop window.
pub struct LoadSpec<'a> {
    /// Server under load.
    pub addr: SocketAddr,
    /// Request mix.
    pub mix: Mix,
    /// Workload seed.
    pub seed: u64,
    /// Response checker.
    pub checker: &'a Checker,
    /// Client threads.
    pub clients: usize,
    /// Unmeasured warm-up before the window.
    pub warmup: Duration,
    /// Window length.
    pub seconds: f64,
    /// Record spans.
    pub trace: bool,
    /// Distinguishes this window's request streams from other windows'.
    pub stream: u64,
}

const MAX_ERRORS: usize = 5;

/// Drive `spec.clients` closed-loop clients for a warm-up and then one
/// measured window. Every response is checked.
pub fn closed_loop(spec: &LoadSpec<'_>) -> Window {
    let barrier = Barrier::new(spec.clients + 1);
    let epoch = Instant::now();
    let (per_client, usage): (Vec<Window>, procfs::Usage) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || client_loop(spec, c, barrier, epoch))
            })
            .collect();
        barrier.wait();
        let before = procfs::Usage::now();
        std::thread::sleep(Duration::from_secs_f64(spec.seconds));
        let usage = procfs::Usage::now().since(&before);
        let windows = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (windows, usage)
    });
    let mut out = Window {
        seconds: spec.seconds,
        cpu_s: usage.cpu_s,
        steal: usage.steal_share(),
        ..Window::default()
    };
    for w in per_client {
        out.samples.extend(w.samples);
        out.attempted += w.attempted;
        out.failed += w.failed;
        out.ok_in_window += w.ok_in_window;
        out.spans.extend(w.spans);
        for e in w.errors {
            if out.errors.len() < MAX_ERRORS {
                out.errors.push(e);
            }
        }
    }
    out
}

fn client_loop(spec: &LoadSpec<'_>, client: usize, barrier: &Barrier, epoch: Instant) -> Window {
    let fleet = spec.checker.fleet();
    let mut gen = Generator::new(
        spec.mix,
        spec.seed ^ spec.stream.wrapping_mul(0x9E37_79B9),
        fleet,
        client,
        spec.clients,
    );
    let mut conn = Conn::new(spec.addr);
    let mut w = Window::default();
    let fail = |w: &mut Window, msg: String| {
        w.failed += 1;
        if w.errors.len() < MAX_ERRORS {
            w.errors.push(msg);
        }
    };
    if spec.mix.iter().any(|(c, _)| *c == Class::Conditional) {
        for r in 0..gen.regions() {
            match conn.exchange(&client::get(&gen.top_target(r), None)) {
                Ok((resp, _)) if resp.status == 200 && resp.etag.is_some() => {
                    gen.learn_etag(r, resp.etag.expect("checked"));
                }
                other => fail(
                    &mut w,
                    format!("ETag fetch failed: {:?}", other.map(|(r, _)| r.status)),
                ),
            }
        }
    }
    let warm_end = Instant::now() + spec.warmup;
    while Instant::now() < warm_end {
        let req = gen.next_request();
        w.attempted += 1;
        match conn.exchange(&req.bytes) {
            Ok((resp, _)) => {
                if let Err(e) = spec.checker.check(&req, &resp) {
                    fail(&mut w, format!("warm-up: {e}"));
                }
            }
            Err(e) => fail(&mut w, format!("warm-up: {} {e}", req.class.label())),
        }
    }
    barrier.wait();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(spec.seconds);
    let mut rec = Recorder::new(epoch, client as u32 + 1, spec.trace);
    let mut rid = (client as u64) << 48;
    // Reserved up front so the vector never reallocates mid-window: pages
    // become resident only as samples land, so the memory peak grows with
    // the sample count and nothing else.
    let mut samples = Vec::with_capacity(1 << 21);
    while Instant::now() < deadline {
        rid += 1;
        rec.enter("client.request", rid);
        let req = gen.next_request();
        w.attempted += 1;
        rec.enter("client.exchange", rid);
        let result = conn.exchange(&req.bytes);
        rec.exit();
        let done = Instant::now();
        match result {
            Ok((resp, took)) => {
                let verdict = rec.time("client.check", rid, || spec.checker.check(&req, &resp));
                samples.push(Sample {
                    class: req.class,
                    latency_ns: took.as_nanos() as u64,
                });
                match verdict {
                    Ok(()) if done <= deadline => w.ok_in_window += 1,
                    Ok(()) => {}
                    Err(e) => fail(&mut w, e),
                }
            }
            Err(e) => fail(&mut w, format!("{}: {e}", req.class.label())),
        }
        rec.exit();
    }
    w.samples = vec![samples];
    w.spans = rec.into_spans();
    w
}

/// The first `per_class[i].1` specs of each aggregate class in client 0's
/// request stream.
pub fn sample_specs(
    mix: Mix,
    seed: u64,
    checker: &Checker,
    clients: usize,
    per_class: &[(Class, usize)],
) -> Vec<(Class, String)> {
    let mut gen = Generator::new(mix, seed, checker.fleet(), 0, clients);
    let mut out: Vec<(Class, String)> = Vec::new();
    let wanted: usize = per_class.iter().map(|(_, n)| n).sum();
    for _ in 0..100 * crate::mix::DECK {
        if out.len() == wanted {
            break;
        }
        let req = gen.next_request();
        let Expect::Aggregate { spec } = req.expect else {
            continue;
        };
        let quota = per_class
            .iter()
            .find(|(c, _)| *c == req.class)
            .map_or(0, |(_, n)| *n);
        if out.iter().filter(|(c, _)| *c == req.class).count() < quota {
            out.push((req.class, spec));
        }
    }
    out
}

/// Byte-compare a sample of aggregate specs between a sharded server and
/// a federation front end holding the same regions.
pub fn cross_topology(
    sharded: SocketAddr,
    front: SocketAddr,
    specs: &[(Class, String)],
) -> Result<usize, String> {
    // Fresh connections: a slow federated answer can outlast the sharded
    // server's keep-alive idle timeout.
    for (_, spec) in specs {
        let req = client::post("/aggregate", spec);
        let (ra, _) = Conn::new(sharded)
            .exchange(&req)
            .map_err(|e| format!("sharded: {e}"))?;
        let (rb, _) = Conn::new(front)
            .exchange(&req)
            .map_err(|e| format!("federated: {e}"))?;
        crate::check::same_across(spec, &ra, &rb)?;
    }
    Ok(specs.len())
}
