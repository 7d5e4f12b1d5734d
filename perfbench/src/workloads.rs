//! The serving workloads: `lookup`, `analytics` and `federated`.

use crate::check::Checker;
use crate::client::{self, Conn};
use crate::data::{self, Fleet, Layout};
use crate::mix::{self, Class, Expect, Generator, Mix};
use crate::serving::{self, Federated, LoadSpec, Sharded, Sizing, StartTimes, Window};
use crate::stats;
use crate::trace::{self, Recorder};
use crate::{procfs, Args, Report, WorkDir};
use pipefail::core::snapshot::v2;
use pipefail::network::PipeId;
use pipefail::serve::{http, merge_top_k, parser, AggregateSpec, Metrics, Scorer, ServerConfig};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// First argument that turns the binary into the input generator.
pub const GEN_FLAG: &str = "--generate-inputs";

/// Topology starts per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 25;

/// Unmeasured traffic before each window (fills caches, spins up pools).
const WARMUP: Duration = Duration::from_secs(1);

/// `analytics`: reload watcher poll interval.
const RELOAD_POLL_SECS: f64 = 0.5;

/// `analytics`: one re-scored snapshot is rename-published this often.
const PUBLISH_EVERY: Duration = Duration::from_secs(2);

/// Aggregate specs byte-compared across topologies after the window, by
/// class.
const CROSS_SAMPLE: [(Class, usize); 3] = [
    (Class::AggregateBudget, 2),
    (Class::AggregateScan, 2),
    (Class::AggregateDashboard, 1),
];

/// Requests replayed through the layer functions in a traced run.
const REPLAY: usize = 3000;

/// Requests per side of the federation hop probe.
const HOP_PROBES: usize = 400;

/// Specs per class sent to a backend's `/aggregate?partial=1`.
const PARTIAL_PROBES: usize = 5;

fn fleet_for(workload: &str, seed: u64) -> Fleet {
    match workload {
        "lookup" => Fleet::lookup(seed),
        _ => Fleet::analytics(seed, 0),
    }
}

fn mix_for(workload: &str) -> Mix {
    match workload {
        "lookup" => mix::LOOKUP,
        "analytics" => mix::ANALYTICS,
        _ => mix::FEDERATED,
    }
}

/// Entry point of the generator child: `--generate-inputs WORKLOAD SEED
/// DIR RELOADS`. Prints `encode_ms=<median v2 encode time>`.
pub fn generator_main(argv: &[String]) -> Result<(), String> {
    let [workload, seed, dir, reloads] = argv else {
        return Err("expected WORKLOAD SEED DIR RELOADS".into());
    };
    let seed: u64 = seed.parse().map_err(|e| format!("seed: {e}"))?;
    let reloads: u32 = reloads.parse().map_err(|e| format!("reloads: {e}"))?;
    let encode_ms = data::generate(
        seed,
        &fleet_for(workload, seed),
        reloads,
        std::path::Path::new(dir),
    )
    .map_err(|e| e.to_string())?;
    println!("encode_ms={encode_ms}");
    Ok(())
}

/// Write the workload's snapshots from a child process (so this
/// process's memory peak never includes generation); returns the median
/// encode time the child measured.
fn generate_inputs(args: &Args, work: &WorkDir, reloads: u32) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .arg(GEN_FLAG)
        .arg(&args.workload)
        .arg(args.seed.to_string())
        .arg(work.path())
        .arg(reloads.to_string())
        .output()
        .map_err(|e| format!("generator: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "generator failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("encode_ms="))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "generator printed no encode time".to_string())
}

enum Topology {
    Sharded(Sharded),
    Federated(Federated),
}

impl Topology {
    fn start(
        workload: &str,
        layout: &Layout,
        sizing: &Sizing,
    ) -> Result<(Self, StartTimes), String> {
        Ok(match workload {
            "lookup" => {
                let (s, t) = serving::start_sharded(&layout.shards, sizing, 0.0)?;
                (Topology::Sharded(s), t)
            }
            "analytics" => {
                let (s, t) = serving::start_sharded(&layout.shards, sizing, RELOAD_POLL_SECS)?;
                (Topology::Sharded(s), t)
            }
            _ => {
                let (f, t) = serving::start_federated(&layout.shards, sizing)?;
                (Topology::Federated(f), t)
            }
        })
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Topology::Sharded(s) => s.handle.addr(),
            Topology::Federated(f) => f.front.addr(),
        }
    }

    /// Front-end metrics, then every backend's.
    fn metrics(&self) -> Vec<Arc<Metrics>> {
        match self {
            Topology::Sharded(s) => vec![s.handle.metrics()],
            Topology::Federated(f) => std::iter::once(f.front.metrics())
                .chain(f.backends.iter().map(|b| b.handle.metrics()))
                .collect(),
        }
    }

    fn shutdown(self) {
        match self {
            Topology::Sharded(s) => s.handle.shutdown(),
            Topology::Federated(f) => {
                f.front.shutdown();
                for b in f.backends {
                    b.handle.shutdown();
                }
            }
        }
    }
}

/// Counter readings of one topology.
#[derive(Debug, Clone, Default)]
struct Counters {
    keepalive: u64,
    admission: u64,
    shed: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    coalesced: u64,
    resident: u64,
    reloads_ok: u64,
    reloads_failed: u64,
    retries: u64,
    hedges: u64,
    hedge_wins: u64,
    probe_failures: u64,
    shard_requests: Vec<u64>,
}

impl Counters {
    fn read_federation(fed: &Federated) -> Self {
        let m = fed.front.metrics();
        Counters {
            retries: m.fed_retries_total(),
            hedges: m.fed_hedges_total(),
            hedge_wins: m.fed_hedge_wins_total(),
            probe_failures: m.fed_probe_failures_total(),
            ..Counters::default()
        }
    }

    fn read(topology: &Topology, shards: usize) -> Self {
        let all = topology.metrics();
        let front = &all[0];
        let mut c = Counters {
            keepalive: front.keepalive_reuses(),
            admission: front.admission_rejected_total(),
            shed: front.connections_shed_total(),
            retries: front.fed_retries_total(),
            hedges: front.fed_hedges_total(),
            hedge_wins: front.fed_hedge_wins_total(),
            probe_failures: front.fed_probe_failures_total(),
            reloads_ok: front.reloads_total(),
            reloads_failed: front.reload_failures_total(),
            ..Counters::default()
        };
        for m in &all {
            c.hits += m.cache_hits_total();
            c.misses += m.cache_misses_total();
            c.evictions += m.cache_evictions_total();
            c.coalesced += m.cache_coalesced_waits_total();
            c.resident += m.cache_resident_bytes();
        }
        c.shard_requests = if all.len() > 1 {
            all[1..].iter().map(|m| m.shard_requests(0)).collect()
        } else {
            (0..shards).map(|i| front.shard_requests(i)).collect()
        };
        c
    }
}

/// Rename-publish re-scored snapshots on a schedule while a window runs.
struct Publisher<'a> {
    layout: &'a Layout,
    fleet: &'a Fleet,
    seed: u64,
    addr: SocketAddr,
    /// Next pending snapshot number.
    next: u32,
    /// Measure rename-to-new-ETag visibility.
    track: bool,
    visible_ms: Vec<f64>,
    errors: Vec<String>,
}

impl Publisher<'_> {
    /// The fleet as served once every snapshot published so far is live.
    fn current_fleet(&self) -> Fleet {
        let mut fleet = self.fleet.clone();
        for k in 1..self.next {
            let region = data::pending_region(self.seed, self.fleet, k);
            let idx = fleet
                .regions
                .iter()
                .position(|r| r.key == region.key)
                .expect("same keys");
            fleet.regions[idx] = region;
        }
        fleet
    }

    fn run(&mut self, count: u32, start: Instant, stop: &AtomicBool) {
        for i in 0..count {
            let due = start + WARMUP + PUBLISH_EVERY / 2 + PUBLISH_EVERY * i;
            while Instant::now() < due {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let k = self.next;
            self.next += 1;
            if let Err(e) = self.publish(k) {
                self.errors.push(e);
            }
        }
    }

    fn publish(&mut self, k: u32) -> Result<(), String> {
        let target = data::pending_target(self.fleet, k);
        let probe = client::get(&format!("/top?region={}&k=1", target.key), None);
        let mut conn = Conn::new(self.addr);
        let before = if self.track {
            conn.exchange(&probe).map_err(|e| e.to_string())?.0.etag
        } else {
            None
        };
        let renamed = Instant::now();
        std::fs::rename(self.layout.pending(k), self.layout.live(target))
            .map_err(|e| format!("publish {k}: {e}"))?;
        if !self.track {
            return Ok(());
        }
        let expected = crate::check::top_body(&data::pending_region(self.seed, self.fleet, k), 1);
        loop {
            let (resp, _) = conn.exchange(&probe).map_err(|e| e.to_string())?;
            if resp.status == 200 && resp.etag != before {
                if resp.body != expected.as_bytes() {
                    return Err(format!(
                        "reloaded {} serves {:.80}",
                        target.key,
                        resp.text()
                    ));
                }
                self.visible_ms.push(renamed.elapsed().as_secs_f64() * 1e3);
                return Ok(());
            }
            if renamed.elapsed() > Duration::from_secs(20) {
                return Err(format!("reload of {} never became visible", target.key));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// One window, with the analytics publisher running beside it.
fn measure(spec: &LoadSpec<'_>, publisher: Option<&mut Publisher<'_>>, publishes: u32) -> Window {
    let Some(publisher) = publisher else {
        return serving::closed_loop(spec);
    };
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|s| {
        let stop = &stop;
        s.spawn(move || publisher.run(publishes, start, stop));
        let w = serving::closed_loop(spec);
        stop.store(true, Ordering::SeqCst);
        w
    })
}

fn push_window_errors(report: &mut Report, what: &str, w: &Window) {
    for e in &w.errors {
        report.lines.push(format!("FAILED ({what}): {e}"));
    }
}

/// The end-to-end metrics of a serving run.
fn end_to_end(report: &mut Report, setups: &[f64], w: &Window, rss: f64) {
    let lat = w.latencies_ms();
    let setup = stats::median(setups).unwrap_or(f64::NAN);
    let throughput = w.throughput();
    let p50 = stats::quantile(&lat, 0.5).unwrap_or(f64::NAN);
    report.end_to_end = vec![("setup_s", setup), ("rss_peak_mb", rss)];
    report.lines.push(format!(
        "metric setup_s = {setup} s (median of {} set-ups: {setups:?})",
        setups.len()
    ));
    report.lines.push(format!(
        "metric throughput_rps = {throughput} req/s ({} checked responses in {} s)",
        w.ok_in_window, w.seconds
    ));
    report.lines.push(format!(
        "metric latency_p50_ms = {p50} ms ({} samples, all classes pooled)",
        lat.len()
    ));
    match stats::tail(&lat, 0.99) {
        Ok(p99) => report
            .lines
            .push(format!("metric latency_p99_ms = {p99} ms")),
        Err(r) => report.lines.push(format!(
            "metric latency_p99_ms REFUSED: only {} of {} samples lie beyond it (needs {})",
            r.beyond,
            r.samples,
            stats::MIN_BEYOND
        )),
    }
    let error_rate = if w.attempted > 0 {
        w.failed as f64 / w.attempted as f64
    } else {
        1.0
    };
    report.lines.push(format!(
        "metric error_rate = {error_rate} ratio ({} failed of {} attempted)",
        w.failed, w.attempted
    ));
    report.lines.push(format!("metric rss_peak_mb = {rss} MiB"));
    let cpu_ms = w.cpu_s * 1e3 / w.ok_in_window.max(1) as f64;
    report.end_to_end.push(("cpu_ms_per_op", cpu_ms));
    report.lines.push(format!(
        "metric cpu_ms_per_op = {cpu_ms} ms (process CPU {} s over {} checked responses; server and load generator share the process)",
        w.cpu_s, w.ok_in_window
    ));
    report.lines.push(format!(
        "host: hypervisor steal {:.1}% of host CPU during the window",
        w.steal * 100.0
    ));
    report
        .lines
        .push("metric fit_s = not applicable (fit workload only)".into());
}

/// Per-class client latencies of a traced window.
fn class_layers(report: &mut Report, w: &Window, mix: Mix) {
    for (class, _) in mix {
        let us = w.class_us(*class);
        let name = class.label();
        if let Some(p50) = stats::quantile(&us, 0.5) {
            report.layers.set(&format!("http.class.{name}.p50_us"), p50);
        }
        match stats::tail(&us, 0.99) {
            Ok(p99) => report.layers.set(&format!("http.class.{name}.p99_us"), p99),
            Err(r) => report.lines.push(format!(
                "layer http.class.{name}.p99_us refused: {} of {} samples beyond it (reported as 0)",
                r.beyond, r.samples
            )),
        }
    }
}

fn counter_layers(
    report: &mut Report,
    before: &Counters,
    after: &Counters,
    w: &Window,
    workload: &str,
) {
    let d = |a: u64, b: u64| b.saturating_sub(a) as f64;
    let l = &mut report.layers;
    l.set(
        "http.keepalive_reuses",
        d(before.keepalive, after.keepalive),
    );
    l.set(
        "http.admission_rejected",
        d(before.admission, after.admission),
    );
    l.set("http.connections_shed", d(before.shed, after.shed));
    let hits = d(before.hits, after.hits);
    let lookups = hits + d(before.misses, after.misses);
    if lookups > 0.0 {
        l.set("cache.hit_ratio", hits / lookups);
    }
    l.set("cache.evictions", d(before.evictions, after.evictions));
    l.set(
        "cache.coalesced_waits",
        d(before.coalesced, after.coalesced),
    );
    l.set("cache.resident_bytes", after.resident as f64);
    let per_shard: Vec<f64> = before
        .shard_requests
        .iter()
        .zip(&after.shard_requests)
        .map(|(a, b)| d(*a, *b))
        .collect();
    let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
    if mean > 0.0 {
        let max = per_shard.iter().copied().fold(0.0, f64::max);
        l.set("shards.request_imbalance", max / mean);
    }
    report
        .lines
        .push(format!("layer shards per-shard requests = {per_shard:?}"));
    if workload == "analytics" {
        l.set("reload.ok", d(before.reloads_ok, after.reloads_ok));
        l.set(
            "reload.failed",
            d(before.reloads_failed, after.reloads_failed),
        );
    }
    if workload == "federated" {
        federation_layers(report, before, after, w.answered());
    }
}

/// Federation counters over `requests` front-end requests.
fn federation_layers(report: &mut Report, before: &Counters, after: &Counters, requests: usize) {
    let d = |a: u64, b: u64| b.saturating_sub(a) as f64;
    let l = &mut report.layers;
    let retries = d(before.retries, after.retries);
    let hedges = d(before.hedges, after.hedges);
    l.set("federation.retries", retries);
    l.set("federation.hedges", hedges);
    l.set(
        "federation.hedge_wins",
        d(before.hedge_wins, after.hedge_wins),
    );
    l.set(
        "federation.probe_failures",
        d(before.probe_failures, after.probe_failures),
    );
    if requests > 0 {
        let n = requests as f64;
        l.set(
            "federation.attempts_per_request",
            (n + retries + hedges) / n,
        );
    }
}

/// Replay a seeded sample of the workload's requests through the public
/// layer functions, one span per call.
fn replay(
    sharded: &Sharded,
    checker: &Checker,
    mix: Mix,
    seed: u64,
    rec: &mut Recorder,
) -> Result<(), String> {
    let shards = sharded.ctx.shards();
    let views: Vec<Arc<Scorer>> = shards
        .shards()
        .iter()
        .map(|s| s.serving())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("replay: {e}"))?;
    let mut gen = Generator::new(mix, seed ^ 0x005E_ED0F_7EA5, checker.fleet(), 0, 1);
    for i in 0..REPLAY as u64 {
        let req = gen.next_request();
        let rid = (1u64 << 62) | i;
        rec.enter("replay.request", rid);
        let parsed = rec.time("parser.parse_request", rid, || {
            parser::parse_request(black_box(&req.bytes), 64 * 1024)
        });
        if !matches!(parsed, Ok(parser::ParseOutcome::Complete(..))) {
            return Err(format!("replayed request did not parse: {parsed:?}"));
        }
        match &req.expect {
            Expect::Pipe { region, id } => {
                let scorer = &views[*region];
                let risk = rec
                    .time("scorer.risk_of", rid, || {
                        scorer.risk_of(PipeId(black_box(*id)))
                    })
                    .ok_or("replayed pipe not ranked")?;
                let body = rec.time("http.render_pipe_risk", rid, || {
                    http::render_pipe_risk(&risk)
                });
                if Some(body) != crate::check::pipe_body(&checker.fleet().regions[*region], *id) {
                    return Err("replayed /pipe body differs".into());
                }
            }
            Expect::Top { region, k } => {
                let scorer = &views[*region];
                rec.time("scorer.top_k", rid, || {
                    black_box(scorer.top_k(*k).iter().map(|r| r.score).sum::<f64>())
                });
                black_box(rec.time("http.render_top_k", rid, || http::render_top_k(scorer, *k)));
            }
            Expect::GlobalTop { k } => {
                let merged = rec
                    .time("shards.global_top_k", rid, || shards.global_top_k(*k))
                    .map_err(|d| format!("degraded: {d:?}"))?;
                black_box(rec.time("http.render_global_top_k", rid, || {
                    http::render_global_top_k(shards, &merged, *k)
                }));
                let tables: Vec<_> = views.iter().map(|s| s.top_k(*k)).collect();
                black_box(rec.time("shards.merge_top_k", rid, || merge_top_k(&tables, *k)));
            }
            Expect::Aggregate { spec } => {
                rec.time("aggregate.spec_parse", rid, || {
                    AggregateSpec::parse(black_box(spec))
                })
                .map_err(|e| format!("replayed spec rejected: {e}"))?;
            }
            Expect::Batch(_) | Expect::NotModified { .. } => {}
        }
        rec.exit();
    }
    Ok(())
}

/// `aggregate.partial_*`: direct backend `/aggregate?partial=1` by class.
fn partial_probes(
    report: &mut Report,
    backend: SocketAddr,
    seed: u64,
    checker: &Checker,
) -> Result<(), String> {
    let quota: Vec<(Class, usize)> = [
        Class::AggregateBudget,
        Class::AggregateScan,
        Class::AggregateDashboard,
    ]
    .into_iter()
    .map(|c| (c, PARTIAL_PROBES))
    .collect();
    let specs = serving::sample_specs(mix::ANALYTICS, seed ^ 0xBAC_4E4D, checker, 1, &quota);
    let mut conn = Conn::new(backend);
    for (class, short) in [
        (Class::AggregateBudget, "budget"),
        (Class::AggregateScan, "scan"),
        (Class::AggregateDashboard, "dashboard"),
    ] {
        let mut ms = Vec::new();
        let mut bytes = Vec::new();
        for (_, spec) in specs
            .iter()
            .filter(|(c, _)| *c == class)
            .take(PARTIAL_PROBES)
        {
            let (resp, took) = conn
                .exchange(&client::post("/aggregate?partial=1", spec))
                .map_err(|e| format!("partial probe: {e}"))?;
            if resp.status != 200 {
                return Err(format!("partial probe answered {}", resp.status));
            }
            ms.push(took.as_secs_f64() * 1e3);
            bytes.push(resp.body.len() as f64);
        }
        if let (Some(m), Some(b)) = (stats::median(&ms), stats::median(&bytes)) {
            report
                .layers
                .set(&format!("aggregate.partial_ms.{short}"), m);
            report
                .layers
                .set(&format!("aggregate.partial_bytes.{short}"), b);
        }
    }
    Ok(())
}

/// `federation.hop_us`: the same region-routed requests through the front
/// end and straight to their backend.
fn hop_probe(
    report: &mut Report,
    fed: &Federated,
    checker: &Checker,
    seed: u64,
) -> Result<(), String> {
    let mut gen = Generator::new(
        &[(Class::Pipe, mix::DECK)],
        seed ^ 0x40B,
        checker.fleet(),
        0,
        1,
    );
    let mut front = Conn::new(fed.front.addr());
    let mut direct: Vec<Conn> = fed
        .backends
        .iter()
        .map(|b| Conn::new(b.handle.addr()))
        .collect();
    let (mut via, mut straight) = (Vec::new(), Vec::new());
    for i in 0..HOP_PROBES {
        let req = gen.next_request();
        let Expect::Pipe { region, .. } = req.expect else {
            unreachable!("pipe-only mix")
        };
        let order: [bool; 2] = if i % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        for through_front in order {
            let conn = if through_front {
                &mut front
            } else {
                &mut direct[region]
            };
            let (resp, took) = conn
                .exchange(&req.bytes)
                .map_err(|e| format!("hop probe: {e}"))?;
            checker.check(&req, &resp)?;
            let us = took.as_secs_f64() * 1e6;
            if through_front {
                via.push(us)
            } else {
                straight.push(us)
            }
        }
    }
    let (Some(a), Some(b)) = (stats::median(&via), stats::median(&straight)) else {
        return Err("hop probe took no samples".into());
    };
    report.layers.set("federation.hop_us", a - b);
    report.lines.push(format!(
        "layer federation hop: front-end p50 {a} us, direct backend p50 {b} us"
    ));
    Ok(())
}

/// `snapshot.validate_ms`, `scorer.load_ms`, `metrics.render_us`.
fn snapshot_probes(
    report: &mut Report,
    layout: &Layout,
    metrics: &Metrics,
    rec: &mut Recorder,
) -> Result<(), String> {
    let mut validate = Vec::new();
    let mut load = Vec::new();
    for path in serving::snapshot_files(&layout.shards)? {
        let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
        let t = Instant::now();
        rec.time("snapshot.v2_validate", 0, || {
            v2::validate(black_box(&bytes))
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
        validate.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let scorer = rec
            .time("scorer.load", 0, || Scorer::load(&path))
            .map_err(|e| e.to_string())?;
        load.push(t.elapsed().as_secs_f64() * 1e3);
        if !scorer.mapped() {
            return Err(format!("{} did not load zero-copy", path.display()));
        }
    }
    report.layers.set(
        "snapshot.validate_ms",
        stats::median(&validate).unwrap_or(0.0),
    );
    report
        .layers
        .set("scorer.load_ms", stats::median(&load).unwrap_or(0.0));
    let mut render = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        black_box(rec.time("metrics.render", 0, || metrics.render()));
        render.push(t.elapsed().as_secs_f64() * 1e6);
    }
    report
        .layers
        .set("metrics.render_us", stats::median(&render).unwrap_or(0.0));
    Ok(())
}

/// `lookup`: fill the result cache to its byte budget before measuring,
/// so the window sees the steady state of a long-running server: a full
/// cache of `/pipe` bodies, evicting. Fills with checked `/pipe` requests
/// for seeded ids, pipelined on fresh connections from `clients` threads.
fn prefill_cache(
    addr: SocketAddr,
    checker: &Checker,
    metrics: &Metrics,
    seed: u64,
    clients: usize,
) -> Result<usize, String> {
    let config = ServerConfig::default();
    let target = PREFILL_SHARE * config.cache_bytes as f64;
    let batch = match config.keepalive_requests {
        0 => 100,
        n => n.min(100),
    };
    let fill = |client: usize| -> Result<usize, String> {
        let mut gen = Generator::new(
            &[(Class::Pipe, mix::DECK)],
            seed ^ 0xF111,
            checker.fleet(),
            client,
            clients,
        );
        let mut sent = 0;
        while (metrics.cache_resident_bytes() as f64) < target {
            if sent >= PREFILL_MAX {
                return Err(format!(
                    "cache holds {} bytes after {sent} prefill requests",
                    metrics.cache_resident_bytes()
                ));
            }
            let reqs: Vec<mix::Request> = (0..batch).map(|_| gen.next_request()).collect();
            let bytes: Vec<Vec<u8>> = reqs.iter().map(|r| r.bytes.clone()).collect();
            let resps = Conn::new(addr)
                .pipeline(&bytes)
                .map_err(|e| format!("prefill: {e}"))?;
            for (req, resp) in reqs.iter().zip(&resps) {
                checker
                    .check(req, resp)
                    .map_err(|e| format!("prefill: {e}"))?;
            }
            sent += batch;
        }
        Ok(sent)
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients).map(|c| scope.spawn(move || fill(c))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("prefill thread panicked"))
            .sum()
    })
}

/// Prefill requests one thread may send before giving up.
const PREFILL_MAX: usize = 3_000_000;

/// Share of the cache budget the prefill fills.
const PREFILL_SHARE: f64 = 0.95;

/// Start the workload's topology [`SETUP_REPEATS`] times (each start shut
/// down before the next) and keep the last one running.
fn start_repeatedly(
    workload: &str,
    layout: &Layout,
    sizing: &Sizing,
) -> Result<(Topology, Vec<f64>, Vec<f64>), String> {
    let mut setups = Vec::new();
    let mut loads = Vec::new();
    let mut running: Option<Topology> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(t) = running.take() {
            t.shutdown();
        }
        let (t, times) = Topology::start(workload, layout, sizing)?;
        setups.push(times.setup.as_secs_f64());
        loads.push(times.load.as_secs_f64() * 1e3);
        running = Some(t);
    }
    Ok((running.expect("started at least once"), setups, loads))
}

/// Run one serving workload.
pub fn run(args: &Args, work: &WorkDir) -> Result<Report, String> {
    let workload = args.workload.as_str();
    let sizing = Sizing::from_host();
    let mix = mix_for(workload);
    let analytics = workload == "analytics";
    let per_window = if analytics {
        (args.seconds / PUBLISH_EVERY.as_secs_f64()).floor() as u32
    } else {
        0
    };
    let windows = if args.trace { 2 } else { 1 };
    let layout = Layout::under(work.path());
    let encode_ms = generate_inputs(args, work, per_window * windows)?;
    let fleet = fleet_for(workload, args.seed);
    let checker = Checker::new(fleet.clone());
    let mut report = Report::default();
    report.lines.push(format!(
        "perfbench workload={workload} seed={} seconds={} trace={} nproc={} clients={} connections={} workers={} pool={} load=closed-loop",
        args.seed, args.seconds, u8::from(args.trace), sizing.nproc, sizing.clients, sizing.clients, sizing.workers, sizing.pool
    ));
    // The snapshots were written by a child process; this process holds
    // only the closed-form description of the fleet.
    if let Err(e) = procfs::reset_peak_rss() {
        report.lines.push(format!("note: peak RSS not reset ({e})"));
    }

    let (topology, setups, loads) = start_repeatedly(workload, &layout, &sizing)?;
    if let Topology::Sharded(s) = &topology {
        if workload == "lookup" {
            let sent = prefill_cache(
                s.handle.addr(),
                &checker,
                &s.handle.metrics(),
                args.seed,
                sizing.clients,
            )?;
            report.lines.push(format!(
                "cache prefilled to its byte budget with {sent} checked /pipe requests"
            ));
        }
    }

    let mut publisher = Publisher {
        layout: &layout,
        fleet: &fleet,
        seed: args.seed,
        addr: topology.addr(),
        next: 1,
        track: false,
        visible_ms: Vec::new(),
        errors: Vec::new(),
    };
    let spec = LoadSpec {
        addr: topology.addr(),
        mix,
        seed: args.seed,
        checker: &checker,
        clients: sizing.clients,
        warmup: WARMUP,
        seconds: args.seconds,
        trace: false,
        stream: 0,
    };
    let window = measure(&spec, analytics.then_some(&mut publisher), per_window);
    let rss = procfs::peak_rss_mib()?;
    push_window_errors(&mut report, "window", &window);
    end_to_end(&mut report, &setups, &window, rss);
    report.attempted = window.attempted;
    report.failed = window.failed;

    let mut spans = Vec::new();
    if args.trace {
        let before = Counters::read(&topology, fleet.regions.len());
        publisher.track = true;
        let traced_spec = LoadSpec {
            trace: true,
            stream: 1,
            ..spec
        };
        let traced = measure(
            &traced_spec,
            analytics.then_some(&mut publisher),
            per_window,
        );
        let after = Counters::read(&topology, fleet.regions.len());
        push_window_errors(&mut report, "traced window", &traced);
        report.failed += traced.failed;
        class_layers(&mut report, &traced, mix);
        counter_layers(&mut report, &before, &after, &traced, workload);
        let (pu, pt) = (
            stats::quantile(&window.latencies_ms(), 0.5).unwrap_or(f64::NAN),
            stats::quantile(&traced.latencies_ms(), 0.5).unwrap_or(f64::NAN),
        );
        report
            .layers
            .set("trace.overhead_p50_pct", (pt / pu - 1.0) * 100.0);
        report.layers.set(
            "trace.overhead_throughput_pct",
            (traced.throughput() / window.throughput() - 1.0) * 100.0,
        );
        report.lines.push(format!(
            "trace overhead: p50 {pu} ms untraced vs {pt} ms traced; throughput {} vs {} req/s",
            window.throughput(),
            traced.throughput()
        ));
        if let Some(v) = stats::median(&publisher.visible_ms) {
            report.layers.set("reload.visible_ms", v);
        }
        spans = traced.spans;
    }
    for e in &publisher.errors {
        report.lines.push(format!("FAILED (reload): {e}"));
    }
    let mut failures = publisher.errors.len() as u64;

    // The other topology over the same (final) snapshot files: the
    // cross-topology identity check and the layer probes run against it.
    let (sharded, federated) = match topology {
        Topology::Sharded(s) if workload == "lookup" => (s, None),
        Topology::Sharded(s) => (
            s,
            Some(serving::start_federated(&layout.shards, &sizing)?.0),
        ),
        Topology::Federated(f) => (
            serving::start_sharded(&layout.shards, &sizing, 0.0)?.0,
            Some(f),
        ),
    };
    let fed_before = federated.as_ref().map(Counters::read_federation);
    if let Some(fed) = &federated {
        let sample = serving::sample_specs(mix, args.seed, &checker, sizing.clients, &CROSS_SAMPLE);
        match serving::cross_topology(sharded.handle.addr(), fed.front.addr(), &sample) {
            Ok(n) => report.lines.push(format!(
                "check: {n} sampled /aggregate bodies byte-identical across sharded and federated"
            )),
            Err(e) => {
                failures += 1;
                report.lines.push(format!("FAILED (cross-topology): {e}"));
            }
        }
    }

    if args.trace {
        let mut rec = Recorder::new(Instant::now(), 0, true);
        replay(&sharded, &checker, mix, args.seed, &mut rec)?;
        let metrics = match &federated {
            Some(fed) if workload == "federated" => fed.front.metrics(),
            _ => sharded.handle.metrics(),
        };
        snapshot_probes(&mut report, &layout, &metrics, &mut rec)?;
        if let Some(fed) = &federated {
            partial_probes(
                &mut report,
                fed.backends[0].handle.addr(),
                args.seed,
                &checker,
            )?;
            hop_probe(
                &mut report,
                fed,
                &Checker::new(publisher.current_fleet()),
                args.seed,
            )?;
            if analytics {
                // The federation layer runs only behind the companion
                // front end here: its counters cover the cross-topology
                // sample and the probes.
                let after = Counters::read_federation(fed);
                let sent = CROSS_SAMPLE.iter().map(|(_, n)| n).sum::<usize>() + HOP_PROBES;
                federation_layers(
                    &mut report,
                    fed_before.as_ref().expect("read above"),
                    &after,
                    sent,
                );
            }
        }
        let layer_spans = rec.into_spans();
        let selfs = trace::self_times(&layer_spans);
        for (span, metric) in SPAN_METRICS {
            if let Some(v) = selfs.get(span).and_then(|v| stats::median(v)) {
                report.layers.set(metric, v);
            }
        }
        report.layers.set("snapshot.encode_ms", encode_ms);
        report
            .layers
            .set("shards.load_ms", stats::median(&loads).unwrap_or(0.0));
        spans.extend(layer_spans);
        report.layers.set("trace.spans", spans.len() as f64);
        for (name, v) in &trace::self_times(&spans) {
            report.lines.push(format!(
                "span {name}: {} calls, self time total {} ms, median {} ns",
                v.len(),
                v.iter().sum::<f64>() / 1e6,
                stats::median(v).unwrap_or(0.0)
            ));
        }
        let path = crate::span_path(args);
        trace::dump(&spans, &path).map_err(|e| format!("span dump: {e}"))?;
        report
            .lines
            .push(format!("spans written to {}", path.display()));
        report.lines.extend(report.layers.lines());
    }

    sharded.handle.shutdown();
    if let Some(f) = federated {
        Topology::Federated(f).shutdown();
    }
    report.failed += failures;
    report.correct = report.failed == 0;
    Ok(report)
}

/// Replay span name → per-layer metric (median self time per call, ns).
const SPAN_METRICS: [(&str, &str); 9] = [
    ("parser.parse_request", "parser.parse_ns"),
    ("scorer.risk_of", "scorer.risk_of_ns"),
    ("scorer.top_k", "scorer.top_k_ns"),
    ("http.render_pipe_risk", "http.render_pipe_risk_ns"),
    ("http.render_top_k", "http.render_top_k_ns"),
    ("shards.global_top_k", "shards.global_top_k_ns"),
    ("shards.merge_top_k", "shards.merge_top_k_ns"),
    ("http.render_global_top_k", "http.render_global_top_k_ns"),
    ("aggregate.spec_parse", "aggregate.spec_parse_ns"),
];
