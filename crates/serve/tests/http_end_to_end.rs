//! End-to-end serving test: fit a real DPMHBP model, freeze it to a
//! snapshot file, start the HTTP server on an ephemeral port, and assert
//! that what comes back over the wire is byte-identical to the in-process
//! scorer's answer — the acceptance criterion of the serving subsystem.
//!
//! Every response is read through the strict framing helpers in
//! `tests/common/mod.rs`: the status line, `Content-Type`,
//! `Content-Length`, and `Connection` headers are asserted on every
//! round trip, so a framing regression fails loudly instead of slipping
//! past a body-substring check.

mod common;

use common::{get_once, post_once, request_once, HttpResponse};
use pipefail_core::dpmhbp::{Dpmhbp, DpmhbpConfig};
use pipefail_core::model::FailureModel;
use pipefail_core::snapshot::Snapshot;
use pipefail_network::split::TrainTestSplit;
use pipefail_serve::http::{render_model, render_top_k};
use pipefail_par::TaskPool;
use pipefail_serve::{serve, Metrics, ServeContext, ServerConfig, Scorer, ShardSet};
use pipefail_synth::WorldConfig;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Strict GET returning the pieces the assertions below use.
fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let r = get_once(addr, path);
    (r.status, r.body)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let r = post_once(addr, path, body);
    (r.status, r.body)
}

#[test]
fn fit_snapshot_serve_query_roundtrip() {
    // Fit a real (fast-schedule) DPMHBP model on a tiny region.
    let world = WorldConfig::paper().scaled(0.02).only_region("Region A").build(5);
    let ds = world.regions()[0].clone();
    let split = TrainTestSplit::paper_protocol();
    let mut model = Dpmhbp::new(DpmhbpConfig::fast());
    let ranking = model.fit_rank(&ds, &split, 11).expect("dpmhbp fit");

    // Freeze → file → load: the full serving path, not an in-memory shortcut.
    let dir = std::env::temp_dir().join("pipefail_serve_test_e2e");
    let path = dir.join("dpmhbp.pfsnap");
    let snap = Snapshot::from_fit(&model, ds.name(), 11, &ranking);
    snap.save(&path).expect("save snapshot");
    let scorer = Scorer::load(&path).expect("load snapshot");
    assert_eq!(scorer.len(), ranking.len());

    // The in-process reference answers, rendered by the same functions the
    // server routes through.
    let reference_top = render_top_k(&scorer, 10);
    let reference_model = render_model(&scorer);
    let top_pipe = scorer.top_k(1).at(0).pipe;

    // Served the way `pipefail serve --snapshot FILE --data DIR` serves it:
    // a one-shard set loaded by path, with hot-reload armed.
    let shards =
        ShardSet::load_paths(std::slice::from_ref(&path), &TaskPool::serial()).expect("load shard");
    let ctx = Arc::new(ServeContext::sharded(shards).with_dataset(ds));
    let config = ServerConfig { reload_poll_secs: 0.05, ..ServerConfig::default() };
    let handle = serve(Arc::clone(&ctx), &config).expect("server starts");
    let addr = handle.addr();

    // Liveness, with the content type asserted on the full response.
    let health = get_once(addr, "/health");
    assert_eq!((health.status, health.body.as_str()), (200, "{\"status\":\"ok\"}"));
    assert_eq!(health.reason, "OK");
    assert_eq!(health.header("content-type"), Some("application/json"));

    // Top-K over HTTP is byte-identical to the in-process scorer.
    let (status, body) = get(addr, "/top?k=10");
    assert_eq!(status, 200);
    assert_eq!(body, reference_top, "served top-K must match in-process render");

    // Per-pipe lookup finds the riskiest pipe at rank 0.
    let (status, body) = get(addr, &format!("/pipe?id={}", top_pipe.0));
    assert_eq!(status, 200);
    assert!(body.contains("\"rank\":0"), "{body}");

    // Model metadata carries the DPMHBP posterior-summary inventory.
    let (status, body) = get(addr, "/model");
    assert_eq!(status, 200);
    assert_eq!(body, reference_model);
    assert!(body.contains("\"name\":\"clusters\""), "{body}");
    assert!(body.contains("\"name\":\"pipe_posterior\""), "{body}");

    // Batch endpoint fans out and answers in query order.
    let (status, body) = post(addr, "/batch", &format!("top 3\npipe {}\npipe 4294967295", top_pipe.0));
    assert_eq!(status, 200);
    assert!(body.starts_with("{\"results\":[{\"top\":["), "{body}");
    assert!(body.ends_with("{\"pipe_risk\":null}]}"), "{body}");

    // The risk-map endpoint renders Fig 18.9 over the served ranking, with
    // its own content type.
    let riskmap: HttpResponse = get_once(addr, "/riskmap.svg");
    assert_eq!(riskmap.status, 200);
    assert_eq!(riskmap.header("content-type"), Some("image/svg+xml"));
    assert!(riskmap.body.starts_with("<svg"), "{}", &riskmap.body[..riskmap.body.len().min(80)]);

    // Error paths: unknown route, bad parameter, wrong method. The strict
    // reader checks each status line's reason phrase too.
    let not_found = get_once(addr, "/nope");
    assert_eq!((not_found.status, not_found.reason.as_str()), (404, "Not Found"));
    assert_eq!(get(addr, "/top?k=banana").0, 400);
    assert_eq!(get(addr, "/pipe?id=999999999").0, 404);
    let wrong_method = post_once(addr, "/top", "");
    assert_eq!((wrong_method.status, wrong_method.reason.as_str()), (405, "Method Not Allowed"));
    // The POST-only route answers 405 to a GET too, not a misleading 404.
    let wrong_method = get_once(addr, "/batch");
    assert_eq!((wrong_method.status, wrong_method.reason.as_str()), (405, "Method Not Allowed"));
    assert_eq!(post(addr, "/batch", "frobnicate 7").0, 400);
    // Chunked framing is refused outright (501 + close) — ignoring it
    // would desync the keep-alive byte stream (request smuggling).
    let chunked = request_once(
        addr,
        "POST /batch HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n5\r\ntop 3\r\n0\r\n\r\n",
    );
    assert_eq!((chunked.status, chunked.reason.as_str()), (501, "Not Implemented"));

    // Metrics report non-zero request counts and latency observations.
    let (status, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(!text.contains("pipefail_requests_total 0"), "{text}");
    assert!(text.contains("pipefail_requests{route=\"top\"} 2"), "{text}");
    assert!(text.contains("pipefail_requests{route=\"batch\"} 2"), "{text}");
    assert!(text.contains("pipefail_responses{status=\"4xx\"} 6"), "{text}");
    assert!(text.contains("pipefail_responses{status=\"5xx\"} 1"), "{text}");
    assert!(
        text.contains("pipefail_http_request_duration_seconds_bucket{route=\"top\",le=\"+Inf\"} 2"),
        "{text}"
    );
    assert!(
        text.contains("pipefail_http_request_duration_seconds_count{route=\"batch\"} 2"),
        "{text}"
    );
    let served: u64 = handle.metrics().total();
    assert!(served >= 10, "all requests observed: {served}");

    // A corrupt publish takes the one shard dark: the risk map answers the
    // shard's typed 503 instead of rendering the stale ranking, while
    // /model keeps reporting the last good identity.
    std::fs::write(&path, b"PFSNAPgarbage").expect("corrupt snapshot");
    let deadline = Instant::now() + Duration::from_secs(10);
    while get(addr, "/healthz").0 != 503 {
        assert!(Instant::now() < deadline, "corrupt publish never degraded the shard");
        std::thread::sleep(Duration::from_millis(10));
    }
    let riskmap = get_once(addr, "/riskmap.svg");
    assert_eq!(riskmap.status, 503, "{}", riskmap.body);
    assert_eq!(riskmap.header("retry-after"), Some("1"));
    assert!(riskmap.body.contains("\"shard\":\"region_a\""), "{}", riskmap.body);
    assert_eq!(get(addr, "/model"), (200, reference_model));

    // Graceful shutdown: joins all threads; the port stops answering.
    handle.shutdown();
    assert!(
        TcpStream::connect(addr).is_err() || get_now_fails(addr),
        "server must stop serving after shutdown"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// After shutdown the listener is closed; a racing connect may still be
/// accepted by the OS backlog, but no worker will answer it.
fn get_now_fails(addr: SocketAddr) -> bool {
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => return true,
    };
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(200)));
    let _ = stream.write_all(b"GET /health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
    let mut buf = [0u8; 16];
    matches!(stream.read(&mut buf), Ok(0) | Err(_))
}

#[test]
fn concurrent_clients_all_get_consistent_answers() {
    // Many clients hammering top-K must all see the same frozen ranking —
    // the scorer is immutable shared state, so there is nothing to race on.
    let world = WorldConfig::paper().scaled(0.02).only_region("Region A").build(5);
    let ds = world.regions()[0].clone();
    let split = TrainTestSplit::paper_protocol();
    let mut model = Dpmhbp::new(DpmhbpConfig::fast());
    let ranking = model.fit_rank(&ds, &split, 3).expect("fit");
    let scorer = Scorer::new(Snapshot::from_fit(&model, ds.name(), 3, &ranking));
    let reference = render_top_k(&scorer, 5);

    let handle = serve(
        Arc::new(ServeContext::new(scorer)),
        &ServerConfig { workers: 4, ..ServerConfig::default() },
    )
    .expect("server starts");
    let addr = handle.addr();

    let bodies: Vec<String> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for _ in 0..16 {
            joins.push(scope.spawn(move || get(addr, "/top?k=5").1));
        }
        joins.into_iter().map(|j| j.join().expect("client thread")).collect()
    });
    for body in &bodies {
        assert_eq!(body, &reference);
    }
    assert_eq!(handle.metrics().total(), 16);
    handle.shutdown();
}

#[test]
fn request_timeout_cuts_off_stalled_clients() {
    let scorer = Scorer::new(Snapshot::new(
        "DPMHBP",
        "R",
        0,
        &pipefail_core::model::RiskRanking::new(vec![]),
    ));
    let handle = serve(
        Arc::new(ServeContext::new(scorer)),
        &ServerConfig {
            request_timeout_secs: 0.2,
            idle_timeout_secs: 0.2,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr();

    // Open a connection and send… nothing. The idle timeout must close the
    // socket (quietly — no request was started) rather than pinning a
    // worker forever.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(5)));
    let mut raw = String::new();
    let _ = stream.read_to_string(&mut raw);
    assert!(
        raw.is_empty() || raw.contains("408"),
        "stalled client should see a timeout, got: {raw:?}"
    );

    // A *partial* request that then stalls gets an explicit 408.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(5)));
    stream.write_all(b"GET /health HTT").expect("send fragment");
    let mut raw = String::new();
    let _ = stream.read_to_string(&mut raw);
    assert!(raw.starts_with("HTTP/1.1 408 "), "mid-request stall answers 408, got: {raw:?}");

    // A client dribbling one byte at a time cannot hold a worker: the
    // request deadline is cumulative from the first byte, not a per-read
    // timeout that every dribbled byte would reset (slow-loris defence).
    // With the old per-read behaviour this loop would run its full 4s cap;
    // the cumulative deadline cuts the connection off at ~0.2s.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(10)));
    let started = std::time::Instant::now();
    let mut raw = Vec::new();
    let mut buf = [0u8; 256];
    while started.elapsed() < std::time::Duration::from_secs(4) {
        let _ = stream.write_all(b"X"); // never completes a head; EPIPE after close is fine
        match stream.read(&mut buf) {
            Ok(0) => break, // server hung up
            Ok(n) => {
                raw.extend_from_slice(&buf[..n]);
                if raw.windows(4).any(|w| w == b"\r\n\r\n") {
                    break; // full 408 head received
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => break, // reset by the server's close — also a cut-off
        }
        std::thread::sleep(std::time::Duration::from_millis(40));
    }
    assert!(
        started.elapsed() < std::time::Duration::from_secs(2),
        "dribbling client held a worker for {:?}",
        started.elapsed()
    );
    if !raw.is_empty() {
        assert!(raw.starts_with(b"HTTP/1.1 408 "), "got: {:?}", String::from_utf8_lossy(&raw));
    }

    // The worker is free again: a healthy request still succeeds.
    let (status, _) = get(addr, "/health");
    assert_eq!(status, 200);
    // The healthy and stalled-mid-request exchanges were observed.
    let metrics: Arc<Metrics> = handle.metrics();
    assert!(metrics.total() >= 2);
    handle.shutdown();
}

#[test]
fn rejects_nonpositive_timeout_config() {
    let scorer = Scorer::new(Snapshot::new(
        "m",
        "r",
        0,
        &pipefail_core::model::RiskRanking::new(vec![]),
    ));
    let bad = ServerConfig { request_timeout_secs: 0.0, ..ServerConfig::default() };
    assert!(serve(Arc::new(ServeContext::new(scorer)), &bad).is_err());
}
