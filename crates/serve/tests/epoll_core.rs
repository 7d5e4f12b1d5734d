//! Connection-core battery: pipelining and fragmentation must be
//! *observably invisible*.
//!
//! The proptest writes a pipelined request stream over one connection
//! under arbitrary partial-write schedules (chunk sizes down to one byte,
//! with pauses) and reads the response stream back under arbitrary
//! partial-read schedules. The reference is the same requests, each sent
//! alone on a fresh connection, with their responses concatenated. The
//! two byte streams must be **identical to the last byte**: same status
//! lines, same headers, same framing, same close behaviour. Deterministic
//! companions pin the
//! admission-control protocol: at the connection cap the longest-idle
//! keep-alive connection is shed first (quiet close, counted), and only
//! when nothing is sheddable does a new client get `429` +
//! `Retry-After` + close.
#![cfg(target_os = "linux")]

mod common;

use common::Conn;
use pipefail_core::model::{RiskRanking, RiskScore};
use pipefail_core::snapshot::Snapshot;
use pipefail_network::ids::PipeId;
use pipefail_serve::{serve, Scorer, ServeContext, ServerConfig, ServerHandle};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::thread::sleep;
use std::time::Duration;

/// 1000 pipes with strictly decreasing scores — big enough that
/// `/top?k=1000` yields a multi-kilobyte body (so server-side writes can
/// go partial), small and deterministic.
fn scorer() -> Scorer {
    let n = 1000u32;
    let ranking = RiskRanking::new(
        (0..n)
            .map(|i| RiskScore { pipe: PipeId(i), score: 1.0 - f64::from(i) / f64::from(n) })
            .collect(),
    );
    Scorer::new(Snapshot::new("DPMHBP", "Region A", 7, &ranking))
}

fn start(max_connections: usize) -> ServerHandle {
    serve(
        Arc::new(ServeContext::new(scorer())),
        &ServerConfig { max_connections, ..ServerConfig::default() },
    )
    .expect("server start")
}

/// The request repertoire the identity proptest samples from. `/metrics`
/// is deliberately absent: its body changes with every request counted.
const REQUESTS: &[(&str, &str, &str)] = &[
    ("GET", "/health", ""),
    ("GET", "/top?k=3", ""),
    ("GET", "/top?k=1000", ""),
    ("GET", "/top?k=0", ""),
    ("GET", "/pipe?id=5", ""),
    ("GET", "/pipe?id=4294967295", ""),
    ("GET", "/model", ""),
    ("GET", "/healthz", ""),
    ("GET", "/no/such/route", ""),
    ("DELETE", "/top", ""),
    ("POST", "/batch", "top 3\npipe 7\npipe 999"),
    ("POST", "/batch", "frobnicate 7"),
];

fn render_request(idx: usize, keep_alive: bool) -> String {
    let (method, path, body) = REQUESTS[idx];
    let conn = if keep_alive { "keep-alive" } else { "close" };
    if body.is_empty() {
        format!("{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: {conn}\r\n\r\n")
    } else {
        format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: {conn}\r\n\r\n{body}",
            body.len()
        )
    }
}

/// The whole pipelined stream: every request keep-alive except the last,
/// which says `Connection: close` so the server terminates the stream
/// and the client can read to EOF.
fn render_stream(indices: &[usize]) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, &r) in indices.iter().enumerate() {
        out.extend_from_slice(render_request(r, i + 1 < indices.len()).as_bytes());
    }
    out
}

/// Write `stream` in the given chunk schedule (cycled, with short pauses
/// so the server really sees fragmented reads), then drain the response
/// stream to EOF in the read-chunk schedule.
fn exchange(addr: SocketAddr, stream: &[u8], write_chunks: &[usize], read_chunks: &[usize]) -> Vec<u8> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    conn.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut sent = 0;
    for (i, &chunk) in write_chunks.iter().cycle().enumerate() {
        if sent >= stream.len() {
            break;
        }
        let end = (sent + chunk).min(stream.len());
        conn.write_all(&stream[sent..end]).expect("send chunk");
        sent = end;
        // Pause every few chunks so fragments hit the server as separate
        // reads instead of coalescing in the loopback buffer.
        if i % 4 == 3 {
            sleep(Duration::from_micros(300));
        }
    }
    let mut out = Vec::new();
    let mut buf = vec![0u8; *read_chunks.iter().max().unwrap_or(&1)];
    for &chunk in read_chunks.iter().cycle() {
        match conn.read(&mut buf[..chunk]) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(e) => panic!("read response stream: {e}"),
        }
    }
    out
}

/// Send one request alone on a fresh connection and return its response
/// bytes exactly: the head up to the blank line plus `Content-Length`
/// body bytes (the connection may stay open after a keep-alive answer).
fn exchange_alone(addr: SocketAddr, request: &[u8]) -> Vec<u8> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    conn.write_all(request).expect("send request");
    let mut out = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(head_end) = out.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&out[..head_end]).to_ascii_lowercase();
            let len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length:"))
                .and_then(|v| v.trim().parse().ok())
                .expect("Content-Length");
            if out.len() >= head_end + 4 + len {
                out.truncate(head_end + 4 + len);
                return out;
            }
        }
        let n = conn.read(&mut chunk).expect("read response");
        assert!(n > 0, "closed mid-response: {:?}", String::from_utf8_lossy(&out));
        out.extend_from_slice(&chunk[..n]);
    }
}

/// One server shared by every proptest case (leaked for the test
/// binary's lifetime — starting a server per case would dominate the
/// property's runtime).
static SERVER_ADDR: OnceLock<SocketAddr> = OnceLock::new();

fn server_addr() -> SocketAddr {
    *SERVER_ADDR.get_or_init(|| {
        let server = start(0);
        let addr = server.addr();
        std::mem::forget(server);
        addr
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole invariant: for any request sequence and any
    /// client-side fragmentation schedule, one pipelined connection
    /// answers with **exactly the bytes** the same requests get when each
    /// is sent alone on its own connection.
    #[test]
    fn pipelined_stream_answers_like_one_request_per_connection(
        indices in proptest::collection::vec(0usize..REQUESTS.len(), 1..6),
        write_chunks in proptest::collection::vec(1usize..98, 1..24),
        read_chunks in proptest::collection::vec(1usize..1025, 1..8),
    ) {
        let addr = server_addr();
        let pipelined = exchange(addr, &render_stream(&indices), &write_chunks, &read_chunks);
        let mut alone = Vec::new();
        for (i, &r) in indices.iter().enumerate() {
            let request = render_request(r, i + 1 < indices.len());
            alone.extend_from_slice(&exchange_alone(addr, request.as_bytes()));
        }
        prop_assert_eq!(
            String::from_utf8_lossy(&pipelined),
            String::from_utf8_lossy(&alone)
        );
    }
}

/// A malformed request draws the same typed error + close whether it
/// arrives one byte at a time or in one write — the error path is part of
/// the byte-identity contract.
#[test]
fn parse_errors_answer_identically_however_fragmented() {
    let server = start(0);
    let garbage = b"GET /health HTTP/9.9\r\nHost: t\r\n\r\n";
    let dribbled = exchange(server.addr(), garbage, &[1], &[7]);
    let whole = exchange(server.addr(), garbage, &[garbage.len()], &[4096]);
    assert_eq!(String::from_utf8_lossy(&dribbled), String::from_utf8_lossy(&whole));
    let text = String::from_utf8_lossy(&whole);
    assert!(text.starts_with("HTTP/1.1 4") || text.starts_with("HTTP/1.1 5"), "{text}");
    assert!(text.contains("Connection: close\r\n"), "{text}");
    server.shutdown();
}

/// Byte-at-a-time writes: the slowest possible
/// client still gets exactly framed pipelined responses (deterministic
/// companion to the proptest, easier to debug when it fails).
#[test]
fn epoll_core_serves_byte_at_a_time_writes() {
    let server = start(0);
    let stream = render_stream(&[0, 1, 4, 6]);
    let out = exchange(server.addr(), &stream, &[1], &[1]);
    let text = String::from_utf8_lossy(&out);
    assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 4, "{text}");
    assert!(text.ends_with('}'), "stream should end exactly at the last body: {text:?}");
    server.shutdown();
}

/// At the connection cap the longest-idle keep-alive connection is shed
/// (quiet close, `connections_shed_total` counted) so the newcomer gets
/// service — idle clients lose a socket they weren't using, live clients
/// lose nothing.
#[test]
fn cap_sheds_longest_idle_connection_for_newcomer() {
    let server = start(2);
    let addr = server.addr();

    let mut first = Conn::connect(addr);
    assert_eq!(first.get("/health").status, 200);
    sleep(Duration::from_millis(30)); // make first strictly the longest-idle
    let mut second = Conn::connect(addr);
    assert_eq!(second.get("/health").status, 200);

    // Third connection: over the cap of 2, sheds `first` (longest idle).
    let mut third = Conn::connect(addr);
    assert_eq!(third.get("/top?k=1").status, 200);

    let metrics = server.metrics();
    assert_eq!(metrics.connections_shed_total(), 1);
    assert_eq!(metrics.admission_rejected_total(), 0);
    // The open-connection gauge tracks the shed: `second` and `third`.
    assert_eq!(metrics.connections_open(), 2);

    // The shed connection sees a quiet close: EOF, not an error response.
    first.assert_eof();

    // The surviving keep-alive connection still serves.
    assert_eq!(second.get("/health").status, 200);
    server.shutdown();
}

/// When every connection is mid-request (nothing sheddable), admission
/// control answers the newcomer with `429` + `Retry-After` + close
/// instead of silently starving the accept queue.
#[test]
fn cap_answers_429_when_nothing_is_sheddable() {
    let server = start(1);
    let addr = server.addr();

    // Occupy the only slot with a connection stuck *mid-request*: it has
    // sent half a request line, so it is not sheddable.
    let mut busy = TcpStream::connect(addr).expect("connect");
    busy.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    busy.write_all(b"GET /top").expect("partial request");
    // Let the event loop read the fragment and start the request clock.
    sleep(Duration::from_millis(100));

    let mut rejected = Conn::connect(addr);
    rejected.send(&common::get_request("/health", true));
    let response = rejected.read_response();
    assert_eq!(response.status, 429);
    assert_eq!(response.header("retry-after"), Some("1"));
    response.assert_connection("close");
    rejected.assert_eof();

    let metrics = server.metrics();
    assert_eq!(metrics.admission_rejected_total(), 1);
    assert_eq!(metrics.connections_shed_total(), 0);
    server.shutdown();
}
