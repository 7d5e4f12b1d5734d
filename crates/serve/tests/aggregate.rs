//! Live-socket e2e battery for the declarative `POST /aggregate` engine:
//!
//! * a monolithic server and a one-shard sharded server over the same
//!   snapshot answer the same pipeline **byte-identically**, and so does
//!   one pipelined keep-alive connection against one request per
//!   connection;
//! * a multi-shard server's grouped body matches a hand-computed
//!   reference exactly, and `?partial=1` answers the merge-ready wire
//!   partial;
//! * the greedy budget operator selects descending-risk pipes across
//!   shards and stops at the first overflow — exact body pinned;
//! * adversarial bodies (garbage bytes, unknown keys, 10k-deep nesting)
//!   are typed 400s and never wedge the connection — the same keep-alive
//!   socket keeps serving afterwards;
//! * snapshots without the attributes section answer a typed 400 for
//!   attribute-hungry pipelines but still serve region-only ones.

mod common;

use common::{get_once, post_once, post_request, Conn};
use pipefail_core::model::{RiskRanking, RiskScore};
use pipefail_core::snapshot::{attributes_section, Snapshot};
use pipefail_network::ids::PipeId;
use pipefail_serve::{serve, Scorer, ServeContext, ServerConfig, ServerHandle, ShardSet};
use std::sync::Arc;

/// Regional snapshot with `n` pipes, descending scores from `base`, and
/// a deterministic attributes section (lengths 100, 101, …; materials
/// cycling 0..9; decades cycling 1940s..1970s) in score order.
fn attr_snapshot(region: &str, n: u32, base: f64) -> Snapshot {
    let ranking = RiskRanking::new(
        (0..n)
            .map(|i| RiskScore {
                pipe: PipeId(i),
                score: base - f64::from(i) / f64::from(n.max(1)),
            })
            .collect(),
    );
    let mut snap = Snapshot::new("DPMHBP", region, 7, &ranking);
    snap.push_section(attributes_section(
        (0..n).map(|i| 100.0 + f64::from(i)).collect(),
        (0..n).map(|i| f64::from(i % 9)).collect(),
        (0..n).map(|i| f64::from(1940 + (i % 4) * 10)).collect(),
    ));
    snap
}

fn attr_scorer(region: &str, n: u32, base: f64) -> Scorer {
    Scorer::new(attr_snapshot(region, n, base))
}

fn server_config() -> ServerConfig {
    ServerConfig { workers: 4, ..ServerConfig::default() }
}

fn single(region: &str, n: u32, base: f64) -> ServerHandle {
    serve(
        Arc::new(ServeContext::new(attr_scorer(region, n, base))),
        &server_config(),
    )
    .expect("server starts")
}

fn sharded(scorers: Vec<Scorer>) -> ServerHandle {
    serve(
        Arc::new(ServeContext::sharded(
            ShardSet::from_scorers(scorers).expect("distinct regions"),
        )),
        &server_config(),
    )
    .expect("sharded server starts")
}

const GROUP_SPEC: &str = "{\"group_by\":[\"material\",\"decade\"],\"aggregates\":[{\"op\":\"count\"},{\"op\":\"sum\",\"field\":\"length_m\"},{\"op\":\"avg\",\"field\":\"risk\"}]}";

#[test]
fn monolithic_and_single_shard_answer_byte_identically() {
    let mono = single("Region A", 40, 1.0);
    let one_shard = sharded(vec![attr_scorer("Region A", 40, 1.0)]);

    let direct = post_once(mono.addr(), "/aggregate", GROUP_SPEC);
    let via_shard = post_once(one_shard.addr(), "/aggregate", GROUP_SPEC);
    assert_eq!(direct.status, 200, "{}", direct.body);
    assert_eq!(via_shard.status, 200, "{}", via_shard.body);
    assert_eq!(direct.body, via_shard.body, "sharded execution changed the bytes");
    assert!(direct.body.starts_with("{\"groups\":["), "{}", direct.body);

    mono.shutdown();
    one_shard.shutdown();
}

/// Pipelined on one keep-alive connection, aggregate answers (valid and
/// malformed specs alike) are byte-identical to the same requests sent
/// one per connection.
#[test]
fn pipelined_aggregates_answer_like_one_request_per_connection() {
    let server = serve(
        Arc::new(ServeContext::new(attr_scorer("Region A", 40, 1.0))),
        &server_config(),
    )
    .expect("server starts");
    let bodies = [GROUP_SPEC, "{]", "{\"group_by\":[\"region\"]}"];
    let mut conn = Conn::connect(server.addr());
    for body in bodies {
        conn.send(&post_request("/aggregate", body, true));
    }
    for body in bodies {
        let piped = conn.read_response();
        let alone = post_once(server.addr(), "/aggregate", body);
        assert_eq!(piped.status, alone.status, "{body}: {} vs {}", piped.body, alone.body);
        assert_eq!(piped.body, alone.body, "pipelining changed the bytes for {body}");
    }
    server.shutdown();
}

#[test]
fn multi_shard_grouping_matches_the_hand_computed_reference() {
    // Two shards, two pipes each, scores and attributes chosen so every
    // number in the merged body is exactly representable: lengths 100+101
    // and 100+101, risks {1.0, 0.5} and {0.75, 0.25}.
    let mk = |region: &str, scores: [f64; 2]| {
        let ranking = RiskRanking::new(
            scores
                .iter()
                .enumerate()
                .map(|(i, &s)| RiskScore { pipe: PipeId(i as u32), score: s })
                .collect(),
        );
        let mut snap = Snapshot::new("DPMHBP", region, 7, &ranking);
        snap.push_section(attributes_section(
            vec![100.0, 101.0],
            vec![0.0, 0.0],
            vec![1940.0, 1940.0],
        ));
        Scorer::new(snap)
    };
    let server = sharded(vec![mk("Region A", [1.0, 0.5]), mk("Region B", [0.75, 0.25])]);

    let spec = "{\"group_by\":[\"region\"],\"aggregates\":[{\"op\":\"count\"},{\"op\":\"sum\",\"field\":\"length_m\"},{\"op\":\"max\",\"field\":\"risk\"}]}";
    let resp = post_once(server.addr(), "/aggregate", spec);
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(
        resp.body,
        "{\"groups\":[\
         {\"key\":{\"region\":\"region_a\"},\"count\":2,\"sum_length_m\":201,\"max_risk\":1},\
         {\"key\":{\"region\":\"region_b\"},\"count\":2,\"sum_length_m\":201,\"max_risk\":0.75}]}"
    );

    // ?partial=1 answers the merge-ready wire state instead of the final
    // body — the federation front-end's scatter leg.
    let partial = post_once(server.addr(), "/aggregate?partial=1", spec);
    assert_eq!(partial.status, 200, "{}", partial.body);
    assert!(partial.body.starts_with("{\"groups\":[{\"key\":["), "{}", partial.body);
    assert!(partial.body.contains("\"state\":["), "{}", partial.body);

    server.shutdown();
}

#[test]
fn budget_selects_descending_risk_across_shards_and_stops_at_first_overflow() {
    // Global descending risk order interleaves the shards:
    //   region_a pipe0 (0.9, 10m), region_b pipe0 (0.8, 15m),
    //   region_a pipe1 (0.7, 10m), region_b pipe1 (0.6, 15m).
    // Budget 30m: 10 + 15 fit (25m), the 0.7/10m pipe overflows → stop.
    let mk = |region: &str, scores: [f64; 2], len: f64| {
        let ranking = RiskRanking::new(
            scores
                .iter()
                .enumerate()
                .map(|(i, &s)| RiskScore { pipe: PipeId(i as u32), score: s })
                .collect(),
        );
        let mut snap = Snapshot::new("DPMHBP", region, 7, &ranking);
        snap.push_section(attributes_section(
            vec![len, len],
            vec![0.0, 0.0],
            vec![1940.0, 1940.0],
        ));
        Scorer::new(snap)
    };
    let server = sharded(vec![
        mk("Region A", [0.9, 0.7], 10.0),
        mk("Region B", [0.8, 0.6], 15.0),
    ]);

    let spec = "{\"group_by\":[\"region\"],\"aggregates\":[{\"op\":\"count\"}],\"budget\":{\"length_m\":30}}";
    let resp = post_once(server.addr(), "/aggregate", spec);
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(
        resp.body.ends_with(
            "\"budget\":{\"length_m\":30,\"selected\":2,\"total_length_m\":25}}"
        ),
        "{}",
        resp.body
    );

    server.shutdown();
}

#[test]
fn adversarial_bodies_are_typed_400s_and_never_wedge_the_connection() {
    let server = single("Region A", 10, 1.0);
    let deep = "[".repeat(10_000) + &"]".repeat(10_000);
    let adversarial = [
        "",
        "{]",
        "not json at all",
        "[1,2,3]",
        "{\"group_by\":[\"region\"],\"aggregates\":[{\"op\":\"count\"}],\"surprise\":1}",
        "{\"group_by\":[\"altitude\"],\"aggregates\":[{\"op\":\"count\"}]}",
        "{\"group_by\":[\"region\"],\"aggregates\":[{\"op\":\"sum\"}]}",
        deep.as_str(),
    ];

    // All on ONE keep-alive connection: a parser wedge or framing slip
    // after a 400 would misalign every subsequent response.
    let mut conn = Conn::connect(server.addr());
    for body in adversarial {
        conn.send(&post_request("/aggregate", body, true));
        let resp = conn.read_response();
        assert_eq!(resp.status, 400, "{:.60}: {}", body, resp.body);
        assert!(resp.body.starts_with("{\"error\":"), "{}", resp.body);
    }
    // The connection still serves a good pipeline afterwards.
    conn.send(&post_request("/aggregate", GROUP_SPEC, true));
    let ok = conn.read_response();
    assert_eq!(ok.status, 200, "{}", ok.body);

    // GET on the aggregate route is a 405, not a parse attempt.
    let get = get_once(server.addr(), "/aggregate");
    assert_eq!(get.status, 405, "{}", get.body);

    server.shutdown();
}

#[test]
fn snapshots_without_attributes_refuse_attribute_pipelines_but_serve_region_ones() {
    // No attributes section at all.
    let ranking = RiskRanking::new(
        (0..5)
            .map(|i| RiskScore { pipe: PipeId(i), score: 1.0 - f64::from(i) / 5.0 })
            .collect(),
    );
    let bare = serve(
        Arc::new(ServeContext::new(Scorer::new(Snapshot::new(
            "DPMHBP", "Region A", 7, &ranking,
        )))),
        &server_config(),
    )
    .expect("server starts");

    let needy = post_once(bare.addr(), "/aggregate", GROUP_SPEC);
    assert_eq!(needy.status, 400, "{}", needy.body);
    assert!(needy.body.contains("pipe_attributes"), "{}", needy.body);

    let region_only = post_once(
        bare.addr(),
        "/aggregate",
        "{\"group_by\":[\"region\"],\"aggregates\":[{\"op\":\"count\"},{\"op\":\"avg\",\"field\":\"risk\"}]}",
    );
    assert_eq!(region_only.status, 200, "{}", region_only.body);
    assert!(region_only.body.contains("\"count\":5"), "{}", region_only.body);

    bare.shutdown();
}
