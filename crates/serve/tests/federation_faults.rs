//! The remote-shard federation battery, driven through a wire-level
//! fault-injection proxy:
//!
//! * region-routed federated responses are byte-identical to a direct
//!   request against the backend, and the federated global top-K is
//!   byte-identical to an in-process sharded server over the same regions
//!   (plus a property over random shard tables and `k`);
//! * every wire fault — killed backend, hang, reset, garbage bytes,
//!   truncated response — degrades ONLY the faulty region to a typed 503
//!   with `Retry-After`, while concurrent keep-alive clients of healthy
//!   regions complete with **zero** failures and the global top-K keeps
//!   answering with an `X-Pipefail-Partial` header and a body
//!   byte-identical to an in-process server over the live regions;
//! * clearing the fault heals the backend via the health probe, with no
//!   restarts anywhere;
//! * a `Down` backend short-circuits (fast typed 503, no timeout burn);
//! * a hedged duplicate beats a stalled primary without inflating errors;
//! * backend `/healthz` probe traffic stays out of the request metrics;
//! * federated `POST /aggregate` answers byte-identically to an
//!   in-process sharded server, degrades per-region behind
//!   `X-Pipefail-Partial`, and a fully dark fleet is a typed 503 with
//!   `Retry-After` — driven through the same fault proxy;
//! * one degrade policy on both topologies: with a region taken out
//!   in process (corrupt publish) and federated (black-holed wire), global
//!   `/top` and `/aggregate` answer identically, count identically per
//!   shard, are never cached partial, and both 503 once every region is
//!   out; and a corrupt publish under a one-file backend degrades its
//!   region exactly like the same publish under an in-process shard.

mod common;

use common::faultproxy::{Fault, FaultProxy};
use common::{get_once, one_file_context, post_once, Conn};
use pipefail_core::model::{RiskRanking, RiskScore};
use pipefail_core::snapshot::{attributes_section, Snapshot};
use pipefail_network::ids::PipeId;
use pipefail_par::TaskPool;
use pipefail_serve::{
    serve, serve_federated, BackendState, FedConfig, Federation, Scorer, ServeContext,
    ServerConfig, ServerHandle, ShardSet,
};
use proptest::prelude::*;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic regional snapshot: `n` pipes with scores descending from
/// `base`, tagged with `region` (the shard key is derived from it).
fn snapshot(region: &str, n: u32, base: f64) -> Snapshot {
    let ranking = RiskRanking::new(
        (0..n)
            .map(|i| RiskScore {
                pipe: PipeId(i),
                score: base - f64::from(i) / f64::from(n),
            })
            .collect(),
    );
    Snapshot::new("DPMHBP", region, 7, &ranking)
}

fn scorer(region: &str, n: u32, base: f64) -> Scorer {
    Scorer::new(snapshot(region, n, base))
}

/// The same regional snapshot with a deterministic attributes section in
/// score order, so the region can answer `/aggregate` pipelines.
fn attr_snapshot(region: &str, n: u32, base: f64) -> Snapshot {
    let mut snap = snapshot(region, n, base);
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

/// One attribute-tagged backend serve process.
fn attr_backend(region: &str, n: u32, base: f64) -> ServerHandle {
    serve(
        Arc::new(ServeContext::new(attr_scorer(region, n, base))),
        &server_config(),
    )
    .expect("backend starts")
}

/// Server tuning for every process in these tests: enough workers that
/// concurrent keep-alive clients plus the federation's pooled connections
/// never serialize on worker capacity (the machine running the tests may
/// have a single core, which would otherwise floor the pool at two).
fn server_config() -> ServerConfig {
    ServerConfig { workers: 4, ..ServerConfig::default() }
}

/// One single-snapshot backend serve process (in-process, real socket).
fn backend(region: &str, n: u32, base: f64) -> ServerHandle {
    serve(
        Arc::new(ServeContext::new(scorer(region, n, base))),
        &server_config(),
    )
    .expect("backend starts")
}

/// An in-process sharded server over the given scorers — the byte-identity
/// oracle for federated global top-K responses.
fn oracle(scorers: Vec<Scorer>) -> ServerHandle {
    serve(
        Arc::new(ServeContext::sharded(
            ShardSet::from_scorers(scorers).expect("distinct regions"),
        )),
        &server_config(),
    )
    .expect("oracle starts")
}

/// Aggressive test tuning: tight deadline, one retry, fast probes, a low
/// `Down` threshold, hedging off (the hedge test opts in explicitly).
fn fed_test_config() -> FedConfig {
    FedConfig {
        request_timeout_secs: 0.5,
        retries: 1,
        backoff_base_ms: 10,
        backoff_cap_ms: 50,
        hedge_ms: Some(0),
        probe_secs: 0.1,
        fail_threshold: 2,
    }
}

/// Boot a federation front-end over `(region, addr)` targets, returning
/// both the serving handle and the shared `Federation` (for health-state
/// inspection).
fn federate(
    targets: Vec<(&str, SocketAddr)>,
    config: FedConfig,
) -> (ServerHandle, Arc<Federation>) {
    let fed = Arc::new(
        Federation::new(
            targets
                .into_iter()
                .map(|(k, a)| (k.to_string(), a.to_string()))
                .collect(),
            config,
        )
        .expect("federation builds"),
    );
    let handle =
        serve_federated(Arc::clone(&fed), &server_config()).expect("front-end starts");
    (handle, fed)
}

/// Poll `cond` until it holds or `deadline` elapses (then panic). Every
/// state transition in this battery is probe-driven, so tests wait on the
/// observable state instead of sleeping fixed amounts.
fn wait_for(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out after {deadline:?} waiting for {what}");
}

// ---------------------------------------------------------------------------
// Byte-identity: the federation is invisible in the response bytes.
// ---------------------------------------------------------------------------

#[test]
fn federated_responses_are_byte_identical_to_direct_and_in_process_serving() {
    let a = backend("Region A", 30, 1.0);
    let b = backend("Region B", 20, 2.0);
    let c = backend("Region C", 25, 1.5);
    let (fed_handle, _fed) = federate(
        vec![
            ("Region A", a.addr()),
            ("Region B", b.addr()),
            ("Region C", c.addr()),
        ],
        fed_test_config(),
    );
    let oracle = oracle(vec![
        scorer("Region A", 30, 1.0),
        scorer("Region B", 20, 2.0),
        scorer("Region C", 25, 1.5),
    ]);

    // Region-routed /top and /pipe relay the backend's bytes untouched.
    for path in [
        "/top?region=region_b&k=6",
        "/top?region=region_a&k=0",
        "/pipe?region=region_c&id=3",
        "/pipe?region=region_a&id=999999",
    ] {
        let via_fed = get_once(fed_handle.addr(), path);
        let direct = get_once(
            match path.contains("region_a") {
                true => a.addr(),
                false if path.contains("region_b") => b.addr(),
                false => c.addr(),
            },
            path,
        );
        assert_eq!(via_fed.status, direct.status, "{path}: {}", via_fed.body);
        assert_eq!(via_fed.body, direct.body, "{path} differs from direct backend");
    }

    // Region-less global top-K: scatter-gather + k-way merge answers
    // byte-identically to ONE in-process sharded server.
    for k in [0, 1, 7, 10, 200] {
        let path = format!("/top?k={k}");
        let via_fed = get_once(fed_handle.addr(), &path);
        let in_process = get_once(oracle.addr(), &path);
        assert_eq!(via_fed.status, 200, "{path}: {}", via_fed.body);
        assert_eq!(via_fed.body, in_process.body, "{path} differs from in-process");
        assert!(
            via_fed.header("x-pipefail-partial").is_none(),
            "healthy fleet must not mark the merge partial"
        );
    }

    // Typed edges behave exactly like the in-process sharded server:
    // region keys match exactly, so a non-canonical spelling of a real
    // region is the same fleet-wide 404 as an unknown one.
    for path in ["/top?region=atlantis&k=3", "/top?region=REGION_A&k=3"] {
        let unknown_fed = get_once(fed_handle.addr(), path);
        let unknown_oracle = get_once(oracle.addr(), path);
        assert_eq!(unknown_fed.status, 404, "{path}: {}", unknown_fed.body);
        assert_eq!(unknown_fed.body, unknown_oracle.body, "{path}");
    }
    let ambiguous = get_once(fed_handle.addr(), "/pipe?id=3");
    assert_eq!(ambiguous.status, 400, "{}", ambiguous.body);
    assert!(ambiguous.body.contains("region"));

    // Federation-specific surfaces: local /model inventory, refused /batch,
    // and the fed_* metrics that only a front-end exposes.
    let model = get_once(fed_handle.addr(), "/model");
    assert_eq!(model.status, 200);
    assert!(model.body.contains("\"federation\":3"), "{}", model.body);
    assert!(model.body.contains("\"region\":\"region_b\""));
    let batch = post_once(fed_handle.addr(), "/batch", "{\"queries\":[]}");
    assert_eq!(batch.status, 501, "{}", batch.body);
    let fed_metrics = get_once(fed_handle.addr(), "/metrics");
    assert!(fed_metrics.body.contains("pipefail_fed_probes_total"));
    let backend_metrics = get_once(a.addr(), "/metrics");
    assert!(!backend_metrics.body.contains("pipefail_fed_"));

    fed_handle.shutdown();
    oracle.shutdown();
    a.shutdown();
    b.shutdown();
    c.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random shard tables (scores from a tiny set, so cross-region ties
    /// are common) split across live backend sockets: the federated global
    /// top-K must be byte-identical to an in-process sharded server over
    /// the same tables — including tie-breaks, which both sides resolve
    /// toward the lowest region index in sorted-key order.
    #[test]
    fn federated_global_top_k_is_byte_identical_to_in_process_sharding(
        sizes in proptest::collection::vec(0usize..10, 2..4),
        score_picks in proptest::collection::vec(0usize..4, 40..41),
        k in 0usize..12,
    ) {
        let score_of = |pick: usize| [0.9, 0.5, 0.5, 0.1][pick];
        let mut next_pick = 0usize;
        let scorers: Vec<Scorer> = sizes
            .iter()
            .enumerate()
            .map(|(s, &n)| {
                let table: Vec<RiskScore> = (0..n)
                    .map(|i| {
                        let score = score_of(score_picks[next_pick % score_picks.len()]);
                        next_pick += 1;
                        RiskScore { pipe: PipeId((s * 1000 + i) as u32), score }
                    })
                    .collect();
                Scorer::new(Snapshot::new(
                    "DPMHBP",
                    format!("Region {s}"),
                    7,
                    &RiskRanking::new(table),
                ))
            })
            .collect();

        let backends: Vec<ServerHandle> = scorers
            .iter()
            .map(|sc| {
                serve(
                    Arc::new(ServeContext::new(sc.clone())),
                    &server_config(),
                )
                .expect("backend starts")
            })
            .collect();
        let targets: Vec<(String, String)> = backends
            .iter()
            .enumerate()
            .map(|(s, h)| (format!("Region {s}"), h.addr().to_string()))
            .collect();
        let fed = Arc::new(Federation::new(targets, fed_test_config()).expect("federation"));
        let fed_handle =
            serve_federated(Arc::clone(&fed), &server_config()).expect("front-end");
        let oracle = oracle(scorers);

        let path = format!("/top?k={k}");
        let via_fed = get_once(fed_handle.addr(), &path);
        let in_process = get_once(oracle.addr(), &path);
        prop_assert!(via_fed.status == 200, "global top-k failed: {}", via_fed.body);
        prop_assert_eq!(via_fed.body, in_process.body);

        fed_handle.shutdown();
        oracle.shutdown();
        for h in backends {
            h.shutdown();
        }
    }
}

// ---------------------------------------------------------------------------
// The fault battery: degrade exactly one region, keep everything else
// perfect, heal without restarts.
// ---------------------------------------------------------------------------

#[test]
fn every_wire_fault_degrades_only_its_region_and_probe_heals_it() {
    let a = backend("Region A", 30, 1.0);
    let b = backend("Region B", 20, 2.0);
    let c = backend("Region C", 25, 1.5);
    let proxy = FaultProxy::start(c.addr());
    let (fed_handle, fed) = federate(
        vec![
            ("Region A", a.addr()),
            ("Region B", b.addr()),
            ("Region C", proxy.addr()),
        ],
        fed_test_config(),
    );
    let oracle_ab = oracle(vec![scorer("Region A", 30, 1.0), scorer("Region B", 20, 2.0)]);
    let oracle_abc = oracle(vec![
        scorer("Region A", 30, 1.0),
        scorer("Region B", 20, 2.0),
        scorer("Region C", 25, 1.5),
    ]);
    let give_up = Duration::from_secs(30);

    let faults = [
        Fault::CloseOnAccept,
        Fault::Reset,
        Fault::Garbage,
        Fault::Truncate(60),
        Fault::Blackhole,
    ];
    for fault in faults {
        // Inject: the health probe alone must drive region_c to Down —
        // no client traffic required to notice a dead backend.
        proxy.set_fault(fault);
        wait_for(&format!("{fault:?} to mark region_c down"), give_up, || {
            fed.state_of("region_c") == Some(BackendState::Down)
        });

        // The faulty region is a typed 503 with Retry-After, naming the
        // region — never a hang, never a panic, never a 200 lie.
        let down = get_once(fed_handle.addr(), "/top?region=region_c&k=5");
        assert_eq!(down.status, 503, "{fault:?}: {}", down.body);
        assert_eq!(down.header("retry-after"), Some("1"), "{fault:?}");
        assert!(down.body.contains("region_c"), "{fault:?}: {}", down.body);

        // The front-end /healthz reports the degradation, typed.
        let hz = get_once(fed_handle.addr(), "/healthz");
        assert_eq!(hz.status, 503, "{fault:?}: {}", hz.body);
        assert!(hz.body.contains("\"status\":\"degraded\""), "{}", hz.body);
        assert!(
            hz.body.contains("{\"region\":\"region_c\",\"state\":\"down\"}"),
            "{fault:?}: {}",
            hz.body
        );
        assert_eq!(hz.header("retry-after"), Some("1"));

        // Concurrent keep-alive clients on the healthy regions: ZERO
        // failures while region_c is on fire.
        let fed_addr = fed_handle.addr();
        std::thread::scope(|s| {
            for region in ["region_a", "region_b"] {
                s.spawn(move || {
                    let mut conn = Conn::connect(fed_addr);
                    for i in 0..10 {
                        let path = format!("/top?region={region}&k=4");
                        let resp = conn.get(&path);
                        assert_eq!(
                            resp.status, 200,
                            "{fault:?}: {region} request {i} failed: {}",
                            resp.body
                        );
                    }
                });
            }
        });
        // ... and byte-identical to the direct backend, fault or no fault.
        let sibling = "/top?region=region_a&k=7";
        assert_eq!(
            get_once(fed_addr, sibling).body,
            get_once(a.addr(), sibling).body,
            "{fault:?}: sibling bytes drifted"
        );

        // Global top-K keeps answering: 200, partial header naming exactly
        // the lost region, body byte-identical to an in-process sharded
        // server over exactly the live regions.
        let partial = get_once(fed_addr, "/top?k=12");
        assert_eq!(partial.status, 200, "{fault:?}: {}", partial.body);
        assert_eq!(
            partial.header("x-pipefail-partial"),
            Some("region_c"),
            "{fault:?}"
        );
        assert_eq!(
            partial.body,
            get_once(oracle_ab.addr(), "/top?k=12").body,
            "{fault:?}: partial merge bytes drifted"
        );

        // Heal: clear the fault; the probe alone brings region_c back.
        proxy.set_fault(Fault::None);
        wait_for(&format!("probe to heal region_c after {fault:?}"), give_up, || {
            fed.state_of("region_c") == Some(BackendState::Healthy)
        });
        let hz = get_once(fed_addr, "/healthz");
        assert_eq!(hz.status, 200, "{fault:?}: {}", hz.body);
        assert!(hz.body.contains("\"status\":\"ok\""), "{}", hz.body);
        let healed = get_once(fed_addr, "/top?region=region_c&k=5");
        assert_eq!(healed.status, 200, "{fault:?}: {}", healed.body);
        assert_eq!(
            healed.body,
            get_once(c.addr(), "/top?region=region_c&k=5").body,
            "{fault:?}: healed region bytes drifted"
        );
        let whole = get_once(fed_addr, "/top?k=12");
        assert_eq!(whole.status, 200);
        assert!(
            whole.header("x-pipefail-partial").is_none(),
            "{fault:?}: healed merge still marked partial"
        );
        assert_eq!(
            whole.body,
            get_once(oracle_abc.addr(), "/top?k=12").body,
            "{fault:?}: healed merge bytes drifted"
        );
    }

    // The whole battery must not have failed a single healthy-region or
    // global request; retries/probe failures were the only error traffic.
    let metrics_text = get_once(fed_handle.addr(), "/metrics").body;
    assert!(
        metrics_text.contains("pipefail_fed_probe_failures_total"),
        "{metrics_text}"
    );

    fed_handle.shutdown();
    oracle_ab.shutdown();
    oracle_abc.shutdown();
    a.shutdown();
    b.shutdown();
    c.shutdown();
}

#[test]
fn down_backend_short_circuits_without_burning_the_timeout() {
    let a = backend("Region A", 10, 1.0);
    let c = backend("Region C", 10, 1.0);
    let proxy = FaultProxy::start(c.addr());
    let (fed_handle, fed) = federate(
        vec![("Region A", a.addr()), ("Region C", proxy.addr())],
        fed_test_config(),
    );

    proxy.set_fault(Fault::Blackhole);
    wait_for("blackhole to mark region_c down", Duration::from_secs(30), || {
        fed.state_of("region_c") == Some(BackendState::Down)
    });

    // A Down backend answers from local state: no connect, no timeout —
    // five requests in well under one request_timeout (0.5s) each.
    for _ in 0..5 {
        let start = Instant::now();
        let resp = get_once(fed_handle.addr(), "/top?region=region_c&k=3");
        let elapsed = start.elapsed();
        assert_eq!(resp.status, 503, "{}", resp.body);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert!(
            elapsed < Duration::from_millis(250),
            "Down short-circuit took {elapsed:?}"
        );
    }

    fed_handle.shutdown();
    a.shutdown();
    c.shutdown();
}

#[test]
fn hedged_duplicate_beats_a_stalled_primary() {
    let a = backend("Region A", 30, 1.0);
    let proxy = FaultProxy::start(a.addr());
    // Generous deadline + fixed 25ms hedge, no retries: the hedge is the
    // only thing that can rescue the stalled request quickly. Slow probes
    // and a high threshold keep the health machinery out of the way.
    let config = FedConfig {
        request_timeout_secs: 2.0,
        retries: 0,
        backoff_base_ms: 10,
        backoff_cap_ms: 50,
        hedge_ms: Some(25),
        probe_secs: 5.0,
        fail_threshold: 10,
    };
    let (fed_handle, _fed) = federate(vec![("Region A", proxy.addr())], config);

    // Warm up: one clean round trip (also seeds the connection pool).
    let warm = get_once(fed_handle.addr(), "/top?region=region_a&k=5");
    assert_eq!(warm.status, 200, "{}", warm.body);

    // Stall exactly the next scoring request by 500ms; the hedge fires at
    // 25ms on a second connection, which the proxy forwards immediately.
    proxy.delay_next(Duration::from_millis(500));
    let start = Instant::now();
    let resp = get_once(fed_handle.addr(), "/top?region=region_a&k=5");
    let elapsed = start.elapsed();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.body, warm.body, "hedged response bytes drifted");
    assert!(
        elapsed < Duration::from_millis(400),
        "hedge failed to rescue the stalled request: {elapsed:?}"
    );
    let metrics = fed_handle.metrics();
    assert!(metrics.fed_hedges_total() >= 1, "no hedge was fired");
    assert!(metrics.fed_hedge_wins_total() >= 1, "the hedge never won");

    fed_handle.shutdown();
    a.shutdown();
}

// ---------------------------------------------------------------------------
// Federated aggregation: byte-identity, per-region degradation, and the
// zero-healthy-backends 503.
// ---------------------------------------------------------------------------

const AGG_SPEC: &str = "{\"group_by\":[\"material\",\"decade\"],\"aggregates\":[{\"op\":\"count\"},{\"op\":\"sum\",\"field\":\"length_m\"},{\"op\":\"avg\",\"field\":\"risk\"}]}";

const BUDGET_SPEC: &str = "{\"group_by\":[\"region\"],\"aggregates\":[{\"op\":\"count\"},{\"op\":\"sum\",\"field\":\"length_m\"}],\"budget\":{\"length_m\":500}}";

#[test]
fn federated_aggregate_is_byte_identical_and_degrades_per_region() {
    let a = attr_backend("Region A", 30, 1.0);
    let b = attr_backend("Region B", 20, 2.0);
    let c = attr_backend("Region C", 25, 1.5);
    let proxy = FaultProxy::start(c.addr());
    let (fed_handle, fed) = federate(
        vec![
            ("Region A", a.addr()),
            ("Region B", b.addr()),
            ("Region C", proxy.addr()),
        ],
        fed_test_config(),
    );
    let oracle_abc = oracle(vec![
        attr_scorer("Region A", 30, 1.0),
        attr_scorer("Region B", 20, 2.0),
        attr_scorer("Region C", 25, 1.5),
    ]);
    let oracle_ab = oracle(vec![
        attr_scorer("Region A", 30, 1.0),
        attr_scorer("Region B", 20, 2.0),
    ]);
    let give_up = Duration::from_secs(30);

    // Healthy fleet: the scatter-gathered merge of wire partials is
    // byte-identical to ONE in-process sharded server — for plain
    // grouping, top_groups, and the greedy budget operator alike.
    let top_spec = "{\"group_by\":[\"material\"],\"aggregates\":[{\"op\":\"max\",\"field\":\"risk\"}],\"top_groups\":3}";
    for spec in [AGG_SPEC, BUDGET_SPEC, top_spec] {
        let via_fed = post_once(fed_handle.addr(), "/aggregate", spec);
        let in_process = post_once(oracle_abc.addr(), "/aggregate", spec);
        assert_eq!(via_fed.status, 200, "{spec}: {}", via_fed.body);
        assert_eq!(via_fed.body, in_process.body, "{spec} drifted from in-process");
        assert!(
            via_fed.header("x-pipefail-partial").is_none(),
            "healthy fleet must not mark the aggregate partial"
        );
    }

    // A malformed spec 400s locally — no backend traffic, same body shape
    // as a backend would answer.
    let bad = post_once(fed_handle.addr(), "/aggregate", "{\"group_by\":[\"altitude\"]}");
    assert_eq!(bad.status, 400, "{}", bad.body);
    assert!(bad.body.starts_with("{\"error\":"), "{}", bad.body);

    // Kill region_c: the aggregate keeps answering over the live fleet,
    // naming the lost region — byte-identical to an in-process server
    // over exactly the live regions.
    proxy.set_fault(Fault::Blackhole);
    wait_for("blackhole to mark region_c down", give_up, || {
        fed.state_of("region_c") == Some(BackendState::Down)
    });
    let partial = post_once(fed_handle.addr(), "/aggregate", AGG_SPEC);
    assert_eq!(partial.status, 200, "{}", partial.body);
    assert_eq!(partial.header("x-pipefail-partial"), Some("region_c"));
    assert_eq!(
        partial.body,
        post_once(oracle_ab.addr(), "/aggregate", AGG_SPEC).body,
        "partial aggregate drifted from the live-fleet oracle"
    );

    // Heal and the full merge returns, unmarked.
    proxy.set_fault(Fault::None);
    wait_for("probe to heal region_c", give_up, || {
        fed.state_of("region_c") == Some(BackendState::Healthy)
    });
    let whole = post_once(fed_handle.addr(), "/aggregate", AGG_SPEC);
    assert_eq!(whole.status, 200, "{}", whole.body);
    assert!(whole.header("x-pipefail-partial").is_none());
    assert_eq!(whole.body, post_once(oracle_abc.addr(), "/aggregate", AGG_SPEC).body);

    fed_handle.shutdown();
    oracle_ab.shutdown();
    oracle_abc.shutdown();
    a.shutdown();
    b.shutdown();
    c.shutdown();
}

#[test]
fn aggregate_with_zero_healthy_backends_answers_503_with_retry_after() {
    let a = attr_backend("Region A", 10, 1.0);
    let b = attr_backend("Region B", 10, 1.0);
    let proxy_a = FaultProxy::start(a.addr());
    let proxy_b = FaultProxy::start(b.addr());
    let (fed_handle, fed) = federate(
        vec![("Region A", proxy_a.addr()), ("Region B", proxy_b.addr())],
        fed_test_config(),
    );

    // Sanity: the healthy pair answers.
    let ok = post_once(fed_handle.addr(), "/aggregate", AGG_SPEC);
    assert_eq!(ok.status, 200, "{}", ok.body);

    // Black-hole the whole fleet: a roll-up with zero live regions would
    // be silently wrong, so the front-end refuses with a typed 503 and
    // tells the client when to retry.
    proxy_a.set_fault(Fault::Blackhole);
    proxy_b.set_fault(Fault::Blackhole);
    wait_for("both backends down", Duration::from_secs(30), || {
        fed.state_of("region_a") == Some(BackendState::Down)
            && fed.state_of("region_b") == Some(BackendState::Down)
    });
    let dark = post_once(fed_handle.addr(), "/aggregate", AGG_SPEC);
    assert_eq!(dark.status, 503, "{}", dark.body);
    assert_eq!(dark.header("retry-after"), Some("1"));
    assert!(
        dark.body.contains("all backends degraded"),
        "{}",
        dark.body
    );
    assert!(dark.body.contains("region_a") && dark.body.contains("region_b"), "{}", dark.body);

    // Healing either backend restores service (partial, flagged).
    proxy_b.set_fault(Fault::None);
    wait_for("region_b heals", Duration::from_secs(30), || {
        fed.state_of("region_b") == Some(BackendState::Healthy)
    });
    let back = post_once(fed_handle.addr(), "/aggregate", AGG_SPEC);
    assert_eq!(back.status, 200, "{}", back.body);
    assert_eq!(back.header("x-pipefail-partial"), Some("region_a"));

    fed_handle.shutdown();
    a.shutdown();
    b.shutdown();
}

#[test]
fn backend_healthz_probe_traffic_stays_out_of_request_metrics() {
    let a = backend("Region A", 10, 1.0);
    let (fed_handle, _fed) = federate(vec![("Region A", a.addr())], fed_test_config());

    // Let several probe rounds land on the backend's /healthz.
    let backend_metrics = a.metrics();
    wait_for("three probe rounds", Duration::from_secs(10), || {
        backend_metrics.healthz_total() >= 3
    });

    // Probes are answered and counted in their own series — and in NONE of
    // the request counters (requests_total still zero, healthz route 0).
    let text = backend_metrics.render();
    assert!(text.contains("pipefail_requests_total 0"), "{text}");
    assert!(text.contains("pipefail_requests{route=\"healthz\"} 0"), "{text}");
    let fed_hz = get_once(fed_handle.addr(), "/healthz");
    assert_eq!(fed_hz.status, 200, "{}", fed_hz.body);
    assert!(fed_hz.body.contains("\"status\":\"ok\""), "{}", fed_hz.body);

    fed_handle.shutdown();
    a.shutdown();
}

// ---------------------------------------------------------------------------
// One degrade policy: in-process shards and remote backends alike.
// ---------------------------------------------------------------------------

/// The per-shard request and unavailability series of a `/metrics`
/// exposition.
fn shard_counters(addr: SocketAddr) -> Vec<String> {
    get_once(addr, "/metrics")
        .body
        .lines()
        .filter(|l| {
            l.starts_with("pipefail_shard_requests{") || l.starts_with("pipefail_shard_unavailable{")
        })
        .map(String::from)
        .collect()
}

/// Ask every request of both topologies: status, body, `X-Pipefail-Partial`
/// and `Retry-After` must match. Returns the in-process answers.
fn ask_both(
    local: SocketAddr,
    front: SocketAddr,
    requests: &[(&str, Option<&str>)],
    phase: &str,
) -> Vec<common::HttpResponse> {
    requests
        .iter()
        .map(|&(path, body)| {
            let ask = |addr| match body {
                None => get_once(addr, path),
                Some(spec) => post_once(addr, path, spec),
            };
            let (l, f) = (ask(local), ask(front));
            assert_eq!(l.status, f.status, "{phase} {path}: {} vs {}", l.body, f.body);
            assert_eq!(l.body, f.body, "{phase} {path}: bodies differ");
            for header in ["x-pipefail-partial", "retry-after"] {
                assert_eq!(l.header(header), f.header(header), "{phase} {path}: {header}");
            }
            l
        })
        .collect()
}

/// Take `region_b` out on both topologies — a corrupt publish under the
/// reload watcher in process, a black-holed wire in the federation — and
/// the fleet-scope routes answer identically: status, body, and
/// `X-Pipefail-Partial`, with identical per-shard request counters. The
/// partial answers are never cached (the heal brings the full bytes back
/// at once), and with every region out both topologies answer the same
/// typed 503 with `Retry-After`.
#[test]
fn in_process_and_federated_fleets_degrade_identically() {
    let dir = std::env::temp_dir().join(format!("pipefail_fed_degrade_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |key: &str| dir.join(format!("{key}.pfsnap"));
    let publish = |key: &str, snap: &Snapshot| {
        let tmp = dir.join(format!("{key}.tmp"));
        snap.save(&tmp).expect("save snapshot");
        std::fs::rename(&tmp, path(key)).expect("atomic rename");
    };
    let snap_a = attr_snapshot("Region A", 30, 1.0);
    let snap_b = attr_snapshot("Region B", 20, 2.0);
    publish("region_a", &snap_a);
    publish("region_b", &snap_b);

    let set = ShardSet::load_dir(&dir, &TaskPool::new(2)).expect("load shard dir");
    let local = serve(
        Arc::new(ServeContext::sharded(set)),
        &ServerConfig { reload_poll_secs: 0.05, ..server_config() },
    )
    .expect("in-process server starts");
    let a = attr_backend("Region A", 30, 1.0);
    let b = attr_backend("Region B", 20, 2.0);
    let proxy_a = FaultProxy::start(a.addr());
    let proxy_b = FaultProxy::start(b.addr());
    let (front, fed) = federate(
        vec![("Region A", proxy_a.addr()), ("Region B", proxy_b.addr())],
        fed_test_config(),
    );
    let give_up = Duration::from_secs(30);
    let requests: [(&str, Option<&str>); 3] = [
        ("/top?k=12", None),
        ("/aggregate", Some(AGG_SPEC)),
        ("/aggregate", Some(BUDGET_SPEC)),
    ];
    let both = |phase: &str| ask_both(local.addr(), front.addr(), &requests, phase);
    let local_state = |status: u16| get_once(local.addr(), "/healthz").status == status;

    let full = both("healthy");
    for r in &full {
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.header("x-pipefail-partial").is_none());
    }

    // region_b out on both topologies.
    std::fs::write(path("region_b"), b"PFSNAPgarbage").expect("corrupt region_b");
    proxy_b.set_fault(Fault::Blackhole);
    wait_for("region_b to degrade in process", give_up, || local_state(503));
    wait_for("region_b to go down", give_up, || {
        fed.state_of("region_b") == Some(BackendState::Down)
    });
    for round in 0..3 {
        for (r, whole) in both(&format!("partial round {round}")).iter().zip(&full) {
            assert_eq!(r.status, 200, "{}", r.body);
            assert_eq!(r.header("x-pipefail-partial"), Some("region_b"));
            assert_ne!(r.body, whole.body, "a partial answer kept region_b");
        }
    }
    assert_eq!(shard_counters(local.addr()), shard_counters(front.addr()));

    // Heal both: the full bytes come back at once — no cached partial.
    publish("region_b", &snap_b);
    proxy_b.set_fault(Fault::None);
    wait_for("region_b to heal in process", give_up, || local_state(200));
    wait_for("region_b to heal", give_up, || {
        fed.state_of("region_b") == Some(BackendState::Healthy)
    });
    for (r, whole) in both("healed").iter().zip(&full) {
        assert_eq!((r.status, &r.body), (200, &whole.body));
        assert!(r.header("x-pipefail-partial").is_none());
    }

    // Every region out: the same typed 503 with Retry-After from both.
    std::fs::write(path("region_a"), b"PFSNAPgarbage").expect("corrupt region_a");
    std::fs::write(path("region_b"), b"PFSNAPgarbage").expect("corrupt region_b");
    proxy_a.set_fault(Fault::Blackhole);
    proxy_b.set_fault(Fault::Blackhole);
    wait_for("both shards to degrade in process", give_up, || {
        get_once(local.addr(), "/healthz").body.contains("[\"region_a\",\"region_b\"]")
    });
    wait_for("both backends to go down", give_up, || {
        fed.state_of("region_a") == Some(BackendState::Down)
            && fed.state_of("region_b") == Some(BackendState::Down)
    });
    for r in both("all out") {
        assert_eq!(r.status, 503, "{}", r.body);
        assert_eq!(r.header("retry-after"), Some("1"));
        assert!(r.body.contains("all backends degraded"), "{}", r.body);
    }
    assert_eq!(shard_counters(local.addr()), shard_counters(front.addr()));

    front.shutdown();
    local.shutdown();
    a.shutdown();
    b.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The corrupt-publish counterpart of the test above, with every process
/// built the way `pipefail serve` builds it: the in-process fleet loads a
/// snapshot directory, and each backend is a one-file server (a one-shard
/// set loaded by path) with reload armed. A truncated file renamed over
/// region_b's backend snapshot and over the fleet's region_b file takes
/// the region dark on both topologies alike — identical status, body, and
/// `X-Pipefail-Partial` for global `/top`, the region-routed `/top`, and
/// both `/aggregate` specs — and a valid re-publish brings the full bytes
/// back on both.
#[test]
fn corrupt_publish_degrades_one_file_backends_like_in_process_shards() {
    let root = std::env::temp_dir().join(format!("pipefail_fed_publish_{}", std::process::id()));
    let (fleet_dir, backend_dir) = (root.join("fleet"), root.join("backends"));
    for dir in [&fleet_dir, &backend_dir] {
        std::fs::create_dir_all(dir).expect("temp dir");
    }
    let publish = |path: &Path, bytes: &[u8]| {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, bytes).expect("write snapshot");
        std::fs::rename(&tmp, path).expect("atomic rename");
    };
    let reload = ServerConfig { reload_poll_secs: 0.05, ..server_config() };
    let mut backends = Vec::new();
    let mut files = Vec::new();
    let regions = [("region_a", "Region A", 30, 1.0), ("region_b", "Region B", 20, 2.0)];
    for (key, region, n, base) in regions {
        let bytes = attr_snapshot(region, n, base).to_bytes_v2();
        let path = backend_dir.join(format!("{key}.pfsnap"));
        publish(&fleet_dir.join(format!("{key}.pfsnap")), &bytes);
        publish(&path, &bytes);
        backends.push(serve(one_file_context(&path), &reload).expect("backend starts"));
        files.push(bytes);
    }
    let set = ShardSet::load_dir(&fleet_dir, &TaskPool::new(2)).expect("load shard dir");
    let local = serve(Arc::new(ServeContext::sharded(set)), &reload).expect("fleet starts");
    let (front, _fed) = federate(
        vec![("Region A", backends[0].addr()), ("Region B", backends[1].addr())],
        fed_test_config(),
    );
    let give_up = Duration::from_secs(30);
    let requests: [(&str, Option<&str>); 4] = [
        ("/top?k=12", None),
        ("/top?region=region_b&k=5", None),
        ("/aggregate", Some(AGG_SPEC)),
        ("/aggregate", Some(BUDGET_SPEC)),
    ];
    let partial_on =
        |addr| get_once(addr, "/top?k=12").header("x-pipefail-partial").map(String::from);

    let full = ask_both(local.addr(), front.addr(), &requests, "healthy");
    for r in &full {
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.header("x-pipefail-partial").is_none());
    }

    // A truncated region_b published under both topologies.
    let truncated = &files[1][..files[1].len() / 2];
    publish(&fleet_dir.join("region_b.pfsnap"), truncated);
    publish(&backend_dir.join("region_b.pfsnap"), truncated);
    for (what, addr) in [("in process", local.addr()), ("federated", front.addr())] {
        wait_for(&format!("region_b to go dark {what}"), give_up, || {
            partial_on(addr).as_deref() == Some("region_b")
        });
    }
    for round in 0..3 {
        let phase = format!("dark round {round}");
        let answers = ask_both(local.addr(), front.addr(), &requests, &phase);
        let routed = &answers[1];
        assert_eq!(routed.status, 503, "{}", routed.body);
        assert!(routed.body.contains("\"shard\":\"region_b\""), "{}", routed.body);
        for r in answers.iter().take(1).chain(&answers[2..]) {
            assert_eq!(r.status, 200, "{}", r.body);
            assert_eq!(r.header("x-pipefail-partial"), Some("region_b"));
        }
    }

    // A valid re-publish heals both: the full bytes come back.
    publish(&fleet_dir.join("region_b.pfsnap"), &files[1]);
    publish(&backend_dir.join("region_b.pfsnap"), &files[1]);
    for (what, addr) in [("in process", local.addr()), ("federated", front.addr())] {
        wait_for(&format!("region_b to heal {what}"), give_up, || partial_on(addr).is_none());
    }
    for (r, whole) in ask_both(local.addr(), front.addr(), &requests, "healed").iter().zip(&full) {
        assert_eq!((r.status, &r.body), (200, &whole.body));
        assert!(r.header("x-pipefail-partial").is_none());
    }

    front.shutdown();
    local.shutdown();
    for backend in backends {
        backend.shutdown();
    }
    std::fs::remove_dir_all(&root).ok();
}
