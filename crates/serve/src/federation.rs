//! Remote-shard federation: one front-end process routing `?region=K`
//! queries to backend serve processes over keep-alive TCP.
//!
//! An in-process [`crate::shards::ShardSet`] is a [`Fleet`] of local
//! shards; a [`Federation`] is a fleet of remote backends, and this module
//! is only what makes a member remote. Each backend is an ordinary
//! `pipefail serve` process owning one region; the front-end holds no
//! snapshots at all — only addresses, health state, and a connection pool
//! per backend. Routing, the global top-K merge, `/aggregate`, and the
//! degrade policy are the shared fleet engine ([`crate::fleet`]), so
//! federated bodies are byte-identical to in-process ones (pinned by
//! proptest in the e2e battery). A region-tagged request relays to its
//! backend; a region-less `/top` scatters `/top?k=K` to every backend and
//! merges the parsed columns; `POST /aggregate` forwards the spec verbatim
//! to every backend's `/aggregate?partial=1`, and the merge-ready partial
//! states come back over the wire (every f64 as shortest-round-trip text,
//! so re-parsing recovers exact bits).
//!
//! ## Robustness model
//!
//! The network makes every backend a failure domain, handled in layers:
//!
//! * **Health states** — each backend is `Healthy`, `Suspect` (recent
//!   failures, still tried), or `Down` (failures reached the threshold;
//!   requests short-circuit to a typed `503` without touching the wire).
//!   Requests mark failures *passively*; a periodic `/healthz` probe heals
//!   a `Down` backend the moment it answers again.
//! * **Timeout + retry** — every attempt runs under one per-request
//!   deadline (connect, write, read all draw from the same budget).
//!   Idempotent requests retry with capped exponential backoff and full
//!   jitter. "Idempotent" means read-only here: every GET, plus
//!   `POST /aggregate` — a pure query whose body is a pipeline spec, so
//!   re-sending it is as safe as re-sending a GET. The front-end still
//!   refuses `/batch` rather than re-POST blindly.
//! * **Hedging** — after a delay derived from the backend's observed p99
//!   latency (or a fixed `PIPEFAIL_FED_HEDGE_MS`), a duplicate request is
//!   fired on a second connection and the first well-formed answer wins —
//!   the classic tail-at-scale move for slow-but-alive backends.
//! * **Typed degradation** — a `Down` or failing backend is a dark fleet
//!   member: it 503s *only its own region* (with `Retry-After` derived
//!   from the probe interval); sibling regions keep serving, and the
//!   global top-K and `/aggregate` answer over the live fleet behind an
//!   `X-Pipefail-Partial` header — the fleet engine's one degrade policy.
//!   A backend's typed 4xx is the client's error, not the backend's: it
//!   never counts against the backend's health.
//!
//! Every failure mode maps to a [`FederationError`] — never a panic or a
//! hung connection (the fault-injection e2e battery drives drops, delays,
//! truncations, resets, and garbage through all of these paths).

use crate::aggregate::{self, AggregateError, AggregatePartial, AggregateSpec, Json};
use crate::fleet::{Ask, Backend, Fleet, Miss, TopTable};
use crate::http::{json_str, serve_topology, Response, ServerConfig, ServerHandle, Topology};
use crate::metrics::Metrics;
use crate::parser::ParsedRequest;
use crate::reload::sleep_interruptible;
use crate::shards::region_key;
use crate::ServeError;
use pipefail_par::TaskPool;
use std::fmt;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Environment variable: per-request deadline in seconds for one backend
/// attempt (connect + write + read; positive float).
pub const FED_TIMEOUT_ENV: &str = "PIPEFAIL_FED_TIMEOUT_SECS";

/// Environment variable: retry attempts after the first failure on an
/// idempotent GET (`0` = no retries).
pub const FED_RETRIES_ENV: &str = "PIPEFAIL_FED_RETRIES";

/// Environment variable: base backoff in milliseconds before the first
/// retry (doubles per retry, full jitter, capped).
pub const FED_BACKOFF_ENV: &str = "PIPEFAIL_FED_BACKOFF_MS";

/// Environment variable: backoff cap in milliseconds.
pub const FED_BACKOFF_CAP_ENV: &str = "PIPEFAIL_FED_BACKOFF_CAP_MS";

/// Environment variable: hedge delay in milliseconds. Unset = derive from
/// the backend's observed p99 latency; `0` = hedging off.
pub const FED_HEDGE_ENV: &str = "PIPEFAIL_FED_HEDGE_MS";

/// Environment variable: health-probe interval in seconds (positive
/// float).
pub const FED_PROBE_ENV: &str = "PIPEFAIL_FED_PROBE_SECS";

/// Environment variable: consecutive failures before a backend is marked
/// `Down` (minimum 1).
pub const FED_FAIL_THRESHOLD_ENV: &str = "PIPEFAIL_FED_FAIL_THRESHOLD";

/// Federation tuning knobs, all overridable via `PIPEFAIL_FED_*`.
#[derive(Debug, Clone, PartialEq)]
pub struct FedConfig {
    /// Per-attempt deadline in seconds (connect + write + read).
    pub request_timeout_secs: f64,
    /// Retries after the first failed attempt on an idempotent GET.
    pub retries: usize,
    /// Base backoff before the first retry, in milliseconds; doubles per
    /// retry with full jitter.
    pub backoff_base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub backoff_cap_ms: u64,
    /// Hedge delay: `None` derives it from the backend's observed p99
    /// latency (no hedging until enough samples exist), `Some(0)` disables
    /// hedging, `Some(ms)` hedges after a fixed delay.
    pub hedge_ms: Option<u64>,
    /// Health-probe interval in seconds.
    pub probe_secs: f64,
    /// Consecutive failures that flip a backend `Suspect` → `Down`.
    pub fail_threshold: u32,
}

impl Default for FedConfig {
    fn default() -> Self {
        Self {
            request_timeout_secs: 2.0,
            retries: 2,
            backoff_base_ms: 50,
            backoff_cap_ms: 2000,
            hedge_ms: None,
            probe_secs: 1.0,
            fail_threshold: 3,
        }
    }
}

impl FedConfig {
    /// Defaults overridden from the environment (the `PIPEFAIL_FED_*`
    /// knobs), mirroring `ServerConfig::from_env`: unset or unparsable
    /// values keep the defaults.
    pub fn from_env() -> Self {
        use crate::knobs::{apply, env, positive_f64, uint};
        let mut cfg = Self::default();
        apply(&mut cfg.request_timeout_secs, FED_TIMEOUT_ENV, positive_f64);
        apply(&mut cfg.retries, FED_RETRIES_ENV, uint);
        apply(&mut cfg.backoff_base_ms, FED_BACKOFF_ENV, uint);
        apply(&mut cfg.backoff_cap_ms, FED_BACKOFF_CAP_ENV, uint);
        if let Some(n) = env(FED_HEDGE_ENV, uint) {
            cfg.hedge_ms = Some(n);
        }
        apply(&mut cfg.probe_secs, FED_PROBE_ENV, positive_f64);
        if let Some(n) = env(FED_FAIL_THRESHOLD_ENV, uint::<u64>) {
            cfg.fail_threshold = (n as u32).max(1);
        }
        cfg
    }
}

/// Every way a federated request can fail, typed — the status-code mapping
/// is [`FederationError::status`], and none of these ever surfaces as a
/// panic or a hung connection.
#[derive(Debug, Clone, PartialEq)]
pub enum FederationError {
    /// TCP connect to the backend failed or timed out.
    Connect {
        /// The backend's region key.
        backend: String,
        /// The underlying socket error.
        detail: String,
    },
    /// The per-attempt deadline expired mid-exchange.
    Timeout {
        /// The backend's region key.
        backend: String,
    },
    /// A socket read/write failed mid-exchange (reset, broken pipe, …).
    Io {
        /// The backend's region key.
        backend: String,
        /// The underlying socket error.
        detail: String,
    },
    /// The backend closed the connection before `Content-Length` bytes of
    /// body arrived.
    TruncatedBody {
        /// The backend's region key.
        backend: String,
    },
    /// The backend sent bytes that don't parse as an HTTP/1.1 response
    /// (or an unexpected status for the route).
    BadResponse {
        /// The backend's region key.
        backend: String,
        /// What was wrong with the bytes.
        detail: String,
    },
    /// The backend is marked `Down`; the request short-circuited without
    /// touching the wire.
    BackendDown {
        /// The backend's region key.
        backend: String,
        /// The failure that drove it down.
        detail: String,
    },
    /// The requested region names no configured backend.
    UnknownRegion {
        /// The unknown key as requested.
        region: String,
    },
    /// Invalid federation configuration (bad backend spec, empty fleet).
    BadConfig(
        /// What was invalid.
        String,
    ),
}

impl FederationError {
    /// The HTTP status this error maps to on the front-end.
    pub fn status(&self) -> u16 {
        match self {
            Self::BackendDown { .. } => 503,
            Self::Timeout { .. } => 504,
            Self::Connect { .. } | Self::Io { .. } | Self::TruncatedBody { .. } => 502,
            Self::BadResponse { .. } => 502,
            Self::UnknownRegion { .. } => 404,
            Self::BadConfig(_) => 500,
        }
    }
}

impl fmt::Display for FederationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Connect { backend, detail } => {
                write!(f, "backend {backend:?}: connect failed: {detail}")
            }
            Self::Timeout { backend } => write!(f, "backend {backend:?}: request timed out"),
            Self::Io { backend, detail } => write!(f, "backend {backend:?}: io error: {detail}"),
            Self::TruncatedBody { backend } => {
                write!(f, "backend {backend:?}: response truncated mid-body")
            }
            Self::BadResponse { backend, detail } => {
                write!(f, "backend {backend:?}: bad response: {detail}")
            }
            Self::BackendDown { backend, detail } => {
                write!(f, "backend {backend:?} down: {detail}")
            }
            Self::UnknownRegion { region } => write!(f, "unknown region {region:?}"),
            Self::BadConfig(detail) => write!(f, "bad federation config: {detail}"),
        }
    }
}

impl std::error::Error for FederationError {}

impl FederationError {
    /// The typed front-end response for this failure: its status, and a
    /// body naming the region when the backend is down.
    fn response(&self) -> Response {
        let body = match self {
            Self::BackendDown { backend, .. } => format!(
                "{{\"error\":{},\"region\":{}}}",
                json_str(&self.to_string()),
                json_str(backend)
            ),
            _ => format!("{{\"error\":{}}}", json_str(&self.to_string())),
        };
        Response::json(self.status(), body)
    }
}

/// A backend's health, driven by passive failure marking and the periodic
/// probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendState {
    /// Answering normally.
    Healthy,
    /// Recent failures below the threshold; still tried (with retries).
    Suspect,
    /// Consecutive failures reached the threshold; requests short-circuit
    /// until a probe succeeds.
    Down,
}

impl BackendState {
    /// Lowercase label for JSON bodies and logs.
    pub fn label(self) -> &'static str {
        match self {
            Self::Healthy => "healthy",
            Self::Suspect => "suspect",
            Self::Down => "down",
        }
    }
}

#[derive(Debug)]
struct Health {
    state: BackendState,
    consecutive_failures: u32,
    last_error: String,
}

/// Ring of recent request latencies (µs) for the p99 hedge delay.
#[derive(Debug, Default)]
struct LatencyRing {
    samples: Vec<u64>,
    pos: usize,
}

const LATENCY_RING: usize = 64;
/// Samples required before an auto (p99-derived) hedge delay kicks in.
const HEDGE_MIN_SAMPLES: usize = 16;

impl LatencyRing {
    fn record(&mut self, us: u64) {
        if self.samples.len() < LATENCY_RING {
            self.samples.push(us);
        } else {
            self.samples[self.pos] = us;
            self.pos = (self.pos + 1) % LATENCY_RING;
        }
    }

    /// The ~p99 of the ring (with ≤ 64 samples this is close to the max).
    fn p99_us(&self) -> Option<u64> {
        if self.samples.len() < HEDGE_MIN_SAMPLES {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let idx = (sorted.len() * 99 / 100).min(sorted.len() - 1);
        Some(sorted[idx])
    }
}

/// One remote backend: address, health, a small keep-alive connection
/// pool, and a latency ring feeding the hedge delay.
#[derive(Debug)]
pub(crate) struct Remote {
    key: String,
    addr: SocketAddr,
    config: Arc<FedConfig>,
    health: Mutex<Health>,
    pool: Mutex<Vec<TcpStream>>,
    latencies: Mutex<LatencyRing>,
    /// Change counter feeding the fleet generation (the front-end cache's
    /// epoch): bumped on every health-state *transition* and every
    /// observed backend snapshot-epoch change, so the front end's
    /// fleet-scope cache entries key on exactly the state that can change
    /// a merged body. Staleness is bounded by the probe interval, since
    /// probes carry the backends' epochs even when no request traffic
    /// does.
    changes: AtomicU64,
    /// Last `X-Pipefail-Epoch` this backend advertised (0 = never seen).
    last_epoch: AtomicU64,
}

/// Idle keep-alive connections kept per backend.
const POOL_CAP: usize = 4;

impl Remote {
    fn new(key: String, addr: SocketAddr, config: Arc<FedConfig>) -> Self {
        Self {
            key,
            addr,
            config,
            health: Mutex::new(Health {
                state: BackendState::Healthy,
                consecutive_failures: 0,
                last_error: String::new(),
            }),
            pool: Mutex::new(Vec::new()),
            latencies: Mutex::new(LatencyRing::default()),
            changes: AtomicU64::new(0),
            last_epoch: AtomicU64::new(0),
        }
    }

    fn state(&self) -> BackendState {
        self.health.lock().unwrap_or_else(|p| p.into_inner()).state
    }

    fn last_error(&self) -> String {
        self.health
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .last_error
            .clone()
    }

    /// Passive failure marking: every failed attempt pushes the backend
    /// toward `Down` at the threshold. Only a probe heals `Down`. A state
    /// *transition* bumps the change counter — the front-end cache must
    /// retire fleet-scope bodies merged under the old health picture.
    fn mark_failure(&self, error: &FederationError, threshold: u32) {
        let mut h = self.health.lock().unwrap_or_else(|p| p.into_inner());
        h.consecutive_failures = h.consecutive_failures.saturating_add(1);
        h.last_error = error.to_string();
        let next = if h.consecutive_failures >= threshold {
            BackendState::Down
        } else {
            BackendState::Suspect
        };
        if h.state != next {
            self.changes.fetch_add(1, Ordering::SeqCst);
        }
        h.state = next;
        // A sick backend's pooled connections are not to be trusted.
        self.pool.lock().unwrap_or_else(|p| p.into_inner()).clear();
    }

    /// Any well-formed response proves the wire works (whatever the
    /// status code says about the backend's shards). Healing from
    /// `Suspect`/`Down` is a state transition, so it bumps the change
    /// counter too.
    fn mark_success(&self) {
        let mut h = self.health.lock().unwrap_or_else(|p| p.into_inner());
        h.consecutive_failures = 0;
        if h.state != BackendState::Healthy {
            self.changes.fetch_add(1, Ordering::SeqCst);
        }
        h.state = BackendState::Healthy;
    }

    /// Record the snapshot epoch this backend just advertised in an
    /// `X-Pipefail-Epoch` header (responses and `/healthz` probes both
    /// carry it); a change means the backend hot-reloaded or degraded, so
    /// anything merged from it is stale.
    fn note_epoch(&self, epoch: u64) {
        if self.last_epoch.swap(epoch, Ordering::SeqCst) != epoch {
            self.changes.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn record_latency(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        self.latencies
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .record(us);
    }

    fn checkout(&self) -> Option<TcpStream> {
        self.pool.lock().unwrap_or_else(|p| p.into_inner()).pop()
    }

    fn check_in(&self, conn: TcpStream) {
        let mut pool = self.pool.lock().unwrap_or_else(|p| p.into_inner());
        if pool.len() < POOL_CAP {
            pool.push(conn);
        }
    }
}

/// One complete backend answer: status code, exact-framed body, and the
/// backend's advertised snapshot epoch (when it sent one).
#[derive(Debug)]
struct BackendReply {
    status: u16,
    body: String,
    epoch: Option<u64>,
}

/// The federation: a fleet of remote backends plus the tuning knobs.
#[derive(Debug)]
pub struct Federation {
    fleet: Fleet<Remote>,
    /// One scatter thread per backend.
    pool: TaskPool,
    config: Arc<FedConfig>,
}

impl Federation {
    /// Build a federation from `(region key, address)` pairs. Keys are
    /// sanitized with [`region_key`] and sorted; duplicate keys, an empty
    /// fleet, or an unresolvable address are [`ServeError::BadConfig`].
    pub fn new(
        targets: Vec<(String, String)>,
        config: FedConfig,
    ) -> Result<Self, ServeError> {
        if config.request_timeout_secs <= 0.0 {
            return Err(ServeError::BadConfig(
                "fed request timeout must be positive".into(),
            ));
        }
        if config.probe_secs <= 0.0 {
            return Err(ServeError::BadConfig("fed probe interval must be positive".into()));
        }
        let config = Arc::new(config);
        let mut backends = Vec::with_capacity(targets.len());
        for (raw_key, raw_addr) in targets {
            let key = region_key(&raw_key);
            if key.is_empty() {
                return Err(ServeError::BadConfig(format!(
                    "empty region key in backend spec {raw_key:?}"
                )));
            }
            let addr = raw_addr
                .to_socket_addrs()
                .map_err(|e| {
                    ServeError::BadConfig(format!("backend {key}: bad address {raw_addr:?}: {e}"))
                })?
                .next()
                .ok_or_else(|| {
                    ServeError::BadConfig(format!(
                        "backend {key}: address {raw_addr:?} resolved to nothing"
                    ))
                })?;
            backends.push((key.clone(), Remote::new(key, addr, Arc::clone(&config))));
        }
        let fleet = Fleet::assemble(backends)?;
        let pool = TaskPool::new(fleet.len());
        Ok(Self { fleet, pool, config })
    }

    /// Region keys in routing order (sorted).
    pub fn keys(&self) -> Vec<String> {
        self.fleet.keys().map(String::from).collect()
    }

    /// The current health state of the backend serving `key`, if any —
    /// exposed for tests and operational tooling.
    pub fn state_of(&self, key: &str) -> Option<BackendState> {
        self.fleet.get(key).map(Remote::state)
    }

    /// `Retry-After` seconds advertised on federated 503s: the next probe
    /// is the soonest a `Down` backend can heal.
    fn retry_after_secs(&self) -> u64 {
        (self.config.probe_secs.ceil() as u64).max(1)
    }

    /// One probe round: `GET /healthz` on every backend. Any well-formed
    /// response (whatever the status) proves the wire and heals `Down`.
    /// Probes deliberately use one-shot `Connection: close` requests and
    /// never touch the connection pool: a pooled probe connection kept
    /// warm every `probe_secs` would pin one backend worker thread
    /// *forever*, quietly halving a small backend's capacity.
    fn probe_all(&self, metrics: &Metrics) {
        let timeout = Duration::from_secs_f64(self.config.request_timeout_secs);
        for backend in self.fleet.members() {
            let ok = match probe_once(backend, "/healthz", timeout) {
                Ok(reply) => {
                    backend.mark_success();
                    if let Some(epoch) = reply.epoch {
                        backend.note_epoch(epoch);
                    }
                    true
                }
                Err(e) => {
                    backend.mark_failure(&e, self.config.fail_threshold);
                    false
                }
            };
            metrics.fed_probe(ok);
        }
    }
}

impl Remote {
    /// One request against one backend with health gating, hedging,
    /// retries, and backoff. The only public-facing failure is a typed
    /// [`FederationError`]. Callers must only route *read-only* requests
    /// here (GETs, plus the pure-query `POST /aggregate`): retries and
    /// hedges re-send the request verbatim, which is only safe when
    /// re-execution is free of side effects.
    fn fetch(
        self: &Arc<Self>,
        method: &'static str,
        path_query: &str,
        body: &str,
        metrics: &Metrics,
    ) -> Result<BackendReply, FederationError> {
        if self.state() == BackendState::Down {
            return Err(FederationError::BackendDown {
                backend: self.key.clone(),
                detail: self.last_error(),
            });
        }
        let mut backoff_ms = self.config.backoff_base_ms;
        let mut last = None;
        for attempt in 0..=self.config.retries {
            if attempt > 0 {
                metrics.fed_retry();
                if backoff_ms > 0 {
                    std::thread::sleep(Duration::from_millis(jitter(backoff_ms)));
                }
                backoff_ms = (backoff_ms.saturating_mul(2)).min(self.config.backoff_cap_ms);
            }
            let started = Instant::now();
            match self.hedged_attempt(method, path_query, body, metrics) {
                Ok(reply) => {
                    self.mark_success();
                    if let Some(epoch) = reply.epoch {
                        self.note_epoch(epoch);
                    }
                    self.record_latency(started.elapsed());
                    return Ok(reply);
                }
                Err(e) => {
                    self.mark_failure(&e, self.config.fail_threshold);
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| FederationError::BackendDown {
            backend: self.key.clone(),
            detail: "no attempts made".into(),
        }))
    }

    /// One attempt, hedged: fire the primary request on its own thread,
    /// and if it hasn't answered within the hedge delay, fire a duplicate
    /// on a second connection. First well-formed answer wins; losers are
    /// detached (their connections still return to the pool on success).
    fn hedged_attempt(
        self: &Arc<Self>,
        method: &'static str,
        path_query: &str,
        body: &str,
        metrics: &Metrics,
    ) -> Result<BackendReply, FederationError> {
        let timeout = Duration::from_secs_f64(self.config.request_timeout_secs);
        let deadline = Instant::now() + timeout;
        let (tx, rx) = mpsc::channel::<(u8, Result<BackendReply, FederationError>)>();
        spawn_attempt(
            Arc::clone(self),
            method,
            path_query.to_string(),
            body.to_string(),
            timeout,
            tx.clone(),
            0,
        );

        let hedge_delay = match self.config.hedge_ms {
            Some(0) => None,
            Some(ms) => Some(Duration::from_millis(ms)),
            None => self
                .latencies
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .p99_us()
                .map(Duration::from_micros),
        }
        // A hedge delay at/after the deadline can never fire.
        .filter(|d| *d < timeout);

        let mut hedged = false;
        let first = if let Some(delay) = hedge_delay {
            match rx.recv_timeout(delay) {
                Ok(got) => Some(got),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    metrics.fed_hedge();
                    hedged = true;
                    spawn_attempt(
                        Arc::clone(self),
                        method,
                        path_query.to_string(),
                        body.to_string(),
                        deadline.saturating_duration_since(Instant::now()),
                        tx.clone(),
                        1,
                    );
                    None
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => None,
            }
        } else {
            None
        };
        drop(tx);

        // Drain results: the first Ok wins; an Err only settles the
        // attempt once every in-flight request has failed (a dead primary
        // must not mask a live hedge, and vice versa). A deadline expiry
        // with requests still in flight is a Timeout.
        let mut outstanding: usize = if hedged { 2 } else { 1 };
        let mut primary_error: Option<FederationError> = None;
        let mut hedge_error: Option<FederationError> = None;
        let mut pending = first;
        loop {
            let (tag, result) = match pending.take() {
                Some(got) => got,
                None => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    match rx.recv_timeout(left) {
                        Ok(got) => got,
                        Err(_) => {
                            return Err(primary_error.or(hedge_error).unwrap_or(
                                FederationError::Timeout { backend: self.key.clone() },
                            ))
                        }
                    }
                }
            };
            match result {
                Ok(reply) => {
                    if tag == 1 {
                        metrics.fed_hedge_win();
                    }
                    return Ok(reply);
                }
                Err(e) => {
                    if tag == 0 {
                        primary_error = Some(e);
                    } else {
                        hedge_error = Some(e);
                    }
                    outstanding -= 1;
                    if outstanding == 0 {
                        // Both reported: the primary's error describes the
                        // backend best.
                        return Err(primary_error
                            .or(hedge_error)
                            .unwrap_or(FederationError::Timeout {
                                backend: self.key.clone(),
                            }));
                    }
                }
            }
        }
    }
}

/// Detached single-attempt worker: the hedging channel decides the winner;
/// a loser finishing later is harmless (its `send` fails silently and its
/// connection still returns to the pool).
fn spawn_attempt(
    backend: Arc<Remote>,
    method: &'static str,
    path_query: String,
    body: String,
    timeout: Duration,
    tx: mpsc::Sender<(u8, Result<BackendReply, FederationError>)>,
    tag: u8,
) {
    std::thread::spawn(move || {
        let result = attempt_once(&backend, method, &path_query, &body, timeout);
        let _ = tx.send((tag, result));
    });
}

/// One request/response exchange against one backend, under one deadline:
/// try a pooled keep-alive connection first; a pooled connection that dies
/// before yielding a single response byte was stale (closed by the backend
/// between requests) and is retried once on a fresh dial, uncounted.
fn attempt_once(
    backend: &Remote,
    method: &'static str,
    path_query: &str,
    body: &str,
    timeout: Duration,
) -> Result<BackendReply, FederationError> {
    let deadline = Instant::now() + timeout;
    if let Some(conn) = backend.checkout() {
        match exchange(backend, conn, method, path_query, body, deadline, true) {
            Ok(reply) => return Ok(reply),
            Err((e, read_any)) if read_any => return Err(e),
            Err(_) => {} // stale pooled conn: fall through to a fresh dial
        }
    }
    let conn = dial(backend, deadline)?;
    exchange(backend, conn, method, path_query, body, deadline, true).map_err(|(e, _)| e)
}

/// One health-probe exchange on a dedicated one-shot connection
/// (`Connection: close`, never pooled) — see [`Federation::probe_all`] for
/// why probes must not hold a backend connection open.
fn probe_once(
    backend: &Remote,
    path_query: &str,
    timeout: Duration,
) -> Result<BackendReply, FederationError> {
    let deadline = Instant::now() + timeout;
    let conn = dial(backend, deadline)?;
    exchange(backend, conn, "GET", path_query, "", deadline, false).map_err(|(e, _)| e)
}

/// Fresh TCP dial under the remaining deadline budget.
fn dial(backend: &Remote, deadline: Instant) -> Result<TcpStream, FederationError> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(FederationError::Timeout { backend: backend.key.clone() });
    }
    let conn = TcpStream::connect_timeout(&backend.addr, left).map_err(|e| {
        if e.kind() == std::io::ErrorKind::TimedOut || e.kind() == std::io::ErrorKind::WouldBlock {
            FederationError::Timeout { backend: backend.key.clone() }
        } else {
            FederationError::Connect {
                backend: backend.key.clone(),
                detail: e.to_string(),
            }
        }
    })?;
    conn.set_nodelay(true).ok();
    // Backend sockets are non-blocking for their whole (pooled) lifetime:
    // every read/write goes through the `sys` deadline helpers, so a
    // stalled backend can never hold a pooled connection past the request
    // deadline — per-read socket timeouts reset on every byte dribbled,
    // a poll()-checked deadline does not.
    conn.set_nonblocking(true)
        .map_err(|e| FederationError::Connect {
            backend: backend.key.clone(),
            detail: e.to_string(),
        })?;
    Ok(conn)
}

/// Write one request (a body gains a `Content-Length` header) and read one
/// exact-framed response. The error carries whether any response bytes had
/// arrived — the caller uses it to tell a stale pooled connection (retry
/// fresh) from a mid-response failure (surface it).
fn exchange(
    backend: &Remote,
    mut conn: TcpStream,
    method: &str,
    path_query: &str,
    body: &str,
    deadline: Instant,
    reuse: bool,
) -> Result<BackendReply, (FederationError, bool)> {
    let key = || backend.key.clone();
    let left = |at: Instant| deadline.saturating_duration_since(at);
    let io_err = |e: &std::io::Error, read_any: bool| {
        if e.kind() == std::io::ErrorKind::TimedOut || e.kind() == std::io::ErrorKind::WouldBlock {
            (FederationError::Timeout { backend: key() }, read_any)
        } else {
            (
                FederationError::Io { backend: key(), detail: e.to_string() },
                read_any,
            )
        }
    };

    if left(Instant::now()).is_zero() {
        return Err((FederationError::Timeout { backend: key() }, false));
    }
    let keep = if reuse { "keep-alive" } else { "close" };
    let request = if body.is_empty() {
        format!("{method} {path_query} HTTP/1.1\r\nHost: backend\r\nConnection: {keep}\r\n\r\n")
    } else {
        format!(
            "{method} {path_query} HTTP/1.1\r\nHost: backend\r\nContent-Length: {}\r\nConnection: {keep}\r\n\r\n{body}",
            body.len()
        )
    };
    // Non-blocking deadline I/O (poll()-bounded, EINTR-safe): expiry maps
    // to TimedOut, which `io_err` turns into FederationError::Timeout.
    crate::sys::write_all_deadline(&mut conn, request.as_bytes(), deadline)
        .map_err(|e| io_err(&e, false))?;

    // Read the head: bounded, deadline-driven.
    const MAX_HEAD: usize = 16 * 1024;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return Err((
                FederationError::BadResponse {
                    backend: key(),
                    detail: "response head too large".into(),
                },
                true,
            ));
        }
        if left(Instant::now()).is_zero() {
            return Err((FederationError::Timeout { backend: key() }, !buf.is_empty()));
        }
        match crate::sys::read_deadline(&mut conn, &mut chunk, deadline) {
            Ok(0) => {
                let read_any = !buf.is_empty();
                return Err(if read_any {
                    (
                        FederationError::BadResponse {
                            backend: key(),
                            detail: "connection closed mid-head".into(),
                        },
                        true,
                    )
                } else {
                    (
                        FederationError::Io {
                            backend: key(),
                            detail: "connection closed before response".into(),
                        },
                        false,
                    )
                });
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(io_err(&e, !buf.is_empty())),
        }
    };

    // Parse the status line and the two headers that matter: framing
    // (Content-Length) and reuse (Connection).
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let bad = |detail: String| (FederationError::BadResponse { backend: key(), detail }, true);
    if !status_line.starts_with("HTTP/1.1 ") && !status_line.starts_with("HTTP/1.0 ") {
        return Err(bad(format!("not an HTTP status line: {status_line:?}")));
    }
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status code in {status_line:?}")))?;
    let mut content_length: Option<usize> = None;
    let mut close = status_line.starts_with("HTTP/1.0 ");
    let mut epoch: Option<u64> = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad(format!("bad header line {line:?}")));
        };
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().ok();
            if content_length.is_none() {
                return Err(bad(format!("bad Content-Length {value:?}")));
            }
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("x-pipefail-epoch") {
            // Advisory: an unparsable value reads as absent, never an error.
            epoch = value.parse().ok();
        }
    }
    let Some(content_length) = content_length else {
        return Err(bad("missing Content-Length".into()));
    };

    // Read the body to exactly Content-Length.
    let total = head_end + 4 + content_length;
    while buf.len() < total {
        if left(Instant::now()).is_zero() {
            return Err((FederationError::Timeout { backend: key() }, true));
        }
        match crate::sys::read_deadline(&mut conn, &mut chunk, deadline) {
            Ok(0) => return Err((FederationError::TruncatedBody { backend: key() }, true)),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(io_err(&e, true)),
        }
    }
    if buf.len() > total {
        // The backend wrote past its declared length: framing is broken,
        // the connection cannot be reused.
        return Err(bad("response overran Content-Length".into()));
    }
    let body = String::from_utf8_lossy(&buf[head_end + 4..total]).into_owned();
    if reuse && !close {
        backend.check_in(conn);
    }
    Ok(BackendReply { status, body, epoch })
}

/// Full jitter over `[ms/2, ms]` — desynchronizes retry storms across
/// workers without a global RNG (splitmix64 over a time-derived seed).
fn jitter(ms: u64) -> u64 {
    if ms <= 1 {
        return ms;
    }
    let seed = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ (d.as_secs() << 32))
        .unwrap_or(0x9e3779b97f4a7c15);
    let mut z = seed.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    let half = ms / 2;
    half + z % (ms - half + 1)
}

/// Parse a backend `/top` body into parallel id and score columns in rank
/// order, with the strict JSON reader. Scores were serialized with Rust's
/// shortest-round-trip `f64` formatting, so the parse recovers the exact
/// bits — re-rendering after the merge is byte-identical to the
/// in-process path. Every entry must carry an integral `u32` pipe id, a
/// score, and its own position as `rank`; anything else is an error
/// naming the first offending entry.
fn parse_top_columns(body: &str) -> Result<(Vec<u32>, Vec<f64>), String> {
    let Json::Obj(fields) = aggregate::parse_json(body).map_err(|e| e.to_string())? else {
        return Err("not a JSON object".into());
    };
    let Some((_, Json::Arr(results))) = fields.iter().find(|(k, _)| k == "results") else {
        return Err("missing \"results\" array".into());
    };
    let mut ids = Vec::with_capacity(results.len());
    let mut scores = Vec::with_capacity(results.len());
    for (rank, entry) in results.iter().enumerate() {
        let Json::Obj(entry) = entry else {
            return Err(format!("entry {rank} is not an object"));
        };
        let num = |key: &str| match entry.iter().find(|(k, _)| k == key) {
            Some((_, Json::Num(n))) => Ok(*n),
            _ => Err(format!("entry {rank} has no numeric {key:?}")),
        };
        let pipe = num("pipe")?;
        if pipe.fract() != 0.0 || !(0.0..=f64::from(u32::MAX)).contains(&pipe) {
            return Err(format!("entry {rank} has pipe id {pipe}, not a u32"));
        }
        let score = num("score")?;
        if num("rank")? != rank as f64 {
            return Err(format!("entry {rank} is out of rank order"));
        }
        ids.push(pipe as u32);
        scores.push(score);
    }
    Ok((ids, scores))
}

impl Backend for Remote {
    const REMOTE: bool = true;

    fn generation(&self) -> u64 {
        self.changes.load(Ordering::SeqCst)
    }

    fn exact_epoch(&self) -> Option<u64> {
        None
    }

    /// Relay the request to this backend, passing its status and body
    /// through untouched (byte-identity with a direct request).
    fn region(
        self: &Arc<Self>,
        _: Ask,
        req: &ParsedRequest,
        metrics: &Metrics,
    ) -> Result<Response, Response> {
        let path_query = format!("{}?{}", req.path, req.query);
        match self.fetch("GET", &path_query, "", metrics) {
            Ok(reply) => Ok(Response::json(reply.status, reply.body)),
            Err(e) => Err(e.response()),
        }
    }

    fn top(self: &Arc<Self>, k: usize, metrics: &Metrics) -> Option<TopTable> {
        let reply = self.fetch("GET", &format!("/top?k={k}"), "", metrics).ok()?;
        if reply.status != 200 {
            return None;
        }
        let (ids, scores) = parse_top_columns(&reply.body).ok()?;
        Some(TopTable::Wire(ids, scores))
    }

    fn partial(
        self: &Arc<Self>,
        spec: &AggregateSpec,
        body: &str,
        metrics: &Metrics,
    ) -> Result<AggregatePartial, Miss> {
        let reply = self
            .fetch("POST", "/aggregate?partial=1", body, metrics)
            .map_err(|_| Miss::Dark)?;
        match reply.status {
            200 => aggregate::parse_partial(spec, &reply.body).map_err(|_| Miss::Dark),
            // The spec already parsed here, so a backend 400 naming missing
            // attributes is the client's error on this topology too.
            400 if reply.body.contains(&json_str(&AggregateError::NoAttributes.to_string())) => {
                Err(Miss::NoAttributes)
            }
            _ => Err(Miss::Dark),
        }
    }
}

impl Topology for Federation {
    type Member = Remote;

    fn fleet(&self) -> &Fleet<Remote> {
        &self.fleet
    }

    fn pool(&self) -> &TaskPool {
        &self.pool
    }

    /// The front-end's own readiness: 200 while no backend is `Down`, a
    /// 503 naming the down backends otherwise; the body always lists every
    /// backend's state.
    fn healthz(&self) -> Response {
        let mut any_down = false;
        let entries: Vec<String> = self
            .fleet
            .keys()
            .zip(self.fleet.members())
            .map(|(key, b)| {
                let state = b.state();
                any_down |= state == BackendState::Down;
                format!(
                    "{{\"region\":{},\"state\":{}}}",
                    json_str(key),
                    json_str(state.label())
                )
            })
            .collect();
        let status_word = if any_down { "degraded" } else { "ok" };
        let body = format!(
            "{{\"status\":\"{status_word}\",\"backends\":[{}]}}",
            entries.join(",")
        );
        Response::json(if any_down { 503 } else { 200 }, body)
    }

    /// The federated `/model`: the backend inventory with health states —
    /// answered locally (no fan-out) so it works while backends are down.
    fn model(&self) -> Response {
        let entries: Vec<String> = self
            .fleet
            .keys()
            .zip(self.fleet.members())
            .map(|(key, b)| {
                format!(
                    "{{\"region\":{},\"addr\":{},\"state\":{}}}",
                    json_str(key),
                    json_str(&b.addr.to_string()),
                    json_str(b.state().label())
                )
            })
            .collect();
        Response::json(
            200,
            format!(
                "{{\"federation\":{},\"backends\":[{}]}}",
                self.fleet.len(),
                entries.join(",")
            ),
        )
    }

    /// A batch is not federated: retries would re-POST it blindly.
    fn batch(&self, _: &ParsedRequest, _: &Metrics) -> Response {
        Response::json(501, "{\"error\":\"batch is not federated; send it to a backend\"}")
    }

    fn riskmap(&self) -> Response {
        Response::json(404, "{\"error\":\"risk maps are not federated\"}")
    }
}

/// Start the federation front-end: the shared connection layer and route
/// table of [`crate::http::serve`] over the remote fleet, plus the health
/// prober as a background thread. Returns immediately with the handle.
pub fn serve_federated(
    fed: Arc<Federation>,
    config: &ServerConfig,
) -> Result<ServerHandle, ServeError> {
    let probe_interval = Duration::from_secs_f64(fed.config.probe_secs);
    let retry_after = fed.retry_after_secs();
    serve_topology(Arc::clone(&fed), retry_after, config, move |shutdown, metrics| {
        let (shutdown, metrics) = (Arc::clone(shutdown), Arc::clone(metrics));
        vec![std::thread::spawn(move || {
            while !shutdown.load(Ordering::SeqCst) {
                fed.probe_all(&metrics);
                sleep_interruptible(probe_interval, &shutdown);
            }
        })]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_top_columns_round_trips_the_rendered_body() {
        use crate::http;
        use crate::scorer::{RiskSlice, Scorer};
        use pipefail_core::model::{RiskRanking, RiskScore};
        use pipefail_core::snapshot::Snapshot;
        use pipefail_network::ids::PipeId;
        let ranking = RiskRanking::new(
            (0..50u32)
                .map(|i| RiskScore {
                    pipe: PipeId(i),
                    score: f64::from(50 - i) / 7.0,
                })
                .collect(),
        );
        let scorer = Scorer::new(Snapshot::new("DPMHBP", "Region A", 7, &ranking));
        let body = http::render_top_k(&scorer, 20);
        let (ids, scores) = parse_top_columns(&body).expect("parseable");
        let parsed = RiskSlice::from_columns(&ids, &scores);
        assert_eq!(parsed.len(), 20);
        // Exact bit recovery: shortest-round-trip f64 text → the same f64.
        for (got, want) in parsed.iter().zip(scorer.top_k(20)) {
            assert_eq!(got.pipe, want.pipe);
            assert_eq!(got.score.to_bits(), want.score.to_bits());
            assert_eq!(got.rank, want.rank);
        }
        // Empty results parse; garbage is a typed error, never a panic.
        assert_eq!(parse_top_columns("{\"results\":[]}"), Ok((vec![], vec![])));
        for bad in [
            "{\"nope\":1}",
            "{\"results\":[{\"pipe\":}",
            "[]",
            "{\"results\":[{\"pipe\":1,\"score\":0.5}]}",
            "{\"results\":[{\"pipe\":1.5,\"score\":0.5,\"rank\":0}]}",
            "{\"results\":[{\"pipe\":-1,\"score\":0.5,\"rank\":0}]}",
            "{\"results\":[{\"pipe\":4294967296,\"score\":0.5,\"rank\":0}]}",
            "{\"results\":[{\"pipe\":1,\"score\":\"x\",\"rank\":0}]}",
            "{\"results\":[{\"pipe\":1,\"score\":0.5,\"rank\":1}]}",
            "{\"results\":[7]}",
        ] {
            assert!(parse_top_columns(bad).is_err(), "accepted {bad}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The backend-body reader never panics: not on arbitrary bytes,
        /// and not on a real `/top` body cut short and with one byte
        /// overwritten.
        #[test]
        fn parse_top_columns_never_panics(
            noise in proptest::collection::vec(0u16..256, 0..257),
            cut in 0usize..400,
            at in 0usize..400,
            byte in 0u16..256,
        ) {
            let raw: Vec<u8> = noise.iter().map(|b| *b as u8).collect();
            let _ = parse_top_columns(&String::from_utf8_lossy(&raw));
            let body = concat!(
                r#"{"model":"DPMHBP","region":"Region A","k":3,"results":["#,
                r#"{"pipe":7,"score":0.9,"rank":0},{"pipe":2,"score":0.5,"rank":1},"#,
                r#"{"pipe":11,"score":0.25,"rank":2}]}"#
            );
            let mut mutated = body.as_bytes()[..cut.min(body.len())].to_vec();
            if let Some(b) = mutated.get_mut(at) {
                *b = byte as u8;
            }
            let _ = parse_top_columns(&String::from_utf8_lossy(&mutated));
        }
    }

    #[test]
    fn jitter_stays_in_range() {
        for ms in [1u64, 2, 10, 50, 2000] {
            for _ in 0..100 {
                let j = jitter(ms);
                assert!(j >= ms / 2 && j <= ms, "jitter({ms}) = {j}");
            }
        }
        assert_eq!(jitter(0), 0);
    }

    #[test]
    fn latency_ring_needs_samples_before_hedging() {
        let mut ring = LatencyRing::default();
        assert_eq!(ring.p99_us(), None);
        for i in 0..HEDGE_MIN_SAMPLES as u64 {
            ring.record(100 + i);
        }
        // With 16 samples, p99 index = 15 → the max.
        assert_eq!(ring.p99_us(), Some(100 + HEDGE_MIN_SAMPLES as u64 - 1));
        // The ring wraps: old samples are overwritten.
        for _ in 0..LATENCY_RING * 2 {
            ring.record(7);
        }
        assert_eq!(ring.p99_us(), Some(7));
    }

    #[test]
    fn error_status_mapping_is_typed() {
        let b = "region_a".to_string();
        assert_eq!(
            FederationError::BackendDown { backend: b.clone(), detail: String::new() }.status(),
            503
        );
        assert_eq!(FederationError::Timeout { backend: b.clone() }.status(), 504);
        assert_eq!(
            FederationError::Connect { backend: b.clone(), detail: String::new() }.status(),
            502
        );
        assert_eq!(FederationError::TruncatedBody { backend: b.clone() }.status(), 502);
        assert_eq!(
            FederationError::BadResponse { backend: b, detail: String::new() }.status(),
            502
        );
        assert_eq!(
            FederationError::UnknownRegion { region: "x".into() }.status(),
            404
        );
    }

    #[test]
    fn health_transitions_suspect_then_down_then_probe_heals() {
        let backend = Remote::new(
            "region_a".into(),
            "127.0.0.1:1".parse().unwrap(),
            Arc::new(FedConfig::default()),
        );
        assert_eq!(backend.state(), BackendState::Healthy);
        let err = FederationError::Timeout { backend: "region_a".into() };
        backend.mark_failure(&err, 3);
        assert_eq!(backend.state(), BackendState::Suspect);
        backend.mark_failure(&err, 3);
        assert_eq!(backend.state(), BackendState::Suspect);
        backend.mark_failure(&err, 3);
        assert_eq!(backend.state(), BackendState::Down);
        assert!(backend.last_error().contains("timed out"), "{}", backend.last_error());
        // Any successful exchange (a probe answering) heals fully.
        backend.mark_success();
        assert_eq!(backend.state(), BackendState::Healthy);
    }

    #[test]
    fn federation_new_validates_the_fleet() {
        // Empty fleet.
        assert!(Federation::new(vec![], FedConfig::default()).is_err());
        // Duplicate keys after sanitizing ("Region A" and "region_a" collide).
        let dup = Federation::new(
            vec![
                ("Region A".into(), "127.0.0.1:9001".into()),
                ("region_a".into(), "127.0.0.1:9002".into()),
            ],
            FedConfig::default(),
        );
        assert!(dup.is_err());
        // Unresolvable address.
        assert!(Federation::new(
            vec![("a".into(), "not-an-address".into())],
            FedConfig::default()
        )
        .is_err());
        // Valid fleet sorts by key.
        let fed = Federation::new(
            vec![
                ("Region B".into(), "127.0.0.1:9002".into()),
                ("Region A".into(), "127.0.0.1:9001".into()),
            ],
            FedConfig::default(),
        )
        .expect("valid");
        assert_eq!(fed.keys(), vec!["region_a".to_string(), "region_b".to_string()]);
        assert_eq!(fed.state_of("region_a"), Some(BackendState::Healthy));
        assert_eq!(fed.state_of("region_z"), None);
    }

    #[test]
    fn fed_config_reads_env_knobs() {
        // Serialized via a throwaway thread to avoid polluting the
        // process environment for sibling tests.
        std::thread::spawn(|| {
            std::env::set_var(FED_TIMEOUT_ENV, "0.75");
            std::env::set_var(FED_RETRIES_ENV, "5");
            std::env::set_var(FED_BACKOFF_ENV, "10");
            std::env::set_var(FED_HEDGE_ENV, "0");
            std::env::set_var(FED_PROBE_ENV, "0.2");
            std::env::set_var(FED_FAIL_THRESHOLD_ENV, "0");
            let cfg = FedConfig::from_env();
            assert_eq!(cfg.request_timeout_secs, 0.75);
            assert_eq!(cfg.retries, 5);
            assert_eq!(cfg.backoff_base_ms, 10);
            assert_eq!(cfg.hedge_ms, Some(0));
            assert_eq!(cfg.probe_secs, 0.2);
            // Threshold 0 would mean "down before the first request";
            // clamped to 1.
            assert_eq!(cfg.fail_threshold, 1);
        })
        .join()
        .expect("env test thread");
    }
}
