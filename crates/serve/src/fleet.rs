//! The fleet engine: one scatter-gather core for every serving topology.
//!
//! The paper ranks pipes per region, so every topology this crate serves
//! is the same thing: a fleet of regional rankings, routed by region key,
//! merged into a global top-K, and rolled up by `/aggregate`. A [`Fleet`]
//! holds one member per region, sorted by routing key. A member is either
//! an in-process [`Shard`](crate::shards::Shard) (a
//! [`ShardSet`](crate::shards::ShardSet) is a fleet of shards) or a remote
//! backend host ([`crate::federation`]); both sit behind one crate-internal
//! `Backend` seam, and everything the topologies share runs here once:
//!
//! * assembling the fleet (sorted keys; a duplicate key is rejected and
//!   named);
//! * resolving `?region=` by exact canonical key — an unknown key gets one
//!   fleet-wide 404 listing every region;
//! * the global top-K scatter, [`merge_top_k`], and render;
//! * the `/aggregate` partial scatter and fold-left merge;
//! * the degrade policy (below);
//! * the state generation the result cache keys on.
//!
//! A local member's legs run inline on the request's worker thread (the
//! `/aggregate` scans fan out on the context `TaskPool`); a remote
//! member's legs are network round trips, one scoped thread per backend.
//!
//! ## The degrade policy
//!
//! A member that cannot answer — a shard degraded by a corrupt publish, a
//! backend that is `Down` or failing — is *dark*. The policy is the same
//! on every topology:
//!
//! * a region-routed request to a dark member is a typed `503`;
//! * a fleet-scope answer (region-less `/top`, `/aggregate`) is computed
//!   over the serving members exactly as if the fleet held only those: a
//!   `200` whose body is byte-identical to that smaller fleet's, plus an
//!   `X-Pipefail-Partial` header naming the dark keys. The result cache
//!   never stores it;
//! * with every member dark, a fleet-scope answer is a typed `503`.
//!
//! The router adds `Retry-After` to every `503`. `/batch` stays
//! all-or-nothing: one header cannot flag a partial line. Missing
//! snapshot attributes are not a degrade: an attribute-needing
//! `/aggregate` over members without them is a typed `400` naming those
//! regions, on every topology.

use crate::aggregate::{self, AggregateError, AggregatePartial, AggregateSpec};
use crate::http::{json_str, query_param, render_global_top_k, Response};
use crate::metrics::Metrics;
use crate::parser::ParsedRequest;
use crate::scorer::{RiskSlice, Scorer};
use crate::shards::merge_top_k;
use crate::ServeError;
use pipefail_par::TaskPool;
use std::sync::Arc;

/// What a `/top` or `/pipe` request asks of the member that answers it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ask {
    /// `/top?k=K`.
    Top(usize),
    /// `/pipe?id=N`.
    Pipe(u32),
}

/// One member's contribution to a global top-K merge.
pub(crate) enum TopTable {
    /// An in-process scorer; its ranking is sliced in place.
    Local(Arc<Scorer>),
    /// A remote backend's `/top` answer as id and score columns.
    Wire(Vec<u32>, Vec<f64>),
}

impl TopTable {
    fn slice(&self, k: usize) -> RiskSlice<'_> {
        match self {
            TopTable::Local(scorer) => scorer.top_k(k),
            TopTable::Wire(ids, scores) => RiskSlice::from_columns(ids, scores),
        }
    }
}

/// Why a member contributed no `/aggregate` partial.
pub(crate) enum Miss {
    /// The member is dark: the answer goes partial.
    Dark,
    /// The member's snapshot has no attribute section: the spec is a
    /// client error.
    NoAttributes,
}

/// The seam between the fleet engine and one member: an in-process shard
/// or a remote backend host.
pub(crate) trait Backend: Send + Sync + 'static {
    /// Whether this member's legs are network round trips (scattered one
    /// thread per member) rather than in-memory reads.
    const REMOTE: bool;

    /// Monotonic generation of everything this member can answer; the
    /// fleet's generation is the sum.
    fn generation(&self) -> u64;

    /// The exact epoch of this member's region answers, if there is one
    /// here. Only then does the front cache them; a remote backend has
    /// none, so its relays pass through to the backend's own cache.
    fn exact_epoch(&self) -> Option<u64>;

    /// Answer one region-routed `/top` or `/pipe`. `Err` is the typed
    /// refusal of a dark member.
    fn region(self: &Arc<Self>, ask: Ask, req: &ParsedRequest, metrics: &Metrics)
        -> Result<Response, Response>;

    /// This member's top-K table, or `None` when it is dark.
    fn top(self: &Arc<Self>, k: usize, metrics: &Metrics) -> Option<TopTable>;

    /// This member's merge-ready partial for `spec`; `body` is the raw
    /// spec text a remote member forwards.
    fn partial(
        self: &Arc<Self>,
        spec: &AggregateSpec,
        body: &str,
        metrics: &Metrics,
    ) -> Result<AggregatePartial, Miss>;
}

/// A fleet of regional rankings sorted by routing key: in-process shards
/// or remote backends, one per region.
///
/// Lookup is a binary search, iteration order is deterministic, and the
/// scatter-gather tie-break follows this order.
#[derive(Debug)]
pub struct Fleet<B> {
    keys: Vec<String>,
    members: Vec<Arc<B>>,
}

// `Backend` bounds sit on the engine methods, not on the impl: the trait
// is crate-private and `Fleet` is public.
impl<B> Fleet<B> {
    /// Sort `(key, member)` pairs into a fleet. An empty list, or two
    /// members under one key, is [`ServeError::BadConfig`] naming the key.
    pub(crate) fn assemble(mut members: Vec<(String, B)>) -> Result<Self, ServeError> {
        if members.is_empty() {
            return Err(ServeError::BadConfig("a fleet needs at least one region".into()));
        }
        members.sort_by(|a, b| a.0.cmp(&b.0));
        if let Some(w) = members.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(ServeError::BadConfig(format!(
                "two regions map to the same region key {:?}",
                w[0].0
            )));
        }
        let (keys, members) = members.into_iter().map(|(k, m)| (k, Arc::new(m))).unzip();
        Ok(Self { keys, members })
    }

    /// Number of members (always ≥ 1).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Never true — assembly rejects empty fleets — but provided for the
    /// usual container idiom.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// True when region-less `/pipe` and `/top` can route unambiguously
    /// (exactly one member).
    pub fn is_single(&self) -> bool {
        self.members.len() == 1
    }

    /// Routing keys in fleet order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.keys.iter().map(String::as_str)
    }

    /// Index of the member serving exactly `key`, or `None` for an unknown
    /// region. Keys are matched as given: `REGION_A` is not `region_a`.
    pub fn index_of(&self, key: &str) -> Option<usize> {
        self.keys.binary_search_by(|k| k.as_str().cmp(key)).ok()
    }

    /// The member serving `key`, if any.
    pub fn get(&self, key: &str) -> Option<&B> {
        self.index_of(key).map(|i| &*self.members[i])
    }

    /// The members, in fleet order.
    pub(crate) fn members(&self) -> &[Arc<B>] {
        &self.members
    }

    /// The typed 404 for a region key naming no member: the error plus
    /// every known region, so a caller can self-correct without a second
    /// round trip.
    pub(crate) fn unknown_region(&self, key: &str) -> Response {
        Response::json(
            404,
            format!(
                "{{\"error\":{},\"regions\":[{}]}}",
                json_str(&format!("unknown region {key:?}")),
                self.json_keys(0..self.len())
            ),
        )
    }

    /// The keys at `indices`, JSON-escaped and comma-joined.
    fn json_keys(&self, indices: impl IntoIterator<Item = usize>) -> String {
        let keys: Vec<String> = indices.into_iter().map(|i| json_str(&self.keys[i])).collect();
        keys.join(",")
    }

    /// The members at `indices` as a fleet of their own.
    fn subset(&self, indices: &[usize]) -> Self {
        Self {
            keys: indices.iter().map(|&i| self.keys[i].clone()).collect(),
            members: indices.iter().map(|&i| Arc::clone(&self.members[i])).collect(),
        }
    }

    /// The fleet's state generation: the sum of every member's. Each is
    /// monotonic, so any swap, degrade, heal, health transition, or backend
    /// reload anywhere moves it and retires every fleet-scope cache entry
    /// keyed under the previous value.
    pub(crate) fn epoch(&self) -> u64
    where
        B: Backend,
    {
        self.members.iter().map(|m| m.generation()).sum()
    }

    /// Run `leg` on every member, results in fleet order. Local legs
    /// marked `heavy` fan out on `pool`; light local legs run inline on the
    /// calling thread. Remote legs wait on the network, not a core, so each
    /// gets a thread of its own: on the core-capped `pool` one backend's
    /// round trip would queue behind another's.
    fn scatter<T: Send>(
        &self,
        pool: &TaskPool,
        heavy: bool,
        leg: impl Fn(&Arc<B>) -> T + Sync,
    ) -> Vec<T>
    where
        B: Backend,
    {
        if B::REMOTE && self.len() > 1 {
            let leg = &leg;
            std::thread::scope(|scope| {
                let legs: Vec<_> =
                    self.members.iter().map(|m| scope.spawn(move || leg(m))).collect();
                legs.into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            })
        } else if heavy {
            pool.run(self.len(), |i| leg(&self.members[i]))
        } else {
            self.members.iter().map(leg).collect()
        }
    }

    /// Route one `/top` or `/pipe`: a region-tagged request (or any request
    /// to a one-member fleet) goes to that member; a region-less `/top` is
    /// the global merge; a region-less `/pipe` is a typed 400, since pipe
    /// ids are only unique within a region.
    pub(crate) fn route(
        &self,
        ask: Ask,
        req: &ParsedRequest,
        pool: &TaskPool,
        metrics: &Metrics,
    ) -> Response
    where
        B: Backend,
    {
        let idx = match query_param(&req.query, "region") {
            Some(key) => match self.index_of(key) {
                Some(idx) => idx,
                None => return self.unknown_region(key),
            },
            None if self.is_single() => 0,
            None => {
                return match ask {
                    Ask::Top(k) => self.global_top(k, pool, metrics),
                    Ask::Pipe(_) => Response::json(
                        400,
                        format!(
                            "{{\"error\":\"pipe ids are per-region; pass ?region=<key>\",\"regions\":[{}]}}",
                            self.json_keys(0..self.len())
                        ),
                    ),
                }
            }
        };
        match self.members[idx].region(ask, req, metrics) {
            Ok(response) => {
                metrics.shard_request(idx);
                response
            }
            Err(refusal) => {
                metrics.shard_unavailable(idx);
                refusal
            }
        }
    }

    /// Region-less `/top`: every serving member contributes its top-K
    /// table, [`merge_top_k`] merges them, and the degrade policy frames
    /// the answer.
    fn global_top(&self, k: usize, pool: &TaskPool, metrics: &Metrics) -> Response
    where
        B: Backend,
    {
        let legs = self.scatter(pool, false, |m| m.top(k, metrics));
        let (tables, serving, dark) = self.tally(legs, metrics);
        self.answer("global top-k", &dark, || {
            metrics.global_topk();
            let slices: Vec<RiskSlice<'_>> = tables.iter().map(|t| t.slice(k)).collect();
            let merged = merge_top_k(&slices, k);
            if dark.is_empty() {
                render_global_top_k(self, &merged, k)
            } else {
                render_global_top_k(&self.subset(&serving), &merged, k)
            }
        })
    }

    /// `POST /aggregate`: parse the spec, compute one partial per member,
    /// and merge the serving members' partials fold-left in key order —
    /// the canonical computation, so every topology answers
    /// byte-identically (`docs/AGGREGATE.md`). `?partial=1` answers the
    /// merge-ready partial state instead: the leg a federation front end
    /// scatters.
    pub(crate) fn aggregate(
        &self,
        req: &ParsedRequest,
        pool: &TaskPool,
        metrics: &Metrics,
    ) -> Response
    where
        B: Backend,
    {
        let spec = match AggregateSpec::parse(&req.body) {
            Ok(spec) => spec,
            Err(e) => {
                return Response::json(400, format!("{{\"error\":{}}}", json_str(&e.to_string())));
            }
        };
        let legs = self.scatter(pool, true, |m| m.partial(&spec, &req.body, metrics));
        let bare: Vec<usize> = (0..legs.len())
            .filter(|&i| matches!(legs[i], Err(Miss::NoAttributes)))
            .collect();
        if !bare.is_empty() {
            return Response::json(
                400,
                format!(
                    "{{\"error\":{},\"shards\":[{}]}}",
                    json_str(&AggregateError::NoAttributes.to_string()),
                    self.json_keys(bare)
                ),
            );
        }
        let (partials, _, dark) = self.tally(legs.into_iter().map(Result::ok).collect(), metrics);
        self.answer("aggregate", &dark, || {
            if crate::query::wants_partial(&req.query) {
                aggregate::render_partial(&aggregate::merge_to_partial(&spec, &partials))
            } else {
                let (groups, budget) = aggregate::merge_partials(&spec, &partials);
                aggregate::render_aggregate(&spec, groups, budget)
            }
        })
    }

    /// Split scatter legs into the serving members' results (with their
    /// indices) and the dark members' indices, counting each in the
    /// per-shard metrics.
    fn tally<T>(
        &self,
        legs: Vec<Option<T>>,
        metrics: &Metrics,
    ) -> (Vec<T>, Vec<usize>, Vec<usize>) {
        let mut results = Vec::with_capacity(legs.len());
        let (mut serving, mut dark) = (Vec::new(), Vec::new());
        for (idx, leg) in legs.into_iter().enumerate() {
            match leg {
                Some(result) => {
                    metrics.shard_request(idx);
                    results.push(result);
                    serving.push(idx);
                }
                None => {
                    metrics.shard_unavailable(idx);
                    dark.push(idx);
                }
            }
        }
        (results, serving, dark)
    }

    /// The degrade policy for a fleet-scope answer: a typed 503 when every
    /// member is dark, else the body `render` computes over the serving
    /// members, flagged `X-Pipefail-Partial` when any member is dark.
    fn answer(&self, what: &str, dark: &[usize], render: impl FnOnce() -> String) -> Response {
        if dark.len() == self.len() {
            return Response::json(
                503,
                format!(
                    "{{\"error\":\"{what} unavailable: all backends degraded\",\"shards\":[{}]}}",
                    self.json_keys(dark.iter().copied())
                ),
            );
        }
        let response = Response::json(200, render());
        if dark.is_empty() {
            return response;
        }
        let keys: Vec<&str> = dark.iter().map(|&i| self.keys[i].as_str()).collect();
        response.with_header("X-Pipefail-Partial", keys.join(","))
    }
}
