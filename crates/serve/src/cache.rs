//! Epoch-keyed result cache with single-flight miss coalescing.
//!
//! Snapshots only change at discrete hot-reload epochs, so between swaps
//! every `/top`, `/pipe`, and `/aggregate` answer is a pure function of
//! `(epoch, normalized query)`. [`CachingHandler`] fronts the route table
//! of any topology behind the shared [`RequestHandler`] seam, so the
//! connection core gets caching, `ETag`/`304` revalidation, and `HEAD`
//! synthesis without knowing it exists.
//!
//! **Correctness comes from epochs, not TTLs.** Every cache key embeds a
//! state generation read from the fleet:
//!
//! * region-scoped queries key on that member's exact epoch — an
//!   in-process shard's [`crate::shards::Shard::epoch`], bumped by every
//!   swap *and* every degrade, so a hot-reload or a corrupt-swap degrade
//!   retires exactly that shard's entries. A remote backend has no exact
//!   epoch at the front, so its region relays pass through and the
//!   backend's own cache serves them;
//! * fleet-scoped artefacts (the global top-K merge, `/aggregate`) key on
//!   the fleet generation, the sum of every member's — any shard's swap or
//!   degrade, any backend health transition, and any observed backend
//!   snapshot epoch (carried in the `X-Pipefail-Epoch` response header and
//!   read by the health prober, bounding staleness by the probe interval)
//!   retires them.
//!
//! A key under a retired epoch can never be built again, so its entry is
//! dead weight. Each LRU slot records the `(scope, epoch)` its key embeds,
//! and the first request to observe a new fleet generation purges every
//! entry whose epoch is no longer live for its scope (counted in
//! `pipefail_cache_retired_total`, apart from byte-pressure
//! `pipefail_cache_evictions_total`) instead of leaving it resident until
//! LRU pressure reaches it.
//!
//! Only **full 200s** are stored. Degraded-shard 503s, partial fleet
//! answers (`X-Pipefail-Partial`), typed 4xx — anything whose body depends
//! on transient health — is never cached ("per-epoch-per-health-state or
//! not at all": we choose not at all, and the epoch bump on degrade/heal
//! keeps even the 200s exact). A store additionally revalidates that the
//! epoch it computed under is still current, so a body that raced a swap
//! can never be published under the new generation.
//!
//! A per-key **single-flight** gate coalesces concurrent identical
//! misses: one leader computes, N waiters block on a condvar and reuse
//! the rendered body (counted in
//! `pipefail_cache_coalesced_waits_total`). Waiters fall back to
//! computing themselves if the leader's answer was uncacheable or the
//! wait times out, so the gate can serve stale nothing and deadlock
//! nothing.
//!
//! Hits rebuild a [`Response`] around the shared `Arc<str>` body — no
//! body copy, no header vector — and the workers render it into a
//! pooled frame buffer, so a cache hit allocates nothing on the
//! request path once the pools are warm.

use crate::fleet::{Backend, Fleet};
use crate::http::{route_request, RequestHandler, Response, Topology};
use crate::metrics::{Metrics, Route};
use crate::parser::ParsedRequest;
use crate::query;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Lock shards: keyed requests spread over independent LRU + pending
/// maps, so a burst of distinct queries doesn't serialize on one mutex.
const LOCK_SHARDS: usize = 8;

/// Slot-list terminator for the intrusive LRU links.
const NIL: u32 = u32::MAX;

/// Fixed per-entry overhead charged against the byte budget on top of the
/// key and body lengths (slot links, map entry, `Arc` headers).
const ENTRY_OVERHEAD: usize = 96;

/// FNV-1a 64-bit — the workspace's standard tiny hash (snapshot checksums
/// use the same family). Used for key → lock-shard selection, the `ETag`
/// token, and the `/aggregate` body fingerprint.
fn fnv64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Standard FNV-1a offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// Second, independent lane for the 128-bit aggregate-body fingerprint.
const FNV_BASIS_B: u64 = 0x6c62_272e_07bb_0142;

/// Which state generation covers a cacheable request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// One fleet member with an exact epoch (an in-process shard), by
    /// index (`u32` keeps [`Slot`] small).
    Shard(u32),
    /// The whole fleet: epoch = the fleet generation.
    Fleet,
}

/// A classified cacheable request: its route, covering scope, the epoch
/// read *before* dispatch, and the full canonical key.
struct Spec {
    route: Route,
    scope: Scope,
    epoch: u64,
    key: Arc<str>,
    /// GET routes get an epoch-derived `ETag`; `/aggregate` (POST) does
    /// not.
    etag: Option<Arc<str>>,
}

impl Spec {
    /// Replay the metric side effects the uncached request would have had
    /// (on every hit, coalesced wait, and `304`), so `/metrics` reads
    /// identically whether or not the cache answered. Only full answers
    /// are cached, so a fleet-scope one counts every member.
    fn replay(&self, metrics: &Metrics, members: usize) {
        match self.scope {
            Scope::Shard(i) => metrics.shard_request(i as usize),
            Scope::Fleet => {
                for i in 0..members {
                    metrics.shard_request(i);
                }
                if self.route == Route::Top {
                    metrics.global_topk();
                }
            }
        }
    }
}

/// One stored rendered response. Only full 200s are ever constructed.
struct Entry {
    content_type: &'static str,
    body: Arc<str>,
    etag: Option<Arc<str>>,
}

impl Entry {
    fn cost(&self, key: &str) -> usize {
        key.len()
            + self.body.len()
            + self.etag.as_ref().map_or(0, |e| e.len())
            + ENTRY_OVERHEAD
    }
}

/// Result of a single-flight admission attempt.
enum Admission {
    /// Entry was resident: serve it.
    Hit(Arc<Entry>),
    /// Nobody is computing this key: the caller is now the leader and
    /// must call [`ResultCache::finish`] exactly once.
    Lead(Arc<Flight>),
    /// Another request is already computing this key: wait on the flight.
    Join(Arc<Flight>),
}

/// The rendezvous for one in-flight key: leader publishes
/// `Some(entry)`/`None` (uncacheable answer), waiters block on the
/// condvar.
struct Flight {
    done: Mutex<Option<Option<Arc<Entry>>>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Self { done: Mutex::new(None), cv: Condvar::new() }
    }

    fn publish(&self, result: Option<Arc<Entry>>) {
        let mut done = self.done.lock().unwrap_or_else(|p| p.into_inner());
        *done = Some(result);
        self.cv.notify_all();
    }

    /// Wait for the leader, up to `timeout`. `None` = timed out (or the
    /// leader died — its drop guard publishes, so only a hard wedge ends
    /// here); `Some(None)` = leader's answer was uncacheable.
    fn wait(&self, timeout: Duration) -> Option<Option<Arc<Entry>>> {
        let mut done = self.done.lock().unwrap_or_else(|p| p.into_inner());
        let deadline = std::time::Instant::now() + timeout;
        while done.is_none() {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return None;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(done, left)
                .unwrap_or_else(|p| p.into_inner());
            done = guard;
        }
        done.clone()
    }
}

/// One slot of a lock shard's intrusive LRU list. Kept at 48 bytes —
/// a full cache holds hundreds of thousands — so the links are `u32` and
/// the byte cost is recomputed from the key and entry.
struct Slot {
    key: Arc<str>,
    entry: Arc<Entry>,
    /// The state generation the key embeds: once `scope`'s live epoch
    /// moves past `epoch` the key can never be built again, and the next
    /// purge frees the slot.
    epoch: u64,
    scope: Scope,
    prev: u32,
    next: u32,
}

#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Slot>() == 48);

impl Slot {
    fn cost(&self) -> usize {
        self.entry.cost(&self.key)
    }
}

/// One lock shard: a byte-budgeted LRU (hash map over an intrusive
/// doubly-linked slot list — O(1) touch, insert, evict) plus the pending
/// single-flight map for keys hashing here.
struct LruShard {
    map: HashMap<Arc<str>, u32>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    bytes: usize,
    pending: HashMap<Arc<str>, Arc<Flight>>,
}

impl LruShard {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
            pending: HashMap::new(),
        }
    }

    fn slot(&mut self, i: u32) -> &mut Slot {
        &mut self.slots[i as usize]
    }

    fn detach(&mut self, i: u32) {
        let (prev, next) = (self.slot(i).prev, self.slot(i).next);
        match prev {
            NIL => self.head = next,
            p => self.slot(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slot(n).prev = prev,
        }
    }

    fn push_front(&mut self, i: u32) {
        let head = self.head;
        self.slot(i).prev = NIL;
        self.slot(i).next = head;
        if head != NIL {
            self.slot(head).prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get_touch(&mut self, key: &str) -> Option<Arc<Entry>> {
        let i = *self.map.get(key)?;
        self.detach(i);
        self.push_front(i);
        Some(Arc::clone(&self.slot(i).entry))
    }

    /// Unlink slot `i`, free it, and drop its body now rather than at
    /// slot reuse. Returns the bytes it held.
    fn remove(&mut self, i: u32) -> usize {
        self.detach(i);
        let cost = self.slot(i).cost();
        self.bytes -= cost;
        self.map.remove(&self.slots[i as usize].key);
        self.free.push(i);
        self.slot(i).entry = Arc::new(Entry { content_type: "", body: Arc::from(""), etag: None });
        cost
    }

    /// Insert (or replace) `key`, stored under `scope` at `epoch`, then
    /// evict from the tail until the shard fits its budget. Returns
    /// `(bytes_delta, evictions)`.
    fn insert(
        &mut self,
        key: Arc<str>,
        entry: Arc<Entry>,
        (scope, epoch): (Scope, u64),
        budget: usize,
    ) -> (i64, u64) {
        let cost = entry.cost(&key);
        let mut delta = cost as i64;
        self.bytes += cost;
        if let Some(&i) = self.map.get(&key) {
            let old = self.slot(i).cost();
            delta -= old as i64;
            self.bytes -= old;
            self.slot(i).entry = entry;
            self.detach(i);
            self.push_front(i);
        } else {
            let slot = Slot { key: Arc::clone(&key), entry, epoch, scope, prev: NIL, next: NIL };
            let i = match self.free.pop() {
                Some(i) => {
                    *self.slot(i) = slot;
                    i
                }
                None => {
                    self.slots.push(slot);
                    (self.slots.len() - 1) as u32
                }
            };
            self.map.insert(key, i);
            self.push_front(i);
        }
        let mut evictions = 0u64;
        while self.bytes > budget && self.tail != NIL && self.map.len() > 1 {
            delta -= self.remove(self.tail) as i64;
            evictions += 1;
        }
        (delta, evictions)
    }

    /// Free every entry whose epoch is no longer `live` for its scope.
    /// Returns `(bytes_freed, entries_purged)`.
    fn purge(&mut self, live: &impl Fn(Scope) -> u64) -> (usize, u64) {
        let (mut freed, mut purged) = (0usize, 0u64);
        let mut i = self.head;
        while i != NIL {
            let slot = self.slot(i);
            let (next, retired) = (slot.next, live(slot.scope) != slot.epoch);
            if retired {
                freed += self.remove(i);
                purged += 1;
            }
            i = next;
        }
        (freed, purged)
    }
}

/// The bounded, sharded-lock LRU over fully rendered response bodies.
pub(crate) struct ResultCache {
    shards: Vec<Mutex<LruShard>>,
    /// Per-lock-shard byte budget (`PIPEFAIL_CACHE_BYTES / LOCK_SHARDS`).
    shard_budget: usize,
    /// The fleet generation the last retired-epoch purge ran at.
    purged_at: AtomicU64,
}

impl ResultCache {
    pub(crate) fn new(total_bytes: usize) -> Self {
        Self {
            shards: (0..LOCK_SHARDS).map(|_| Mutex::new(LruShard::new())).collect(),
            shard_budget: (total_bytes / LOCK_SHARDS).max(1),
            purged_at: AtomicU64::new(0),
        }
    }

    /// Once per fleet-generation change, free every entry keyed under an
    /// epoch that is no longer `live` for its scope — such keys can never
    /// be built again, so without this they would hold bytes until LRU
    /// pressure reached them. O(resident entries), run by the first
    /// request that observes the new generation; every other request pays
    /// one atomic load.
    fn purge_retired(&self, fleet_epoch: u64, live: impl Fn(Scope) -> u64, metrics: &Metrics) {
        if self.purged_at.load(Ordering::Acquire) == fleet_epoch
            || self.purged_at.swap(fleet_epoch, Ordering::AcqRel) == fleet_epoch
        {
            return;
        }
        for shard in &self.shards {
            let (freed, purged) =
                shard.lock().unwrap_or_else(|p| p.into_inner()).purge(&live);
            metrics.cache_resident_delta(-(freed as i64));
            metrics.cache_retired(purged);
        }
    }

    fn shard(&self, key: &str) -> &Mutex<LruShard> {
        let h = fnv64(FNV_BASIS, key.as_bytes());
        &self.shards[(h as usize) % LOCK_SHARDS]
    }

    /// Look the key up; on miss either become the leader for it or join
    /// the flight already computing it.
    fn admit(&self, key: &Arc<str>) -> Admission {
        let mut shard = self.shard(key).lock().unwrap_or_else(|p| p.into_inner());
        if let Some(entry) = shard.get_touch(key) {
            return Admission::Hit(entry);
        }
        if let Some(flight) = shard.pending.get(key.as_ref()) {
            return Admission::Join(Arc::clone(flight));
        }
        let flight = Arc::new(Flight::new());
        shard.pending.insert(Arc::clone(key), Arc::clone(&flight));
        Admission::Lead(flight)
    }

    /// Leader's epilogue: store the entry (if any) under its `(scope,
    /// epoch)`, clear the pending marker, and wake every waiter. Exactly
    /// one call per [`Admission::Lead`]; the [`FlightGuard`] drop path
    /// covers unwinds. The store happens only if `live` still reports the
    /// key's epoch, read under the lock shard's mutex: a purge for a newer
    /// generation takes the same mutex after the epoch moved, so an entry
    /// either is refused here or is resident when that purge looks.
    fn finish(
        &self,
        key: &Arc<str>,
        flight: &Flight,
        entry: Option<(Arc<Entry>, Scope, u64)>,
        live: impl Fn(Scope) -> u64,
        metrics: &Metrics,
    ) {
        let (delta, evictions) = {
            let mut shard = self.shard(key).lock().unwrap_or_else(|p| p.into_inner());
            shard.pending.remove(key.as_ref());
            match &entry {
                Some((e, scope, epoch)) if live(*scope) == *epoch => shard.insert(
                    Arc::clone(key),
                    Arc::clone(e),
                    (*scope, *epoch),
                    self.shard_budget,
                ),
                _ => (0, 0),
            }
        };
        let entry = entry.map(|(e, _, _)| e);
        metrics.cache_resident_delta(delta);
        metrics.cache_evicted(evictions);
        flight.publish(entry);
    }

    #[cfg(test)]
    fn resident_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).bytes)
            .sum()
    }
}

/// Unwind guard for a single-flight leader: if the inner handler panics,
/// publish "uncacheable" and clear the pending marker so waiters fall
/// back to computing instead of timing out against a dead flight.
struct FlightGuard<'a> {
    cache: &'a ResultCache,
    key: &'a Arc<str>,
    flight: &'a Arc<Flight>,
    metrics: &'a Metrics,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.cache.finish(self.key, self.flight, None, |_| 0, self.metrics);
        }
    }
}

/// The [`RequestHandler`] every topology serves: [`route_request`] behind
/// the result cache, `ETag`/`304` revalidation, and `HEAD` synthesis.
/// With `PIPEFAIL_CACHE=off` the LRU and single-flight gate are skipped
/// but `ETag`, `304`, `HEAD`, and the `X-Pipefail-Epoch` header remain,
/// so observable behaviour never depends on the knob.
pub(crate) struct CachingHandler<T> {
    topo: Arc<T>,
    /// `Retry-After` seconds for the route table's `503`s.
    retry_after_secs: u64,
    cache: Option<ResultCache>,
    /// How long a coalesced waiter blocks before giving up and computing
    /// itself (the request timeout — past that the client is gone anyway).
    wait_timeout: Duration,
    /// Memoized `X-Pipefail-Epoch` value: one rendered token per epoch,
    /// so attaching the header allocates nothing on the steady state.
    epoch_token: Mutex<(u64, Arc<str>)>,
}

impl<T: Topology> CachingHandler<T> {
    pub(crate) fn new(
        topo: Arc<T>,
        retry_after_secs: u64,
        config: &crate::http::ServerConfig,
    ) -> Self {
        Self {
            topo,
            retry_after_secs,
            cache: config.cache.then(|| ResultCache::new(config.cache_bytes)),
            wait_timeout: Duration::from_secs_f64(config.request_timeout_secs.max(0.001)),
            epoch_token: Mutex::new((0, Arc::from("0"))),
        }
    }

    fn fleet(&self) -> &Fleet<T::Member> {
        self.topo.fleet()
    }

    /// Answer through the route table, uncached.
    fn route(&self, req: &ParsedRequest, metrics: &Metrics) -> (Route, Response) {
        route_request(req, &*self.topo, metrics, self.retry_after_secs)
    }

    /// The current epoch for a scope. Reads are cheap atomic loads; the
    /// fleet value is a sum so any member's change moves it.
    fn epoch_of(&self, scope: Scope) -> u64 {
        match scope {
            Scope::Shard(i) => {
                self.fleet().members()[i as usize].exact_epoch().unwrap_or_default()
            }
            Scope::Fleet => self.fleet().epoch(),
        }
    }

    /// The fleet-wide epoch advertised in `X-Pipefail-Epoch` — what a
    /// federation front end's prober reads to notice a backend reload.
    fn fleet_token(&self) -> Arc<str> {
        let epoch = self.fleet().epoch();
        let mut slot = self.epoch_token.lock().unwrap_or_else(|p| p.into_inner());
        if slot.0 != epoch {
            *slot = (epoch, Arc::from(epoch.to_string().as_str()));
        }
        Arc::clone(&slot.1)
    }

    /// The scope covering a `/top` or `/pipe`: the member a region-tagged
    /// request (or any request to a one-member fleet) routes to, else the
    /// fleet. `None` — pass through uncached — for an unknown region or a
    /// member without an exact epoch here.
    fn scope_of(&self, req: &ParsedRequest) -> Option<Scope> {
        let fleet = self.fleet();
        let idx = match query::param(&req.query, "region") {
            Some(key) => fleet.index_of(key)?,
            None if fleet.is_single() => 0,
            None => return Some(Scope::Fleet),
        };
        fleet.members()[idx].exact_epoch()?;
        Some(Scope::Shard(idx as u32))
    }

    /// Classify a request: `Some` iff its 200 body is a pure function of
    /// `(epoch, canonical key)`. Anything else — unknown regions, bad
    /// parameters, regionless `/pipe`, remote region relays — passes
    /// through untouched.
    fn classify(&self, req: &ParsedRequest) -> Option<Spec> {
        let spec = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/top") => {
                let k = query::top_k(&req.query).ok()?;
                let scope = self.scope_of(req)?;
                let tail = match scope {
                    Scope::Shard(i) => format!("top|s{i}|k{k}"),
                    Scope::Fleet => format!("gtop|k{k}"),
                };
                self.spec(Route::Top, scope, tail, true)
            }
            ("GET", "/pipe") => {
                let id = query::pipe_id(&req.query).ok()?;
                let Scope::Shard(i) = self.scope_of(req)? else {
                    return None;
                };
                self.spec(Route::Pipe, Scope::Shard(i), format!("pipe|s{i}|i{id}"), true)
            }
            ("POST", "/aggregate") => {
                let partial = u8::from(query::wants_partial(&req.query));
                let a = fnv64(FNV_BASIS, req.body.as_bytes());
                let b = fnv64(FNV_BASIS_B, req.body.as_bytes());
                self.spec(
                    Route::Aggregate,
                    Scope::Fleet,
                    format!("agg|p{partial}|{a:016x}{b:016x}"),
                    false,
                )
            }
            _ => return None,
        };
        Some(spec)
    }

    fn spec(&self, route: Route, scope: Scope, tail: String, etag: bool) -> Spec {
        let epoch = self.epoch_of(scope);
        let key: Arc<str> = Arc::from(format!("{epoch:x}|{tail}").as_str());
        let etag = etag.then(|| {
            Arc::from(format!("\"{:016x}\"", fnv64(FNV_BASIS, key.as_bytes())).as_str())
        });
        Spec { route, scope, epoch, key, etag }
    }

    /// Rebuild the full response from a stored entry: shared body, shared
    /// `ETag` — nothing allocated beyond two refcount bumps.
    fn entry_response(&self, entry: &Entry) -> Response {
        let mut response = Response::json(200, crate::http::Body::Shared(Arc::clone(&entry.body)));
        response.content_type = entry.content_type;
        response.etag = entry.etag.clone();
        response
    }

    /// Compute through the inner handler as the single-flight leader, and
    /// store the answer when it is a full 200 still covered by the epoch
    /// the key was built under.
    fn lead(
        &self,
        cache: &ResultCache,
        flight: &Arc<Flight>,
        spec: &Spec,
        req: &ParsedRequest,
        metrics: &Metrics,
    ) -> (Route, Response) {
        let mut guard =
            FlightGuard { cache, key: &spec.key, flight, metrics, armed: true };
        let (route, mut response) = self.route(req, metrics);
        let entry = self.storable(spec, &mut response);
        guard.armed = false;
        cache.finish(
            &spec.key,
            flight,
            entry.map(|e| (e, spec.scope, spec.epoch)),
            |scope| self.epoch_of(scope),
            metrics,
        );
        (route, response)
    }

    /// If this answer may be cached, share its body and build the entry:
    /// full 200s only (a partial federation merge carries
    /// `X-Pipefail-Partial` and is skipped), and only if the scope's epoch
    /// still equals the one the key embeds — an answer that raced a swap
    /// or degrade must not survive it.
    fn storable(&self, spec: &Spec, response: &mut Response) -> Option<Arc<Entry>> {
        if response.status != 200 {
            return None;
        }
        if response.headers.iter().any(|(name, _)| *name == "X-Pipefail-Partial") {
            return None;
        }
        response.etag = spec.etag.clone();
        if self.epoch_of(spec.scope) != spec.epoch {
            return None;
        }
        let body = response.share_body();
        Some(Arc::new(Entry {
            content_type: response.content_type,
            body,
            etag: spec.etag.clone(),
        }))
    }

    fn handle_cacheable(
        &self,
        spec: &Spec,
        req: &ParsedRequest,
        metrics: &Metrics,
    ) -> (Route, Response) {
        // `If-None-Match` against the epoch-derived ETag: the epoch moved
        // iff the body could have changed, so a match is answered `304`
        // without touching the cache or the scorer.
        if let (Some(etag), Some(inm)) = (&spec.etag, &req.if_none_match) {
            if inm.as_str() == etag.as_ref() {
                spec.replay(metrics, self.fleet().len());
                metrics.cache_hit();
                let mut response = Response::json(304, "");
                response.etag = Some(Arc::clone(etag));
                return (spec.route, response);
            }
        }
        let Some(cache) = &self.cache else {
            // Cache off: same classification, same ETags, no storage.
            let (route, mut response) = self.route(req, metrics);
            if response.status == 200
                && !response.headers.iter().any(|(n, _)| *n == "X-Pipefail-Partial")
            {
                response.etag = spec.etag.clone();
            }
            return (route, response);
        };
        match cache.admit(&spec.key) {
            Admission::Hit(entry) => {
                metrics.cache_hit();
                spec.replay(metrics, self.fleet().len());
                (spec.route, self.entry_response(&entry))
            }
            Admission::Lead(flight) => {
                metrics.cache_miss();
                self.lead(cache, &flight, spec, req, metrics)
            }
            Admission::Join(flight) => match flight.wait(self.wait_timeout) {
                Some(Some(entry)) => {
                    metrics.cache_coalesced();
                    spec.replay(metrics, self.fleet().len());
                    (spec.route, self.entry_response(&entry))
                }
                // Leader's answer was uncacheable (or it wedged): compute
                // our own — correctness never depends on the gate.
                _ => {
                    metrics.cache_miss();
                    self.route(req, metrics)
                }
            },
        }
    }
}

impl<T: Topology> RequestHandler for CachingHandler<T> {
    fn handle(&self, req: &ParsedRequest, metrics: &Metrics) -> (Route, Response) {
        // HEAD = GET minus the body bytes (`Content-Length` still reports
        // the body's length). Synthesized here so every GET route — and
        // the cache in front of it — answers HEAD instead of falling
        // through to 405/404.
        let converted;
        let (req, head_only) = if req.method == "HEAD" {
            converted = ParsedRequest { method: "GET".into(), ..req.clone() };
            (&converted, true)
        } else {
            (req, false)
        };
        if let Some(cache) = &self.cache {
            cache.purge_retired(self.fleet().epoch(), |scope| self.epoch_of(scope), metrics);
        }
        let (route, mut response) = match self.classify(req) {
            Some(spec) => self.handle_cacheable(&spec, req, metrics),
            None => self.route(req, metrics),
        };
        response.head_only = head_only;
        response.epoch_token = Some(self.fleet_token());
        (route, response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(body: &str) -> Arc<Entry> {
        Arc::new(Entry {
            content_type: "application/json",
            body: Arc::from(body),
            etag: None,
        })
    }

    fn key(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    /// The `(scope, epoch)` tests store under when the scope is beside
    /// the point.
    const TAG: (Scope, u64) = (Scope::Fleet, 1);

    #[test]
    fn lru_touches_and_evicts_from_the_tail() {
        let mut shard = LruShard::new();
        let budget = entry("x").cost("a") * 2 + 10;
        shard.insert(key("a"), entry("x"), TAG, budget);
        shard.insert(key("b"), entry("y"), TAG, budget);
        // Touch `a` so `b` is the LRU victim.
        assert!(shard.get_touch("a").is_some());
        let (_, evicted) = shard.insert(key("c"), entry("z"), TAG, budget);
        assert_eq!(evicted, 1);
        assert!(shard.get_touch("b").is_none(), "tail entry evicted");
        assert!(shard.get_touch("a").is_some());
        assert!(shard.get_touch("c").is_some());
    }

    #[test]
    fn replacing_a_key_updates_bytes_without_growing_the_map() {
        let mut shard = LruShard::new();
        shard.insert(key("a"), entry("short"), TAG, usize::MAX);
        let before = shard.bytes;
        shard.insert(key("a"), entry("a much longer body than before"), TAG, usize::MAX);
        assert_eq!(shard.map.len(), 1);
        assert!(shard.bytes > before);
    }

    #[test]
    fn over_budget_single_entry_is_kept() {
        // One huge entry: the `map.len() > 1` floor keeps it rather than
        // thrash-evicting the only resident body.
        let mut shard = LruShard::new();
        let (_, evicted) = shard.insert(key("big"), entry(&"x".repeat(4096)), TAG, 8);
        assert_eq!(evicted, 0);
        assert!(shard.get_touch("big").is_some());
    }

    #[test]
    fn cache_accounts_resident_bytes() {
        let cache = ResultCache::new(1 << 20);
        let metrics = Metrics::new();
        let k = key("e1|top|s0|k10");
        let Admission::Lead(flight) = cache.admit(&k) else {
            panic!("fresh key must lead")
        };
        cache.finish(&k, &flight, Some((entry("body"), TAG.0, TAG.1)), |_| TAG.1, &metrics);
        assert!(cache.resident_bytes() > 0);
        assert!(matches!(cache.admit(&k), Admission::Hit(_)));
    }

    #[test]
    fn epoch_change_purges_only_retired_entries() {
        let cache = ResultCache::new(1 << 20);
        let metrics = Metrics::new();
        // Two shards at epoch 1; the fleet generation is their sum.
        let shard_epochs = [AtomicU64::new(1), AtomicU64::new(1)];
        let live = |scope| match scope {
            Scope::Shard(i) => shard_epochs[i as usize].load(Ordering::SeqCst),
            Scope::Fleet => shard_epochs.iter().map(|e| e.load(Ordering::SeqCst)).sum(),
        };
        let stored = [
            ("2|gtop|k10", Scope::Fleet, "the fleet-wide body"),
            ("1|top|s0|k5", Scope::Shard(0), "shard zero"),
            ("1|top|s1|k5", Scope::Shard(1), "shard one's body"),
        ];
        for (k, scope, body) in stored {
            let k = key(k);
            let Admission::Lead(flight) = cache.admit(&k) else {
                panic!("fresh key must lead")
            };
            cache.finish(&k, &flight, Some((entry(body), scope, live(scope))), live, &metrics);
        }
        let cost = |(k, _, body): (&str, Scope, &str)| entry(body).cost(k) as u64;
        assert_eq!(metrics.cache_resident_bytes(), stored.into_iter().map(cost).sum::<u64>());

        // Nothing moved: the purge frees nothing, and runs once.
        cache.purge_retired(live(Scope::Fleet), live, &metrics);
        assert_eq!(metrics.cache_retired_total(), 0);

        // Shard 1 reloads: its entry and the fleet-scope entry retire,
        // shard 0's survives.
        shard_epochs[1].fetch_add(1, Ordering::SeqCst);
        cache.purge_retired(live(Scope::Fleet), live, &metrics);
        assert_eq!(metrics.cache_retired_total(), 2);
        assert_eq!(metrics.cache_evictions_total(), 0, "retirement is not byte pressure");
        assert_eq!(metrics.cache_resident_bytes(), cost(stored[1]));
        assert_eq!(cache.resident_bytes() as u64, cost(stored[1]));
        assert!(metrics.render().contains("pipefail_cache_retired_total 2\n"));

        // A second look at the same generation does not walk again.
        cache.purge_retired(live(Scope::Fleet), |_| u64::MAX, &metrics);
        assert_eq!(metrics.cache_retired_total(), 2);

        assert!(matches!(cache.admit(&key("1|top|s0|k5")), Admission::Hit(_)));
        for retired in ["2|gtop|k10", "1|top|s1|k5"] {
            assert!(matches!(cache.admit(&key(retired)), Admission::Lead(_)), "{retired}");
        }
    }

    #[test]
    fn a_store_that_raced_an_epoch_change_is_refused() {
        let cache = ResultCache::new(1 << 20);
        let metrics = Metrics::new();
        let k = key("1|top|s0|k5");
        let Admission::Lead(flight) = cache.admit(&k) else {
            panic!("fresh key must lead")
        };
        // Computed under epoch 1, but the shard is at 2 by store time.
        cache.finish(&k, &flight, Some((entry("old"), Scope::Shard(0), 1)), |_| 2, &metrics);
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(metrics.cache_resident_bytes(), 0);
        // Waiters still get the leader's body: they asked under epoch 1.
        assert!(matches!(flight.wait(Duration::from_secs(1)), Some(Some(_))));
    }

    #[test]
    fn single_flight_coalesces_concurrent_identical_misses() {
        let cache = Arc::new(ResultCache::new(1 << 20));
        let metrics = Arc::new(Metrics::new());
        let k = key("e1|gtop|k10");
        let Admission::Lead(flight) = cache.admit(&k) else {
            panic!("fresh key must lead")
        };
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let k = Arc::clone(&k);
                std::thread::spawn(move || match cache.admit(&k) {
                    Admission::Join(f) => f
                        .wait(Duration::from_secs(5))
                        .expect("published")
                        .expect("cacheable")
                        .body
                        .to_string(),
                    Admission::Hit(e) => e.body.to_string(),
                    Admission::Lead(_) => panic!("only one leader per key"),
                })
            })
            .collect();
        // Let the waiters pile onto the flight, then publish once.
        std::thread::sleep(Duration::from_millis(20));
        cache.finish(&k, &flight, Some((entry("the body"), TAG.0, TAG.1)), |_| TAG.1, &metrics);
        for w in waiters {
            assert_eq!(w.join().unwrap(), "the body");
        }
    }

    #[test]
    fn uncacheable_leader_answers_release_waiters_with_none() {
        let cache = ResultCache::new(1 << 20);
        let metrics = Metrics::new();
        let k = key("e1|top|s0|k3");
        let Admission::Lead(flight) = cache.admit(&k) else {
            panic!()
        };
        let joined = match cache.admit(&k) {
            Admission::Join(f) => f,
            _ => panic!("second admit must join"),
        };
        cache.finish(&k, &flight, None, |_| TAG.1, &metrics);
        assert!(matches!(joined.wait(Duration::from_secs(1)), Some(None)));
        // Nothing stored; the next admit leads again.
        assert!(matches!(cache.admit(&k), Admission::Lead(_)));
    }

    #[test]
    fn fnv_lanes_differ() {
        let a = fnv64(FNV_BASIS, b"{\"group_by\":[\"material\"]}");
        let b = fnv64(FNV_BASIS_B, b"{\"group_by\":[\"material\"]}");
        assert_ne!(a, b);
    }
}
