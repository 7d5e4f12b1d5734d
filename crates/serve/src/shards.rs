//! Shard-by-region serving: many per-region scorers behind one endpoint.
//!
//! The paper's method ranks pipes *per region/network* (metro water vs.
//! wastewater vs. regional bins), so a utility covering a whole metropolis
//! fits one model per region and wants all of them served from one
//! process. A [`ShardSet`] is a [`Fleet`] of [`Shard`]s, one per region:
//! each shard is the familiar `RwLock<Arc<Scorer>>` hot-swap cell plus its
//! own snapshot path, so shards load, serve, reload, and fail
//! independently. Routing, the global merge, `/aggregate`, and the degrade
//! policy are the fleet engine's ([`crate::fleet`]), shared with remote
//! federation: sharding is local federation.
//!
//! * **Loading** (`load_dir` / `load_paths`) strict-validates every
//!   snapshot **in parallel** on the caller's [`TaskPool`]; any corrupt
//!   file fails the whole startup with a typed error (a serving process
//!   never starts on bad data), reported deterministically (first failing
//!   path in input order, at any thread count).
//! * **Region-tagged queries** (`/top?region=R`, `/pipe?region=R&id=N`,
//!   `region=R`-prefixed `/batch` lines) route to one shard with zero
//!   cross-shard work — exactly the one-shard fast path.
//! * **Region-less `/top`** becomes a scatter-gather **global top-K**: each
//!   shard contributes its own (already sorted) top-K slice and
//!   [`merge_top_k`] k-way-merges them, so the global ranking costs
//!   O(shards · k) — the union of all shards is never materialised or
//!   re-sorted.
//! * **Hot-reload is per-shard**: one region's refresh never blocks or
//!   invalidates the others. A corrupt replacement marks *only that shard*
//!   dark until a valid snapshot lands: its region answers a typed 503,
//!   global answers go partial, and every other region keeps serving. A
//!   one-file server is a one-shard set and degrades the same way: a
//!   region silently pinned to last week's model is the invisible failure
//!   mode, whatever the fleet size. The shard heals the moment a valid
//!   snapshot replaces the corrupt one.

use crate::aggregate::{self, AggregatePartial, AggregateSpec};
use crate::fleet::{Ask, Backend, Fleet, Miss, TopTable};
use crate::http::{json_str, render_pipe_risk, render_top_k, Response};
use crate::metrics::Metrics;
use crate::parser::ParsedRequest;
use crate::scorer::{PipeRisk, RiskSlice, Scorer};
use crate::ServeError;
use pipefail_core::snapshot::SnapshotError;
use pipefail_network::ids::PipeId;
use pipefail_par::TaskPool;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The canonical routing key for a region name: lowercase with spaces
/// replaced by underscores — the same convention `pipefail generate` uses
/// for dataset directory names, so `"Region A"` is addressed as
/// `?region=region_a`. Keys are plain query-string/label-safe tokens; no
/// percent-decoding is needed anywhere.
pub fn region_key(region: &str) -> String {
    region.to_lowercase().replace(' ', "_")
}

/// A shard's swap cell: the active scorer plus an optional fault. The
/// scorer is always the *last good* model (so recovery and diagnostics
/// never lose it); `fault` is `Some` after a corrupt replacement, and
/// makes the shard answer 503.
#[derive(Debug)]
struct ShardState {
    scorer: Arc<Scorer>,
    fault: Option<String>,
}

/// One region's independently loaded, served, and reloaded scorer.
#[derive(Debug)]
pub struct Shard {
    key: String,
    path: Option<PathBuf>,
    state: RwLock<ShardState>,
    /// Monotonic generation of this shard's observable state. Starts at 1
    /// and is bumped by every [`Shard::swap`] *and* every
    /// [`Shard::degrade`] — any transition that can change what this shard
    /// answers. The result cache keys entries by this value, so a bump
    /// makes every cached body for the old state unreachable without any
    /// TTL or explicit flush.
    epoch: AtomicU64,
}

impl Shard {
    fn new(scorer: Scorer, path: Option<PathBuf>) -> Self {
        Self {
            key: region_key(scorer.region()),
            path,
            state: RwLock::new(ShardState {
                scorer: Arc::new(scorer),
                fault: None,
            }),
            epoch: AtomicU64::new(1),
        }
    }

    /// The routing key ([`region_key`] of the snapshot's region).
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The snapshot file this shard was loaded from (watched for reload),
    /// if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// The active scorer if the shard is serving, or the degradation
    /// reason if a corrupt hot-swap took it out.
    pub fn serving(&self) -> Result<Arc<Scorer>, String> {
        let state = self.state.read().unwrap_or_else(|p| p.into_inner());
        match &state.fault {
            None => Ok(Arc::clone(&state.scorer)),
            Some(reason) => Err(reason.clone()),
        }
    }

    /// The active scorer, or the typed 503 a degraded shard answers: it
    /// names the shard so the client knows every *other* region still
    /// serves.
    pub(crate) fn serving_or_503(&self) -> Result<Arc<Scorer>, Response> {
        self.serving().map_err(|reason| {
            Response::json(
                503,
                format!(
                    "{{\"error\":{},\"shard\":{}}}",
                    json_str(&format!("shard {:?} degraded: {reason}", self.key)),
                    json_str(&self.key)
                ),
            )
        })
    }

    /// The last successfully loaded scorer, whether or not the shard is
    /// currently degraded. Never fails: every shard is constructed from a
    /// valid scorer and swaps only keep valid ones.
    pub fn last_good(&self) -> Arc<Scorer> {
        let state = self.state.read().unwrap_or_else(|p| p.into_inner());
        Arc::clone(&state.scorer)
    }

    /// The degradation reason, if the shard is currently answering 503.
    pub fn fault(&self) -> Option<String> {
        let state = self.state.read().unwrap_or_else(|p| p.into_inner());
        state.fault.clone()
    }

    /// Atomically install a freshly validated scorer, clearing any fault
    /// (a valid publish heals a degraded shard). Returns the new handle.
    ///
    /// The epoch is bumped *after* the state write unlocks: a request that
    /// raced the swap and read the old epoch can at worst write a cache
    /// entry under a key that every post-swap lookup has already moved
    /// past (the store path additionally revalidates the epoch, see
    /// `cache.rs`). Epoch keys only ever move forward.
    pub(crate) fn swap(&self, scorer: Scorer) -> Arc<Scorer> {
        let fresh = Arc::new(scorer);
        let mut state = self.state.write().unwrap_or_else(|p| p.into_inner());
        state.scorer = Arc::clone(&fresh);
        state.fault = None;
        drop(state);
        self.epoch.fetch_add(1, Ordering::SeqCst);
        fresh
    }

    /// Mark the shard unavailable after a corrupt replacement. The last
    /// good scorer is retained for
    /// diagnostics but no longer served. Bumps the epoch: cached bodies
    /// from the healthy state must not outlive the degradation.
    pub(crate) fn degrade(&self, reason: String) {
        let mut state = self.state.write().unwrap_or_else(|p| p.into_inner());
        state.fault = Some(reason);
        drop(state);
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// The shard's current state generation (see the `epoch` field docs).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }
}

/// One entry of a scatter-gathered global ranking: which of the merged
/// tables the pipe came from (for a whole-fleet merge, its index into
/// [`ShardSet::shards`]) and its risk with the *shard-local* rank (the
/// global rank is the entry's position in the merged output).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalRisk {
    /// Index of the contributing table.
    pub shard: usize,
    /// The pipe's risk; `rank` is its rank *within its shard*.
    pub risk: PipeRisk,
}

/// The in-process fleet: per-region shards sorted by routing key.
pub type ShardSet = Fleet<Shard>;

impl ShardSet {
    /// Build a sharded set from already-loaded scorers (no watched paths).
    /// Fails on an empty list or on two scorers mapping to the same
    /// region key.
    pub fn from_scorers(scorers: Vec<Scorer>) -> Result<Self, ServeError> {
        Self::assemble_shards(scorers.into_iter().map(|s| (s, None)).collect())
    }

    /// Load and strict-validate one snapshot per path, **in parallel** on
    /// `pool`. Any failure aborts the whole load with a typed error naming
    /// the first failing path *in input order* (deterministic at any
    /// thread count); duplicate region keys are rejected.
    pub fn load_paths(paths: &[PathBuf], pool: &TaskPool) -> Result<Self, ServeError> {
        if paths.is_empty() {
            return Err(ServeError::BadConfig("no snapshot paths to load".into()));
        }
        let loaded: Vec<Result<Scorer, SnapshotError>> =
            pool.run(paths.len(), |i| Scorer::load(&paths[i]));
        let mut shards = Vec::with_capacity(paths.len());
        for (path, result) in paths.iter().zip(loaded) {
            match result {
                Ok(scorer) => shards.push((scorer, Some(path.clone()))),
                Err(error) => {
                    return Err(ServeError::Shard {
                        path: path.display().to_string(),
                        error,
                    });
                }
            }
        }
        Self::assemble_shards(shards)
    }

    /// Load every `*.pfsnap` file in `dir` (sorted by file name for a
    /// deterministic load order) as one shard each, in parallel on `pool`.
    pub fn load_dir(dir: &Path, pool: &TaskPool) -> Result<Self, ServeError> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| ServeError::Io(format!("reading snapshot dir {}: {e}", dir.display())))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "pfsnap"))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(ServeError::BadConfig(format!(
                "no *.pfsnap snapshots in {}",
                dir.display()
            )));
        }
        Self::load_paths(&paths, pool)
    }

    fn assemble_shards(scorers: Vec<(Scorer, Option<PathBuf>)>) -> Result<Self, ServeError> {
        Fleet::assemble(
            scorers
                .into_iter()
                .map(|(scorer, path)| {
                    let shard = Shard::new(scorer, path);
                    (shard.key.clone(), shard)
                })
                .collect(),
        )
    }

    /// The shards, sorted by routing key.
    pub fn shards(&self) -> &[Arc<Shard>] {
        self.members()
    }

    /// Sum of every shard's [`Shard::epoch`] — a fleet-wide state
    /// generation. Each shard's epoch is monotonic, so the sum is too:
    /// any swap, degrade, or heal anywhere in the set changes this value
    /// and retires every cached fleet-scope artefact (global top-K merge,
    /// `/aggregate`) keyed under the previous one.
    pub fn fleet_epoch(&self) -> u64 {
        self.epoch()
    }

    /// Routing keys of shards currently refusing requests (after a failed
    /// reload), in shard order. Empty when fully healthy —
    /// the `/healthz` answer is derived from this.
    pub fn degraded_keys(&self) -> Vec<String> {
        self.shards()
            .iter()
            .filter(|s| s.serving().is_err())
            .map(|s| s.key().to_string())
            .collect()
    }

    /// Global top-K over the whole set: every shard contributes its own
    /// top-K slice and the slices are k-way merged. Errs with the keys of
    /// degraded shards: this is the full-fleet merge (the served region-less
    /// `/top` answers a partial one instead, see [`crate::fleet`]).
    ///
    /// The merged prefix is byte-identical to the top-K of one monolithic
    /// snapshot holding the same pipes (shard-order concatenation, stable
    /// descending sort) — ties break to the lower shard index, then the
    /// lower shard-local rank, exactly like `RiskRanking::new`'s stable
    /// sort. Property-tested in `tests/sharded_serving.rs`.
    pub fn global_top_k(&self, k: usize) -> Result<Vec<GlobalRisk>, Vec<String>> {
        let mut views: Vec<Arc<Scorer>> = Vec::with_capacity(self.len());
        let mut degraded = Vec::new();
        for shard in self.shards() {
            match shard.serving() {
                Ok(scorer) => views.push(scorer),
                Err(_) => degraded.push(shard.key.clone()),
            }
        }
        if !degraded.is_empty() {
            return Err(degraded);
        }
        let tables: Vec<RiskSlice<'_>> = views.iter().map(|s| s.top_k(k)).collect();
        Ok(merge_top_k(&tables, k))
    }
}

impl Backend for Shard {
    const REMOTE: bool = false;

    fn generation(&self) -> u64 {
        self.epoch()
    }

    fn exact_epoch(&self) -> Option<u64> {
        Some(self.epoch())
    }

    fn region(
        self: &Arc<Self>,
        ask: Ask,
        _: &ParsedRequest,
        _: &Metrics,
    ) -> Result<Response, Response> {
        let scorer = self.serving_or_503()?;
        Ok(match ask {
            Ask::Top(k) => Response::json(200, render_top_k(&scorer, k)),
            Ask::Pipe(id) => match scorer.risk_of(PipeId(id)) {
                Some(risk) => Response::json(200, render_pipe_risk(&risk)),
                None => Response::json(404, format!("{{\"error\":\"pipe {id} not ranked\"}}")),
            },
        })
    }

    fn top(self: &Arc<Self>, _: usize, _: &Metrics) -> Option<TopTable> {
        self.serving().ok().map(TopTable::Local)
    }

    fn partial(
        self: &Arc<Self>,
        spec: &AggregateSpec,
        _: &str,
        _: &Metrics,
    ) -> Result<AggregatePartial, Miss> {
        let scorer = self.serving().map_err(|_| Miss::Dark)?;
        aggregate::shard_partial(spec, &scorer).map_err(|_| Miss::NoAttributes)
    }
}

/// Bounded k-way merge of per-shard descending rankings: pick the best
/// head among the tables `k` times. Ties break to the lowest table index,
/// which makes the output identical to a stable descending sort of the
/// tables' concatenation — without ever materialising or re-sorting that
/// union. Cost is O(tables · k) comparisons; each table only ever
/// contributes its own first `k` entries.
///
/// # Examples
///
/// Two shards' descending rankings merge into one global top-3; the tie
/// at `0.5` breaks to the lower table index:
///
/// ```
/// use pipefail_core::model::{RiskRanking, RiskScore};
/// use pipefail_core::snapshot::Snapshot;
/// use pipefail_network::ids::PipeId;
/// use pipefail_serve::{merge_top_k, Scorer};
///
/// let shard = |region: &str, scores: &[(u32, f64)]| {
///     let ranking = RiskRanking::new(
///         scores.iter().map(|&(p, score)| RiskScore { pipe: PipeId(p), score }).collect(),
///     );
///     Scorer::new(Snapshot::new("DPMHBP", region, 7, &ranking))
/// };
/// let a = shard("Region A", &[(0, 0.9), (1, 0.5)]);
/// let b = shard("Region B", &[(7, 0.5)]);
/// let merged = merge_top_k(&[a.top_k(3), b.top_k(3)], 3);
/// let order: Vec<(usize, u32)> =
///     merged.iter().map(|g| (g.shard, g.risk.pipe.0)).collect();
/// assert_eq!(order, vec![(0, 0), (0, 1), (1, 7)]);
/// ```
pub fn merge_top_k(tables: &[RiskSlice<'_>], k: usize) -> Vec<GlobalRisk> {
    let total: usize = tables.iter().map(|t| t.len()).sum();
    let mut heads = vec![0usize; tables.len()];
    let mut out = Vec::with_capacity(k.min(total));
    while out.len() < k {
        let mut best: Option<usize> = None;
        for (s, table) in tables.iter().enumerate() {
            let Some(candidate) = table.get(heads[s]) else { continue };
            // Strict `>` keeps the earliest table on ties — the stable-sort
            // order of the concatenated union.
            let beats = match best {
                None => true,
                Some(b) => candidate.score > tables[b].at(heads[b]).score,
            };
            if beats {
                best = Some(s);
            }
        }
        let Some(s) = best else { break };
        out.push(GlobalRisk { shard: s, risk: tables[s].at(heads[s]) });
        heads[s] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefail_core::model::{RiskRanking, RiskScore};
    use pipefail_core::snapshot::Snapshot;
    use pipefail_network::ids::PipeId;

    fn scorer(region: &str, scores: &[(u32, f64)]) -> Scorer {
        let ranking = RiskRanking::new(
            scores
                .iter()
                .map(|&(pipe, score)| RiskScore { pipe: PipeId(pipe), score })
                .collect(),
        );
        Scorer::new(Snapshot::new("DPMHBP", region, 7, &ranking))
    }

    #[test]
    fn region_key_is_lowercase_underscored() {
        assert_eq!(region_key("Region A"), "region_a");
        assert_eq!(region_key("Metro Water North"), "metro_water_north");
        assert_eq!(region_key("already_ok"), "already_ok");
    }

    #[test]
    fn shards_sort_by_key_and_route_by_binary_search() {
        let set = ShardSet::from_scorers(vec![
            scorer("Region B", &[(0, 1.0)]),
            scorer("Region A", &[(0, 2.0)]),
            scorer("Region C", &[(0, 3.0)]),
        ])
        .expect("distinct regions");
        let keys: Vec<&str> = set.keys().collect();
        assert_eq!(keys, ["region_a", "region_b", "region_c"]);
        assert_eq!(set.index_of("region_b"), Some(1));
        assert_eq!(set.index_of("region_z"), None);
        assert_eq!(set.get("region_c").unwrap().last_good().region(), "Region C");
        assert!(!set.is_single());
    }

    #[test]
    fn duplicate_region_keys_are_rejected() {
        let err = ShardSet::from_scorers(vec![
            scorer("Region A", &[(0, 1.0)]),
            scorer("region a", &[(1, 1.0)]), // same key after sanitising
        ])
        .expect_err("duplicate key");
        assert!(matches!(err, ServeError::BadConfig(ref m) if m.contains("region_a")), "{err}");
    }

    #[test]
    fn empty_sets_are_rejected() {
        assert!(matches!(
            ShardSet::from_scorers(vec![]),
            Err(ServeError::BadConfig(_))
        ));
        assert!(matches!(
            ShardSet::load_paths(&[], &TaskPool::serial()),
            Err(ServeError::BadConfig(_))
        ));
    }

    #[test]
    fn degrade_then_heal_round_trips() {
        // A one-file server is a one-shard set: it degrades and heals
        // exactly like a shard of a larger fleet.
        let one = ShardSet::from_scorers(vec![scorer("A", &[(0, 1.0)])]).expect("one shard");
        assert!(one.is_single());
        let two = ShardSet::from_scorers(vec![
            scorer("A", &[(0, 1.0)]),
            scorer("B", &[(0, 2.0)]),
        ])
        .expect("set");
        for set in [one, two] {
            let a = set.get("a").unwrap();
            assert!(a.serving().is_ok());
            a.degrade("checksum mismatch".into());
            assert_eq!(a.serving().expect_err("degraded"), "checksum mismatch");
            assert_eq!(a.fault().as_deref(), Some("checksum mismatch"));
            assert_eq!(set.degraded_keys(), ["a"]);
            // The last good scorer is retained while degraded.
            assert_eq!(a.last_good().region(), "A");
            // Global top-K refuses a partial fleet, naming the degraded shard.
            assert_eq!(set.global_top_k(3).expect_err("degraded"), vec!["a".to_string()]);
            // Any sibling shard is untouched.
            assert!(set.shards().iter().skip(1).all(|s| s.serving().is_ok()));
            // A valid swap heals the shard.
            a.swap(scorer("A", &[(5, 9.0)]));
            assert!(a.serving().is_ok());
            assert_eq!(a.fault(), None);
            assert_eq!(set.global_top_k(1).expect("healed")[0].risk.pipe, PipeId(5));
        }
    }

    #[test]
    fn epochs_advance_on_every_swap_degrade_and_heal() {
        let set = ShardSet::from_scorers(vec![
            scorer("A", &[(0, 1.0)]),
            scorer("B", &[(0, 2.0)]),
        ])
        .expect("set");
        let a = set.get("a").unwrap();
        assert_eq!(a.epoch(), 1);
        assert_eq!(set.fleet_epoch(), 2);
        // A swap retires cached bodies for the old model…
        a.swap(scorer("A", &[(5, 9.0)]));
        assert_eq!(a.epoch(), 2);
        // …a degrade retires cached bodies for the healthy state…
        a.degrade("bad bytes".into());
        assert_eq!(a.epoch(), 3);
        // …and the heal retires any (nonexistent) degraded-state entries.
        a.swap(scorer("A", &[(6, 9.0)]));
        assert_eq!(a.epoch(), 4);
        // The sibling never moved; the fleet epoch tracked every change.
        assert_eq!(set.get("b").unwrap().epoch(), 1);
        assert_eq!(set.fleet_epoch(), 5);
    }

    #[test]
    fn merge_matches_stable_sort_of_concatenation_with_ties() {
        // Scores tie across AND within shards; the merge must reproduce the
        // stable descending sort of the shard-order concatenation.
        let a = scorer("A", &[(0, 0.5), (1, 0.5), (2, 0.1)]);
        let b = scorer("B", &[(10, 0.9), (11, 0.5), (12, 0.5)]);
        let tables = [a.top_k(10), b.top_k(10)];
        let merged = merge_top_k(&tables, 10);
        let got: Vec<(usize, u32)> = merged.iter().map(|g| (g.shard, g.risk.pipe.0)).collect();
        // 0.9 first (shard B), then the 0.5 tie block in (shard, rank)
        // order: A/0, A/1, B/11, B/12, then 0.1.
        assert_eq!(got, [(1, 10), (0, 0), (0, 1), (1, 11), (1, 12), (0, 2)]);
        // k truncates the merge, not the tables.
        assert_eq!(merge_top_k(&tables, 2).len(), 2);
        assert_eq!(merge_top_k(&tables, 0).len(), 0);
        assert_eq!(merge_top_k(&[], 5).len(), 0);
    }

    #[test]
    fn load_paths_is_parallel_deterministic_and_strict() {
        let dir = std::env::temp_dir().join(format!("pipefail_shards_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut paths = Vec::new();
        for (i, region) in ["North", "South", "East", "West"].iter().enumerate() {
            let path = dir.join(format!("{region}.pfsnap"));
            let ranking = RiskRanking::new(vec![RiskScore {
                pipe: PipeId(i as u32),
                score: 1.0,
            }]);
            Snapshot::new("DPMHBP", *region, i as u64, &ranking)
                .save(&path)
                .unwrap();
            paths.push(path);
        }
        // Same shard set at any thread count.
        for threads in [1, 2, 8] {
            let set = ShardSet::load_paths(&paths, &TaskPool::new(threads)).expect("loads");
            assert_eq!(
                set.keys().collect::<Vec<_>>(),
                ["east", "north", "south", "west"]
            );
            assert_eq!(set.get("south").unwrap().path(), Some(paths[1].as_path()));
        }
        // Directory discovery finds the same files (plus ignores strays).
        std::fs::write(dir.join("README.txt"), b"not a snapshot").unwrap();
        let set = ShardSet::load_dir(&dir, &TaskPool::new(4)).expect("dir loads");
        assert_eq!(set.len(), 4);
        // One corrupt file fails the whole load with a typed error naming
        // the earliest failing path in input order.
        std::fs::write(&paths[2], b"PFSNAPgarbage").unwrap();
        let err = ShardSet::load_paths(&paths, &TaskPool::new(4)).expect_err("corrupt");
        match err {
            ServeError::Shard { path, .. } => assert_eq!(path, paths[2].display().to_string()),
            other => panic!("expected ServeError::Shard, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
