//! The scoring engine: snapshot in, microsecond risk queries out.
//!
//! A [`Scorer`] is an immutable, shareable (`Sync`) columnar view over the
//! bytes of one PFSNAP v2 snapshot, validated in one strict pass
//! ([`pipefail_core::snapshot::v2::validate`]). The ranking, the id→rank
//! index, and the attribute columns are read **directly from those
//! bytes**, which come from one of two places:
//!
//! * a v2 file is `mmap`ed read-only (`sys`'s raw-syscall mapping) —
//!   loading is O(ms) regardless of snapshot size, and the page cache is
//!   shared across processes serving the same file;
//! * a v1 file or an in-memory [`Snapshot`] is converted once to v2 bytes
//!   ([`pipefail_core::snapshot::v2::encode`]) in an owned 8-aligned
//!   buffer.
//!
//! The bytes live inside an `Arc`, so a hot-reload swap keeps the old
//! pages valid until the last in-flight request drops its clone. Every
//! scorer answers every query identically whatever its source — the
//! `mmap_identity` battery proves it on arbitrary generated snapshots.
//!
//! Queries return view types ([`RiskSlice`], [`AttributesView`]) instead
//! of slices of owned structs, so the zero-copy property survives the API
//! boundary. Batches of queries fan out over a [`pipefail_par::TaskPool`]
//! with the pool's usual determinism contract: results come back in query
//! order at any thread count.

// The columns are reinterpreted in place as native `u32`/`f64`, which
// equals the on-disk little-endian encoding only on little-endian hosts.
#[cfg(target_endian = "big")]
compile_error!("pipefail-serve reads snapshot columns in place and needs a little-endian target");

use crate::aggregate::GroupCodes;
use crate::sys;
use pipefail_core::model::RiskRanking;
use pipefail_core::snapshot::{
    v2, Snapshot, SnapshotError, SnapshotFormat, SummarySection, ATTRIBUTES_SECTION,
    ATTR_LAID_YEAR, ATTR_LENGTH_M, ATTR_MATERIAL, SNAPSHOT_VERSION_V2,
};
use pipefail_network::attributes::Material;
use pipefail_network::ids::PipeId;
use pipefail_par::TaskPool;
use std::io::Read;
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// One pipe's served risk: its score and its position in the ranking
/// (rank 0 = riskiest).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipeRisk {
    /// The pipe.
    pub pipe: PipeId,
    /// The frozen model score (posterior failure probability for the
    /// Bayesian models, a raw ordinal score for the rankers).
    pub score: f64,
    /// Position in the descending ranking, 0-based.
    pub rank: usize,
}

/// A single scoring request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// The `k` riskiest pipes.
    TopK(usize),
    /// One pipe's score and rank.
    Pipe(PipeId),
}

/// The answer to a [`Query`], in the same order as the batch.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Top-K answer, descending.
    TopK(Vec<PipeRisk>),
    /// Per-pipe answer; `None` when the pipe is not in the ranking.
    Pipe(Option<PipeRisk>),
}

/// A borrowed run of ranking entries starting at rank 0 — what
/// [`Scorer::top_k`] returns: the id and score columns side by side, each
/// [`PipeRisk`] materialized on the fly, so rendering a top-K response
/// never copies the table.
#[derive(Debug, Clone, Copy)]
pub struct RiskSlice<'a> {
    ids: &'a [u32],
    scores: &'a [f64],
}

impl<'a> RiskSlice<'a> {
    /// A slice over parallel id and score columns in rank order.
    pub(crate) fn from_columns(ids: &'a [u32], scores: &'a [f64]) -> Self {
        debug_assert_eq!(ids.len(), scores.len(), "columns must be parallel");
        RiskSlice { ids, scores }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry at position `i` (which is also its rank), if in range.
    pub fn get(&self, i: usize) -> Option<PipeRisk> {
        Some(PipeRisk {
            pipe: PipeId(*self.ids.get(i)?),
            score: *self.scores.get(i)?,
            rank: i,
        })
    }

    /// The entry at position `i`; panics when out of range.
    pub fn at(&self, i: usize) -> PipeRisk {
        self.get(i).expect("RiskSlice index out of range")
    }

    /// Iterate the entries in rank order.
    pub fn iter(&self) -> RiskSliceIter<'a> {
        RiskSliceIter { slice: *self, pos: 0 }
    }

    /// Copy the entries into an owned vector.
    pub fn to_vec(&self) -> Vec<PipeRisk> {
        self.iter().collect()
    }

    /// The score column, in rank order.
    pub(crate) fn scores(&self) -> &'a [f64] {
        self.scores
    }
}

/// Iterator over a [`RiskSlice`], yielding [`PipeRisk`] by value.
#[derive(Debug, Clone)]
pub struct RiskSliceIter<'a> {
    slice: RiskSlice<'a>,
    pos: usize,
}

impl Iterator for RiskSliceIter<'_> {
    type Item = PipeRisk;

    fn next(&mut self) -> Option<PipeRisk> {
        let out = self.slice.get(self.pos)?;
        self.pos += 1;
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.slice.len().saturating_sub(self.pos);
        (n, Some(n))
    }
}

impl ExactSizeIterator for RiskSliceIter<'_> {}

impl<'a> IntoIterator for RiskSlice<'a> {
    type Item = PipeRisk;
    type IntoIter = RiskSliceIter<'a>;

    fn into_iter(self) -> RiskSliceIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &RiskSlice<'a> {
    type Item = PipeRisk;
    type IntoIter = RiskSliceIter<'a>;

    fn into_iter(self) -> RiskSliceIter<'a> {
        self.iter()
    }
}

/// A borrowed view of the per-pipe asset attributes, aligned with the
/// ranking (index `i` describes the pipe at rank `i`): three `f64`
/// columns, read in place. Present only when the snapshot carries a
/// `pipe_attributes` section whose fields are aligned with the ranking and
/// whose values pass the validator's rules (finite non-negative lengths,
/// integral catalogued materials, integral `i32` years), so the
/// conversions here cannot fail. A malformed section is dropped rather
/// than served — top-K and point lookups keep working, aggregation
/// queries that need attributes get a typed refusal.
#[derive(Debug, Clone, Copy)]
pub struct AttributesView<'a> {
    length_m: &'a [f64],
    material: &'a [f64],
    laid_year: &'a [f64],
}

impl<'a> AttributesView<'a> {
    /// Number of described pipes (always the ranking length).
    pub fn len(&self) -> usize {
        self.length_m.len()
    }

    /// True when no pipes are described.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Length in metres of the pipe at rank `i`.
    pub fn length_m(&self, i: usize) -> f64 {
        self.length_m[i]
    }

    /// Material of the pipe at rank `i`.
    pub fn material(&self, i: usize) -> Material {
        Material::ALL[self.material_index(i)]
    }

    /// Index into `Material::ALL` of the pipe at rank `i`'s material.
    pub fn material_index(&self, i: usize) -> usize {
        self.material[i] as usize
    }

    /// Construction year of the pipe at rank `i`.
    pub fn laid_year(&self, i: usize) -> i32 {
        self.laid_year[i] as i32
    }

    /// The raw `(length_m, material, laid_year)` columns in rank order,
    /// for kernels that walk every pipe.
    pub(crate) fn columns(&self) -> (&'a [f64], &'a [f64], &'a [f64]) {
        (self.length_m, self.material, self.laid_year)
    }
}

/// Shape of one posterior summary section as reported by
/// [`Scorer::sections_info`]: the section name and each field's name and
/// value count. Values themselves stay in the snapshot bytes — the
/// `/model` endpoint only reports shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section name.
    pub name: String,
    /// `(field name, value count)` in export order.
    pub fields: Vec<(String, usize)>,
}

/// Attribute columns decoded from a `pipe_attributes` section the writer
/// could not extract into typed v2 columns (non-canonical field order or
/// extra fields), so it rides in the summary blob instead.
#[derive(Debug)]
struct OwnedAttrs {
    length_m: Vec<f64>,
    material: Vec<f64>,
    laid_year: Vec<f64>,
}

impl OwnedAttrs {
    /// Decode the first `pipe_attributes` section among `sections`
    /// against a ranking of `n` pipes. `None` when absent, misaligned, or
    /// holding a value the validator's attribute rules reject.
    fn decode(sections: &[SummarySection], n: usize) -> Option<Self> {
        let section = sections.iter().find(|s| s.name == ATTRIBUTES_SECTION)?;
        let length_m = section.field(ATTR_LENGTH_M)?;
        let material = section.field(ATTR_MATERIAL)?;
        let laid_year = section.field(ATTR_LAID_YEAR)?;
        let aligned = length_m.len() == n && material.len() == n && laid_year.len() == n;
        (aligned && v2::attr_values_valid(length_m, material, laid_year)).then(|| OwnedAttrs {
            length_m: length_m.to_vec(),
            material: material.to_vec(),
            laid_year: laid_year.to_vec(),
        })
    }
}

/// The validated snapshot bytes plus their layout. Held in an `Arc` by
/// every clone of the scorer, so an `munmap` happens exactly when the last
/// holder (shard table or in-flight request) lets go.
#[derive(Debug)]
struct Columns {
    bytes: sys::Mapping,
    layout: v2::Layout,
    /// Attributes decoded from the summary blob when the writer did *not*
    /// extract columns.
    owned_attrs: Option<OwnedAttrs>,
    /// The `/aggregate` kernel's integer group codes, derived on first use.
    codes: OnceLock<GroupCodes>,
}

impl Columns {
    /// Reinterpret a validated column range as a `u32` slice.
    fn u32s(&self, range: &Range<usize>) -> &[u32] {
        let bytes = &self.bytes.bytes()[range.clone()];
        // SAFETY: the validator proved the range 8-byte-aligned within the
        // buffer and the base is 8-aligned (page-aligned mmap or u64-backed
        // owned buffer), so the pointer is aligned for u32; the length is a
        // multiple of 4 by the section-table element check. Little-endian
        // targets only (see the `compile_error!` above), where `u32` memory
        // layout equals the on-disk little-endian encoding.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u32, bytes.len() / 4) }
    }

    /// Reinterpret a validated column range as an `f64` slice.
    fn f64s(&self, range: &Range<usize>) -> &[f64] {
        let bytes = &self.bytes.bytes()[range.clone()];
        // SAFETY: as `u32s`, with 8-byte elements.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const f64, bytes.len() / 8) }
    }
}

/// In-memory scoring engine over one snapshot (see the module docs).
#[derive(Debug, Clone)]
pub struct Scorer {
    model: String,
    region: String,
    seed: u64,
    format: SnapshotFormat,
    cols: Arc<Columns>,
}

impl Scorer {
    /// Build from an in-memory snapshot: encode it once as v2 bytes in an
    /// owned buffer and validate them like a file. The format tag is
    /// [`SnapshotFormat::V1`], matching what `to_bytes` would write.
    ///
    /// # Panics
    ///
    /// When the snapshot breaks a format invariant a file load would
    /// reject with a typed error (non-finite or unsorted scores).
    pub fn new(snapshot: Snapshot) -> Self {
        Self::from_bytes(sys::Mapping::owned(&v2::encode(&snapshot)), SnapshotFormat::V1)
            .unwrap_or_else(|e| panic!("Scorer::new: snapshot fails v2 validation: {e}"))
    }

    /// Load a snapshot file and build the engine, dispatching on the
    /// header's version field. A v2 file is memory-mapped, validated in
    /// place, and served from the mapping (zero copy). Anything else is
    /// read and parsed by the strict [`Snapshot::load`] decoder (typed
    /// errors for short, foreign, or corrupt files), and a v1 snapshot is
    /// converted once to v2 bytes.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        let io = |e: std::io::Error| SnapshotError::Io(e.to_string());
        let mut head = Vec::with_capacity(8);
        std::fs::File::open(path)
            .and_then(|f| f.take(8).read_to_end(&mut head))
            .map_err(io)?;
        if head.get(6..8) == Some(&SNAPSHOT_VERSION_V2.to_le_bytes()[..]) {
            return Self::from_bytes(sys::Mapping::map_path(path).map_err(io)?, SnapshotFormat::V2);
        }
        let snapshot = Snapshot::load(path)?;
        Self::from_bytes(sys::Mapping::owned(&v2::encode(&snapshot)), SnapshotFormat::V1)
    }

    /// Validate v2 `bytes` and wrap them; `format` is the source format
    /// reported by `/model`.
    fn from_bytes(bytes: sys::Mapping, format: SnapshotFormat) -> Result<Self, SnapshotError> {
        let layout = v2::validate(bytes.bytes())?;
        let text = |range: &Range<usize>| {
            std::str::from_utf8(&bytes.bytes()[range.clone()])
                .expect("validated utf8")
                .to_string()
        };
        let model = text(&layout.model);
        let region = text(&layout.region);
        let owned_attrs = if layout.attrs.is_none() {
            OwnedAttrs::decode(&layout.summary, layout.n_pipes)
        } else {
            None
        };
        Ok(Self {
            model,
            region,
            seed: layout.seed,
            format,
            cols: Arc::new(Columns { bytes, layout, owned_attrs, codes: OnceLock::new() }),
        })
    }

    /// Display name of the frozen model.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// Region/dataset the model was fitted on.
    pub fn region(&self) -> &str {
        &self.region
    }

    /// Master seed of the fit (provenance).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// On-disk format this scorer was built from (`v1`/`v2`). In-memory
    /// scorers report v1, the format `Snapshot::to_bytes` writes.
    pub fn format(&self) -> SnapshotFormat {
        self.format
    }

    /// True when the scorer serves directly from a memory-mapped file.
    pub fn mapped(&self) -> bool {
        self.cols.bytes.is_mmap()
    }

    /// How the snapshot bytes are held: `"mmap"` (zero-copy mapping) or
    /// `"heap"` (owned buffer). Reported by `/model`.
    pub fn loader(&self) -> &'static str {
        if self.mapped() {
            "mmap"
        } else {
            "heap"
        }
    }

    /// Number of ranked pipes.
    pub fn len(&self) -> usize {
        self.cols.layout.n_pipes
    }

    /// True when the snapshot ranked no pipes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shape of the posterior summary sections carried by the snapshot
    /// (names and field value counts, as reported by `/model`), in the
    /// snapshot's original order: extracted attribute columns are reported
    /// at the position their section held.
    pub fn sections_info(&self) -> Vec<SectionInfo> {
        let layout = &self.cols.layout;
        let mut infos: Vec<SectionInfo> = layout
            .summary
            .iter()
            .map(|s| SectionInfo {
                name: s.name.clone(),
                fields: s
                    .fields
                    .iter()
                    .map(|f| (f.name.clone(), f.values.len()))
                    .collect(),
            })
            .collect();
        if let (Some(_), Some(pos)) = (&layout.attrs, layout.attr_pos) {
            let n = layout.n_pipes;
            infos.insert(
                pos,
                SectionInfo {
                    name: ATTRIBUTES_SECTION.to_string(),
                    fields: [ATTR_LENGTH_M, ATTR_MATERIAL, ATTR_LAID_YEAR]
                        .map(|f| (f.to_string(), n))
                        .to_vec(),
                },
            );
        }
        infos
    }

    /// Per-pipe asset attributes (length / material / construction year),
    /// when the snapshot carries a valid `pipe_attributes` section. Rank
    /// `i` of the ranking owns index `i` of the view.
    pub fn attributes(&self) -> Option<AttributesView<'_>> {
        let c = &self.cols;
        match (&c.layout.attrs, &c.owned_attrs) {
            (Some(cols), _) => Some(AttributesView {
                length_m: c.f64s(&cols.length_m),
                material: c.f64s(&cols.material),
                laid_year: c.f64s(&cols.laid_year),
            }),
            (None, Some(a)) => Some(AttributesView {
                length_m: &a.length_m,
                material: &a.material,
                laid_year: &a.laid_year,
            }),
            (None, None) => None,
        }
    }

    /// The attribute columns as the `/aggregate` kernel's integer group
    /// codes, or `None` without attributes. Derived by the first caller and
    /// then shared by every clone of this scorer; load and reload never
    /// pay for them.
    pub(crate) fn group_codes(&self) -> Option<&GroupCodes> {
        let (_, material, laid_year) = self.attributes()?.columns();
        Some(self.cols.codes.get_or_init(|| GroupCodes::derive(material, laid_year)))
    }

    /// One-line identity used in logs ("which model is this process
    /// serving right now?") — the hot-reload watcher prints it after every
    /// successful swap.
    pub fn describe(&self) -> String {
        format!(
            "{} / {} ({} pipes, seed {})",
            self.model,
            self.region,
            self.len(),
            self.seed
        )
    }

    /// The `k` riskiest pipes (all of them when `k > len`), descending:
    /// zero-copy prefixes of the id and score columns.
    pub fn top_k(&self, k: usize) -> RiskSlice<'_> {
        let k = k.min(self.len());
        let c = &self.cols;
        RiskSlice {
            ids: &c.u32s(&c.layout.pipe_ids)[..k],
            scores: &c.f64s(&c.layout.scores)[..k],
        }
    }

    /// One pipe's risk, if it was ranked. O(log n): a binary search over
    /// the index columns, sorted by `(id, rank)` so duplicate ids resolve
    /// to the lowest rank (`serve_bench` tracks the lookup latency as
    /// `scorer/risk_of_100k`).
    pub fn risk_of(&self, pipe: PipeId) -> Option<PipeRisk> {
        let c = &self.cols;
        let ids = c.u32s(&c.layout.index_ids);
        ids.binary_search(&pipe.0).ok().map(|i| {
            let rank = c.u32s(&c.layout.index_ranks)[i] as usize;
            PipeRisk {
                pipe,
                score: c.f64s(&c.layout.scores)[rank],
                rank,
            }
        })
    }

    /// Reconstruct the full [`RiskRanking`] — bit-identical to the ranking
    /// that was frozen (used by the risk-map endpoint and equivalence
    /// tests).
    pub fn ranking(&self) -> RiskRanking {
        RiskRanking::new(
            self.top_k(usize::MAX)
                .iter()
                .map(|e| pipefail_core::model::RiskScore {
                    pipe: e.pipe,
                    score: e.score,
                })
                .collect(),
        )
    }

    /// Answer one query.
    pub fn answer(&self, query: Query) -> QueryResult {
        match query {
            Query::TopK(k) => QueryResult::TopK(self.top_k(k).to_vec()),
            Query::Pipe(pipe) => QueryResult::Pipe(self.risk_of(pipe)),
        }
    }

    /// Answer a batch of queries, fanned out over `pool`. Results are in
    /// query order at any thread count (the pool's determinism contract —
    /// each answer is a pure function of the query and the frozen table).
    pub fn answer_batch(&self, queries: &[Query], pool: &TaskPool) -> Vec<QueryResult> {
        pool.run(queries.len(), |i| self.answer(queries[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefail_core::model::{RiskRanking, RiskScore};

    fn snapshot() -> Snapshot {
        let ranking = RiskRanking::new(
            (0..100u32)
                .map(|i| RiskScore {
                    pipe: PipeId(i),
                    score: f64::from(i % 10) + f64::from(i) / 1000.0,
                })
                .collect(),
        );
        Snapshot::new("DPMHBP", "Region A", 7, &ranking)
    }

    fn scorer() -> Scorer {
        Scorer::new(snapshot())
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pipefail_scorer_tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(format!("{tag}_{}.pfsnap", std::process::id()))
    }

    #[test]
    fn top_k_matches_ranking_order() {
        let s = scorer();
        assert_eq!(s.len(), 100);
        let top = s.top_k(3);
        assert_eq!(top.len(), 3);
        assert!(top.at(0).score >= top.at(1).score && top.at(1).score >= top.at(2).score);
        assert_eq!(top.at(0).rank, 0);
        // k beyond len clamps.
        assert_eq!(s.top_k(1000).len(), 100);
        assert_eq!(s.top_k(0).len(), 0);
        assert!(s.top_k(0).is_empty());
        // The reconstructed ranking is the same object the snapshot froze.
        let r = s.ranking();
        assert_eq!(r.len(), 100);
        assert_eq!(r.scores()[0].pipe, top.at(0).pipe);
    }

    #[test]
    fn risk_of_finds_every_pipe_and_misses_unranked() {
        let s = scorer();
        for e in s.top_k(100) {
            let hit = s.risk_of(e.pipe).expect("ranked pipe");
            assert_eq!(hit, e);
        }
        assert_eq!(s.risk_of(PipeId(10_000)), None);
    }

    #[test]
    fn batch_answers_in_query_order_at_any_thread_count() {
        let s = scorer();
        let queries = vec![
            Query::TopK(5),
            Query::Pipe(PipeId(42)),
            Query::Pipe(PipeId(9999)),
            Query::TopK(0),
        ];
        let serial = s.answer_batch(&queries, &TaskPool::serial());
        for threads in [2, 4, 8] {
            assert_eq!(s.answer_batch(&queries, &TaskPool::new(threads)), serial);
        }
        assert!(matches!(&serial[0], QueryResult::TopK(v) if v.len() == 5));
        assert!(matches!(&serial[1], QueryResult::Pipe(Some(r)) if r.pipe == PipeId(42)));
        assert!(matches!(&serial[2], QueryResult::Pipe(None)));
        assert!(matches!(&serial[3], QueryResult::TopK(v) if v.is_empty()));
    }

    #[test]
    fn attributes_decode_only_when_aligned_and_valid() {
        use pipefail_core::snapshot::attributes_section;

        let ranking = RiskRanking::new(
            (0..4u32)
                .map(|i| RiskScore { pipe: PipeId(i), score: 1.0 - f64::from(i) / 10.0 })
                .collect(),
        );
        let attach = |length: Vec<f64>, material: Vec<f64>, year: Vec<f64>| {
            let mut snap = Snapshot::new("DPMHBP", "Region A", 7, &ranking);
            snap.push_section(attributes_section(length, material, year));
            Scorer::new(snap)
        };

        // Valid: aligned, finite, catalogued materials.
        let s = attach(
            vec![10.0, 20.0, 30.0, 40.0],
            vec![0.0, 8.0, 1.0, 1.0],
            vec![1920.0, 1950.0, 1980.0, 2010.0],
        );
        let attrs = s.attributes().expect("valid attributes decode");
        assert_eq!(attrs.len(), 4);
        assert_eq!(attrs.length_m(1), 20.0);
        assert_eq!(attrs.material(0), Material::ALL[0]);
        assert_eq!(attrs.material(1), Material::ALL[8]);
        assert_eq!(attrs.material_index(1), 8);
        assert_eq!(attrs.laid_year(3), 2010);

        // No section at all: attributes absent, scorer still works.
        assert!(scorer().attributes().is_none());

        // Misaligned, negative length, out-of-catalogue material, and
        // fractional year are each dropped whole.
        for (length, material, year) in [
            (vec![10.0; 3], vec![0.0; 4], vec![1950.0; 4]),
            (vec![10.0, -1.0, 10.0, 10.0], vec![0.0; 4], vec![1950.0; 4]),
            (vec![10.0; 4], vec![0.0, 99.0, 0.0, 0.0], vec![1950.0; 4]),
            (vec![10.0; 4], vec![0.0; 4], vec![1950.5, 1950.0, 1950.0, 1950.0]),
        ] {
            assert!(attach(length, material, year).attributes().is_none());
        }
    }

    #[test]
    fn group_codes_wait_for_the_first_grouped_scan_and_are_shared_by_clones() {
        use crate::aggregate::{shard_partial, AggregateSpec};
        use pipefail_core::snapshot::attributes_section;

        let mut snap = snapshot();
        let n = snap.scores.len();
        snap.push_section(attributes_section(
            vec![10.0; n],
            (0..n).map(|i| (i % 9) as f64).collect(),
            (0..n).map(|i| 1900.0 + i as f64).collect(),
        ));
        let s = Scorer::new(snap);
        let spec = |json: &str| AggregateSpec::parse(json).expect("valid spec");
        let region = spec(r#"{"group_by":["region"],"aggregates":[{"op":"count"}]}"#);
        let budget = spec(
            r#"{"group_by":["region"],"aggregates":[{"op":"count"}],"budget":{"length_m":50}}"#,
        );
        s.top_k(10);
        shard_partial(&region, &s).expect("region scan");
        shard_partial(&budget, &s).expect("budget walk");
        assert!(s.cols.codes.get().is_none(), "only a material or decade scan derives codes");

        let clone = s.clone();
        let material = spec(r#"{"group_by":["material"],"aggregates":[{"op":"count"}]}"#);
        shard_partial(&material, &clone).expect("material scan");
        let derived = s.cols.codes.get().expect("derived by the clone's scan");
        assert!(std::ptr::eq(derived, s.group_codes().expect("attributes")));

        assert!(scorer().group_codes().is_none(), "no attributes, no codes");
    }

    #[test]
    fn metadata_round_trips() {
        let s = scorer();
        assert_eq!(s.model(), "DPMHBP");
        assert_eq!(s.region(), "Region A");
        assert_eq!(s.seed(), 7);
        assert!(!s.is_empty());
        assert!(s.sections_info().is_empty());
        assert_eq!(s.describe(), "DPMHBP / Region A (100 pipes, seed 7)");
        assert_eq!(s.format(), SnapshotFormat::V1);
        assert!(!s.mapped());
        assert_eq!(s.loader(), "heap");
    }

    #[test]
    fn v2_files_map_and_v1_files_convert_to_the_same_columns() {
        let snap = snapshot();
        let in_memory = Scorer::new(snap.clone());

        let v1_path = temp_path("negotiate_v1");
        snap.save_as(&v1_path, SnapshotFormat::V1).expect("save v1");
        let v1 = Scorer::load(&v1_path).expect("load v1");
        assert_eq!(v1.format(), SnapshotFormat::V1);
        assert!(!v1.mapped());
        assert_eq!(v1.loader(), "heap");

        let v2_path = temp_path("negotiate_v2");
        snap.save_as(&v2_path, SnapshotFormat::V2).expect("save v2");
        let v2 = Scorer::load(&v2_path).expect("load v2");
        assert_eq!(v2.format(), SnapshotFormat::V2);
        assert_eq!(v2.mapped(), cfg!(unix));
        assert_eq!(v2.loader(), if cfg!(unix) { "mmap" } else { "heap" });

        // All three answer identically.
        for s in [&v1, &v2] {
            assert_eq!(s.describe(), in_memory.describe());
            assert_eq!(s.top_k(10).to_vec(), in_memory.top_k(10).to_vec());
            for pipe in [PipeId(0), PipeId(57), PipeId(10_000)] {
                assert_eq!(s.risk_of(pipe), in_memory.risk_of(pipe));
            }
            assert_eq!(s.ranking(), in_memory.ranking());
        }

        std::fs::remove_file(&v1_path).ok();
        std::fs::remove_file(&v2_path).ok();
    }

    #[test]
    #[should_panic(expected = "fails v2 validation")]
    fn new_refuses_a_snapshot_a_file_load_would_reject() {
        let mut snap = snapshot();
        snap.scores[3].1 = f64::NAN;
        let _ = Scorer::new(snap);
    }

    #[test]
    fn short_and_foreign_files_fail_typed() {
        let path = temp_path("short");
        std::fs::write(&path, b"PFSN").expect("write");
        assert!(matches!(
            Scorer::load(&path),
            Err(SnapshotError::TooShort { .. })
        ));
        std::fs::write(&path, vec![0u8; 64]).expect("write");
        assert!(matches!(Scorer::load(&path), Err(SnapshotError::BadMagic)));
        std::fs::remove_file(&path).ok();
    }
}
