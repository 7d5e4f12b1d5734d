//! The cross-source identity battery: a scorer serving a **v2 file**
//! (memory-mapped), one serving a **v1 file** (converted to v2 bytes at
//! load), and one built **in memory** with `Scorer::new` (also converted)
//! must be *byte-identical* on arbitrary generated snapshots, for every
//! query surface the service exposes:
//!
//! * `/top` render bodies at a spread of K values (including 0 and
//!   over-ask);
//! * `/pipe` point lookups for every present id and for misses;
//! * `/model`, whose only legitimate difference is the reported source
//!   (`"format":"v2","loader":"mmap"` for the mapped file, `"v1"`/`"heap"`
//!   for the other two);
//! * the global top-K k-way merge over a fleet of each source (results
//!   *and* rendered bodies);
//! * and full HTTP end-to-end: `/top`, `/pipe`, `/batch`, `/model`, and
//!   `POST /aggregate` (grouping, budget selection) over live servers.
//!
//! `/metrics` is deliberately excluded: it carries each server's own
//! counters.

mod common;

use common::snapgen::{save_to_temp, ARB_SNAPSHOT};
use common::{get_once, post_once};
use pipefail_core::snapshot::{Snapshot, SnapshotFormat};
use pipefail_network::ids::PipeId;
use pipefail_serve::http::{render_global_top_k, render_model, render_top_k};
use pipefail_serve::{serve, Scorer, ServeContext, ServerConfig, ServerHandle, ShardSet};
use proptest::prelude::*;
use std::sync::Arc;

/// The same snapshot from all three sources: `[v2 file, v1 file, in
/// memory]`, plus the two temp files to remove afterwards.
fn three_sources(snap: &Snapshot, tag: &str) -> ([Scorer; 3], [std::path::PathBuf; 2]) {
    let v2_path = save_to_temp(snap, &format!("{tag}_v2"), SnapshotFormat::V2);
    let v1_path = save_to_temp(snap, &format!("{tag}_v1"), SnapshotFormat::V1);
    let v2 = Scorer::load(&v2_path).expect("v2 load");
    let v1 = Scorer::load(&v1_path).expect("v1 load");
    ([v2, v1, Scorer::new(snap.clone())], [v2_path, v1_path])
}

/// A `/model` body with the mapped file's source fields rewritten to the
/// converted sources' — the one difference the three may show.
fn as_converted(model_body: &str) -> String {
    model_body.replace("\"format\":\"v2\",\"loader\":\"mmap\"", "\"format\":\"v1\",\"loader\":\"heap\"")
}

fn start(scorer: Scorer) -> ServerHandle {
    serve(Arc::new(ServeContext::new(scorer)), &ServerConfig::default()).expect("server starts")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Library-level identity: top-K renders, every point lookup, misses,
    /// attribute views, section metadata, and `/model` agree across the
    /// three sources.
    #[test]
    fn v2_file_v1_file_and_in_memory_scorers_answer_byte_identically(snap in &ARB_SNAPSHOT) {
        let ([mapped, v1, memory], paths) = three_sources(&snap, "ident");

        // The v2 file really is served zero-copy; the others own their
        // converted bytes.
        prop_assert_eq!(mapped.mapped(), cfg!(unix));
        prop_assert!(!v1.mapped());
        prop_assert!(!memory.mapped());

        let n = snap.len();
        for k in [0, 1, 2, n / 2, n, n + 7, usize::MAX] {
            let body = render_top_k(&mapped, k);
            prop_assert!(body == render_top_k(&v1, k), "v2 vs v1 /top differs at k={}", k);
            prop_assert!(body == render_top_k(&memory, k), "v2 vs in-memory /top differs at k={}", k);
        }

        // Every present pipe hits identically; ids straddling the key
        // space miss identically.
        for &(pipe, _) in &snap.scores {
            let got = mapped.risk_of(pipe);
            prop_assert_eq!(got, v1.risk_of(pipe));
            prop_assert_eq!(got, memory.risk_of(pipe));
            prop_assert!(got.is_some(), "present id {} missed", pipe.0);
        }
        let max_id = snap.scores.iter().map(|s| (s.0).0).max().unwrap_or(0);
        for miss in [max_id + 1, max_id + 1000, u32::MAX] {
            prop_assert_eq!(mapped.risk_of(PipeId(miss)), v1.risk_of(PipeId(miss)));
            prop_assert_eq!(memory.risk_of(PipeId(miss)), None);
        }

        // Attribute presence and every per-pipe attribute value agree —
        // including the non-extractable (shuffled-field) sections every
        // source must decode from the summary blob.
        for other in [&v1, &memory] {
            match (mapped.attributes(), other.attributes()) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.len(), b.len());
                    for i in 0..a.len() {
                        prop_assert!(a.length_m(i) == b.length_m(i), "length_m[{}]", i);
                        prop_assert!(a.material_index(i) == b.material_index(i), "material[{}]", i);
                        prop_assert!(a.laid_year(i) == b.laid_year(i), "laid_year[{}]", i);
                    }
                }
                (a, b) => prop_assert!(false, "attribute presence differs: mapped {} other {}",
                    a.is_some(), b.is_some()),
            }
        }

        // Section inventory and the whole /model body agree, up to the
        // reported source.
        prop_assert_eq!(mapped.sections_info(), v1.sections_info());
        prop_assert_eq!(mapped.sections_info(), memory.sections_info());
        let model = render_model(&memory);
        prop_assert_eq!(&render_model(&v1), &model);
        prop_assert_eq!(&as_converted(&render_model(&mapped)), &model);

        for p in paths {
            std::fs::remove_file(p).ok();
        }
    }

    /// The global top-K k-way merge over a fleet of mapped shards equals
    /// the merge over the same fleet from v1 files and from memory —
    /// merged entries and the rendered body both.
    #[test]
    fn global_top_k_is_identical_over_every_source_fleet(
        a in &ARB_SNAPSHOT, b in &ARB_SNAPSHOT, c in &ARB_SNAPSHOT, k in 0usize..48,
    ) {
        let mut snaps = [a, b, c];
        for (i, s) in snaps.iter_mut().enumerate() {
            s.region = format!("Region {i}"); // shard keys must be distinct
        }
        let mut fleets: [Vec<Scorer>; 3] = Default::default();
        let mut paths = Vec::new();
        for s in &snaps {
            let (scorers, files) = three_sources(s, "shard");
            for (fleet, scorer) in fleets.iter_mut().zip(scorers) {
                fleet.push(scorer);
            }
            paths.extend(files);
        }
        let [mapped, v1, memory] =
            fleets.map(|f| ShardSet::from_scorers(f).expect("distinct regions"));

        let gm = mapped.global_top_k(k).expect("no degraded shards");
        for other in [&v1, &memory] {
            let go = other.global_top_k(k).expect("no degraded shards");
            prop_assert_eq!(&gm, &go);
            prop_assert_eq!(render_global_top_k(&mapped, &gm, k), render_global_top_k(other, &go, k));
        }
        for p in paths {
            std::fs::remove_file(p).ok();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Full HTTP end-to-end: servers over the three sources answer
    /// byte-identical bodies for `/top`, `/pipe`, `/batch` (global top +
    /// point lookups), `/model` (up to the reported source), and
    /// `/aggregate`.
    #[test]
    fn live_servers_answer_identically_from_every_source(snap in &ARB_SNAPSHOT) {
        let n = snap.len();
        let some_id = snap.scores.first().map(|s| (s.0).0).unwrap_or(0);
        let ([mapped, v1, memory], paths) = three_sources(&snap, "e2e");
        prop_assert_eq!(mapped.mapped(), cfg!(unix));
        let servers = [start(mapped), start(v1), start(memory)];
        let labels = ["v2 file", "v1 file", "in memory"];

        let gets = [
            "/top?k=5".to_string(),
            format!("/top?k={n}"),
            "/top?k=0".to_string(),
            format!("/pipe?id={some_id}"),
            "/pipe?id=4294967295".to_string(),
            "/health".to_string(),
            "/model".to_string(),
        ];
        // Aggregations scan the attribute columns in place; specs cover
        // grouping, multi-aggregate, and the budget path. Snapshots
        // without attributes must *refuse* identically too.
        let specs = [
            r#"{"group_by":["material"],"aggregates":[{"op":"count"},{"op":"sum","field":"length_m"},{"op":"avg","field":"risk"}]}"#,
            r#"{"group_by":["decade"],"aggregates":[{"op":"count"},{"op":"max","field":"risk"}],"top_groups":3}"#,
            r#"{"aggregates":[{"op":"count"},{"op":"sum","field":"length_m"}],"budget":5000.0}"#,
        ];
        let batch = format!("top 5\npipe {some_id}\npipe 4294967295");
        let answers = |h: &ServerHandle| {
            let mut out: Vec<(u16, String)> = gets
                .iter()
                .map(|p| {
                    let r = get_once(h.addr(), p);
                    (r.status, as_converted(&r.body))
                })
                .collect();
            let r = post_once(h.addr(), "/batch", &batch);
            out.push((r.status, r.body));
            for spec in specs {
                let r = post_once(h.addr(), "/aggregate", spec);
                out.push((r.status, r.body));
            }
            out
        };
        let reference = answers(&servers[0]);
        for (h, label) in servers.iter().zip(labels).skip(1) {
            let got = answers(h);
            for (i, (want, got)) in reference.iter().zip(&got).enumerate() {
                prop_assert!(want == got, "answer {} from the {} server:\n  v2 file: {:?}\n  {}: {:?}",
                    i, label, want, label, got);
            }
        }
        for h in servers {
            h.shutdown();
        }
        for p in paths {
            std::fs::remove_file(p).ok();
        }
    }
}
