//! Correctness checks on every response.
//!
//! Expected `/pipe`, `/top`, `/batch` and global `/top` bodies are
//! rendered here from the closed-form fleet (the body formats are the
//! ones `docs/SERVING.md` documents) and compared byte for byte; the
//! global merge is computed here, independently of the server's. Aggregate
//! bodies are checked for shape during the run and for byte identity
//! across topologies on a seeded sample afterwards.

use crate::client::Response;
use crate::data::{Fleet, Region, MODEL};
use crate::mix::{Expect, Request};
use std::fmt::Write as _;

fn write_risk(out: &mut String, id: u32, score: f64, rank: usize) {
    let _ = write!(out, "{{\"pipe\":{id},\"score\":{score},\"rank\":{rank}}}");
}

/// Expected `/pipe` body for pipe `id` of `region`.
pub fn pipe_body(region: &Region, id: u32) -> Option<String> {
    let rank = region.rank_of(id)?;
    let mut out = String::new();
    write_risk(&mut out, id, region.score_at(rank), rank);
    Some(out)
}

/// Expected region `/top` body.
pub fn top_body(region: &Region, k: usize) -> String {
    let k = k.min(region.n as usize);
    let mut out = format!(
        "{{\"model\":\"{MODEL}\",\"region\":\"{}\",\"k\":{k},\"results\":[",
        region.name
    );
    for rank in 0..k {
        if rank > 0 {
            out.push(',');
        }
        write_risk(&mut out, region.id_at(rank), region.score_at(rank), rank);
    }
    out.push_str("]}");
    out
}

/// The global top `k`: `(region index, rank in region)` by descending
/// score, ties to the earlier region in key order.
pub fn merge(fleet: &Fleet, k: usize) -> Vec<(usize, usize)> {
    let mut all: Vec<(usize, usize)> = fleet
        .regions
        .iter()
        .enumerate()
        .flat_map(|(s, r)| (0..k.min(r.n as usize)).map(move |rank| (s, rank)))
        .collect();
    all.sort_by(|a, b| {
        let sa = fleet.regions[a.0].score_at(a.1);
        let sb = fleet.regions[b.0].score_at(b.1);
        sb.total_cmp(&sa).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1))
    });
    all.truncate(k);
    all
}

/// Expected region-less `/top?k=K` body.
pub fn global_body(fleet: &Fleet, k: usize) -> String {
    let mut out = format!(
        "{{\"k\":{k},\"shards\":{},\"results\":[",
        fleet.regions.len()
    );
    for (g, (s, rank)) in merge(fleet, k).into_iter().enumerate() {
        if g > 0 {
            out.push(',');
        }
        let r = &fleet.regions[s];
        let _ = write!(
            out,
            "{{\"pipe\":{},\"score\":{},\"rank\":{g},\"region\":\"{}\",\"shard_rank\":{rank}}}",
            r.id_at(rank),
            r.score_at(rank),
            r.key
        );
    }
    out.push_str("]}");
    out
}

/// Expected `/batch` body for `region=R pipe ID` lines.
pub fn batch_body(fleet: &Fleet, lines: &[(usize, u32)]) -> String {
    let mut out = String::from("{\"results\":[");
    for (i, &(s, id)) in lines.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match pipe_body(&fleet.regions[s], id) {
            Some(body) => {
                let _ = write!(out, "{{\"pipe_risk\":{body}}}");
            }
            None => out.push_str("{\"pipe_risk\":null}"),
        }
    }
    out.push_str("]}");
    out
}

/// Checks responses against the fleet a server holds.
pub struct Checker {
    fleet: Fleet,
    tops: Vec<String>,
    global: String,
}

impl Checker {
    /// A checker for `fleet` (region `/top?k=10` and global `/top?k=100`
    /// bodies are rendered once up front).
    pub fn new(fleet: Fleet) -> Self {
        let tops = fleet.regions.iter().map(|r| top_body(r, 10)).collect();
        let global = global_body(&fleet, 100);
        Self {
            fleet,
            tops,
            global,
        }
    }

    /// The fleet being checked against.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// `Ok` when `resp` is the right answer to `req`.
    pub fn check(&self, req: &Request, resp: &Response) -> Result<(), String> {
        if let Expect::NotModified { etag } = &req.expect {
            if resp.status != 304 {
                return Err(format!("conditional GET answered {}", resp.status));
            }
            return match &resp.etag {
                Some(t) if t == etag => Ok(()),
                other => Err(format!("304 carried ETag {other:?}, sent {etag:?}")),
            };
        }
        if resp.status != 200 {
            return Err(format!("{} answered {}", req.class.label(), resp.status));
        }
        if resp.partial {
            return Err(format!("{} answered a partial body", req.class.label()));
        }
        let want = match &req.expect {
            Expect::Pipe { region, id } => pipe_body(&self.fleet.regions[*region], *id)
                .ok_or_else(|| format!("pipe {id} is not in the fleet"))?,
            Expect::Top { region, k } if *k == 10 => self.tops[*region].clone(),
            Expect::Top { region, k } => top_body(&self.fleet.regions[*region], *k),
            Expect::GlobalTop { k } if *k == 100 => self.global.clone(),
            Expect::GlobalTop { k } => global_body(&self.fleet, *k),
            Expect::Batch(lines) => batch_body(&self.fleet, lines),
            Expect::Aggregate { spec } => return aggregate_shape(spec, &resp.body),
            Expect::NotModified { .. } => unreachable!("handled above"),
        };
        if resp.body != want.as_bytes() {
            return Err(format!(
                "{} body differs: got {:.120}, want {:.120}",
                req.class.label(),
                resp.text(),
                want
            ));
        }
        Ok(())
    }
}

/// Shape check for an aggregate body: a `groups` array, plus the budget
/// summary when the spec asked for one.
pub fn aggregate_shape(spec: &str, body: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "aggregate body is not UTF-8".to_string())?;
    if !text.starts_with("{\"groups\":[") || !text.ends_with('}') {
        return Err(format!("aggregate body malformed: {text:.120}"));
    }
    if spec.contains("\"budget\"") != text.contains("\"budget\":{") {
        return Err(format!("aggregate budget summary mismatch: {text:.120}"));
    }
    Ok(())
}

/// Byte identity of one spec's answer across two topologies.
pub fn same_across(spec: &str, a: &Response, b: &Response) -> Result<(), String> {
    for (name, r) in [("sharded", a), ("federated", b)] {
        if r.status != 200 || r.partial {
            return Err(format!(
                "{name} answered {} (partial={}) to {spec}",
                r.status, r.partial
            ));
        }
    }
    if a.body != b.body {
        return Err(format!(
            "topologies diverge on {spec}: {:.120} vs {:.120}",
            a.text(),
            b.text()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Fleet;
    use crate::mix::{Class, Generator, LOOKUP};
    use pipefail::serve::{http, merge_top_k, Scorer, ShardSet};

    fn resp(body: String) -> Response {
        Response {
            status: 200,
            etag: None,
            partial: false,
            body: body.into_bytes(),
        }
    }

    fn scorers(fleet: &Fleet) -> Vec<Scorer> {
        fleet
            .regions
            .iter()
            .map(|r| Scorer::new(r.snapshot(3, false)))
            .collect()
    }

    #[test]
    fn expected_bodies_match_the_servers_renderers() {
        let fleet = Fleet::new(3, "zone", 4, 500, 0, false);
        let set = ShardSet::from_scorers(scorers(&fleet)).expect("shards");
        for (region, shard) in fleet.regions.iter().zip(set.shards()) {
            let scorer = shard.last_good();
            assert_eq!(top_body(region, 10), http::render_top_k(&scorer, 10));
            for id in [0u32, 17, 499] {
                let risk = scorer
                    .risk_of(pipefail::network::PipeId(id))
                    .expect("ranked");
                assert_eq!(
                    pipe_body(region, id).expect("in range"),
                    http::render_pipe_risk(&risk)
                );
            }
        }
        let merged = set.global_top_k(100).expect("healthy");
        assert_eq!(
            global_body(&fleet, 100),
            http::render_global_top_k(&set, &merged, 100)
        );
        let views: Vec<_> = set.shards().iter().map(|s| s.last_good()).collect();
        let tables: Vec<_> = views.iter().map(|s| s.top_k(100)).collect();
        assert_eq!(merge_top_k(&tables, 100).len(), merge(&fleet, 100).len());
    }

    #[test]
    fn checker_rejects_a_mutated_body() {
        let fleet = Fleet::new(3, "zone", 8, 500, 0, false);
        let checker = Checker::new(fleet.clone());
        let mut g = Generator::new(LOOKUP, 3, &fleet, 0, 1);
        for class in [Class::Pipe, Class::Top, Class::GlobalTop, Class::Batch] {
            let req = g.make(class);
            let good = match &req.expect {
                Expect::Pipe { region, id } => pipe_body(&fleet.regions[*region], *id).expect("in"),
                Expect::Top { region, k } => top_body(&fleet.regions[*region], *k),
                Expect::GlobalTop { k } => global_body(&fleet, *k),
                Expect::Batch(lines) => batch_body(&fleet, lines),
                _ => unreachable!(),
            };
            assert_eq!(checker.check(&req, &resp(good.clone())), Ok(()));
            // Flip one digit of the first score.
            let at = good.find("\"score\":").expect("score") + 9;
            let mut bad = good.clone().into_bytes();
            bad[at] = if bad[at] == b'1' { b'2' } else { b'1' };
            let bad = String::from_utf8(bad).expect("ascii");
            assert!(checker.check(&req, &resp(bad)).is_err(), "{class:?}");
            // Wrong status and partial bodies fail too.
            let mut r = resp(good.clone());
            r.status = 503;
            assert!(checker.check(&req, &r).is_err());
            let mut r = resp(good);
            r.partial = true;
            assert!(checker.check(&req, &r).is_err());
        }
        // A 304 must carry the ETag that was sent.
        g.learn_etag(0, "\"e1\"".into());
        let req = loop {
            let r = g.make(Class::Conditional);
            if matches!(&r.expect, Expect::NotModified { etag } if etag == "\"e1\"") {
                break r;
            }
        };
        let mut r = resp(String::new());
        r.status = 304;
        r.etag = Some("\"e1\"".into());
        assert_eq!(checker.check(&req, &r), Ok(()));
        r.etag = Some("\"e2\"".into());
        assert!(checker.check(&req, &r).is_err());
        r.status = 200;
        assert!(checker.check(&req, &r).is_err());
    }

    #[test]
    fn cross_topology_divergence_is_rejected() {
        let spec = r#"{"group_by":["region"],"aggregates":[{"op":"count"}]}"#;
        let a = resp(r#"{"groups":[{"key":{"region":"area_0"},"count":5}]}"#.into());
        assert_eq!(same_across(spec, &a, &a.clone()), Ok(()));
        let b = resp(r#"{"groups":[{"key":{"region":"area_0"},"count":6}]}"#.into());
        assert!(same_across(spec, &a, &b).is_err());
        let mut p = a.clone();
        p.partial = true;
        assert!(same_across(spec, &a, &p).is_err());
        assert!(aggregate_shape(spec, &a.body).is_ok());
        assert!(aggregate_shape(spec, b"{\"error\":1}").is_err());
        let budget =
            r#"{"group_by":["region"],"aggregates":[{"op":"count"}],"budget":{"length_m":5}}"#;
        assert!(aggregate_shape(budget, &a.body).is_err());
    }
}
