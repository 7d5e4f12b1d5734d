//! Request mixes.
//!
//! Each client cycles through its own shuffled deck of request classes
//! whose counts are exactly the stated shares, so every run sends the
//! same class proportions and only the seeded parameters (region, pipe
//! id, spec) vary. Parameters are drawn from the client's seeded stream
//! just before the request is sent, which keeps the load generator's
//! memory constant however fast the server is.

use crate::client;
use crate::data::{Fleet, Rng};

/// Deck length: every stated share is a whole number of slots.
pub const DECK: usize = 1000;

/// Requests per `POST /batch`.
pub const BATCH_LINES: usize = 32;

/// A request class of some workload's mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// `GET /pipe?region=R&id=…`
    Pipe,
    /// `GET /top?region=R&k=10`
    Top,
    /// Region-less `GET /top?k=100` (the k-way merge).
    GlobalTop,
    /// `POST /batch` of region-prefixed lines.
    Batch,
    /// `GET /top?region=R&k=10` with `If-None-Match` (the 304 path).
    Conditional,
    /// `POST /aggregate` with a renewal budget.
    AggregateBudget,
    /// `POST /aggregate` full-scan group-by with a unique `top_groups`.
    AggregateScan,
    /// `POST /aggregate` with one of four fixed dashboard specs.
    AggregateDashboard,
}

impl Class {
    /// Every class, in report order.
    #[cfg(test)]
    pub const ALL: [Class; 8] = [
        Class::Pipe,
        Class::Top,
        Class::GlobalTop,
        Class::Batch,
        Class::Conditional,
        Class::AggregateBudget,
        Class::AggregateScan,
        Class::AggregateDashboard,
    ];

    /// Metric label.
    pub fn label(self) -> &'static str {
        match self {
            Class::Pipe => "pipe",
            Class::Top => "top",
            Class::GlobalTop => "global_top",
            Class::Batch => "batch",
            Class::Conditional => "conditional",
            Class::AggregateBudget => "aggregate_budget",
            Class::AggregateScan => "aggregate_scan",
            Class::AggregateDashboard => "aggregate_dashboard",
        }
    }

    /// Whether the class is an `/aggregate` request.
    #[cfg(test)]
    pub fn is_aggregate(self) -> bool {
        matches!(
            self,
            Class::AggregateBudget | Class::AggregateScan | Class::AggregateDashboard
        )
    }
}

/// A workload's mix: classes with their share in deck slots (per mille).
pub type Mix = &'static [(Class, usize)];

/// `lookup`: request-path overhead over a million pipes.
pub const LOOKUP: Mix = &[
    (Class::Pipe, 550),
    (Class::Top, 200),
    (Class::GlobalTop, 150),
    (Class::Batch, 50),
    (Class::Conditional, 50),
];

/// `analytics`: the `/aggregate` kernel under reload churn.
pub const ANALYTICS: Mix = &[
    (Class::AggregateBudget, 600),
    (Class::AggregateScan, 250),
    (Class::AggregateDashboard, 150),
];

/// `federated`: the relay hop and front-end merge; its 10% aggregate
/// share is drawn with the `analytics` proportions.
pub const FEDERATED: Mix = &[
    (Class::Pipe, 400),
    (Class::Top, 350),
    (Class::GlobalTop, 150),
    (Class::AggregateBudget, 60),
    (Class::AggregateScan, 25),
    (Class::AggregateDashboard, 15),
];

/// A shuffled deck of [`DECK`] classes with exactly the mix's counts.
pub fn deck(mix: Mix, rng: &mut Rng) -> Vec<Class> {
    let mut deck: Vec<Class> = mix
        .iter()
        .flat_map(|&(class, n)| std::iter::repeat_n(class, n))
        .collect();
    assert_eq!(deck.len(), DECK, "mix shares must sum to {DECK}");
    for i in (1..deck.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        deck.swap(i, j);
    }
    deck
}

/// What a response must be checked against.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Pipe `id` of region index `region`.
    Pipe { region: usize, id: u32 },
    /// Top `k` of region index `region`.
    Top { region: usize, k: usize },
    /// Global top `k` over every region.
    GlobalTop { k: usize },
    /// One `/batch` answer line per `(region, id)`.
    Batch(Vec<(usize, u32)>),
    /// A 304 carrying this ETag.
    NotModified { etag: String },
    /// A well-formed aggregate body; `spec` is kept for the cross-topology
    /// sample.
    Aggregate { spec: String },
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Its class.
    pub class: Class,
    /// The wire bytes.
    pub bytes: Vec<u8>,
    /// Its check.
    pub expect: Expect,
}

/// Generates `/aggregate` specs from the seed.
#[derive(Debug, Clone)]
pub struct SpecGen {
    total_length_m: f64,
    /// Distinguishes this client's `top_groups` values from other clients'.
    client: u64,
    clients: u64,
    seq: u64,
}

const GROUP_KEYS: [&str; 3] = ["region", "material", "decade"];
const OPS: [&str; 4] = ["sum", "avg", "min", "max"];
const FIELDS: [&str; 2] = ["risk", "length_m"];

/// The four fixed dashboard specs.
pub const DASHBOARDS: [&str; 4] = [
    r#"{"group_by":["region"],"aggregates":[{"op":"count"},{"op":"sum","field":"length_m"},{"op":"avg","field":"risk"}]}"#,
    r#"{"group_by":["material"],"aggregates":[{"op":"count"},{"op":"max","field":"risk"}]}"#,
    r#"{"group_by":["decade"],"aggregates":[{"op":"sum","field":"risk"},{"op":"min","field":"length_m"}]}"#,
    r#"{"group_by":["region","material"],"aggregates":[{"op":"count"},{"op":"avg","field":"length_m"}]}"#,
];

impl SpecGen {
    /// A generator for client `client` of `clients` over a network of
    /// `total_length_m` metres.
    pub fn new(total_length_m: f64, client: usize, clients: usize) -> Self {
        Self {
            total_length_m,
            client: client as u64,
            clients: clients.max(1) as u64,
            seq: 0,
        }
    }

    fn group_and_aggregates(rng: &mut Rng) -> String {
        let mut keys: Vec<&str> = Vec::new();
        let n_keys = 1 + rng.below(2) as usize;
        while keys.len() < n_keys {
            let k = GROUP_KEYS[rng.below(3) as usize];
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        let mut aggs = vec![r#"{"op":"count"}"#.to_string()];
        let n_aggs = 2 + rng.below(3) as usize;
        while aggs.len() < n_aggs {
            let agg = format!(
                r#"{{"op":"{}","field":"{}"}}"#,
                OPS[rng.below(4) as usize],
                FIELDS[rng.below(2) as usize]
            );
            if !aggs.contains(&agg) {
                aggs.push(agg);
            }
        }
        let keys: Vec<String> = keys.iter().map(|k| format!("\"{k}\"")).collect();
        format!(
            r#""group_by":[{}],"aggregates":[{}]"#,
            keys.join(","),
            aggs.join(",")
        )
    }

    /// A renewal-budget spec: budget = f × network length, f log-uniform
    /// on 0.5%–20%, so every key is unique.
    pub fn budget(&mut self, rng: &mut Rng) -> String {
        let f = (0.005f64.ln() + rng.unit() * (0.2f64.ln() - 0.005f64.ln())).exp();
        format!(
            r#"{{{},"budget":{{"length_m":{}}}}}"#,
            Self::group_and_aggregates(rng),
            f * self.total_length_m
        )
    }

    /// A full-scan spec with a `top_groups` no other request of the run
    /// carries.
    pub fn scan(&mut self, rng: &mut Rng) -> String {
        self.seq += 1;
        let top = 1 + self.client + self.clients * self.seq;
        format!(
            r#"{{{},"top_groups":{top}}}"#,
            Self::group_and_aggregates(rng)
        )
    }

    /// One of the four dashboard specs.
    pub fn dashboard(rng: &mut Rng) -> String {
        DASHBOARDS[rng.below(4) as usize].to_string()
    }

    /// A spec of aggregate class `class`.
    pub fn spec(&mut self, class: Class, rng: &mut Rng) -> String {
        match class {
            Class::AggregateBudget => self.budget(rng),
            Class::AggregateScan => self.scan(rng),
            _ => Self::dashboard(rng),
        }
    }
}

/// Turns deck slots into concrete requests for one client.
pub struct Generator {
    deck: Vec<Class>,
    pos: usize,
    rng: Rng,
    specs: SpecGen,
    n_regions: usize,
    pipes_per_region: u32,
    keys: Vec<String>,
    /// ETags of `/top?region=R&k=10`, by region, for conditional GETs.
    etags: Vec<Option<String>>,
}

impl Generator {
    /// The generator for client `client` of `clients`.
    pub fn new(mix: Mix, seed: u64, fleet: &Fleet, client: usize, clients: usize) -> Self {
        let mut rng = Rng::new(&[seed, 0xC11E, client as u64]);
        let deck = deck(mix, &mut rng);
        Self {
            deck,
            pos: 0,
            rng,
            specs: SpecGen::new(fleet.total_length_m(), client, clients),
            n_regions: fleet.regions.len(),
            pipes_per_region: fleet.regions[0].n,
            keys: fleet.regions.iter().map(|r| r.key.clone()).collect(),
            etags: vec![None; fleet.regions.len()],
        }
    }

    /// Remember the ETag a region's `/top?k=10` carried.
    pub fn learn_etag(&mut self, region: usize, etag: String) {
        self.etags[region] = Some(etag);
    }

    /// The `/top?region=R&k=10` target for region index `region`.
    pub fn top_target(&self, region: usize) -> String {
        format!("/top?region={}&k=10", self.keys[region])
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.n_regions
    }

    /// The next request.
    pub fn next_request(&mut self) -> Request {
        let class = self.deck[self.pos];
        self.pos = (self.pos + 1) % self.deck.len();
        self.make(class)
    }

    /// A request of `class` with fresh parameters.
    pub fn make(&mut self, class: Class) -> Request {
        let region = self.rng.below(self.n_regions as u64) as usize;
        let (bytes, expect) = match class {
            Class::Pipe => {
                let id = self.rng.below(u64::from(self.pipes_per_region)) as u32;
                let target = format!("/pipe?region={}&id={id}", self.keys[region]);
                (client::get(&target, None), Expect::Pipe { region, id })
            }
            Class::Top => (
                client::get(&self.top_target(region), None),
                Expect::Top { region, k: 10 },
            ),
            Class::GlobalTop => (
                client::get("/top?k=100", None),
                Expect::GlobalTop { k: 100 },
            ),
            Class::Batch => {
                let mut body = String::new();
                let mut lines = Vec::with_capacity(BATCH_LINES);
                for _ in 0..BATCH_LINES {
                    let r = self.rng.below(self.n_regions as u64) as usize;
                    let id = self.rng.below(u64::from(self.pipes_per_region)) as u32;
                    body.push_str(&format!("region={} pipe {id}\n", self.keys[r]));
                    lines.push((r, id));
                }
                (client::post("/batch", &body), Expect::Batch(lines))
            }
            Class::Conditional => {
                let etag = self.etags[region].clone().unwrap_or_default();
                (
                    client::get(&self.top_target(region), Some(&etag)),
                    Expect::NotModified { etag },
                )
            }
            Class::AggregateBudget | Class::AggregateScan | Class::AggregateDashboard => {
                let spec = self.specs.spec(class, &mut self.rng);
                (
                    client::post("/aggregate", &spec),
                    Expect::Aggregate { spec },
                )
            }
        };
        Request {
            class,
            bytes,
            expect,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(deck: &[Class]) -> Vec<(Class, usize)> {
        let mut out: Vec<(Class, usize)> = Vec::new();
        for c in Class::ALL {
            let n = deck.iter().filter(|d| **d == c).count();
            if n > 0 {
                out.push((c, n));
            }
        }
        out
    }

    #[test]
    fn each_mix_matches_its_stated_shares_for_a_seed() {
        for (mix, name) in [
            (LOOKUP, "lookup"),
            (ANALYTICS, "analytics"),
            (FEDERATED, "federated"),
        ] {
            for seed in [1u64, 2, 99] {
                let fleet = if name == "lookup" {
                    Fleet::new(seed, "zone", 8, 1000, 0, false)
                } else {
                    Fleet::new(seed, "area", 2, 1000, 0, true)
                };
                let mut g = Generator::new(mix, seed, &fleet, 0, 2);
                let drawn: Vec<Class> = (0..3 * DECK).map(|_| g.next_request().class).collect();
                let mut want: Vec<(Class, usize)> = mix.iter().map(|&(c, n)| (c, 3 * n)).collect();
                want.sort();
                assert_eq!(counts(&drawn), want, "{name} seed {seed}");
                // Same seed, same stream.
                let mut again = Generator::new(mix, seed, &fleet, 0, 2);
                let first: Vec<Vec<u8>> = (0..50).map(|_| again.next_request().bytes).collect();
                let mut g2 = Generator::new(mix, seed, &fleet, 0, 2);
                let second: Vec<Vec<u8>> = (0..50).map(|_| g2.next_request().bytes).collect();
                assert_eq!(first, second);
            }
        }
        // The federated aggregate slots keep the analytics proportions.
        let fed: Vec<(Class, usize)> = FEDERATED
            .iter()
            .copied()
            .filter(|(c, _)| c.is_aggregate())
            .collect();
        for ((c, n), (c2, m)) in fed.iter().zip(ANALYTICS) {
            assert_eq!(c, c2);
            assert_eq!(n * 10, *m);
        }
    }

    #[test]
    fn every_generated_spec_parses() {
        let mut rng = Rng::new(&[9]);
        let mut g = SpecGen::new(5000.0, 1, 2);
        for class in [
            Class::AggregateBudget,
            Class::AggregateScan,
            Class::AggregateDashboard,
        ] {
            for _ in 0..300 {
                let spec = g.spec(class, &mut rng);
                if let Err(e) = pipefail::serve::AggregateSpec::parse(&spec) {
                    panic!("{spec}: {e}");
                }
            }
        }
    }

    #[test]
    fn budget_specs_are_unique_and_in_range() {
        let mut rng = Rng::new(&[5]);
        let mut g = SpecGen::new(1000.0, 0, 2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            let spec = g.budget(&mut rng);
            let tail = spec.rsplit("\"length_m\":").next().expect("budget");
            let v: f64 = tail.trim_end_matches('}').parse().expect("number");
            assert!((5.0..=200.0).contains(&v), "{v}");
            assert!(seen.insert(spec));
            let scan = g.scan(&mut rng);
            assert!(seen.insert(scan));
        }
    }
}
