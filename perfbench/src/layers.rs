//! Per-layer metrics of the traced run.
//!
//! Every traced run reports every name below. A layer the workload does
//! not run reads 0 and is listed as "not exercised" in the report; a
//! class tail that has fewer than ten samples beyond it reads 0 and is
//! listed as refused.

use std::collections::BTreeMap;

/// Per-layer metric names and units, in report order.
pub const NAMES: &[(&str, &str)] = &[
    ("http.class.pipe.p50_us", "us"),
    ("http.class.pipe.p99_us", "us"),
    ("http.class.top.p50_us", "us"),
    ("http.class.top.p99_us", "us"),
    ("http.class.global_top.p50_us", "us"),
    ("http.class.global_top.p99_us", "us"),
    ("http.class.batch.p50_us", "us"),
    ("http.class.batch.p99_us", "us"),
    ("http.class.conditional.p50_us", "us"),
    ("http.class.conditional.p99_us", "us"),
    ("http.class.aggregate_budget.p50_us", "us"),
    ("http.class.aggregate_budget.p99_us", "us"),
    ("http.class.aggregate_scan.p50_us", "us"),
    ("http.class.aggregate_scan.p99_us", "us"),
    ("http.class.aggregate_dashboard.p50_us", "us"),
    ("http.class.aggregate_dashboard.p99_us", "us"),
    ("http.keepalive_reuses", "count"),
    ("http.admission_rejected", "count"),
    ("http.connections_shed", "count"),
    ("parser.parse_ns", "ns"),
    ("scorer.risk_of_ns", "ns"),
    ("scorer.top_k_ns", "ns"),
    ("http.render_pipe_risk_ns", "ns"),
    ("http.render_top_k_ns", "ns"),
    ("shards.global_top_k_ns", "ns"),
    ("shards.merge_top_k_ns", "ns"),
    ("http.render_global_top_k_ns", "ns"),
    ("shards.request_imbalance", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.coalesced_waits", "count"),
    ("cache.resident_bytes", "bytes"),
    ("aggregate.spec_parse_ns", "ns"),
    ("aggregate.partial_ms.budget", "ms"),
    ("aggregate.partial_ms.scan", "ms"),
    ("aggregate.partial_ms.dashboard", "ms"),
    ("aggregate.partial_bytes.budget", "bytes"),
    ("aggregate.partial_bytes.scan", "bytes"),
    ("aggregate.partial_bytes.dashboard", "bytes"),
    ("federation.hop_us", "us"),
    ("federation.retries", "count"),
    ("federation.hedges", "count"),
    ("federation.hedge_wins", "count"),
    ("federation.probe_failures", "count"),
    ("federation.attempts_per_request", "ratio"),
    ("reload.ok", "count"),
    ("reload.failed", "count"),
    ("reload.visible_ms", "ms"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.validate_ms", "ms"),
    ("scorer.load_ms", "ms"),
    ("shards.load_ms", "ms"),
    ("metrics.render_us", "us"),
    ("synth.world_build_ms", "ms"),
    ("core.dpmhbp.fit_ms", "ms"),
    ("core.hbp.fit_ms", "ms"),
    ("core.ranksvm.fit_ms", "ms"),
    ("baselines.cox.fit_ms", "ms"),
    ("baselines.weibull.fit_ms", "ms"),
    ("eval.curves_ms", "ms"),
    ("snapshot.save_ms", "ms"),
    ("eval.fit_retries", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_p50_pct", "%"),
    ("trace.overhead_throughput_pct", "%"),
];

/// Layer metrics that public APIs cannot reach today; they need spans
/// inside the program and are reported by name only.
pub const DEFERRED: &[(&str, &str)] = &[
    (
        "http.queue_wait_us",
        "time a parsed request waits for a worker",
    ),
    (
        "http.write_drain_us",
        "time from response render to last byte written",
    ),
    (
        "cache.lookup_ns",
        "cost of a cache probe inside the caching handler",
    ),
    (
        "aggregate.kernel_ns_per_pipe",
        "shard_partial scan cost per pipe inside a request",
    ),
    (
        "federation.dial_us",
        "backend connect time inside the relay",
    ),
    (
        "federation.exchange_us",
        "per-backend exchange time inside the relay",
    ),
    ("federation.merge_us", "front-end merge of backend partials"),
];

/// Measured values; names not set read 0.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Record `name` (must be listed in [`NAMES`]).
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = NAMES
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not listed"));
        self.values.insert(key, value);
    }

    /// Value of `name`, 0 when not measured.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Report lines: every measured value, then the names this workload
    /// does not exercise, then the deferred names.
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut idle = Vec::new();
        for (name, unit) in NAMES {
            match self.values.get(name) {
                Some(v) => out.push(format!("layer {name} = {v} {unit}")),
                None => idle.push(*name),
            }
        }
        out.push(format!(
            "layer not exercised by this workload (reported as 0): {}",
            idle.join(", ")
        ));
        for (name, what) in DEFERRED {
            out.push(format!(
                "layer deferred to in-program tracing: {name} ({what})"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in NAMES {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric())
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(!unit.is_empty() && unit.len() <= 16);
        }
        assert!(NAMES.len() <= 128);
    }
}
