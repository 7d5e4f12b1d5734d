//! The `fit` workload: synth → models → eval → snapshot, no serving.
//!
//! Set-up builds `WorldConfig::paper().scaled(0.2)` from the seed. One
//! fit pass runs `evaluate_region` on every region with the paper's five
//! models and fast schedules, then a DPMHBP `fit_rank`, then freezes that
//! fit with `Snapshot::from_fit` plus the attribute section, saves it as
//! PFSNAP v2 and loads it back with `Scorer::load`. Passes cycle through
//! a few MCMC seeds derived from `--seed` until the window is over, and
//! always repeat the first one, so every run checks that the same seed
//! reproduces the same AUC table and ranking.

use crate::data::hash;
use crate::serving::Sizing;
use crate::stats;
use crate::trace::{self, Recorder, Span};
use crate::{procfs, Args, Report, WorkDir};
use pipefail::core::snapshot::{attributes_section, v2, Snapshot, SnapshotFormat};
use pipefail::eval::detection::DetectionCurve;
use pipefail::eval::metrics::{auc_at_fraction, full_auc, mann_whitney_auc, to_basis_points};
use pipefail::eval::report::format_auc_table;
use pipefail::eval::runner::{evaluate_region, fit_with_retry, ModelKind, RegionResult, RunConfig};
use pipefail::network::{Dataset, Material, TrainTestSplit};
use pipefail::prelude::{Dpmhbp, DpmhbpConfig, FailureModel, RiskRanking, WorldConfig};
use pipefail::serve::Scorer;
use std::hint::black_box;
use std::time::Instant;

/// World builds per run; `setup_s` is their median.
const BUILDS: usize = 9;

/// MCMC seeds the passes cycle through (derived from `--seed`), so the
/// reported pass time averages several chains instead of timing one.
const CHAINS: usize = 3;

/// Fit passes every run makes at least: every chain once, and the first
/// chain again for the determinism check.
const MIN_PASSES: usize = CHAINS + 1;

/// Entries compared between the fitted ranking and the reloaded snapshot.
const TOP_K: usize = 100;

/// World scale.
const SCALE: f64 = 0.2;

/// What one pass produced, for the determinism checks.
#[derive(Debug, Clone, PartialEq)]
struct PassOutcome {
    /// Every model's AUCs, bit-exact.
    auc_digest: u64,
    /// The printed AUC table.
    auc_table: String,
    /// DPMHBP ranking digest.
    ranking_digest: u64,
}

#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    retries: u64,
    errors: Vec<String>,
}

fn auc_digest(results: &[RegionResult]) -> u64 {
    let mut words = Vec::new();
    for r in results {
        for m in &r.models {
            words.push(hash(&m.model.bytes().map(u64::from).collect::<Vec<_>>()));
            words.push(m.auc_full.to_bits());
            words.push(m.auc_restricted_bp.to_bits());
            words.push(m.mann_whitney.map_or(0, f64::to_bits));
        }
    }
    hash(&words)
}

fn ranking_digest(ranking: &RiskRanking) -> u64 {
    let words: Vec<u64> = ranking
        .scores()
        .iter()
        .flat_map(|s| [u64::from(s.pipe.0), s.score.to_bits()])
        .collect();
    hash(&words)
}

fn metric_for(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::Dpmhbp => "core.dpmhbp.fit",
        ModelKind::Hbp(_) => "core.hbp.fit",
        ModelKind::RankSvm => "core.ranksvm.fit",
        ModelKind::Cox => "baselines.cox.fit",
        ModelKind::Weibull => "baselines.weibull.fit",
        _ => "core.other.fit",
    }
}

/// `evaluate_region`'s work with a span around each public call: the same
/// model fan-out on the same pool, each task recording into its own
/// recorder.
fn evaluate_traced(
    ds: &Dataset,
    split: &TrainTestSplit,
    config: RunConfig,
    seed: u64,
    parent: &Recorder,
    region: u64,
) -> (RegionResult, Vec<Span>) {
    let models = ModelKind::paper_five();
    let out = config.pool().run(models.len(), |m| {
        let kind = models[m];
        let mut rec = parent.child(1000 + (region as u32) * 16 + m as u32);
        let (ranking, report) = rec.time(metric_for(kind), region, || {
            fit_with_retry(kind, ds, split, config, seed)
        });
        let result = ranking.map(|ranking| {
            rec.time("eval.curves", region, || {
                let curve_count = DetectionCurve::by_count(&ranking, ds, split.test);
                let curve_length = DetectionCurve::by_length(&ranking, ds, split.test);
                let curve_length_density =
                    DetectionCurve::by_length_density(&ranking, ds, split.test);
                pipefail::eval::runner::ModelResult {
                    model: kind.display(),
                    auc_full: full_auc(&curve_count),
                    auc_restricted_bp: to_basis_points(auc_at_fraction(
                        &curve_count,
                        config.restricted_budget,
                    )),
                    mann_whitney: mann_whitney_auc(&ranking, ds, split.test),
                    curve_count,
                    curve_length,
                    curve_length_density,
                }
            })
        });
        (result, report, rec.into_spans())
    });
    let mut result = RegionResult {
        region: ds.name().to_string(),
        models: Vec::new(),
        fits: Vec::new(),
    };
    let mut spans = Vec::new();
    for (model, report, s) in out {
        result.models.extend(model);
        result.fits.push(report);
        spans.extend(s);
    }
    (result, spans)
}

/// One fit pass. Returns what the determinism checks compare.
fn pass(
    datasets: &[Dataset],
    config: RunConfig,
    seed: u64,
    work: &WorkDir,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<PassOutcome, String> {
    let split = TrainTestSplit::paper_protocol();
    let mut results = Vec::new();
    for (i, ds) in datasets.iter().enumerate() {
        let result = if rec.enabled() {
            let (r, spans) = evaluate_traced(ds, &split, config, seed, rec, i as u64);
            rec.absorb(spans);
            r
        } else {
            evaluate_region(ds, &split, &ModelKind::paper_five(), config, seed)
                .map_err(|e| e.to_string())?
        };
        tally.attempted += result.fits.len() as u64;
        tally.failed += result.failed_models().len() as u64;
        tally.retries += result
            .fits
            .iter()
            .map(|f| f.attempts.saturating_sub(1) as u64)
            .sum::<u64>();
        for m in result.failed_models() {
            tally.errors.push(format!("{m} failed on {}", ds.name()));
        }
        results.push(result);
    }

    let ds = &datasets[0];
    let mut model = Dpmhbp::new(DpmhbpConfig::fast());
    tally.attempted += 1;
    let rank_seed = hash(&[seed, 0x4A4E]);
    let ranking = rec
        .time("core.dpmhbp.fit_rank", 0, || {
            model.fit_rank(ds, &split, rank_seed)
        })
        .map_err(|e| {
            tally.failed += 1;
            format!("DPMHBP fit_rank: {e}")
        })?;
    let mut snap = Snapshot::from_fit(&model, ds.name(), rank_seed, &ranking);
    let scores = ranking.scores();
    snap.push_section(attributes_section(
        scores.iter().map(|s| ds.pipe_length_m(s.pipe)).collect(),
        scores
            .iter()
            .map(|s| {
                Material::ALL
                    .iter()
                    .position(|m| *m == ds.pipe(s.pipe).material)
                    .unwrap_or(0) as f64
            })
            .collect(),
        scores
            .iter()
            .map(|s| f64::from(ds.pipe(s.pipe).laid_year))
            .collect(),
    ));
    let path = work.path().join("fit.pfsnap");
    rec.time("snapshot.save_as", 0, || {
        snap.save_as(&path, SnapshotFormat::V2)
    })
    .map_err(|e| format!("save: {e}"))?;
    let scorer = rec
        .time("scorer.load", 0, || Scorer::load(&path))
        .map_err(|e| format!("load: {e}"))?;
    if !scorer.mapped() {
        return Err("the fitted snapshot did not load zero-copy".into());
    }
    let k = TOP_K.min(scores.len());
    let served: Vec<(u32, u64)> = scorer
        .top_k(k)
        .iter()
        .map(|r| (r.pipe.0, r.score.to_bits()))
        .collect();
    let fitted: Vec<(u32, u64)> = scores[..k]
        .iter()
        .map(|s| (s.pipe.0, s.score.to_bits()))
        .collect();
    if served != fitted {
        return Err("the reloaded snapshot's top-K differs from the fitted ranking".into());
    }
    Ok(PassOutcome {
        auc_digest: auc_digest(&results),
        auc_table: format_auc_table(&results),
        ranking_digest: ranking_digest(&ranking),
    })
}

/// Fit passes until `seconds` have passed (and at least [`MIN_PASSES`]).
fn window(
    datasets: &[Dataset],
    config: RunConfig,
    args: &Args,
    work: &WorkDir,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<(Vec<f64>, Vec<PassOutcome>), String> {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut outcomes = Vec::new();
    while times.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let chain = chain_seed(args.seed, times.len() % CHAINS);
        let t = Instant::now();
        rec.enter("fit.pass", times.len() as u64);
        let outcome = pass(datasets, config, chain, work, rec, tally);
        rec.exit();
        times.push(t.elapsed().as_secs_f64());
        outcomes.push(outcome?);
    }
    Ok((times, outcomes))
}

/// MCMC seed of chain `k`.
fn chain_seed(seed: u64, k: usize) -> u64 {
    hash(&[seed, 0xC4A1, k as u64])
}

/// Passes that used the same chain seed must agree bit for bit.
fn check_same(outcomes: &[PassOutcome], report: &mut Report) -> bool {
    let mut repeats = 0;
    for (i, o) in outcomes.iter().enumerate().skip(CHAINS) {
        repeats += 1;
        if *o != outcomes[i % CHAINS] {
            report.lines.push(format!(
                "FAILED (determinism): pass {i} and pass {} used the same seed but gave different AUC tables or rankings",
                i % CHAINS
            ));
            return false;
        }
    }
    report.lines.push(format!(
        "check: {repeats} repeated passes reproduced their chain's AUC table and DPMHBP ranking bit for bit (chain 0 digests {:016x} / {:016x})",
        outcomes[0].auc_digest, outcomes[0].ranking_digest
    ));
    true
}

/// Run the fit workload.
pub fn run(args: &Args, work: &WorkDir) -> Result<Report, String> {
    let sizing = Sizing::from_host();
    let mut report = Report::default();
    report.lines.push(format!(
        "perfbench workload=fit seed={} seconds={} trace={} nproc={} pool={} scale={SCALE} models=paper_five+dpmhbp_rank fast=true",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sizing.nproc,
        sizing.pool
    ));
    let config = WorldConfig::paper().scaled(SCALE);
    let mut builds = Vec::new();
    let mut world = None;
    for _ in 0..BUILDS {
        drop(world.take());
        let t = Instant::now();
        world = Some(black_box(config.build(args.seed)));
        builds.push(t.elapsed().as_secs_f64());
    }
    let world = world.expect("built");
    let datasets = world.regions();
    if let Err(e) = procfs::reset_peak_rss() {
        report.lines.push(format!("note: peak RSS not reset ({e})"));
    }
    let run_config = RunConfig {
        fast: true,
        threads: sizing.pool,
        ..RunConfig::default()
    };

    let mut tally = Tally::default();
    let mut off = Recorder::new(Instant::now(), 0, false);
    let cpu_start = procfs::cpu_seconds()?;
    let (times, outcomes) = window(datasets, run_config, args, work, &mut off, &mut tally)?;
    let cpu_s = procfs::cpu_seconds()? - cpu_start;
    let rss = procfs::peak_rss_mib()?;
    let mut correct = check_same(&outcomes, &mut report);

    let setup = stats::median(&builds).unwrap_or(f64::NAN);
    let fit_s = stats::median(&times).unwrap_or(f64::NAN);
    let total: f64 = times.iter().sum();
    let mut sorted_ms: Vec<f64> = times.iter().map(|t| t * 1e3).collect();
    stats::sort(&mut sorted_ms);
    report.end_to_end = vec![
        ("setup_s", setup),
        ("cpu_ms_per_op", cpu_s * 1e3 / times.len() as f64),
        ("rss_peak_mb", rss),
    ];
    let regions: Vec<String> = datasets
        .iter()
        .map(|d| format!("{} ({} pipes)", d.name(), d.pipes().len()))
        .collect();
    report.lines.push(format!("world: {}", regions.join(", ")));
    report.lines.push(format!(
        "metric setup_s = {setup} s (median of {BUILDS} world builds: {builds:?})"
    ));
    report.lines.push(format!(
        "metric fit_s = {fit_s} s (median of {} fit passes: {times:?})",
        times.len()
    ));
    report.lines.push(format!(
        "metric throughput_rps = {} 1/s (fit passes per second; one operation = one fit pass)",
        times.len() as f64 / total
    ));
    report.lines.push(format!(
        "metric latency_p50_ms = {} ms (median fit pass = fit_s)",
        fit_s * 1e3
    ));
    match stats::tail(&sorted_ms, 0.99) {
        Ok(v) => report.lines.push(format!("metric latency_p99_ms = {v} ms")),
        Err(r) => report.lines.push(format!(
            "metric latency_p99_ms REFUSED: only {} of {} passes lie beyond it (needs {})",
            r.beyond,
            r.samples,
            stats::MIN_BEYOND
        )),
    }
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    report.lines.push(format!(
        "metric error_rate = {error_rate} ratio ({} failed model fits of {} attempted)",
        tally.failed, tally.attempted
    ));
    report.lines.push(format!("metric rss_peak_mb = {rss} MiB"));
    report.lines.push(format!(
        "metric cpu_ms_per_op = {} ms (process CPU {cpu_s} s over {} fit passes)",
        cpu_s * 1e3 / times.len() as f64,
        times.len()
    ));
    report.lines.push(first_table(&outcomes));
    report.attempted = tally.attempted;
    report.failed = tally.failed;

    if args.trace {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch, 0, true);
        let mut traced_tally = Tally::default();
        let (traced_times, traced_outcomes) = window(
            datasets,
            run_config,
            args,
            work,
            &mut rec,
            &mut traced_tally,
        )?;
        correct &= check_same(&traced_outcomes, &mut report);
        if traced_outcomes[..CHAINS] != outcomes[..CHAINS] {
            correct = false;
            report.lines.push(
                "FAILED (determinism): the traced pass disagrees with the untraced pass".into(),
            );
        }
        let mut spans = rec.into_spans();
        // Snapshot layers, measured directly on the saved file.
        let path = work.path().join("fit.pfsnap");
        let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
        let snap = Snapshot::from_bytes(&bytes).map_err(|e| e.to_string())?;
        let mut enc = Recorder::new(epoch, 1, true);
        for _ in 0..5 {
            black_box(enc.time("snapshot.v2_encode", 0, || v2::encode(&snap)));
            enc.time("snapshot.v2_validate", 0, || {
                v2::validate(black_box(&bytes))
            })
            .map_err(|e| e.to_string())?;
        }
        spans.extend(enc.into_spans());
        let selfs = trace::self_times(&spans);
        let ms = |name: &str| {
            selfs
                .get(name)
                .and_then(|v| stats::median(v))
                .map(|ns| ns / 1e6)
        };
        for (span, metric) in [
            ("core.dpmhbp.fit", "core.dpmhbp.fit_ms"),
            ("core.hbp.fit", "core.hbp.fit_ms"),
            ("core.ranksvm.fit", "core.ranksvm.fit_ms"),
            ("baselines.cox.fit", "baselines.cox.fit_ms"),
            ("baselines.weibull.fit", "baselines.weibull.fit_ms"),
            ("eval.curves", "eval.curves_ms"),
            ("snapshot.save_as", "snapshot.save_ms"),
            ("snapshot.v2_encode", "snapshot.encode_ms"),
            ("snapshot.v2_validate", "snapshot.validate_ms"),
            ("scorer.load", "scorer.load_ms"),
        ] {
            if let Some(v) = ms(span) {
                report.layers.set(metric, v);
            }
        }
        report.layers.set("synth.world_build_ms", setup * 1e3);
        report.layers.set(
            "eval.fit_retries",
            (tally.retries + traced_tally.retries) as f64,
        );
        let (pu, pt) = (fit_s, stats::median(&traced_times).unwrap_or(f64::NAN));
        report
            .layers
            .set("trace.overhead_p50_pct", (pt / pu - 1.0) * 100.0);
        let tu = times.len() as f64 / total;
        let tt = traced_times.len() as f64 / traced_times.iter().sum::<f64>();
        report
            .layers
            .set("trace.overhead_throughput_pct", (tt / tu - 1.0) * 100.0);
        report.lines.push(format!(
            "trace overhead: fit pass {pu} s untraced vs {pt} s traced (the traced pass runs evaluate_region's fan-out from outside, one span per model fit)"
        ));
        report.layers.set("trace.spans", spans.len() as f64);
        for (name, v) in &selfs {
            report.lines.push(format!(
                "span {name}: {} calls, self time total {} ms, median {} ns",
                v.len(),
                v.iter().sum::<f64>() / 1e6,
                stats::median(v).unwrap_or(0.0)
            ));
        }
        let dump = crate::span_path(args);
        trace::dump(&spans, &dump).map_err(|e| format!("span dump: {e}"))?;
        report
            .lines
            .push(format!("spans written to {}", dump.display()));
        report.failed += traced_tally.failed;
        report.lines.extend(report.layers.lines());
    }
    for e in &tally.errors {
        report.lines.push(format!("FAILED (fit): {e}"));
    }
    report.correct = correct && report.failed == 0;
    Ok(report)
}

fn first_table(outcomes: &[PassOutcome]) -> String {
    format!(
        "AUC table (fast schedules):\n{}",
        outcomes[0].auc_table.trim_end()
    )
}
