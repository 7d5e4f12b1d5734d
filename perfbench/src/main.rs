//! `perfbench` — the end-to-end and per-layer benchmark of the pipefail
//! fit and serving paths.
//!
//! ```text
//! perfbench --workload lookup|analytics|federated|fit --seed N --seconds S --trace 0|1
//! ```
//!
//! Inputs are generated from `--seed` before the clock starts (snapshot
//! files in a child process, so the measured memory peak never includes
//! them). The run measures for `--seconds`, checks every output, prints a
//! human-readable report and, as its last line, one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! See `perfbench/README.md` for the definitions.

mod check;
mod client;
mod data;
mod fit;
mod layers;
mod mix;
mod procfs;
mod serving;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Workload names, in report order.
pub const WORKLOADS: [&str; 4] = ["lookup", "analytics", "federated", "fit"];

/// End-to-end metrics every run reports in its JSON line with
/// `--trace 0`, with units. `throughput_rps`, `latency_p50_ms`,
/// `latency_p99_ms`, `error_rate` and `fit_s` are printed in the report
/// lines; `perfbench/README.md` says why they are not in this list.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("rss_peak_mb", "MiB"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured window, seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// End-to-end metric values (keys of [`END_TO_END`]).
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metric values (keys of [`layers::NAMES`]).
    pub layers: layers::Layers,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

/// Scratch directory of one run, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(args: &Args) -> std::io::Result<Self> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!(
                "{}-{}-{}",
                args.workload,
                args.seed,
                std::process::id()
            ));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where a traced run leaves its span dump.
pub fn span_path(args: &Args) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn print_result(args: &Args, report: &Report) {
    for line in &report.lines {
        println!("{line}");
    }
    let entries: Vec<String> = if args.trace {
        layers::NAMES
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_number(report.layers.get(name))
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| {
                let v = report
                    .end_to_end
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(f64::NAN, |(_, v)| *v);
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect()
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        entries.join(",")
    );
}

/// Time a fixed single-threaded loop (median of three), so a reader can
/// tell a slow host from a slow program when comparing runs.
fn calibration_ms() -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            let mut h = 0u64;
            for i in 0..20_000_000u64 {
                h = data::mix64(h ^ i);
            }
            std::hint::black_box(h);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&times).unwrap_or(f64::NAN)
}

fn run(args: &Args) -> Result<Report, String> {
    let work = WorkDir::create(args).map_err(|e| format!("work dir: {e}"))?;
    let host_ms = calibration_ms();
    let mut report = match args.workload.as_str() {
        "fit" => fit::run(args, &work)?,
        _ => workloads::run(args, &work)?,
    };
    report.lines.push(format!(
        "host: fixed calibration loop took {host_ms} ms before the run (not a metric; larger means a slower host)"
    ));
    for (name, _) in END_TO_END {
        let value = report.end_to_end.iter().find(|(n, _)| *n == name);
        if !args.trace && !value.is_some_and(|(_, v)| v.is_finite() && *v > 0.0) {
            return Err(format!("workload produced no usable {name}: {value:?}"));
        }
    }
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(workloads::GEN_FLAG) {
        return match workloads::generator_main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench generator: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            print_result(&args, &report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_what_the_runs_print() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let flat: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        let entry = |name: &str, unit: &str| format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
        for (name, unit) in END_TO_END.iter().chain(layers::NAMES) {
            assert!(
                flat.contains(&entry(name, unit)),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let listed = flat.matches("{\"name\":").count();
        let workloads = WORKLOADS
            .iter()
            .filter(|w| flat.contains(&format!("{{\"name\":\"{w}\",\"why\"")))
            .count();
        assert_eq!(listed, END_TO_END.len() + layers::NAMES.len() + workloads);
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok =
            parse_args(&args("--workload lookup --seed 3 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("lookup", 3, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload lookup --seconds 10 --trace 0",
            "--workload lookup --seed x --seconds 10 --trace 0",
            "--workload lookup --seed 3 --seconds 0 --trace 0",
            "--workload lookup --seed 3 --seconds 10 --trace 2",
            "--workload lookup --seed 3 --seconds",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
