//! `fairbench` — the fairsched benchmark of record.
//!
//! ```text
//! fairbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --daemon <fairschedd>
//! ```
//!
//! Runs one workload through the public entry points only, checks its
//! outputs, prints every metric as `name = value unit`, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics from untraced runs; `--trace 1` reports
//! the per-layer metrics from a traced run. Exits 1 when an output check
//! fails. See `README.md` beside this file for what each metric means on
//! each workload.

mod batch;
mod layers;
mod procfs;
mod serve;
mod stats;

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Machine size every workload schedules onto.
pub const NODES: u32 = 1024;

/// Timed set-ups before the measured window, and after each round of
/// it (a replay pass, a sweep grid, the serve loop).
pub const SETUP_UPFRONT: usize = 5;
pub const SETUP_PER_ROUND: usize = 4;

/// End-to-end metrics: every workload reports each of them with
/// `--trace 0`. The `README.md` table gives each one's meaning per workload.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: every workload reports each of them with
/// `--trace 1`; a layer the workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("workload.generate_ms", "ms"),
    ("sim.self_s", "s"),
    ("sim.step_self_us_p50", "us"),
    ("sim.step_self_us_p99", "us"),
    ("sim.steps", "count"),
    ("sim.reservations_made", "count"),
    ("sim.reservations_shifted", "count"),
    ("sim.starts_backfilled", "count"),
    ("sim.bypasses", "count"),
    ("sim.starvation_promotions", "count"),
    ("sim.virtual_inversions", "count"),
    ("metrics.observe_s", "s"),
    ("metrics.report_s", "s"),
    ("runner.unaccounted_pct", "%"),
    ("tracing.overhead_pct", "%"),
    ("sweep.cell_s_sum", "s"),
    ("sweep.parallel_efficiency", "ratio"),
    ("sweep.journal_bytes", "bytes"),
    ("served.route_us_p50.jobs", "us"),
    ("served.route_us_p50.reads", "us"),
    ("served.wire_ms_p50", "ms"),
    ("served.submits_per_batch", "count"),
    ("session.submit_us_p50", "us"),
    ("session.submit_us_p95", "us"),
    ("journal.commit_us_p50", "us"),
    ("journal.commit_us_p95", "us"),
    ("journal.replay_ms", "ms"),
    ("journal.rows", "count"),
    ("daemon.idle_cpu_pct", "%"),
];

/// Share of a traced run's wall time the layer parts may leave
/// unexplained before the reconciliation check fails.
pub const UNACCOUNTED_TOLERANCE_PCT: f64 = 5.0;

/// Durations of repeated builds of a workload's input; `setup_s` is
/// their median. Runs spread the builds over the measured window, so one
/// fast or slow moment of a shared machine does not set the figure.
#[derive(Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Builds once with `f`, timing it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.0.push(t.elapsed().as_secs_f64());
        out
    }

    /// Builds `n` times with `f`; returns the last build.
    pub fn repeat<T>(&mut self, n: usize, mut f: impl FnMut() -> T) -> Option<T> {
        (0..n).map(|_| self.time(&mut f)).last()
    }

    /// The median build time in seconds (0 before any build).
    pub fn median_s(&self) -> f64 {
        stats::median(&self.0).unwrap_or(0.0)
    }
}

/// What the workload was asked to do.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// The `fairschedd` binary.
    pub daemon: PathBuf,
    /// A directory this run owns for journals; removed at exit.
    pub scratch: PathBuf,
}

/// One run's metrics, printed lines and check outcomes.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Records a reported metric; `name` must be in the mode's list.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Prints an informational figure that is not in the JSON result.
    pub fn note(&self, name: &str, value: f64, unit: &str) {
        println!("{name} = {value} {unit}");
    }

    /// Counts one attempted operation or output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("fairbench: FAILED: {}", what());
        }
    }

    /// Counts `n` operations that all succeeded.
    pub fn succeeded(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Prints every metric of the mode's list and the JSON result line.
    /// Returns whether every check passed.
    fn finish(mut self, trace: bool) -> bool {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::new();
        for &(name, unit) in list {
            let found = self
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v);
            let value = match found {
                Some(v) if v.is_finite() => v,
                // A layer the workload does not run did no work.
                None if trace => 0.0,
                other => {
                    self.check(false, || format!("metric {name} is {other:?}"));
                    0.0
                }
            };
            println!("{name} = {value} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "failed_ratio = {ratio} ({} of {} operations and checks)",
            self.failed, self.attempted
        );
        let correct = self.failed == 0 && self.attempted > 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
        correct
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("fairbench: {msg}");
    eprintln!(
        "usage: fairbench --workload <replay_conservative|sweep_backfill|serve_journaled> \
         --seed <n> --seconds <s> --trace <0|1> --daemon <path-to-fairschedd>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut trace, mut daemon) =
        (None, None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--daemon" => daemon = Some(PathBuf::from(value)),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let scratch = std::env::current_dir()
        .unwrap_or_else(|e| usage(&format!("no working directory: {e}")))
        .join(".fairbench_tmp")
        .join(format!("{workload}-{}", std::process::id()));
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed must be a whole number")),
        seconds: Duration::from_secs(
            seconds.unwrap_or_else(|| usage("--seconds must be a positive whole number")),
        ),
        trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
        daemon: daemon.unwrap_or_else(|| usage("--daemon is required")),
        scratch,
    }
}

fn main() {
    let args = parse_args();
    let started = Instant::now();
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        usage(&format!("cannot create {}: {e}", args.scratch.display()));
    }
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "replay_conservative" => batch::replay_conservative(&args, &mut report),
        "sweep_backfill" => batch::sweep_backfill(&args, &mut report),
        "serve_journaled" => serve::serve_journaled(&args, &mut report),
        other => {
            let _ = std::fs::remove_dir_all(&args.scratch);
            usage(&format!("unknown workload {other}"))
        }
    };
    let _ = std::fs::remove_dir_all(&args.scratch);
    if let Some(parent) = args.scratch.parent() {
        // Only succeeds once no concurrent run still owns a directory.
        let _ = std::fs::remove_dir(parent);
    }
    if let Err(e) = outcome {
        eprintln!("fairbench: {} aborted: {e}", args.workload);
        std::process::exit(1);
    }
    eprintln!(
        "fairbench: {} seed {} took {:.1} s",
        args.workload,
        args.seed,
        started.elapsed().as_secs_f64()
    );
    if !report.finish(args.trace) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsched_served::json::{parse, Json};

    /// The metric lists here and in the repository's `BENCHMARK.json`
    /// must agree name for name and unit for unit.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(Json::Arr(entries)) = json.get(key) else {
                panic!("{key} missing");
            };
            let listed: Vec<(&str, &str)> = entries
                .iter()
                .map(|e| {
                    let field = |k| e.get(k).and_then(Json::as_str).unwrap();
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, list, "{key}");
        }
    }
}
