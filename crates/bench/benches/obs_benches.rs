//! Benchmarks for the observability layer's cost model (DESIGN.md
//! "Observability"): the trace-off path must be free and the traced path
//! cheap. Per-run counters are always on, so every entry includes them.
//!
//! `trace_off/bare_simulation` intentionally reproduces
//! `single_pass/collection_scale_0.25/bare_simulation` from the
//! pre-instrumentation suite — comparing the two across BENCH records is
//! how the <3% trace-off overhead budget is audited. The `traced` entries
//! then price tracing when it is switched on.

use criterion::{criterion_group, criterion_main, Criterion};
use fairsched_bench::{scaled_trace, small_trace, BENCH_NODES};
use fairsched_core::policy::PolicySpec;
use fairsched_core::runner::{try_run_policy, try_run_policy_traced, RunOptions};
use fairsched_metrics::explain::{explain_wait, worst_miss};
use fairsched_obs::DecisionTracer;
use fairsched_sim::{simulate, NullObserver, SimOptions};
use std::hint::black_box;

/// Trace-off vs trace-on, on the bare simulation the overhead budget is
/// written against (scale 0.25, baseline policy).
fn trace_overhead(c: &mut Criterion) {
    let trace = scaled_trace(0.25);
    let cfg = PolicySpec::baseline().sim_config(BENCH_NODES);
    let mut g = c.benchmark_group("obs/trace_off_scale_0.25");
    g.sample_size(5);
    g.bench_function("bare_simulation", |b| {
        b.iter(|| {
            simulate(
                black_box(&trace),
                &cfg,
                &mut NullObserver,
                SimOptions::new(),
            )
        })
    });
    g.bench_function("bare_simulation_traced", |b| {
        b.iter(|| {
            let mut tracer = DecisionTracer::unbounded();
            simulate(
                black_box(&trace),
                &cfg,
                &mut NullObserver,
                SimOptions::new().trace(&mut tracer),
            )
            .map(|s| (s, tracer.len()))
        })
    });
    g.finish();
}

/// Full policy runs: the production entry point with nothing attached,
/// and with a decision trace recorded.
fn policy_run_layers(c: &mut Criterion) {
    let trace = scaled_trace(0.1);
    let policy = PolicySpec::baseline();
    let mut g = c.benchmark_group("obs/policy_run_scale_0.1");
    g.sample_size(5);
    g.bench_function("untraced", |b| {
        b.iter(|| {
            try_run_policy(
                black_box(&trace),
                &policy,
                BENCH_NODES,
                &RunOptions::default(),
            )
        })
    });
    g.bench_function("traced", |b| {
        b.iter(|| {
            let mut tracer = DecisionTracer::unbounded();
            try_run_policy_traced(
                black_box(&trace),
                &policy,
                BENCH_NODES,
                &RunOptions::default(),
                Some(&mut tracer),
            )
            .map(|r| (r, tracer.len()))
        })
    });
    g.finish();
}

/// Post-hoc analysis costs: replaying a recorded trace into one job's wait
/// decomposition, and rendering the trace to JSONL.
fn explain_and_export(c: &mut Criterion) {
    let trace = small_trace();
    let policy = PolicySpec::baseline();
    let mut tracer = DecisionTracer::unbounded();
    let run = try_run_policy_traced(
        &trace,
        &policy,
        BENCH_NODES,
        &RunOptions::default(),
        Some(&mut tracer),
    )
    .unwrap();
    let records = tracer.into_records();
    let target = worst_miss(&run.outcome.fairness).expect("scored jobs exist");
    let mut g = c.benchmark_group("obs/analysis_scale_0.02");
    g.bench_function("explain_worst_job", |b| {
        b.iter(|| explain_wait(black_box(&records), &run.outcome.schedule, target))
    });
    g.bench_function("jsonl_render_all", |b| {
        b.iter(|| records.iter().map(|r| r.to_jsonl().len()).sum::<usize>())
    });
    g.finish();
}

criterion_group!(
    benches,
    trace_overhead,
    policy_run_layers,
    explain_and_export
);
criterion_main!(benches);
