//! Benchmarks for the §4 fairness-metric kernels: the hybrid FST observer,
//! the CONS_P baseline, resource equality, and the two scheduling data
//! structures everything leans on (the list-scheduler timeline and the
//! capacity profile).

use criterion::{criterion_group, criterion_main, Criterion};
use fairsched_bench::{small_trace, BENCH_NODES};
use fairsched_metrics::fairness::consp::{consp_fsts, consp_report};
use fairsched_metrics::fairness::equality::equality_report;
use fairsched_metrics::fairness::hybrid::HybridFstObserver;
use fairsched_metrics::fairness::jain::jain_index;
use fairsched_sim::profile::Profile;
use fairsched_sim::{simulate, NodeTimeline, NullObserver, SimConfig, SimOptions};
use std::hint::black_box;

fn hybrid_observer(c: &mut Criterion) {
    let trace = small_trace();
    let cfg = SimConfig {
        nodes: BENCH_NODES,
        ..Default::default()
    };
    let mut g = c.benchmark_group("metrics/hybrid_fst");
    g.sample_size(10);
    g.bench_function("simulate_without_observer", |b| {
        b.iter(|| {
            simulate(
                black_box(&trace),
                &cfg,
                &mut NullObserver,
                SimOptions::new(),
            )
            .unwrap()
        })
    });
    g.bench_function("simulate_with_observer", |b| {
        b.iter(|| {
            let mut obs = HybridFstObserver::new();
            simulate(black_box(&trace), &cfg, &mut obs, SimOptions::new()).unwrap();
            obs.into_report()
        })
    });
    g.finish();
}

fn baselines(c: &mut Criterion) {
    let trace = small_trace();
    let cfg = SimConfig {
        nodes: BENCH_NODES,
        ..Default::default()
    };
    let schedule = simulate(&trace, &cfg, &mut NullObserver, SimOptions::new()).unwrap();
    let fsts = consp_fsts(&trace, BENCH_NODES);
    let mut g = c.benchmark_group("metrics/baselines");
    g.sample_size(10);
    g.bench_function("consp_fsts", |b| {
        b.iter(|| consp_fsts(black_box(&trace), BENCH_NODES))
    });
    g.bench_function("consp_report", |b| {
        b.iter(|| consp_report(black_box(&schedule), black_box(&fsts)))
    });
    g.bench_function("equality_report", |b| {
        b.iter(|| equality_report(black_box(&schedule)))
    });
    let turnarounds: Vec<f64> = schedule
        .records
        .iter()
        .map(|r| r.turnaround() as f64)
        .collect();
    g.bench_function("jain_index", |b| {
        b.iter(|| jain_index(black_box(&turnarounds)))
    });
    g.finish();
}

fn kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics/kernels");
    // List-scheduler placement throughput: 500 jobs over a busy timeline.
    g.bench_function("node_timeline_place_500", |b| {
        b.iter(|| {
            let mut tl = NodeTimeline::all_free(BENCH_NODES, 0);
            for i in 0..500u64 {
                tl.place(0, ((i % 64) + 1) as u32, 1000 + i);
            }
            tl
        })
    });
    // Profile earliest-fit over a deep reservation stack.
    g.bench_function("profile_earliest_start_500", |b| {
        b.iter(|| {
            let mut p = Profile::new(BENCH_NODES);
            let mut t = 0u64;
            for i in 0..500u64 {
                let start = p
                    .earliest_start(t, ((i % 128) + 1) as u32, 5000)
                    .expect("request fits the machine");
                p.add(start, 5000, ((i % 128) + 1) as u32);
                t += 10;
            }
            p
        })
    });
    // A §5.3 improvement pass over the same stack: each reservation asks
    // where it could move without its own rectangle, which stays in place.
    g.bench_function("profile_improve_start", |b| {
        let mut p = Profile::new(BENCH_NODES);
        let mut held = Vec::with_capacity(500);
        let mut t = 0u64;
        for i in 0..500u64 {
            let nodes = ((i % 128) + 1) as u32;
            let start = p
                .earliest_start(t, nodes, 5000)
                .expect("request fits the machine");
            p.add(start, 5000, nodes);
            held.push((start, nodes));
            t += 10;
        }
        b.iter(|| {
            held.iter()
                .map(|&(own, nodes)| black_box(&p).improve_start(0, nodes, 5000, own))
                .sum::<u64>()
        })
    });
    g.finish();
}

criterion_group!(benches, hybrid_observer, baselines, kernels);
criterion_main!(benches);
