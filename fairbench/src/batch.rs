//! The batch workloads: `replay_conservative` and `sweep_backfill`.

use crate::layers::{drive, nanos, report_core_layers, CoreLedger, Round};
use crate::stats::{median, quartile_spread, quartiles};
use crate::{procfs, Args, Report, SetupTimes, NODES, SETUP_PER_ROUND, SETUP_UPFRONT};
use fairsched_core::runner::{try_run_policy, PolicyRun, RunOptions};
use fairsched_core::sweep::grid::splitmix64;
use fairsched_core::{
    run_sweep, FaultPoint, GridState, PolicySpec, SweepConfig, SweepPlan, SweepSummary,
};
use fairsched_metrics::fairness::hybrid::HybridFstObserver;
use fairsched_sim::{Schedule, SimEvent};
use fairsched_workload::job::Job;
use fairsched_workload::CplantModel;
use std::path::Path;
use std::time::Instant;

type Result<T> = std::result::Result<T, String>;

/// The two conservative-ledger policies the replay runs, in order.
const REPLAY_POLICIES: [&str; 2] = ["cons.nomax", "consdyn.nomax"];

/// Model seed of the reference month every replay input derives from.
const REFERENCE_MONTH_SEED: u64 = 42;

/// Largest relative change the run seed makes to a job's runtime.
///
/// Resampling the whole month per seed moves conservative replay time by
/// a third between seeds, because a month holds only a few load bursts
/// and they set the queue depth the ledger works against. Jittering the
/// reference month keeps the bursts, so the seed changes every schedule
/// without changing how much work the month is.
const RUNTIME_JITTER: f64 = 0.05;

/// Replay passes a run always makes, so its median has three samples.
const MIN_PASSES: usize = 3;

/// The backfilling policies the sweep crosses with its seeds: the
/// stateful and fairshare queue orders, greedy backfill and chunking.
const SWEEP_POLICIES: [&str; 5] = [
    "cplant24.nomax.all",
    "cplant24.72max.all",
    "easy.nomax",
    "fsp.nomax",
    "las.nomax",
];

/// Workload seeds per sweep grid, and the trace scale of each.
const SWEEP_SEEDS: u64 = 2;
const SWEEP_SCALE: f64 = 0.5;

/// Grids a run always sweeps.
const MIN_GRIDS: usize = 3;

/// The scale-1 reference month with every runtime jittered by up to
/// [`RUNTIME_JITTER`], from `seed` and the pass number.
fn reference_month(seed: u64, pass: u64) -> Vec<Job> {
    let mut trace = CplantModel::new(REFERENCE_MONTH_SEED).generate();
    let mut state = splitmix64(seed.wrapping_mul(1_000_003).wrapping_add(pass));
    for job in &mut trace {
        state = splitmix64(state);
        let unit = (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        let jittered = ((job.runtime as f64) * (1.0 + RUNTIME_JITTER * unit)).round();
        let jittered = (jittered as u64).max(1);
        // Jobs that fit their estimate keep fitting it.
        job.runtime = if job.runtime <= job.estimate {
            jittered.min(job.estimate)
        } else {
            jittered
        };
    }
    trace
}

/// Prints a run's repetitions of one operation: count, quartiles and
/// their spread around the median.
fn print_spread(name: &str, xs: &[f64]) {
    let [q1, q2, q3] = quartiles(xs).unwrap_or_default();
    let spread = quartile_spread(xs).unwrap_or(0.0);
    println!(
        "{name}: {} repetitions, quartiles {q1:.4} / {q2:.4} / {q3:.4} s, spread {:.1} %",
        xs.len(),
        100.0 * spread
    );
}

fn policy(id: &str) -> Result<PolicySpec> {
    PolicySpec::parse(id).map_err(|e| e.to_string())
}

/// Checks a schedule against its trace: one record per job (no chunking
/// under `nomax`), no start before submission, and never more nodes busy
/// than the machine has.
fn check_schedule(trace: &[Job], schedule: &Schedule) -> std::result::Result<(), String> {
    if schedule.records.len() != trace.len() {
        return Err(format!(
            "{} records for {} jobs",
            schedule.records.len(),
            trace.len()
        ));
    }
    let mut edges = Vec::with_capacity(2 * trace.len());
    for r in &schedule.records {
        if r.start < r.submit || r.end < r.start {
            return Err(format!(
                "job {} runs {}..{} after submit {}",
                r.id.0, r.start, r.end, r.submit
            ));
        }
        // Ends sort before starts at the same instant: nodes free first.
        edges.push((r.end, 0u8, i64::from(r.nodes)));
        edges.push((r.start, 1u8, -i64::from(r.nodes)));
    }
    edges.sort_unstable();
    let mut free = i64::from(NODES);
    for (at, _, delta) in edges {
        free += delta;
        if free < 0 {
            return Err(format!("{} nodes over capacity at t={at}", -free));
        }
    }
    Ok(())
}

/// Runs `policy` untraced; returns the run, its wall time and CPU time.
fn run_untraced(trace: &[Job], policy: &PolicySpec) -> Result<(PolicyRun, f64, f64)> {
    let cpu = procfs::cpu_ms("self");
    let t = Instant::now();
    let run = try_run_policy(trace, policy, NODES, &RunOptions::default())
        .map_err(|e| format!("{}: {e}", policy.id))?;
    let secs = t.elapsed().as_secs_f64();
    let cpu_ms = procfs::cpu_ms("self").zip(cpu).map_or(0.0, |(b, a)| b - a);
    Ok((run, secs, cpu_ms))
}

/// The traced counterpart of [`try_run_policy`]: the same observers,
/// behind the timing wrapper. The caller checks it against the untraced
/// run's outputs.
fn run_traced(
    trace: &[Job],
    policy: &PolicySpec,
    untraced: &PolicyRun,
    report: &mut Report,
) -> Result<CoreLedger> {
    let events = trace.iter().cloned().map(SimEvent::Submit);
    let (schedule, fairness, ledger) = drive(
        &policy.sim_config(NODES),
        true,
        events,
        HybridFstObserver::new(),
        HybridFstObserver::into_report,
    )
    .map_err(|e| format!("{} traced: {e}", policy.id))?;
    report.check(schedule == untraced.outcome.schedule, || {
        format!(
            "{}: traced SteppedSim schedule differs from try_run_policy",
            policy.id
        )
    });
    report.check(fairness == untraced.outcome.fairness, || {
        format!(
            "{}: traced fairness report differs from try_run_policy",
            policy.id
        )
    });
    Ok(ledger)
}

/// `replay_conservative`: `try_run_policy` runs `cons.nomax` then
/// `consdyn.nomax` on the jittered reference month, one thread, pass
/// after pass until the window closes.
pub fn replay_conservative(args: &Args, report: &mut Report) -> Result<()> {
    let policies = REPLAY_POLICIES
        .iter()
        .map(|id| policy(id))
        .collect::<Result<Vec<_>>>()?;
    let mut setup = SetupTimes::default();
    let mut trace = setup
        .repeat(SETUP_UPFRONT, || reference_month(args.seed, 0))
        .expect("SETUP_UPFRONT is positive");
    println!(
        "replay_conservative: seed {} reference month {} jobs, {} nodes, policies {}",
        args.seed,
        trace.len(),
        NODES,
        REPLAY_POLICIES.join(" then ")
    );
    let window = Instant::now();
    let (mut passes, mut per_policy) = (Vec::new(), vec![Vec::new(); policies.len()]);
    let (mut jobs, mut cpu_ms) = (0usize, 0.0);
    let mut rounds = Vec::new();
    while passes.len() < MIN_PASSES || window.elapsed() < args.seconds {
        if !passes.is_empty() {
            trace = setup.time(|| reference_month(args.seed, passes.len() as u64));
        }
        let mut pass_s = 0.0;
        let mut round = Round::default();
        for (p, times) in policies.iter().zip(&mut per_policy) {
            let (run, secs, cpu) = run_untraced(&trace, p)?;
            report.succeeded(1);
            let valid = check_schedule(&trace, &run.outcome.schedule);
            report.check(valid.is_ok(), || {
                format!("{}: {}", p.id, valid.unwrap_err())
            });
            times.push(secs);
            pass_s += secs;
            cpu_ms += cpu;
            jobs += trace.len();
            if args.trace {
                round.ledger.add(&run_traced(&trace, p, &run, report)?);
                round.untraced_s += secs;
            }
        }
        passes.push(pass_s);
        if args.trace {
            rounds.push(round);
        }
        setup.repeat(SETUP_PER_ROUND, || reference_month(args.seed, 0));
    }
    for (id, times) in REPLAY_POLICIES.iter().zip(&per_policy) {
        report.note(
            &format!("sim_s.{id}"),
            median(times).unwrap_or(0.0),
            "s (median)",
        );
    }
    print_spread("pass_s", &passes);
    let total_s: f64 = passes.iter().sum();
    if args.trace {
        report.metric("workload.generate_ms", setup.median_s() * 1e3);
        report_core_layers(&rounds, true, report);
    } else {
        report.note(
            "op_p50_ms",
            median(&passes).unwrap_or(0.0) * 1e3,
            "ms (one pass)",
        );
        report.note(
            "cpu_ms_per_work",
            cpu_ms / jobs as f64,
            "ms per simulated job",
        );
        report.metric("setup_s", setup.median_s());
        report.metric("work_per_s", jobs as f64 / total_s);
        report.metric("peak_rss_mb", procfs::peak_rss_mb("self").unwrap_or(0.0));
    }
    Ok(())
}

/// The sweep grid for round `round` of a run: fresh workload seeds per
/// round, so a run's cells/s averages over many traces.
fn sweep_plan(seed: u64, round: u64, policies: &[PolicySpec]) -> SweepPlan {
    let base = seed.wrapping_mul(1_000).wrapping_add(round * SWEEP_SEEDS);
    SweepPlan {
        seeds: (0..SWEEP_SEEDS).map(|i| base + i).collect(),
        policies: policies.to_vec(),
        faults: vec![FaultPoint::clean()],
        scale: SWEEP_SCALE,
        nodes: NODES,
        exact_estimates: false,
    }
}

/// The traces `run_sweep` generates for `plan`, one per seed.
fn sweep_traces(plan: &SweepPlan) -> Vec<Vec<Job>> {
    plan.seeds
        .iter()
        .map(|&s| {
            CplantModel::new(s)
                .with_scale(plan.scale)
                .with_nodes(plan.nodes)
                .generate()
        })
        .collect()
}

/// One grid's per-layer figures.
struct GridLayers {
    round: Round,
    cell_s_sum: f64,
    replay_ms: f64,
    rows: f64,
    journal_bytes: f64,
}

/// Checks a finished grid against the same cells run one by one; with
/// `traced`, also drives each cell through the traced core and times the
/// journal replay.
fn check_grid(
    plan: &SweepPlan,
    traces: &[Vec<Job>],
    summary: &SweepSummary,
    journal: &Path,
    traced: bool,
    report: &mut Report,
) -> Result<GridLayers> {
    let mut round = Round::default();
    let mut cell_s_sum = 0.0;
    for cell in plan.cells() {
        let p = &plan.policies[cell.policy_idx];
        let trace = &traces[cell.seed_idx];
        let (run, secs, _) = run_untraced(trace, p)?;
        cell_s_sum += secs;
        let row = summary.rows.iter().find(|r| r.cell == cell.index);
        let want = run.outcome.metrics();
        report.check(
            row.is_some_and(|r| r.metrics.as_ref() == Some(&want) && r.policy == p.id),
            || {
                format!(
                    "cell {} ({}) row differs from the serial run",
                    cell.index, p.id
                )
            },
        );
        if traced {
            round.ledger.add(&run_traced(trace, p, &run, report)?);
            round.untraced_s += secs;
        }
    }
    let journal_bytes = std::fs::metadata(journal).map_or(0, |m| m.len()) as f64;
    let t = Instant::now();
    let replayed = fairsched_core::sweep::journal::replay(journal)
        .map_err(|e| format!("sweep journal replay: {e}"))?;
    let replay_ms = nanos(t) as f64 / 1e6;
    let rows = replayed.latest_rows().len() as f64;
    report.check(rows == plan.len() as f64, || {
        format!("sweep journal replays {rows} rows for {} cells", plan.len())
    });
    Ok(GridLayers {
        round,
        cell_s_sum,
        replay_ms,
        rows,
        journal_bytes,
    })
}

/// `sweep_backfill`: `run_sweep` over the backfilling policies × two
/// seeds with a journal and `nproc` workers, grid after grid until the
/// window closes.
pub fn sweep_backfill(args: &Args, report: &mut Report) -> Result<()> {
    let policies = SWEEP_POLICIES
        .iter()
        .map(|id| policy(id))
        .collect::<Result<Vec<_>>>()?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let first_plan = sweep_plan(args.seed, 0, &policies);
    let mut setup = SetupTimes::default();
    let first_traces = setup
        .repeat(SETUP_UPFRONT, || sweep_traces(&first_plan))
        .expect("SETUP_UPFRONT is positive");
    println!(
        "sweep_backfill: seed {} grid {} policies x {SWEEP_SEEDS} seeds at scale {SWEEP_SCALE}, \
         {threads} worker threads (available parallelism {threads})",
        args.seed,
        policies.len()
    );
    let window = Instant::now();
    let (mut grids, mut cells, mut cpu_ms) = (Vec::new(), 0u64, 0.0);
    let mut first = None;
    let mut layers: Vec<(GridLayers, f64)> = Vec::new();
    while grids.len() < MIN_GRIDS || window.elapsed() < args.seconds {
        let round = grids.len() as u64;
        let plan = sweep_plan(args.seed, round, &policies);
        let journal = args.scratch.join(format!("sweep-{round}.jsonl"));
        let cfg = SweepConfig {
            plan: plan.clone(),
            journal: journal.clone(),
            timeout_per_cell: None,
            max_retries: 0,
            resume: false,
            threads: Some(threads),
        };
        let cpu = procfs::cpu_ms("self");
        let t = Instant::now();
        let summary = run_sweep(&cfg).map_err(|e| format!("run_sweep: {e}"))?;
        let grid_s = t.elapsed().as_secs_f64();
        cpu_ms += procfs::cpu_ms("self").zip(cpu).map_or(0.0, |(b, a)| b - a);
        grids.push(grid_s);
        cells += summary.total;
        report.check(summary.grid_state() == GridState::Complete, || {
            format!("grid {round} is {:?}: {summary}", summary.grid_state())
        });
        report.succeeded(summary.ok);
        setup.repeat(SETUP_PER_ROUND, || sweep_traces(&first_plan));
        if args.trace {
            let traces = if round == 0 {
                first_traces.clone()
            } else {
                sweep_traces(&plan)
            };
            layers.push((
                check_grid(&plan, &traces, &summary, &journal, true, report)?,
                grid_s,
            ));
        } else if round == 0 {
            // Checked after the window, so the serial runs cost no grids.
            first = Some((plan, summary, journal));
            continue;
        }
        let _ = std::fs::remove_file(&journal);
    }
    if let Some((plan, summary, journal)) = first {
        check_grid(&plan, &first_traces, &summary, &journal, false, report)?;
        let _ = std::fs::remove_file(&journal);
    }
    print_spread("grid_s", &grids);
    let total_s: f64 = grids.iter().sum();
    report.note("cells_per_s", cells as f64 / total_s, "1/s");
    if args.trace {
        let col = |f: &dyn Fn(&(GridLayers, f64)) -> f64| {
            median(&layers.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        report.metric("workload.generate_ms", setup.median_s() * 1e3);
        report.metric("sweep.cell_s_sum", col(&|(l, _)| l.cell_s_sum));
        report.metric(
            "sweep.parallel_efficiency",
            col(&|(l, grid_s)| l.cell_s_sum / (threads as f64 * grid_s)),
        );
        report.metric("sweep.journal_bytes", layers[0].0.journal_bytes);
        report.metric("journal.replay_ms", col(&|(l, _)| l.replay_ms));
        report.metric("journal.rows", layers[0].0.rows);
        let rounds: Vec<Round> = layers.into_iter().map(|(l, _)| l.round).collect();
        report_core_layers(&rounds, true, report);
    } else {
        report.note(
            "op_p50_ms",
            median(&grids).unwrap_or(0.0) * 1e3,
            "ms (one grid)",
        );
        report.note("cpu_ms_per_work", cpu_ms / cells as f64, "ms per cell");
        report.metric("setup_s", setup.median_s());
        report.metric("work_per_s", cells as f64 / total_s);
        report.metric("peak_rss_mb", procfs::peak_rss_mb("self").unwrap_or(0.0));
    }
    Ok(())
}
