//! Run one (trace, policy) pair and collect everything the paper reports.
//!
//! [`try_run_policy`] is the single entry point: a [`RunOptions`] selects
//! the fault model and which optional reports to collect, and **one**
//! simulation feeds every requested metric (the hybrid-FST and equality
//! observers share the run through an `ObserverSet`; the per-user and
//! resilience reports are pure folds over its results). Every run also
//! returns its own [`ProfileReport`]: the simulation's counters and the
//! run's wall time. The historical
//! [`run_policy`] / [`run_policy_faulted`] conveniences are thin panicking
//! wrappers over it.

use crate::policy::PolicySpec;
use fairsched_metrics::fairness::equality::{EqualityObserver, EqualityReport};
use fairsched_metrics::fairness::fst::FstReport;
use fairsched_metrics::fairness::hybrid::HybridFstObserver;
use fairsched_metrics::fairness::peruser::{per_user, UserFairness};
use fairsched_metrics::fairness::resilience::ResilienceReport;
use fairsched_metrics::user;
use fairsched_obs::{ProfileReport, SimCounters, TraceSink};
use fairsched_sim::{
    simulate, CancelToken, FaultConfig, ObserverSet, OriginalOutcome, Schedule, SimError,
    SimOptions,
};
use fairsched_workload::categories::WIDTH_BUCKETS;
use fairsched_workload::job::Job;

/// The full result of evaluating one policy on one trace.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// The policy's paper identifier.
    pub policy: String,
    /// The raw schedule (per-submission records and exact integrals).
    pub schedule: Schedule,
    /// The hybrid fairshare fairness report (§4.1), scored per submission.
    pub fairness: FstReport,
}

/// The scalar summary of one policy run — one bar in each of the paper's
/// aggregate figures, plus the two by-width series.
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeMetrics {
    /// Fraction of submissions that missed their fair start (Figures 8/14).
    pub percent_unfair: f64,
    /// Average miss time in seconds per Equation 5 (Figures 9/15).
    pub average_miss_time: f64,
    /// Average turnaround of original jobs in seconds (Figures 11/17).
    pub average_turnaround: f64,
    /// Loss of capacity per Equation 4 (Figures 13/19).
    pub loss_of_capacity: f64,
    /// Utilization per Equation 2.
    pub utilization: f64,
    /// Average miss time per width bucket (Figures 10/16).
    pub miss_by_width: [f64; WIDTH_BUCKETS],
    /// Average turnaround per width bucket (Figures 12/18).
    pub turnaround_by_width: [f64; WIDTH_BUCKETS],
}

impl PolicyOutcome {
    /// Original-job outcomes (chunk chains collapsed).
    pub fn originals(&self) -> Vec<OriginalOutcome> {
        self.schedule.originals()
    }

    /// Splits the fairness report by crash exposure (all-clean when the
    /// run had no faults) and pairs it with the schedule's goodput.
    pub fn resilience(&self) -> ResilienceReport {
        ResilienceReport::split(&self.fairness, &self.schedule)
    }

    /// Computes the scalar summary.
    pub fn metrics(&self) -> OutcomeMetrics {
        let originals = self.originals();
        OutcomeMetrics {
            percent_unfair: self.fairness.percent_unfair(),
            average_miss_time: self.fairness.average_miss_time(),
            average_turnaround: user::average_turnaround(&originals),
            loss_of_capacity: self.schedule.loss_of_capacity(),
            utilization: self.schedule.utilization(),
            miss_by_width: self.fairness.miss_by_width(),
            turnaround_by_width: user::turnaround_by_width(&originals),
        }
    }
}

/// What [`try_run_policy`] should collect from its single simulation, and
/// under which fault model.
///
/// The hybrid fairness report, schedule and profile are always collected;
/// each flag adds one more report to the returned [`PolicyRun`] without
/// adding a second simulation.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Fault model for the run (default: all fault sources off).
    pub faults: FaultConfig,
    /// Collect the per-user fairness audit.
    pub per_user: bool,
    /// Collect the resource-equality report.
    pub equality: bool,
    /// Collect the interrupted-vs-clean resilience split.
    pub resilience: bool,
    /// Cooperative cancellation: when the token fires (e.g. a sweep
    /// watchdog), the simulation stops at its next event batch with
    /// [`SimError::TimedOut`]. `None` (the default) runs unguarded.
    pub cancel: Option<CancelToken>,
}

impl RunOptions {
    /// Options with a fault model and no optional reports — the historical
    /// [`run_policy_faulted`] behaviour.
    pub fn with_faults(faults: FaultConfig) -> Self {
        RunOptions {
            faults,
            ..Default::default()
        }
    }

    /// Options collecting every report the workspace defines.
    pub fn everything() -> Self {
        RunOptions {
            faults: FaultConfig::default(),
            per_user: true,
            equality: true,
            resilience: true,
            cancel: None,
        }
    }
}

/// Everything one [`try_run_policy`] simulation produced: the always-on
/// [`PolicyOutcome`] and [`ProfileReport`], plus whichever optional
/// reports the [`RunOptions`] requested (absent flags stay `None`).
#[derive(Debug, Clone)]
pub struct PolicyRun {
    /// Schedule plus hybrid fairness report (always collected).
    pub outcome: PolicyOutcome,
    /// Per-user audit rows, heaviest users first (`RunOptions::per_user`).
    pub per_user: Option<Vec<UserFairness>>,
    /// Resource-equality report (`RunOptions::equality`).
    pub equality: Option<EqualityReport>,
    /// Interrupted-vs-clean split (`RunOptions::resilience`).
    pub resilience: Option<ResilienceReport>,
    /// Where the run's time went: this simulation's counters alone, plus
    /// the wall time of the simulation and its fairness scoring.
    pub profile: ProfileReport,
}

/// Evaluates one policy on a trace with **one** simulation feeding every
/// report `opts` requests. Trace or configuration problems come back as a
/// typed [`SimError`] instead of a panic, so one failing policy never
/// aborts a multi-policy figure. Deterministic: equal inputs give equal
/// outcomes.
pub fn try_run_policy(
    trace: &[Job],
    policy: &PolicySpec,
    nodes: u32,
    opts: &RunOptions,
) -> Result<PolicyRun, SimError> {
    try_run_policy_traced(trace, policy, nodes, opts, None)
}

/// [`try_run_policy`] with an optional decision-trace sink. When `sink` is
/// `Some`, every scheduling decision of the single underlying simulation is
/// recorded into it; the returned run is byte-identical to the untraced one
/// (emission never feeds back into the schedule — pinned by proptest).
pub fn try_run_policy_traced(
    trace: &[Job],
    policy: &PolicySpec,
    nodes: u32,
    opts: &RunOptions,
    sink: Option<&mut dyn TraceSink>,
) -> Result<PolicyRun, SimError> {
    let mut cfg = policy.sim_config(nodes);
    cfg.faults = opts.faults.clone();
    let started = std::time::Instant::now();
    let mut counters = SimCounters::default();
    let mut hybrid = HybridFstObserver::new();
    let mut equality = EqualityObserver::new();
    let schedule = {
        let mut observers = ObserverSet::new();
        observers.push(&mut hybrid);
        if opts.equality {
            observers.push(&mut equality);
        }
        let mut sim_opts = SimOptions::new().counters(&mut counters);
        if let Some(sink) = sink {
            sim_opts = sim_opts.trace(sink);
        }
        if let Some(cancel) = opts.cancel.clone() {
            sim_opts = sim_opts.cancel(cancel);
        }
        simulate(trace, &cfg, &mut observers, sim_opts)?
    };
    let fairness = hybrid.into_report();
    let profile = ProfileReport {
        counters,
        wall_ns: started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
    };
    let per_user = opts.per_user.then(|| per_user(&schedule, &fairness));
    let resilience = opts
        .resilience
        .then(|| ResilienceReport::split(&fairness, &schedule));
    Ok(PolicyRun {
        outcome: PolicyOutcome {
            policy: policy.id.to_string(),
            schedule,
            fairness,
        },
        per_user,
        equality: opts.equality.then(|| equality.into_report()),
        resilience,
        profile,
    })
}

/// Evaluates one policy on a trace with the hybrid fairness observer
/// attached. Deterministic: equal inputs give equal outcomes. Panics on
/// invalid traces/configs; prefer [`try_run_policy`] where a failure must
/// not abort the caller.
pub fn run_policy(trace: &[Job], policy: &PolicySpec, nodes: u32) -> PolicyOutcome {
    run_policy_faulted(trace, policy, nodes, &FaultConfig::default())
}

/// [`run_policy`] under a fault model: same policy lowering, but the
/// simulator additionally injects the configured node failures and job
/// crashes. With `FaultConfig::default()` (all fault sources off) this is
/// byte-identical to the fault-free path. Still deterministic: the fault
/// timeline is a pure function of the config's seed. Panics on invalid
/// traces/configs; prefer [`try_run_policy`].
pub fn run_policy_faulted(
    trace: &[Job],
    policy: &PolicySpec,
    nodes: u32,
    faults: &FaultConfig,
) -> PolicyOutcome {
    try_run_policy(
        trace,
        policy,
        nodes,
        &RunOptions::with_faults(faults.clone()),
    )
    .map(|run| run.outcome)
    .unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsched_workload::CplantModel;

    fn small_trace() -> Vec<Job> {
        CplantModel::new(17).with_scale(0.02).generate()
    }

    #[test]
    fn outcome_scores_every_submission() {
        let trace = small_trace();
        let out = run_policy(&trace, &PolicySpec::baseline(), 1024);
        assert_eq!(out.policy, "cplant24.nomax.all");
        // No runtime limit: records = submissions = trace jobs.
        assert_eq!(out.schedule.records.len(), trace.len());
        assert_eq!(out.fairness.entries.len(), trace.len());
        assert_eq!(out.originals().len(), trace.len());
    }

    #[test]
    fn chunked_policy_scores_chunks_but_aggregates_originals() {
        let trace = small_trace();
        let p = PolicySpec::by_id("cplant24.72max.all").unwrap();
        let out = run_policy(&trace, &p, 1024);
        // Chunking multiplies submissions but the originals stay fixed.
        assert!(out.schedule.records.len() >= trace.len());
        assert_eq!(out.originals().len(), trace.len());
        assert_eq!(out.fairness.entries.len(), out.schedule.records.len());
    }

    #[test]
    fn metrics_are_finite_and_in_range() {
        let trace = small_trace();
        let out = run_policy(&trace, &PolicySpec::by_id("cons.nomax").unwrap(), 1024);
        let m = out.metrics();
        assert!((0.0..=1.0).contains(&m.percent_unfair));
        assert!((0.0..=1.0).contains(&m.loss_of_capacity));
        assert!((0.0..=1.0).contains(&m.utilization));
        assert!(m.average_miss_time >= 0.0 && m.average_miss_time.is_finite());
        assert!(m.average_turnaround > 0.0 && m.average_turnaround.is_finite());
        assert!(m.miss_by_width.iter().all(|v| v.is_finite()));
        assert!(m.turnaround_by_width.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn default_fault_config_changes_nothing() {
        let trace = small_trace();
        let p = PolicySpec::baseline();
        let clean = run_policy(&trace, &p, 1024);
        let faulted = run_policy_faulted(&trace, &p, 1024, &FaultConfig::default());
        assert_eq!(clean.schedule, faulted.schedule);
        assert_eq!(clean.fairness, faulted.fairness);
        // And a fault-free run reports an all-clean resilience split.
        let split = clean.resilience();
        assert_eq!(split.interrupted_count(), 0);
        assert_eq!(split.clean_count(), clean.fairness.entries.len());
    }

    #[test]
    fn faulted_runs_split_fairness_by_interruption() {
        let trace = small_trace();
        let p = PolicySpec::baseline();
        let faults = FaultConfig {
            job_crash_rate: 0.4,
            seed: 11,
            ..FaultConfig::default()
        };
        let out = run_policy_faulted(&trace, &p, 1024, &faults);
        let split = out.resilience();
        assert!(
            split.interrupted_count() > 0,
            "crash rate 0.4 must interrupt someone"
        );
        assert!(split.clean_count() > 0);
        assert_eq!(
            split.interrupted_count() + split.clean_count(),
            out.fairness.entries.len()
        );
        assert!(split.goodput > 0.0 && split.goodput <= out.schedule.utilization());
    }

    #[test]
    fn single_pass_collection_matches_separate_runs() {
        use fairsched_metrics::fairness::equality::equality_report;
        let trace = small_trace();
        let p = PolicySpec::baseline();
        let faults = FaultConfig {
            job_crash_rate: 0.2,
            seed: 5,
            ..FaultConfig::default()
        };
        let opts = RunOptions {
            faults: faults.clone(),
            per_user: true,
            equality: true,
            resilience: true,
            ..RunOptions::default()
        };
        let run = try_run_policy(&trace, &p, 1024, &opts).unwrap();
        // The historical path: one run for the schedule + hybrid report,
        // then one scoring pass per additional metric.
        let outcome = run_policy_faulted(&trace, &p, 1024, &faults);
        assert_eq!(run.outcome.schedule, outcome.schedule);
        assert_eq!(run.outcome.fairness, outcome.fairness);
        assert_eq!(
            run.per_user.as_deref().unwrap(),
            per_user(&outcome.schedule, &outcome.fairness)
        );
        assert_eq!(
            run.equality.as_ref().unwrap(),
            &equality_report(&outcome.schedule)
        );
        assert_eq!(run.resilience.as_ref().unwrap(), &outcome.resilience());
    }

    #[test]
    fn unrequested_reports_stay_absent() {
        let trace = small_trace();
        let run = try_run_policy(
            &trace,
            &PolicySpec::baseline(),
            1024,
            &RunOptions::default(),
        )
        .unwrap();
        assert!(run.per_user.is_none());
        assert!(run.equality.is_none());
        assert!(run.resilience.is_none());
    }

    #[test]
    fn every_run_reports_where_time_went() {
        let trace = small_trace();
        let run = try_run_policy(
            &trace,
            &PolicySpec::baseline(),
            1024,
            &RunOptions::default(),
        )
        .unwrap();
        let profile = run.profile;
        assert!(profile.wall_ns > 0);
        assert!(profile.counters.sched_passes > 0);
        assert_eq!(
            profile.counters.pass_ns.count(),
            profile.counters.sched_passes
        );
        assert!(profile.counters.backfill_attempts >= profile.counters.backfill_successes);
    }

    /// The deterministic part of a run's counters (pass times vary).
    fn work(c: &SimCounters) -> [u64; 4] {
        [
            c.sched_passes,
            c.earliest_start_calls,
            c.backfill_attempts,
            c.backfill_successes,
        ]
    }

    #[test]
    fn conservative_backfill_walks_are_counted() {
        let trace = small_trace();
        for id in ["cons.nomax", "consdyn.nomax"] {
            let p = PolicySpec::by_id(id).unwrap();
            let c = try_run_policy(&trace, &p, 1024, &RunOptions::default())
                .unwrap()
                .profile
                .counters;
            assert!(c.earliest_start_calls > 0, "{id}: {c:?}");
            assert!(c.backfill_attempts > 0, "{id}: {c:?}");
            assert!(c.backfill_successes > 0, "{id}: {c:?}");
            assert!(c.backfill_attempts >= c.backfill_successes, "{id}: {c:?}");
        }
    }

    #[test]
    fn concurrent_runs_count_only_their_own_work() {
        let trace = small_trace();
        let cons = PolicySpec::by_id("cons.nomax").unwrap();
        let easy = PolicySpec::by_id("easy.nomax").unwrap();
        let alone = |p: &PolicySpec| {
            work(
                &try_run_policy(&trace, p, 1024, &RunOptions::default())
                    .unwrap()
                    .profile
                    .counters,
            )
        };
        let (cons_alone, easy_alone) = (alone(&cons), alone(&easy));
        let (cons_together, easy_together) = std::thread::scope(|s| {
            let a = s.spawn(|| alone(&cons));
            let b = s.spawn(|| alone(&easy));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(cons_together, cons_alone);
        assert_eq!(easy_together, easy_alone);
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        let trace = small_trace();
        let p = PolicySpec::by_id("easy.nomax").unwrap();
        let mut records: Vec<fairsched_obs::TraceRecord> = Vec::new();
        let traced =
            try_run_policy_traced(&trace, &p, 1024, &RunOptions::default(), Some(&mut records))
                .unwrap();
        let untraced = try_run_policy(&trace, &p, 1024, &RunOptions::default()).unwrap();
        assert_eq!(traced.outcome.schedule, untraced.outcome.schedule);
        assert_eq!(traced.outcome.fairness, untraced.outcome.fairness);
        // Every submission start shows up as a decision record.
        let starts = records
            .iter()
            .filter(|r| matches!(r, fairsched_obs::TraceRecord::JobStarted { .. }))
            .count();
        assert_eq!(starts, traced.outcome.schedule.records.len());
    }

    #[test]
    fn try_run_policy_reports_errors_instead_of_panicking() {
        // An 8-node machine rejects the CPlant trace's wide jobs: a typed
        // error, not a panic.
        let trace = small_trace();
        let err =
            try_run_policy(&trace, &PolicySpec::baseline(), 8, &RunOptions::default()).unwrap_err();
        assert!(err.to_string().contains("nodes on a"));
    }

    #[test]
    fn runs_are_deterministic() {
        let trace = small_trace();
        let p = PolicySpec::by_id("consdyn.nomax").unwrap();
        let a = run_policy(&trace, &p, 1024);
        let b = run_policy(&trace, &p, 1024);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.fairness, b.fairness);
    }
}
