//! The core-layer ledger: drives `SteppedSim` from outside, with the
//! metric observers behind a timing wrapper, so a run's wall time splits
//! into core self time, observer time and report time.

use crate::stats::{median, percentile};
use crate::{Report, UNACCOUNTED_TOLERANCE_PCT};
use fairsched_obs::{StartCause, TraceRecord};
use fairsched_sim::{
    ArrivalView, Effect, JobRecord, Observer, Schedule, SimConfig, SimError, SimEvent, SteppedSim,
};
use fairsched_workload::job::JobId;
use fairsched_workload::time::Time;
use std::time::Instant;

/// Forwards every hook to `inner` and adds the time spent there to `ns`.
pub struct Timed<O> {
    inner: O,
    ns: u64,
}

impl<O> Timed<O> {
    fn time<R>(&mut self, f: impl FnOnce(&mut O) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut self.inner);
        self.ns += nanos(t);
        r
    }
}

impl<O: Observer> Observer for Timed<O> {
    fn on_arrival(&mut self, view: &ArrivalView<'_>) {
        self.time(|o| o.on_arrival(view));
    }
    fn on_start(&mut self, id: JobId, now: Time) {
        self.time(|o| o.on_start(id, now));
    }
    fn on_complete(&mut self, id: JobId, now: Time, killed: bool) {
        self.time(|o| o.on_complete(id, now, killed));
    }
    fn on_record(&mut self, record: &JobRecord) {
        self.time(|o| o.on_record(record));
    }
    fn on_finish(&mut self, schedule: &Schedule) {
        self.time(|o| o.on_finish(schedule));
    }
}

/// Scheduling decisions counted from `Effect::Trace` records. They are a
/// pure function of the input and policy, so they repeat exactly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Decisions {
    /// Reservations the ledger made.
    pub reservations_made: u64,
    /// Reservations the ledger moved.
    pub reservations_shifted: u64,
    /// Starts that jumped higher-priority jobs.
    pub starts_backfilled: u64,
    /// Higher-priority jobs left waiting by those starts.
    pub bypasses: u64,
    /// Starvation-guard promotions.
    pub starvation_promotions: u64,
    /// Arrivals the virtual fair schedule ranked ahead of earlier ones.
    pub virtual_inversions: u64,
}

impl Decisions {
    fn count(&mut self, record: &TraceRecord) {
        match record {
            TraceRecord::ReservationMade { .. } => self.reservations_made += 1,
            TraceRecord::ReservationShifted { .. } => self.reservations_shifted += 1,
            TraceRecord::JobStarted {
                cause: StartCause::Backfilled { bypassed },
                ..
            } => {
                self.starts_backfilled += 1;
                self.bypasses += bypassed.len() as u64;
            }
            TraceRecord::StarvationPromoted { .. } => self.starvation_promotions += 1,
            TraceRecord::VirtualInversion { .. } => self.virtual_inversions += 1,
            _ => {}
        }
    }

    /// Adds another run's counts.
    pub fn add(&mut self, o: &Decisions) {
        self.reservations_made += o.reservations_made;
        self.reservations_shifted += o.reservations_shifted;
        self.starts_backfilled += o.starts_backfilled;
        self.bypasses += o.bypasses;
        self.starvation_promotions += o.starvation_promotions;
        self.virtual_inversions += o.virtual_inversions;
    }
}

/// Where one driven run's wall time went.
#[derive(Debug, Default, Clone)]
pub struct CoreLedger {
    /// From the first step to the finished report.
    pub wall_ns: u64,
    /// Step and finish time minus the observer time inside them.
    pub sim_self_ns: u64,
    /// Time inside the metric observers.
    pub observe_ns: u64,
    /// Time turning the observers into the fairness report.
    pub report_ns: u64,
    /// Self time of each granted event batch.
    pub step_self_ns: Vec<u64>,
    /// Decisions the core traced.
    pub decisions: Decisions,
}

impl CoreLedger {
    /// The three measured parts, summed.
    pub fn parts_ns(&self) -> u64 {
        self.sim_self_ns + self.observe_ns + self.report_ns
    }

    /// Wall time the parts leave unexplained, as a percentage of wall.
    pub fn unaccounted_pct(&self) -> f64 {
        100.0 * (self.wall_ns as f64 - self.parts_ns() as f64) / self.wall_ns.max(1) as f64
    }

    /// Adds another run's ledger.
    pub fn add(&mut self, o: &CoreLedger) {
        self.wall_ns += o.wall_ns;
        self.sim_self_ns += o.sim_self_ns;
        self.observe_ns += o.observe_ns;
        self.report_ns += o.report_ns;
        self.step_self_ns.extend_from_slice(&o.step_self_ns);
        self.decisions.add(&o.decisions);
    }
}

/// Feeds `events` into a core under `cfg` (with trace effects when
/// `traced`), then grants time one event batch at a time until it
/// drains, as the batch driver and a session seal do; finally builds the
/// report with `report`.
pub fn drive<O: Observer, R>(
    cfg: &SimConfig,
    traced: bool,
    events: impl IntoIterator<Item = SimEvent>,
    observer: O,
    report: impl FnOnce(O) -> R,
) -> Result<(Schedule, R, CoreLedger), SimError> {
    let mut ledger = CoreLedger::default();
    let mut obs = Timed {
        inner: observer,
        ns: 0,
    };
    let started = Instant::now();
    let mut core = SteppedSim::with_trace_effects(cfg, traced)?;
    ledger.sim_self_ns += nanos(started);
    let mut step = |core: &mut SteppedSim, event: SimEvent, obs: &mut Timed<O>| {
        let grant = matches!(event, SimEvent::AdvanceTo(_));
        let (t, before) = (Instant::now(), obs.ns);
        let effects = core.step(event, obs)?;
        let self_ns = nanos(t).saturating_sub(obs.ns - before);
        ledger.sim_self_ns += self_ns;
        if grant {
            ledger.step_self_ns.push(self_ns);
        }
        for effect in &effects {
            if let Effect::Trace { record } = effect {
                ledger.decisions.count(record);
            }
        }
        Ok::<(), SimError>(())
    };
    for event in events {
        step(&mut core, event, &mut obs)?;
    }
    while let Some(at) = core.next_wakeup() {
        step(&mut core, SimEvent::AdvanceTo(at), &mut obs)?;
    }
    let t = Instant::now();
    let schedule = core.finish()?;
    ledger.sim_self_ns += nanos(t);
    obs.on_finish(&schedule);
    ledger.observe_ns = obs.ns;
    let t = Instant::now();
    let out = report(obs.inner);
    ledger.report_ns = nanos(t);
    ledger.wall_ns = nanos(started);
    Ok((schedule, out, ledger))
}

/// The per-layer figures of one traced round, for medians across rounds.
#[derive(Default)]
pub struct Round {
    /// The traced drives' ledger.
    pub ledger: CoreLedger,
    /// Wall time of the same work untraced.
    pub untraced_s: f64,
}

/// Reports the core-layer metrics: times as medians over rounds,
/// decision counts from the first round (they repeat exactly for a seed),
/// the reconciliation line and the tracing overhead. With `reconcile`,
/// unexplained wall time beyond the tolerance fails the run; a drive of
/// a few milliseconds leaves the fixed cost of the timing itself a
/// visible share, so small drives only print it.
pub fn report_core_layers(rounds: &[Round], reconcile: bool, report: &mut Report) {
    let med = |f: &dyn Fn(&Round) -> f64| {
        median(&rounds.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let first = &rounds[0].ledger;
    let steps: Vec<f64> = first
        .step_self_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    report.metric("sim.self_s", med(&|r| r.ledger.sim_self_ns as f64 / 1e9));
    report.metric(
        "sim.step_self_us_p50",
        percentile(&steps, 50.0).unwrap_or(0.0),
    );
    report.metric(
        "sim.step_self_us_p99",
        percentile(&steps, 99.0).unwrap_or(0.0),
    );
    report.metric("sim.steps", first.step_self_ns.len() as f64);
    let d = first.decisions;
    report.metric("sim.reservations_made", d.reservations_made as f64);
    report.metric("sim.reservations_shifted", d.reservations_shifted as f64);
    report.metric("sim.starts_backfilled", d.starts_backfilled as f64);
    report.metric("sim.bypasses", d.bypasses as f64);
    report.metric("sim.starvation_promotions", d.starvation_promotions as f64);
    report.metric("sim.virtual_inversions", d.virtual_inversions as f64);
    report.metric(
        "metrics.observe_s",
        med(&|r| r.ledger.observe_ns as f64 / 1e9),
    );
    report.metric(
        "metrics.report_s",
        med(&|r| r.ledger.report_ns as f64 / 1e9),
    );
    let unaccounted = med(&|r| r.ledger.unaccounted_pct());
    report.metric("runner.unaccounted_pct", unaccounted);
    report.check(!reconcile || unaccounted.abs() <= UNACCOUNTED_TOLERANCE_PCT, || {
        format!("layer parts leave {unaccounted:.2} % of traced wall time unexplained (tolerance {UNACCOUNTED_TOLERANCE_PCT} %)")
    });
    let wall = med(&|r| r.ledger.wall_ns as f64 / 1e9);
    let parts = med(&|r| r.ledger.parts_ns() as f64 / 1e9);
    println!(
        "reconcile: traced wall {wall:.4} s = sim.self + metrics.observe + metrics.report {parts:.4} s \
         + unaccounted {unaccounted:.2} % (tolerance {UNACCOUNTED_TOLERANCE_PCT} %)"
    );
    let overhead = med(&|r| 100.0 * (r.ledger.wall_ns as f64 / 1e9 / r.untraced_s - 1.0));
    println!("tracing overhead: traced drive {wall:.4} s vs untraced = {overhead:+.2} %");
    report.metric("tracing.overhead_pct", overhead);
}

/// Nanoseconds since `t`.
pub fn nanos(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
