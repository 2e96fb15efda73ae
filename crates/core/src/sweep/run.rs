//! The crash-safe sweep driver: runs a [`SweepPlan`] cell by cell under a
//! per-cell robustness envelope and streams terminal outcomes into the
//! journal.
//!
//! The envelope, per cell:
//!
//! * **Watchdog.** One background thread polls a shared deadline registry;
//!   an expired cell's [`CancelToken`] fires and the simulator stops at its
//!   next event batch with `SimError::TimedOut` — cooperative, no thread
//!   killing, no poisoned shared state.
//! * **Bounded retry.** Only timeouts retry (they are the one wall-clock —
//!   hence transient — failure mode; typed simulator errors and panics are
//!   deterministic), with exponential backoff, up to `max_retries` extra
//!   attempts. Retries stay in-process: only the *terminal* outcome is
//!   journaled.
//! * **Panic quarantine.** A panicking cell is recorded as a `poisoned` row
//!   carrying the payload, and the grid keeps going.
//!
//! Resume: `resume: true` replays the journal first, skips every cell with
//! a valid terminal row, and appends the rest. The final [`SweepSummary`]
//! is *always* rebuilt from a fresh journal replay, so an interrupted and
//! resumed sweep reports byte-identical results to an uninterrupted one.

use crate::policy::PolicySpec;
use crate::runner::{try_run_policy, PolicyRun, RunOptions};
use crate::sweep::grid::{Cell, SweepPlan};
use crate::sweep::journal::{self, CellRow, CellStatus, JournalWriter};
use crate::sweep::panic_message;
use fairsched_sim::{CancelToken, FaultConfig, SimError};
use fairsched_workload::job::Job;
use fairsched_workload::CplantModel;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Everything a sweep needs beyond the grid itself.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// The grid to run.
    pub plan: SweepPlan,
    /// Journal path (created, or appended to under `resume`).
    pub journal: PathBuf,
    /// Wall-clock budget per cell attempt; `None` disables the watchdog.
    pub timeout_per_cell: Option<Duration>,
    /// Extra attempts after a timeout (0 = no retry).
    pub max_retries: u32,
    /// Replay the journal and skip completed cells instead of truncating.
    pub resume: bool,
    /// Worker threads (`None`: available parallelism).
    pub threads: Option<usize>,
}

/// Aggregate health of a finished grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridState {
    /// Every cell has an `ok` row.
    Complete,
    /// Some cells failed or timed out (typed rows), none panicked.
    Partial,
    /// At least one cell is quarantined with a panic payload.
    Poisoned,
}

/// What a sweep (fresh or resumed) amounted to, rebuilt from the journal.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Cells in the plan.
    pub total: u64,
    /// Cells with an `ok` row.
    pub ok: u64,
    /// Cells rejected with a typed simulator error.
    pub failed: u64,
    /// Cells that exhausted their watchdog budget.
    pub timed_out: u64,
    /// Cells quarantined after a panic.
    pub poisoned: u64,
    /// Cells this invocation skipped because the journal already had them.
    pub resumed: u64,
    /// One row per cell, sorted by cell index.
    pub rows: Vec<CellRow>,
}

impl SweepSummary {
    /// The graceful-degradation verdict.
    pub fn grid_state(&self) -> GridState {
        if self.poisoned > 0 {
            GridState::Poisoned
        } else if self.ok == self.total {
            GridState::Complete
        } else {
            GridState::Partial
        }
    }
}

impl std::fmt::Display for SweepSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "sweep: {}/{} cells ok ({} failed, {} timed out, {} poisoned; {} resumed)",
            self.ok, self.total, self.failed, self.timed_out, self.poisoned, self.resumed
        )?;
        match self.grid_state() {
            GridState::Complete => write!(f, "grid complete"),
            GridState::Partial => write!(
                f,
                "grid PARTIAL: inspect failed/timed_out rows before trusting aggregates"
            ),
            GridState::Poisoned => write!(
                f,
                "grid POISONED: at least one cell panicked; its row carries the payload"
            ),
        }
    }
}

/// The deadline registry one watchdog thread polls. Cells arm a guard
/// before each attempt and disarm it after; the watchdog fires the token of
/// any guard past its deadline.
struct Watchdog {
    registry: Arc<Mutex<Vec<(u64, Instant, CancelToken)>>>,
    shutdown: Arc<AtomicBool>,
    next_id: AtomicU64,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    fn spawn(poll: Duration) -> Self {
        let registry: Arc<Mutex<Vec<(u64, Instant, CancelToken)>>> =
            Arc::new(Mutex::new(Vec::new()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = {
            let registry = Arc::clone(&registry);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                while !shutdown.load(Ordering::Acquire) {
                    std::thread::sleep(poll);
                    let now = Instant::now();
                    let mut reg = registry.lock().unwrap_or_else(PoisonError::into_inner);
                    reg.retain(|(_, deadline, token)| {
                        if *deadline <= now {
                            token.cancel();
                            false
                        } else {
                            true
                        }
                    });
                }
            })
        };
        Watchdog {
            registry,
            shutdown,
            next_id: AtomicU64::new(0),
            handle: Some(handle),
        }
    }

    fn arm(&self, budget: Duration) -> (u64, CancelToken) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let token = CancelToken::new();
        self.registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((id, Instant::now() + budget, token.clone()));
        (id, token)
    }

    fn disarm(&self, id: u64) {
        self.registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|(gid, _, _)| *gid != id);
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Backoff before retry attempt `n` (1-based): 10ms · 2^(n-1), capped at
/// one second. Timeouts usually mean transient machine load; backing off
/// gives the contention a chance to clear without stalling the grid.
fn backoff(attempt: u32) -> Duration {
    Duration::from_millis(10u64.saturating_mul(1 << attempt.min(7).saturating_sub(1)))
        .min(Duration::from_secs(1))
}

/// Runs one cell to a terminal row under the robustness envelope. Generic
/// over the actual runner so tests can inject panicking or hanging cells.
fn execute_cell<F>(
    plan: &SweepPlan,
    cell: &Cell,
    timeout: Option<Duration>,
    max_retries: u32,
    watchdog: Option<&Watchdog>,
    run: F,
) -> CellRow
where
    F: Fn(&PolicySpec, &FaultConfig, Option<CancelToken>) -> Result<PolicyRun, SimError>,
{
    let policy = &plan.policies[cell.policy_idx];
    let faults = plan.cell_faults(cell);
    let base = CellRow {
        cell: cell.index,
        policy: policy.id.to_string(),
        workload_seed: plan.seeds[cell.seed_idx],
        fault: plan.faults[cell.fault_idx].label.clone(),
        fault_seed: faults.seed,
        status: CellStatus::Ok,
        attempts: 0,
        detail: String::new(),
        metrics: None,
    };
    let mut attempts = 0;
    loop {
        attempts += 1;
        let guard = match (timeout, watchdog) {
            (Some(budget), Some(dog)) => Some(dog.arm(budget)),
            _ => None,
        };
        let token = guard.as_ref().map(|(_, t)| t.clone());
        let result = catch_unwind(AssertUnwindSafe(|| run(policy, &faults, token)));
        if let Some((id, _)) = &guard {
            watchdog.expect("guard implies watchdog").disarm(*id);
        }
        match result {
            Ok(Ok(run)) => {
                return CellRow {
                    attempts,
                    metrics: Some(run.outcome.metrics()),
                    ..base
                };
            }
            Ok(Err(e @ SimError::TimedOut { .. })) => {
                if attempts <= max_retries {
                    std::thread::sleep(backoff(attempts));
                    continue;
                }
                return CellRow {
                    status: CellStatus::TimedOut,
                    attempts,
                    detail: e.to_string(),
                    ..base
                };
            }
            Ok(Err(e)) => {
                // Typed, deterministic rejection: retrying cannot help.
                return CellRow {
                    status: CellStatus::Failed,
                    attempts,
                    detail: e.to_string(),
                    ..base
                };
            }
            Err(payload) => {
                return CellRow {
                    status: CellStatus::Poisoned,
                    attempts,
                    detail: panic_message(payload),
                    ..base
                };
            }
        }
    }
}

/// Runs (or resumes) the sweep described by `cfg`. Simulation-level
/// failures become journal rows; only infrastructure problems (journal IO,
/// a resume against the wrong grid) surface as errors.
pub fn run_sweep(cfg: &SweepConfig) -> std::io::Result<SweepSummary> {
    let plan = &cfg.plan;
    let fingerprint = plan.fingerprint();
    let (done, mut writer) = if cfg.resume {
        let replay = journal::replay(&cfg.journal)?;
        if let Some(fp) = replay.fingerprint {
            if fp != fingerprint {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "journal {} was written for a different grid \
                         (fingerprint {fp:#x}, plan is {fingerprint:#x})",
                        cfg.journal.display()
                    ),
                ));
            }
            (replay.done_cells(), JournalWriter::append(&cfg.journal)?)
        } else {
            // Nothing valid to resume from (missing or headerless file):
            // start fresh.
            (
                HashSet::new(),
                JournalWriter::create(&cfg.journal, fingerprint, plan.len())?,
            )
        }
    } else {
        (
            HashSet::new(),
            JournalWriter::create(&cfg.journal, fingerprint, plan.len())?,
        )
    };
    let resumed = done.len() as u64;

    let pending: Vec<Cell> = plan.cells().filter(|c| !done.contains(&c.index)).collect();
    // One shared immutable workload per seed, generated only for seeds that
    // still have pending cells.
    let needed: HashSet<usize> = pending.iter().map(|c| c.seed_idx).collect();
    let traces: Vec<Option<Vec<Job>>> = plan
        .seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            needed.contains(&i).then(|| {
                let mut jobs = CplantModel::new(seed)
                    .with_scale(plan.scale)
                    .with_nodes(plan.nodes)
                    .generate();
                if plan.exact_estimates {
                    // The exact-estimates axis: perfect size information,
                    // the idealized upper bound the calibrated Figure 5–7
                    // over-estimation model is compared against.
                    for job in &mut jobs {
                        job.estimate = job.runtime;
                    }
                }
                jobs
            })
        })
        .collect();

    let watchdog = cfg.timeout_per_cell.map(|t| {
        // Poll an order of magnitude finer than the budget, within sane
        // bounds, so a timeout overshoots by at most ~one poll.
        Watchdog::spawn((t / 10).clamp(Duration::from_millis(5), Duration::from_millis(50)))
    });

    let workers = cfg
        .threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .clamp(1, pending.len().max(1));

    // Worker panics inside a cell are quarantined into rows; silence the
    // global hook's backtrace noise for the duration (same trade as
    // `try_run_policies_with`).
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let writer_mutex = Mutex::new(&mut writer);
    let next = AtomicUsize::new(0);
    let io_error: Mutex<Option<std::io::Error>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = pending.get(i) else {
                    return;
                };
                let trace = traces[cell.seed_idx]
                    .as_deref()
                    .expect("pending cell's trace was generated");
                let row = execute_cell(
                    plan,
                    cell,
                    cfg.timeout_per_cell,
                    cfg.max_retries,
                    watchdog.as_ref(),
                    |policy, faults, cancel| {
                        let opts = RunOptions {
                            faults: faults.clone(),
                            cancel,
                            ..RunOptions::default()
                        };
                        try_run_policy(trace, policy, plan.nodes, &opts)
                    },
                );
                let mut w = writer_mutex.lock().unwrap_or_else(PoisonError::into_inner);
                if let Err(e) = w.write_row(&row) {
                    io_error
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .get_or_insert(e);
                    return;
                }
            });
        }
    });
    std::panic::set_hook(prev);
    drop(watchdog);
    writer.sync()?;
    drop(writer);
    if let Some(e) = io_error
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
    {
        return Err(e);
    }

    // The summary is rebuilt from a fresh replay — not from in-memory
    // results — so a resumed sweep reports exactly what an uninterrupted
    // one would.
    summarize(cfg, resumed)
}

fn summarize(cfg: &SweepConfig, resumed: u64) -> std::io::Result<SweepSummary> {
    let replay = journal::replay(&cfg.journal)?;
    let rows = replay.latest_rows();
    let count = |s: CellStatus| rows.iter().filter(|r| r.status == s).count() as u64;
    Ok(SweepSummary {
        total: cfg.plan.len(),
        ok: count(CellStatus::Ok),
        failed: count(CellStatus::Failed),
        timed_out: count(CellStatus::TimedOut),
        poisoned: count(CellStatus::Poisoned),
        resumed,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::grid::FaultPoint;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("fairsched-sweep-run-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn tiny_plan() -> SweepPlan {
        SweepPlan {
            seeds: vec![5, 6],
            policies: vec![
                PolicySpec::baseline(),
                PolicySpec::by_id("easy.nomax").unwrap(),
            ],
            faults: vec![FaultPoint::clean()],
            scale: 0.01,
            nodes: 1024,
            exact_estimates: false,
        }
    }

    fn sweep_cfg(name: &str, plan: SweepPlan) -> SweepConfig {
        SweepConfig {
            plan,
            journal: tmp(name),
            timeout_per_cell: None,
            max_retries: 0,
            resume: false,
            threads: Some(2),
        }
    }

    #[test]
    fn a_clean_grid_completes_with_metrics_everywhere() {
        let cfg = sweep_cfg("clean.jsonl", tiny_plan());
        let summary = run_sweep(&cfg).unwrap();
        assert_eq!(summary.total, 4);
        assert_eq!(summary.ok, 4);
        assert_eq!(summary.grid_state(), GridState::Complete);
        assert!(summary.rows.iter().all(|r| r.metrics.is_some()));
        assert_eq!(
            summary.rows.iter().map(|r| r.cell).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn resume_skips_completed_cells_and_matches_a_fresh_run() {
        let fresh = run_sweep(&sweep_cfg("fresh.jsonl", tiny_plan())).unwrap();

        // Interrupted run: journal only the first two cells, then resume.
        let mut partial = sweep_cfg("partial.jsonl", tiny_plan());
        let fp = partial.plan.fingerprint();
        {
            let mut w = JournalWriter::create(&partial.journal, fp, 4).unwrap();
            for row in fresh.rows.iter().take(2) {
                w.write_row(row).unwrap();
            }
        }
        partial.resume = true;
        let resumed = run_sweep(&partial).unwrap();
        assert_eq!(resumed.resumed, 2, "two cells must be skipped");
        assert_eq!(resumed.ok, 4);
        // Byte-level equality of every recovered row: the resumed grid is
        // indistinguishable from the uninterrupted one.
        let fresh_lines: Vec<String> = fresh.rows.iter().map(CellRow::to_jsonl).collect();
        let resumed_lines: Vec<String> = resumed.rows.iter().map(CellRow::to_jsonl).collect();
        assert_eq!(fresh_lines, resumed_lines);
    }

    #[test]
    fn resume_against_a_different_grid_is_refused() {
        let cfg = sweep_cfg("grid-a.jsonl", tiny_plan());
        run_sweep(&cfg).unwrap();
        let mut other = cfg.clone();
        other.plan.seeds.push(99);
        other.resume = true;
        let err = run_sweep(&other).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("different grid"));
    }

    #[test]
    fn a_panicking_cell_is_quarantined_not_fatal() {
        let plan = tiny_plan();
        let cell = plan.cell(1);
        let row = execute_cell(&plan, &cell, None, 3, None, |_, _, _| {
            panic!("cell exploded")
        });
        assert_eq!(row.status, CellStatus::Poisoned);
        assert_eq!(row.attempts, 1, "panics never retry");
        assert!(row.detail.contains("cell exploded"));
        assert!(row.metrics.is_none());
    }

    #[test]
    fn timeouts_retry_with_bounded_attempts() {
        let plan = tiny_plan();
        let cell = plan.cell(0);
        let tries = AtomicUsize::new(0);
        let row = execute_cell(&plan, &cell, None, 2, None, |_, _, _| {
            tries.fetch_add(1, Ordering::Relaxed);
            Err(SimError::TimedOut { at: 0 })
        });
        assert_eq!(row.status, CellStatus::TimedOut);
        assert_eq!(row.attempts, 3, "1 try + 2 retries");
        assert_eq!(tries.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn typed_errors_fail_without_retry() {
        let plan = tiny_plan();
        let cell = plan.cell(0);
        let tries = AtomicUsize::new(0);
        let row = execute_cell(&plan, &cell, None, 5, None, |_, _, _| {
            tries.fetch_add(1, Ordering::Relaxed);
            Err(SimError::InvalidConfig {
                reason: "nope".into(),
            })
        });
        assert_eq!(row.status, CellStatus::Failed);
        assert_eq!(tries.load(Ordering::Relaxed), 1);
        assert!(row.detail.contains("nope"));
    }

    #[test]
    fn the_watchdog_cancels_a_hanging_cell() {
        let plan = tiny_plan();
        let cell = plan.cell(0);
        let dog = Watchdog::spawn(Duration::from_millis(5));
        let row = execute_cell(
            &plan,
            &cell,
            Some(Duration::from_millis(30)),
            0,
            Some(&dog),
            |_, _, cancel| {
                // Simulate a wedged cell: spin until the watchdog fires.
                let token = cancel.expect("watchdog armed");
                let start = Instant::now();
                while !token.is_cancelled() {
                    assert!(
                        start.elapsed() < Duration::from_secs(10),
                        "watchdog never fired"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(SimError::TimedOut { at: 123 })
            },
        );
        assert_eq!(row.status, CellStatus::TimedOut);
    }

    #[test]
    fn a_grid_of_failing_cells_reports_partial_state() {
        // Drive the full run_sweep path with a plan whose fault point the
        // simulator rejects as a typed error (a certain-crash rate can
        // never terminate): every cell fails, none poison the grid.
        let mut plan = tiny_plan();
        plan.faults = vec![FaultPoint {
            label: "broken".into(),
            config: FaultConfig {
                job_crash_rate: 1.5,
                ..FaultConfig::default()
            },
        }];
        let cfg = sweep_cfg("failing.jsonl", plan);
        let summary = run_sweep(&cfg).unwrap();
        assert_eq!(summary.ok, 0);
        assert_eq!(summary.failed, 4);
        assert_eq!(summary.grid_state(), GridState::Partial);
        assert!(summary
            .rows
            .iter()
            .all(|r| r.detail.contains("job_crash_rate")));
    }

    #[test]
    fn fault_cells_inject_identically_across_fresh_and_resumed_runs() {
        // The deterministic --fault-seed satellite: a faulted grid resumed
        // from a partial journal must produce the same rows (same derived
        // sub-seeds, same metrics) as the uninterrupted run.
        let plan = SweepPlan {
            seeds: vec![11],
            policies: vec![PolicySpec::baseline()],
            faults: vec![
                FaultPoint::clean(),
                FaultPoint {
                    label: "crashy".into(),
                    config: FaultConfig {
                        job_crash_rate: 0.3,
                        seed: 7,
                        ..FaultConfig::default()
                    },
                },
            ],
            scale: 0.01,
            nodes: 1024,
            exact_estimates: false,
        };
        let fresh = run_sweep(&sweep_cfg("faults-fresh.jsonl", plan.clone())).unwrap();
        assert_eq!(fresh.ok, 2);
        let faulted = &fresh.rows[1];
        assert_eq!(faulted.fault, "crashy");
        assert_eq!(
            faulted.fault_seed,
            crate::sweep::grid::cell_fault_seed(7, 1),
            "journaled sub-seed follows the splitmix derivation"
        );

        // Resume with only the clean cell journaled: the faulted cell
        // re-runs and must reproduce the fresh row exactly.
        let mut partial = sweep_cfg("faults-partial.jsonl", plan.clone());
        {
            let mut w = JournalWriter::create(&partial.journal, plan.fingerprint(), 2).unwrap();
            w.write_row(&fresh.rows[0]).unwrap();
        }
        partial.resume = true;
        let resumed = run_sweep(&partial).unwrap();
        assert_eq!(resumed.rows[1].to_jsonl(), fresh.rows[1].to_jsonl());
    }
}
