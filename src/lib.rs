//! # fairsched
//!
//! Umbrella crate: re-exports the whole `fairsched` workspace behind one
//! dependency, and hosts the workspace-level examples and integration tests.
//!
//! See [`core`] (policies + experiment runner), [`workload`] (trace model and
//! synthesis), [`sim`] (the event-driven simulator), [`metrics`] (user,
//! system, and fairness metrics), [`obs`] (decision traces, runtime
//! counters, logging facade), [`cpa`] (the compute process allocator),
//! [`served`] (the `fairschedd` online scheduling service and its typed
//! client), and [`experiments`] (per-figure regeneration harness).
//!
//! Most applications only need the [`prelude`]. One `try_run_policy` call
//! simulates once and collects every requested report from that single run:
//!
//! ```
//! use fairsched::prelude::*;
//!
//! let trace = CplantModel::new(1).with_scale(0.02).generate();
//! let run = try_run_policy(
//!     &trace,
//!     &PolicySpec::baseline(),
//!     1024,
//!     &RunOptions::everything(),
//! )
//! .unwrap();
//! assert!(run.outcome.metrics().utilization > 0.0);
//! assert!(run.per_user.is_some() && run.equality.is_some() && run.resilience.is_some());
//! ```

pub use fairsched_core as core;
pub use fairsched_cpa as cpa;
pub use fairsched_experiments as experiments;
pub use fairsched_metrics as metrics;
pub use fairsched_obs as obs;
pub use fairsched_served as served;
pub use fairsched_sim as sim;
pub use fairsched_workload as workload;

/// The types most users need, in one import.
///
/// Centred on the single-pass API: [`simulate`](fairsched_sim::simulate) +
/// [`SimOptions`](fairsched_sim::SimOptions) + [`ObserverSet`] for raw
/// simulations, [`try_run_policy`] + [`RunOptions`] for one policy with any
/// subset of reports, [`try_run_policies`] / [`try_run_policies_with`] for
/// fenced parallel sweeps. The clock-decoupled core is here too —
/// [`SteppedSim`](fairsched_sim::SteppedSim) with its
/// [`SimEvent`](fairsched_sim::SimEvent)/[`Effect`](fairsched_sim::Effect)
/// contract — plus the `fairsched-served` client types for talking to a
/// running `fairschedd`.
pub mod prelude {
    pub use fairsched_core::policy::PolicySpec;
    pub use fairsched_core::runner::{
        run_policy, try_run_policy, try_run_policy_traced, OutcomeMetrics, PolicyOutcome,
        PolicyRun, RunOptions,
    };
    pub use fairsched_core::sweep::{try_run_policies, try_run_policies_with, SweepError};
    pub use fairsched_metrics::explain::{explain_wait, worst_miss, WaitBreakdown};
    pub use fairsched_metrics::fairness::fst::FstReport;
    pub use fairsched_metrics::fairness::sabin::{sabin_fsts, sabin_fsts_parallel, sabin_report};
    pub use fairsched_metrics::{
        EqualityObserver, EqualityReport, HybridFstObserver, PerUserObserver, ResilienceObserver,
        ResilienceReport, UserFairness,
    };
    pub use fairsched_obs::{
        DecisionTracer, ProfileReport, SimCounters, StartCause, TraceRecord, TraceSink,
    };
    pub use fairsched_served::{
        AdvanceResponse, Client, ClockMode, Daemon, SealResponse, ServeError, Session,
        SessionConfig, StatusResponse, SubmitRequest, SubmitResponse, VirtualClock,
    };
    pub use fairsched_sim::{
        simulate, warm_start_forkable, warm_start_supported, Effect, EngineKind, FaultConfig,
        KillPolicy, NullObserver, Observer, ObserverSet, PrefixSimulator, QueueOrder,
        ResiliencePolicy, Schedule, SimConfig, SimError, SimEvent, SimOptions, StepStatus,
        SteppedSim,
    };
    pub use fairsched_workload::job::{Job, JobId, UserId};
    pub use fairsched_workload::time::{Time, DAY, HOUR, MINUTE, WEEK};
    pub use fairsched_workload::CplantModel;
}
