//! # fairsched-obs
//!
//! Observability for the fairsched stack: decision traces, per-run
//! counters, a metrics registry, a small logging facade, and the
//! workspace's JSON codec.
//!
//! * Tracing rides an `Option<&SharedSink>` threaded through the simulator
//!   and engines — untraced runs test one `Option` per emission site and
//!   otherwise compile to the historical code path. The
//!   zero-*interference* half of the contract (a traced run produces a
//!   byte-identical `Schedule`) is pinned by proptests at the workspace
//!   root.
//! * [`SimCounters`] is a plain struct each simulation owns and bumps as
//!   it works, so a profile always belongs to the run that produced it.
//!
//! The crate deliberately depends only on `fairsched-workload` (for
//! [`JobId`](fairsched_workload::job::JobId) and
//! [`Time`](fairsched_workload::time::Time)): the simulator depends on
//! *it*, never the other way around.
//!
//! [`json`] is the only code in the workspace that writes or parses JSON
//! text (the vendored `serde` is an API-surface stub whose derives expand
//! to nothing). It lives here because every crate that speaks JSON — the
//! journals in `fairsched-core`, the service, the CLI — already depends
//! on this one. [`TraceRecord::to_jsonl`] renders through it.

pub mod counters;
pub mod json;
pub mod log;
pub mod registry;
pub mod trace;

pub use counters::{Histogram, ProfileReport, SimCounters};
pub use registry::{Counter, Gauge, HistogramHandle, Registry};
pub use trace::{DecisionTracer, SharedSink, StartCause, TraceHandle, TraceRecord, TraceSink};
