//! Structured decision traces.
//!
//! A [`TraceRecord`] is one scheduling decision (or one state sample),
//! emitted at the moment it is made: who started and *why*, whose
//! reservation moved, who got promoted out of starvation, which crashed
//! submission was requeued. A [`TraceSink`] receives them; the stock sink
//! is [`DecisionTracer`], a bounded ring buffer that keeps the most recent
//! records and counts what it had to drop.
//!
//! Emission sites inside the simulator hold shared (`&`) context, so the
//! sink travels as a [`SharedSink`] — a `Mutex` around the caller's
//! `&mut dyn TraceSink`. The simulator is single-threaded per run, so the
//! lock is uncontended by construction; it exists so a simulator state
//! (with its trace handle) is `Send` and can be handed to worker threads
//! by the warm-start fan-out and the sweep watchdog.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::json::Json;
use fairsched_workload::job::JobId;
use fairsched_workload::time::Time;

/// Why a job started when it did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StartCause {
    /// Started in queue-priority order: nothing runnable was ahead of it.
    Fcfs,
    /// Started out of order, jumping the listed higher-priority jobs that
    /// were left waiting (in queue-priority order).
    Backfilled { bypassed: Vec<JobId> },
    /// Started because a reservation (conservative/depth slot, or the
    /// guaranteed head under aggressive backfilling) came due.
    Reservation,
    /// Started as the starvation guard: the no-guarantee engine promoted
    /// it to a protected head after it starved past the threshold.
    StarvationGuard,
}

impl StartCause {
    fn tag(&self) -> &'static str {
        match self {
            StartCause::Fcfs => "fcfs",
            StartCause::Backfilled { .. } => "backfilled",
            StartCause::Reservation => "reservation",
            StartCause::StarvationGuard => "starvation_guard",
        }
    }
}

/// One scheduling decision or state sample, stamped with simulation time.
///
/// Field conventions: `at` is the simulation time of the decision, `job`
/// is the submission id it concerns (chunked/requeued submissions have
/// their own ids; `origin` names the original trace job where relevant).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A job was dispatched onto nodes.
    JobStarted {
        at: Time,
        job: JobId,
        nodes: u32,
        cause: StartCause,
    },
    /// A conservative-family reservation was created for `job`.
    ReservationMade { at: Time, job: JobId, start: Time },
    /// An existing reservation for `job` moved from `from` to `to` —
    /// backward under §5.3 improvement, either way under §5.4 dynamic
    /// rebuilds (forward moves are the "slippage" the paper blames for
    /// unfairness).
    ReservationShifted {
        at: Time,
        job: JobId,
        from: Time,
        to: Time,
    },
    /// The starvation threshold promoted `job` to guarded head after it
    /// waited `waited` seconds.
    StarvationPromoted { at: Time, job: JobId, waited: Time },
    /// Submission `job` (of trace job `origin`) died to a fault and was
    /// requeued as new submission `retry`, losing `lost` seconds of
    /// completed work.
    FaultRequeued {
        at: Time,
        origin: JobId,
        job: JobId,
        retry: JobId,
        lost: Time,
    },
    /// A node went down at `at`; it comes back at `until`.
    NodeFailed { at: Time, node: u64, until: Time },
    /// A size-based order strategy (FSP/LAS/HFSP) ranked `job` at the head
    /// of its virtual schedule ahead of `displaced`, the job that arrived
    /// first — a virtual-time inversion. `job_key`/`displaced_key` are the
    /// strategy's sort keys (virtual remaining size over fair-share weight,
    /// or per-user attained service). Emitted once per distinct
    /// (job, displaced) pair so `explain` can attribute a job's policy wait
    /// to the virtual schedule overtaking it.
    VirtualInversion {
        at: Time,
        job: JobId,
        displaced: JobId,
        job_key: f64,
        displaced_key: f64,
    },
    /// Queue/machine state after an event batch settled: queue `depth`
    /// (jobs) demanding `queued_nodes` nodes in total, `free_nodes` idle,
    /// `running` jobs placed, instantaneous utilization `util`.
    QueueSample {
        at: Time,
        depth: usize,
        queued_nodes: u64,
        free_nodes: u32,
        running: usize,
        util: f64,
    },
}

impl TraceRecord {
    /// Simulation time the record was emitted at.
    pub fn at(&self) -> Time {
        match *self {
            TraceRecord::JobStarted { at, .. }
            | TraceRecord::ReservationMade { at, .. }
            | TraceRecord::ReservationShifted { at, .. }
            | TraceRecord::StarvationPromoted { at, .. }
            | TraceRecord::FaultRequeued { at, .. }
            | TraceRecord::NodeFailed { at, .. }
            | TraceRecord::VirtualInversion { at, .. }
            | TraceRecord::QueueSample { at, .. } => at,
        }
    }

    /// Renders the record as one line of JSON (no trailing newline): an
    /// object whose `"type"` names the variant, plus one key per field.
    pub fn to_jsonl(&self) -> String {
        let u = Json::UInt;
        let id = |job: JobId| Json::UInt(job.0.into());
        let (kind, mut fields) = match *self {
            TraceRecord::JobStarted {
                job,
                nodes,
                ref cause,
                ..
            } => {
                let mut fields = vec![
                    ("job", id(job)),
                    ("nodes", u(nodes.into())),
                    ("cause", Json::Str(cause.tag().into())),
                ];
                if let StartCause::Backfilled { bypassed } = cause {
                    let ids = bypassed.iter().map(|&job| id(job)).collect();
                    fields.push(("bypassed", Json::Arr(ids)));
                }
                ("job_started", fields)
            }
            TraceRecord::ReservationMade { job, start, .. } => (
                "reservation_made",
                vec![("job", id(job)), ("start", u(start))],
            ),
            TraceRecord::ReservationShifted { job, from, to, .. } => (
                "reservation_shifted",
                vec![("job", id(job)), ("from", u(from)), ("to", u(to))],
            ),
            TraceRecord::StarvationPromoted { job, waited, .. } => (
                "starvation_promoted",
                vec![("job", id(job)), ("waited", u(waited))],
            ),
            TraceRecord::FaultRequeued {
                origin,
                job,
                retry,
                lost,
                ..
            } => (
                "fault_requeued",
                vec![
                    ("origin", id(origin)),
                    ("job", id(job)),
                    ("retry", id(retry)),
                    ("lost", u(lost)),
                ],
            ),
            TraceRecord::NodeFailed { node, until, .. } => {
                ("node_failed", vec![("node", u(node)), ("until", u(until))])
            }
            TraceRecord::VirtualInversion {
                job,
                displaced,
                job_key,
                displaced_key,
                ..
            } => (
                "virtual_inversion",
                vec![
                    ("job", id(job)),
                    ("displaced", id(displaced)),
                    ("job_key", Json::Float(job_key)),
                    ("displaced_key", Json::Float(displaced_key)),
                ],
            ),
            TraceRecord::QueueSample {
                depth,
                queued_nodes,
                free_nodes,
                running,
                util,
                ..
            } => (
                "queue_sample",
                vec![
                    ("depth", u(depth as u64)),
                    ("queued_nodes", u(queued_nodes)),
                    ("free_nodes", u(free_nodes.into())),
                    ("running", u(running as u64)),
                    ("util", Json::Float(util)),
                ],
            ),
        };
        fields.push(("type", Json::Str(kind.into())));
        fields.push(("at", u(self.at())));
        Json::obj(fields).render()
    }
}

/// Receives trace records as the simulation makes decisions.
///
/// Implementations must not observe or influence the simulation in any
/// other way: the zero-interference proptests hold for *any* sink because
/// the simulator never reads anything back from it. Sinks are `Send` so a
/// traced simulator state can cross threads (parallel fan-outs, watchdog
/// cancellation); emission itself still happens on one thread at a time.
pub trait TraceSink: Send {
    /// Accept one record. Called at most a few times per simulation event.
    fn record(&mut self, rec: TraceRecord);
}

/// Collect everything, unbounded. Handy in tests.
impl TraceSink for Vec<TraceRecord> {
    fn record(&mut self, rec: TraceRecord) {
        self.push(rec);
    }
}

/// Bounded ring buffer of the most recent trace records.
///
/// When full, the oldest record is dropped and counted; `len + dropped`
/// is the total number of records ever offered. [`DecisionTracer::unbounded`]
/// keeps everything — use it when a later replay (JSONL export,
/// `fairsched explain`) needs the full history.
#[derive(Debug, Clone, Default)]
pub struct DecisionTracer {
    buf: VecDeque<TraceRecord>,
    cap: usize,
    dropped: u64,
}

impl DecisionTracer {
    /// A tracer keeping at most `cap` records (the most recent ones).
    pub fn new(cap: usize) -> Self {
        DecisionTracer {
            buf: VecDeque::new(),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    /// A tracer that never evicts.
    pub fn unbounded() -> Self {
        Self::new(usize::MAX)
    }

    /// Records currently held, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Consumes the tracer, yielding held records oldest first.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.buf.into()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records evicted to honor the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes every held record as JSONL to `w`.
    pub fn write_jsonl<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        for rec in &self.buf {
            writeln!(w, "{}", rec.to_jsonl())?;
        }
        Ok(())
    }
}

impl TraceSink for DecisionTracer {
    fn record(&mut self, rec: TraceRecord) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }
}

/// Shared-reference emission interface, for contexts that only hold `&`.
///
/// The simulator hands engines a shared context, so the sink travels as
/// `Option<&dyn TraceHandle>`: one pointer to test per emission site, and
/// the lifetime of the underlying `&mut` sink stays erased (trait objects
/// are covariant in their lifetime bound, so the handle threads through
/// borrow-stacked contexts without infecting their lifetimes). Handles are
/// `Sync` so a simulator state holding one is `Send`.
pub trait TraceHandle: Sync {
    /// Accepts one record.
    fn emit(&self, rec: TraceRecord);
}

/// A [`TraceSink`] shareable through `&`-only contexts.
///
/// The engine context is handed to engines by shared reference, so the
/// sink inside it needs interior mutability. The simulation is
/// single-threaded per run and never emits while already emitting, so the
/// `Mutex` is uncontended; it (rather than a `RefCell`) makes the handle
/// `Sync`, which is what lets a simulator state cross threads.
pub struct SharedSink<'a> {
    inner: Mutex<&'a mut dyn TraceSink>,
}

impl<'a> SharedSink<'a> {
    /// Wraps a caller-owned sink for the duration of one simulation.
    pub fn new(sink: &'a mut dyn TraceSink) -> Self {
        SharedSink {
            inner: Mutex::new(sink),
        }
    }

    /// Forwards one record to the wrapped sink.
    pub fn record(&self, rec: TraceRecord) {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .record(rec);
    }
}

impl TraceHandle for SharedSink<'_> {
    fn emit(&self, rec: TraceRecord) {
        self.record(rec);
    }
}

impl std::fmt::Debug for SharedSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SharedSink")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started(at: Time, job: u32) -> TraceRecord {
        TraceRecord::JobStarted {
            at,
            job: JobId(job),
            nodes: 4,
            cause: StartCause::Fcfs,
        }
    }

    #[test]
    fn ring_buffer_keeps_the_most_recent_records() {
        let mut t = DecisionTracer::new(3);
        for i in 0..5 {
            t.record(started(i, i as u32));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let ats: Vec<Time> = t.records().map(|r| r.at()).collect();
        assert_eq!(ats, vec![2, 3, 4]);
    }

    #[test]
    fn unbounded_tracer_never_drops() {
        let mut t = DecisionTracer::unbounded();
        for i in 0..10_000 {
            t.record(started(i, 0));
        }
        assert_eq!(t.len(), 10_000);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn jsonl_lines_are_valid_single_objects() {
        use crate::json::{parse, Json};
        let cases = [
            (
                TraceRecord::JobStarted {
                    at: 10,
                    job: JobId(7),
                    nodes: 16,
                    cause: StartCause::Backfilled {
                        bypassed: vec![JobId(3), JobId(5)],
                    },
                },
                r#"{"type":"job_started","at":10,"job":7,"nodes":16,"cause":"backfilled","bypassed":[3,5]}"#,
            ),
            (
                TraceRecord::JobStarted {
                    at: 11,
                    job: JobId(8),
                    nodes: 2,
                    cause: StartCause::StarvationGuard,
                },
                r#"{"type":"job_started","at":11,"job":8,"nodes":2,"cause":"starvation_guard"}"#,
            ),
            (
                TraceRecord::ReservationMade {
                    at: 15,
                    job: JobId(3),
                    start: 100,
                },
                r#"{"type":"reservation_made","at":15,"job":3,"start":100}"#,
            ),
            (
                TraceRecord::ReservationShifted {
                    at: 20,
                    job: JobId(3),
                    from: 100,
                    to: 180,
                },
                r#"{"type":"reservation_shifted","at":20,"job":3,"from":100,"to":180}"#,
            ),
            (
                TraceRecord::StarvationPromoted {
                    at: 25,
                    job: JobId(4),
                    waited: 86_400,
                },
                r#"{"type":"starvation_promoted","at":25,"job":4,"waited":86400}"#,
            ),
            (
                TraceRecord::FaultRequeued {
                    at: 26,
                    origin: JobId(5),
                    job: JobId(9),
                    retry: JobId(12),
                    lost: 300,
                },
                r#"{"type":"fault_requeued","at":26,"origin":5,"job":9,"retry":12,"lost":300}"#,
            ),
            (
                TraceRecord::NodeFailed {
                    at: 27,
                    node: 511,
                    until: 3_627,
                },
                r#"{"type":"node_failed","at":27,"node":511,"until":3627}"#,
            ),
            (
                TraceRecord::VirtualInversion {
                    at: 28,
                    job: JobId(6),
                    displaced: JobId(2),
                    job_key: 12.125,
                    displaced_key: 1.0e9 + 0.5,
                },
                r#"{"type":"virtual_inversion","at":28,"job":6,"displaced":2,"job_key":12.125,"displaced_key":1000000000.5}"#,
            ),
            (
                TraceRecord::QueueSample {
                    at: 30,
                    depth: 4,
                    queued_nodes: 96,
                    free_nodes: 32,
                    running: 2,
                    util: 0.8125,
                },
                r#"{"type":"queue_sample","at":30,"depth":4,"queued_nodes":96,"free_nodes":32,"running":2,"util":0.8125}"#,
            ),
        ];
        for (rec, expected) in &cases {
            let line = rec.to_jsonl();
            assert!(!line.contains('\n'), "{line}");
            let got = parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(matches!(got, Json::Obj(_)), "{line}");
            assert_eq!(got, parse(expected).unwrap(), "{line}");
        }
    }

    #[test]
    fn shared_sink_forwards_through_shared_refs() {
        let mut tracer = DecisionTracer::unbounded();
        {
            let shared = SharedSink::new(&mut tracer);
            let shared_ref = &shared;
            shared_ref.record(started(1, 1));
            shared_ref.record(started(2, 2));
        }
        assert_eq!(tracer.len(), 2);
    }
}
