//! Reservation ledgers: the future promises a pass's admissions must
//! respect.
//!
//! A ledger answers one question per walked job — may it start *now*? —
//! but the bookkeeping behind that answer is what separates the policy
//! families:
//!
//! * [`NoReservations`] — admitted iff it fits right now;
//! * [`HeadOfQueue`] — one aggressive (EASY-style) reservation computed per
//!   pass for the blocked promoted job; backfills must finish under its
//!   shadow or fit in its spare nodes;
//! * [`ConservativeLedger`] — a per-job reservation made on arrival and
//!   only ever improved (§5.3), or rebuilt wholesale at every event
//!   (§5.4). The static ledger keeps an *incremental* planned-capacity
//!   timeline across scheduling passes — a [`Profile`] holding every live
//!   reservation — instead of re-seeding one from the queue at each
//!   event, and supports [`snapshot`](ConservativeLedger::snapshot) /
//!   [`restore`](ConservativeLedger::restore) so warm-started prefix
//!   simulation can fork its exact state;
//! * [`DepthLedger`] — profile reservations for the first `n` jobs in
//!   priority order, rebuilt per pass.

use super::{EngineCtx, FAR_FUTURE};
use crate::profile::Profile;
use crate::state::QueuedJob;
use fairsched_obs::TraceRecord;
use fairsched_workload::job::JobId;
use fairsched_workload::time::Time;
use std::collections::{BTreeSet, HashMap};

/// An aggressive reservation: the guarded job starts at `shadow` when
/// enough nodes free up; backfilled work must either finish by `shadow` or
/// fit in the `extra` nodes the guarded job leaves unused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Reservation {
    pub(crate) shadow: Time,
    pub(crate) extra: u32,
}

/// Computes the aggressive reservation for a `nodes`-wide job given current
/// free nodes and the estimated ends of running work.
pub(crate) fn aggressive_reservation(
    nodes: u32,
    free: u32,
    now: Time,
    ends: &mut [(Time, u32)], // (estimated end, nodes); sorted in place
) -> Reservation {
    debug_assert!(nodes > free, "job that fits needs no reservation");
    ends.sort_unstable();
    let mut avail = free;
    for &(end, n) in ends.iter() {
        avail += n;
        if avail >= nodes {
            return Reservation {
                shadow: end.max(now),
                extra: avail - nodes,
            };
        }
    }
    // Wider than the machine is rejected upstream; this is unreachable for
    // valid traces, but degrade gracefully.
    Reservation {
        shadow: FAR_FUTURE,
        extra: 0,
    }
}

/// Whether a candidate backfill respects an aggressive reservation.
fn respects(job: &QueuedJob, now: Time, res: Option<&mut Reservation>) -> bool {
    match res {
        None => true,
        Some(res) => {
            if now + job.estimate <= res.shadow {
                true
            } else if job.nodes <= res.extra {
                res.extra -= job.nodes;
                true
            } else {
                false
            }
        }
    }
}

/// A ledger's verdict on one walked job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// May start right now.
    Start,
    /// Must wait (and counts as bypassed by later starts).
    Wait,
    /// Can never be placed (wider than the machine); holds no slot and is
    /// not counted as waiting.
    Infeasible,
}

/// Reservation bookkeeping for one engine composition. Lifecycle callbacks
/// mirror [`Engine`](super::Engine); per-pass hooks are driven by the
/// [`BackfillRule`](super::BackfillRule).
pub trait ReservationLedger: Send {
    /// A job entered the queue (already present in `ctx.queue`).
    fn on_arrival(&mut self, _job: &QueuedJob, _ctx: &EngineCtx<'_>) {}
    /// A previously queued job started (already removed from the queue).
    fn on_start(&mut self, _id: JobId) {}
    /// A running job completed or was killed.
    fn on_complete(&mut self, _id: JobId) {}

    /// Called once per scheduling pass before any admission query.
    /// `blocked_promoted` is the queue index of a promoted job that could
    /// not start immediately — it holds the pass's aggressive guard.
    fn begin_pass(&mut self, _ctx: &EngineCtx<'_>, _blocked_promoted: Option<usize>) {}

    /// May the walk's `rank`-th job (queue index `i`) start right now, with
    /// `free` nodes idle? May mutate per-pass state (spare-node budgets,
    /// profile holds) — the rule must query jobs in walk order exactly once.
    fn admit(&mut self, ctx: &EngineCtx<'_>, rank: usize, i: usize, free: u32) -> Admission;

    /// The job at queue index `i` was just started by the rule.
    fn note_start(&mut self, _ctx: &EngineCtx<'_>, _i: usize) {}

    /// Reserved start for `id`, when this ledger plans one.
    fn reservation_of(&self, _id: JobId) -> Option<Time> {
        None
    }

    /// The `earliest_start` probes made since the previous call, which
    /// resets the tally.
    fn take_probes(&mut self) -> u64 {
        0
    }

    /// A boxed replica, per-job state included.
    fn clone_box(&self) -> Box<dyn ReservationLedger>;
}

/// No promises: a job is admitted iff it fits right now.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoReservations;

impl ReservationLedger for NoReservations {
    fn admit(&mut self, ctx: &EngineCtx<'_>, _rank: usize, i: usize, free: u32) -> Admission {
        if ctx.queue[i].nodes <= free {
            Admission::Start
        } else {
            Admission::Wait
        }
    }

    fn clone_box(&self) -> Box<dyn ReservationLedger> {
        Box::new(*self)
    }
}

/// One aggressive reservation guarding the pass's blocked promoted job.
/// Recomputed from scratch each pass; carries no state across events.
#[derive(Debug, Clone, Default)]
pub struct HeadOfQueue {
    /// The live guard, consumed (its `extra` budget decremented) as the
    /// pass admits backfills.
    guard: Option<Reservation>,
}

impl ReservationLedger for HeadOfQueue {
    fn begin_pass(&mut self, ctx: &EngineCtx<'_>, blocked_promoted: Option<usize>) {
        self.guard = blocked_promoted.map(|g| {
            let head = &ctx.queue[g];
            // Estimated ends of running work; down nodes count as 1-node
            // occupants until their repair completes.
            let mut ends: Vec<(Time, u32)> = ctx
                .running
                .iter()
                .map(|r| (r.estimated_end(ctx.now), r.nodes))
                .collect();
            ends.extend(ctx.outages.iter().map(|o| (o.until.max(ctx.now + 1), 1)));
            aggressive_reservation(head.nodes, ctx.free_nodes, ctx.now, &mut ends)
        });
    }

    fn admit(&mut self, ctx: &EngineCtx<'_>, _rank: usize, i: usize, free: u32) -> Admission {
        let job = &ctx.queue[i];
        if job.nodes <= free && respects(job, ctx.now, self.guard.as_mut()) {
            Admission::Start
        } else {
            Admission::Wait
        }
    }

    fn clone_box(&self) -> Box<dyn ReservationLedger> {
        Box::new(self.clone())
    }
}

/// One planned rectangle of the conservative timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    start: Time,
    estimate: Time,
    nodes: u32,
}

/// Conservative backfilling's reservation ledger, optionally dynamic.
///
/// The static (§5.3) ledger maintains `planned` — the sum of every live
/// reservation rectangle — incrementally across scheduling passes: a pass
/// copies it into the ledger's `scratch` profile, overlays running work,
/// outages, and the "floaters" (past-due reservations clamped to `now`),
/// and improves each job in place. Because [`Profile`] is a canonical
/// delta encoding (order-independent, zero deltas dropped), the overlay is
/// byte-identical to the profile the pre-refactor engine re-seeded from
/// the whole queue at every event. Each improvement probes with
/// [`Profile::improve_start`], which reads the job's own rectangle out of
/// the overlay without removing it, so the overlay changes only when a
/// reservation actually moves.
#[derive(Debug, Clone)]
pub struct ConservativeLedger {
    dynamic: bool,
    /// Reserved slot per queued job (raw start, never clamped).
    slots: HashMap<JobId, Slot>,
    /// Slots keyed by raw start, for floater range queries.
    by_start: BTreeSet<(Time, JobId)>,
    /// Incremental timeline: Σ slot rectangles. Maintained only for the
    /// static ledger (the dynamic rebuild never reads it).
    planned: Profile,
    /// The pass profile (overlay or §5.4 rebuild), reused across passes so
    /// a pass allocates no profile of its own.
    scratch: Profile,
    /// `earliest_start` probes not yet taken by the engine.
    probes: u64,
}

/// An owned copy of a [`ConservativeLedger`]'s complete reservation state,
/// as captured by [`ConservativeLedger::snapshot`].
#[derive(Debug, Clone)]
pub struct ConservativeSnapshot(ConservativeLedger);

impl ConservativeLedger {
    /// `dynamic = false` for §5.3 (keep-unless-better), `true` for §5.4
    /// (rebuild every event).
    pub fn new(dynamic: bool) -> Self {
        ConservativeLedger {
            dynamic,
            slots: HashMap::new(),
            by_start: BTreeSet::new(),
            planned: Profile::new(0),
            scratch: Profile::new(0),
            probes: 0,
        }
    }

    /// Whether dynamic reservations are on.
    pub fn is_dynamic(&self) -> bool {
        self.dynamic
    }

    /// Captures the complete reservation state.
    pub fn snapshot(&self) -> ConservativeSnapshot {
        ConservativeSnapshot(self.clone())
    }

    /// Restores a previously captured state.
    pub fn restore(&mut self, snapshot: ConservativeSnapshot) {
        *self = snapshot.0;
    }

    /// The planned timeline must be encoded against the machine size before
    /// fit queries; rebuilt on the (first-use or hand-driven) mismatch.
    fn ensure_capacity(&mut self, total: u32) {
        if self.planned.capacity() != total {
            let mut p = Profile::new(total);
            for s in self.slots.values() {
                p.add(s.start, s.estimate, s.nodes);
            }
            self.planned = p;
        }
    }

    /// Records or moves a job's slot, keeping `by_start` and `planned` in
    /// lockstep.
    fn set_slot(&mut self, id: JobId, start: Time, estimate: Time, nodes: u32) {
        if let Some(old) = self.slots.insert(
            id,
            Slot {
                start,
                estimate,
                nodes,
            },
        ) {
            self.by_start.remove(&(old.start, id));
            if !self.dynamic {
                self.planned.remove(old.start, old.estimate, old.nodes);
            }
        }
        self.by_start.insert((start, id));
        if !self.dynamic {
            self.planned.add(start, estimate, nodes);
        }
    }

    /// Drops a job's slot (it started, or the queue drained).
    fn drop_slot(&mut self, id: JobId) {
        if let Some(old) = self.slots.remove(&id) {
            self.by_start.remove(&(old.start, id));
            if !self.dynamic {
                self.planned.remove(old.start, old.estimate, old.nodes);
            }
        }
    }

    fn clear_slots(&mut self) {
        self.slots.clear();
        self.by_start.clear();
        if !self.dynamic {
            self.planned.reset(self.planned.capacity());
        }
    }

    /// Whether the slot table covers exactly the given queue subset — the
    /// precondition for deriving a pass profile from `planned` instead of
    /// re-seeding. Always true when the simulator drives the ledger; hand-
    /// driven ledgers (unit tests) may skip `on_arrival` and fall back.
    fn slots_cover(&self, queue: &[QueuedJob], except: Option<JobId>) -> bool {
        let expected = queue.iter().filter(|q| Some(q.id) != except).count();
        self.slots.len() == expected
            && queue
                .iter()
                .filter(|q| Some(q.id) != except)
                .all(|q| self.slots.contains_key(&q.id))
            && except.is_none_or(|id| !self.slots.contains_key(&id))
    }

    /// Resets `scratch` to the profile of running work (estimate-based)
    /// plus capacity lost to node outages: failed nodes step the available
    /// capacity down until their repair time, so reservations never assume
    /// them.
    fn running_profile(&mut self, ctx: &EngineCtx<'_>) {
        self.scratch.reset(ctx.total_nodes);
        overlay_running(&mut self.scratch, ctx);
    }

    /// Sets `scratch` to the pass profile, derived from the incremental
    /// timeline: `planned` with past-due reservations floated up to `now`,
    /// plus running work and outages. Equals the re-seeded profile when
    /// `slots` covers the queue (see [`ConservativeLedger::slots_cover`]).
    fn effective_profile(&mut self, ctx: &EngineCtx<'_>) {
        self.scratch.clone_from(&self.planned);
        for &(t, id) in self.by_start.range(..(ctx.now, JobId(0))) {
            let s = self.slots[&id];
            self.scratch.remove(t, s.estimate, s.nodes);
            self.scratch.add(ctx.now, s.estimate, s.nodes);
        }
        overlay_running(&mut self.scratch, ctx);
    }

    fn slot_start(&self, id: JobId) -> Option<Time> {
        self.slots.get(&id).map(|s| s.start)
    }

    /// §5.4: discard everything, rebuild reservations in priority order.
    fn rebuild(&mut self, ctx: &EngineCtx<'_>) {
        // Tracing compares against the pre-rebuild reservations to report
        // shifts; the extra map only exists on traced runs.
        let old: Option<HashMap<JobId, Time>> = ctx
            .trace
            .map(|_| self.slots.iter().map(|(id, s)| (*id, s.start)).collect());
        self.clear_slots();
        self.running_profile(ctx);
        for &i in &ctx.priority() {
            let job = &ctx.queue[i];
            self.probes += 1;
            let start = self
                .scratch
                .earliest_start(ctx.now, job.nodes, job.estimate)
                .unwrap_or(FAR_FUTURE);
            self.scratch.add(start, job.estimate, job.nodes);
            if let (Some(t), Some(old)) = (ctx.trace, old.as_ref()) {
                match old.get(&job.id).copied() {
                    // The on_arrival placeholder (or a fresh job) gets its
                    // first real slot now.
                    Some(prev) if prev >= FAR_FUTURE => t.emit(TraceRecord::ReservationMade {
                        at: ctx.now,
                        job: job.id,
                        start,
                    }),
                    Some(prev) if prev != start => t.emit(TraceRecord::ReservationShifted {
                        at: ctx.now,
                        job: job.id,
                        from: prev,
                        to: start,
                    }),
                    Some(_) => {}
                    None => t.emit(TraceRecord::ReservationMade {
                        at: ctx.now,
                        job: job.id,
                        start,
                    }),
                }
            }
            self.set_slot(job.id, start, job.estimate, job.nodes);
        }
    }

    /// §5.3: each job, in priority order, tries to improve its reservation
    /// within the current profile; it never relinquishes a reservation for a
    /// worse one.
    fn improve(&mut self, ctx: &EngineCtx<'_>) {
        if self.slots_cover(ctx.queue, None) {
            self.effective_profile(ctx);
        } else {
            // Hand-driven fallback: some queued job never saw `on_arrival`.
            // Re-seed from the queue, treating missing slots as reserved at
            // the far future, exactly like the pre-refactor engine.
            self.running_profile(ctx);
            for job in ctx.queue {
                let start = self.slot_start(job.id).unwrap_or(FAR_FUTURE).max(ctx.now);
                self.scratch.add(start, job.estimate, job.nodes);
            }
        }
        for &i in &ctx.priority() {
            let job = &ctx.queue[i];
            let old = self.slot_start(job.id).unwrap_or(FAR_FUTURE).max(ctx.now);
            self.probes += 1;
            let chosen = self
                .scratch
                .improve_start(ctx.now, job.nodes, job.estimate, old);
            if chosen != old {
                self.scratch.remove(old, job.estimate, job.nodes);
                self.scratch.add(chosen, job.estimate, job.nodes);
            }
            if let Some(t) = ctx.trace {
                if old >= FAR_FUTURE && chosen < FAR_FUTURE {
                    t.emit(TraceRecord::ReservationMade {
                        at: ctx.now,
                        job: job.id,
                        start: chosen,
                    });
                } else if old < FAR_FUTURE && chosen != old {
                    // §5.3 improvement only ever moves a reservation
                    // backward; forward slippage comes from §5.4 rebuilds.
                    t.emit(TraceRecord::ReservationShifted {
                        at: ctx.now,
                        job: job.id,
                        from: old,
                        to: chosen,
                    });
                }
            }
            if self.slot_start(job.id) != Some(chosen) {
                self.set_slot(job.id, chosen, job.estimate, job.nodes);
            }
        }
    }
}

/// Adds running work (until each job's estimated end) and node outages to
/// a pass profile.
fn overlay_running(profile: &mut Profile, ctx: &EngineCtx<'_>) {
    for r in ctx.running {
        profile.add(ctx.now, r.estimated_end(ctx.now) - ctx.now, r.nodes);
    }
    for o in ctx.outages {
        profile.block_until(ctx.now, o.until, 1);
    }
}

impl ReservationLedger for ConservativeLedger {
    fn on_arrival(&mut self, job: &QueuedJob, ctx: &EngineCtx<'_>) {
        if self.dynamic {
            // Reservations are rebuilt wholesale in the next pass.
            self.set_slot(job.id, FAR_FUTURE, job.estimate, job.nodes);
            return;
        }
        self.ensure_capacity(ctx.total_nodes);
        // Earliest hole in the profile of running work plus every existing
        // reservation (the arriving job is already in ctx.queue; skip it).
        if self.slots_cover(ctx.queue, Some(job.id)) {
            self.effective_profile(ctx);
        } else {
            // Hand-driven fallback: skip the arriving job and any sibling
            // that has not been reserved yet (simultaneous arrivals are
            // delivered one at a time; the unreserved sibling's own
            // on_arrival follows).
            self.running_profile(ctx);
            for q in ctx.queue {
                let Some(start) = self.slot_start(q.id) else {
                    continue;
                };
                if q.id == job.id {
                    continue;
                }
                self.scratch.add(start.max(ctx.now), q.estimate, q.nodes);
            }
        }
        self.probes += 1;
        let start = self
            .scratch
            .earliest_start(ctx.now, job.nodes, job.estimate)
            .unwrap_or(FAR_FUTURE);
        if let Some(t) = ctx.trace {
            if start < FAR_FUTURE {
                t.emit(TraceRecord::ReservationMade {
                    at: ctx.now,
                    job: job.id,
                    start,
                });
            }
        }
        self.set_slot(job.id, start, job.estimate, job.nodes);
    }

    fn on_start(&mut self, id: JobId) {
        self.drop_slot(id);
    }

    fn begin_pass(&mut self, ctx: &EngineCtx<'_>, _blocked_promoted: Option<usize>) {
        if ctx.queue.is_empty() {
            self.clear_slots();
            return;
        }
        self.ensure_capacity(ctx.total_nodes);
        if self.dynamic {
            self.rebuild(ctx);
        } else {
            self.improve(ctx);
        }
    }

    fn admit(&mut self, ctx: &EngineCtx<'_>, _rank: usize, i: usize, free: u32) -> Admission {
        let job = &ctx.queue[i];
        // Indexing panics on a missing slot, like the pre-refactor map: a
        // pass over a non-empty queue always reserves every queued job.
        if self.slots[&job.id].start <= ctx.now && job.nodes <= free {
            Admission::Start
        } else {
            Admission::Wait
        }
    }

    fn reservation_of(&self, id: JobId) -> Option<Time> {
        self.slot_start(id)
    }

    fn take_probes(&mut self) -> u64 {
        std::mem::take(&mut self.probes)
    }

    fn clone_box(&self) -> Box<dyn ReservationLedger> {
        Box::new(self.clone())
    }
}

/// Profile reservations for the first `depth` jobs in priority order,
/// rebuilt from scratch at every pass (like dynamic conservative, but only
/// to depth `n`); deeper jobs backfill greedily as long as they fit the
/// profile *right now* — which is exactly the condition for not delaying
/// any reserved job.
#[derive(Debug, Clone)]
pub struct DepthLedger {
    depth: u32,
    /// Per-pass scratch profile (running work, outages, and the holds of
    /// reserved-but-blocked jobs seen so far this walk).
    profile: Profile,
    /// `earliest_start` probes not yet taken by the engine.
    probes: u64,
}

impl DepthLedger {
    /// A ledger reserving the first `depth` priority-ordered jobs.
    pub fn new(depth: u32) -> Self {
        DepthLedger {
            depth,
            profile: Profile::new(0),
            probes: 0,
        }
    }

    /// The configured depth.
    pub fn depth(&self) -> u32 {
        self.depth
    }
}

impl ReservationLedger for DepthLedger {
    fn begin_pass(&mut self, ctx: &EngineCtx<'_>, _blocked_promoted: Option<usize>) {
        self.profile.reset(ctx.total_nodes);
        overlay_running(&mut self.profile, ctx);
    }

    fn admit(&mut self, ctx: &EngineCtx<'_>, rank: usize, i: usize, free: u32) -> Admission {
        let job = &ctx.queue[i];
        self.probes += 1;
        let Some(start) = self
            .profile
            .earliest_start(ctx.now, job.nodes, job.estimate)
        else {
            // Wider than the machine: can never start and holds no slot.
            return Admission::Infeasible;
        };
        if start == ctx.now && job.nodes <= free {
            Admission::Start
        } else {
            if (rank as u32) < self.depth {
                // Hold the slot: deeper jobs must schedule around it.
                self.profile.add(start, job.estimate, job.nodes);
            }
            // Unreserved jobs that don't fit now simply wait; they claim
            // nothing in the profile.
            Admission::Wait
        }
    }

    fn note_start(&mut self, ctx: &EngineCtx<'_>, i: usize) {
        let job = &ctx.queue[i];
        self.profile.add(ctx.now, job.estimate, job.nodes);
    }

    fn take_probes(&mut self) -> u64 {
        std::mem::take(&mut self.probes)
    }

    fn clone_box(&self) -> Box<dyn ReservationLedger> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FairshareConfig, QueueOrder};
    use crate::fairshare::FairshareTracker;
    use fairsched_workload::job::UserId;

    #[test]
    fn reservation_math_for_aggressive_guard() {
        let mut ends = vec![(500, 3), (200, 3)];
        let r = aggressive_reservation(8, 4, 0, &mut ends);
        // free 4 + 3 at 200 = 7 < 8; + 3 at 500 = 10 ≥ 8 → shadow 500, extra 2.
        assert_eq!(
            r,
            Reservation {
                shadow: 500,
                extra: 2
            }
        );
    }

    fn queued(id: u32, nodes: u32, estimate: Time, arrival: Time) -> QueuedJob {
        QueuedJob {
            id: JobId(id),
            user: UserId(1),
            nodes,
            estimate,
            arrival,
        }
    }

    fn ctx<'a>(
        now: Time,
        total: u32,
        queue: &'a [QueuedJob],
        fairshare: &'a FairshareTracker,
    ) -> EngineCtx<'a> {
        EngineCtx {
            now,
            free_nodes: total,
            total_nodes: total,
            running: &[],
            queue,
            fairshare,
            order: QueueOrder::Fairshare,
            starvation: None,
            outages: &[],
            trace: None,
        }
    }

    /// The incremental timeline equals a from-scratch re-seed after a burst
    /// of arrivals, improvements, and starts.
    #[test]
    fn incremental_timeline_matches_reseeded_profile() {
        let fs = FairshareTracker::new(FairshareConfig::default());
        let mut ledger = ConservativeLedger::new(false);
        let mut queue: Vec<QueuedJob> = Vec::new();
        for (id, nodes, estimate, at) in [
            (1, 8, 500, 0),
            (2, 4, 300, 5),
            (3, 10, 200, 9),
            (4, 2, 50, 12),
        ] {
            queue.push(queued(id, nodes, estimate, at));
            let c = ctx(at, 10, &queue, &fs);
            ledger.on_arrival(queue.last().unwrap(), &c);
        }
        let c = ctx(20, 10, &queue, &fs);
        ledger.begin_pass(&c, None);
        // Every queued job holds a slot, and the maintained timeline equals
        // a profile re-seeded from those slots.
        let mut reseeded = Profile::new(10);
        for q in &queue {
            let start = ledger.reservation_of(q.id).unwrap();
            reseeded.add(start, q.estimate, q.nodes);
        }
        assert_eq!(ledger.planned, reseeded);
    }

    #[test]
    fn snapshot_restore_round_trips_reservation_state() {
        let fs = FairshareTracker::new(FairshareConfig::default());
        let mut ledger = ConservativeLedger::new(false);
        let queue = vec![queued(1, 8, 500, 0)];
        let c = ctx(0, 10, &queue, &fs);
        ledger.on_arrival(&queue[0], &c);
        let snap = ledger.snapshot();
        ledger.on_start(JobId(1));
        assert_eq!(ledger.reservation_of(JobId(1)), None);
        ledger.restore(snap);
        assert_eq!(ledger.reservation_of(JobId(1)), Some(0));
    }
}
