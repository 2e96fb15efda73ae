//! Shared simulation state types: queued/running job views, priority
//! ordering, and the observer interface metrics hook into.

use crate::config::QueueOrder;
use crate::fairshare::FairshareTracker;
use crate::simulator::{JobRecord, Schedule};
use fairsched_workload::job::{JobId, UserId};
use fairsched_workload::time::Time;
use std::collections::HashMap;

/// A job waiting in the queue, as visible to scheduling engines.
///
/// Deliberately excludes the actual runtime: engines are non-clairvoyant and
/// may only reason from the estimate. (Observers get actual runtimes via
/// [`ArrivalView::runtimes`], which fairness metrics need.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedJob {
    /// Job (chunk) identity.
    pub id: JobId,
    /// Submitting user.
    pub user: UserId,
    /// Width in nodes.
    pub nodes: u32,
    /// User wall-clock limit.
    pub estimate: Time,
    /// When this submission entered the queue.
    pub arrival: Time,
}

/// A job currently running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunningJob {
    /// Job (chunk) identity.
    pub id: JobId,
    /// Submitting user.
    pub user: UserId,
    /// Width in nodes.
    pub nodes: u32,
    /// When it started.
    pub start: Time,
    /// Its wall-clock limit.
    pub estimate: Time,
    /// The completion instant currently scheduled in the event queue (the
    /// actual end unless a kill intervenes). Observers may read this;
    /// engines must use [`RunningJob::estimated_end`] instead.
    pub scheduled_end: Time,
}

impl RunningJob {
    /// The end a non-clairvoyant engine must assume: start + estimate, but
    /// never in the past — a job that outlived its estimate is modelled as
    /// ending "imminently" (one second from now), the standard treatment.
    pub fn estimated_end(&self, now: Time) -> Time {
        (self.start + self.estimate).max(now + 1)
    }
}

/// Returns queue indices in scheduling-priority order.
///
/// * [`QueueOrder::Fcfs`] — by (arrival, id).
/// * [`QueueOrder::Fairshare`] — ascending decayed usage of the submitting
///   user, ties by (arrival, id). Deterministic for equal usage.
///
/// Each job's key is read once (one usage lookup per job, not two per
/// comparison); FCFS keys every job at usage 0, which leaves (arrival, id).
pub fn priority_order(
    queue: &[QueuedJob],
    order: QueueOrder,
    fairshare: &FairshareTracker,
) -> Vec<usize> {
    let mut keyed: Vec<(f64, Time, JobId, usize)> = queue
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let usage = match order {
                QueueOrder::Fcfs => 0.0,
                QueueOrder::Fairshare => fairshare.usage(q.user),
            };
            (usage, q.arrival, q.id, i)
        })
        .collect();
    keyed.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
    });
    keyed.into_iter().map(|(.., i)| i).collect()
}

/// Everything an observer sees at a job arrival: the instant snapshot the
/// hybrid fair-start-time metric is computed from.
pub struct ArrivalView<'a> {
    /// Simulated time of the arrival.
    pub now: Time,
    /// The arriving job (already appended to `queue`).
    pub job: &'a QueuedJob,
    /// Machine size.
    pub total_nodes: u32,
    /// Currently free nodes.
    pub free_nodes: u32,
    /// Running jobs with their *actual* scheduled ends.
    pub running: &'a [RunningJob],
    /// The queue in arrival order, including the arriving job.
    pub queue: &'a [QueuedJob],
    /// Actual runtimes of queued jobs (perfect-estimate information for the
    /// CONS_P-style FST convention; engines never see this map).
    pub runtimes: &'a HashMap<JobId, Time>,
    /// The fairshare tracker (read-only), for computing priority order.
    pub fairshare: &'a FairshareTracker,
    /// The queue order the scheduler under test uses.
    pub order: QueueOrder,
}

/// Event hooks for metrics. All methods default to no-ops, so an observer
/// implements only what it needs.
pub trait Observer {
    /// A job (chunk) entered the queue.
    fn on_arrival(&mut self, _view: &ArrivalView<'_>) {}
    /// A job started running.
    fn on_start(&mut self, _id: JobId, _now: Time) {}
    /// A job completed or was killed.
    fn on_complete(&mut self, _id: JobId, _now: Time, _killed: bool) {}
    /// A submission's [`JobRecord`] was finalized (fires at the same
    /// instant as [`Observer::on_complete`], with the full record).
    fn on_record(&mut self, _record: &JobRecord) {}
    /// The run ended; the finished [`Schedule`] is about to be returned.
    /// Observers that need whole-run aggregates (machine size, goodput,
    /// integrals) capture them here instead of carrying the schedule around.
    fn on_finish(&mut self, _schedule: &Schedule) {}
}

/// Forwarding impl so observers can be passed by mutable reference (and
/// nested inside tuples or an [`ObserverSet`] without being consumed).
impl<T: Observer + ?Sized> Observer for &mut T {
    fn on_arrival(&mut self, view: &ArrivalView<'_>) {
        (**self).on_arrival(view);
    }
    fn on_start(&mut self, id: JobId, now: Time) {
        (**self).on_start(id, now);
    }
    fn on_complete(&mut self, id: JobId, now: Time, killed: bool) {
        (**self).on_complete(id, now, killed);
    }
    fn on_record(&mut self, record: &JobRecord) {
        (**self).on_record(record);
    }
    fn on_finish(&mut self, schedule: &Schedule) {
        (**self).on_finish(schedule);
    }
}

macro_rules! impl_observer_for_tuple {
    ($($name:ident),+) => {
        #[allow(non_snake_case)]
        impl<$($name: Observer),+> Observer for ($($name,)+) {
            fn on_arrival(&mut self, view: &ArrivalView<'_>) {
                let ($($name,)+) = self;
                $($name.on_arrival(view);)+
            }
            fn on_start(&mut self, id: JobId, now: Time) {
                let ($($name,)+) = self;
                $($name.on_start(id, now);)+
            }
            fn on_complete(&mut self, id: JobId, now: Time, killed: bool) {
                let ($($name,)+) = self;
                $($name.on_complete(id, now, killed);)+
            }
            fn on_record(&mut self, record: &JobRecord) {
                let ($($name,)+) = self;
                $($name.on_record(record);)+
            }
            fn on_finish(&mut self, schedule: &Schedule) {
                let ($($name,)+) = self;
                $($name.on_finish(schedule);)+
            }
        }
    };
}

impl_observer_for_tuple!(A);
impl_observer_for_tuple!(A, B);
impl_observer_for_tuple!(A, B, C);
impl_observer_for_tuple!(A, B, C, D);
impl_observer_for_tuple!(A, B, C, D, E);

/// A dynamic fan-out: every hook is forwarded to each member in insertion
/// order, so one simulation feeds any number of metric observers.
///
/// ```
/// use fairsched_sim::{NullObserver, Observer, ObserverSet};
///
/// let mut a = NullObserver;
/// let mut b = NullObserver;
/// let mut set = ObserverSet::new();
/// set.push(&mut a);
/// set.push(&mut b);
/// assert_eq!(set.len(), 2);
/// ```
#[derive(Default)]
pub struct ObserverSet<'a> {
    members: Vec<&'a mut dyn Observer>,
}

impl<'a> ObserverSet<'a> {
    /// An empty set.
    pub fn new() -> Self {
        ObserverSet {
            members: Vec::new(),
        }
    }

    /// Adds an observer to the fan-out.
    pub fn push(&mut self, observer: &'a mut dyn Observer) {
        self.members.push(observer);
    }

    /// Builder-style [`ObserverSet::push`].
    pub fn with(mut self, observer: &'a mut dyn Observer) -> Self {
        self.push(observer);
        self
    }

    /// Number of member observers.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

impl Observer for ObserverSet<'_> {
    fn on_arrival(&mut self, view: &ArrivalView<'_>) {
        for m in &mut self.members {
            m.on_arrival(view);
        }
    }
    fn on_start(&mut self, id: JobId, now: Time) {
        for m in &mut self.members {
            m.on_start(id, now);
        }
    }
    fn on_complete(&mut self, id: JobId, now: Time, killed: bool) {
        for m in &mut self.members {
            m.on_complete(id, now, killed);
        }
    }
    fn on_record(&mut self, record: &JobRecord) {
        for m in &mut self.members {
            m.on_record(record);
        }
    }
    fn on_finish(&mut self, schedule: &Schedule) {
        for m in &mut self.members {
            m.on_finish(schedule);
        }
    }
}

/// The do-nothing observer.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FairshareConfig;

    fn queued(id: u32, user: u32, arrival: Time) -> QueuedJob {
        QueuedJob {
            id: JobId(id),
            user: UserId(user),
            nodes: 1,
            estimate: 100,
            arrival,
        }
    }

    fn tracker() -> FairshareTracker {
        FairshareTracker::new(FairshareConfig::default())
    }

    #[test]
    fn fcfs_orders_by_arrival_then_id() {
        let q = vec![queued(3, 1, 20), queued(1, 2, 10), queued(2, 3, 10)];
        let fs = tracker();
        let order = priority_order(&q, QueueOrder::Fcfs, &fs);
        let ids: Vec<u32> = order.iter().map(|&i| q[i].id.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn fairshare_prefers_light_users() {
        let q = vec![queued(1, 1, 0), queued(2, 2, 5)];
        let mut fs = tracker();
        fs.charge(UserId(1), 10_000.0);
        // User 2 has no usage: its job jumps ahead despite arriving later.
        let order = priority_order(&q, QueueOrder::Fairshare, &fs);
        let ids: Vec<u32> = order.iter().map(|&i| q[i].id.0).collect();
        assert_eq!(ids, vec![2, 1]);
    }

    #[test]
    fn fairshare_ties_fall_back_to_fcfs() {
        let q = vec![queued(2, 1, 10), queued(1, 2, 10), queued(3, 3, 5)];
        let fs = tracker(); // all usage zero
        let order = priority_order(&q, QueueOrder::Fairshare, &fs);
        let ids: Vec<u32> = order.iter().map(|&i| q[i].id.0).collect();
        assert_eq!(ids, vec![3, 1, 2]);
    }

    #[test]
    fn estimated_end_never_in_the_past() {
        let r = RunningJob {
            id: JobId(1),
            user: UserId(1),
            nodes: 4,
            start: 0,
            estimate: 100,
            scheduled_end: 500,
        };
        assert_eq!(r.estimated_end(50), 100);
        // Past the estimate: imminent, not historical.
        assert_eq!(r.estimated_end(100), 101);
        assert_eq!(r.estimated_end(400), 401);
    }
}
