//! The availability profile: planned node usage over future time.
//!
//! Conservative backfilling reasons about a step function `used(t)` built
//! from running jobs (until their estimated ends) plus reservations. The
//! profile supports adding usage rectangles and two fit queries:
//! [`Profile::earliest_start`] ("when can a `k`-node, `d`-second job first
//! run?") and [`Profile::improve_start`] (the same question for a job that
//! already holds a rectangle in the profile, answered only as far as the
//! job's own reservation).
//!
//! Both queries share one linear scan of the sorted breakpoint vector from
//! `from`: O(breakpoints) in the worst case. `improve_start` stops at the
//! first breakpoint past which no start earlier than the job's own
//! reservation is possible, so a job that cannot move (the common case in
//! a §5.3 improvement pass) stops near its reservation instead of scanning
//! on to its first fit. Adding or removing a rectangle is a binary search
//! plus a vector insert or delete, O(breakpoints) moves.
//!
//! Usage is allowed to exceed the machine size transiently: the
//! non-dynamic conservative engine keeps a job's old reservation when no
//! better one exists, and after a wall-clock-limit surprise the old slot may
//! be oversubscribed on paper. `earliest_fit` simply never places new work
//! in an oversubscribed region, and the simulator's start gate (actual free
//! nodes) keeps the physical machine consistent.

use fairsched_workload::time::Time;

/// A step function of planned node usage over `[0, ∞)`, with a fixed
/// machine capacity for fit queries.
///
/// ```
/// use fairsched_sim::profile::Profile;
///
/// let mut p = Profile::new(10);
/// p.add(0, 100, 8); // 8 nodes reserved over [0, 100)
/// // A 4-node job cannot fit until the reservation ends...
/// assert_eq!(p.earliest_start(0, 4, 50), Some(100));
/// // ...but a 2-node job slots into the hole immediately.
/// assert_eq!(p.earliest_start(0, 2, 50), Some(0));
/// // A job wider than the machine never fits.
/// assert_eq!(p.earliest_start(0, 11, 50), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    capacity: u32,
    /// Breakpoints as `(time, delta)` aggregated and sorted by time; usage
    /// before the first breakpoint is 0.
    deltas: Vec<(Time, i64)>,
}

impl Profile {
    /// An empty profile for a `capacity`-node machine.
    pub fn new(capacity: u32) -> Self {
        Profile {
            capacity,
            deltas: Vec::new(),
        }
    }

    /// Machine capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Empties the profile for a `capacity`-node machine, keeping the
    /// breakpoint vector's allocation for reuse.
    pub fn reset(&mut self, capacity: u32) {
        self.capacity = capacity;
        self.deltas.clear();
    }

    /// Adds a usage rectangle: `nodes` nodes over `[start, start + duration)`.
    pub fn add(&mut self, start: Time, duration: Time, nodes: u32) {
        if nodes == 0 || duration == 0 {
            return;
        }
        self.apply(start, nodes as i64);
        self.apply(start + duration, -(nodes as i64));
    }

    /// Steps capacity down by `nodes` from `now` until `until` — how node
    /// outages enter a planning profile. An overdue repair (`until <= now`)
    /// still blocks for one second, mirroring how overdue running jobs are
    /// treated, so the rectangle is never empty while the outage is live.
    pub fn block_until(&mut self, now: Time, until: Time, nodes: u32) {
        let end = until.max(now + 1);
        self.add(now, end - now, nodes);
    }

    /// Removes a previously added rectangle (exact inverse of [`add`]).
    ///
    /// [`add`]: Profile::add
    pub fn remove(&mut self, start: Time, duration: Time, nodes: u32) {
        if nodes == 0 || duration == 0 {
            return;
        }
        self.apply(start, -(nodes as i64));
        self.apply(start + duration, nodes as i64);
    }

    fn apply(&mut self, time: Time, delta: i64) {
        match self.deltas.binary_search_by_key(&time, |&(t, _)| t) {
            Ok(i) => {
                self.deltas[i].1 += delta;
                if self.deltas[i].1 == 0 {
                    self.deltas.remove(i);
                }
            }
            Err(i) => self.deltas.insert(i, (time, delta)),
        }
    }

    /// Planned usage at time `t`.
    pub fn used_at(&self, t: Time) -> i64 {
        self.deltas
            .iter()
            .take_while(|&&(bt, _)| bt <= t)
            .map(|&(_, d)| d)
            .sum()
    }

    /// Earliest `start ≥ from` at which a `nodes`-wide, `duration`-long job
    /// fits under capacity for its whole extent, or `None` for a job wider
    /// than the machine (which can never fit, at any time). Scans the
    /// breakpoints once; O(breakpoints).
    pub fn earliest_start(&self, from: Time, nodes: u32, duration: Time) -> Option<Time> {
        (nodes <= self.capacity).then(|| self.scan(from, nodes, duration, None))
    }

    /// Where a job that already holds `nodes` nodes over `[own, own +
    /// duration)` in this profile may move: `min(earliest_start(from,
    /// nodes, duration), own)` evaluated on the profile *without* that
    /// rectangle, which is left in place. A job wider than the machine
    /// stays at `own`.
    ///
    /// The scan ends as soon as no start before `own` is possible: at the
    /// first breakpoint at or past `own` with no candidate open, or once an
    /// open candidate `c < own` has run `duration` seconds. The latter
    /// happens before `own + duration`, so of the rectangle's two edges
    /// only the start is ever reached; it is subtracted as a virtual
    /// breakpoint merged into the scan. It may have no stored breakpoint of
    /// its own, because its delta cancelled another rectangle's edge at the
    /// same instant.
    ///
    /// ```
    /// use fairsched_sim::profile::Profile;
    ///
    /// let mut p = Profile::new(10);
    /// p.add(0, 100, 8); // another job, [0, 100)
    /// p.add(300, 50, 6); // this job's reservation, [300, 350)
    /// // Without its own rectangle the job fits right after the first one.
    /// assert_eq!(p.improve_start(0, 6, 50, 300), 100);
    /// // A job pinned behind its reservation keeps it.
    /// p.add(100, 200, 8);
    /// assert_eq!(p.improve_start(0, 6, 50, 300), 300);
    /// ```
    pub fn improve_start(&self, from: Time, nodes: u32, duration: Time, own: Time) -> Time {
        // Every fit starts at or after `from`, so an `own` there is final.
        if nodes > self.capacity || own <= from {
            return own;
        }
        self.scan(from, nodes, duration, Some(own))
    }

    /// The fit scan behind both queries, for a job no wider than the
    /// machine; `own`, when given, lies after `from`.
    fn scan(&self, from: Time, nodes: u32, duration: Time, own: Option<Time>) -> Time {
        debug_assert!(duration > 0);
        let budget = self.capacity as i64 - nodes as i64;
        let bound = own.unwrap_or(Time::MAX);

        let mut used: i64 = 0;
        let mut i = 0;
        // Skip breakpoints at or before `from`, accumulating the level.
        while i < self.deltas.len() && self.deltas[i].0 <= from {
            used += self.deltas[i].1;
            i += 1;
        }
        // An open candidate always lies before `bound`.
        let mut candidate = (used <= budget).then_some(from);
        let mut own_pending = own.is_some();
        let mut last = from;
        loop {
            // The next instant of the stored breakpoints merged with the
            // virtual own edge; both deltas apply when they coincide.
            let stored = self.deltas.get(i).map(|&(t, _)| t);
            let t = match (stored, own_pending) {
                (Some(s), true) => s.min(bound),
                (Some(s), false) => s,
                (None, true) => bound,
                (None, false) => break,
            };
            match candidate {
                Some(c) if t >= c.saturating_add(duration) => return c,
                // Any later candidate starts at or after `t`.
                None if t >= bound => return bound,
                _ => {}
            }
            if stored == Some(t) {
                used += self.deltas[i].1;
                i += 1;
            }
            if own_pending && t == bound {
                used -= nodes as i64;
                own_pending = false;
            }
            if used > budget {
                candidate = None;
            } else if candidate.is_none() {
                candidate = Some(t);
            }
            last = t;
        }
        // Past the last breakpoint usage stays at its final level, which is
        // 0 for well-formed profiles, so a candidate is open; an overfull
        // tail could only start at the last breakpoint.
        candidate.unwrap_or(last).min(bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_profile_fits_immediately() {
        let p = Profile::new(100);
        assert_eq!(p.earliest_start(50, 100, 1000), Some(50));
    }

    #[test]
    fn add_and_used_at() {
        let mut p = Profile::new(10);
        p.add(10, 20, 4); // [10, 30) uses 4
        assert_eq!(p.used_at(9), 0);
        assert_eq!(p.used_at(10), 4);
        assert_eq!(p.used_at(29), 4);
        assert_eq!(p.used_at(30), 0);
    }

    #[test]
    fn remove_is_exact_inverse_of_add() {
        let mut p = Profile::new(10);
        let orig = p.clone();
        p.add(10, 20, 4);
        p.add(15, 100, 6);
        p.remove(10, 20, 4);
        p.remove(15, 100, 6);
        assert_eq!(p, orig);
    }

    #[test]
    fn job_waits_for_capacity() {
        let mut p = Profile::new(10);
        p.add(0, 100, 8); // 2 free until t=100
                          // A 4-node job must wait until 100.
        assert_eq!(p.earliest_start(0, 4, 50), Some(100));
        // A 2-node job fits immediately.
        assert_eq!(p.earliest_start(0, 2, 50), Some(0));
    }

    #[test]
    fn job_fits_into_a_hole_wide_enough_and_long_enough() {
        let mut p = Profile::new(10);
        p.add(0, 100, 8); // hole of 2 until 100
        p.add(200, 100, 8); // hole of 2 again during [200,300), full hole [100,200)
                            // 4-node 50-second job: the gap [100, 200) has 10 free.
        assert_eq!(p.earliest_start(0, 4, 50), Some(100));
        // 4-node 150-second job cannot finish before the [200,300) squeeze.
        assert_eq!(p.earliest_start(0, 4, 150), Some(300));
        // 2-node 1000-second job fits at 0 (2 free always suffices).
        assert_eq!(p.earliest_start(0, 2, 1000), Some(0));
    }

    #[test]
    fn from_inside_a_busy_region_defers() {
        let mut p = Profile::new(10);
        p.add(0, 100, 10);
        assert_eq!(p.earliest_start(50, 1, 10), Some(100));
    }

    #[test]
    fn from_after_all_breakpoints() {
        let mut p = Profile::new(10);
        p.add(0, 100, 10);
        assert_eq!(p.earliest_start(500, 10, 10), Some(500));
    }

    #[test]
    fn exact_fit_at_capacity_boundary() {
        let mut p = Profile::new(10);
        p.add(0, 100, 6);
        // Exactly 4 free: a 4-node job fits now.
        assert_eq!(p.earliest_start(0, 4, 100), Some(0));
        // A 5-node job waits.
        assert_eq!(p.earliest_start(0, 5, 10), Some(100));
    }

    #[test]
    fn job_can_straddle_a_capacity_increase() {
        let mut p = Profile::new(10);
        p.add(0, 50, 8);
        // 2 free in [0,50), 10 free after. A 2-node 500-second job starts at 0.
        assert_eq!(p.earliest_start(0, 2, 500), Some(0));
    }

    #[test]
    fn oversubscribed_regions_are_skipped() {
        let mut p = Profile::new(10);
        // Deliberate oversubscription (old reservation kept on paper).
        p.add(0, 100, 12);
        assert_eq!(p.used_at(50), 12);
        assert_eq!(p.earliest_start(0, 1, 10), Some(100));
    }

    #[test]
    fn adjacent_rectangles_merge_breakpoints() {
        let mut p = Profile::new(10);
        p.add(0, 10, 3);
        p.add(10, 10, 3); // continues seamlessly
                          // The +3/-3 at t=10 cancel: one contiguous usage region.
        assert_eq!(p.used_at(10), 3);
        assert_eq!(p.earliest_start(0, 8, 5), Some(20));
        // Internally the zero-delta breakpoint is dropped.
        assert_eq!(p.deltas.len(), 2);
    }

    #[test]
    fn zero_sized_rectangles_are_ignored() {
        let mut p = Profile::new(10);
        p.add(5, 0, 4);
        p.add(5, 10, 0);
        assert_eq!(p, Profile::new(10));
    }
}
