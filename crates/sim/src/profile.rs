//! The availability profile: planned node usage over future time.
//!
//! Conservative backfilling reasons about a step function `used(t)` built
//! from running jobs (until their estimated ends) plus reservations. The
//! profile supports adding usage rectangles and the `earliest_fit` query
//! ("when can a `k`-node, `d`-second job first run?").
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
        debug_assert!(duration > 0);
        let budget = self.capacity as i64 - nodes as i64;
        if budget < 0 {
            return None;
        }

        let mut candidate = from;
        let mut used: i64 = 0;
        let mut i = 0;
        // Skip breakpoints at or before `from`, accumulating the level.
        while i < self.deltas.len() && self.deltas[i].0 <= from {
            used += self.deltas[i].1;
            i += 1;
        }
        if used > budget {
            // Overfull at `from`: candidate must move to a later breakpoint.
            candidate = Time::MAX; // provisional; fixed when a segment fits
        }
        while i < self.deltas.len() {
            let (t, delta) = self.deltas[i];
            if candidate != Time::MAX && t >= candidate.saturating_add(duration) {
                return Some(candidate);
            }
            used += delta;
            if used > budget {
                candidate = Time::MAX;
            } else if candidate == Time::MAX {
                candidate = t;
            }
            i += 1;
        }
        // Past the last breakpoint usage stays at its final level, which is
        // 0 for well-formed profiles; `candidate` is feasible from here on.
        if candidate == Time::MAX {
            // Overfull through the last breakpoint — cannot happen when all
            // rectangles are finite, but be safe.
            Some(
                self.deltas
                    .last()
                    .map(|&(t, _)| t)
                    .unwrap_or(from)
                    .max(from),
            )
        } else {
            Some(candidate.max(from))
        }
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
