//! Property tests pinning the scheduling data structures against brute-force
//! reference models: the capacity [`Profile`] against a per-second scan, the
//! compressed [`NodeTimeline`] against a literal per-node free-time array,
//! and the keyed [`priority_order`] against a comparator sort.

use fairsched_sim::config::{FairshareConfig, QueueOrder};
use fairsched_sim::profile::Profile;
use fairsched_sim::state::priority_order;
use fairsched_sim::{FairshareTracker, NodeTimeline, QueuedJob};
use fairsched_workload::job::{JobId, UserId};
use proptest::prelude::*;

const CAPACITY: u32 = 16;
const HORIZON: u64 = 400;

/// Brute-force earliest fit: scan every second.
fn brute_earliest(rects: &[(u64, u64, u32)], from: u64, nodes: u32, duration: u64) -> u64 {
    let used_at = |t: u64| -> u32 {
        rects
            .iter()
            .filter(|&&(s, d, _)| t >= s && t < s + d)
            .map(|&(_, _, n)| n)
            .sum()
    };
    let mut start = from;
    'outer: loop {
        let window = start..start + duration;
        for t in window {
            if used_at(t) + nodes > CAPACITY {
                start = t + 1;
                continue 'outer;
            }
        }
        return start;
    }
}

/// The priority sort as a comparator over queue indices, reading each
/// user's usage at every comparison.
fn comparator_order(queue: &[QueuedJob], order: QueueOrder, fs: &FairshareTracker) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..queue.len()).collect();
    match order {
        QueueOrder::Fcfs => idx.sort_by_key(|&i| (queue[i].arrival, queue[i].id)),
        QueueOrder::Fairshare => idx.sort_by(|&a, &b| {
            let ua = fs.usage(queue[a].user);
            let ub = fs.usage(queue[b].user);
            ua.total_cmp(&ub)
                .then_with(|| (queue[a].arrival, queue[a].id).cmp(&(queue[b].arrival, queue[b].id)))
        }),
    }
    idx
}

/// Brute-force list scheduler: a literal array of per-node free times.
struct RefTimeline {
    free_at: Vec<u64>,
}

impl RefTimeline {
    fn new(total: u32, at: u64) -> Self {
        RefTimeline {
            free_at: vec![at; total as usize],
        }
    }

    fn place(&mut self, floor: u64, nodes: u32, runtime: u64) -> u64 {
        // Claim the `nodes` earliest-free nodes.
        let mut order: Vec<usize> = (0..self.free_at.len()).collect();
        order.sort_by_key(|&i| (self.free_at[i], i));
        let claimed = &order[..nodes as usize];
        let start = claimed
            .iter()
            .map(|&i| self.free_at[i])
            .max()
            .unwrap_or(floor)
            .max(floor);
        for &i in claimed {
            self.free_at[i] = start + runtime;
        }
        start
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn profile_earliest_start_matches_brute_force(
        rects in prop::collection::vec(
            (0u64..HORIZON, 1u64..60, 1u32..=CAPACITY), 0..12),
        from in 0u64..HORIZON,
        nodes in 1u32..=CAPACITY,
        duration in 1u64..80,
    ) {
        // Keep the profile physically meaningful (≤ capacity everywhere):
        // the brute-force model and earliest_start only need to agree on
        // feasible profiles, and oversubscribed behaviour is covered by the
        // unit tests.
        let mut feasible: Vec<(u64, u64, u32)> = Vec::new();
        let mut profile = Profile::new(CAPACITY);
        for (s, d, n) in rects {
            let peak = (s..s + d)
                .map(|t| {
                    feasible
                        .iter()
                        .filter(|&&(fs, fd, _)| t >= fs && t < fs + fd)
                        .map(|&(_, _, fn_)| fn_)
                        .sum::<u32>()
                })
                .max()
                .unwrap_or(0);
            if peak + n <= CAPACITY {
                feasible.push((s, d, n));
                profile.add(s, d, n);
            }
        }
        let got = profile.earliest_start(from, nodes, duration);
        let want = brute_earliest(&feasible, from, nodes, duration);
        prop_assert_eq!(got, Some(want), "rects: {:?}", feasible);
    }

    #[test]
    fn node_timeline_matches_per_node_reference(
        jobs in prop::collection::vec((1u32..=CAPACITY, 1u64..100), 1..40),
        floor in 0u64..50,
    ) {
        let mut fast = NodeTimeline::all_free(CAPACITY, 0);
        let mut reference = RefTimeline::new(CAPACITY, 0);
        for (nodes, runtime) in jobs {
            let got = fast.place(floor, nodes, runtime);
            let want = reference.place(floor, nodes, runtime);
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn node_timeline_with_running_matches_reference(
        running in prop::collection::vec((0u64..200, 1u32..4), 0..5),
        jobs in prop::collection::vec((1u32..=CAPACITY, 1u64..100), 1..20),
        now in 0u64..100,
    ) {
        // Cap total running width at the machine.
        let mut total = 0u32;
        let running: Vec<(u64, u32)> = running
            .into_iter()
            .filter(|&(_, n)| {
                if total + n <= CAPACITY {
                    total += n;
                    true
                } else {
                    false
                }
            })
            .collect();
        let mut fast = NodeTimeline::with_running(CAPACITY, now, &running);
        let mut reference = RefTimeline::new(CAPACITY, now);
        // Mirror the running occupancy in the reference array.
        let mut idx = 0usize;
        for &(end, n) in &running {
            for _ in 0..n {
                reference.free_at[idx] = end.max(now);
                idx += 1;
            }
        }
        for (nodes, runtime) in jobs {
            let got = fast.place(now, nodes, runtime);
            let want = reference.place(now, nodes, runtime);
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn earliest_is_consistent_with_place(
        jobs in prop::collection::vec((1u32..=CAPACITY, 1u64..100), 1..30),
        probe in 1u32..=CAPACITY,
    ) {
        let mut tl = NodeTimeline::all_free(CAPACITY, 0);
        for (nodes, runtime) in jobs {
            tl.place(0, nodes, runtime);
        }
        let predicted = tl.earliest(0, probe);
        let mut clone = tl.clone();
        let actual = clone.place(0, probe, 1);
        prop_assert_eq!(predicted, actual);
    }
}

proptest! {
    // The bounded probe's edge cases (cancelled breakpoints, own == from,
    // oversubscription) are sparse among random profiles: sample more.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `improve_start` equals its definition: take the job's own rectangle
    /// out, find the earliest fit by per-second scan, keep the earlier of
    /// that and `own`. Rectangles may oversubscribe the machine, and the
    /// own rectangle is steered onto `from` and onto other rectangles'
    /// edges, where equal widths cancel the stored breakpoint.
    #[test]
    fn profile_improve_start_matches_brute_force(
        rects in prop::collection::vec(
            (0u64..HORIZON, 1u64..60, 1u32..=CAPACITY), 1..12),
        from in 0u64..HORIZON / 2,
        nodes in 1u32..=CAPACITY + 2,
        duration in 1u64..80,
        placement in 0u8..5,
        own_offset in 0u64..HORIZON,
        pick in 0usize..12,
    ) {
        let (s, d, n) = rects[pick % rects.len()];
        let (own, nodes) = match placement {
            0 => (from + own_offset, nodes),
            1 => (from, nodes),
            // Own start on the picked rectangle's end: +n and -n cancel.
            2 => (s + d, n),
            // Own end on the picked rectangle's start: -n and +n cancel.
            3 => (s.checked_sub(duration).unwrap_or(from + own_offset), n),
            // One second after the picked rectangle's end, which may open
            // a fit just before `own`.
            _ => (s + d + 1, nodes),
        };
        // A reservation never lies before the pass's `from`.
        let from = from.min(own);
        let mut profile = Profile::new(CAPACITY);
        for &(s, d, n) in &rects {
            profile.add(s, d, n);
        }
        profile.add(own, duration, nodes);

        let got = profile.improve_start(from, nodes, duration, own);
        let want = if nodes > CAPACITY {
            own
        } else {
            brute_earliest(&rects, from, nodes, duration).min(own)
        };
        prop_assert_eq!(got, want, "rects {:?} own {} nodes {}", rects, own, nodes);

        // The mutating remove → earliest_start path agrees too.
        let mut removed = profile.clone();
        removed.remove(own, duration, nodes);
        let fresh = removed.earliest_start(from, nodes, duration);
        prop_assert_eq!(got, fresh.map_or(own, |f| f.min(own)));
    }

    /// The keyed sort reproduces the comparator sort for both queue
    /// orders: tied usage, tied arrivals, repeated ids and users the
    /// tracker has never charged (usage 0) included.
    #[test]
    fn keyed_priority_order_matches_comparator_sort(
        jobs in prop::collection::vec((0u64..4, 1u32..=8, 0u32..16), 0..40),
        charges in prop::collection::vec(prop::sample::select(vec![0.0, 50.0, 50.0, 4e6]), 4),
    ) {
        let mut fs = FairshareTracker::new(FairshareConfig::default());
        // Users 1–4 are charged (some equally); users 5–8 are never seen.
        for (u, &c) in charges.iter().enumerate() {
            fs.charge(UserId(u as u32 + 1), c);
        }
        let queue: Vec<QueuedJob> = jobs
            .iter()
            .map(|&(arrival, user, id)| QueuedJob {
                id: JobId(id),
                user: UserId(user),
                nodes: 1,
                estimate: 1,
                arrival,
            })
            .collect();
        for order in [QueueOrder::Fcfs, QueueOrder::Fairshare] {
            prop_assert_eq!(
                priority_order(&queue, order, &fs),
                comparator_order(&queue, order, &fs),
                "{:?}", order
            );
        }
    }
}
