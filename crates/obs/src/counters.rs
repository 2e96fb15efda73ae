//! Per-run counters and profiling.
//!
//! Each simulation owns a [`SimCounters`]: scheduler passes with their
//! log2 pass-time [`Histogram`], `earliest_start` probes, and backfill
//! candidates examined and started. The core is single-threaded, so the
//! counters are plain `u64`s that move on every run; nothing is shared
//! between runs, sessions or threads. A [`ProfileReport`] pairs one run's
//! counters with its wall time.
//!
//! Timing never feeds back into the simulation: schedules stay a pure
//! function of (trace, config, seed).

use std::fmt;

const BUCKETS: usize = 64;

/// A histogram over `u64` samples with log2-scaled buckets.
///
/// Bucket `0` holds zeros; bucket `i >= 1` holds samples in
/// `[2^(i-1), 2^i)`. Sixty-four buckets cover the whole `u64` range, so
/// recording never saturates. The exact sum is tracked alongside, so the
/// mean is exact even though quantiles are bucket-resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (BUCKETS as u32 - value.leading_zeros()).min(BUCKETS as u32 - 1) as usize
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The count in bucket `i` (0 for out-of-range indices).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// The highest occupied bucket index (0 when empty).
    pub fn highest_bucket(&self) -> usize {
        self.buckets.iter().rposition(|&n| n > 0).unwrap_or(0)
    }

    /// Adds `n` samples directly into bucket `i`, bumping the count but
    /// not the sum (callers reconstructing a histogram from bucketized
    /// data set the sum separately via [`Histogram::set_sum`]).
    pub fn add_bucket(&mut self, i: usize, n: u64) {
        self.buckets[i.min(BUCKETS - 1)] += n;
        self.count += n;
    }

    /// Overwrites the exact sum (pairs with [`Histogram::add_bucket`]).
    pub fn set_sum(&mut self, sum: u64) {
        self.sum = sum;
    }

    /// Lower bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`). Bucket resolution: the true value is within 2x.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << (i - 1) };
            }
        }
        1u64 << (BUCKETS - 1)
    }

    /// The `q`-quantile with linear interpolation inside the log2 bucket
    /// containing the rank. Smoother than [`Histogram::quantile`] for
    /// rendering p50/p95/p99 — still bucket-resolution underneath, but
    /// monotone in `q` and free of the power-of-two staircase.
    pub fn quantile_interpolated(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut below = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if below + n >= rank {
                if i == 0 {
                    return 0.0;
                }
                let lower = (1u64 << (i - 1)) as f64;
                let upper = if i == BUCKETS - 1 {
                    lower * 2.0
                } else {
                    (1u64 << i) as f64
                };
                let into = (rank - below) as f64;
                return lower + (upper - lower) * (into / (n.max(1)) as f64);
            }
            below += n;
        }
        (1u64 << (BUCKETS - 1)) as f64
    }
}

/// The work counters of one simulation, owned by the simulator that did
/// the work (`SteppedSim::counters` in `fairsched-sim`). The core is
/// single-threaded, so these are plain integers: no atomics, no enable
/// switch, and each run's numbers belong to that run alone.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimCounters {
    /// Scheduler passes (fixpoint runs of the engine).
    pub sched_passes: u64,
    /// `earliest_start` probes made by the reservation ledger.
    pub earliest_start_calls: u64,
    /// Queued candidates examined by backfill walks.
    pub backfill_attempts: u64,
    /// Candidates those walks started.
    pub backfill_successes: u64,
    /// Per-pass wall time in nanoseconds.
    pub pass_ns: Histogram,
}

impl SimCounters {
    /// Counts one scheduler pass that took `ns` nanoseconds.
    pub fn count_pass(&mut self, ns: u64) {
        self.sched_passes += 1;
        self.pass_ns.record(ns);
    }
}

/// Where one run's simulation time went, as surfaced by `try_run_policy`,
/// a service session's live profile, and `fairsched profile`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileReport {
    /// The run's own counters.
    pub counters: SimCounters,
    /// Wall time of the profiled region, in nanoseconds.
    pub wall_ns: u64,
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.counters;
        writeln!(f, "wall time            {}", fmt_ns(self.wall_ns))?;
        writeln!(
            f,
            "scheduler passes     {}  (total {}, mean {}, p50 ~{}, p99 ~{})",
            c.sched_passes,
            fmt_ns(c.pass_ns.sum()),
            fmt_ns(c.pass_ns.mean() as u64),
            fmt_ns(c.pass_ns.quantile(0.50)),
            fmt_ns(c.pass_ns.quantile(0.99)),
        )?;
        writeln!(f, "earliest_start calls {}", c.earliest_start_calls)?;
        let rate = if c.backfill_attempts == 0 {
            0.0
        } else {
            100.0 * c.backfill_successes as f64 / c.backfill_attempts as f64
        };
        write!(
            f,
            "backfill walk        {} candidates examined, {} started ({rate:.1}% hit rate)",
            c.backfill_attempts, c.backfill_successes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_mean_is_exact() {
        let mut a = Histogram::new();
        for v in [1, 2, 3, 4] {
            a.record(v);
        }
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 10);
        assert!((a.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantile_brackets_the_samples() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1000);
        // p50 lands in 10's bucket [8,16); p100 in 1000's bucket [512,1024).
        assert_eq!(h.quantile(0.5), 8);
        assert_eq!(h.quantile(1.0), 512);
    }

    #[test]
    fn interpolated_quantiles_stay_inside_their_bucket_and_are_monotone() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1000);
        let p50 = h.quantile_interpolated(0.50);
        assert!((8.0..16.0).contains(&p50), "p50 = {p50}");
        let p100 = h.quantile_interpolated(1.0);
        assert!((512.0..=1024.0).contains(&p100), "p100 = {p100}");
        let mut prev = 0.0;
        for step in 0..=20 {
            let q = step as f64 / 20.0;
            let v = h.quantile_interpolated(q);
            assert!(v >= prev, "quantile must be monotone in q");
            prev = v;
        }
        assert_eq!(Histogram::new().quantile_interpolated(0.5), 0.0);
    }

    #[test]
    fn bucket_accessors_round_trip() {
        let mut h = Histogram::new();
        h.record(5); // bucket 3
        h.record(0); // bucket 0
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(3), 1);
        assert_eq!(h.bucket(99), 0);
        assert_eq!(h.highest_bucket(), 3);

        let mut rebuilt = Histogram::new();
        for i in 0..=h.highest_bucket() {
            if h.bucket(i) > 0 {
                rebuilt.add_bucket(i, h.bucket(i));
            }
        }
        rebuilt.set_sum(h.sum());
        assert_eq!(rebuilt, h);
    }

    #[test]
    fn report_renders_every_counter() {
        let mut c = SimCounters {
            earliest_start_calls: 20,
            backfill_attempts: 30,
            backfill_successes: 15,
            ..SimCounters::default()
        };
        c.count_pass(1_500);
        let report = ProfileReport {
            counters: c,
            wall_ns: 2_000_000,
        };
        let text = report.to_string();
        assert!(text.contains("2.00 ms"));
        assert!(text.contains("50.0% hit rate"));
        assert!(text.contains("scheduler passes     1 "));
        assert!(text.contains("earliest_start calls 20"));
    }
}
