//! Order statistics and the queueing check the benchmark reports with.

/// Median of `xs`: the mean of the two middle values for an even count.
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(xs, n=4)` computes them (its default
/// "exclusive" method). `None` for fewer than two samples, where Python
/// raises.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(xs);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        // `i·m − j·n` can go negative when `j` was clamped up to 1.
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the spread rule a run
/// set is judged by.
pub fn quartile_spread(xs: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(xs)?;
    let med = median(xs)?;
    (med != 0.0).then(|| (q3 - q1) / med)
}

/// A tail percentile and the count it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 95.0.
    pub pct: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples it was read from.
    pub samples: usize,
}

/// Percentiles the tail rule chooses among, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of [`LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, read by nearest rank. `None`
/// when even the median has fewer than ten samples beyond it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    LADDER.iter().find_map(|&pct| {
        let rank = (pct / 100.0 * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= TAIL_MIN_BEYOND).then(|| Tail {
            pct,
            value: v[rank - 1],
            samples: n,
        })
    })
}

/// The sample at percentile `pct` by nearest rank, whatever the sample
/// count (for layer figures that carry no tail claim). `None` when empty.
pub fn percentile(xs: &[f64], pct: f64) -> Option<f64> {
    let v = sorted(xs);
    let rank = ((pct / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied()
}

/// Little's law for a closed loop without think time: `clients` callers
/// that always have one request outstanding keep `N = X·R` requests in
/// the system, with `X` completed requests per second and `R` the mean
/// response time in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LittlesLaw {
    /// `X·R`, the measured mean number of requests in the system.
    pub in_system: f64,
    /// `|X·R − clients| / clients`.
    pub deviation: f64,
    /// Whether the deviation is within the tolerance.
    pub holds: bool,
}

/// Checks `N = X·R` against the client count within `tolerance` (a
/// share of `clients`).
pub fn littles_law(clients: f64, per_s: f64, mean_response_s: f64, tolerance: f64) -> LittlesLaw {
    let in_system = per_s * mean_response_s;
    let deviation = (in_system - clients).abs() / clients;
    LittlesLaw {
        in_system,
        deviation,
        holds: deviation <= tolerance,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Expected values from `statistics.quantiles(xs, n=4)`.
        let cases: [(&[f64], [f64; 3]); 4] = [
            (&[1.0, 2.0], [0.75, 1.5, 2.25]),
            (&[1.0, 2.0, 3.0, 4.0], [1.25, 2.5, 3.75]),
            (
                &[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0],
                [2.75, 5.5, 8.25],
            ),
            (&[5.0, 5.0, 5.0], [5.0, 5.0, 5.0]),
        ];
        for (xs, want) in cases {
            let got = quartiles(xs).unwrap();
            assert!(
                got.iter().zip(want).all(|(g, w)| close(*g, w)),
                "{xs:?}: got {got:?}, want {want:?}"
            );
        }
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(quartile_spread(&xs).unwrap(), (8.25 - 2.75) / 5.5));
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (95.0, 190.0, 200));
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().pct, 90.0);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().pct, 99.0);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().pct, 50.0);
        assert_eq!(tail(&[1.0; 19]), None);
    }

    #[test]
    fn percentile_reads_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn littles_law_accepts_saturated_closed_loop() {
        // Two clients, 20 req/s, 100 ms each: exactly two in the system.
        let l = littles_law(2.0, 20.0, 0.1, 0.1);
        assert!(close(l.in_system, 2.0) && l.holds);
        // One client idles half the time: 1.5 in the system, 25 % off.
        let l = littles_law(2.0, 15.0, 0.1, 0.1);
        assert!(close(l.deviation, 0.25) && !l.holds);
    }
}
