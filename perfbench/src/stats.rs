//! Sample summaries. Every percentile goes through
//! `cs_telemetry::percentile_of_sorted`, the workspace's one rank rule.

use cs_telemetry::percentile_of_sorted;

/// Candidate tail quantiles, highest first.
const TAIL_LADDER: [f64; 3] = [0.99, 0.9, 0.5];

/// Samples that must lie beyond a percentile before it may be reported
/// as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest quantile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it (`0.5` when even the
/// median has fewer).
pub fn tail_quantile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&q| n - cs_telemetry::rank_for_quantile(q, n) >= TAIL_MIN_BEYOND)
        .unwrap_or(0.5)
}

/// Median, tail and sample count of a set of nanosecond timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Median, in ns.
    pub p50_ns: u64,
    /// The quantile [`tail_quantile`] picked for `n`.
    pub tail_q: f64,
    /// Value at `tail_q`, in ns.
    pub tail_ns: u64,
}

impl Summary {
    /// Summarises `samples` (any order). `None` when empty.
    pub fn of(samples: &[u64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let tail_q = tail_quantile(sorted.len());
        Some(Summary {
            n: sorted.len(),
            p50_ns: percentile_of_sorted(&sorted, 0.5),
            tail_q,
            tail_ns: percentile_of_sorted(&sorted, tail_q),
        })
    }

    /// Median in µs.
    pub fn p50_us(&self) -> f64 {
        self.p50_ns as f64 / 1e3
    }

    /// Tail in µs.
    pub fn tail_us(&self) -> f64 {
        self.tail_ns as f64 / 1e3
    }

    /// `p99`, `p90` or `p50`: the name of the tail quantile.
    pub fn tail_label(&self) -> String {
        format!("p{}", (self.tail_q * 100.0).round())
    }
}

/// Median of `values` (the upper middle for an even count, so the
/// result is always one of the measurements). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[v.len() / 2])
}

/// Samples a window should hold so its p99 has [`TAIL_MIN_BEYOND`]
/// samples beyond it with room to spare.
pub const WINDOW_SAMPLES: f64 = 1250.0;

/// A phase cut into equal windows by due time: the median and tail of
/// each window, and across windows their median and the edge of their
/// fastest share. A host stall spoils the windows it falls in, not the
/// whole phase; other tenants of the host slow the server for seconds
/// at a time, and only ever slow it, so the fastest windows measure the
/// server and the rest the neighbours.
#[derive(Debug, Clone, PartialEq)]
pub struct Windowed {
    /// Windows holding at least one sample.
    pub windows: usize,
    /// Median across windows of each window's p50, µs.
    pub p50_us: f64,
    /// Median across windows of each window's tail, µs.
    pub tail_us: f64,
    /// Name of the tail quantile of the median window.
    pub tail_label: String,
    /// Edge of the fastest share of the windows' p50s, µs.
    pub fast_p50_us: f64,
    /// Edge of the fastest share of the windows' tails, µs.
    pub fast_tail_us: f64,
    /// Each window's p50, µs, in time order.
    pub p50s: Vec<f64>,
    /// Each window's tail, µs, in time order.
    pub tails: Vec<f64>,
}

/// Window length for a phase offered at `rate_per_s`: long enough to
/// expect [`WINDOW_SAMPLES`] samples, and at least 100 ms. Short
/// windows keep a host stall to a small share of them.
pub fn window_ns(rate_per_s: f64) -> u64 {
    ((WINDOW_SAMPLES / rate_per_s).max(0.1) * 1e9) as u64
}

/// Cuts `(t_ns, value_ns)` samples with `t` in `[from, to)` into
/// windows of `window` ns and summarises them, the fast edges over the
/// fastest `fast` share of windows. `None` without samples.
pub fn windowed(
    samples: &[(u64, u64)],
    (from, to): (u64, u64),
    window: u64,
    fast: f64,
) -> Option<Windowed> {
    let count = ((to.saturating_sub(from)) / window.max(1)).max(1) as usize;
    let mut buckets = vec![Vec::new(); count];
    for &(t, v) in samples {
        if t >= from && t < to {
            let i = (((t - from) / window.max(1)) as usize).min(count - 1);
            buckets[i].push(v);
        }
    }
    let summaries: Vec<Summary> = buckets.iter().filter_map(|b| Summary::of(b)).collect();
    let p50s: Vec<f64> = summaries.iter().map(Summary::p50_us).collect();
    let tails: Vec<f64> = summaries.iter().map(Summary::tail_us).collect();
    let tail_us = median(&tails)?;
    let tail_label = summaries
        .iter()
        .find(|s| s.tail_us() == tail_us)
        .map_or_else(String::new, Summary::tail_label);
    Some(Windowed {
        windows: summaries.len(),
        p50_us: median(&p50s)?,
        tail_us,
        tail_label,
        fast_p50_us: fast_share(&p50s, fast, false),
        fast_tail_us: fast_share(&tails, fast, false),
        p50s,
        tails,
    })
}

/// The edge of the fastest `share` of `values`: the `share` quantile
/// when lower is faster, the `1 - share` quantile when higher is. For
/// CPU-bound work, which interference from other tenants of the host
/// only ever slows, for seconds at a time: the fast share measures the
/// code, the rest the neighbours.
pub fn fast_share(values: &[f64], share: f64, higher_is_faster: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = if higher_is_faster { 1.0 - share } else { share };
    match cs_telemetry::rank_for_quantile(q, v.len()) {
        0 => 0.0,
        rank => v[rank - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        // p99 needs 1000 samples (rank 990, ten beyond it).
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(999), 0.9);
        // p90 needs 100 samples.
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(99), 0.5);
        assert_eq!(tail_quantile(5), 0.5);
        assert_eq!(tail_quantile(0), 0.5);
        for n in 1..3000 {
            let q = tail_quantile(n);
            let beyond = n - cs_telemetry::rank_for_quantile(q, n);
            assert!(q == 0.5 || beyond >= TAIL_MIN_BEYOND, "n={n} q={q}");
        }
    }

    #[test]
    fn summary_uses_the_shared_rank_rule() {
        let samples: Vec<u64> = (1..=1000).rev().collect();
        let s = Summary::of(&samples).expect("non-empty");
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50_ns, 500);
        assert_eq!(s.tail_ns, 990);
        assert_eq!(s.tail_label(), "p99");
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn one_bad_window_does_not_move_the_windowed_tail() {
        // Five windows of 1000 samples at 100 ns; one window stalls.
        let mut samples = Vec::new();
        for w in 0..5u64 {
            for i in 0..1000u64 {
                let v = if w == 2 { 1_000_000 } else { 100 + i % 7 };
                samples.push((w * 1000 + i, v));
            }
        }
        let win = windowed(&samples, (0, 5000), 1000, 0.1).expect("samples");
        assert_eq!(win.windows, 5);
        assert!(win.tail_us < 0.2, "{win:?}");
        assert!(win.fast_tail_us < 0.2, "{win:?}");
        assert!(win.fast_p50_us <= win.p50_us, "{win:?}");
        assert_eq!(win.tail_label, "p99");
        assert_eq!(windowed(&[], (0, 10), 5, 0.1), None);
    }

    #[test]
    fn fast_share_ignores_slow_stretches() {
        // Twenty fast windows, then eighty slowed by a neighbour.
        let rates: Vec<f64> = (0..100)
            .map(|i| if i < 20 { 100.0 } else { 60.0 })
            .collect();
        assert_eq!(fast_share(&rates, 0.1, true), 100.0);
        let times: Vec<f64> = rates.iter().map(|r| 1.0 / r).collect();
        assert_eq!(fast_share(&times, 0.1, false), 0.01);
        // Only the fastest share counts, however small.
        assert_eq!(fast_share(&rates, 0.15, true), 100.0);
        assert_eq!(fast_share(&rates, 0.3, true), 60.0);
        assert_eq!(fast_share(&[], 0.1, true), 0.0);
    }

    #[test]
    fn median_is_a_measurement() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }
}
