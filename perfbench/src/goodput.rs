//! The goodput search: the highest rung of a fixed geometric rate
//! ladder at which the server still meets the latency limit with no
//! errors and no growing backlog.

/// Ratio between neighbouring rungs (5% steps).
pub const STEP: f64 = 1.05;

/// Failed rungs in a row after which the climb stops. A single failed
/// rung above a passing one is often a host hiccup, not the server's
/// limit; the climb looks one rung further before concluding.
pub const PATIENCE: usize = 2;

/// Extra probes a rung gets when the generator, not the server, spoiled
/// a probe.
pub const RETRIES: usize = 4;

/// What one probe of a rung showed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Every condition held.
    Pass,
    /// The server missed a condition.
    Fail,
    /// The generator fell behind its schedule, so the probe says
    /// nothing about the server; the rung is probed again.
    Invalid,
    /// No probes left; the search ends.
    Stop,
}

/// Offered rate of rung `k` of the ladder rooted at `base`.
pub fn rung(base: f64, k: usize) -> f64 {
    base * STEP.powi(k as i32)
}

/// The first rung at or above `rate` on the ladder rooted at `base`.
pub fn rung_at_or_above(base: f64, rate: f64) -> usize {
    let mut k = 0;
    while rung(base, k) < rate * (1.0 - 1e-9) {
        k += 1;
    }
    k
}

/// Climbs the ladder from rung `start`, until [`PATIENCE`] rungs in a
/// row fail, `top` is passed, or `probe` says [`Probe::Stop`]. When no
/// rung of the climb passes, walks down from `start` until one does.
/// Returns the highest rung seen to pass.
pub fn search<E>(
    start: usize,
    top: usize,
    mut probe: impl FnMut(usize) -> Result<Probe, E>,
) -> Result<Option<usize>, E> {
    // Some(pass) for a judged rung, None when out of probes.
    let mut judge = |k: usize| -> Result<Option<bool>, E> {
        for _ in 0..=RETRIES {
            match probe(k)? {
                Probe::Pass => return Ok(Some(true)),
                Probe::Fail => return Ok(Some(false)),
                Probe::Invalid => {}
                Probe::Stop => return Ok(None),
            }
        }
        Ok(Some(false))
    };
    let mut best = None;
    let mut misses = 0;
    let mut k = start;
    while k <= top && misses < PATIENCE {
        match judge(k)? {
            Some(true) => {
                best = Some(k);
                misses = 0;
            }
            Some(false) => misses += 1,
            None => return Ok(best),
        }
        k += 1;
    }
    let mut k = start;
    while best.is_none() && k > 0 {
        k -= 1;
        match judge(k)? {
            Some(true) => best = Some(k),
            Some(false) => {}
            None => break,
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic server whose p99 grows as 1/(1 - load).
    fn p99_us(rate: f64, capacity: f64) -> f64 {
        let load = rate / capacity;
        if load >= 1.0 {
            f64::INFINITY
        } else {
            200.0 / (1.0 - load)
        }
    }

    fn goodput(capacity: f64, base: f64, start: usize) -> Option<f64> {
        let limit = 1000.0;
        let found = search::<()>(start, 200, |k| {
            Ok(if p99_us(rung(base, k), capacity) <= limit {
                Probe::Pass
            } else {
                Probe::Fail
            })
        })
        .expect("infallible");
        found.map(|k| rung(base, k))
    }

    #[test]
    fn finds_the_last_rung_under_the_limit() {
        // The limit holds while 200/(1-x) <= 1000, i.e. rate <= 0.8 capacity.
        for &capacity in &[5_000.0, 12_345.0, 40_000.0] {
            for start in [0, 5, 30] {
                let g = goodput(capacity, 1000.0, start).expect("some rung passes");
                assert!(g <= 0.8 * capacity + 1e-6, "{g} over the limit");
                assert!(g * STEP > 0.8 * capacity, "{g} not the highest rung");
            }
        }
        // Nothing passes when even rung 0 is over.
        assert_eq!(goodput(1000.0, 1000.0, 3), None);
    }

    #[test]
    fn one_failed_rung_does_not_end_the_climb() {
        let mut calls = Vec::new();
        let found = search::<()>(0, 10, |k| {
            calls.push(k);
            // Rung 2 fails (a hiccup); 5 and up fail (the limit).
            Ok(if k != 2 && k < 5 {
                Probe::Pass
            } else {
                Probe::Fail
            })
        })
        .expect("infallible");
        assert_eq!(found, Some(4));
        assert_eq!(calls, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn out_of_probes_keeps_the_best_so_far() {
        let found = search::<()>(2, 10, |k| Ok(if k < 5 { Probe::Pass } else { Probe::Stop }))
            .expect("infallible");
        assert_eq!(found, Some(4));
    }

    #[test]
    fn an_invalid_probe_is_repeated() {
        let mut calls = Vec::new();
        let found = search::<()>(0, 10, |k| {
            calls.push(k);
            let seen = calls.iter().filter(|&&c| c == k).count();
            Ok(match k {
                // The generator lags twice at rung 1, then the rung passes.
                1 if seen <= 2 => Probe::Invalid,
                // Rung 3 is never valid: after the retries it fails.
                3 => Probe::Invalid,
                k if k < 5 => Probe::Pass,
                _ => Probe::Fail,
            })
        })
        .expect("infallible");
        assert_eq!(found, Some(4));
        assert_eq!(calls, vec![0, 1, 1, 1, 2, 3, 3, 3, 3, 3, 4, 5, 6]);
    }

    #[test]
    fn ladder_steps_are_at_most_ten_percent() {
        const { assert!(STEP <= 1.10) };
        assert_eq!(rung_at_or_above(100.0, 100.0), 0);
        assert_eq!(rung_at_or_above(100.0, 104.0), 1);
        assert!((rung(100.0, 2) - 110.25).abs() < 1e-9);
    }
}
