//! Sample statistics and the calibrated inner loop the layer probes use.
//!
//! Every timing the benchmark reports is a median with its sample count;
//! tails are reported as the highest percentile that still has at least ten
//! samples beyond it, so a "p99" is never one outlier. [`self_check`] runs at
//! start-up on known vectors: a benchmark whose arithmetic is off must not
//! print numbers.

use std::time::{Duration, Instant};

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(v, n=4)` does (the "exclusive" method) so spreads
/// printed here are the ones an outside checker computes from the same runs.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    assert!(v.len() >= 2, "quartiles need two samples");
    let s = sorted(v);
    let m = s.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median — the run-to-run spread.
pub fn spread(v: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(v);
    (q3 - q1) / med.abs()
}

/// Value at percentile `p` (0–100, nearest rank).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let s = sorted(v);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest percentile with at least ten samples beyond it, and its
/// value; `None` below eleven samples.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    if v.len() < 11 {
        return None;
    }
    let s = sorted(v);
    let idx = s.len() - 11;
    Some((100.0 * (idx + 1) as f64 / s.len() as f64, s[idx]))
}

/// Start-up self-check on known vectors.
pub fn self_check() -> Result<(), String> {
    let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
    let odd = [5.0, 1.0, 3.0];
    let even = [4.0, 1.0, 3.0, 2.0];
    if !close(median(&odd), 3.0) || !close(median(&even), 2.5) {
        return Err("median is wrong on known vectors".into());
    }
    // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let q = quartiles(&ten);
    if !close(q[0], 2.75) || !close(q[1], 5.5) || !close(q[2], 8.25) {
        return Err(format!("quartiles are wrong on 1..=10: {q:?}"));
    }
    if !close(spread(&ten), 1.0) {
        return Err("spread is wrong on 1..=10".into());
    }
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    if !close(percentile(&hundred, 95.0), 95.0) || !close(percentile(&hundred, 100.0), 100.0) {
        return Err("percentile is wrong on 1..=100".into());
    }
    match tail(&hundred) {
        Some((p, v)) if close(p, 90.0) && close(v, 90.0) => {}
        other => return Err(format!("tail is wrong on 1..=100: {other:?}")),
    }
    if tail(&ten).is_some() {
        return Err("tail must refuse fewer than eleven samples".into());
    }
    Ok(())
}

/// Result of a calibrated probe: median nanoseconds per call over
/// `samples` timed batches of calls.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    pub ns_per_call: f64,
    pub samples: usize,
}

/// Times `f` for about `budget`: grows the batch until one batch takes at
/// least a twentieth of the budget (so the clock's resolution and the call
/// overhead vanish), then times whole batches until the budget is spent and
/// reports the median batch.
pub fn calibrated(budget: Duration, mut f: impl FnMut()) -> Probe {
    let floor = budget / 20;
    let mut batch = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t.elapsed() >= floor || batch >= 1 << 30 {
            break;
        }
        batch *= 2;
    }
    let start = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    Probe { ns_per_call: median(&per_call), samples: per_call.len() }
}
