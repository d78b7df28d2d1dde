//! Sample summaries and the decision rules the benchmark reports by.
//!
//! Everything here is pure so the rules can be unit-tested without a
//! study or a socket: the tail-percentile rule, failure accounting, and
//! the `max_rps` ladder decision.

/// Sustained-rate latency limit: a ladder step passes only when both
/// its request latency tail and its generator lateness tail stay within
/// this many milliseconds.
pub const LIMIT_MS: f64 = 25.0;

/// The tail percentile a timing is reported at when enough samples
/// exist: p99.
pub const TAIL_TARGET: f64 = 0.99;

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A median and a tail percentile of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// The percentile the tail was taken at, in `(0, 1)`.
    pub tail_pct: f64,
    pub tail: f64,
}

/// Nearest-rank quantile of sorted samples: the smallest value with at
/// least `q` of the samples at or below it.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The highest percentile, at most p99, that has at least
/// [`TAIL_BEYOND`] samples beyond it; `None` with too few samples for
/// any.
pub fn tail_pct(n: usize) -> Option<f64> {
    if n <= TAIL_BEYOND {
        return None;
    }
    Some(TAIL_TARGET.min((n - TAIL_BEYOND) as f64 / n as f64))
}

/// Median plus the tail percentile of [`tail_pct`]. With too few
/// samples for a tail, the tail is the maximum and `tail_pct` is 1.
/// Infinite samples (failed requests) sort last.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let (tail_pct, tail) = match tail_pct(n) {
        Some(p) => (p, nearest_rank(&sorted, p)),
        None => (1.0, sorted[n - 1]),
    };
    Some(Summary {
        n,
        median: nearest_rank(&sorted, 0.5),
        tail_pct,
        tail,
    })
}

/// Fewest requests per window of [`windowed_tail`]: the fewest with a
/// p99 that has [`TAIL_BEYOND`] samples beyond it.
pub const TAIL_WINDOW: usize = 1000;

/// The tail of a request stream, robust to a brief stall of the
/// machine: the stream (in due-time order) is cut into as many
/// consecutive equal windows of at least `window` requests as fit, the
/// tail percentile of [`summarize`] is taken per window, and the median
/// of those is returned with the window count. A stream shorter than
/// one window is one window.
pub fn windowed_tail(in_order: &[f64], window: usize) -> Option<(f64, usize)> {
    let n = in_order.len();
    let count = (n / window.max(1)).max(1);
    let tails: Vec<f64> = (0..count)
        .filter_map(|w| summarize(&in_order[w * n / count..(w + 1) * n / count]).map(|s| s.tail))
        .collect();
    (!tails.is_empty()).then(|| (median(&tails), tails.len()))
}

/// Median of a sample set, `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(f64::NAN, |s| s.median)
}

/// Failed operations over attempted ones; 0 when nothing was attempted.
pub fn failed_ratio(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// What one ladder step measured.
#[derive(Debug, Clone, PartialEq)]
pub struct StepResult {
    pub rate: f64,
    /// Request latency from due time, failures as infinity.
    pub latency_tail_ms: f64,
    /// How late the generator sent, at the same tail percentile.
    pub lateness_tail_ms: f64,
}

impl StepResult {
    pub fn passes(&self) -> bool {
        self.latency_tail_ms <= LIMIT_MS && self.lateness_tail_ms <= LIMIT_MS
    }
}

/// Offered rates of the ladder: `base * 1.1^k`, rounded to whole
/// requests per second, for `k` in `0..steps`.
pub fn ladder(base: f64, steps: usize) -> Vec<f64> {
    (0..steps)
        .map(|k| (base * 1.1f64.powi(k as i32)).round())
        .collect()
}

/// The highest ladder rate that passes, found by probing upward in
/// strides of `stride` steps until a step fails and then bisecting the
/// last bracket. A step that fails is probed once more and fails only
/// if it fails again, so one stall of the machine cannot end the
/// ladder early. Assumes pass/fail is monotone in the rate; `first` is
/// the already-measured result of step 0, if any. Returns the passing
/// rate (or `None` when step 0 fails) and every step probed.
pub fn find_max_rate(
    rates: &[f64],
    stride: usize,
    first: Option<StepResult>,
    mut probe: impl FnMut(f64) -> StepResult,
) -> (Option<f64>, Vec<StepResult>) {
    let mut probed = Vec::new();
    if rates.is_empty() {
        return (None, probed);
    }
    let mut passes =
        |i: usize, mut prior: Option<StepResult>, probed: &mut Vec<StepResult>| -> bool {
            for _ in 0..2 {
                let r = prior.take().unwrap_or_else(|| probe(rates[i]));
                let ok = r.passes();
                probed.push(r);
                if ok {
                    return true;
                }
            }
            false
        };
    if !passes(0, first, &mut probed) {
        return (None, probed);
    }
    let (mut good, mut bad) = (0usize, rates.len());
    let stride = stride.max(1);
    while good + stride < rates.len() {
        let next = good + stride;
        if passes(next, None, &mut probed) {
            good = next;
        } else {
            bad = next;
            break;
        }
    }
    if bad == rates.len() {
        // Every stride passed: probe the remaining top of the ladder.
        bad = rates.len().min(good + stride);
    }
    while bad - good > 1 {
        let mid = (good + bad) / 2;
        if passes(mid, None, &mut probed) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    (Some(rates[good]), probed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        assert_eq!(tail_pct(10), None);
        // 11 samples: the tail is the smallest value with 10 beyond it.
        let s = summarize(&(1..=11).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(s.tail, 1.0);
        assert!((s.tail_pct - 1.0 / 11.0).abs() < 1e-12);
        // 200 samples: p95, with exactly 10 beyond.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert!((s.tail_pct - 0.95).abs() < 1e-12);
        assert_eq!(s.tail, 190.0);
        assert_eq!(v.iter().filter(|&&x| x > s.tail).count(), 10);
        // 5000 samples: capped at p99 (50 beyond).
        let v: Vec<f64> = (1..=5000).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!(s.tail_pct, 0.99);
        assert_eq!(s.tail, 4950.0);
        assert_eq!(s.median, 2500.0);
        // Exactly 1000 samples: p99 has exactly 10 beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.tail_pct, s.tail), (0.99, 990.0));
    }

    #[test]
    fn tiny_sets_report_max_as_tail() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.n, s.median, s.tail_pct, s.tail), (3, 2.0, 1.0, 3.0));
        assert!(summarize(&[]).is_none());
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn failures_count_against_ratio_and_latency_limit() {
        assert_eq!(failed_ratio(0, 0), 0.0);
        assert_eq!(failed_ratio(400, 3), 0.0075);
        // A failed request misses every latency limit: it counts as
        // infinitely slow. 1000 fast requests plus 11 failures: the p99
        // tail is a failure.
        let mut stream = vec![1.0; 1000];
        stream.extend([f64::INFINITY; 11]);
        let s = summarize(&stream).unwrap();
        assert!(s.tail.is_infinite());
        let step = StepResult {
            rate: 100.0,
            latency_tail_ms: s.tail,
            lateness_tail_ms: 0.0,
        };
        assert!(!step.passes());
        // Five failures in 1000 do not move p99.
        let mut stream = vec![1.0; 995];
        stream.extend([f64::INFINITY; 5]);
        let s = summarize(&stream).unwrap();
        assert_eq!(s.tail, 1.0);
    }

    #[test]
    fn one_stalled_window_does_not_move_the_tail() {
        let mut stream = Vec::new();
        for w in 0..5 {
            for i in 0..1000 {
                let stalled = w == 2 && i < 60;
                stream.push(if stalled {
                    40.0
                } else {
                    1.0 + (i % 100) as f64 / 100.0
                });
            }
        }
        let (tail, windows) = windowed_tail(&stream, 1000).unwrap();
        assert_eq!((tail, windows), (1.98, 5));
        // The whole-stream p99 is the stall's.
        assert_eq!(summarize(&stream).unwrap().tail, 40.0);
        // Short streams fall back to one window; a remainder widens the
        // windows instead of being dropped.
        assert_eq!(
            windowed_tail(&stream[..500], 1000).unwrap(),
            (summarize(&stream[..500]).unwrap().tail, 1)
        );
        let (tail, windows) = windowed_tail(&stream[..2500], 1000).unwrap();
        assert_eq!(windows, 2);
        assert!(tail < 2.0, "{tail}");
        assert!(windowed_tail(&[], 1000).is_none());
    }

    fn capacity_probe(capacity: f64) -> impl FnMut(f64) -> StepResult {
        move |rate| StepResult {
            rate,
            latency_tail_ms: if rate <= capacity { 2.0 } else { 400.0 },
            lateness_tail_ms: 0.0,
        }
    }

    #[test]
    fn ladder_finds_the_highest_passing_step() {
        let rates = ladder(200.0, 24);
        assert_eq!(rates[0], 200.0);
        assert_eq!(rates[1], 220.0);
        for (i, cap) in [
            (0usize, 200.0),
            (5, rates[5]),
            (9, rates[9] + 1.0),
            (23, 1e9),
        ] {
            let (best, probed) = find_max_rate(&rates, 4, None, capacity_probe(cap));
            assert_eq!(best, Some(rates[i]), "capacity {cap}");
            assert!(probed.len() <= 14, "{} probes", probed.len());
        }
        let (best, _) = find_max_rate(&rates, 4, None, capacity_probe(100.0));
        assert_eq!(best, None);
    }

    #[test]
    fn ladder_step_fails_on_lateness_alone() {
        let rates = ladder(200.0, 12);
        let (best, _) = find_max_rate(&rates, 4, None, |rate| StepResult {
            rate,
            latency_tail_ms: 1.0,
            lateness_tail_ms: if rate > 300.0 { 30.0 } else { 1.0 },
        });
        assert_eq!(best, Some(293.0));
        // A measured first step is reused; failing, it is probed once more.
        let first = StepResult {
            rate: 200.0,
            latency_tail_ms: 99.0,
            lateness_tail_ms: 0.0,
        };
        let (best, probed) = find_max_rate(&rates, 4, Some(first.clone()), |rate| StepResult {
            rate,
            latency_tail_ms: 99.0,
            lateness_tail_ms: 0.0,
        });
        assert_eq!((best, probed.len()), (None, 2));
        let (best, probed) = find_max_rate(&rates, 4, Some(first), |rate| StepResult {
            rate,
            latency_tail_ms: if rate > 300.0 { 99.0 } else { 1.0 },
            lateness_tail_ms: 0.0,
        });
        assert_eq!(best, Some(293.0));
        assert_eq!(probed[1].rate, 200.0);
    }

    #[test]
    fn one_stalled_step_does_not_end_the_ladder() {
        let rates = ladder(200.0, 24);
        let mut calls = 0;
        // The first probe of 429 req/s stalls; its retry passes.
        let (best, probed) = find_max_rate(&rates, 8, None, |rate| {
            calls += 1;
            let stalled = rate == 429.0 && calls == 2;
            StepResult {
                rate,
                latency_tail_ms: if stalled || rate > 1000.0 { 80.0 } else { 2.0 },
                lateness_tail_ms: 0.0,
            }
        });
        assert_eq!(best, Some(919.0));
        assert_eq!(probed.iter().filter(|p| p.rate == 429.0).count(), 2);
    }
}
