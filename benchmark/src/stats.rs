//! Order statistics over the benchmark's own samples.

use std::time::{Duration, Instant};

/// Nearest-rank quantile of `samples` (sorted in place); `None` when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    Some(samples[rank - 1])
}

/// The median, averaging the two middle values of an even count (as
/// Python's `statistics.median` does).
pub fn median(samples: &mut [f64]) -> Option<f64> {
    quantile(samples, 0.5)?; // sorts
    let mid = samples.len() / 2;
    Some(if samples.len() % 2 == 0 {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    })
}

/// Windows the paced phase's samples are cut into, and runs the capacity
/// phase's completions are cut into. This box shares its cores with
/// strangers: for a few hundred milliseconds at a time a neighbour halves
/// its speed. A neighbour can only ever add time, so statistics are taken
/// inside each window and the window at the *quiet quartile* is reported —
/// the first quartile of the per-window latencies, the third quartile of the
/// per-chunk rates. Disturbances that cover up to three quarters of a run
/// (or a pathological solver instance) move the windows they hit and not
/// the metric; a slower program moves every window.
pub const WINDOWS: usize = 32;
pub const RATE_CHUNKS: usize = 40;
/// Fewer windows than this and the plain quantile over all samples is used.
const MIN_WINDOWS: usize = 4;

/// The `within` quantile inside each of up to [`WINDOWS`] equal windows of
/// `samples` (given in schedule order), then the first quartile of those. A
/// window holds at least enough samples to have such a quantile (4, or 100
/// for a 99th percentile), so a short phase is cut into fewer windows.
pub fn windowed_quantile(samples: &[f64], within: f64) -> Option<f64> {
    let needed = (1.0 / (1.0 - within)).ceil().max(4.0) as usize;
    let per_window = (samples.len() / WINDOWS).max(needed);
    if samples.len() / per_window < MIN_WINDOWS {
        return quantile(&mut samples.to_vec(), within);
    }
    let mut per: Vec<f64> = samples
        .chunks_exact(per_window)
        .filter_map(|window| quantile(&mut window.to_vec(), within))
        .collect();
    quantile(&mut per, 0.25)
}

/// Sustained closed-loop rate: `completions` (instants at which successive
/// equal batches of `units` completed, the phase having started at `start`)
/// cut into [`RATE_CHUNKS`] runs; each run's rate is its units over the time
/// from the completion before it to its last one; the third quartile of the
/// runs' rates is returned.
pub fn chunked_rate(start: Instant, completions: &[Instant], units: usize) -> Option<f64> {
    let per_chunk = (completions.len() / RATE_CHUNKS).max(1);
    let mut previous = start;
    let mut rates = Vec::with_capacity(RATE_CHUNKS + 1);
    for chunk in completions.chunks(per_chunk) {
        let last = *chunk.last()?;
        let elapsed = last.saturating_duration_since(previous).as_secs_f64();
        if elapsed > 0.0 {
            rates.push((chunk.len() * units) as f64 / elapsed);
        }
        previous = last;
    }
    quantile(&mut rates, 0.75)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The quartile spread the driver gates on: (Q3 − Q1) / median, with the
/// quartiles of Python's `statistics.quantiles(values, n=4)` (exclusive
/// method). `None` with fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
    let n = sorted.len();
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based scale, linearly interpolated.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n);
        let hi = (lo + 1).min(n);
        sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * (pos - pos.floor()).clamp(0.0, 1.0)
    };
    let mid = median(&mut sorted.clone())?;
    (mid != 0.0).then(|| (at(3) - at(1)) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50.0));
        assert_eq!(quantile(&mut v, 0.99), Some(99.0));
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn stalls_over_most_of_a_run_do_not_own_the_windowed_tail_or_the_chunked_rate() {
        let mut samples = vec![1.0; 8_000];
        samples[10..5_000].iter_mut().for_each(|s| *s = 500.0);
        assert_eq!(quantile(&mut samples.clone(), 0.5), Some(500.0));
        assert_eq!(windowed_quantile(&samples, 0.99), Some(1.0));
        assert_eq!(windowed_quantile(&samples, 0.5), Some(1.0));
        // A slower program moves every window.
        let slower: Vec<f64> = samples.iter().map(|s| s * 2.0).collect();
        assert_eq!(windowed_quantile(&slower, 0.99), Some(2.0));
        // Too few samples for four windows with a 99th percentile of their own.
        assert_eq!(windowed_quantile(&samples[..300], 0.99), Some(500.0));

        let start = Instant::now();
        let mut at = start;
        let completions: Vec<Instant> = (0..100)
            .map(|i| {
                at += Duration::from_millis(if i % 2 == 0 && i < 60 { 1_000 } else { 10 });
                at
            })
            .collect();
        let rate = chunked_rate(start, &completions, 10).unwrap();
        assert!((rate - 1_000.0).abs() < 1.0, "{rate}");
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{spread}");
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }
}
