//! Summary statistics, the computed-FLOP formula for the auto-encoder, and
//! the peak-RSS sampler.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Count, total and nearest-rank percentiles of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub total: f64,
    pub p50: f64,
    pub p99: f64,
}

impl Summary {
    /// Summarises `values`; an empty set summarises to all zeros, so a
    /// layer that did not run reports `count = 0` rather than vanishing.
    pub fn of(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            count: sorted.len(),
            total: sorted.iter().sum(),
            p50: nearest_rank(&sorted, 50.0),
            p99: nearest_rank(&sorted, 99.0),
        }
    }
}

/// The nearest-rank percentile of an ascending slice: the smallest value
/// with at least `p`% of the samples at or below it. Never interpolates,
/// so the result is always a measured value. Empty input gives 0.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Requests per latency window: the smallest count that leaves ten
/// samples beyond the 99th percentile.
const WINDOW: usize = 1000;

/// Cuts the latencies, in request order, into `⌊n / WINDOW⌋` consecutive
/// windows of near-equal size (one window when there are fewer) and
/// returns the median across windows of each window's nearest-rank p50
/// and p99. A stall of the shared host then moves one window, not the
/// run's figure.
pub fn windowed_percentiles(in_order: &[f64]) -> (f64, f64) {
    let windows = (in_order.len() / WINDOW).max(1);
    let size = in_order.len().div_ceil(windows).max(1);
    let (p50, p99): (Vec<f64>, Vec<f64>) = in_order
        .chunks(size)
        .map(|w| {
            let s = Summary::of(w);
            (s.p50, s.p99)
        })
        .unzip();
    (median(&p50), median(&p99))
}

/// Median of an unsorted slice (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).p50
}

/// Floating-point operations of one forward pass of one row through a
/// dense stack with the given layer widths (`widths[0]` is the input):
/// a multiply and an add per weight.
pub fn dense_forward_flops(widths: &[usize]) -> f64 {
    widths.windows(2).map(|w| 2.0 * (w[0] * w[1]) as f64).sum()
}

/// Floating-point operations of one training step of one row: the
/// forward pass, the weight gradient of every layer, and the input
/// gradient of every layer but the first (the stack never propagates a
/// gradient into its input).
pub fn dense_train_flops(widths: &[usize]) -> f64 {
    let weights: Vec<f64> = widths.windows(2).map(|w| (w[0] * w[1]) as f64).collect();
    let all: f64 = weights.iter().sum();
    let input_grads: f64 = weights.iter().skip(1).sum();
    2.0 * all + 2.0 * all + 2.0 * input_grads
}

/// GFLOP/s from an operation count and a time in milliseconds (0 when
/// nothing was timed).
pub fn gflops(flops: f64, ms: f64) -> f64 {
    if ms > 0.0 {
        flops / (ms * 1e6)
    } else {
        0.0
    }
}

/// Samples the process's resident set every few milliseconds on a
/// background thread and keeps the peak, so the figure covers only the
/// phase between `start` and `stop`. The resident set at `start` is kept
/// as the phase's baseline: what the process already held (inputs, the
/// loaded model, heap the allocator kept from earlier phases).
pub struct PeakRss {
    baseline: u64,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<u64>,
}

/// Resident memory of one phase, in MiB.
#[derive(Debug, Clone, Copy)]
pub struct Rss {
    pub baseline_mb: f64,
    pub peak_mb: f64,
}

impl PeakRss {
    pub fn start() -> Self {
        let baseline = resident_bytes();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = resident_bytes();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5));
                peak = peak.max(resident_bytes());
            }
            peak.max(resident_bytes())
        });
        PeakRss {
            baseline,
            stop,
            handle,
        }
    }

    /// Stops sampling and returns the baseline and the peak.
    pub fn stop(self) -> Rss {
        self.stop.store(true, Ordering::Relaxed);
        let peak = self.handle.join().expect("rss sampler thread panicked");
        let mb = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
        Rss {
            baseline_mb: mb(self.baseline),
            peak_mb: mb(peak.max(self.baseline)),
        }
    }
}

/// Current resident set size in bytes (second field of `/proc/self/statm`,
/// in 4 KiB pages); 0 where the file is unavailable.
fn resident_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |pages| pages * 4096)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank_and_report_their_count() {
        let values: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!(s.count, 200);
        assert_eq!(s.total, 20100.0);
        // Rank ceil(0.5 * 200) = 100 and ceil(0.99 * 200) = 198: measured
        // values, never an interpolation between neighbours.
        assert_eq!(s.p50, 100.0);
        assert_eq!(s.p99, 198.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
        assert_eq!(Summary::of(&[]).count, 0);
        assert_eq!(Summary::of(&[]).p99, 0.0);
    }

    #[test]
    fn windowed_percentiles_take_the_median_window() {
        // Three windows of 1000; the middle one is slow throughout.
        let mut values: Vec<f64> = (0..1000).map(|i| f64::from(i % 100)).collect();
        values.extend((0..1000).map(|i| 1000.0 + f64::from(i % 100)));
        values.extend((0..1000).map(|i| f64::from(i % 100) + 0.5));
        let (p50, p99) = windowed_percentiles(&values);
        assert_eq!((p50, p99), (49.5, 98.5));
        // Short input is a single window.
        assert_eq!(windowed_percentiles(&[3.0, 1.0, 2.0]), (2.0, 3.0));
    }

    #[test]
    fn computed_flops_match_a_hand_sized_dense_stack() {
        // 4 -> 3 -> 2: weights 12 + 6 = 18.
        let widths = [4, 3, 2];
        assert_eq!(dense_forward_flops(&widths), 36.0);
        // Forward 36, weight gradients 36, input gradient of the second
        // layer only 12.
        assert_eq!(dense_train_flops(&widths), 84.0);
        // 1000 rows of forward in 0.5 ms: 36e3 flop / 5e-4 s = 0.072 GFLOP/s.
        let g = gflops(1000.0 * dense_forward_flops(&widths), 0.5);
        assert!((g - 0.072).abs() < 1e-12, "{g}");
        assert_eq!(gflops(1.0, 0.0), 0.0);
    }
}
