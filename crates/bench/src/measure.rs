//! The one timing harness of the benchmark bins: a warm-up call per
//! variant, then interleaved samples in rotated order, summarised as
//! min, median and median absolute deviation.

use std::time::Instant;

use serde::{Deserialize, Serialize};

/// One variant's timed samples, summarised. Speedups in the artifacts are
/// ratios of `median_ms`; `mad_ms` is the spread to read them against.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Timing {
    /// Timed samples (the warm-up call is not one).
    pub samples: usize,
    /// Fastest sample, ms.
    pub min_ms: f64,
    /// Median sample, ms (mean of the middle two for an even count).
    pub median_ms: f64,
    /// Median absolute deviation of the samples from `median_ms`, ms.
    pub mad_ms: f64,
}

impl Timing {
    fn of(samples: &mut [f64]) -> Self {
        let median_ms = median(samples);
        let mut deviations: Vec<f64> = samples.iter().map(|s| (s - median_ms).abs()).collect();
        Timing {
            samples: samples.len(),
            min_ms: samples[0],
            median_ms,
            mad_ms: median(&mut deviations),
        }
    }
}

/// Sorts `xs` and returns its median; `xs` must be non-empty.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let mid = xs.len() / 2;
    if xs.len().is_multiple_of(2) {
        (xs[mid - 1] + xs[mid]) / 2.0
    } else {
        xs[mid]
    }
}

/// The timed window of one variant call. It opens just before the call
/// and closes when the call returns; a variant whose set-up or teardown
/// must not count calls [`Window::open`] and [`Window::close`] around the
/// part it measures.
pub struct Window {
    opened: Instant,
    closed: Option<Instant>,
}

impl Window {
    /// Restart the window now, discarding the time spent so far.
    pub fn open(&mut self) {
        self.opened = Instant::now();
        self.closed = None;
    }

    /// End the window now; later work in the call is not timed.
    pub fn close(&mut self) {
        self.closed = Some(Instant::now());
    }
}

/// Time `variants` alternatives of one workload. `run(v, window)` runs
/// variant `v` once. Each variant is called once untimed to warm up, then
/// `samples` times, with sample `k` running the variants in the order
/// `k, k + 1, …` (mod `variants`) so that each variant leads equally
/// often when `samples` is a multiple of `variants`, and clock drift
/// cannot favour any of them. Returns one [`Timing`] per variant.
pub fn measure(
    samples: usize,
    variants: usize,
    mut run: impl FnMut(usize, &mut Window),
) -> Vec<Timing> {
    assert!(samples >= 1, "measure needs at least one sample");
    let mut timed = |v: usize| {
        let mut window = Window {
            opened: Instant::now(),
            closed: None,
        };
        run(v, &mut window);
        let closed = window.closed.unwrap_or_else(Instant::now);
        closed.duration_since(window.opened).as_secs_f64() * 1e3
    };
    for v in 0..variants {
        timed(v);
    }
    let mut ms = vec![Vec::with_capacity(samples); variants];
    for k in 0..samples {
        for j in 0..variants {
            let v = (k + j) % variants;
            ms[v].push(timed(v));
        }
    }
    ms.iter_mut().map(|s| Timing::of(s)).collect()
}

/// One point of a benchmark bin's thread-scaling sweep: the full workload
/// with the worker pool capped at `threads`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadScaling {
    /// Worker threads the pool ran with.
    pub threads: usize,
    /// The workload's timing at this pool size.
    pub timing: Timing,
}

/// Time `workload` at every pool size from 1 to the uncapped pool's
/// [`rayon::current_num_threads`], the sizes being the variants of one
/// [`measure`] call. The pool is uncapped again afterwards.
pub fn scaling_sweep(samples: usize, workload: impl Fn()) -> Vec<ThreadScaling> {
    rayon::set_num_threads(0);
    let max = rayon::current_num_threads();
    let timings = measure(samples, max, |v, window| {
        rayon::set_num_threads(v + 1);
        window.open();
        workload();
    });
    rayon::set_num_threads(0);
    timings
        .into_iter()
        .enumerate()
        .map(|(v, timing)| ThreadScaling {
            threads: v + 1,
            timing,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_variant_leads_equally_often_under_rotation() {
        let (variants, samples) = (3, 6);
        let mut calls = Vec::new();
        measure(samples, variants, |v, _| calls.push(v));
        assert_eq!(calls.len(), variants * (samples + 1));
        let (warm_up, timed) = calls.split_at(variants);
        assert_eq!(warm_up, [0, 1, 2]);
        let mut leads = vec![0; variants];
        for round in timed.chunks(variants) {
            let mut sorted = round.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2], "each round runs every variant once");
            leads[round[0]] += 1;
        }
        assert_eq!(leads, [2, 2, 2]);
    }

    #[test]
    fn sample_count_is_honoured_and_min_le_median() {
        let timings = measure(5, 2, |v, _| {
            std::hint::black_box((0..1_000 * (v + 1)).sum::<usize>());
        });
        assert_eq!(timings.len(), 2);
        for t in &timings {
            assert_eq!(t.samples, 5);
            assert!(0.0 <= t.min_ms && t.min_ms <= t.median_ms);
            assert!(t.median_ms.is_finite() && t.mad_ms >= 0.0);
        }
    }

    #[test]
    fn constant_samples_have_zero_mad() {
        let t = Timing::of(&mut [4.0; 7]);
        assert_eq!((t.min_ms, t.median_ms, t.mad_ms), (4.0, 4.0, 0.0));
        let t = Timing::of(&mut [3.0, 1.0, 2.0, 10.0]);
        assert_eq!((t.min_ms, t.median_ms, t.mad_ms), (1.0, 2.5, 1.0));
    }

    #[test]
    fn a_closed_window_excludes_the_rest_of_the_call() {
        let t = measure(1, 1, |_, window| {
            window.close();
            std::thread::sleep(std::time::Duration::from_millis(20));
        });
        assert!(t[0].median_ms < 20.0, "teardown was timed: {:?}", t[0]);
    }

    #[test]
    fn scaling_sweep_covers_every_pool_size_and_uncaps_the_pool() {
        rayon::set_num_threads(0);
        let max = rayon::current_num_threads();
        let sweep = scaling_sweep(2, || {});
        let threads: Vec<usize> = sweep.iter().map(|p| p.threads).collect();
        assert_eq!(threads, (1..=max).collect::<Vec<_>>());
        assert!(sweep.iter().all(|p| p.timing.samples == 2));
        assert_eq!(rayon::current_num_threads(), max);
    }
}
