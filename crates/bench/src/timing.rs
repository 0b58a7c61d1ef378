//! The workspace's one micro-benchmark timer: `bench_heops`, the
//! `table4` calibration and the `trace_overhead` probe time their calls
//! through it.

use std::time::Instant;

/// `(mean_us, median_us, min_us)` over `reps` timed calls after a
/// short warm-up pass (untimed, so cold caches and lazy init never
/// leak into the samples; the median is robust to scheduler spikes on
/// shared hardware).
pub fn time_us(reps: usize, mut f: impl FnMut()) -> (f64, f64, f64) {
    time_us_on(reps, || (), |()| f())
}

/// [`time_us`] of `f` on a fresh `setup()` each call, the setup
/// untimed: for an operation that consumes its input.
pub fn time_us_on<T>(
    reps: usize,
    mut setup: impl FnMut() -> T,
    mut f: impl FnMut(T),
) -> (f64, f64, f64) {
    for _ in 0..(reps / 10).clamp(1, 5) {
        f(setup());
    }
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let input = setup();
        let start = Instant::now();
        f(input);
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    summarize(samples)
}

/// [`time_us`] of each of `calls`, alternated call by call, so a spell
/// of slow machine falls on every side of their ratios alike.
pub fn time_alternately_us<const K: usize>(
    reps: usize,
    mut calls: [&mut dyn FnMut(); K],
) -> [(f64, f64, f64); K] {
    for _ in 0..(reps / 10).clamp(1, 5) {
        calls.iter_mut().for_each(|call| call());
    }
    let mut samples: [Vec<f64>; K] = std::array::from_fn(|_| Vec::with_capacity(reps));
    for _ in 0..reps {
        for (side, call) in samples.iter_mut().zip(calls.iter_mut()) {
            let start = Instant::now();
            call();
            side.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    samples.map(summarize)
}

/// `(mean, median, min)` of timing samples in µs.
fn summarize(mut samples: Vec<f64>) -> (f64, f64, f64) {
    let reps = samples.len();
    let mean = samples.iter().sum::<f64>() / reps as f64;
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = if reps % 2 == 1 {
        samples[reps / 2]
    } else {
        (samples[reps / 2 - 1] + samples[reps / 2]) / 2.0
    };
    (mean, median, min)
}
