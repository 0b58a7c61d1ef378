//! Overhead of the `spot-trace` layer at instrumentation sites.
//!
//! The disabled path (tracing off, the default) must stay in the
//! low-single-nanosecond range — one relaxed atomic load and a branch —
//! because every HE op, pool take, and wire frame crosses it. The
//! enabled path is measured for reference (it allocates nothing for
//! static labels but does write thread-local event records).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use spot_trace::{count, metrics, span, Cat, Counter};

fn bench_disabled(c: &mut Criterion) {
    // Both switches off: either one turns `count`'s process total on.
    spot_trace::disable();
    metrics::disable();
    spot_trace::reset();
    let mut group = c.benchmark_group("trace/disabled");
    group.bench_function("span", |b| {
        b.iter(|| {
            let s = span(Cat::He, black_box("bench"));
            black_box(&s);
        })
    });
    group.bench_function("span_owned", |b| {
        b.iter(|| {
            let s = spot_trace::span_owned(Cat::He, || format!("bench {}", black_box(1)));
            black_box(&s);
        })
    });
    group.bench_function("count", |b| {
        b.iter(|| count(black_box(Counter::NttFwd), black_box(1)))
    });
    group.bench_function("instant", |b| {
        b.iter(|| spot_trace::instant(Cat::He, black_box("bench")))
    });
    group.finish();
}

/// Disabled-path cost of the metrics registry at an instrumentation
/// site. The acceptance budget is <= 5 ns per site:
/// `Histogram::observe` and `Histogram::start_timer` must each be one
/// relaxed load and a branch when the registry switch is off (the
/// timer additionally must not touch `Instant::now`).
fn bench_metrics_disabled(c: &mut Criterion) {
    metrics::disable();
    let hist = metrics::global().histogram("bench_disabled_ns", &[]);
    let mut group = c.benchmark_group("metrics/disabled");
    group.bench_function("histogram_observe", |b| {
        b.iter(|| hist.observe(black_box(42)))
    });
    group.bench_function("histogram_start_timer", |b| {
        b.iter(|| {
            let t = hist.start_timer();
            black_box(&t);
        })
    });
    group.finish();
    assert_eq!(hist.count(), 0, "disabled histogram must not have recorded");
}

/// Enabled-path cost for reference: relaxed atomic adds, plus two
/// `Instant::now` calls for the RAII timer.
fn bench_metrics_enabled(c: &mut Criterion) {
    metrics::enable();
    let hist = metrics::global().histogram("bench_enabled_ns", &[]);
    let mut group = c.benchmark_group("metrics/enabled");
    group.bench_function("histogram_observe", |b| {
        b.iter(|| hist.observe(black_box(42)))
    });
    group.bench_function("histogram_start_timer", |b| {
        b.iter(|| {
            let t = hist.start_timer();
            black_box(&t);
        })
    });
    group.finish();
    metrics::disable();
    metrics::global().reset();
}

fn bench_enabled(c: &mut Criterion) {
    spot_trace::enable();
    let mut group = c.benchmark_group("trace/enabled");
    group.bench_function("span", |b| {
        b.iter(|| {
            let s = span(Cat::He, black_box("bench"));
            black_box(&s);
        })
    });
    group.bench_function("count", |b| {
        b.iter(|| count(black_box(Counter::NttFwd), black_box(1)))
    });
    group.finish();
    spot_trace::disable();
    spot_trace::reset();
}

criterion_group!(
    benches,
    bench_disabled,
    bench_metrics_disabled,
    bench_enabled,
    bench_metrics_enabled
);
criterion_main!(benches);
