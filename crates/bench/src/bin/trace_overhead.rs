//! Cost of one `spot-trace` instrumentation site, in ns per call.
//!
//! The disabled path (tracing off, the default) must stay in the
//! low-single-nanosecond range — one relaxed atomic load and a branch —
//! because every HE op, pool take and wire frame crosses it. The
//! enabled paths are printed for reference. Absolute nanoseconds depend on the machine, so nothing
//! here is gated.
//!
//! ```text
//! cargo run --release -p spot-bench --bin trace_overhead
//! ```

use spot_bench::timing::time_us;
use spot_trace::{count, span, Cat, Counter};
use std::hint::black_box;

/// Calls of a site per timed sample.
const CALLS: usize = 10_000;

/// Prints the min and median ns per call of `site` over 20 samples.
fn probe(name: &str, mut site: impl FnMut()) {
    let (_, median_us, min_us) = time_us(20, || {
        for _ in 0..CALLS {
            site();
        }
    });
    let ns = |us: f64| us * 1e3 / CALLS as f64;
    println!("{name:<30} {:>8.2} {:>8.2}", ns(min_us), ns(median_us));
}

fn main() {
    println!("{:<30} {:>8} {:>8}", "site (ns per call)", "min", "median");
    spot_trace::disable();
    spot_trace::reset();
    probe("trace/disabled/span", || {
        black_box(&span(Cat::He, black_box("bench")));
    });
    probe("trace/disabled/span_owned", || {
        black_box(&spot_trace::span_owned(Cat::He, || {
            format!("bench {}", black_box(1))
        }));
    });
    probe("trace/disabled/count", || {
        count(black_box(Counter::NttFwd), black_box(1))
    });
    probe("trace/disabled/instant", || {
        spot_trace::instant(Cat::He, black_box("bench"))
    });

    spot_trace::enable();
    probe("trace/enabled/span", || {
        black_box(&span(Cat::He, black_box("bench")));
    });
    spot_trace::reset(); // drop the recorded spans
    probe("trace/enabled/count", || {
        count(black_box(Counter::NttFwd), black_box(1))
    });
    spot_trace::disable();
    spot_trace::reset();
}
