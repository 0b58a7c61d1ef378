//! Perf-regression gate: diff two benchmark artifacts under a
//! tolerance and exit nonzero when a metric moved the wrong way.
//!
//! ```text
//! bench_check --baseline BENCH_heops.json --current fresh.json [--tolerance 0.25] [--warn-only]
//! ```
//!
//! `--baseline` and `--current` take `BENCH_*.json` files. Tolerance
//! is a fraction (default `0.25` = 25%); direction is inferred per
//! metric (time-like regress up, throughput-like regress down — see
//! [`spot_bench::check`]). `--warn-only` reports but exits 0, for
//! noisy 1-core CI runners where absolute timings swing. The one thing
//! it does not soften is a same-run ratio above its fixed ceiling
//! ([`spot_bench::check::RATIOS`]): that is the same on any runner.
//!
//! Exit codes: `0` clean (or `--warn-only`), `1` regression(s) found
//! or a ceiling exceeded, `2` usage or I/O error. The flags are
//! `USAGE`'s; any other argument exits 2 and prints it.

use spot_bench::check::{compare, over_ceiling, parse_baseline, MetricMap};
use spot_bench::{arg_value, refuse_unknown_args};
use std::process::ExitCode;

const USAGE: &str =
    "usage: bench_check --baseline PATH --current PATH [--tolerance F] [--warn-only]";

fn load_file(path: &str) -> Result<MetricMap, String> {
    let content = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_baseline(&content).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    refuse_unknown_args(&args, USAGE);
    let tolerance: f64 = arg_value(&args, "--tolerance")
        .map(|v| v.parse().expect("--tolerance takes a fraction, e.g. 0.25"))
        .unwrap_or(0.25);
    let warn_only = args.iter().any(|a| a == "--warn-only");

    let (Some(baseline_path), Some(current_path)) = (
        arg_value(&args, "--baseline"),
        arg_value(&args, "--current"),
    ) else {
        eprintln!("bench_check: --baseline and --current are required\n{USAGE}");
        return ExitCode::from(2);
    };
    let (baseline, current) = match (load_file(&baseline_path), load_file(&current_path)) {
        (Ok(baseline), Ok(current)) => (baseline, current),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_check: {e}");
            return ExitCode::from(2);
        }
    };

    // Fixed ceilings on same-run ratios hold even under --warn-only:
    // they do not depend on this runner's speed.
    let over = over_ceiling(&current);
    for r in &over {
        println!(
            "bench_check: OVER CEILING {}: {:.3} > {:.3}",
            r.metric, r.current, r.baseline
        );
    }
    if !over.is_empty() {
        return ExitCode::FAILURE;
    }

    let report = compare(&baseline, &current, tolerance);
    println!(
        "bench_check: {} metrics compared against {baseline_path} (tolerance {:.0}%)",
        report.compared,
        tolerance * 100.0
    );
    if report.regressions.is_empty() {
        println!("bench_check: OK — no regressions");
        return ExitCode::SUCCESS;
    }
    for r in &report.regressions {
        println!("bench_check: REGRESSION {r}");
    }
    println!(
        "bench_check: {} regression(s) past {:.0}% tolerance{}",
        report.regressions.len(),
        tolerance * 100.0,
        if warn_only { " (warn-only)" } else { "" }
    );
    if warn_only {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
