//! Perf-regression gate: diff two benchmark artifacts under a
//! tolerance and exit nonzero when a metric moved the wrong way.
//!
//! ```text
//! bench_check --baseline BENCH_heops.json --current fresh.json [--tolerance 0.25]
//! bench_check --baseline metrics.prom --scrape 127.0.0.1:9100 [--warn-only]
//! ```
//!
//! `--baseline` and `--current` take `BENCH_*.json` files or saved
//! Prometheus text (auto-detected); `--scrape ADDR` fetches the current
//! side live from a running `spot-server --admin` endpoint. Tolerance
//! is a fraction (default `0.25` = 25%); direction is inferred per
//! metric (time-like regress up, throughput-like regress down — see
//! [`spot_bench::check`]). `--warn-only` reports but exits 0, for
//! noisy 1-core CI runners where absolute timings swing. The one thing
//! it does not soften is a same-run ratio above its fixed ceiling
//! ([`spot_bench::check::CEILINGS`]): that is the same on any runner.
//!
//! Exit codes: `0` clean (or `--warn-only`), `1` regression(s) found
//! or a ceiling exceeded, `2` usage or I/O error.

use spot_bench::arg_value;
use spot_bench::check::{
    compare, http_get, over_ceiling, parse_baseline, parse_prometheus, MetricMap,
};
use std::process::ExitCode;

fn load_file(path: &str) -> Result<MetricMap, String> {
    let content = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_baseline(&content).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let tolerance: f64 = arg_value(&args, "--tolerance")
        .map(|v| v.parse().expect("--tolerance takes a fraction, e.g. 0.25"))
        .unwrap_or(0.25);
    let warn_only = args.iter().any(|a| a == "--warn-only");

    let Some(baseline_path) = arg_value(&args, "--baseline") else {
        eprintln!("bench_check: --baseline PATH is required");
        return ExitCode::from(2);
    };
    let baseline = match load_file(&baseline_path) {
        Ok(map) => map,
        Err(e) => {
            eprintln!("bench_check: {e}");
            return ExitCode::from(2);
        }
    };

    let current = match (arg_value(&args, "--current"), arg_value(&args, "--scrape")) {
        (Some(path), None) => match load_file(&path) {
            Ok(map) => map,
            Err(e) => {
                eprintln!("bench_check: {e}");
                return ExitCode::from(2);
            }
        },
        (None, Some(addr)) => match http_get(&addr, "/metrics") {
            Ok(body) => parse_prometheus(&body),
            Err(e) => {
                eprintln!("bench_check: scrape {addr} failed: {e}");
                return ExitCode::from(2);
            }
        },
        _ => {
            eprintln!("bench_check: pick exactly one of --current PATH or --scrape ADDR");
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
