//! Perf-regression gate machinery behind the `bench_check` binary and
//! `spot-loadgen --scrape`: parse the numbers we already emit
//! (`BENCH_*.json` baselines via [`spot_trace::json`], Prometheus
//! `/metrics` scrapes), flatten
//! them into `metric path -> value` maps, and diff two maps under a
//! tolerance.
//!
//! ## Flattening
//!
//! A JSON document flattens by joining object keys with `/`
//! (`latency_s.p99` in scenario 0 of `BENCH_serving.json` becomes
//! `scenarios/clients=16/latency_s/p99`). An array element that is an
//! object is keyed by its **string-valued fields** (and a `clients`
//! count, the one numeric identity our schemas use) so entry order
//! never matters: a heops row becomes
//! `entries/ntt_forward/N4096/avx2+scalar/mean_us`. Elements with no
//! identity fall back to their index. A Prometheus scrape flattens to
//! `name{labels}` keys verbatim.
//!
//! ## Direction
//!
//! A diff only flags what a human would call a regression, so each
//! metric's *direction* is inferred from its name: time-like names
//! (`*_us`, `*_ns`, `p50`/`p99`/`mean`/`wall_s`, ...) regress when they
//! grow, rate-like names (`*speedup*`, `*throughput*`, `*hits*`,
//! `*efficiency*`, `*busy_share*`)
//! regress when they shrink, and identity-like names (`reps`,
//! `clients`, `matched`) are ignored. [`classify`] is the single
//! source of that rule.

use spot_trace::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

// ---------------------------------------------------------------------
// Flattening to metric maps
// ---------------------------------------------------------------------

/// A flat `metric path -> value` view of a document.
pub type MetricMap = BTreeMap<String, f64>;

/// The identity key for an object array element: its string-valued
/// fields (plus `clients`, the one numeric identity our schemas use),
/// joined with `/` — or `None` when it has no such fields.
fn element_identity(members: &[(String, Value)]) -> Option<String> {
    let mut parts = Vec::new();
    for (k, v) in members {
        match v {
            Value::String(s) => parts.push(s.clone()),
            Value::Number(n) if k == "clients" => parts.push(format!("clients={n}")),
            _ => {}
        }
    }
    if parts.is_empty() {
        None
    } else {
        Some(parts.join("/"))
    }
}

fn flatten_into(prefix: &str, value: &Value, out: &mut MetricMap) {
    match value {
        Value::Number(n) => {
            out.insert(prefix.to_string(), *n);
        }
        Value::Object(members) => {
            for (k, v) in members {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}/{k}")
                };
                flatten_into(&path, v, out);
            }
        }
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                let segment = match item {
                    Value::Object(members) => {
                        element_identity(members).unwrap_or_else(|| i.to_string())
                    }
                    _ => i.to_string(),
                };
                flatten_into(&format!("{prefix}/{segment}"), item, out);
            }
        }
        // Strings are identity, not measurements; bools/nulls carry no
        // magnitude to diff.
        Value::String(_) | Value::Bool(_) | Value::Null => {}
    }
}

/// Flattens a parsed JSON document into a metric map (see module docs
/// for the path scheme).
pub fn flatten_json(doc: &Value) -> MetricMap {
    let mut out = MetricMap::new();
    flatten_into("", doc, &mut out);
    out
}

/// Parses Prometheus text exposition into a metric map keyed
/// `name{labels}` exactly as exposed (comment lines skipped).
pub fn parse_prometheus(text: &str) -> MetricMap {
    let mut out = MetricMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // `name{labels} value` or `name value`; labels may hold spaces
        // inside quotes, so split at the last space.
        let Some(split) = line.rfind(' ') else {
            continue;
        };
        let (series, value) = line.split_at(split);
        if let Ok(v) = value.trim().parse::<f64>() {
            out.insert(series.trim().to_string(), v);
        }
    }
    // Histogram internals (`_sum`/`_count`/`_bucket`) are cumulative
    // volume, not a perf signal — a longer run always has more of them.
    // The comparable quantity is the mean sample, so derive a
    // `<base>_mean{labels}` series wherever a sum/count pair exists.
    let means: Vec<(String, f64)> = out
        .iter()
        .filter_map(|(key, &sum)| {
            let (name, labels) = key.split_once('{').unwrap_or((key, ""));
            let base = name.strip_suffix("_sum")?;
            let count_key = if labels.is_empty() {
                format!("{base}_count")
            } else {
                format!("{base}_count{{{labels}")
            };
            let count = *out.get(&count_key)?;
            (count > 0.0).then(|| {
                let mean_key = if labels.is_empty() {
                    format!("{base}_mean")
                } else {
                    format!("{base}_mean{{{labels}")
                };
                (mean_key, sum / count)
            })
        })
        .collect();
    out.extend(means);
    out
}

/// Parses either of the formats a baseline file can hold: a
/// `BENCH_*.json` document or saved Prometheus text.
pub fn parse_baseline(content: &str) -> Result<MetricMap, String> {
    if content.trim_start().starts_with('{') {
        Ok(flatten_json(&json::parse(content)?))
    } else {
        let map = parse_prometheus(content);
        if map.is_empty() {
            return Err("baseline is neither JSON nor Prometheus text".into());
        }
        Ok(map)
    }
}

// ---------------------------------------------------------------------
// Scraping
// ---------------------------------------------------------------------

/// Issues `GET path` against `addr` (a `host:port` admin endpoint) and
/// returns the response body.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((head, body)) if head.starts_with("HTTP/1.0 200") => Ok(body.to_string()),
        Some((head, _)) => Err(std::io::Error::other(format!(
            "GET {path}: {}",
            head.lines().next().unwrap_or("no status line")
        ))),
        None => Err(std::io::Error::other("malformed HTTP response")),
    }
}

// ---------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------

/// What growing means for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Time/size-like: bigger is worse.
    LowerIsBetter,
    /// Rate-like: smaller is worse.
    HigherIsBetter,
    /// Identity/count-like: not a perf signal, skipped.
    Neutral,
}

/// Infers a metric's direction from its flattened path (see module
/// docs).
pub fn classify(path: &str) -> Direction {
    let lower = path.to_ascii_lowercase();
    let has = |needles: &[&str]| needles.iter().any(|n| lower.contains(n));
    // Cumulative histogram components scale with run length, not
    // performance; the derived `_mean` series carries the signal.
    let series_name = lower.split('{').next().unwrap_or(&lower);
    if series_name.ends_with("_sum")
        || series_name.ends_with("_count")
        || series_name.ends_with("_bucket")
        || series_name.ends_with("_total")
    {
        return Direction::Neutral;
    }
    if has(&[
        "speedup",
        "throughput",
        "rps",
        "hits",
        "efficiency",
        "busy_share",
    ]) {
        Direction::HigherIsBetter
    } else if has(&[
        "_us", "_ns", "_ms", "_s/", "wall_s", "latency", "p50", "p90", "p99", "mean", "median",
        "min", "blocked", "stall",
    ]) || lower.ends_with("_s")
    {
        Direction::LowerIsBetter
    } else {
        Direction::Neutral
    }
}

/// One metric that moved past the tolerance in the bad direction.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Flattened metric path.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// `current / baseline` (worse-direction ratio > 1 + tolerance).
    pub ratio: f64,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.3} -> {:.3} ({:+.1}%)",
            self.metric,
            self.baseline,
            self.current,
            (self.current / self.baseline - 1.0) * 100.0
        )
    }
}

/// The outcome of one comparison run.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Metrics compared (present in both maps with a non-neutral
    /// direction and a nonzero baseline).
    pub compared: usize,
    /// Metrics that regressed past the tolerance.
    pub regressions: Vec<Regression>,
}

/// Diffs `current` against `baseline`: every shared, direction-bearing
/// metric whose worse-direction change exceeds `tolerance`
/// (e.g. `0.25` = 25%) is reported. Metrics only present on one side
/// are ignored — baselines age, scrapes carry extra series.
pub fn compare(baseline: &MetricMap, current: &MetricMap, tolerance: f64) -> CheckReport {
    let mut report = CheckReport::default();
    for (path, &base) in baseline {
        let Some(&cur) = current.get(path) else {
            continue;
        };
        let direction = classify(path);
        if direction == Direction::Neutral || base <= 0.0 {
            continue;
        }
        report.compared += 1;
        let worse_ratio = match direction {
            Direction::LowerIsBetter => cur / base,
            Direction::HigherIsBetter => base / cur.max(f64::MIN_POSITIVE),
            Direction::Neutral => unreachable!(),
        };
        if worse_ratio > 1.0 + tolerance {
            report.regressions.push(Regression {
                metric: path.clone(),
                baseline: base,
                current: cur,
                ratio: worse_ratio,
            });
        }
    }
    report
        .regressions
        .sort_by(|a, b| b.ratio.partial_cmp(&a.ratio).expect("finite ratios"));
    report
}

/// One side of a [`Ratio`]: what `bench_heops` measured at a level.
#[derive(Debug, Clone, Copy)]
pub enum Quantity {
    /// The dispatched kernel table's `min_us` of an `entries` row
    /// (its `op`), times how many calls of it the other side stands for.
    MinUs(&'static str, f64),
    /// A serialised length in bytes.
    Bytes(&'static str),
}

/// A same-run ratio `bench_heops --json` reports under `ratios` as
/// `{name}/{level}` and `bench_check` holds to a fixed ceiling. Both
/// sides come from one process on one machine, so it holds still where
/// absolute times do not, and it is gated against the ceiling itself,
/// not against a baseline that could drift upward a tolerance at a time.
pub struct Ratio {
    /// The name before `/{level}`.
    pub name: &'static str,
    /// The numerator.
    pub of: Quantity,
    /// The denominator.
    pub per: Quantity,
    /// The levels it is reported at.
    pub levels: &'static [&'static str],
    /// The value above which `bench_check` fails.
    pub ceiling: f64,
    /// The one level the ceiling applies to, or `None` for every level.
    pub gated_at: Option<&'static str>,
    /// The worst values measured on healthy code, which pass.
    pub healthy: &'static [f64],
    /// A value of the code the ceiling rules out, which fails.
    pub failing: f64,
}

impl Ratio {
    /// The ratio at `level` of what `read` measured of its two sides.
    pub fn value(&self, level: &str, read: impl Fn(Quantity, &str) -> Option<f64>) -> Option<f64> {
        Some(read(self.of, level)? / read(self.per, level)?)
    }

    /// `value` as `BENCH_heops.json` prints it: a byte ratio to four
    /// decimals, a timing ratio to three.
    pub fn format(&self, value: f64) -> String {
        let decimals = 3 + matches!(self.of, Quantity::Bytes(_)) as usize;
        format!("{value:.decimals$}")
    }
}

use Quantity::{Bytes, MinUs};
const BOTH: &[&str] = &["N4096", "N8192"];
const SERVED: &[&str] = &["N4096"];

/// Every gated ratio, one row each: adding one is a row here and the
/// measurements its sides name.
#[rustfmt::skip]
pub const RATIOS: &[Ratio] = &[
    // Eight rotations from one key-switch decomposition over eight that
    // each redo it, the two timed alternately (with
    // `taps3x3_composed`): ten runs at both levels on an AVX-512 IFMA
    // Xeon read 0.32–0.38 under `avx512ifma` and 0.30–0.40 under
    // `avx2+scalar`; timed apart, the same code read up to 0.49, 2 runs
    // in 10 over the ceiling. 0.49 is also what a hoisted rotation of
    // two passes read, the value the gate was introduced at; 1.0 if the
    // sharing is lost.
    Ratio { name: "rotate_hoisted8_per_8_rotate",
        of: MinUs("rotate_hoisted8", 1.0), per: MinUs("rotate", 8.0),
        levels: BOTH, ceiling: 0.45, gated_at: None, healthy: &[0.38, 0.40], failing: 0.49 },
    // A 3×3 kernel's tap sum as one inner product over nine plaintext
    // multiplies and eight additions, timed alternately: ten runs at
    // both levels read 0.38–0.55 under `avx512ifma` and 0.39–0.50
    // under `avx2+scalar` (timed apart, up to 0.74 under `avx512ifma`);
    // 0.97 when the sum reduces (and materialises) every term.
    Ratio { name: "dot_lifted9_per_mult_add9",
        of: MinUs("dot_lifted9", 1.0), per: MinUs("mult_add9", 1.0),
        levels: BOTH, ceiling: 0.7, gated_at: None, healthy: &[0.50, 0.55], failing: 0.97 },
    // A paper-shaped layer's sixteen giant steps of eighteen terms (SPOT
    // at 32 → 32) summed in one tiled sweep over the tap positions over
    // the same sums as sixteen `dot_lifted` calls, timed alternately, at
    // the served level only. Ten runs on an AVX-512 IFMA Xeon read
    // 0.63–0.82 under `avx512ifma`, whose memory-bound tap sum gains
    // from reading each tile of the positions once; nineteen read
    // 0.95–1.13 under `avx2+scalar`, whose compute-bound `u128` body
    // gains nothing. Tiles of one 8-coefficient chunk, every step's
    // plaintexts streamed at once, read 1.41–1.49 there.
    Ratio { name: "dot_steps16x18_per_16_dot_lifted18",
        of: MinUs("dot_steps16x18", 1.0), per: MinUs("dot_lifted18x16", 1.0),
        levels: SERVED, ceiling: 1.2, gated_at: None, healthy: &[0.82, 1.13], failing: 1.41 },
    // A 3×3 kernel's eight tap positions composed from four keys (three
    // hoists, eight hoisted rotations) over the same eight from one
    // hoist and eight keys: the server-side price of the four keys the
    // client no longer makes. Timed alternately, ten runs at both levels
    // on an AVX-512 IFMA Xeon read 1.49–1.74 under `avx512ifma` and
    // 1.42–1.86 under `avx2+scalar` (timed apart, 0.88–2.39); taps that
    // each pay a hoist read 2.39–2.96 and 2.83–3.22.
    Ratio { name: "taps3x3_composed_per_rotate_hoisted8",
        of: MinUs("taps3x3_composed", 1.0), per: MinUs("rotate_hoisted8", 1.0),
        levels: BOTH, ceiling: 2.0, gated_at: None, healthy: &[1.74, 1.86], failing: 2.39 },
    // One polynomial of a result switched down to two primes, mask
    // folded in, over one forward row transform. Gated at the level
    // results are served at, where three transforms and four row passes
    // read 3.5–4.43 under either table and the coefficient-domain switch
    // (every row back and forth, scalar arithmetic per coefficient)
    // about 20. At N8192 three primes go, five transforms and fourteen
    // row passes a polynomial: 6.6 under `avx512ifma`, up to 8.6 under
    // `avx2+scalar`, reported and not gated.
    Ratio { name: "mod_switch_per_ntt_forward",
        of: MinUs("mod_switch", 1.0), per: MinUs("ntt_forward", 1.0),
        levels: BOTH, ceiling: 8.0, gated_at: Some("N4096"), healthy: &[4.43], failing: 20.0 },
    // A sparse result's decryption at 64 positions over a whole
    // result's, both at N4096's two result primes, timed alternately:
    // `c1·s` and its two inverse row transforms are paid either way,
    // only the rounding of the other 4,032 coefficients is saved. Ten
    // runs on an AVX-512 IFMA Xeon read 0.24–0.28 under `avx512ifma` and
    // 0.57–0.62 under `avx2+scalar`, whose inverse transform is no
    // faster than scalar; rounding every coefficient again reads 1.0 or
    // more under either.
    Ratio { name: "decrypt_result_sparse64_per_decrypt_result",
        of: MinUs("decrypt_result_sparse64", 1.0), per: MinUs("decrypt_result", 1.0),
        levels: SERVED, ceiling: 0.75, gated_at: None, healthy: &[0.28, 0.62], failing: 1.05 },
    // One key's `k` uniform polynomials from their seed through the
    // dispatched row body over the `StdRng` loop they must equal, timed
    // alternately: ten runs at both levels on an AVX-512 IFMA Xeon read
    // 0.47–0.52 under `avx512ifma` (eight lanes) and 0.73–0.83 under
    // `avx2+scalar` (four); the one stream, the scalar body, read
    // 0.93–1.07.
    Ratio { name: "seed_expand3_per_stdrng_loop",
        of: MinUs("seed_expand3", 1.0), per: MinUs("seed_expand3_stdrng", 1.0),
        levels: BOTH, ceiling: 0.9, gated_at: None, healthy: &[0.52, 0.83], failing: 0.93 },
    // A serialised one-key blob over its `k` packed `b_i` alone: 1.0003
    // while the `a_i` travel as a 32-byte seed, 2.0 if they travel
    // themselves again.
    Ratio { name: "galois_key_bytes_per_digit_poly",
        of: Bytes("galois_key"), per: Bytes("digit_polys"),
        levels: BOTH, ceiling: 1.1, gated_at: None, healthy: &[1.0003], failing: 2.0 },
    // An uploaded ciphertext over the full form of the same encryption:
    // 0.5004 while `c1` travels as a 32-byte seed, 1.0 if it travels
    // itself again.
    Ratio { name: "seeded_ct_bytes_per_ct_bytes",
        of: Bytes("seeded_ct"), per: Bytes("ct"),
        levels: BOTH, ceiling: 0.51, gated_at: None, healthy: &[0.5004], failing: 1.0 },
];

/// Every `ratios/{name}/{level}` metric of `current` above its
/// [`RATIOS`] row's ceiling, reported with the ceiling in the baseline
/// position.
pub fn over_ceiling(current: &MetricMap) -> Vec<Regression> {
    let over = current.iter().filter_map(|(path, &value)| {
        let (name, level) = path.strip_prefix("ratios/")?.split_once('/')?;
        let row = RATIOS.iter().find(|row| row.name == name)?;
        let gated = row.gated_at.is_none_or(|at| at == level);
        (gated && value > row.ceiling).then(|| Regression {
            metric: path.clone(),
            baseline: row.ceiling,
            current: value,
            ratio: value / row.ceiling,
        })
    });
    over.collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH_FIXTURE: &str = r#"{
        "schema": "spot-bench-heops/v1",
        "entries": [
            {"op": "ntt_forward", "level": "N4096", "kernel": "scalar", "reps": 200, "mean_us": 60.0, "min_us": 55.0},
            {"op": "rotate", "level": "N4096", "kernel": "scalar", "reps": 20, "mean_us": 1700.0, "min_us": 1650.0}
        ],
        "speedups": {"ntt_forward_N4096": 1.9}
    }"#;

    #[test]
    fn json_roundtrip_and_flatten() {
        let doc = json::parse(BENCH_FIXTURE).expect("parse fixture");
        let map = flatten_json(&doc);
        assert_eq!(map["entries/ntt_forward/N4096/scalar/mean_us"], 60.0);
        assert_eq!(map["entries/rotate/N4096/scalar/min_us"], 1650.0);
        assert_eq!(map["speedups/ntt_forward_N4096"], 1.9);
        // Identity-by-fields, not by index: a reordered file flattens
        // to the same map.
        let reordered = json::parse(
            &BENCH_FIXTURE.replace(
                r#"{"op": "ntt_forward", "level": "N4096", "kernel": "scalar", "reps": 200, "mean_us": 60.0, "min_us": 55.0},"#,
                "",
            )
            .replace(
                r#"{"op": "rotate", "level": "N4096", "kernel": "scalar", "reps": 20, "mean_us": 1700.0, "min_us": 1650.0}"#,
                r#"{"op": "rotate", "level": "N4096", "kernel": "scalar", "reps": 20, "mean_us": 1700.0, "min_us": 1650.0},
                   {"op": "ntt_forward", "level": "N4096", "kernel": "scalar", "reps": 200, "mean_us": 60.0, "min_us": 55.0}"#,
            ),
        )
        .expect("parse reordered");
        assert_eq!(map, flatten_json(&reordered));
    }

    #[test]
    fn injected_regression_is_flagged_and_tolerance_holds() {
        let base = flatten_json(&json::parse(BENCH_FIXTURE).expect("parse"));
        // 10% slower ntt mean: inside a 25% tolerance, outside 5%.
        let slower = BENCH_FIXTURE.replace("\"mean_us\": 60.0", "\"mean_us\": 66.0");
        let cur = flatten_json(&json::parse(&slower).expect("parse"));
        assert!(compare(&base, &cur, 0.25).regressions.is_empty());
        let report = compare(&base, &cur, 0.05);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(
            report.regressions[0].metric,
            "entries/ntt_forward/N4096/scalar/mean_us"
        );
        // A speedup *drop* is also a regression (higher-is-better).
        let slower_speedup = BENCH_FIXTURE.replace("1.9", "1.0");
        let cur = flatten_json(&json::parse(&slower_speedup).expect("parse"));
        let report = compare(&base, &cur, 0.25);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].metric, "speedups/ntt_forward_N4096");
    }

    #[test]
    fn faster_is_never_a_regression() {
        let base = flatten_json(&json::parse(BENCH_FIXTURE).expect("parse"));
        let faster = BENCH_FIXTURE
            .replace("\"mean_us\": 60.0", "\"mean_us\": 20.0")
            .replace("1.9", "5.0");
        let cur = flatten_json(&json::parse(&faster).expect("parse"));
        let report = compare(&base, &cur, 0.0);
        assert!(
            report.regressions.is_empty(),
            "got {:?}",
            report.regressions
        );
        assert!(report.compared > 0);
    }

    #[test]
    fn prometheus_text_parses_to_series_map() {
        let text = "# TYPE spot_sessions_served counter\n\
                    spot_sessions_served 16\n\
                    spot_conv_serve_ns_bucket{scheme=\"spot\",le=\"1023\"} 3\n\
                    spot_conv_serve_ns_sum{scheme=\"spot\"} 2800\n";
        let map = parse_prometheus(text);
        assert_eq!(map["spot_sessions_served"], 16.0);
        assert_eq!(
            map["spot_conv_serve_ns_bucket{scheme=\"spot\",le=\"1023\"}"],
            3.0
        );
        assert_eq!(map["spot_conv_serve_ns_sum{scheme=\"spot\"}"], 2800.0);
        assert!(parse_baseline(text).is_ok());
        assert!(parse_baseline("not a baseline").is_err());
    }

    #[test]
    fn direction_classification() {
        assert_eq!(
            classify("entries/rotate/N4096/scalar/mean_us"),
            Direction::LowerIsBetter
        );
        assert_eq!(
            classify("scenarios/clients=16/latency_s/p99"),
            Direction::LowerIsBetter
        );
        assert_eq!(
            classify("scenarios/clients=16/throughput_rps"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            classify("speedups/ntt_forward_N4096"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            classify("entries/rotate/N4096/scalar/reps"),
            Direction::Neutral
        );
        assert_eq!(classify("scenarios/clients=16/matched"), Direction::Neutral);
        // Overlap efficiency regresses when it falls; the idle/blocked
        // nanosecond components regress when they grow.
        assert_eq!(
            classify("layers/conv1 spot/spot_overlap_efficiency"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            classify("overall/spot_overlap_efficiency"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            classify("pipeline/0/server_busy_share"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            classify("spot_server_busy_share_ppm_mean"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            classify("spot_overlap_server_idle_ns_mean"),
            Direction::LowerIsBetter
        );
        // Cumulative histogram internals scale with run length, never a
        // regression by themselves; the derived mean carries the signal.
        assert_eq!(
            classify("spot_conv_serve_ns_count{scheme=\"spot\"}"),
            Direction::Neutral
        );
        assert_eq!(
            classify("spot_conv_serve_ns_bucket{scheme=\"spot\",le=\"1023\"}"),
            Direction::Neutral
        );
        assert_eq!(classify("spot_session_wall_ns_sum"), Direction::Neutral);
        assert_eq!(
            classify("spot_conv_serve_ns_mean{scheme=\"spot\"}"),
            Direction::LowerIsBetter
        );
    }

    #[test]
    fn scraped_histograms_compare_by_mean_not_volume() {
        // Same mean latency but twice the samples (a longer run): no
        // regression. Double the mean at equal volume: flagged.
        let earlier = parse_prometheus(
            "spot_conv_serve_ns_sum{scheme=\"spot\"} 1000\n\
             spot_conv_serve_ns_count{scheme=\"spot\"} 10\n\
             spot_conv_serve_ns_bucket{scheme=\"spot\",le=\"+Inf\"} 10\n",
        );
        assert_eq!(earlier["spot_conv_serve_ns_mean{scheme=\"spot\"}"], 100.0);
        let longer = parse_prometheus(
            "spot_conv_serve_ns_sum{scheme=\"spot\"} 2000\n\
             spot_conv_serve_ns_count{scheme=\"spot\"} 20\n\
             spot_conv_serve_ns_bucket{scheme=\"spot\",le=\"+Inf\"} 20\n",
        );
        let report = compare(&earlier, &longer, 0.25);
        assert!(
            report.regressions.is_empty(),
            "got {:?}",
            report.regressions
        );
        let slower = parse_prometheus(
            "spot_conv_serve_ns_sum{scheme=\"spot\"} 2000\n\
             spot_conv_serve_ns_count{scheme=\"spot\"} 10\n\
             spot_conv_serve_ns_bucket{scheme=\"spot\",le=\"+Inf\"} 10\n",
        );
        let report = compare(&earlier, &slower, 0.25);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(
            report.regressions[0].metric,
            "spot_conv_serve_ns_mean{scheme=\"spot\"}"
        );
    }

    /// A committed baseline's text; a missing file fails the test.
    fn committed(path: &str) -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    #[test]
    fn committed_baselines_parse() {
        for path in [
            "../../BENCH_heops.json",
            "../../BENCH_serving.json",
            "../../BENCH_pipeline.json",
        ] {
            let map = parse_baseline(&committed(path)).expect("baseline parses");
            assert!(!map.is_empty(), "{path} flattened to nothing");
        }
    }

    #[test]
    fn every_ratio_recomputes_and_trips_its_ceiling_alone() {
        let doc = json::parse(&committed("../../BENCH_heops.json")).expect("parse");
        let dispatched = (doc.get("host").and_then(|host| host.get("dispatched")))
            .and_then(Value::as_str)
            .expect("host.dispatched");
        let run = flatten_json(&doc);
        let min_us = |op: &str, level: &str| format!("entries/{op}/{level}/{dispatched}/min_us");
        let measured = |side, level: &str| match side {
            MinUs(op, times) => run.get(&min_us(op, level)).map(|us| times * us),
            Bytes(_) => None,
        };
        assert!(over_ceiling(&run).is_empty());
        for row in RATIOS {
            for level in row.levels {
                let path = format!("ratios/{}/{level}", row.name);
                let value = *run
                    .get(&path)
                    .unwrap_or_else(|| panic!("{path} not committed"));
                if let Some(recomputed) = row.value(level, measured) {
                    assert_eq!(row.format(recomputed), row.format(value), "{path}");
                }
            }
            let with = |path: &str, value: f64| {
                let mut changed = run.clone();
                changed.insert(path.to_string(), value);
                over_ceiling(&changed)
            };
            let path = format!(
                "ratios/{}/{}",
                row.name,
                row.gated_at.unwrap_or(row.levels[0])
            );
            for &healthy in row.healthy {
                assert!(with(&path, healthy).is_empty(), "{path} = {healthy}");
            }
            let over = with(&path, row.failing);
            assert_eq!(over.len(), 1, "{path} = {}: {over:?}", row.failing);
            assert_eq!(
                (over[0].metric.as_str(), over[0].baseline),
                (path.as_str(), row.ceiling)
            );
            // A ceiling set at one level leaves the others reported only.
            for level in row
                .levels
                .iter()
                .filter(|&&l| row.gated_at.is_some_and(|at| at != l))
            {
                let ungated = format!("ratios/{}/{level}", row.name);
                assert!(with(&ungated, row.failing).is_empty(), "{ungated}");
            }
            // Not a relative metric: a baseline that already sat high
            // does not make a high current value acceptable.
            assert_eq!(classify(&path), Direction::Neutral);
        }
    }
}
