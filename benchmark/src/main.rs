//! SPOT's benchmark: the per-inference latency and byte budget.
//!
//! ```text
//! spot-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--repeat N]
//! ```
//!
//! One invocation cold-starts the system several times (`setup_s`),
//! warms it up, then issues closed-loop requests for `--seconds`,
//! checking every output against the plaintext reference. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` traces every other
//! request and reports every per-layer metric plus the client-side
//! budget table. The last line of standard output is one JSON object.
//! See README.md.

mod clock;
mod contract;
mod layers;
mod micro;
mod spans;
mod stats;
mod tap;
mod workloads;

use contract::{unit_of, END_TO_END, PER_LAYER};
use layers::{derive_phases, layer_sample, LayerSample, EXACT};
use spans::Span;
use stats::{median, quartile_spread};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Deployment, Outcome, Workload};

/// Cold starts per timed run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Warm requests discarded before the clock starts.
const WARMUP_REQUESTS: usize = 2;
/// A pass never reports on fewer samples than this, however short
/// `--seconds` is.
const MIN_SAMPLES: usize = 5;
/// Traced requests whose spans go into the Chrome-trace file.
const TRACE_FILE_REQUESTS: usize = 3;
/// Largest share of a traced request's latency that may be covered by
/// no span before the budget counts as open.
const MAX_BUDGET_RESIDUAL: f64 = 0.02;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 22.0,
        trace: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} takes a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let names = || Workload::ALL.map(Workload::name).join("|");
                args.workloads = vec![Workload::parse(&value).ok_or_else(|| bad(&names()))?];
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--repeat" => {
                args.repeat = value.parse().map_err(|_| bad("a count"))?;
                if args.repeat == 0 {
                    return Err(bad("a count of at least 1"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The result of one run of one workload.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    /// Benchmark self-checks that did not hold (determinism, tap
    /// accounting, budget closure); any entry fails the run.
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

impl Run {
    fn count(&mut self, o: &Outcome) {
        self.attempted += 1;
        if !o.ok {
            self.failed += 1;
            let why = o.error.as_deref().unwrap_or("unknown");
            eprintln!("request {} failed: {why}", o.request);
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                assert!(value.is_finite(), "metric {name} is not a finite number");
                format!(
                    "\"{name}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                    unit_of(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// What must not differ between two warm requests of one workload:
/// every byte, frame, ciphertext, HE-op and cache-hit count.
fn fingerprint(o: &Outcome) -> [u64; 12] {
    [
        o.client_net.sent.bytes,
        o.client_net.sent.messages,
        o.client_net.received.bytes,
        o.client_net.received.messages,
        o.ops.rotate,
        o.ops.mult_plain,
        o.ops.add,
        o.ops.encrypt,
        o.ops.decrypt,
        o.input_cts as u64,
        o.output_cts as u64,
        o.counters.get(spot_trace::Counter::KernelCacheHit),
    ]
}

/// Issues requests and keeps the books every pass shares: attempted,
/// failed, and the determinism check across warm requests.
struct Driver {
    deployment: Deployment,
    reference: Option<(u64, [u64; 12])>,
}

impl Driver {
    /// Cold start plus the first (cold-cache) verified request.
    fn cold_start(workload: Workload, seed: u64, run: &mut Run) -> (Driver, Outcome, f64) {
        let t0 = Instant::now();
        let mut deployment = Deployment::cold_start(workload, seed);
        let first = deployment.request(false);
        let setup_s = t0.elapsed().as_secs_f64();
        let driver = Driver {
            deployment,
            reference: None,
        };
        run.count(&first);
        (driver, first, setup_s)
    }

    /// One warm request, checked against the first warm one.
    fn warm(&mut self, detail: bool, run: &mut Run) -> Outcome {
        let o = self.deployment.request(detail);
        run.count(&o);
        if o.ok {
            let print = fingerprint(&o);
            match self.reference {
                None => self.reference = Some((o.request, print)),
                Some((first, want)) if want != print => run.problems.push(format!(
                    "request {} is not byte- and count-identical to request {first}: \
                     (up B, up frames, down B, down frames, rot, mult, add, enc, dec, in cts, out cts, \
                     cache hits) = {print:?}, expected {want:?}",
                    o.request
                )),
                Some(_) => {}
            }
        }
        o
    }

    /// Closed loop for `seconds`: the next request starts when the
    /// previous one has been verified. Returns the untraced and the
    /// traced requests; with `trace` every other request is traced, so
    /// that both kinds see the same minutes of a noisy machine.
    fn pass(&mut self, seconds: f64, trace: bool, run: &mut Run) -> (Vec<Outcome>, Vec<Outcome>) {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let (mut timed, mut traced) = (Vec::new(), Vec::new());
        while Instant::now() < deadline || timed.len() < MIN_SAMPLES {
            timed.push(self.warm(false, run));
            if trace {
                traced.push(self.warm(true, run));
            }
        }
        (timed, traced)
    }
}

fn seconds_of(outcomes: &[Outcome], field: impl Fn(&Outcome) -> u64) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| o.ok)
        .map(|o| field(o) as f64 / 1e9)
        .collect()
}

/// The smallest sample (0 for none). Neighbours on this shared box
/// slow every thread down, by up to half, in bursts that cover about
/// half of any run; they never speed one up. The fastest request of a
/// run is the one that met no burst, so it is what repeats from run to
/// run (see README, Steadiness), and a slower program moves it just as
/// it moves the median.
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// `--trace 0`: the end-to-end metrics.
fn run_timed(workload: Workload, seed: u64, seconds: f64) -> Run {
    let mut run = Run::default();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut driver = None;
    for _ in 0..SETUP_REPEATS {
        let (d, _, setup_s) = Driver::cold_start(workload, seed, &mut run);
        setups.push(setup_s);
        driver = Some(d);
    }
    let mut driver = driver.expect("at least one cold start");
    for _ in 0..WARMUP_REQUESTS {
        driver.warm(false, &mut run);
    }
    let (done, _) = driver.pass(seconds, false, &mut run);
    let bytes = |pick: fn(&Outcome) -> u64| done.iter().find(|o| o.ok).map_or(0, pick) as f64;
    run.metrics = vec![
        (
            "latency_min_s",
            fastest(&seconds_of(&done, |o| o.latency_ns)),
        ),
        ("setup_s", median(&setups)),
        (
            "client_busy_min_s",
            fastest(&seconds_of(&done, |o| o.client_cpu_ns)),
        ),
        (
            "server_busy_min_s",
            fastest(&seconds_of(&done, |o| o.server_cpu_ns)),
        ),
        ("uplink_bytes_per_req", bytes(|o| o.client_net.sent.bytes)),
        (
            "downlink_bytes_per_req",
            bytes(|o| o.client_net.received.bytes),
        ),
    ];
    println!(
        "{}: {} timed requests after {SETUP_REPEATS} cold starts and {WARMUP_REQUESTS} warm-ups",
        workload.name(),
        done.len()
    );
    run
}

/// Prints the budget of the fastest traced request: one request's own
/// lines, so they add up to its latency exactly.
fn print_budget(workload: Workload, samples: &[LayerSample]) {
    let sample = samples
        .iter()
        .min_by_key(|s| s.latency_ns)
        .expect("at least one traced request");
    let latency = sample.latency_ns as f64;
    println!(
        "\nclient-side budget, {}: request {}, the fastest of {} traced requests, latency {:.5} s",
        workload.name(),
        sample.request,
        samples.len(),
        latency / 1e9
    );
    println!("{:>10}  {:>6}  line", "seconds", "share");
    let row = |ns: f64, what: &str| {
        println!("{:>10.5}  {:>5.1}%  {what}", ns / 1e9, 100.0 * ns / latency);
    };
    let mut small = 0;
    for line in &sample.budget {
        if (line.ns as f64) < 0.001 * latency {
            small += line.ns;
        } else {
            row(line.ns as f64, line.path.trim_start_matches("request/"));
        }
    }
    row(small as f64, "lines below 0.1% each");
    row(
        sample.residual_share * latency,
        "covered by no span (residual)",
    );
    let lines: u64 = sample.budget.iter().map(|l| l.ns).sum();
    row(
        lines as f64 + sample.residual_share * latency,
        "sum = latency",
    );
}

fn write_chrome_trace(workload: Workload, spans: &[Span]) {
    let dir = std::path::Path::new("benchmark/out");
    let path = dir.join(format!("trace_{}.json", workload.name()));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, spans::chrome_trace_json(spans)));
    match written {
        Ok(()) => println!("chrome trace: {} spans -> {}", spans.len(), path.display()),
        Err(e) => eprintln!("chrome trace not written to {}: {e}", path.display()),
    }
}

/// `--trace 1`: every per-layer metric and the budget table.
fn run_traced(workload: Workload, seed: u64, seconds: f64) -> Run {
    let mut run = Run::default();
    let (mut driver, cold, _) = Driver::cold_start(workload, seed, &mut run);
    let cold_builds = cold.counters.get(spot_trace::Counter::KernelCacheBuild);
    let mut values: Vec<(&'static str, f64)> = micro::unit_costs(driver.deployment.context(), seed);
    values.extend(micro::predicted(workload));
    let input = driver.deployment.first_input();
    let t0 = Instant::now();
    std::hint::black_box(driver.deployment.forward_plain(&input));
    values.push(("tensor.forward_plain_s", t0.elapsed().as_secs_f64()));

    for _ in 0..WARMUP_REQUESTS {
        driver.warm(false, &mut run);
    }
    let (timed, traced) = driver.pass(seconds, true, &mut run);

    let mut samples = Vec::new();
    let mut file_spans: Vec<Span> = Vec::new();
    for mut o in traced.into_iter().filter(|o| o.ok) {
        derive_phases(&mut o.spans);
        match layer_sample(&o) {
            Ok(sample) => samples.push(sample),
            Err(problem) => run.problems.push(problem),
        }
        if samples.len() <= TRACE_FILE_REQUESTS {
            // Parents index into the request's own list.
            let base = file_spans.len();
            file_spans.extend(o.spans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
    }
    if samples.is_empty() {
        run.problems.push("no traced request succeeded".into());
        return run;
    }

    for (name, _) in &samples[0].values {
        let per_request: Vec<f64> = samples
            .iter()
            .map(|s| {
                s.values
                    .iter()
                    .find(|(n, _)| n == name)
                    .expect("same metrics")
                    .1
            })
            .collect();
        if EXACT.contains(name) {
            if let Some(i) = per_request.iter().position(|v| *v != per_request[0]) {
                run.problems.push(format!(
                    "{name} = {} on request {} but {} on request {}",
                    per_request[i], samples[i].request, per_request[0], samples[0].request
                ));
            }
        }
        // Times: the undisturbed request; counts and shares: the
        // typical one.
        let value = if unit_of(name) == "s" {
            fastest(&per_request)
        } else {
            median(&per_request)
        };
        values.push((name, value));
    }
    let untraced = seconds_of(&timed, |o| o.latency_ns);
    let traced_min = fastest(
        &samples
            .iter()
            .map(|s| s.latency_ns as f64 / 1e9)
            .collect::<Vec<_>>(),
    );
    let residual = samples.iter().map(|s| s.residual_share).fold(0.0, f64::max);
    if residual > MAX_BUDGET_RESIDUAL {
        run.problems.push(format!(
            "budget does not close: {:.2}% of a traced request's latency is covered by no span",
            100.0 * residual
        ));
    }
    let cold_first_s = cold.latency_ns as f64 / 1e9;
    values.extend([
        (
            "heconv.kernel_cache_entries",
            driver.deployment.kernel_cache_entries() as f64,
        ),
        ("serving.kernel_cache_builds_cold", cold_builds as f64),
        ("serving.cold_first_request_s", cold_first_s),
        (
            "serving.cold_minus_warm_s",
            cold_first_s - fastest(&untraced),
        ),
        ("serving.rejects", driver.deployment.rejects() as f64),
        (
            "bench.trace_overhead_share",
            if untraced.is_empty() {
                0.0
            } else {
                traced_min / fastest(&untraced) - 1.0
            },
        ),
        ("bench.budget_residual_share", residual),
        ("bench.samples", samples.len() as f64),
        ("bench.latency_traced_min_s", traced_min),
        (
            "bench.latency_p50_s",
            if untraced.is_empty() {
                0.0
            } else {
                median(&untraced)
            },
        ),
    ]);

    print_budget(workload, &samples);
    write_chrome_trace(workload, &file_spans);
    // Report in the contract's order, and exactly its names.
    run.metrics = PER_LAYER
        .iter()
        .map(|name| {
            let value = values
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"))
                .1;
            (*name, value)
        })
        .collect();
    run
}

fn print_metrics(workload: Workload, run: &Run) {
    println!("\n{} metrics:", workload.name());
    for (name, value) in &run.metrics {
        println!("  {name:<36} {value:>16.6} {}", unit_of(name));
    }
    for problem in &run.problems {
        println!("  PROBLEM: {problem}");
    }
}

/// `--repeat N`: the spread of each end-to-end metric over N runs with
/// seeds `seed..seed+N`, measured the way the acceptance check does.
fn print_spread(workload: Workload, runs: &[Run]) {
    println!(
        "\n{} over {} runs: quartile spread / median against the bound",
        workload.name(),
        runs.len()
    );
    for metric in END_TO_END {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.metrics.iter().find(|(n, _)| *n == metric.name))
            .map(|(_, v)| *v)
            .collect();
        if values.len() < 2 {
            continue;
        }
        let spread = quartile_spread(&values);
        let (lo, hi) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
        println!(
            "  {:<24} median {:>14.6} {:<3} spread {:>6.2}% max/min-1 {:>6.2}% bound {:>4.0}%{}  {:?}",
            metric.name,
            median(&values),
            unit_of(metric.name),
            100.0 * spread,
            100.0 * (hi / lo - 1.0),
            100.0 * metric.bound,
            if spread > metric.bound && metric.name != "setup_s" {
                "  ABOVE BOUND"
            } else {
                ""
            },
            values
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("spot-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // Per-session INFO lines would be one stderr write per request.
    spot_trace::log::set_max_level(spot_trace::log::Level::Warn);
    println!(
        "spot-benchmark: seed {} seconds {} trace {} threads available {}",
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut all_correct = true;
    for &workload in &args.workloads {
        let mut runs = Vec::new();
        for k in 0..args.repeat as u64 {
            let run = if args.trace {
                run_traced(workload, args.seed + k, args.seconds)
            } else {
                run_timed(workload, args.seed + k, args.seconds)
            };
            print_metrics(workload, &run);
            all_correct &= run.correct();
            runs.push(run);
        }
        if args.repeat > 1 && !args.trace {
            print_spread(workload, &runs);
        }
        // The result line of this workload's last run; with one
        // workload and one run, the last line of the output.
        println!("{}", runs.last().expect("repeat >= 1").json());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spot_trace::json::{parse, Value};

    #[test]
    fn result_line_is_the_contracts_json_object() {
        let mut run = Run {
            attempted: 12,
            failed: 0,
            problems: Vec::new(),
            metrics: vec![
                ("latency_min_s", 0.4703125),
                ("uplink_bytes_per_req", 7595041.0),
                ("stream.server_busy_share", 1e-7),
            ],
        };
        let doc = parse(&run.json()).expect("result line parses");
        assert!(!run.json().contains('\n'));
        assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(12.0));
        assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(0.0));
        let metric = |name: &str| {
            let m = doc
                .get("metrics")
                .and_then(|m| m.get(name))
                .expect("metric present");
            (
                m.get("value").and_then(Value::as_f64).unwrap(),
                m.get("unit").and_then(Value::as_str).unwrap().to_string(),
            )
        };
        assert_eq!(metric("latency_min_s"), (0.4703125, "s".to_string()));
        assert_eq!(metric("uplink_bytes_per_req"), (7595041.0, "B".to_string()));
        assert_eq!(
            metric("stream.server_busy_share"),
            (1e-7, "ratio".to_string())
        );
        assert!(run.json().starts_with("{\"correct\":true,"));

        // A failed self-check or request flips `correct`.
        run.problems.push("budget does not close".into());
        assert!(run.json().starts_with("{\"correct\":false,"));
        run.problems.clear();
        run.failed = 1;
        assert!(!run.correct());
    }
}
