//! Cross-party trace merge: fuses the Chrome-trace exports of a
//! `spot-client` and a `spot-server` run into one Perfetto-loadable
//! timeline and prints the per-layer overlap attribution.
//!
//! ```text
//! trace_merge --client client.json --server server.json
//!             --out merged.json [--json report.json]
//! ```
//!
//! The merged timeline puts client lanes under pid 1 and server lanes
//! under pid 2, aligns the server clock using the clock-sync estimate
//! the client recorded at teardown, and draws flow arrows from every
//! tagged wire send to the receive that consumed it. The text report
//! (stdout) ends with the whole-session `overlap efficiency:` line the
//! CI smoke job greps; `--json` writes the `spot-bench-pipeline/v1`
//! report consumed by `bench_check` against `BENCH_pipeline.json`.

use spot_bench::arg_value;
use spot_bench::traceio::{read_trace, write_trace_json};
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let usage = "usage: trace_merge --client CLIENT.json --server SERVER.json \
                 --out MERGED.json [--json REPORT.json]";
    let client_path = arg_value(&args, "--client").unwrap_or_else(|| panic!("{usage}"));
    let server_path = arg_value(&args, "--server").unwrap_or_else(|| panic!("{usage}"));
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| panic!("{usage}"));
    let json_path = arg_value(&args, "--json");

    let client = read_trace(Path::new(&client_path)).expect("client trace");
    let server = read_trace(Path::new(&server_path)).expect("server trace");
    let merged = spot_trace::correlate::merge(&client, &server);

    write_trace_json(Path::new(&out_path), &merged.json);
    println!(
        "trace_merge: merged {} client + {} server spans -> {out_path}",
        merged.report.client_spans, merged.report.server_spans
    );
    if let Some(path) = &json_path {
        let report_json = merged.report.to_json();
        write_trace_json(Path::new(path), &report_json);
        println!("trace_merge: report -> {path}");
    }
    print!("{}", merged.report.text());
}
