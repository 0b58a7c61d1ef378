//! # spot-bench — the harness regenerating every table and figure of the
//! SPOT paper.
//!
//! Each binary in `src/bin/` prints one table (`table1` … `table10`,
//! `fig11`, `fig6_timeline`) with the same rows/columns the paper
//! reports; see EXPERIMENTS.md for the paper-vs-measured record. The
//! shared machinery here builds block workloads, calibrates the real HE
//! operation costs of `spot-he` on the local machine, and wires scheme
//! plans into the pipeline simulator.

#![warn(missing_docs)]

pub mod calibrate;
pub mod check;
pub mod timing;
pub mod traceio;
pub mod workloads;

use spot_core::session::SchemeKind;
use spot_proto::{LinkModel, ProtoError, TcpTransport};
use std::time::Duration;

pub use calibrate::calibrate_he_costs;
pub use workloads::{
    basic_block_shapes, block_table, bottleneck_block_shapes, simulate_block, vgg_block_shapes,
    BlockResult,
};

/// The value following `flag` on a binary's command line, if any.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The flags `usage` names, each with whether it takes a value: a flag
/// followed by a placeholder (`--serve N`) does, one closed by `]` or
/// `)` or followed by `|` or another flag (`[--warn-only]`) does not.
fn usage_flags(usage: &str) -> Vec<(&str, bool)> {
    let words: Vec<&str> = usage.split_whitespace().chain(["|"]).collect();
    let flags = words.windows(2).filter_map(|pair| {
        let open = pair[0].trim_start_matches(['[', '(']);
        let flag = open.trim_end_matches([']', ')']);
        let valued = flag == open && !pair[1].starts_with(['[', '(', '|', '-']);
        flag.starts_with("--").then_some((flag, valued))
    });
    flags.collect()
}

/// The first argument after the program name that `usage` does not
/// name, or a flag that takes a value with nothing after it.
fn unknown_arg<'a>(args: &'a [String], usage: &str) -> Option<&'a str> {
    let flags = usage_flags(usage);
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        let known = (flags.iter().find(|(flag, _)| flag == arg))
            .is_some_and(|&(_, valued)| !valued || rest.next().is_some());
        if !known {
            return Some(arg);
        }
    }
    None
}

/// Exits with status 2 and `usage` on stderr when `args` holds an
/// argument `usage` does not name: a binary's usage line is the one
/// definition of its flags.
pub fn refuse_unknown_args(args: &[String], usage: &str) {
    if let Some(arg) = unknown_arg(args, usage) {
        eprintln!("unknown or incomplete argument {arg:?}\n{usage}");
        std::process::exit(2);
    }
}

/// `--scheme spot|channelwise|cheetah` (default `spot`).
///
/// # Panics
///
/// Panics on any other value.
pub fn scheme_arg(args: &[String]) -> SchemeKind {
    let name = arg_value(args, "--scheme").unwrap_or_else(|| "spot".into());
    SchemeKind::ALL
        .into_iter()
        .find(|s| s.name() == name)
        .unwrap_or_else(|| panic!("unknown scheme {name:?} (use spot|channelwise|cheetah)"))
}

/// `--link lan|wlan` (default `lan`): the link model a client's
/// transfer table prices its bytes with.
///
/// # Panics
///
/// Panics on any other value.
pub fn link_arg(args: &[String]) -> LinkModel {
    match arg_value(args, "--link").as_deref().unwrap_or("lan") {
        "lan" => LinkModel::lan(),
        "wlan" => LinkModel::wlan(),
        other => panic!("unknown link {other:?} (use lan|wlan)"),
    }
}

/// Connects to a `spot-server` at `addr`, retrying every 100 ms for
/// up to 10 s while it comes up; the last error if it never does.
pub fn connect_with_retry(addr: &str) -> Result<TcpTransport, ProtoError> {
    let mut tries = 0;
    loop {
        match TcpTransport::connect(addr) {
            Err(_) if tries < 99 => tries += 1,
            done => return done,
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "usage: spot-server [--listen 127.0.0.1:7341] [--threads N] \
         [--capacity N] [--seed S] [--trace out.json] [--max-sessions N] [--max-batch N] \
         [--pool N] [--serve N] [--read-timeout-ms MS]";

    fn args(line: &str) -> Vec<String> {
        std::iter::once("spot-server")
            .chain(line.split_whitespace())
            .map(String::from)
            .collect()
    }

    #[test]
    fn the_usage_line_names_each_flag_and_whether_it_takes_a_value() {
        let valued = [
            "--listen",
            "--threads",
            "--capacity",
            "--seed",
            "--trace",
            "--max-sessions",
            "--max-batch",
            "--pool",
            "--serve",
            "--read-timeout-ms",
        ];
        assert_eq!(usage_flags(USAGE), valued.map(|flag| (flag, true)));
        let check =
            "usage: bench_check --baseline PATH --current PATH [--tolerance F] [--warn-only]";
        assert_eq!(
            usage_flags(check),
            [
                ("--baseline", true),
                ("--current", true),
                ("--tolerance", true),
                ("--warn-only", false),
            ]
        );
    }

    #[test]
    fn unknown_and_incomplete_arguments_are_refused() {
        let all = "--listen a:1 --threads 2 --capacity 2 --seed 1 --trace t --max-sessions 4 \
                   --max-batch 2 --pool 1 --serve 1 --read-timeout-ms 50";
        assert_eq!(unknown_arg(&args(all), USAGE), None);
        assert_eq!(
            unknown_arg(&args("--serve 1 --mode open"), USAGE),
            Some("--mode")
        );
        assert_eq!(unknown_arg(&args("--serve 1 4"), USAGE), Some("4"));
        assert_eq!(
            unknown_arg(&args("--serve 1 --threads"), USAGE),
            Some("--threads")
        );
        assert_eq!(
            unknown_arg(&args("--serve 1 --thread 4"), USAGE),
            Some("--thread")
        );
        for retired in ["--admin 127.0.0.1:9345", "--linger-ms 20000"] {
            let flag = retired.split_whitespace().next();
            assert_eq!(unknown_arg(&args(retired), USAGE), flag);
        }
    }

    #[test]
    fn the_link_defaults_to_lan_and_names_wlan() {
        assert_eq!(link_arg(&args("")), LinkModel::lan());
        assert_eq!(link_arg(&args("--link lan")), LinkModel::lan());
        assert_eq!(link_arg(&args("--link wlan")), LinkModel::wlan());
    }

    #[test]
    #[should_panic(expected = "unknown link \"wlna\"")]
    fn a_misspelt_link_is_refused() {
        link_arg(&args("--link wlna"));
    }
}
