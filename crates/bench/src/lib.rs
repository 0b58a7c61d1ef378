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
pub mod traceio;
pub mod workloads;

use spot_core::session::SchemeKind;

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
