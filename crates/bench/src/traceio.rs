//! `--trace <path>` support shared by the demo binaries: drain the
//! process-wide [`spot_trace`] sink into a Chrome-trace JSON file
//! (loadable in Perfetto / `chrome://tracing`) and print the text
//! summary of spans and counters. The same module holds the reader
//! half (`read_trace`) the `trace_merge` tool uses to load both
//! parties' exports back.

use spot_trace::correlate::PartyTrace;
use spot_trace::CounterSnapshot;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The output file `flag` names on the command line, if any, opened for
/// writing at startup so that a path that cannot be written is refused
/// before the run instead of after it: exits with status 2 and `usage`
/// on stderr when the file cannot be opened. A file that is there is
/// not truncated — [`write_trace_json`] replaces it at the end — so a
/// run that fails keeps the previous output, and an output path that is
/// also an input is read before it is written.
pub fn output_path_arg(args: &[String], flag: &str, usage: &str) -> Option<PathBuf> {
    let path = PathBuf::from(crate::arg_value(args, flag)?);
    let open = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(&path);
    if let Err(e) = open {
        eprintln!("cannot create {flag} file {}: {e}\n{usage}", path.display());
        std::process::exit(2);
    }
    Some(path)
}

/// Enables tracing — including wire-propagated trace context, so a
/// traced client stamps its `Setup` frames with trace ids and runs the
/// clock-sync probe at teardown — and returns the counter baseline to
/// delta against at dump time. Call once at startup when `--trace` is
/// given.
pub fn trace_begin() -> CounterSnapshot {
    spot_trace::enable_wire_context();
    spot_trace::counters()
}

/// Drops everything traced so far and returns a fresh counter
/// baseline. Used after a warm-up or reference run so the exported
/// trace covers only the run under observation.
pub fn trace_restart() -> CounterSnapshot {
    let _ = spot_trace::take_events();
    spot_trace::counters()
}

/// Validates `json` and writes it to `path`.
///
/// Panics if the export fails JSON validation or the file cannot be
/// written — a trace the user asked for must not vanish silently. The
/// binaries take `path` from [`output_path_arg`], so an unwritable path
/// has already been refused at startup.
pub fn write_trace_json(path: &Path, json: &str) {
    if let Err(e) = spot_trace::json::validate(json) {
        panic!("trace export produced invalid JSON: {e}");
    }
    let mut f = std::fs::File::create(path)
        .unwrap_or_else(|e| panic!("cannot create trace file {}: {e}", path.display()));
    f.write_all(json.as_bytes())
        .and_then(|()| f.flush())
        .unwrap_or_else(|e| panic!("cannot write trace file {}: {e}", path.display()));
}

/// Drains every recorded event, exports Chrome-trace JSON to `path`
/// (validated before writing), and prints the span/counter text
/// summary. Returns the number of events written.
pub fn trace_finish(path: &Path, baseline: &CounterSnapshot) -> usize {
    let events = spot_trace::take_events();
    let threads = spot_trace::thread_names();
    let delta = spot_trace::counters().delta(baseline);
    let json = spot_trace::chrome::chrome_trace_json_with_threads(&events, &threads);
    write_trace_json(path, &json);
    println!(
        "trace: {} events, JSON OK -> {}",
        events.len(),
        path.display()
    );
    println!("{}", spot_trace::summary::text_summary(&events, &delta));
    events.len()
}

/// Reads a Chrome-trace JSON export back into a [`PartyTrace`].
pub fn read_trace(path: &Path) -> Result<PartyTrace, String> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read trace file {}: {e}", path.display()))?;
    spot_trace::correlate::parse_chrome_trace(&json).map_err(|e| format!("{}: {e}", path.display()))
}
