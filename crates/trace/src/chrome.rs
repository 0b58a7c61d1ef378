//! Chrome-trace-format JSON exporter.
//!
//! Produces the JSON-array flavour of the [Trace Event Format] that
//! `chrome://tracing` and [Perfetto] load directly: spans become
//! complete (`"ph":"X"`) events, instants `"i"`, gauges counter
//! (`"C"`) events, and registered thread names become `thread_name`
//! metadata events. Timestamps are microseconds (fractional, from the
//! nanosecond trace clock); span/parent ids ride in `args` so the tree
//! survives tools that re-sort events.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [Perfetto]: https://ui.perfetto.dev

use crate::json::escape_into;
use crate::{Event, Phase};
use std::fmt::Write as _;

pub(crate) fn push_us(out: &mut String, ns: u64) {
    // Microseconds with nanosecond precision, printed without float
    // rounding surprises: <int part>.<3 digits>.
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Renders `events` (plus the thread-name registry from
/// [`crate::thread_names`]) as a Chrome-trace JSON array.
pub fn chrome_trace_json(events: &[Event]) -> String {
    chrome_trace_json_with_threads(events, &crate::thread_names())
}

/// [`chrome_trace_json`] with an explicit thread-name table (exporters
/// in tests pass a fixed registry for determinism).
pub fn chrome_trace_json_with_threads(events: &[Event], threads: &[(u32, String)]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("[\n");
    let mut first = true;
    let mut emit = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push_str(",\n");
        }
    };

    for (tid, name) in threads {
        emit(&mut out);
        out.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
        let _ = write!(out, "{tid}");
        out.push_str(",\"args\":{\"name\":\"");
        escape_into(&mut out, name);
        out.push_str("\"}}");
    }

    for ev in events {
        emit(&mut out);
        push_event(&mut out, ev, 1);
    }
    out.push_str("\n]\n");
    out
}

/// Appends one event as a Chrome-trace object under process `pid`: the
/// single-party export's events (pid 1) and the merged two-party one's.
pub(crate) fn push_event(out: &mut String, ev: &Event, pid: u32) {
    out.push_str("{\"name\":\"");
    escape_into(out, ev.name.as_str());
    out.push_str("\",\"cat\":\"");
    out.push_str(ev.cat.name());
    out.push_str("\",\"ph\":\"");
    match ev.phase {
        Phase::Span { .. } => out.push('X'),
        Phase::Instant => out.push('i'),
        Phase::Gauge { .. } => out.push('C'),
    }
    out.push_str("\",\"ts\":");
    push_us(out, ev.ts_ns);
    if let Phase::Span { dur_ns } = ev.phase {
        out.push_str(",\"dur\":");
        push_us(out, dur_ns);
    }
    let _ = write!(out, ",\"pid\":{pid},\"tid\":{}", ev.tid);
    if matches!(ev.phase, Phase::Instant) {
        out.push_str(",\"s\":\"t\"");
    }
    out.push_str(",\"args\":{");
    let mut first_arg = true;
    let mut arg_u64 = |out: &mut String, key: &str, v: u64| {
        if first_arg {
            first_arg = false;
        } else {
            out.push(',');
        }
        let _ = write!(out, "\"{key}\":{v}");
    };
    match ev.phase {
        Phase::Gauge { value } => arg_u64(out, "value", value),
        _ => {
            if ev.id != 0 {
                arg_u64(out, "span", ev.id as u64);
            }
            if ev.parent != 0 {
                arg_u64(out, "parent", ev.parent as u64);
            }
        }
    }
    if let Some((key, v)) = ev.arg {
        arg_u64(out, key, v);
    }
    if let Some((key, v)) = ev.arg2 {
        arg_u64(out, key, v);
    }
    out.push_str("}}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cat, Name};

    fn ev(name: &'static str, ts: u64, dur: u64, tid: u32, id: u32, parent: u32) -> Event {
        Event {
            name: Name::Static(name),
            cat: Cat::Stream,
            ts_ns: ts,
            tid,
            id,
            parent,
            arg: None,
            arg2: None,
            phase: Phase::Span { dur_ns: dur },
        }
    }

    #[test]
    fn export_is_valid_json() {
        let events = vec![
            ev("outer", 1_000, 10_000, 1, 1, 0),
            ev("inner \"quoted\"\n", 2_000, 3_000, 1, 2, 1),
            Event {
                name: Name::Owned("depth".into()),
                cat: Cat::Stream,
                ts_ns: 2_500,
                tid: 2,
                id: 0,
                parent: 0,
                arg: None,
                arg2: None,
                phase: Phase::Gauge { value: 3 },
            },
            Event {
                name: Name::Static("mark"),
                cat: Cat::App,
                ts_ns: 4_000,
                tid: 1,
                id: 0,
                parent: 1,
                arg: Some(("bytes", 42)),
                arg2: Some(("flow", 7)),
                phase: Phase::Instant,
            },
        ];
        let threads = vec![(1, "main".to_string()), (2, "server-0".to_string())];
        let json = chrome_trace_json_with_threads(&events, &threads);
        crate::json::validate(&json).expect("exported trace must be valid JSON");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":10.000"));
        assert!(json.contains("\"bytes\":42"));
        assert!(json.contains("\"flow\":7"));
        assert!(json.contains("inner \\\"quoted\\\"\\n"));
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = chrome_trace_json_with_threads(&[], &[]);
        crate::json::validate(&json).expect("empty trace");
        assert_eq!(json.trim(), "[\n\n]".trim());
    }
}
